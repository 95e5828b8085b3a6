//! `venues_live`: one in-process `EventServer`; two-camera dinner
//! venues arrive on a staggered schedule, each opening its event with
//! the default config (emotions on), streaming pre-rendered frames over
//! framed TCP at 25 fps per camera in an open loop, and finishing.
//!
//! The generator is two threads in this process: a control thread that
//! makes the blocking `OpenEvent` round trips on schedule, and a data
//! thread that makes every frame send at its due time and then each
//! venue's `FinishEvent` round trip. A venue's frame `j` is due
//! `j / 25` s after its `Opened` reply, so a stall anywhere in the
//! server shows as lag on every send queued behind it.

use crate::cpu::process_cpu_s;
use crate::gate::{digest_violation, f1_violation, Ledger, LookatCounts};
use crate::inproc::{
    closed_loop, inline_sequential, pool_metrics, reconcile_ratio_check, replay_matches,
    SessionCounters, RECONCILE_BUDGET_S, SETUPS,
};
use crate::inputs::{render_event, EventInputs};
use crate::metrics::{checked_tail, median, percentile, Report};
use crate::openloop::{send_at, Clock, SendRecord, WallClock};
use crate::replay::{
    layer_self_s, replay_event, set_layer_metrics, CameraCounts, ClassifierParts, ReplayWork,
};
use crate::rss::RssGrowth;
use crate::trace::{span_cost_s, Tracer};
use crate::wire;
use dievent_analysis::validate_sequence;
use dievent_core::{
    train_emotion_classifier, CameraId, DiEventPipeline, EventAnalysis, EventId, PipelineConfig,
    SessionInput, ThreadPool,
};
use dievent_scene::Scenario;
use dievent_server::{EventClient, EventServer, FinishedEvent, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Frames per second each camera streams.
pub const FPS: f64 = 25.0;

pub struct Venues {
    pub config: PipelineConfig,
    pub venues: Vec<EventInputs>,
    /// Seconds between two venues' `OpenEvent`s.
    pub stagger_s: f64,
    /// Pooled look-at F1 the unmodified program meets.
    pub f1_floor: f64,
}

/// Distinct dinners a run renders. Venue `k` shows dinner `k % DINNERS`
/// under its own event id, so a run holds as many venues as its length
/// allows while the rendered frames stay within a few hundred MB.
pub const DINNERS: usize = 4;

impl Venues {
    /// `count` venues of `frames` frames, seeded from the workload seed.
    pub fn generate(
        seed: u64,
        count: usize,
        frames: usize,
        stagger_s: f64,
        render_threads: usize,
    ) -> Self {
        let config = PipelineConfig::default();
        let dinners: Vec<EventInputs> = (0..count.min(DINNERS) as u64)
            .map(|k| {
                let venue_seed = seed.wrapping_mul(1_000).wrapping_add(k + 1);
                render_event(
                    Scenario::two_camera_dinner(frames, venue_seed),
                    &config,
                    render_threads,
                )
            })
            .collect();
        let venues = (0..count)
            .map(|k| dinners[k % dinners.len()].clone())
            .collect();
        Venues {
            config,
            venues,
            stagger_s,
            f1_floor: 0.65,
        }
    }

    fn event_id(k: usize) -> EventId {
        EventId::new(k as u64 + 1)
    }
}

/// What one venue saw.
#[derive(Default)]
struct VenueOutcome {
    open: SendRecord,
    sends: Vec<SendRecord>,
    send_errors: u64,
    finish_started: f64,
    finished_at: f64,
    finished: Option<FinishedEvent>,
    refused: u64,
}

/// Everything one schedule measured.
struct Schedule {
    venues: Vec<VenueOutcome>,
    last_reply: f64,
    /// Processor seconds the process spent over the schedule: the
    /// server's work plus the generator's sends.
    cpu_s: f64,
    rss_growth_mb: f64,
    clock_origin: Instant,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        retain_analyses: true,
        ..ServerConfig::default()
    }
}

fn bind() -> Result<EventServer, String> {
    let addr: SocketAddr = "127.0.0.1:0".parse().map_err(|e| format!("{e}"))?;
    EventServer::bind(addr, server_config()).map_err(|e| format!("server bind failed: {e}"))
}

/// From the control thread to the data thread: an opened venue, its
/// connection, and when its `Opened` reply arrived.
type Opened = (usize, EventClient, f64);

impl Venues {
    /// Server bind plus one `OpenEvent` round trip: the work before the
    /// server accepts the first input. Measured on a fresh server each
    /// time with a probe event that never streams.
    fn setup_once(&self) -> Result<f64, String> {
        let started = Instant::now();
        let mut server = bind()?;
        let mut client =
            EventClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        match client.open_event(EventId::new(9_999), &self.venues[0].scenario, self.config) {
            Ok(Ok(())) => {}
            other => return Err(format!("probe open refused: {other:?}")),
        }
        let elapsed = started.elapsed().as_secs_f64();
        drop(client);
        server.shutdown_join();
        Ok(elapsed)
    }

    /// Runs the staggered schedule against `server`.
    fn schedule(&self, server: &EventServer) -> Result<Schedule, String> {
        let cpu_before = process_cpu_s()?;
        let addr = server.local_addr();
        let count = self.venues.len();
        let clock = WallClock::starting_now();
        let (to_data, data_rx) = mpsc::channel::<Opened>();
        // Memory is sampled when each venue has finished, not between
        // sends: the frames a stall leaves queued in the tenants drain
        // within a fraction of a second, and catching that peak or not
        // would make the figure a matter of sampling luck.
        let mut rss = RssGrowth::from_now();

        let (opens, streamed) = std::thread::scope(|s| -> Result<_, String> {
            let venues = &self.venues;
            let clock = &clock;
            let rss = &mut rss;
            let data = s.spawn(move || data_thread(venues, clock, data_rx, rss));

            // Control thread: opens on schedule.
            let mut opens = Vec::with_capacity(count);
            for (k, venue) in venues.iter().enumerate() {
                let due = k as f64 * self.stagger_s;
                let (record, result) = send_at(clock, due, || -> Result<_, String> {
                    let mut client =
                        EventClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let reply = client
                        .open_event(Self::event_id(k), &venue.scenario, self.config)
                        .map_err(|e| format!("venue {k} open: {e}"))?;
                    Ok((client, reply.is_ok()))
                });
                let (client, opened) = result?;
                if opened {
                    to_data
                        .send((k, client, record.done))
                        .map_err(|_| "data thread ended early".to_owned())?;
                }
                opens.push((record, opened));
            }
            // No more venues: the data thread exits once its active
            // venues have finished.
            drop(to_data);
            let streamed = data
                .join()
                .map_err(|_| "data thread panicked".to_owned())??;
            Ok((opens, streamed))
        })?;

        let mut outcomes = streamed;
        for (outcome, (record, opened)) in outcomes.iter_mut().zip(opens) {
            outcome.open = record;
            outcome.refused += u64::from(!opened);
        }
        let last_reply = outcomes.iter().map(|o| o.finished_at).fold(0.0, f64::max);
        Ok(Schedule {
            venues: outcomes,
            last_reply,
            cpu_s: process_cpu_s()? - cpu_before,
            rss_growth_mb: rss.growth_mb(),
            clock_origin: clock.start(),
        })
    }

    /// The distinct dinners, one per rendering.
    fn dinners(&self) -> &[EventInputs] {
        &self.venues[..self.venues.len().min(DINNERS)]
    }

    /// Inline-sequential reference digests of the distinct dinners,
    /// finished without ground truth as the server finishes its tenants.
    fn references(&self, pipeline: &DiEventPipeline) -> Result<Vec<EventAnalysis>, String> {
        self.dinners()
            .iter()
            .map(|v| {
                let mut session = pipeline
                    .session(&v.scenario)
                    .map_err(|e| format!("reference open: {e}"))?;
                for row in &v.inputs {
                    for (c, input) in row.iter().enumerate() {
                        session
                            .push(CameraId::new(c), input.clone())
                            .map_err(|e| format!("reference push: {e}"))?;
                    }
                }
                session
                    .finish()
                    .map_err(|e| format!("reference finish: {e}"))
            })
            .collect()
    }

    /// Gate every venue and pool the look-at counts of the tenants'
    /// retained analyses.
    fn gate(
        &self,
        server: &EventServer,
        schedule: &Schedule,
        references: &[EventAnalysis],
        report: &mut Report,
    ) -> Vec<(EventAnalysis, SessionCounters)> {
        let mut lookat = LookatCounts::default();
        let mut analyses = Vec::new();
        for (k, (venue, outcome)) in self.venues.iter().zip(&schedule.venues).enumerate() {
            let label = format!("venue {k}");
            let id = Self::event_id(k);
            let sent = outcome.sends.len() as u64;
            report.attempted += 1 + sent + outcome.send_errors;
            let Some(finished) = &outcome.finished else {
                report.failed += 1 + sent;
                report.violation(format!("{label}: no Finished reply"));
                continue;
            };
            let Some(analysis) = server.take_analysis(id) else {
                report.violation(format!("{label}: the server retained no analysis"));
                continue;
            };
            let counters = SessionCounters::read(
                &analysis.telemetry,
                venue.cameras(),
                &[format!("tenant=\"{id}\"")],
            );
            let ledger = Ledger {
                cameras: venue.cameras(),
                pushed: finished.pushed,
                processed: finished.processed,
                dropped: finished.dropped,
                refused: outcome.refused
                    + outcome.send_errors
                    + sent.saturating_sub(finished.pushed),
                frames: finished.digest.frames,
                late_arrivals: counters.late,
                evictions: counters.evictions,
            };
            report.failed += ledger.failed();
            for v in ledger.violations(&label) {
                report.violation(v);
            }
            if ledger.pushed != venue.total_inputs() {
                report.violation(format!(
                    "{label}: server accepted {} of {} inputs",
                    ledger.pushed,
                    venue.total_inputs()
                ));
            }
            if ledger.evictions == 0 {
                if let Some(v) =
                    digest_violation(&label, &finished.digest, &references[k % DINNERS].digest())
                {
                    report.violation(v);
                }
            }
            lookat.add(&validate_sequence(&analysis.matrices, &venue.truth));
            analyses.push((analysis, counters));
        }
        if let Some(v) = f1_violation("venues", lookat.f1(), self.f1_floor) {
            report.violation(v);
        }
        report.set("lookat_f1", lookat.f1());
        analyses
    }

    /// The untraced run: every end-to-end metric.
    pub fn run(&self, report: &mut Report) -> Result<(), String> {
        let setups: Vec<f64> = (0..SETUPS)
            .map(|_| self.setup_once())
            .collect::<Result<_, _>>()?;
        let mut server = bind()?;
        let schedule = self.schedule(&server)?;
        let reference = DiEventPipeline::new(inline_sequential(&self.config));
        let references = self.references(&reference)?;
        self.gate(&server, &schedule, &references, report);
        server.shutdown_join();
        end_to_end_metrics(&schedule, &setups, report);
        Ok(())
    }

    /// The traced run: the same schedule with every client call as a
    /// span, plus a layer replay of every venue's inputs.
    pub fn run_traced(
        &self,
        trace_path: &std::path::Path,
        report: &mut Report,
    ) -> Result<(), String> {
        let span_cost = span_cost_s(100_000);
        let train_started = Instant::now();
        let classifier =
            train_emotion_classifier(&self.config.training, self.config.training_seed).0;
        let train_s = train_started.elapsed().as_secs_f64();
        let parts = ClassifierParts::from_classifier(&classifier)?;

        let mut tracer = Tracer::new();
        let mut server = bind()?;
        let pool_before = ThreadPool::global().stats();
        let schedule = self.schedule(&server)?;
        let pool_after = ThreadPool::global().stats();
        let reference = DiEventPipeline::new(inline_sequential(&self.config));
        let references = self.references(&reference)?;
        let tenants = self.gate(&server, &schedule, &references, report);
        server.shutdown_join();

        let offset = tracer.at(schedule.clock_origin);
        for (k, outcome) in schedule.venues.iter().enumerate() {
            let req = k as u64 + 1;
            let root = tracer.record(
                "server.venue",
                req,
                offset + outcome.open.started,
                offset + outcome.finished_at,
                None,
            );
            tracer.record(
                "server.open",
                req,
                offset + outcome.open.started,
                offset + outcome.open.done,
                Some(root),
            );
            for send in &outcome.sends {
                tracer.record(
                    "server.send",
                    req,
                    offset + send.started,
                    offset + send.done,
                    Some(root),
                );
            }
            tracer.record(
                "server.finish",
                req,
                offset + outcome.finish_started,
                offset + outcome.finished_at,
                Some(root),
            );
        }

        // The layer replay, reconciled against untraced inline sessions
        // in rounds over every dinner until the budget is spent. One
        // dinner's session is too short to time against its replay on its
        // own, so a round's ratio is pooled over the dinners, and the check
        // takes the median round. The first round's spans are kept.
        let mut ratios = Vec::new();
        let mut replay_layers = 0.0;
        let mut records = 0u64;
        let mut counts = CameraCounts::default();
        let reconciling = Instant::now();
        while ratios.is_empty() || reconciling.elapsed().as_secs_f64() < RECONCILE_BUDGET_S {
            let first = ratios.is_empty();
            let (mut inline_wall, mut layers) = (0.0, 0.0);
            for (k, venue) in self.dinners().iter().enumerate() {
                let session = reference
                    .session(&venue.scenario)
                    .map_err(|e| format!("reference open: {e}"))?;
                let inline = closed_loop(&reference, session, venue, None)?;
                inline_wall += inline.wall_s;
                let mut venue_tracer = Tracer::new();
                let outcome = replay_event(
                    &mut venue_tracer,
                    venue,
                    &self.config,
                    Some(&parts),
                    (k as u64 + 1) << 32,
                );
                layers += layer_self_s(&venue_tracer, span_cost);
                if first {
                    replay_matches(report, &outcome, &inline);
                    records += outcome.repository.len() as u64;
                    for c in &outcome.cameras {
                        counts.add(c);
                    }
                    tracer.absorb(venue_tracer);
                }
            }
            if first {
                replay_layers = layers;
            }
            ratios.push(layers / inline_wall);
        }
        let reconcile = median(&ratios);
        reconcile_ratio_check(report, reconcile);

        let venues = self.venues.len().max(1) as f64;
        let sends: Vec<&SendRecord> = schedule
            .venues
            .iter()
            .flat_map(|o| o.sends.iter())
            .collect();

        set_layer_metrics(
            report,
            &tracer,
            &ReplayWork {
                counts,
                frames: self.dinners().iter().map(|v| v.frames() as u64).sum(),
                camera_inputs: self.dinners().iter().map(|v| v.total_inputs()).sum(),
                records,
                events: self.dinners().len() as u64,
            },
        );
        report.set(
            "metadata.records",
            tenants.iter().map(|(a, _)| a.repository.len() as f64).sum(),
        );
        report.set("emotion.train.s", train_s);
        let mean_oh = tenants
            .iter()
            .map(|(a, _)| a.mean_overall_happiness())
            .sum::<f64>()
            / venues;
        let mean_truth = self.venues.iter().map(|v| v.truth_happy_share).sum::<f64>() / venues;
        report.set("emotion.oh_error_pp", (mean_oh - 100.0 * mean_truth).abs());
        // The server's push, poll and finish calls into its sessions
        // happen inside the server, and frame results only return in
        // `Finished`; from outside only the round trips below are
        // observable.
        report.set("core.push.blocked_ms", 0.0);
        report.set("core.poll.us_per_call", 0.0);
        report.set("core.finish.s", 0.0);
        report.set("core.result_latency_p50_ms", 0.0);
        report.set("core.result_latency_p98_ms", 0.0);
        report.set(
            "core.sequencer.evictions",
            tenants.iter().map(|(_, c)| c.evictions).sum::<u64>() as f64,
        );
        report.set(
            "core.sequencer.late_arrivals",
            tenants.iter().map(|(_, c)| c.late).sum::<u64>() as f64,
        );
        report.set("process.peak_rss_growth_mb", schedule.rss_growth_mb);
        pool_metrics(report, &pool_before, &pool_after, schedule.last_reply);
        let opens: Vec<f64> = schedule
            .venues
            .iter()
            .map(|o| o.open.done - o.open.started)
            .collect();
        let finishes: Vec<f64> = schedule
            .venues
            .iter()
            .map(|o| o.finished_at - o.finish_started)
            .collect();
        report.set("server.open.s", median(&opens));
        report.set(
            "server.send.us_per_frame",
            sends.iter().map(|r| r.done - r.started).sum::<f64>() * 1e6 / sends.len().max(1) as f64,
        );
        let mut decode = Vec::new();
        for v in self.dinners() {
            decode.push(wire::decode_us_per_input(v)?);
        }
        report.set("server.proto.decode_us_per_frame", median(&decode));
        report.set("server.finish.s", median(&finishes));
        report.set(
            "server.result_latency_p50_ms",
            median(&schedule.last_frame_latency_ms()),
        );
        let overhead = span_cost * tracer.spans().len() as f64 / replay_layers;
        report.set("telemetry.trace_overhead_ratio", overhead);
        report.set("trace.reconcile_ratio", reconcile);
        report.set(
            "gen.render_ms_per_frame",
            self.venues.iter().map(|v| v.gen_s_per_input).sum::<f64>() * 1e3 / venues,
        );
        let late: Vec<f64> = sends.iter().map(|r| r.late() * 1e3).collect();
        report.set("gen.late_ms_p99", percentile(&late, 99.0));
        let lag: Vec<f64> = sends.iter().map(|r| r.lag() * 1e3).collect();
        report.set("ingest.lag_p50_ms", percentile(&lag, 50.0));
        report.set(
            "ingest.lag_p99_ms",
            checked_tail(&lag, 99.0).unwrap_or(f64::NAN),
        );
        eprintln!(
            "venues replay: layer self time {replay_layers:.3} s; ratios over {} rounds {ratios:.3?}",
            ratios.len()
        );
        tracer
            .write_json(trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))
    }
}

fn end_to_end_metrics(schedule: &Schedule, setups: &[f64], report: &mut Report) {
    let opens: Vec<f64> = schedule
        .venues
        .iter()
        .map(|o| o.open.done - o.open.started)
        .collect();
    // Below capacity an open loop's wall-clock rate is the offered
    // load, so the rate the program sets is the one per processor
    // second: training, decode, extraction and finish all count.
    let inputs: usize = schedule.venues.iter().map(|o| o.sends.len()).sum();
    report.set("setup_s", median(setups));
    report.set("camera_fps", inputs as f64 / schedule.cpu_s);
    eprintln!(
        "venues: set-ups {setups:.3?} s, opens {opens:.3?} s, {inputs} inputs in {:.2} processor-s, \
         last-frame latency {:.1?} ms",
        schedule.cpu_s,
        schedule.last_frame_latency_ms()
    );
}

impl Schedule {
    /// Per venue: from its last frame's due time to its `Finished`
    /// reply. A venue's results come back only in that reply, so the
    /// schedule fixes every frame's wait but the last one's.
    fn last_frame_latency_ms(&self) -> Vec<f64> {
        self.venues
            .iter()
            .filter_map(|o| Some((o.finished_at - o.sends.last()?.due) * 1e3))
            .collect()
    }
}

/// Sends every frame of every opened venue at its due time, then makes
/// the venue's `FinishEvent` round trip. Finishing here rather than on
/// the control thread keeps a finish from waiting behind an open the
/// control thread is blocked in; while a finish runs, the other venues'
/// sends start late, which `gen.late_ms_p99` reports.
fn data_thread(
    venues: &[EventInputs],
    clock: &WallClock,
    rx: mpsc::Receiver<Opened>,
    rss: &mut RssGrowth,
) -> Result<Vec<VenueOutcome>, String> {
    struct Active {
        k: usize,
        client: EventClient,
        opened_at: f64,
        next: usize,
    }
    let cameras: Vec<usize> = venues.iter().map(EventInputs::cameras).collect();
    let mut active: Vec<Active> = Vec::new();
    let mut outcomes: Vec<VenueOutcome> = venues.iter().map(|_| VenueOutcome::default()).collect();
    let mut open_channel = true;
    loop {
        // The earliest due input among active venues.
        let next = active
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.opened_at + (a.next / cameras[a.k]) as f64 / FPS))
            .min_by(|x, y| x.1.total_cmp(&y.1));
        let wait = match next {
            Some((_, due)) => Some((due - clock.now()).max(0.0)),
            None if open_channel => None,
            None => break,
        };
        // Wait for the due time, or for a newly opened venue.
        // `Err(true)`: no venue will open any more; `Err(false)`: none
        // opened while waiting.
        let received = if open_channel {
            match wait {
                Some(w) if w <= 0.0 => rx
                    .try_recv()
                    .map_err(|e| matches!(e, mpsc::TryRecvError::Disconnected)),
                Some(w) => rx
                    .recv_timeout(Duration::from_secs_f64(w))
                    .map_err(|e| matches!(e, mpsc::RecvTimeoutError::Disconnected)),
                None => rx.recv().map_err(|_| true),
            }
        } else {
            Err(false)
        };
        match received {
            Ok((k, client, opened_at)) => {
                active.push(Active {
                    k,
                    client,
                    opened_at,
                    next: 0,
                });
                continue;
            }
            Err(true) => {
                open_channel = false;
                continue;
            }
            Err(false) => {}
        }
        let Some((i, due)) = next else { continue };
        let a = &mut active[i];
        let (frame, camera) = (a.next / cameras[a.k], a.next % cameras[a.k]);
        let id = Venues::event_id(a.k);
        let outcome = &mut outcomes[a.k];
        if let SessionInput::Frame(pixels) = &venues[a.k].inputs[frame][camera] {
            let client = &mut a.client;
            let (record, sent) = send_at(clock, due, || {
                client.send_frame(id, CameraId::new(camera), frame as u64, pixels.clone())
            });
            match sent {
                Ok(()) => outcome.sends.push(record),
                Err(_) => outcome.send_errors += 1,
            }
        } else {
            outcome.send_errors += 1;
        }
        a.next += 1;
        if a.next == venues[a.k].total_inputs() as usize {
            let mut done = active.swap_remove(i);
            outcome.finish_started = clock.now();
            let reply = done.client.finish_event(id);
            outcome.finished_at = clock.now();
            outcome.refused += done
                .client
                .rejections
                .iter()
                .filter(|r| r.event == Some(id))
                .count() as u64;
            match reply {
                Ok(Ok(f)) => outcome.finished = Some(f),
                Ok(Err(_)) => outcome.refused += 1,
                Err(e) => return Err(format!("venue {} finish: {e}", done.k)),
            }
            rss.sample();
        }
    }
    Ok(outcomes)
}
