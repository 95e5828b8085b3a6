//! The in-process workload (`prototype_offline`): one generator thread
//! drives one `PipelineSession` in a closed loop. It pushes each
//! camera's input of a frame in turn, polls after every frame, keeps
//! polling after the last input until every frame's result is back, and
//! ends with `finish_with` plus ground truth.

use crate::gate::{digest_violation, f1_violation, Ledger, LookatCounts};
use crate::inputs::EventInputs;
use crate::metrics::{checked_tail, median, percentile, Report};
use crate::replay::{
    layer_self_s, replay_event, set_layer_metrics, CameraCounts, ClassifierParts, ReplayWork,
};
use crate::rss::RssGrowth;
use crate::trace::{span_cost_s, Tracer};
use crate::wire;
use dievent_core::{
    train_emotion_classifier, DiEventPipeline, EventAnalysis, FinishOptions, PipelineConfig,
    PipelineSession, ThreadPool,
};
use dievent_telemetry::TelemetryReport;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Within one run the
/// same classifier training took 1.4 to 2.4 s on the seed host.
pub const SETUPS: usize = 5;
/// Repetitions a run always makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Seconds a client keeps polling for in-flight results after its last
/// input before it calls `finish` anyway.
const DRAIN_LIMIT_S: f64 = 30.0;
/// Frames between two resident-memory samples.
const RSS_EVERY: usize = 16;
/// The replay's summed self time must lie within this factor of the
/// inline-sequential session's wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.20;
/// Seconds of session/replay pairs a traced run spends reconciling.
/// Host speed swings a single pair's ratio by ±20% on the seed host
/// (0.80 to 1.29 seen), so the check takes the median of several.
pub const RECONCILE_BUDGET_S: f64 = 40.0;

/// One in-process workload.
pub struct InProcess {
    pub config: PipelineConfig,
    pub event: EventInputs,
    /// Look-at F1 the unmodified program meets on these inputs.
    pub f1_floor: f64,
}

/// The bit-identical reference configuration.
pub fn inline_sequential(config: &PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        parallel_cameras: false,
        frame_parallel: false,
        ..*config
    }
}

/// Counters a session's telemetry domain accumulates across runs; the
/// benchmark reads differences between two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionCounters {
    pub dropped: u64,
    pub late: u64,
    pub evictions: u64,
    pub faces: Vec<u64>,
    pub misses: Vec<u64>,
    pub classified: Vec<u64>,
}

/// Sum of the counters named `name` whose labels contain every
/// fragment of `labels` (`camera="0"`, `tenant="3"`, ...).
pub fn counter_sum(report: &TelemetryReport, name: &str, labels: &[String]) -> u64 {
    report
        .counters
        .iter()
        .filter(|c| {
            let bare = c.name.split('{').next().unwrap_or_default();
            bare == name && labels.iter().all(|l| c.name.contains(l.as_str()))
        })
        .map(|c| c.value)
        .sum()
}

impl SessionCounters {
    pub fn read(report: &TelemetryReport, cameras: usize, scope: &[String]) -> Self {
        let per_camera = |name: &str| -> Vec<u64> {
            (0..cameras)
                .map(|c| {
                    let mut labels = scope.to_vec();
                    labels.push(format!("camera=\"{c}\""));
                    counter_sum(report, name, &labels)
                })
                .collect()
        };
        SessionCounters {
            dropped: counter_sum(report, "session.frames_dropped", scope),
            late: counter_sum(report, "session.late_arrivals", scope),
            evictions: counter_sum(report, "session.reorder_evictions", scope),
            faces: per_camera("faces_detected"),
            misses: per_camera("identity_misses"),
            classified: per_camera("emotion_classifications"),
        }
    }

    pub fn minus(&self, before: &Self) -> Self {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, v)| v - b.get(i).copied().unwrap_or(0))
                .collect()
        };
        SessionCounters {
            dropped: self.dropped - before.dropped,
            late: self.late - before.late,
            evictions: self.evictions - before.evictions,
            faces: sub(&self.faces, &before.faces),
            misses: sub(&self.misses, &before.misses),
            classified: sub(&self.classified, &before.classified),
        }
    }
}

/// Everything one closed-loop event measured.
pub struct Rep {
    pub analysis: EventAnalysis,
    pub counters: SessionCounters,
    pub ledger: Ledger,
    /// First push until `finish_with` returned.
    pub wall_s: f64,
    pub camera_fps: f64,
    pub ready_s: f64,
    /// Per frame: last camera input pushed until its result returned.
    pub latency_ms: Vec<f64>,
    /// Per input: the push call's duration. In a closed loop an input
    /// is due the moment the generator is ready to send it.
    pub push_ms: Vec<f64>,
    /// Per input: generator time between the system's previous call
    /// returning and this push starting.
    pub gen_gap_ms: Vec<f64>,
    pub poll_us: Vec<f64>,
}

/// Drives one session over `event` in a closed loop.
pub fn closed_loop(
    pipeline: &DiEventPipeline,
    mut session: PipelineSession,
    event: &EventInputs,
    mut rss: Option<&mut RssGrowth>,
) -> Result<Rep, String> {
    let frames = event.frames();
    let cameras = event.cameras();
    let before = SessionCounters::read(&pipeline.telemetry().report(), cameras, &[]);
    let options = FinishOptions {
        ground_truth: event.truth.clone(),
        context: None,
    };
    let mut last_push = vec![0.0f64; frames];
    let mut latency_ms = vec![f64::NAN; frames];
    let mut push_ms = Vec::with_capacity(frames * cameras);
    let mut gen_gap_ms = Vec::with_capacity(frames * cameras);
    let mut poll_us = Vec::with_capacity(frames);
    let mut refused = 0u64;
    let origin = Instant::now();
    let mut system_idle_since = 0.0f64;
    let mut last_input = 0.0f64;
    // Camera inputs present in the fused frames returned so far.
    let mut reporting = 0u64;
    for (f, row) in event.inputs.iter().enumerate() {
        for (c, input) in row.iter().enumerate() {
            let input = input.clone();
            let start = origin.elapsed().as_secs_f64();
            let pushed = session.push(dievent_core::CameraId::new(c), input);
            let done = origin.elapsed().as_secs_f64();
            refused += u64::from(pushed.is_err());
            push_ms.push((done - start) * 1e3);
            gen_gap_ms.push((start - system_idle_since) * 1e3);
            system_idle_since = done;
            last_input = done;
            last_push[f] = start;
        }
        let poll_start = origin.elapsed().as_secs_f64();
        let results = session.poll();
        let now = origin.elapsed().as_secs_f64();
        poll_us.push((now - poll_start) * 1e6);
        for r in results {
            reporting += r.cameras_reporting as u64;
            if let Some(slot) = latency_ms.get_mut(r.frame) {
                *slot = (now - last_push[r.frame]) * 1e3;
            }
        }
        system_idle_since = now;
        if let Some(rss) = rss.as_deref_mut() {
            if f % RSS_EVERY == 0 {
                rss.sample();
            }
        }
    }
    // Like a client that wants every frame's result, keep polling after
    // the last input until the frames still in flight come back.
    let mut pending = latency_ms.iter().filter(|l| l.is_nan()).count();
    let give_up = last_input + DRAIN_LIMIT_S;
    while pending > 0 && origin.elapsed().as_secs_f64() < give_up {
        let results = session.poll();
        let now = origin.elapsed().as_secs_f64();
        if results.is_empty() {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        for r in results {
            reporting += r.cameras_reporting as u64;
            if let Some(slot) = latency_ms.get_mut(r.frame) {
                *slot = (now - last_push[r.frame]) * 1e3;
                pending -= 1;
            }
        }
    }
    let analysis = session
        .finish_with(options)
        .map_err(|e| format!("finish failed: {e}"))?;
    let ready = origin.elapsed().as_secs_f64();
    if let Some(rss) = rss {
        rss.sample();
    }
    // Frames no poll returned reach the caller with the final analysis.
    for (slot, pushed) in latency_ms.iter_mut().zip(&last_push) {
        if slot.is_nan() {
            *slot = (ready - pushed) * 1e3;
        }
    }
    let counters = SessionCounters::read(&analysis.telemetry, cameras, &[]).minus(&before);
    let pushed = (frames * cameras) as u64;
    // Every consumed input either reached its frame's fusion or arrived
    // after the frame was fused without it.
    let processed = reporting + counters.late;
    let ledger = Ledger {
        cameras,
        pushed: pushed - refused,
        processed,
        dropped: counters.dropped,
        refused,
        frames: analysis.matrices.len(),
        late_arrivals: counters.late,
        evictions: counters.evictions,
    };
    Ok(Rep {
        wall_s: ready,
        camera_fps: pushed as f64 / ready,
        ready_s: ready - last_input,
        latency_ms,
        push_ms,
        gen_gap_ms,
        poll_us,
        counters,
        ledger,
        analysis,
    })
}

impl InProcess {
    /// Builds a pipeline and opens a session on it, timed: the work
    /// before the first input is accepted, and the same work the server
    /// does for each `OpenEvent`.
    fn open(
        &self,
        config: PipelineConfig,
    ) -> Result<(f64, DiEventPipeline, PipelineSession), String> {
        let started = Instant::now();
        let pipeline = DiEventPipeline::new(config);
        let session = pipeline
            .session(&self.event.scenario)
            .map_err(|e| format!("session open failed: {e}"))?;
        Ok((started.elapsed().as_secs_f64(), pipeline, session))
    }

    /// One event through the inline-sequential reference.
    fn reference(&self) -> Result<Rep, String> {
        let (_, pipeline, session) = self.open(inline_sequential(&self.config))?;
        closed_loop(&pipeline, session, &self.event, None)
    }

    /// The untraced run: every end-to-end metric.
    pub fn run(&self, seconds: f64, report: &mut Report) -> Result<(), String> {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut opened = None;
        for _ in 0..SETUPS {
            let (s, pipeline, session) = self.open(self.config)?;
            setups.push(s);
            opened = Some((pipeline, session));
        }
        eprintln!("set-ups {setups:.3?} s");
        let (pipeline, first_session) = opened.ok_or("no set-up ran")?;
        let mut first_session = Some(first_session);

        let mut reps: Vec<Rep> = Vec::new();
        let measured = Instant::now();
        while reps.len() < MIN_REPS || measured.elapsed().as_secs_f64() < seconds {
            let session = match first_session.take() {
                Some(s) => s,
                None => pipeline
                    .session(&self.event.scenario)
                    .map_err(|e| format!("session open failed: {e}"))?,
            };
            let rep = closed_loop(&pipeline, session, &self.event, None)?;
            eprintln!(
                "event {}: {:.0} inputs/s, ready {:.3} s, result p50 {:.4} ms, push p50 {:.6} ms p99 {:.4} ms",
                reps.len(),
                rep.camera_fps,
                rep.ready_s,
                percentile(&rep.latency_ms, 50.0),
                percentile(&rep.push_ms, 50.0),
                percentile(&rep.push_ms, 99.0)
            );
            reps.push(rep);
        }

        let reference = self.reference()?;
        let mut lookat = LookatCounts::default();
        for (i, rep) in reps.iter().enumerate() {
            self.gate(&format!("rep {i}"), rep, &reference, report);
            lookat.add(&rep.analysis.validation);
        }
        if let Some(v) = f1_violation("run", lookat.f1(), self.f1_floor) {
            report.violation(v);
        }

        let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        report.set("setup_s", median(&setups));
        report.set("camera_fps", per_rep(&|r| r.camera_fps));
        report.set("lookat_f1", lookat.f1());
        eprintln!(
            "measured {} events of {} inputs in {:.2} s",
            reps.len(),
            self.event.total_inputs(),
            measured.elapsed().as_secs_f64()
        );
        Ok(())
    }

    /// Conservation and equivalence for one event.
    fn gate(&self, label: &str, rep: &Rep, reference: &Rep, report: &mut Report) {
        report.attempted += rep.ledger.pushed + rep.ledger.refused;
        report.failed += rep.ledger.failed();
        for v in rep.ledger.violations(label) {
            report.violation(v);
        }
        // A frame fused without a camera legitimately differs from the
        // reference; it already counts as failed.
        if rep.ledger.evictions == 0 {
            if let Some(v) =
                digest_violation(label, &rep.analysis.digest(), &reference.analysis.digest())
            {
                report.violation(v);
            }
        }
    }

    /// The traced run: every per-layer metric, reconciled.
    pub fn run_traced(
        &self,
        trace_path: &std::path::Path,
        report: &mut Report,
    ) -> Result<(), String> {
        let config = self.config;
        let span_cost = span_cost_s(100_000);
        let train_started = Instant::now();
        let classifier = config
            .classify_emotions
            .then(|| train_emotion_classifier(&config.training, config.training_seed).0);
        let train_s = train_started.elapsed().as_secs_f64();
        let parts = classifier
            .as_ref()
            .map(ClassifierParts::from_classifier)
            .transpose()?;

        // 1. The threaded default session, for the core, pool and memory
        //    figures. It runs first, while nothing has yet grown the heap
        //    that its own growth could reuse.
        let (_, pipeline, session) = self.open(config)?;
        let (_, inline_pipeline, _) = self.open(inline_sequential(&config))?;
        let mut rss = RssGrowth::from_now();
        let pool_before = ThreadPool::global().stats();
        let threaded = closed_loop(&pipeline, session, &self.event, Some(&mut rss))?;
        let pool_after = ThreadPool::global().stats();
        drop(pipeline);

        // 2. Untraced inline-sequential sessions, alternated with the
        //    replay through the public layer functions so both see the
        //    same host conditions. The replay must reconcile with the
        //    session's wall time (median ratio over the pairs) and match
        //    its counters.
        let mut ratios = Vec::new();
        let mut pairs = 1;
        let (inline, tracer, outcome, layer_self, replay_wall) = loop {
            let session = inline_pipeline
                .session(&self.event.scenario)
                .map_err(|e| format!("session open failed: {e}"))?;
            let inline = closed_loop(&inline_pipeline, session, &self.event, None)?;
            let mut tracer = Tracer::new();
            let replay_started = Instant::now();
            let outcome = replay_event(&mut tracer, &self.event, &config, parts.as_ref(), 0);
            let replay_wall = replay_started.elapsed().as_secs_f64();
            let layer_self = layer_self_s(&tracer, span_cost);
            ratios.push(layer_self / inline.wall_s);
            if ratios.len() == 1 {
                pairs = (RECONCILE_BUDGET_S / (inline.wall_s + replay_wall))
                    .ceil()
                    .max(1.0) as usize;
            }
            if ratios.len() >= pairs {
                break (inline, tracer, outcome, layer_self, replay_wall);
            }
        };
        let reconcile = median(&ratios);
        reconcile_ratio_check(report, reconcile);
        replay_matches(report, &outcome, &inline);

        self.gate("threaded", &threaded, &inline, report);
        self.gate("inline", &inline, &inline, report);

        let mut counts = CameraCounts::default();
        for c in &outcome.cameras {
            counts.add(c);
        }
        set_layer_metrics(
            report,
            &tracer,
            &ReplayWork {
                counts,
                frames: self.event.frames() as u64,
                camera_inputs: self.event.total_inputs(),
                records: outcome.repository.len() as u64,
                events: 1,
            },
        );
        report.set("metadata.records", inline.analysis.repository.len() as f64);
        report.set("emotion.train.s", train_s);
        report.set(
            "emotion.oh_error_pp",
            (inline.analysis.mean_overall_happiness() - 100.0 * self.event.truth_happy_share).abs(),
        );
        report.set("core.push.blocked_ms", threaded.push_ms.iter().sum());
        report.set("core.poll.us_per_call", median(&threaded.poll_us));
        report.set("core.finish.s", threaded.ready_s);
        report.set(
            "core.result_latency_p50_ms",
            percentile(&threaded.latency_ms, 50.0),
        );
        report.set(
            "core.result_latency_p98_ms",
            checked_tail(&threaded.latency_ms, 98.0).unwrap_or(f64::NAN),
        );
        report.set(
            "core.sequencer.evictions",
            threaded.counters.evictions as f64,
        );
        report.set(
            "core.sequencer.late_arrivals",
            threaded.counters.late as f64,
        );
        report.set("process.peak_rss_growth_mb", rss.growth_mb());
        pool_metrics(report, &pool_before, &pool_after, threaded.wall_s);
        report.set("server.open.s", 0.0);
        report.set("server.send.us_per_frame", 0.0);
        report.set("server.finish.s", 0.0);
        report.set("server.result_latency_p50_ms", 0.0);
        report.set(
            "server.proto.decode_us_per_frame",
            wire::decode_us_per_input(&self.event)?,
        );
        let overhead = span_cost * tracer.spans().len() as f64 / layer_self;
        report.set("telemetry.trace_overhead_ratio", overhead);
        report.set("trace.reconcile_ratio", reconcile);
        report.set("gen.render_ms_per_frame", self.event.gen_s_per_input * 1e3);
        report.set("gen.late_ms_p99", percentile(&threaded.gen_gap_ms, 99.0));
        // In a closed loop an input is due the moment the generator is
        // ready to send it, so its lag is the push call's duration.
        report.set("ingest.lag_p50_ms", percentile(&threaded.push_ms, 50.0));
        report.set("ingest.lag_p99_ms", percentile(&threaded.push_ms, 99.0));
        eprintln!(
            "replay: {} spans, layer self time {layer_self:.3} s (wall {replay_wall:.3} s) vs inline session {:.3} s; \
             ratios over {} pairs {ratios:.3?}",
            tracer.spans().len(),
            inline.wall_s,
            ratios.len()
        );
        tracer
            .write_json(trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))
    }
}

/// `PoolStats` deltas over a run of `wall_s` seconds.
pub fn pool_metrics(
    report: &mut Report,
    before: &dievent_core::PoolStats,
    after: &dievent_core::PoolStats,
    wall_s: f64,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let run_ms = (after.run_ns - before.run_ns) as f64 / 1e6;
    report.set("pool.tasks", (after.tasks - before.tasks) as f64);
    report.set(
        "pool.queue_wait_ms",
        (after.queue_wait_ns - before.queue_wait_ns) as f64 / 1e6,
    );
    report.set("pool.run_ms", run_ms);
    // Pool tasks also run on the threads that submit them, so the busy
    // share is taken over the host's cores, not the pool's workers.
    report.set("pool.busy_ratio", run_ms / 1e3 / (wall_s * cores));
}

/// The replay's summed layer self time must lie within the tolerance of
/// the inline session's wall time.
pub fn reconcile_ratio_check(report: &mut Report, reconcile: f64) {
    if (reconcile - 1.0).abs() > RECONCILE_TOLERANCE {
        report.violation(format!(
            "reconciliation: replay layer self time is {reconcile:.3} x the inline session's wall time \
             (tolerance ±{RECONCILE_TOLERANCE})"
        ));
    }
}

/// The replay must do the session's work: the same faces, identities
/// and classifications per camera, and the same analysis fields. Only
/// outputs the program exposes are compared, so a change to how the
/// session stores its records cannot fail a traced run.
pub fn replay_matches(report: &mut Report, outcome: &crate::replay::ReplayOutcome, inline: &Rep) {
    for m in outcome.mismatches.iter().take(3) {
        report.violation(format!("replay: {m}"));
    }
    let c = &inline.counters;
    for (cam, counts) in outcome.cameras.iter().enumerate() {
        let faces = c.faces.get(cam).copied().unwrap_or(0);
        let identified = faces - c.misses.get(cam).copied().unwrap_or(0);
        let classified = c.classified.get(cam).copied().unwrap_or(0);
        if (counts.faces, counts.identified, counts.classified) != (faces, identified, classified) {
            report.violation(format!(
                "replay camera {cam}: faces/identified/classified {}/{}/{} but the session counted {faces}/{identified}/{classified}",
                counts.faces, counts.identified, counts.classified
            ));
        }
    }
    let a = &inline.analysis;
    let same = outcome.frames == a.matrices.len()
        && outcome.summary == a.summary.rows()
        && (
            outcome.validation.tp,
            outcome.validation.fp,
            outcome.validation.fn_,
        ) == (a.validation.tp, a.validation.fp, a.validation.fn_)
        && outcome.episodes == a.episodes.len()
        && outcome.highlights == a.highlights.len()
        && outcome.mean_overall_happiness.to_bits() == a.mean_overall_happiness().to_bits();
    if !same {
        report.violation("replay: its analysis differs from the inline session's");
    }
}
