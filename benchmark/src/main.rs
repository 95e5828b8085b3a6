//! The DiEvent benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload prototype_offline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries every end-to-end
//! metric; with `--trace 1` a separate traced run carries every
//! per-layer metric and writes its spans to `.bench_trace/`. Both check
//! that outputs are correct. See `benchmark/README.md`.

mod cpu;
mod gate;
mod inproc;
mod inputs;
mod metrics;
mod openloop;
mod replay;
mod rss;
mod trace;
mod venues;
mod wire;

use dievent_core::PipelineConfig;
use dievent_scene::Scenario;
use inproc::InProcess;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Instant;
use venues::Venues;

/// Seconds between two `venues_live` opens: more than one open takes
/// (each trains a classifier, ~2 s on a 2-core host), so the opens do
/// not queue behind each other.
const VENUE_STAGGER_S: f64 = 3.0;
/// Seconds of video each venue streams.
const VENUE_STREAM_S: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = PipelineConfig::default();
    let trace_path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let generated = Instant::now();
    match args.workload.as_str() {
        "prototype_offline" => {
            eprintln!(
                "prototype_offline is fixed by the paper; seed {} is ignored",
                args.seed
            );
            let workload = InProcess {
                event: inputs::render_event(Scenario::prototype(), &config, threads),
                config,
                f1_floor: 0.90,
            };
            eprintln!(
                "inputs generated in {:.2} s",
                generated.elapsed().as_secs_f64()
            );
            if args.trace {
                workload.run_traced(&trace_path, &mut report)?;
            } else {
                workload.run(args.seconds, &mut report)?;
            }
        }
        "venues_live" => {
            // Venues keep arriving while the run lasts; the last one
            // opens in time to stream its video before `--seconds` end.
            let count = ((args.seconds - VENUE_STREAM_S) / VENUE_STAGGER_S).floor() as usize + 1;
            let frames = (VENUE_STREAM_S * venues::FPS) as usize;
            let workload =
                Venues::generate(args.seed, count.max(2), frames, VENUE_STAGGER_S, threads);
            eprintln!(
                "inputs generated in {:.2} s",
                generated.elapsed().as_secs_f64()
            );
            if args.trace {
                workload.run_traced(&trace_path, &mut report)?;
            } else {
                workload.run(&mut report)?;
            }
        }
        other => {
            return Err(format!(
                "unknown workload {other}; expected prototype_offline or venues_live"
            ))
        }
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1 ({e})");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    for v in &report.violations {
        eprintln!("correctness: {v}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match report.to_json(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
