//! The metric catalogue, the run report, and the order statistics
//! every workload reports with.
//!
//! The catalogue is the single list of metric names, units and
//! directions; `BENCHMARK.json` must list exactly the same metrics
//! (checked by a self-test), and a workload that forgets one fails at
//! report time instead of printing a partial result.

use std::collections::BTreeMap;

/// Whether a smaller or a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Listed in `BENCHMARK.json`; checked against it by a self-test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("camera_fps", "camera-inputs/s", Higher),
    m("lookat_f1", "ratio", Higher),
];

/// Metrics of single layers, printed by every traced run. A layer a
/// workload bypasses reads 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("vision.detect.ms_per_frame", "ms", Lower),
    m("vision.detect.faces_per_frame", "count", Higher),
    m("vision.landmarks_pose.ms_per_face", "ms", Lower),
    m("vision.pose.success_ratio", "ratio", Higher),
    m("vision.recognize.ms_per_face", "ms", Lower),
    m("vision.recognize.identified_ratio", "ratio", Higher),
    m("vision.integrate.ms_per_frame", "ms", Lower),
    m("video.crop_resize.ms_per_face", "ms", Lower),
    m("video.parse.s", "s", Lower),
    m("emotion.lbp.ms_per_face", "ms", Lower),
    m("emotion.mlp.ms_per_face", "ms", Lower),
    m("emotion.classified_faces", "count", Higher),
    m("emotion.train.s", "s", Lower),
    m("emotion.oh_error_pp", "pct-points", Lower),
    m("analysis.fuse.us_per_frame", "us", Lower),
    m("analysis.lookat.us_per_frame", "us", Lower),
    m("analysis.overall_emotion.us_per_frame", "us", Lower),
    m("analysis.finish.ms", "ms", Lower),
    m("summarize.ms", "ms", Lower),
    m("metadata.insert.us_per_record", "us", Lower),
    m("metadata.records", "count", Lower),
    m("core.push.blocked_ms", "ms", Lower),
    m("core.poll.us_per_call", "us", Lower),
    m("core.finish.s", "s", Lower),
    m("core.result_latency_p50_ms", "ms", Lower),
    m("core.result_latency_p98_ms", "ms", Lower),
    m("core.sequencer.evictions", "count", Lower),
    m("core.sequencer.late_arrivals", "count", Lower),
    m("pool.tasks", "count", Lower),
    m("pool.queue_wait_ms", "ms", Lower),
    m("pool.run_ms", "ms", Lower),
    m("pool.busy_ratio", "ratio", Higher),
    m("server.open.s", "s", Lower),
    m("server.send.us_per_frame", "us", Lower),
    m("server.proto.decode_us_per_frame", "us", Lower),
    m("server.finish.s", "s", Lower),
    m("server.result_latency_p50_ms", "ms", Lower),
    m("process.peak_rss_growth_mb", "MB", Lower),
    m("telemetry.trace_overhead_ratio", "ratio", Lower),
    m("trace.reconcile_ratio", "ratio", Higher),
    m("ingest.lag_p50_ms", "ms", Lower),
    m("ingest.lag_p99_ms", "ms", Lower),
    m("gen.render_ms_per_frame", "ms", Lower),
    m("gen.late_ms_p99", "ms", Lower),
];

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// At most 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run: the correctness verdict, the
/// operation ledger and the metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the correctness gate failed, one line per violation.
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }

    /// The last stdout line: every metric of `catalogue`, which must
    /// all be present and finite.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for def in catalogue {
            if !(valid_name(def.name) && valid_unit(def.unit)) {
                return Err(format!("malformed metric {} [{}]", def.name, def.unit));
            }
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail is reported at, from the highest down.
const TAIL_LADDER: &[f64] = &[99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder that leaves at least ten
/// samples beyond it in a set of `samples` values, so a reported tail
/// is never a single outlier. `None` below 20 samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Percentile `p` of `values`, refusing a tail with fewer than ten
/// samples beyond it (the value would be one or two outliers).
pub fn checked_tail(values: &[f64], p: f64) -> Result<f64, String> {
    match tail_percentile(values.len()) {
        Some(best) if best >= p => Ok(percentile(values, p)),
        _ => Err(format!(
            "p{p} needs at least ten samples beyond it; only {} samples",
            values.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_units_and_directions_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {} of {}",
                def.unit,
                def.name
            );
            assert!(matches!(def.better.as_str(), "lower" | "higher"));
            assert!(seen.insert(def.name), "metric {} listed twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn name_and_unit_rules_reject_malformed_input() {
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("vision.detect.ms_per_frame"));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit("a-very-long-unit-name"));
        assert!(valid_unit("camera-inputs/s"));
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics with
    /// the same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json[key].as_array().expect("metric list");
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(entry["name"].as_str(), Some(def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit));
                assert_eq!(entry["better"].as_str(), Some(def.better.as_str()));
                if key == "end_to_end" {
                    let bound = entry["bound"].as_f64().expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
                }
            }
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 610 frames: 2% leaves 12.2 beyond, 1% only 6.1.
        assert_eq!(tail_percentile(610), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert!(checked_tail(&vec![1.0; 610], 98.0).is_ok());
        assert!(checked_tail(&vec![1.0; 610], 99.0).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn report_refuses_missing_or_non_finite_metrics() {
        let defs = &[m("a", "s", Lower), m("b", "ms", Lower)];
        let mut report = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        report.set("a", 1.5);
        assert!(report.to_json(defs).is_err());
        report.set("b", f64::NAN);
        assert!(report.to_json(defs).is_err());
        report.set("b", 0.25);
        let line = report.to_json(defs).expect("complete");
        let json = serde_json::parse(&line).expect("valid JSON");
        assert_eq!(json["correct"].as_bool(), Some(true));
        assert_eq!(json["metrics"]["b"]["value"].as_f64(), Some(0.25));
        assert_eq!(json["metrics"]["a"]["unit"].as_str(), Some("s"));
        report.violation("digest differs");
        assert!(report
            .to_json(defs)
            .expect("complete")
            .contains("\"correct\": false"));
    }
}
