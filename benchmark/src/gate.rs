//! The correctness gate every run passes through.
//!
//! Three checks, none of which touches emotion accuracy (in-scene
//! emotion is a known defect and is reported, not gated):
//!
//! 1. conservation — every pushed input is accounted for;
//! 2. equivalence — the run's digest, stage timings zeroed, equals the
//!    digest of an inline-sequential session over the same inputs
//!    (`parallel_cameras: false, frame_parallel: false`, the
//!    bit-identical reference path);
//! 3. ground truth — the look-at F1 against the simulator's truth stays
//!    at or above a floor the unmodified program meets.

use dievent_analysis::MatrixValidation;
use dievent_core::{AnalysisDigest, StageTimings};

/// The input ledger of one event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub cameras: usize,
    /// Inputs the generator handed to the system.
    pub pushed: u64,
    /// Inputs the system consumed.
    pub processed: u64,
    /// Inputs shed by backpressure.
    pub dropped: u64,
    /// Inputs or opens the system refused.
    pub refused: u64,
    /// Frames in the final analysis.
    pub frames: usize,
    /// Inputs that reached the sequencer after their frame was fused
    /// without them.
    pub late_arrivals: u64,
    /// Frames fused with a camera missing.
    pub evictions: u64,
}

impl Ledger {
    /// Inputs that did not count: refused, dropped, or late for their
    /// frame's fusion.
    pub fn failed(&self) -> u64 {
        self.refused + self.dropped + self.late_arrivals
    }

    /// Conservation violations, one message each.
    pub fn violations(&self, label: &str) -> Vec<String> {
        let mut out = Vec::new();
        if self.processed + self.dropped != self.pushed {
            out.push(format!(
                "{label}: processed {} + dropped {} != pushed {}",
                self.processed, self.dropped, self.pushed
            ));
        }
        if self.frames as u64 * self.cameras as u64 != self.pushed {
            out.push(format!(
                "{label}: {} frames x {} cameras != {} inputs pushed",
                self.frames, self.cameras, self.pushed
            ));
        }
        if self.refused != 0 {
            out.push(format!("{label}: {} requests refused", self.refused));
        }
        out
    }
}

/// The digest with its wall-clock stage timings removed.
pub fn zeroed(mut digest: AnalysisDigest) -> AnalysisDigest {
    digest.timings = StageTimings::default();
    digest
}

/// `None` when the digests agree once timings are zeroed; otherwise a
/// message naming the differing fields. Compared through their JSON
/// form so every float must match to the last bit.
pub fn digest_violation(
    label: &str,
    got: &AnalysisDigest,
    want: &AnalysisDigest,
) -> Option<String> {
    let got = serde_json::to_value(&zeroed(got.clone())).ok()?;
    let want = serde_json::to_value(&zeroed(want.clone())).ok()?;
    if got == want {
        return None;
    }
    let fields: Vec<String> = match (got.as_object(), want.as_object()) {
        (Some(g), Some(w)) => g
            .iter()
            .filter(|(k, v)| w.get(k.as_str()) != Some(*v))
            .map(|(k, v)| format!("{k}: {v:?} vs reference {:?}", w.get(k.as_str())))
            .collect(),
        _ => vec!["digest shape".to_owned()],
    };
    Some(format!(
        "{label}: digest differs from the inline-sequential reference ({})",
        fields.join("; ")
    ))
}

/// Look-at counts pooled over events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LookatCounts {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl LookatCounts {
    pub fn add(&mut self, v: &MatrixValidation) {
        self.tp += v.tp;
        self.fp += v.fp;
        self.fn_ += v.fn_;
    }

    /// F1 = 2·TP / (2·TP + FP + FN); 0 with no positives at all.
    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            (2 * self.tp) as f64 / denom as f64
        }
    }
}

/// `None` when `f1` meets `floor`.
pub fn f1_violation(label: &str, f1: f64, floor: f64) -> Option<String> {
    (f1.is_nan() || f1 < floor)
        .then(|| format!("{label}: look-at F1 {f1:.4} below the ground-truth floor {floor}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> AnalysisDigest {
        AnalysisDigest {
            participants: 4,
            fps: 15.25,
            frames: 610,
            summary: vec![vec![0, 93, 357, 68]; 4],
            received_looks: vec![675, 298, 562, 268],
            dominant: Some(0),
            attention_share: vec![0.37, 0.16, 0.31, 0.15],
            mean_overall_happiness: 0.0145,
            eye_contact_episodes: 12,
            highlights: 30,
            precision: 0.99,
            recall: 0.86,
            f1: 0.92,
            timings: StageTimings::default(),
        }
    }

    fn ledger() -> Ledger {
        Ledger {
            cameras: 4,
            pushed: 2440,
            processed: 2440,
            frames: 610,
            ..Ledger::default()
        }
    }

    #[test]
    fn identical_digests_pass_even_with_different_timings() {
        let mut timed = digest();
        timed.timings.extraction_s = 1.5;
        timed.timings.parse_s = 0.3;
        assert_eq!(digest_violation("run", &timed, &digest()), None);
    }

    #[test]
    fn a_corrupted_digest_fails_the_gate() {
        let mut bad = digest();
        bad.summary[1][2] += 1;
        let msg = digest_violation("run", &bad, &digest()).expect("summary corruption caught");
        assert!(msg.contains("summary"), "{msg}");

        let mut bad = digest();
        // One ulp is enough.
        bad.mean_overall_happiness = f64::from_bits(bad.mean_overall_happiness.to_bits() + 1);
        let msg = digest_violation("run", &bad, &digest()).expect("ulp corruption caught");
        assert!(msg.contains("mean_overall_happiness"), "{msg}");

        let mut bad = digest();
        bad.frames -= 1;
        assert!(digest_violation("run", &bad, &digest()).is_some());
    }

    #[test]
    fn a_balanced_ledger_passes() {
        assert!(ledger().violations("run").is_empty());
        assert_eq!(ledger().failed(), 0);
    }

    #[test]
    fn a_broken_ledger_fails_the_gate() {
        // An input vanished: neither processed nor dropped.
        let lost = Ledger {
            processed: 2439,
            ..ledger()
        };
        assert_eq!(lost.violations("run").len(), 1);

        // A frame is missing from the analysis.
        let short = Ledger {
            frames: 609,
            ..ledger()
        };
        assert!(short.violations("run")[0].contains("frames"));

        // Refusals fail the gate and count as failed.
        let refused = Ledger {
            refused: 2,
            ..ledger()
        };
        assert_eq!(refused.violations("run").len(), 1);
        assert_eq!(refused.failed(), 2);

        // Drops balance the ledger but count as failed.
        let shed = Ledger {
            processed: 2430,
            dropped: 10,
            ..ledger()
        };
        assert!(shed.violations("run").is_empty());
        assert_eq!(shed.failed(), 10);
    }

    #[test]
    fn f1_floor_and_pooling() {
        let mut counts = LookatCounts::default();
        counts.add(&MatrixValidation {
            tp: 90,
            fp: 0,
            fn_: 20,
            precision: 1.0,
            recall: 90.0 / 110.0,
            f1: 0.9,
            frames: 10,
        });
        assert!((counts.f1() - 180.0 / 200.0).abs() < 1e-12);
        assert_eq!(f1_violation("run", counts.f1(), 0.85), None);
        assert!(f1_violation("run", counts.f1(), 0.95).is_some());
        assert!(f1_violation("run", f64::NAN, 0.5).is_some());
    }
}
