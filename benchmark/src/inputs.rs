//! Input generation. Everything here runs during set-up, outside every
//! timed phase; its cost is reported as `gen.render_ms_per_frame`.

use dievent_analysis::LookAtMatrix;
use dievent_core::{PipelineConfig, Recording, SessionInput};
use dievent_emotion::Emotion;
use dievent_scene::{GroundTruth, Scenario};
use std::time::Instant;

/// One event's inputs, ground truth and generation cost. Cloning it
/// shares the rendered frames.
#[derive(Clone)]
pub struct EventInputs {
    pub scenario: Scenario,
    /// Indexed `[frame][camera]`.
    pub inputs: Vec<Vec<SessionInput>>,
    /// Ground-truth look-at matrices at the pipeline's attention radius.
    pub truth: Vec<LookAtMatrix>,
    /// Mean over frames of the share of participants whose true
    /// emotion is happy.
    pub truth_happy_share: f64,
    /// Generator CPU seconds per camera input.
    pub gen_s_per_input: f64,
}

impl EventInputs {
    pub fn frames(&self) -> usize {
        self.inputs.len()
    }

    pub fn cameras(&self) -> usize {
        self.scenario.rig.len()
    }

    pub fn total_inputs(&self) -> u64 {
        (self.frames() * self.cameras()) as u64
    }
}

fn happy_share(truth: &GroundTruth) -> f64 {
    let frames = truth.snapshots.len().max(1) as f64;
    truth
        .snapshots
        .iter()
        .map(|s| {
            let happy = s
                .states
                .iter()
                .filter(|p| p.emotion == Emotion::Happy)
                .count();
            happy as f64 / s.states.len().max(1) as f64
        })
        .sum::<f64>()
        / frames
}

/// Renders every frame of every camera on `threads` threads.
pub fn render_event(scenario: Scenario, config: &PipelineConfig, threads: usize) -> EventInputs {
    let recording = Recording::capture(scenario);
    let frames = recording.frames();
    let cameras = recording.cameras();
    let jobs: Vec<(usize, usize)> = (0..frames)
        .flat_map(|f| (0..cameras).map(move |c| (f, c)))
        .collect();
    let threads = threads.clamp(1, jobs.len().max(1));
    let per_thread = jobs.len().div_ceil(threads);
    let rendered: Vec<(Vec<dievent_video::GrayFrame>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(per_thread.max(1))
            .map(|chunk| {
                let recording = &recording;
                s.spawn(move || {
                    let mut busy = 0.0;
                    let out = chunk
                        .iter()
                        .map(|&(f, c)| {
                            let t = Instant::now();
                            let frame = recording.frame(c, f);
                            busy += t.elapsed().as_secs_f64();
                            frame
                        })
                        .collect();
                    (out, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render thread panicked"))
            .collect()
    });
    let busy: f64 = rendered.iter().map(|(_, b)| b).sum();
    let mut flat = rendered.into_iter().flat_map(|(frames, _)| frames);
    let inputs: Vec<Vec<SessionInput>> = (0..frames)
        .map(|_| {
            (0..cameras)
                .map(|_| SessionInput::Frame(flat.next().expect("one frame per job")))
                .collect()
        })
        .collect();
    EventInputs {
        truth: recording.lookat_truth(&config.lookat),
        truth_happy_share: happy_share(&recording.ground_truth),
        gen_s_per_input: busy / jobs.len().max(1) as f64,
        scenario: recording.scenario,
        inputs,
    }
}
