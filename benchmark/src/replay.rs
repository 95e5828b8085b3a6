//! The traced run's layer replay.
//!
//! A session's internals cannot be wrapped from outside, so the traced
//! run replays the same inputs single-threaded through the public layer
//! functions the session calls, in the session's order, with one span
//! around each call. The replay checks as it goes that it does the
//! session's work: its per-frame results feed the same fusion and
//! finish stages, and the caller compares its counts and digest fields
//! with an inline-sequential session over the same inputs.

use crate::inputs::EventInputs;
use crate::metrics::Report;
use crate::trace::Tracer;
use dievent_analysis::overall_emotion::{fuse_sequence, OverallEmotionConfig};
use dievent_analysis::{
    dominance_ranking, ec_episodes, fuse_frame, pair_statistics, smooth_matrices,
    validate_sequence, CameraObservation, EmotionEstimate, FrameObservations, LookAtMatrix,
    LookAtScratch, LookAtSummary, MatrixValidation,
};
use dievent_core::{PipelineConfig, SessionInput};
use dievent_emotion::{
    lbp_feature_vector_with, EmotionClassifier, LbpConfig, LbpScratch, Mlp, MlpBatchScratch,
    Normalizer,
};
use dievent_geometry::{PinholeCamera, Vec3};
use dievent_metadata::{MetaRecord, MetadataRepository, RecordKind};
use dievent_summarize::{detect_highlights, importance_series, select_summary, HighlightKind};
use dievent_video::{GrayFrame, VideoParser};
use dievent_vision::{
    detect_faces, estimate_pose, locate_landmarks, FaceGallery, FeatureExtractor, PersonId,
};

/// Span names. `REPLAY_HELPER` marks work the replay repeats only to
/// obtain a value the public API gives no other way (the `FrameRaw`
/// that `integrate` consumes); it is excluded from reconciliation.
pub const REPLAY_HELPER: &str = "replay.analyze_for_integrate";

/// Summed self time of the replay's layer spans, less what recording
/// those spans cost (`span_cost_s` each), which the session does not
/// pay. The helper span is left out: it repeats work.
pub fn layer_self_s(tracer: &Tracer, span_cost_s: f64) -> f64 {
    let (self_s, spans) = tracer
        .spans()
        .iter()
        .zip(tracer.self_times())
        .filter(|(span, _)| span.name != REPLAY_HELPER)
        .fold((0.0, 0usize), |(s, n), (_, t)| (s + t, n + 1));
    self_s - span_cost_s * spans as f64
}

/// The classifier's stages, taken apart through its serialized form so
/// the replay can time the LBP descriptor and the MLP separately.
pub struct ClassifierParts {
    lbp: LbpConfig,
    normalizer: Normalizer,
    mlp: Mlp,
}

impl ClassifierParts {
    pub fn from_classifier(classifier: &EmotionClassifier) -> Result<Self, String> {
        let value = serde_json::to_value(classifier).map_err(|e| e.to_string())?;
        let grid = value["lbp"]["grid"].as_u64().ok_or("classifier lbp.grid")?;
        let threshold = value["lbp"]["threshold"]
            .as_u64()
            .ok_or("classifier lbp.threshold")?;
        Ok(ClassifierParts {
            lbp: LbpConfig {
                grid: grid as usize,
                threshold: u8::try_from(threshold).map_err(|e| e.to_string())?,
            },
            normalizer: serde_json::from_value(value["normalizer"].clone())
                .map_err(|e| e.to_string())?,
            mlp: serde_json::from_value(value["mlp"].clone()).map_err(|e| e.to_string())?,
        })
    }
}

/// Work counts per camera, comparable with the session's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CameraCounts {
    pub faces: u64,
    pub identified: u64,
    pub classified: u64,
    pub poses: u64,
}

impl CameraCounts {
    pub fn add(&mut self, other: &CameraCounts) {
        self.faces += other.faces;
        self.identified += other.identified;
        self.classified += other.classified;
        self.poses += other.poses;
    }
}

/// What the replay covered, summed over every camera and event.
pub struct ReplayWork {
    pub counts: CameraCounts,
    pub frames: u64,
    pub camera_inputs: u64,
    /// Records the replay inserted, the base of its per-record time.
    pub records: u64,
    pub events: u64,
}

/// Sets the per-layer metrics the replay's spans measure: rates per
/// camera input, face or fused frame, and the finish-time stages per
/// event.
pub fn set_layer_metrics(report: &mut Report, tracer: &Tracer, work: &ReplayWork) {
    let totals = tracer.totals();
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_s)
            .sum()
    };
    let per = |s: f64, n: u64, scale: f64| if n == 0 { 0.0 } else { s * scale / n as f64 };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &work.counts;
    let events = work.events.max(1) as f64;

    let per_input = |name: &str| per(self_s(&[name]), work.camera_inputs, 1e3);
    report.set("vision.detect.ms_per_frame", per_input("vision.detect"));
    report.set(
        "vision.detect.faces_per_frame",
        ratio(c.faces, work.camera_inputs),
    );
    report.set(
        "vision.integrate.ms_per_frame",
        per_input("vision.integrate"),
    );
    let per_face = |name: &str, n: u64| per(self_s(&[name]), n, 1e3);
    report.set(
        "vision.landmarks_pose.ms_per_face",
        per_face("vision.landmarks_pose", c.faces),
    );
    report.set("vision.pose.success_ratio", ratio(c.poses, c.faces));
    report.set(
        "vision.recognize.ms_per_face",
        per_face("vision.recognize", c.faces),
    );
    report.set(
        "vision.recognize.identified_ratio",
        ratio(c.identified, c.faces),
    );
    report.set(
        "video.crop_resize.ms_per_face",
        per_face("video.crop_resize", c.faces),
    );
    report.set(
        "emotion.lbp.ms_per_face",
        per_face("emotion.lbp", c.classified),
    );
    report.set(
        "emotion.mlp.ms_per_face",
        per_face("emotion.mlp", c.classified),
    );
    report.set("emotion.classified_faces", c.classified as f64);
    let per_frame = |name: &str| per(self_s(&[name]), work.frames, 1e6);
    report.set("analysis.fuse.us_per_frame", per_frame("analysis.fuse"));
    report.set("analysis.lookat.us_per_frame", per_frame("analysis.lookat"));
    report.set(
        "analysis.overall_emotion.us_per_frame",
        per_frame("analysis.overall_emotion"),
    );
    report.set("video.parse.s", self_s(&["video.parse"]) / events);
    // The finish-time analysis the session runs after the last frame.
    report.set(
        "analysis.finish.ms",
        self_s(&[
            "analysis.smooth",
            "analysis.summary",
            "analysis.ec_stats",
            "analysis.validate",
        ]) * 1e3
            / events,
    );
    report.set(
        "summarize.ms",
        self_s(&[
            "summarize.highlights",
            "summarize.importance",
            "summarize.select",
        ]) * 1e3
            / events,
    );
    report.set(
        "metadata.insert.us_per_record",
        per(self_s(&["metadata.insert"]), work.records, 1e6),
    );
}

/// What the replay produced.
pub struct ReplayOutcome {
    pub cameras: Vec<CameraCounts>,
    pub frames: usize,
    pub summary: Vec<Vec<u32>>,
    pub validation: MatrixValidation,
    pub mean_overall_happiness: f64,
    pub episodes: usize,
    pub highlights: usize,
    /// The populated repository. The session hands its repository to
    /// the caller, so the replay's is dropped outside every span too.
    pub repository: MetadataRepository,
    /// Disagreements between the free-function results and
    /// `FeatureExtractor::analyze` on the same frame.
    pub mismatches: Vec<String>,
}

struct CameraReplay {
    camera: PinholeCamera,
    extractor: Option<FeatureExtractor>,
}

/// One camera frame's stage-3 output: the fusion inputs, and per
/// classified face `(person, probabilities, confidence, radius)`.
type CameraOutput = (Vec<CameraObservation>, Vec<(usize, Vec<f64>, f64, f64)>);

/// Replays one event. `request` tags the spans (frame index offset).
pub fn replay_event(
    tracer: &mut Tracer,
    event: &EventInputs,
    config: &PipelineConfig,
    classifier: Option<&ClassifierParts>,
    request: u64,
) -> ReplayOutcome {
    let scenario = &event.scenario;
    let n = scenario.participants.len();
    let seats: Vec<(usize, Vec3)> = scenario
        .participants
        .iter()
        .map(|p| (p.index, p.seat_head))
        .collect();
    let camera_poses: Vec<_> = scenario.rig.cameras.iter().map(|c| c.pose).collect();
    let mut cams: Vec<CameraReplay> = scenario
        .rig
        .cameras
        .iter()
        .map(|&camera| CameraReplay {
            camera,
            extractor: None,
        })
        .collect();
    let classifier = classifier.filter(|_| config.classify_emotions);
    let mut counts = vec![CameraCounts::default(); cams.len()];
    let mut mismatches = Vec::new();
    let mut monitor: Vec<GrayFrame> = Vec::new();
    let mut raw_matrices: Vec<LookAtMatrix> = Vec::with_capacity(event.frames());
    let mut emotion_frames: Vec<Vec<EmotionEstimate>> = Vec::with_capacity(event.frames());
    let mut lookat_scratch = LookAtScratch::new();
    let mut lbp_scratch = LbpScratch::new();
    let mut descriptor = Vec::new();
    let mut features = Vec::new();
    let mut mlp_scratch = MlpBatchScratch::new();

    for (f, row) in event.inputs.iter().enumerate() {
        let req = request + f as u64;
        tracer.span("replay.frame", req, |t| {
            let mut per_camera: Vec<CameraOutput> = Vec::with_capacity(row.len());
            for (c, input) in row.iter().enumerate() {
                let out = t.span("replay.camera", req, |t| match input {
                    SessionInput::PoseObservations(obs) => (obs.clone(), Vec::new()),
                    SessionInput::Frame(frame) => {
                        if c == 0 && config.parse_video {
                            monitor.push(t.time("video.monitor_downsample", req, || {
                                frame.downsample2().downsample2()
                            }));
                        }
                        let cam = &mut cams[c];
                        replay_camera_frame(
                            t,
                            req,
                            cam,
                            &seats,
                            config,
                            frame,
                            classifier,
                            &mut counts[c],
                            &mut mismatches,
                            (
                                &mut lbp_scratch,
                                &mut descriptor,
                                &mut features,
                                &mut mlp_scratch,
                            ),
                        )
                    }
                });
                per_camera.push(out);
            }
            let obs = FrameObservations {
                cameras: camera_poses
                    .iter()
                    .zip(&per_camera)
                    .map(|(pose, (o, _))| (*pose, o.clone()))
                    .collect(),
            };
            let poses = t.time("analysis.fuse", req, || fuse_frame(&obs, &config.fusion));
            raw_matrices.push(t.time("analysis.lookat", req, || {
                LookAtMatrix::from_poses_with(n, &poses, &config.lookat, &mut lookat_scratch)
            }));
            emotion_frames.push(t.time("analysis.overall_emotion", req, || {
                best_estimates(n, &per_camera)
            }));
        });
    }

    let frames = raw_matrices.len();
    tracer.span("replay.finish", request, |t| {
        let structure = t.time("video.parse", request, || {
            config.parse_video.then(|| {
                let mut spec = scenario.spec;
                spec.width = monitor.first().map_or(spec.width / 4, |f| f.width());
                spec.height = monitor.first().map_or(spec.height / 4, |f| f.height());
                VideoParser::new(config.parser).parse_frames(spec, &monitor)
            })
        });
        let matrices = t.time("analysis.smooth", request, || {
            smooth_matrices(&raw_matrices, config.matrix_smoothing)
        });
        let summary = t.time("analysis.summary", request, || {
            let mut summary = LookAtSummary::new(n);
            for m in &matrices {
                summary.add(m);
            }
            let dominance = dominance_ranking(&summary);
            (summary, dominance)
        });
        let overall = t.time("analysis.overall_emotion", request, || {
            fuse_sequence(
                &emotion_frames,
                &OverallEmotionConfig {
                    participants: n,
                    smoothing: config.emotion_smoothing,
                },
            )
        });
        let (episodes, _pairs) = t.time("analysis.ec_stats", request, || {
            (ec_episodes(&matrices, 3), pair_statistics(&matrices, 3))
        });
        let highlights = t.time("summarize.highlights", request, || {
            detect_highlights(&matrices, &overall, &config.highlights)
        });
        let importance = t.time("summarize.importance", request, || {
            importance_series(&matrices, &overall, &config.importance)
        });
        t.time("summarize.select", request, || {
            structure
                .as_ref()
                .map(|s| select_summary(&s.shots, &importance, &config.summary, &config.importance))
        });
        let validation = t.time("analysis.validate", request, || {
            validate_sequence(&matrices, &event.truth)
        });
        let repository = t.time("metadata.insert", request, || {
            populate(
                scenario,
                frames,
                &matrices,
                &overall,
                structure.as_ref(),
                &highlights,
            )
        });
        let mean_overall_happiness = if overall.is_empty() {
            0.0
        } else {
            overall.iter().map(|o| o.overall_happiness).sum::<f64>() / overall.len() as f64
        };
        ReplayOutcome {
            cameras: counts,
            frames,
            summary: summary.0.rows(),
            validation,
            mean_overall_happiness,
            episodes: episodes.len(),
            highlights: highlights.len(),
            repository,
            mismatches,
        }
    })
}

type Scratch<'a> = (
    &'a mut LbpScratch,
    &'a mut Vec<f64>,
    &'a mut Vec<f64>,
    &'a mut MlpBatchScratch,
);

/// Stage 3 for one camera frame, as `CameraStage::process` runs it.
#[allow(clippy::too_many_arguments)]
fn replay_camera_frame(
    t: &mut Tracer,
    req: u64,
    cam: &mut CameraReplay,
    seats: &[(usize, Vec3)],
    config: &PipelineConfig,
    frame: &GrayFrame,
    classifier: Option<&ClassifierParts>,
    counts: &mut CameraCounts,
    mismatches: &mut Vec<String>,
    scratch: Scratch<'_>,
) -> CameraOutput {
    let (lbp_scratch, descriptor, features, mlp_scratch) = scratch;
    let camera = cam.camera;
    let xcfg = config.extractor;
    if cam.extractor.is_none() {
        cam.extractor = Some(t.time("vision.enroll", req, || {
            enroll(&camera, seats, config, frame)
        }));
    }
    let Some(extractor) = cam.extractor.as_mut() else {
        return (Vec::new(), Vec::new());
    };
    let patch_size = xcfg.patch_size.max(8);

    // The pure phase, one public function at a time.
    let detections = t.time("vision.detect", req, || detect_faces(frame, &xcfg.detector));
    let mut identities = Vec::with_capacity(detections.len());
    for det in &detections {
        let pose = t.time("vision.landmarks_pose", req, || {
            locate_landmarks(frame, det, &xcfg.landmarks)
                .and_then(|lm| estimate_pose(det, &lm, &camera, &xcfg.pose))
        });
        counts.poses += u64::from(pose.is_some());
        let patch = t.time("video.crop_resize", req, || {
            let r = det.radius.ceil() as i64;
            let side = (2 * r + 1).max(1) as u32;
            frame
                .patch(det.cx as i64 - r, det.cy as i64 - r, side, side)
                .resize(patch_size, patch_size)
        });
        let gallery = extractor.gallery_mut();
        identities.push(t.time("vision.recognize", req, || {
            gallery.recognize(det, &patch).map(|r| r.person)
        }));
    }
    counts.faces += detections.len() as u64;
    counts.identified += identities.iter().flatten().count() as u64;

    // `integrate` only accepts the `FrameRaw` that `analyze` returns.
    let raw = t.time(REPLAY_HELPER, req, || extractor.analyze(frame));
    let analyzed: Vec<Option<PersonId>> =
        raw.faces().map(|(_, id, _)| id.map(|(p, _)| p)).collect();
    if analyzed != identities {
        mismatches.push(format!(
            "frame {req}: free functions found {:?}, analyze found {analyzed:?}",
            identities
        ));
    }
    let observations = t.time("vision.integrate", req, || extractor.integrate(raw));
    let camera_obs = t.time("core.assemble", req, || {
        assemble(&camera, xcfg.pose.head_radius_m, &observations)
    });

    let emotions = match classifier {
        None => Vec::new(),
        Some(parts) => {
            let faces: Vec<(usize, f64, &GrayFrame)> = observations
                .iter()
                .filter_map(|o| {
                    let (person, _) = o.identity?;
                    Some((person.0, o.detection.radius, o.patch.as_ref()?))
                })
                .collect();
            if faces.is_empty() {
                Vec::new()
            } else {
                features.clear();
                for &(_, _, patch) in &faces {
                    t.time("emotion.lbp", req, || {
                        lbp_feature_vector_with(patch, &parts.lbp, descriptor, lbp_scratch);
                        parts.normalizer.apply_extend(descriptor, features);
                    });
                }
                let probs = t.time("emotion.mlp", req, || {
                    parts
                        .mlp
                        .predict_proba_batch_with(faces.len(), features, mlp_scratch)
                        .to_vec()
                });
                counts.classified += faces.len() as u64;
                let classes = probs.len() / faces.len();
                faces
                    .iter()
                    .zip(probs.chunks(classes.max(1)))
                    .map(|(&(person, radius, _), p)| {
                        let confidence = p.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
                        (person, p.to_vec(), confidence, radius)
                    })
                    .collect()
            }
        }
    };
    (camera_obs, emotions)
}

/// First-frame seat enrollment, as `CameraStage::extractor_for` does it:
/// a probe extractor detects the faces, each is associated with the
/// nearest projected seat, and unambiguous matches are enrolled.
fn enroll(
    camera: &PinholeCamera,
    seats: &[(usize, Vec3)],
    config: &PipelineConfig,
    first_frame: &GrayFrame,
) -> FeatureExtractor {
    let mut extractor = FeatureExtractor::new(config.extractor, *camera, FaceGallery::default());
    let mut probe = FeatureExtractor::new(config.extractor, *camera, FaceGallery::default());
    for o in probe.process(first_frame) {
        let mut best: Option<(usize, f64)> = None;
        for &(person, seat_head) in seats {
            if let Some(proj) = camera.project(seat_head) {
                let d = (proj.pixel.x - o.detection.cx).hypot(proj.pixel.y - o.detection.cy);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((person, d));
                }
            }
        }
        if let (Some((person, d)), Some(patch)) = (best, o.patch.as_ref()) {
            if d < o.detection.radius * 2.0 {
                extractor
                    .gallery_mut()
                    .enroll(PersonId(person), &o.detection, patch);
            }
        }
    }
    extractor
}

/// Fusion inputs from integrated faces: a full pose when available,
/// otherwise a position-only sighting from the detection's radius.
fn assemble(
    camera: &PinholeCamera,
    head_radius_m: f64,
    observations: &[dievent_vision::FaceObservation],
) -> Vec<CameraObservation> {
    observations
        .iter()
        .filter_map(|o| {
            let (person, _) = o.identity?;
            Some(match &o.pose {
                Some(pose) => CameraObservation {
                    person: person.0,
                    head_cam: pose.head_cam,
                    gaze_cam: Some(pose.gaze_cam),
                    weight: 1.0,
                },
                None => {
                    let k = &camera.intrinsics;
                    let z = k.fx * head_radius_m / o.detection.radius;
                    CameraObservation {
                        person: person.0,
                        head_cam: Vec3::new(
                            (o.detection.cx - k.cx) / k.fx * z,
                            (o.detection.cy - k.cy) / k.fy * z,
                            z,
                        ),
                        gaze_cam: None,
                        weight: 0.5,
                    }
                }
            })
        })
        .collect()
}

/// Per person, the estimate from the camera with the largest apparent
/// face, as the sequencer keeps it.
fn best_estimates(n: usize, per_camera: &[CameraOutput]) -> Vec<EmotionEstimate> {
    let mut best: Vec<Option<(&[f64], f64, f64)>> = vec![None; n];
    for (_, emotions) in per_camera {
        for (person, probs, conf, radius) in emotions {
            if *person >= n {
                continue;
            }
            if best[*person].is_none_or(|(_, _, r)| radius > &r) {
                best[*person] = Some((probs, *conf, *radius));
            }
        }
    }
    best.into_iter()
        .enumerate()
        .filter_map(|(person, b)| {
            b.map(|(p, confidence, _)| EmotionEstimate {
                person,
                probabilities: p.to_vec(),
                confidence,
            })
        })
        .collect()
}

/// Stage 5: the records the session stores, inserted one by one.
fn populate(
    scenario: &dievent_scene::Scenario,
    frames: usize,
    matrices: &[LookAtMatrix],
    overall: &[dievent_analysis::OverallEmotion],
    structure: Option<&dievent_video::VideoStructure>,
    highlights: &[dievent_summarize::Highlight],
) -> MetadataRepository {
    let repo = MetadataRepository::in_memory();
    let fps = scenario.spec.fps;
    let mut records = vec![MetaRecord::new(RecordKind::Event)
        .with_span(0.0, frames as f64 / fps)
        .with_attr("name", scenario.name.as_str())
        .with_attr("participants", scenario.participants.len())
        .with_attr("cameras", scenario.rig.len())
        .with_attr("frames", frames)];
    if let Some(s) = structure {
        for (i, scene) in s.scenes.iter().enumerate() {
            let (f0, f1) = scene.frame_span(&s.shots);
            records.push(
                MetaRecord::new(RecordKind::Scene)
                    .with_span(f0 as f64 / fps, f1 as f64 / fps)
                    .with_attr("scene", i),
            );
        }
        for (i, shot) in s.shots.iter().enumerate() {
            records.push(
                MetaRecord::new(RecordKind::Shot)
                    .with_span(shot.start as f64 / fps, shot.end as f64 / fps)
                    .with_attr("shot", i)
                    .with_attr("keyframes", s.keyframes[i].len()),
            );
        }
    }
    for (f, (m, o)) in matrices.iter().zip(overall).enumerate() {
        let t = f as f64 / fps;
        records.push(
            MetaRecord::new(RecordKind::FrameAnalysis)
                .with_span(t, t + 1.0 / fps)
                .with_attr("frame", f)
                .with_attr("looks", m.count_ones())
                .with_attr("eye_contacts", m.eye_contacts().len())
                .with_attr("oh", o.overall_happiness)
                .with_attr("valence", o.valence),
        );
    }
    for h in highlights {
        let t = h.frame as f64 / fps;
        let kind = match &h.kind {
            HighlightKind::EyeContactStart { .. } => "ec",
            HighlightKind::EmotionShift { .. } => "emotion",
        };
        records.push(
            MetaRecord::new(RecordKind::Highlight)
                .with_span(t, t)
                .with_attr("frame", h.frame)
                .with_attr("kind", kind),
        );
    }
    for record in records {
        // An in-memory repository has no I/O to fail.
        let _ = repo.insert(record);
    }
    repo
}
