//! Detect-then-localize: the streaming detector in front of the
//! localizer, so the daemon consumes *raw* KPI frames — no pre-labelled
//! anomaly flags, no external alarm — and triggers its own localizations.
//!
//! [`DetectingPipeline`] replaces [`crate::LocalizationPipeline`]'s
//! history-replay forecasting with [`detect::FrameDetector`]'s `O(1)`
//! incremental per-leaf state. On every frame the detector scores the
//! overall KPI against its residual distribution; on the rising edge of a
//! σ-threshold crossing it labels the frame with the per-leaf σ-scores and
//! runs the localizer, attaching severity and detection evidence to the
//! [`IncidentReport`] and to the [`rapminer::LocalizationTrace`].

use std::fmt;
use std::time::Instant;

use baselines::Localizer;
use detect::{DetectorConfig, DetectorSnapshot, FrameDetection, FrameDetector};
use mdkpi::{LeafFrame, Schema};
use rapminer::TraceDetection;

use crate::incident::{DetectionSummary, IncidentReport, StageTimings};
use crate::stream::{localize_within, ConfigError, PipelineConfig, PipelineError};

/// The detect-then-localize pipeline of one tenant: streaming detector
/// plus localizer.
///
/// Unlike [`crate::LocalizationPipeline`], the per-frame cost is `O(rows)`
/// with `O(1)` work per row — no history replay, no forecaster refit — so
/// a steady stream costs the same on day one and day one thousand.
///
/// The pipeline is restart-safe by construction: a freshly built instance
/// (e.g. after a shard worker respawn) silently re-warms from the live
/// stream — no detections until the detector's `min_samples` warmup
/// refills, and never a panic on cold state.
pub struct DetectingPipeline<L> {
    config: PipelineConfig,
    detector: FrameDetector,
    localizer: L,
    schema: Option<Schema>,
    last_detector_seconds: f64,
}

impl<L: Localizer> DetectingPipeline<L> {
    /// Create the pipeline, validating both configs.
    ///
    /// The [`PipelineConfig`] contributes `k` and `localize_deadline`; the
    /// alarm/leaf thresholds and history knobs of classic mode are unused
    /// (detection is the [`DetectorConfig`]'s job).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant of either config.
    pub fn try_new(
        config: PipelineConfig,
        detector_config: DetectorConfig,
        localizer: L,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let detector = FrameDetector::new(detector_config).map_err(|_| {
            // Fold the detector's own error into the pipeline's config
            // error space; the detailed message was already validated
            // upstream by service config validation.
            ConfigError::ZeroField { field: "detector" }
        })?;
        Ok(DetectingPipeline {
            config,
            detector,
            localizer,
            schema: None,
            last_detector_seconds: 0.0,
        })
    }

    /// Rebuild a pipeline whose detector resumes from `snapshot` instead
    /// of starting cold. The schema re-binds lazily on the first frame
    /// observed after the restore, exactly as on a fresh pipeline.
    /// Returns `None` when either config is invalid or the snapshot no
    /// longer matches `detector_config` — callers fall back to
    /// [`DetectingPipeline::try_new`] (a cold start that silently
    /// re-warms).
    pub fn try_restore(
        config: PipelineConfig,
        detector_config: DetectorConfig,
        snapshot: &DetectorSnapshot,
        localizer: L,
    ) -> Option<Self> {
        config.validate().ok()?;
        let detector = FrameDetector::restore(detector_config, snapshot)?;
        Some(DetectingPipeline {
            config,
            detector,
            localizer,
            schema: None,
            last_detector_seconds: 0.0,
        })
    }

    /// Capture the detector state verbatim for checkpointing.
    pub fn detector_snapshot(&self) -> DetectorSnapshot {
        self.detector.snapshot()
    }

    /// The active pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The streaming detector (state machine position, leaf count, …).
    pub fn detector(&self) -> &FrameDetector {
        &self.detector
    }

    /// Number of frames observed so far.
    pub fn steps_observed(&self) -> usize {
        self.detector.steps()
    }

    /// Wall-clock seconds the detector spent on the most recent frame
    /// (for the per-frame `detector` stage histogram).
    pub fn last_detector_seconds(&self) -> f64 {
        self.last_detector_seconds
    }

    /// Ingest one raw frame of **actual** values. The frame's forecast
    /// column and any labels are ignored — detection is the detector's
    /// job. Returns an [`IncidentReport`] on the rising edge of a
    /// detection.
    ///
    /// # Errors
    ///
    /// Fails when the frame's schema differs from the stream's, or the
    /// localizer errors on a triggered incident.
    pub fn observe(&mut self, frame: &LeafFrame) -> Result<Option<IncidentReport>, PipelineError> {
        match &self.schema {
            None => self.schema = Some(frame.schema().clone()),
            Some(s) => {
                if s != frame.schema() {
                    return Err(PipelineError::SchemaChanged);
                }
            }
        }

        let observe_span = obs::span("pipeline.detect_observe");
        observe_span.record("step", self.detector.steps());
        observe_span.record("leaves", frame.num_rows());

        let detector_started = Instant::now();
        let detection = self.detector.observe(frame);
        self.last_detector_seconds = detector_started.elapsed().as_secs_f64();
        observe_span.record("score", detection.score);

        if !detection.triggered {
            return Ok(None);
        }
        observe_span.record("alarm", true);
        self.localize_detection(frame, &detection).map(Some)
    }

    /// Label the triggering frame from the detector's per-leaf evidence
    /// and run the localizer.
    fn localize_detection(
        &self,
        frame: &LeafFrame,
        detection: &FrameDetection,
    ) -> Result<IncidentReport, PipelineError> {
        let schema = self.schema.as_ref().expect("schema set by observe");
        let detect_started = Instant::now();
        let labelled = {
            // Rebuild the frame with each leaf's *baseline forecast* in
            // the `f` column (the wire frame carries no usable forecast)
            // so confidence computations inside the localizer see the
            // same evidence the detector did. Cold leaves get `f = v`:
            // zero deviation, never labelled anomalous.
            let mut builder = LeafFrame::builder(schema);
            for (i, row) in frame.iter().enumerate() {
                let f = detection.row_forecasts[i].unwrap_or(row.v()).max(0.0);
                builder.push(row.elements(), row.v(), f);
            }
            let mut labelled = builder.build();
            labelled
                .set_labels(detection.row_labels())
                .expect("labels built alongside rows");
            labelled
        };
        let detect_seconds = detect_started.elapsed().as_secs_f64();

        let (explained, timings, deadline_exceeded) =
            localize_within(&self.localizer, &labelled, &self.config, detection.step)?;

        let severity = detection.severity;
        let summary = severity.map(|severity| DetectionSummary {
            score: detection.score,
            severity,
            leaf_scores: detection.leaf_scores.clone(),
        });
        let trace = explained.trace.map(|mut t| {
            t.detection = severity.map(|severity| TraceDetection {
                severity: severity.as_str().to_string(),
                score: detection.score,
                leaf_scores: detection.leaf_scores.clone(),
            });
            t
        });
        Ok(IncidentReport {
            step: detection.step,
            total_deviation: detection.deviation,
            anomalous_leaves: labelled.num_anomalous(),
            total_leaves: labelled.num_rows(),
            raps: explained.results,
            timings: StageTimings {
                detect_seconds,
                detector_seconds: self.last_detector_seconds,
                ..timings
            },
            trace,
            deadline_exceeded,
            degraded_forecast: false,
            severity,
            detection: summary,
            frame_id: None,
        })
    }
}

impl<L: fmt::Debug> fmt::Debug for DetectingPipeline<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectingPipeline")
            .field("steps", &self.detector.steps())
            .field("leaves_tracked", &self.detector.leaf_count())
            .field("state", &self.detector.state())
            .field("localizer", &self.localizer)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::RapMinerLocalizer;
    use cdnsim::{CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
    use detect::{DetectorState, Severity};

    fn detector_config() -> DetectorConfig {
        DetectorConfig {
            min_samples: 20,
            residual_window: 64,
            ..DetectorConfig::default()
        }
    }

    fn pipeline() -> DetectingPipeline<RapMinerLocalizer> {
        DetectingPipeline::try_new(
            PipelineConfig::default(),
            detector_config(),
            RapMinerLocalizer::default(),
        )
        .expect("valid configs")
    }

    /// The location element carrying the most traffic — a failure there is
    /// material to the overall KPI, which is what the detector watches.
    fn heaviest_location(model: &TrafficModel) -> mdkpi::Combination {
        let frame = model.snapshot(0);
        let schema = model.topology().schema();
        let mut best: Option<(f64, mdkpi::Combination)> = None;
        for i in 1.. {
            let Ok(c) = schema.parse_combination(&format!("location=L{i}")) else {
                break;
            };
            let share: f64 = frame.rows_matching(&c).iter().map(|&r| frame.v(r)).sum();
            if best.as_ref().map(|(s, _)| share > *s).unwrap_or(true) {
                best = Some((share, c));
            }
        }
        best.expect("at least one location").1
    }

    #[test]
    fn self_triggers_and_localizes_an_injected_failure() {
        let topology = CdnTopology::small(17);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 17);
        let rap = heaviest_location(&model);
        let mut p = pipeline();

        // Warm on clean traffic.
        for minute in 0..60 {
            let report = p.observe(&model.snapshot(minute)).expect("clean frame");
            assert!(report.is_none(), "clean stream must not trigger");
        }
        assert_eq!(p.detector().state(), DetectorState::Steady);

        // Inject a location-wide failure; the pipeline must self-trigger
        // and recover the RAP.
        let mut frame = model.snapshot(60);
        FailureInjector::new(0.5, 0.9).inject(&mut frame, std::slice::from_ref(&rap), 60);
        let report = p
            .observe(&frame)
            .expect("anomalous frame")
            .expect("must self-trigger");
        assert!(report.severity.is_some());
        let detection = report.detection.as_ref().expect("detection evidence");
        assert!(detection.score >= p.detector().config().sigma_threshold);
        assert!(!detection.leaf_scores.is_empty());
        assert_eq!(report.severity, Some(Severity::Critical));
        assert_eq!(
            report.raps.first().map(|r| r.combination.to_string()),
            Some(rap.to_string()),
            "top RAP must be the injected one"
        );
        let trace = report.trace.as_ref().expect("rapminer attaches a trace");
        let td = trace.detection.as_ref().expect("trace carries detection");
        assert_eq!(td.severity, "critical");
        assert!(td.score >= 5.0);
        assert!(report.timings.detector_seconds > 0.0);
    }

    #[test]
    fn raw_frames_without_labels_or_forecasts_are_enough() {
        // Strip the forecast column entirely (f = 0 as on the wire).
        let topology = CdnTopology::small(5);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 5);
        let strip = |frame: &LeafFrame| {
            let mut b = LeafFrame::builder(frame.schema());
            for row in frame.iter() {
                b.push(row.elements(), row.v(), 0.0);
            }
            b.build()
        };
        let mut p = pipeline();
        for minute in 0..40 {
            let report = p
                .observe(&strip(&model.snapshot(minute)))
                .expect("raw frame");
            assert!(report.is_none());
        }
        let rap = heaviest_location(&model);
        let mut frame = model.snapshot(40);
        FailureInjector::new(0.6, 0.9).inject(&mut frame, &[rap], 40);
        let report = p.observe(&strip(&frame)).expect("anomalous frame");
        assert!(report.is_some(), "raw unlabelled frame must still trigger");
    }

    #[test]
    fn schema_change_is_rejected() {
        let mut p = pipeline();
        let a = CdnTopology::small(1);
        let model_a = TrafficModel::new(a, TrafficConfig::default(), 1);
        p.observe(&model_a.snapshot(0)).expect("first frame");
        let b = mdkpi::Schema::builder()
            .attribute("other", ["x"])
            .build()
            .expect("valid schema");
        let mut builder = LeafFrame::builder(&b);
        builder
            .push_named(&[("other", "x")], 1.0, 0.0)
            .expect("row");
        let err = p.observe(&builder.build()).unwrap_err();
        assert!(matches!(err, PipelineError::SchemaChanged));
    }

    #[test]
    fn restored_pipeline_localizes_identically_to_uninterrupted() {
        let topology = CdnTopology::small(11);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 11);
        let rap = heaviest_location(&model);
        let mut p = pipeline();
        for minute in 0..50 {
            p.observe(&model.snapshot(minute)).expect("clean frame");
        }
        // Checkpoint mid-stream, then resume a second pipeline from it.
        let snap = p.detector_snapshot();
        let mut restored = DetectingPipeline::try_restore(
            PipelineConfig::default(),
            detector_config(),
            &snap,
            RapMinerLocalizer::default(),
        )
        .expect("snapshot restores under the same config");
        assert_eq!(restored.steps_observed(), p.steps_observed());

        let mut frame = model.snapshot(50);
        FailureInjector::new(0.5, 0.9).inject(&mut frame, std::slice::from_ref(&rap), 50);
        let a = p
            .observe(&frame)
            .expect("anomalous frame")
            .expect("uninterrupted run triggers");
        let b = restored
            .observe(&frame)
            .expect("anomalous frame")
            .expect("restored run triggers identically");
        assert_eq!(a.step, b.step);
        assert_eq!(a.total_deviation.to_bits(), b.total_deviation.to_bits());
        assert_eq!(a.severity, b.severity);
        assert_eq!(
            a.raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score.to_bits()))
                .collect::<Vec<_>>(),
            b.raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score.to_bits()))
                .collect::<Vec<_>>(),
            "restored localization must match the uninterrupted run exactly"
        );
    }

    #[test]
    fn try_restore_rejects_mismatched_detector_config() {
        let p = pipeline();
        let snap = p.detector_snapshot();
        let reconfigured = DetectorConfig {
            seasonal_period: 24,
            ..detector_config()
        };
        assert!(DetectingPipeline::try_restore(
            PipelineConfig::default(),
            reconfigured,
            &snap,
            RapMinerLocalizer::default(),
        )
        .is_none());
    }

    #[test]
    fn rebuilt_pipeline_rewarms_without_panicking() {
        // The supervisor-respawn path: a replacement pipeline starts cold
        // mid-incident and must stay silent through its warmup.
        let topology = CdnTopology::small(9);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 9);
        let mut p = pipeline();
        for minute in 0..50 {
            p.observe(&model.snapshot(minute)).expect("clean frame");
        }
        drop(p);
        let mut respawned = pipeline();
        for minute in 50..70 {
            let report = respawned
                .observe(&model.snapshot(minute))
                .expect("clean frame");
            assert!(report.is_none(), "cold restart must re-warm silently");
        }
    }

    #[test]
    fn per_frame_cost_does_not_grow_with_stream_length() {
        // O(1) updates: the mean per-frame observe cost late in a long
        // stream must not exceed a small multiple of the early cost.
        let topology = CdnTopology::small(3);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 3);
        let mut p = pipeline();
        let time_phase = |p: &mut DetectingPipeline<RapMinerLocalizer>, from: usize, n: usize| {
            let start = Instant::now();
            for minute in from..from + n {
                p.observe(&model.snapshot(minute)).expect("clean frame");
            }
            start.elapsed().as_secs_f64() / n as f64
        };
        let early = time_phase(&mut p, 0, 200);
        let _middle = time_phase(&mut p, 200, 1600);
        let late = time_phase(&mut p, 1800, 200);
        // Generous bound: catches O(history) refits (which would be ~10×
        // after 9× more history) without flaking on scheduler noise.
        assert!(
            late < early * 8.0 + 1e-4,
            "per-frame cost grew with stream length: early {early:.6}s late {late:.6}s"
        );
    }

    #[test]
    fn deadline_marks_slow_detection_and_keeps_pipeline_alive() {
        // 30 ms per localization, polling the cancel hook once afterwards
        // the way rapminer polls between lattice layers
        #[derive(Debug)]
        struct Slow;
        impl Localizer for Slow {
            fn name(&self) -> &'static str {
                "slow"
            }
            fn localize(
                &self,
                frame: &LeafFrame,
                _k: usize,
            ) -> baselines::Result<Vec<baselines::ScoredCombination>> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(vec![baselines::ScoredCombination {
                    combination: mdkpi::Combination::root(frame.schema()),
                    score: 1.0,
                }])
            }
            fn localize_explained_with_cancel(
                &self,
                frame: &LeafFrame,
                k: usize,
                cancel: &dyn Fn() -> bool,
            ) -> baselines::Result<baselines::Explained> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                if cancel() {
                    return Ok(baselines::Explained {
                        results: Vec::new(),
                        trace: None,
                    });
                }
                self.localize_explained(frame, k)
            }
        }
        let topology = CdnTopology::small(17);
        let model = TrafficModel::new(topology, TrafficConfig::default(), 17);
        let rap = heaviest_location(&model);
        let config = PipelineConfig {
            localize_deadline: Some(std::time::Duration::from_millis(5)),
            ..PipelineConfig::default()
        };
        let mut p = DetectingPipeline::try_new(config, detector_config(), Slow).expect("valid");
        for minute in 0..60 {
            assert!(p.observe(&model.snapshot(minute)).expect("clean").is_none());
        }
        let mut frame = model.snapshot(60);
        FailureInjector::new(0.5, 0.9).inject(&mut frame, std::slice::from_ref(&rap), 60);
        let report = p
            .observe(&frame)
            .expect("anomalous frame")
            .expect("detection still fires under deadline");
        assert!(report.deadline_exceeded, "30ms localize vs 5ms budget");
        assert!(report.raps.is_empty(), "cancelled before any layer");
        assert!(report.severity.is_some(), "the detection evidence survives");
        assert!(report.summary().contains("(deadline exceeded)"));
        // the pipeline keeps observing normally afterwards
        for minute in 61..70 {
            p.observe(&model.snapshot(minute)).expect("clean frame");
        }
    }
}
