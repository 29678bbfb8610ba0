use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

use baselines::{Explained, Localizer};
use mdkpi::{ElementId, LeafFrame, Schema};
use timeseries::{deviation, Ewma, Forecaster, SeasonalNaive};

use crate::incident::{IncidentReport, StageTimings};

/// Smoothing factor of the [`Ewma`] degradation fallback.
const FALLBACK_EWMA_ALPHA: f64 = 0.3;
/// Season length (points) above which the degradation fallback prefers
/// [`SeasonalNaive`]: one day at minute granularity, matching the default
/// `history_len`. Shorter clean histories fall back to the EWMA.
const FALLBACK_SEASON: usize = 1440;

/// Tunables of the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Points of history kept per leaf (and for the total KPI).
    pub history_len: usize,
    /// Observations required before alarms may fire (forecasters need
    /// context).
    pub warmup: usize,
    /// Absolute Eq. 4 deviation of the *total* KPI that raises the alarm.
    pub alarm_threshold: f64,
    /// Absolute Eq. 4 deviation labelling one *leaf* anomalous once the
    /// alarm fired.
    pub leaf_threshold: f64,
    /// Root anomaly patterns to report per incident.
    pub k: usize,
    /// Wall-clock budget for one triggered localization. `None` (the
    /// default) never cancels; `Some(d)` polls the deadline between BFS
    /// layers and marks the incident
    /// [`IncidentReport::deadline_exceeded`](crate::IncidentReport::deadline_exceeded)
    /// when the budget ran out, keeping a pathological frame from stalling
    /// a shard worker indefinitely.
    pub localize_deadline: Option<Duration>,
    /// Intra-frame localization threads handed to the localizer factory:
    /// `1` (the default) keeps one core per shard frame, `0` sizes the
    /// per-frame pool to the machine. Results are byte-identical either
    /// way; only wall-clock time changes.
    pub localize_threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            history_len: 1440, // one day at minute granularity
            warmup: 10,
            alarm_threshold: 0.1,
            leaf_threshold: 0.3,
            k: 3,
            localize_deadline: None,
            localize_threads: 1,
        }
    }
}

impl PipelineConfig {
    /// Check every invariant the streaming loop relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: zero `history_len`, zero
    /// `warmup`, zero `k`, a threshold that is not a positive finite
    /// number, or a zero `localize_deadline` (use `None` to disable).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.history_len == 0 {
            return Err(ConfigError::ZeroField {
                field: "history_len",
            });
        }
        if self.warmup == 0 {
            return Err(ConfigError::ZeroField { field: "warmup" });
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroField { field: "k" });
        }
        for (field, v) in [
            ("alarm_threshold", self.alarm_threshold),
            ("leaf_threshold", self.leaf_threshold),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::BadThreshold { field, value: v });
            }
        }
        if self.localize_deadline.is_some_and(|d| d.is_zero()) {
            // `None` means "no deadline"; an explicit zero budget would
            // cancel every localization before its first layer.
            return Err(ConfigError::ZeroField {
                field: "localize_deadline",
            });
        }
        Ok(())
    }
}

/// A [`PipelineConfig`] that would misbehave downstream (division by zero
/// history, alarms that can never or always fire, empty result lists).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count field that must be positive was zero.
    ZeroField {
        /// The offending field name.
        field: &'static str,
    },
    /// A threshold was NaN, infinite, or not positive.
    BadThreshold {
        /// The offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField { field } => write!(f, "{field} must be positive"),
            ConfigError::BadThreshold { field, value } => {
                write!(f, "{field} must be a positive finite number, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors of the streaming pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The pipeline was configured with an invalid [`PipelineConfig`].
    Config(ConfigError),
    /// A snapshot used a different schema than the first one observed.
    SchemaChanged,
    /// The localizer failed on a triggered incident.
    Localization(baselines::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Config(e) => write!(f, "invalid pipeline config: {e}"),
            PipelineError::SchemaChanged => {
                write!(f, "snapshot schema differs from the stream's schema")
            }
            PipelineError::Localization(e) => write!(f, "localization failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Config(e) => Some(e),
            PipelineError::Localization(e) => Some(e),
            PipelineError::SchemaChanged => None,
        }
    }
}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::Config(e)
    }
}

impl From<baselines::Error> for PipelineError {
    fn from(e: baselines::Error) -> Self {
        PipelineError::Localization(e)
    }
}

/// A verbatim capture of a [`LocalizationPipeline`]'s streaming state,
/// produced by [`LocalizationPipeline::state_snapshot`] and consumed by
/// [`LocalizationPipeline::try_restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicSnapshot {
    /// Snapshots observed so far.
    pub steps: usize,
    /// Total-KPI history ring, oldest first.
    pub total_history: Vec<f64>,
    /// Per-leaf history rings, sorted by element key, oldest first.
    pub history: Vec<(Vec<ElementId>, Vec<f64>)>,
}

/// The streaming operations loop: ingest per-leaf actuals step by step,
/// alarm on the overall KPI, localize on alarm (see the crate docs for a
/// full example).
pub struct LocalizationPipeline<F, L> {
    config: PipelineConfig,
    forecaster: F,
    localizer: L,
    schema: Option<Schema>,
    /// Per-leaf actual-value history, keyed by the leaf's element vector.
    history: HashMap<Vec<ElementId>, VecDeque<f64>>,
    total_history: VecDeque<f64>,
    steps: usize,
}

impl<F: Forecaster, L: Localizer> LocalizationPipeline<F, L> {
    /// Create the pipeline, panicking on an invalid config.
    ///
    /// # Panics
    ///
    /// Panics if `history_len`, `warmup` or `k` is zero, or thresholds
    /// are not positive finite numbers. Fallible callers (services,
    /// daemons) should use [`LocalizationPipeline::try_new`] instead.
    pub fn new(config: PipelineConfig, forecaster: F, localizer: L) -> Self {
        match Self::try_new(config, forecaster, localizer) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Create the pipeline, validating the config.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`PipelineConfig`] invariant as a
    /// [`ConfigError`].
    pub fn try_new(
        config: PipelineConfig,
        forecaster: F,
        localizer: L,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(LocalizationPipeline {
            config,
            forecaster,
            localizer,
            schema: None,
            history: HashMap::new(),
            total_history: VecDeque::new(),
            steps: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of snapshots observed so far.
    pub fn steps_observed(&self) -> usize {
        self.steps
    }

    /// Capture the streaming state (step counter plus every bounded
    /// history ring) verbatim for checkpointing. Leaves are emitted
    /// sorted by element key so the capture serializes to deterministic
    /// bytes. The forecaster itself is stateless between calls — it
    /// re-fits from history — so histories are the whole state.
    pub fn state_snapshot(&self) -> ClassicSnapshot {
        let mut history: Vec<(Vec<ElementId>, Vec<f64>)> = self
            .history
            .iter()
            .map(|(k, h)| (k.clone(), h.iter().copied().collect()))
            .collect();
        history.sort_by(|a, b| a.0.cmp(&b.0));
        ClassicSnapshot {
            steps: self.steps,
            total_history: self.total_history.iter().copied().collect(),
            history,
        }
    }

    /// Rebuild a pipeline resuming from `snapshot` instead of starting
    /// cold. The schema re-binds lazily on the first frame observed after
    /// the restore. Returns `None` when the config is invalid or any
    /// history ring no longer fits `history_len` (the window shrank since
    /// the snapshot was written).
    pub fn try_restore(
        config: PipelineConfig,
        forecaster: F,
        localizer: L,
        snapshot: &ClassicSnapshot,
    ) -> Option<Self> {
        config.validate().ok()?;
        if snapshot.total_history.len() > config.history_len
            || snapshot
                .history
                .iter()
                .any(|(_, h)| h.len() > config.history_len)
        {
            return None;
        }
        let mut history = HashMap::with_capacity(snapshot.history.len());
        for (key, hist) in &snapshot.history {
            history.insert(key.clone(), hist.iter().copied().collect::<VecDeque<f64>>());
        }
        Some(LocalizationPipeline {
            config,
            forecaster,
            localizer,
            schema: None,
            history,
            total_history: snapshot.total_history.iter().copied().collect(),
            steps: snapshot.steps,
        })
    }

    /// Ingest one snapshot of **actual** values (the frame's forecast
    /// column is ignored — this pipeline produces its own forecasts from
    /// history). Returns an [`IncidentReport`] when the overall KPI
    /// deviates beyond the alarm threshold after warmup.
    ///
    /// Leaves absent from a snapshot are treated as reporting zero (a dead
    /// leaf is itself a signal); leaves never seen before start a fresh
    /// history.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's schema differs from the stream's, or the
    /// localizer errors on a triggered incident.
    pub fn observe(&mut self, frame: &LeafFrame) -> Result<Option<IncidentReport>, PipelineError> {
        let schema = match &self.schema {
            None => {
                self.schema = Some(frame.schema().clone());
                self.schema.as_ref().expect("just set")
            }
            Some(s) => {
                if s != frame.schema() {
                    return Err(PipelineError::SchemaChanged);
                }
                s
            }
        };
        let schema = schema.clone();

        let observe_span = obs::span("pipeline.observe");
        observe_span.record("step", self.steps);
        observe_span.record("leaves", frame.num_rows());

        // detection BEFORE updating histories: forecasts must not see the
        // current (possibly anomalous) point
        let total_v = frame.total_v();
        let mut report = None;
        if self.steps >= self.config.warmup {
            let (total_dev, total_degraded) = {
                let forecast_span = obs::span("pipeline.forecast");
                let total_hist: Vec<f64> = self.total_history.iter().copied().collect();
                let (total_f, degraded) = self.forecast_with_fallback(&total_hist);
                let total_dev = deviation(total_v, total_f);
                forecast_span.record("deviation", total_dev);
                if degraded {
                    forecast_span.record("degraded", true);
                }
                (total_dev, degraded)
            };
            if total_dev.abs() > self.config.alarm_threshold {
                observe_span.record("alarm", true);
                report = Some(self.localize_incident(&schema, frame, total_dev, total_degraded)?);
            }
        }

        // update histories (current snapshot becomes the newest point)
        let mut seen: HashMap<&[ElementId], f64> = HashMap::new();
        for i in 0..frame.num_rows() {
            // duplicate leaf rows in one snapshot are summed
            *seen.entry(frame.row_elements(i)).or_insert(0.0) += frame.v(i);
        }
        for (elements, hist) in &mut self.history {
            let v = seen.remove(elements.as_slice()).unwrap_or(0.0);
            push_bounded(hist, v, self.config.history_len);
        }
        for (elements, v) in seen {
            let mut hist = VecDeque::new();
            push_bounded(&mut hist, v, self.config.history_len);
            self.history.insert(elements.to_vec(), hist);
        }
        push_bounded(&mut self.total_history, total_v, self.config.history_len);
        self.steps += 1;
        Ok(report)
    }

    /// Forecast the next point, substituting a degradation fallback when
    /// the primary forecaster returns a non-finite value (which happens as
    /// soon as one NaN slips into a history it averages over). The fallback
    /// is warmed from the finite subset of the same history: seasonal-naive
    /// when at least two clean seasons exist, EWMA otherwise, and a flat
    /// zero when not even the fallback can produce a finite number. Returns
    /// `(forecast, degraded)`.
    fn forecast_with_fallback(&self, hist: &[f64]) -> (f64, bool) {
        let f = self.forecaster.forecast_next(hist);
        if f.is_finite() {
            return (f, false);
        }
        let finite: Vec<f64> = hist.iter().copied().filter(|v| v.is_finite()).collect();
        let fallback = if finite.len() >= 2 * FALLBACK_SEASON {
            SeasonalNaive::new(FALLBACK_SEASON).forecast_next(&finite)
        } else {
            Ewma::new(FALLBACK_EWMA_ALPHA).forecast_next(&finite)
        };
        (if fallback.is_finite() { fallback } else { 0.0 }, true)
    }

    /// Forecast every known leaf, label by deviation, and localize.
    fn localize_incident(
        &self,
        schema: &Schema,
        frame: &LeafFrame,
        total_dev: f64,
        total_degraded: bool,
    ) -> Result<IncidentReport, PipelineError> {
        let mut degraded_forecast = total_degraded;
        let detect_started = Instant::now();
        let labelled = {
            let detect_span = obs::span("pipeline.detect");
            let mut current: HashMap<&[ElementId], f64> = HashMap::new();
            for i in 0..frame.num_rows() {
                *current.entry(frame.row_elements(i)).or_insert(0.0) += frame.v(i);
            }
            let mut builder = LeafFrame::builder(schema);
            let mut labels: Vec<bool> = Vec::new();
            let mut keys: Vec<&Vec<ElementId>> = self.history.keys().collect();
            keys.sort(); // deterministic row order
            for elements in keys {
                let hist: Vec<f64> = self.history[elements].iter().copied().collect();
                let (raw_f, leaf_degraded) = self.forecast_with_fallback(&hist);
                degraded_forecast |= leaf_degraded;
                let f = raw_f.max(0.0);
                let v = current.get(elements.as_slice()).copied().unwrap_or(0.0);
                builder.push(elements, v, f);
                labels.push(deviation(v, f).abs() > self.config.leaf_threshold);
            }
            let mut labelled = builder.build();
            labelled
                .set_labels(labels)
                .expect("labels built alongside rows");
            detect_span.record("leaves", labelled.num_rows());
            detect_span.record("anomalous", labelled.num_anomalous());
            labelled
        };
        let detect_seconds = detect_started.elapsed().as_secs_f64();

        let (explained, timings, deadline_exceeded) =
            localize_within(&self.localizer, &labelled, &self.config, self.steps)?;
        Ok(IncidentReport {
            step: self.steps,
            total_deviation: total_dev,
            anomalous_leaves: labelled.num_anomalous(),
            total_leaves: labelled.num_rows(),
            raps: explained.results,
            timings: StageTimings {
                detect_seconds,
                ..timings
            },
            trace: explained.trace,
            deadline_exceeded,
            degraded_forecast,
            severity: None,
            detection: None,
            frame_id: None,
        })
    }
}

/// Run `localizer` on an alarm's labelled frame under
/// `config.localize_deadline`: the step both pipelines share once the
/// frame is labelled. The deadline counts as exceeded when the localizer
/// polled its cancel hook past it or, for a localizer without preemption
/// points, when the call simply took longer; either way the overrun is
/// logged as `pipeline`/`localize_deadline_exceeded` with `step`. Returns
/// the results, the localize stages' timings (the detect stages left at
/// zero), and whether the deadline was exceeded.
pub(crate) fn localize_within<L: Localizer>(
    localizer: &L,
    labelled: &LeafFrame,
    config: &PipelineConfig,
    step: usize,
) -> Result<(Explained, StageTimings, bool), PipelineError> {
    let started = Instant::now();
    let cancel_fired = Cell::new(false);
    let explained = {
        let localize_span = obs::span("pipeline.localize");
        localize_span.record("method", localizer.name());
        let explained = match config.localize_deadline {
            Some(budget) => {
                let deadline = started + budget;
                let cancel = || {
                    if Instant::now() >= deadline {
                        cancel_fired.set(true);
                        true
                    } else {
                        false
                    }
                };
                localizer.localize_explained_with_cancel(labelled, config.k, &cancel)?
            }
            None => localizer.localize_explained(labelled, config.k)?,
        };
        localize_span.record("raps", explained.results.len());
        explained
    };
    let elapsed = started.elapsed();
    let deadline_exceeded = cancel_fired.get()
        || config
            .localize_deadline
            .is_some_and(|budget| elapsed >= budget);
    if deadline_exceeded {
        obs::warn(
            "pipeline",
            "localize_deadline_exceeded",
            &[
                ("step", obs::Value::from(step)),
                (
                    "budget_ms",
                    obs::Value::from(config.localize_deadline.map_or(0, |d| d.as_millis() as u64)),
                ),
                ("elapsed_ms", obs::Value::from(elapsed.as_millis() as u64)),
            ],
        );
    }
    let (cp_seconds, search_seconds) = explained
        .trace
        .as_ref()
        .map_or((0.0, 0.0), |t| (t.cp_seconds, t.search_seconds));
    let timings = StageTimings {
        cp_seconds,
        search_seconds,
        localize_seconds: elapsed.as_secs_f64(),
        ..StageTimings::default()
    };
    Ok((explained, timings, deadline_exceeded))
}

impl<F: fmt::Debug, L: fmt::Debug> fmt::Debug for LocalizationPipeline<F, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalizationPipeline")
            .field("steps", &self.steps)
            .field("leaves_tracked", &self.history.len())
            .field("forecaster", &self.forecaster)
            .field("localizer", &self.localizer)
            .finish()
    }
}

fn push_bounded(hist: &mut VecDeque<f64>, v: f64, cap: usize) {
    if hist.len() == cap {
        hist.pop_front();
    }
    hist.push_back(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::RapMinerLocalizer;
    use timeseries::MovingAverage;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", ["a1", "a2"])
            .attribute("b", ["b1", "b2"])
            .build()
            .unwrap()
    }

    fn frame(schema: &Schema, values: [f64; 4]) -> LeafFrame {
        let mut b = LeafFrame::builder(schema);
        let mut idx = 0;
        for x in 0..2u32 {
            for y in 0..2u32 {
                b.push(&[ElementId(x), ElementId(y)], values[idx], 0.0);
                idx += 1;
            }
        }
        b.build()
    }

    fn pipeline() -> LocalizationPipeline<MovingAverage, RapMinerLocalizer> {
        LocalizationPipeline::new(
            PipelineConfig {
                warmup: 5,
                ..PipelineConfig::default()
            },
            MovingAverage::new(5),
            RapMinerLocalizer::default(),
        )
    }

    #[test]
    fn steady_traffic_never_alarms() {
        let s = schema();
        let mut p = pipeline();
        for step in 0..30 {
            let jitter = 1.0 + 0.01 * ((step % 3) as f64 - 1.0);
            let report = p
                .observe(&frame(&s, [100.0 * jitter, 50.0, 80.0, 60.0]))
                .unwrap();
            assert!(report.is_none(), "false alarm at step {step}");
        }
        assert_eq!(p.steps_observed(), 30);
    }

    #[test]
    fn collapse_raises_alarm_and_localizes() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..10 {
            assert!(p
                .observe(&frame(&s, [100.0, 100.0, 100.0, 100.0]))
                .unwrap()
                .is_none());
        }
        // (a1, *) collapses: rows (a1,b1) and (a1,b2)
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("alarm should fire");
        assert!(report.total_deviation > 0.1);
        assert_eq!(report.anomalous_leaves, 2);
        assert_eq!(report.raps[0].combination.to_string(), "(a1, *)");
        assert!(report.summary().contains("(a1, *)"));
        assert!(!report.degraded_forecast, "clean history is not degraded");
    }

    #[test]
    fn nan_history_degrades_forecast_instead_of_silencing_alarms() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..8 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        // One corrupt snapshot poisons every history with a NaN point; from
        // now on MovingAverage(5) returns NaN for every series.
        assert!(p
            .observe(&frame(&s, [f64::NAN, 100.0, 100.0, 100.0]))
            .unwrap()
            .is_none());
        // Steady traffic under the fallback forecaster: no false alarm.
        assert!(p
            .observe(&frame(&s, [100.0, 100.0, 100.0, 100.0]))
            .unwrap()
            .is_none());
        // A real collapse still alarms and localizes correctly — but the
        // incident is flagged as produced on degraded forecasts.
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("collapse must still alarm on fallback forecasts");
        assert!(report.degraded_forecast);
        assert_eq!(report.raps[0].combination.to_string(), "(a1, *)");
        assert!(report.summary().contains("(degraded forecast)"));
        assert!(report.total_deviation.is_finite());
    }

    #[test]
    fn all_nan_history_falls_back_to_zero_forecast() {
        let p = pipeline();
        let (f, degraded) = p.forecast_with_fallback(&[f64::NAN, f64::NAN]);
        assert_eq!(f, 0.0);
        assert!(degraded);
        let (f, degraded) = p.forecast_with_fallback(&[f64::NAN, 7.0, 9.0]);
        assert!(degraded);
        assert!(f.is_finite() && f > 0.0, "ewma over the finite subset");
        let (f, degraded) = p.forecast_with_fallback(&[7.0, 9.0]);
        assert!(!degraded);
        assert_eq!(f, 8.0, "primary moving average untouched");
    }

    #[test]
    fn incident_carries_trace_and_stage_timings() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("alarm should fire");
        let trace = report.trace.as_ref().expect("rapminer attaches a trace");
        assert!(trace.is_consistent(), "trace: {trace:?}");
        // the trace's stats describe the very search that produced `raps`
        let kept = trace.candidates.iter().filter(|c| c.kept).count();
        assert_eq!(kept, report.raps.len());
        let t = report.timings;
        assert!(t.detect_seconds >= 0.0 && t.localize_seconds >= 0.0);
        // cp + search happen inside the localizer call
        assert!(t.localize_seconds >= t.cp_seconds + t.search_seconds);
        assert_eq!(trace.cp_seconds, t.cp_seconds);
        assert_eq!(trace.search_seconds, t.search_seconds);
    }

    #[test]
    fn no_alarm_during_warmup() {
        let s = schema();
        let mut p = pipeline();
        // even a crazy first frame cannot alarm: not enough history
        for _ in 0..4 {
            assert!(p
                .observe(&frame(&s, [0.0, 0.0, 0.0, 0.0]))
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn vanished_leaf_counts_as_zero_and_localizes() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        // snapshot missing every a1 row entirely (dead collector)
        let mut b = LeafFrame::builder(&s);
        b.push(&[ElementId(1), ElementId(0)], 100.0, 0.0);
        b.push(&[ElementId(1), ElementId(1)], 100.0, 0.0);
        let partial = b.build();
        let report = p.observe(&partial).unwrap().expect("alarm");
        assert_eq!(report.raps[0].combination.to_string(), "(a1, *)");
        // history was still extended for the missing leaves (with zeros)
        assert_eq!(p.history.len(), 4);
    }

    #[test]
    fn schema_change_is_rejected() {
        let s = schema();
        let mut p = pipeline();
        p.observe(&frame(&s, [1.0, 1.0, 1.0, 1.0])).unwrap();
        let other = Schema::builder().attribute("x", ["x1"]).build().unwrap();
        let mut b = LeafFrame::builder(&other);
        b.push(&[ElementId(0)], 1.0, 0.0);
        let err = p.observe(&b.build()).unwrap_err();
        assert!(matches!(err, PipelineError::SchemaChanged));
    }

    #[test]
    fn history_is_bounded() {
        let s = schema();
        let mut p = LocalizationPipeline::new(
            PipelineConfig {
                history_len: 7,
                warmup: 3,
                ..PipelineConfig::default()
            },
            MovingAverage::new(3),
            RapMinerLocalizer::default(),
        );
        for _ in 0..50 {
            p.observe(&frame(&s, [10.0, 10.0, 10.0, 10.0])).unwrap();
        }
        assert!(p.total_history.len() <= 7);
        assert!(p.history.values().all(|h| h.len() <= 7));
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let ok = PipelineConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases: [(PipelineConfig, &str); 6] = [
            (
                PipelineConfig {
                    history_len: 0,
                    ..ok
                },
                "history_len",
            ),
            (PipelineConfig { warmup: 0, ..ok }, "warmup"),
            (PipelineConfig { k: 0, ..ok }, "k"),
            (
                PipelineConfig {
                    alarm_threshold: f64::NAN,
                    ..ok
                },
                "alarm_threshold",
            ),
            (
                PipelineConfig {
                    alarm_threshold: -0.1,
                    ..ok
                },
                "alarm_threshold",
            ),
            (
                PipelineConfig {
                    leaf_threshold: f64::INFINITY,
                    ..ok
                },
                "leaf_threshold",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().expect_err(field);
            assert!(
                err.to_string().contains(field),
                "error {err} should name {field}"
            );
        }
    }

    #[test]
    fn try_new_returns_error_not_panic() {
        let err = LocalizationPipeline::try_new(
            PipelineConfig {
                warmup: 0,
                ..PipelineConfig::default()
            },
            MovingAverage::new(3),
            RapMinerLocalizer::default(),
        )
        .expect_err("zero warmup must be rejected");
        assert_eq!(err, ConfigError::ZeroField { field: "warmup" });
    }

    #[test]
    fn state_snapshot_restores_and_alarms_identically() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        let snap = p.state_snapshot();
        // Deterministic serialization: leaf keys sorted.
        let keys: Vec<_> = snap.history.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);

        let mut restored = LocalizationPipeline::try_restore(
            PipelineConfig {
                warmup: 5,
                ..PipelineConfig::default()
            },
            MovingAverage::new(5),
            RapMinerLocalizer::default(),
            &snap,
        )
        .expect("same config restores");
        assert_eq!(restored.steps_observed(), p.steps_observed());

        let anomalous = frame(&s, [5.0, 5.0, 100.0, 100.0]);
        let a = p.observe(&anomalous).unwrap().expect("alarm");
        let b = restored.observe(&anomalous).unwrap().expect("alarm");
        assert_eq!(a.step, b.step);
        assert_eq!(a.total_deviation.to_bits(), b.total_deviation.to_bits());
        assert_eq!(
            a.raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score.to_bits()))
                .collect::<Vec<_>>(),
            b.raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score.to_bits()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_restore_rejects_a_shrunk_history_window() {
        let s = schema();
        let mut p = pipeline();
        for _ in 0..20 {
            p.observe(&frame(&s, [1.0, 1.0, 1.0, 1.0])).unwrap();
        }
        let snap = p.state_snapshot();
        assert!(LocalizationPipeline::try_restore(
            PipelineConfig {
                history_len: 5,
                ..PipelineConfig::default()
            },
            MovingAverage::new(5),
            RapMinerLocalizer::default(),
            &snap,
        )
        .is_none());
    }

    #[test]
    fn pipeline_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LocalizationPipeline<MovingAverage, RapMinerLocalizer>>();
        assert_send::<LocalizationPipeline<MovingAverage, Box<dyn Localizer>>>();
    }

    #[test]
    #[should_panic(expected = "alarm_threshold")]
    fn bad_config_rejected() {
        LocalizationPipeline::new(
            PipelineConfig {
                alarm_threshold: 0.0,
                ..PipelineConfig::default()
            },
            MovingAverage::new(3),
            RapMinerLocalizer::default(),
        );
    }

    /// A localizer that burns wall-clock time at its preemption points,
    /// standing in for a pathological cuboid lattice.
    #[derive(Debug)]
    struct SlowLocalizer {
        delay: Duration,
    }

    impl Localizer for SlowLocalizer {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn localize(
            &self,
            frame: &LeafFrame,
            _k: usize,
        ) -> baselines::Result<Vec<baselines::ScoredCombination>> {
            std::thread::sleep(self.delay);
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
            // Poll like rapminer does between layers: sleep, then check.
            std::thread::sleep(self.delay);
            if cancel() {
                return Ok(baselines::Explained {
                    results: Vec::new(),
                    trace: None,
                });
            }
            self.localize_explained(frame, k)
        }
    }

    fn slow_pipeline(
        deadline: Option<Duration>,
        delay: Duration,
    ) -> LocalizationPipeline<MovingAverage, SlowLocalizer> {
        LocalizationPipeline::new(
            PipelineConfig {
                warmup: 5,
                localize_deadline: deadline,
                ..PipelineConfig::default()
            },
            MovingAverage::new(5),
            SlowLocalizer { delay },
        )
    }

    #[test]
    fn deadline_marks_slow_incident_and_keeps_pipeline_alive() {
        let s = schema();
        let mut p = slow_pipeline(Some(Duration::from_millis(5)), Duration::from_millis(30));
        for _ in 0..10 {
            assert!(p
                .observe(&frame(&s, [100.0, 100.0, 100.0, 100.0]))
                .unwrap()
                .is_none());
        }
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("alarm still fires under deadline");
        assert!(report.deadline_exceeded, "30ms localize vs 5ms budget");
        assert!(report.raps.is_empty(), "cancelled before any layer");
        assert!(report.summary().contains("(deadline exceeded)"));
        // the pipeline keeps observing normally afterwards
        assert!(p
            .observe(&frame(&s, [100.0, 100.0, 100.0, 100.0]))
            .unwrap()
            .is_some_and(|r| r.deadline_exceeded));
    }

    #[test]
    fn generous_deadline_is_not_marked() {
        let s = schema();
        let mut p = slow_pipeline(Some(Duration::from_secs(30)), Duration::from_millis(1));
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("alarm");
        assert!(!report.deadline_exceeded);
        assert!(!report.raps.is_empty());
    }

    #[test]
    fn deadline_marks_cancel_ignoring_localizer_by_elapsed_time() {
        // `localize` (no cancel support) via the default explained path:
        // the hook is never polled, but elapsed-vs-budget still marks it.
        struct Oblivious(Duration);
        impl Localizer for Oblivious {
            fn name(&self) -> &'static str {
                "oblivious"
            }
            fn localize(
                &self,
                frame: &LeafFrame,
                _k: usize,
            ) -> baselines::Result<Vec<baselines::ScoredCombination>> {
                std::thread::sleep(self.0);
                Ok(vec![baselines::ScoredCombination {
                    combination: mdkpi::Combination::root(frame.schema()),
                    score: 1.0,
                }])
            }
        }
        let s = schema();
        let mut p = LocalizationPipeline::new(
            PipelineConfig {
                warmup: 5,
                localize_deadline: Some(Duration::from_millis(5)),
                ..PipelineConfig::default()
            },
            MovingAverage::new(5),
            Oblivious(Duration::from_millis(30)),
        );
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        let report = p
            .observe(&frame(&s, [5.0, 5.0, 100.0, 100.0]))
            .unwrap()
            .expect("alarm");
        assert!(report.deadline_exceeded);
        // the run-to-completion localizer still returned its full answer
        assert_eq!(report.raps.len(), 1);
    }

    #[test]
    fn zero_deadline_is_rejected() {
        let err = PipelineConfig {
            localize_deadline: Some(Duration::ZERO),
            ..PipelineConfig::default()
        }
        .validate()
        .expect_err("zero deadline must be rejected");
        assert!(err.to_string().contains("localize_deadline"));
    }

    #[test]
    fn traffic_surge_also_alarms() {
        // negative deviation (actual above forecast) must trigger too
        let s = schema();
        let mut p = pipeline();
        for _ in 0..10 {
            p.observe(&frame(&s, [100.0, 100.0, 100.0, 100.0])).unwrap();
        }
        let report = p
            .observe(&frame(&s, [500.0, 500.0, 100.0, 100.0]))
            .unwrap()
            .expect("surge alarm");
        assert!(report.total_deviation < 0.0);
        assert_eq!(report.raps[0].combination.to_string(), "(a1, *)");
    }
}
