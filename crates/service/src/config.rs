//! Daemon configuration and its validation.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use pipeline::{ConfigError, PipelineConfig};

/// Everything `rapd` needs to come up: listeners, shard/queue sizing,
/// incident spooling, and the per-tenant pipeline tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Ingest/control NDJSON listener address (`host:port`; port 0 picks a
    /// free port — the bound address is reported by the server handle).
    pub listen: String,
    /// Prometheus `/metrics` HTTP listener address.
    pub metrics_listen: String,
    /// Number of shard worker threads; tenants hash onto shards.
    pub shards: usize,
    /// Bounded per-shard queue capacity (frames). When a queue is full the
    /// *oldest queued frame* is dropped and accounted, never the newest —
    /// under overload the pipeline keeps seeing fresh data.
    pub queue_capacity: usize,
    /// Directory for the JSONL incident spool (`incidents.jsonl`); `None`
    /// keeps incidents only in the in-memory ring.
    pub spool_dir: Option<PathBuf>,
    /// Incidents retained in memory for `incidents` control queries.
    pub ring_capacity: usize,
    /// Hard cap on one NDJSON line; longer lines are protocol errors.
    pub max_frame_bytes: usize,
    /// Moving-average window of the per-tenant forecaster.
    pub forecast_window: usize,
    /// Emit structured JSON log lines (the `obs` event stream) on stderr.
    /// When a process-wide event sink is already installed — e.g. by an
    /// embedding test harness — the existing sink is left in place.
    pub log_json: bool,
    /// Consecutive per-tenant pipeline failures (errors, panics, or
    /// localization deadline overruns) that open the tenant's circuit
    /// breaker; further frames are shed until a cooldown probe succeeds.
    /// `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds a tenant's frames before letting one
    /// probe frame through (half-open). Must be positive when the breaker
    /// is enabled.
    pub breaker_cooldown: Duration,
    /// Distinct unknown attribute values each tenant may accumulate before
    /// further drifted frames are quarantined whole instead of repaired by
    /// stripping the drifted rows. `0` quarantines on the first unknown
    /// value.
    pub schema_drift_limit: usize,
    /// Timestamped frames buffered per tenant for watermark reordering.
    /// When the buffer overflows, the oldest frame is emitted regardless
    /// of the watermark. Frames without a timestamp bypass the buffer.
    pub reorder_window: usize,
    /// How far behind the newest seen timestamp the watermark trails. A
    /// buffered frame that is not the exact successor of the tenant's last
    /// emitted frame (at its learned cadence) waits until the watermark,
    /// `max(ts) − max_lateness`, passes it; a successor is released at
    /// once. Frames behind the last emitted timestamp are quarantined as
    /// late.
    pub max_lateness: Duration,
    /// Run the streaming detector in front of localization: tenants ingest
    /// *raw* (unlabelled) frames and rapd self-triggers localization when
    /// the aggregate anomaly score crosses `detect_threshold`. When off,
    /// frames are expected pre-labelled (the classic mode).
    pub detect: bool,
    /// Aggregate σ-score a frame must reach to trigger localization in
    /// detect mode. Must be positive and finite.
    pub detect_threshold: f64,
    /// Seasonal period (in frames) of the detector's Holt-Winters
    /// forecaster; `0` selects the EWMA-only forecaster.
    pub seasonal_period: usize,
    /// Span/event lines each shard worker's flight recorder retains for
    /// post-mortem blackbox dumps (panic, deadline overrun, breaker open).
    /// `0` disables the recorder entirely — legal, not a misconfiguration.
    pub flight_recorder_capacity: usize,
    /// Journal admitted frames to a per-tenant write-ahead log under
    /// `<spool_dir>/wal/` before they enter the shard queues, so a crash
    /// loses nothing past admission. Only effective with a `spool_dir`.
    pub wal: bool,
    /// `fsync` every WAL append before the wire acknowledgment. Off, an
    /// acknowledged frame survives any process death (`kill -9`, OOM)
    /// but sits in the page cache until writeback — power loss or a
    /// kernel panic can still lose it. On, the guarantee extends to
    /// machine crashes, at a per-frame fsync cost.
    pub wal_fsync: bool,
    /// How often each tenant's detector state is checkpointed to
    /// `<spool_dir>/checkpoints/`. `Duration::ZERO` disables periodic
    /// checkpoints (graceful `shutdown` still writes one) — legal, not a
    /// misconfiguration. Only effective with a `spool_dir`.
    pub checkpoint_interval: Duration,
    /// Size at which the incident and per-tenant quarantine spools rotate
    /// (current file renamed to `.jsonl.1`, evicting the previous oldest
    /// segment). `0` disables rotation — legal, spools then grow
    /// unbounded.
    pub spool_max_bytes: u64,
    /// How long a graceful `shutdown` waits for the drain (flush barrier +
    /// final checkpoint) before giving up. On overrun the daemon still
    /// checkpoints whatever drained, logs the straggling queue depths, and
    /// reports the drain unclean so the serve loop can exit nonzero.
    pub shutdown_deadline: Duration,
    /// Streaming-pipeline tunables applied to every tenant.
    pub pipeline: PipelineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            listen: "127.0.0.1:4817".to_string(),
            metrics_listen: "127.0.0.1:9187".to_string(),
            shards: 4,
            queue_capacity: 1024,
            spool_dir: None,
            ring_capacity: 256,
            max_frame_bytes: 1 << 20,
            forecast_window: 10,
            log_json: false,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(10),
            schema_drift_limit: 8,
            reorder_window: 32,
            max_lateness: Duration::from_secs(2),
            detect: false,
            detect_threshold: 4.0,
            seasonal_period: 0,
            flight_recorder_capacity: obs::recorder::DEFAULT_FLIGHT_CAPACITY,
            wal: true,
            wal_fsync: false,
            checkpoint_interval: Duration::from_secs(30),
            spool_max_bytes: 64 << 20,
            shutdown_deadline: Duration::from_secs(60),
            pipeline: PipelineConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Check every invariant the daemon relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: a zero sizing knob or an
    /// invalid embedded [`PipelineConfig`].
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        for (field, v) in [
            ("shards", self.shards),
            ("queue_capacity", self.queue_capacity),
            ("ring_capacity", self.ring_capacity),
            ("max_frame_bytes", self.max_frame_bytes),
            ("forecast_window", self.forecast_window),
            // schema_drift_limit = 0 is legal (zero tolerance); the reorder
            // window must hold at least one frame to be a buffer at all.
            ("reorder_window", self.reorder_window),
        ] {
            if v == 0 {
                return Err(ServiceConfigError::ZeroField { field });
            }
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown.is_zero() {
            // A zero cooldown would make the breaker open and immediately
            // half-open — all bookkeeping, no shedding.
            return Err(ServiceConfigError::ZeroField {
                field: "breaker_cooldown",
            });
        }
        if self.detect && !(self.detect_threshold.is_finite() && self.detect_threshold > 0.0) {
            return Err(ServiceConfigError::ZeroField {
                field: "detect_threshold",
            });
        }
        if self.shutdown_deadline.is_zero() {
            // A zero deadline would turn every graceful shutdown into an
            // instant unclean exit; "wait forever" was the old bug, not a
            // knob worth keeping.
            return Err(ServiceConfigError::ZeroField {
                field: "shutdown_deadline",
            });
        }
        self.pipeline
            .validate()
            .map_err(ServiceConfigError::Pipeline)
    }
}

/// A [`ServiceConfig`] the daemon refuses to boot with.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ServiceConfigError {
    /// A sizing knob that must be positive was zero.
    ZeroField {
        /// The offending field name.
        field: &'static str,
    },
    /// The embedded pipeline config is invalid.
    Pipeline(ConfigError),
}

impl fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceConfigError::ZeroField { field } => write!(f, "{field} must be positive"),
            ServiceConfigError::Pipeline(e) => write!(f, "pipeline config: {e}"),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServiceConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for field in [
            "shards",
            "queue_capacity",
            "ring_capacity",
            "max_frame_bytes",
            "forecast_window",
            "reorder_window",
        ] {
            let mut cfg = ServiceConfig::default();
            match field {
                "shards" => cfg.shards = 0,
                "queue_capacity" => cfg.queue_capacity = 0,
                "ring_capacity" => cfg.ring_capacity = 0,
                "max_frame_bytes" => cfg.max_frame_bytes = 0,
                "reorder_window" => cfg.reorder_window = 0,
                _ => cfg.forecast_window = 0,
            }
            let err = cfg.validate().expect_err(field);
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn zero_drift_limit_and_zero_lateness_are_legal() {
        // zero tolerance is a policy, not a misconfiguration
        let cfg = ServiceConfig {
            schema_drift_limit: 0,
            max_lateness: Duration::ZERO,
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_flight_recorder_capacity_is_legal() {
        // 0 = flight recorder off, a deliberate operator choice
        let cfg = ServiceConfig {
            flight_recorder_capacity: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn durability_knobs_accept_their_off_positions() {
        // checkpoint_interval 0 = periodic checkpoints off,
        // spool_max_bytes 0 = rotation off, wal false = journaling off —
        // all deliberate operator choices, none a misconfiguration.
        let cfg = ServiceConfig {
            wal: false,
            checkpoint_interval: Duration::ZERO,
            spool_max_bytes: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_cooldown_rejected_only_when_breaker_enabled() {
        let mut cfg = ServiceConfig {
            breaker_cooldown: Duration::ZERO,
            ..ServiceConfig::default()
        };
        let err = cfg.validate().expect_err("enabled breaker, zero cooldown");
        assert!(err.to_string().contains("breaker_cooldown"));
        // threshold 0 disables the breaker; the cooldown then never applies
        cfg.breaker_threshold = 0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn detect_threshold_checked_only_in_detect_mode() {
        let mut cfg = ServiceConfig {
            detect: true,
            detect_threshold: 0.0,
            ..ServiceConfig::default()
        };
        let err = cfg.validate().expect_err("zero threshold in detect mode");
        assert!(err.to_string().contains("detect_threshold"));
        cfg.detect_threshold = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.detect_threshold = 3.5;
        assert_eq!(cfg.validate(), Ok(()));
        // classic mode never reads the threshold
        cfg.detect = false;
        cfg.detect_threshold = -1.0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_shutdown_deadline_is_rejected() {
        let cfg = ServiceConfig {
            shutdown_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        };
        let err = cfg.validate().expect_err("zero shutdown deadline");
        assert!(err.to_string().contains("shutdown_deadline"));
    }

    #[test]
    fn bad_pipeline_config_propagates() {
        let cfg = ServiceConfig {
            pipeline: PipelineConfig {
                k: 0,
                ..PipelineConfig::default()
            },
            ..ServiceConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ServiceConfigError::Pipeline(ConfigError::ZeroField {
                field: "k"
            }))
        ));
    }
}
