//! Lock-free daemon counters and their Prometheus text rendering.
//!
//! Everything here is atomics so the hot ingest path never takes a lock to
//! account for a frame. Rendering follows the Prometheus text exposition
//! format 0.0.4 (the format every Prometheus scraper accepts).
//!
//! Each exported field declares its family (type, name and help text) in
//! the row that defines it, and one renderer writes every family of
//! [`Metrics`] and [`RouterMetrics`]. Families computed from other state
//! (per-shard and per-worker series, build metadata, degraded latches)
//! are listed by hand in each `render_prometheus`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds for localization latency, in seconds.
const LATENCY_BOUNDS: [f64; 9] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Histogram bucket upper bounds for ingest-ack latency, in seconds.
/// Acking an observe is microseconds of work (parse, admission, WAL
/// append, queue push), so the grid starts three decades below the
/// localization bounds — a load generator reads p99s off these buckets.
const ACK_BOUNDS: [f64; 11] = [
    0.00001, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25,
];

// A family's Prometheus type, as written on its `# TYPE` line.
const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";
const HISTOGRAM: &str = "histogram";

/// One metric family: its name, type, help text and series.
struct Family<'a> {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    series: Vec<Series<'a>>,
}

/// One series: its label pairs and its reading.
type Series<'a> = (Vec<(&'static str, String)>, Reading<'a>);

/// What one series exports: a counter or gauge value, or a histogram
/// rendered as its `_bucket`/`_sum`/`_count` lines.
enum Reading<'a> {
    Value(u64),
    Histogram(&'a Histogram),
}

impl Reading<'_> {
    /// A counter's or gauge's value; a histogram's observation count.
    fn count(&self) -> u64 {
        match self {
            Reading::Value(v) => *v,
            Reading::Histogram(h) => h.count(),
        }
    }
}

/// A single metric: one series' worth of state.
trait Metric {
    fn reading(&self) -> Reading<'_>;
}

impl Metric for AtomicU64 {
    fn reading(&self) -> Reading<'_> {
        Reading::Value(self.load(Ordering::Relaxed))
    }
}

impl Metric for Histogram {
    fn reading(&self) -> Reading<'_> {
        Reading::Histogram(self)
    }
}

/// A field that exports the series of one family.
trait Export {
    fn series(&self) -> Vec<Series<'_>>;
}

impl<M: Metric> Export for M {
    fn series(&self) -> Vec<Series<'_>> {
        vec![(Vec::new(), self.reading())]
    }
}

/// One series per `(label value, reading)` pair, labelled `label`.
fn labelled<'a, V: ToString>(
    label: &'static str,
    pairs: impl IntoIterator<Item = (V, Reading<'a>)>,
) -> Vec<Series<'a>> {
    pairs
        .into_iter()
        .map(|(value, reading)| (vec![(label, value.to_string())], reading))
        .collect()
}

/// One series per slot of `slots`, labelled `label` with the slot index.
fn per_slot<'a, T>(
    label: &'static str,
    slots: &'a [T],
    read: fn(&T) -> &AtomicU64,
) -> Vec<Series<'a>> {
    labelled(
        label,
        slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, read(s).reading())),
    )
}

/// Declares a fixed label set: a struct with one metric per label value,
/// exported as one family whose `$label` values are the field names, so
/// its cardinality never grows with traffic, tenants, or severity.
macro_rules! label_set {
    ($(#[$doc:meta])* pub struct $name:ident($metric:ident) by $label:literal {
        $($(#[$field_doc:meta])* $field:ident,)+
    }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $metric,)+
        }

        impl $name {
            /// `(label, metric)` pairs in export order.
            pub fn named(&self) -> [(&'static str, &$metric); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), &self.$field)),+]
            }

            /// The metric for one label value; `None` for unknown labels
            /// (callers must not mint new label values).
            pub fn for_label(&self, label: &str) -> Option<&$metric> {
                self.named()
                    .into_iter()
                    .find(|(l, _)| *l == label)
                    .map(|(_, m)| m)
            }

            /// Sum across all label values (of observation counts, for
            /// histograms).
            pub fn total(&self) -> u64 {
                self.named().iter().map(|(_, m)| m.reading().count()).sum()
            }
        }

        impl Export for $name {
            fn series(&self) -> Vec<Series<'_>> {
                labelled($label, self.named().map(|(l, m)| (l, m.reading())))
            }
        }
    };
}

/// Declares a metrics struct whose exported fields each carry their
/// family's type, name and help text (`field: Type => KIND "name" "help"`),
/// with a `declared` method listing those families in field order. A field
/// without a family is rendered by hand.
macro_rules! families {
    ($(#[$doc:meta])* pub struct $name:ident {
        $($(#[$field_doc:meta])* $vis:vis $field:ident: $ty:ty
            $(=> $kind:ident $family:literal $help:literal)?,)+
    }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$field_doc])* $vis $field: $ty,)+
        }

        impl $name {
            /// The families declared on the fields, in field order.
            fn declared(&self) -> Vec<Family<'_>> {
                vec![$($(Family {
                    name: $family,
                    kind: $kind,
                    help: $help,
                    series: self.$field.series(),
                },)?)+]
            }
        }
    };
}

/// Per-shard counters.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Frames dropped by the drop-oldest backpressure policy.
    pub dropped: AtomicU64,
    /// Frames fully processed by the shard worker.
    pub processed: AtomicU64,
    /// Current queue depth (gauge, maintained by push/pop).
    pub depth: AtomicU64,
    /// Frames shed by an open per-tenant circuit breaker (skipped without
    /// touching the pipeline; disjoint from `processed` and `dropped`).
    pub shed: AtomicU64,
    /// Tenants currently behind an open breaker on this shard (gauge).
    pub breaker_open: AtomicU64,
}

/// A fixed-bucket latency histogram (seconds).
///
/// Storage is *non-cumulative*: each observation lands in exactly the
/// first bucket whose bound contains it (one `fetch_add`), and the
/// Prometheus-mandated cumulative counts are computed at render time.
/// This keeps `observe` O(1) atomics instead of O(buckets) and removes the
/// torn-read window where a concurrent scrape could see non-monotonic
/// cumulative buckets.
#[derive(Debug)]
pub struct Histogram {
    /// Bucket upper bounds in seconds, ascending.
    bounds: &'static [f64],
    /// `buckets[i]` counts observations in `(bound[i-1], bound[i]]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in microseconds so an atomic integer suffices.
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&LATENCY_BOUNDS)
    }
}

impl Histogram {
    /// A histogram over a custom ascending bound grid (seconds).
    pub fn with_bounds(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one observation. NaN, negative, and infinite values are the
    /// caller measuring wrong — they are rejected outright rather than
    /// silently clamped into the sum, so every count in the export is a
    /// real measurement.
    pub fn observe(&self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        // `count` (also the +Inf bucket) rises first; the bucket's Release
        // pairs with `cumulative`'s Acquire, so no scrape sees it exceed `count`
        self.count.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = self.bounds.iter().position(|bound| seconds <= *bound) {
            self.buckets[i].fetch_add(1, Ordering::Release);
        }
        self.sum_micros
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Cumulative per-bound counts (`le="bound[i]"` values), computed from
    /// the non-cumulative storage.
    fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Acquire);
                total
            })
            .collect()
    }
}

label_set! {
    /// Per-stage localization timing histograms, exported as one
    /// `rapd_stage_seconds` family with a `stage` label. The localization
    /// stages (`cp`, `search`, `detect`) observe exactly once per incident, so
    /// their counts equal `rapd_alarms_total` — a scrape-time consistency
    /// invariant dashboards can assert on. The `detector` stage is the
    /// *streaming* detector and observes once per frame in detect mode, so its
    /// count tracks `rapd_frames_processed_total` instead.
    ///
    /// The label set is fixed at these four values — labels never grow with
    /// traffic, tenants, or severity.
    pub struct StageHistograms(Histogram) by "stage" {
        /// Algorithm 1: CP computation + redundant attribute deletion.
        cp,
        /// Algorithm 2: top-down lattice search.
        search,
        /// Per-leaf forecasting and anomaly labelling (inside localization).
        detect,
        /// Streaming detector update + scoring, per frame (detect mode only).
        detector,
    }
}

label_set! {
    /// Self-triggered detections by severity tier — exported as one
    /// `rapd_detections_total` family with a fixed `severity` label set
    /// (`warn`/`high`/`critical`; cardinality never grows). Labels are
    /// those of `detect::Severity::as_str`.
    pub struct DetectionCounters(AtomicU64) by "severity" {
        /// Detections in the 3–4σ tier.
        warn,
        /// Detections in the 4–5σ tier.
        high,
        /// Detections beyond 5σ.
        critical,
    }
}

label_set! {
    /// Frames diverted to the quarantine spool, by reason — exported as one
    /// `rapd_frames_quarantined_total` family with a `reason` label.
    pub struct QuarantineCounters(AtomicU64) by "reason" {
        /// A row value was NaN or ±infinity (the whole frame is quarantined —
        /// partial admission would skew the tenant's history).
        non_finite,
        /// Unknown attribute values exceeded the tenant's drift allowance.
        schema_drift,
        /// The frame's timestamp was behind the reorder watermark.
        late,
        /// A frame with the same (tenant, timestamp) was already accepted.
        replay,
    }
}

label_set! {
    /// Flight-recorder blackbox dumps written, by trigger — exported as one
    /// `rapd_blackbox_dumps_total` family with a fixed `trigger` label set
    /// (`panic`/`deadline`/`breaker_open`; cardinality never grows).
    pub struct BlackboxCounters(AtomicU64) by "trigger" {
        /// A tenant pipeline panicked inside a shard worker.
        panic,
        /// A localization hit the configured deadline.
        deadline,
        /// A tenant circuit breaker opened.
        breaker_open,
    }
}

label_set! {
    /// Leaf rows repaired in place during admission, by reason — exported as
    /// one `rapd_leaves_repaired_total` family with a `reason` label.
    pub struct RepairCounters(AtomicU64) by "reason" {
        /// Extra occurrences of a duplicated leaf collapsed keep-last.
        duplicate,
        /// Negative values clamped to zero.
        negative,
        /// Rows with an already-registered drifted attribute value stripped.
        schema_drift,
    }
}

label_set! {
    /// Spool segments rotated out by the size cap, by spool — exported as one
    /// `rapd_spool_rotations_total` family with a fixed `spool` label set
    /// (`incidents`/`quarantine`; cardinality never grows).
    pub struct SpoolRotationCounters(AtomicU64) by "spool" {
        /// Incident spool rotations (`incidents.jsonl` → `.jsonl.1`).
        incidents,
        /// Per-tenant quarantine spool rotations.
        quarantine,
    }
}

families! {
    /// All counters the daemon exports. Build it with [`Metrics::new`],
    /// which sizes the per-shard counters and gives `ingest_ack` its
    /// microsecond bucket grid.
    pub struct Metrics {
        /// Frames accepted off the wire (before queueing).
        pub frames_ingested: AtomicU64 => COUNTER "rapd_frames_ingested_total"
            "Frames accepted off the wire.",
        /// Alarms fired (incidents produced) across all tenants.
        pub alarms: AtomicU64 => COUNTER "rapd_alarms_total"
            "Anomaly alarms fired (incidents produced).",
        /// Request lines rejected by the protocol parser.
        pub protocol_errors: AtomicU64 => COUNTER "rapd_protocol_errors_total"
            "Request lines rejected by the protocol parser.",
        /// Pipeline-level failures inside shard workers (localizer errors…).
        pub pipeline_errors: AtomicU64 => COUNTER "rapd_pipeline_errors_total"
            "Localization failures inside shard workers.",
        /// Tenant pipelines quarantined (dropped and rebuilt) after a panic.
        pub pipeline_restarts_panic: AtomicU64,
        /// Shard worker threads respawned by the supervisor after dying.
        pub worker_restarts: AtomicU64 => COUNTER "rapd_worker_restarts_total"
            "Shard worker threads respawned by the supervisor.",
        /// Incidents whose localization hit the configured deadline.
        pub deadline_exceeded: AtomicU64 => COUNTER "rapd_deadline_exceeded_total"
            "Incidents whose localization hit the configured deadline.",
        /// Intact spool lines carried over at startup (CRC verified).
        pub spool_recovered_lines: AtomicU64 => GAUGE "rapd_spool_recovered_lines"
            "Intact spool lines carried over at startup.",
        /// Pre-CRC spool lines accepted read-only at startup.
        pub spool_legacy_lines: AtomicU64 => GAUGE "rapd_spool_legacy_lines"
            "Pre-CRC spool lines accepted read-only at startup.",
        /// Torn/corrupt spool bytes truncated at startup.
        pub spool_truncated_bytes: AtomicU64 => GAUGE "rapd_spool_truncated_bytes"
            "Torn or corrupt spool bytes truncated at startup.",
        /// 1 while the sink runs ring-only after a spool write error (gauge).
        pub spool_degraded: AtomicU64 => GAUGE "rapd_spool_degraded"
            "1 while the incident sink runs ring-only after a spool write error.",
        /// Spool write failures absorbed by degrading to ring-only mode.
        pub spool_write_errors: AtomicU64 => COUNTER "rapd_spool_write_errors_total"
            "Spool write failures absorbed by degrading to ring-only mode.",
        /// Frames diverted to quarantine, by reason.
        pub frames_quarantined: QuarantineCounters => COUNTER "rapd_frames_quarantined_total"
            "Frames diverted to the quarantine spool, by reason.",
        /// Leaf rows repaired in place at admission, by reason.
        pub leaves_repaired: RepairCounters => COUNTER "rapd_leaves_repaired_total"
            "Leaf rows repaired in place at admission, by reason.",
        /// Quarantine spool write failures absorbed by degrading to ring-only.
        pub quarantine_write_errors: AtomicU64 => COUNTER "rapd_quarantine_write_errors_total"
            "Quarantine spool write failures absorbed by degrading to ring-only mode.",
        /// 1 while the quarantine spool runs ring-only after a write error
        /// (gauge).
        pub quarantine_degraded: AtomicU64 => GAUGE "rapd_quarantine_degraded"
            "1 while the quarantine spool runs ring-only after a write error.",
        /// Latency of observe calls that triggered localization.
        pub localization: Histogram => HISTOGRAM "rapd_localization_seconds"
            "Latency of observe calls that localized an incident.",
        /// Wire-ack latency of every observe: request dispatch to reply
        /// construction (parse-to-ack, the ingest hot path a load generator
        /// measures from outside).
        pub ingest_ack: Histogram => HISTOGRAM "rapd_ingest_ack_seconds"
            "Observe dispatch-to-ack latency (admission, WAL append, queue push).",
        /// Ingest→incident latency: from the frame's correlation-ID mint at
        /// the observe verb to its incident record hitting the sink, computed
        /// from the [`obs::FrameId`] ingest timestamp.
        pub e2e: Histogram => HISTOGRAM "rapd_e2e_seconds"
            "Ingest-to-incident latency measured from the frame's correlation ID.",
        /// How long each timestamped frame waited in its tenant's reorder
        /// buffer: from the shard worker's offer to its release, whether by
        /// the successor rule, the watermark, a window overflow or a drain.
        pub reorder_hold: Histogram => HISTOGRAM "rapd_reorder_hold_seconds"
            "Time each timestamped frame waited in its tenant's reorder buffer.",
        /// Flight-recorder blackbox dumps written, by trigger.
        pub blackbox_dumps: BlackboxCounters => COUNTER "rapd_blackbox_dumps_total"
            "Flight-recorder blackbox dumps written, by trigger.",
        /// Per-stage timings of each triggered localization.
        pub stages: StageHistograms => HISTOGRAM "rapd_stage_seconds"
            "Per-stage timing of each triggered localization.",
        /// Self-triggered detections, by severity tier (detect mode).
        pub detections: DetectionCounters => COUNTER "rapd_detections_total"
            "Self-triggered detections, by severity tier.",
        /// Admitted frames journaled to the write-ahead log.
        pub wal_appends: AtomicU64 => COUNTER "rapd_wal_appends_total"
            "Admitted frames journaled to the write-ahead log.",
        /// WAL append failures absorbed by degrading to journal-less mode.
        pub wal_append_errors: AtomicU64 => COUNTER "rapd_wal_append_errors_total"
            "WAL append failures absorbed by degrading to journal-less mode.",
        /// WAL segment compactions after checkpoint acknowledgment.
        pub wal_compactions: AtomicU64 => COUNTER "rapd_wal_compactions_total"
            "WAL segment compactions after checkpoint acknowledgment.",
        /// Frames replayed from the WAL at startup (`rapd_replayed_frames_total`).
        pub wal_replayed_frames: AtomicU64 => COUNTER "rapd_replayed_frames_total"
            "Frames replayed from the write-ahead log at startup.",
        /// Journaled frames not yet acknowledged by a checkpoint (gauge).
        pub wal_depth: AtomicU64 => GAUGE "rapd_wal_depth"
            "Journaled frames not yet acknowledged by a checkpoint.",
        /// Tenant checkpoints written (periodic or drain).
        pub checkpoint_writes: AtomicU64 => COUNTER "rapd_checkpoint_writes_total"
            "Tenant checkpoints written (periodic or drain).",
        /// Checkpoint write failures (the previous snapshot stays in place).
        pub checkpoint_errors: AtomicU64 => COUNTER "rapd_checkpoint_errors_total"
            "Checkpoint write failures; the previous snapshot stays in place.",
        /// Tenant states restored from a checkpoint at startup or respawn.
        pub checkpoint_restores: AtomicU64 => COUNTER "rapd_checkpoint_restores_total"
            "Tenant states restored from a checkpoint.",
        /// Checkpoint snapshots rejected as corrupt or incompatible at load.
        pub checkpoint_corrupt: AtomicU64 => COUNTER "rapd_checkpoint_corrupt_total"
            "Checkpoint snapshots rejected as corrupt or incompatible.",
        /// Unix millis of the most recent successful checkpoint write (gauge).
        pub checkpoint_last_unix_ms: AtomicU64 => GAUGE "rapd_checkpoint_last_unix_ms"
            "Unix millis of the most recent successful checkpoint write.",
        /// Detectors cold-started because recovery found no usable checkpoint
        /// (`rapd_detector_rewarms_total`).
        pub detector_rewarms: AtomicU64 => COUNTER "rapd_detector_rewarms_total"
            "Detectors cold-started because recovery found no usable checkpoint.",
        /// Replayed incidents suppressed because the frame token was already
        /// in the incident spool (exactly-once incident delivery).
        pub incidents_deduped: AtomicU64 => COUNTER "rapd_incidents_deduped_total"
            "Replayed incidents suppressed by frame-token dedup.",
        /// Spool segments rotated out by the size cap, by spool.
        pub spool_rotations: SpoolRotationCounters => COUNTER "rapd_spool_rotations_total"
            "Spool segments rotated out by the size cap, by spool.",
        /// 1 while the WAL runs journal-less after an append error (gauge).
        pub wal_degraded: AtomicU64,
        shards: Vec<ShardMetrics>,
    }
}

impl Metrics {
    /// Create the counter set for `shards` shard workers.
    pub fn new(shards: usize) -> Self {
        Metrics {
            ingest_ack: Histogram::with_bounds(&ACK_BOUNDS),
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
            ..Metrics::default()
        }
    }
    /// The counters of one shard.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total frames dropped across all shards.
    pub fn total_dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames processed across all shards.
    pub fn total_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.processed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames shed by open circuit breakers across all shards.
    pub fn total_shed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.shed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames quarantined across all reasons.
    pub fn total_quarantined(&self) -> u64 {
        self.frames_quarantined.total()
    }

    /// The degraded-latch gauges by subsystem, in export order — the
    /// single source for the `rapd_degraded{subsystem=...}` family and
    /// the `health` verb's degraded listing. A value of 1 means the
    /// subsystem latched into its lossy fallback mode (ring-only spool,
    /// journal-less WAL) after a write error.
    pub fn degraded_subsystems(&self) -> [(&'static str, u64); 3] {
        [
            (
                "incident_spool",
                self.spool_degraded.load(Ordering::Relaxed),
            ),
            (
                "quarantine_spool",
                self.quarantine_degraded.load(Ordering::Relaxed),
            ),
            ("wal", self.wal_degraded.load(Ordering::Relaxed)),
        ]
    }

    /// Tenants currently behind an open breaker, across all shards.
    pub fn total_breaker_open(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.breaker_open.load(Ordering::Relaxed))
            .sum()
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let computed = [
            Family {
                name: "rapd_build_info",
                kind: GAUGE,
                help: "Build metadata; the value is always 1.",
                series: vec![(
                    vec![
                        ("version", build_version().to_string()),
                        ("commit", build_commit().to_string()),
                    ],
                    Reading::Value(1),
                )],
            },
            Family {
                name: "rapd_pipeline_restarts_total",
                kind: COUNTER,
                help: "Tenant pipelines quarantined and rebuilt, by reason.",
                series: labelled(
                    "reason",
                    [("panic", self.pipeline_restarts_panic.reading())],
                ),
            },
            Family {
                name: "rapd_breaker_open_tenants",
                kind: GAUGE,
                help: "Tenants currently behind an open circuit breaker.",
                series: vec![(Vec::new(), Reading::Value(self.total_breaker_open()))],
            },
            Family {
                name: "rapd_frames_dropped_total",
                kind: COUNTER,
                help: "Frames dropped by backpressure, per shard.",
                series: per_slot("shard", &self.shards, |s| &s.dropped),
            },
            Family {
                name: "rapd_frames_processed_total",
                kind: COUNTER,
                help: "Frames fully processed, per shard.",
                series: per_slot("shard", &self.shards, |s| &s.processed),
            },
            Family {
                name: "rapd_frames_shed_total",
                kind: COUNTER,
                help: "Frames shed by open circuit breakers, per shard.",
                series: per_slot("shard", &self.shards, |s| &s.shed),
            },
            Family {
                name: "rapd_queue_depth",
                kind: GAUGE,
                help: "Frames currently queued, per shard.",
                series: per_slot("shard", &self.shards, |s| &s.depth),
            },
            Family {
                name: "rapd_degraded",
                kind: GAUGE,
                help: "1 while a subsystem runs in its lossy fallback mode after a write error.",
                series: labelled(
                    "subsystem",
                    self.degraded_subsystems()
                        .map(|(subsystem, v)| (subsystem, Reading::Value(v))),
                ),
            },
        ];
        render(computed.into_iter().chain(self.declared()))
    }
}

families! {
    /// Counters the fleet router exports on its own `/metrics` endpoint.
    /// Separate from [`Metrics`]: the router process runs no shard pool, no
    /// sinks, and no WAL — its vocabulary is forwarding, parking, shedding,
    /// worker liveness, and handoffs.
    pub struct RouterMetrics {
        /// Observe/schema lines forwarded to a worker and acknowledged.
        pub frames_forwarded: AtomicU64 => COUNTER "rapd_router_frames_forwarded_total"
            "Lines forwarded to a worker and acknowledged.",
        /// Frames currently parked waiting for a worker (gauge).
        pub parked_frames: AtomicU64 => GAUGE "rapd_router_parked_frames"
            "Frames currently parked waiting for a worker.",
        /// Frames ever parked while their worker was down or unreachable.
        pub parked_total: AtomicU64 => COUNTER "rapd_router_parked_total"
            "Frames ever parked while their worker was down.",
        /// Frames shed because a down worker's park buffer was full. Each one
        /// was refused on the wire (an error reply, never a false ack).
        pub shed_total: AtomicU64 => COUNTER "rapd_router_shed_total"
            "Frames refused because a down worker's park buffer was full.",
        /// Completed live shard handoffs.
        pub handoffs: AtomicU64 => COUNTER "rapd_router_handoffs_total"
            "Completed live shard handoffs.",
        /// WAL-suffix frames replayed onto the target during handoffs.
        pub handoff_replayed: AtomicU64 => COUNTER "rapd_router_handoff_replayed_total"
            "WAL-suffix frames replayed onto the target during handoffs.",
        /// Request lines the router itself rejected.
        pub protocol_errors: AtomicU64 => COUNTER "rapd_router_protocol_errors_total"
            "Request lines the router rejected.",
        /// Per-worker liveness (1 = connected and announced) and respawn
        /// counts, indexed by worker slot.
        workers: Vec<RouterWorkerMetrics>,
    }
}

/// Per-worker-slot router counters.
#[derive(Debug, Default)]
pub struct RouterWorkerMetrics {
    /// 1 while the worker is up and announced (gauge).
    pub up: AtomicU64,
    /// Times the supervisor respawned this slot.
    pub respawns: AtomicU64,
}

impl RouterMetrics {
    /// Create the counter set for `workers` supervised worker slots.
    pub fn new(workers: usize) -> Self {
        RouterMetrics {
            workers: (0..workers)
                .map(|_| RouterWorkerMetrics::default())
                .collect(),
            ..RouterMetrics::default()
        }
    }

    /// The counters of one worker slot.
    pub fn worker(&self, i: usize) -> &RouterWorkerMetrics {
        &self.workers[i]
    }

    /// Render the router's exposition (Prometheus text format 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let computed = [
            Family {
                name: "rapd_router_worker_up",
                kind: GAUGE,
                help: "1 while the worker is up and announced.",
                series: per_slot("worker", &self.workers, |w| &w.up),
            },
            Family {
                name: "rapd_router_worker_respawns_total",
                kind: COUNTER,
                help: "Times the supervisor respawned the worker slot.",
                series: per_slot("worker", &self.workers, |w| &w.respawns),
            },
        ];
        render(self.declared().into_iter().chain(computed))
    }
}

/// Render families in the Prometheus text exposition format: each family's
/// `# HELP` and `# TYPE` lines, then its series.
fn render<'a>(families: impl IntoIterator<Item = Family<'a>>) -> String {
    let mut out = String::new();
    for family in families {
        let (name, kind, help) = (family.name, family.kind, family.help);
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, reading) in family.series {
            match reading {
                Reading::Value(v) => {
                    out.push_str(&format!("{name}{} {v}\n", label_set(&labels, None)));
                }
                Reading::Histogram(h) => render_histogram(&mut out, name, &labels, h),
            }
        }
    }
    out
}

/// The crate version exported in `rapd_build_info` and the `stats` and
/// `debug` control replies.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The source commit baked in at compile time via the `RAPD_BUILD_COMMIT`
/// environment variable; `"unknown"` for builds outside CI.
pub fn build_commit() -> &'static str {
    option_env!("RAPD_BUILD_COMMIT").unwrap_or("unknown")
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{a="x",b="y",le="bound"}` with escaped values.
fn label_set(labels: &[(&str, impl AsRef<str>)], le: Option<&str>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v.as_ref())))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render one histogram's `_bucket`/`_sum`/`_count` lines (cumulative
/// buckets computed here, per the exposition format).
fn render_histogram(out: &mut String, name: &str, labels: &[(&str, String)], h: &Histogram) {
    let cumulative = h.cumulative();
    for (bound, cum) in h.bounds.iter().zip(&cumulative) {
        let bound = bound.to_string();
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_set(labels, Some(&bound))
        ));
    }
    let count = h.count();
    out.push_str(&format!(
        "{name}_bucket{} {count}\n",
        label_set(labels, Some("+Inf"))
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        label_set(labels, None),
        h.sum_seconds()
    ));
    out.push_str(&format!(
        "{name}_count{} {count}\n",
        label_set(labels, None)
    ));
}

/// A minimal Prometheus text-format 0.0.4 linter, shared by this crate's
/// unit tests, the integration tests, and CI's live-scrape gate, so every
/// rendered exposition goes through the same line validator.
pub mod lint {
    /// Validate a full exposition: every non-comment line must be
    /// `name[{label="value",...}] value` with a parseable numeric value,
    /// properly quoted label values, and legal metric/label names.
    ///
    /// # Errors
    ///
    /// The first malformed line, with what is wrong with it.
    pub fn validate_exposition(text: &str) -> Result<(), String> {
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            if line.starts_with('#') {
                return Err(format!("unknown comment form: {line}"));
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line needs a value: {line}"))?;
            if value.parse::<f64>().is_err() {
                return Err(format!("unparseable value in: {line}"));
            }
            let name = match series.split_once('{') {
                None => series,
                Some((name, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("unterminated label set: {line}"))?;
                    for pair in split_label_pairs(body) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("label needs = in: {line}"))?;
                        if !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                            return Err(format!("bad label name {k} in: {line}"));
                        }
                        if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                            return Err(format!("unquoted label value {v} in: {line}"));
                        }
                    }
                    name
                }
            };
            if !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            {
                return Err(format!("bad metric name in: {line}"));
            }
        }
        Ok(())
    }

    /// Split `a="x",b="y"` on commas outside quotes (escaped quotes count
    /// as inside).
    pub fn split_label_pairs(body: &str) -> Vec<String> {
        let mut pairs = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                cur.push(c);
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => {
                    cur.push(c);
                    escaped = true;
                }
                '"' => {
                    cur.push(c);
                    in_quotes = !in_quotes;
                }
                ',' if !in_quotes => pairs.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            pairs.push(cur);
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn validate_exposition(text: &str) {
        lint::validate_exposition(text).expect("exposition must lint clean");
    }

    #[test]
    fn observe_touches_exactly_one_bucket() {
        let h = Histogram::default();
        h.observe(0.0001); // -> bucket[0] (le 0.0005)
        h.observe(0.01); // -> bucket[3] (le 0.01, boundary is inclusive)
        h.observe(10.0); // beyond the last bound: only count/+Inf
        assert_eq!(h.count(), 3);
        let raw: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(raw.iter().sum::<u64>(), 2, "one fetch_add per observation");
        assert_eq!(raw[0], 1);
        assert_eq!(raw[3], 1);
        // cumulative view is what the scraper sees
        let cum = h.cumulative();
        assert_eq!(cum[0], 1);
        assert_eq!(cum[3], 2);
        assert_eq!(*cum.last().unwrap(), 2, "+Inf adds the out-of-range one");
    }

    #[test]
    fn non_finite_and_negative_observations_are_rejected() {
        let h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(-1.0);
        assert_eq!(h.count(), 0, "junk must not inflate the count");
        assert_eq!(h.sum_seconds(), 0.0, "junk must not pollute the sum");
        h.observe(0.25);
        assert_eq!(h.count(), 1);
        assert!((h.sum_seconds() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn buckets_stay_monotonic_under_concurrent_observe() {
        let h = Arc::new(Histogram::default());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        // spread across all buckets and past the last bound
                        let v = (f64::from(i % 11)) * 0.6e-3 + f64::from(t) * 1e-5;
                        h.observe(v);
                    }
                })
            })
            .collect();
        // scrape concurrently with the writers
        for _ in 0..200 {
            let cum = h.cumulative();
            for w in cum.windows(2) {
                assert!(w[0] <= w[1], "non-monotonic cumulative buckets: {cum:?}");
            }
            assert!(
                *cum.last().unwrap() <= h.count(),
                "+Inf below the last finite bound"
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        // every value is <= ~6ms, well under the last bound, so the final
        // cumulative bucket must account for all of them
        assert_eq!(*h.cumulative().last().unwrap(), 8000);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(
            escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd",
            "quote, backslash, and newline must be escaped"
        );
        let rendered = label_set(&[("tenant", "we\"ird\\\n")], Some("0.5"));
        assert_eq!(rendered, "{tenant=\"we\\\"ird\\\\\\n\",le=\"0.5\"}");
        assert!(!rendered.contains('\n'), "newlines would break the format");
    }

    #[test]
    fn every_family_round_trips_through_the_line_validator() {
        let m = Metrics::new(2);
        m.frames_ingested.fetch_add(5, Ordering::Relaxed);
        m.shard(1).dropped.fetch_add(3, Ordering::Relaxed);
        m.localization.observe(0.002);
        m.stages.cp.observe(0.0001);
        m.stages.search.observe(0.003);
        m.stages.detect.observe(0.7);
        m.stages.detector.observe(0.00002);
        m.detections.high.fetch_add(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_frames_ingested_total 5"));
        assert!(text.contains("rapd_frames_dropped_total{shard=\"1\"} 3"));
        assert!(text.contains("rapd_frames_dropped_total{shard=\"0\"} 0"));
        assert!(text.contains("rapd_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("rapd_localization_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("rapd_localization_seconds_count 1"));
        // stage family: one histogram per stage label, counts independent
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"cp\",le=\"0.0005\"} 1"));
        assert!(text.contains("rapd_stage_seconds_count{stage=\"search\"} 1"));
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"detect\",le=\"0.5\"} 0"));
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"detect\",le=\"1\"} 1"));
        assert!(text.contains("rapd_stage_seconds_count{stage=\"detector\"} 1"));
        assert!(text.contains("rapd_detections_total{severity=\"warn\"} 0"));
        assert!(text.contains("rapd_detections_total{severity=\"high\"} 2"));
        assert!(text.contains("rapd_detections_total{severity=\"critical\"} 0"));
        // each TYPE comment appears exactly once per family
        assert_eq!(
            text.matches("# TYPE rapd_stage_seconds histogram").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE rapd_detections_total counter").count(),
            1
        );
    }

    #[test]
    fn stage_and_severity_label_sets_are_fixed() {
        // Cardinality gate: the rendered label sets must be exactly the
        // documented values, regardless of what was observed — labels must
        // never grow with traffic, tenants, or new severities.
        let m = Metrics::new(1);
        m.stages.detector.observe(0.001);
        m.detections.critical.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        let stages: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_stage_seconds_count{stage=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            stages.into_iter().collect::<Vec<_>>(),
            ["cp", "detect", "detector", "search"],
            "stage label set must stay fixed"
        );
        let severities: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_detections_total{severity=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            severities.into_iter().collect::<Vec<_>>(),
            ["critical", "high", "warn"],
            "severity label set must stay fixed"
        );
        // every detect::Severity maps onto an exported counter
        for severity in detect::Severity::all() {
            assert!(
                m.detections.for_label(severity.as_str()).is_some(),
                "severity {severity} has no counter"
            );
        }
        assert!(m.detections.for_label("page-me-harder").is_none());
        assert_eq!(m.detections.total(), 1);
    }

    #[test]
    fn rendered_cumulative_buckets_are_monotonic() {
        let m = Metrics::new(1);
        for v in [0.0001, 0.0008, 0.02, 0.2, 3.0, 100.0] {
            m.localization.observe(v);
        }
        let text = m.render_prometheus();
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("rapd_localization_seconds_bucket"))
        {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "bucket decreased: {line}");
            last = v;
        }
        assert_eq!(last, 6, "+Inf bucket must equal the count");
    }

    #[test]
    fn observability_families_render_and_validate() {
        let m = Metrics::new(1);
        m.e2e.observe(0.003);
        m.blackbox_dumps.panic.fetch_add(2, Ordering::Relaxed);
        m.blackbox_dumps.deadline.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains(&format!(
            "rapd_build_info{{version=\"{}\",commit=\"{}\"}} 1",
            build_version(),
            build_commit()
        )));
        assert!(text.contains("rapd_e2e_seconds_count 1"));
        assert!(text.contains("rapd_e2e_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"panic\"} 2"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"deadline\"} 1"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"breaker_open\"} 0"));
        // trigger label set is fixed at the three documented values
        let triggers: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_blackbox_dumps_total{trigger=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            triggers.into_iter().collect::<Vec<_>>(),
            ["breaker_open", "deadline", "panic"],
        );
        assert!(m.blackbox_dumps.for_label("panic").is_some());
        assert!(m.blackbox_dumps.for_label("oom").is_none());
        assert_eq!(m.blackbox_dumps.total(), 3);
    }

    #[test]
    fn durability_families_render_and_validate() {
        let m = Metrics::new(1);
        m.wal_appends.fetch_add(12, Ordering::Relaxed);
        m.wal_append_errors.fetch_add(1, Ordering::Relaxed);
        m.wal_compactions.fetch_add(2, Ordering::Relaxed);
        m.wal_replayed_frames.fetch_add(7, Ordering::Relaxed);
        m.wal_depth.store(5, Ordering::Relaxed);
        m.checkpoint_writes.fetch_add(3, Ordering::Relaxed);
        m.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
        m.checkpoint_restores.fetch_add(2, Ordering::Relaxed);
        m.checkpoint_corrupt.fetch_add(1, Ordering::Relaxed);
        m.checkpoint_last_unix_ms
            .store(1754700000123, Ordering::Relaxed);
        m.detector_rewarms.fetch_add(1, Ordering::Relaxed);
        m.incidents_deduped.fetch_add(4, Ordering::Relaxed);
        m.spool_rotations.incidents.fetch_add(2, Ordering::Relaxed);
        m.spool_rotations.quarantine.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_wal_appends_total 12"));
        assert!(text.contains("rapd_wal_append_errors_total 1"));
        assert!(text.contains("rapd_wal_compactions_total 2"));
        assert!(text.contains("rapd_replayed_frames_total 7"));
        assert!(text.contains("rapd_wal_depth 5"));
        assert!(text.contains("rapd_checkpoint_writes_total 3"));
        assert!(text.contains("rapd_checkpoint_errors_total 1"));
        assert!(text.contains("rapd_checkpoint_restores_total 2"));
        assert!(text.contains("rapd_checkpoint_corrupt_total 1"));
        assert!(text.contains("rapd_checkpoint_last_unix_ms 1754700000123"));
        assert!(text.contains("rapd_detector_rewarms_total 1"));
        assert!(text.contains("rapd_incidents_deduped_total 4"));
        assert!(text.contains("rapd_spool_rotations_total{spool=\"incidents\"} 2"));
        assert!(text.contains("rapd_spool_rotations_total{spool=\"quarantine\"} 1"));
        assert_eq!(m.spool_rotations.total(), 3);
        // the spool label set is fixed at the two documented values
        let spools: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_spool_rotations_total{spool=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            spools.into_iter().collect::<Vec<_>>(),
            ["incidents", "quarantine"],
        );
    }

    #[test]
    fn degraded_family_tracks_every_latch() {
        let m = Metrics::new(1);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_degraded{subsystem=\"incident_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"quarantine_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"wal\"} 0"));
        m.spool_degraded.store(1, Ordering::Relaxed);
        m.wal_degraded.store(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        assert!(text.contains("rapd_degraded{subsystem=\"incident_spool\"} 1"));
        assert!(text.contains("rapd_degraded{subsystem=\"quarantine_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"wal\"} 1"));
        assert_eq!(
            m.degraded_subsystems()
                .iter()
                .filter(|(_, v)| *v == 1)
                .count(),
            2
        );
    }

    #[test]
    fn router_families_render_and_validate() {
        let m = RouterMetrics::new(3);
        m.frames_forwarded.fetch_add(42, Ordering::Relaxed);
        m.parked_frames.store(2, Ordering::Relaxed);
        m.parked_total.fetch_add(5, Ordering::Relaxed);
        m.shed_total.fetch_add(1, Ordering::Relaxed);
        m.handoffs.fetch_add(1, Ordering::Relaxed);
        m.handoff_replayed.fetch_add(3, Ordering::Relaxed);
        m.worker(0).up.store(1, Ordering::Relaxed);
        m.worker(2).respawns.fetch_add(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_router_frames_forwarded_total 42"));
        assert!(text.contains("rapd_router_parked_frames 2"));
        assert!(text.contains("rapd_router_parked_total 5"));
        assert!(text.contains("rapd_router_shed_total 1"));
        assert!(text.contains("rapd_router_handoffs_total 1"));
        assert!(text.contains("rapd_router_handoff_replayed_total 3"));
        assert!(text.contains("rapd_router_worker_up{worker=\"0\"} 1"));
        assert!(text.contains("rapd_router_worker_up{worker=\"1\"} 0"));
        assert!(text.contains("rapd_router_worker_respawns_total{worker=\"2\"} 2"));
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        for bad in [
            "# COMMENT nope",
            "no_value_here",
            "name{unterminated=\"x\" 1",
            "name{k=unquoted} 1",
            "name{bad-label=\"x\"} 1",
            "name value_not_numeric",
            "bad name{k=\"v\"} x 1",
        ] {
            assert!(lint::validate_exposition(bad).is_err(), "accepted: {bad}");
        }
        assert!(lint::validate_exposition("ok_metric{a=\"b\",c=\"d\"} 4.5").is_ok());
    }

    #[test]
    fn totals_aggregate_across_shards() {
        let m = Metrics::new(3);
        m.shard(0).dropped.fetch_add(1, Ordering::Relaxed);
        m.shard(2).dropped.fetch_add(2, Ordering::Relaxed);
        m.shard(1).processed.fetch_add(7, Ordering::Relaxed);
        m.shard(0).shed.fetch_add(4, Ordering::Relaxed);
        m.shard(1).breaker_open.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.total_dropped(), 3);
        assert_eq!(m.total_processed(), 7);
        assert_eq!(m.total_shed(), 4);
        assert_eq!(m.total_breaker_open(), 1);
    }

    #[test]
    fn fault_tolerance_families_render_and_validate() {
        let m = Metrics::new(2);
        m.pipeline_restarts_panic.fetch_add(2, Ordering::Relaxed);
        m.worker_restarts.fetch_add(1, Ordering::Relaxed);
        m.deadline_exceeded.fetch_add(3, Ordering::Relaxed);
        m.spool_recovered_lines.store(40, Ordering::Relaxed);
        m.spool_legacy_lines.store(4, Ordering::Relaxed);
        m.spool_truncated_bytes.store(17, Ordering::Relaxed);
        m.spool_degraded.store(1, Ordering::Relaxed);
        m.spool_write_errors.fetch_add(1, Ordering::Relaxed);
        m.shard(1).shed.fetch_add(9, Ordering::Relaxed);
        m.shard(0).breaker_open.store(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_pipeline_restarts_total{reason=\"panic\"} 2"));
        assert!(text.contains("rapd_worker_restarts_total 1"));
        assert!(text.contains("rapd_deadline_exceeded_total 3"));
        assert!(text.contains("rapd_spool_recovered_lines 40"));
        assert!(text.contains("rapd_spool_legacy_lines 4"));
        assert!(text.contains("rapd_spool_truncated_bytes 17"));
        assert!(text.contains("rapd_spool_degraded 1"));
        assert!(text.contains("rapd_spool_write_errors_total 1"));
        assert!(text.contains("rapd_frames_shed_total{shard=\"1\"} 9"));
        assert!(text.contains("rapd_frames_shed_total{shard=\"0\"} 0"));
        assert!(text.contains("rapd_breaker_open_tenants 2"));
    }

    #[test]
    fn quarantine_and_repair_families_render_and_validate() {
        let m = Metrics::new(2);
        m.frames_quarantined
            .non_finite
            .fetch_add(3, Ordering::Relaxed);
        m.frames_quarantined
            .schema_drift
            .fetch_add(1, Ordering::Relaxed);
        m.frames_quarantined.late.fetch_add(4, Ordering::Relaxed);
        m.frames_quarantined.replay.fetch_add(2, Ordering::Relaxed);
        m.leaves_repaired.duplicate.fetch_add(7, Ordering::Relaxed);
        m.leaves_repaired.negative.fetch_add(5, Ordering::Relaxed);
        m.leaves_repaired
            .schema_drift
            .fetch_add(6, Ordering::Relaxed);
        m.quarantine_write_errors.fetch_add(1, Ordering::Relaxed);
        m.quarantine_degraded.store(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"non_finite\"} 3"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"schema_drift\"} 1"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"late\"} 4"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"replay\"} 2"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"duplicate\"} 7"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"negative\"} 5"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"schema_drift\"} 6"));
        assert!(text.contains("rapd_quarantine_write_errors_total 1"));
        assert!(text.contains("rapd_quarantine_degraded 1"));
        // each TYPE comment appears exactly once per labelled family
        assert_eq!(
            text.matches("# TYPE rapd_frames_quarantined_total counter")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE rapd_leaves_repaired_total counter")
                .count(),
            1
        );
        assert_eq!(m.total_quarantined(), 10);
        assert_eq!(m.leaves_repaired.total(), 18);
    }
}
