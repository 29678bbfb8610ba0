//! The rapd daemon: NDJSON ingest/control listener, shard pool, incident
//! sink, and metrics HTTP listener, wired together.
//!
//! Thread model (see DESIGN.md for the full diagram):
//!
//! ```text
//! clients ──TCP──▶ proto::Listener ──▶ thread per connection
//!                                     │  parse NDJSON, resolve schema
//!                                     ▼
//!                        bounded shard queues (drop-oldest)
//!                                     │
//!                                     ▼
//!                  shard workers (per-tenant pipelines) ──▶ incident sink
//!                                     │                       (spool+ring)
//!                                     ▼
//!                         atomic metrics ◀── /metrics HTTP listener
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

use mdkpi::Schema;

use crate::admission::{AdmissionControl, IdRows, Verdict};
use crate::blackbox::BlackboxWriter;
use crate::checkpoint::{read_snapshot, CheckpointStore};
use crate::config::{ServiceConfig, ServiceConfigError};
use crate::http::MetricsServer;
use crate::json::Json;
use crate::metrics::{build_version, Metrics};
use crate::proto::{
    build_frame, error_reply, read_import, read_request, serve_lines, Listener, ProtoError, Request,
};
use crate::quarantine::{QuarantineRecord, QuarantineSink};
use crate::shard::{LocalizerFactory, ShardPool, TenantDebug};
use crate::sink::IncidentSink;
use crate::spool_lock::{SpoolLock, SPOOL_LOCK_WAIT};
use crate::sync::{lock_recover, wait_recover};
use crate::wal::{
    read_schema_parts, read_tenant_suffix, write_entry, FrameWal, SchemaParts, WalEntry,
};

/// How long a `flush` request waits for the shards before giving up.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// Why the daemon failed to boot.
#[derive(Debug)]
#[non_exhaustive]
pub enum StartError {
    /// The configuration is invalid.
    Config(ServiceConfigError),
    /// A listener or the spool could not be set up.
    Io(io::Error),
    /// Another process still held the spool directory's lock after
    /// `SPOOL_LOCK_WAIT` (2 s).
    SpoolLocked {
        /// The contended spool directory.
        spool: PathBuf,
        /// The holder's pid as recorded in the lock file; `None` when the
        /// file held no pid.
        pid: Option<u32>,
    },
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid service config: {e}"),
            StartError::Io(e) => write!(f, "daemon startup failed: {e}"),
            StartError::SpoolLocked { spool, pid } => {
                let holder = pid.map_or_else(|| "pid unknown".to_string(), |p| format!("pid {p}"));
                write!(
                    f,
                    "spool {} is held by another rapd ({holder})",
                    spool.display()
                )
            }
        }
    }
}

impl std::error::Error for StartError {}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) sink: Arc<IncidentSink>,
    pub(crate) quarantine: Arc<QuarantineSink>,
    pub(crate) blackbox: Arc<BlackboxWriter>,
    pub(crate) admission: AdmissionControl,
    pub(crate) pool: ShardPool,
    pub(crate) schemas: Mutex<HashMap<String, Schema>>,
    /// The frame write-ahead log: admitted frames are journaled here
    /// before they reach the shard queues, and replayed from it at boot.
    /// `None` when the WAL is disabled or there is no spool directory.
    pub(crate) wal: Option<Arc<FrameWal>>,
    /// The per-tenant checkpoint store; `None` without a spool directory.
    pub(crate) checkpoints: Option<Arc<CheckpointStore>>,
    /// Highest acknowledged frame sequence per tenant — the redelivery
    /// dedup watermark for router-forwarded (token-adopting) observes.
    /// Seeded at boot from checkpoints and the WAL so a redelivery after
    /// a crash is recognized too. Single-process mints never consult it.
    pub(crate) admitted: Mutex<HashMap<String, u64>>,
    /// Highest frame sequence boot recovery saw (checkpoints + WAL); a
    /// worker announces it so the router can advance its mint counter
    /// past every token this spool ever issued.
    pub(crate) recovered_max_seq: u64,
    /// Signalled by the `shutdown` control verb once the drain completed;
    /// [`ServerHandle::wait_for_drain`] blocks on it.
    pub(crate) drain: DrainGate,
    /// Boot instant, for the uptime reported by `stats` and `debug`.
    pub(crate) started: Instant,
    /// The spool directory's lock; declared last so it is released only
    /// after everything above that writes the spool has been dropped.
    _spool_lock: Option<SpoolLock>,
}

/// A one-shot latch the serve loop parks on until a `shutdown` control
/// verb drains the daemon. Carries whether the drain beat its deadline so
/// the serve loop can exit nonzero on an unclean (timed-out) drain.
#[derive(Default)]
pub(crate) struct DrainGate {
    drained: Mutex<Option<bool>>,
    cv: Condvar,
}

impl DrainGate {
    /// Latch the drain outcome; the first signal wins.
    pub(crate) fn signal(&self, clean: bool) {
        let mut drained = lock_recover(&self.drained);
        if drained.is_none() {
            *drained = Some(clean);
        }
        self.cv.notify_all();
    }

    /// Park until the drain is signalled; returns whether it was clean.
    pub(crate) fn wait(&self) -> bool {
        let mut drained = lock_recover(&self.drained);
        loop {
            if let Some(clean) = *drained {
                return clean;
            }
            drained = wait_recover(&self.cv, drained);
        }
    }
}

/// A running rapd daemon — single-process or fleet worker. Dropping (or
/// calling [`ServerHandle::shutdown`]) stops the listener, drains the
/// shards, joins every thread, and stops `/metrics` last.
pub struct ServerHandle {
    listener: Listener,
    pub(crate) shared: Arc<Shared>,
    // declared last: fields drop after `Drop::drop`, so /metrics stays up
    // until the shards have drained
    metrics_server: MetricsServer,
}

impl ServerHandle {
    /// The bound ingest/control address (useful with port 0).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The bound Prometheus `/metrics` address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_server.addr()
    }

    /// The daemon's counters (shared with the workers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The incident sink (ring + spool).
    pub fn sink(&self) -> Arc<IncidentSink> {
        Arc::clone(&self.shared.sink)
    }

    /// The most recent quarantined frames, newest first, at most `limit`.
    pub fn quarantined(&self, limit: usize) -> Vec<QuarantineRecord> {
        self.shared.quarantine.recent(limit)
    }

    /// Stop listeners, drain shard queues, and join every thread.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Block until a `shutdown` control verb has flushed and checkpointed
    /// the daemon — the serve loop's park point. A SIGTERM wrapper sends
    /// the verb (e.g. `rapminer shutdown`); the daemon itself installs no
    /// signal handlers. Returns whether the drain was clean (`false` when
    /// the `--shutdown-deadline-ms` budget ran out with frames still
    /// queued — the serve loop should exit nonzero).
    pub fn wait_for_drain(&self) -> bool {
        self.shared.drain.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.listener.stop();
        // Graceful exits checkpoint after the last frame: the jobs queue
        // behind anything still in flight, so the snapshots cover it.
        if self.shared.checkpoints.is_some() {
            self.shared.pool.checkpoint_all(FLUSH_TIMEOUT);
        }
        self.shared.pool.shutdown();
    }
}

/// Boot the daemon core shared by every serving mode: validate the
/// config, lock the spool, open the spools/WAL/checkpoint store, start
/// the shard pool, run crash recovery, and start the metrics listener.
fn boot(
    config: ServiceConfig,
    factory: LocalizerFactory,
) -> Result<(Arc<Shared>, MetricsServer), StartError> {
    config.validate().map_err(StartError::Config)?;
    if config.log_json && !obs::sink_installed() {
        // an embedding harness may have installed its own sink first; never
        // replace it
        obs::install_sink(Box::new(io::stderr()));
    }
    // one owner per spool: nothing below may open it while another
    // process (a draining predecessor, or a second daemon) still does
    let spool_lock = match &config.spool_dir {
        Some(dir) => Some(SpoolLock::acquire(dir, SPOOL_LOCK_WAIT)?),
        None => None,
    };
    let metrics = Arc::new(Metrics::new(config.shards));
    let sink = Arc::new(IncidentSink::open(
        config.spool_dir.as_deref(),
        config.ring_capacity,
        config.spool_max_bytes,
        Arc::clone(&metrics),
    )?);
    let quarantine = Arc::new(QuarantineSink::open(
        config.spool_dir.as_deref(),
        config.ring_capacity,
        config.spool_max_bytes,
        Arc::clone(&metrics),
    )?);
    let blackbox = Arc::new(BlackboxWriter::open(
        config.spool_dir.as_deref(),
        Arc::clone(&metrics),
    )?);
    let wal = match &config.spool_dir {
        Some(dir) if config.wal => Some(Arc::new(FrameWal::open(
            dir,
            Arc::clone(&metrics),
            config.wal_fsync,
        )?)),
        _ => None,
    };
    let checkpoints = match &config.spool_dir {
        Some(dir) => Some(Arc::new(CheckpointStore::open(dir, Arc::clone(&metrics))?)),
        None => None,
    };
    let pool = ShardPool::start(
        &config,
        Arc::clone(&metrics),
        Arc::clone(&sink),
        Arc::clone(&quarantine),
        Arc::clone(&blackbox),
        factory,
        wal.clone(),
        checkpoints.clone(),
    );
    let recovery = recover_state(&metrics, &pool, wal.as_deref(), checkpoints.as_deref());
    let metrics_server = MetricsServer::start(&config.metrics_listen, Arc::clone(&metrics))?;
    let admission = AdmissionControl::new(config.schema_drift_limit);
    let shared = Arc::new(Shared {
        config,
        metrics,
        sink,
        quarantine,
        blackbox,
        admission,
        pool,
        schemas: Mutex::new(recovery.schemas),
        wal,
        checkpoints,
        recovered_max_seq: recovery.admitted.values().copied().max().unwrap_or(0),
        admitted: Mutex::new(recovery.admitted),
        drain: DrainGate::default(),
        started: Instant::now(),
        _spool_lock: spool_lock,
    });
    Ok((shared, metrics_server))
}

/// Boot the daemon core and serve `config.listen` through one
/// [`Listener`] whose connections run `serve`: [`start`] speaks NDJSON,
/// [`crate::worker::start_worker`] the framed fleet wire. `name` prefixes
/// the listener's thread names.
pub(crate) fn serve_with(
    config: ServiceConfig,
    factory: LocalizerFactory,
    name: &str,
    serve: impl Fn(TcpStream, &Shared, &AtomicBool) + Send + Sync + 'static,
) -> Result<ServerHandle, StartError> {
    let (shared, metrics_server) = boot(config, factory)?;
    let conn_shared = Arc::clone(&shared);
    let listener = Listener::bind(&shared.config.listen, name, move |stream, stop| {
        serve(stream, &conn_shared, stop)
    })?;
    Ok(ServerHandle {
        listener,
        shared,
        metrics_server,
    })
}

/// Boot the daemon: validate the config, open the spool, start the shard
/// workers and both listeners.
///
/// # Errors
///
/// [`StartError::Config`] for an invalid [`ServiceConfig`],
/// [`StartError::Io`] when a listener or the spool cannot be created.
pub fn start(config: ServiceConfig, factory: LocalizerFactory) -> Result<ServerHandle, StartError> {
    serve_with(config, factory, "rapd", handle_connection)
}

/// Everything boot-time crash recovery reconstructs for the daemon core.
struct Recovery {
    /// Tenant schemas reloaded from the WAL's schema journal.
    schemas: HashMap<String, Schema>,
    /// Highest acknowledged frame sequence per tenant (checkpoints + WAL)
    /// — the seed for the redelivery-dedup watermark.
    admitted: HashMap<String, u64>,
}

/// Boot-time crash recovery: reload journaled schemas, advance the frame
/// sequence past everything any prior run minted, and replay the WAL
/// suffix past each tenant's checkpoint acknowledgment into the shard
/// pool. Replayed frames re-adopt their original correlation tokens, so
/// the incident sink's frame-token dedup keeps incidents exactly-once
/// while ingestion stays at-least-once.
fn recover_state(
    metrics: &Arc<Metrics>,
    pool: &ShardPool,
    wal: Option<&FrameWal>,
    checkpoints: Option<&CheckpointStore>,
) -> Recovery {
    let mut schemas: HashMap<String, Schema> = HashMap::new();
    let mut acks: HashMap<String, u64> = HashMap::new();
    let mut admitted: HashMap<String, u64> = HashMap::new();
    for checkpoint in checkpoints
        .map(CheckpointStore::load_all)
        .unwrap_or_default()
    {
        let seen = admitted.entry(checkpoint.tenant.clone()).or_insert(0);
        *seen = (*seen).max(checkpoint.frame_seq);
        acks.insert(checkpoint.tenant, checkpoint.wal_ack);
    }
    let (journal, entries) = wal.map_or_else(Default::default, |wal| {
        (wal.recover_schemas(), wal.recover())
    });
    for (tenant, parts) in journal {
        match Schema::from_parts(parts) {
            Ok(schema) => {
                schemas.insert(tenant, schema);
            }
            Err(e) => obs::warn(
                "rapd.server",
                "schema_journal_invalid",
                &[
                    ("tenant", obs::Value::Str(tenant)),
                    ("error", obs::Value::Str(e.to_string())),
                ],
            ),
        }
    }
    for entry in &entries {
        let seen = admitted.entry(entry.tenant.clone()).or_insert(0);
        *seen = (*seen).max(entry.seq);
    }
    // New tokens must never collide with replayed (or checkpointed) ones.
    obs::FrameId::advance_past(admitted.values().copied().max().unwrap_or(0));
    let mut replayed = 0u64;
    for entry in &entries {
        if entry.seq > acks.get(&entry.tenant).copied().unwrap_or(0)
            && replay(metrics, pool, schemas.get(&entry.tenant), entry)
        {
            metrics.wal_replayed_frames.fetch_add(1, Ordering::Relaxed);
            replayed += 1;
        }
    }
    if replayed > 0 {
        obs::info(
            "rapd.server",
            "wal_replayed",
            &[("frames", obs::Value::U64(replayed))],
        );
    }
    Recovery { schemas, admitted }
}

/// Replay one journaled frame into the shard pool under its original
/// token, counted as ingested but not admitted or journaled again, for
/// boot recovery and an `import`. A frame `schema` cannot resolve is
/// skipped with a warning (`false`), never fatal.
fn replay(metrics: &Metrics, pool: &ShardPool, schema: Option<&Schema>, entry: &WalEntry) -> bool {
    let frame = match schema.map(|schema| build_frame(schema, &entry.rows)) {
        Some(Ok(frame)) => frame,
        unusable => {
            let event = match unusable {
                None => "replay_missing_schema",
                _ => "replay_frame_unresolvable",
            };
            let fields = [
                ("tenant", obs::Value::Str(entry.tenant.clone())),
                ("frame", obs::Value::Str(entry.frame.clone())),
            ];
            obs::warn("rapd.server", event, &fields);
            return false;
        }
    };
    metrics.frames_ingested.fetch_add(1, Ordering::Relaxed);
    let id = obs::FrameId::adopt(&entry.frame, entry.seq);
    pool.ingest(id, &entry.tenant, frame, entry.ts);
    true
}

/// Run an `import` line: take a tenant over from the fleet worker it names
/// as boot recovery resumes one, only reading that worker's spool
/// (`worker-<source>` beside this one), and return how many journaled
/// frames were replayed. Each step can run again: a retry redoes it all.
pub(crate) fn import(line: &str, shared: &Shared) -> Result<usize, String> {
    let (tenant, source, attributes) = read_import(line).map_err(|e| e.to_string())?;
    let from = (shared.config.spool_dir.as_deref())
        .ok_or("this worker has no spool")?
        .with_file_name(format!("worker-{source}"));
    let failed = |step: &str| format!("could not {step} of '{tenant}' here");
    // fences and drops whatever an earlier, failed import left here
    if !shared.pool.adopt(&tenant, FLUSH_TIMEOUT) {
        return Err(failed("checkpoint the record"));
    }
    if let Some(parts) = attributes.or_else(|| read_schema_parts(&from, &tenant)) {
        register_schema(shared, &tenant, parts).map_err(|e| e.to_string())?;
    }
    let snapshot = read_snapshot(&from, &tenant);
    if let (Some(snapshot), Some(store)) = (&snapshot, &shared.checkpoints) {
        if !store.write(snapshot) {
            return Err(failed("write the checkpoint"));
        }
    }
    let suffix = read_tenant_suffix(&from, &tenant, snapshot.as_ref().map_or(0, |c| c.wal_ack));
    if let Some(wal) = &shared.wal {
        // the suffix becomes the tenant's journal: no seq twice on a retry
        if !wal.compact(&tenant, u64::MAX) {
            return Err(failed("rewrite the journal"));
        }
        for entry in &suffix {
            wal.append_with(&tenant, || entry.to_json().render());
        }
    }
    let last = suffix.last().map(|e| e.seq);
    let mut admitted = lock_recover(&shared.admitted);
    let seen = admitted.entry(tenant.clone()).or_insert(0);
    *seen = (*seen).max(last.max(snapshot.map(|c| c.frame_seq)).unwrap_or(0));
    drop(admitted);
    let schema = lock_recover(&shared.schemas).get(&tenant).cloned();
    let (metrics, pool) = (&shared.metrics, &shared.pool);
    Ok(suffix
        .iter()
        .filter(|e| replay(metrics, pool, schema.as_ref(), e))
        .count())
}

/// Register `tenant`'s schema, or the same one again, journaling it
/// first: replay after a crash must be able to re-resolve its frames.
fn register_schema(shared: &Shared, tenant: &str, parts: SchemaParts) -> Result<(), ProtoError> {
    let schema =
        Schema::from_parts(parts.clone()).map_err(|e| ProtoError::BadSchema(e.to_string()))?;
    let mut schemas = lock_recover(&shared.schemas);
    if matches!(schemas.get(tenant), Some(existing) if *existing != schema) {
        let tenant = tenant.to_string();
        return Err(ProtoError::SchemaConflict { tenant });
    }
    if let Some(wal) = &shared.wal {
        wal.append_schema(tenant, &parts);
    }
    schemas.insert(tenant.to_string(), schema);
    Ok(())
}

/// Serve one NDJSON client connection against the daemon core.
fn handle_connection(stream: TcpStream, shared: &Shared, stop: &AtomicBool) {
    let protocol_errors = &shared.metrics.protocol_errors;
    let max = shared.config.max_frame_bytes;
    serve_lines(stream, max, stop, protocol_errors, |line| {
        dispatch(line, shared, None).unwrap_or_else(|e| {
            protocol_errors.fetch_add(1, Ordering::Relaxed);
            obs::warn(
                "rapd.server",
                "protocol_error",
                &[("reason", obs::Value::Str(e.to_string()))],
            );
            e.to_reply()
        })
    });
}

/// The observe verb's ingest hot path: admission, accounting, the WAL
/// append, and the queue push. `rows` are the line's rows read against
/// the tenant's schema, `None` when it has none; `line_bytes` is the
/// line's length, which sizes its journal line. Returns the reply's
/// payload pairs (sans the `type` and ack-latency stamp the caller adds).
fn observe_pairs(
    tenant: String,
    rows: Option<IdRows<'_>>,
    ts: Option<u64>,
    line_bytes: usize,
    shared: &Shared,
    adopt: Option<&(String, u64)>,
) -> Result<Vec<(String, Json)>, ProtoError> {
    let rows = rows.ok_or_else(|| ProtoError::NoSchema {
        tenant: tenant.clone(),
    })?;
    if let Some((token, seq)) = adopt {
        // Redelivery dedup: a frame at or below the acknowledged
        // watermark was already ingested (and journaled) by this
        // process or a predecessor on the same spool. Acknowledge
        // it again without re-counting — the router redelivers
        // at-least-once after a worker death.
        let admitted = lock_recover(&shared.admitted);
        if admitted.get(&tenant).copied().unwrap_or(0) >= *seq {
            return Ok(vec![
                ("queued".to_string(), Json::Bool(true)),
                ("frame".to_string(), Json::str(token)),
                ("duplicate".to_string(), Json::Bool(true)),
            ]);
        }
    }
    // The correlation id is minted before admission so a rejected
    // frame's quarantine record carries the same token the client
    // sees in its reply; the scope stamps admission events too.
    // A router-forwarded frame adopts the router's token instead.
    let id = match adopt {
        Some((token, seq)) => obs::FrameId::adopt(token, *seq),
        None => obs::FrameId::mint(&tenant),
    };
    let _frame = obs::frame::frame_scope(&id);
    // Admission judges the frame *after* protocol-level checks
    // (arity is an error and does not count as ingested) but
    // *before* the ingested counter, so `processed + dropped +
    // shed + quarantined == ingested` holds at every fence.
    let verdict = shared.admission.admit(&tenant, rows)?;
    shared
        .metrics
        .frames_ingested
        .fetch_add(1, Ordering::Relaxed);
    if adopt.is_some() {
        let mut admitted = lock_recover(&shared.admitted);
        let seen = admitted.entry(tenant.clone()).or_insert(0);
        *seen = (*seen).max(id.seq());
    }
    match verdict {
        Verdict::Quarantine {
            reason,
            detail,
            rows,
        } => {
            shared.quarantine.record(QuarantineRecord {
                tenant,
                frame_id: Some(id.as_str().to_string()),
                ts,
                reason,
                detail: detail.clone(),
                rows,
            });
            Ok(vec![
                ("queued".to_string(), Json::Bool(false)),
                ("frame".to_string(), Json::str(id.as_str())),
                ("quarantined".to_string(), Json::Bool(true)),
                ("reason".to_string(), Json::str(reason)),
                ("detail".to_string(), Json::str(detail)),
            ])
        }
        Verdict::Admit(admitted) => {
            let m = &shared.metrics.leaves_repaired;
            m.duplicate
                .fetch_add(admitted.repaired_duplicate, Ordering::Relaxed);
            m.negative
                .fetch_add(admitted.repaired_negative, Ordering::Relaxed);
            m.schema_drift
                .fetch_add(admitted.repaired_drift, Ordering::Relaxed);
            let frame = admitted.frame();
            let token = id.as_str().to_string();
            // journal before queueing: once the reply acknowledges
            // the frame, a kill -9 must not be able to lose it. The
            // line is about as long as the observe line it came from.
            if let Some(wal) = &shared.wal {
                wal.append_with(&tenant, || {
                    let capacity = line_bytes + token.len() + 64;
                    write_entry(
                        &tenant,
                        &token,
                        id.seq(),
                        ts,
                        capacity,
                        admitted.named_rows(),
                    )
                });
            }
            shared.pool.ingest(id, &tenant, frame, ts);
            Ok(vec![
                ("queued".to_string(), Json::Bool(true)),
                ("frame".to_string(), Json::str(token)),
                ("repaired".to_string(), Json::Bool(admitted.repaired())),
            ])
        }
    }
}

/// Dispatch one request line to its reply. `adopt` carries a
/// router-minted correlation token and sequence for forwarded observes:
/// the worker adopts the token instead of minting one, and a sequence at
/// or below the tenant's acknowledged watermark is answered as a
/// duplicate without re-ingesting — the at-least-once redelivery the
/// router performs after a worker death stays exactly-once end to end.
pub(crate) fn dispatch(
    line: &str,
    shared: &Shared,
    adopt: Option<&(String, u64)>,
) -> Result<String, ProtoError> {
    let parse_started = Instant::now();
    // an observe's element names resolve against the tenant's schema as
    // the line is read
    let request = read_request(line, shared.config.max_frame_bytes, |tenant| {
        let schemas = lock_recover(&shared.schemas);
        schemas
            .get(tenant)
            .map(|schema| IdRows::new(schema.clone(), line))
    })?;
    let parse_us = (parse_started.elapsed().as_secs_f64() * 1e6).round();
    match request {
        Request::Schema { tenant, attributes } => {
            register_schema(shared, &tenant, attributes)?;
            Ok(ok_reply(vec![("tenant".to_string(), Json::str(tenant))]))
        }
        Request::Observe { tenant, rows, ts } => {
            // Stamp the reply with how long the ingest hot path held the
            // connection: `parse_us` covers reading the line and
            // resolving its names, `ack_us` admission on the ids, the WAL
            // append, and the queue push. Together they are the
            // daemon-side share of the ack latency a load generator
            // measures from outside.
            let ack_started = Instant::now();
            let mut pairs = observe_pairs(tenant, rows, ts, line.len(), shared, adopt)?;
            let ack_seconds = ack_started.elapsed().as_secs_f64();
            shared.metrics.ingest_ack.observe(ack_seconds);
            pairs.push(("ack_us".to_string(), Json::Num((ack_seconds * 1e6).round())));
            pairs.push(("parse_us".to_string(), Json::Num(parse_us)));
            Ok(ok_reply(pairs))
        }
        Request::Flush => {
            let flushed = shared.pool.flush(FLUSH_TIMEOUT);
            Ok(ok_reply(vec![("flushed".to_string(), Json::Bool(flushed))]))
        }
        Request::Stats => Ok(stats_reply(shared)),
        Request::Incidents { limit } => {
            let incidents = shared
                .sink
                .recent(limit)
                .iter()
                .map(|r| r.to_json())
                .collect();
            Ok(Json::Obj(vec![
                ("type".to_string(), Json::str("incidents")),
                ("incidents".to_string(), Json::Arr(incidents)),
            ])
            .render())
        }
        Request::Trace { limit } => {
            let spans = obs::recent_spans(limit).iter().map(span_to_json).collect();
            Ok(Json::Obj(vec![
                ("type".to_string(), Json::str("trace")),
                ("spans".to_string(), Json::Arr(spans)),
            ])
            .render())
        }
        Request::Quarantine { limit } => {
            let records = shared
                .quarantine
                .recent(limit)
                .iter()
                .map(QuarantineRecord::to_json)
                .collect();
            Ok(Json::Obj(vec![
                ("type".to_string(), Json::str("quarantine")),
                ("records".to_string(), Json::Arr(records)),
            ])
            .render())
        }
        Request::Health => Ok(health_reply(shared)),
        Request::Debug { tenant } => Ok(debug_reply(shared, tenant.as_deref())),
        Request::Shutdown => {
            let (flushed, checkpointed) = drain(shared);
            Ok(ok_reply(vec![
                ("draining".to_string(), Json::Bool(true)),
                ("flushed".to_string(), Json::Bool(flushed)),
                ("checkpointed".to_string(), Json::Bool(checkpointed)),
            ]))
        }
        Request::Checkpoint => {
            let checkpointed = shared.pool.checkpoint_all(FLUSH_TIMEOUT);
            Ok(ok_reply(vec![(
                "checkpointed".to_string(),
                Json::Bool(checkpointed),
            )]))
        }
        Request::Adopt { tenant } => {
            let adopted = shared.pool.adopt(&tenant, FLUSH_TIMEOUT);
            Ok(ok_reply(vec![
                ("tenant".to_string(), Json::str(tenant)),
                ("adopted".to_string(), Json::Bool(adopted)),
            ]))
        }
        Request::Handoff { .. } => Ok(error_reply(
            "handoff requires a worker fleet (serve --workers N)",
        )),
    }
}

/// The graceful drain behind the `shutdown` verb, also run by a fleet
/// worker whose router went away. Order matters: the flush barrier
/// empties the reorder buffers through the pipelines, then the
/// checkpoint snapshots the post-drain state (fsynced by the store), so a
/// restart resumes exactly where this run stopped. Both steps are bounded
/// by the shutdown deadline: a wedged shard must not hang the drain
/// forever — on overrun, checkpoint whatever drained, log the stragglers,
/// and latch the drain unclean. Returns `(flushed, checkpointed)`.
pub(crate) fn drain(shared: &Shared) -> (bool, bool) {
    obs::info("rapd.server", "drain_requested", &[]);
    let deadline = shared.config.shutdown_deadline;
    let flushed = shared.pool.flush(deadline);
    if !flushed {
        let depths = shared.pool.queue_depths();
        obs::warn(
            "rapd.server",
            "drain_deadline_exceeded",
            &[
                ("deadline_ms", obs::Value::U64(deadline.as_millis() as u64)),
                ("queue_depths", obs::Value::Str(format!("{depths:?}"))),
            ],
        );
    }
    let checkpointed = shared.pool.checkpoint_all(deadline);
    shared.drain.signal(flushed && checkpointed);
    (flushed, checkpointed)
}

/// Checkpoint staleness in seconds, from the newest snapshot write across
/// all tenants; `None` before the first checkpoint.
fn checkpoint_age_seconds(metrics: &Metrics) -> Option<f64> {
    let last = metrics.checkpoint_last_unix_ms.load(Ordering::Relaxed);
    if last == 0 {
        return None;
    }
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    Some(now.saturating_sub(last) as f64 / 1000.0)
}

/// Live internals for the `debug` control verb: daemon-wide state plus a
/// per-tenant breakdown, optionally filtered to one tenant.
fn debug_reply(shared: &Shared, tenant: Option<&str>) -> String {
    let m = &shared.metrics;
    let depths: Vec<Json> = shared
        .pool
        .queue_depths()
        .into_iter()
        .map(|d| Json::Num(d as f64))
        .collect();
    let tenants: Vec<Json> = shared
        .pool
        .tenant_debug()
        .into_iter()
        .filter(|(name, _)| tenant.is_none_or(|t| t == name))
        .map(|(name, d)| tenant_debug_json(&name, &d))
        .collect();
    let recorders: Vec<Json> = obs::recorder::stats()
        .into_iter()
        .map(|(name, lines, recorded, dropped)| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(name)),
                ("lines".to_string(), Json::Num(lines as f64)),
                ("recorded".to_string(), Json::Num(recorded as f64)),
                ("dropped".to_string(), Json::Num(dropped as f64)),
            ])
        })
        .collect();
    let memo = rapminer::memo_stats();
    let pool = par::pool_stats();
    Json::Obj(vec![
        ("type".to_string(), Json::str("debug")),
        (
            "uptime_seconds".to_string(),
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("version".to_string(), Json::str(build_version())),
        ("queue_depths".to_string(), Json::Arr(depths)),
        ("tenants".to_string(), Json::Arr(tenants)),
        ("flight_recorders".to_string(), Json::Arr(recorders)),
        (
            "memo".to_string(),
            Json::Obj(vec![
                ("served".to_string(), Json::Num(memo.served as f64)),
                ("scratch".to_string(), Json::Num(memo.scratch as f64)),
                ("hit_rate".to_string(), Json::Num(memo.hit_rate())),
            ]),
        ),
        (
            "pool".to_string(),
            Json::Obj(vec![
                ("maps".to_string(), Json::Num(pool.maps as f64)),
                (
                    "parallel_maps".to_string(),
                    Json::Num(pool.parallel_maps as f64),
                ),
                ("items".to_string(), Json::Num(pool.items as f64)),
                ("steals".to_string(), Json::Num(pool.steals as f64)),
                (
                    "parallel_fraction".to_string(),
                    Json::Num(pool.parallel_fraction()),
                ),
            ]),
        ),
        (
            "e2e".to_string(),
            Json::Obj(vec![
                ("count".to_string(), Json::Num(m.e2e.count() as f64)),
                ("sum_seconds".to_string(), Json::Num(m.e2e.sum_seconds())),
            ]),
        ),
        (
            "blackbox_dumps".to_string(),
            Json::Obj(
                m.blackbox_dumps
                    .named()
                    .into_iter()
                    .map(|(trigger, c)| {
                        (
                            trigger.to_string(),
                            Json::Num(c.load(Ordering::Relaxed) as f64),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "blackbox_dir".to_string(),
            match shared.blackbox.dir() {
                None => Json::Null,
                Some(p) => Json::str(p.display().to_string()),
            },
        ),
        (
            "durability".to_string(),
            Json::Obj(vec![
                ("wal_enabled".to_string(), Json::Bool(shared.wal.is_some())),
                (
                    "wal_degraded".to_string(),
                    Json::Bool(m.wal_degraded.load(Ordering::Relaxed) != 0),
                ),
                (
                    "wal_depth".to_string(),
                    Json::Num(m.wal_depth.load(Ordering::Relaxed) as f64),
                ),
                (
                    "replayed_frames".to_string(),
                    Json::Num(m.wal_replayed_frames.load(Ordering::Relaxed) as f64),
                ),
                (
                    "checkpoints_enabled".to_string(),
                    Json::Bool(shared.checkpoints.is_some()),
                ),
                (
                    "checkpoint_writes".to_string(),
                    Json::Num(m.checkpoint_writes.load(Ordering::Relaxed) as f64),
                ),
                (
                    "checkpoint_restores".to_string(),
                    Json::Num(m.checkpoint_restores.load(Ordering::Relaxed) as f64),
                ),
                (
                    "checkpoint_age_seconds".to_string(),
                    checkpoint_age_seconds(m).map_or(Json::Null, Json::Num),
                ),
                (
                    "detector_rewarms".to_string(),
                    Json::Num(m.detector_rewarms.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
    ])
    .render()
}

/// One tenant's live internals in the `debug` reply.
fn tenant_debug_json(name: &str, d: &TenantDebug) -> Json {
    Json::Obj(vec![
        ("tenant".to_string(), Json::str(name)),
        ("shard".to_string(), Json::Num(d.shard as f64)),
        ("engine".to_string(), Json::str(d.engine)),
        (
            "detector_phase".to_string(),
            match d.detector_phase {
                None => Json::Null,
                Some(p) => Json::str(p),
            },
        ),
        ("breaker".to_string(), Json::str(d.breaker)),
        (
            "reorder".to_string(),
            Json::Obj(vec![
                ("buffered".to_string(), Json::Num(d.reorder_buffered as f64)),
                (
                    "last_emitted".to_string(),
                    match d.reorder_last_emitted {
                        None => Json::Null,
                        Some(t) => Json::Num(t as f64),
                    },
                ),
                ("max_seen".to_string(), Json::Num(d.reorder_max_seen as f64)),
                (
                    "cadence".to_string(),
                    d.reorder_cadence
                        .map_or(Json::Null, |c| Json::Num(c as f64)),
                ),
                ("lag".to_string(), Json::Num(d.reorder_lag as f64)),
            ]),
        ),
        ("last_frame".to_string(), Json::str(d.last_frame.as_str())),
        (
            "last_checkpoint_ts".to_string(),
            match d.last_checkpoint_unix_ms {
                None => Json::Null,
                Some(ms) => Json::Num(ms as f64),
            },
        ),
    ])
}

/// Fault-tolerance health summary: `"degraded"` whenever a log (incident
/// spool, quarantine spool, WAL) fell back to its lossy mode or any
/// tenant breaker is currently open.
fn health_reply(shared: &Shared) -> String {
    let m = &shared.metrics;
    // the latched logs by name: the same source as the
    // rapd_degraded{subsystem=...} gauge family
    let latched = m.degraded_subsystems().map(|(name, v)| (name, v != 0));
    let open_breakers = m.total_breaker_open();
    let degraded: Vec<Json> = latched
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| Json::str(*name))
        .collect();
    let status = if !degraded.is_empty() || open_breakers > 0 {
        "degraded"
    } else {
        "ok"
    };
    let [(_, spool_degraded), (_, quarantine_degraded), (_, wal_degraded)] = latched;
    Json::Obj(vec![
        ("type".to_string(), Json::str("health")),
        ("status".to_string(), Json::str(status)),
        ("degraded_subsystems".to_string(), Json::Arr(degraded)),
        ("spool_degraded".to_string(), Json::Bool(spool_degraded)),
        (
            "quarantine_degraded".to_string(),
            Json::Bool(quarantine_degraded),
        ),
        ("wal_degraded".to_string(), Json::Bool(wal_degraded)),
        ("open_breakers".to_string(), Json::Num(open_breakers as f64)),
        (
            "worker_restarts".to_string(),
            Json::Num(m.worker_restarts.load(Ordering::Relaxed) as f64),
        ),
        (
            "pipeline_restarts".to_string(),
            Json::Num(m.pipeline_restarts_panic.load(Ordering::Relaxed) as f64),
        ),
        (
            "deadline_exceeded".to_string(),
            Json::Num(m.deadline_exceeded.load(Ordering::Relaxed) as f64),
        ),
    ])
    .render()
}

/// One completed span in the `trace` reply.
fn span_to_json(span: &obs::SpanRecord) -> Json {
    let fields = span
        .fields
        .iter()
        .map(|(k, v)| {
            let value = match v {
                obs::Value::Bool(b) => Json::Bool(*b),
                obs::Value::U64(n) => Json::Num(*n as f64),
                obs::Value::F64(x) if x.is_finite() => Json::Num(*x),
                obs::Value::F64(_) => Json::Null,
                obs::Value::Str(s) => Json::str(s.as_str()),
            };
            ((*k).to_string(), value)
        })
        .collect();
    Json::Obj(vec![
        ("id".to_string(), Json::Num(span.id as f64)),
        (
            "parent".to_string(),
            match span.parent {
                None => Json::Null,
                Some(p) => Json::Num(p as f64),
            },
        ),
        ("trace".to_string(), Json::Num(span.trace as f64)),
        ("name".to_string(), Json::str(span.name)),
        (
            "frame".to_string(),
            match &span.frame {
                None => Json::Null,
                Some(token) => Json::str(token.as_ref()),
            },
        ),
        (
            "start_micros".to_string(),
            Json::Num(span.start_micros as f64),
        ),
        (
            "elapsed_micros".to_string(),
            Json::Num(span.elapsed_micros as f64),
        ),
        ("fields".to_string(), Json::Obj(fields)),
    ])
}

pub(crate) fn ok_reply(mut extra: Vec<(String, Json)>) -> String {
    let mut pairs = vec![("type".to_string(), Json::str("ok"))];
    pairs.append(&mut extra);
    Json::Obj(pairs).render()
}

fn stats_reply(shared: &Shared) -> String {
    let m = &shared.metrics;
    let shards: Vec<Json> = (0..m.num_shards())
        .map(|i| {
            let s = m.shard(i);
            Json::Obj(vec![
                (
                    "dropped".to_string(),
                    Json::Num(s.dropped.load(Ordering::Relaxed) as f64),
                ),
                (
                    "processed".to_string(),
                    Json::Num(s.processed.load(Ordering::Relaxed) as f64),
                ),
                (
                    "depth".to_string(),
                    Json::Num(s.depth.load(Ordering::Relaxed) as f64),
                ),
                (
                    "shed".to_string(),
                    Json::Num(s.shed.load(Ordering::Relaxed) as f64),
                ),
                (
                    "breaker_open".to_string(),
                    Json::Num(s.breaker_open.load(Ordering::Relaxed) as f64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::str("stats")),
        (
            "uptime_seconds".to_string(),
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("version".to_string(), Json::str(build_version())),
        (
            "frames_ingested".to_string(),
            Json::Num(m.frames_ingested.load(Ordering::Relaxed) as f64),
        ),
        (
            "frames_processed".to_string(),
            Json::Num(m.total_processed() as f64),
        ),
        (
            "frames_dropped".to_string(),
            Json::Num(m.total_dropped() as f64),
        ),
        ("frames_shed".to_string(), Json::Num(m.total_shed() as f64)),
        (
            "frames_quarantined".to_string(),
            Json::Num(m.total_quarantined() as f64),
        ),
        (
            "leaves_repaired".to_string(),
            Json::Num(m.leaves_repaired.total() as f64),
        ),
        (
            "deadline_exceeded".to_string(),
            Json::Num(m.deadline_exceeded.load(Ordering::Relaxed) as f64),
        ),
        (
            "alarms".to_string(),
            Json::Num(m.alarms.load(Ordering::Relaxed) as f64),
        ),
        (
            "detections".to_string(),
            Json::Obj(
                m.detections
                    .named()
                    .into_iter()
                    .map(|(severity, c)| {
                        (
                            severity.to_string(),
                            Json::Num(c.load(Ordering::Relaxed) as f64),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "protocol_errors".to_string(),
            Json::Num(m.protocol_errors.load(Ordering::Relaxed) as f64),
        ),
        (
            "incidents_in_ring".to_string(),
            Json::Num(shared.sink.ring_len() as f64),
        ),
        (
            "wal_depth".to_string(),
            Json::Num(m.wal_depth.load(Ordering::Relaxed) as f64),
        ),
        (
            "replayed_frames".to_string(),
            Json::Num(m.wal_replayed_frames.load(Ordering::Relaxed) as f64),
        ),
        (
            "checkpoint_age_seconds".to_string(),
            checkpoint_age_seconds(m).map_or(Json::Null, Json::Num),
        ),
        ("shards".to_string(), Json::Arr(shards)),
    ])
    .render()
}
