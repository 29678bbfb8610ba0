//! The open-loop load runner: replay a [`FrameBook`] against a live rapd
//! listener and account for every frame.
//!
//! ## Methodology
//!
//! The runner is **open-loop**: frame `k` is scheduled at `epoch + k/rate`
//! regardless of how fast the daemon acks, and ack latency is measured
//! from the *scheduled* send time — the standard correction for
//! coordinated omission (a closed-loop harness that waits for each ack
//! before sending the next frame under-reports tail latency exactly when
//! the server stalls). With `rate = 0` the runner degenerates to
//! saturation mode: no schedule, each connection writes as fast as TCP
//! backpressure allows, and the sustained rate *is* the measurement.
//!
//! ## Accounting
//!
//! Every sent frame ends in exactly one client-side bucket — acked,
//! parked, quarantined, shed, duplicate, or error — and after a `flush`
//! barrier those buckets must reconcile with the daemon's own invariant
//! (`processed + dropped + shed + quarantined == ingested`). Daemon
//! counters are read as **deltas** over the run (stats before vs after),
//! so repeated runs against one daemon still reconcile. The summary puts
//! every nondeterministic value (latencies, rates, elapsed time) under a
//! single `"timing"` key; everything else is a pure function of the
//! config, which is what the determinism test asserts.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use service::json::{parse, Json};
use service::proto;

use crate::hist::LogHistogram;
use crate::synth::{FrameBook, SynthConfig, TenantBook};

/// Milliseconds between consecutive frame timestamps of one tenant (the
/// simulated minute).
const TS_STRIDE_MS: u64 = 60_000;

/// In-flight frames per connection before the writer blocks (and flushes
/// its buffer first, so the daemon always sees what the reader waits on).
const PIPELINE_DEPTH: usize = 4096;

/// How the runner drives traffic; see [`LoadConfig::from_flags`] for the
/// flag spelling.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// rapd ingest listener, `host:port`.
    pub addr: String,
    /// Parallel sender connections (clamped to the tenant count — one
    /// tenant must never be driven from two connections, or its
    /// timestamps could arrive out of order and quarantine as late).
    pub connections: usize,
    /// Offered rate in frames/second across all connections; 0 means
    /// saturation (unpaced, closed only by TCP backpressure).
    pub rate: f64,
    /// Total frames to send; 0 means duration-bound.
    pub total_frames: u64,
    /// Run length in seconds when `total_frames` is 0.
    pub duration_secs: f64,
    /// Incident poll cadence for the ingest→incident e2e histogram.
    pub poll_interval_ms: u64,
    /// Traffic synthesis shape.
    pub synth: SynthConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            connections: 2,
            rate: 0.0,
            total_frames: 0,
            duration_secs: 10.0,
            poll_interval_ms: 50,
            synth: SynthConfig::default(),
        }
    }
}

impl LoadConfig {
    /// Build a config from `--flag value` pairs (as collected by the CLI
    /// or the standalone binary). `--addr` is required; everything else
    /// defaults. Unknown flags are the caller's problem.
    pub fn from_flags(flags: &HashMap<String, String>) -> Result<LoadConfig, String> {
        fn get<T: std::str::FromStr>(
            flags: &HashMap<String, String>,
            key: &str,
            default: T,
        ) -> Result<T, String> {
            match flags.get(key) {
                None => Ok(default),
                Some(raw) => raw
                    .parse::<T>()
                    .map_err(|_| format!("{key} wants a number, got {raw:?}")),
            }
        }
        let addr = flags
            .get("--addr")
            .cloned()
            .ok_or_else(|| "--addr <host:port> is required".to_string())?;
        let d = LoadConfig::default();
        let sd = SynthConfig::default();
        let config = LoadConfig {
            addr,
            connections: get(flags, "--connections", d.connections)?,
            rate: get(flags, "--rate", d.rate)?,
            total_frames: get(flags, "--frames", d.total_frames)?,
            duration_secs: get(flags, "--duration", d.duration_secs)?,
            poll_interval_ms: get(flags, "--poll-interval-ms", d.poll_interval_ms)?,
            synth: SynthConfig {
                tenants: get(flags, "--tenants", sd.tenants)?,
                steps: get(flags, "--steps", sd.steps)?,
                seed: get(flags, "--seed", sd.seed)?,
                locations: get(flags, "--locations", sd.locations)?,
                access_types: get(flags, "--access-types", sd.access_types)?,
                oses: get(flags, "--oses", sd.oses)?,
                websites: get(flags, "--websites", sd.websites)?,
                warmup: get(flags, "--warmup", sd.warmup)?,
                inject_every: get(flags, "--inject-every", sd.inject_every)?,
                inject_duration: get(flags, "--inject-duration", sd.inject_duration)?,
            },
        };
        if config.connections == 0 {
            return Err("--connections must be positive".to_string());
        }
        if config.rate < 0.0 || !config.rate.is_finite() {
            return Err("--rate must be a finite non-negative number".to_string());
        }
        if config.total_frames == 0 && config.duration_secs <= 0.0 {
            return Err("--duration must be positive when --frames is 0".to_string());
        }
        Ok(config)
    }
}

/// What one reply line meant for the frame it answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Acked,
    Parked,
    Quarantined,
    Shed,
    Duplicate,
    Error,
}

/// Classify a reply by cheap substring probes — [`Json::render`] is
/// compact (no spaces), so these patterns are exact.
fn classify(reply: &str) -> Outcome {
    if reply.contains(r#""type":"error""#) {
        Outcome::Error
    } else if reply.contains(r#""shed":true"#) {
        Outcome::Shed
    } else if reply.contains(r#""parked":true"#) {
        Outcome::Parked
    } else if reply.contains(r#""quarantined":true"#) {
        Outcome::Quarantined
    } else if reply.contains(r#""duplicate":true"#) {
        Outcome::Duplicate
    } else if reply.contains(r#""queued":true"#) {
        Outcome::Acked
    } else {
        Outcome::Error
    }
}

/// The correlation token from an observe ack, if present.
fn frame_token(reply: &str) -> Option<&str> {
    let pat = r#""frame":""#;
    let start = reply.find(pat)? + pat.len();
    let rest = &reply[start..];
    Some(&rest[..rest.find('"')?])
}

/// Client-side accounting buckets; one increment per sent frame.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    acked: u64,
    parked: u64,
    quarantined: u64,
    shed: u64,
    duplicates: u64,
    errors: u64,
    leaves_acked: u64,
}

impl Counts {
    fn total(&self) -> u64 {
        self.acked + self.parked + self.quarantined + self.shed + self.duplicates + self.errors
    }

    fn merge(&mut self, o: &Counts) {
        self.acked += o.acked;
        self.parked += o.parked;
        self.quarantined += o.quarantined;
        self.shed += o.shed;
        self.duplicates += o.duplicates;
        self.errors += o.errors;
        self.leaves_acked += o.leaves_acked;
    }
}

/// Per-frame metadata the writer hands the reader, FIFO with the wire.
struct Meta {
    /// Scheduled (paced) or actual (saturation) send time, ns from epoch.
    ref_ns: u64,
    /// Rows in the frame.
    leaves: u32,
    /// Whether the frame carries an injection (e2e trace candidate).
    anomalous: bool,
}

/// Daemon frame counters, summed across workers for a fleet.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonTotals {
    ingested: u64,
    processed: u64,
    dropped: u64,
    shed: u64,
    quarantined: u64,
    /// Frames shed at the router before reaching any worker (fleet only).
    router_shed: u64,
    workers: u64,
}

impl DaemonTotals {
    fn delta(after: &DaemonTotals, before: &DaemonTotals) -> DaemonTotals {
        DaemonTotals {
            ingested: after.ingested.saturating_sub(before.ingested),
            processed: after.processed.saturating_sub(before.processed),
            dropped: after.dropped.saturating_sub(before.dropped),
            shed: after.shed.saturating_sub(before.shed),
            quarantined: after.quarantined.saturating_sub(before.quarantined),
            router_shed: after.router_shed.saturating_sub(before.router_shed),
            workers: after.workers,
        }
    }

    /// The daemon's own admission invariant.
    fn invariant_holds(&self) -> bool {
        self.processed + self.dropped + self.shed + self.quarantined == self.ingested
    }
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Parse a `stats` reply — single-process top-level counters, or a
/// router reply with per-worker counters nested under `workers[].stats`.
fn daemon_totals(doc: &Json) -> DaemonTotals {
    if doc.get("role").and_then(Json::as_str) == Some("router") {
        let mut t = DaemonTotals::default();
        if let Some(workers) = doc.get("workers").and_then(Json::as_arr) {
            t.workers = workers.len() as u64;
            for w in workers {
                if let Some(stats) = w.get("stats") {
                    t.ingested += num(stats, "frames_ingested");
                    t.processed += num(stats, "frames_processed");
                    t.dropped += num(stats, "frames_dropped");
                    t.shed += num(stats, "frames_shed");
                    t.quarantined += num(stats, "frames_quarantined");
                }
            }
        }
        if let Some(router) = doc.get("router") {
            t.router_shed = num(router, "shed");
        }
        t
    } else {
        DaemonTotals {
            ingested: num(doc, "frames_ingested"),
            processed: num(doc, "frames_processed"),
            dropped: num(doc, "frames_dropped"),
            shed: num(doc, "frames_shed"),
            quarantined: num(doc, "frames_quarantined"),
            router_shed: 0,
            workers: 1,
        }
    }
}

/// One request/reply NDJSON control connection.
struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn connect(addr: &str) -> Result<Control, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect to rapd at {addr}: {e}"))?;
        proto::setup_stream(&stream, None).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone control stream: {e}"))?,
        );
        Ok(Control {
            writer: stream,
            reader,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        proto::write_line(&mut self.writer, line).map_err(|e| format!("write {line:?}: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("read reply to {line:?}: {e}"))?;
        if n == 0 {
            return Err(format!("rapd closed the connection on {line:?}"));
        }
        Ok(reply)
    }

    fn stats(&mut self) -> Result<DaemonTotals, String> {
        let reply = self.request(r#"{"type":"stats"}"#)?;
        let doc = parse(reply.trim()).map_err(|e| format!("parse stats reply: {e}"))?;
        Ok(daemon_totals(&doc))
    }
}

/// Sleep-then-yield until `target_ns` after `epoch`; returns the actual
/// time reached. Coarse sleep until close, then yields — busy-spinning
/// would steal cycles from a daemon sharing the core.
fn wait_until(epoch: Instant, target_ns: u64) -> u64 {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= target_ns {
            return now;
        }
        let rem = target_ns - now;
        if rem > 300_000 {
            std::thread::sleep(Duration::from_nanos(rem - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one writer thread reports back.
struct WriterReport {
    sent: u64,
    leaves_sent: u64,
    /// Worst lateness behind the open-loop schedule, ns.
    behind_max_ns: u64,
    write_errors: u64,
}

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    stream: TcpStream,
    tx: SyncSender<Meta>,
    mine: Vec<&TenantBook>,
    epoch: Instant,
    conn: usize,
    connections: usize,
    config: &LoadConfig,
) -> WriterReport {
    let mut w = BufWriter::with_capacity(1 << 16, stream);
    let paced = config.rate > 0.0;
    // frame k of this connection is global frame k*connections + conn
    let interval_ns = if paced {
        1e9 * connections as f64 / config.rate
    } else {
        0.0
    };
    let duration_ns = (config.duration_secs * 1e9) as u64;
    // fair split of a fixed-frame run: earlier connections take the
    // remainder, so the split is deterministic
    let quota = if config.total_frames == 0 {
        u64::MAX
    } else {
        config.total_frames / connections as u64
            + u64::from((conn as u64) < config.total_frames % connections as u64)
    };

    let mut report = WriterReport {
        sent: 0,
        leaves_sent: 0,
        behind_max_ns: 0,
        write_errors: 0,
    };
    let mut steps = vec![0u64; mine.len()]; // per-tenant send counter
    let mut k = 0u64;
    while k < quota {
        let ref_ns = if paced {
            let scheduled =
                (k as f64 * interval_ns + conn as f64 * interval_ns / connections as f64) as u64;
            if config.total_frames == 0 && scheduled >= duration_ns {
                break;
            }
            let now = wait_until(epoch, scheduled);
            report.behind_max_ns = report.behind_max_ns.max(now - scheduled);
            scheduled
        } else {
            if config.total_frames == 0 && epoch.elapsed().as_nanos() as u64 >= duration_ns {
                break;
            }
            epoch.elapsed().as_nanos() as u64
        };

        let which = (k as usize) % mine.len();
        let book = mine[which];
        let step = steps[which];
        steps[which] += 1;
        let line = &book.lines[(step % book.lines.len() as u64) as usize];
        let idx = (step % book.lines.len() as u64) as usize;
        let meta = Meta {
            ref_ns,
            leaves: book.leaves[idx],
            anomalous: book.anomalous[idx],
        };
        let leaves = u64::from(meta.leaves);

        // hand the reader its meta *before* the bytes exist on the wire;
        // if the pipeline is full, flush first so the daemon can drain it
        if let Err(std::sync::mpsc::TrySendError::Full(meta)) = tx.try_send(meta) {
            if w.flush().is_err() {
                report.write_errors += 1;
                break;
            }
            if tx.send(meta).is_err() {
                break; // reader died
            }
        }

        // splice `,"ts":N}` over the closing brace; ts strictly
        // increases per tenant, so the watermark always advances
        let ts = step * TS_STRIDE_MS;
        let wrote = w
            .write_all(&line.as_bytes()[..line.len() - 1])
            .and_then(|()| writeln!(w, r#","ts":{ts}}}"#))
            .and_then(|()| if paced { w.flush() } else { Ok(()) });
        if wrote.is_err() {
            report.write_errors += 1;
            break;
        }
        report.sent += 1;
        report.leaves_sent += leaves;
        k += 1;
    }
    let _ = w.flush();
    report
}

/// What one reader thread reports back.
struct ReaderReport {
    counts: Counts,
    ack: LogHistogram,
}

fn reader_loop(
    stream: TcpStream,
    rx: Receiver<Meta>,
    epoch: Instant,
    pending: &Mutex<HashMap<String, u64>>,
) -> ReaderReport {
    // a hung daemon must not hang the harness
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut r = BufReader::with_capacity(1 << 16, stream);
    let mut counts = Counts::default();
    let mut ack = LogHistogram::new();
    let mut line = String::new();
    for meta in rx.iter() {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => {
                // connection gone: this meta and every queued one is lost
                counts.errors += 1 + rx.try_iter().count() as u64;
                break;
            }
            Ok(_) => {}
        }
        let now = epoch.elapsed().as_nanos() as u64;
        let outcome = classify(&line);
        match outcome {
            Outcome::Acked => {
                counts.acked += 1;
                counts.leaves_acked += u64::from(meta.leaves);
                ack.record(now.saturating_sub(meta.ref_ns));
            }
            Outcome::Parked => counts.parked += 1,
            Outcome::Quarantined => counts.quarantined += 1,
            Outcome::Shed => counts.shed += 1,
            Outcome::Duplicate => counts.duplicates += 1,
            Outcome::Error => counts.errors += 1,
        }
        if meta.anomalous && outcome == Outcome::Acked {
            if let Some(token) = frame_token(&line) {
                let mut map = pending.lock().unwrap_or_else(|p| p.into_inner());
                map.insert(token.to_string(), meta.ref_ns);
            }
        }
    }
    ReaderReport { counts, ack }
}

/// What the incident poller reports back.
struct PollerReport {
    e2e: LogHistogram,
    incidents_seen: u64,
}

fn poller_loop(
    mut control: Control,
    epoch: Instant,
    interval: Duration,
    done: &AtomicBool,
    pending: &Mutex<HashMap<String, u64>>,
) -> PollerReport {
    let mut e2e = LogHistogram::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    loop {
        let finishing = done.load(Ordering::Acquire);
        if let Ok(reply) = control.request(r#"{"type":"incidents","limit":512}"#) {
            let now = epoch.elapsed().as_nanos() as u64;
            if let Ok(doc) = parse(reply.trim()) {
                for incident in doc.get("incidents").and_then(Json::as_arr).unwrap_or(&[]) {
                    let Some(token) = incident.get("frame").and_then(Json::as_str) else {
                        continue;
                    };
                    if !seen.insert(token.to_string()) {
                        continue;
                    }
                    let ref_ns = {
                        let mut map = pending.lock().unwrap_or_else(|p| p.into_inner());
                        map.remove(token)
                    };
                    if let Some(ref_ns) = ref_ns {
                        e2e.record(now.saturating_sub(ref_ns));
                    }
                }
            }
        }
        if finishing {
            // that was the post-flush final poll
            break;
        }
        std::thread::sleep(interval);
    }
    PollerReport {
        e2e,
        incidents_seen: seen.len() as u64,
    }
}

/// Round nanoseconds to microseconds.
fn us(ns: u64) -> f64 {
    ((ns + 500) / 1_000) as f64
}

/// The quantile block of one histogram, in microseconds.
fn quantiles_us(h: &LogHistogram) -> Json {
    Json::Obj(vec![
        ("p50".to_string(), Json::Num(us(h.quantile(0.5)))),
        ("p90".to_string(), Json::Num(us(h.quantile(0.9)))),
        ("p99".to_string(), Json::Num(us(h.quantile(0.99)))),
        ("p999".to_string(), Json::Num(us(h.quantile(0.999)))),
        ("max".to_string(), Json::Num(us(h.max_ns()))),
        ("mean".to_string(), Json::Num(us(h.mean_ns()))),
        ("count".to_string(), Json::Num(h.count() as f64)),
    ])
}

/// Drop the `"timing"` subtree — everything left must be identical
/// across two runs with the same config (the determinism contract).
pub fn summary_without_timing(summary: &Json) -> Json {
    match summary {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "timing")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Drive `book` at `config` against a live rapd listener and return the
/// summary document. Blocking; one writer + one reader thread per
/// connection plus an incident poller.
pub fn run(config: &LoadConfig, book: &FrameBook) -> Result<Json, String> {
    let connections = config.connections.min(book.tenants.len()).max(1);

    // register every tenant and snapshot the daemon's counters
    let mut control = Control::connect(&config.addr)?;
    for tenant in &book.tenants {
        let reply = control.request(&tenant.schema_line)?;
        if !reply.contains(r#""type":"ok""#) {
            return Err(format!(
                "schema registration for {} refused: {}",
                tenant.tenant,
                reply.trim()
            ));
        }
    }
    let before = control.stats()?;

    // connection c owns tenants t with t % connections == c
    let assigned: Vec<Vec<&TenantBook>> = (0..connections)
        .map(|c| {
            book.tenants
                .iter()
                .enumerate()
                .filter(|(t, _)| t % connections == c)
                .map(|(_, b)| b)
                .collect()
        })
        .collect();
    let mut sockets = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = TcpStream::connect(&config.addr)
            .map_err(|e| format!("connect sender to {}: {e}", config.addr))?;
        stream.set_nodelay(true).ok();
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone sender stream: {e}"))?;
        sockets.push((stream, read_half));
    }
    let poller_control = Control::connect(&config.addr)?;

    let pending: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let done = AtomicBool::new(false);
    let epoch = Instant::now();

    let (writers, readers, poll) = std::thread::scope(|scope| {
        let mut writer_handles = Vec::with_capacity(connections);
        let mut reader_handles = Vec::with_capacity(connections);
        for (conn, ((write_half, read_half), mine)) in sockets.into_iter().zip(assigned).enumerate()
        {
            let (tx, rx) = sync_channel::<Meta>(PIPELINE_DEPTH);
            let pending = &pending;
            writer_handles.push(scope.spawn(move || {
                writer_loop(write_half, tx, mine, epoch, conn, connections, config)
            }));
            reader_handles.push(scope.spawn(move || reader_loop(read_half, rx, epoch, pending)));
        }
        let poll_handle = {
            let done = &done;
            let pending = &pending;
            let interval = Duration::from_millis(config.poll_interval_ms.max(1));
            scope.spawn(move || poller_loop(poller_control, epoch, interval, done, pending))
        };

        let writers: Vec<WriterReport> = writer_handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect();
        let readers: Vec<ReaderReport> = reader_handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        // every frame is acked — barrier the daemon (waits for parked
        // frames in fleet mode), then let the poller take its final look
        let flush = control.request(r#"{"type":"flush"}"#);
        if let Ok(reply) = &flush {
            if !reply.contains(r#""type":"ok""#) {
                eprintln!("loadgen: flush barrier refused: {}", reply.trim());
            }
        }
        done.store(true, Ordering::Release);
        let poll = poll_handle.join().expect("poller panicked");
        (writers, readers, poll)
    });
    let elapsed = epoch.elapsed().as_secs_f64();

    let after = control.stats()?;
    let daemon = DaemonTotals::delta(&after, &before);

    let sent: u64 = writers.iter().map(|w| w.sent).sum();
    let leaves_sent: u64 = writers.iter().map(|w| w.leaves_sent).sum();
    let behind_max_ns = writers.iter().map(|w| w.behind_max_ns).max().unwrap_or(0);
    let write_errors: u64 = writers.iter().map(|w| w.write_errors).sum();
    let mut counts = Counts::default();
    let mut ack = LogHistogram::new();
    for r in &readers {
        counts.merge(&r.counts);
        ack.merge(&r.ack);
    }

    // client ledger: every sent frame landed in exactly one bucket
    let client_reconciled = counts.total() == sent && write_errors == 0;
    // daemon ledger: its intake equals what we were told was accepted
    // (parked frames are redelivered and ingested before flush returns;
    // duplicates and sheds never count as ingested)
    let daemon_reconciled = daemon.ingested == counts.acked + counts.parked + counts.quarantined
        && daemon.router_shed == counts.shed
        && daemon.invariant_holds();

    let offered_rate = config.rate;
    let summary = Json::Obj(vec![
        ("type".to_string(), Json::str("loadgen_summary")),
        (
            "config".to_string(),
            Json::Obj(vec![
                ("connections".to_string(), Json::Num(connections as f64)),
                ("rate".to_string(), Json::Num(offered_rate)),
                (
                    "total_frames".to_string(),
                    Json::Num(config.total_frames as f64),
                ),
                ("duration_secs".to_string(), Json::Num(config.duration_secs)),
                (
                    "tenants".to_string(),
                    Json::Num(config.synth.tenants as f64),
                ),
                ("steps".to_string(), Json::Num(config.synth.steps as f64)),
                ("seed".to_string(), Json::Num(config.synth.seed as f64)),
                (
                    "topology".to_string(),
                    Json::str(format!(
                        "{}x{}x{}x{}",
                        config.synth.locations,
                        config.synth.access_types,
                        config.synth.oses,
                        config.synth.websites
                    )),
                ),
                (
                    "avg_leaves_per_frame".to_string(),
                    Json::Num(book.avg_leaves_per_frame()),
                ),
            ]),
        ),
        (
            "accounting".to_string(),
            Json::Obj(vec![
                ("sent".to_string(), Json::Num(sent as f64)),
                ("leaves_sent".to_string(), Json::Num(leaves_sent as f64)),
                ("acked".to_string(), Json::Num(counts.acked as f64)),
                (
                    "leaves_acked".to_string(),
                    Json::Num(counts.leaves_acked as f64),
                ),
                ("parked".to_string(), Json::Num(counts.parked as f64)),
                (
                    "quarantined".to_string(),
                    Json::Num(counts.quarantined as f64),
                ),
                ("shed".to_string(), Json::Num(counts.shed as f64)),
                (
                    "duplicates".to_string(),
                    Json::Num(counts.duplicates as f64),
                ),
                ("errors".to_string(), Json::Num(counts.errors as f64)),
                ("write_errors".to_string(), Json::Num(write_errors as f64)),
                (
                    "client_reconciled".to_string(),
                    Json::Bool(client_reconciled),
                ),
            ]),
        ),
        (
            "daemon".to_string(),
            Json::Obj(vec![
                ("workers".to_string(), Json::Num(daemon.workers as f64)),
                ("ingested".to_string(), Json::Num(daemon.ingested as f64)),
                ("processed".to_string(), Json::Num(daemon.processed as f64)),
                ("dropped".to_string(), Json::Num(daemon.dropped as f64)),
                ("shed".to_string(), Json::Num(daemon.shed as f64)),
                (
                    "quarantined".to_string(),
                    Json::Num(daemon.quarantined as f64),
                ),
                (
                    "router_shed".to_string(),
                    Json::Num(daemon.router_shed as f64),
                ),
                (
                    "invariant_holds".to_string(),
                    Json::Bool(daemon.invariant_holds()),
                ),
                ("reconciled".to_string(), Json::Bool(daemon_reconciled)),
            ]),
        ),
        (
            "timing".to_string(),
            Json::Obj(vec![
                ("elapsed_secs".to_string(), Json::Num(elapsed)),
                (
                    "sent_frames_per_sec".to_string(),
                    Json::Num(sent as f64 / elapsed.max(1e-9)),
                ),
                (
                    "sustained_leaves_per_sec".to_string(),
                    Json::Num(counts.leaves_acked as f64 / elapsed.max(1e-9)),
                ),
                (
                    "behind_max_ms".to_string(),
                    Json::Num(behind_max_ns as f64 / 1e6),
                ),
                ("ack_us".to_string(), quantiles_us(&ack)),
                ("e2e_us".to_string(), quantiles_us(&poll.e2e)),
                (
                    "incidents_seen".to_string(),
                    Json::Num(poll.incidents_seen as f64),
                ),
            ]),
        ),
    ]);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_reply_zoo() {
        assert_eq!(
            classify(r#"{"type":"ok","queued":true,"frame":"f-1:2","repaired":false}"#),
            Outcome::Acked
        );
        assert_eq!(
            classify(r#"{"type":"ok","queued":false,"quarantined":true,"reason":"late"}"#),
            Outcome::Quarantined
        );
        assert_eq!(
            classify(r#"{"type":"ok","queued":true,"parked":true}"#),
            Outcome::Parked
        );
        assert_eq!(
            classify(r#"{"type":"ok","queued":false,"shed":true}"#),
            Outcome::Shed
        );
        assert_eq!(
            classify(r#"{"type":"ok","queued":true,"duplicate":true}"#),
            Outcome::Duplicate
        );
        assert_eq!(
            classify(r#"{"type":"error","reason":"bad request"}"#),
            Outcome::Error
        );
        assert_eq!(classify(r#"{"type":"ok"}"#), Outcome::Error);
    }

    #[test]
    fn frame_tokens_are_extracted() {
        assert_eq!(
            frame_token(r#"{"type":"ok","queued":true,"frame":"t0-42:7"}"#),
            Some("t0-42:7")
        );
        assert_eq!(frame_token(r#"{"type":"ok","queued":true}"#), None);
    }

    #[test]
    fn fleet_stats_sum_over_workers() {
        let doc = parse(
            r#"{"type":"stats","role":"router","router":{"shed":3},"workers":[
                {"worker":0,"stats":{"frames_ingested":10,"frames_processed":9,"frames_dropped":1,"frames_shed":0,"frames_quarantined":0}},
                {"worker":1,"stats":{"frames_ingested":5,"frames_processed":5,"frames_dropped":0,"frames_shed":0,"frames_quarantined":0}}
            ]}"#,
        )
        .unwrap();
        let t = daemon_totals(&doc);
        assert_eq!(t.ingested, 15);
        assert_eq!(t.processed, 14);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.router_shed, 3);
        assert_eq!(t.workers, 2);
        assert!(t.invariant_holds());
    }

    #[test]
    fn single_stats_read_top_level() {
        let doc = parse(
            r#"{"type":"stats","frames_ingested":7,"frames_processed":6,"frames_dropped":0,"frames_shed":0,"frames_quarantined":1}"#,
        )
        .unwrap();
        let t = daemon_totals(&doc);
        assert_eq!(t.ingested, 7);
        assert_eq!(t.quarantined, 1);
        assert!(t.invariant_holds());
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn from_flags_defaults_and_validates() {
        let mut flags = HashMap::new();
        assert!(LoadConfig::from_flags(&flags).is_err());
        flags.insert("--addr".to_string(), "127.0.0.1:9".to_string());
        let c = LoadConfig::from_flags(&flags).unwrap();
        assert_eq!(c.connections, 2);
        assert_eq!(c.rate, 0.0);
        flags.insert("--rate".to_string(), "2500".to_string());
        flags.insert("--tenants".to_string(), "8".to_string());
        let c = LoadConfig::from_flags(&flags).unwrap();
        assert_eq!(c.rate, 2500.0);
        assert_eq!(c.synth.tenants, 8);
        flags.insert("--rate".to_string(), "speedy".to_string());
        assert!(LoadConfig::from_flags(&flags).is_err());
    }

    #[test]
    fn timing_strip_is_total() {
        let summary = Json::Obj(vec![
            ("type".to_string(), Json::str("loadgen_summary")),
            ("timing".to_string(), Json::Obj(vec![])),
            ("accounting".to_string(), Json::Obj(vec![])),
        ]);
        let stripped = summary_without_timing(&summary);
        assert!(stripped.get("timing").is_none());
        assert!(stripped.get("accounting").is_some());
    }
}
