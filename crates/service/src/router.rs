//! The fleet front door: a consistent-hash router over worker processes.
//!
//! `rapd --workers N` splits the daemon into this router and `N`
//! supervised worker *processes* (the `supervisor` module). Clients keep
//! speaking the single-process NDJSON protocol to the router; behind it:
//!
//! * **Routing.** Tenants map onto workers through a consistent-hash
//!   ring (64 virtual nodes per worker, FNV-1a), overridable per tenant
//!   by the `handoff` verb. All frames of a tenant land on one worker,
//!   so per-tenant ordering and checkpoint locality are preserved.
//! * **Wire protocol.** Router→worker hops speak the length-prefixed
//!   frame protocol of [`crate::proto`]: each request is the client's
//!   line as it arrived behind a short header, and the supervisor checks
//!   each worker's wire version once, in its announce line. Observe
//!   envelopes carry the router-minted [`obs::FrameId`] token and
//!   sequence; workers adopt the token and deduplicate redelivery by
//!   sequence, which is what makes crash redelivery exactly-once.
//! * **Parking.** When a worker is down (its babysitter is respawning
//!   it) or a request errors, observe/schema frames *park* in a bounded
//!   per-worker queue and the client gets an explicit
//!   `{"type":"ok","queued":true,...,"parked":true}` acknowledgement. A
//!   pump thread redelivers parked frames in order once the worker is
//!   back; past the bound, new frames are *shed* with an error reply and
//!   counted — never silently. Parked frames live in router memory: an
//!   acknowledged-as-parked frame survives any *worker* crash but not a
//!   router crash (the documented durability boundary — workers only
//!   ack after their WAL append, the router only parks when it cannot
//!   reach the worker's WAL).
//! * **Control fan-out.** `stats`, `health`, `incidents`, `flush`,
//!   `trace`, `quarantine`, `debug`, `checkpoint`, `shutdown` fan to
//!   every worker and merge the replies, annotated with per-worker
//!   liveness (up/pid/respawns/parked).
//! * **Live handoff.** `{"type":"handoff","tenant":T}` moves a tenant
//!   between workers without losing or duplicating a frame: the source
//!   drains and writes a final checkpoint (the `flush` and `adopt`
//!   verbs), the target takes the tenant over from the source's spool as
//!   boot recovery would (the `import` verb), and the router reroutes.
//!   Every observe holds the routing table shared from its route to its
//!   forward's reply and a handoff holds it exclusively, so no frame can
//!   reach the source after its final checkpoint.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::MetricsServer;
use crate::json::{parse, Json};
use crate::metrics::RouterMetrics;
use crate::proto::{
    self, error_reply, Listener, Request, WireEnvelope, WireRead, READ_POLL, WIRE_REPLY_BOUND,
};
use crate::retry::Backoff;
use crate::server::DrainGate;
use crate::supervisor::{Supervisor, WorkerCommand};
use crate::sync::lock_recover;

/// How often the pump thread retries parked frames.
const PUMP_INTERVAL: Duration = Duration::from_millis(100);

/// Virtual nodes per worker on the consistent-hash ring.
const VNODES: usize = 64;

/// Everything the router needs to run a fleet.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing NDJSON listen address (port 0 picks a free port).
    pub listen: String,
    /// Router Prometheus listener address.
    pub metrics_listen: String,
    /// Number of worker processes.
    pub workers: usize,
    /// Fleet spool root; worker `i` spools under `<root>/worker-<i>/`.
    pub spool_dir: PathBuf,
    /// Maximum accepted request-line size in bytes.
    pub max_frame_bytes: usize,
    /// Parked frames per worker before new frames are shed.
    pub park_capacity: usize,
    /// Per-request deadline on router→worker calls.
    pub request_deadline: Duration,
    /// Bound on the fleet-wide graceful drain (`shutdown` verb).
    pub shutdown_deadline: Duration,
    /// The worker binary (normally `std::env::current_exe()`).
    pub worker_exe: PathBuf,
    /// Worker argv before the per-slot flags, e.g. `["serve", ...]`.
    pub worker_args: Vec<String>,
}

/// Handle on a running router (and its supervised worker fleet).
/// Dropping it (or calling [`RouterHandle::shutdown`]) closes the front
/// door, stops the pump, tears down the fleet, and stops `/metrics` last.
pub struct RouterHandle {
    listener: Listener,
    inner: Arc<Router>,
    pump: Option<JoinHandle<()>>,
    // declared last: fields drop after `Drop::drop`
    metrics_server: MetricsServer,
}

impl RouterHandle {
    /// The bound client-facing address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The bound router metrics address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_server.addr()
    }

    /// Park until a `shutdown` verb drains the fleet; returns whether
    /// the drain was clean (every worker drained and exited in time and
    /// no parked frames were abandoned).
    pub fn wait_for_drain(&self) -> bool {
        self.inner.drain.wait()
    }

    /// Stop the router: close the front door, stop the pump, and tear
    /// down the worker fleet (killing workers still running).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        // abandon in-flight worker requests first, so the front door's
        // connections see the listener's stop flag promptly
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.listener.stop();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        self.inner.supervisor.shutdown(Duration::from_secs(2));
    }
}

/// A live router→worker connection, tagged with the worker generation it
/// was opened to — a socket to a dead generation is discarded.
struct LinkConn {
    stream: TcpStream,
    generation: u64,
}

/// Per-worker connection state and park buffer.
struct WorkerLink {
    conn: Mutex<Option<LinkConn>>,
    /// Frames acknowledged as parked, waiting for the worker to return.
    parked: Mutex<VecDeque<WireEnvelope>>,
}

struct Router {
    config: RouterConfig,
    supervisor: Arc<Supervisor>,
    links: Vec<WorkerLink>,
    ring: Ring,
    /// Per-tenant routing overrides installed by handoffs. An observe or
    /// schema holds them shared from its route to its forward's reply,
    /// and a handoff holds them exclusively throughout — the fence that
    /// keeps frames off the source after its final checkpoint. Never
    /// acquire this while holding `schemas`.
    routing: RwLock<HashMap<String, usize>>,
    /// Tenant → the `(attribute, elements)` pairs of its schema, which a
    /// handoff hands the target with its `import`.
    schemas: Mutex<HashMap<String, proto::SchemaParts>>,
    metrics: Arc<RouterMetrics>,
    /// Set when the handle drops: stops the pump and abandons in-flight
    /// router→worker calls.
    shutdown: AtomicBool,
    drain: DrainGate,
}

/// Spawn the worker fleet and start the router front door.
///
/// # Errors
///
/// Configuration errors (zero workers, a zero request deadline), worker
/// spawn/announce failures, and listener bind failures.
pub fn start_router(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a fleet needs at least one worker (--workers)",
        ));
    }
    if config.request_deadline.is_zero() {
        // every router→worker call would expire before its connect, so
        // the fleet would park each frame and never forward one
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a fleet needs a positive request deadline (--request-deadline-ms)",
        ));
    }
    let metrics = Arc::new(RouterMetrics::new(config.workers));
    let command = WorkerCommand {
        exe: config.worker_exe.clone(),
        args: config.worker_args.clone(),
        spool_root: config.spool_dir.clone(),
    };
    let supervisor = Supervisor::start(command, config.workers, Arc::clone(&metrics))?;
    let metrics_server = {
        let metrics = Arc::clone(&metrics);
        MetricsServer::start_rendered(
            &config.metrics_listen,
            Arc::new(move || metrics.render_prometheus()),
        )?
    };
    let links = (0..config.workers)
        .map(|_| WorkerLink {
            conn: Mutex::new(None),
            parked: Mutex::new(VecDeque::new()),
        })
        .collect();
    let ring = Ring::new(config.workers);
    let listen = config.listen.clone();
    let router = Arc::new(Router {
        config,
        supervisor,
        links,
        ring,
        routing: RwLock::new(HashMap::new()),
        schemas: Mutex::new(HashMap::new()),
        metrics,
        shutdown: AtomicBool::new(false),
        drain: DrainGate::default(),
    });
    let listener = {
        let router = Arc::clone(&router);
        Listener::bind(&listen, "rapd-router", move |stream, stop| {
            handle_client(stream, &router, stop)
        })?
    };
    let pump = {
        let router = Arc::clone(&router);
        std::thread::Builder::new()
            .name("rapd-router-pump".to_string())
            .spawn(move || {
                while !router.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(PUMP_INTERVAL);
                    for worker in 0..router.links.len() {
                        router.drain_parked(worker);
                    }
                }
            })?
    };
    Ok(RouterHandle {
        listener,
        inner: router,
        pump: Some(pump),
        metrics_server,
    })
}

// ---------------------------------------------------------------------
// The consistent-hash ring
// ---------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    // FNV-1a never multiplies after the last byte, so near-identical
    // short keys ("worker-0:1" vs "worker-0:2") differ only in the low
    // bits and would cluster on the ring, which orders by the full u64.
    // Finish with a 64-bit avalanche (splitmix64's finalizer).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// `VNODES` points per worker on a 64-bit ring; a tenant routes to the
/// first point at or after its own hash (wrapping). Adding or removing a
/// worker moves only the tenants whose arcs changed hands.
struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    fn new(workers: usize) -> Ring {
        let mut points = Vec::with_capacity(workers * VNODES);
        for worker in 0..workers {
            for vnode in 0..VNODES {
                points.push((fnv1a(format!("worker-{worker}:{vnode}").as_bytes()), worker));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    fn route(&self, tenant: &str) -> usize {
        let h = fnv1a(tenant.as_bytes());
        let idx = self.points.partition_point(|(p, _)| *p < h);
        self.points[idx % self.points.len()].1
    }
}

// ---------------------------------------------------------------------
// Router→worker requests
// ---------------------------------------------------------------------

impl Router {
    /// The routing overrides, held shared.
    fn routes(&self) -> RwLockReadGuard<'_, HashMap<String, usize>> {
        self.routing.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolve which worker owns a tenant under `routing`.
    fn route(&self, routing: &HashMap<String, usize>, tenant: &str) -> usize {
        routing
            .get(tenant)
            .copied()
            .unwrap_or_else(|| self.ring.route(tenant))
    }

    /// One strict request/reply against a worker over the framed wire
    /// protocol, with a hard deadline: `line` in an envelope, with the
    /// router-minted token and sequence of an observe. Any failure drops
    /// the cached connection so the next request reconnects.
    fn request_worker(
        &self,
        worker: usize,
        line: &str,
        frame: Option<(String, u64)>,
        deadline: Duration,
    ) -> RequestResult {
        let line = line.to_string();
        let payload = WireEnvelope { line, frame }.render();
        let until = Instant::now() + deadline;
        let mut conn_slot = lock_recover(&self.links[worker].conn);
        let snapshot = self.supervisor.snapshot(worker);
        if !snapshot.up {
            *conn_slot = None;
            return Err(format!("worker {worker} is down"));
        }
        if conn_slot
            .as_ref()
            .is_some_and(|c| c.generation != snapshot.generation)
        {
            // socket belongs to a previous incarnation of this worker
            *conn_slot = None;
        }
        if conn_slot.is_none() {
            let Some(addr) = snapshot.addr else {
                return Err(format!("worker {worker} has not announced an address"));
            };
            let stream = connect(&addr, worker, until, &self.shutdown)?;
            *conn_slot = Some(LinkConn {
                stream,
                generation: snapshot.generation,
            });
        }
        let Some(conn) = conn_slot.as_mut() else {
            return Err(format!("worker {worker} has no connection"));
        };
        match wire_call(&mut conn.stream, &payload, until, &self.shutdown) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                *conn_slot = None;
                Err(e)
            }
        }
    }

    /// Fan one request line to every worker; each reply parsed to JSON.
    fn fan(&self, line: &str, deadline: Duration) -> Vec<RequestResult<Json>> {
        (0..self.links.len())
            .map(|worker| {
                self.request_worker(worker, line, None, deadline)
                    .and_then(|reply| parse(&reply).map_err(|e| format!("bad worker reply: {e}")))
            })
            .collect()
    }

    /// Park a frame for a down/unreachable worker — or shed it when the
    /// park buffer is full. Returns the client reply either way.
    fn park_or_shed(&self, worker: usize, line: String, frame: Option<(String, u64)>) -> String {
        let mut parked = lock_recover(&self.links[worker].parked);
        if parked.len() >= self.config.park_capacity {
            self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            let mut pairs = vec![
                ("type".to_string(), Json::str("error")),
                (
                    "reason".to_string(),
                    Json::str(format!(
                        "worker {worker} unavailable and its {}-frame park buffer is full; frame shed",
                        self.config.park_capacity
                    )),
                ),
                ("shed".to_string(), Json::Bool(true)),
            ];
            if let Some((token, _)) = &frame {
                pairs.push(("frame".to_string(), Json::str(token)));
            }
            return Json::Obj(pairs).render();
        }
        let reply = match &frame {
            Some((token, _)) => Json::Obj(vec![
                ("type".to_string(), Json::str("ok")),
                ("queued".to_string(), Json::Bool(true)),
                ("frame".to_string(), Json::str(token)),
                ("parked".to_string(), Json::Bool(true)),
            ]),
            None => Json::Obj(vec![
                ("type".to_string(), Json::str("ok")),
                ("parked".to_string(), Json::Bool(true)),
            ]),
        }
        .render();
        parked.push_back(WireEnvelope { line, frame });
        self.metrics.parked_total.fetch_add(1, Ordering::Relaxed);
        self.metrics.parked_frames.fetch_add(1, Ordering::Relaxed);
        reply
    }

    /// Redeliver a worker's parked frames in order, stopping at the
    /// first failure. Redelivered observes carry their original token
    /// and sequence, so a worker that already admitted one (the reply
    /// was lost, not the frame) acks it as a duplicate — exactly-once.
    fn drain_parked(&self, worker: usize) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let front = lock_recover(&self.links[worker].parked).front().cloned();
            let Some(parked) = front else { return };
            if !self.supervisor.snapshot(worker).up {
                return;
            }
            let deadline = self.config.request_deadline;
            match self.request_worker(worker, &parked.line, parked.frame, deadline) {
                Ok(_) => {
                    lock_recover(&self.links[worker].parked).pop_front();
                    self.metrics.parked_frames.fetch_sub(1, Ordering::Relaxed);
                    self.metrics
                        .frames_forwarded
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => return,
            }
        }
    }

    /// Forward an observe/schema line to its worker, parking behind any
    /// already-parked frames (order) or on failure.
    fn forward(&self, worker: usize, line: &str, frame: Option<(String, u64)>) -> String {
        if !lock_recover(&self.links[worker].parked).is_empty() {
            // frames already parked for this worker must go first
            return self.park_or_shed(worker, line.to_string(), frame);
        }
        let deadline = self.config.request_deadline;
        match self.request_worker(worker, line, frame.clone(), deadline) {
            Ok(reply) => {
                self.metrics
                    .frames_forwarded
                    .fetch_add(1, Ordering::Relaxed);
                reply
            }
            Err(e) => {
                obs::warn(
                    "rapd.router",
                    "forward_failed",
                    &[
                        ("worker", obs::Value::U64(worker as u64)),
                        ("error", obs::Value::Str(e)),
                    ],
                );
                self.park_or_shed(worker, line.to_string(), frame)
            }
        }
    }

    fn parked_len(&self, worker: usize) -> usize {
        lock_recover(&self.links[worker].parked).len()
    }
}

type RequestResult<T = String> = Result<T, String>;

/// Connect to a worker under a capped jittered backoff bounded by the
/// request deadline. A refused connect fails at once: the worker's
/// listener is gone, so the caller parks the frame instead of holding the
/// worker's lane until the deadline, and the pump redelivers it once the
/// replacement worker announces itself.
fn connect(
    addr: &str,
    worker: usize,
    until: Instant,
    shutdown: &AtomicBool,
) -> RequestResult<TcpStream> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| format!("worker {worker} announced a bad address '{addr}': {e}"))?;
    let mut backoff = Backoff::for_client(0xda7a ^ worker as u64);
    let stream = loop {
        let remaining = until.saturating_duration_since(Instant::now());
        if remaining.is_zero() || shutdown.load(Ordering::SeqCst) {
            return Err(format!("worker {worker} connect deadline exceeded"));
        }
        match TcpStream::connect_timeout(&sock, remaining.max(Duration::from_millis(10))) {
            Ok(stream) => break stream,
            Err(e) => {
                let delay = backoff.next_delay();
                if e.kind() == io::ErrorKind::ConnectionRefused || Instant::now() + delay >= until {
                    return Err(format!("worker {worker} connect failed: {e}"));
                }
                std::thread::sleep(delay);
            }
        }
    };
    proto::setup_stream(&stream, Some(READ_POLL)).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One framed request/reply on an established connection.
fn wire_call(
    stream: &mut TcpStream,
    payload: &str,
    until: Instant,
    shutdown: &AtomicBool,
) -> RequestResult {
    proto::write_wire_frame(stream, payload.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let keep_waiting = || Instant::now() < until && !shutdown.load(Ordering::SeqCst);
    match proto::read_wire_frame(stream, WIRE_REPLY_BOUND, keep_waiting) {
        Ok(WireRead::Frame(bytes)) => {
            String::from_utf8(bytes).map_err(|_| "worker reply was not UTF-8".to_string())
        }
        Ok(WireRead::Eof) => Err("worker closed the connection".to_string()),
        Ok(WireRead::Idle) => Err("request deadline exceeded".to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

// ---------------------------------------------------------------------
// The client-facing NDJSON front door
// ---------------------------------------------------------------------

fn handle_client(stream: TcpStream, router: &Router, stop: &AtomicBool) {
    proto::serve_lines(
        stream,
        router.config.max_frame_bytes,
        stop,
        &router.metrics.protocol_errors,
        |line| dispatch_router(line, router),
    );
}

/// Route one client request line: data verbs to their tenant's worker,
/// control verbs fanned to the fleet, fleet verbs handled here. An
/// observe's rows are checked, so the router rejects what a worker would
/// have, but kept nowhere: routing needs only the tenant.
fn dispatch_router(line: &str, router: &Router) -> String {
    let request = match proto::read_request(line, router.config.max_frame_bytes, |_| ()) {
        Ok(request) => request,
        Err(e) => {
            router
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return e.to_reply();
        }
    };
    let deadline = router.config.request_deadline;
    match request {
        Request::Observe { tenant, .. } => {
            let id = obs::FrameId::mint(&tenant);
            let routing = router.routes();
            let worker = router.route(&routing, &tenant);
            router.forward(worker, line, Some((id.as_str().to_string(), id.seq())))
        }
        Request::Schema { tenant, attributes } => {
            // cache before routing — never hold `schemas` while taking
            // the routing lock (a handoff holds them the other way)
            lock_recover(&router.schemas).insert(tenant.clone(), attributes);
            let routing = router.routes();
            let worker = router.route(&routing, &tenant);
            router.forward(worker, line, None)
        }
        Request::Adopt { ref tenant } => {
            let worker = router.route(&router.routes(), tenant);
            router
                .request_worker(worker, line, None, deadline)
                .unwrap_or_else(|e| error_reply(&format!("adopt failed on worker {worker}: {e}")))
        }
        Request::Handoff { tenant, worker } => handoff(router, &tenant, worker),
        Request::Flush => flush_fleet(router, deadline),
        Request::Stats => stats_fleet(router, deadline),
        Request::Health => health_fleet(router, deadline),
        Request::Incidents { limit } => incidents_fleet(router, line, limit, deadline),
        Request::Trace { .. } => wrap_fleet(router, line, "trace", deadline),
        Request::Quarantine { .. } => wrap_fleet(router, line, "quarantine", deadline),
        Request::Debug { .. } => wrap_fleet(router, line, "debug", deadline),
        Request::Checkpoint => {
            let results = router.fan(r#"{"type":"checkpoint"}"#, deadline);
            match results.iter().find_map(|r| r.as_ref().err()) {
                Some(e) => error_reply(&format!("checkpoint failed: {e}")),
                None => Json::Obj(vec![
                    ("type".to_string(), Json::str("ok")),
                    ("checkpointed".to_string(), Json::Bool(true)),
                    ("workers".to_string(), Json::Num(results.len() as f64)),
                ])
                .render(),
            }
        }
        Request::Shutdown => shutdown_fleet(router),
    }
}

// ---------------------------------------------------------------------
// Fanned control verbs
// ---------------------------------------------------------------------

fn flush_fleet(router: &Router, deadline: Duration) -> String {
    // a flush is a barrier over everything acknowledged, which includes
    // parked frames — wait for the pump to land them first
    let until = Instant::now() + deadline;
    loop {
        let parked: usize = (0..router.links.len()).map(|w| router.parked_len(w)).sum();
        if parked == 0 {
            break;
        }
        if Instant::now() >= until {
            return error_reply(&format!(
                "flush timed out with {parked} frames still parked for unavailable workers"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let results = router.fan(r#"{"type":"flush"}"#, deadline);
    match results.iter().find_map(|r| r.as_ref().err()) {
        Some(e) => error_reply(&format!("flush failed: {e}")),
        None => Json::Obj(vec![
            ("type".to_string(), Json::str("ok")),
            ("flushed".to_string(), Json::Bool(true)),
            ("workers".to_string(), Json::Num(results.len() as f64)),
        ])
        .render(),
    }
}

/// Per-worker liveness fields shared by the merged control replies.
fn worker_entry(router: &Router, worker: usize) -> Vec<(String, Json)> {
    let snap = router.supervisor.snapshot(worker);
    vec![
        ("worker".to_string(), Json::Num(worker as f64)),
        ("up".to_string(), Json::Bool(snap.up)),
        (
            "pid".to_string(),
            snap.pid.map_or(Json::Null, |p| Json::Num(f64::from(p))),
        ),
        ("respawns".to_string(), Json::Num(snap.respawns as f64)),
        (
            "parked".to_string(),
            Json::Num(router.parked_len(worker) as f64),
        ),
    ]
}

fn stats_fleet(router: &Router, deadline: Duration) -> String {
    let results = router.fan(r#"{"type":"stats"}"#, deadline);
    let workers: Vec<Json> = results
        .into_iter()
        .enumerate()
        .map(|(worker, result)| {
            let mut pairs = worker_entry(router, worker);
            pairs.push((
                "stats".to_string(),
                match result {
                    Ok(json) => json,
                    Err(e) => parse(&error_reply(&e)).unwrap_or(Json::Null),
                },
            ));
            Json::Obj(pairs)
        })
        .collect();
    let m = &router.metrics;
    let load = |a: &std::sync::atomic::AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
    Json::Obj(vec![
        ("type".to_string(), Json::str("stats")),
        ("role".to_string(), Json::str("router")),
        (
            "router".to_string(),
            Json::Obj(vec![
                ("frames_forwarded".to_string(), load(&m.frames_forwarded)),
                ("parked".to_string(), load(&m.parked_frames)),
                ("parked_total".to_string(), load(&m.parked_total)),
                ("shed".to_string(), load(&m.shed_total)),
                ("handoffs".to_string(), load(&m.handoffs)),
                ("handoff_replayed".to_string(), load(&m.handoff_replayed)),
                ("protocol_errors".to_string(), load(&m.protocol_errors)),
            ]),
        ),
        ("workers".to_string(), Json::Arr(workers)),
    ])
    .render()
}

fn health_fleet(router: &Router, deadline: Duration) -> String {
    let results = router.fan(r#"{"type":"health"}"#, deadline);
    let mut degraded = false;
    let mut workers_down: Vec<Json> = Vec::new();
    let workers: Vec<Json> = results
        .into_iter()
        .enumerate()
        .map(|(worker, result)| {
            let snap = router.supervisor.snapshot(worker);
            if !snap.up {
                degraded = true;
                workers_down.push(Json::Num(worker as f64));
            }
            let health = match result {
                Ok(json) => {
                    if json.get("status").and_then(Json::as_str) != Some("ok") {
                        degraded = true;
                    }
                    json
                }
                Err(e) => {
                    degraded = true;
                    parse(&error_reply(&e)).unwrap_or(Json::Null)
                }
            };
            let mut pairs = worker_entry(router, worker);
            pairs.push(("health".to_string(), health));
            Json::Obj(pairs)
        })
        .collect();
    let shed = router.metrics.shed_total.load(Ordering::Relaxed);
    if shed > 0 {
        degraded = true;
    }
    Json::Obj(vec![
        ("type".to_string(), Json::str("health")),
        ("role".to_string(), Json::str("router")),
        (
            "status".to_string(),
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("workers_down".to_string(), Json::Arr(workers_down)),
        ("shed".to_string(), Json::Num(shed as f64)),
        ("workers".to_string(), Json::Arr(workers)),
    ])
    .render()
}

fn incidents_fleet(router: &Router, line: &str, limit: usize, deadline: Duration) -> String {
    let results = router.fan(line, deadline);
    let mut incidents: Vec<Json> = Vec::new();
    for json in results.into_iter().flatten() {
        if let Some(items) = json.get("incidents").and_then(Json::as_arr) {
            incidents.extend(items.iter().cloned());
        }
    }
    incidents.truncate(limit);
    Json::Obj(vec![
        ("type".to_string(), Json::str("incidents")),
        ("incidents".to_string(), Json::Arr(incidents)),
    ])
    .render()
}

/// Generic fan-and-wrap for verbs whose replies don't merge naturally
/// (`trace`, `quarantine`, `debug`): the reply carries every worker's
/// own reply under its liveness entry.
fn wrap_fleet(router: &Router, line: &str, verb: &str, deadline: Duration) -> String {
    let results = router.fan(line, deadline);
    let workers: Vec<Json> = results
        .into_iter()
        .enumerate()
        .map(|(worker, result)| {
            let mut pairs = worker_entry(router, worker);
            pairs.push((
                "reply".to_string(),
                match result {
                    Ok(json) => json,
                    Err(e) => parse(&error_reply(&e)).unwrap_or(Json::Null),
                },
            ));
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::str(verb)),
        ("role".to_string(), Json::str("router")),
        ("workers".to_string(), Json::Arr(workers)),
    ])
    .render()
}

fn shutdown_fleet(router: &Router) -> String {
    router.supervisor.begin_shutdown();
    let until = Instant::now() + router.config.shutdown_deadline;
    // last chance for parked frames while the workers are still up
    for worker in 0..router.links.len() {
        router.drain_parked(worker);
    }
    let mut clean = true;
    for worker in 0..router.links.len() {
        let remaining = until.saturating_duration_since(Instant::now());
        let shutdown = r#"{"type":"shutdown"}"#;
        let deadline = remaining.max(Duration::from_millis(10));
        match router.request_worker(worker, shutdown, None, deadline) {
            Ok(reply) => {
                let ok = parse(&reply)
                    .ok()
                    .and_then(|j| j.get("type").and_then(Json::as_str).map(|t| t == "ok"))
                    .unwrap_or(false);
                clean &= ok;
            }
            Err(e) => {
                clean = false;
                obs::warn(
                    "rapd.router",
                    "worker_shutdown_failed",
                    &[
                        ("worker", obs::Value::U64(worker as u64)),
                        ("error", obs::Value::Str(e)),
                    ],
                );
            }
        }
    }
    let graceful = router
        .supervisor
        .shutdown(until.saturating_duration_since(Instant::now()));
    clean &= graceful;
    let abandoned: usize = (0..router.links.len()).map(|w| router.parked_len(w)).sum();
    if abandoned > 0 {
        clean = false;
        router
            .metrics
            .shed_total
            .fetch_add(abandoned as u64, Ordering::Relaxed);
        obs::warn(
            "rapd.router",
            "parked_frames_abandoned_at_shutdown",
            &[("frames", obs::Value::U64(abandoned as u64))],
        );
    }
    router.drain.signal(clean);
    Json::Obj(vec![
        ("type".to_string(), Json::str("ok")),
        ("draining".to_string(), Json::Bool(true)),
        ("workers".to_string(), Json::Num(router.links.len() as f64)),
    ])
    .render()
}

// ---------------------------------------------------------------------
// Live shard handoff
// ---------------------------------------------------------------------

/// Move one tenant from its current worker to `target` (or the next
/// worker on the ring). Holds the routing table exclusively, and every
/// observe holds it shared from its route to its forward's reply, so no
/// frame can reach the source after its final checkpoint.
///
/// The protocol, each step going on only on its reply's confirmation:
/// 1. `flush` the source (drains its shard queues): `flushed: true`;
/// 2. `adopt` on the source — drains the tenant's reorder buffer through
///    the pipeline, writes a *final* checkpoint whose `wal_ack` equals the
///    consumed watermark, compacts the WAL to it, and forgets the live
///    state: `adopted: true` once that checkpoint is on disk;
/// 3. `import` on the target — it takes the tenant over from the source's
///    spool as boot recovery would, with the schema the router cached;
/// 4. install the routing override (or drop it when the ring already
///    agrees) and resume routing.
///
/// A failed step leaves routing unchanged, and a retry's import rewrites
/// whatever a failed one left. Because the final checkpoint round-trips
/// bit-identically and the suffix replays with adopted tokens, the
/// incident stream is byte-identical to a run that never handed off.
fn handoff(router: &Router, tenant: &str, target: Option<usize>) -> String {
    let workers = router.links.len();
    let mut routing = router
        .routing
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let source = router.route(&routing, tenant);
    let target = target.unwrap_or((source + 1) % workers);
    if target >= workers {
        return error_reply(&format!(
            "handoff target {target} out of range (fleet has {workers} workers)"
        ));
    }
    let reply = |replayed: u64| {
        vec![
            ("type".to_string(), Json::str("ok")),
            ("handoff".to_string(), Json::str(tenant)),
            ("from".to_string(), Json::Num(source as f64)),
            ("to".to_string(), Json::Num(target as f64)),
            ("replayed".to_string(), Json::Num(replayed as f64)),
        ]
    };
    if source == target {
        let mut noop = reply(0);
        noop.push(("noop".to_string(), Json::Bool(true)));
        return Json::Obj(noop).render();
    }
    for worker in [source, target] {
        if !router.supervisor.snapshot(worker).up {
            return error_reply(&format!("handoff refused: worker {worker} is down"));
        }
        if router.parked_len(worker) > 0 {
            return error_reply(&format!(
                "handoff refused: worker {worker} has parked frames pending redelivery"
            ));
        }
    }
    // one protocol step: the reply must carry `key`, `true` when a flag
    let step = |worker: usize, line: &str, key: &str| -> RequestResult<Json> {
        let reply = router.request_worker(worker, line, None, router.config.request_deadline)?;
        match parse(&reply) {
            Ok(doc) if !matches!(doc.get(key), None | Some(Json::Bool(false))) => Ok(doc),
            _ => Err(reply),
        }
    };
    let result = (|| -> RequestResult<u64> {
        step(source, r#"{"type":"flush"}"#, "flushed").map_err(|e| format!("source flush: {e}"))?;
        let adopt = format!(r#"{{"type":"adopt","tenant":{}}}"#, Json::str(tenant));
        step(source, &adopt, "adopted").map_err(|e| format!("source adopt: {e}"))?;
        let schema = lock_recover(&router.schemas).get(tenant).cloned();
        let import = proto::import_line(tenant, source, schema.as_deref());
        let reply = step(target, &import, "replayed").map_err(|e| format!("target import: {e}"))?;
        Ok(reply.get("replayed").and_then(Json::as_u64).unwrap_or(0))
    })();
    match result {
        Ok(replayed) => {
            if router.ring.route(tenant) == target {
                routing.remove(tenant);
            } else {
                routing.insert(tenant.to_string(), target);
            }
            router.metrics.handoffs.fetch_add(1, Ordering::Relaxed);
            router
                .metrics
                .handoff_replayed
                .fetch_add(replayed, Ordering::Relaxed);
            obs::info(
                "rapd.router",
                "tenant_handed_off",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("from", obs::Value::U64(source as u64)),
                    ("to", obs::Value::U64(target as u64)),
                    ("replayed", obs::Value::U64(replayed)),
                ],
            );
            Json::Obj(reply(replayed)).render()
        }
        Err(e) => error_reply(&format!("handoff failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn a_refused_connect_fails_without_waiting_out_the_deadline() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve a port")
            .to_string();
        // the listener is dropped, so connecting to its port is refused
        let start = Instant::now();
        let result = connect(
            &addr,
            0,
            start + Duration::from_secs(5),
            &AtomicBool::new(false),
        );
        assert!(result.is_err(), "nothing listens on {addr}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a refused connect held the lane for {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_zero_request_deadline_is_refused_before_any_worker_spawns() {
        let config = RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            metrics_listen: "127.0.0.1:0".to_string(),
            workers: 1,
            spool_dir: std::env::temp_dir().join("rapd-router-zero-deadline"),
            max_frame_bytes: 1 << 20,
            park_capacity: 8,
            request_deadline: Duration::ZERO,
            shutdown_deadline: Duration::from_secs(1),
            // spawning this would fail with NotFound, not InvalidInput
            worker_exe: PathBuf::from("/nonexistent/rapd-worker"),
            worker_args: vec!["serve".to_string()],
        };
        let err = match start_router(config) {
            Err(e) => e,
            Ok(_) => panic!("a zero request deadline must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("request deadline"), "{err}");
    }

    #[test]
    fn the_ring_is_deterministic_and_total() {
        let ring = Ring::new(3);
        assert_eq!(ring.points.len(), 3 * VNODES);
        for tenant in ["edge", "core", "eu-west", "tenant-42", ""] {
            let w = ring.route(tenant);
            assert!(w < 3);
            assert_eq!(w, ring.route(tenant), "routing must be stable");
            assert_eq!(w, Ring::new(3).route(tenant), "and rebuild-stable");
        }
    }

    #[test]
    fn the_ring_spreads_tenants() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.route(&format!("tenant-{i}"))] += 1;
        }
        for (worker, count) in counts.iter().enumerate() {
            assert!(
                (100..=500).contains(count),
                "worker {worker} owns {count} of 1000 tenants — the ring is badly skewed"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_few_tenants() {
        let before = Ring::new(4);
        let after = Ring::new(5);
        let moved = (0..1000)
            .filter(|i| {
                let t = format!("tenant-{i}");
                before.route(&t) != after.route(&t)
            })
            .count();
        // naive modulo hashing would move ~80%; consistent hashing
        // should move roughly 1/5th
        assert!(moved < 400, "{moved} of 1000 tenants moved");
    }
}
