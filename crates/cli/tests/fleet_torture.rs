//! Fleet fault-tolerance torture of the compiled `rapminer` binary in
//! router mode (`serve --workers N`): a consistent-hash router fronting
//! N supervised worker processes. Proves that
//!
//! * repeated `kill -9` of random workers under seeded traffic loses no
//!   acknowledged frame: the fleet's incident output matches a
//!   single-process run of the same streams exactly,
//! * no incident frame token is spooled twice anywhere in the fleet
//!   (exactly-once across respawns and redeliveries),
//! * the accounting invariant `processed + dropped + shed + quarantined
//!   == ingested` holds on every worker lifetime, and the router sheds
//!   nothing while the park buffer has room,
//! * a live shard handoff moves a tenant between workers mid-stream with
//!   incident output byte-identical to an uninterrupted single-process
//!   run — no frame lost, none double-applied — and a handoff that fails
//!   on either side leaves routing unchanged and is safe to retry,
//! * a worker exits soon after its router is killed, so no orphan keeps
//!   running on the fleet's spool.

use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cdnsim::{named_rows, CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
use mdkpi::Schema;
use service::json::{parse, Json};

/// One rapd process (router or single daemon) plus its ingest address.
struct Daemon {
    child: Child,
    addr: String,
}

/// The `serve` flags shared by every process in this harness, so the
/// fleet and the single-process baseline interpret frames identically.
const SERVE_FLAGS: &[&str] = &[
    "--shards",
    "1",
    "--queue",
    "4096",
    "--history",
    "60",
    "--warmup",
    "15",
    "--alarm-threshold",
    "0.08",
    "--leaf-threshold",
    "0.3",
    "--k",
    "3",
    "--checkpoint-interval-ms",
    "100",
];

/// Spawn `rapminer serve` (single daemon when `workers == 0`, router +
/// worker fleet otherwise) on `spool` and wait for its listener line.
fn spawn(spool: &Path, workers: usize) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rapminer"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
        ])
        .args(SERVE_FLAGS)
        .args([
            "--workers",
            &workers.to_string(),
            "--request-deadline-ms",
            "15000",
            "--spool",
            spool.to_str().expect("utf8 spool path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("rapd spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read rapd stdout");
        assert!(n > 0, "rapd exited before announcing its listener");
        if let Some(rest) = line.strip_prefix("rapd listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("listener address")
                .to_string();
        }
    };
    // drain the rest of stdout so the process never blocks on a full pipe
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                break;
            }
        }
    });
    Daemon { child, addr }
}

/// One NDJSON client connection with line-by-line request/reply helpers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to rapd");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        service::proto::write_line(&mut self.writer, line).expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
    }
}

fn ok(reply: Json) -> Json {
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("ok"),
        "{reply}"
    );
    reply
}

fn schema_line(tenant: &str, schema: &Schema) -> String {
    let attributes = Json::Arr(
        schema
            .attr_ids()
            .map(|a| {
                let attr = schema.attribute(a);
                Json::Arr(vec![
                    Json::str(attr.name()),
                    Json::Arr(
                        attr.element_ids()
                            .map(|e| Json::str(attr.element_name(e)))
                            .collect(),
                    ),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("type".to_string(), Json::str("schema")),
        ("tenant".to_string(), Json::str(tenant)),
        ("attributes".to_string(), attributes),
    ])
    .render()
}

/// An `observe` line with no event timestamp: frames apply in arrival
/// order on both runs, so incident output is comparable byte-for-byte.
fn observe_line(tenant: &str, rows: &[(Vec<String>, f64)]) -> String {
    let rows = Json::Arr(
        rows.iter()
            .map(|(names, v)| {
                Json::Arr(vec![
                    Json::Arr(names.iter().map(Json::str).collect()),
                    Json::Num(*v),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("type".to_string(), Json::str("observe")),
        ("tenant".to_string(), Json::str(tenant)),
        ("rows".to_string(), rows),
    ])
    .render()
}

fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rapd-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

/// One run's worth of wire frames: per step, the named rows of one
/// `observe`.
type WireFrames = Vec<Vec<(Vec<String>, f64)>>;

/// The deterministic per-tenant test stream: cdnsim traffic with an L4
/// outage injected from `fail_at` on.
fn outage_stream(steps: usize, fail_at: usize, seed: u64) -> (Schema, WireFrames) {
    let topology = CdnTopology::small(seed);
    let schema = topology.schema().clone();
    let truth = schema.parse_combination("location=L4").expect("L4 exists");
    let model = TrafficModel::new(topology, TrafficConfig::default(), seed);
    let injector = FailureInjector::new(0.5, 0.9);
    let frames = (0..steps)
        .map(|step| {
            let minute = 2 * 24 * 60 + step;
            let mut frame = model.snapshot(minute);
            if step >= fail_at {
                injector.inject(&mut frame, std::slice::from_ref(&truth), minute as u64);
            }
            named_rows(&frame)
        })
        .collect();
    (schema, frames)
}

/// Read one incident spool directory into canonical incident lines plus
/// frame tokens. Canonical form is `tenant|step|deviation|raps` with full
/// float precision, so equality means byte-identical localization output.
fn spool_incidents(spool: &Path) -> (Vec<String>, Vec<String>) {
    let mut canonical = Vec::new();
    let mut tokens = Vec::new();
    for name in ["incidents.jsonl.1", "incidents.jsonl"] {
        let Ok(text) = std::fs::read_to_string(spool.join(name)) else {
            continue;
        };
        for line in text.lines() {
            let (json, crc) = line.rsplit_once('\t').expect("CRC-framed spool line");
            assert_eq!(crc.len(), 8, "8 hex digits of CRC32: {line}");
            let doc = parse(json).expect("spool lines are valid JSON");
            let tenant = doc.get("tenant").and_then(Json::as_str).unwrap();
            let step = doc.get("step").and_then(Json::as_u64).unwrap();
            let deviation = doc.get("total_deviation").and_then(Json::as_f64).unwrap();
            let raps: Vec<String> = doc
                .get("raps")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|rap| {
                    let pair = rap.as_arr().unwrap();
                    let pattern = pair[0].as_str().unwrap();
                    let score = pair[1].as_f64().unwrap();
                    format!("{pattern}:{score:?}")
                })
                .collect();
            canonical.push(format!("{tenant}|{step}|{deviation:?}|{}", raps.join(",")));
            if let Some(token) = doc.get("frame").and_then(Json::as_str) {
                tokens.push(token.to_string());
            }
        }
    }
    (canonical, tokens)
}

/// Every worker's spooled incidents, merged and sorted into a canonical
/// order for cross-run comparison (each spool is already in emit order;
/// the sort only makes the merge across workers deterministic).
fn fleet_incidents(spool: &Path, workers: usize) -> (Vec<String>, Vec<String>) {
    let mut canonical = Vec::new();
    let mut tokens = Vec::new();
    for worker in 0..workers {
        let (mut c, mut t) = spool_incidents(&spool.join(format!("worker-{worker}")));
        canonical.append(&mut c);
        tokens.append(&mut t);
    }
    canonical.sort();
    tokens.sort();
    (canonical, tokens)
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
}

/// `processed + dropped + shed + quarantined == ingested` — the
/// accounting invariant, which must hold within every worker process
/// lifetime (replayed frames count as ingested again).
fn assert_accounting(stats: &Json) {
    let ingested = stat(stats, "frames_ingested");
    let processed = stat(stats, "frames_processed");
    let dropped = stat(stats, "frames_dropped");
    let shed = stat(stats, "frames_shed");
    let quarantined = stat(stats, "frames_quarantined");
    assert_eq!(
        processed + dropped + shed + quarantined,
        ingested,
        "accounting must balance: {stats}"
    );
}

fn assert_unique_tokens(tokens: &[String]) {
    assert_eq!(
        tokens.iter().collect::<HashSet<_>>().len(),
        tokens.len(),
        "an incident frame token appears twice: {tokens:?}"
    );
}

/// Stream every tenant uninterrupted through one single-process daemon
/// (`--workers 0`), drain gracefully, and return the sorted canonical
/// incidents: the ground truth every fleet run must reproduce. `tag`
/// names the spool directory: tests run in parallel, and two daemons
/// sharing a spool would replay each other's journals.
fn single_process_baseline(
    tag: &str,
    streams: &[(String, Schema, WireFrames)],
) -> (Vec<String>, Vec<String>) {
    let spool = temp_spool(tag);
    let mut daemon = spawn(&spool, 0);
    let mut client = Client::connect(&daemon.addr);
    for (tenant, schema, _) in streams {
        ok(client.request(&schema_line(tenant, schema)));
    }
    let steps = streams[0].2.len();
    for step in 0..steps {
        for (tenant, _, frames) in streams {
            ok(client.request(&observe_line(tenant, &frames[step])));
        }
    }
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);
    ok(client.request(r#"{"type":"shutdown"}"#));
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "graceful drain must exit 0: {status:?}");
    let (mut canonical, mut tokens) = spool_incidents(&spool);
    canonical.sort();
    tokens.sort();
    let _ = std::fs::remove_dir_all(&spool);
    (canonical, tokens)
}

/// The live pid of one fleet worker, read from the router's merged
/// `stats` reply.
fn worker_pid(client: &mut Client, worker: usize) -> Option<u64> {
    let stats = client.request(r#"{"type":"stats"}"#);
    let workers = stats.get("workers").and_then(Json::as_arr)?;
    let entry = workers.iter().find(|w| {
        w.get("worker").and_then(Json::as_u64) == Some(worker as u64)
            && w.get("up").and_then(Json::as_bool) == Some(true)
    })?;
    entry.get("pid").and_then(Json::as_u64)
}

/// Poll the router until every worker is up and nothing is parked, so
/// assertions never race a respawn in flight.
fn await_settled(client: &mut Client, timeout: Duration) -> Json {
    let until = Instant::now() + timeout;
    loop {
        let stats = client.request(r#"{"type":"stats"}"#);
        let workers = stats
            .get("workers")
            .and_then(Json::as_arr)
            .expect("workers");
        let settled = workers.iter().all(|w| {
            w.get("up").and_then(Json::as_bool) == Some(true)
                && w.get("parked").and_then(Json::as_u64) == Some(0)
        });
        if settled {
            return stats;
        }
        assert!(
            Instant::now() < until,
            "fleet never settled after the kills: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killing_random_workers_loses_no_acked_frames() {
    const WORKERS: usize = 3;
    let steps = 80usize;
    let fail_at = 35usize;
    let streams: Vec<(String, Schema, WireFrames)> = (0..4)
        .map(|t| {
            let (schema, frames) = outage_stream(steps, fail_at, 9000 + t as u64);
            (format!("tenant-{t}"), schema, frames)
        })
        .collect();

    // --- the uninterrupted single-process truth ---
    let (baseline, baseline_tokens) = single_process_baseline("kills-baseline", &streams);
    assert!(
        !baseline.is_empty(),
        "the injected outages must spool incidents"
    );
    assert_unique_tokens(&baseline_tokens);

    // --- the fleet run: kill -9 a seeded-random worker three times ---
    let spool = temp_spool("kills");
    let mut daemon = spawn(&spool, WORKERS);
    let mut client = Client::connect(&daemon.addr);
    for (tenant, schema, _) in &streams {
        ok(client.request(&schema_line(tenant, schema)));
    }

    let mut x = 0xf1ee7u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let kill_at = [20usize, 45, 60];
    let mut kills = 0u64;
    for step in 0..steps {
        for (tenant, _, frames) in &streams {
            // strict request/reply: every ack is either a worker's wire
            // ack (journaled in its WAL) or a router parked ack (held for
            // redelivery), so the client never needs to resend
            ok(client.request(&observe_line(tenant, &frames[step])));
        }
        if kill_at.contains(&step) {
            let victim = (next() as usize) % WORKERS;
            let pid = worker_pid(&mut client, victim)
                .unwrap_or_else(|| panic!("worker {victim} has no live pid"));
            let status = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status()
                .expect("spawn kill");
            assert!(status.success(), "kill -9 {pid} failed");
            kills += 1;
            eprintln!("killed worker {victim} (pid {pid}) after step {step}");
        }
    }

    // the supervisor respawns the victims; the pump redelivers parked
    // frames; workers replay their WALs — wait for the dust to settle
    let stats = await_settled(&mut client, Duration::from_secs(30));
    let router = stats.get("router").expect("router counters");
    assert_eq!(
        stat(router, "shed"),
        0,
        "park capacity must absorb three kills: {stats}"
    );
    let respawns: u64 = stats
        .get("workers")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| stat(w, "respawns"))
        .sum();
    assert!(
        respawns >= kills,
        "every kill must respawn: {respawns} respawns for {kills} kills"
    );

    // accounting holds on every current worker lifetime once the flush
    // barrier has drained the replayed and redelivered frames
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    let stats = client.request(r#"{"type":"stats"}"#);
    for worker in stats.get("workers").and_then(Json::as_arr).unwrap() {
        assert_accounting(worker.get("stats").expect("per-worker stats"));
    }
    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "fleet drain must exit 0: {status:?}");

    let (tortured, tokens) = fleet_incidents(&spool, WORKERS);
    // exactly-once: no frame token appears twice anywhere in the fleet
    assert_unique_tokens(&tokens);
    // zero acked-frame loss, no double-application: the tortured fleet's
    // localization output matches the uninterrupted single process
    assert_eq!(
        tortured, baseline,
        "fleet incidents under kill -9 must match the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn live_handoff_is_byte_identical_to_an_uninterrupted_run() {
    const WORKERS: usize = 2;
    let steps = 70usize;
    let fail_at = 30usize;
    let (schema, frames) = outage_stream(steps, fail_at, 20220607);
    let streams = vec![("edge".to_string(), schema.clone(), frames.clone())];

    let (baseline, baseline_tokens) = single_process_baseline("handoff-baseline", &streams);
    assert!(
        !baseline.is_empty(),
        "the injected outage must spool incidents"
    );

    let spool = temp_spool("handoff");
    let mut daemon = spawn(&spool, WORKERS);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", &schema)));
    let split = steps / 2;
    for rows in frames.iter().take(split) {
        ok(client.request(&observe_line("edge", rows)));
    }

    // move the tenant to the other worker mid-stream
    let reply = ok(client.request(r#"{"type":"handoff","tenant":"edge"}"#));
    let from = reply.get("from").and_then(Json::as_u64).expect("from");
    let to = reply.get("to").and_then(Json::as_u64).expect("to");
    assert_ne!(from, to, "the handoff must change workers: {reply}");
    eprintln!(
        "handed off edge from worker {from} to {to}, replayed {} journaled frames",
        reply.get("replayed").and_then(Json::as_u64).unwrap_or(0)
    );

    for rows in frames.iter().skip(split) {
        ok(client.request(&observe_line("edge", rows)));
    }
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    let stats = client.request(r#"{"type":"stats"}"#);
    let router = stats.get("router").expect("router counters");
    assert_eq!(stat(router, "handoffs"), 1, "{stats}");
    assert_eq!(stat(router, "shed"), 0, "{stats}");

    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "fleet drain must exit 0: {status:?}");

    let (handed_off, tokens) = fleet_incidents(&spool, WORKERS);
    assert_unique_tokens(&tokens);
    assert_eq!(
        handed_off, baseline,
        "a live handoff must not change the incident stream"
    );
    // tokens embed the wall-clock mint time so they differ across runs,
    // but the same frames must have produced incidents
    assert_eq!(
        tokens.len(),
        baseline_tokens.len(),
        "the handoff run must ack the same frames into incidents"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// Every worker's `debug` reply for tenant `edge`, in worker order.
fn worker_debug(client: &mut Client) -> Vec<Json> {
    let reply = client.request(r#"{"type":"debug","tenant":"edge"}"#);
    let workers = reply
        .get("workers")
        .and_then(Json::as_arr)
        .expect("workers");
    workers
        .iter()
        .map(|w| w.get("reply").cloned().expect("a worker reply"))
        .collect()
}

/// The one worker that holds tenant `edge` live once every acked frame
/// has been processed.
fn holder(client: &mut Client) -> u64 {
    ok(client.request(r#"{"type":"flush"}"#));
    let holders: Vec<u64> = (0u64..)
        .zip(worker_debug(client))
        .filter(|(_, debug)| {
            let tenants = debug.get("tenants").and_then(Json::as_arr);
            tenants.is_some_and(|t| !t.is_empty())
        })
        .map(|(worker, _)| worker)
        .collect();
    assert_eq!(
        holders.len(),
        1,
        "edge must live on one worker: {holders:?}"
    );
    holders[0]
}

/// A handoff of `edge` that fails: its checkpoint temp path on `worker`
/// is a directory, so that worker cannot write the tenant's snapshot. The
/// reply is an error naming `step`, and routing stays as it was.
fn fail_handoff(client: &mut Client, spool: &Path, worker: u64, step: &str) {
    let blocked = spool.join(format!("worker-{worker}/checkpoints/edge.json.tmp"));
    std::fs::create_dir_all(&blocked).expect("block the snapshot write");
    let reply = client.request(r#"{"type":"handoff","tenant":"edge"}"#);
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );
    let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains(step), "{reply}");
    std::fs::remove_dir(&blocked).expect("unblock the snapshot write");
}

#[test]
fn a_failed_handoff_changes_nothing_and_its_retry_is_byte_identical() {
    const WORKERS: usize = 2;
    let (schema, frames) = outage_stream(70, 30, 20220607);
    let streams = vec![("edge".to_string(), schema.clone(), frames.clone())];
    let (baseline, baseline_tokens) = single_process_baseline("retry-baseline", &streams);

    let spool = temp_spool("retry");
    let mut daemon = spawn(&spool, WORKERS);
    let mut client = Client::connect(&daemon.addr);
    // the router's front door knows no `import` and nests nothing deep
    for line in [
        r#"{"type":"import","tenant":"edge","source":0}"#.to_string(),
        "[".repeat(200_000),
    ] {
        let reply = client.request(&line);
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("error"),
            "{reply}"
        );
    }
    ok(client.request(&schema_line("edge", &schema)));
    let send = |client: &mut Client, steps: std::ops::Range<usize>| {
        for rows in &frames[steps] {
            ok(client.request(&observe_line("edge", rows)));
        }
    };
    send(&mut client, 0..20);
    let a = holder(&mut client);
    let b = 1 - a;
    // (a) the target cannot write the source's final checkpoint
    fail_handoff(&mut client, &spool, b, "target import");
    send(&mut client, 20..25);
    assert_eq!(holder(&mut client), a, "routing is unchanged");
    let reply = ok(client.request(r#"{"type":"handoff","tenant":"edge"}"#));
    assert_eq!(reply.get("from").and_then(Json::as_u64), Some(a), "{reply}");
    send(&mut client, 25..45);
    // (b) the source cannot write its final checkpoint, so keeps the tenant
    fail_handoff(&mut client, &spool, b, "source adopt");
    assert_eq!(
        holder(&mut client),
        b,
        "the tenant stays live on its source"
    );
    send(&mut client, 45..50);
    assert_eq!(holder(&mut client), b, "routing is unchanged");
    // the retry hands the tenant back, A→B→A
    let reply = ok(client.request(r#"{"type":"handoff","tenant":"edge"}"#));
    assert_eq!(reply.get("to").and_then(Json::as_u64), Some(a), "{reply}");
    send(&mut client, 50..70);
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    let stats = client.request(r#"{"type":"stats"}"#);
    let router = stats.get("router").expect("router counters");
    assert_eq!(stat(router, "handoffs"), 2, "{stats}");
    assert_eq!(stat(router, "shed"), 0, "{stats}");
    // every handoff resumed from a snapshot: the one cold start is the
    // tenant's first frame on its first worker, as in the baseline run
    let rewarms: Vec<u64> = worker_debug(&mut client)
        .iter()
        .map(|debug| {
            let durability = debug.get("durability").expect("durability");
            stat(durability, "detector_rewarms")
        })
        .collect();
    assert_eq!((rewarms[a as usize], rewarms[b as usize]), (1, 0));

    ok(client.request(r#"{"type":"shutdown"}"#));
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "fleet drain must exit 0: {status:?}");
    let (handed_off, tokens) = fleet_incidents(&spool, WORKERS);
    assert_unique_tokens(&tokens);
    assert_eq!(
        handed_off, baseline,
        "failed and retried handoffs must not change the incident stream"
    );
    assert_eq!(tokens.len(), baseline_tokens.len());
    let _ = std::fs::remove_dir_all(&spool);
}

/// The one-letter `State:` of process `pid` from `/proc/<pid>/status`;
/// `None` once the pid is gone.
#[cfg(target_os = "linux")]
fn process_state(pid: u64) -> Option<char> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("State:"))
        .and_then(|state| state.trim().chars().next())
}

#[cfg(target_os = "linux")]
#[test]
fn workers_exit_when_their_router_is_killed() {
    let spool = temp_spool("router-kill");
    let mut daemon = spawn(&spool, 1);
    let mut client = Client::connect(&daemon.addr);
    let pid = worker_pid(&mut client, 0).expect("worker 0 is up");
    daemon.child.kill().expect("kill -9 the router");
    daemon.child.wait().expect("reap the router");

    // the worker sees its stdin close, drains, and exits; a zombie
    // counts as exited, since the pid's new parent may never reap it
    let until = Instant::now() + Duration::from_secs(10);
    while !matches!(process_state(pid), None | Some('Z')) {
        if Instant::now() >= until {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            panic!("worker {pid} still runs 10 s after its router was killed");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&spool);
}
