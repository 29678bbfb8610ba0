//! Crash-consistency torture test of the compiled `rapminer` binary:
//! SIGKILL the rapd daemon mid-stream at seeded random points, restart it
//! on the same spool, and prove that
//!
//! * no admitted frame is lost and none is double-applied: incident
//!   output is byte-identical to an uninterrupted run of the same stream,
//! * no incident is spooled twice (frame-token dedup across WAL replays),
//! * the detector resumes from its checkpoint instead of re-warming,
//! * a graceful `shutdown` drain exits 0,
//! * a golden v1 checkpoint written by an earlier build still boots
//!   (forward compatibility is pinned, not assumed).

use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cdnsim::{named_rows, CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
use mdkpi::Schema;
use service::json::{parse, Json};

/// One rapd daemon subprocess plus the ingest address it announced.
struct Daemon {
    child: Child,
    addr: String,
}

/// Spawn `rapminer serve` on `spool` and wait for its listener line.
/// The flags must stay in lockstep with [`golden_config`] — the config
/// guard refuses a checkpoint taken under different knobs.
fn spawn_daemon(spool: &Path) -> Daemon {
    spawn_daemon_with(spool, &[])
}

/// [`spawn_daemon`] plus extra `serve` flags appended after the shared
/// base set (later flags win, so callers can override any base knob).
fn spawn_daemon_with(spool: &Path, extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rapminer"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
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
            "--spool",
            spool.to_str().expect("utf8 spool path"),
        ])
        .args(extra)
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
    // drain the rest of stdout so the daemon never blocks on a full pipe
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

    fn send_line(&mut self, line: &str) {
        service::proto::write_line(&mut self.writer, line).expect("write request");
    }

    fn read_reply(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn request(&mut self, line: &str) -> Json {
        self.send_line(line);
        self.read_reply()
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
    let dir = std::env::temp_dir().join(format!("rapd-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

/// One run's worth of wire frames: per step, the named rows of one
/// `observe`.
type WireFrames = Vec<Vec<(Vec<String>, f64)>>;

/// The deterministic test stream: cdnsim traffic with an L4 outage
/// injected from `fail_at` on.
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

/// Read the incident spool (newest segment last) into canonical incident
/// lines plus the frame tokens, for cross-run comparison and dedup
/// checks. Canonical form is `tenant|step|deviation|raps` with full float
/// precision, so equality means byte-identical localization output.
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

/// Frames currently journaled (and not yet compacted away) for the
/// `edge` tenant.
fn journal_lines(spool: &Path) -> usize {
    std::fs::read_to_string(spool.join("wal").join("edge.jsonl"))
        .map(|text| text.lines().count())
        .unwrap_or(0)
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
}

/// `processed + dropped + shed + quarantined == ingested` — the
/// accounting invariant, which must hold within every process lifetime
/// (replayed frames count as ingested again).
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

/// Stream the whole frame sequence uninterrupted, drain gracefully, and
/// return the spooled incidents. `tag` names the spool directory: tests
/// run in parallel, and two daemons sharing a spool would replay each
/// other's journals.
fn baseline_run(
    tag: &str,
    schema: &Schema,
    frames: &[Vec<(Vec<String>, f64)>],
    extra: &[&str],
) -> (Vec<String>, Vec<String>) {
    let spool = temp_spool(tag);
    let mut daemon = spawn_daemon_with(&spool, extra);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", schema)));
    for rows in frames {
        client.send_line(&observe_line("edge", rows));
    }
    for _ in frames {
        ok(client.read_reply());
    }
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);

    // acceptance: a graceful drain checkpoints, fsyncs, and exits 0
    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(
        reply.get("draining").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "graceful drain must exit 0: {status:?}");

    let incidents = spool_incidents(&spool);
    let _ = std::fs::remove_dir_all(&spool);
    incidents
}

#[test]
fn sigkill_mid_stream_loses_no_frames_and_duplicates_no_incidents() {
    let steps = 140usize;
    let fail_at = 50usize;
    let seed = 20220607u64;
    let (schema, frames) = outage_stream(steps, fail_at, seed);

    // --- the uninterrupted truth ---
    let (baseline, baseline_tokens) = baseline_run("baseline", &schema, &frames, &[]);
    assert!(
        !baseline.is_empty(),
        "the injected outage must spool incidents"
    );
    assert!(
        baseline.iter().any(|line| line.contains("L4")),
        "some incident must localize to the injected L4 outage: {baseline:?}"
    );
    assert_eq!(
        baseline_tokens.iter().collect::<HashSet<_>>().len(),
        baseline_tokens.len(),
        "the uninterrupted run must not duplicate incidents"
    );

    // --- the torture run: SIGKILL at seeded random points, restart on
    // the same spool, resume the stream where it left off ---
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // the tail of the stream is reserved for the deterministic replay
    // phase below; random kills land strictly before it
    const RESERVE: usize = 15;
    let mut kill_at: Vec<usize> = (0..3)
        .map(|_| 10 + (next() as usize) % (steps - RESERVE - 25))
        .collect();
    kill_at.sort_unstable();
    kill_at.dedup();

    let spool = temp_spool("torture");
    let mut daemon = spawn_daemon(&spool);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", &schema)));

    let mut kills = kill_at.iter().copied().peekable();
    let mut total_replayed = 0u64;
    let mut i = 0usize;
    while i < frames.len() - RESERVE {
        // strict request/reply: an acked frame is journaled, so the
        // client never needs to resend and never double-sends
        ok(client.request(&observe_line("edge", &frames[i])));
        i += 1;
        if kills.peek() == Some(&i) {
            kills.next();
            if kills.peek().is_none() {
                // before the last random kill, let the checkpoint ticker
                // cover the state so the restart must prove it restored a
                // checkpoint instead of re-warming
                std::thread::sleep(Duration::from_millis(350));
            }
            let journal = journal_lines(&spool);
            daemon.child.kill().expect("SIGKILL rapd");
            let _ = daemon.child.wait();
            daemon = spawn_daemon(&spool);
            client = Client::connect(&daemon.addr);
            // no schema resend: the WAL journal must restore it
            let stats = client.request(r#"{"type":"stats"}"#);
            eprintln!(
                "kill after {i} frames: journal={journal} replayed={} ingested={}",
                stat(&stats, "replayed_frames"),
                stat(&stats, "frames_ingested"),
            );
            total_replayed += stat(&stats, "replayed_frames");
        }
    }

    // --- deterministic replay coverage ---
    // Random kills can race the 100ms checkpoint ticker: a kill landing
    // right after a compaction finds an empty journal suffix and replays
    // nothing. So if none of them exercised replay, force it: burst a few
    // frames into a fresh incarnation and kill it before the ticker can
    // acknowledge them. The burst takes ~1ms against a 100ms tick, so a
    // lost race is rare; retry on the reserved frames until replay is
    // observed. An incarnation killed before its first tick leaves the
    // previous checkpoint on disk, so restores stay valid and the
    // detector never re-warms.
    let mut attempts = 0;
    while total_replayed == 0 {
        attempts += 1;
        assert!(
            attempts <= 4,
            "could not catch an unacknowledged WAL suffix in {attempts} kills"
        );
        let burst = (i + 3).min(frames.len());
        while i < burst {
            ok(client.request(&observe_line("edge", &frames[i])));
            i += 1;
        }
        let journal = journal_lines(&spool);
        daemon.child.kill().expect("SIGKILL rapd");
        let _ = daemon.child.wait();
        daemon = spawn_daemon(&spool);
        client = Client::connect(&daemon.addr);
        let stats = client.request(r#"{"type":"stats"}"#);
        eprintln!(
            "forced kill after {i} frames: journal={journal} replayed={} ingested={}",
            stat(&stats, "replayed_frames"),
            stat(&stats, "frames_ingested"),
        );
        total_replayed += stat(&stats, "replayed_frames");
    }

    // stream whatever the replay phase left of the reserve
    while i < frames.len() {
        ok(client.request(&observe_line("edge", &frames[i])));
        i += 1;
    }

    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);
    assert!(
        total_replayed > 0,
        "at least one crash must exercise WAL replay"
    );

    // the final process restored a checkpoint rather than re-warming
    let debug = client.request(r#"{"type":"debug"}"#);
    let durability = debug
        .get("durability")
        .unwrap_or_else(|| panic!("debug reply missing durability: {debug}"));
    assert!(
        durability
            .get("checkpoint_restores")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{durability}"
    );
    assert_eq!(
        durability.get("detector_rewarms").and_then(Json::as_u64),
        Some(0),
        "a restart with a valid checkpoint must not re-warm: {durability}"
    );

    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    let status = daemon.child.wait().expect("wait for rapd");
    assert!(status.success(), "graceful drain must exit 0: {status:?}");

    let (tortured, tokens) = spool_incidents(&spool);
    // exactly-once incidents: no frame token appears twice in the spool
    assert_eq!(
        tokens.iter().collect::<HashSet<_>>().len(),
        tokens.len(),
        "an incident frame token appears twice: {tokens:?}"
    );
    // zero admitted-frame loss and no double-application: the tortured
    // run's localization output matches the uninterrupted run exactly
    assert_eq!(
        tortured, baseline,
        "crash/restart incident output must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn sigkill_under_wal_fsync_matches_the_uninterrupted_run() {
    // `--wal-fsync true` makes every journal append durable before the
    // ack. The recovery contract is the same as the buffered default —
    // byte-identical incidents, exactly-once — but the fsync write path
    // (synced appends, synced compaction renames) must survive the same
    // SIGKILL torture, not just the happy path.
    const FSYNC: &[&str] = &["--wal-fsync", "true"];
    let steps = 90usize;
    let fail_at = 40usize;
    let (schema, frames) = outage_stream(steps, fail_at, 20220607);

    let (baseline, _) = baseline_run("fsync-baseline", &schema, &frames, FSYNC);
    assert!(
        !baseline.is_empty(),
        "the injected outage must spool incidents"
    );

    let spool = temp_spool("fsync-torture");
    let mut daemon = spawn_daemon_with(&spool, FSYNC);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", &schema)));
    let kill_at = [25usize, 60];
    let mut total_replayed = 0u64;
    for (i, rows) in frames.iter().enumerate() {
        ok(client.request(&observe_line("edge", rows)));
        if kill_at.contains(&(i + 1)) {
            daemon.child.kill().expect("SIGKILL rapd");
            let _ = daemon.child.wait();
            daemon = spawn_daemon_with(&spool, FSYNC);
            client = Client::connect(&daemon.addr);
            let stats = client.request(r#"{"type":"stats"}"#);
            total_replayed += stat(&stats, "replayed_frames");
            eprintln!(
                "fsync kill after {} frames: replayed={}",
                i + 1,
                stat(&stats, "replayed_frames")
            );
        }
    }

    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);
    eprintln!("fsync torture replayed {total_replayed} frames in total");

    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    assert!(daemon.child.wait().expect("wait").success());

    let (tortured, tokens) = spool_incidents(&spool);
    assert_eq!(
        tokens.iter().collect::<HashSet<_>>().len(),
        tokens.len(),
        "an incident frame token appears twice: {tokens:?}"
    );
    assert_eq!(
        tortured, baseline,
        "fsynced crash/restart incidents must match the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// The committed golden checkpoint: written by `rapminer serve` at the
/// current format version via [`regenerate_golden_checkpoint_fixture`],
/// then pinned in-tree. A future build that cannot boot from it has
/// broken forward compatibility.
fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.jsonl")
}

/// The frames used to produce (and resume past) the golden fixture.
fn golden_stream() -> (Schema, WireFrames) {
    outage_stream(30, usize::MAX, 20220607)
}

#[test]
fn golden_checkpoint_from_a_previous_run_still_boots() {
    let fixture = fixture_path();
    assert!(
        fixture.is_file(),
        "missing {}; run `cargo test -p rapminer-cli --test crash_recovery -- --ignored` to regenerate",
        fixture.display()
    );
    let (schema, frames) = golden_stream();
    let spool = temp_spool("golden");
    std::fs::create_dir_all(spool.join("checkpoints")).expect("checkpoints dir");
    std::fs::copy(&fixture, spool.join("checkpoints").join("edge.json")).expect("plant fixture");

    let mut daemon = spawn_daemon(&spool);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", &schema)));
    // resume past the snapshot: ten more frames must process cleanly
    for rows in frames.iter().take(10) {
        ok(client.request(&observe_line("edge", rows)));
    }
    let reply = ok(client.request(r#"{"type":"flush"}"#));
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    let debug = client.request(r#"{"type":"debug"}"#);
    let durability = debug.get("durability").unwrap();
    assert_eq!(
        durability.get("checkpoint_restores").and_then(Json::as_u64),
        Some(1),
        "the golden checkpoint must restore: {durability}"
    );
    assert_eq!(
        durability.get("detector_rewarms").and_then(Json::as_u64),
        Some(0),
        "{durability}"
    );
    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);

    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    assert!(daemon.child.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&spool);
}

/// Regenerates `crates/cli/tests/fixtures/checkpoint_v1.jsonl` with the
/// current binary. Run manually (`cargo test -p rapminer-cli --test
/// crash_recovery -- --ignored`) when the checkpoint format version is
/// bumped, and commit the result.
#[test]
#[ignore = "writes the golden fixture; run manually on a format bump"]
fn regenerate_golden_checkpoint_fixture() {
    let (schema, frames) = golden_stream();
    let spool = temp_spool("golden-gen");
    let mut daemon = spawn_daemon(&spool);
    let mut client = Client::connect(&daemon.addr);
    ok(client.request(&schema_line("edge", &schema)));
    for rows in &frames {
        ok(client.request(&observe_line("edge", rows)));
    }
    // the graceful drain checkpoints every tenant before the reply
    let reply = ok(client.request(r#"{"type":"shutdown"}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    assert!(daemon.child.wait().expect("wait").success());

    let written = spool.join("checkpoints").join("edge.json");
    std::fs::create_dir_all(fixture_path().parent().unwrap()).expect("fixtures dir");
    std::fs::copy(&written, fixture_path()).expect("copy fixture into the tree");
    let _ = std::fs::remove_dir_all(&spool);
    eprintln!("wrote {}", fixture_path().display());
}
