//! Fault-injection suite: boot rapd, inject faults through the `obs::fail`
//! failpoints, and assert the daemon degrades exactly as designed —
//! quarantined pipelines, ring-only spool fallback, deadline-bounded
//! localization behind a circuit breaker, respawned workers, and torn-tail
//! spool recovery. Every scenario re-checks the accounting invariant
//! `processed + dropped + shed + quarantined == ingested`.
//!
//! Requires `--features fail`; without it this file compiles to nothing.
#![cfg(feature = "fail")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use obs::fail::{self, Action};
use service::json::{parse, Json};
use service::ServiceConfig;

/// Failpoints are process-global, so scenarios must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fail::reset();
    guard
}

/// One NDJSON client connection with line-by-line request/reply helpers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
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

    fn register(&mut self, tenant: &str) {
        let reply = self.request(&format!(
            r#"{{"type":"schema","tenant":"{tenant}","attributes":[["loc",["L1","L2"]],["svc",["S1","S2"]]]}}"#
        ));
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
    }

    /// Send one snapshot with total volume `v` spread over the 4 leaves.
    fn observe(&mut self, tenant: &str, v: f64) {
        let leaf = v / 4.0;
        let reply = self.request(&format!(
            r#"{{"type":"observe","tenant":"{tenant}","rows":[[["L1","S1"],{leaf}],[["L1","S2"],{leaf}],[["L2","S1"],{leaf}],[["L2","S2"],{leaf}]]}}"#
        ));
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply:?}"
        );
    }

    fn flush(&mut self) {
        let reply = self.request(r#"{"type":"flush"}"#);
        assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    }

    fn stats(&mut self) -> Json {
        self.request(r#"{"type":"stats"}"#)
    }

    fn health(&mut self) -> Json {
        self.request(r#"{"type":"health"}"#)
    }
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read http response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("http header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    body.to_string()
}

/// First sample value of a metric family in a Prometheus text body.
fn metric_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
}

fn num(doc: &Json, field: &str) -> f64 {
    doc.get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no numeric {field} in {doc:?}"))
}

/// Every post-warmup frame collapses far below the forecast, and because
/// anomalous frames are excluded from the history the alarms (hence
/// pipeline failures under injection) are consecutive.
fn collapsing_value(i: usize) -> f64 {
    1000.0 * 0.5f64.powi(i as i32)
}

/// Single-shard config tuned so frame 0 is warmup and every later frame
/// alarms; the breaker is off unless a scenario turns it on.
fn touchy_config() -> ServiceConfig {
    ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_capacity: 1024,
        forecast_window: 2,
        breaker_threshold: 0,
        pipeline: pipeline::PipelineConfig {
            history_len: 8,
            warmup: 1,
            alarm_threshold: 0.01,
            leaf_threshold: 0.01,
            k: 1,
            ..pipeline::PipelineConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn assert_invariant(stats: &Json) {
    assert_eq!(
        num(stats, "frames_processed")
            + num(stats, "frames_dropped")
            + num(stats, "frames_shed")
            + num(stats, "frames_quarantined"),
        num(stats, "frames_ingested"),
        "processed + dropped + shed + quarantined == ingested must hold: {stats:?}"
    );
}

#[test]
fn pipeline_panic_quarantines_tenant_not_shard() {
    let _guard = serialized();
    let server = service::start(touchy_config(), service::default_factory()).expect("boot");
    let mut client = Client::connect(server.ingest_addr());
    client.register("victim");
    client.register("healthy");

    // every alarm-triggering "victim" frame now panics its pipeline
    fail::cfg_tagged("pipeline-panic", Action::Panic, "victim");
    for i in 0..5 {
        let v = collapsing_value(i);
        client.observe("victim", v);
        client.observe("healthy", v);
    }
    client.flush();
    let health = client.health();
    assert!(num(&health, "pipeline_restarts") >= 1.0, "{health:?}");
    let stats = client.stats();
    assert_invariant(&stats);
    // the shard survived: both tenants' frames were all processed
    assert_eq!(num(&stats, "frames_processed"), 10.0, "{stats:?}");
    // the healthy tenant localized its collapse despite its neighbour
    let incidents = client.request(r#"{"type":"incidents","limit":100}"#);
    let list = incidents.get("incidents").and_then(Json::as_arr).unwrap();
    assert!(
        list.iter()
            .any(|i| i.get("tenant").and_then(Json::as_str) == Some("healthy")),
        "healthy tenant incidents must keep flowing"
    );
    assert!(
        list.iter()
            .all(|i| i.get("tenant").and_then(Json::as_str) != Some("victim")),
        "victim incidents never complete while panicking"
    );

    // lift the fault: the quarantined tenant comes back on a fresh pipeline
    fail::remove("pipeline-panic");
    for i in 0..5 {
        client.observe("victim", collapsing_value(i));
    }
    client.flush();
    let incidents = client.request(r#"{"type":"incidents","limit":100}"#);
    let list = incidents.get("incidents").and_then(Json::as_arr).unwrap();
    assert!(
        list.iter()
            .any(|i| i.get("tenant").and_then(Json::as_str) == Some("victim")),
        "recovered tenant must localize again"
    );
    assert_invariant(&client.stats());
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert!(
        metric_value(&metrics, "rapd_pipeline_restarts_total{reason=\"panic\"}") >= 1.0,
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn pipeline_panic_dumps_a_recoverable_blackbox() {
    let _guard = serialized();
    let spool_dir =
        std::env::temp_dir().join(format!("rapd-fault-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let config = ServiceConfig {
        spool_dir: Some(spool_dir.clone()),
        ..touchy_config()
    };
    let server = service::start(config, service::default_factory()).expect("boot");
    let mut client = Client::connect(server.ingest_addr());
    client.register("victim");

    fail::cfg_tagged("pipeline-panic", Action::Panic, "victim");
    for i in 0..3 {
        client.observe("victim", collapsing_value(i));
    }
    client.flush();
    fail::remove("pipeline-panic");

    // the flight recorder dumped next to the incident spool, one file per
    // panicking frame, each CRC-framed and fully recoverable
    let dumps = service::blackbox::list_dumps(&spool_dir.join("blackbox")).expect("blackbox dir");
    assert!(!dumps.is_empty(), "panics must leave blackbox files");
    for path in &dumps {
        let dump = service::read_dump(path)
            .unwrap_or_else(|e| panic!("dump {} must be recoverable: {e}", path.display()));
        assert_eq!(dump.trigger, "panic");
        assert_eq!(dump.tenant, "victim");
        let frame = dump.frame.expect("dump carries the frame token");
        assert!(
            frame.starts_with("victim-"),
            "token is tenant-scoped: {frame}"
        );
        assert!(
            dump.rings.iter().any(|r| !r.lines.is_empty()),
            "the dump preserves recent span/event lines: {}",
            path.display()
        );
    }

    // the dump counter is visible over /metrics and the debug verb
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert!(
        metric_value(&metrics, "rapd_blackbox_dumps_total{trigger=\"panic\"}")
            >= dumps.len() as f64,
        "{metrics}"
    );
    let debug = client.request(r#"{"type":"debug"}"#);
    let counted = debug
        .get("blackbox_dumps")
        .and_then(|d| d.get("panic"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(counted >= dumps.len() as f64, "{debug:?}");
    assert_invariant(&client.stats());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn spool_write_error_degrades_to_ring_only() {
    // Every durable log's failpoint: (failpoint, `health` subsystem name,
    // `health` flag, the log's own degraded gauge, error counter, the file
    // it would have written). The WAL exports no gauge of its own beside
    // the `rapd_degraded` family.
    let logs = [
        (
            "spool-write-error",
            "incident_spool",
            "spool_degraded",
            "rapd_spool_degraded",
            "rapd_spool_write_errors_total",
            "incidents.jsonl",
        ),
        (
            "quarantine-write-error",
            "quarantine_spool",
            "quarantine_degraded",
            "rapd_quarantine_degraded",
            "rapd_quarantine_write_errors_total",
            "quarantine/t.jsonl",
        ),
        (
            "wal-append-error",
            "wal",
            "wal_degraded",
            "rapd_degraded{subsystem=\"wal\"}",
            "rapd_wal_append_errors_total",
            "wal/t.jsonl",
        ),
    ];
    for (failpoint, subsystem, flag, gauge, errors, file) in logs {
        let _guard = serialized();
        let spool_dir =
            std::env::temp_dir().join(format!("rapd-fault-{failpoint}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool_dir);
        let config = ServiceConfig {
            spool_dir: Some(spool_dir.clone()),
            ..touchy_config()
        };
        let server = service::start(config, service::default_factory()).expect("boot");
        let mut client = Client::connect(server.ingest_addr());
        client.register("t");

        fail::cfg(failpoint, Action::Error);
        // every log gets written more than once: alarming frames (WAL
        // appends and incidents) and non-finite frames (quarantine)
        for i in 0..5 {
            client.observe("t", collapsing_value(i));
            let reply = client.request(
                r#"{"type":"observe","tenant":"t","rows":[[["L1","S1"],null],[["L1","S2"],1],[["L2","S1"],1],[["L2","S2"],1]]}"#,
            );
            assert_eq!(
                reply.get("quarantined").and_then(Json::as_bool),
                Some(true),
                "{reply:?}"
            );
        }
        client.flush();

        // ingestion survived; only the failing log latched, and health
        // and /metrics both name it
        let health = client.health();
        assert_eq!(
            health.get("status").and_then(Json::as_str),
            Some("degraded"),
            "{failpoint}: {health:?}"
        );
        let latched: Vec<&str> = health
            .get("degraded_subsystems")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(latched, [subsystem], "{failpoint}");
        assert_eq!(health.get(flag).and_then(Json::as_bool), Some(true));
        let metrics = http_get(server.metrics_addr(), "/metrics");
        for other in ["incident_spool", "quarantine_spool", "wal"] {
            let gauge = metric_value(&metrics, &format!("rapd_degraded{{subsystem=\"{other}\"}}"));
            assert_eq!(gauge, f64::from(other == subsystem), "{failpoint}: {other}");
        }
        assert_eq!(metric_value(&metrics, gauge), 1.0, "{failpoint}");
        // the latch stops the log at its first failed write: one error,
        // and nothing reaches its file (opened before the write failed)
        assert_eq!(metric_value(&metrics, errors), 1.0, "{failpoint}");
        let written = std::fs::read_to_string(spool_dir.join(file))
            .unwrap_or_else(|e| panic!("{failpoint}: {file} exists: {e}"));
        assert!(written.is_empty(), "{failpoint} wrote {written:?}");
        let incidents = client.request(r#"{"type":"incidents","limit":100}"#);
        let ring = incidents.get("incidents").and_then(Json::as_arr).unwrap();
        assert!(!ring.is_empty(), "the ring still collects incidents");
        let stats = client.stats();
        assert_invariant(&stats);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool_dir);
    }
}

#[test]
fn deadline_and_breaker_shed_and_recover() {
    let _guard = serialized();
    let spool_dir =
        std::env::temp_dir().join(format!("rapd-fault-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let mut config = touchy_config();
    config.spool_dir = Some(spool_dir.clone());
    config.pipeline.localize_deadline = Some(Duration::from_millis(5));
    config.breaker_threshold = 2;
    config.breaker_cooldown = Duration::from_millis(200);
    let server = service::start(config, service::default_factory()).expect("boot");
    let mut client = Client::connect(server.ingest_addr());
    client.register("t");

    // every BFS layer stalls well past the 5 ms localization budget
    fail::cfg("slow-localize", Action::Sleep(30));
    for i in 0..8 {
        client.observe("t", collapsing_value(i));
        client.flush(); // serialize so failures are consecutive
    }
    let health = client.health();
    assert!(num(&health, "deadline_exceeded") >= 2.0, "{health:?}");
    assert_eq!(num(&health, "open_breakers"), 1.0, "{health:?}");
    let stats = client.stats();
    assert!(num(&stats, "frames_shed") > 0.0, "{stats:?}");
    assert_invariant(&stats);
    // deadline-hit incidents are recorded (partial) and marked
    let incidents = client.request(r#"{"type":"incidents","limit":100}"#);
    assert!(
        incidents
            .get("incidents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|i| i.get("deadline_exceeded").and_then(Json::as_bool) == Some(true)),
        "{incidents:?}"
    );

    // lift the stall and wait out the cooldown: the half-open probe closes
    // the breaker and frames flow again
    fail::remove("slow-localize");
    std::thread::sleep(Duration::from_millis(250));
    let processed_before = num(&client.stats(), "frames_processed");
    for i in 0..4 {
        client.observe("t", collapsing_value(i));
        client.flush();
    }
    let health = client.health();
    assert_eq!(num(&health, "open_breakers"), 0.0, "{health:?}");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("ok"),
        "{health:?}"
    );
    let stats = client.stats();
    assert!(
        num(&stats, "frames_processed") >= processed_before + 4.0,
        "post-recovery frames must be processed, not shed: {stats:?}"
    );
    assert_invariant(&stats);
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert!(metric_value(&metrics, "rapd_deadline_exceeded_total") >= 2.0);
    assert_eq!(metric_value(&metrics, "rapd_breaker_open_tenants"), 0.0);

    // both fault triggers left recoverable blackbox files behind
    let dumps = service::blackbox::list_dumps(&spool_dir.join("blackbox")).expect("blackbox dir");
    let mut triggers: Vec<String> = Vec::new();
    for path in &dumps {
        let dump = service::read_dump(path)
            .unwrap_or_else(|e| panic!("dump {} must be recoverable: {e}", path.display()));
        assert_eq!(dump.tenant, "t");
        assert!(dump.frame.is_some(), "dump carries the frame token");
        triggers.push(dump.trigger);
    }
    assert!(
        triggers.iter().any(|t| t == "deadline"),
        "deadline overruns must dump: {triggers:?}"
    );
    assert!(
        triggers.iter().any(|t| t == "breaker_open"),
        "the breaker opening must dump: {triggers:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn worker_death_respawns_without_losing_accounting() {
    let _guard = serialized();
    let server = service::start(touchy_config(), service::default_factory()).expect("boot");
    let mut client = Client::connect(server.ingest_addr());
    client.register("t");
    client.observe("t", collapsing_value(0));
    client.flush();

    // the worker dies at the top of its next loop iteration — after
    // finishing the frame below, before dequeuing anything else
    fail::cfg_times("shard-worker-panic", Action::Panic, 1);
    client.observe("t", collapsing_value(1));
    client.flush(); // barrier is served by the respawned worker
    client.observe("t", collapsing_value(2));
    client.flush();

    let health = client.health();
    assert!(num(&health, "worker_restarts") >= 1.0, "{health:?}");
    let stats = client.stats();
    assert_eq!(
        num(&stats, "frames_processed"),
        3.0,
        "no frame may be lost across the respawn: {stats:?}"
    );
    assert_invariant(&stats);
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert!(metric_value(&metrics, "rapd_worker_restarts_total") >= 1.0);
    server.shutdown();
}

#[test]
fn torn_spool_recovers_on_restart() {
    let _guard = serialized();
    let spool_dir = std::env::temp_dir().join(format!("rapd-fault-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let config = ServiceConfig {
        spool_dir: Some(spool_dir.clone()),
        ..touchy_config()
    };

    // first life: spool a few incidents, then stop cleanly
    let server = service::start(config.clone(), service::default_factory()).expect("boot");
    let mut client = Client::connect(server.ingest_addr());
    client.register("t");
    for i in 0..4 {
        client.observe("t", collapsing_value(i));
    }
    client.flush();
    server.shutdown();
    let spool_path = spool_dir.join("incidents.jsonl");
    let intact = std::fs::read_to_string(&spool_path).expect("spool exists");
    let intact_lines = intact.lines().count();
    assert!(intact_lines >= 1, "first life must spool incidents");

    // simulate a crash mid-write: a torn, CRC-less partial record
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&spool_path)
            .unwrap();
        write!(f, "{{\"tenant\":\"t\",\"raps\":[[\"loc").unwrap();
    }

    // second life on the same spool: the torn tail is truncated, every
    // intact incident survives byte-for-byte, and appends continue
    let server = service::start(config, service::default_factory()).expect("reboot");
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert_eq!(
        metric_value(&metrics, "rapd_spool_recovered_lines"),
        intact_lines as f64
    );
    assert!(metric_value(&metrics, "rapd_spool_truncated_bytes") > 0.0);
    let repaired = std::fs::read_to_string(&spool_path).unwrap();
    assert_eq!(repaired, intact, "intact incidents survive, torn tail gone");
    let mut client = Client::connect(server.ingest_addr());
    client.register("t");
    for i in 0..4 {
        client.observe("t", collapsing_value(i));
    }
    client.flush();
    let after = std::fs::read_to_string(&spool_path).unwrap();
    assert!(
        after.lines().count() > intact_lines,
        "appends must continue on the repaired spool"
    );
    assert!(
        after.starts_with(&intact),
        "repair must not rewrite history"
    );
    let health = client.health();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool_dir);
}
