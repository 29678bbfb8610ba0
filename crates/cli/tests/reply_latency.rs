//! Request/reply latency of the compiled `rapminer` binary: 50 sequential
//! `stats` round trips on one connection must finish well inside a
//! second, against a single rapd and against a one-worker fleet.
//!
//! A reply written in two pieces (body, then newline) on a socket with
//! Nagle's algorithm on waits for the client's delayed ACK, about 40 ms
//! per reply, so a stalled reply path takes two seconds here.
//!
//! On Linux, 300 one-shot connections in sequence must also leave the
//! daemon's memory map about as it was: a connection thread that is never
//! joined keeps its stack mapped until shutdown.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use service::json::{parse, Json};
use service::proto;

const ROUND_TRIPS: usize = 50;

/// Spawn `rapminer serve` (single daemon when `workers == 0`, router +
/// worker fleet otherwise) on `spool` and return it with its ingest
/// address once the listener is announced.
fn spawn(spool: &Path, workers: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rapminer"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--workers",
            &workers.to_string(),
            "--spool",
            spool.to_str().expect("utf8 spool path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("rapd spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
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
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, addr)
}

fn request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    proto::write_line(writer, line).expect("write request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
}

/// Time `ROUND_TRIPS` sequential `stats` requests on one connection, then
/// drain the daemon.
fn time_stats_round_trips(workers: usize) -> Duration {
    let spool = std::env::temp_dir().join(format!(
        "rapd-reply-latency-{workers}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&spool);
    let (mut child, addr) = spawn(&spool, workers);
    let mut writer = TcpStream::connect(&addr).expect("connect to rapd");
    proto::setup_stream(&writer, Some(Duration::from_secs(30))).expect("socket options");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    // the first request may wait for a fleet worker's handshake
    request(&mut writer, &mut reader, r#"{"type":"stats"}"#);

    let started = Instant::now();
    for _ in 0..ROUND_TRIPS {
        let reply = request(&mut writer, &mut reader, r#"{"type":"stats"}"#);
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("stats"));
    }
    let elapsed = started.elapsed();

    request(&mut writer, &mut reader, r#"{"type":"shutdown"}"#);
    let status = child.wait().expect("wait for rapd");
    assert!(status.success(), "rapd drain exited with {status}");
    let _ = std::fs::remove_dir_all(&spool);
    elapsed
}

#[test]
fn sequential_replies_do_not_wait_for_delayed_acks() {
    for workers in [0, 1] {
        let elapsed = time_stats_round_trips(workers);
        assert!(
            elapsed < Duration::from_secs(1),
            "{ROUND_TRIPS} stats round trips with --workers {workers} took {elapsed:?}"
        );
    }
}

/// Memory mappings of process `pid`: one line of `/proc/<pid>/maps` each.
/// A connection thread that is never joined keeps its stack (and guard
/// page) mapped, so leaked threads show up here one or two lines apiece.
#[cfg(target_os = "linux")]
fn mappings(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/maps"))
        .expect("read /proc/<pid>/maps")
        .lines()
        .count()
}

/// Open one connection, ask for `line`'s reply, and close it.
#[cfg(target_os = "linux")]
fn one_shot(addr: &str, line: &str) -> Json {
    let mut writer = TcpStream::connect(addr).expect("connect to rapd");
    proto::setup_stream(&writer, Some(Duration::from_secs(30))).expect("socket options");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    request(&mut writer, &mut reader, line)
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_memory() {
    const CONNECTIONS: usize = 300;
    for workers in [0, 1] {
        let spool = std::env::temp_dir().join(format!(
            "rapd-conn-release-{workers}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&spool);
        let (mut child, addr) = spawn(&spool, workers);
        // one connection first, so the baseline already holds whatever a
        // first connection maps once (a fleet's worker link, allocator
        // arenas, the first cached thread stack)
        one_shot(&addr, r#"{"type":"stats"}"#);
        let before = mappings(child.id());
        for _ in 0..CONNECTIONS {
            let reply = one_shot(&addr, r#"{"type":"stats"}"#);
            assert_eq!(reply.get("type").and_then(Json::as_str), Some("stats"));
        }
        let after = mappings(child.id());
        one_shot(&addr, r#"{"type":"shutdown"}"#);
        let status = child.wait().expect("wait for rapd");
        assert!(status.success(), "rapd drain exited with {status}");
        let _ = std::fs::remove_dir_all(&spool);
        assert!(
            after < before + 100,
            "{CONNECTIONS} closed connections with --workers {workers} grew the \
             mappings from {before} to {after}"
        );
    }
}
