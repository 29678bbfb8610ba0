//! Determinism contract of the `loadgen` harness: the summary a load run
//! prints is a pure function of its config, modulo the `"timing"`
//! subtree.
//!
//! Two identical paced runs (same seed, same rate, same frame budget)
//! against two *fresh* single-process daemons must produce byte-identical
//! [`loadgen::summary_without_timing`] renders — frame synthesis,
//! client-side accounting, and the daemon's counter deltas all replay
//! exactly. Fresh daemons matter: loadgen restarts its simulated clock at
//! zero every run, so reusing a daemon would quarantine the second run's
//! frames as late.
//!
//! Each run must also reconcile both ledgers: every sent frame lands in
//! exactly one client bucket, and the daemon's invariant (`processed +
//! dropped + shed + quarantined == ingested`) meets the client's counts
//! (`ingested == acked + parked + quarantined`).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use loadgen::{run, summary_without_timing, FrameBook, LoadConfig, SynthConfig};
use service::json::Json;

/// One rapd process plus its ingest address; killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let spool =
            std::env::temp_dir().join(format!("rapd-loadgen-det-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).expect("create spool dir");
        let mut child = Command::new(env!("CARGO_BIN_EXE_rapminer"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--metrics-listen",
                "127.0.0.1:0",
            ])
            .args(["--shards", "1", "--queue", "4096"])
            .args(["--history", "60", "--warmup", "15"])
            .args([
                "--alarm-threshold",
                "0.08",
                "--leaf-threshold",
                "0.3",
                "--k",
                "3",
            ])
            .args(["--spool", spool.to_str().expect("utf8 spool path")])
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
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader
                .read_line(&mut sink)
                .map(|n| {
                    sink.clear();
                    n > 0
                })
                .unwrap_or(false)
            {}
        });
        Daemon { child, addr, spool }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// The shared run shape: a small paced run whose every frame fits the
/// daemon's queue, so all of them ack and the ledgers are exact.
fn config(addr: &str) -> LoadConfig {
    LoadConfig {
        addr: addr.to_string(),
        connections: 2,
        rate: 300.0,
        total_frames: 96,
        poll_interval_ms: 25,
        synth: SynthConfig {
            tenants: 2,
            steps: 16,
            seed: 1207,
            locations: 4,
            access_types: 2,
            oses: 2,
            websites: 4,
            warmup: 8,
            inject_every: 4,
            inject_duration: 2,
        },
        ..LoadConfig::default()
    }
}

fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    node.as_f64()
        .unwrap_or_else(|| panic!("non-numeric {path:?}")) as u64
}

fn bool_at(doc: &Json, path: &[&str]) -> bool {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    matches!(node, Json::Bool(true))
}

/// One full load run against a fresh daemon; returns the summary.
fn one_run(tag: &str) -> Json {
    let daemon = Daemon::spawn(tag);
    let cfg = config(&daemon.addr);
    let book = FrameBook::build(&cfg.synth);
    run(&cfg, &book).expect("load run completes")
}

#[test]
fn same_seed_same_rate_is_byte_identical_modulo_timing() {
    let first = one_run("a");
    let second = one_run("b");

    for (label, summary) in [("first", &first), ("second", &second)] {
        // Every sent frame is accounted for and both ledgers reconcile.
        assert!(
            bool_at(summary, &["accounting", "client_reconciled"]),
            "{label}: client accounting must reconcile"
        );
        assert!(
            bool_at(summary, &["daemon", "reconciled"]),
            "{label}: daemon accounting must reconcile"
        );
        let sent = u64_at(summary, &["accounting", "sent"]);
        let acked = u64_at(summary, &["accounting", "acked"]);
        let parked = u64_at(summary, &["accounting", "parked"]);
        let quarantined = u64_at(summary, &["accounting", "quarantined"]);
        let ingested = u64_at(summary, &["daemon", "ingested"]);
        assert_eq!(sent, 96, "{label}: paced run sends its exact budget");
        assert_eq!(
            ingested,
            acked + parked + quarantined,
            "{label}: daemon ingest must equal the client's admitted buckets"
        );
        // The daemon's own invariant, on the run's deltas.
        let processed = u64_at(summary, &["daemon", "processed"]);
        let dropped = u64_at(summary, &["daemon", "dropped"]);
        let shed = u64_at(summary, &["daemon", "shed"]);
        let d_quarantined = u64_at(summary, &["daemon", "quarantined"]);
        assert_eq!(
            processed + dropped + shed + d_quarantined,
            ingested,
            "{label}: processed + dropped + shed + quarantined == ingested"
        );
    }

    // The non-timing summary replays byte for byte.
    let stable_first = summary_without_timing(&first).render();
    let stable_second = summary_without_timing(&second).render();
    assert_eq!(
        stable_first, stable_second,
        "summaries must be byte-identical modulo the timing subtree"
    );
    // And the timing subtree was actually present and stripped (the
    // contract this test leans on).
    assert!(first.get("timing").is_some(), "summary carries timing");
    assert!(
        !stable_first.contains(r#""timing""#),
        "strip removes the whole timing subtree"
    );
}
