//! End-to-end daemon test: boot rapd on a loopback socket, register a
//! schema over the wire, stream a cdnsim-generated anomaly at it faster
//! than a deliberately slowed localizer can drain, and assert that
//!
//! * the injected root pattern shows up in the incident spool and ring,
//! * `/metrics` reports the alarm and exact frame accounting,
//! * backpressure drops frames without deadlock or lost accounting,
//! * protocol errors get error replies without killing the connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use baselines::{Localizer, RapMinerLocalizer, ScoredCombination};
use cdnsim::{CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
use mdkpi::{AttrId, LeafFrame};
use service::json::{parse, Json};
use service::{ServiceConfig, StartError};

/// RAPMiner slowed enough that blasting anomalous frames outruns it.
struct SlowLocalizer(RapMinerLocalizer);

impl Localizer for SlowLocalizer {
    fn name(&self) -> &'static str {
        "slow-rapminer"
    }
    fn localize(&self, frame: &LeafFrame, k: usize) -> baselines::Result<Vec<ScoredCombination>> {
        std::thread::sleep(Duration::from_millis(3));
        self.0.localize(frame, k)
    }
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

/// Project a 4-attribute cdnsim snapshot down to (location, website) wire
/// rows, summing leaves that collapse together.
fn wire_rows(frame: &LeafFrame) -> Json {
    let schema = frame.schema();
    let loc = AttrId(0);
    let web = AttrId(3);
    let mut sums: Vec<((String, String), f64)> = Vec::new();
    for i in 0..frame.num_rows() {
        let elements = frame.row_elements(i);
        let key = (
            schema.attribute(loc).element_name(elements[0]).to_string(),
            schema.attribute(web).element_name(elements[3]).to_string(),
        );
        match sums.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += frame.v(i),
            None => sums.push((key, frame.v(i))),
        }
    }
    Json::Arr(
        sums.into_iter()
            .map(|((l, w), v)| {
                Json::Arr(vec![
                    Json::Arr(vec![Json::str(l), Json::str(w)]),
                    Json::Num(v),
                ])
            })
            .collect(),
    )
}

fn observe_line(tenant: &str, rows: Json) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("observe")),
        ("tenant".to_string(), Json::str(tenant)),
        ("rows".to_string(), rows),
    ])
    .render()
}

#[test]
fn rapd_localizes_a_streamed_cdn_failure_under_backpressure() {
    let seed = 20220607;
    let spool_dir = std::env::temp_dir().join(format!("rapd-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);

    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_capacity: 4, // tiny on purpose: overload must drop, not grow
        spool_dir: Some(spool_dir.clone()),
        ring_capacity: 64,
        forecast_window: 10,
        pipeline: pipeline::PipelineConfig {
            history_len: 60,
            warmup: 15,
            alarm_threshold: 0.08,
            leaf_threshold: 0.3,
            k: 3,
            ..pipeline::PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let server = service::start(
        config,
        Arc::new(|_| Box::new(SlowLocalizer(RapMinerLocalizer::default())) as Box<dyn Localizer>),
    )
    .unwrap_or_else(|e: StartError| panic!("daemon failed to boot: {e}"));

    // --- the traffic source: cdnsim with an L4 outage injected ---
    let topology = CdnTopology::small(seed);
    let sim_schema = topology.schema().clone();
    let truth = sim_schema
        .parse_combination("location=L4")
        .expect("L4 exists");
    let model = TrafficModel::new(topology, TrafficConfig::default(), seed);
    let injector = FailureInjector::new(0.5, 0.9);

    let mut client = Client::connect(server.ingest_addr());

    // register the 2-attribute projection of the simulator schema
    let attributes = Json::Arr(
        [AttrId(0), AttrId(3)]
            .into_iter()
            .map(|a| {
                let attr = sim_schema.attribute(a);
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
    let reply = client.request(
        &Json::Obj(vec![
            ("type".to_string(), Json::str("schema")),
            ("tenant".to_string(), Json::str("edge")),
            ("attributes".to_string(), attributes),
        ])
        .render(),
    );
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("ok"),
        "{reply}"
    );

    // a protocol error mid-session must answer, not kill the connection
    let reply = client.request("this is not json");
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );

    // --- phase 1: healthy warmup traffic, no alarms expected ---
    // Each frame is flushed through before the next is sent: the ack
    // returns before the shard has processed the frame, so back-to-back
    // requests can outrun the 4-deep queue even without overload.
    let base_minute = 2 * 24 * 60;
    let warmup_frames = 25usize;
    for step in 0..warmup_frames {
        let snapshot = model.snapshot(base_minute + step);
        let reply = client.request(&observe_line("edge", wire_rows(&snapshot)));
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
        let reply = client.request(r#"{"type":"flush"}"#);
        assert_eq!(
            reply.get("flushed").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
    }
    let stats = client.request(r#"{"type":"stats"}"#);
    assert_eq!(
        stats.get("alarms").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    assert_eq!(
        stats.get("frames_dropped").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );

    // --- phase 2: inject the L4 outage and blast frames faster than the
    // slowed localizer drains them (write all, then read all acks) ---
    let anomalous_frames = 150usize;
    for step in 0..anomalous_frames {
        let minute = base_minute + warmup_frames + step;
        let mut snapshot = model.snapshot(minute);
        injector.inject(&mut snapshot, std::slice::from_ref(&truth), minute as u64);
        client.send_line(&observe_line("edge", wire_rows(&snapshot)));
    }
    for _ in 0..anomalous_frames {
        let reply = client.read_reply();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
    }

    // flush barriers are never dropped: this must complete despite overload
    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(
        reply.get("flushed").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );

    // --- accounting: nothing lost, overload visibly dropped frames ---
    let stats = client.request(r#"{"type":"stats"}"#);
    let ingested = stats.get("frames_ingested").and_then(Json::as_u64).unwrap();
    let processed = stats
        .get("frames_processed")
        .and_then(Json::as_u64)
        .unwrap();
    let dropped = stats.get("frames_dropped").and_then(Json::as_u64).unwrap();
    let alarms = stats.get("alarms").and_then(Json::as_u64).unwrap();
    assert_eq!(
        ingested,
        (warmup_frames + anomalous_frames) as u64,
        "{stats}"
    );
    assert_eq!(
        processed + dropped,
        ingested,
        "accounting must balance: {stats}"
    );
    assert!(
        dropped > 0,
        "a 4-deep queue must overflow under blast: {stats}"
    );
    assert!(alarms >= 1, "the outage must alarm at least once: {stats}");
    assert_eq!(
        stats.get("protocol_errors").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );

    // --- the incident names the injected root pattern ---
    let incidents = client.request(r#"{"type":"incidents","limit":100}"#);
    let list = incidents.get("incidents").and_then(Json::as_arr).unwrap();
    assert_eq!(list.len() as u64, alarms, "ring must hold every alarm");
    // The localizer may find no pattern for an alarmed frame, so an
    // incident can carry an empty RAP list.
    let top_raps: Vec<&str> = list
        .iter()
        .filter_map(|i| {
            assert_eq!(i.get("tenant").and_then(Json::as_str), Some("edge"));
            let top = i.get("raps").and_then(Json::as_arr).unwrap().first()?;
            Some(top.as_arr().unwrap()[0].as_str().unwrap())
        })
        .collect();
    assert!(
        top_raps.iter().any(|r| r.contains("L4")),
        "some incident must localize to the injected L4 outage, got {top_raps:?}"
    );

    // --- the spool holds the same incidents as CRC-framed JSON lines ---
    let spool_text =
        std::fs::read_to_string(spool_dir.join("incidents.jsonl")).expect("spool file exists");
    let spool_lines: Vec<&str> = spool_text
        .lines()
        .map(|line| {
            // every line carries a `\t<crc32 hex>` integrity suffix
            let (json, crc) = line.rsplit_once('\t').expect("CRC-framed spool line");
            assert_eq!(crc.len(), 8, "8 hex digits of CRC32: {line}");
            json
        })
        .collect();
    assert_eq!(spool_lines.len() as u64, alarms, "one spool line per alarm");
    let spooled_l4 = spool_lines.iter().any(|line| {
        let doc = parse(line).expect("spool lines are valid JSON");
        doc.get("raps")
            .and_then(Json::as_arr)
            .unwrap()
            .first()
            .is_some_and(|top| top.as_arr().unwrap()[0].as_str().unwrap().contains("L4"))
    });
    assert!(spooled_l4, "the L4 incident must be spooled");

    // --- /metrics agrees with the control socket ---
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert!(
        metrics.contains(&format!("rapd_frames_ingested_total {ingested}")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("rapd_alarms_total {alarms}")),
        "{metrics}"
    );
    assert!(
        metrics.contains("rapd_protocol_errors_total 1"),
        "{metrics}"
    );
    let dropped_from_metrics: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("rapd_frames_dropped_total{"))
        .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(
        dropped_from_metrics, dropped,
        "metrics and stats must agree"
    );
    assert!(
        metrics.contains(&format!("rapd_localization_seconds_count {alarms}")),
        "{metrics}"
    );

    // shutdown drains and joins everything — must not deadlock
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn oversized_and_malformed_lines_never_kill_the_daemon() {
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        max_frame_bytes: 256,
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).unwrap();
    let mut client = Client::connect(server.ingest_addr());

    // an oversized line gets an error reply and the rest is discarded
    let huge = format!(
        r#"{{"type":"observe","tenant":"t","rows":[{}0]}}"#,
        "1,".repeat(400)
    );
    let reply = client.request(&huge);
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );
    assert!(
        reply
            .get("reason")
            .and_then(Json::as_str)
            .unwrap()
            .contains("cap"),
        "{reply}"
    );

    // the same connection still serves normal requests afterwards
    let reply = client.request(r#"{"type":"stats"}"#);
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("stats"),
        "{reply}"
    );
    assert_eq!(
        reply.get("protocol_errors").and_then(Json::as_u64),
        Some(1),
        "{reply}"
    );

    // observe without a schema is a typed error, not a crash
    let reply = client.request(r#"{"type":"observe","tenant":"ghost","rows":[]}"#);
    assert!(
        reply
            .get("reason")
            .and_then(Json::as_str)
            .unwrap()
            .contains("ghost"),
        "{reply}"
    );

    server.shutdown();
}

#[test]
fn deep_nesting_and_the_router_only_import_verb_get_error_replies() {
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).unwrap();
    let mut client = Client::connect(server.ingest_addr());
    // 200 kB each, under the default 1 MiB line cap; one of these once
    // overflowed the connection thread's stack and aborted the daemon
    for line in ["[".repeat(200_000), r#"{"a":"#.repeat(200_000)] {
        let reply = client.request(&line);
        let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
        assert!(reason.contains("malformed JSON"), "{reply}");
    }
    let reply = client.request(r#"{"type":"import","tenant":"t","source":0}"#);
    let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("unknown message type 'import'"), "{reply}");
    let reply = client.request(r#"{"type":"stats"}"#);
    assert_eq!(reply.get("protocol_errors").and_then(Json::as_u64), Some(3));
    server.shutdown();
}

/// Copy a live, flushed spool as a `kill -9` would leave it: every
/// acknowledged frame is journaled before its reply, so the copy is a
/// crash image.
fn copy_spool(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let (path, target) = (entry.path(), to.join(entry.file_name()));
        if path.is_dir() {
            copy_spool(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

/// Tenant names longer than a file name journal, checkpoint and quarantine
/// like any other, and recover from a crash image of the spool: each gets
/// a capped file stem, so creating its files cannot fail, which would
/// latch the WAL (or the quarantine log) off for every tenant.
#[test]
fn tenant_names_longer_than_a_file_name_journal_checkpoint_and_recover() {
    let root = std::env::temp_dir().join(format!("rapd-long-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = |spool: PathBuf| ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        spool_dir: Some(spool),
        // no ticker: the `checkpoint` verb takes the only snapshot, so the
        // frames after it are the journal a restart replays
        checkpoint_interval: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let long = "t".repeat(300);
    // all safe, two that differ only past the cut, and a lossy one
    let tenants = [long.clone(), format!("{}u", &long[1..]), "t.".repeat(150)];
    let observe = |tenant: &str, l1: &str| {
        format!(
            r#"{{"type":"observe","tenant":"{tenant}","rows":[[["L1","S1"],{l1}],[["L1","S2"],100],[["L2","S1"],100],[["L2","S2"],100]]}}"#
        )
    };
    let ok = |reply: Json| {
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
        reply
    };
    let healthy = |client: &mut Client| {
        let health = client.request(r#"{"type":"health"}"#);
        let status = health.get("status").and_then(Json::as_str);
        assert_eq!(status, Some("ok"), "{health}");
    };

    let live = service::start(config(root.join("live")), service::default_factory()).unwrap();
    let mut client = Client::connect(live.ingest_addr());
    for tenant in &tenants {
        ok(client.request(&format!(
            r#"{{"type":"schema","tenant":"{tenant}","attributes":[["location",["L1","L2"]],["website",["S1","S2"]]]}}"#
        )));
    }
    for step in 0..8 {
        if step == 5 {
            ok(client.request(r#"{"type":"flush"}"#));
            let reply = ok(client.request(r#"{"type":"checkpoint"}"#));
            assert_eq!(
                reply.get("checkpointed").and_then(Json::as_bool),
                Some(true)
            );
        }
        for tenant in &tenants {
            ok(client.request(&observe(tenant, "100")));
        }
    }
    // one non-finite leaf each: quarantined to the tenant's own log
    for tenant in &tenants {
        let reply = ok(client.request(&observe(tenant, "null")));
        assert_eq!(reply.get("quarantined").and_then(Json::as_bool), Some(true));
    }
    ok(client.request(r#"{"type":"flush"}"#));
    healthy(&mut client);
    for (dir, files) in [("wal", 1 + tenants.len()), ("quarantine", tenants.len())] {
        let listing = std::fs::read_dir(root.join("live").join(dir)).unwrap();
        assert_eq!(listing.count(), files, "{dir}");
    }
    copy_spool(&root.join("live"), &root.join("crash"));

    let restarted = service::start(config(root.join("crash")), service::default_factory()).unwrap();
    let mut client = Client::connect(restarted.ingest_addr());
    ok(client.request(r#"{"type":"flush"}"#));
    let stats = client.request(r#"{"type":"stats"}"#);
    let replayed = stats.get("replayed_frames").and_then(Json::as_u64);
    assert_eq!(replayed, Some(3 * tenants.len() as u64), "{stats}");
    let debug = client.request(r#"{"type":"debug"}"#);
    let durability = debug.get("durability").expect("durability");
    let count = |key: &str| durability.get(key).and_then(Json::as_u64);
    assert_eq!(count("checkpoint_restores"), Some(tenants.len() as u64));
    assert_eq!(count("detector_rewarms"), Some(0), "{durability}");
    healthy(&mut client);
    restarted.shutdown();
    live.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
