//! End-to-end dirty-telemetry test: stream a cdnsim-generated CDN outage at
//! rapd with ≥5% of frames corrupted (NaN values, duplicate leaves,
//! out-of-order delivery, replays, schema drift) and prove that
//!
//! * nothing panics and every frame is accounted for:
//!   `processed + dropped + shed + quarantined == ingested`,
//! * RAP localization output on the clean-frame subset is byte-identical
//!   to an uncorrupted run (repairs restore original payloads exactly),
//! * negative values and drift beyond the allowance take their own paths
//!   (clamp repair, quarantine) without breaking the invariant.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use cdnsim::{
    named_rows, CdnTopology, Corruption, CorruptionConfig, Corruptor, FailureInjector,
    TrafficConfig, TrafficModel,
};
use mdkpi::{LeafFrame, Schema};
use service::json::{parse, Json};
use service::ServiceConfig;

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

/// Wire-shaped rows: `(attribute values in schema order, value)`.
type WireRows = Vec<(Vec<String>, f64)>;
/// One delivered frame: timestamp plus rows.
type Delivery = (u64, WireRows);

/// An `observe` line; NaN values render as JSON `null` (the wire encoding
/// rapd's parser maps back to NaN).
fn observe_line(tenant: &str, ts: u64, rows: &[(Vec<String>, f64)]) -> String {
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
        ("ts".to_string(), Json::Num(ts as f64)),
    ])
    .render()
}

fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rapd-dirty-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dirty_config(spool: PathBuf) -> ServiceConfig {
    ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_capacity: 4096, // never drop: drops would fork the two runs
        spool_dir: Some(spool),
        ring_capacity: 256,
        forecast_window: 10,
        reorder_window: 64,
        // 2.5 simulated minutes: adjacent-frame swaps are always healed
        max_lateness: std::time::Duration::from_millis(150_000),
        schema_drift_limit: 8,
        pipeline: pipeline::PipelineConfig {
            history_len: 60,
            warmup: 15,
            alarm_threshold: 0.08,
            leaf_threshold: 0.3,
            k: 3,
            ..pipeline::PipelineConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Boot a fresh rapd, replay `deliveries`, flush, and return
/// (stats, canonical incident lines, `/metrics` text).
fn run_stream(tag: &str, schema: &Schema, deliveries: &[Delivery]) -> (Json, Vec<String>, String) {
    let spool = temp_spool(tag);
    let server = service::start(dirty_config(spool.clone()), service::default_factory())
        .expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());

    let reply = client.request(&schema_line("edge", schema));
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("ok"),
        "{reply}"
    );

    // pipelined write-all / read-all: every reply must be "ok" — protocol
    // errors or daemon death would surface here
    for (ts, rows) in deliveries {
        client.send_line(&observe_line("edge", *ts, rows));
    }
    for (ts, _) in deliveries {
        let reply = client.read_reply();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "frame ts={ts}: {reply}"
        );
    }

    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(
        reply.get("flushed").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );

    let stats = client.request(r#"{"type":"stats"}"#);
    let incidents = client.request(r#"{"type":"incidents","limit":256}"#);
    let canonical = canonical_incidents(&incidents);
    let metrics = http_get(server.metrics_addr(), "/metrics");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    (stats, canonical, metrics)
}

/// Reduce each incident to `tenant|step|deviation|raps(pattern:score,…)` —
/// the localization-relevant payload, with full float precision so equality
/// means byte-identical output.
fn canonical_incidents(reply: &Json) -> Vec<String> {
    let list = reply
        .get("incidents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("bad incidents reply: {reply}"));
    list.iter()
        .map(|incident| {
            let tenant = incident.get("tenant").and_then(Json::as_str).unwrap();
            let step = incident.get("step").and_then(Json::as_u64).unwrap();
            let deviation = incident
                .get("total_deviation")
                .and_then(Json::as_f64)
                .unwrap();
            let raps: Vec<String> = incident
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
            format!("{tenant}|{step}|{deviation:?}|{}", raps.join(","))
        })
        .collect()
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    use std::io::Read;
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

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
}

/// `processed + dropped + shed + quarantined == ingested` — the admission
/// extension of the PR 3 accounting invariant.
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

#[test]
fn corrupted_stream_is_quarantined_and_clean_subset_output_is_byte_identical() {
    let seed = 20220607;
    let steps = 160usize;
    let fail_at = 60usize;
    let base_minute = 2 * 24 * 60;
    let base_ts = 1_700_000_000_000u64;

    // --- the clean stream: cdnsim traffic with an L4 outage injected ---
    let topology = CdnTopology::small(seed);
    let schema = topology.schema().clone();
    let truth = schema.parse_combination("location=L4").expect("L4 exists");
    let model = TrafficModel::new(topology, TrafficConfig::default(), seed);
    let injector = FailureInjector::new(0.5, 0.9);
    let clean: Vec<(u64, LeafFrame)> = (0..steps)
        .map(|step| {
            let minute = base_minute + step;
            let mut frame = model.snapshot(minute);
            if step >= fail_at {
                injector.inject(&mut frame, std::slice::from_ref(&truth), minute as u64);
            }
            (base_ts + (step as u64) * 60_000, frame)
        })
        .collect();

    // --- corrupt it: every kind except negative (which alters payloads) ---
    let corruption = CorruptionConfig {
        nan: 0.04,
        duplicate: 0.04,
        negative: 0.0,
        drift: 0.03,
        reorder: 0.03,
        replay: 0.03,
        drift_pool: 4, // stays within the drift limit of 8
    };
    let dirty = Corruptor::new(corruption, seed).corrupt_stream(&clean);
    let corrupted = dirty.iter().filter(|f| f.kind != Corruption::Clean).count();
    assert!(
        corrupted as f64 >= 0.05 * dirty.len() as f64,
        "need ≥5% corruption, got {corrupted}/{}",
        dirty.len()
    );

    // --- run 1: the dirty delivery sequence ---
    let deliveries: Vec<Delivery> = dirty.iter().map(|f| (f.ts, f.rows.clone())).collect();
    let (stats, incidents, metrics) = run_stream("corrupted", &schema, &deliveries);

    assert_accounting(&stats);
    assert_eq!(
        stat(&stats, "frames_ingested"),
        dirty.len() as u64,
        "{stats}"
    );
    let expect_quarantined = dirty.iter().filter(|f| f.kind.quarantined()).count() as u64;
    assert_eq!(
        stat(&stats, "frames_quarantined"),
        expect_quarantined,
        "NaN frames and replay copies quarantine, everything else admits: {stats}"
    );
    assert!(
        expect_quarantined > 0,
        "the stream must exercise quarantine"
    );
    assert!(
        stat(&stats, "leaves_repaired") > 0,
        "duplicates/drift must be repaired: {stats}"
    );
    assert_eq!(stat(&stats, "frames_dropped"), 0, "{stats}");
    assert!(
        stat(&stats, "alarms") > 0,
        "the injected outage must alarm: {stats}"
    );
    assert!(
        incidents.iter().any(|line| line.contains("L4")),
        "some incident must localize to the injected L4 outage: {incidents:?}"
    );

    // zero panics: the pipeline restart counter stays at 0
    assert!(
        metrics.contains(r#"rapd_pipeline_restarts_total{reason="panic"} 0"#),
        "{metrics}"
    );
    assert!(
        metrics.contains("rapd_frames_quarantined_total{reason="),
        "{metrics}"
    );

    // --- run 2: the uncorrupted baseline — the same frames in order, minus
    // the ones the dirty run quarantined whole ---
    let quarantined_ts: std::collections::HashSet<u64> = dirty
        .iter()
        .filter(|f| f.kind != Corruption::Replay && f.kind.quarantined())
        .map(|f| f.ts)
        .collect();
    let baseline: Vec<Delivery> = clean
        .iter()
        .filter(|(ts, _)| !quarantined_ts.contains(ts))
        .map(|(ts, frame)| (*ts, named_rows(frame)))
        .collect();
    let (base_stats, base_incidents, _) = run_stream("baseline", &schema, &baseline);

    assert_accounting(&base_stats);
    assert_eq!(stat(&base_stats, "frames_quarantined"), 0, "{base_stats}");
    assert_eq!(stat(&base_stats, "leaves_repaired"), 0, "{base_stats}");

    // the tentpole claim: repairs and reordering restore the clean subset
    // exactly, so localization output is byte-identical
    assert_eq!(
        incidents, base_incidents,
        "clean-subset RAP output must match the uncorrupted run byte-for-byte"
    );
}

#[test]
fn negative_values_clamp_and_drift_beyond_the_allowance_quarantines() {
    let spool = temp_spool("edges");
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        spool_dir: Some(spool.clone()),
        schema_drift_limit: 1,
        // zero lateness: timestamped frames emit immediately, so replays
        // and stale timestamps are judged right away
        max_lateness: std::time::Duration::from_millis(0),
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());

    let reply = client.request(
        r#"{"type":"schema","tenant":"t","attributes":[["loc",["a","b"]],["site",["x","y"]]]}"#,
    );
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));

    // negative value: admitted with a clamp repair
    let reply =
        client.request(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],5],[["b","y"],-3]]}"#);
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("repaired").and_then(Json::as_bool), Some(true));

    // first unknown value is within the allowance of 1: stripped
    let reply = client
        .request(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],5],[["ghost1","x"],2]]}"#);
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("repaired").and_then(Json::as_bool), Some(true));

    // second distinct unknown value exceeds it: quarantined
    let reply = client
        .request(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],5],[["ghost2","x"],2]]}"#);
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("reason").and_then(Json::as_str),
        Some("schema_drift"),
        "{reply}"
    );

    // a NaN (wire null) value quarantines the whole frame
    let reply =
        client.request(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],null]],"ts":1000}"#);
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("reason").and_then(Json::as_str),
        Some("non_finite"),
        "{reply}"
    );

    // replay and late frames quarantine through the reorder buffer
    for line in [
        r#"{"type":"observe","tenant":"t","rows":[[["a","x"],1]],"ts":2000}"#,
        r#"{"type":"observe","tenant":"t","rows":[[["a","x"],1]],"ts":3000}"#,
    ] {
        let reply = client.request(line);
        assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(true));
    }
    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));
    // ts=3000 was already accepted (replay); ts=2500 is behind it (late)
    client.send_line(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],1]],"ts":3000}"#);
    client.send_line(r#"{"type":"observe","tenant":"t","rows":[[["a","x"],1]],"ts":2500}"#);
    for _ in 0..2 {
        let reply = client.read_reply();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
    }

    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    // the quarantine verb surfaces the rejects, newest first
    let reply = client.request(r#"{"type":"quarantine","limit":10}"#);
    let records = reply.get("records").and_then(Json::as_arr).unwrap();
    let reasons: Vec<&str> = records
        .iter()
        .filter_map(|r| r.get("reason").and_then(Json::as_str))
        .collect();
    for expected in ["schema_drift", "non_finite", "replay", "late"] {
        assert!(
            reasons.contains(&expected),
            "missing {expected} in {reasons:?}"
        );
    }

    let stats = client.request(r#"{"type":"stats"}"#);
    assert_accounting(&stats);
    assert_eq!(stat(&stats, "frames_ingested"), 8, "{stats}");
    assert_eq!(stat(&stats, "frames_quarantined"), 4, "{stats}");
    assert!(stat(&stats, "leaves_repaired") >= 2, "{stats}");

    // per-reason counters surface in /metrics
    let metrics = http_get(server.metrics_addr(), "/metrics");
    for family in [
        r#"rapd_frames_quarantined_total{reason="non_finite"} 1"#,
        r#"rapd_frames_quarantined_total{reason="schema_drift"} 1"#,
        r#"rapd_frames_quarantined_total{reason="replay"} 1"#,
        r#"rapd_frames_quarantined_total{reason="late"} 1"#,
        r#"rapd_leaves_repaired_total{reason="negative"} 1"#,
        r#"rapd_leaves_repaired_total{reason="schema_drift"} 1"#,
    ] {
        assert!(metrics.contains(family), "missing `{family}` in {metrics}");
    }

    // the quarantine spool holds CRC-framed JSON lines for the tenant
    let spool_text = std::fs::read_to_string(spool.join("quarantine").join("t.jsonl"))
        .expect("quarantine spool exists");
    assert_eq!(spool_text.lines().count(), 4, "{spool_text}");
    for line in spool_text.lines() {
        let (json, crc) = line.rsplit_once('\t').expect("CRC-framed spool line");
        assert_eq!(crc.len(), 8, "8 hex digits of CRC32: {line}");
        let doc = parse(json).expect("spool lines are valid JSON");
        assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("t"));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
