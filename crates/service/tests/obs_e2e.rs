//! Observability end-to-end: boot rapd with `--log-json` semantics
//! (`log_json: true` plus a pre-installed capture sink standing in for
//! stderr), drive an injected outage over the wire, and assert that
//!
//! * the event stream emits valid JSON log lines carrying span ids,
//! * the incident's localization trace is attached, internally consistent
//!   (deleted attributes and per-layer counts match its SearchStats), and
//!   queryable over the control socket,
//! * `/metrics` exports per-stage (`cp`, `search`, `detect`) timing
//!   histograms whose counts agree with `rapd_alarms_total`,
//! * the `trace` control verb returns the completed span ring.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use service::json::{parse, Json};
use service::ServiceConfig;

/// A `Write` sink that appends to a shared buffer — the test's stand-in
/// for the stderr sink `log_json` installs in production.
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

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

fn observe_line(rows: &[(&str, &str, f64)]) -> String {
    let rows = rows
        .iter()
        .map(|(l, s, v)| {
            Json::Arr(vec![
                Json::Arr(vec![Json::str(*l), Json::str(*s)]),
                Json::Num(*v),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::str("observe")),
        ("tenant".to_string(), Json::str("edge")),
        ("rows".to_string(), Json::Arr(rows)),
    ])
    .render()
}

fn metric_value(metrics: &str, line_prefix: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no metric line starts with {line_prefix}"))
        .rsplit_once(' ')
        .unwrap()
        .1
        .parse()
        .unwrap_or_else(|e| panic!("unparseable value for {line_prefix}: {e}"))
}

#[test]
fn rapd_emits_logs_traces_and_stage_metrics_for_an_injected_outage() {
    // stand-in stderr: install before boot; `log_json` must not replace it
    let captured = Arc::new(Mutex::new(Vec::new()));
    obs::install_sink(Box::new(Capture(Arc::clone(&captured))));
    obs::set_enabled(true);
    obs::clear_spans();

    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        log_json: true,
        forecast_window: 5,
        pipeline: pipeline::PipelineConfig {
            history_len: 32,
            warmup: 5,
            alarm_threshold: 0.2,
            leaf_threshold: 0.3,
            k: 3,
            ..pipeline::PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());

    let reply = client.request(
        r#"{"type":"schema","tenant":"edge","attributes":[["location",["L1","L2"]],["site",["S1","S2"]]]}"#,
    );
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));

    // a protocol error must surface as a warn event in the log stream
    let reply = client.request("definitely not json");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));

    // healthy warmup, then the L1 outage
    let steady = [
        ("L1", "S1", 100.0),
        ("L1", "S2", 100.0),
        ("L2", "S1", 100.0),
        ("L2", "S2", 100.0),
    ];
    for _ in 0..12 {
        let reply = client.request(&observe_line(&steady));
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
    }
    let outage = [
        ("L1", "S1", 5.0),
        ("L1", "S2", 5.0),
        ("L2", "S1", 100.0),
        ("L2", "S2", 100.0),
    ];
    let reply = client.request(&observe_line(&outage));
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    let stats = client.request(r#"{"type":"stats"}"#);
    let alarms = stats.get("alarms").and_then(Json::as_u64).unwrap();
    assert_eq!(alarms, 1, "the collapse must alarm exactly once: {stats}");

    // --- (a) the log stream is valid JSON lines with span correlation ---
    let log_text = String::from_utf8(captured.lock().unwrap().clone()).expect("utf-8 logs");
    let mut incident_lines = 0;
    let mut protocol_error_lines = 0;
    let mut lines_with_span = 0;
    for line in log_text.lines() {
        let doc = parse(line).unwrap_or_else(|e| panic!("invalid log line {line:?}: {e}"));
        assert!(
            doc.get("ts_micros").and_then(Json::as_u64).is_some(),
            "{line}"
        );
        let level = doc.get("level").and_then(Json::as_str).unwrap();
        assert!(
            ["debug", "info", "warn", "error"].contains(&level),
            "{line}"
        );
        assert!(doc.get("target").and_then(Json::as_str).is_some(), "{line}");
        let msg = doc.get("msg").and_then(Json::as_str).unwrap();
        if doc.get("span").and_then(Json::as_u64).is_some() {
            lines_with_span += 1;
            assert!(
                doc.get("trace").and_then(Json::as_u64).is_some(),
                "a span id implies a trace id: {line}"
            );
        }
        if msg == "incident" {
            incident_lines += 1;
            assert_eq!(doc.get("target").and_then(Json::as_str), Some("rapd.shard"));
            let fields = doc.get("fields").expect("incident event has fields");
            assert_eq!(fields.get("tenant").and_then(Json::as_str), Some("edge"));
            assert!(
                doc.get("span").and_then(Json::as_u64).is_some(),
                "the incident event must carry the emitting span id: {line}"
            );
        }
        if msg == "protocol_error" {
            protocol_error_lines += 1;
        }
    }
    assert_eq!(incident_lines, 1, "one incident event:\n{log_text}");
    assert!(protocol_error_lines >= 1, "warn event for the bad line");
    assert!(lines_with_span >= 1, "span-correlated lines exist");

    // --- (b) the incident carries a consistent localization trace ---
    let incidents = client.request(r#"{"type":"incidents","limit":10}"#);
    let list = incidents.get("incidents").and_then(Json::as_arr).unwrap();
    assert_eq!(list.len(), 1);
    let incident = &list[0];
    let top = incident.get("raps").and_then(Json::as_arr).unwrap()[0]
        .as_arr()
        .unwrap()[0]
        .as_str()
        .unwrap();
    assert!(top.contains("L1"), "must localize the L1 outage, got {top}");
    let trace = incident.get("trace").expect("incident carries a trace");
    assert_ne!(*trace, Json::Null, "rapminer must attach its trace");
    let stats_doc = trace.get("stats").unwrap();
    let attrs = trace.get("attrs").unwrap().as_arr().unwrap();
    let deleted: Vec<&str> = attrs
        .iter()
        .filter(|a| a.get("deleted").and_then(Json::as_bool) == Some(true))
        .map(|a| a.get("attribute").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        deleted.len() as u64,
        stats_doc
            .get("attrs_deleted")
            .and_then(Json::as_u64)
            .unwrap(),
        "deleted-attribute set must match SearchStats: {trace}"
    );
    let layers = trace.get("layers").unwrap().as_arr().unwrap();
    assert!(!layers.is_empty(), "the search visited at least one layer");
    let (mut cuboids, mut combos, mut candidates) = (0, 0, 0);
    for layer in layers {
        cuboids += layer.get("cuboids").and_then(Json::as_u64).unwrap();
        combos += layer.get("combos").and_then(Json::as_u64).unwrap();
        candidates += layer.get("candidates").and_then(Json::as_u64).unwrap();
    }
    for (total, key) in [
        (cuboids, "cuboids_visited"),
        (combos, "combos_visited"),
        (candidates, "candidates_found"),
    ] {
        assert_eq!(
            total,
            stats_doc.get(key).and_then(Json::as_u64).unwrap(),
            "per-layer counts must sum to SearchStats.{key}: {trace}"
        );
    }
    let timings = incident.get("timings").expect("incident carries timings");
    let localize = timings
        .get("localize_seconds")
        .and_then(Json::as_f64)
        .unwrap();
    let cp = timings.get("cp_seconds").and_then(Json::as_f64).unwrap();
    let search = timings
        .get("search_seconds")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        localize >= cp + search,
        "stage timings must nest: localize {localize} >= cp {cp} + search {search}"
    );

    // --- (c) /metrics exports consistent per-stage histograms ---
    let metrics = http_get(server.metrics_addr(), "/metrics");
    assert_eq!(metric_value(&metrics, "rapd_alarms_total"), alarms);
    for stage in ["cp", "search", "detect"] {
        let count = metric_value(
            &metrics,
            &format!("rapd_stage_seconds_count{{stage=\"{stage}\"}}"),
        );
        assert_eq!(
            count, alarms,
            "stage {stage} observes once per incident:\n{metrics}"
        );
        let inf = metric_value(
            &metrics,
            &format!("rapd_stage_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}}"),
        );
        assert_eq!(inf, count, "+Inf bucket equals the count for {stage}");
    }

    // --- the trace control verb serves the completed span ring ---
    let reply = client.request(r#"{"type":"trace","limit":500}"#);
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("trace"));
    let spans = reply.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty(), "the span ring must not be empty");
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for expected in [
        "rapd.frame",
        "pipeline.observe",
        "pipeline.detect",
        "pipeline.localize",
        "rapminer.search",
    ] {
        assert!(
            names.contains(&expected),
            "span ring must contain {expected}, got {names:?}"
        );
    }
    // spans are well-formed: ids, trace ids, and elapsed times present
    for span in spans {
        assert!(span.get("id").and_then(Json::as_u64).is_some());
        assert!(span.get("trace").and_then(Json::as_u64).is_some());
        assert!(span.get("elapsed_micros").and_then(Json::as_u64).is_some());
    }
    // the localize span nests under the frame span of the same trace
    let frame_span = spans
        .iter()
        .find(|s| {
            s.get("name").and_then(Json::as_str) == Some("rapd.frame")
                && s.get("fields").and_then(|f| f.get("alarm")).is_some()
        })
        .expect("the alarming frame's span is in the ring");
    let frame_trace = frame_span.get("trace").and_then(Json::as_u64).unwrap();
    let localize_span = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("pipeline.localize"))
        .unwrap();
    assert_eq!(
        localize_span.get("trace").and_then(Json::as_u64),
        Some(frame_trace),
        "pipeline.localize must share the alarming frame's trace id"
    );

    server.shutdown();
}
