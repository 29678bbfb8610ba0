//! Introspection end-to-end: boot rapd over TCP and assert that
//!
//! * one `FrameId` token — returned in the `observe` reply — reappears on
//!   the frame's span (`trace` verb), its incident (`incidents` verb),
//!   and, for a corrupted twin, its quarantine record (`quarantine`
//!   verb), so a single grep reconstructs the frame's whole life,
//! * the `debug` control verb returns schema-valid live internals
//!   (queue depths, per-tenant detector/breaker/reorder state, flight
//!   recorders, memo and pool counters, e2e latency, blackbox dumps),
//! * `/metrics` passes the exposition-format lint and exports
//!   `rapd_build_info` and the `rapd_e2e_seconds` latency histogram.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use service::json::{parse, Json};
use service::ServiceConfig;

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

/// The `observe` reply's minted correlation token.
fn frame_token(reply: &Json) -> String {
    reply
        .get("frame")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("observe reply carries a frame token: {reply}"))
        .to_string()
}

/// Assert `doc[key]` is a finite number and return it.
fn num(doc: &Json, key: &str) -> f64 {
    let v = doc
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("`{key}` must be a number: {doc}"));
    assert!(v.is_finite(), "`{key}` must be finite: {doc}");
    v
}

#[test]
fn one_frame_token_reconstructs_the_whole_lifecycle() {
    obs::set_enabled(true);
    obs::clear_spans();

    let spool = std::env::temp_dir().join(format!("rapd_introspection_{}", std::process::id()));
    std::fs::create_dir_all(&spool).expect("create spool dir");

    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        spool_dir: Some(spool.clone()),
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

    // healthy warmup: every admitted frame is acknowledged with a token
    let steady = [
        ("L1", "S1", 100.0),
        ("L1", "S2", 100.0),
        ("L2", "S1", 100.0),
        ("L2", "S2", 100.0),
    ];
    for _ in 0..12 {
        let reply = client.request(&observe_line(&steady));
        assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(true));
        assert!(!frame_token(&reply).is_empty());
    }

    // the outage frame: remember its token, then follow it everywhere
    let outage = [
        ("L1", "S1", 5.0),
        ("L1", "S2", 5.0),
        ("L2", "S1", 100.0),
        ("L2", "S2", 100.0),
    ];
    let reply = client.request(&observe_line(&outage));
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(true));
    let token = frame_token(&reply);
    assert!(
        token.starts_with("edge-"),
        "token is tenant-scoped: {token}"
    );

    // the corrupted twin: every row references unknown attribute values,
    // so admission quarantines it under a second, distinct token
    let twin = [("XX", "YY", 5.0)];
    let reply = client.request(&observe_line(&twin));
    assert_eq!(reply.get("queued").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("quarantined").and_then(Json::as_bool), Some(true));
    let twin_token = frame_token(&reply);
    assert_ne!(twin_token, token, "each frame gets its own token");

    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(reply.get("flushed").and_then(Json::as_bool), Some(true));

    // --- the incident carries the outage frame's token ---
    let incidents = client.request(r#"{"type":"incidents","limit":10}"#);
    let list = incidents.get("incidents").and_then(Json::as_arr).unwrap();
    assert_eq!(list.len(), 1, "the collapse must alarm exactly once");
    assert_eq!(
        list[0].get("frame").and_then(Json::as_str),
        Some(token.as_str()),
        "incident must carry the frame token: {}",
        list[0]
    );

    // --- the span ring carries the same token on the frame's spans ---
    let reply = client.request(r#"{"type":"trace","limit":500}"#);
    let spans = reply.get("spans").and_then(Json::as_arr).unwrap();
    let stamped: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("frame").and_then(Json::as_str) == Some(token.as_str()))
        .collect();
    assert!(
        !stamped.is_empty(),
        "at least one span is stamped with {token}: {spans:?}"
    );
    let names: Vec<&str> = stamped
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert!(
        names.contains(&"rapd.frame"),
        "the shard's frame span carries the token, got {names:?}"
    );

    // --- the quarantine record carries the twin's token ---
    let reply = client.request(r#"{"type":"quarantine","limit":10}"#);
    let records = reply.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 1, "exactly the twin is quarantined");
    assert_eq!(
        records[0].get("frame").and_then(Json::as_str),
        Some(twin_token.as_str()),
        "quarantine record must carry the twin's token: {}",
        records[0]
    );

    // --- the debug verb returns schema-valid live internals ---
    let debug = client.request(r#"{"type":"debug"}"#);
    assert_eq!(debug.get("type").and_then(Json::as_str), Some("debug"));
    assert!(num(&debug, "uptime_seconds") >= 0.0);
    assert_eq!(
        debug.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "version mirrors the build: {debug}"
    );
    let depths = debug.get("queue_depths").and_then(Json::as_arr).unwrap();
    assert_eq!(depths.len(), 1, "one shard, one queue depth: {debug}");
    assert!(depths[0].as_u64().is_some());

    let tenants = debug.get("tenants").and_then(Json::as_arr).unwrap();
    assert_eq!(tenants.len(), 1, "one tenant registered: {debug}");
    let edge = &tenants[0];
    assert_eq!(edge.get("tenant").and_then(Json::as_str), Some("edge"));
    assert_eq!(edge.get("shard").and_then(Json::as_u64), Some(0));
    assert_eq!(edge.get("engine").and_then(Json::as_str), Some("classic"));
    assert_eq!(
        edge.get("detector_phase"),
        Some(&Json::Null),
        "classic engines have no detector: {edge}"
    );
    assert_eq!(edge.get("breaker").and_then(Json::as_str), Some("closed"));
    let reorder = edge.get("reorder").expect("reorder block");
    assert_eq!(reorder.get("buffered").and_then(Json::as_u64), Some(0));
    assert_eq!(reorder.get("lag").and_then(Json::as_u64), Some(0));
    let last = edge.get("last_frame").and_then(Json::as_str).unwrap();
    assert!(last.starts_with("edge-"), "last_frame is a token: {edge}");

    let recorders = debug
        .get("flight_recorders")
        .and_then(Json::as_arr)
        .unwrap();
    let shard_rec = recorders
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("shard-0"))
        .unwrap_or_else(|| panic!("shard-0 registered a flight recorder: {debug}"));
    assert!(
        num(shard_rec, "recorded") >= 1.0,
        "the recorder captured lines: {shard_rec}"
    );
    assert!(num(shard_rec, "lines") <= 256.0, "ring stays bounded");
    assert!(num(shard_rec, "dropped") >= 0.0);

    let memo = debug.get("memo").expect("memo block");
    let hit_rate = num(memo, "hit_rate");
    assert!((0.0..=1.0).contains(&hit_rate), "hit rate is a fraction");
    num(memo, "served");
    num(memo, "scratch");

    let pool = debug.get("pool").expect("pool block");
    for key in ["maps", "parallel_maps", "items", "steals"] {
        num(pool, key);
    }
    let fraction = num(pool, "parallel_fraction");
    assert!((0.0..=1.0).contains(&fraction));

    let e2e = debug.get("e2e").expect("e2e block");
    assert!(
        num(e2e, "count") >= 1.0,
        "the incident observed an e2e latency: {debug}"
    );
    assert!(num(e2e, "sum_seconds") >= 0.0);

    let dumps = debug.get("blackbox_dumps").expect("blackbox block");
    for trigger in ["panic", "deadline", "breaker_open"] {
        assert_eq!(
            num(dumps, trigger),
            0.0,
            "no faults injected, no dumps: {debug}"
        );
    }
    let dir = debug.get("blackbox_dir").and_then(Json::as_str).unwrap();
    assert!(
        dir.contains("blackbox"),
        "spooled daemons expose their blackbox dir: {debug}"
    );

    // --- tenant filtering: scoped and unknown ---
    let scoped = client.request(r#"{"type":"debug","tenant":"edge"}"#);
    let tenants = scoped.get("tenants").and_then(Json::as_arr).unwrap();
    assert_eq!(tenants.len(), 1);
    let none = client.request(r#"{"type":"debug","tenant":"nope"}"#);
    let tenants = none.get("tenants").and_then(Json::as_arr).unwrap();
    assert!(tenants.is_empty(), "unknown tenant filters to empty");

    // --- /metrics passes the lint and exports build info and e2e ---
    let metrics = http_get(server.metrics_addr(), "/metrics");
    service::metrics::lint::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("exposition lint failed: {e}"));
    let build_line = metrics
        .lines()
        .find(|l| l.starts_with("rapd_build_info{"))
        .expect("rapd_build_info gauge is exported");
    assert!(
        build_line.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))),
        "build info carries the crate version: {build_line}"
    );
    assert!(
        build_line.contains("commit=\""),
        "and a commit: {build_line}"
    );
    let e2e_count = metrics
        .lines()
        .find(|l| l.starts_with("rapd_e2e_seconds_count"))
        .expect("e2e histogram is exported")
        .rsplit_once(' ')
        .unwrap()
        .1
        .parse::<u64>()
        .unwrap();
    assert!(e2e_count >= 1, "the incident observed e2e latency");
    assert!(
        metrics.contains("rapd_blackbox_dumps_total{trigger=\"panic\"} 0"),
        "dump counters are exported even at zero"
    );

    // the stats verb mirrors uptime and version for quick `rapminer`-side
    // triage without parsing the full debug document
    let stats = client.request(r#"{"type":"stats"}"#);
    assert!(num(&stats, "uptime_seconds") >= 0.0);
    assert_eq!(
        stats.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );

    server.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}
