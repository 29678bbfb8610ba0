//! Detect-mode end-to-end: rapd in `--detect` mode consumes a **raw,
//! unlabelled** cdnsim anomaly stream over TCP — timestamped frames, no
//! anomaly flags, no external alarm — and must
//!
//! * self-trigger a localization inside every injection window
//!   (recall ≥ 0.9 with at most one false trigger),
//! * attach severity and per-leaf detection σ-scores to each incident,
//! * count each detection in `rapd_detections_total{severity}`, and
//! * keep the frame accounting invariant intact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use cdnsim::{named_rows, AnomalyStream, AnomalyStreamConfig};
use eval::evaluate_detection;
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

/// A raw `observe` line: named rows straight off the simulator, an event
/// timestamp, and **no labels or forecasts** — exactly what a telemetry
/// agent would ship.
fn observe_line(tenant: &str, ts: u64, rows: &[(Vec<String>, f64)]) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("observe")),
        ("tenant".to_string(), Json::str(tenant)),
        ("ts".to_string(), Json::Num(ts as f64)),
        (
            "rows".to_string(),
            Json::Arr(
                rows.iter()
                    .map(|(names, v)| {
                        Json::Arr(vec![
                            Json::Arr(names.iter().map(|n| Json::str(n.clone())).collect()),
                            Json::Num(*v),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[test]
fn rapd_detect_mode_self_triggers_on_a_raw_stream() {
    let stream_config = AnomalyStreamConfig::default();
    let stream = AnomalyStream::new(stream_config, 7);
    let schema = stream.model().topology().schema().clone();

    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        // Roomy queue: recall is judged on every frame reaching the
        // detector, so overload drops are not part of this test.
        queue_capacity: 4096,
        detect: true,
        detect_threshold: 4.0,
        seasonal_period: 0,
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());

    // Register the simulator's full 4-attribute schema.
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

    // Replay the whole stream: one timestamped raw frame per minute.
    for step in 0..stream.steps() {
        let frame = stream.frame(step);
        let line = observe_line("edge", step as u64 * 60_000, &named_rows(&frame));
        let reply = client.request(&line);
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "step {step}: {reply}"
        );
    }
    let reply = client.request(r#"{"type":"flush"}"#);
    assert_eq!(
        reply.get("flushed").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    let m = server.metrics();
    let sink = server.sink();
    server.shutdown();

    // --- accounting: every frame lands in exactly one bucket ---
    use std::sync::atomic::Ordering;
    let ingested = m.frames_ingested.load(Ordering::Relaxed);
    assert_eq!(ingested, stream.steps() as u64);
    assert_eq!(
        m.total_processed() + m.total_dropped() + m.total_shed() + m.frames_quarantined.total(),
        ingested,
        "accounting must balance"
    );

    // --- recall / false triggers against the stream's ground truth ---
    // FrameDetection.step is the 0-based observation index; with a
    // monotonic timestamped stream and no drops it equals the stream step.
    let incidents = sink.recent(100);
    let triggers: Vec<usize> = incidents.iter().map(|i| i.step).collect();
    let windows: Vec<(usize, usize)> = stream
        .injections()
        .iter()
        .map(|inj| (inj.step, inj.duration))
        .collect();
    let outcome = evaluate_detection(&windows, &triggers);
    assert!(
        outcome.recall() >= 0.9,
        "recall {:.3} < 0.9 (triggers {triggers:?}, windows {windows:?})",
        outcome.recall()
    );
    assert!(
        outcome.false_triggers.len() <= 1,
        "too many false triggers: {:?}",
        outcome.false_triggers
    );

    // --- every incident carries severity and detection evidence ---
    assert!(!incidents.is_empty());
    for incident in &incidents {
        let severity = incident.severity.as_deref().expect("severity attached");
        assert!(
            ["warn", "high", "critical"].contains(&severity),
            "unknown severity {severity}"
        );
        let detection = incident.detection.as_ref().expect("detection evidence");
        assert!(
            detection.score >= 4.0,
            "trigger score {:.2} below the 4σ threshold",
            detection.score
        );
        assert!(!detection.leaf_scores.is_empty());
        assert!(incident.timings.detector_seconds >= 0.0);
    }

    // --- detection counters mirror the incidents, by severity ---
    assert_eq!(m.detections.total(), incidents.len() as u64);
    assert_eq!(m.alarms.load(Ordering::Relaxed), incidents.len() as u64);
    // The detector stage histogram ticks once per processed frame.
    assert_eq!(m.stages.detector.count(), m.total_processed());
}

#[test]
fn detect_metrics_render_severity_labels_end_to_end() {
    let stream = AnomalyStream::new(
        AnomalyStreamConfig {
            steps: 120,
            warmup: 40,
            injections: 1,
            ..AnomalyStreamConfig::default()
        },
        7,
    );
    let schema = stream.model().topology().schema().clone();
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_capacity: 1024,
        detect: true,
        detect_threshold: 4.0,
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());
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
    client.request(
        &Json::Obj(vec![
            ("type".to_string(), Json::str("schema")),
            ("tenant".to_string(), Json::str("edge")),
            ("attributes".to_string(), attributes),
        ])
        .render(),
    );
    // Untimestamped raw frames: arrival order, no reorder buffer.
    for step in 0..stream.steps() {
        let frame = stream.frame(step);
        let rows = named_rows(&frame);
        let line = Json::Obj(vec![
            ("type".to_string(), Json::str("observe")),
            ("tenant".to_string(), Json::str("edge")),
            (
                "rows".to_string(),
                Json::Arr(
                    rows.iter()
                        .map(|(names, v)| {
                            Json::Arr(vec![
                                Json::Arr(names.iter().map(|n| Json::str(n.clone())).collect()),
                                Json::Num(*v),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render();
        client.request(&line);
    }
    client.request(r#"{"type":"flush"}"#);

    // The stats verb exposes the per-severity detection counters …
    let stats = client.request(r#"{"type":"stats"}"#);
    let detections = stats.get("detections").expect("stats carry detections");
    let total: u64 = ["warn", "high", "critical"]
        .iter()
        .filter_map(|s| detections.get(s).and_then(Json::as_u64))
        .sum();
    assert!(total >= 1, "{stats}");

    // … and /metrics renders them with the fixed label set only.
    let metrics = http_get(server.metrics_addr(), "/metrics");
    for severity in ["warn", "high", "critical"] {
        assert!(
            metrics.contains(&format!("rapd_detections_total{{severity=\"{severity}\"}}")),
            "{metrics}"
        );
    }
    assert!(
        metrics.contains("rapd_stage_seconds_count{stage=\"detector\"}"),
        "{metrics}"
    );
    server.shutdown();
}

/// The time from anomaly to root anomaly pattern does not wait for the
/// next frame: with the default 2 s lateness and frames a minute apart,
/// the collapse frame is the exact successor of the last released frame,
/// so rapd localizes it on arrival. Nothing is sent after it — no frame
/// and no `flush` — so an incident shows up only if the reorder buffer
/// released the frame by itself.
#[test]
fn the_last_in_order_frame_is_localized_without_a_successor_or_flush() {
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        detect: true,
        detect_threshold: 4.0,
        pipeline: pipeline::PipelineConfig {
            k: 2,
            ..pipeline::PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    assert_eq!(config.max_lateness, std::time::Duration::from_secs(2));
    let server = service::start(config, service::default_factory()).expect("daemon boots");
    let mut client = Client::connect(server.ingest_addr());
    let ok = |reply: Json| {
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        )
    };
    ok(client.request(r#"{"type":"schema","tenant":"edge","attributes":[["a",["a1","a2"]]]}"#));
    let frame = |ts: u64, a1: f64| {
        let rows = [
            (vec!["a1".to_string()], a1),
            (vec!["a2".to_string()], 100.0),
        ];
        observe_line("edge", ts, &rows)
    };
    // warm past the detector's min_samples, then collapse leaf a1
    for step in 0..40u64 {
        ok(client.request(&frame(step * 60_000, 100.0)));
    }
    ok(client.request(&frame(40 * 60_000, 0.0)));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let incidents = loop {
        let reply = client.request(r#"{"type":"incidents","limit":5}"#);
        let list = reply
            .get("incidents")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("bad incidents reply: {reply}"))
            .to_vec();
        if !list.is_empty() {
            break list;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no incident within 5 s: the collapse frame is still held"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(incidents.len(), 1, "{incidents:?}");
    let raps = incidents[0]
        .get("raps")
        .and_then(Json::as_arr)
        .expect("raps");
    let top = raps[0].as_arr().expect("rap pair")[0].as_str();
    assert_eq!(top, Some("(a1)"), "{incidents:?}");
    server.shutdown();
}
