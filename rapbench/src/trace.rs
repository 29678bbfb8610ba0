//! The traced replay behind the per-layer metrics: a workload's own
//! inputs go in-process through the public function of each layer rapd
//! chains, with a span around every call. Durations the program already
//! stamps itself (detector update, CP, search) become child spans of the
//! call that produced them. Spans stay in memory and are written out as
//! JSON lines when the run ends.
//!
//! Each replay runs twice over the same requests from fresh state:
//! untraced, then traced; the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use baselines::Localizer;
use datasets::Dataset;
use pipeline::{DetectingPipeline, DetectorConfig, LocalizationPipeline};
use rapminer::{Config, RapMiner, SearchStats};
use service::json::Json;
use service::proto::{
    build_frame, parse_request, read_wire_frame, write_wire_frame, Request, WireEnvelope, WireRead,
};
use service::{IncidentRecord, IncidentSink, Metrics, WalEntry};
use timeseries::MovingAverage;

use crate::inputs::Book;
use crate::spec::{DaemonLoad, DETECT_THRESHOLD, FORECAST_WINDOW, PIPELINE};

/// One timed call.
struct Span {
    name: &'static str,
    /// The request (frame or case) the call served.
    req: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Duration measured by the program itself, not around a call.
    stamped: bool,
}

/// Spans of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let doc = Json::Obj(vec![
                ("name".to_string(), Json::str(s.name)),
                ("req".to_string(), Json::Num(s.req as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                ("stamped".to_string(), Json::Bool(s.stamped)),
            ]);
            writeln!(out, "{}", doc.render())?;
        }
        out.flush()
    }
}

/// Times calls into a [`Recorder`] when tracing, and only makes them
/// otherwise.
struct Tracer<'a>(Option<&'a mut Recorder>);

impl Tracer<'_> {
    fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, usize) {
        let Some(rec) = self.0.as_deref_mut() else {
            return (f(), 0);
        };
        let start_ns = rec.now();
        let r = f();
        let end_ns = rec.now();
        rec.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns,
            end_ns,
            stamped: false,
        });
        (r, rec.spans.len() - 1)
    }

    /// A child of span `parent` lasting `seconds` as the program measured
    /// it, laid out to end where its parent ends.
    fn stamp(&mut self, name: &'static str, parent: usize, seconds: f64) -> usize {
        let Some(rec) = self.0.as_deref_mut() else {
            return 0;
        };
        let p = &rec.spans[parent];
        let (req, end_ns) = (p.req, p.end_ns);
        let dur = ((seconds * 1e9) as u64).min(end_ns - p.start_ns);
        rec.spans.push(Span {
            name,
            req,
            parent: Some(parent),
            start_ns: end_ns - dur,
            end_ns,
            stamped: true,
        });
        rec.spans.len() - 1
    }
}

/// Search diagnostics summed over localizations.
#[derive(Debug, Default)]
struct SearchTotals {
    runs: u64,
    combos: u64,
    cuboids: u64,
    candidates: u64,
    attrs_deleted: u64,
    early_stops: u64,
}

impl SearchTotals {
    fn add(&mut self, s: &SearchStats) {
        self.runs += 1;
        self.combos += s.combos_visited as u64;
        self.cuboids += s.cuboids_visited as u64;
        self.candidates += s.candidates_found as u64;
        self.attrs_deleted += s.attrs_deleted as u64;
        self.early_stops += u64::from(s.early_stopped);
    }

    fn per_run(&self, total: u64) -> f64 {
        total as f64 / self.runs.max(1) as f64
    }
}

/// What a traced replay reports: per-layer metric values by name.
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub recorder: Recorder,
}

/// The share names of layers whose spans feed `*_share` metrics.
const LAYERS: &[(&str, &str)] = &[
    ("proto.parse", "proto.parse_share"),
    ("proto.build_frame", "proto.build_frame_share"),
    ("proto.envelope", "proto.envelope_share"),
    ("proto.wire_rtt", "proto.wire_rtt_share"),
    ("wal.render", "wal.render_share"),
    ("pipeline.observe", "pipeline.observe_share"),
    ("detect.update", "detect.update_share"),
    ("rapminer.localize", "rapminer.localize_share"),
    ("rapminer.cp", "rapminer.cp_share"),
    ("rapminer.search", "rapminer.search_share"),
    ("sink.record", "sink.record_share"),
];

/// Replay state for one pass; everything the pass touches on disk lives
/// under its own directory.
trait Replay {
    fn step(&mut self, k: u64, t: &mut Tracer) -> Result<(), String>;
    /// Search diagnostics of the localizations the pass ran.
    fn search(&self) -> &SearchTotals;
}

/// What the two passes of a replay measured.
struct Passes<R> {
    /// The traced pass's final state.
    replay: R,
    requests: u64,
    untraced_s: f64,
    traced_s: f64,
    recorder: Recorder,
    /// Support-count memo (served, evaluated) during the traced pass.
    memo: (u64, u64),
}

/// Run an untraced pass for `secs / 2`, then a traced pass over the same
/// requests from fresh state.
fn measure<R: Replay>(
    secs: f64,
    mut fresh: impl FnMut(&str) -> Result<R, String>,
) -> Result<Passes<R>, String> {
    let mut plain = fresh("untraced")?;
    let started = Instant::now();
    let mut requests = 0u64;
    while requests == 0 || started.elapsed().as_secs_f64() < secs / 2.0 {
        plain.step(requests, &mut Tracer(None))?;
        requests += 1;
    }
    let untraced_s = started.elapsed().as_secs_f64();
    drop(plain);
    let mut replay = fresh("traced")?;
    let memo_before = memo_counts();
    let mut recorder = Recorder::new();
    for k in 0..requests {
        replay.step(k, &mut Tracer(Some(&mut recorder)))?;
    }
    let traced_s = recorder.epoch.elapsed().as_secs_f64();
    let memo_after = memo_counts();
    Ok(Passes {
        replay,
        requests,
        untraced_s,
        traced_s,
        recorder,
        memo: (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1),
    })
}

impl<R: Replay> Passes<R> {
    /// The values every replay reports: layer shares, trace quality and
    /// search counts.
    fn values(&self) -> BTreeMap<&'static str, f64> {
        let wall_ns = self.traced_s * 1e9;
        let self_ns = self.recorder.self_ns();
        let mut values = BTreeMap::new();
        for &(span, metric) in LAYERS {
            values.insert(metric, *self_ns.get(span).unwrap_or(&0) as f64 / wall_ns);
        }
        values.insert(
            "trace.coverage",
            self_ns.values().sum::<u64>() as f64 / wall_ns,
        );
        values.insert(
            "trace.us_per_request",
            self.traced_s * 1e6 / self.requests as f64,
        );
        values.insert("trace.overhead_frac", 1.0 - self.untraced_s / self.traced_s);
        values.insert("trace.spans", self.recorder.spans.len() as f64);
        search_values(&mut values, self.replay.search(), self.memo);
        values
    }
}

fn search_values(values: &mut BTreeMap<&'static str, f64>, s: &SearchTotals, memo: (u64, u64)) {
    values.insert("rapminer.combos_per_localization", s.per_run(s.combos));
    values.insert("rapminer.cuboids_per_localization", s.per_run(s.cuboids));
    values.insert(
        "rapminer.candidates_per_localization",
        s.per_run(s.candidates),
    );
    values.insert(
        "rapminer.attrs_deleted_per_localization",
        s.per_run(s.attrs_deleted),
    );
    values.insert("rapminer.early_stop_frac", s.per_run(s.early_stops));
    let (served, total) = memo;
    values.insert(
        "rapminer.memo_hit_rate",
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        },
    );
}

fn memo_counts() -> (u64, u64) {
    let m = rapminer::memo_stats();
    (m.served, m.served + m.scratch)
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Daemon workloads
// ---------------------------------------------------------------------

/// A stand-in fleet worker at the far end of a loopback connection: it
/// reads each length-prefixed request and answers with an observe ack,
/// using the same framing calls as the router-to-worker hop.
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

const ECHO_ACK: &[u8] =
    br#"{"type":"ok","queued":true,"frame":"lt0-00000001-0","repaired":false,"ack_us":100}"#;

impl Echo {
    fn start(max: usize) -> Result<Echo, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind echo: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("echo addr: {e}"))?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect echo: {e}"))?;
        let (mut server, _) = listener.accept().map_err(|e| format!("accept echo: {e}"))?;
        let thread = std::thread::spawn(move || {
            while let Ok(WireRead::Frame(_)) = read_wire_frame(&mut server, max, || true) {
                if write_wire_frame(&mut server, ECHO_ACK).is_err() {
                    break;
                }
            }
        });
        Ok(Echo {
            stream,
            thread: Some(thread),
        })
    }

    fn round_trip(&mut self, payload: &[u8], max: usize) -> Result<Vec<u8>, String> {
        write_wire_frame(&mut self.stream, payload).map_err(|e| format!("echo send: {e}"))?;
        match read_wire_frame(&mut self.stream, max, || true) {
            Ok(WireRead::Frame(reply)) => Ok(reply),
            Ok(_) => Err("echo closed".to_string()),
            Err(e) => Err(format!("echo read: {e}")),
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One tenant's engine, as rapd's shard worker builds it.
enum Engine {
    Classic(LocalizationPipeline<MovingAverage, Box<dyn Localizer>>),
    Detecting(Box<DetectingPipeline<Box<dyn Localizer>>>),
}

impl Engine {
    fn build(detect: bool) -> Result<Engine, String> {
        let localizer = (service::default_factory())(PIPELINE.localize_threads);
        Ok(if detect {
            let detector = DetectorConfig {
                sigma_threshold: DETECT_THRESHOLD,
                ..DetectorConfig::default()
            };
            Engine::Detecting(Box::new(
                DetectingPipeline::try_new(PIPELINE, detector, localizer)
                    .map_err(|e| format!("detect pipeline: {e}"))?,
            ))
        } else {
            Engine::Classic(
                LocalizationPipeline::try_new(
                    PIPELINE,
                    MovingAverage::new(FORECAST_WINDOW),
                    localizer,
                )
                .map_err(|e| format!("pipeline: {e}"))?,
            )
        })
    }
}

struct DaemonReplay<'a> {
    book: &'a Book,
    schemas: Vec<mdkpi::Schema>,
    engines: Vec<Engine>,
    sink: IncidentSink,
    echo: Option<Echo>,
    max_bytes: usize,
    line_bytes: u64,
    wal_bytes: u64,
    incidents: u64,
    search: SearchTotals,
}

impl<'a> DaemonReplay<'a> {
    fn new(load: &DaemonLoad, book: &'a Book, dir: &Path) -> Result<DaemonReplay<'a>, String> {
        let _ = std::fs::remove_dir_all(dir);
        let max_bytes = service::ServiceConfig::default().max_frame_bytes;
        let mut schemas = Vec::new();
        for t in &book.frames.tenants {
            let Ok(Request::Schema { attributes, .. }) = parse_request(&t.schema_line, max_bytes)
            else {
                return Err(format!("schema line of {} does not parse", t.tenant));
            };
            schemas
                .push(mdkpi::Schema::from_parts(attributes).map_err(|e| format!("schema: {e}"))?);
        }
        let engines = (0..schemas.len())
            .map(|_| Engine::build(load.detect))
            .collect::<Result<_, _>>()?;
        let metrics = Arc::new(Metrics::new(1));
        let sink = IncidentSink::open(Some(&dir.join("incidents")), 256, 0, metrics)
            .map_err(|e| format!("open replay sink: {e}"))?;
        let echo = (load.workers > 0)
            .then(|| Echo::start(max_bytes))
            .transpose()?;
        Ok(DaemonReplay {
            book,
            schemas,
            engines,
            sink,
            echo,
            max_bytes,
            line_bytes: 0,
            wal_bytes: 0,
            incidents: 0,
            search: SearchTotals::default(),
        })
    }
}

impl Replay for DaemonReplay<'_> {
    fn step(&mut self, k: u64, t: &mut Tracer) -> Result<(), String> {
        let tenants = &self.book.frames.tenants;
        let tenant = (k % tenants.len() as u64) as usize;
        let step = k / tenants.len() as u64;
        let book = &tenants[tenant];
        let line = &book.lines[(step % book.lines.len() as u64) as usize];
        let line = format!(r#"{},"ts":{}}}"#, &line[..line.len() - 1], step * 60_000);
        self.line_bytes += line.len() as u64 + 1;
        let token = format!("{}-{:08x}-0", book.tenant, k + 1);
        let max = self.max_bytes;

        let (mut request, _) = t.time("proto.parse", k, || parse_request(&line, max));
        if let Some(echo) = self.echo.as_mut() {
            // the router parses to route, wraps the line, and waits on
            // the worker; the worker unwraps and parses it again
            let (payload, _) = t.time("proto.envelope", k, || {
                WireEnvelope {
                    line: line.clone(),
                    frame: Some((token.clone(), k + 1)),
                }
                .render()
            });
            let (reply, _) = t.time("proto.wire_rtt", k, || {
                echo.round_trip(payload.as_bytes(), max)
            });
            reply?;
            let (envelope, _) = t.time("proto.envelope", k, || WireEnvelope::parse(&payload));
            let envelope = envelope?;
            request = t
                .time("proto.parse", k, || parse_request(&envelope.line, max))
                .0;
        }
        let Ok(Request::Observe {
            tenant: name,
            rows,
            ts,
        }) = request
        else {
            return Err(format!("book line {k} is not an observe"));
        };
        let schema = &self.schemas[tenant];
        let (frame, _) = t.time("proto.build_frame", k, || build_frame(schema, &rows));
        let frame = frame.map_err(|e| format!("build frame {k}: {e}"))?;
        let entry = WalEntry {
            tenant: name.clone(),
            frame: token.clone(),
            seq: k + 1,
            ts,
            rows,
        };
        // the journal line rapd appends before acking (its CRC framing and
        // file write are crate-private)
        let (journal, _) = t.time("wal.render", k, || entry.to_json().render());
        self.wal_bytes += journal.len() as u64 + 1;
        let engine = &mut self.engines[tenant];
        let (outcome, observe) = t.time("pipeline.observe", k, || match engine {
            Engine::Classic(p) => p.observe(&frame),
            Engine::Detecting(p) => p.observe(&frame),
        });
        if let Engine::Detecting(p) = engine {
            t.stamp("detect.update", observe, p.last_detector_seconds());
        }
        let Some(mut report) = outcome.map_err(|e| format!("pipeline on frame {k}: {e}"))? else {
            return Ok(());
        };
        let localize = t.stamp(
            "rapminer.localize",
            observe,
            report.timings.localize_seconds,
        );
        t.stamp("rapminer.cp", localize, report.timings.cp_seconds);
        t.stamp("rapminer.search", localize, report.timings.search_seconds);
        if let Some(trace) = &report.trace {
            self.search.add(&trace.stats);
        }
        self.incidents += 1;
        report.frame_id = Some(token);
        let sink = &self.sink;
        t.time("sink.record", k, || {
            sink.record(IncidentRecord::from_report(&name, &report))
        });
        Ok(())
    }

    fn search(&self) -> &SearchTotals {
        &self.search
    }
}

/// Replay a daemon workload's book through the layers rapd chains.
pub fn daemon(load: &DaemonLoad, book: &Book, secs: f64, dir: &Path) -> Result<Traced, String> {
    let passes = measure(secs, |pass| DaemonReplay::new(load, book, &dir.join(pass)))?;
    let mut values = passes.values();
    let (replay, n) = (&passes.replay, passes.requests);
    values.insert(
        "proto.line_bytes_per_frame",
        replay.line_bytes as f64 / n as f64,
    );
    values.insert("wal.bytes_per_frame", replay.wal_bytes as f64 / n as f64);
    values.insert(
        "sink.bytes_per_incident",
        if replay.incidents == 0 {
            0.0
        } else {
            dir_bytes(&dir.join("traced").join("incidents")) as f64 / replay.incidents as f64
        },
    );
    values.insert("pipeline.alarm_frac", replay.incidents as f64 / n as f64);
    let recorder = passes.recorder;
    drop(passes.replay);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Traced { values, recorder })
}

// ---------------------------------------------------------------------
// localize-rapmd
// ---------------------------------------------------------------------

struct LocalizeReplay<'a> {
    dataset: &'a Dataset,
    miner: RapMiner,
    search: SearchTotals,
}

impl Replay for LocalizeReplay<'_> {
    fn step(&mut self, k: u64, t: &mut Tracer) -> Result<(), String> {
        let case = &self.dataset.cases[(k % self.dataset.cases.len() as u64) as usize];
        let miner = &self.miner;
        let (result, span) = t.time("rapminer.localize", k, || {
            miner.localize_traced(&case.frame, PIPELINE.k)
        });
        let (_, trace) = result.map_err(|e| format!("localize {}: {e}", case.id))?;
        t.stamp("rapminer.cp", span, trace.cp_seconds);
        t.stamp("rapminer.search", span, trace.search_seconds);
        self.search.add(&trace.stats);
        Ok(())
    }

    fn search(&self) -> &SearchTotals {
        &self.search
    }
}

/// Replay the RAPMD cases through serial RAPMiner.
pub fn localize(dataset: &Dataset, secs: f64) -> Result<Traced, String> {
    let passes = measure(secs, |_| {
        Ok(LocalizeReplay {
            dataset,
            miner: RapMiner::with_config(Config::new().with_threads(1)),
            search: SearchTotals::default(),
        })
    })?;
    let mut values = passes.values();
    for name in [
        "proto.line_bytes_per_frame",
        "wal.bytes_per_frame",
        "sink.bytes_per_incident",
    ] {
        values.insert(name, 0.0);
    }
    // every request is a localization
    values.insert("pipeline.alarm_frac", 1.0);
    Ok(Traced {
        values,
        recorder: passes.recorder,
    })
}
