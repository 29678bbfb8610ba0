//! The blackbox: flight-recorder dumps written at the moment of failure.
//!
//! Each shard worker keeps a bounded, allocation-free ring of its recent
//! span/event lines (see [`obs::recorder`]). When a pipeline panics, a
//! localization blows its deadline, or a tenant breaker opens, the
//! [`BlackboxWriter`] freezes every registered ring into one dump file
//! under `<spool_dir>/blackbox/` — the last moments of telemetry leading
//! up to the failure, survivable across the crash it documents.
//!
//! # File format
//!
//! A dump is JSONL with the logs' `{json}\t{crc32:08x}` framing (see
//! the `segment` module), so a dump torn by the very crash it was
//! recording still recovers line-by-line:
//!
//! 1. one header line: `{"kind":"blackbox","trigger":...,"tenant":...,
//!    "frame":...,"ts_micros":...,"rings":N}`;
//! 2. per ring, one ring header: `{"kind":"ring","name":...,
//!    "recorded":...,"dropped":...,"lines":M}` followed by its `M`
//!    recorded span/event lines, oldest first.
//!
//! The `frame` field is the failing frame's correlation token — the same
//! token on its spans, incident record, and quarantine twin — so one grep
//! across all four sinks reconstructs the frame's whole life.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::segment::{self, unframe, LineVerdict};

/// Writes flight-recorder dumps into `<spool_dir>/blackbox/`.
#[derive(Debug)]
pub struct BlackboxWriter {
    /// `None` when the daemon runs without a spool directory — dumps are
    /// then skipped (there is nowhere durable to put them).
    dir: Option<PathBuf>,
    /// Per-process dump sequence number, part of the file name so dumps
    /// in the same microsecond cannot collide.
    seq: AtomicU64,
    metrics: Arc<Metrics>,
}

impl BlackboxWriter {
    /// Open the writer. When `spool_dir` is given, `<spool_dir>/blackbox`
    /// is created eagerly so the failure path never has to.
    ///
    /// # Errors
    ///
    /// Fails when the blackbox directory cannot be created.
    pub fn open(spool_dir: Option<&Path>, metrics: Arc<Metrics>) -> io::Result<Self> {
        let dir = match spool_dir {
            None => None,
            Some(base) => {
                let dir = base.join("blackbox");
                fs::create_dir_all(&dir)?;
                Some(dir)
            }
        };
        Ok(BlackboxWriter {
            dir,
            seq: AtomicU64::new(0),
            metrics,
        })
    }

    /// Where dumps land, when a spool directory is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Freeze every registered flight-recorder ring into one dump file.
    ///
    /// `trigger` must be one of the `rapd_blackbox_dumps_total` labels
    /// (`panic`, `deadline`, `breaker_open`); `frame` is the failing
    /// frame's correlation token when the failure is frame-scoped.
    ///
    /// Returns the dump path, or `None` when no spool directory is
    /// configured or the write failed — the failure path must never fail
    /// harder because its post-mortem could not be written.
    pub fn dump(&self, trigger: &str, tenant: &str, frame: Option<&str>) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("blackbox-{micros}-{seq:04}-{trigger}.jsonl"));
        let rings = obs::recorder::snapshot();
        let mut out = String::with_capacity(4096);
        let header = Json::Obj(vec![
            ("kind".to_string(), Json::str("blackbox")),
            ("trigger".to_string(), Json::str(trigger)),
            ("tenant".to_string(), Json::str(tenant)),
            (
                "frame".to_string(),
                match frame {
                    None => Json::Null,
                    Some(id) => Json::str(id),
                },
            ),
            ("ts_micros".to_string(), Json::Num(micros as f64)),
            ("rings".to_string(), Json::Num(rings.len() as f64)),
        ]);
        out.push_str(&segment::frame(header.render()));
        for ring in &rings {
            let ring_header = Json::Obj(vec![
                ("kind".to_string(), Json::str("ring")),
                ("name".to_string(), Json::str(&ring.name)),
                ("recorded".to_string(), Json::Num(ring.recorded as f64)),
                ("dropped".to_string(), Json::Num(ring.dropped as f64)),
                ("lines".to_string(), Json::Num(ring.lines.len() as f64)),
            ]);
            out.push_str(&segment::frame(ring_header.render()));
            for line in &ring.lines {
                out.push_str(&segment::frame(line.clone()));
            }
        }
        let result = fs::File::create(&path).and_then(|mut f| {
            f.write_all(out.as_bytes())?;
            f.flush()
        });
        match result {
            Ok(()) => {
                if let Some(c) = self.metrics.blackbox_dumps.for_label(trigger) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                obs::warn(
                    "rapd.blackbox",
                    "blackbox_dumped",
                    &[
                        ("trigger", obs::Value::Str(trigger.to_string())),
                        ("tenant", obs::Value::Str(tenant.to_string())),
                        ("path", obs::Value::Str(path.display().to_string())),
                        ("rings", obs::Value::from(rings.len() as u64)),
                    ],
                );
                Some(path)
            }
            Err(e) => {
                obs::warn(
                    "rapd.blackbox",
                    "blackbox_write_failed",
                    &[
                        ("trigger", obs::Value::Str(trigger.to_string())),
                        ("error", obs::Value::Str(e.to_string())),
                    ],
                );
                None
            }
        }
    }
}

/// One recovered blackbox dump.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxDump {
    /// What caused the dump (`panic`, `deadline`, or `breaker_open`).
    pub trigger: String,
    /// The tenant whose failure triggered it.
    pub tenant: String,
    /// The failing frame's correlation token, when frame-scoped.
    pub frame: Option<String>,
    /// Dump wall-clock time in microseconds since the Unix epoch.
    pub ts_micros: u64,
    /// The frozen rings, one per registered recorder.
    pub rings: Vec<BlackboxRing>,
}

/// One flight-recorder ring inside a recovered dump.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxRing {
    /// The recorder's registered name (e.g. `shard-0`).
    pub name: String,
    /// Lines recorded over the recorder's lifetime.
    pub recorded: u64,
    /// Lines evicted because the ring was full.
    pub dropped: u64,
    /// The retained span/event lines, oldest first.
    pub lines: Vec<String>,
}

/// Read a dump back, CRC-verifying every line. Lines that fail their
/// checksum — the torn tail of a dump interrupted by the crash it was
/// recording — are skipped, and the intact prefix is still returned.
///
/// # Errors
///
/// Fails when the file cannot be read or its header line is missing or
/// malformed (nothing recoverable at all).
pub fn read_dump(path: &Path) -> io::Result<BlackboxDump> {
    let data = fs::read_to_string(path)?;
    let mut payloads = data.lines().filter_map(|line| match unframe(line) {
        (LineVerdict::Verified, json) => Some(json),
        _ => None,
    });
    let header_line = payloads
        .next()
        .ok_or_else(|| io::Error::other("blackbox dump has no intact header line"))?;
    let header = crate::json::parse(header_line)
        .map_err(|e| io::Error::other(format!("bad blackbox header: {e}")))?;
    if header.get("kind").and_then(Json::as_str) != Some("blackbox") {
        return Err(io::Error::other("first line is not a blackbox header"));
    }
    let field = |doc: &Json, name: &str| -> io::Result<String> {
        doc.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| io::Error::other(format!("blackbox header missing '{name}'")))
    };
    let mut dump = BlackboxDump {
        trigger: field(&header, "trigger")?,
        tenant: field(&header, "tenant")?,
        frame: header
            .get("frame")
            .and_then(Json::as_str)
            .map(str::to_string),
        ts_micros: header.get("ts_micros").and_then(Json::as_u64).unwrap_or(0),
        rings: Vec::new(),
    };
    for payload in payloads {
        let is_ring_header = crate::json::parse(payload)
            .ok()
            .filter(|doc| doc.get("kind").and_then(Json::as_str) == Some("ring"))
            .map(|doc| BlackboxRing {
                name: doc
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                recorded: doc.get("recorded").and_then(Json::as_u64).unwrap_or(0),
                dropped: doc.get("dropped").and_then(Json::as_u64).unwrap_or(0),
                lines: Vec::new(),
            });
        match is_ring_header {
            Some(ring) => dump.rings.push(ring),
            None => {
                if let Some(ring) = dump.rings.last_mut() {
                    ring.lines.push(payload.to_string());
                }
                // a recorded line before any ring header can only mean the
                // ring header itself was torn; nothing to attach it to
            }
        }
    }
    Ok(dump)
}

/// Every dump file currently in `dir`, sorted by file name (which sorts
/// oldest-first because names embed the dump timestamp).
///
/// # Errors
///
/// Fails when the directory cannot be read (a missing directory yields an
/// empty list — the daemon may simply never have dumped).
pub fn list_dumps(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("blackbox-") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-bbox-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_round_trips_with_ring_contents() {
        let dir = scratch("roundtrip");
        let m = metrics();
        let writer = BlackboxWriter::open(Some(&dir), Arc::clone(&m)).unwrap();
        let handle = std::thread::spawn(move || {
            let _rec = obs::recorder::register("test-worker", 8);
            obs::info(
                "bbox",
                "before_failure",
                &[("step", obs::Value::from(1u64))],
            );
            obs::info("bbox", "at_failure", &[("step", obs::Value::from(2u64))]);
            writer.dump("panic", "edge", Some("edge-00000001-1700"))
        });
        let path = handle.join().unwrap().expect("dump path");
        assert!(path.starts_with(dir.join("blackbox")));
        assert_eq!(m.blackbox_dumps.panic.load(Ordering::Relaxed), 1);
        let dump = read_dump(&path).unwrap();
        assert_eq!(dump.trigger, "panic");
        assert_eq!(dump.tenant, "edge");
        assert_eq!(dump.frame.as_deref(), Some("edge-00000001-1700"));
        let ring = dump
            .rings
            .iter()
            .find(|r| r.name == "test-worker")
            .expect("worker ring present");
        assert_eq!(ring.lines.len(), 2);
        assert!(ring.lines[0].contains("before_failure"));
        assert!(ring.lines[1].contains("at_failure"));
        assert_eq!(list_dumps(&dir.join("blackbox")).unwrap(), vec![path]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_intact_prefix() {
        let dir = scratch("torn");
        let writer = BlackboxWriter::open(Some(&dir), metrics()).unwrap();
        let path = {
            let _rec = obs::recorder::register("torn-worker", 8);
            obs::info("bbox", "kept_line", &[]);
            obs::info("bbox", "torn_line", &[]);
            writer.dump("deadline", "t", None).expect("dump path")
        };
        // tear the worker's final line mid-write, as a crash would; the
        // rings of concurrently running tests may follow it in the dump,
        // so cut inside that line rather than at the end of the file
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.find("torn_line").expect("worker line dumped");
        fs::write(&path, &text[..cut]).unwrap();
        let dump = read_dump(&path).unwrap();
        assert_eq!(dump.trigger, "deadline");
        assert_eq!(dump.frame, None);
        let ring = dump
            .rings
            .iter()
            .find(|r| r.name == "torn-worker")
            .expect("ring header intact");
        assert_eq!(ring.lines.len(), 1, "torn final line must be skipped");
        assert!(ring.lines[0].contains("kept_line"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_spool_dir_means_no_dump_and_no_count() {
        let m = metrics();
        let writer = BlackboxWriter::open(None, Arc::clone(&m)).unwrap();
        assert!(writer.dir().is_none());
        assert_eq!(writer.dump("panic", "t", None), None);
        assert_eq!(m.blackbox_dumps.total(), 0);
        assert_eq!(
            list_dumps(Path::new("/nonexistent/blackbox-dir")).unwrap(),
            Vec::<PathBuf>::new()
        );
    }
}
