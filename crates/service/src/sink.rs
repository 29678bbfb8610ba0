//! The incident sink: a crash-safe JSONL spool on disk plus an in-memory
//! ring.
//!
//! Shard workers hand every [`pipeline::IncidentReport`] here. The sink
//! appends one line per incident to `incidents.jsonl` in the spool
//! directory (when configured) and keeps the most recent incidents in a
//! bounded ring so the control socket can answer `incidents` queries
//! without touching disk.
//!
//! The spool is a [`SegmentLog`] with one segment: framing, torn-tail
//! repair, rotation to `incidents.jsonl.1` past `--spool-max-bytes` and
//! the degraded latch live there (see [`crate::segment`]). What is the
//! sink's own: the ring, and the frame-token dedup that keeps incidents
//! exactly-once across a WAL replay. [`IncidentSink::open`] reads the
//! spool once, repairing it and seeding the dedup set in the same pass,
//! with the recovery tallies counted in [`crate::Metrics`].
//!
//! [`IncidentSink::record`] is infallible from the worker's perspective:
//! if a spool write fails (disk full, volume gone), the sink latches into
//! ring-only mode — one warning event, `rapd_spool_degraded` set to 1 —
//! and keeps serving from memory instead of failing frames.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use pipeline::{IncidentReport, StageTimings};
use rapminer::LocalizationTrace;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::segment::{frame, read_payloads, LogSpec, SegmentLog, SpoolRecovery};
use crate::sync::lock_recover;

/// The spool's one segment stem.
const SPOOL: &str = "incidents";

/// One incident, flattened to the interchange form the spool and the
/// control socket share.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// The tenant whose pipeline alarmed.
    pub tenant: String,
    /// Correlation token of the frame that triggered this incident; the
    /// same token appears on the frame's spans, quarantine records, and
    /// blackbox dumps, so one grep reconstructs its whole life. `None` for
    /// incidents produced outside the observe path.
    pub frame_id: Option<String>,
    /// The tenant-local observation step that alarmed.
    pub step: usize,
    /// Relative deviation of the overall KPI (Eq. 4 over the totals).
    pub total_deviation: f64,
    /// Leaves flagged anomalous by per-leaf detection.
    pub anomalous_leaves: usize,
    /// Total leaves in the triggering snapshot.
    pub total_leaves: usize,
    /// Ranked root anomaly patterns as `(pattern, score)`, best first.
    pub raps: Vec<(String, f64)>,
    /// Wall-clock seconds spent in each pipeline stage.
    pub timings: StageTimings,
    /// The full localization trace (per-attribute CP, per-layer search
    /// counts, candidate confidences), when the localizer produced one.
    pub trace: Option<LocalizationTrace>,
    /// Whether the localization deadline expired; `raps` is then the
    /// partial answer from the layers completed in budget.
    pub deadline_exceeded: bool,
    /// Whether any forecast feeding this incident came from the pipeline's
    /// degradation fallback (primary forecaster returned a non-finite
    /// value).
    pub degraded_forecast: bool,
    /// σ-tier of the detection that triggered this incident
    /// (`"warn"`/`"high"`/`"critical"`); `None` in classic mode.
    pub severity: Option<String>,
    /// Detection evidence from the streaming detector; `None` in classic
    /// mode.
    pub detection: Option<DetectionRecord>,
}

/// Detection evidence attached to an incident in detect mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Aggregate σ-score of the triggering frame.
    pub score: f64,
    /// Top per-leaf σ-scores as `(leaf combination, score)`, worst first.
    pub leaf_scores: Vec<(String, f64)>,
}

impl IncidentRecord {
    /// Flatten a pipeline report, stamping the tenant it belongs to.
    pub fn from_report(tenant: &str, report: &IncidentReport) -> Self {
        IncidentRecord {
            tenant: tenant.to_string(),
            frame_id: report.frame_id.clone(),
            step: report.step,
            total_deviation: report.total_deviation,
            anomalous_leaves: report.anomalous_leaves,
            total_leaves: report.total_leaves,
            raps: report
                .raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score))
                .collect(),
            timings: report.timings,
            trace: report.trace.clone(),
            deadline_exceeded: report.deadline_exceeded,
            degraded_forecast: report.degraded_forecast,
            severity: report.severity.map(|s| s.as_str().to_string()),
            detection: report.detection.as_ref().map(|d| DetectionRecord {
                score: d.score,
                leaf_scores: d.leaf_scores.clone(),
            }),
        }
    }

    /// The JSON form used both for spool lines and control-socket replies.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("tenant".to_string(), Json::str(&self.tenant)),
            (
                "frame".to_string(),
                match &self.frame_id {
                    None => Json::Null,
                    Some(id) => Json::str(id),
                },
            ),
            ("step".to_string(), Json::Num(self.step as f64)),
            (
                "total_deviation".to_string(),
                Json::Num(self.total_deviation),
            ),
            (
                "anomalous_leaves".to_string(),
                Json::Num(self.anomalous_leaves as f64),
            ),
            (
                "total_leaves".to_string(),
                Json::Num(self.total_leaves as f64),
            ),
            (
                "raps".to_string(),
                Json::Arr(
                    self.raps
                        .iter()
                        .map(|(pattern, score)| {
                            Json::Arr(vec![Json::str(pattern), Json::Num(*score)])
                        })
                        .collect(),
                ),
            ),
            ("timings".to_string(), timings_to_json(&self.timings)),
            (
                "trace".to_string(),
                match &self.trace {
                    None => Json::Null,
                    Some(trace) => trace_to_json(trace),
                },
            ),
            (
                "deadline_exceeded".to_string(),
                Json::Bool(self.deadline_exceeded),
            ),
            (
                "degraded_forecast".to_string(),
                Json::Bool(self.degraded_forecast),
            ),
            (
                "severity".to_string(),
                match &self.severity {
                    None => Json::Null,
                    Some(s) => Json::str(s),
                },
            ),
            (
                "detection".to_string(),
                match &self.detection {
                    None => Json::Null,
                    Some(d) => detection_to_json(d),
                },
            ),
        ])
    }
}

fn detection_to_json(d: &DetectionRecord) -> Json {
    Json::Obj(vec![
        ("score".to_string(), Json::Num(d.score)),
        (
            "leaf_scores".to_string(),
            Json::Arr(
                d.leaf_scores
                    .iter()
                    .map(|(leaf, score)| Json::Arr(vec![Json::str(leaf), Json::Num(*score)]))
                    .collect(),
            ),
        ),
    ])
}

fn timings_to_json(t: &StageTimings) -> Json {
    Json::Obj(vec![
        ("detect_seconds".to_string(), Json::Num(t.detect_seconds)),
        (
            "detector_seconds".to_string(),
            Json::Num(t.detector_seconds),
        ),
        ("cp_seconds".to_string(), Json::Num(t.cp_seconds)),
        ("search_seconds".to_string(), Json::Num(t.search_seconds)),
        (
            "localize_seconds".to_string(),
            Json::Num(t.localize_seconds),
        ),
    ])
}

/// Serialize a [`LocalizationTrace`] to the interchange form shared by the
/// spool and the control socket.
fn trace_to_json(trace: &LocalizationTrace) -> Json {
    let attrs = trace
        .attrs
        .iter()
        .map(|a| {
            Json::Obj(vec![
                ("attribute".to_string(), Json::str(&a.attribute)),
                ("cp".to_string(), Json::Num(a.cp)),
                ("deleted".to_string(), Json::Bool(a.deleted)),
            ])
        })
        .collect();
    let layers = trace
        .layers
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("layer".to_string(), Json::Num(l.layer as f64)),
                ("cuboids".to_string(), Json::Num(l.cuboids as f64)),
                ("combos".to_string(), Json::Num(l.combos as f64)),
                ("candidates".to_string(), Json::Num(l.candidates as f64)),
            ])
        })
        .collect();
    let candidates = trace
        .candidates
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("combination".to_string(), Json::str(&c.combination)),
                ("confidence".to_string(), Json::Num(c.confidence)),
                ("layer".to_string(), Json::Num(c.layer as f64)),
                ("score".to_string(), Json::Num(c.score)),
                ("kept".to_string(), Json::Bool(c.kept)),
            ])
        })
        .collect();
    let stats = Json::Obj(vec![
        (
            "attrs_deleted".to_string(),
            Json::Num(trace.stats.attrs_deleted as f64),
        ),
        (
            "cuboids_visited".to_string(),
            Json::Num(trace.stats.cuboids_visited as f64),
        ),
        (
            "combos_visited".to_string(),
            Json::Num(trace.stats.combos_visited as f64),
        ),
        (
            "candidates_found".to_string(),
            Json::Num(trace.stats.candidates_found as f64),
        ),
        (
            "early_stopped".to_string(),
            Json::Bool(trace.stats.early_stopped),
        ),
        ("cancelled".to_string(), Json::Bool(trace.stats.cancelled)),
    ]);
    let detection = match &trace.detection {
        None => Json::Null,
        Some(d) => Json::Obj(vec![
            ("severity".to_string(), Json::str(&d.severity)),
            ("score".to_string(), Json::Num(d.score)),
            (
                "leaf_scores".to_string(),
                Json::Arr(
                    d.leaf_scores
                        .iter()
                        .map(|(leaf, score)| Json::Arr(vec![Json::str(leaf), Json::Num(*score)]))
                        .collect(),
                ),
            ),
        ]),
    };
    Json::Obj(vec![
        ("attrs".to_string(), Json::Arr(attrs)),
        ("layers".to_string(), Json::Arr(layers)),
        ("candidates".to_string(), Json::Arr(candidates)),
        ("stats".to_string(), stats),
        ("cp_seconds".to_string(), Json::Num(trace.cp_seconds)),
        (
            "search_seconds".to_string(),
            Json::Num(trace.search_seconds),
        ),
        ("detection".to_string(), detection),
    ])
}

/// Where incidents go: crash-safe JSONL spool (optional) + bounded ring.
#[derive(Debug)]
pub struct IncidentSink {
    spool: Option<SegmentLog>,
    ring: Mutex<VecDeque<IncidentRecord>>,
    ring_capacity: usize,
    /// Frame tokens already present in the spool at open time plus every
    /// token recorded since — the exactly-once guard for WAL replay: a
    /// replayed frame that alarmed before the crash re-produces its
    /// incident, and this set suppresses the duplicate.
    seen_frames: Mutex<HashSet<String>>,
    metrics: Arc<Metrics>,
}

impl IncidentSink {
    /// Open the sink. When `spool_dir` is given the directory is created,
    /// any existing `incidents.jsonl` is repaired (see the module docs),
    /// and the file is opened for append. Recovery tallies land in
    /// `metrics` (`rapd_spool_recovered_lines`, `rapd_spool_legacy_lines`,
    /// `rapd_spool_truncated_bytes`). Frame tokens found in the spool (and
    /// its rotated `.jsonl.1` segment) seed the replay-dedup set.
    /// `max_bytes > 0` enables size-based rotation: when the spool exceeds
    /// the cap, the current file becomes `incidents.jsonl.1`, evicting the
    /// previous segment.
    ///
    /// # Errors
    ///
    /// Fails when the spool directory or file cannot be created, or an
    /// existing spool cannot be read for repair.
    pub fn open(
        spool_dir: Option<&Path>,
        ring_capacity: usize,
        max_bytes: u64,
        metrics: Arc<Metrics>,
    ) -> io::Result<Self> {
        let mut seen_frames = HashSet::new();
        let spool = match spool_dir {
            None => None,
            Some(dir) => {
                let spec = LogSpec {
                    target: "sink",
                    degraded_event: "spool_degraded",
                    failpoint: "spool-write-error",
                    errors: |m| &m.spool_write_errors,
                    degraded: |m| &m.spool_degraded,
                    rotate: Some((max_bytes, |m| &m.spool_rotations.incidents)),
                    fsync: false,
                };
                let log = SegmentLog::open(dir.to_path_buf(), spec, Arc::clone(&metrics))?;
                let mut seed = |payload: &str| {
                    let doc = crate::json::parse(payload).ok();
                    if let Some(frame) = doc.as_ref().and_then(|d| d.get("frame")?.as_str()) {
                        seen_frames.insert(frame.to_string());
                    }
                };
                read_payloads(&log.rotated_path(SPOOL), &mut seed);
                let (recovery, _) = log.scan(SPOOL, |payload| {
                    seed(payload);
                    true
                })?;
                metrics
                    .spool_recovered_lines
                    .store(recovery.recovered, Ordering::Relaxed);
                metrics
                    .spool_legacy_lines
                    .store(recovery.legacy, Ordering::Relaxed);
                metrics
                    .spool_truncated_bytes
                    .store(recovery.truncated_bytes, Ordering::Relaxed);
                if recovery != SpoolRecovery::default() {
                    obs::info(
                        "sink",
                        "spool_recovered",
                        &[
                            ("recovered", obs::Value::from(recovery.recovered)),
                            ("legacy", obs::Value::from(recovery.legacy)),
                            (
                                "truncated_bytes",
                                obs::Value::from(recovery.truncated_bytes),
                            ),
                        ],
                    );
                }
                log.open_segment(SPOOL)?;
                Some(log)
            }
        };
        Ok(IncidentSink {
            spool,
            ring: Mutex::new(VecDeque::new()),
            ring_capacity: ring_capacity.max(1),
            seen_frames: Mutex::new(seen_frames),
            metrics,
        })
    }

    /// The spool file path, when spooling is enabled.
    pub fn spool_path(&self) -> Option<PathBuf> {
        self.spool.as_ref().map(|log| log.path(SPOOL))
    }

    /// Record one incident: append the checksummed spool line, flushed
    /// immediately — incidents are rare and must survive a crash — and
    /// push it to the ring (evicting the oldest entry when full).
    ///
    /// Exactly-once across restarts: a record whose frame token is
    /// already in the spool (a WAL-replayed frame that alarmed before
    /// the crash) is suppressed and counted in
    /// `rapd_incidents_deduped_total` instead of appearing twice.
    ///
    /// Infallible from the caller's perspective: a spool write failure
    /// degrades the sink to ring-only mode (one warning event,
    /// `rapd_spool_degraded` gauge set) instead of surfacing an error the
    /// worker could do nothing useful with.
    pub fn record(&self, record: IncidentRecord) {
        if let Some(frame) = &record.frame_id {
            let mut seen = lock_recover(&self.seen_frames);
            if !seen.insert(frame.clone()) {
                self.metrics
                    .incidents_deduped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if let Some(log) = &self.spool {
            log.append(SPOOL, &frame(record.to_json().render()));
        }
        let mut ring = lock_recover(&self.ring);
        if ring.len() == self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The most recent incidents, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<IncidentRecord> {
        let ring = lock_recover(&self.ring);
        ring.iter().rev().take(limit).cloned().collect()
    }

    /// Incidents currently held in the ring.
    pub fn ring_len(&self) -> usize {
        lock_recover(&self.ring).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{crc32, unframe, LineVerdict};
    use std::fs;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    /// What the last [`IncidentSink::open`] on `m` found in its spool.
    fn tallies(m: &Metrics) -> SpoolRecovery {
        SpoolRecovery {
            recovered: m.spool_recovered_lines.load(Ordering::Relaxed),
            legacy: m.spool_legacy_lines.load(Ordering::Relaxed),
            truncated_bytes: m.spool_truncated_bytes.load(Ordering::Relaxed),
        }
    }

    fn record(tenant: &str, step: usize) -> IncidentRecord {
        IncidentRecord {
            tenant: tenant.to_string(),
            frame_id: None,
            step,
            total_deviation: -0.4,
            anomalous_leaves: 2,
            total_leaves: 8,
            raps: vec![("(L1, *)".to_string(), 0.93)],
            timings: StageTimings {
                detect_seconds: 0.001,
                detector_seconds: 0.0005,
                cp_seconds: 0.002,
                search_seconds: 0.003,
                localize_seconds: 0.006,
            },
            trace: None,
            deadline_exceeded: false,
            degraded_forecast: false,
            severity: None,
            detection: None,
        }
    }

    /// A scratch directory unique to the calling test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-sink-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_keeps_newest_and_bounds_memory() {
        let sink = IncidentSink::open(None, 3, 0, metrics()).unwrap();
        for step in 0..10 {
            sink.record(record("t", step));
        }
        assert_eq!(sink.ring_len(), 3);
        let recent = sink.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].step, 9);
        assert_eq!(recent[1].step, 8);
    }

    #[test]
    fn spool_appends_checksummed_json_lines() {
        let dir = scratch("append");
        let sink = IncidentSink::open(Some(&dir), 8, 0, metrics()).unwrap();
        sink.record(record("edge", 5));
        sink.record(record("edge", 6));
        let text = fs::read_to_string(sink.spool_path().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(
                unframe(line).0 == LineVerdict::Verified,
                "bad frame: {line}"
            );
        }
        let (json, _crc) = lines[1].rsplit_once('\t').unwrap();
        let doc = crate::json::parse(json).unwrap();
        assert_eq!(doc.get("tenant").unwrap().as_str(), Some("edge"));
        assert_eq!(doc.get("step").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("deadline_exceeded").unwrap().as_bool(), Some(false));
        let raps = doc.get("raps").unwrap().as_arr().unwrap();
        assert_eq!(raps[0].as_arr().unwrap()[0].as_str(), Some("(L1, *)"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC-32 check values
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn table_crc32_matches_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0, 1, 2, 3, 7, 64, 255, 256, 1000, 4096] {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn empty_spool_recovers_to_nothing() {
        let dir = scratch("empty");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incidents.jsonl");
        fs::write(&path, "").unwrap();
        let m = metrics();
        IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(tallies(&m), SpoolRecovery::default());
        // missing file behaves the same
        fs::remove_file(&path).unwrap();
        let m = metrics();
        IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(tallies(&m), SpoolRecovery::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_appends_continue() {
        let dir = scratch("torn");
        let m = metrics();
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
            sink.record(record("t", 1));
            sink.record(record("t", 2));
        }
        let path = dir.join("incidents.jsonl");
        let intact = fs::read_to_string(&path).unwrap();
        // simulate a crash mid-write: half a JSON line, no newline
        let torn = r#"{"tenant":"t","step":3,"total_dev"#;
        fs::write(&path, format!("{intact}{torn}")).unwrap();

        let m2 = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m2)).unwrap();
        assert_eq!(m2.spool_recovered_lines.load(Ordering::Relaxed), 2);
        assert_eq!(m2.spool_legacy_lines.load(Ordering::Relaxed), 0);
        assert_eq!(
            m2.spool_truncated_bytes.load(Ordering::Relaxed),
            torn.len() as u64
        );
        let repaired = fs::read_to_string(&path).unwrap();
        assert_eq!(repaired, intact, "intact prefix must survive untouched");
        // and the repaired spool accepts new incidents
        sink.record(record("t", 4));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| unframe(l).0 == LineVerdict::Verified));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corrupt_crc_is_dropped_and_counted() {
        let dir = scratch("corrupt");
        let m = metrics();
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, m).unwrap();
            for step in 1..=3 {
                sink.record(record("t", step));
            }
        }
        let path = dir.join("incidents.jsonl");
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // flip a payload byte of the middle line; its CRC no longer matches
        lines[1] = lines[1].replacen("\"step\":2", "\"step\":9", 1);
        let corrupted_len = lines[1].len() as u64 + 1; // + newline
        fs::write(&path, lines.join("\n") + "\n").unwrap();

        let m2 = metrics();
        let _sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m2)).unwrap();
        assert_eq!(m2.spool_recovered_lines.load(Ordering::Relaxed), 2);
        assert_eq!(
            m2.spool_truncated_bytes.load(Ordering::Relaxed),
            corrupted_len
        );
        let repaired = fs::read_to_string(&path).unwrap();
        assert_eq!(repaired.lines().count(), 2);
        assert!(!repaired.contains("\"step\":9"), "tampered line must go");
        assert!(repaired.contains("\"step\":1") && repaired.contains("\"step\":3"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_pre_crc_lines_are_accepted_read_only() {
        let dir = scratch("legacy");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incidents.jsonl");
        // a spool written before checksumming: bare JSON lines
        let legacy1 = record("old", 1).to_json().render();
        let legacy2 = record("old", 2).to_json().render();
        fs::write(&path, format!("{legacy1}\n{legacy2}\n")).unwrap();

        let m = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(m.spool_recovered_lines.load(Ordering::Relaxed), 0);
        assert_eq!(m.spool_legacy_lines.load(Ordering::Relaxed), 2);
        assert_eq!(m.spool_truncated_bytes.load(Ordering::Relaxed), 0);
        // legacy lines stay byte-identical; new lines get checksums
        sink.record(record("new", 3));
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], legacy1);
        assert!(unframe(lines[0]).0 == LineVerdict::Legacy);
        assert!(unframe(lines[2]).0 == LineVerdict::Verified);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_but_intact_final_line_is_kept() {
        let dir = scratch("unterminated");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incidents.jsonl");
        // the write completed but the trailing newline was lost
        let framed = frame(record("t", 7).to_json().render());
        let framed = framed.trim_end();
        fs::write(&path, framed).unwrap();
        let m = metrics();
        let _sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(m.spool_recovered_lines.load(Ordering::Relaxed), 1);
        assert_eq!(m.spool_truncated_bytes.load(Ordering::Relaxed), 0);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{framed}\n"), "re-terminated in place");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ring_only_sink_never_degrades() {
        let m = metrics();
        let sink = IncidentSink::open(None, 4, 0, Arc::clone(&m)).unwrap();
        sink.record(record("t", 1));
        assert_eq!(m.spool_degraded.load(Ordering::Relaxed), 0);
        assert!(sink.spool_path().is_none());
    }

    #[test]
    fn write_failure_degrades_to_ring_only() {
        let dir = scratch("degraded");
        let m = metrics();
        // every record overflows the cap, and a non-empty directory in the
        // `.jsonl.1` slot makes the rotation fail — a stand-in for a full
        // or vanished volume
        fs::create_dir_all(dir.join("incidents.jsonl.1/x")).unwrap();
        let sink = IncidentSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(record("t", 1));
        assert_eq!(m.spool_write_errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.spool_degraded.load(Ordering::Relaxed), 1);
        let spooled = fs::read_to_string(sink.spool_path().unwrap()).unwrap();
        sink.record(record("t", 2));
        assert_eq!(sink.ring_len(), 2, "the ring keeps every incident");
        assert_eq!(
            m.spool_write_errors.load(Ordering::Relaxed),
            1,
            "a degraded sink stops touching the disk"
        );
        assert_eq!(
            fs::read_to_string(sink.spool_path().unwrap()).unwrap(),
            spooled
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_frame_tokens_are_suppressed_within_a_run() {
        let m = metrics();
        let sink = IncidentSink::open(None, 8, 0, Arc::clone(&m)).unwrap();
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-00000001-1700000000000".to_string());
        sink.record(rec.clone());
        sink.record(rec); // a replayed twin
        assert_eq!(sink.ring_len(), 1);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
        // tokenless records (outside the observe path) never dedup
        sink.record(record("t", 2));
        sink.record(record("t", 2));
        assert_eq!(sink.ring_len(), 3);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn spooled_frame_tokens_dedup_across_reopen() {
        let dir = scratch("dedup");
        let m = metrics();
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-0000002a-1700000000000".to_string());
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, metrics()).unwrap();
            sink.record(rec.clone());
        }
        // a fresh process (post-crash restart) replays the same frame
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        sink.record(rec);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
        assert_eq!(sink.ring_len(), 0, "the duplicate never reaches the ring");
        let text = fs::read_to_string(sink.spool_path().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 1, "spooled exactly once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_spool_rotates_and_evicts_the_oldest_segment() {
        let dir = scratch("rotate");
        let m = metrics();
        // a cap small enough that every record overflows it
        let sink = IncidentSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(record("t", 1));
        let rotated = dir.join("incidents.jsonl.1");
        assert!(rotated.is_file(), "first overflow rotates");
        assert!(fs::read_to_string(&rotated).unwrap().contains("\"step\":1"));
        assert_eq!(m.spool_rotations.incidents.load(Ordering::Relaxed), 1);
        sink.record(record("t", 2));
        // step 1's segment is evicted; step 2 now holds the .1 slot
        assert!(fs::read_to_string(&rotated).unwrap().contains("\"step\":2"));
        assert!(!fs::read_to_string(&rotated).unwrap().contains("\"step\":1"));
        assert_eq!(m.spool_rotations.incidents.load(Ordering::Relaxed), 2);
        // the live spool is empty again and still accepts appends
        assert_eq!(fs::read_to_string(sink.spool_path().unwrap()).unwrap(), "");
        assert_eq!(m.spool_degraded.load(Ordering::Relaxed), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotated_segment_still_seeds_the_dedup_set() {
        let dir = scratch("rotate-dedup");
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-00000007-1700000000000".to_string());
        {
            let sink = IncidentSink::open(Some(&dir), 8, 64, metrics()).unwrap();
            sink.record(rec.clone()); // rotates into .jsonl.1
        }
        let m = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(rec);
        assert_eq!(
            m.incidents_deduped.load(Ordering::Relaxed),
            1,
            "tokens in the rotated segment must still suppress replays"
        );
        assert_eq!(sink.ring_len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = record("t", 3);
        let doc = rec.to_json();
        assert_eq!(doc.get("frame"), Some(&Json::Null));
        rec.frame_id = Some("t-0000002a-1700000000000".to_string());
        let doc = rec.to_json();
        assert_eq!(
            doc.get("frame").unwrap().as_str(),
            Some("t-0000002a-1700000000000")
        );
        assert_eq!(doc.get("total_deviation").unwrap().as_f64(), Some(-0.4));
        assert_eq!(doc.get("total_leaves").unwrap().as_u64(), Some(8));
        let timings = doc.get("timings").unwrap();
        assert_eq!(timings.get("cp_seconds").unwrap().as_f64(), Some(0.002));
        assert_eq!(doc.get("trace"), Some(&Json::Null));
        assert_eq!(doc.get("degraded_forecast").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn judge_line_distinguishes_every_verdict() {
        // checksummed line → Verified
        let framed = frame(r#"{"tenant":"t"}"#.to_string());
        let framed = framed.trim_end();
        assert_eq!(
            unframe(framed),
            (LineVerdict::Verified, r#"{"tenant":"t"}"#)
        );
        // bare JSON object (pre-CRC spool) → Legacy
        assert_eq!(unframe(r#"{"tenant":"t"}"#).0, LineVerdict::Legacy);
        // legacy JSON containing a literal tab in a string still judges
        // correctly: the suffix after the tab is not an 8-hex CRC
        assert_eq!(unframe("{\"note\":\"a\tb\"}").0, LineVerdict::Legacy);
        // wrong checksum → Corrupt (not legacy: the tab suffix breaks parse)
        let mut tampered = framed.to_string();
        tampered.replace_range(..1, " ");
        assert_eq!(unframe(&tampered).0, LineVerdict::Corrupt);
        // torn fragments and non-object JSON → Corrupt
        assert_eq!(unframe(r#"{"tenant":"t"#).0, LineVerdict::Corrupt);
        assert_eq!(unframe("[1,2,3]").0, LineVerdict::Corrupt);
        assert_eq!(unframe("").0, LineVerdict::Corrupt);
        // an 8-hex suffix guarding different bytes → Corrupt
        let (json, crc) = framed.rsplit_once('\t').unwrap();
        let mismatched = format!("{json} \t{crc}");
        assert_eq!(unframe(&mismatched).0, LineVerdict::Corrupt);
    }

    #[test]
    fn localization_trace_serializes_fully() {
        use rapminer::{AttrPower, CandidateTrace, LayerTrace, SearchStats};
        let mut rec = record("t", 1);
        rec.trace = Some(LocalizationTrace {
            attrs: vec![
                AttrPower {
                    attribute: "isp".to_string(),
                    cp: 0.9,
                    deleted: false,
                },
                AttrPower {
                    attribute: "province".to_string(),
                    cp: 0.1,
                    deleted: true,
                },
            ],
            layers: vec![LayerTrace {
                layer: 1,
                cuboids: 1,
                combos: 2,
                candidates: 1,
            }],
            candidates: vec![CandidateTrace {
                combination: "(I1)".to_string(),
                confidence: 0.95,
                layer: 1,
                score: 0.95,
                kept: true,
            }],
            stats: SearchStats {
                attrs_deleted: 1,
                cuboids_visited: 1,
                combos_visited: 2,
                candidates_found: 1,
                early_stopped: true,
                cancelled: false,
            },
            cp_seconds: 0.004,
            search_seconds: 0.005,
            detection: Some(rapminer::TraceDetection {
                severity: "high".to_string(),
                score: 4.4,
                leaf_scores: vec![("(I1)".to_string(), 4.4)],
            }),
        });
        // the spool line (and hence the control-socket reply) must carry
        // the whole trace and survive a parse round-trip
        let line = rec.to_json().render();
        let doc = crate::json::parse(&line).unwrap();
        let trace = doc.get("trace").unwrap();
        let attrs = trace.get("attrs").unwrap().as_arr().unwrap();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[1].get("deleted").unwrap().as_bool(), Some(true));
        assert_eq!(
            attrs[1].get("attribute").unwrap().as_str(),
            Some("province")
        );
        let layers = trace.get("layers").unwrap().as_arr().unwrap();
        assert_eq!(layers[0].get("combos").unwrap().as_u64(), Some(2));
        let stats = trace.get("stats").unwrap();
        assert_eq!(stats.get("early_stopped").unwrap().as_bool(), Some(true));
        assert_eq!(stats.get("cancelled").unwrap().as_bool(), Some(false));
        assert_eq!(stats.get("attrs_deleted").unwrap().as_u64(), Some(1));
        let cands = trace.get("candidates").unwrap().as_arr().unwrap();
        assert_eq!(cands[0].get("combination").unwrap().as_str(), Some("(I1)"));
        assert_eq!(cands[0].get("kept").unwrap().as_bool(), Some(true));
        let detection = trace.get("detection").unwrap();
        assert_eq!(detection.get("severity").unwrap().as_str(), Some("high"));
        assert_eq!(detection.get("score").unwrap().as_f64(), Some(4.4));
    }

    #[test]
    fn severity_and_detection_serialize_when_present() {
        let mut rec = record("t", 2);
        // classic mode: both fields render as null
        let doc = rec.to_json();
        assert_eq!(doc.get("severity"), Some(&Json::Null));
        assert_eq!(doc.get("detection"), Some(&Json::Null));
        // detect mode: evidence round-trips through the spool line
        rec.severity = Some("critical".to_string());
        rec.detection = Some(DetectionRecord {
            score: 7.25,
            leaf_scores: vec![("(L1, *)".to_string(), 6.5), ("(L2, *)".to_string(), 3.1)],
        });
        let line = rec.to_json().render();
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("severity").unwrap().as_str(), Some("critical"));
        let detection = doc.get("detection").unwrap();
        assert_eq!(detection.get("score").unwrap().as_f64(), Some(7.25));
        let leaves = detection.get("leaf_scores").unwrap().as_arr().unwrap();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].as_arr().unwrap()[0].as_str(), Some("(L1, *)"));
        assert_eq!(leaves[0].as_arr().unwrap()[1].as_f64(), Some(6.5));
        // the new timing lands in the timings object too
        let timings = doc.get("timings").unwrap();
        assert_eq!(
            timings.get("detector_seconds").unwrap().as_f64(),
            Some(0.0005)
        );
    }
}
