//! The frame write-ahead log: admitted frames journaled before queueing.
//!
//! Crash consistency for rapd rests on one rule: **a frame that was
//! acknowledged on the wire is never lost**. The observe verb appends
//! every admitted frame to a per-tenant journal under `<spool_dir>/wal/`
//! *before* handing it to the shard queues; on startup the daemon replays
//! the journal suffix past the last checkpoint's acknowledgment, so a
//! `kill -9` loses nothing past admission.
//!
//! The journal is a `SegmentLog` (see the `segment` module for the
//! framing, the torn-tail repair and the degraded latch): a crash
//! mid-append costs at most the line being written, which is exactly the
//! frame that was never acknowledged. An append reaches the page cache
//! before the wire acknowledgment, which survives any *process* death
//! (`kill -9`, OOM, panic) but not power loss; `--wal-fsync` adds a
//! `sync_data` per append for machine-crash durability. The WAL never
//! rotates: checkpoint compaction bounds it.
//!
//! Two journals share the directory:
//!
//! * `<tenant>.jsonl` — one [`WalEntry`] per admitted frame, compacted
//!   after each checkpoint acknowledges a sequence watermark;
//! * `schemas.jsonl` — an append-only journal of registered tenant
//!   schemas, loaded before replay so replayed frames can be re-resolved
//!   (the in-memory schema map dies with the process). A tenant named
//!   `schemas` journals its frames into the same file; schema lines never
//!   parse as a [`WalEntry`], so recovery reads frames from every segment.
//!
//! What is the WAL's own: the [`WalEntry`] encoding, the depth gauge, the
//! compaction predicate and the schema journal. A write failure latches
//! the WAL journal-less (`rapd_wal_append_errors_total`,
//! `rapd_degraded{subsystem="wal"}`) rather than failing ingestion.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use obs::write_json_string;

use crate::json::{write_number, Json};
use crate::metrics::Metrics;
use crate::proto::attributes_json;
use crate::segment::{frame, read_payloads, sanitize_tenant, segment_path, LogSpec, SegmentLog};
use crate::sync::lock_recover;

/// The schema journal's segment stem.
const SCHEMAS: &str = "schemas";

pub use crate::proto::SchemaParts;

/// One journaled frame: everything needed to re-ingest it byte-identically
/// after a crash. The tenant rides inside the JSON (not just the file
/// stem) because stems are sanitized lossily.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The tenant that sent the frame.
    pub tenant: String,
    /// The frame's correlation token, re-adopted verbatim at replay so
    /// incident records match the pre-crash run byte for byte.
    pub frame: String,
    /// The token's process-wide sequence number — the dedup and
    /// compaction watermark.
    pub seq: u64,
    /// The frame's event timestamp (milliseconds), when it carried one.
    pub ts: Option<u64>,
    /// The admitted (post-repair) wire rows. Always finite: admission
    /// quarantines non-finite frames before the WAL sees them.
    pub rows: Vec<(Vec<String>, f64)>,
}

impl WalEntry {
    /// The JSON form journaled to disk.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("tenant".to_string(), Json::str(&self.tenant)),
            ("frame".to_string(), Json::str(&self.frame)),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            (
                "ts".to_string(),
                match self.ts {
                    None => Json::Null,
                    Some(t) => Json::Num(t as f64),
                },
            ),
            (
                "rows".to_string(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(names, value)| {
                            Json::Arr(vec![
                                Json::Arr(names.iter().map(Json::str).collect()),
                                Json::Num(*value),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse one journaled entry; `None` when the shape is wrong (a
    /// foreign or future-format line — skipped, never fatal).
    pub fn from_json(doc: &Json) -> Option<WalEntry> {
        let rows = doc
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|row| {
                let row = row.as_arr()?;
                let names = row
                    .first()?
                    .as_arr()?
                    .iter()
                    .map(|n| Some(n.as_str()?.to_string()))
                    .collect::<Option<Vec<String>>>()?;
                Some((names, row.get(1)?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(WalEntry {
            tenant: doc.get("tenant")?.as_str()?.to_string(),
            frame: doc.get("frame")?.as_str()?.to_string(),
            seq: doc.get("seq")?.as_u64()?,
            ts: doc.get("ts").and_then(Json::as_u64),
            rows,
        })
    }
}

/// Write one journal line, the bytes [`WalEntry::to_json`] renders, from
/// a frame's header and rows into one `String` of `capacity` bytes. The
/// observe path journals its admitted element ids through their schema's
/// names this way, with no [`Json`] tree.
pub(crate) fn write_entry<'r, N: Iterator<Item = &'r str>>(
    tenant: &str,
    frame: &str,
    seq: u64,
    ts: Option<u64>,
    capacity: usize,
    rows: impl Iterator<Item = (N, f64)>,
) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"tenant\":");
    write_json_string(tenant, &mut out);
    out.push_str(",\"frame\":");
    write_json_string(frame, &mut out);
    out.push_str(",\"seq\":");
    write_number(seq as f64, &mut out);
    out.push_str(",\"ts\":");
    match ts {
        None => out.push_str("null"),
        Some(ts) => write_number(ts as f64, &mut out),
    }
    out.push_str(",\"rows\":[");
    for (i, (names, value)) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("[[");
        for (j, name) in names.enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
        }
        out.push_str("],");
        write_number(value, &mut out);
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The per-tenant frame journal under `<spool_dir>/wal/`.
#[derive(Debug)]
pub(crate) struct FrameWal {
    log: SegmentLog,
    /// Unacknowledged entries per stem; the sum is the `rapd_wal_depth`
    /// gauge. Appends and compactions take this lock before the segment
    /// lock and hold it across their write, so a count can never
    /// interleave with a compaction's recount.
    depth: Mutex<HashMap<String, u64>>,
    metrics: Arc<Metrics>,
}

impl FrameWal {
    /// Open (creating) the `<spool_dir>/wal/` journal directory. With
    /// `fsync`, every append is `sync_data`'d before the caller (and
    /// therefore the wire acknowledgment) proceeds — durability against
    /// power loss, at a per-frame fsync cost; without it, a flushed line
    /// survives `kill -9` but sits in the page cache until the kernel
    /// writes it back.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(spool_dir: &Path, metrics: Arc<Metrics>, fsync: bool) -> io::Result<Self> {
        let spec = LogSpec {
            target: "rapd.wal",
            degraded_event: "wal_degraded",
            failpoint: "wal-append-error",
            errors: |m| &m.wal_append_errors,
            degraded: |m| &m.wal_degraded,
            rotate: None,
            fsync,
        };
        Ok(FrameWal {
            log: SegmentLog::open(spool_dir.join("wal"), spec, Arc::clone(&metrics))?,
            depth: Mutex::new(HashMap::new()),
            metrics,
        })
    }

    fn publish_depth(&self, depth: &HashMap<String, u64>) {
        self.metrics
            .wal_depth
            .store(depth.values().sum(), Ordering::Relaxed);
    }

    /// Append one frame to its tenant's journal segment: the journal line
    /// `line` writes (with [`write_entry`]), flushed immediately so a
    /// `kill -9` right after the wire acknowledgment still finds it on
    /// disk. A degraded WAL never calls `line`. Infallible: a write
    /// failure latches degraded mode instead of failing the ingest path.
    pub(crate) fn append_with(&self, tenant: &str, line: impl FnOnce() -> String) {
        if self.log.degraded() {
            return;
        }
        let record = frame(line());
        let stem = sanitize_tenant(tenant);
        let mut depth = lock_recover(&self.depth);
        if self.log.append(&stem, &record) {
            self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
            *depth.entry(stem).or_insert(0) += 1;
            self.publish_depth(&depth);
        }
    }

    /// Drop every journaled entry of `tenant` with `seq <= ack_seq` — a
    /// checkpoint now covers them. Entries carrying a *different*
    /// embedded tenant are always kept (the ack covers this tenant's
    /// pipeline, not theirs), so even a stem collision cannot discard a
    /// neighbor's unacknowledged frames. The segment is rewritten under
    /// the segment lock (see [`SegmentLog::scan`]), so a concurrent
    /// observe-path append lands wholly before or after the rewrite.
    /// Returns whether the segment could be read and rewritten.
    pub fn compact(&self, tenant: &str, ack_seq: u64) -> bool {
        let stem = sanitize_tenant(tenant);
        let mut depth = lock_recover(&self.depth);
        let mut kept = 0u64;
        let result = self.log.scan(&stem, |payload| match parse_entry(payload) {
            Some(e) if e.tenant == tenant && e.seq <= ack_seq => false,
            Some(_) => {
                kept += 1;
                true
            }
            None => true,
        });
        match result {
            Ok((_, rewritten)) => {
                if rewritten {
                    self.metrics.wal_compactions.fetch_add(1, Ordering::Relaxed);
                }
                depth.insert(stem, kept);
                self.publish_depth(&depth);
                true
            }
            Err(e) => {
                obs::warn(
                    "rapd.wal",
                    "wal_compact_failed",
                    &[
                        ("tenant", obs::Value::Str(tenant.to_string())),
                        ("error", obs::Value::Str(e.to_string())),
                    ],
                );
                false
            }
        }
    }

    /// Repair every journal segment and return the surviving entries
    /// ordered by sequence number — the replay stream. Unparseable
    /// (foreign-format) lines are skipped, never fatal: a journal that
    /// cannot be fully read must still yield what it can.
    pub fn recover(&self) -> Vec<WalEntry> {
        let mut entries = Vec::new();
        let mut depths: HashMap<String, u64> = HashMap::new();
        self.log.scan_all(|stem, payload| {
            if let Some(entry) = parse_entry(payload) {
                *depths.entry(stem.to_string()).or_insert(0) += 1;
                entries.push(entry);
            }
            true
        });
        entries.sort_by_key(|e| e.seq);
        let mut depth = lock_recover(&self.depth);
        *depth = depths;
        self.publish_depth(&depth);
        entries
    }

    /// Journal one tenant's registered schema so replay can re-resolve
    /// its frames after a restart. Append-only; duplicates are fine (the
    /// last entry for a tenant wins at recovery). A failed write latches
    /// the WAL degraded like a failed frame append: frames journaled
    /// without their schema could not be replayed anyway.
    pub fn append_schema(&self, tenant: &str, parts: &[(String, Vec<String>)]) {
        let doc = Json::Obj(vec![
            ("tenant".to_string(), Json::str(tenant)),
            ("attrs".to_string(), attributes_json(parts)),
        ]);
        self.log.append(SCHEMAS, &frame(doc.render()));
    }

    /// Load the schema journal: `(tenant, attribute parts)` with the last
    /// entry per tenant winning.
    pub fn recover_schemas(&self) -> Vec<(String, SchemaParts)> {
        read_schemas(&self.log.path(SCHEMAS))
    }
}

/// Read one tenant's journaled entries with `seq > after_seq` from a
/// spool directory, **read-only** — no repair, no truncation, no handle
/// caching. A fleet worker taking a tenant over reads the WAL suffix out
/// of its *live* source's spool this way: the source keeps appending for
/// other tenants, so the reader must not rewrite its files. A torn tail
/// (should the source die mid-append during the read) simply fails its
/// check and is skipped — exactly what the source's own recovery would
/// have discarded.
pub fn read_tenant_suffix(spool_dir: &Path, tenant: &str, after_seq: u64) -> Vec<WalEntry> {
    let mut entries = Vec::new();
    let path = segment_path(&spool_dir.join("wal"), &sanitize_tenant(tenant));
    read_payloads(&path, |payload| {
        if let Some(e) = parse_entry(payload) {
            if e.tenant == tenant && e.seq > after_seq {
                entries.push(e);
            }
        }
    });
    entries.sort_by_key(|e| e.seq);
    entries
}

/// Read one tenant's journaled schema parts from a spool directory,
/// read-only (last entry wins). A handoff's target falls back to its
/// source's journal this way when the router has not seen the tenant's
/// schema itself.
pub fn read_schema_parts(spool_dir: &Path, tenant: &str) -> Option<SchemaParts> {
    read_schemas(&segment_path(&spool_dir.join("wal"), SCHEMAS))
        .into_iter()
        .find_map(|(t, parts)| (t == tenant).then_some(parts))
}

/// Every tenant's latest schema in the journal at `path`, in first-seen
/// order, read-only.
fn read_schemas(path: &Path) -> Vec<(String, SchemaParts)> {
    let mut latest: Vec<(String, SchemaParts)> = Vec::new();
    read_payloads(path, |payload| {
        let Some(parsed) = crate::json::parse(payload)
            .ok()
            .and_then(|doc| parse_schema_entry(&doc))
        else {
            return;
        };
        match latest.iter_mut().find(|(t, _)| *t == parsed.0) {
            Some(slot) => slot.1 = parsed.1,
            None => latest.push(parsed),
        }
    });
    latest
}

fn parse_entry(payload: &str) -> Option<WalEntry> {
    WalEntry::from_json(&crate::json::parse(payload).ok()?)
}

fn parse_schema_entry(doc: &Json) -> Option<(String, SchemaParts)> {
    let tenant = doc.get("tenant")?.as_str()?.to_string();
    let parts = doc
        .get("attrs")?
        .as_arr()?
        .iter()
        .map(|attr| {
            let attr = attr.as_arr()?;
            let name = attr.first()?.as_str()?.to_string();
            let elements = attr
                .get(1)?
                .as_arr()?
                .iter()
                .map(|e| Some(e.as_str()?.to_string()))
                .collect::<Option<Vec<String>>>()?;
            Some((name, elements))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((tenant, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    /// Journal a [`WalEntry`]'s name rows through the observe path's
    /// writer.
    trait AppendEntry {
        fn append(&self, entry: &WalEntry);
    }

    impl AppendEntry for FrameWal {
        fn append(&self, entry: &WalEntry) {
            let rows = entry
                .rows
                .iter()
                .map(|(names, value)| (names.iter().map(String::as_str), *value));
            self.append_with(&entry.tenant, || {
                write_entry(&entry.tenant, &entry.frame, entry.seq, entry.ts, 0, rows)
            });
        }
    }

    /// Journaled frames not yet acknowledged by a checkpoint, across all
    /// tenants.
    fn depth(wal: &FrameWal) -> u64 {
        lock_recover(&wal.depth).values().sum()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(tenant: &str, seq: u64, ts: Option<u64>) -> WalEntry {
        WalEntry {
            tenant: tenant.to_string(),
            frame: format!("{tenant}-{seq:08x}-1754700000123"),
            seq,
            ts,
            rows: vec![
                (vec!["L1".to_string(), "S1".to_string()], 100.5),
                (vec!["L2".to_string(), "S2".to_string()], 0.25),
            ],
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let e = entry("edge", 42, Some(60_000));
        let doc = crate::json::parse(&e.to_json().render()).unwrap();
        assert_eq!(WalEntry::from_json(&doc), Some(e));
        let no_ts = entry("edge", 7, None);
        let doc = crate::json::parse(&no_ts.to_json().render()).unwrap();
        assert_eq!(WalEntry::from_json(&doc), Some(no_ts));
        // foreign shapes are skipped, not fatal
        let junk = crate::json::parse(r#"{"tenant":"t","seq":"not-a-number"}"#).unwrap();
        assert_eq!(WalEntry::from_json(&junk), None);
    }

    #[test]
    fn journal_line_bytes_are_pinned() {
        // Every log's bytes exactly as its writer leaves them on disk, CRC
        // suffix, newline and file name included: the bytes every existing
        // journal, spool and checkpoint already holds. Escapes,
        // integer-valued and fractional floats, NaN rows and traces.
        use crate::checkpoint::{CheckpointStore, ConfigGuard, EngineCheckpoint, TenantCheckpoint};
        use crate::quarantine::{QuarantineRecord, QuarantineSink};
        use crate::sink::{DetectionRecord, IncidentRecord, IncidentSink};
        use rapminer::{
            AttrPower, CandidateTrace, LayerTrace, LocalizationTrace, SearchStats, TraceDetection,
        };

        let dir = scratch("pinned");
        let m = metrics();
        let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
        wal.append(&WalEntry {
            tenant: "edge \"eu\"\\1".to_string(),
            frame: "edge-0000002a-7".to_string(),
            seq: 42,
            ts: Some(1_700_000_000_000),
            rows: vec![
                (vec!["L1".to_string(), "S\té".to_string()], 100.0),
                (vec!["L2".to_string(), "S2".to_string()], 0.25),
                (vec!["L3".to_string(), "S\u{1}".to_string()], 12_345_678.5),
            ],
        });
        wal.append_schema(
            "edge",
            &[
                (
                    "loc".to_string(),
                    vec!["L1".to_string(), "L\"2".to_string()],
                ),
                ("svc".to_string(), vec!["S1".to_string()]),
            ],
        );
        let incidents = IncidentSink::open(Some(&dir), 4, 0, Arc::clone(&m)).unwrap();
        incidents.record(IncidentRecord {
            tenant: "edge".to_string(),
            frame_id: Some("edge-00000003-7".to_string()),
            step: 12,
            total_deviation: -0.4,
            anomalous_leaves: 2,
            total_leaves: 8,
            raps: vec![("(L1, *)".to_string(), 0.93)],
            timings: pipeline::StageTimings {
                detect_seconds: 0.001,
                detector_seconds: 0.0005,
                cp_seconds: 0.002,
                search_seconds: 0.003,
                localize_seconds: 0.006,
            },
            trace: Some(LocalizationTrace {
                attrs: vec![AttrPower {
                    attribute: "loc".to_string(),
                    cp: 0.9,
                    deleted: false,
                }],
                layers: vec![LayerTrace {
                    layer: 1,
                    cuboids: 1,
                    combos: 2,
                    candidates: 1,
                }],
                candidates: vec![CandidateTrace {
                    combination: "(L1, *)".to_string(),
                    confidence: 0.95,
                    layer: 1,
                    score: 0.93,
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
                detection: Some(TraceDetection {
                    severity: "high".to_string(),
                    score: 4.4,
                    leaf_scores: vec![("(L1, S1)".to_string(), 4.4)],
                }),
            }),
            deadline_exceeded: false,
            degraded_forecast: true,
            severity: Some("high".to_string()),
            detection: Some(DetectionRecord {
                score: 4.4,
                leaf_scores: vec![("(L1, S1)".to_string(), 4.4)],
            }),
        });
        let quarantine = QuarantineSink::open(Some(&dir), 4, 0, Arc::clone(&m)).unwrap();
        quarantine.record(QuarantineRecord {
            tenant: "edge".to_string(),
            frame_id: Some("edge-00000004-7".to_string()),
            ts: Some(60_000),
            reason: "non_finite",
            detail: "row 0 is NaN".to_string(),
            rows: vec![
                (vec!["L1".to_string(), "S1".to_string()], f64::NAN),
                (vec!["L2".to_string(), "S2".to_string()], 2.5),
            ],
        });
        CheckpointStore::open(&dir, Arc::clone(&m))
            .unwrap()
            .write(&TenantCheckpoint {
                tenant: "edge".to_string(),
                ts_unix_ms: 1_754_700_001_000,
                wal_ack: 7,
                frame_seq: 8,
                reorder_last_emitted: Some(60_000),
                reorder_max_seen: 62_000,
                breaker_failures: 1,
                breaker_state: "closed".to_string(),
                breaker_remaining_ms: 0,
                guard: ConfigGuard {
                    detect: false,
                    seasonal_period: 0,
                    residual_window: 0,
                    window: 10,
                },
                engine: EngineCheckpoint::Classic(pipeline::ClassicSnapshot {
                    steps: 3,
                    total_history: vec![400.0, 0.1 + 0.2],
                    history: vec![(
                        vec![mdkpi::ElementId(0), mdkpi::ElementId(2)],
                        vec![100.0, 99.9375],
                    )],
                }),
            });
        let pinned = [
            (
                "wal/edge__eu__1-c6f2d8f0.jsonl",
                concat!(
                    r#"{"tenant":"edge \"eu\"\\1","frame":"edge-0000002a-7","seq":42,"#,
                    r#""ts":1700000000000,"rows":[[["L1","S\té"],100],[["L2","S2"],0.25],"#,
                    r#"[["L3","S\u0001"],12345678.5]]}"#,
                    "\ta0358a9b\n"
                ),
            ),
            (
                "wal/schemas.jsonl",
                concat!(
                    r#"{"tenant":"edge","attrs":[["loc",["L1","L\"2"]],["svc",["S1"]]]}"#,
                    "\t956da092\n"
                ),
            ),
            (
                "incidents.jsonl",
                concat!(
                    r#"{"tenant":"edge","frame":"edge-00000003-7","step":12,"#,
                    r#""total_deviation":-0.4,"anomalous_leaves":2,"total_leaves":8,"#,
                    r#""raps":[["(L1, *)",0.93]],"timings":{"detect_seconds":0.001,"#,
                    r#""detector_seconds":0.0005,"cp_seconds":0.002,"search_seconds":0.003,"#,
                    r#""localize_seconds":0.006},"trace":{"attrs":[{"attribute":"loc","#,
                    r#""cp":0.9,"deleted":false}],"layers":[{"layer":1,"cuboids":1,"#,
                    r#""combos":2,"candidates":1}],"candidates":[{"combination":"(L1, *)","#,
                    r#""confidence":0.95,"layer":1,"score":0.93,"kept":true}],"#,
                    r#""stats":{"attrs_deleted":1,"cuboids_visited":1,"combos_visited":2,"#,
                    r#""candidates_found":1,"early_stopped":true,"cancelled":false},"#,
                    r#""cp_seconds":0.004,"search_seconds":0.005,"detection":{"#,
                    r#""severity":"high","score":4.4,"leaf_scores":[["(L1, S1)",4.4]]}},"#,
                    r#""deadline_exceeded":false,"degraded_forecast":true,"#,
                    r#""severity":"high","detection":{"score":4.4,"#,
                    r#""leaf_scores":[["(L1, S1)",4.4]]}}"#,
                    "\t0732ab8d\n"
                ),
            ),
            (
                "quarantine/edge.jsonl",
                concat!(
                    r#"{"tenant":"edge","frame":"edge-00000004-7","ts":60000,"#,
                    r#""reason":"non_finite","detail":"row 0 is NaN","#,
                    r#""rows":[[["L1","S1"],null],[["L2","S2"],2.5]]}"#,
                    "\t7e3b8acc\n"
                ),
            ),
            (
                "checkpoints/edge.json",
                concat!(
                    r#"{"v":1,"tenant":"edge","ts_unix_ms":1754700001000,"wal_ack":7,"#,
                    r#""frame_seq":8,"reorder_last_emitted":60000,"reorder_max_seen":62000,"#,
                    r#""breaker":{"failures":1,"state":"closed","remaining_ms":0},"#,
                    r#""guard":{"detect":false,"seasonal_period":0,"residual_window":0,"#,
                    r#""window":10},"engine":{"kind":"classic","steps":3,"#,
                    r#""total_history":[400,0.30000000000000004],"#,
                    r#""history":[[[0,2],[100,99.9375]]]}}"#,
                    "\tb48e42dc\n"
                ),
            ),
        ];
        for (file, bytes) in pinned {
            assert_eq!(fs::read_to_string(dir.join(file)).unwrap(), bytes, "{file}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_entries_recover_in_seq_order_across_reopen() {
        let dir = scratch("recover");
        let m = metrics();
        {
            let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
            wal.append(&entry("b", 2, None));
            wal.append(&entry("a", 1, Some(5)));
            wal.append(&entry("a", 3, Some(6)));
            assert_eq!(depth(&wal), 3);
            assert_eq!(m.wal_appends.load(Ordering::Relaxed), 3);
        }
        // a fresh process opens the same directory
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let entries = wal.recover();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [1, 2, 3],
            "replay order is the global admission order"
        );
        assert_eq!(entries[0].tenant, "a");
        assert_eq!(entries[1].tenant, "b");
        assert_eq!(entries[0].rows.len(), 2);
        assert_eq!(depth(&wal), 3, "recovery rebuilds the depth gauge");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_acknowledged_prefix_and_keeps_appending() {
        let dir = scratch("compact");
        let m = metrics();
        let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
        for seq in 1..=4 {
            wal.append(&entry("t", seq, None));
        }
        wal.compact("t", 3);
        assert_eq!(m.wal_compactions.load(Ordering::Relaxed), 1);
        assert_eq!(depth(&wal), 1);
        // the evicted handle reopens the compacted segment transparently
        wal.append(&entry("t", 5, None));
        let entries = wal.recover();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [4, 5],
            "only the unacknowledged suffix survives"
        );
        // acking everything leaves an empty but intact segment
        wal.compact("t", 5);
        assert_eq!(wal.recover().len(), 0);
        assert_eq!(depth(&wal), 0);
        // a tenant with no segment is a no-op, not an error
        wal.compact("ghost", 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_recovery() {
        let dir = scratch("torn");
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append(&entry("t", 1, None));
            wal.append(&entry("t", 2, None));
        }
        // simulate kill -9 mid-append: half a line, no newline
        let path = dir.join("wal/t.jsonl");
        let mut data = fs::read_to_string(&path).unwrap();
        data.push_str("{\"tenant\":\"t\",\"frame\":\"t-00");
        fs::write(&path, &data).unwrap();
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let entries = wal.recover();
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
        // the repair also rewrote the file, so a second scan is clean
        let clean = fs::read_to_string(&path).unwrap();
        assert_eq!(clean.lines().count(), 2);
        assert!(clean.ends_with('\n'));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_failure_latches_degraded_mode() {
        let dir = scratch("degraded");
        let m = metrics();
        let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
        // occupy the tenant's segment path with a directory so the lazy
        // open fails — a stand-in for a full or vanished volume
        fs::create_dir_all(dir.join("wal/t.jsonl")).unwrap();
        wal.append(&entry("t", 1, None));
        assert_eq!(m.wal_degraded.load(Ordering::Relaxed), 1);
        assert_eq!(m.wal_append_errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.wal_appends.load(Ordering::Relaxed), 0);
        // further appends are silently skipped — service over durability
        wal.append(&entry("other", 2, None));
        assert_eq!(m.wal_append_errors.load(Ordering::Relaxed), 1);
        assert!(!dir.join("wal/other.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_tenant_names_cannot_escape_the_wal_directory() {
        let dir = scratch("hostile");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        wal.append(&entry("../escape", 1, None));
        assert!(dir.join("wal/___escape-ed1965a3.jsonl").is_file());
        assert!(!dir.parent().unwrap().join("escape.jsonl").exists());
        // the entry still recovers under its true tenant name
        let entries = wal.recover();
        assert_eq!(entries[0].tenant, "../escape");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_never_vanish_into_a_compaction() {
        // Regression: compact once held the segment lock only to evict
        // the cached handle, so an append landing between its read and
        // its rename went into the replaced inode and silently vanished.
        let dir = scratch("race");
        let wal = Arc::new(FrameWal::open(&dir, metrics(), false).unwrap());
        const TOTAL: u64 = 300;
        const ACK: u64 = 100;
        let appender = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for seq in 1..=TOTAL {
                    wal.append(&entry("t", seq, None));
                }
            })
        };
        // hammer compaction with a fixed ack while appends stream in
        for _ in 0..200 {
            wal.compact("t", ACK);
        }
        appender.join().unwrap();
        wal.compact("t", ACK);
        let entries = wal.recover();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (ACK + 1..=TOTAL).collect::<Vec<_>>(),
            "every unacknowledged append survives concurrent compaction"
        );
        assert_eq!(depth(&wal), TOTAL - ACK, "depth matches the survivors");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_only_drops_the_acking_tenants_entries() {
        // Defense in depth: if two tenants ever did share a segment
        // (they cannot since stems are collision-free, but a hand-moved
        // spool might), one tenant's ack must not discard the other's
        // unacknowledged frames. Forge a shared segment by hand.
        let dir = scratch("shared");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let mut forged = String::new();
        for e in [
            entry("x", 1, None),
            entry("y", 2, None),
            entry("x", 3, None),
        ] {
            forged.push_str(&frame(e.to_json().render()));
        }
        fs::write(dir.join("wal/x.jsonl"), forged).unwrap();
        wal.compact("x", 10);
        let entries = wal.recover();
        assert_eq!(
            entries
                .iter()
                .map(|e| (e.tenant.as_str(), e.seq))
                .collect::<Vec<_>>(),
            [("y", 2)],
            "the foreign tenant's entry survives x's blanket ack"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_mode_appends_and_recovers_like_the_default() {
        let dir = scratch("fsync");
        let wal = FrameWal::open(&dir, metrics(), true).unwrap();
        wal.append(&entry("t", 1, Some(9)));
        wal.append(&entry("t", 2, None));
        wal.compact("t", 1);
        let entries = wal.recover();
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_suffix_reader_filters_by_tenant_and_seq() {
        let dir = scratch("suffix");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        wal.append(&entry("t", 1, None));
        wal.append(&entry("t", 2, Some(9)));
        wal.append(&entry("t", 5, None));
        wal.append(&entry("other", 3, None));
        wal.append_schema("t", &[("loc".to_string(), vec!["L1".to_string()])]);
        let suffix = read_tenant_suffix(&dir, "t", 1);
        assert_eq!(
            suffix.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [2, 5],
            "only this tenant's entries past the ack"
        );
        // a torn tail is skipped without touching the file
        let path = dir.join("wal/t.jsonl");
        let before = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{before}{{\"tenant\":\"t\",\"fra")).unwrap();
        assert_eq!(read_tenant_suffix(&dir, "t", 0).len(), 3);
        assert!(
            fs::read_to_string(&path).unwrap().ends_with("\"fra"),
            "the live segment is never rewritten by the read-only path"
        );
        assert_eq!(
            read_schema_parts(&dir, "t"),
            Some(vec![("loc".to_string(), vec!["L1".to_string()])])
        );
        assert_eq!(read_schema_parts(&dir, "ghost"), None);
        // a missing spool yields nothing, not an error
        assert!(read_tenant_suffix(Path::new("/nonexistent"), "t", 0).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_named_schemas_replays_its_frames() {
        // `schemas` is a safe stem, so this tenant's frames share
        // `wal/schemas.jsonl` with the schema journal; recovery must still
        // replay them.
        let dir = scratch("schemas-tenant");
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append_schema("schemas", &[("loc".to_string(), vec!["L1".to_string()])]);
            wal.append(&entry("schemas", 1, None));
            wal.append(&entry("edge", 2, None));
        }
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        assert_eq!(wal.recover_schemas().len(), 1);
        let entries = wal.recover();
        assert_eq!(
            entries
                .iter()
                .map(|e| (e.tenant.as_str(), e.seq))
                .collect::<Vec<_>>(),
            [("schemas", 1), ("edge", 2)]
        );
        assert_eq!(depth(&wal), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_journal_round_trips_with_last_entry_winning() {
        let dir = scratch("schemas");
        let parts_v1 = vec![("loc".to_string(), vec!["L1".to_string()])];
        let parts_v2 = vec![
            ("loc".to_string(), vec!["L1".to_string(), "L2".to_string()]),
            ("isp".to_string(), vec!["I1".to_string()]),
        ];
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append_schema("edge", &parts_v1);
            wal.append_schema("core", &parts_v1);
            wal.append_schema("edge", &parts_v2);
        }
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let schemas = wal.recover_schemas();
        assert_eq!(schemas.len(), 2);
        assert_eq!(schemas[0], ("edge".to_string(), parts_v2));
        assert_eq!(schemas[1], ("core".to_string(), parts_v1));
        // frame recovery skips the schema journal
        assert!(wal.recover().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
