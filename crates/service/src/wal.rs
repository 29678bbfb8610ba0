//! The frame write-ahead log: admitted frames journaled before queueing.
//!
//! Crash consistency for rapd rests on one rule: **a frame that was
//! acknowledged on the wire is never lost**. The observe verb appends
//! every admitted frame to a per-tenant journal under `<spool_dir>/wal/`
//! *before* handing it to the shard queues; on startup the daemon replays
//! the journal suffix past the last checkpoint's acknowledgment, so a
//! `kill -9` loses nothing past admission.
//!
//! Journal lines use the same `{json}\t{crc32:08x}` framing as the
//! incident spool, and the same torn-tail repair
//! ([`crate::sink::repair_spool`]) runs over each segment at recovery —
//! a crash mid-append costs at most the line being written, which is
//! exactly the frame that was never acknowledged.
//!
//! By default an append is flushed (not fsynced) before the wire
//! acknowledgment: the line is in the kernel page cache, which survives
//! any *process* death (`kill -9`, OOM, panic) but not power loss or a
//! kernel panic. Opening the WAL with `fsync` (`--wal-fsync`) upgrades
//! the guarantee to machine-crash durability by `sync_data`ing every
//! append, at a per-frame fsync cost.
//!
//! Two journals live here:
//!
//! * `<tenant>.jsonl` — one [`WalEntry`] per admitted frame, compacted
//!   after each checkpoint acknowledges a sequence watermark;
//! * `schemas.jsonl` — an append-only journal of registered tenant
//!   schemas, loaded before replay so replayed frames can be re-resolved
//!   (the in-memory schema map dies with the process).
//!
//! Like every sink in this crate, appends are infallible from the
//! caller's perspective: a write failure latches the WAL into degraded
//! (journal-less) mode — one warning event, `rapd_wal_append_errors_total`
//! counted — rather than failing ingestion. Durability degrades; service
//! does not.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::proto::write_line;
use crate::quarantine::sanitize_tenant;
use crate::sink::{frame_spool_line, repair_spool};
use crate::sync::lock_recover;

/// A journaled schema: the attribute parts (`(name, element names)`) a
/// tenant registered, exactly as `Request::Schema` carries them.
pub type SchemaParts = Vec<(String, Vec<String>)>;

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

/// The per-tenant frame journal under `<spool_dir>/wal/`.
#[derive(Debug)]
pub(crate) struct FrameWal {
    dir: PathBuf,
    /// Lazily opened per-tenant append handles, keyed by sanitized stem.
    /// This lock is the segment lock: appends hold it across the write
    /// and the depth bookkeeping, and compaction holds it across its
    /// whole read–rewrite–rename, so an append lands wholly before or
    /// wholly after a compaction — never inside one, where its line
    /// would be discarded with the replaced inode.
    files: Mutex<HashMap<String, File>>,
    /// Unacknowledged entries per stem; the sum is the `rapd_wal_depth`
    /// gauge. Lock order: `files` before `depth`, always.
    depth: Mutex<HashMap<String, u64>>,
    metrics: Arc<Metrics>,
    /// `sync_data` every append (machine-crash durability) instead of
    /// relying on the page cache (process-crash durability).
    fsync: bool,
    /// Latched on the first append error; the WAL then journals nothing.
    degraded: AtomicBool,
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
        let dir = spool_dir.join("wal");
        fs::create_dir_all(&dir)?;
        Ok(FrameWal {
            dir,
            files: Mutex::new(HashMap::new()),
            depth: Mutex::new(HashMap::new()),
            metrics,
            fsync,
            degraded: AtomicBool::new(false),
        })
    }

    /// Whether an append error has latched the WAL into journal-less mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Journaled frames not yet acknowledged by a checkpoint, across all
    /// tenants.
    pub fn depth(&self) -> u64 {
        lock_recover(&self.depth).values().sum()
    }

    fn publish_depth(&self) {
        self.metrics
            .wal_depth
            .store(self.depth(), Ordering::Relaxed);
    }

    /// Append one admitted frame to its tenant's journal segment, flushed
    /// immediately so a `kill -9` right after the wire acknowledgment
    /// still finds the frame on disk. Infallible: a write failure latches
    /// degraded mode instead of failing the ingest path.
    pub fn append(&self, entry: &WalEntry) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let line = frame_spool_line(&entry.to_json().render());
        let stem = sanitize_tenant(&entry.tenant);
        // Hold the segment lock across the write *and* the depth update:
        // compact() holds it for its whole rewrite, so neither the line
        // nor its depth increment can interleave with a compaction.
        let mut files = lock_recover(&self.files);
        let result = (|| {
            let file = match files.entry(stem.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let path = self.dir.join(format!("{}.jsonl", e.key()));
                    e.insert(OpenOptions::new().create(true).append(true).open(path)?)
                }
            };
            if obs::fail::should_error("wal-append-error") {
                return Err(io::Error::other("injected wal append error"));
            }
            write_line(file, &line)?;
            if self.fsync {
                file.sync_data()?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
                *lock_recover(&self.depth).entry(stem).or_insert(0) += 1;
                drop(files);
                self.publish_depth();
            }
            Err(e) => {
                self.metrics
                    .wal_append_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.wal_degraded.store(1, Ordering::Relaxed);
                if !self.degraded.swap(true, Ordering::Relaxed) {
                    obs::warn(
                        "rapd.wal",
                        "wal_degraded",
                        &[
                            ("error", obs::Value::Str(e.to_string())),
                            ("dir", obs::Value::Str(self.dir.display().to_string())),
                        ],
                    );
                }
            }
        }
    }

    /// Drop every journaled entry of `tenant` with `seq <= ack_seq` — a
    /// checkpoint now covers them. Entries carrying a *different*
    /// embedded tenant are always kept (the ack covers this tenant's
    /// pipeline, not theirs), so even a stem collision cannot discard a
    /// neighbor's unacknowledged frames. The segment is rewritten
    /// through a temp file, fsynced, and renamed into place, and the
    /// segment lock is held across the whole read–rewrite–rename: a
    /// concurrent observe-path append can land only before the read or
    /// after the rename, never into the doomed inode.
    pub fn compact(&self, tenant: &str, ack_seq: u64) {
        let stem = sanitize_tenant(tenant);
        let path = self.dir.join(format!("{stem}.jsonl"));
        let mut files = lock_recover(&self.files);
        let result = (|| -> io::Result<Option<u64>> {
            let data = match fs::read_to_string(&path) {
                Ok(data) => data,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            };
            let mut kept = String::with_capacity(data.len());
            let mut kept_count = 0u64;
            for line in data.lines() {
                if let Some(entry) = parse_wal_line(line) {
                    if entry.tenant == tenant && entry.seq <= ack_seq {
                        continue;
                    }
                    kept_count += 1;
                }
                kept.push_str(line);
                kept.push('\n');
            }
            if kept.len() == data.len() {
                return Ok(Some(kept_count));
            }
            // Evict the cached append handle: after the rename it would
            // still point at the replaced inode.
            files.remove(&stem);
            let tmp = path.with_extension("jsonl.compact");
            {
                let mut f = File::create(&tmp)?;
                f.write_all(kept.as_bytes())?;
                f.sync_all()?;
            }
            fs::rename(&tmp, &path)?;
            self.metrics.wal_compactions.fetch_add(1, Ordering::Relaxed);
            Ok(Some(kept_count))
        })();
        match result {
            Ok(Some(kept_count)) => {
                lock_recover(&self.depth).insert(stem, kept_count);
                drop(files);
                self.publish_depth();
            }
            Ok(None) => {}
            Err(e) => obs::warn(
                "rapd.wal",
                "wal_compact_failed",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("error", obs::Value::Str(e.to_string())),
                ],
            ),
        }
    }

    /// Scan every journal segment, repair torn tails, and return the
    /// surviving entries ordered by sequence number — the replay stream.
    /// Unparseable (foreign-format) lines are skipped, never fatal: a
    /// journal that cannot be fully read must still yield what it can.
    pub fn recover(&self) -> Vec<WalEntry> {
        let mut entries = Vec::new();
        let mut depths: HashMap<String, u64> = HashMap::new();
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return entries;
        };
        for dirent in listing.flatten() {
            let path = dirent.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.ends_with(".jsonl") || name == "schemas.jsonl" {
                continue;
            }
            let stem = name.trim_end_matches(".jsonl").to_string();
            if let Err(e) = repair_spool(&path) {
                obs::warn(
                    "rapd.wal",
                    "wal_segment_unreadable",
                    &[
                        ("path", obs::Value::Str(path.display().to_string())),
                        ("error", obs::Value::Str(e.to_string())),
                    ],
                );
                continue;
            }
            let Ok(data) = fs::read_to_string(&path) else {
                continue;
            };
            let mut count = 0u64;
            for line in data.lines() {
                if let Some(entry) = parse_wal_line(line) {
                    count += 1;
                    entries.push(entry);
                }
            }
            depths.insert(stem, count);
        }
        entries.sort_by_key(|e| e.seq);
        *lock_recover(&self.depth) = depths;
        self.publish_depth();
        entries
    }

    /// Journal one tenant's registered schema so replay can re-resolve
    /// its frames after a restart. Append-only; duplicates are fine (the
    /// last entry for a tenant wins at recovery).
    pub fn append_schema(&self, tenant: &str, parts: &[(String, Vec<String>)]) {
        let doc = Json::Obj(vec![
            ("tenant".to_string(), Json::str(tenant)),
            (
                "attrs".to_string(),
                Json::Arr(
                    parts
                        .iter()
                        .map(|(name, elements)| {
                            Json::Arr(vec![
                                Json::str(name),
                                Json::Arr(elements.iter().map(Json::str).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let line = frame_spool_line(&doc.render());
        let path = self.dir.join("schemas.jsonl");
        let result = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| write_line(&mut f, &line));
        if let Err(e) = result {
            obs::warn(
                "rapd.wal",
                "schema_journal_failed",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("error", obs::Value::Str(e.to_string())),
                ],
            );
        }
    }

    /// Load the schema journal: `(tenant, attribute parts)` with the last
    /// entry per tenant winning.
    pub fn recover_schemas(&self) -> Vec<(String, SchemaParts)> {
        let path = self.dir.join("schemas.jsonl");
        if repair_spool(&path).is_err() {
            return Vec::new();
        }
        let Ok(data) = fs::read_to_string(&path) else {
            return Vec::new();
        };
        let mut latest: Vec<(String, SchemaParts)> = Vec::new();
        for line in data.lines() {
            let Some(doc) = parse_framed(line) else {
                continue;
            };
            let Some(parsed) = parse_schema_entry(&doc) else {
                continue;
            };
            match latest.iter_mut().find(|(t, _)| *t == parsed.0) {
                Some(slot) => slot.1 = parsed.1,
                None => latest.push(parsed),
            }
        }
        latest
    }
}

/// Read one tenant's journaled entries with `seq > after_seq` from a
/// spool directory, **read-only** — no repair, no truncation, no handle
/// caching. The fleet handoff protocol uses this to lift a tenant's WAL
/// suffix out of a *live* worker's spool: the worker keeps appending for
/// other tenants, so the reader must not rewrite its files. A torn tail
/// (should the worker die mid-append during the copy) simply fails to
/// parse and is skipped — exactly what the worker's own recovery would
/// have discarded.
pub fn read_tenant_suffix(spool_dir: &Path, tenant: &str, after_seq: u64) -> Vec<WalEntry> {
    let path = spool_dir
        .join("wal")
        .join(format!("{}.jsonl", sanitize_tenant(tenant)));
    let Ok(data) = fs::read_to_string(&path) else {
        return Vec::new();
    };
    let mut entries: Vec<WalEntry> = data
        .lines()
        .filter_map(parse_wal_line)
        .filter(|e| e.tenant == tenant && e.seq > after_seq)
        .collect();
    entries.sort_by_key(|e| e.seq);
    entries
}

/// Read one tenant's journaled schema parts from a spool directory,
/// read-only (last entry wins). The handoff fallback when the router has
/// not seen the tenant's schema line itself.
pub fn read_schema_parts(spool_dir: &Path, tenant: &str) -> Option<SchemaParts> {
    let path = spool_dir.join("wal").join("schemas.jsonl");
    let data = fs::read_to_string(&path).ok()?;
    let mut latest = None;
    for line in data.lines() {
        let Some(doc) = parse_framed(line) else {
            continue;
        };
        if let Some((t, parts)) = parse_schema_entry(&doc) {
            if t == tenant {
                latest = Some(parts);
            }
        }
    }
    latest
}

/// Strip the CRC framing (when present and valid) and parse the JSON.
fn parse_framed(line: &str) -> Option<Json> {
    use crate::sink::{judge_line, LineVerdict};
    match judge_line(line) {
        LineVerdict::Verified => {
            let (json, _) = line.rsplit_once('\t')?;
            crate::json::parse(json).ok()
        }
        LineVerdict::Legacy => crate::json::parse(line).ok(),
        LineVerdict::Corrupt => None,
    }
}

fn parse_wal_line(line: &str) -> Option<WalEntry> {
    WalEntry::from_json(&parse_framed(line)?)
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

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
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
        // Escapes, integer-valued and fractional floats: the bytes every
        // existing journal already holds, CRC suffix included.
        let e = WalEntry {
            tenant: "edge \"eu\"\\1".to_string(),
            frame: "edge-0000002a-7".to_string(),
            seq: 42,
            ts: Some(1_700_000_000_000),
            rows: vec![
                (vec!["L1".to_string(), "S\té".to_string()], 100.0),
                (vec!["L2".to_string(), "S2".to_string()], 0.25),
                (vec!["L3".to_string(), "S\u{1}".to_string()], 12_345_678.5),
            ],
        };
        assert_eq!(
            frame_spool_line(&e.to_json().render()),
            concat!(
                r#"{"tenant":"edge \"eu\"\\1","frame":"edge-0000002a-7","seq":42,"#,
                r#""ts":1700000000000,"rows":[[["L1","S\té"],100],[["L2","S2"],0.25],"#,
                r#"[["L3","S\u0001"],12345678.5]]}"#,
                "\ta0358a9b"
            )
        );
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
            assert_eq!(wal.depth(), 3);
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
        assert_eq!(wal.depth(), 3, "recovery rebuilds the depth gauge");
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
        assert_eq!(wal.depth(), 1);
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
        assert_eq!(wal.depth(), 0);
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
        assert!(wal.is_degraded());
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
        assert_eq!(wal.depth(), TOTAL - ACK, "depth matches the survivors");
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
            forged.push_str(&frame_spool_line(&e.to_json().render()));
            forged.push('\n');
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
