//! Versioned, CRC-framed tenant checkpoints under `<spool_dir>/checkpoints/`.
//!
//! A checkpoint is the full durable state of one tenant: its detector (or
//! classic pipeline) snapshot, residual-window moments, trigger/hold state
//! machine, reorder-buffer watermark, circuit-breaker state, and the frame
//! sequence watermark the write-ahead log may compact up to. Checkpoints
//! are written periodically (`--checkpoint-interval`) and on graceful
//! shutdown; at boot the latest valid snapshot is restored and the WAL
//! suffix past `wal_ack` is replayed on top, so a `kill -9` costs neither
//! admitted frames nor detector warm-up.
//!
//! # On-disk format
//!
//! One file per tenant, `<stem>.json`, holding a single line in the spool
//! framing (`{json}\t{crc32:08x}`) with a leading `"v":1` version tag.
//! Floats round-trip exactly: the JSON writer emits the shortest
//! representation that parses back to the identical `f64`, so a restored
//! detector continues **bit-identically** to an uninterrupted run.
//!
//! # Atomicity and fallback
//!
//! Writes go through the logs' atomic replace
//! (`segment::replace`): a temp file, `fsync`, then two renames —
//! the current snapshot becomes `<stem>.json.prev`, the temp file becomes
//! current. A crash at any point leaves a valid current or previous
//! snapshot. Loads fall back in order — current, then `.prev`, then cold
//! start — counting rejects in `rapd_checkpoint_corrupt_total`. A corrupt
//! checkpoint never refuses boot; it costs a re-warm, not the daemon.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mdkpi::ElementId;
use pipeline::{
    ClassicSnapshot, DetectorSnapshot, DetectorState, ForecasterSnapshot, LeafSnapshot,
    ResidualSnapshot,
};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::segment::{frame, replace, sanitize_tenant, unframe, LineVerdict};

/// The checkpoint format version this build writes and accepts.
const VERSION: u64 = 1;

/// The engine half of a checkpoint: whichever pipeline flavor the tenant
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCheckpoint {
    /// Streaming-detector mode ([`pipeline::DetectingPipeline`]).
    Detecting(DetectorSnapshot),
    /// Classic pre-labelled mode ([`pipeline::LocalizationPipeline`]).
    Classic(ClassicSnapshot),
}

/// The config fingerprint stamped into a checkpoint. Restore refuses a
/// snapshot taken under different knobs — resuming a detector into a
/// reconfigured daemon would silently corrupt its statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGuard {
    /// Whether the daemon ran in detect mode.
    pub detect: bool,
    /// Detector seasonal period (0 = EWMA).
    pub seasonal_period: usize,
    /// Detector residual window capacity.
    pub residual_window: usize,
    /// Classic-mode forecast window.
    pub window: usize,
}

/// Everything needed to resume one tenant exactly where it left off.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCheckpoint {
    /// The tenant this snapshot belongs to.
    pub tenant: String,
    /// Wall-clock write time (unix milliseconds) — the `debug` verb's
    /// `last_checkpoint_ts` and the staleness gauge.
    pub ts_unix_ms: u64,
    /// Highest frame sequence this snapshot covers; the WAL compacts up
    /// to it, replay starts past it.
    pub wal_ack: u64,
    /// Highest frame sequence ever seen for this tenant — the mint
    /// sequence must advance past it so new tokens never collide.
    pub frame_seq: u64,
    /// Reorder-buffer watermark: last emitted event timestamp.
    pub reorder_last_emitted: Option<u64>,
    /// Reorder-buffer watermark: newest event timestamp seen.
    pub reorder_max_seen: u64,
    /// Consecutive breaker failures at snapshot time.
    pub breaker_failures: u32,
    /// Breaker state: `"closed"`, `"open"`, or `"half_open"`.
    pub breaker_state: String,
    /// Remaining open-state cooldown at snapshot time, in milliseconds
    /// (monotonic instants cannot cross processes).
    pub breaker_remaining_ms: u64,
    /// The config fingerprint the snapshot was taken under.
    pub guard: ConfigGuard,
    /// The pipeline state itself.
    pub engine: EngineCheckpoint,
}

impl TenantCheckpoint {
    /// The JSON form written to disk (inside the CRC framing).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".to_string(), Json::Num(VERSION as f64)),
            ("tenant".to_string(), Json::str(&self.tenant)),
            ("ts_unix_ms".to_string(), Json::Num(self.ts_unix_ms as f64)),
            ("wal_ack".to_string(), Json::Num(self.wal_ack as f64)),
            ("frame_seq".to_string(), Json::Num(self.frame_seq as f64)),
            (
                "reorder_last_emitted".to_string(),
                match self.reorder_last_emitted {
                    None => Json::Null,
                    Some(ts) => Json::Num(ts as f64),
                },
            ),
            (
                "reorder_max_seen".to_string(),
                Json::Num(self.reorder_max_seen as f64),
            ),
            (
                "breaker".to_string(),
                Json::Obj(vec![
                    (
                        "failures".to_string(),
                        Json::Num(f64::from(self.breaker_failures)),
                    ),
                    ("state".to_string(), Json::str(&self.breaker_state)),
                    (
                        "remaining_ms".to_string(),
                        Json::Num(self.breaker_remaining_ms as f64),
                    ),
                ]),
            ),
            (
                "guard".to_string(),
                Json::Obj(vec![
                    ("detect".to_string(), Json::Bool(self.guard.detect)),
                    (
                        "seasonal_period".to_string(),
                        Json::Num(self.guard.seasonal_period as f64),
                    ),
                    (
                        "residual_window".to_string(),
                        Json::Num(self.guard.residual_window as f64),
                    ),
                    ("window".to_string(), Json::Num(self.guard.window as f64)),
                ]),
            ),
            ("engine".to_string(), engine_to_json(&self.engine)),
        ])
    }

    /// Parse a checkpoint document; `None` on any shape or version
    /// mismatch (the caller falls back to `.prev`, then cold start).
    pub fn from_json(doc: &Json) -> Option<TenantCheckpoint> {
        if doc.get("v")?.as_u64()? != VERSION {
            return None;
        }
        let breaker = doc.get("breaker")?;
        let guard = doc.get("guard")?;
        Some(TenantCheckpoint {
            tenant: doc.get("tenant")?.as_str()?.to_string(),
            ts_unix_ms: doc.get("ts_unix_ms")?.as_u64()?,
            wal_ack: doc.get("wal_ack")?.as_u64()?,
            frame_seq: doc.get("frame_seq")?.as_u64()?,
            reorder_last_emitted: doc.get("reorder_last_emitted").and_then(Json::as_u64),
            reorder_max_seen: doc.get("reorder_max_seen")?.as_u64()?,
            breaker_failures: u32::try_from(breaker.get("failures")?.as_u64()?).ok()?,
            breaker_state: breaker.get("state")?.as_str()?.to_string(),
            breaker_remaining_ms: breaker.get("remaining_ms")?.as_u64()?,
            guard: ConfigGuard {
                detect: guard.get("detect")?.as_bool()?,
                seasonal_period: guard.get("seasonal_period")?.as_u64()? as usize,
                residual_window: guard.get("residual_window")?.as_u64()? as usize,
                window: guard.get("window")?.as_u64()? as usize,
            },
            engine: engine_from_json(doc.get("engine")?)?,
        })
    }
}

fn num_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

fn parse_num_arr(doc: &Json) -> Option<Vec<f64>> {
    doc.as_arr()?.iter().map(Json::as_f64).collect()
}

fn elements_to_json(key: &[ElementId]) -> Json {
    Json::Arr(key.iter().map(|id| Json::Num(f64::from(id.0))).collect())
}

fn parse_elements(doc: &Json) -> Option<Vec<ElementId>> {
    doc.as_arr()?
        .iter()
        .map(|id| Some(ElementId(u32::try_from(id.as_u64()?).ok()?)))
        .collect()
}

fn leaf_to_json(leaf: &LeafSnapshot) -> Json {
    let forecaster = match &leaf.forecaster {
        ForecasterSnapshot::Ewma { level } => Json::Obj(vec![
            ("kind".to_string(), Json::str("ewma")),
            ("level".to_string(), level.map_or(Json::Null, Json::Num)),
        ]),
        ForecasterSnapshot::HoltWinters {
            level,
            trend,
            seasonal,
            idx,
        } => Json::Obj(vec![
            ("kind".to_string(), Json::str("hw")),
            ("level".to_string(), level.map_or(Json::Null, Json::Num)),
            ("trend".to_string(), Json::Num(*trend)),
            ("seasonal".to_string(), num_arr(seasonal)),
            ("idx".to_string(), Json::Num(*idx as f64)),
        ]),
    };
    Json::Obj(vec![
        ("forecaster".to_string(), forecaster),
        (
            "residuals".to_string(),
            Json::Obj(vec![
                ("buf".to_string(), num_arr(&leaf.residuals.buf)),
                ("sum".to_string(), Json::Num(leaf.residuals.sum)),
                ("sumsq".to_string(), Json::Num(leaf.residuals.sumsq)),
                (
                    "pushes".to_string(),
                    Json::Num(leaf.residuals.pushes_since_rebuild as f64),
                ),
            ]),
        ),
    ])
}

fn leaf_from_json(doc: &Json) -> Option<LeafSnapshot> {
    let f = doc.get("forecaster")?;
    let forecaster = match f.get("kind")?.as_str()? {
        "ewma" => ForecasterSnapshot::Ewma {
            level: f.get("level").and_then(Json::as_f64),
        },
        "hw" => ForecasterSnapshot::HoltWinters {
            level: f.get("level").and_then(Json::as_f64),
            trend: f.get("trend")?.as_f64()?,
            seasonal: parse_num_arr(f.get("seasonal")?)?,
            idx: f.get("idx")?.as_u64()? as usize,
        },
        _ => return None,
    };
    let r = doc.get("residuals")?;
    Some(LeafSnapshot {
        forecaster,
        residuals: ResidualSnapshot {
            buf: parse_num_arr(r.get("buf")?)?,
            sum: r.get("sum")?.as_f64()?,
            sumsq: r.get("sumsq")?.as_f64()?,
            pushes_since_rebuild: r.get("pushes")?.as_u64()? as usize,
        },
    })
}

fn engine_to_json(engine: &EngineCheckpoint) -> Json {
    match engine {
        EngineCheckpoint::Detecting(snap) => Json::Obj(vec![
            ("kind".to_string(), Json::str("detecting")),
            ("steps".to_string(), Json::Num(snap.steps as f64)),
            ("state".to_string(), Json::str(snap.state.as_str())),
            (
                "triggered_frames".to_string(),
                Json::Num(snap.triggered_frames as f64),
            ),
            ("total".to_string(), leaf_to_json(&snap.total)),
            (
                "leaves".to_string(),
                Json::Arr(
                    snap.leaves
                        .iter()
                        .map(|(key, leaf)| {
                            Json::Arr(vec![elements_to_json(key), leaf_to_json(leaf)])
                        })
                        .collect(),
                ),
            ),
        ]),
        EngineCheckpoint::Classic(snap) => Json::Obj(vec![
            ("kind".to_string(), Json::str("classic")),
            ("steps".to_string(), Json::Num(snap.steps as f64)),
            ("total_history".to_string(), num_arr(&snap.total_history)),
            (
                "history".to_string(),
                Json::Arr(
                    snap.history
                        .iter()
                        .map(|(key, values)| {
                            Json::Arr(vec![elements_to_json(key), num_arr(values)])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn engine_from_json(doc: &Json) -> Option<EngineCheckpoint> {
    match doc.get("kind")?.as_str()? {
        "detecting" => Some(EngineCheckpoint::Detecting(DetectorSnapshot {
            steps: doc.get("steps")?.as_u64()? as usize,
            state: DetectorState::parse(doc.get("state")?.as_str()?)?,
            triggered_frames: doc.get("triggered_frames")?.as_u64()? as usize,
            total: leaf_from_json(doc.get("total")?)?,
            leaves: doc
                .get("leaves")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr()?;
                    Some((
                        parse_elements(pair.first()?)?,
                        leaf_from_json(pair.get(1)?)?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
        })),
        "classic" => Some(EngineCheckpoint::Classic(ClassicSnapshot {
            steps: doc.get("steps")?.as_u64()? as usize,
            total_history: parse_num_arr(doc.get("total_history")?)?,
            history: doc
                .get("history")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr()?;
                    Some((parse_elements(pair.first()?)?, parse_num_arr(pair.get(1)?)?))
                })
                .collect::<Option<Vec<_>>>()?,
        })),
        _ => None,
    }
}

/// The per-tenant snapshot store under `<spool_dir>/checkpoints/`.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    metrics: Arc<Metrics>,
}

impl CheckpointStore {
    /// Open (creating) the `<spool_dir>/checkpoints/` directory.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(spool_dir: &Path, metrics: Arc<Metrics>) -> io::Result<Self> {
        let dir = spool_dir.join("checkpoints");
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, metrics })
    }

    /// Atomically persist one tenant's snapshot: temp file + `fsync`,
    /// demote the current snapshot to `.prev`, rename the temp file into
    /// place. Returns whether the snapshot reached disk; a failure keeps
    /// the previous snapshot and counts `rapd_checkpoint_errors_total`, and
    /// the caller must not compact the WAL past what that one covers.
    pub fn write(&self, checkpoint: &TenantCheckpoint) -> bool {
        let path = snapshot_path(&self.dir, &checkpoint.tenant);
        let line = frame(checkpoint.to_json().render());
        let result = replace(&path, line.as_bytes(), || {
            if path.exists() {
                fs::rename(&path, path.with_extension("json.prev"))?;
            }
            Ok(())
        });
        match result {
            Ok(()) => {
                self.metrics
                    .checkpoint_writes
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .checkpoint_last_unix_ms
                    .fetch_max(checkpoint.ts_unix_ms, Ordering::Relaxed);
                true
            }
            Err(e) => {
                self.metrics
                    .checkpoint_errors
                    .fetch_add(1, Ordering::Relaxed);
                obs::warn(
                    "rapd.checkpoint",
                    "checkpoint_write_failed",
                    &[
                        ("tenant", obs::Value::Str(checkpoint.tenant.clone())),
                        ("error", obs::Value::Str(e.to_string())),
                    ],
                );
                false
            }
        }
    }

    /// Load the latest valid snapshot for `tenant`: the current file
    /// first, then `.prev` (counting the corrupt current), then `None`
    /// (cold start). Never an error — a checkpoint must never refuse
    /// boot.
    pub fn load(&self, tenant: &str) -> Option<TenantCheckpoint> {
        let path = snapshot_path(&self.dir, tenant);
        if let Some(checkpoint) = load_file(&path) {
            return Some(checkpoint);
        }
        if path.exists() {
            self.metrics
                .checkpoint_corrupt
                .fetch_add(1, Ordering::Relaxed);
            obs::warn(
                "rapd.checkpoint",
                "checkpoint_corrupt",
                &[("path", obs::Value::Str(path.display().to_string()))],
            );
        }
        let prev = path.with_extension("json.prev");
        let fallback = load_file(&prev);
        if fallback.is_none() && prev.exists() {
            self.metrics
                .checkpoint_corrupt
                .fetch_add(1, Ordering::Relaxed);
        }
        fallback
    }

    /// Load every tenant's latest valid snapshot — the boot-time recovery
    /// set that seeds WAL acknowledgments and the frame-sequence
    /// watermark.
    pub fn load_all(&self) -> Vec<TenantCheckpoint> {
        let mut checkpoints = Vec::new();
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return checkpoints;
        };
        let mut stems: Vec<String> = listing
            .flatten()
            .filter_map(|d| {
                let name = d.file_name().to_str()?.to_string();
                // A crash between write()'s demote and final rename can
                // leave a tenant with only a `.json.prev` generation;
                // load() would find it, so boot must list it too.
                name.strip_suffix(".json")
                    .or_else(|| name.strip_suffix(".json.prev"))
                    .map(str::to_string)
            })
            .collect();
        stems.sort();
        stems.dedup();
        for stem in stems {
            // `load` by stem: stems are already sanitized, and sanitizing
            // is idempotent, so the round trip is exact.
            if let Some(checkpoint) = self.load(&stem) {
                checkpoints.push(checkpoint);
            }
        }
        checkpoints
    }
}

fn snapshot_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{}.json", sanitize_tenant(tenant)))
}

fn load_file(path: &Path) -> Option<TenantCheckpoint> {
    let data = fs::read_to_string(path).ok()?;
    match unframe(data.lines().next()?) {
        (LineVerdict::Verified, json) => {
            TenantCheckpoint::from_json(&crate::json::parse(json).ok()?)
        }
        _ => None,
    }
}

/// [`CheckpointStore::load`] from another daemon's spool, read-only: a
/// handoff's target reads its live source's final checkpoint this way.
pub(crate) fn read_snapshot(spool_dir: &Path, tenant: &str) -> Option<TenantCheckpoint> {
    let path = snapshot_path(&spool_dir.join("checkpoints"), tenant);
    load_file(&path).or_else(|| load_file(&path.with_extension("json.prev")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn leaf(seed: f64) -> LeafSnapshot {
        LeafSnapshot {
            forecaster: ForecasterSnapshot::HoltWinters {
                level: Some(seed * 1.1),
                trend: -0.034_217,
                // a deliberately awkward float: many significant digits
                seasonal: vec![0.1 + seed, 0.2, std::f64::consts::PI / 7.0],
                idx: 2,
            },
            residuals: ResidualSnapshot {
                buf: vec![seed, -seed / 3.0, 0.000_123_456_789],
                sum: seed * 0.666_666_666_7,
                sumsq: seed * seed + 1e-13,
                pushes_since_rebuild: 17,
            },
        }
    }

    fn detecting_checkpoint(tenant: &str) -> TenantCheckpoint {
        TenantCheckpoint {
            tenant: tenant.to_string(),
            ts_unix_ms: 1_754_700_000_123,
            wal_ack: 420,
            frame_seq: 431,
            reorder_last_emitted: Some(60_000),
            reorder_max_seen: 62_000,
            breaker_failures: 2,
            breaker_state: "open".to_string(),
            breaker_remaining_ms: 4_321,
            guard: ConfigGuard {
                detect: true,
                seasonal_period: 3,
                residual_window: 240,
                window: 10,
            },
            engine: EngineCheckpoint::Detecting(DetectorSnapshot {
                steps: 99,
                state: DetectorState::Triggered,
                triggered_frames: 4,
                total: leaf(2.5),
                leaves: vec![
                    (vec![ElementId(0), ElementId(2)], leaf(1.0)),
                    (vec![ElementId(1), ElementId(3)], leaf(-0.5)),
                ],
            }),
        }
    }

    fn classic_checkpoint(tenant: &str) -> TenantCheckpoint {
        TenantCheckpoint {
            tenant: tenant.to_string(),
            ts_unix_ms: 1_754_700_001_000,
            wal_ack: 7,
            frame_seq: 7,
            reorder_last_emitted: None,
            reorder_max_seen: 0,
            breaker_failures: 0,
            breaker_state: "closed".to_string(),
            breaker_remaining_ms: 0,
            guard: ConfigGuard {
                detect: false,
                seasonal_period: 0,
                residual_window: 0,
                window: 10,
            },
            engine: EngineCheckpoint::Classic(ClassicSnapshot {
                steps: 12,
                total_history: vec![400.0, 400.25, 399.875],
                history: vec![(
                    vec![ElementId(0), ElementId(2)],
                    vec![100.0, 100.062_5, 99.937_5],
                )],
            }),
        }
    }

    #[test]
    fn checkpoints_round_trip_bit_identically() {
        for checkpoint in [detecting_checkpoint("edge"), classic_checkpoint("core")] {
            let doc = crate::json::parse(&checkpoint.to_json().render()).unwrap();
            let back = TenantCheckpoint::from_json(&doc).unwrap();
            // PartialEq on f64 is bit-comparison for finite values, and
            // every field in a snapshot is finite by construction.
            assert_eq!(back, checkpoint);
        }
    }

    #[test]
    fn version_and_shape_mismatches_parse_to_none() {
        let mut doc = detecting_checkpoint("t").to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Num(99.0); // future version
        }
        assert!(TenantCheckpoint::from_json(&doc).is_none());
        let junk = crate::json::parse(r#"{"v":1,"tenant":"t"}"#).unwrap();
        assert!(TenantCheckpoint::from_json(&junk).is_none());
    }

    #[test]
    fn write_then_load_restores_the_same_state_across_reopen() {
        let dir = scratch("roundtrip");
        let m = metrics();
        let checkpoint = detecting_checkpoint("edge");
        {
            let store = CheckpointStore::open(&dir, Arc::clone(&m)).unwrap();
            store.write(&checkpoint);
            assert_eq!(m.checkpoint_writes.load(Ordering::Relaxed), 1);
            assert_eq!(
                m.checkpoint_last_unix_ms.load(Ordering::Relaxed),
                checkpoint.ts_unix_ms
            );
        }
        let store = CheckpointStore::open(&dir, metrics()).unwrap();
        assert_eq!(store.load("edge"), Some(checkpoint.clone()));
        let all = store.load_all();
        assert_eq!(all, vec![checkpoint]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_current_falls_back_to_prev_then_cold_start() {
        let dir = scratch("fallback");
        let m = metrics();
        let store = CheckpointStore::open(&dir, Arc::clone(&m)).unwrap();
        let v1 = classic_checkpoint("t");
        let mut v2 = v1.clone();
        v2.wal_ack = 9;
        store.write(&v1);
        store.write(&v2); // v1 is now .prev
        let path = dir.join("checkpoints/t.json");
        // flip a byte: the CRC no longer matches
        let tampered =
            fs::read_to_string(&path)
                .unwrap()
                .replacen("\"wal_ack\":9", "\"wal_ack\":8", 1);
        fs::write(&path, tampered).unwrap();
        let loaded = store.load("t").expect("prev snapshot must survive");
        assert_eq!(loaded.wal_ack, v1.wal_ack, "fallback is the demoted v1");
        assert_eq!(m.checkpoint_corrupt.load(Ordering::Relaxed), 1);
        // both generations corrupt → cold start, never an error
        fs::write(dir.join("checkpoints/t.json.prev"), "garbage\n").unwrap();
        assert!(store.load("t").is_none());
        assert!(store.load("never-seen").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_with_only_a_prev_generation_is_listed_at_boot() {
        // Simulate a crash between write()'s two renames: the current
        // snapshot was demoted to .prev but the temp file never replaced
        // it. load_all must still surface the tenant, or boot recovery
        // would skip its wal_ack/frame_seq seeding entirely.
        let dir = scratch("prevonly");
        let store = CheckpointStore::open(&dir, metrics()).unwrap();
        let checkpoint = classic_checkpoint("t");
        store.write(&checkpoint);
        fs::rename(
            dir.join("checkpoints/t.json"),
            dir.join("checkpoints/t.json.prev"),
        )
        .unwrap();
        assert_eq!(store.load_all(), vec![checkpoint.clone()]);
        // both generations present lists the tenant exactly once
        store.write(&checkpoint);
        assert_eq!(store.load_all().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_failure_counts_and_keeps_the_old_snapshot() {
        let dir = scratch("writefail");
        let m = metrics();
        let store = CheckpointStore::open(&dir, Arc::clone(&m)).unwrap();
        let checkpoint = classic_checkpoint("t");
        store.write(&checkpoint);
        // occupy the temp path with a directory so the next write fails
        fs::create_dir_all(dir.join("checkpoints/t.json.tmp")).unwrap();
        let mut newer = checkpoint.clone();
        newer.wal_ack = 99;
        assert!(!store.write(&newer), "the write reports its failure");
        assert_eq!(m.checkpoint_errors.load(Ordering::Relaxed), 1);
        assert_eq!(
            store.load("t"),
            Some(checkpoint),
            "a failed write must not clobber the good snapshot"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_tenant_names_cannot_escape_the_store() {
        let dir = scratch("hostile");
        let store = CheckpointStore::open(&dir, metrics()).unwrap();
        let mut checkpoint = classic_checkpoint("../escape");
        checkpoint.tenant = "../escape".to_string();
        store.write(&checkpoint);
        assert!(dir.join("checkpoints/___escape-ed1965a3.json").is_file());
        assert!(!dir.parent().unwrap().join("escape.json").exists());
        assert_eq!(store.load("../escape"), Some(checkpoint));
        fs::remove_dir_all(&dir).unwrap();
    }
}
