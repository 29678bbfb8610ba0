//! The quarantine spool: where rejected telemetry goes to be examined,
//! not lost.
//!
//! Frames the admission layer or the watermark reorder buffer refuses are
//! written as checksummed JSONL to a per-tenant segment under
//! `<spool_dir>/quarantine/` and retained in a bounded in-memory ring that
//! the `quarantine` control verb serves. The spool is a [`SegmentLog`]
//! (see [`crate::segment`]): a tenant's segment is repaired when this
//! process first appends to it, rotates to `.jsonl.1` past
//! `--spool-max-bytes`, and a write failure latches the sink into
//! ring-only mode (`rapd_quarantine_degraded` gauge,
//! `rapd_quarantine_write_errors_total` counter) instead of failing the
//! ingest path. The ring and the per-reason counters are the sink's own.
//!
//! Quarantine records produced by the reorder buffer (`late`, `replay`)
//! carry no rows: by that point the frame has been resolved to internal
//! element ids, so the record preserves provenance (tenant, timestamp,
//! reason) rather than payload.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::segment::{frame, sanitize_tenant, LogSpec, SegmentLog};
use crate::sync::lock_recover;

/// One quarantined frame, as served by the `quarantine` control verb and
/// spooled to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The tenant whose frame was refused.
    pub tenant: String,
    /// Correlation token minted for the frame at the observe verb; the
    /// same token appears on the frame's spans and (for admitted twins) on
    /// incident records, so one grep reconstructs its whole life. `None`
    /// for records produced outside the observe path.
    pub frame_id: Option<String>,
    /// The frame's event timestamp (milliseconds), when it carried one.
    pub ts: Option<u64>,
    /// Why it was refused (a `rapd_frames_quarantined_total` reason:
    /// `non_finite`, `schema_drift`, `late`, or `replay`).
    pub reason: &'static str,
    /// Human-oriented explanation.
    pub detail: String,
    /// The offending wire rows; empty for reorder-buffer rejects (`late`,
    /// `replay`), whose payload is already resolved to internal ids.
    pub rows: Vec<(Vec<String>, f64)>,
}

impl QuarantineRecord {
    /// The JSON form shared by spool lines and control-socket replies.
    /// NaN row values render as JSON `null`, mirroring the wire encoding.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|(names, value)| {
                Json::Arr(vec![
                    Json::Arr(names.iter().map(Json::str).collect()),
                    Json::Num(*value),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("tenant".to_string(), Json::str(&self.tenant)),
            (
                "frame".to_string(),
                match &self.frame_id {
                    None => Json::Null,
                    Some(id) => Json::str(id),
                },
            ),
            (
                "ts".to_string(),
                match self.ts {
                    None => Json::Null,
                    Some(t) => Json::Num(t as f64),
                },
            ),
            ("reason".to_string(), Json::str(self.reason)),
            ("detail".to_string(), Json::str(&self.detail)),
            ("rows".to_string(), Json::Arr(rows)),
        ])
    }
}

/// Where refused frames go: per-tenant checksummed JSONL spools plus a
/// bounded in-memory ring.
#[derive(Debug)]
pub(crate) struct QuarantineSink {
    /// `<spool_dir>/quarantine`; `None` keeps records ring-only.
    spool: Option<SegmentLog>,
    ring: Mutex<VecDeque<QuarantineRecord>>,
    ring_capacity: usize,
    metrics: Arc<Metrics>,
}

impl QuarantineSink {
    /// Open the sink. When `spool_dir` is given, `<spool_dir>/quarantine`
    /// is created; per-tenant segments open lazily on first use. A
    /// tenant's segment rotates once it exceeds `max_bytes` (`0`
    /// disables rotation).
    ///
    /// # Errors
    ///
    /// Fails when the quarantine directory cannot be created.
    pub fn open(
        spool_dir: Option<&std::path::Path>,
        ring_capacity: usize,
        max_bytes: u64,
        metrics: Arc<Metrics>,
    ) -> io::Result<Self> {
        let spec = LogSpec {
            target: "rapd.quarantine",
            degraded_event: "quarantine_degraded",
            failpoint: "quarantine-write-error",
            errors: |m| &m.quarantine_write_errors,
            degraded: |m| &m.quarantine_degraded,
            rotate: Some((max_bytes, |m| &m.spool_rotations.quarantine)),
            fsync: false,
        };
        let spool = spool_dir
            .map(|base| SegmentLog::open(base.join("quarantine"), spec, Arc::clone(&metrics)))
            .transpose()?;
        Ok(QuarantineSink {
            spool,
            ring: Mutex::new(VecDeque::new()),
            ring_capacity: ring_capacity.max(1),
            metrics,
        })
    }

    /// Record one refused frame: bump the reason's
    /// `rapd_frames_quarantined_total` counter, append the checksummed
    /// spool line, and push to the ring (evicting the oldest when full).
    /// Infallible: a write failure degrades the sink to ring-only.
    pub fn record(&self, record: QuarantineRecord) {
        for (label, counter) in self.metrics.frames_quarantined.named() {
            if label == record.reason {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        obs::warn(
            "rapd.quarantine",
            "frame_quarantined",
            &[
                ("tenant", obs::Value::Str(record.tenant.clone())),
                ("reason", obs::Value::Str(record.reason.to_string())),
                ("detail", obs::Value::Str(record.detail.clone())),
            ],
        );
        if let Some(log) = &self.spool {
            log.append(
                &sanitize_tenant(&record.tenant),
                &frame(record.to_json().render()),
            );
        }
        let mut ring = lock_recover(&self.ring);
        if ring.len() == self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The most recent records, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<QuarantineRecord> {
        let ring = lock_recover(&self.ring);
        ring.iter().rev().take(limit).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{unframe, LineVerdict};
    use std::fs;
    use std::path::PathBuf;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    fn ring_len(sink: &QuarantineSink) -> usize {
        lock_recover(&sink.ring).len()
    }

    fn record(tenant: &str, reason: &'static str, ts: Option<u64>) -> QuarantineRecord {
        QuarantineRecord {
            tenant: tenant.to_string(),
            frame_id: None,
            ts,
            reason,
            detail: format!("test {reason}"),
            rows: vec![(vec!["L1".to_string(), "I1".to_string()], f64::NAN)],
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-quar-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_only_sink_counts_and_bounds() {
        let m = metrics();
        let sink = QuarantineSink::open(None, 3, 0, Arc::clone(&m)).unwrap();
        for i in 0..5 {
            sink.record(record("t", "non_finite", Some(i)));
        }
        sink.record(record("t", "late", None));
        assert_eq!(ring_len(&sink), 3);
        let recent = sink.recent(2);
        assert_eq!(recent[0].reason, "late");
        assert_eq!(recent[1].ts, Some(4));
        assert_eq!(
            m.frames_quarantined.non_finite.load(Ordering::Relaxed),
            5,
            "record() itself owns the counters"
        );
        assert_eq!(m.frames_quarantined.late.load(Ordering::Relaxed), 1);
        assert_eq!(
            m.quarantine_degraded.load(Ordering::Relaxed),
            0,
            "no spool, nothing to degrade"
        );
    }

    #[test]
    fn spooled_records_are_checksummed_per_tenant() {
        let dir = scratch("spool");
        let sink = QuarantineSink::open(Some(&dir), 8, 0, metrics()).unwrap();
        sink.record(record("edge-1", "non_finite", Some(7)));
        sink.record(record("edge-1", "schema_drift", None));
        sink.record(record("other", "replay", Some(9)));
        let a = fs::read_to_string(dir.join("quarantine/edge-1.jsonl")).unwrap();
        assert_eq!(a.lines().count(), 2);
        for line in a.lines() {
            assert_eq!(unframe(line).0, LineVerdict::Verified);
        }
        // NaN row values render as JSON null, like the wire encoding
        let (json, _) = a.lines().next().unwrap().rsplit_once('\t').unwrap();
        let doc = crate::json::parse(json).unwrap();
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("non_finite"));
        assert_eq!(doc.get("ts").unwrap().as_u64(), Some(7));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[1], Json::Null);
        let b = fs::read_to_string(dir.join("quarantine/other.jsonl")).unwrap();
        assert_eq!(b.lines().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_tenant_names_cannot_escape_the_directory() {
        assert_eq!(
            sanitize_tenant("../../etc/passwd"),
            "______etc_passwd-df406b03"
        );
        assert_eq!(sanitize_tenant("ok-Tenant_9"), "ok-Tenant_9");
        assert_eq!(sanitize_tenant(""), "_-00000000");
        let dir = scratch("hostile");
        let sink = QuarantineSink::open(Some(&dir), 8, 0, metrics()).unwrap();
        sink.record(record("../escape", "late", None));
        assert!(dir.join("quarantine/___escape-ed1965a3.jsonl").is_file());
        assert!(!dir.parent().unwrap().join("escape.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_lossy_tenant_names_get_distinct_stems() {
        // Without the hash suffix both would collapse to "a_b" — one WAL
        // segment and one checkpoint path shared by two tenants.
        let a = sanitize_tenant("a.b");
        let b = sanitize_tenant("a:b");
        assert_ne!(a, b);
        assert!(a.starts_with("a_b-") && b.starts_with("a_b-"));
        // a lossy stem never shadows the identical already-safe name
        assert_ne!(a, sanitize_tenant("a_b"));
        // idempotent: feeding a stem back through is the identity
        for stem in [a, b, sanitize_tenant(""), sanitize_tenant("safe")] {
            assert_eq!(sanitize_tenant(&stem), stem);
        }
    }

    #[test]
    fn oversized_tenant_spool_rotates_per_tenant() {
        let dir = scratch("rotate");
        let m = metrics();
        // a cap small enough that every record overflows it
        let sink = QuarantineSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(record("noisy", "non_finite", Some(1)));
        let rotated = dir.join("quarantine/noisy.jsonl.1");
        assert!(rotated.is_file(), "first overflow rotates");
        assert_eq!(m.spool_rotations.quarantine.load(Ordering::Relaxed), 1);
        sink.record(record("noisy", "non_finite", Some(2)));
        // ts 1's segment is evicted; ts 2 now holds the .1 slot
        let kept = fs::read_to_string(&rotated).unwrap();
        assert!(kept.contains("\"ts\":2") && !kept.contains("\"ts\":1"));
        assert_eq!(m.spool_rotations.quarantine.load(Ordering::Relaxed), 2);
        // rotation is per tenant: noisy's churn never moves quiet's spool
        sink.record(record("quiet", "late", None));
        let quiet = fs::read_to_string(dir.join("quarantine/quiet.jsonl.1"))
            .or_else(|_| fs::read_to_string(dir.join("quarantine/quiet.jsonl")))
            .unwrap();
        assert!(quiet.contains("\"late\""));
        assert!(!kept.contains("quiet"), "segments never mix tenants");
        assert_eq!(m.quarantine_degraded.load(Ordering::Relaxed), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_before_the_first_append() {
        let dir = scratch("torn");
        {
            let sink = QuarantineSink::open(Some(&dir), 8, 0, metrics()).unwrap();
            sink.record(record("t", "late", Some(1)));
        }
        // a crash mid-write leaves half a record and no newline
        let path = dir.join("quarantine/t.jsonl");
        let intact = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{intact}{{\"tenant\":\"t\",\"fra")).unwrap();
        let sink = QuarantineSink::open(Some(&dir), 8, 0, metrics()).unwrap();
        sink.record(record("t", "late", Some(2)));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&intact), "the intact prefix survives");
        assert_eq!(text.lines().count(), 2, "the fragment is gone");
        assert!(text.lines().all(|l| unframe(l).0 == LineVerdict::Verified));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_failure_degrades_to_ring_only() {
        let dir = scratch("degraded");
        let m = metrics();
        let sink = QuarantineSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        // occupy the tenant's spool path with a *directory* so the lazy
        // open fails — a stand-in for a full or vanished volume
        fs::create_dir_all(dir.join("quarantine/t.jsonl")).unwrap();
        sink.record(record("t", "non_finite", None));
        assert_eq!(m.quarantine_write_errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.quarantine_degraded.load(Ordering::Relaxed), 1);
        // later records still land in the ring and keep counting
        sink.record(record("t", "late", None));
        assert_eq!(ring_len(&sink), 2);
        assert_eq!(m.frames_quarantined.late.load(Ordering::Relaxed), 1);
        assert_eq!(
            m.quarantine_write_errors.load(Ordering::Relaxed),
            1,
            "degraded sink stops touching the disk"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
