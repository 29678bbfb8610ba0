//! Admission control: the validation gate between frame decode and the
//! shard pipelines.
//!
//! Telemetry from real CDN collectors is dirty: exporters emit NaN (wire
//! form: JSON `null`) for missing counters, double-report leaves, send
//! negative rates after counter resets, and ship attribute values that
//! were never registered in the tenant's schema. This module decides, per
//! observe frame, whether to *repair* (clamp, dedup, strip) or
//! *quarantine* (divert the whole frame to the quarantine spool) — the
//! shard pipelines only ever see clean frames.
//!
//! Verdict rules, in evaluation order:
//!
//! 1. **Row arity mismatch** → protocol error ([`ProtoError::Arity`]).
//!    The sender is broken, not the data; the frame does not count as
//!    ingested.
//! 2. **Any non-finite value** → quarantine the whole frame
//!    (`non_finite`). Admitting the finite remainder would skew the
//!    tenant's per-leaf history against the clean-stream baseline.
//! 3. **Unknown attribute values** (schema drift): each distinct
//!    `(attribute, value)` pair lands in the tenant's drift set. While
//!    the set stays within the configured allowance
//!    ([`ServiceConfig::schema_drift_limit`]) the offending rows are
//!    stripped and counted as `schema_drift` repairs. Once the allowance
//!    is exhausted, frames carrying *new* unknown values are quarantined
//!    whole — the tenant's schema has genuinely moved and silently eating
//!    rows would hide it. A frame whose every row drifted is quarantined
//!    too: an empty frame teaches the pipeline nothing.
//! 4. **Duplicate leaves** (identical element vectors) collapse keep-last
//!    at the first occurrence's position (`duplicate` repairs). The
//!    pipeline sums duplicate leaves into a phantom volume spike, so the
//!    dedup must happen here, before the frame is built.
//! 5. **Negative values** clamp to zero (`negative` repairs): volume
//!    KPIs are non-negative; a negative reading is a counter reset.
//!
//! The ordering is load-bearing: non-finite wins over drift so a junk
//! frame never pollutes the drift registry, and dedup precedes the clamp
//! so a repair is only counted for the surviving value.
//!
//! [`ServiceConfig::schema_drift_limit`]: crate::ServiceConfig::schema_drift_limit

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use mdkpi::{ElementId, Schema};

use crate::proto::ProtoError;
use crate::sync::lock_recover;

/// Wire rows as they arrive: positional element names plus a value.
pub(crate) type WireRows = Vec<(Vec<String>, f64)>;

/// What admission decided about one frame.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// The frame (possibly repaired) is safe for
    /// [`crate::proto::build_frame`].
    Admit(Admitted),
    /// Divert the whole frame to the quarantine spool.
    Quarantine {
        /// Reason label (a `rapd_frames_quarantined_total` reason).
        reason: &'static str,
        /// Human-oriented explanation for the quarantine record.
        detail: String,
        /// The frame's rows exactly as they arrived.
        rows: WireRows,
    },
}

/// An admitted frame and the repairs applied on the way in.
#[derive(Debug, Default)]
pub(crate) struct Admitted {
    /// Sanitized rows: drifted rows stripped, duplicates collapsed,
    /// negatives clamped. Every element name resolves in the schema.
    pub rows: WireRows,
    /// Extra occurrences of duplicated leaves collapsed keep-last.
    pub repaired_duplicate: u64,
    /// Negative values clamped to zero.
    pub repaired_negative: u64,
    /// Rows stripped because an attribute value was unknown but within
    /// the drift allowance.
    pub repaired_drift: u64,
}

impl Admitted {
    /// Whether any repair was applied.
    pub fn repaired(&self) -> bool {
        self.repaired_duplicate + self.repaired_negative + self.repaired_drift > 0
    }
}

/// Per-tenant admission state: the schema-drift registries.
#[derive(Debug)]
pub(crate) struct AdmissionControl {
    drift_limit: usize,
    /// Tenant → distinct unknown `(attribute, value)` pairs seen so far.
    drifted: Mutex<HashMap<String, HashSet<(String, String)>>>,
}

impl AdmissionControl {
    /// Create with the per-tenant drift allowance
    /// (`--schema-drift-limit`; `0` quarantines on the first unknown
    /// value).
    pub fn new(drift_limit: usize) -> Self {
        AdmissionControl {
            drift_limit,
            drifted: Mutex::new(HashMap::new()),
        }
    }

    /// Distinct unknown attribute values registered for a tenant.
    #[cfg(test)]
    pub fn drift_len(&self, tenant: &str) -> usize {
        lock_recover(&self.drifted)
            .get(tenant)
            .map_or(0, HashSet::len)
    }

    /// Judge one frame's rows against the tenant's schema.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Arity`] when a row's element count differs from the
    /// schema's attribute count — a protocol error, not dirty data, so
    /// the frame must not count as ingested.
    pub fn admit(
        &self,
        tenant: &str,
        schema: &Schema,
        mut rows: WireRows,
    ) -> Result<Verdict, ProtoError> {
        let num_attrs = schema.num_attributes();
        for (names, _) in &rows {
            if names.len() != num_attrs {
                return Err(ProtoError::Arity {
                    expected: num_attrs,
                    got: names.len(),
                });
            }
        }
        if let Some((names, value)) = rows.iter().find(|(_, value)| !value.is_finite()) {
            let detail = format!("leaf ({}) value {value} is not finite", names.join(", "));
            return Ok(Verdict::Quarantine {
                reason: "non_finite",
                detail,
                rows,
            });
        }

        // Schema drift, in one read-only pass that resolves every name
        // once: strip rows with known-drifted values; a new unknown value
        // beyond the allowance quarantines the untouched frame. Only a
        // row's first unknown value is judged.
        let mut keep = vec![true; rows.len()];
        let mut ids: Vec<ElementId> = Vec::with_capacity(rows.len() * num_attrs);
        let mut repaired_drift = 0u64;
        let mut drifted = None;
        for (row, (names, _)) in rows.iter().enumerate() {
            let start = ids.len();
            for (attr_id, name) in schema.attr_ids().zip(names) {
                let attr = schema.attribute(attr_id);
                if let Some(id) = attr.element(name) {
                    ids.push(id);
                    continue;
                }
                let registry = drifted
                    .get_or_insert_with(|| lock_recover(&self.drifted))
                    .entry(tenant.to_string())
                    .or_default();
                let key = (attr.name().to_string(), name.clone());
                if !registry.contains(&key) {
                    if registry.len() >= self.drift_limit {
                        let detail = format!(
                            "unknown {}=\"{}\" exceeds the drift allowance of {}",
                            key.0, key.1, self.drift_limit
                        );
                        return Ok(Verdict::Quarantine {
                            reason: "schema_drift",
                            detail,
                            rows,
                        });
                    }
                    registry.insert(key);
                }
                repaired_drift += 1;
                ids.truncate(start);
                keep[row] = false;
                break;
            }
        }
        drop(drifted);
        if !rows.is_empty() && !keep.contains(&true) {
            return Ok(Verdict::Quarantine {
                reason: "schema_drift",
                detail: "every row referenced unknown attribute values".to_string(),
                rows,
            });
        }

        // Duplicate leaves, keyed on the resolved ids: keep the last value
        // at the first occurrence's position, so row order stays stable
        // for downstream comparison.
        let mut leaves = ids.chunks_exact(num_attrs);
        let mut first: HashMap<&[ElementId], usize> = HashMap::with_capacity(rows.len());
        let mut repaired_duplicate = 0u64;
        for row in 0..rows.len() {
            if !keep[row] {
                continue;
            }
            let Some(leaf) = leaves.next() else { break };
            if let Some(&at) = first.get(leaf) {
                rows[at].1 = rows[row].1;
                keep[row] = false;
                repaired_duplicate += 1;
            } else {
                first.insert(leaf, row);
            }
        }
        let mut keep = keep.into_iter();
        rows.retain(|_| keep.next() == Some(true));

        let mut repaired_negative = 0u64;
        for (_, value) in &mut rows {
            if *value < 0.0 {
                *value = 0.0;
                repaired_negative += 1;
            }
        }

        Ok(Verdict::Admit(Admitted {
            rows,
            repaired_duplicate,
            repaired_negative,
            repaired_drift,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("location", ["L1", "L2"])
            .attribute("isp", ["I1", "I2"])
            .build()
            .unwrap()
    }

    fn row(l: &str, i: &str, v: f64) -> (Vec<String>, f64) {
        (vec![l.to_string(), i.to_string()], v)
    }

    fn admit(ac: &AdmissionControl, rows: &[(Vec<String>, f64)]) -> Verdict {
        ac.admit("t", &schema(), rows.to_vec())
            .expect("no protocol error")
    }

    #[test]
    fn clean_rows_pass_through_unchanged() {
        let ac = AdmissionControl::new(8);
        let rows = vec![row("L1", "I1", 10.0), row("L2", "I2", 20.0)];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows, rows);
                assert!(!a.repaired());
            }
            other => panic!("clean frame must be admitted: {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_a_protocol_error_not_a_quarantine() {
        let ac = AdmissionControl::new(8);
        let rows = vec![(vec!["L1".to_string()], 1.0)];
        let err = ac.admit("t", &schema(), rows).unwrap_err();
        assert_eq!(
            err,
            ProtoError::Arity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn non_finite_value_quarantines_the_whole_frame() {
        let ac = AdmissionControl::new(8);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![row("L1", "I1", 5.0), row("L2", "I2", bad)];
            match admit(&ac, &rows) {
                Verdict::Quarantine { reason, detail, .. } => {
                    assert_eq!(reason, "non_finite");
                    assert!(detail.contains("L2"), "detail names the leaf: {detail}");
                }
                other => panic!("{bad} must quarantine: {other:?}"),
            }
        }
        // and it never polluted the drift registry
        assert_eq!(ac.drift_len("t"), 0);
    }

    #[test]
    fn negative_values_clamp_to_zero_and_count() {
        let ac = AdmissionControl::new(8);
        let rows = vec![row("L1", "I1", -3.0), row("L2", "I2", 7.0)];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows[0].1, 0.0);
                assert_eq!(a.rows[1].1, 7.0);
                assert_eq!(a.repaired_negative, 1);
                assert_eq!(a.repaired_duplicate + a.repaired_drift, 0);
            }
            other => panic!("negative value must be repaired: {other:?}"),
        }
    }

    #[test]
    fn duplicate_leaves_collapse_keep_last_at_first_position() {
        let ac = AdmissionControl::new(8);
        let rows = vec![
            row("L1", "I1", 1.0),
            row("L2", "I2", 2.0),
            row("L1", "I1", 9.0),
            row("L1", "I1", 4.0),
        ];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows, vec![row("L1", "I1", 4.0), row("L2", "I2", 2.0)]);
                assert_eq!(a.repaired_duplicate, 2, "one repair per extra occurrence");
            }
            other => panic!("duplicates must be repaired: {other:?}"),
        }
    }

    #[test]
    fn drifted_rows_are_stripped_within_the_allowance() {
        let ac = AdmissionControl::new(2);
        let rows = vec![
            row("L1", "I1", 1.0),
            row("L9", "I1", 2.0), // unknown location
            row("L1", "I9", 3.0), // unknown isp
        ];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows, vec![row("L1", "I1", 1.0)]);
                assert_eq!(a.repaired_drift, 2);
            }
            other => panic!("drift within allowance must repair: {other:?}"),
        }
        assert_eq!(ac.drift_len("t"), 2);
        // the same unknown values keep being stripped without growing the
        // registry, even with a now-full allowance
        let rows = vec![row("L9", "I1", 4.0), row("L2", "I2", 5.0)];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows, vec![row("L2", "I2", 5.0)]);
                assert_eq!(a.repaired_drift, 1);
            }
            other => panic!("registered drift must keep repairing: {other:?}"),
        }
        assert_eq!(ac.drift_len("t"), 2);
    }

    #[test]
    fn drift_beyond_the_allowance_quarantines() {
        let ac = AdmissionControl::new(1);
        match admit(&ac, &[row("L9", "I1", 1.0), row("L1", "I1", 2.0)]) {
            Verdict::Admit(a) => assert_eq!(a.repaired_drift, 1),
            other => panic!("first unknown fits the allowance: {other:?}"),
        }
        match admit(&ac, &[row("L8", "I1", 1.0), row("L1", "I1", 2.0)]) {
            Verdict::Quarantine { reason, detail, .. } => {
                assert_eq!(reason, "schema_drift");
                assert!(detail.contains("L8"), "detail names the value: {detail}");
            }
            other => panic!("second distinct unknown must quarantine: {other:?}"),
        }
    }

    #[test]
    fn quarantine_carries_the_rows_as_they_arrived() {
        let ac = AdmissionControl::new(0);
        let rows = vec![
            row("L1", "I1", -1.0),
            row("L1", "I1", 2.0),
            row("L9", "I1", 3.0),
        ];
        match admit(&ac, &rows) {
            Verdict::Quarantine {
                reason, rows: kept, ..
            } => {
                assert_eq!(reason, "schema_drift");
                assert_eq!(kept, rows, "no repair touches a quarantined frame");
            }
            other => panic!("unknown value must quarantine: {other:?}"),
        }
        let rows = vec![row("L1", "I1", -1.0), row("L2", "I2", f64::NAN)];
        match admit(&ac, &rows) {
            Verdict::Quarantine { rows: kept, .. } => {
                assert_eq!(kept.len(), 2);
                assert_eq!(kept[0], rows[0]);
                assert!(kept[1].1.is_nan());
            }
            other => panic!("NaN must quarantine: {other:?}"),
        }
    }

    #[test]
    fn zero_drift_limit_quarantines_the_first_unknown() {
        let ac = AdmissionControl::new(0);
        match admit(&ac, &[row("L9", "I1", 1.0)]) {
            Verdict::Quarantine { reason, .. } => assert_eq!(reason, "schema_drift"),
            other => panic!("zero tolerance must quarantine: {other:?}"),
        }
    }

    #[test]
    fn fully_drifted_frame_is_quarantined_not_admitted_empty() {
        let ac = AdmissionControl::new(8);
        match admit(&ac, &[row("L9", "I1", 1.0), row("L8", "I2", 2.0)]) {
            Verdict::Quarantine { reason, .. } => assert_eq!(reason, "schema_drift"),
            other => panic!("all-drifted frame must quarantine: {other:?}"),
        }
    }

    #[test]
    fn drift_registries_are_per_tenant() {
        let ac = AdmissionControl::new(1);
        let s = schema();
        assert!(matches!(
            ac.admit("a", &s, vec![row("L9", "I1", 1.0), row("L1", "I1", 2.0)]),
            Ok(Verdict::Admit(_))
        ));
        // tenant "b" has its own empty registry with its own allowance
        assert!(matches!(
            ac.admit("b", &s, vec![row("L8", "I1", 1.0), row("L1", "I1", 2.0)]),
            Ok(Verdict::Admit(_))
        ));
        assert_eq!(ac.drift_len("a"), 1);
        assert_eq!(ac.drift_len("b"), 1);
        assert_eq!(ac.drift_len("absent"), 0);
    }

    #[test]
    fn repairs_compose_in_one_frame() {
        let ac = AdmissionControl::new(8);
        let rows = vec![
            row("L1", "I1", -2.0),
            row("L9", "I1", 5.0),  // stripped (drift)
            row("L1", "I1", -4.0), // keep-last duplicate, then clamped
            row("L2", "I2", 6.0),
        ];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(a.rows, vec![row("L1", "I1", 0.0), row("L2", "I2", 6.0)]);
                assert_eq!(a.repaired_drift, 1);
                assert_eq!(a.repaired_duplicate, 1);
                assert_eq!(a.repaired_negative, 1, "only the surviving value clamps");
                assert!(a.repaired());
            }
            other => panic!("composite frame must be admitted: {other:?}"),
        }
    }
}
