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

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use mdkpi::{AttrId, ElementId, LeafFrame, Schema};

use crate::proto::{parse_request, ProtoError, Request, RowSink};
use crate::sync::lock_recover;

/// Wire rows as they arrive: positional element names plus a value.
pub(crate) type WireRows = Vec<(Vec<String>, f64)>;

/// An observe frame's rows as admission receives them: each element name
/// resolved against the tenant's schema as [`crate::proto::read_request`]
/// read it, so a row is its element ids plus its value. A name the schema
/// does not know keeps only its attribute and the raw name, for the drift
/// registry.
#[derive(Debug)]
pub(crate) struct IdRows<'a> {
    schema: Schema,
    /// The observe line, read again for a quarantine record.
    line: &'a str,
    /// `schema.num_attributes()` ids per row; a drifted row's are padding.
    ids: Vec<ElementId>,
    values: Vec<f64>,
    /// Each row holding a name the schema does not know, in row order:
    /// the row, and its first unknown name with that name's attribute.
    drifted: Vec<(usize, AttrId, Cow<'a, str>)>,
    /// The element count of the first row whose count differs from the
    /// schema's attribute count.
    arity: Option<usize>,
    /// The first unknown name of the row being read.
    unknown: Option<(AttrId, Cow<'a, str>)>,
}

impl<'a> IdRows<'a> {
    /// Empty rows of `line`, to be resolved against `schema`.
    pub fn new(schema: Schema, line: &'a str) -> Self {
        IdRows {
            schema,
            line,
            ids: Vec::new(),
            values: Vec::new(),
            drifted: Vec::new(),
            arity: None,
            unknown: None,
        }
    }

    /// The rows exactly as received, read again from the line: what a
    /// quarantine record keeps.
    fn received(&self) -> WireRows {
        match parse_request(self.line, usize::MAX) {
            Ok(Request::Observe { rows, .. }) => rows,
            _ => WireRows::new(),
        }
    }
}

impl<'a> RowSink<'a> for IdRows<'a> {
    fn name(&mut self, index: usize, name: Cow<'a, str>) {
        if index >= self.schema.num_attributes() || self.unknown.is_some() {
            return;
        }
        let attr = AttrId(index as u16);
        match self.schema.attribute(attr).element(&name) {
            Some(id) => self.ids.push(id),
            None => self.unknown = Some((attr, name)),
        }
    }

    fn row(&mut self, names: usize, value: f64) {
        let width = self.schema.num_attributes();
        let row = self.values.len();
        if names != width {
            self.arity.get_or_insert(names);
        }
        if let Some((attr, name)) = self.unknown.take() {
            self.drifted.push((row, attr, name));
        }
        // pads a drifted or short row, whose ids nothing reads
        self.ids.resize((row + 1) * width, ElementId(0));
        self.values.push(value);
    }
}

/// What admission decided about one frame.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// The frame (possibly repaired) is safe for the shard pipelines.
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
#[derive(Debug)]
pub(crate) struct Admitted {
    schema: Schema,
    /// Sanitized rows, `schema.num_attributes()` element ids each:
    /// drifted rows stripped, duplicates collapsed, negatives clamped.
    ids: Vec<ElementId>,
    values: Vec<f64>,
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

    /// Each row's element ids and value.
    fn rows(&self) -> impl Iterator<Item = (&[ElementId], f64)> {
        let width = self.schema.num_attributes();
        self.ids
            .chunks_exact(width)
            .zip(self.values.iter().copied())
    }

    /// Each row's element names, the schema's own, and value: what the
    /// WAL journals.
    pub fn named_rows(&self) -> impl Iterator<Item = (impl Iterator<Item = &str>, f64)> {
        self.rows().map(|(leaf, value)| {
            let names = leaf
                .iter()
                .enumerate()
                .map(|(attr, &id)| self.schema.attribute(AttrId(attr as u16)).element_name(id));
            (names, value)
        })
    }

    /// The frame the shard pipelines take: the ids copied, no name looked
    /// up again.
    pub fn frame(&self) -> LeafFrame {
        let mut builder = LeafFrame::builder(&self.schema);
        for (leaf, value) in self.rows() {
            builder.push(leaf, value, 0.0);
        }
        builder.build()
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

    /// Judge one frame's rows, read against the tenant's schema.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Arity`] when a row's element count differs from the
    /// schema's attribute count — a protocol error, not dirty data, so
    /// the frame must not count as ingested.
    pub fn admit(&self, tenant: &str, rows: IdRows<'_>) -> Result<Verdict, ProtoError> {
        let width = rows.schema.num_attributes();
        if let Some(got) = rows.arity {
            return Err(ProtoError::Arity {
                expected: width,
                got,
            });
        }
        if let Some(row) = rows.values.iter().position(|value| !value.is_finite()) {
            let received = rows.received();
            let names = received
                .get(row)
                .map_or_else(String::new, |(names, _)| names.join(", "));
            let detail = format!("leaf ({names}) value {} is not finite", rows.values[row]);
            return Ok(Verdict::Quarantine {
                reason: "non_finite",
                detail,
                rows: received,
            });
        }

        // Schema drift: strip rows with known-drifted values; a new
        // unknown value beyond the allowance quarantines the untouched
        // frame. Only a row's first unknown value is judged.
        let mut keep = vec![true; rows.values.len()];
        let mut repaired_drift = 0u64;
        if !rows.drifted.is_empty() {
            let mut drifted = lock_recover(&self.drifted);
            let registry = drifted.entry(tenant.to_string()).or_default();
            for (row, attr, name) in &rows.drifted {
                let key = (
                    rows.schema.attribute(*attr).name().to_string(),
                    name.to_string(),
                );
                if !registry.contains(&key) {
                    if registry.len() >= self.drift_limit {
                        let detail = format!(
                            "unknown {}=\"{}\" exceeds the drift allowance of {}",
                            key.0, key.1, self.drift_limit
                        );
                        drop(drifted);
                        return Ok(Verdict::Quarantine {
                            reason: "schema_drift",
                            detail,
                            rows: rows.received(),
                        });
                    }
                    registry.insert(key);
                }
                repaired_drift += 1;
                keep[*row] = false;
            }
        }
        if !keep.is_empty() && !keep.contains(&true) {
            return Ok(Verdict::Quarantine {
                reason: "schema_drift",
                detail: "every row referenced unknown attribute values".to_string(),
                rows: rows.received(),
            });
        }

        // Duplicate leaves: keep the last value at the first occurrence's
        // position, so row order stays stable for downstream comparison.
        let IdRows {
            schema,
            mut ids,
            mut values,
            ..
        } = rows;
        let mut repaired_duplicate = 0u64;
        let mut first: HashMap<&[ElementId], usize> = HashMap::with_capacity(values.len());
        for (row, leaf) in ids.chunks_exact(width).enumerate() {
            if !keep[row] {
                continue;
            }
            match first.entry(leaf) {
                Entry::Occupied(at) => {
                    values[*at.get()] = values[row];
                    keep[row] = false;
                    repaired_duplicate += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(row);
                }
            }
        }
        drop(first);
        let mut kept = 0;
        for row in 0..values.len() {
            if keep[row] {
                if kept != row {
                    ids.copy_within(row * width..(row + 1) * width, kept * width);
                    values[kept] = values[row];
                }
                kept += 1;
            }
        }
        ids.truncate(kept * width);
        values.truncate(kept);

        let mut repaired_negative = 0u64;
        for value in &mut values {
            if *value < 0.0 {
                *value = 0.0;
                repaired_negative += 1;
            }
        }

        Ok(Verdict::Admit(Admitted {
            schema,
            ids,
            values,
            repaired_duplicate,
            repaired_negative,
            repaired_drift,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::proto::read_request;

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

    /// An observe line of `rows` for `tenant`; NaN and the infinities
    /// render as `null`.
    fn observe_line(tenant: &str, rows: &[(Vec<String>, f64)]) -> String {
        let rows = rows
            .iter()
            .map(|(names, value)| {
                Json::Arr(vec![
                    Json::Arr(names.iter().map(Json::str).collect()),
                    Json::Num(*value),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("type".to_string(), Json::str("observe")),
            ("tenant".to_string(), Json::str(tenant)),
            ("rows".to_string(), Json::Arr(rows)),
        ])
        .render()
    }

    /// Admit `rows` as the observe path does: an observe line, read into
    /// id rows. JSON cannot carry an infinity, so an infinite value is set
    /// on the id row after the read.
    fn admit_for(
        ac: &AdmissionControl,
        tenant: &str,
        s: &Schema,
        rows: &[(Vec<String>, f64)],
    ) -> Result<Verdict, ProtoError> {
        let line = observe_line(tenant, rows);
        let Ok(Request::Observe { rows: mut read, .. }) =
            read_request(&line, usize::MAX, |_| IdRows::new(s.clone(), &line))
        else {
            panic!("not an observe line: {line}");
        };
        for (slot, (_, value)) in read.values.iter_mut().zip(rows) {
            if value.is_infinite() {
                *slot = *value;
            }
        }
        ac.admit(tenant, read)
    }

    fn admit(ac: &AdmissionControl, rows: &[(Vec<String>, f64)]) -> Verdict {
        admit_for(ac, "t", &schema(), rows).expect("no protocol error")
    }

    /// An admitted frame's rows by name.
    fn named(a: &Admitted) -> Vec<(Vec<String>, f64)> {
        a.named_rows()
            .map(|(names, value)| (names.map(str::to_string).collect(), value))
            .collect()
    }

    #[test]
    fn clean_rows_pass_through_unchanged() {
        let ac = AdmissionControl::new(8);
        let rows = vec![row("L1", "I1", 10.0), row("L2", "I2", 20.0)];
        match admit(&ac, &rows) {
            Verdict::Admit(a) => {
                assert_eq!(named(&a), rows);
                assert!(!a.repaired());
            }
            other => panic!("clean frame must be admitted: {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_a_protocol_error_not_a_quarantine() {
        let ac = AdmissionControl::new(8);
        let rows = vec![(vec!["L1".to_string()], 1.0)];
        let err = admit_for(&ac, "t", &schema(), &rows).unwrap_err();
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
                assert_eq!(named(&a)[0].1, 0.0);
                assert_eq!(named(&a)[1].1, 7.0);
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
                assert_eq!(named(&a), vec![row("L1", "I1", 4.0), row("L2", "I2", 2.0)]);
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
                assert_eq!(named(&a), vec![row("L1", "I1", 1.0)]);
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
                assert_eq!(named(&a), vec![row("L2", "I2", 5.0)]);
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
            admit_for(&ac, "a", &s, &[row("L9", "I1", 1.0), row("L1", "I1", 2.0)]),
            Ok(Verdict::Admit(_))
        ));
        // tenant "b" has its own empty registry with its own allowance
        assert!(matches!(
            admit_for(&ac, "b", &s, &[row("L8", "I1", 1.0), row("L1", "I1", 2.0)]),
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
                assert_eq!(named(&a), vec![row("L1", "I1", 0.0), row("L2", "I2", 6.0)]);
                assert_eq!(a.repaired_drift, 1);
                assert_eq!(a.repaired_duplicate, 1);
                assert_eq!(a.repaired_negative, 1, "only the surviving value clamps");
                assert!(a.repaired());
            }
            other => panic!("composite frame must be admitted: {other:?}"),
        }
    }
}
