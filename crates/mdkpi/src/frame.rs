use std::fmt;

use crate::attr::{AttrId, ElementId, Schema};
use crate::combo::Combination;
use crate::{Error, Result};

/// The table of most-fine-grained attribute combinations at one timestamp:
/// per-row elements (one per attribute), actual value `v`, forecast value
/// `f`, and optionally an anomaly label.
///
/// This is the paper's Table III plus the per-leaf anomaly-detection result
/// that RAPMiner consumes (`[[a1, b1, c1, d1, anomalous], …]` in
/// Algorithm 1's input).
///
/// Rows are stored row-major, so matching a [`Combination`] against a row is
/// a contiguous slice comparison.
///
/// # Example
///
/// ```
/// use mdkpi::{Schema, LeafFrame};
///
/// # fn main() -> Result<(), mdkpi::Error> {
/// let schema = Schema::builder()
///     .attribute("a", ["a1", "a2"])
///     .attribute("b", ["b1", "b2"])
///     .build()?;
/// let mut builder = LeafFrame::builder(&schema);
/// builder.push_named(&[("a", "a1"), ("b", "b1")], 10.0, 5.0)?;
/// builder.push_named(&[("a", "a2"), ("b", "b2")], 23.0, 20.5)?;
/// let mut frame = builder.build();
/// frame.label_with(|v, f| (v - f).abs() / f.max(1e-9) > 0.5);
/// assert_eq!(frame.num_rows(), 2);
/// assert_eq!(frame.num_anomalous(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct LeafFrame {
    schema: Schema,
    /// Row-major element ids; stride = number of attributes.
    elements: Vec<ElementId>,
    v: Vec<f64>,
    f: Vec<f64>,
    labels: Option<Vec<bool>>,
}

impl LeafFrame {
    /// Start building a frame for the given schema.
    pub fn builder(schema: &Schema) -> LeafFrameBuilder {
        LeafFrameBuilder {
            frame: LeafFrame {
                schema: schema.clone(),
                elements: Vec::new(),
                v: Vec::new(),
                f: Vec::new(),
                labels: None,
            },
            labels: Vec::new(),
            any_label: false,
        }
    }

    /// The frame's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of leaf rows.
    pub fn num_rows(&self) -> usize {
        self.v.len()
    }

    /// Whether the frame has zero rows.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The element ids of row `i`, in schema attribute order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row_elements(&self, i: usize) -> &[ElementId] {
        let n = self.schema.num_attributes();
        &self.elements[i * n..(i + 1) * n]
    }

    /// The actual KPI value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn v(&self, i: usize) -> f64 {
        self.v[i]
    }

    /// The forecast KPI value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn f(&self, i: usize) -> f64 {
        self.f[i]
    }

    /// All actual values, row order.
    pub fn v_slice(&self) -> &[f64] {
        &self.v
    }

    /// All forecast values, row order.
    pub fn f_slice(&self) -> &[f64] {
        &self.f
    }

    /// The anomaly label of row `i`, if labels have been attached.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn label(&self, i: usize) -> Option<bool> {
        self.labels.as_ref().map(|l| l[i])
    }

    /// All labels, if attached.
    pub fn labels(&self) -> Option<&[bool]> {
        self.labels.as_deref()
    }

    /// Attach anomaly labels (one per row).
    ///
    /// # Errors
    ///
    /// Returns [`Error::RowOutOfBounds`] if `labels.len()` differs from the
    /// row count.
    pub fn set_labels(&mut self, labels: Vec<bool>) -> Result<()> {
        if labels.len() != self.num_rows() {
            return Err(Error::RowOutOfBounds {
                row: labels.len(),
                len: self.num_rows(),
            });
        }
        self.labels = Some(labels);
        Ok(())
    }

    /// Label every row with a detector over `(v, f)`.
    pub fn label_with<D: FnMut(f64, f64) -> bool>(&mut self, mut detector: D) {
        let labels = self
            .v
            .iter()
            .zip(&self.f)
            .map(|(&v, &f)| detector(v, f))
            .collect();
        self.labels = Some(labels);
    }

    /// Number of rows labelled anomalous (0 when unlabelled).
    pub fn num_anomalous(&self) -> usize {
        self.labels
            .as_ref()
            .map_or(0, |l| l.iter().filter(|&&b| b).count())
    }

    /// Materialize row `i` as a [`Combination`] (always a leaf).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn combination(&self, i: usize) -> Combination {
        Combination::leaf(&self.schema, self.row_elements(i))
    }

    /// Iterate over row views.
    pub fn iter(&self) -> impl Iterator<Item = LeafRow<'_>> + '_ {
        (0..self.num_rows()).map(move |i| LeafRow {
            frame: self,
            row: i,
        })
    }

    /// Row indexes whose elements are covered by `combination` (linear scan;
    /// prefer [`crate::LeafIndex`] for repeated queries).
    pub fn rows_matching(&self, combination: &Combination) -> Vec<usize> {
        (0..self.num_rows())
            .filter(|&i| combination.matches_leaf(self.row_elements(i)))
            .collect()
    }

    /// Sum of `v` over all rows.
    pub fn total_v(&self) -> f64 {
        self.v.iter().sum()
    }

    /// Sum of `f` over all rows.
    pub fn total_f(&self) -> f64 {
        self.f.iter().sum()
    }
}

impl fmt::Debug for LeafFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeafFrame")
            .field("rows", &self.num_rows())
            .field("attributes", &self.schema.num_attributes())
            .field("labelled", &self.labels.is_some())
            .field("anomalous", &self.num_anomalous())
            .finish()
    }
}

/// A borrowed view of one row of a [`LeafFrame`].
#[derive(Clone, Copy)]
pub struct LeafRow<'a> {
    frame: &'a LeafFrame,
    row: usize,
}

impl<'a> LeafRow<'a> {
    /// Row index within the frame.
    pub fn index(&self) -> usize {
        self.row
    }

    /// Element ids in schema order.
    pub fn elements(&self) -> &'a [ElementId] {
        self.frame.row_elements(self.row)
    }

    /// Actual value.
    pub fn v(&self) -> f64 {
        self.frame.v(self.row)
    }

    /// Forecast value.
    pub fn f(&self) -> f64 {
        self.frame.f(self.row)
    }

    /// Anomaly label, if the frame is labelled.
    pub fn label(&self) -> Option<bool> {
        self.frame.label(self.row)
    }
}

impl fmt::Debug for LeafRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeafRow")
            .field("index", &self.row)
            .field("v", &self.v())
            .field("f", &self.f())
            .field("label", &self.label())
            .finish()
    }
}

/// Builder for [`LeafFrame`], created by [`LeafFrame::builder`].
#[derive(Debug)]
pub struct LeafFrameBuilder {
    frame: LeafFrame,
    labels: Vec<bool>,
    any_label: bool,
}

impl LeafFrameBuilder {
    /// Append one leaf row from raw element ids (schema order).
    ///
    /// # Panics
    ///
    /// Panics if `elements.len()` differs from the schema's attribute count
    /// or an element id is out of range for its attribute.
    pub fn push(&mut self, elements: &[ElementId], v: f64, f: f64) -> &mut Self {
        let schema = &self.frame.schema;
        assert_eq!(
            elements.len(),
            schema.num_attributes(),
            "row arity mismatch"
        );
        for (i, e) in elements.iter().enumerate() {
            assert!(
                e.index() < schema.attribute(AttrId(i as u16)).len(),
                "element {e} out of range for attribute {i}"
            );
        }
        self.frame.elements.extend_from_slice(elements);
        self.frame.v.push(v);
        self.frame.f.push(f);
        self.labels.push(false);
        self
    }

    /// Append one row with an anomaly label.
    ///
    /// # Panics
    ///
    /// Same as [`LeafFrameBuilder::push`].
    pub fn push_labelled(
        &mut self,
        elements: &[ElementId],
        v: f64,
        f: f64,
        anomalous: bool,
    ) -> &mut Self {
        self.push(elements, v, f);
        *self.labels.last_mut().expect("just pushed") = anomalous;
        self.any_label = true;
        self
    }

    /// Append one row resolving `(attribute, element)` names.
    ///
    /// # Errors
    ///
    /// Fails when a name does not resolve or an attribute is missing or
    /// duplicated.
    pub fn push_named(&mut self, pairs: &[(&str, &str)], v: f64, f: f64) -> Result<&mut Self> {
        let schema = &self.frame.schema;
        let mut elems: Vec<Option<ElementId>> = vec![None; schema.num_attributes()];
        for (attr, elem) in pairs {
            let (a, e) = schema.resolve(attr, elem)?;
            if elems[a.index()].replace(e).is_some() {
                return Err(Error::ParseCombination {
                    input: format!("{pairs:?}"),
                    reason: format!("attribute `{attr}` appears twice"),
                });
            }
        }
        let full: Vec<ElementId> = elems
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                e.ok_or_else(|| Error::ParseCombination {
                    input: format!("{pairs:?}"),
                    reason: format!(
                        "leaf row missing attribute `{}`",
                        schema.attribute(AttrId(i as u16)).name()
                    ),
                })
            })
            .collect::<Result<_>>()?;
        self.push(&full, v, f);
        Ok(self)
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.frame.num_rows()
    }

    /// Whether no rows were appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish the frame. Labels are attached only if at least one row was
    /// pushed via [`LeafFrameBuilder::push_labelled`].
    pub fn build(mut self) -> LeafFrame {
        if self.any_label {
            self.frame.labels = Some(self.labels);
        }
        self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", ["a1", "a2"])
            .attribute("b", ["b1", "b2", "b3"])
            .build()
            .unwrap()
    }

    fn sample() -> LeafFrame {
        let s = schema();
        let mut b = LeafFrame::builder(&s);
        for (ai, bi, v, f) in [
            (0u32, 0u32, 10.0, 5.0),
            (0, 1, 8.0, 8.2),
            (0, 2, 4.0, 2.0),
            (1, 0, 7.0, 7.1),
            (1, 1, 3.0, 3.0),
        ] {
            b.push(&[ElementId(ai), ElementId(bi)], v, f);
        }
        b.build()
    }

    #[test]
    fn builder_and_accessors() {
        let f = sample();
        assert_eq!(f.num_rows(), 5);
        assert_eq!(f.v(0), 10.0);
        assert_eq!(f.f(1), 8.2);
        assert_eq!(f.row_elements(2), &[ElementId(0), ElementId(2)]);
        assert!(f.labels().is_none());
        assert_eq!(f.num_anomalous(), 0);
        assert!((f.total_v() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn label_with_detector() {
        let mut f = sample();
        f.label_with(|v, fc| (v - fc).abs() / fc.max(1e-9) > 0.5);
        // rows 0 (10 vs 5) and 2 (4 vs 2) deviate by 100%
        assert_eq!(f.labels().unwrap(), &[true, false, true, false, false]);
        assert_eq!(f.num_anomalous(), 2);
    }

    #[test]
    fn set_labels_validates_length() {
        let mut f = sample();
        assert!(matches!(
            f.set_labels(vec![true; 3]),
            Err(Error::RowOutOfBounds { .. })
        ));
        f.set_labels(vec![false, true, false, false, true]).unwrap();
        assert_eq!(f.num_anomalous(), 2);
    }

    #[test]
    fn push_named_resolves_and_validates() {
        let s = schema();
        let mut b = LeafFrame::builder(&s);
        b.push_named(&[("b", "b3"), ("a", "a2")], 1.0, 2.0).unwrap();
        let err = b.push_named(&[("a", "a1")], 1.0, 2.0).unwrap_err();
        assert!(matches!(err, Error::ParseCombination { .. }));
        let err = b
            .push_named(&[("a", "a1"), ("a", "a2"), ("b", "b1")], 1.0, 2.0)
            .unwrap_err();
        assert!(matches!(err, Error::ParseCombination { .. }));
        let f = b.build();
        assert_eq!(f.combination(0).to_string(), "(a2, b3)");
    }

    #[test]
    fn push_labelled_attaches_labels() {
        let s = schema();
        let mut b = LeafFrame::builder(&s);
        b.push_labelled(&[ElementId(0), ElementId(0)], 1.0, 1.0, true);
        b.push_labelled(&[ElementId(1), ElementId(1)], 1.0, 1.0, false);
        let f = b.build();
        assert_eq!(f.labels().unwrap(), &[true, false]);
    }

    #[test]
    fn rows_matching_combination() {
        let f = sample();
        let c = f.schema().parse_combination("a=a1").unwrap();
        assert_eq!(f.rows_matching(&c), vec![0, 1, 2]);
        let c = f.schema().parse_combination("b=b1").unwrap();
        assert_eq!(f.rows_matching(&c), vec![0, 3]);
        let root = Combination::root(f.schema());
        assert_eq!(f.rows_matching(&root).len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_bad_element() {
        let s = schema();
        let mut b = LeafFrame::builder(&s);
        b.push(&[ElementId(5), ElementId(0)], 1.0, 1.0);
    }

    #[test]
    fn iter_rows() {
        let f = sample();
        let vs: Vec<f64> = f.iter().map(|r| r.v()).collect();
        assert_eq!(vs, vec![10.0, 8.0, 4.0, 7.0, 3.0]);
        let r = f.iter().nth(2).unwrap();
        assert_eq!(r.index(), 2);
        assert!(r.label().is_none());
    }

    #[test]
    fn debug_is_informative() {
        let f = sample();
        let dbg = format!("{f:?}");
        assert!(dbg.contains("rows: 5"));
    }
}
