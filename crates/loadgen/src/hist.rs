//! HDR-style log-bucketed latency histograms.
//!
//! Latency distributions — not averages — are the signal a load harness
//! must record: an ingest path that acks most frames in 50 µs but parks a
//! p999 tail behind a WAL flush looks *identical* on a mean. The classic
//! answer is an HDR histogram: bucket bounds spaced geometrically, with a
//! fixed number of linear sub-buckets per power of two, so the relative
//! error of any recorded value is bounded (here ≤ 1/32 ≈ 3.1 %) while the
//! whole `[0, u64::MAX]` nanosecond range fits in a few kilobytes.
//!
//! This is a from-scratch zero-dependency implementation of that layout:
//! values below `SUB` (32) are exact; above, the index is the value's octave
//! (position of its highest set bit) concatenated with its top
//! `SUB_BITS` (5) mantissa bits. Buckets are plain `u64`s — recording
//! threads own private histograms and [`LogHistogram::merge`] combines
//! them at the end of a run, so the hot path is one shift, one subtract,
//! and one increment with no atomics.

/// Linear sub-bucket bits per octave: 32 sub-buckets, ≤ 3.1 % error.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total buckets covering all 64 octaves of a `u64`.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Index of the bucket containing `v` (nanoseconds).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    ((octave - SUB_BITS + 1) as usize * SUB as usize) + ((v >> shift) - SUB) as usize
}

/// The largest value mapping into bucket `idx` (inclusive upper bound).
fn bucket_high(idx: usize) -> u64 {
    if (idx as u64) < SUB {
        return idx as u64;
    }
    let block = idx / SUB as usize; // >= 1
    let sub = (idx % SUB as usize) as u64;
    let shift = (block - 1) as u32;
    // the topmost bucket's bound is 2^64, which only fits in u128
    let high = (u128::from(SUB + sub + 1) << shift) - 1;
    u64::try_from(high).unwrap_or(u64::MAX)
}

/// A mergeable log-bucketed histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Record one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one (per-thread → run total).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded values, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.count)) as u64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds: the upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q * count)`,
    /// capped at the recorded maximum so `quantile(1.0) == max_ns`.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_contiguous_and_monotonic() {
        // every bucket's high bound maps back into that bucket, and the
        // bounds strictly increase — no gaps, no overlaps
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let high = bucket_high(idx);
            assert_eq!(bucket_index(high), idx, "high bound of {idx}");
            if let Some(p) = prev {
                assert!(high > p, "bounds must increase at {idx}");
                assert_eq!(bucket_index(p + 1), idx, "gap below {idx}");
            }
            prev = Some(high);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.1), 0);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.max_ns(), 9);
        assert_eq!(h.mean_ns(), 4);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in [1_234_567u64, 9_999_999, 777_777_777, 42] {
            h.record(v);
            let q = h.quantile(1.0) as f64;
            assert!(
                q <= h.max_ns() as f64 && q >= h.max_ns() as f64 / (1.0 + 1.0 / 32.0) - 1.0,
                "quantile {q} vs max {}",
                h.max_ns()
            );
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = LogHistogram::new();
        for i in 0..1000u64 {
            h.record(i * 1000); // 0 .. 999 µs
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((450_000..=550_000).contains(&p50), "p50 {p50}");
        assert!((950_000..=1_030_000).contains(&p99), "p99 {p99}");
        assert!(p999 >= p99, "p999 {p999} < p99 {p99}");
        assert_eq!(h.quantile(1.0), 999_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..100u64 {
            let v = i * 31 + 7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_ns(), whole.max_ns());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }
}
