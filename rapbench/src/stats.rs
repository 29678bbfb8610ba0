//! Order statistics, the compare verdict rule and input fingerprints.

use crate::spec::Better;

/// The `q`-quantile of `samples` by nearest rank: the smallest sample
/// with at least `q` of the samples at or below it. 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile:
/// a tail percentile is reported only where this is at least ten.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The median (mean of the middle pair for an even count). 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the default "exclusive"
/// method), so spreads here match the ones an external checker computes.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (sorted[0], sorted[0]),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; 0 for a zero median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// How two sets of runs of one (workload, metric) pair compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The signed relative change from `a` to `b`, positive when `b` is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge runs `b` (the change) against runs `a` (the parent) under the
/// regression `bound`, a share of `a`'s median:
///
/// * when either side's quartile spread exceeds the bound, the pair is
///   unresolved unless every run of one side beats every run of the
///   other;
/// * otherwise `b` regressed when its median is worse by more than the
///   bound, and improved when it is better by more than both the bound
///   and `a`'s own spread.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let spread_a = spread(a);
    if spread_a.max(spread(b)) > bound {
        return if all_b_better {
            Verdict::Improved
        } else if all_b_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let worse = worsening(median(a), median(b), better);
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound.max(spread_a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly ten beyond it; of 999, nine
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(67, 0.85), 10);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.9, 99.1, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // for a higher-is-better metric the same numbers flip
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // a 5 % move inside a 10 % bound is no verdict either way
        let nudged = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(
            verdict(&parent, &nudged, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_separated() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let overlapping = [70.0, 110.0, 150.0, 90.0, 130.0];
        assert_eq!(
            verdict(&noisy, &overlapping, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // wide spread, but every change run beats every parent run
        let separated = [10.0, 20.0, 30.0, 15.0, 25.0];
        assert_eq!(
            verdict(&noisy, &separated, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&separated, &noisy, Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
