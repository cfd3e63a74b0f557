//! Exact latency samples and the percentiles taken from them.

/// Latencies below this many nanoseconds are counted per nanosecond; longer
/// ones are kept one by one. Either way every sample is exact.
const DENSE_NS: usize = 1 << 18;

/// Exact latency samples of one op class, in nanoseconds. Memory is fixed
/// up front (plus one entry per sample of 262 µs or more), so a long run
/// needs no per-op buffer.
pub struct Samples {
    dense: Vec<u32>,
    slow: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Samples {
    /// Allocates and touches the counters, so that recording faults in no
    /// pages and a later RSS reading already includes them.
    pub fn new() -> Self {
        let mut dense = vec![0; DENSE_NS];
        dense.fill(std::hint::black_box(0));
        Samples {
            dense,
            slow: Vec::with_capacity(4096),
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.count += 1;
        self.sum += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    pub fn merge(&mut self, other: &Samples) {
        for (a, b) in self.dense.iter_mut().zip(&other.dense) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The nearest-rank `p`-quantile (`0 < p ≤ 1`), or `None` without
    /// samples.
    pub fn quantile(&mut self, p: f64) -> Option<u64> {
        let rank = nearest_rank(self.count, p)?;
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        self.slow.sort_unstable();
        Some(self.slow[(rank - seen - 1) as usize])
    }
}

/// The 1-based nearest rank of quantile `p` among `n` samples.
fn nearest_rank(n: u64, p: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    Some(((p * n as f64).ceil() as u64).clamp(1, n))
}

/// Quantiles a report may name, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The highest quantile of [`TAIL_LADDER`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported_quantile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| nearest_rank(n, p).is_some_and(|r| n - r >= 10))
}

/// A quantile's label: `0.999` → `"p99.9"`.
pub fn quantile_label(p: f64) -> String {
    let pct = format!("{:.3}", p * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

/// Median by averaging the two middle values, as Python's
/// `statistics.median` takes it.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn quantiles_are_nearest_rank_and_exact() {
        let values: Vec<u64> = (1..=100).collect();
        let mut s = filled(&values);
        assert_eq!(s.quantile(0.5), Some(50));
        assert_eq!(s.quantile(0.99), Some(99));
        assert_eq!(s.quantile(1.0), Some(100));
        assert_eq!(s.quantile(0.001), Some(1));
        assert_eq!(Samples::new().quantile(0.5), None);
    }

    #[test]
    fn slow_samples_keep_their_exact_values() {
        let big = DENSE_NS as u64;
        let mut s = filled(&[5, big + 7, big * 3, 9]);
        assert_eq!(s.quantile(0.5), Some(9));
        assert_eq!(s.quantile(0.75), Some(big + 7));
        assert_eq!(s.quantile(1.0), Some(big * 3));
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum_ns(), u128::from(5 + big + 7 + big * 3 + 9));
        let mut merged = filled(&[1]);
        merged.merge(&s);
        assert_eq!(merged.quantile(1.0), Some(big * 3));
        assert_eq!(merged.quantile(0.2), Some(1));
    }

    #[test]
    fn the_reported_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(10), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(99), Some(0.5));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        assert_eq!(highest_supported_quantile(999), Some(0.9));
        assert_eq!(highest_supported_quantile(1000), Some(0.99));
        assert_eq!(highest_supported_quantile(10_000), Some(0.999));
        assert_eq!(highest_supported_quantile(1_000_000), Some(0.99999));
        assert_eq!(highest_supported_quantile(u64::MAX / 2), Some(0.99999));
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.5), "p50");
        assert_eq!(quantile_label(0.99999), "p99.999");
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
