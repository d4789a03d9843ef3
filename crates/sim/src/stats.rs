//! Measurement machinery: the latency histogram.
//!
//! Table 4 reports 99th/99.9th percentile request latencies; this module
//! provides the recorder the benches use to regenerate them.

use crate::time::Ns;

/// A log-bucketed latency histogram (HdrHistogram-style).
///
/// Buckets are `(exponent, 16 linear sub-buckets)`, giving ≤ ~6 % relative
/// error per recorded value — plenty for reproducing the paper's tail-latency
/// table.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: Ns,
    min: Ns,
    sum: u128,
}

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// 64 exponents × 16 sub-buckets covers the full `u64` range.
const BUCKETS: usize = 64 * SUB;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            min: Ns::MAX,
            sum: 0,
        }
    }

    fn index(v: Ns) -> usize {
        if v < SUB as Ns {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
        ((exp - SUB_BITS + 1) as usize) * SUB + sub
    }

    fn bucket_low(idx: usize) -> Ns {
        if idx < SUB {
            return idx as Ns;
        }
        let exp = (idx / SUB) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB) as Ns;
        (1 << exp) | (sub << (exp - SUB_BITS))
    }

    fn bucket_high(idx: usize) -> Ns {
        // The last addressable bucket starts at exponent 63; its successor's
        // low bound would need `1 << 64`, so it tops out at `Ns::MAX`.
        const TOP: usize = (64 - SUB_BITS as usize + 1) * SUB;
        if idx + 1 >= TOP {
            Ns::MAX
        } else {
            Self::bucket_low(idx + 1) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Ns) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
        self.sum += v as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples (`u128`: 2⁶⁴ samples of `Ns::MAX` each
    /// cannot overflow it).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples (zero when empty).
    pub fn mean(&self) -> Ns {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as Ns
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> Ns {
        self.max
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Ns {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Returns the value at quantile `q` in `[0, 1]` (zero when empty).
    ///
    /// The estimate interpolates linearly within the bucket containing the
    /// quantile rank: a bucket `[lo, hi]` holding `c` samples of which the
    /// rank is the `k`-th (1-based) yields `lo + (hi - lo) * (k - 1) / c`.
    /// The result is clamped to the recorded `[min, max]`, so `quantile(0)`
    /// is exactly the smallest sample and `quantile(1)` is within one
    /// intra-bucket step of the largest.
    pub fn quantile(&self, q: f64) -> Ns {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let lo = Self::bucket_low(i);
                let hi = Self::bucket_high(i).min(self.max);
                // 1-based position of the rank within this bucket.
                let k = rank - (seen - c);
                // u128 keeps `span * (k - 1)` exact for any Ns span and
                // bucket population.
                let span = (hi.saturating_sub(lo)) as u128;
                let est = lo + (span * (k - 1) as u128 / c as u128) as Ns;
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50) estimate.
    pub fn p50(&self) -> Ns {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Ns {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Ns {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> Ns {
        self.quantile(0.999)
    }

    /// Returns `(low, high, count)` for every occupied bucket, in value
    /// order, with inclusive bounds. This is the full distribution — the
    /// snapshot a JSON consumer needs to re-plot percentiles without the
    /// binary.
    pub fn nonzero_buckets(&self) -> Vec<(Ns, Ns, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), Self::bucket_high(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999);
        // ≤ ~6 % relative bucket error.
        assert!((4_600..=5_100).contains(&p50), "p50 {p50}");
        assert!((9_200..=10_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn histogram_handles_small_and_huge_values() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(3);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) <= u64::MAX / 2);
    }

    #[test]
    fn nonzero_buckets_cover_every_sample() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 3, 17, 1_000, 1_001, u64::MAX] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), h.count());
        for w in buckets.windows(2) {
            assert!(w[0].1 < w[1].0, "buckets must be disjoint and ordered");
        }
        for &(lo, hi, _) in &buckets {
            assert!(lo <= hi);
        }
        // Every recorded value falls inside some reported bucket.
        for v in [0u64, 3, 17, 1_000, 1_001, u64::MAX] {
            assert!(
                buckets.iter().any(|&(lo, hi, _)| lo <= v && v <= hi),
                "value {v} not covered"
            );
        }
        // The top bucket's high bound saturates instead of overflowing.
        assert_eq!(buckets.last().map(|&(_, hi, _)| hi), Some(u64::MAX));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // 256 samples spanning exactly one bucket: [4864, 5119] (exponent
        // 12, sub-bucket 3). Interpolation should walk the bucket linearly
        // instead of pinning every quantile to the bucket's low bound.
        let mut h = LatencyHistogram::new();
        for v in 4_864..=5_119u64 {
            h.record(v);
        }
        // rank k maps to lo + span * (k - 1) / count.
        assert_eq!(h.quantile(0.0), 4_864);
        assert_eq!(h.p50(), 4_864 + 255 * 127 / 256); // k = 128
        assert_eq!(h.quantile(1.0), 4_864 + 255 * 255 / 256);
        assert!(h.p50() > h.quantile(0.25));
        assert!(h.p90() > h.p50());
    }

    #[test]
    fn quantile_accessors_are_ordered_and_clamped() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= h.max());
        assert!(p50 >= h.min());
        // Interpolated estimates sit within ~7 % of the exact order
        // statistics for a uniform ramp.
        assert!((470..=530).contains(&p50), "p50 {p50}");
        assert!((850..=950).contains(&p90), "p90 {p90}");
        assert!((940..=1_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn quantile_single_sample_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(7_777);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 7_777);
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
    }
}
