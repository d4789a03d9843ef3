//! Order statistics: quartiles as Python's `statistics.quantiles` computes
//! them, a latency histogram exact below 64 µs, and the fold behind
//! `sim_fingerprint`.

/// `(q1, median, q3)` of `values`, matching Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones the acceptance driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range over the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

const EXACT: usize = 1 << 16;
const SUB_BITS: u32 = 6;

/// Histogram of virtual-nanosecond latencies: one bucket per value below
/// 65 536 ns (every fault and hit latency of the model lands there), then
/// 64 buckets per power of two (≤ 1.6 % wide) for queueing tails.
#[derive(Clone)]
pub struct LatHist {
    exact: Vec<u64>,
    coarse: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for LatHist {
    fn default() -> Self {
        Self {
            exact: vec![0; EXACT],
            coarse: vec![0; (64 - 16) << SUB_BITS],
            n: 0,
            sum: 0,
        }
    }
}

impl LatHist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.n += 1;
        self.sum += u128::from(v);
        if (v as usize) < EXACT {
            self.exact[v as usize] += 1;
        } else {
            let exp = 63 - v.leading_zeros();
            let sub = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
            self.coarse[(((exp - 16) << SUB_BITS) as u64 | sub) as usize] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean of the recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Lower edge of coarse bucket `i`.
    fn coarse_floor(i: usize) -> u64 {
        let exp = (i >> SUB_BITS) as u32 + 16;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        (1u64 << exp) | (sub << (exp - SUB_BITS))
    }

    /// The smallest recorded value `v` such that at least `q` of the
    /// samples are ≤ `v` (bucket floor above 65 µs); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (v, &c) in self.exact.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v as u64;
            }
        }
        for (i, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::coarse_floor(i);
            }
        }
        u64::MAX
    }

    /// The `n` largest recorded values with their counts, largest first.
    pub fn top(&self, n: usize) -> Vec<(u64, u64)> {
        let coarse = self.coarse.iter().enumerate().rev();
        let exact = self.exact.iter().enumerate().rev();
        coarse
            .map(|(i, &c)| (Self::coarse_floor(i), c))
            .chain(exact.map(|(v, &c)| (v as u64, c)))
            .filter(|&(_, c)| c != 0)
            .take(n)
            .collect()
    }

    /// Folds every non-empty bucket into `h` (for `sim_fingerprint`).
    pub fn fold_into(&self, mut h: u64) -> u64 {
        h = fold(fold(h, self.sum as u64), (self.sum >> 64) as u64);
        for (i, &c) in self.exact.iter().chain(self.coarse.iter()).enumerate() {
            if c != 0 {
                h = fold(fold(h, i as u64), c);
            }
        }
        h
    }
}

/// One step of the fingerprint fold (FNV-1a over the word's bytes).
pub fn fold(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FOLD_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn histogram_quantiles_are_exact_below_the_coarse_range() {
        let mut h = LatHist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 500);
        assert_eq!(h.quantile(0.99), 990);
        assert_eq!(h.quantile(0.999), 999);
        h.record(1 << 20);
        assert_eq!(h.quantile(1.0), 1 << 20);
        let mut big = LatHist::default();
        big.record(100_000);
        let got = big.quantile(0.5);
        assert!(got <= 100_000 && 100_000 - got < 100_000 / 60, "{got}");
    }
}
