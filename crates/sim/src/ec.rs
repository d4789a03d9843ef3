//! Reed–Solomon erasure coding over GF(256).
//!
//! The DiLOS paper points at "erasure-coding-based replication \[Carbink\]"
//! as the candidate fault-tolerance mechanism (§5.1) and cites Hydra and
//! Carbink for using it to cut replication's memory overhead (§7). This
//! module implements the coder those systems rely on: `k` data shards plus
//! `m` parity shards, any `k` of the `k + m` suffice to reconstruct.
//!
//! The code is systematic Cauchy Reed–Solomon: parity row `j` uses the
//! Cauchy coefficients `1 / (x_j ⊕ y_i)` over GF(256). Every square
//! submatrix of a Cauchy matrix is invertible, so the code is MDS for
//! *every* erasure pattern of at most `m` shards — the property the
//! identity-stacked Vandermonde construction famously lacks.
//! Reconstruction solves the surviving rows by Gauss–Jordan elimination.

/// GF(256) arithmetic with the Reed–Solomon polynomial `x⁸+x⁴+x³+x²+1`
/// (0x11D), under which α = 2 is primitive — the field every classic RS
/// deployment (CCSDS, RAID-6, par2) uses.
struct Gf256 {
    exp: [u8; 512],
    log: [u8; 256],
}

/// The field's log/antilog tables, built once, at compile time.
static GF: Gf256 = Gf256::new();

impl Gf256 {
    /// Builds the log/antilog tables.
    const fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        let mut i = 0;
        while i < 255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11D;
            }
            i += 1;
        }
        while i < 512 {
            exp[i] = exp[i - 255];
            i += 1;
        }
        Self { exp, log }
    }

    /// Multiplication in GF(256).
    fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero (no inverse exists).
    fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse in GF(256)");
        self.exp[255 - self.log[a as usize] as usize]
    }
}

/// A systematic Reed–Solomon coder: `k` data shards, `m` parity shards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReedSolomon {
    /// Data shards.
    pub(crate) k: usize,
    /// Parity shards.
    pub(crate) m: usize,
}

/// Erasure-coding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EcError {
    /// Fewer than `k` shards survive: the data is unrecoverable.
    TooFewShards,
    /// Shard lengths disagree.
    ShardSizeMismatch,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::TooFewShards => write!(f, "fewer than k shards survive"),
            EcError::ShardSizeMismatch => write!(f, "shard sizes disagree"),
        }
    }
}

impl ReedSolomon {
    /// Creates a coder for `k` data + `m` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k`, `1 ≤ m`, and `k + m ≤ 256` (the Cauchy
    /// construction needs `k + m` distinct field elements).
    pub(crate) fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1 && k + m <= 256, "invalid RS geometry");
        Self { k, m }
    }

    /// Cauchy coefficient of data shard `i` in parity row `j`:
    /// `1 / (x_j ⊕ y_i)` with `x_j = k + j` and `y_i = i` (all distinct).
    fn coeff(self, j: usize, i: usize) -> u8 {
        GF.inv(((self.k + j) as u8) ^ (i as u8))
    }

    /// Applies a data delta to a parity buffer in place:
    /// `parity ⊕= coeff(j, lane) · delta`.
    pub(crate) fn apply_delta(self, j: usize, lane: usize, delta: &[u8], parity: &mut [u8]) {
        let c = self.coeff(j, lane);
        for (p, &d) in parity.iter_mut().zip(delta) {
            *p ^= GF.mul(c, d);
        }
    }

    /// Computes the `m` parity shards for `data` (each shard same length).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or shard lengths differ.
    pub(crate) fn encode(self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected k data shards");
        let len = data[0].len();
        assert!(data.iter().all(|d| d.len() == len), "shard sizes differ");
        let mut parity = vec![vec![0u8; len]; self.m];
        for (j, p) in parity.iter_mut().enumerate() {
            for (i, d) in data.iter().enumerate() {
                let c = self.coeff(j, i);
                for (pb, &db) in p.iter_mut().zip(*d) {
                    *pb ^= GF.mul(c, db);
                }
            }
        }
        parity
    }

    /// Reconstructs the missing shards in place.
    ///
    /// `shards` holds `k + m` entries (data first, then parity); `None`
    /// marks an erasure. On success every entry is `Some` and the data
    /// shards carry their original contents.
    #[expect(clippy::needless_range_loop, reason = "the indices are the math")]
    pub(crate) fn reconstruct(self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        assert_eq!(shards.len(), self.k + self.m, "expected k+m shards");
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(EcError::TooFewShards);
        }
        let mut present_shards = present.iter().filter_map(|&i| shards[i].as_deref());
        let Some(len) = present_shards.next().map(<[u8]>::len) else {
            return Err(EcError::TooFewShards);
        };
        if present_shards.any(|s| s.len() != len) {
            return Err(EcError::ShardSizeMismatch);
        }
        let missing_data: Vec<usize> = (0..self.k).filter(|&i| shards[i].is_none()).collect();
        if !missing_data.is_empty() {
            // Build the generalized system: each surviving row (identity for
            // data, Cauchy for parity) gives one equation over the k
            // data shards. Take the first k surviving rows and invert.
            let rows: Vec<usize> = present.iter().take(self.k).copied().collect();
            let mut matrix = vec![vec![0u8; self.k]; self.k];
            let mut rhs: Vec<&[u8]> = Vec::with_capacity(self.k);
            for (r, &row) in rows.iter().enumerate() {
                if row < self.k {
                    matrix[r][row] = 1;
                } else {
                    for i in 0..self.k {
                        matrix[r][i] = self.coeff(row - self.k, i);
                    }
                }
                let Some(s) = shards[row].as_deref() else {
                    return Err(EcError::TooFewShards);
                };
                rhs.push(s);
            }
            let inverse = self.invert(matrix)?;
            // data_i = Σ_r inverse[i][r] · rhs[r].
            let mut rebuilt: Vec<Vec<u8>> = Vec::new();
            for &i in &missing_data {
                let mut out = vec![0u8; len];
                for (r, rv) in rhs.iter().enumerate() {
                    let c = inverse[i][r];
                    for (ob, &sb) in out.iter_mut().zip(*rv) {
                        *ob ^= GF.mul(c, sb);
                    }
                }
                rebuilt.push(out);
            }
            for (&i, out) in missing_data.iter().zip(rebuilt) {
                shards[i] = Some(out);
            }
        }
        // Recompute any missing parity from the (now complete) data.
        if (self.k..self.k + self.m).any(|i| shards[i].is_none()) {
            // Every data shard is `Some` after the rebuild above; collect
            // fallibly all the same so a logic slip surfaces as an error.
            let data: Vec<&[u8]> = shards[..self.k]
                .iter()
                .filter_map(|s| s.as_deref())
                .collect();
            if data.len() < self.k {
                return Err(EcError::TooFewShards);
            }
            let parity = self.encode(&data);
            for (j, p) in parity.into_iter().enumerate() {
                if shards[self.k + j].is_none() {
                    shards[self.k + j] = Some(p);
                }
            }
        }
        Ok(())
    }

    /// Gauss–Jordan inversion over GF(256).
    fn invert(self, mut a: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, EcError> {
        let n = a.len();
        let mut inv: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
            .collect();
        for col in 0..n {
            // Pivot.
            let pivot = (col..n)
                .find(|&r| a[r][col] != 0)
                .ok_or(EcError::TooFewShards)?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let d = GF.inv(a[col][col]);
            for j in 0..n {
                a[col][j] = GF.mul(a[col][j], d);
                inv[col][j] = GF.mul(inv[col][j], d);
            }
            for r in 0..n {
                if r == col || a[r][col] == 0 {
                    continue;
                }
                let f = a[r][col];
                for j in 0..n {
                    let av = GF.mul(f, a[col][j]);
                    a[r][j] ^= av;
                    let iv = GF.mul(f, inv[col][j]);
                    inv[r][j] ^= iv;
                }
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn gf_field_axioms_hold() {
        let gf = Gf256::new();
        let mut rng = SplitMix64::new(1);
        for _ in 0..2_000 {
            let a = rng.next_u64() as u8;
            let b = rng.next_u64() as u8;
            let c = rng.next_u64() as u8;
            assert_eq!(gf.mul(a, b), gf.mul(b, a));
            assert_eq!(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c));
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
            if a != 0 {
                assert_eq!(gf.mul(a, gf.inv(a)), 1, "a = {a}");
            }
        }
    }

    fn shards(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect()
    }

    #[test]
    fn xor_parity_recovers_one_loss() {
        let rs = ReedSolomon::new(3, 1);
        let data = shards(3, 64, 7);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs);
        for lost in 0..4 {
            let mut all: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            all[lost] = None;
            rs.reconstruct(&mut all).expect("one loss is recoverable");
            for (i, d) in data.iter().enumerate() {
                assert_eq!(all[i].as_ref().expect("present"), d, "lost {lost}");
            }
        }
    }

    #[test]
    fn rs_recovers_any_m_losses() {
        for (k, m) in [(2usize, 2usize), (4, 2), (5, 3)] {
            let rs = ReedSolomon::new(k, m);
            let data = shards(k, 48, (k * 10 + m) as u64);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = rs.encode(&refs);
            // Erase every combination of m shards (small spaces only).
            let total = k + m;
            for mask in 0u32..(1 << total) {
                if mask.count_ones() as usize != m {
                    continue;
                }
                let mut all: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                for (i, slot) in all.iter_mut().enumerate().take(total) {
                    if mask & (1 << i) != 0 {
                        *slot = None;
                    }
                }
                rs.reconstruct(&mut all)
                    .unwrap_or_else(|e| panic!("k={k} m={m} mask={mask:b}: {e}"));
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(all[i].as_ref().expect("present"), d, "mask {mask:b}");
                }
            }
        }
    }

    #[test]
    fn too_many_losses_are_rejected() {
        let rs = ReedSolomon::new(3, 1);
        let data = shards(3, 16, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs);
        let mut all: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        all[0] = None;
        all[2] = None;
        assert_eq!(rs.reconstruct(&mut all), Err(EcError::TooFewShards));
    }

    #[test]
    fn encode_is_linear() {
        // Parity of (A ⊕ B) equals parity(A) ⊕ parity(B): the code is a
        // linear map, which is what lets delta-updates work.
        let rs = ReedSolomon::new(4, 2);
        let a = shards(4, 32, 9);
        let b = shards(4, 32, 10);
        let xor: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let enc = |d: &[Vec<u8>]| {
            let refs: Vec<&[u8]> = d.iter().map(|v| v.as_slice()).collect();
            rs.encode(&refs)
        };
        let (pa, pb, px) = (enc(&a), enc(&b), enc(&xor));
        for j in 0..2 {
            for i in 0..32 {
                assert_eq!(px[j][i], pa[j][i] ^ pb[j][i]);
            }
        }
    }
}
