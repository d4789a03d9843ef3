//! The liveness vector: which byte ranges of one heap page are live.
//!
//! Guided paging (§4.4) reads a page's allocation bitmap on every eviction
//! and logs at most a handful of `(offset, len)` ranges covering the live
//! blocks; the later write-back and refault move only those ranges. The
//! vector is tiny and short-lived, so it is an inline, fixed-capacity `Copy`
//! value ([`LiveVector`]) from the bitmap to the RDMA verb — never a heap
//! allocation — and [`live_vector`] produces it in one pass over the
//! bitmap's live runs.

use std::fmt;
use std::ops::Deref;

use crate::bitmap::PageBitmap;
use crate::PAGE_SIZE;

// Offsets and lengths within a page are carried as `u16`.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

/// Up to [`LiveVector::CAPACITY`] `(offset, len)` byte ranges of one page,
/// stored inline. Dereferences to the slice of ranges pushed so far.
#[derive(Clone, Copy, Default)]
pub struct LiveVector {
    len: u8,
    segs: [(u16, u16); Self::CAPACITY],
}

impl LiveVector {
    /// The most ranges a vector holds. The paper's guide uses three
    /// (vectored RDMA slows down beyond that, §6.3); the ablation that shows
    /// the slow-down sweeps the cap up to twelve, the widest any caller asks
    /// for, and fifty bytes are still cheap to copy.
    pub const CAPACITY: usize = 12;

    /// An empty vector: no live range, nothing to transfer.
    pub const fn new() -> Self {
        Self {
            len: 0,
            segs: [(0, 0); Self::CAPACITY],
        }
    }

    /// Appends the range `len` bytes at `offset`. Returns `false`, leaving
    /// the vector unchanged, when it is already at capacity.
    pub fn push(&mut self, offset: u16, len: u16) -> bool {
        let Some(slot) = self.segs.get_mut(usize::from(self.len)) else {
            return false;
        };
        *slot = (offset, len);
        self.len += 1;
        true
    }

    /// Total bytes the ranges name.
    pub fn live_bytes(&self) -> usize {
        self.iter().map(|&(_, l)| usize::from(l)).sum()
    }

    /// Removes the range at `i` (which must exist), closing the hole.
    fn remove(&mut self, i: usize) {
        self.segs.copy_within(i + 1..usize::from(self.len), i);
        self.len -= 1;
    }
}

/// A literal vector, for guides that know their ranges up front; more than
/// [`LiveVector::CAPACITY`] of them fails to compile.
impl<const N: usize> From<[(u16, u16); N]> for LiveVector {
    fn from(ranges: [(u16, u16); N]) -> Self {
        const { assert!(N <= LiveVector::CAPACITY) };
        let mut v = Self::new();
        for (offset, len) in ranges {
            v.push(offset, len);
        }
        v
    }
}

impl Deref for LiveVector {
    type Target = [(u16, u16)];

    fn deref(&self) -> &[(u16, u16)] {
        self.segs.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl PartialEq for LiveVector {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for LiveVector {}

impl fmt::Debug for LiveVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What is live within one heap page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLiveness {
    /// The page holds no live data (nothing to transfer).
    Empty,
    /// The whole page is live (fall back to a full-page transfer).
    Full,
    /// Only these ranges are live: sorted, non-overlapping, covering every
    /// live byte, and never the single range `(0, PAGE_SIZE)`.
    Partial(LiveVector),
}

/// Covers `bitmap`'s live blocks (of `block_size` bytes each) with at most
/// `max_segments` ranges, clamped to `1..=LiveVector::CAPACITY`, in one
/// pass over the live runs. An all-free bitmap yields the empty vector.
///
/// Covering `n` runs with `k < n` ranges means absorbing `n - k` of the
/// free gaps between them; the cheapest cover absorbs the narrowest, so the
/// `k - 1` *widest* gaps are the ones that stay. Merging runs never changes
/// a gap's width, so it is enough to remember those `k - 1` gaps while
/// walking. Ties: absorbing "the narrowest gap, earliest first" leaves, of
/// equally wide gaps, the latest ones — so a new gap displaces the earliest
/// narrowest kept gap whenever it is at least as wide.
pub(crate) fn live_vector(
    bitmap: &PageBitmap,
    block_size: usize,
    max_segments: usize,
) -> LiveVector {
    // At most `k - 1` gaps and `k` ranges are ever held, so no `push` below
    // can be refused.
    let k = max_segments.clamp(1, LiveVector::CAPACITY);
    // Run boundaries in bytes; a page's blocks end at or before `PAGE_SIZE`.
    let mut runs = bitmap
        .live_runs()
        .map(|(b, n)| ((b * block_size) as u16, ((b + n) * block_size) as u16));
    let mut out = LiveVector::new();
    let Some((start, mut end)) = runs.next() else {
        return out;
    };
    // The widest gaps seen so far as `(offset, width)`, in page order.
    let mut gaps = LiveVector::new();
    for (s, e) in runs {
        let width = s - end;
        if gaps.len() + 1 < k {
            gaps.push(end, width);
        } else if let Some((i, _)) = gaps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, w))| w)
            .filter(|&(_, &(_, w))| width >= w)
        {
            gaps.remove(i);
            gaps.push(end, width);
        }
        end = e;
    }
    let mut at = start;
    for &(gap, width) in gaps.iter() {
        out.push(at, gap - at);
        at = gap + width;
    }
    out.push(at, end - at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::SIZE_CLASSES;

    /// The retired implementation, kept as the oracle: collect every run,
    /// then repeatedly merge across the smallest gap (earliest on ties)
    /// until `k` remain.
    fn coalesce_to(runs: &mut Vec<(usize, usize)>, k: usize) {
        while runs.len() > k {
            let mut best = 0;
            let mut best_gap = usize::MAX;
            for (i, w) in runs.windows(2).enumerate() {
                let gap = w[1].0 - (w[0].0 + w[0].1);
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let (o2, l2) = runs.remove(best + 1);
            runs[best].1 = (o2 + l2) - runs[best].0;
        }
    }

    fn bitmap_of(blocks: usize, live: impl IntoIterator<Item = usize>) -> PageBitmap {
        let mut b = PageBitmap::new(blocks);
        for i in live {
            b.set(i);
        }
        b
    }

    #[track_caller]
    fn assert_matches_oracle(b: &PageBitmap, bs: usize, what: &str) {
        for k in 1..=LiveVector::CAPACITY {
            let mut want: Vec<(usize, usize)> =
                b.live_runs().map(|(s, n)| (s * bs, n * bs)).collect();
            coalesce_to(&mut want, k);
            let got: Vec<(usize, usize)> = live_vector(b, bs, k)
                .iter()
                .map(|&(o, l)| (usize::from(o), usize::from(l)))
                .collect();
            assert_eq!(got, want, "{what}, k = {k}");
        }
    }

    #[test]
    fn vector_is_a_bounded_inline_list() {
        let mut v = LiveVector::new();
        assert!(v.is_empty());
        for i in 0..LiveVector::CAPACITY as u16 {
            assert!(v.push(i * 16, 8));
        }
        let full = v;
        assert!(!v.push(4000, 8), "one range too many is refused");
        assert_eq!(v, full, "and leaves the vector as it was");
        assert_eq!(v.len(), LiveVector::CAPACITY);
        assert_eq!(v.live_bytes(), 8 * LiveVector::CAPACITY);
        v.remove(0);
        assert_eq!(v.first(), Some(&(16, 8)));
        assert_eq!(v.len(), LiveVector::CAPACITY - 1);
        assert_ne!(v, full);
        assert_eq!(format!("{:?}", LiveVector::new()), "[]");
        assert_eq!(*LiveVector::from([(0, 64), (128, 8)]), [(0, 64), (128, 8)]);
    }

    /// Differential: every block count a size class produces, every cap,
    /// densities from nearly empty to nearly full.
    #[test]
    fn one_pass_matches_the_iterative_merge() {
        let mut rng = proptest::test_runner::TestRng::new(0x5EED_0018);
        for &bs in &SIZE_CLASSES {
            let blocks = PAGE_SIZE / bs;
            for case in 0..10 * 40 {
                let live = (0..blocks).filter(|_| (rng.next_u64() % 9) < (case / 40) as u64);
                let b = bitmap_of(blocks, live);
                assert_matches_oracle(&b, bs, &format!("{bs} B class, case {case}"));
            }
        }
    }

    /// Equal gaps are absorbed earliest first, so the latest survive.
    #[test]
    fn equal_gaps_keep_the_latest() {
        // Five one-block runs, four equal one-block gaps.
        let b = bitmap_of(64, [0, 2, 4, 6, 8]);
        assert_eq!(*live_vector(&b, 64, 3), [(0, 320), (384, 64), (512, 64)]);
        assert_matches_oracle(&b, 64, "all gaps equal");
        // Gap widths 2, 1, 2, 1, 2: the narrow ones go first, then the
        // earliest wide one.
        let b = bitmap_of(64, [0, 3, 5, 8, 10, 13]);
        assert_eq!(*live_vector(&b, 64, 3), [(0, 384), (512, 192), (832, 64)]);
        assert_matches_oracle(&b, 64, "two widths interleaved");
        // A wide gap first, then ties behind it.
        let b = bitmap_of(64, [0, 9, 11, 13, 15]);
        assert_eq!(*live_vector(&b, 64, 2), [(0, 64), (576, 448)]);
        assert_matches_oracle(&b, 64, "wide gap then ties");
        // Every tie pattern of a small page, exhaustively.
        for bits in 1u32..1 << 12 {
            let b = bitmap_of(12, (0..12).filter(|i| bits >> i & 1 == 1));
            assert_matches_oracle(&b, 320, &format!("bits {bits:#b}"));
        }
    }

    /// The 8 B class with every other block live: 256 runs, 255 equal gaps.
    #[test]
    fn worst_case_run_count() {
        let b = bitmap_of(512, (0..512).step_by(2));
        assert_eq!(b.live_runs().count(), 256);
        assert_matches_oracle(&b, 8, "alternating 8 B blocks");
        assert_eq!(*live_vector(&b, 8, 1), [(0, 4088)]);
        let b = bitmap_of(512, (1..512).step_by(2));
        assert_matches_oracle(&b, 8, "alternating 8 B blocks, odd");
        assert_eq!(*live_vector(&b, 8, 1), [(8, 4088)]);
    }
}
