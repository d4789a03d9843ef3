//! Per-page allocation bitmaps.
//!
//! One bit per block of the page's size class. The bitmap is both the
//! allocator's free-block index (replacing mimalloc's free lists, per §6.3)
//! and the liveness oracle guided paging reads when building scatter/gather
//! vectors.

/// A fixed-capacity bitmap over the blocks of one heap page.
///
/// The largest class packs 512 blocks (8 B blocks in a 4 KiB page), so eight
/// `u64` words always suffice.
#[derive(Debug, Clone)]
pub struct PageBitmap {
    words: [u64; 8],
    blocks: u16,
    live: u16,
}

impl PageBitmap {
    /// Creates an all-free bitmap over `blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` exceeds 512.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks <= 512, "a page holds at most 512 blocks");
        Self {
            words: [0; 8],
            blocks: blocks as u16,
            live: 0,
        }
    }

    /// Number of blocks tracked.
    pub fn blocks(&self) -> usize {
        self.blocks as usize
    }

    /// Number of live (allocated) blocks.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// True if no block is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if every block is live.
    pub fn is_full(&self) -> bool {
        self.live == self.blocks
    }

    /// Whether block `i` is live.
    pub fn is_set(&self, i: usize) -> bool {
        debug_assert!(i < self.blocks as usize);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers keep i < blocks (debug-asserted) and `new` bounds blocks by 512, so i / 64 < 8"
        )]
        let word = self.words[i / 64];
        word & (1 << (i % 64)) != 0
    }

    /// Marks block `i` live. Returns `false` if it already was.
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.blocks as usize);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers keep i < blocks (debug-asserted) and `new` bounds blocks by 512, so i / 64 < 8"
        )]
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit != 0 {
            return false;
        }
        *w |= bit;
        self.live += 1;
        true
    }

    /// Marks block `i` free. Returns `false` if it already was.
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.blocks as usize);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers keep i < blocks (debug-asserted) and `new` bounds blocks by 512, so i / 64 < 8"
        )]
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit == 0 {
            return false;
        }
        *w &= !bit;
        self.live -= 1;
        true
    }

    /// Finds the lowest free block, if any.
    pub fn first_free(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            let free = !w;
            if free != 0 {
                let i = wi * 64 + free.trailing_zeros() as usize;
                if i < self.blocks as usize {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Iterates over maximal runs of live blocks as `(first, count)` pairs.
    pub fn live_runs(&self) -> LiveRuns<'_> {
        LiveRuns { bm: self, pos: 0 }
    }

    /// End of the run of blocks whose liveness is `live` starting at `from`:
    /// the first block at or after `from` with the other liveness, capped at
    /// the block count. Scans a word at a time.
    fn run_end(&self, from: usize, live: bool) -> usize {
        let n = self.blocks as usize;
        let mut i = from;
        while i < n {
            let bit = i % 64;
            // Flip free-run words so the run's blocks read as ones; the
            // shift feeds zeros in at the top, so `run <= 64 - bit`.
            #[expect(
                clippy::indexing_slicing,
                reason = "the loop keeps i < n = blocks, which `new` bounds by 512, so i / 64 < 8"
            )]
            let w = self.words[i / 64] ^ if live { 0 } else { u64::MAX };
            let run = (w >> bit).trailing_ones() as usize;
            i += run;
            if run < 64 - bit {
                break;
            }
        }
        i.min(n)
    }
}

/// Iterator over maximal live-block runs.
#[derive(Debug)]
pub struct LiveRuns<'a> {
    bm: &'a PageBitmap,
    pos: usize,
}

impl Iterator for LiveRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let start = self.bm.run_end(self.pos, false);
        if start >= self.bm.blocks() {
            return None;
        }
        self.pos = self.bm.run_end(start, true);
        Some((start, self.pos - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_tracks_liveness() {
        let mut b = PageBitmap::new(100);
        assert!(b.is_empty());
        assert!(b.set(5));
        assert!(!b.set(5), "double set reports false");
        assert!(b.is_set(5));
        assert_eq!(b.live(), 1);
        assert!(b.clear(5));
        assert!(!b.clear(5), "double clear reports false");
        assert!(b.is_empty());
    }

    #[test]
    fn first_free_skips_live_prefix() {
        let mut b = PageBitmap::new(8);
        for i in 0..3 {
            b.set(i);
        }
        assert_eq!(b.first_free(), Some(3));
        for i in 3..8 {
            b.set(i);
        }
        assert!(b.is_full());
        assert_eq!(b.first_free(), None);
    }

    #[test]
    fn first_free_crosses_word_boundary() {
        let mut b = PageBitmap::new(130);
        for i in 0..128 {
            b.set(i);
        }
        assert_eq!(b.first_free(), Some(128));
    }

    #[test]
    fn live_runs_are_maximal() {
        let mut b = PageBitmap::new(16);
        for i in [0, 1, 2, 5, 9, 10, 15] {
            b.set(i);
        }
        let runs: Vec<_> = b.live_runs().collect();
        assert_eq!(runs, vec![(0, 3), (5, 1), (9, 2), (15, 1)]);
    }

    /// The word scan must yield exactly the runs a bit-by-bit walk does,
    /// for every block count a size class produces (word-aligned or not)
    /// and every density from nearly empty to nearly full.
    #[test]
    fn live_runs_match_a_bit_walk_for_every_size_class() {
        fn bit_walk(b: &PageBitmap) -> Vec<(usize, usize)> {
            let (n, mut runs, mut i) = (b.blocks(), Vec::new(), 0);
            while i < n {
                if !b.is_set(i) {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < n && b.is_set(i) {
                    i += 1;
                }
                runs.push((start, i - start));
            }
            runs
        }
        let mut rng = proptest::test_runner::TestRng::new(0x5EED_0014);
        let mut counts: Vec<usize> = crate::size_class::SIZE_CLASSES
            .iter()
            .map(|&c| crate::PAGE_SIZE / c)
            .collect();
        counts.dedup();
        assert!(counts.contains(&512) && counts.contains(&2));
        for &blocks in &counts {
            // Every bitmap of a tiny class; seeded ones at eight densities
            // (plus all-free and all-live) for the rest.
            let exhaustive = blocks <= 10;
            let cases = if exhaustive {
                1usize << blocks
            } else {
                10 * 40
            };
            for case in 0..cases {
                let mut b = PageBitmap::new(blocks);
                for i in 0..blocks {
                    let live = if exhaustive {
                        case >> i & 1 == 1
                    } else {
                        (rng.next_u64() % 9) < (case / 40) as u64
                    };
                    if live {
                        b.set(i);
                    }
                }
                let runs: Vec<_> = b.live_runs().collect();
                assert_eq!(runs, bit_walk(&b), "{blocks} blocks, case {case}");
                assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), b.live());
            }
        }
    }

    #[test]
    fn live_runs_empty_and_full() {
        let b = PageBitmap::new(12);
        assert_eq!(b.live_runs().count(), 0);
        let mut f = PageBitmap::new(12);
        for i in 0..12 {
            f.set(i);
        }
        assert_eq!(f.live_runs().collect::<Vec<_>>(), vec![(0, 12)]);
    }
}
