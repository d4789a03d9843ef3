//! The disaggregated heap: size-class pages, large runs, liveness queries.
//!
//! [`Heap`] hands out virtual addresses inside a fixed DDC region (the range
//! `ddc_malloc` serves). It keeps one [`PageBitmap`] per small-object page;
//! [`Heap::live_segments`] is the allocator-semantics query guided paging
//! (§4.4) performs when evicting or fetching a page: "the guide identifies
//! and returns which chunks in a page are currently used by reading the
//! allocator's memory layout".
//!
//! A page's bitmap changes far less often than it is read (on `kv_guided`
//! ≈ 28 k mutations against ≈ 777 k queries), so each small page keeps the
//! last vector the query built, tagged with its cap, and the two mutation
//! sites — `malloc_small`'s set and `free`'s clear — drop it. The query
//! still answers from the bitmap as it is *now*: same vector, same virtual
//! time; only the host stops recomputing an unchanged answer.

use std::cell::Cell;

use crate::bitmap::PageBitmap;
use crate::liveness::{live_vector, LiveVector, PageLiveness};
use crate::size_class::{size_class_of, SizeClass, SIZE_CLASSES};
use crate::PAGE_SIZE;

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Zero-byte allocations are rejected.
    ZeroSize,
    /// The heap has no room for the request.
    OutOfMemory,
    /// `free` was called on an address that is not a live allocation start.
    InvalidFree,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
            AllocError::OutOfMemory => write!(f, "heap exhausted"),
            AllocError::InvalidFree => write!(f, "free of a non-allocated address"),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug)]
enum PageState {
    Free,
    Small {
        class: SizeClass,
        bitmap: PageBitmap,
        /// Whether this page is on its class's `class_pages` list.
        queued: bool,
        /// The last vector `live_segments` built from `bitmap`, with the
        /// clamped cap it was built for; `None` once the bitmap changes.
        /// A `Cell` because the query takes `&self`.
        cached: Cell<Option<(u8, LiveVector)>>,
    },
    LargeHead {
        pages: usize,
        len: usize,
    },
    LargeBody,
}

/// Heap occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently handed out (rounded to block sizes).
    pub live_bytes: u64,
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Pages currently in use (small or large).
    pub used_pages: usize,
}

/// A size-class-segregated heap over a virtual-address region.
#[derive(Debug)]
pub struct Heap {
    base: u64,
    npages: usize,
    pages: Vec<PageState>,
    /// Partially-filled pages per size class (may contain stale entries;
    /// validated on pop — mimalloc's lazy page-queue maintenance). A page's
    /// `queued` bit says whether it is on its class's list, so `free` need
    /// not search for it.
    class_pages: Vec<Vec<usize>>,
    free_count: usize,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap managing `capacity` bytes of virtual space at `base`.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `capacity` are page-aligned and the capacity
    /// is non-zero.
    pub fn new(base: u64, capacity: u64) -> Self {
        assert_eq!(base % PAGE_SIZE as u64, 0, "base must be page-aligned");
        assert_eq!(
            capacity % PAGE_SIZE as u64,
            0,
            "capacity must be page-aligned"
        );
        assert!(capacity > 0, "capacity must be non-zero");
        let npages = (capacity / PAGE_SIZE as u64) as usize;
        Self {
            base,
            npages,
            pages: (0..npages).map(|_| PageState::Free).collect(),
            class_pages: vec![Vec::new(); SIZE_CLASSES.len()],
            free_count: npages,
            stats: HeapStats::default(),
        }
    }

    /// The base virtual address of the managed region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The managed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.npages as u64 * PAGE_SIZE as u64
    }

    /// Current occupancy statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    fn page_va(&self, idx: usize) -> u64 {
        self.base + (idx * PAGE_SIZE) as u64
    }

    fn page_idx(&self, va: u64) -> Option<usize> {
        if va < self.base {
            return None;
        }
        let idx = ((va - self.base) / PAGE_SIZE as u64) as usize;
        (idx < self.npages).then_some(idx)
    }

    fn claim_free_page(&mut self) -> Option<usize> {
        if self.free_count == 0 {
            return None;
        }
        // First-fit keeps the heap compact, which maximizes block reuse of
        // low pages — the behaviour the guided-paging eval relies on.
        for idx in 0..self.npages {
            #[expect(clippy::indexing_slicing, reason = "idx < npages == pages.len()")]
            if matches!(self.pages[idx], PageState::Free) {
                self.free_count -= 1;
                self.stats.used_pages += 1;
                return Some(idx);
            }
        }
        None
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a page of a live allocation, so idx < npages == pages.len()"
    )]
    fn release_page(&mut self, idx: usize) {
        self.pages[idx] = PageState::Free;
        self.free_count += 1;
        self.stats.used_pages -= 1;
    }

    /// Allocates `size` bytes and returns the virtual address.
    pub fn malloc(&mut self, size: usize) -> Result<u64, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        match size_class_of(size) {
            Some(class) => self.malloc_small(class),
            None => self.malloc_large(size),
        }
    }

    fn malloc_small(&mut self, class: SizeClass) -> Result<u64, AllocError> {
        let ci = class.index();
        // Pop stale (full or recycled) entries until a usable page surfaces.
        #[expect(
            clippy::indexing_slicing,
            reason = "ci < SIZE_CLASSES.len() == class_pages.len(); queued pages are < npages == pages.len()"
        )]
        let page_idx = loop {
            match self.class_pages[ci].last().copied() {
                Some(idx) => match &mut self.pages[idx] {
                    PageState::Small {
                        class: c,
                        bitmap,
                        queued,
                        ..
                    } if *c == class => {
                        if !bitmap.is_full() {
                            break Some(idx);
                        }
                        *queued = false;
                        self.class_pages[ci].pop();
                    }
                    _ => {
                        self.class_pages[ci].pop();
                    }
                },
                None => break None,
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "claim_free_page returns idx < npages == pages.len(); ci < class_pages.len()"
        )]
        let idx = match page_idx {
            Some(idx) => idx,
            None => {
                let idx = self.claim_free_page().ok_or(AllocError::OutOfMemory)?;
                self.pages[idx] = PageState::Small {
                    class,
                    bitmap: PageBitmap::new(class.blocks_per_page()),
                    queued: true,
                    cached: Cell::new(None),
                };
                self.class_pages[ci].push(idx);
                idx
            }
        };
        #[expect(
            clippy::indexing_slicing,
            clippy::unreachable,
            reason = "idx is a small page < npages: the loop found it on class ci's queue, or it was just created"
        )]
        let PageState::Small {
            bitmap,
            queued,
            cached,
            ..
        } = &mut self.pages[idx]
        else {
            unreachable!("selected page is a small page");
        };
        #[expect(
            clippy::expect_used,
            reason = "the page was selected (or just created) as non-full above"
        )]
        let block = bitmap.first_free().expect("page was not full");
        bitmap.set(block);
        cached.set(None);
        if bitmap.is_full() {
            #[expect(clippy::indexing_slicing, reason = "ci < class_pages.len()")]
            self.class_pages[ci].retain(|&p| p != idx);
            *queued = false;
        }
        self.stats.allocs += 1;
        self.stats.live_bytes += class.block_size() as u64;
        Ok(self.page_va(idx) + (block * class.block_size()) as u64)
    }

    fn malloc_large(&mut self, size: usize) -> Result<u64, AllocError> {
        let need = size.div_ceil(PAGE_SIZE);
        if need > self.free_count {
            return Err(AllocError::OutOfMemory);
        }
        // Linear scan for a contiguous free run (heaps here are small enough
        // that first-fit is fine; runs never wrap).
        let mut run_start = 0usize;
        let mut run = 0usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "idx < npages == pages.len(), and the run run_start..run_start + need ends at idx"
        )]
        for idx in 0..self.npages {
            if matches!(self.pages[idx], PageState::Free) {
                if run == 0 {
                    run_start = idx;
                }
                run += 1;
                if run == need {
                    for i in run_start..run_start + need {
                        self.pages[i] = PageState::LargeBody;
                        self.free_count -= 1;
                        self.stats.used_pages += 1;
                    }
                    self.pages[run_start] = PageState::LargeHead {
                        pages: need,
                        len: size,
                    };
                    self.stats.allocs += 1;
                    self.stats.live_bytes += (need * PAGE_SIZE) as u64;
                    return Ok(self.page_va(run_start));
                }
            } else {
                run = 0;
            }
        }
        Err(AllocError::OutOfMemory)
    }

    /// Frees the allocation starting at `va`.
    pub fn free(&mut self, va: u64) -> Result<(), AllocError> {
        let idx = self.page_idx(va).ok_or(AllocError::InvalidFree)?;
        let page_va = self.page_va(idx);
        match self.pages.get_mut(idx) {
            Some(PageState::Small {
                class,
                bitmap,
                queued,
                cached,
            }) => {
                let class = *class;
                let off = (va - page_va) as usize;
                if !off.is_multiple_of(class.block_size()) {
                    return Err(AllocError::InvalidFree);
                }
                let block = off / class.block_size();
                if block >= bitmap.blocks() || !bitmap.clear(block) {
                    return Err(AllocError::InvalidFree);
                }
                cached.set(None);
                self.stats.frees += 1;
                self.stats.live_bytes -= class.block_size() as u64;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "class.index() < SIZE_CLASSES.len() == class_pages.len()"
                )]
                if bitmap.is_empty() {
                    self.class_pages[class.index()].retain(|&p| p != idx);
                    self.release_page(idx);
                } else if !*queued {
                    // A block was just cleared, so the page has room again.
                    *queued = true;
                    self.class_pages[class.index()].push(idx);
                }
                Ok(())
            }
            Some(PageState::LargeHead { pages, .. }) => {
                if va != page_va {
                    return Err(AllocError::InvalidFree);
                }
                let pages = *pages;
                for i in idx..idx + pages {
                    self.release_page(i);
                }
                self.stats.frees += 1;
                self.stats.live_bytes -= (pages * PAGE_SIZE) as u64;
                Ok(())
            }
            _ => Err(AllocError::InvalidFree),
        }
    }

    /// Returns the usable size of the live allocation at `va`, if any.
    pub fn alloc_size(&self, va: u64) -> Option<usize> {
        let idx = self.page_idx(va)?;
        match self.pages.get(idx)? {
            PageState::Small { class, bitmap, .. } => {
                let off = (va - self.page_va(idx)) as usize;
                if !off.is_multiple_of(class.block_size()) {
                    return None;
                }
                let block = off / class.block_size();
                (block < bitmap.blocks() && bitmap.is_set(block)).then(|| class.block_size())
            }
            PageState::LargeHead { len, .. } => (va == self.page_va(idx)).then_some(*len),
            _ => None,
        }
    }

    /// Reports what is live within the page containing `page_va`.
    ///
    /// This is the allocator-semantics query the paging guide performs, on
    /// every eviction. `max_segments` caps the vector length (the paper's
    /// guide uses three — vectored RDMA slows down beyond that, §6.3) and is
    /// itself clamped to `1..=LiveVector::CAPACITY`; extra runs are
    /// coalesced by absorbing the smallest gaps, so the result always
    /// *covers* every live byte.
    ///
    /// A partial page's vector is built once per change to its bitmap (and
    /// per cap asked for): a repeat query returns the page's cached copy.
    pub fn live_segments(&self, page_va: u64, max_segments: usize) -> PageLiveness {
        let Some(idx) = self.page_idx(page_va) else {
            return PageLiveness::Full;
        };
        let Some(state) = self.pages.get(idx) else {
            return PageLiveness::Full;
        };
        match state {
            PageState::Free => PageLiveness::Empty,
            PageState::LargeHead { .. } | PageState::LargeBody => PageLiveness::Full,
            PageState::Small {
                class,
                bitmap,
                cached,
                ..
            } => {
                if bitmap.is_empty() {
                    return PageLiveness::Empty;
                }
                if bitmap.is_full() {
                    return PageLiveness::Full;
                }
                let k = max_segments.clamp(1, LiveVector::CAPACITY);
                let live = match cached.get() {
                    Some((tag, live)) if usize::from(tag) == k => live,
                    _ => {
                        let live = live_vector(bitmap, class.block_size(), k);
                        cached.set(Some((k as u8, live)));
                        live
                    }
                };
                if *live == [(0, PAGE_SIZE as u16)] {
                    PageLiveness::Full
                } else {
                    PageLiveness::Partial(live)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(0x1000_0000, 1 << 20) // 256 pages.
    }

    #[test]
    fn small_allocations_pack_into_one_page() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        assert_eq!(b - a, 64, "blocks are adjacent");
        assert_eq!(a / PAGE_SIZE as u64, b / PAGE_SIZE as u64);
        assert_eq!(h.stats().used_pages, 1);
    }

    #[test]
    fn different_classes_use_different_pages() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(200).unwrap();
        assert_ne!(a / PAGE_SIZE as u64, b / PAGE_SIZE as u64);
        assert_eq!(h.alloc_size(a), Some(64));
        assert_eq!(h.alloc_size(b), Some(224));
    }

    #[test]
    fn free_recycles_blocks_and_pages() {
        let mut h = heap();
        let a = h.malloc(128).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.stats().used_pages, 0);
        let b = h.malloc(128).unwrap();
        assert_eq!(a, b, "freed block is reused");
    }

    #[test]
    fn large_allocations_take_page_runs() {
        let mut h = heap();
        let a = h.malloc(3 * PAGE_SIZE + 1).unwrap();
        assert_eq!(a % PAGE_SIZE as u64, 0);
        assert_eq!(h.stats().used_pages, 4);
        assert_eq!(h.alloc_size(a), Some(3 * PAGE_SIZE + 1));
        h.free(a).unwrap();
        assert_eq!(h.stats().used_pages, 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut h = Heap::new(0, 2 * PAGE_SIZE as u64);
        assert!(h.malloc(3 * PAGE_SIZE).is_err());
        h.malloc(PAGE_SIZE + 1).unwrap();
        assert_eq!(h.malloc(PAGE_SIZE + 1), Err(AllocError::OutOfMemory));
        // Small allocations can still be served from... nothing: both pages
        // are taken by the large run.
        assert_eq!(h.malloc(8), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn invalid_frees_are_rejected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        assert_eq!(h.free(a + 1), Err(AllocError::InvalidFree));
        assert_eq!(h.free(a + 64), Err(AllocError::InvalidFree));
        assert_eq!(h.free(0), Err(AllocError::InvalidFree));
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(AllocError::InvalidFree), "double free");
    }

    /// `free` trusts the `queued` bit instead of searching the class list,
    /// so the bit must equal list membership after every operation.
    #[test]
    fn queued_bit_tracks_class_list_membership() {
        let mut rng = proptest::test_runner::TestRng::new(0x5EED_0018);
        let mut h = Heap::new(0, 64 * PAGE_SIZE as u64);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..20_000 {
            // Fill in the first half of each 2 000-step cycle, drain in the
            // second, so pages go full, partial and empty many times over.
            let grow = rng.next_u64() % 100 < if step % 2000 < 1000 { 70 } else { 30 };
            if grow || live.is_empty() {
                let size = SIZE_CLASSES[(rng.next_u64() % 6) as usize * 4 + 3];
                if let Ok(va) = h.malloc(size) {
                    live.push(va);
                }
            } else {
                let va = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                h.free(va).unwrap();
            }
            for (idx, page) in h.pages.iter().enumerate() {
                if let PageState::Small { class, queued, .. } = page {
                    let listed = h.class_pages[class.index()].contains(&idx);
                    assert_eq!(*queued, listed, "page {idx} at step {step}");
                }
            }
            let listed: usize = h.class_pages.iter().map(Vec::len).sum();
            let queued = h
                .pages
                .iter()
                .filter(|p| matches!(p, PageState::Small { queued: true, .. }));
            assert_eq!(listed, queued.count(), "a list names a non-small page");
        }
    }

    #[test]
    fn live_segments_reflect_the_bitmap() {
        let mut h = heap();
        // Fill a 512-byte-class page (8 blocks), then free the middle.
        let vas: Vec<u64> = (0..8).map(|_| h.malloc(512).unwrap()).collect();
        let page = vas[0] & !(PAGE_SIZE as u64 - 1);
        assert_eq!(h.live_segments(page, 3), PageLiveness::Full);
        for &v in &vas[2..6] {
            h.free(v).unwrap();
        }
        match h.live_segments(page, 3) {
            PageLiveness::Partial(segs) => {
                assert_eq!(*segs, [(0, 1024), (3072, 1024)]);
            }
            other => panic!("expected partial liveness, got {other:?}"),
        }
        for &v in vas[..2].iter().chain(&vas[6..]) {
            h.free(v).unwrap();
        }
        assert_eq!(h.live_segments(page, 3), PageLiveness::Empty);
    }

    #[test]
    fn live_segments_coalesce_to_cap_and_still_cover() {
        let mut h = heap();
        let vas: Vec<u64> = (0..64).map(|_| h.malloc(64).unwrap()).collect();
        let page = vas[0] & !(PAGE_SIZE as u64 - 1);
        // Free every other block: 32 runs of one block each.
        for v in vas.iter().skip(1).step_by(2) {
            h.free(*v).unwrap();
        }
        let PageLiveness::Partial(segs) = h.live_segments(page, 3) else {
            panic!("expected partial");
        };
        assert!(segs.len() <= 3);
        // Every live block must be covered by some segment.
        for (i, v) in vas.iter().enumerate().step_by(2) {
            let off = (*v - page) as usize;
            assert!(
                segs.iter()
                    .any(|&(o, l)| off >= o as usize && off + 64 <= (o + l) as usize),
                "block {i} uncovered"
            );
        }
    }

    /// What `live_segments` must answer for small page `idx`, built from
    /// its bitmap as it is now; `None` for any other page. The one
    /// uncached liveness path, and it lives here.
    fn uncached_live_segments(h: &Heap, idx: usize, k: usize) -> Option<PageLiveness> {
        let PageState::Small { class, bitmap, .. } = &h.pages[idx] else {
            return None;
        };
        let live = live_vector(bitmap, class.block_size(), k);
        Some(if bitmap.is_empty() {
            PageLiveness::Empty
        } else if bitmap.is_full() || *live == [(0, PAGE_SIZE as u16)] {
            PageLiveness::Full
        } else {
            PageLiveness::Partial(live)
        })
    }

    /// The cache against its oracle after every malloc and free, over every
    /// size class, at caps rotating the way `repro --only ablation`
    /// alternates guides. Each op ends at cap 3 and the next starts there,
    /// so a mutation that leaves a stale vector behind is asked about at
    /// the very cap it was cached for; the repeated 3 is a cache hit.
    #[test]
    fn cached_vectors_match_a_fresh_build_after_every_op() {
        const CAPS: [usize; 5] = [3, 12, 1, 3, 3];
        let mut rng = proptest::test_runner::TestRng::new(0x5EED_0026);
        let mut h = Heap::new(0, 64 * PAGE_SIZE as u64);
        let mut live: Vec<u64> = Vec::new();
        let mut hits = 0;
        for step in 0..20_000 {
            let grow = rng.next_u64() % 100 < if step % 2000 < 1000 { 70 } else { 30 };
            let va = if grow || live.is_empty() {
                let size = SIZE_CLASSES[(rng.next_u64() % SIZE_CLASSES.len() as u64) as usize];
                let Ok(va) = h.malloc(size) else { continue };
                live.push(va);
                va
            } else {
                let va = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                h.free(va).unwrap();
                va
            };
            let idx = va as usize / PAGE_SIZE;
            let page = (idx * PAGE_SIZE) as u64;
            for k in CAPS {
                if let PageState::Small { cached, .. } = &h.pages[idx] {
                    hits +=
                        usize::from(matches!(cached.get(), Some((t, _)) if usize::from(t) == k));
                }
                if let Some(want) = uncached_live_segments(&h, idx, k) {
                    assert_eq!(
                        h.live_segments(page, k),
                        want,
                        "page {idx}, k {k}, step {step}"
                    );
                }
            }
        }
        assert!(
            hits > 10_000,
            "the cache must be exercised, was hit {hits} times"
        );
    }

    #[test]
    fn large_pages_report_full_liveness() {
        let mut h = heap();
        let a = h.malloc(2 * PAGE_SIZE).unwrap();
        assert_eq!(h.live_segments(a, 3), PageLiveness::Full);
        assert_eq!(h.live_segments(a + PAGE_SIZE as u64, 3), PageLiveness::Full);
    }

    #[test]
    fn stats_balance() {
        let mut h = heap();
        let mut vas = Vec::new();
        for i in 1..100 {
            vas.push(h.malloc(i * 7 % 1500 + 1).unwrap());
        }
        for va in vas {
            h.free(va).unwrap();
        }
        let s = h.stats();
        assert_eq!(s.allocs, 99);
        assert_eq!(s.frees, 99);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.used_pages, 0);
    }
}
