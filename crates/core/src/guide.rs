//! App-aware guides: the pluggable module API (§4.1, §4.3, §4.4).
//!
//! "A guide is a pluggable module implemented in the form of a third-party
//! binary … without modifying the main code of an application." DiLOS
//! exposes two guide surfaces:
//!
//! - [`PrefetchGuide`] — called from the page-fault handler while the demand
//!   fetch is in flight. The guide may issue *subpage* fetches on its own
//!   queue (which arrive ahead of full pages), inspect resident memory, and
//!   enqueue page prefetches: the pointer-chasing pipeline of Figures 5
//!   and 11.
//! - [`PagingGuide`] — consulted by the cleaner/reclaimer at eviction time to
//!   learn which chunks of a page are live, enabling vectored transfers that
//!   skip dead bytes (§4.4). The stock implementation,
//!   [`HeapPagingGuide`], reads the `dilos-alloc` per-page bitmaps.
//!
//! Evictions performed under a guide park their fetch vector in the
//! [`ActionTable`]; the page's PTE becomes an *action* PTE whose payload
//! indexes the table, exactly as §4.4 describes ("the cleaner logs the
//! request's vector, and then the reclaimer evicts the page by updating its
//! PTE to an action PTE").

use std::cell::RefCell;
use std::rc::Rc;

use dilos_alloc::{Heap, PageLiveness};
use dilos_sim::Ns;

/// Operations a [`PrefetchGuide`] may perform from the fault handler.
///
/// Implemented by the node; the indirection keeps guides compilable as
/// separate "binaries" (crates) that know nothing of node internals.
pub trait GuideOps {
    /// Issues a subpage fetch at `va` on the guide queue into `buf`, stopping
    /// at the page boundary; a resident page is read in place, off the wire.
    ///
    /// Returns the bytes fetched and the virtual time they arrive. Subpages
    /// are small, so they typically arrive *before* the 4 KiB demand fetch
    /// that triggered the guide — the window the quicklist prefetcher
    /// exploits.
    fn subpage_read(&mut self, va: u64, buf: &mut [u8]) -> Option<(usize, Ns)>;

    /// Enqueues an asynchronous full-page prefetch covering `va`.
    fn prefetch_page(&mut self, va: u64);

    /// The current virtual time on the faulting core.
    fn now(&self) -> Ns;
}

/// An app-aware prefetch guide (§4.3).
pub trait PrefetchGuide {
    /// Called on each fault at `va` while the demand fetch is in flight.
    fn on_fault(&mut self, va: u64, ops: &mut dyn GuideOps);

    /// Display name for tables ("app-aware").
    fn name(&self) -> &'static str {
        "app-aware"
    }
}

/// An app-aware paging guide supplying per-page liveness (§4.4).
pub trait PagingGuide {
    /// Reports which byte ranges of the page at `page_va` are live.
    fn live_ranges(&self, page_va: u64) -> PageLiveness;
}

/// The stock paging guide: reads liveness straight from a [`Heap`]'s
/// per-page allocation bitmaps ("using only allocator semantics, applicable
/// to all applications", §4.4).
#[derive(Debug, Clone)]
pub struct HeapPagingGuide {
    heap: Rc<RefCell<Heap>>,
    max_segments: usize,
}

impl HeapPagingGuide {
    /// Wraps a shared heap; vectors are capped at `max_segments` (the paper
    /// uses three — vectored RDMA slows down beyond that).
    ///
    /// # Panics
    ///
    /// Panics unless `max_segments` is in `1..=FetchVector::CAPACITY`.
    pub fn new(heap: Rc<RefCell<Heap>>, max_segments: usize) -> Self {
        assert!(
            (1..=FetchVector::CAPACITY).contains(&max_segments),
            "a fetch vector holds 1..={} segments, not {max_segments}",
            FetchVector::CAPACITY
        );
        Self { heap, max_segments }
    }
}

impl PagingGuide for HeapPagingGuide {
    fn live_ranges(&self, page_va: u64) -> PageLiveness {
        self.heap.borrow().live_segments(page_va, self.max_segments)
    }
}

/// A logged fetch vector: the `(offset, len)` ranges live within one page
/// (none at all for a fully-dead page). It *is* the allocator's liveness
/// vector, a small inline `Copy` value, so what [`Heap::live_segments`]
/// computes at eviction reaches the [`ActionTable`] and later the vectored
/// verb without being re-collected or heap-allocated on the way.
pub type FetchVector = dilos_alloc::LiveVector;

/// Storage for the fetch vectors referenced by action PTEs.
#[derive(Debug, Default)]
pub struct ActionTable {
    entries: Vec<Option<FetchVector>>,
    free: Vec<u32>,
}

impl ActionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logs a vector, returning the index to embed in the action PTE.
    pub fn insert(&mut self, v: FetchVector) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(v);
                i
            }
            None => {
                self.entries.push(Some(v));
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// Takes the vector at `i`, freeing the slot (fetch consumed it).
    ///
    /// # Panics
    ///
    /// Panics if `i` does not hold a logged vector — an action PTE pointing
    /// at an empty slot is a paging-subsystem invariant violation.
    #[expect(clippy::expect_used, reason = "an action PTE names a live slot")]
    pub fn take(&mut self, i: u32) -> FetchVector {
        let v = self.entries[i as usize]
            .take()
            .expect("action PTE references an empty action-table slot");
        self.free.push(i);
        v
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// True when no vectors are logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_table_recycles_slots() {
        let mut t = ActionTable::new();
        let a = t.insert([(0, 64)].into());
        let b = t.insert([(128, 32)].into());
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(*t.take(a), [(0, 64)]);
        assert_eq!(t.len(), 1);
        let c = t.insert([(256, 16)].into());
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(*t.take(b), [(128, 32)]);
        assert_eq!(*t.take(c), [(256, 16)]);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty action-table slot")]
    fn double_take_is_an_invariant_violation() {
        let mut t = ActionTable::new();
        let a = t.insert([(0, 8)].into());
        t.take(a);
        t.take(a);
    }

    #[test]
    fn heap_guide_reflects_allocator_state() {
        let heap = Rc::new(RefCell::new(Heap::new(0, 1 << 16)));
        let guide = HeapPagingGuide::new(Rc::clone(&heap), 3);
        // An untouched page is empty.
        assert_eq!(guide.live_ranges(0), PageLiveness::Empty);
        let va = heap.borrow_mut().malloc(512).unwrap();
        let page = va & !4095;
        match guide.live_ranges(page) {
            PageLiveness::Partial(segs) => assert_eq!(*segs, [(0, 512)]),
            other => panic!("expected partial, got {other:?}"),
        }
    }
}
