//! Model-based property tests for the DDC heap.
//!
//! A reference model (a map of live allocations) is driven in lockstep with
//! the real heap by random malloc/free scripts; the invariants checked are
//! the ones guided paging depends on: allocations never overlap, frees
//! round-trip, and `live_segments` always covers every live byte with a
//! well-formed, tight vector of at most the requested length — checked on
//! the page each op touched right after the op (so a vector cached from
//! before the op cannot pass), and on every page at the end.

use std::collections::BTreeMap;

use dilos_alloc::{Heap, LiveVector, PageLiveness, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Malloc(usize),
    /// Free the i-th oldest live allocation (modulo live count).
    Free(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Mostly small blocks, so pages fragment into many live runs.
        3 => (1usize..200).prop_map(Op::Malloc),
        1 => (1usize..9000).prop_map(Op::Malloc),
        3 => (0usize..64).prop_map(Op::Free),
    ]
}

/// The pages `[va, va + len)` spans.
fn pages_of(va: u64, len: usize) -> impl Iterator<Item = u64> {
    let first = va & !(PAGE_SIZE as u64 - 1);
    (first..va + len as u64).step_by(PAGE_SIZE)
}

/// Checks `heap`'s liveness answer for `page` at cap `k` against the model:
/// a well-formed vector that covers every live byte of the page and starts
/// and ends each range on a live byte.
fn check_page(
    heap: &Heap,
    model: &BTreeMap<u64, usize>,
    page: u64,
    k: usize,
) -> Result<(), TestCaseError> {
    let page_end = page + PAGE_SIZE as u64;
    // Usable extents of the live allocations overlapping the page.
    let live: Vec<(u64, u64)> = model
        .range(..page_end)
        .map(|(&va, _)| (va, va + heap.alloc_size(va).unwrap_or(0) as u64))
        .filter(|&(_, end)| end > page)
        .collect();
    let is_live = |byte: u64| live.iter().any(|&(s, e)| s <= byte && byte < e);
    match heap.live_segments(page, k) {
        PageLiveness::Full => {}
        PageLiveness::Empty => prop_assert!(
            live.is_empty(),
            "page {page:#x} holds live allocs {live:x?} but reports Empty"
        ),
        PageLiveness::Partial(segs) => {
            prop_assert!(!segs.is_empty() && segs.len() <= k);
            prop_assert!(*segs != [(0, PAGE_SIZE as u16)], "that is `Full`");
            prop_assert!(segs
                .iter()
                .all(|&(o, l)| l > 0 && (o + l) as usize <= PAGE_SIZE));
            prop_assert!(
                segs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                "unsorted, overlapping or abutting: {segs:?}"
            );
            for &(s, e) in &live {
                let (off, end) = (s.max(page) - page, e.min(page_end) - page);
                prop_assert!(
                    segs.iter()
                        .any(|&(o, l)| off >= u64::from(o) && end <= u64::from(o + l)),
                    "{s:#x} chunk at page {page:#x} not covered by {segs:?}"
                );
            }
            for &(o, l) in segs.iter() {
                let (first, last) = (page + u64::from(o), page + u64::from(o + l) - 1);
                prop_assert!(
                    is_live(first) && is_live(last),
                    "range ({o}, {l}) of page {page:#x} is not tight: {segs:?}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
        k in 1..LiveVector::CAPACITY + 1,
    ) {
        let base = 0x4000_0000u64;
        let mut heap = Heap::new(base, 1 << 20);
        // Model: va -> requested size.
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();

        for op in ops {
            // The allocation this op made or freed, as (va, usable bytes).
            let touched = match op {
                Op::Malloc(size) => {
                    let Ok(va) = heap.malloc(size) else { continue };
                    // In-bounds and non-overlapping with every live alloc.
                    let usable = heap.alloc_size(va).expect("fresh alloc is live");
                    prop_assert!(usable >= size);
                    prop_assert!(va >= base);
                    prop_assert!(va + usable as u64 <= base + heap.capacity());
                    for (&ova, &osz) in &model {
                        let ousable = heap.alloc_size(ova).unwrap_or(osz);
                        prop_assert!(
                            va + usable as u64 <= ova || ova + ousable as u64 <= va,
                            "overlap: new {va:#x}+{usable} vs {ova:#x}+{ousable}"
                        );
                    }
                    model.insert(va, size);
                    (va, usable)
                }
                Op::Free(i) => {
                    if model.is_empty() {
                        prop_assert_eq!(heap.free(base), Err(dilos_alloc::AllocError::InvalidFree));
                        continue;
                    }
                    let idx = i % model.len();
                    let va = *model.keys().nth(idx).unwrap();
                    let usable = heap.alloc_size(va).expect("model allocs are live");
                    prop_assert!(heap.free(va).is_ok());
                    model.remove(&va);
                    prop_assert!(heap.alloc_size(va).is_none());
                    (va, usable)
                }
            };
            for page in pages_of(touched.0, touched.1) {
                check_page(&heap, &model, page, k)?;
            }
        }

        // Every page holding a live allocation, once more at the end.
        for (&va, &size) in &model {
            let usable = heap.alloc_size(va).expect("model allocs are live");
            prop_assert!(usable >= size);
            for page in pages_of(va, usable) {
                check_page(&heap, &model, page, k)?;
            }
        }

        // Stats must balance against the model.
        let live_pages_used = heap.stats().used_pages;
        if model.is_empty() {
            prop_assert_eq!(live_pages_used, 0);
            prop_assert_eq!(heap.stats().live_bytes, 0);
        } else {
            prop_assert!(live_pages_used > 0);
        }
    }

    #[test]
    fn drain_everything_returns_heap_to_empty(sizes in prop::collection::vec(1usize..5000, 1..100)) {
        let mut heap = Heap::new(0, 1 << 20);
        let mut vas = Vec::new();
        for s in &sizes {
            if let Ok(va) = heap.malloc(*s) {
                vas.push(va);
            }
        }
        for va in vas {
            prop_assert!(heap.free(va).is_ok());
        }
        prop_assert_eq!(heap.stats().used_pages, 0);
        prop_assert_eq!(heap.stats().live_bytes, 0);
        // The heap is fully reusable afterwards.
        prop_assert!(heap.malloc(PAGE_SIZE * 4).is_ok());
    }
}
