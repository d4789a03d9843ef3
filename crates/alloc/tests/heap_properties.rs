//! Model-based property tests for the DDC heap.
//!
//! A reference model (a map of live allocations) is driven in lockstep with
//! the real heap by random malloc/free scripts; the invariants checked are
//! the ones guided paging depends on: allocations never overlap, frees
//! round-trip, and `live_segments` always covers every live byte with a
//! well-formed vector of at most the requested length.

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
            match op {
                Op::Malloc(size) => {
                    if let Ok(va) = heap.malloc(size) {
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
                    }
                }
                Op::Free(i) => {
                    if model.is_empty() {
                        prop_assert_eq!(heap.free(base), Err(dilos_alloc::AllocError::InvalidFree));
                        continue;
                    }
                    let idx = i % model.len();
                    let va = *model.keys().nth(idx).unwrap();
                    prop_assert!(heap.free(va).is_ok());
                    model.remove(&va);
                    prop_assert!(heap.alloc_size(va).is_none());
                }
            }
        }

        // Liveness coverage: every live byte of every allocation must be
        // covered by the page's reported segments.
        for (&va, &size) in &model {
            let usable = heap.alloc_size(va).expect("model allocs are live");
            prop_assert!(usable >= size);
            let mut cursor = va;
            let end = va + usable as u64;
            while cursor < end {
                let page = cursor & !(PAGE_SIZE as u64 - 1);
                let page_end = page + PAGE_SIZE as u64;
                let chunk_end = end.min(page_end);
                match heap.live_segments(page, k) {
                    PageLiveness::Full => {}
                    PageLiveness::Partial(segs) => {
                        prop_assert!(!segs.is_empty() && segs.len() <= k);
                        prop_assert!(*segs != [(0, PAGE_SIZE as u16)], "that is `Full`");
                        prop_assert!(segs.iter().all(|&(o, l)| l > 0 && (o + l) as usize <= PAGE_SIZE));
                        prop_assert!(
                            segs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                            "unsorted, overlapping or abutting: {segs:?}"
                        );
                        let off = (cursor - page) as usize;
                        let len = (chunk_end - cursor) as usize;
                        prop_assert!(
                            segs.iter()
                                .any(|&(o, l)| off >= o as usize && off + len <= (o + l) as usize),
                            "{va:#x} chunk at page {page:#x} not covered by {segs:?}"
                        );
                    }
                    PageLiveness::Empty => {
                        return Err(TestCaseError::fail(format!(
                            "page {page:#x} holds live alloc {va:#x} but reports Empty"
                        )));
                    }
                }
                cursor = chunk_end;
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
