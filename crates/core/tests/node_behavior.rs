//! End-to-end behaviour of the DiLOS node: faulting, eviction, prefetching,
//! guides, and the virtual-time accounting the evaluation relies on.

use std::cell::RefCell;
use std::rc::Rc;

use dilos_alloc::Heap;
use dilos_core::{
    Dilos, DilosConfig, GuideOps, HeapPagingGuide, PrefetchGuide, Pte, Readahead, DDC_BASE, MAP_DDC,
};
use dilos_sim::{ComputeNode, Fault, Observability, RecoverConfig, Redundancy, ServiceClass, When};

const PAGE: usize = 4096;

fn node(local_pages: usize) -> Dilos {
    Dilos::new(DilosConfig {
        local_pages,
        remote_bytes: 1 << 28,
        ..DilosConfig::default()
    })
}

#[test]
fn roundtrip_within_cache() {
    let mut n = node(64);
    let va = n.ddc_alloc(16 * PAGE);
    let data: Vec<u8> = (0..16 * PAGE).map(|i| (i % 251) as u8).collect();
    n.write(0, va, &data);
    let mut out = vec![0u8; data.len()];
    n.read(0, va, &mut out);
    assert_eq!(out, data);
    let s = n.stats();
    assert_eq!(s.major_faults, 0, "working set fits: no remote fetches");
    assert_eq!(s.zero_fills, 16, "one first-touch fault per page");
}

#[test]
fn data_survives_eviction() {
    // Working set 4× the local cache: pages must round-trip through the
    // memory node intact.
    let mut n = node(64);
    let pages = 256usize;
    let va = n.ddc_alloc(pages * PAGE);
    for p in 0..pages {
        let payload = [(p % 256) as u8; 64];
        n.write(0, va + (p * PAGE) as u64 + 128, &payload);
    }
    for p in 0..pages {
        let mut buf = [0u8; 64];
        n.read(0, va + (p * PAGE) as u64 + 128, &mut buf);
        assert!(
            buf.iter().all(|&b| b == (p % 256) as u8),
            "page {p} corrupt"
        );
    }
    let s = n.stats();
    assert!(s.evictions > 0, "pressure must evict");
    assert!(s.writebacks > 0, "dirty pages must be written back");
    assert!(s.major_faults > 0, "evicted pages must be re-fetched");
    assert_eq!(s.zero_fills, pages as u64);
}

/// Page `slot`'s stored bytes on every replica (empty if absent): node 0's
/// directly, and with a second replica node 1's too, seen by failing node 0
/// and resyncing it from node 1 (the resync copies node 1's page verbatim).
fn replica_images(n: &mut Dilos, slot: u64) -> Vec<Vec<u8>> {
    let image = |n: &Dilos| {
        let stored = n.rdma().node().page_snapshot(slot).map(|p| p.to_vec());
        stored.unwrap_or_default()
    };
    let mut out = vec![image(n)];
    if n.config().redundancy == Redundancy::Replicas(2) {
        let now = n.machine().max_now();
        n.inject(When::At(now), Fault::Fail { node: 0 });
        n.inject(When::At(now), Fault::Repair { node: 0 });
        n.drain_events(now);
        out.push(image(n));
    }
    out
}

#[test]
fn a_fetched_page_reaches_the_store_only_at_write_back() {
    // A whole-page fault shares the stored image with the frame, and the
    // app's first store copies it: the memory node changes only when the
    // write-back posts, on every replica.
    for replication in [1, 2] {
        let mut n = Dilos::new(DilosConfig {
            local_pages: 16,
            remote_bytes: 1 << 24,
            memory_nodes: replication,
            redundancy: Redundancy::Replicas(replication),
            ..DilosConfig::default()
        });
        let pages = 48usize;
        let va = n.ddc_alloc(pages * PAGE);
        let at = |p: usize| va + (p * PAGE) as u64;
        let slot = (va - DDC_BASE) >> 12;
        let remote = |n: &Dilos| matches!(n.pte_of(at(0)), Pte::Remote { .. });
        for p in 0..pages {
            n.write(0, at(p), &[p as u8 + 1; PAGE]);
        }
        assert!(remote(&n), "r = {replication}: page 0 was written back");
        let seeded = vec![1u8; PAGE];
        assert_eq!(
            replica_images(&mut n, slot),
            vec![seeded.clone(); replication]
        );

        // Fault the page in whole, then store into it.
        assert_eq!(n.read_u64(0, at(0)), 0x0101_0101_0101_0101);
        n.write_u64(0, at(0) + 8, 0xB0B0);
        let mut frame = vec![0u8; PAGE];
        n.read(0, at(0), &mut frame);
        assert_eq!(frame[8..16], 0xB0B0u64.to_le_bytes());
        assert_eq!(
            replica_images(&mut n, slot),
            vec![seeded; replication],
            "r = {replication}: a frame store reached the memory node"
        );

        // Evict it: the write-back is what changes the memory node.
        for p in 1..pages {
            if remote(&n) {
                break;
            }
            n.read_u64(0, at(p));
        }
        assert!(remote(&n), "r = {replication}: page 0 was evicted");
        assert_eq!(
            replica_images(&mut n, slot),
            vec![frame.clone(); replication]
        );

        // A second store after the write-back leaves the store alone again.
        n.write_u64(0, at(0) + 16, 0xC0C0);
        assert_eq!(n.read_u64(0, at(0) + 8), 0xB0B0);
        assert_eq!(n.read_u64(0, at(0) + 16), 0xC0C0);
        assert_eq!(
            replica_images(&mut n, slot),
            vec![frame; replication],
            "r = {replication}: a second store reached the memory node"
        );
    }
}

#[test]
fn recycled_frames_show_nothing_of_their_previous_page() {
    // Frames are recycled without being wiped: a zero-fill clears the
    // frame's page (swapping a shared one for a fresh zero page), and a fill
    // replaces the frame's page with the stored image. Walk every frame
    // through full page → sparse page → never-written page; a clear that
    // misses, or an image written where it is shared, leaves 0xC7 bytes
    // behind. A page only its frame holds is the next two tests' case.
    let group = 48usize;
    let mut n = node(16);
    let va = n.ddc_alloc(3 * group * PAGE);
    let at = |g: usize, p: usize| va + ((g * group + p) * PAGE) as u64;
    for p in 0..group {
        n.write(0, at(0, p), &[0xC7; PAGE]);
        n.write_u64(0, at(1, p), 0x5EED_0000 + p as u64);
        // First touched by a read: evicted clean, so the memory node never
        // materializes it and the re-fault fetches an absent page.
        assert_eq!(n.read_u64(0, at(2, p)), 0);
    }
    let mut page = vec![0u8; PAGE];
    for round in 0..2 {
        for p in 0..group {
            n.read(0, at(0, p), &mut page);
            assert!(page.iter().all(|&b| b == 0xC7), "full page {p}");
        }
        for p in 0..group {
            n.read(0, at(1, p), &mut page);
            assert_eq!(page[..8], (0x5EED_0000 + p as u64).to_le_bytes());
            let stale = page[8..].iter().position(|&b| b != 0);
            assert_eq!(
                stale, None,
                "round {round}: sparse page {p} shows stale bytes"
            );
        }
        for p in 0..group {
            n.read(0, at(2, p), &mut page);
            let stale = page.iter().position(|&b| b != 0);
            assert_eq!(
                stale, None,
                "round {round}: blank page {p} shows stale bytes"
            );
        }
    }
    let s = n.stats();
    assert!(
        s.major_faults + s.minor_faults >= 6 * group as u64 - 16,
        "every page was re-fetched on every pass"
    );
}

#[test]
fn a_freed_frame_reads_as_zeros_after_a_zero_fill() {
    // Pages written in place and freed before any write-back: each frame
    // holds the only reference to its page, so the zero-fill that recycles
    // it must clear it in place.
    let mut n = node(64);
    let va = n.ddc_alloc(32 * PAGE);
    for p in 0..32 {
        n.write(0, va + (p * PAGE) as u64, &[0xC7; PAGE]);
    }
    n.ddc_free(va, 32 * PAGE);
    let fresh = n.ddc_alloc(64 * PAGE);
    let mut page = vec![0xFF; PAGE];
    for p in 0..64 {
        n.read(0, fresh + (p * PAGE) as u64, &mut page);
        let stale = page.iter().position(|&b| b != 0);
        assert_eq!(stale, None, "page {p} shows stale bytes");
    }
    let s = n.stats();
    assert_eq!(s.zero_fills, 32 + 64);
    assert_eq!(s.writebacks, 0, "no page was written back");
}

#[test]
fn a_frame_written_back_by_a_guide_reads_as_zeros_after_a_zero_fill() {
    // A guided write-back copies the live ranges out (`write_v`), so the
    // evicted frame keeps the only reference to its page; the zero-fill
    // that recycles it must clear it in place. Eight 512 B objects fill a
    // heap page; freeing the last one makes the page partly live.
    let (mut n, heap) = guided_node(3);
    let objs: Vec<u64> = (0..8 * 32)
        .map(|_| heap.borrow_mut().malloc(512).unwrap())
        .collect();
    for (i, &obj) in objs.iter().enumerate() {
        if i % 8 == 0 {
            assert_eq!(obj % PAGE as u64, 0, "eight objects fill each heap page");
            n.write(0, obj, &[0xC7; PAGE]);
        }
        if i % 8 == 7 {
            heap.borrow_mut().free(obj).unwrap();
        }
    }
    // Fresh pages, each stamped at its first word: everything past the
    // stamp must read as zeros, before and after its own round trip.
    let churn = n.ddc_alloc(256 * PAGE);
    let at = |p: usize| churn + (p * PAGE) as u64;
    for p in 0..256 {
        n.write_u64(0, at(p), p as u64 + 1);
    }
    let mut page = vec![0u8; PAGE];
    for p in 0..256 {
        n.read(0, at(p), &mut page);
        assert_eq!(page[..8], (p as u64 + 1).to_le_bytes());
        let stale = page[8..].iter().position(|&b| b != 0);
        assert_eq!(stale, None, "page {p} shows stale bytes");
    }
    assert_eq!(n.stats().guided_evictions, 32);
}

#[test]
fn reclaim_stays_off_the_critical_path() {
    // DiLOS's claim: background eager eviction keeps direct reclaim at zero.
    let mut n = node(64);
    let va = n.ddc_alloc(256 * PAGE);
    for p in 0..256u64 {
        n.write_u64(0, va + p * PAGE as u64, p);
    }
    for p in 0..256u64 {
        let _ = n.read_u64(0, va + p * PAGE as u64);
    }
    let b = n.stats().breakdown;
    assert!(b.count > 0);
    assert_eq!(b.reclaim, 0, "no reclamation inside the fault handler");
    // The paper's Figure 6: total DiLOS fault latency is ~3 µs.
    let avg = b.avg_total();
    assert!((2_000..4_500).contains(&avg), "avg fault {avg} ns");
}

#[test]
fn direct_reclaim_ablation_moves_reclaim_into_the_handler() {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 28,
        direct_reclaim: true,
        ..DilosConfig::default()
    });
    let va = n.ddc_alloc(256 * PAGE);
    for p in 0..256u64 {
        n.write_u64(0, va + p * PAGE as u64, p);
    }
    for p in 0..256u64 {
        let _ = n.read_u64(0, va + p * PAGE as u64);
    }
    let b = n.stats().breakdown;
    assert!(b.reclaim > 0, "ablation charges reclaim to the handler");
}

#[test]
fn readahead_cuts_major_faults_on_sequential_scan() {
    let run = |prefetch: bool| {
        let mut n = node(128);
        if prefetch {
            n.set_prefetcher(Box::new(Readahead::new()));
        }
        let pages = 512usize;
        let va = n.ddc_alloc(pages * PAGE);
        // Populate, evict, then scan sequentially.
        for p in 0..pages as u64 {
            n.write_u64(0, va + p * PAGE as u64, p);
        }
        for p in 0..pages as u64 {
            assert_eq!(n.read_u64(0, va + p * PAGE as u64), p);
        }
        (*n.stats(), n.machine().now(0))
    };
    let (no_pf, t_none) = run(false);
    let (with_pf, t_ra) = run(true);
    assert!(with_pf.prefetch_issued > 0);
    assert!(
        with_pf.major_faults < no_pf.major_faults / 3,
        "readahead must absorb most majors: {} vs {}",
        with_pf.major_faults,
        no_pf.major_faults
    );
    assert!(
        t_ra < t_none,
        "prefetching must be faster: {t_ra} vs {t_none}"
    );
    // Faults on in-flight pages are DiLOS minor faults.
    assert!(with_pf.minor_faults > 0);
    assert_eq!(no_pf.minor_faults, 0);
}

#[test]
fn repeated_access_hits_the_tlb_without_faults() {
    let mut n = node(64);
    let va = n.ddc_alloc(PAGE);
    n.write_u64(0, va, 7);
    let majors = n.stats().major_faults;
    let zf = n.stats().zero_fills;
    for _ in 0..100 {
        assert_eq!(n.read_u64(0, va), 7);
    }
    assert_eq!(n.stats().major_faults, majors);
    assert_eq!(n.stats().zero_fills, zf);
    assert!(n.stats().local_hits >= 100);
}

#[test]
fn virtual_time_is_deterministic() {
    let run = || {
        let mut n = node(64);
        n.set_prefetcher(Box::new(Readahead::new()));
        let va = n.ddc_alloc(200 * PAGE);
        for p in 0..200u64 {
            n.write_u64(0, va + p * PAGE as u64, p * 3);
        }
        let mut acc = 0u64;
        for p in 0..200u64 {
            acc = acc.wrapping_add(n.read_u64(0, va + p * PAGE as u64));
        }
        (acc, n.machine().now(0))
    };
    assert_eq!(run(), run());
}

#[test]
fn tcp_mode_is_slower() {
    let run = |tcp: bool| {
        let mut n = Dilos::new(DilosConfig {
            local_pages: 64,
            remote_bytes: 1 << 28,
            tcp_mode: tcp,
            ..DilosConfig::default()
        });
        let va = n.ddc_alloc(256 * PAGE);
        for p in 0..256u64 {
            n.write_u64(0, va + p * PAGE as u64, p);
        }
        for p in 0..256u64 {
            let _ = n.read_u64(0, va + p * PAGE as u64);
        }
        n.machine().now(0)
    };
    assert!(run(true) > run(false));
}

#[test]
fn ddc_free_releases_frames() {
    let mut n = node(64);
    let va = n.ddc_alloc(32 * PAGE);
    for p in 0..32u64 {
        n.write_u64(0, va + p * PAGE as u64, p);
    }
    assert_eq!(n.resident_pages(), 32);
    n.ddc_free(va, 32 * PAGE);
    assert_eq!(n.resident_pages(), 0);
    assert!(matches!(n.pte_of(va), Pte::None));
}

#[test]
fn local_mmap_never_touches_the_network() {
    let mut n = node(64);
    let va = n.mmap(8 * PAGE, 0);
    let data = vec![0x5A; 3 * PAGE];
    n.write(0, va + 100, &data);
    let mut out = vec![0u8; data.len()];
    n.read(0, va + 100, &mut out);
    assert_eq!(out, data);
    // An untouched page far into the mapping reads as zeros.
    let far = n.mmap(1 << 20, 0);
    let mut page = vec![0xFF; PAGE];
    n.read(0, far + (200 * PAGE) as u64, &mut page);
    assert!(page.iter().all(|&b| b == 0));
    // A write spanning two local pages reads back intact.
    let span: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let at = far + (3 * PAGE + PAGE / 2) as u64;
    n.write(0, at, &span);
    let mut back = vec![0u8; PAGE];
    n.read(0, at, &mut back);
    assert_eq!(back, span);
    assert_eq!(n.stats().major_faults, 0);
    assert_eq!(n.stats().zero_fills, 0);
    // DDC mappings live elsewhere.
    let ddc = n.mmap(PAGE, MAP_DDC);
    assert!(ddc < va);
}

/// A 64-frame node whose first 4 MiB of DDC space is a heap, evicted under
/// the stock paging guide with vectors capped at `max_segments`.
fn guided_node(max_segments: usize) -> (Dilos, Rc<RefCell<Heap>>) {
    let heap = Rc::new(RefCell::new(Heap::new(dilos_core::DDC_BASE, 1 << 22)));
    let mut n = node(64);
    assert_eq!(n.ddc_alloc(1 << 22), dilos_core::DDC_BASE);
    n.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
        Rc::clone(&heap),
        max_segments,
    ))));
    (n, heap)
}

#[test]
fn guided_paging_saves_bandwidth_and_preserves_data() {
    // A heap page with one live 512-byte object; eviction under the guide
    // must transfer only that object, and the refetch must restore it.
    let (mut n, heap) = guided_node(3);

    // One live object on its page, rest of the page dead.
    let obj = heap.borrow_mut().malloc(512).unwrap();
    let dead: Vec<u64> = (0..7)
        .map(|_| heap.borrow_mut().malloc(512).unwrap())
        .collect();
    for d in dead {
        heap.borrow_mut().free(d).unwrap();
    }
    n.write(0, obj, &[0xCD; 512]);

    // Force the page out by cycling a large working set.
    let churn = n.ddc_alloc(512 * PAGE);
    for p in 0..512u64 {
        n.write_u64(0, churn + p * PAGE as u64, p);
    }
    assert!(
        !matches!(n.pte_of(obj), Pte::Local { .. }),
        "object page must have been evicted"
    );
    assert!(n.stats().guided_evictions > 0);
    assert!(n.stats().writeback_bytes_saved > 0);

    // Refetch restores the live object via the action vector.
    let mut buf = [0u8; 512];
    n.read(0, obj, &mut buf);
    assert!(buf.iter().all(|&b| b == 0xCD));
    assert!(n.stats().guided_fetches > 0);
    assert!(n.stats().fetch_bytes_saved > 0);
}

#[test]
#[should_panic(expected = "a fetch vector holds 1..=12 segments, not 13")]
fn heap_guide_rejects_a_cap_the_vector_cannot_hold() {
    let heap = Rc::new(RefCell::new(Heap::new(0, 1 << 16)));
    HeapPagingGuide::new(heap, dilos_core::FetchVector::CAPACITY + 1);
}

/// The liveness vector's whole journey: bitmap → dirty guided eviction →
/// action PTE → refault. The vector is hand-computed, and the refault must
/// move exactly the ranges the eviction logged — no more, no fewer.
#[test]
fn guided_refault_fetches_exactly_the_logged_segments() {
    // A cap of two forces a merge across one of two equally wide gaps.
    let (mut n, heap) = guided_node(2);

    // Eight 512 B blocks; 0, 3, 4 and 7 stay live. Live runs (0, 512),
    // (1536, 1024), (3584, 512) with 1 KiB gaps either side of the middle
    // one: the earlier gap is absorbed, so the vector is
    // [(0, 2560), (3584, 512)] — 3 072 bytes named, 1 024 saved.
    let blocks: Vec<u64> = (0..8)
        .map(|_| heap.borrow_mut().malloc(512).unwrap())
        .collect();
    let page = blocks[0];
    assert_eq!(page % PAGE as u64, 0);
    // Dirty the whole page first, dead blocks included.
    n.write(0, page, &[0xEE; PAGE]);
    for (i, &b) in blocks.iter().enumerate() {
        if matches!(i, 0 | 3 | 4 | 7) {
            n.write(0, b, &[i as u8 + 1; 512]);
        } else {
            heap.borrow_mut().free(b).unwrap();
        }
    }

    // Pages outside the heap are whole-page evictions: no guided counts.
    let churn = n.ddc_alloc(512 * PAGE);
    for p in 0..512u64 {
        n.write_u64(0, churn + p * PAGE as u64, p);
    }
    assert!(matches!(n.pte_of(page), Pte::Action { .. }));
    let s = n.stats();
    assert_eq!(s.guided_evictions, 1);
    assert_eq!(s.writeback_bytes_saved, 1024);
    assert_eq!(s.guided_fetches, 0);

    let (_, fetched_before) = n.rdma().tenant_class_bytes(0, ServiceClass::Fault);
    let mut got = vec![0u8; PAGE];
    n.read(0, page, &mut got);
    let (_, fetched_after) = n.rdma().tenant_class_bytes(0, ServiceClass::Fault);
    let s = n.stats();
    assert_eq!(s.guided_fetches, 1);
    assert_eq!(s.fetch_bytes_saved, 1024);
    assert_eq!(s.guided_evictions, 1);
    assert_eq!(fetched_after - fetched_before, 3072, "wire bytes");

    // Inside the vector the frame holds what was written — the absorbed
    // gap's garbage too — and the one dead range left out reads as zeros,
    // because neither the write-back nor the fetch moved it.
    let mut want = vec![0xEE; PAGE];
    for i in [0usize, 3, 4, 7] {
        want[i * 512..(i + 1) * 512].fill(i as u8 + 1);
    }
    want[2560..3584].fill(0);
    assert!(got == want, "refetched page differs from the logged ranges");
}

/// A linked-list prefetch guide: follows `next` pointers stored at offset 0
/// of each node (one node per page), exactly the Figure 5 scenario.
struct ListGuide {
    issued: usize,
}

impl PrefetchGuide for ListGuide {
    fn on_fault(&mut self, va: u64, ops: &mut dyn GuideOps) {
        // Subpage-fetch the node header (its `next` pointer) and prefetch
        // the page it points to.
        let mut bytes = [0u8; 8];
        if let Some((8, _ready)) = ops.subpage_read(va & !0xFFF, &mut bytes) {
            let next = u64::from_le_bytes(bytes);
            if next != 0 {
                ops.prefetch_page(next);
                self.issued += 1;
            }
        }
    }
}

#[test]
fn prefetch_guide_chases_pointers() {
    let mut n = node(64);
    let pages = 256usize;
    let va = n.ddc_alloc(pages * PAGE);
    // Build a linked list: node p points at node p+1, one node per page.
    for p in 0..pages as u64 {
        let next = if p + 1 < pages as u64 {
            va + (p + 1) * PAGE as u64
        } else {
            0
        };
        n.write_u64(0, va + p * PAGE as u64, next);
    }
    let guide = Rc::new(RefCell::new(ListGuide { issued: 0 }));
    n.set_prefetch_guide(guide.clone());
    assert_eq!(n.prefetcher_name(), "app-aware");

    // Traverse: each fault triggers the guide, which prefetches the next
    // node before we get there.
    let mut cur = va;
    let mut visited = 0;
    while cur != 0 {
        cur = n.read_u64(0, cur);
        visited += 1;
    }
    assert_eq!(visited, pages);
    assert!(guide.borrow().issued > 0, "guide must have prefetched");
    assert!(n.stats().subpage_fetches > 0);
    let s = n.stats();
    // The second half of the traversal runs against evicted pages; the
    // guide must have converted most of those majors into minors/hits.
    assert!(
        s.prefetch_issued > 0 && s.major_faults < pages as u64,
        "majors {} prefetched {}",
        s.major_faults,
        s.prefetch_issued
    );
}

#[test]
fn multicore_barrier_joins_clocks() {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        cores: 4,
        remote_bytes: 1 << 26,
        ..DilosConfig::default()
    });
    let va = n.ddc_alloc(64 * PAGE);
    for c in 0..4 {
        for p in 0..8u64 {
            n.write_u64(c, va + (c as u64 * 8 + p) * PAGE as u64, p);
        }
    }
    let t = n.machine_mut().barrier();
    assert!(t > 0);
    for c in 0..4 {
        assert_eq!(n.machine().now(c), t);
    }
}

#[test]
fn per_core_queue_pairs_let_cores_fault_in_parallel() {
    // §4.5: every core gets its own fault QP, so two cores demand-fetching
    // at the same instant do not serialize on a queue — only on the shared
    // wire. Compare two cores fetching N pages each against one core
    // fetching 2N.
    let run = |cores: usize, pages_per_core: u64| {
        let mut n = Dilos::new(DilosConfig {
            local_pages: 512,
            remote_bytes: 1 << 26,
            cores,
            ..DilosConfig::default()
        });
        let total = cores as u64 * pages_per_core;
        let va = n.ddc_alloc((total * 4096) as usize);
        for p in 0..total {
            n.write_u64(0, va + p * 4096, p);
        }
        // Evict everything by churning a second region on core 0.
        let churn = n.ddc_alloc(512 * 4096);
        for p in 0..512u64 {
            n.write_u64(0, churn + p * 4096, p);
        }
        // Now fetch back: each core reads its own slice.
        for c in 0..cores {
            for p in 0..pages_per_core {
                let idx = c as u64 * pages_per_core + p;
                assert_eq!(n.read_u64(c, va + idx * 4096), idx);
            }
        }
        n.machine().max_now()
    };
    let one_core = run(1, 128);
    let two_cores = run(2, 64);
    assert!(
        two_cores < one_core,
        "two cores with private QPs must finish sooner: {two_cores} vs {one_core}"
    );
}

#[test]
fn barrier_free_cores_share_the_fabric_fairly() {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 256,
        remote_bytes: 1 << 26,
        cores: 4,
        ..DilosConfig::default()
    });
    let va = n.ddc_alloc(256 * 4096);
    for p in 0..256u64 {
        n.write_u64(0, va + p * 4096, p);
    }
    let churn = n.ddc_alloc(256 * 4096);
    for p in 0..256u64 {
        n.write_u64(0, churn + p * 4096, p);
    }
    // Interleave reads across cores round-robin.
    for p in 0..256u64 {
        let c = (p % 4) as usize;
        assert_eq!(n.read_u64(c, va + p * 4096), p);
    }
    // No core should lag wildly behind the others (fair wire sharing).
    let times: Vec<u64> = (0..4).map(|c| n.machine().now(c)).collect();
    let max = *times.iter().max().expect("4 cores");
    let min = *times.iter().min().expect("4 cores");
    assert!(
        max < min * 3,
        "core clocks too skewed under fair sharing: {times:?}"
    );
}

fn recovering_node() -> Dilos {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 32,
        remote_bytes: 1 << 24,
        recovery: Some(RecoverConfig {
            // A huge interval keeps every ack in the log, so a dropped
            // record cannot hide behind a checkpoint seal.
            checkpoint_every: 1 << 20,
        }),
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));
    node
}

/// Streams writes through an armed node, crashes and recovers it, and
/// expects both new invariants (no acknowledged write lost, no frame
/// resurrected) to hold alongside every existing check.
#[test]
fn crash_and_recovery_audit_clean() {
    let mut node = recovering_node();
    let va = node.ddc_alloc(64 * PAGE);
    for i in 0..64u64 {
        node.write_u64(0, va + i * PAGE as u64, i);
    }
    let now = node.machine().max_now();
    node.inject(When::At(now), Fault::Fail { node: 0 });
    node.inject(When::At(now + 1_000_000), Fault::Repair { node: 0 });
    let report = node.audit_report();
    assert!(report.is_empty(), "unexpected violations: {report:#?}");
    let stats = node.recovery_stats();
    assert_eq!(stats.recoveries, 1);
    assert!(stats.replayed > 0, "evictions should have logged intents");
    for i in 0..64u64 {
        assert_eq!(node.read_u64(0, va + i * PAGE as u64), i);
    }
}

/// Deliberately drops an acknowledged intent-log record: the auditor
/// must flag exactly an acknowledged-write-lost violation at recovery.
#[test]
fn auditor_catches_acknowledged_write_lost() {
    let mut node = recovering_node();
    let va = node.ddc_alloc(64 * PAGE);
    for i in 0..64u64 {
        node.write_u64(0, va + i * PAGE as u64, i);
    }
    let depth = node.rdma().node().intent_log_depth();
    assert!(depth > 0, "evictions should have logged intents");
    let now = node.machine().max_now();
    node.inject(When::At(now), Fault::DropIntent { node: 0 });
    assert_eq!(node.rdma().node().intent_log_depth(), depth - 1);
    node.inject(When::At(now), Fault::Fail { node: 0 });
    node.inject(When::At(now + 1_000_000), Fault::Repair { node: 0 });
    let report = node.audit_report();
    assert!(
        report.iter().any(|m| m.contains("acknowledged write lost")),
        "dropped intent not detected: {report:#?}"
    );
}
