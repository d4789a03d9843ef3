//! End-to-end tests of the compatibility layer (§5) and the guide plumbing:
//! unmodified "binaries" get their allocators patched, guides attach as
//! third-party modules, and the umbrella crate exposes everything.

use std::cell::RefCell;
use std::rc::Rc;

use dilos::alloc::{Heap, PageLiveness};
use dilos::apps::farmem::FarMemory;
use dilos::core::{
    Dilos, DilosConfig, GuideOps, HeapPagingGuide, PrefetchGuide, Pte, SymbolKind, SymbolPatcher,
    SymbolTable, MAP_DDC,
};
use dilos::sim::Observability;

#[test]
fn loader_patches_an_unmodified_binary() {
    // The "binary": a symbol table as the ELF loader would see it.
    let mut redis = SymbolTable::new();
    for sym in ["malloc", "free", "calloc", "realloc"] {
        redis.declare(sym, SymbolKind::Alloc);
    }
    redis.declare("lookupKeyRead", SymbolKind::Hookable);
    redis.declare("listTypeNext", SymbolKind::Hookable);
    redis.declare("main", SymbolKind::Other);

    let report = SymbolPatcher::new().patch(&mut redis, &["lookupKeyRead", "listTypeNext"]);
    assert_eq!(
        report.patched.len(),
        4,
        "all malloc-family symbols rerouted"
    );
    assert_eq!(report.hooked.len(), 2, "guide hooks installed");
    assert_eq!(redis.resolve("malloc"), Some("ddc_malloc"));
    assert_eq!(redis.resolve("main"), Some("main"), "app code untouched");
}

#[test]
fn mmap_map_ddc_selects_disaggregated_backing() {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        ..DilosConfig::default()
    });
    let ddc = node.mmap(1 << 16, MAP_DDC);
    let local = node.mmap(1 << 16, 0);
    assert_ne!(ddc >> 40, local >> 40, "separate address regions");

    // Fill both regions beyond the cache; only DDC traffic hits the wire.
    for p in 0..64u64 {
        node.write_u64(0, local + p * 4096, p);
    }
    assert_eq!(node.stats().zero_fills, 0, "local-only memory never faults");
    for p in 0..16u64 {
        node.write_u64(0, ddc + p * 4096, p);
    }
    assert_eq!(node.stats().zero_fills, 16);
}

/// A guide is a separate module: this one counts faults it observes and
/// prefetches a fixed stride, knowing nothing about the application.
struct StrideGuide {
    stride: u64,
    fired: usize,
}

impl PrefetchGuide for StrideGuide {
    fn on_fault(&mut self, va: u64, ops: &mut dyn GuideOps) {
        ops.prefetch_page(va + self.stride * 4096);
        self.fired += 1;
    }
}

#[test]
fn third_party_guides_attach_without_touching_the_app() {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        ..DilosConfig::default()
    });
    let guide = Rc::new(RefCell::new(StrideGuide {
        stride: 2,
        fired: 0,
    }));
    node.set_prefetch_guide(guide.clone());

    // The "application": a plain strided scan, unaware of the guide.
    let va = node.ddc_alloc(512 * 4096);
    for p in 0..512u64 {
        node.write_u64(0, va + p * 4096, p);
    }
    let mut acc = 0u64;
    for p in (0..512u64).step_by(2) {
        acc = acc.wrapping_add(node.read_u64(0, va + p * 4096));
    }
    assert_eq!(acc, (0..512u64).step_by(2).sum::<u64>());
    assert!(guide.borrow().fired > 0, "the guide saw faults");
    assert!(
        node.stats().prefetch_issued > 0,
        "and prefetched through the API"
    );
}

#[test]
fn paging_guide_and_allocator_compose_through_the_umbrella_crate() {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        ..DilosConfig::default()
    });
    let region = node.ddc_alloc(1 << 22);
    let heap = Rc::new(RefCell::new(Heap::new(region, 1 << 22)));
    node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
        Rc::clone(&heap),
        3,
    ))));

    // Allocate objects, free most, verify liveness drives the transfers.
    let mut vas = Vec::new();
    for _ in 0..256 {
        vas.push(heap.borrow_mut().malloc(256).expect("sized"));
    }
    for va in vas.iter().skip(1).step_by(2) {
        heap.borrow_mut().free(*va).expect("live");
    }
    for va in vas.iter().step_by(2) {
        node.write(0, *va, &[0x7E; 256]);
    }
    let probe_page = vas[0] & !4095;
    match heap.borrow().live_segments(probe_page, 3) {
        PageLiveness::Partial(segs) => assert!(segs.len() <= 3),
        PageLiveness::Full | PageLiveness::Empty => {}
    }
    // Churn to force guided evictions, then read everything back.
    let churn = node.ddc_alloc(256 * 4096);
    for p in 0..256u64 {
        node.write_u64(0, churn + p * 4096, p);
    }
    for va in vas.iter().step_by(2) {
        let mut buf = [0u8; 256];
        node.read(0, *va, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x7E));
    }
    assert!(node.stats().guided_evictions > 0);
    assert!(node.stats().writeback_bytes_saved > 0);
}

/// Writes one word per page over `churn`'s 256 pages, four times the node's
/// 64 local frames, so every page touched before has been evicted.
fn churn_out(node: &mut Dilos, churn: u64, round: u64) {
    for p in 0..256u64 {
        node.write_u64(0, churn + p * 4096, p ^ round);
    }
}

/// The heap's per-page liveness cache, end to end: a block handed out
/// after a guided eviction must make the next eviction write it back. A
/// vector left over from before the `malloc` names only the bottom half of
/// the page, so the write-back would drop the block and the refault would
/// read zeros.
#[test]
fn a_block_allocated_between_guided_evictions_keeps_its_bytes() {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    let region = node.ddc_alloc(1 << 22);
    let heap = Rc::new(RefCell::new(Heap::new(region, 1 << 22)));
    node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
        Rc::clone(&heap),
        3,
    ))));
    let churn = node.ddc_alloc(256 * 4096);

    // Fill one 256 B-class page (16 blocks), free blocks 8..15 and write
    // the eight survivors.
    let blocks: Vec<u64> = (0..16)
        .map(|_| heap.borrow_mut().malloc(256).expect("room"))
        .collect();
    let page = blocks[0];
    assert!(blocks.iter().all(|&b| b & !4095 == page), "one page");
    for &b in &blocks[8..] {
        heap.borrow_mut().free(b).expect("live");
    }
    for (i, &b) in blocks[..8].iter().enumerate() {
        node.write(0, b, &[i as u8 + 1; 256]);
    }
    churn_out(&mut node, churn, 1);
    assert!(matches!(node.pte_of(page), Pte::Action { .. }));
    assert_eq!(
        heap.borrow().live_segments(page, 3),
        PageLiveness::Partial([(0, 2048)].into()),
        "the first eviction logged the bottom half"
    );

    // The freed top half hands out block 8 again; fill it and evict again.
    let block8 = heap.borrow_mut().malloc(256).expect("room");
    assert_eq!(block8, blocks[8]);
    node.write(0, block8, &[0xAB; 256]);
    churn_out(&mut node, churn, 2);
    assert!(matches!(node.pte_of(page), Pte::Action { .. }));

    let mut buf = [0u8; 256];
    node.read(0, block8, &mut buf);
    assert!(buf.iter().all(|&b| b == 0xAB), "block 8 lost its bytes");
    for (i, &b) in blocks[..8].iter().enumerate() {
        node.read(0, b, &mut buf);
        assert!(buf.iter().all(|&v| v == i as u8 + 1), "survivor {i}");
    }
    assert!(node.stats().guided_evictions >= 2);
    let report = node.audit_report();
    assert!(report.is_empty(), "audit violations: {report:#?}");
}

#[test]
fn virtual_time_is_fully_deterministic_end_to_end() {
    let run = || {
        let mut node = Dilos::new(DilosConfig {
            local_pages: 96,
            remote_bytes: 1 << 24,
            ..DilosConfig::default()
        });
        node.set_prefetcher(Box::new(dilos::core::TrendBased::new()));
        let va = node.ddc_alloc(400 * 4096);
        for p in 0..400u64 {
            node.write_u64(0, va + p * 4096, p ^ 0xAA);
        }
        let mut acc = 0u64;
        for p in (0..400u64).rev() {
            acc ^= node.read_u64(0, va + p * 4096);
        }
        (
            acc,
            node.now(0),
            node.stats().major_faults,
            node.stats().evictions,
        )
    };
    assert_eq!(run(), run());
}
