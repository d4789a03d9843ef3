//! Ablation experiments for the design choices §6 enumerates.
//!
//! Each DiLOS design decision is toggleable in `DilosConfig`; this bench
//! quantifies what each one buys on the sequential-read workload, plus a
//! vector-length sweep for guided paging (the §6.3 "no longer than three"
//! finding).

use std::cell::RefCell;
use std::rc::Rc;

use dilos_alloc::Heap;
use dilos_apps::farmem::{cache_sizing, FarMemory, Introspect};
use dilos_apps::seqrw::SeqWorkload;
use dilos_core::{Dilos, DilosConfig, HeapPagingGuide, Readahead};
use dilos_sim::PAGE_SIZE;

use crate::table::{f2, us, Report};

fn boot(pages: usize, ratio: u32, tweak: impl Fn(&mut DilosConfig)) -> Dilos {
    let (local_pages, remote_bytes) = cache_sizing((pages * PAGE_SIZE) as u64, ratio);
    let mut cfg = DilosConfig {
        local_pages,
        remote_bytes,
        ..DilosConfig::default()
    };
    tweak(&mut cfg);
    let mut node = Dilos::new(cfg);
    node.set_prefetcher(Box::new(Readahead::new()));
    node
}

/// The design-choice ablation: sequential read with each DiLOS feature
/// individually disabled.
pub fn ablation_design_choices(pages: usize) -> Report {
    let mut report = Report::new(
        "Ablation — DiLOS design choices, sequential read+write (12.5 % local)",
        &[
            "config",
            "read GB/s",
            "write GB/s",
            "avg fault (µs)",
            "major",
            "minor",
        ],
    );
    #[expect(
        clippy::type_complexity,
        reason = "a local table of labelled config edits, read once below"
    )]
    let cases: Vec<(&str, Box<dyn Fn(&mut DilosConfig)>)> = vec![
        ("DiLOS (full)", Box::new(|_: &mut DilosConfig| {})),
        (
            "+ swap cache (Linux-style)",
            Box::new(|c| c.swap_cache_mode = true),
        ),
        (
            "+ direct reclaim (in handler)",
            Box::new(|c| c.direct_reclaim = true),
        ),
        (
            "+ shared queue (HoL blocking)",
            Box::new(|c| c.shared_queue = true),
        ),
        ("- hit tracker", Box::new(|c| c.hit_tracker = false)),
    ];
    for (label, tweak) in cases {
        let mut node = boot(pages, 13, &tweak);
        let wl = SeqWorkload { pages };
        let base = wl.populate(&mut node);
        let r = wl.read_pass(&mut node, base);
        let s = *node.stats();
        let mut node2 = boot(pages, 13, &tweak);
        let base2 = wl.populate(&mut node2);
        let w = wl.write_pass(&mut node2, base2);
        report.row(vec![
            label.to_string(),
            f2(r.gbps()),
            f2(w.gbps()),
            us(s.breakdown.avg_total()),
            s.major_faults.to_string(),
            s.minor_faults.to_string(),
        ]);
    }
    report
        .note("Each row re-adds one overhead DiLOS's design removes; the full config should lead.");
    report
}

/// §5.1's transport discussion: the DiLOS design choices still pay off when
/// far memory is an NVMe drive instead of RDMA — the I/O is slower, so the
/// *relative* win shrinks, but the ordering holds.
pub fn ablation_transport(pages: usize) -> Report {
    use dilos_baselines::{Fastswap, FastswapConfig};
    use dilos_sim::SimConfig;
    let mut report = Report::new(
        "Ablation — transport: RDMA vs NVMe far memory (12.5 % local, seq read)",
        &["transport", "system", "GB/s", "avg fault (µs)"],
    );
    let (local_pages, remote_bytes) = cache_sizing((pages * PAGE_SIZE) as u64, 13);
    for (label, sim) in [
        ("RDMA 100GbE", SimConfig::default()),
        ("NVMe", SimConfig::nvme()),
    ] {
        // DiLOS.
        let mut cfg = DilosConfig {
            local_pages,
            remote_bytes,
            ..DilosConfig::default()
        };
        cfg.sim = sim.clone();
        let mut node = Dilos::new(cfg);
        node.set_prefetcher(Box::new(Readahead::new()));
        let wl = SeqWorkload { pages };
        let base = wl.populate(&mut node);
        let r = wl.read_pass(&mut node, base);
        report.row(vec![
            label.to_string(),
            "DiLOS readahead".to_string(),
            f2(r.gbps()),
            us(node.stats().breakdown.avg_total()),
        ]);
        // Fastswap.
        let mut fcfg = FastswapConfig {
            local_pages,
            remote_bytes,
            ..FastswapConfig::default()
        };
        fcfg.sim = sim;
        let mut fsw = Fastswap::new(fcfg);
        let base = wl.populate(&mut fsw);
        let r = wl.read_pass(&mut fsw, base);
        report.row(vec![
            label.to_string(),
            "Fastswap".to_string(),
            f2(r.gbps()),
            us(fsw.stats().breakdown.avg_total()),
        ]);
    }
    report.note("§5.1: with NVMe the I/O dominates, shrinking (not erasing) DiLOS's software win.");
    report
}

/// The scatter/gather vector-length sweep (§6.3: vectors longer than three
/// slow down).
pub fn ablation_vector_length(pages: usize) -> Report {
    let mut report = Report::new(
        "Ablation — guided-paging vector length cap",
        &[
            "max segments",
            "elapsed (µs)",
            "rx bytes",
            "fetch bytes saved",
        ],
    );
    for cap in [1usize, 2, 3, 6, 12] {
        let mut node = boot(pages, 25, |_| {});
        let heap_bytes = (pages * 4096 / 2) as u64;
        let base = node.ddc_alloc(heap_bytes as usize);
        let heap = Rc::new(RefCell::new(Heap::new(base, heap_bytes)));
        node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
            Rc::clone(&heap),
            cap,
        ))));
        // Build a fragmented heap: allocate 64 B objects, free 3 of every 4.
        let mut vas = Vec::new();
        let count = pages * 16;
        for _ in 0..count {
            vas.push(heap.borrow_mut().malloc(64).expect("heap sized for this"));
        }
        for (i, va) in vas.iter().enumerate() {
            if i % 4 != 0 {
                heap.borrow_mut().free(*va).expect("live");
            }
        }
        let live: Vec<u64> = vas.iter().copied().step_by(4).collect();
        for &va in &live {
            node.write(0, va, &[0xAB; 64]);
        }
        // Churn to force the fragmented pages out, then read the survivors.
        let churn_pages = node.config().local_pages * 4;
        let churn = node.ddc_alloc(churn_pages * 4096);
        for p in 0..churn_pages as u64 {
            node.write_u64(0, churn + p * 4096, p);
        }
        let t0 = node.now(0);
        let mut buf = [0u8; 64];
        for &va in &live {
            Dilos::read(&mut node, 0, va, &mut buf);
        }
        let elapsed = node.now(0) - t0;
        let (_, rx) = Introspect::net_bytes(&node);
        report.row(vec![
            cap.to_string(),
            us(elapsed),
            rx.to_string(),
            node.stats().fetch_bytes_saved.to_string(),
        ]);
    }
    report.note("Past three segments the per-segment penalty outweighs the bytes saved (§6.3).");
    report
}
