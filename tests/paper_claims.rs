//! The paper's major claims (artifact appendix §A.4.1), as assertions.
//!
//! These are scaled-down versions of the claims the benches regenerate in
//! full; each test checks the *direction and rough magnitude* of a headline
//! result. Everything runs in virtual time, so the assertions are exact and
//! deterministic.

use std::cell::RefCell;
use std::rc::Rc;

use dilos::alloc::Heap;
use dilos::apps::farmem::{Introspect, SystemKind, SystemSpec};
use dilos::apps::redis::{LrangeBench, RedisBench, RedisGuide, RedisServer, ValueSizes};
use dilos::apps::seqrw::SeqWorkload;
use dilos::baselines::{Fastswap, FastswapConfig};
use dilos::core::{Dilos, DilosConfig, HeapPagingGuide, Readahead};
use dilos_bench::redis_exp::{lrange_run, RedisScale, RedisSystem};

/// C1 (µ-bench form): DiLOS beats Fastswap on sequential read at 12.5 %
/// local memory, and the paging subsystem's fault handler is ~2× cheaper.
#[test]
fn c1_dilos_outperforms_fastswap_on_sequential_read() {
    let pages = 1024usize;
    let wl = SeqWorkload { pages };

    let mut fsw = Fastswap::new(FastswapConfig {
        local_pages: 128,
        remote_bytes: 1 << 26,
        ..FastswapConfig::default()
    });
    let base = wl.populate(&mut fsw);
    let f = wl.read_pass(&mut fsw, base);

    let mut spec =
        SystemSpec::for_working_set(SystemKind::DilosReadahead, (pages * 4096) as u64, 13);
    spec.local_pages = 128;
    let mut dil = spec.boot();
    let base = wl.populate(dil.as_mut());
    let d = wl.read_pass(dil.as_mut(), base);

    assert!(
        d.gbps() > 2.0 * f.gbps(),
        "DiLOS readahead {:.2} GB/s vs Fastswap {:.2} GB/s",
        d.gbps(),
        f.gbps()
    );
    // Figure 6: DiLOS's average fault is roughly half of Fastswap's.
    let d_fault = dil.as_dilos().expect("dilos").stats().breakdown.avg_total();
    let f_fault = fsw.stats().breakdown.avg_total();
    assert!(
        2 * d_fault < f_fault + f_fault / 2,
        "DiLOS {d_fault} ns vs Fastswap {f_fault} ns per fault"
    );
    // And the reclaim phase is fully hidden in DiLOS.
    assert_eq!(dil.as_dilos().expect("dilos").stats().breakdown.reclaim, 0);
    assert!(fsw.stats().breakdown.reclaim > 0);
}

fn boot_redis_dilos(
    guided: bool,
    local_pages: usize,
    heap_bytes: u64,
) -> (Dilos, RedisServer, Rc<RefCell<RedisGuide>>) {
    let mut node = Dilos::new(DilosConfig {
        local_pages,
        remote_bytes: (heap_bytes * 2).next_power_of_two().max(1 << 24),
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));
    let base = node.ddc_alloc(heap_bytes as usize);
    let heap = Rc::new(RefCell::new(Heap::new(base, heap_bytes)));
    let guide = Rc::new(RefCell::new(RedisGuide::new()));
    if guided {
        node.set_prefetch_guide(guide.clone());
        node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
            Rc::clone(&heap),
            3,
        ))));
    }
    let mut server = RedisServer::new(heap, &mut node, 4096);
    if guided {
        server.attach_guide(guide.clone());
    }
    (node, server, guide)
}

/// C2: the app-aware prefetcher beats general-purpose prefetching on
/// LRANGE (the paper reports +62 %).
#[test]
fn c2_app_aware_prefetcher_wins_on_lrange() {
    let run = |guided: bool| {
        let (mut node, mut server, guide) = boot_redis_dilos(guided, 128, 8 << 20);
        let bench = LrangeBench {
            lists: 16,
            elements: 2_400,
            elem_size: 400,
            seed: 3,
        };
        bench.populate(&mut server, &mut node);
        let r = bench.run(&mut server, &mut node, 80);
        let assists = guide.borrow().stats.lrange_assists;
        (r.qps(), assists)
    };
    let (plain, _) = run(false);
    let (aware, assists) = run(true);
    assert!(assists > 0, "the guide must have been driven");
    assert!(
        aware > 1.25 * plain,
        "app-aware {aware:.0} req/s vs readahead {plain:.0} req/s"
    );
}

/// Fig. 10's LRANGE sentence, on the rows `results/fig10.md` prints:
/// "general-purpose prefetchers gain nothing" — a range query is a pointer
/// chase across quicklist nodes, so readahead lands within a few percent of
/// no-prefetch at every local ratio, and only the app-aware guide wins
/// (C2, +62 % in the paper). Readahead used to gain 27 % at 50 % local by
/// fetching `vpn + 1` on every fault whether or not anyone touched it.
#[test]
fn lrange_general_purpose_prefetch_gains_nothing() {
    let qps = |sys, ratio| lrange_run(&RedisScale::default(), sys, ratio).qps();
    let readahead = RedisSystem::Kind(SystemKind::DilosReadahead);
    for ratio in [13, 25, 50] {
        let none = qps(RedisSystem::Kind(SystemKind::DilosNoPrefetch), ratio);
        let ra = qps(readahead, ratio);
        assert!(
            (ra / none - 1.0).abs() <= 0.06,
            "readahead {ra:.0} req/s vs no-prefetch {none:.0} req/s at {ratio} % local"
        );
    }
    let (aware, ra) = (qps(RedisSystem::AppAware, 13), qps(readahead, 13));
    assert!(
        aware > 1.5 * ra,
        "app-aware {aware:.0} req/s vs readahead {ra:.0} req/s at 12.5 % local"
    );
}

/// C3: guided paging reduces network traffic on a fragmented keyspace
/// (the paper reports 12 % for DEL and 29 % for GET).
#[test]
fn c3_guided_paging_reduces_bandwidth() {
    let run = |guided: bool| {
        let (mut node, mut server, _) = boot_redis_dilos(guided, 48, 8 << 20);
        let bench = RedisBench {
            keys: 2_048,
            sizes: ValueSizes::Fixed(128),
            seed: 5,
        };
        bench.populate(&mut server, &mut node);
        let deleted = bench.run_dels(&mut server, &mut node, 70);
        let (tx0, rx0) = Introspect::net_bytes(&node);
        bench.run_gets_surviving(&mut server, &mut node, &deleted, 400);
        let (tx1, rx1) = Introspect::net_bytes(&node);
        (tx1 - tx0) + (rx1 - rx0)
    };
    let unguided = run(false);
    let guided = run(true);
    assert!(
        (guided as f64) < 0.85 * unguided as f64,
        "guided {guided} bytes vs unguided {unguided} bytes"
    );
}

/// Table 1's shape: Fastswap's sequential read is dominated by minor
/// faults from the swap cache; DiLOS's prefetchers produce strictly fewer
/// total faults.
#[test]
fn fault_count_shape_tables_1_and_3() {
    let pages = 1024usize;
    let wl = SeqWorkload { pages };

    let mut fsw = Fastswap::new(FastswapConfig {
        local_pages: 128,
        remote_bytes: 1 << 26,
        ..FastswapConfig::default()
    });
    let b = wl.populate(&mut fsw);
    wl.read_pass(&mut fsw, b);
    let fs = fsw.stats();
    assert!(
        fs.minor_faults >= 6 * fs.major_faults,
        "~87.5 % minor: {} vs {}",
        fs.minor_faults,
        fs.major_faults
    );

    let mut spec =
        SystemSpec::for_working_set(SystemKind::DilosReadahead, (pages * 4096) as u64, 13);
    spec.local_pages = 128;
    let mut dil = spec.boot();
    let b = wl.populate(dil.as_mut());
    wl.read_pass(dil.as_mut(), b);
    let (dmaj, dmin) = dil.fault_counts();
    assert!(
        dmaj + dmin < fs.major_faults + fs.minor_faults,
        "DiLOS total faults {} must undercut Fastswap {}",
        dmaj + dmin,
        fs.major_faults + fs.minor_faults
    );
}

/// AIFM's two signatures: it loses at 100 % local memory (per-deref tax)
/// while staying competitive under pressure on sequential scans.
#[test]
fn aifm_tradeoff_shape() {
    use dilos::apps::snappy::SnappyWorkload;
    let wl = SnappyWorkload {
        input_bytes: 256 * 1024,
        seed: 1,
    };
    let run = |kind, ratio| {
        let mut mem = SystemSpec::for_working_set(kind, wl.input_bytes as u64 * 2, ratio).boot();
        let src = wl.populate(mem.as_mut());
        wl.roundtrip_far(mem.as_mut(), src).elapsed
    };
    // At 12.5 %, AIFM must beat Fastswap clearly (paper: 35–40 % gap).
    let aifm_tight = run(SystemKind::Aifm, 13);
    let fsw_tight = run(SystemKind::Fastswap, 13);
    assert!(
        aifm_tight < fsw_tight,
        "AIFM {aifm_tight} vs Fastswap {fsw_tight} at 12.5 %"
    );
    // At 100 %, AIFM is "similar to or slower than DiLOS" (§6.2) — the
    // per-deref checks stop paying off. Allow a 5 % tolerance on "similar";
    // snappy's bulk reads amortize the deref tax almost completely.
    let aifm_full = run(SystemKind::Aifm, 100);
    let dilos_full = run(SystemKind::DilosReadahead, 100);
    assert!(
        aifm_full * 100 >= dilos_full * 95,
        "AIFM {aifm_full} vs DiLOS {dilos_full} at 100 %"
    );
}
