//! An analytic oracle for virtual time: where the model has a closed form,
//! the fault latency it reports must equal that form, term by term.
//!
//! Every other virtual-time check in the workspace is a pin (a digest, a
//! byte-stable `results/` file) or an ordering against the paper; a pin
//! catches change, not error. These cases derive each expected value from
//! the node's own [`SimConfig`](dilos::sim::SimConfig) and the handler's
//! cost constants ([`PTE_CHECK_NS`], [`MAP_NS`]), never from a literal, so
//! a model that stops computing what its constants say fails here even
//! when it is deterministic.

use std::cell::RefCell;
use std::rc::Rc;

use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, FaultBreakdown, Readahead, MAP_NS, PTE_CHECK_NS};
use dilos::sim::{
    Fault, Ns, Observability, Page, RdmaEndpoint, Redundancy, Segment, ServiceClass, SimConfig,
    TraceEvent, TraceObserver, When, PAGE_SIZE,
};

/// Local cache of the oracle boots: far smaller than the region, so every
/// read-back misses.
const LOCAL_PAGES: usize = 64;

/// Boots `cfg`, writes `pages` pages (the page index into each), and
/// returns the node with the base of the region.
fn written(cfg: DilosConfig, pages: u64) -> (Dilos, u64) {
    let mut node = Dilos::new(cfg);
    let va = node.ddc_alloc(pages as usize * PAGE_SIZE);
    for i in 0..pages {
        node.write_u64(0, va + i * PAGE_SIZE as u64, i);
    }
    (node, va)
}

/// Reads the `pages` pages back in order and returns, per read, the
/// fault-latency breakdown it added. Asserts each read took exactly one
/// major fault and returned the page's own index.
fn read_back(node: &mut Dilos, va: u64, pages: u64) -> Vec<FaultBreakdown> {
    (0..pages)
        .map(|i| {
            let before = *node.stats();
            assert_eq!(node.read_u64(0, va + i * PAGE_SIZE as u64), i);
            let after = node.stats();
            assert_eq!(after.major_faults - before.major_faults, 1, "page {i}");
            assert_eq!(after.minor_faults, before.minor_faults, "page {i}");
            assert_eq!(after.zero_fills, before.zero_fills, "page {i}");
            let (a, b) = (after.breakdown, before.breakdown);
            FaultBreakdown {
                exception: a.exception - b.exception,
                check: a.check - b.check,
                alloc_wait: a.alloc_wait - b.alloc_wait,
                fetch: a.fetch - b.fetch,
                map: a.map - b.map,
                reclaim: a.reclaim - b.reclaim,
                count: a.count - b.count,
            }
        })
        .collect()
}

/// One demand fault of the default boot, in closed form: the exception, the
/// one page-table check, a 4 KiB one-sided read less the memory node's
/// huge-page saving, and the map. No frame wait and no reclaim: the
/// background reclaimer keeps the free list above its watermark.
fn demand_fault(cfg: &DilosConfig) -> FaultBreakdown {
    FaultBreakdown {
        exception: cfg.sim.hw_exception_ns,
        check: PTE_CHECK_NS,
        alloc_wait: 0,
        fetch: cfg.sim.rdma_read_ns(PAGE_SIZE) - cfg.sim.memnode_hugepage_saving_ns,
        map: MAP_NS,
        reclaim: 0,
        count: 1,
    }
}

/// (a) With no prefetcher, every read-back of a region 64× the cache is a
/// major fault whose phases are exactly the closed form.
#[test]
fn every_demand_fault_costs_its_closed_form() {
    let cfg = DilosConfig {
        local_pages: LOCAL_PAGES,
        ..DilosConfig::default()
    };
    let expected = demand_fault(&cfg);
    let pages = 4_096;
    let (mut node, va) = written(cfg, pages);
    for (i, fault) in read_back(&mut node, va, pages).into_iter().enumerate() {
        assert_eq!(fault, expected, "read-back of page {i}");
    }
}

/// (b) A replicated pair loses node 0 after the writes. The first fetch
/// that reaches the dead node pays the transport-retry timeout once before
/// failing over; every other fetch, before and after it, costs exactly what
/// case (a)'s does.
#[test]
fn the_first_fetch_to_a_dead_replica_adds_exactly_the_failover_timeout() {
    let cfg = DilosConfig {
        local_pages: LOCAL_PAGES,
        memory_nodes: 2,
        redundancy: Redundancy::Replicas(2),
        ..DilosConfig::default()
    };
    let expected = demand_fault(&cfg);
    let failover = FaultBreakdown {
        fetch: expected.fetch + cfg.sim.failover_detect_ns,
        ..expected
    };
    let pages = 512;
    let (mut node, va) = written(cfg, pages);
    node.inject(When::At(node.now(0)), Fault::Fail { node: 0 });
    let faults = read_back(&mut node, va, pages);
    let slow: Vec<usize> = (0..faults.len())
        .filter(|&i| faults[i] != expected)
        .collect();
    assert_eq!(slow.len(), 1, "exactly one fetch fails over: {slow:?}");
    assert_eq!(faults[slow[0]], failover);
}

/// The erasure-coded pool of cases (c) and (d): four memory nodes, k = 2
/// data lanes and m = 2 parity shards per span.
const EC_K: usize = 2;
const EC_NODES: usize = 4;

/// The memory node holding remote page `page`'s data lane: spans of `k`
/// pages, lane `l` of span `g` on node `(g + l) mod nodes`.
fn ec_data_node(page: u64) -> usize {
    let k = EC_K as u64;
    ((page / k + page % k) % EC_NODES as u64) as usize
}

/// (c) and (d), one boot. The pool idles after the writes so the cleaner's
/// write-backs drain, then reads everything back twice.
///
/// (c) Healthy, a read is one verb to the page's data node, so every
/// read-back costs case (a)'s closed form. The pass also writes back every
/// dirty page, so (d) runs on a clean cache with no write-back on the wire.
///
/// (d) Then data node 0 fails. A fetch whose data node died reads `k`
/// surviving shards in parallel from distinct nodes and decodes them at
/// `PAGE_SIZE · k / 2`; the first such fetch also pays the transport-retry
/// timeout. Every fetch whose data node lives still costs case (a)'s form.
#[test]
fn an_erasure_coded_fetch_costs_the_closed_form_plus_exactly_the_decode_when_degraded() {
    let cfg = DilosConfig {
        local_pages: LOCAL_PAGES,
        memory_nodes: EC_NODES,
        redundancy: Redundancy::Erasure { k: EC_K, m: 2 },
        ..DilosConfig::default()
    };
    let expected = demand_fault(&cfg);
    let degraded = FaultBreakdown {
        fetch: expected.fetch + (PAGE_SIZE * EC_K / 2) as u64,
        ..expected
    };
    let detected = FaultBreakdown {
        fetch: degraded.fetch + cfg.sim.failover_detect_ns,
        ..degraded
    };
    let pages = 512;
    let (mut node, va) = written(cfg, pages);
    // 10 ms of idle virtual time: ample for the write-backs in flight.
    node.compute(0, 10_000_000);
    for (i, fault) in read_back(&mut node, va, pages).into_iter().enumerate() {
        assert_eq!(fault, expected, "(c) read-back of page {i}");
    }
    node.inject(When::At(node.now(0)), Fault::Fail { node: 0 });
    let mut first = true;
    for (i, fault) in read_back(&mut node, va, pages).into_iter().enumerate() {
        if ec_data_node(i as u64) != 0 {
            assert_eq!(fault, expected, "(d) page {i}: its data node lives");
        } else if first {
            assert_eq!(fault, detected, "(d) page {i}: the first degraded fetch");
            first = false;
        } else {
            assert_eq!(fault, degraded, "(d) page {i}: degraded");
        }
    }
    assert!(!first, "(d) some fetch was degraded");
}

/// (e) Case (a)'s boot in TCP mode. The emulated transport adds its
/// per-completion handicap, `tcp_extra_cycles` at `cpu_ghz`, to every
/// verb, so every read-back costs case (a)'s closed form with exactly that
/// added to the fetch. The write pass's last write-backs complete later by
/// the same handicap; without the idle gap the first read-back waits for
/// their frames.
#[test]
fn a_tcp_mode_fetch_costs_the_closed_form_plus_exactly_the_tcp_handicap() {
    let cfg = DilosConfig {
        tcp_mode: true,
        local_pages: LOCAL_PAGES,
        ..DilosConfig::default()
    };
    let demand = demand_fault(&cfg);
    let expected = FaultBreakdown {
        fetch: demand.fetch + cfg.sim.tcp_extra_ns(),
        ..demand
    };
    let pages = 512;
    let (mut node, va) = written(cfg, pages);
    // 10 ms of idle virtual time, as in (c): the write-backs drain.
    node.compute(0, 10_000_000);
    for (i, fault) in read_back(&mut node, va, pages).into_iter().enumerate() {
        assert_eq!(fault, expected, "read-back of page {i}");
    }
}

/// The cleaner's write-back verbs of one run, in issue order: when each was
/// posted and when it completed.
#[derive(Default)]
struct WriteBacks {
    issued: Vec<Ns>,
    done: Vec<Ns>,
}

impl TraceObserver for WriteBacks {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        match *ev {
            TraceEvent::RdmaIssue {
                class: ServiceClass::Cleaner,
                write: true,
                bytes,
                ..
            } => {
                assert_eq!(bytes as usize, PAGE_SIZE, "a write-back moves one page");
                self.issued.push(t);
            }
            TraceEvent::RdmaComplete {
                class: ServiceClass::Cleaner,
                write: true,
                done,
                ..
            } => self.done.push(done),
            _ => {}
        }
    }
}

/// (f) The write-back verb. Writing a region 16× the cache evicts a dirty
/// page for nearly every write, and the cleaner writes each back as one
/// whole-page verb on its own queue pair. The verb holds that QP for the
/// doorbell plus the page's wire time, first in first out, and completes
/// the rest of the one-sided write latency, less the memory node's
/// huge-page saving, after it leaves the QP. So a write-back posted to an
/// idle QP costs exactly `rdma_write_ns(PAGE_SIZE) - saving`, and one
/// posted behind another starts when that one leaves the QP.
#[test]
fn every_write_back_costs_its_closed_form_behind_the_one_before_it() {
    let log = Rc::new(RefCell::new(WriteBacks::default()));
    let obs = Observability::tracing();
    obs.trace().attach(log.clone());
    let cfg = DilosConfig {
        local_pages: LOCAL_PAGES,
        obs,
        ..DilosConfig::default()
    };
    let s = &cfg.sim;
    let alone = s.rdma_write_ns(PAGE_SIZE) - s.memnode_hugepage_saving_ns;
    let hold = s.qp_doorbell_ns + s.wire_ns(PAGE_SIZE);
    let rest = alone - hold;
    let pages = 1_024;
    let (mut node, _) = written(cfg, pages);
    // Digesting quiesces: every write-back in flight completes.
    node.trace_digest();
    let log = log.borrow();
    assert_eq!(
        log.issued.len(),
        log.done.len(),
        "issues and completions pair up"
    );
    assert!(
        log.issued.len() as u64 > pages / 2,
        "too few write-backs: {}",
        log.issued.len()
    );
    let (mut qp_free, mut idle, mut queued) = (0, 0, 0);
    for (i, (&t, &done)) in log.issued.iter().zip(&log.done).enumerate() {
        let start = t.max(qp_free);
        if start > t {
            queued += 1;
        } else {
            idle += 1;
            assert_eq!(done - t, alone, "write-back {i} on an idle QP");
        }
        qp_free = start + hold;
        assert_eq!(done, qp_free + rest, "write-back {i} posted at {t}");
    }
    assert!(idle > 0 && queued > 0, "idle {idle}, queued {queued}");
}

/// (g) The vectored verb. A scatter read of `k` segments totalling `b`
/// bytes holds an idle endpoint's QP for the doorbell plus `b`'s wire time
/// and completes the rest of the one-sided read latency after it, less the
/// memory node's huge-page saving, plus the scatter/gather surcharge for
/// `k` entries: `rdma_read_ns(b) - saving + sg_extra_ns(k)`. One entry,
/// the last on the fast path, and one past it.
#[test]
fn a_vectored_read_on_an_idle_endpoint_costs_its_closed_form() {
    let s = SimConfig::default();
    let now = 1_000;
    for k in [1, s.sg_fast_segments, 6] {
        let mut ep = RdmaEndpoint::connect(s.clone(), 1 << 20);
        let segments: Vec<Segment> = (0..k)
            .map(|i| Segment {
                remote: (i * 512) as u64,
                offset: i * 512,
                len: 256,
            })
            .collect();
        let b = 256 * k;
        let mut buf = [0u8; PAGE_SIZE];
        let done = ep
            .read_v(now, 0, ServiceClass::Guide, &segments, &mut buf)
            .expect("an idle endpoint serves the vector");
        let expected = s.rdma_read_ns(b) - s.memnode_hugepage_saving_ns + s.sg_extra_ns(k);
        assert_eq!(done - now, expected, "{k} segments, {b} bytes");
    }
}

/// (h) Head-of-line blocking. With the shared-queue ablation every verb
/// of every core and class rides one queue pair, so a `Fault` read posted
/// behind a `Cleaner` write-back on another core waits for the write-back
/// to leave that QP (its doorbell plus the page's wire time) and then costs
/// exactly the read's closed form, `rdma_read_ns(PAGE_SIZE) - saving`. The
/// link is full duplex, so with per-core, per-module QPs the same read
/// costs the closed form alone.
#[test]
fn a_shared_queue_read_waits_exactly_for_the_write_back_ahead_of_it() {
    let s = SimConfig::default();
    let now = 1_000;
    let read_alone = s.rdma_read_ns(PAGE_SIZE) - s.memnode_hugepage_saving_ns;
    let write_leaves = now + s.qp_doorbell_ns + s.wire_ns(PAGE_SIZE);
    for (shared, expected) in [(false, now + read_alone), (true, write_leaves + read_alone)] {
        let mut ep = RdmaEndpoint::connect(s.clone(), 1 << 20);
        ep.set_shared_queue(shared);
        let page = [0u8; PAGE_SIZE];
        ep.write(now, 1, ServiceClass::Cleaner, 0, &page)
            .expect("an idle endpoint takes the write-back");
        let mut buf = [0u8; PAGE_SIZE];
        let done = ep
            .read(now, 0, ServiceClass::Fault, PAGE_SIZE as u64, &mut buf)
            .expect("the read follows the write-back");
        assert_eq!(done, expected, "shared queue {shared}");
    }
}

/// (i) The NVMe profile. [`SimConfig::nvme`] sets the huge-page saving to
/// zero, so on an idle endpoint a whole-page read completes exactly
/// `rdma_read_ns(PAGE_SIZE)` after it is posted and a whole-page write
/// exactly `rdma_write_ns(PAGE_SIZE)`: the saving lives in the
/// calibration alone, with no switch on the memory node.
#[test]
fn an_nvme_page_verb_costs_its_closed_form_with_no_saving() {
    let s = SimConfig::nvme();
    assert_eq!(s.memnode_hugepage_saving_ns, 0);
    let now = 1_000;
    let mut ep = RdmaEndpoint::connect(s.clone(), 1 << 20);
    let mut page: Page = Rc::new([0u8; PAGE_SIZE]);
    let done = ep
        .read_page(now, 0, ServiceClass::Fault, 0, &mut page)
        .expect("an idle endpoint serves the page");
    assert_eq!(done - now, s.rdma_read_ns(PAGE_SIZE), "read");
    let mut ep = RdmaEndpoint::connect(s.clone(), 1 << 20);
    let done = ep
        .write_page(now, 0, ServiceClass::Cleaner, 0, &page)
        .expect("an idle endpoint takes the page");
    assert_eq!(done - now, s.rdma_write_ns(PAGE_SIZE), "write");
}

/// (j) Readahead's bound. A sequential read-back of a region 64× the cache
/// moves its pages over one link, so the pass's inbound bytes per second of
/// virtual time are at most `link_bytes_per_sec`, with no prefetcher and
/// with [`Readahead`] alike. A bound, not a closed form: the window's
/// overlap with the faults is what a formula would add.
#[test]
fn a_sequential_read_back_never_outruns_the_link() {
    for readahead in [false, true] {
        let cfg = DilosConfig {
            local_pages: LOCAL_PAGES,
            ..DilosConfig::default()
        };
        let link = cfg.sim.link_bytes_per_sec;
        let pages = 4_096;
        let (mut node, va) = written(cfg, pages);
        if readahead {
            node.set_prefetcher(Box::new(Readahead::new()));
        }
        let (start, inbound) = (node.now(0), node.rdma().total_bytes().1);
        for i in 0..pages {
            assert_eq!(node.read_u64(0, va + i * PAGE_SIZE as u64), i, "page {i}");
        }
        let bytes = node.rdma().total_bytes().1 - inbound;
        let elapsed = node.now(0) - start;
        assert!(
            bytes >= pages * PAGE_SIZE as u64,
            "readahead {readahead}: {bytes} B"
        );
        let rate = bytes as f64 * 1e9 / elapsed as f64;
        assert!(
            rate <= link,
            "readahead {readahead}: {rate:.4e} B/s over a {link:.4e} B/s link"
        );
    }
}
