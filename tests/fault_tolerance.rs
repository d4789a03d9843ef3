//! The §5.1 future-work extension, end to end: multiple memory nodes with
//! page striping and replication, surviving a memory-node failure.
//!
//! The paper leaves this open ("an asynchronous storage backup mechanism or
//! erasure-coding-based replication is one candidate approach … Extending
//! DiLOS to support multiple memory nodes for replication or sharding is a
//! future research direction"); this reproduction implements synchronous
//! replication over a sharded pool.

use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, Readahead};
use dilos::sim::{Fault, Observability, RecoverConfig, Redundancy, When};

fn ec_node(memory_nodes: usize, k: usize, m: usize) -> Dilos {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes,
        redundancy: Redundancy::Erasure { k, m },
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    n
}

fn node(memory_nodes: usize, replication: usize) -> Dilos {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes,
        redundancy: Redundancy::Replicas(replication),
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    n
}

/// Degraded and repaired runs must not just read back correctly — every
/// traced invariant has to hold too (frame conservation, PTE legality,
/// link-byte accounting, and the recovery invariants when armed).
fn assert_audit_clean(n: &mut Dilos, ctx: &str) {
    let report = n.audit_report();
    assert!(report.is_empty(), "{ctx}: audit violations: {report:#?}");
}

/// Fails memory node `node` now.
fn fail(n: &mut Dilos, node: usize) {
    n.inject(When::At(n.now(0)), Fault::Fail { node });
}

/// Populates a working set 4× the cache and returns its base (so a good
/// chunk of it lives on the memory nodes).
fn populate(n: &mut Dilos, pages: u64) -> u64 {
    let va = n.ddc_alloc(pages as usize * 4096);
    for p in 0..pages {
        n.write_u64(0, va + p * 4096, p.wrapping_mul(0x9E37));
    }
    va
}

#[test]
fn sharded_pool_behaves_like_one_big_node() {
    let mut single = node(1, 1);
    let mut sharded = node(4, 1);
    let va_s = populate(&mut single, 256);
    let va_m = populate(&mut sharded, 256);
    for p in 0..256u64 {
        assert_eq!(
            single.read_u64(0, va_s + p * 4096),
            sharded.read_u64(0, va_m + p * 4096),
            "page {p}"
        );
    }
    // Sharding spreads traffic over the four links.
    let (_, per_node_rx) = sharded.rdma().fabric().total_bytes();
    let (_, total_rx) = sharded.rdma().total_bytes();
    assert!(
        per_node_rx * 3 < total_rx,
        "node 0 carries {per_node_rx} of {total_rx} bytes — not spread"
    );
}

/// The `link_busy_ns` gauge is endpoint-wide: on a striped pool it counts
/// every node's link, not only node 0's.
#[test]
fn link_busy_gauge_covers_every_link_of_a_sharded_pool() {
    let obs = Observability::metered();
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes: 4,
        obs: obs.clone(),
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    let va = populate(&mut n, 256);
    for p in 0..256u64 {
        n.read_u64(0, va + p * 4096);
    }
    let series = obs.metrics().series();
    let last = series
        .iter()
        .find(|(name, _)| *name == "link_busy_ns")
        .and_then(|(_, points)| points.last())
        .map_or(0, |&(_, busy)| busy);
    let node0 = n.rdma().fabric().link_busy();
    assert!(
        last > node0,
        "gauge {last} ns does not exceed node 0's {node0} ns"
    );
}

#[test]
fn replicated_node_survives_memory_node_failure() {
    let mut n = node(3, 2);
    let pages = 256u64;
    let va = populate(&mut n, pages);

    // Kill one node mid-run; every page must still read back correctly.
    fail(&mut n, 1);
    for p in 0..pages {
        assert_eq!(
            n.read_u64(0, va + p * 4096),
            p.wrapping_mul(0x9E37),
            "page {p} lost after node failure"
        );
    }
    assert!(n.rdma().failovers() > 0, "some reads must have failed over");

    // Writes (evictions) keep flowing to the survivors: push a second
    // working set through and read it back.
    let vb = populate(&mut n, pages);
    for p in 0..pages {
        assert_eq!(n.read_u64(0, vb + p * 4096), p.wrapping_mul(0x9E37));
    }
    assert_audit_clean(&mut n, "degraded run");
}

#[test]
fn scheduled_repair_lands_at_its_virtual_time() {
    let mut n = node(3, 2);
    let pages = 256u64;
    let va = populate(&mut n, pages);

    fail(&mut n, 1);
    let repair_at = n.now(0) + 2_000_000;
    n.inject(When::At(repair_at), Fault::Repair { node: 1 });
    assert!(!n.rdma().node_alive(1), "repair must not apply eagerly");

    // Sweep the working set until the calendar brings node 1 back
    // mid-workload, resynced from the surviving replicas. (Events fire as
    // accesses advance the clock past them, so the repair lands on the
    // first access whose start time reaches `repair_at`.)
    let mut sweeps = 0;
    while !n.rdma().node_alive(1) {
        for p in 0..pages {
            assert_eq!(n.read_u64(0, va + p * 4096), p.wrapping_mul(0x9E37));
        }
        sweeps += 1;
        assert!(sweeps < 1_000, "repair event never dispatched");
    }
    assert!(
        n.now(0) >= repair_at,
        "repair applied before its scheduled virtual time"
    );

    // After repair the node serves reads again: kill a *different* node
    // and the pool still has a live copy of everything.
    fail(&mut n, 0);
    for p in 0..pages {
        assert_eq!(
            n.read_u64(0, va + p * 4096),
            p.wrapping_mul(0x9E37),
            "page {p} lost after post-repair failure"
        );
    }
    assert_audit_clean(&mut n, "repair + second failure");
}

#[test]
fn failover_costs_the_detection_timeout_once_per_node() {
    let mut n = node(2, 2);
    let va = populate(&mut n, 128);
    let before = n.now(0);
    fail(&mut n, 0);
    for p in 0..128u64 {
        let _ = n.read_u64(0, va + p * 4096);
    }
    let elapsed = n.now(0) - before;
    let timeout = n.config().sim.failover_detect_ns;
    assert!(
        elapsed > timeout,
        "first dead-node access must pay the retry timeout"
    );
    assert!(
        elapsed < timeout * 3,
        "the timeout must be paid once, not per access: {elapsed}"
    );
}

/// Every plan entry is checked at boot (and every `inject` call on the
/// same path): a fault naming a node outside the pool is refused up front.
#[test]
#[should_panic(expected = "fault node 3 out of range")]
fn a_fault_on_a_missing_node_is_refused_at_boot() {
    let faults = [
        (When::Completion(10), Fault::Fail { node: 1 }),
        (When::At(5_000), Fault::Repair { node: 3 }),
    ];
    let _ = Dilos::new(DilosConfig {
        remote_bytes: 1 << 24,
        memory_nodes: 3,
        redundancy: Redundancy::Replicas(2),
        faults: faults.into_iter().collect(),
        ..DilosConfig::default()
    });
}

#[test]
#[should_panic(expected = "all replicas")]
fn unreplicated_failure_is_fatal() {
    let mut n = node(2, 1);
    let va = populate(&mut n, 256);
    fail(&mut n, 0);
    // Touching enough pages guarantees hitting a lost shard.
    for p in 0..256u64 {
        let _ = n.read_u64(0, va + p * 4096);
    }
}

#[test]
fn replication_costs_eviction_bandwidth_not_fault_latency() {
    let run = |replication| {
        let mut n = node(3, replication);
        let va = populate(&mut n, 256);
        let t0 = n.now(0);
        for p in 0..256u64 {
            let _ = n.read_u64(0, va + p * 4096);
        }
        let read_time = n.now(0) - t0;
        let (tx, _) = n.rdma().total_bytes();
        (read_time, tx)
    };
    let (t1, tx1) = run(1);
    let (t2, tx2) = run(2);
    assert!(
        tx2 > tx1 * 3 / 2,
        "2-way replication must roughly double writeback traffic: {tx1} vs {tx2}"
    );
    // Fault latency is read-path; replication rides the write path.
    assert!(
        t2 < t1 + t1 / 4,
        "read-back must not slow down much under replication: {t1} vs {t2}"
    );
}

#[test]
fn erasure_coded_node_survives_failure_with_less_overhead() {
    // Same protection level (any one node may die), two mechanisms.
    let pages = 256u64;

    let mut repl = node(4, 2);
    let va = populate(&mut repl, pages);
    let repl_stored = repl.rdma().total_resident_pages();

    let mut ec = ec_node(4, 3, 1);
    let vb = populate(&mut ec, pages);
    let ec_stored = ec.rdma().total_resident_pages();

    // Erasure coding's advantage is storage: (k + m)/k = 1.33× instead of
    // replication's 2× (per-page parity deltas still cost eviction
    // bandwidth — Carbink's span batching would reclaim that too).
    assert!(
        ec_stored * 10 < repl_stored * 8,
        "EC must store markedly less than 2x replication: {ec_stored} vs {repl_stored} pages"
    );

    // Both survive a single node death with intact data.
    fail(&mut repl, 0);
    fail(&mut ec, 0);
    for p in 0..pages {
        assert_eq!(repl.read_u64(0, va + p * 4096), p.wrapping_mul(0x9E37));
        assert_eq!(ec.read_u64(0, vb + p * 4096), p.wrapping_mul(0x9E37));
    }
    assert!(
        ec.rdma().reconstructions() > 0,
        "EC reads must have decoded"
    );
    assert_audit_clean(&mut repl, "replicated degraded run");
    assert_audit_clean(&mut ec, "erasure-coded degraded run");
}

#[test]
fn erasure_coded_degraded_reads_are_slower_than_failover() {
    let pages = 192u64;
    let run = |mut n: Dilos| {
        let va = populate(&mut n, pages);
        fail(&mut n, 0);
        let t0 = n.now(0);
        for p in 0..pages {
            let _ = n.read_u64(0, va + p * 4096);
        }
        n.now(0) - t0
    };
    let t_repl = run(node(4, 2));
    let t_ec = run(ec_node(4, 3, 1));
    // Replication reads one replica; EC reads k shards per degraded access.
    assert!(
        t_ec > t_repl,
        "degraded EC reads must cost more than replica reads: {t_ec} vs {t_repl}"
    );
}

/// Boots a durable 3-node pool under `redundancy` (intent log sealed every
/// 8 records), crashes node 0 mid-run, writes and reads back during the
/// outage and after the repair, and returns the trace digest and event
/// count. The stream covers the erasure-coded write, degraded read and
/// recovery paths that no committed digest reaches.
fn durable_crash_run(redundancy: Redundancy) -> (u64, u64) {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes: 3,
        redundancy,
        recovery: Some(RecoverConfig {
            checkpoint_every: 8,
        }),
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    let pages = 256u64;
    let va = populate(&mut n, pages);
    let crash = Fault::Crash {
        node: 0,
        down_for: 2_000_000,
    };
    n.inject(When::At(n.now(0)), crash);
    assert!(!n.rdma().node_alive(0), "the crash applies at once");
    let second = |p: u64| p ^ 0x5A5A;
    for p in 0..pages {
        n.write_u64(0, va + p * 4096 + 8, second(p));
    }
    let read_back = |n: &mut Dilos, ctx: &str| {
        for p in 0..pages {
            assert_eq!(
                n.read_u64(0, va + p * 4096),
                p.wrapping_mul(0x9E37),
                "{ctx}"
            );
            assert_eq!(n.read_u64(0, va + p * 4096 + 8), second(p), "{ctx}");
        }
    };
    read_back(&mut n, "during the outage");
    let mut sweeps = 0;
    while !n.rdma().node_alive(0) {
        read_back(&mut n, "until the repair");
        sweeps += 1;
        assert!(sweeps < 1_000, "repair never dispatched");
    }
    for p in 0..pages {
        n.write_u64(0, va + p * 4096 + 16, !p);
    }
    read_back(&mut n, "after the repair");
    for p in 0..pages {
        assert_eq!(n.read_u64(0, va + p * 4096 + 16), !p, "after the repair");
    }
    let stats = n.recovery_stats();
    assert!(stats.recoveries == 1 && stats.replayed > 0, "{stats:?}");
    assert_audit_clean(&mut n, "durable crash run");
    (n.trace_digest(), n.trace().count())
}

/// Pins the stream of a durable erasure-coded run through a crash and its
/// recovery: every memory-node and link event, in order, at its time.
#[test]
fn durable_erasure_coded_crash_run_trace_is_pinned() {
    let (digest, events) = durable_crash_run(Redundancy::Erasure { k: 2, m: 1 });
    assert_eq!(
        (digest, events),
        (0xf884_4cc9_aecb_73cb, 34_832),
        "digest {digest:#x}, {events} events"
    );
}

/// [`durable_erasure_coded_crash_run_trace_is_pinned`] on 2-way replication.
#[test]
fn durable_replicated_crash_run_trace_is_pinned() {
    let (digest, events) = durable_crash_run(Redundancy::Replicas(2));
    assert_eq!(
        (digest, events),
        (0x1be6_bf23_76ef_0c04, 38_495),
        "digest {digest:#x}, {events} events"
    );
}
