//! Memory-node failure, survived: the §5.1 future-work extension running.
//!
//! Boots DiLOS against a pool of three memory nodes with 2-way page
//! replication and durable crash-recovery state (checkpoints + a
//! write-intent log), pushes a working set out to the pool, injects a node
//! failure into the fault plan, and keeps running; a second plan entry
//! repairs the node at a later virtual instant. The whole run is audited:
//! beyond correct reads, every traced invariant — including "no
//! acknowledged write lost" and "no frame resurrected" — must hold through
//! the outage and the repair.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, Readahead};
use dilos::sim::{Fault, Observability, RecoverConfig, Redundancy, When};

fn main() {
    let mut node = Dilos::new(DilosConfig {
        local_pages: 128,
        remote_bytes: 1 << 26,
        memory_nodes: 3,
        redundancy: Redundancy::Replicas(2),
        recovery: Some(RecoverConfig::default()),
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));
    println!("compute node up: 3 memory nodes, 2-way replication, 512 KiB local cache");
    println!("durable state armed: checkpoints + write-intent log on every memory node\n");

    // A 4 MiB working set: most of it lives on the memory-node pool.
    let pages = 1024u64;
    let va = node.ddc_alloc(pages as usize * 4096);
    for p in 0..pages {
        node.write_u64(0, va + p * 4096, p.wrapping_mul(0xABCD));
    }
    let (tx, _) = node.rdma().total_bytes();
    println!(
        "populated {} pages; {:.1} MiB written back to the pool (2 copies each)",
        pages,
        tx as f64 / (1 << 20) as f64
    );

    // Disaster strikes: a fault due now applies at once.
    node.inject(When::At(node.now(0)), Fault::Fail { node: 1 });
    println!("\n*** memory node 1 just died ***\n");

    // The application never notices: every page reads back correctly.
    let t0 = node.now(0);
    let mut errors = 0u64;
    for p in 0..pages {
        if node.read_u64(0, va + p * 4096) != p.wrapping_mul(0xABCD) {
            errors += 1;
        }
    }
    let elapsed = node.now(0) - t0;
    println!("re-read all {pages} pages: {errors} corrupted");
    println!(
        "failovers: {} reads served by replicas; one-time detection cost {:.2} ms",
        node.rdma().failovers(),
        node.config().sim.failover_detect_ns as f64 / 1e6
    );
    println!(
        "re-read took {:.2} ms of virtual time",
        elapsed as f64 / 1e6
    );

    // And the system keeps making progress on the survivors.
    let vb = node.ddc_alloc(512 * 4096);
    for p in 0..512u64 {
        node.write_u64(0, vb + p * 4096, p);
    }
    for p in 0..512u64 {
        assert_eq!(node.read_u64(0, vb + p * 4096), p);
    }
    println!(
        "\nnew working set allocated, evicted, and re-fetched on the surviving nodes — all good"
    );

    // An operator plans the repair for 5 ms out (virtual time). The event
    // calendar wakes the plan mid-workload: node 1 comes back online and
    // resynchronizes from the surviving replicas, and subsequent reads stop
    // paying the failover path.
    let repair_at = node.now(0) + 5_000_000;
    node.inject(When::At(repair_at), Fault::Repair { node: 1 });
    println!(
        "\nrepair of node 1 scheduled at t = {:.2} ms",
        repair_at as f64 / 1e6
    );

    let failovers_before = node.rdma().failovers();
    let mut sweeps = 0u32;
    while node.now(0) < repair_at + 1_000_000 {
        for p in 0..pages {
            assert_eq!(node.read_u64(0, va + p * 4096), p.wrapping_mul(0xABCD));
        }
        sweeps += 1;
    }
    println!(
        "node 1 repaired mid-workload ({} sweeps, {} failovers during the outage window); \
         pool healthy again at t = {:.2} ms",
        sweeps,
        node.rdma().failovers() - failovers_before,
        node.now(0) as f64 / 1e6
    );
    assert!(node.rdma().node_alive(1), "repair event must have landed");

    let stats = node.recovery_stats();
    println!(
        "recovery replayed {} intent records and reconciled {} pages from \
         the survivors ({:.2} ms modeled)",
        stats.replayed,
        stats.reconciled,
        stats.recovery_ns as f64 / 1e6
    );

    // The auditor watched the whole run — outage, failovers, replay,
    // resync — and every invariant must have held.
    let report = node.audit_report();
    assert!(report.is_empty(), "audit violations: {report:#?}");
    println!("audit: clean — no acknowledged write lost, no frame resurrected");
}
