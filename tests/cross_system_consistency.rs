//! Compatibility, executable: every workload computes bit-identical results
//! on DiLOS, Fastswap, and AIFM, at every local-memory ratio.
//!
//! This is the reproduction's version of the paper's central claim — the
//! memory system is transparent to the application.

use dilos::apps::dataframe::TaxiWorkload;
use dilos::apps::farmem::{FarArray, SystemKind, SystemSpec};
use dilos::apps::gapbs::GraphWorkload;
use dilos::apps::kmeans::KmeansWorkload;
use dilos::apps::quicksort::QuicksortWorkload;
use dilos::apps::snappy::SnappyWorkload;
use dilos::sim::{Observability, ServiceClass, SplitMix64};

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::DilosReadahead,
    SystemKind::DilosTrend,
    SystemKind::Fastswap,
    SystemKind::Aifm,
];

#[test]
fn quicksort_checksum_is_system_independent() {
    let wl = QuicksortWorkload {
        elements: 6_000,
        seed: 77,
    };
    let mut reference = None;
    for kind in SYSTEMS {
        for ratio in [13u32, 100] {
            let mut mem = SystemSpec::for_working_set(kind, 6_000 * 8, ratio).boot();
            let arr = wl.populate(mem.as_mut());
            wl.sort(mem.as_mut(), arr);
            assert!(wl.verify(mem.as_mut(), arr), "{} @ {ratio}%", kind.label());
            // Positional checksum: catches any permutation difference.
            let mut sum = 0u64;
            for i in 0..arr.len() {
                sum = sum
                    .wrapping_mul(31)
                    .wrapping_add(arr.get(mem.as_mut(), 0, i));
            }
            match reference {
                None => reference = Some(sum),
                Some(r) => assert_eq!(r, sum, "{} @ {ratio}%", kind.label()),
            }
        }
    }
}

#[test]
fn kmeans_centroids_are_system_independent() {
    let wl = KmeansWorkload {
        points: 6_000,
        k: 6,
        max_iters: 6,
        seed: 5,
    };
    let mut reference: Option<Vec<f64>> = None;
    for kind in SYSTEMS {
        let mut mem = SystemSpec::for_working_set(kind, 6_000 * 16, 25).boot();
        let pts = wl.populate(mem.as_mut());
        let r = wl.run(mem.as_mut(), pts);
        match &reference {
            None => reference = Some(r.centroids),
            Some(c) => assert_eq!(*c, r.centroids, "{}", kind.label()),
        }
    }
}

#[test]
fn taxi_analysis_is_system_independent() {
    let wl = TaxiWorkload {
        rows: 4_000,
        seed: 9,
    };
    let mut reference = None;
    for kind in SYSTEMS {
        let mut mem = SystemSpec::for_working_set(kind, wl.working_set(), 25).boot();
        let t = wl.populate(mem.as_mut());
        let mut a = wl.analyze(mem.as_mut(), &t);
        a.elapsed = 0;
        match &reference {
            None => reference = Some(a),
            Some(r) => assert_eq!(*r, a, "{}", kind.label()),
        }
    }
}

#[test]
fn pagerank_and_bc_are_system_independent() {
    let wl = GraphWorkload {
        scale: 8,
        edge_factor: 8,
        seed: 1,
        threads: 2,
    };
    let mut pr_ref: Option<Vec<f64>> = None;
    let mut bc_ref: Option<Vec<f64>> = None;
    for kind in [SystemKind::DilosReadahead, SystemKind::Fastswap] {
        let mut spec = SystemSpec::for_working_set(kind, wl.working_set(), 25);
        spec.cores = 2;
        let mut mem = spec.boot();
        let g = wl.build(mem.as_mut());
        let (pr, _) = wl.pagerank(mem.as_mut(), &g, 5);
        let (bc, _) = wl.betweenness(mem.as_mut(), &g, 2);
        match &pr_ref {
            None => pr_ref = Some(pr),
            Some(r) => assert_eq!(*r, pr, "{} PR", kind.label()),
        }
        match &bc_ref {
            None => bc_ref = Some(bc),
            Some(r) => assert_eq!(*r, bc, "{} BC", kind.label()),
        }
    }
}

#[test]
fn snappy_output_is_system_independent_and_correct() {
    let wl = SnappyWorkload {
        input_bytes: 128 * 1024,
        seed: 11,
    };
    let mut sizes = Vec::new();
    for kind in SYSTEMS {
        let mut mem = SystemSpec::for_working_set(kind, wl.input_bytes as u64 * 2, 13).boot();
        let src = wl.populate(mem.as_mut());
        let r = wl.compress_far(mem.as_mut(), src);
        sizes.push(r.out_bytes);
    }
    assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
}

/// A seeded random mix of reads and writes of varying lengths, replayed on
/// every system at every paper ratio. Each run is checked three ways: reads
/// must match a flat-memory model byte for byte, the fold of all reads must
/// agree across systems, and the DiLOS runs carry the invariant auditor,
/// which must stay silent.
#[test]
fn randomized_mixed_rw_is_system_independent() {
    const WS_PAGES: usize = 96;
    const WS: usize = WS_PAGES * 4096;
    const SEED: u64 = 0xC0FFEE;

    let mut reference: Option<u64> = None;
    for kind in SYSTEMS {
        for ratio in [13u32, 25, 50, 100] {
            let audited = matches!(kind, SystemKind::DilosReadahead | SystemKind::DilosTrend);
            let obs = if audited {
                Observability::audited()
            } else {
                Observability::tracing()
            };
            let mut mem = SystemSpec::for_working_set(kind, WS as u64, ratio)
                .observed(obs)
                .boot();
            let base = mem.alloc(WS);
            let mut model = vec![0u8; WS];
            let mut rng = SplitMix64::new(SEED);
            let mut fold = 0u64;
            for _ in 0..400 {
                let at = (rng.next_u64() as usize) % WS;
                let len = 1 + (rng.next_u64() as usize) % 6000.min(WS - at);
                if rng.next_u64().is_multiple_of(2) {
                    let stamp = rng.next_u64() as u8;
                    let data: Vec<u8> = (0..len).map(|i| stamp.wrapping_add(i as u8)).collect();
                    mem.write(0, base + at as u64, &data);
                    model[at..at + len].copy_from_slice(&data);
                } else {
                    let mut buf = vec![0u8; len];
                    mem.read(0, base + at as u64, &mut buf);
                    assert_eq!(
                        &buf[..],
                        &model[at..at + len],
                        "{} @ {ratio}%: read at {at} len {len}",
                        kind.label()
                    );
                    for b in buf {
                        fold = fold.wrapping_mul(131).wrapping_add(b as u64);
                    }
                }
            }
            match reference {
                None => reference = Some(fold),
                Some(r) => assert_eq!(r, fold, "{} @ {ratio}%", kind.label()),
            }
            assert_ne!(
                mem.trace_digest(),
                0,
                "{} @ {ratio}%: traced run must record",
                kind.label()
            );
            if audited {
                let report = mem.audit_report();
                assert!(
                    report.is_empty(),
                    "{} @ {ratio}%: audit violations: {report:#?}",
                    kind.label()
                );
            }
        }
    }
}

/// Trace-derived telemetry must agree with the hand-maintained counters:
/// the span profiler counts faults by watching `FaultBegin` events and
/// verbs and wire bytes by watching `RdmaIssue` / `LinkTransfer`, while
/// each system increments its own stats fields on the fault path and the
/// endpoint and fabric keep their own ledgers. A divergence means either
/// the trace or the stats lies about what ran.
#[test]
fn trace_derived_metrics_match_hand_counters() {
    const WS_PAGES: usize = 128;
    const WS: usize = WS_PAGES * 4096;

    for kind in SYSTEMS {
        for ratio in [13u32, 50] {
            let mut mem = SystemSpec::for_working_set(kind, WS as u64, ratio)
                .observed(Observability::metered())
                .boot();
            let base = mem.alloc(WS);
            let mut rng = SplitMix64::new(0xFEED_F00D);
            // A write pass to force zero-fills, then a random mix to force
            // majors/minors under pressure.
            for p in 0..WS_PAGES {
                mem.write_u64(0, base + (p * 4096) as u64, p as u64);
            }
            for _ in 0..500 {
                let at = ((rng.next_u64() as usize) % WS) & !7;
                if rng.next_u64().is_multiple_of(2) {
                    mem.write_u64(0, base + at as u64, at as u64);
                } else {
                    mem.read_u64(0, base + at as u64);
                }
            }
            // Quiesce so late minor-fault completions and background
            // reclaim are all delivered before comparing.
            mem.trace_digest();
            let profiler = mem.profiler();
            let (major, minor, zero) = mem.fault_counters();
            let tag = format!("{} @ {ratio}%", kind.label());
            assert_eq!(profiler.fault_count("major"), major, "{tag}: major");
            assert_eq!(profiler.fault_count("minor"), minor, "{tag}: minor");
            assert_eq!(profiler.fault_count("zero_fill"), zero, "{tag}: zero");
            assert!(major > 0, "{tag}: workload produced no major faults");
            // DiLOS keeps a per-phase breakdown; the profiler's phase sums
            // (derived from FaultPhase trace spans) must equal it exactly.
            for (phase, ns) in mem.phase_sums() {
                assert_eq!(
                    profiler.phase_sum(phase),
                    ns,
                    "{tag}: phase {phase} diverged"
                );
            }
            // The profiler's counters are folded from the stream; pin each
            // against a ledger that never reads it. Wire bytes: the fabric's
            // per-(tenant, class) rows, on every system.
            let wire = (
                profiler.counter_total("fabric_tx_bytes"),
                profiler.counter_total("fabric_rx_bytes"),
            );
            assert_eq!(wire, mem.net_bytes(), "{tag}: wire bytes (tx, rx)");
            // Verbs: the endpoint's per-class op counts (DiLOS exposes its
            // endpoint).
            if let Some(node) = mem.as_dilos() {
                let posted: u64 = ServiceClass::ALL
                    .iter()
                    .map(|&class| node.rdma().ops(class))
                    .map(|ops| ops.reads + ops.writes)
                    .sum();
                let issued =
                    profiler.counter_total("rdma_reads") + profiler.counter_total("rdma_writes");
                assert_eq!(issued, posted, "{tag}: verbs");
            }
        }
    }
}

/// The compatibility claim under fire: an erasure-coded DiLOS pool serving
/// degraded reads (one node manually dead) while the crash injector kills a
/// *second* node mid-workload computes the same answer as every healthy
/// system. k=2, m=2 tolerates both outages; recovery replays the victim's
/// intent log and reconciles from the surviving shards, and the auditor
/// (including the no-acknowledged-write-lost invariant) must stay silent.
#[test]
fn degraded_reads_with_concurrent_crash_match_healthy_systems() {
    use dilos::apps::farmem::FarMemory;
    use dilos::core::{Dilos, DilosConfig, Readahead};
    use dilos::sim::{Fault, RecoverConfig, Redundancy, When};

    const WS_PAGES: u64 = 128;
    const SEED: u64 = 0xEC0;

    fn populate(mem: &mut dyn FarMemory) -> u64 {
        let base = mem.alloc((WS_PAGES * 4096) as usize);
        for p in 0..WS_PAGES {
            mem.write_u64(0, base + p * 4096, SEED ^ p.wrapping_mul(0x9E37));
        }
        base
    }

    fn storm_and_fold(mem: &mut dyn FarMemory, base: u64) -> u64 {
        let mut rng = SplitMix64::new(SEED);
        for _ in 0..300 {
            let p = rng.next_u64() % WS_PAGES;
            let addr = base + p * 4096 + (rng.next_u64() % 500) * 8;
            if rng.next_u64().is_multiple_of(3) {
                mem.write_u64(0, addr, rng.next_u64());
            } else {
                let _ = mem.read_u64(0, addr);
            }
        }
        let mut fold = 0u64;
        for p in 0..WS_PAGES {
            fold = fold
                .wrapping_mul(131)
                .wrapping_add(mem.read_u64(0, base + p * 4096));
        }
        fold
    }

    // Reference: the same workload on every healthy system.
    let mut reference: Option<u64> = None;
    for kind in SYSTEMS {
        let mut mem = SystemSpec::for_working_set(kind, WS_PAGES * 4096, 25).boot();
        let base = populate(mem.as_mut());
        let fold = storm_and_fold(mem.as_mut(), base);
        match reference {
            None => reference = Some(fold),
            Some(r) => assert_eq!(r, fold, "{}", kind.label()),
        }
    }
    let reference = reference.expect("four systems ran");

    // The EC pool under double trouble, with the crash point calibrated
    // from an armed-but-uncrashed run of the same sequence.
    let ec_run = |crash_at: Option<u64>| {
        let mut n = Dilos::new(DilosConfig {
            local_pages: 32,
            remote_bytes: 1 << 24,
            memory_nodes: 4,
            redundancy: Redundancy::Erasure { k: 2, m: 2 },
            recovery: Some(RecoverConfig {
                checkpoint_every: 32,
            }),
            faults: crash_at
                .map(|at| {
                    let crash = Fault::Crash {
                        node: 2,
                        down_for: 1_500_000,
                    };
                    (When::Completion(at), crash)
                })
                .into_iter()
                .collect(),
            obs: Observability::audited(),
            ..DilosConfig::default()
        });
        n.set_prefetcher(Box::new(Readahead::new()));
        let base = populate(&mut n);
        // Degraded reads from here on.
        n.inject(When::At(n.now(0)), Fault::Fail { node: 0 });
        let fold = storm_and_fold(&mut n, base);
        let report = n.audit_report();
        let reconstructions = n.rdma().reconstructions();
        (fold, n.recovery_stats(), reconstructions, report)
    };
    let (fold_base, base_stats, _, base_report) = ec_run(None);
    assert!(base_report.is_empty(), "{base_report:#?}");
    assert_eq!(fold_base, reference, "degraded EC run diverged");

    let crash_at = base_stats.completions / 2;
    let (fold, stats, reconstructions, report) = ec_run(Some(crash_at));
    assert!(report.is_empty(), "audit violations: {report:#?}");
    assert_eq!(stats.crashes, 1, "injector never fired at {crash_at}");
    assert_eq!(stats.recoveries, 1, "victim never rejoined");
    assert!(reconstructions > 0, "no degraded read ever decoded");
    assert_eq!(
        fold, reference,
        "crash during degraded reads changed the computation"
    );
}

#[test]
fn far_array_bulk_ops_survive_pressure_everywhere() {
    for kind in SYSTEMS {
        let mut mem = SystemSpec::for_working_set(kind, 1 << 20, 13).boot();
        let arr = FarArray::new(mem.as_mut(), 32_768);
        let vals: Vec<u64> = (0..32_768u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for chunk in 0..64 {
            arr.write_range(
                mem.as_mut(),
                0,
                chunk * 512,
                &vals[chunk * 512..(chunk + 1) * 512],
            );
        }
        let mut out = vec![0u64; 512];
        for chunk in (0..64).rev() {
            arr.read_range(mem.as_mut(), 0, chunk * 512, &mut out);
            assert_eq!(
                out,
                vals[chunk * 512..(chunk + 1) * 512],
                "{}",
                kind.label()
            );
        }
    }
}
