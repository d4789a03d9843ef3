//! The tentpole proof: memnode crash–recovery with detectable replay,
//! established by a crash-at-any-event sweep.
//!
//! The recovery model gives every memory node durable state — a periodic
//! checkpoint of its page/region tables plus a write-intent log appended
//! *before* any remote write or eviction writeback is acknowledged — and a
//! fault plan that can crash any node at any data-path completion index.
//! Recovery replays the intent log onto the last checkpoint, reconciles
//! with the surviving replicas, and rejoins through the repair the crash
//! planned on the calendar.
//!
//! The sweep boots the same seeded workload, crashes at every sampled event
//! index, recovers, and asserts three things for each crash point:
//!
//! 1. **Audit-clean**: every invariant holds, including the two this model
//!    adds — no acknowledged write lost, no frame resurrected.
//! 2. **Data-complete**: the post-recovery read-back checksum equals the
//!    crash-free run's.
//! 3. **Deterministic**: a second boot at the same (seed, crash-point)
//!    pair emits a byte-identical trace digest.
//!
//! A second case plans two crash/recovery cycles, on two nodes, in one run.

use std::cell::RefCell;
use std::rc::Rc;

use dilos::core::{Dilos, DilosConfig, Readahead};
use dilos::sim::recover::{REPLAY_NS_PER_RECORD, RESYNC_NS_PER_PAGE};
use dilos::sim::{
    Fault, Ns, Observability, RecoverConfig, RecoveryStats, Redundancy, TraceEvent, TraceObserver,
    When,
};

/// SplitMix64: a tiny deterministic PRNG for the driver workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const WS_PAGES: u64 = 256;
const SEED: u64 = 0xC4A5;
/// Crash points sampled from the crash-free run's completion count.
const SWEEP_SAMPLES: u64 = 12;

/// Boots with one planned crash per `(completion index, node)` pair, each
/// node down for 1.5 ms.
fn boot(crashes: &[(u64, usize)], obs: Observability) -> Dilos {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes: 3,
        redundancy: Redundancy::Replicas(2),
        recovery: Some(RecoverConfig {
            checkpoint_every: 32,
        }),
        faults: crashes
            .iter()
            .map(|&(at, node)| {
                let crash = Fault::Crash {
                    node,
                    down_for: 1_500_000,
                };
                (When::Completion(at), crash)
            })
            .collect(),
        obs,
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    n
}

/// Seeded mixed workload (populate, random read/write storm, full read-back
/// pass), 4× the cache so evictions keep the intent log busy. Returns the
/// read-back checksum — identical across runs iff no write was lost.
fn drive(n: &mut Dilos, seed: u64) -> u64 {
    let va = n.ddc_alloc((WS_PAGES * 4096) as usize);
    for p in 0..WS_PAGES {
        n.write_u64(0, va + p * 4096, seed ^ p);
    }
    let mut rng = Rng(seed);
    for _ in 0..400 {
        let p = rng.next() % WS_PAGES;
        let addr = va + p * 4096 + (rng.next() % 500) * 8;
        if rng.next().is_multiple_of(3) {
            n.write_u64(0, addr, rng.next());
        } else {
            let _ = n.read_u64(0, addr);
        }
    }
    let mut fold = 0u64;
    for p in 0..WS_PAGES {
        fold = fold
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(n.read_u64(0, va + p * 4096));
    }
    fold
}

/// One crash or recovery completion, as the trace reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cycle {
    /// Node crashed with this many intents logged since its last seal.
    Crash { node: u8, log_depth: u64 },
    Recovered {
        node: u8,
        replayed: u64,
        reconciled: u64,
    },
}

/// Records every [`Cycle`] in trace order, tracking each node's intent-log
/// depth (appends since its last checkpoint) to report it at a crash.
#[derive(Default)]
struct Cycles {
    depth: [u64; 3],
    seen: Vec<Cycle>,
}

impl TraceObserver for Cycles {
    fn on_event(&mut self, _t: Ns, ev: &TraceEvent) {
        match *ev {
            TraceEvent::IntentAppend { node, .. } => self.depth[usize::from(node)] += 1,
            TraceEvent::Checkpoint { node, .. } => self.depth[usize::from(node)] = 0,
            TraceEvent::NodeCrash { node } => self.seen.push(Cycle::Crash {
                node,
                log_depth: self.depth[usize::from(node)],
            }),
            TraceEvent::RecoveryComplete {
                node,
                replayed,
                reconciled,
            } => self.seen.push(Cycle::Recovered {
                node,
                replayed,
                reconciled,
            }),
            _ => {}
        }
    }
}

struct Run {
    digest: u64,
    fold: u64,
    stats: RecoveryStats,
    report: Vec<String>,
    cycles: Vec<Cycle>,
}

fn run(crashes: &[(u64, usize)]) -> Run {
    let obs = Observability::audited();
    let cycles = Rc::new(RefCell::new(Cycles::default()));
    obs.trace().attach(cycles.clone());
    let mut n = boot(crashes, obs);
    let fold = drive(&mut n, SEED);
    let report = n.audit_report();
    let digest = n.trace_digest();
    let cycles = cycles.borrow().seen.clone();
    Run {
        digest,
        fold,
        stats: n.recovery_stats(),
        report,
        cycles,
    }
}

/// The sweep: crash the victim at every sampled completion index, recover,
/// and require audit-clean state, the crash-free checksum, and a
/// byte-identical digest on a second boot of the same crash point.
#[test]
fn crash_at_any_sampled_event_recovers_clean_and_deterministic() {
    let baseline = run(&[]);
    assert!(
        baseline.report.is_empty(),
        "crash-free run must audit clean: {:#?}",
        baseline.report
    );
    assert_eq!(
        baseline.stats.crashes, 0,
        "injector must stay quiet unarmed"
    );
    let total = baseline.stats.completions;
    assert!(
        total > SWEEP_SAMPLES,
        "workload too small to sample {SWEEP_SAMPLES} crash points ({total} completions)"
    );

    let stride = total / SWEEP_SAMPLES;
    let mut crash_points = Vec::new();
    let mut at = 1;
    while at <= total {
        crash_points.push(at);
        at += stride;
    }
    for &crash_at in &crash_points {
        let a = run(&[(crash_at, 1)]);
        assert!(
            a.report.is_empty(),
            "crash at event {crash_at}: audit violations: {:#?}",
            a.report
        );
        assert_eq!(a.stats.crashes, 1, "crash at event {crash_at} never fired");
        assert_eq!(
            a.stats.recoveries, 1,
            "crash at event {crash_at} never recovered"
        );
        assert_eq!(
            a.fold, baseline.fold,
            "crash at event {crash_at}: post-recovery data diverged — a write was lost"
        );
        let b = run(&[(crash_at, 1)]);
        assert_eq!(
            a.digest, b.digest,
            "crash at event {crash_at}: nondeterministic crash/recovery trace"
        );
        assert!(a.digest != 0 && a.digest != baseline.digest);
    }
}

/// Recovery latency scales with the intent-log depth at the crash: the
/// modeled cost charges per replayed record and per reconciled page, so a
/// crash right after a checkpoint seal replays less than one right before.
#[test]
fn recovery_latency_reflects_intent_log_depth() {
    let baseline = run(&[]);
    let late = run(&[(baseline.stats.completions * 3 / 4, 1)]);
    assert!(late.report.is_empty(), "{:#?}", late.report);
    assert_eq!(late.stats.recoveries, 1);
    assert!(
        late.stats.recovery_ns > 0,
        "recovery must charge modeled latency"
    );
    assert_eq!(
        late.stats.recovery_ns,
        late.stats.replayed * 500 + late.stats.reconciled * 2_000,
        "recovery latency must decompose into replay + reconciliation"
    );
}

/// Disarmed boots carry zero recovery surface: no crashes, no recoveries,
/// and no recovery events perturbing the trace — the digest matches a boot
/// that never heard of the recovery module.
#[test]
fn disarmed_boot_has_no_recovery_surface() {
    let plain = || {
        let mut n = Dilos::new(DilosConfig {
            local_pages: 64,
            remote_bytes: 1 << 24,
            memory_nodes: 3,
            redundancy: Redundancy::Replicas(2),
            obs: Observability::audited(),
            ..DilosConfig::default()
        });
        n.set_prefetcher(Box::new(Readahead::new()));
        let fold = drive(&mut n, SEED);
        let report = n.audit_report();
        (n.trace_digest(), fold, n.recovery_stats(), report)
    };
    let (digest_a, fold_a, stats, report) = plain();
    assert!(report.is_empty(), "{report:#?}");
    assert_eq!(stats, RecoveryStats::default());
    let (digest_b, fold_b, ..) = plain();
    assert_eq!(digest_a, digest_b, "disarmed boots must stay deterministic");
    assert_eq!(fold_a, fold_b);
    // Arming changes the trace (intent/checkpoint events are real events);
    // the armed-but-uncrashed run still computes the same data.
    let armed = run(&[]);
    assert_eq!(armed.fold, fold_a, "arming must not change the data");
    assert_ne!(
        armed.digest, digest_a,
        "armed boots emit durability events; identical digests mean the \
         intent log never engaged"
    );
}

/// Two cycles in one run, which a single crash point cannot express: node
/// 1 crashes a quarter of the way through and rejoins, then node 2 crashes
/// three quarters of the way through. Both points come from the crash-free
/// run. `crashes`, `recoveries` and `completions` accumulate over the run;
/// `log_depth_at_crash`, `replayed`, `reconciled` and `recovery_ns`
/// describe the last cycle.
#[test]
fn two_crashes_in_one_run_recover_clean_and_deterministic() {
    let baseline = run(&[]);
    let total = baseline.stats.completions;
    let crashes = [(total / 4, 1), (total * 3 / 4, 2)];
    let a = run(&crashes);
    assert!(a.report.is_empty(), "audit violations: {:#?}", a.report);
    assert_eq!(a.fold, baseline.fold, "two crashes lost a write");
    assert_eq!((a.stats.crashes, a.stats.recoveries), (2, 2));
    assert!(a.stats.completions > total * 3 / 4);

    let nodes: Vec<(bool, u8)> = a
        .cycles
        .iter()
        .map(|c| match *c {
            Cycle::Crash { node, .. } => (true, node),
            Cycle::Recovered { node, .. } => (false, node),
        })
        .collect();
    assert_eq!(
        nodes,
        [(true, 1), (false, 1), (true, 2), (false, 2)],
        "node 1 must rejoin before node 2 crashes"
    );
    let [Cycle::Crash { log_depth, .. }, Cycle::Recovered {
        replayed,
        reconciled,
        ..
    }] = a.cycles[2..]
    else {
        panic!("the last cycle is a crash and a recovery: {:?}", a.cycles);
    };
    assert_eq!(a.stats.log_depth_at_crash, log_depth);
    assert_eq!(
        (a.stats.replayed, a.stats.reconciled),
        (replayed, reconciled)
    );
    assert_eq!(
        a.stats.recovery_ns,
        replayed * REPLAY_NS_PER_RECORD + reconciled * RESYNC_NS_PER_PAGE
    );

    let b = run(&crashes);
    assert_eq!(a.digest, b.digest, "nondeterministic two-crash trace");
}
