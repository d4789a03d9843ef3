//! Determinism, enforced: the virtual-time simulation is a pure function of
//! its configuration and seed.
//!
//! Two fresh boots of the same system driven through the same seeded
//! workload must emit byte-identical event traces — compared here via the
//! order-sensitive trace digest, which folds every event (faults, RDMA
//! verbs, link transfers, frame churn, PTE transitions) in emission order.
//! Any hidden nondeterminism (hash-map iteration leaking into decisions,
//! wall-clock use, allocator-address dependence) changes the digest.

mod common;

use common::{drive, WS_PAGES};
use dilos::apps::farmem::{FarMemory, SystemKind, SystemSpec};
use dilos::apps::seqrw::SeqWorkload;
use dilos::core::{ClusterConfig, ServingCluster, TenantSpec};
use dilos::sim::{
    LatencyHistogram, Observability, SplitMix64, TraceEvent, TraceObserver, SAMPLE_INTERVAL_NS,
};
use dilos_bench::loadgen::{self, Arrival, RequestKind, TenantLoad};
use std::cell::RefCell;
use std::rc::Rc;

/// `(trace digest, events emitted)` of one fresh traced boot. Digesting
/// comes first: it quiesces the system, which can flush a few last events.
fn trace_of(kind: SystemKind, ratio: u32, seed: u64) -> (u64, u64) {
    let obs = Observability::tracing();
    let spec = SystemSpec::for_working_set(kind, WS_PAGES * 4096, ratio).observed(obs.clone());
    let mut mem = spec.boot();
    drive(mem.as_mut(), seed);
    (mem.trace_digest(), obs.trace().count())
}

fn digest_of(kind: SystemKind, ratio: u32, seed: u64) -> u64 {
    trace_of(kind, ratio, seed).0
}

#[test]
fn trace_digests_are_reproducible_across_boots() {
    for kind in [
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
        SystemKind::Fastswap,
        SystemKind::Aifm,
    ] {
        for ratio in [13u32, 100] {
            let (a, na) = trace_of(kind, ratio, 0xD15C0);
            let (b, nb) = trace_of(kind, ratio, 0xD15C0);
            assert_ne!(a, 0, "{} @ {ratio}%: trace must record", kind.label());
            assert_eq!(a, b, "{} @ {ratio}%: nondeterministic trace", kind.label());
            assert_eq!(na, nb, "{} @ {ratio}%: event count drifted", kind.label());
        }
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = digest_of(SystemKind::DilosReadahead, 13, 1);
    let b = digest_of(SystemKind::DilosReadahead, 13, 2);
    assert_ne!(a, b, "the digest must be sensitive to the workload");
}

/// The reclaim-episode check as a streaming fold: the run's history is
/// never held, each event is judged as it is emitted.
#[derive(Default)]
struct EpisodeCheck {
    in_episode: bool,
    last_evict: Option<u64>,
    episodes: u32,
    multi_evict_episodes: u32,
    evicts_this_episode: u32,
}

impl TraceObserver for EpisodeCheck {
    fn on_event(&mut self, t: u64, ev: &TraceEvent) {
        match *ev {
            TraceEvent::ReclaimBegin { .. } => {
                assert!(!self.in_episode, "nested ReclaimBegin at {t}");
                self.in_episode = true;
                self.last_evict = None;
                self.evicts_this_episode = 0;
                self.episodes += 1;
            }
            TraceEvent::ReclaimEnd { .. } => {
                assert!(self.in_episode, "ReclaimEnd without ReclaimBegin at {t}");
                self.in_episode = false;
                if self.evicts_this_episode > 1 {
                    self.multi_evict_episodes += 1;
                }
            }
            TraceEvent::Evict { vpn, .. } if self.in_episode => {
                // Each eviction is one calendar tick: virtual time must
                // advance strictly between victims. The old lazy-pull model
                // stamped an entire episode at a single instant.
                if let Some(prev) = self.last_evict {
                    assert!(
                        t > prev,
                        "evictions of vpn {vpn:#x} and its predecessor share \
                         virtual time {t} within one reclaim episode"
                    );
                }
                self.last_evict = Some(t);
                self.evicts_this_episode += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn reclaim_episodes_evict_at_distinct_virtual_times() {
    let obs = Observability::tracing();
    let check = Rc::new(RefCell::new(EpisodeCheck::default()));
    obs.trace().attach(check.clone());
    let spec =
        SystemSpec::for_working_set(SystemKind::DilosReadahead, WS_PAGES * 4096, 13).observed(obs);
    let mut mem = spec.boot();
    drive(mem.as_mut(), 0xEC);
    // trace_digest() quiesces the event calendar, so every in-flight
    // reclaim tick has landed and every open episode is closed.
    let _ = mem.trace_digest();

    let check = check.borrow();
    assert!(!check.in_episode, "quiesce must close the final episode");
    assert!(
        check.episodes > 0,
        "workload must trigger background reclaim"
    );
    assert!(
        check.multi_evict_episodes > 0,
        "need at least one multi-eviction episode for the check to bite"
    );
}

/// Tracing must be a pure observer of the *model*, not just of the digest:
/// every system booted dark and booted traced does the same simulated work
/// — same faults, same wire bytes, same virtual completion time — on the
/// tab01 sequential workload and on the benchmark's cyclic scan (sparse
/// pages, write-populate, one warm-up pass, then passes from seeded random
/// starts), the shape on which a trace-only calendar entry once woke
/// Fastswap's frame-allocation spin early.
#[test]
fn tracing_leaves_the_model_unchanged() {
    const SEQ_PAGES: u64 = 1024;
    const CYCLIC_PAGES: u64 = 256;
    fn seq(mem: &mut dyn FarMemory) {
        let wl = SeqWorkload {
            pages: SEQ_PAGES as usize,
        };
        let base = wl.populate(mem);
        wl.read_pass(mem, base);
    }
    fn cyclic(mem: &mut dyn FarMemory) {
        let mut rng = SplitMix64::new(1);
        let base = mem.alloc((CYCLIC_PAGES * 4096) as usize);
        for p in 0..CYCLIC_PAGES {
            mem.write_u64(0, base + p * 4096, p + 1);
        }
        // A warm-up pass from page 0, then three from seeded starts.
        let mut pick = || rng.gen_range(CYCLIC_PAGES);
        for start in [0, pick(), pick(), pick()] {
            for i in 0..CYCLIC_PAGES {
                mem.read_u64(0, base + (start + i) % CYCLIC_PAGES * 4096);
            }
        }
    }
    type Work = fn(&mut dyn FarMemory);
    let shapes: [(&str, u64, Work); 2] =
        [("seq", SEQ_PAGES, seq), ("cyclic", CYCLIC_PAGES, cyclic)];
    for kind in [
        SystemKind::DilosNoPrefetch,
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
        SystemKind::Fastswap,
        SystemKind::Aifm,
    ] {
        for (shape, pages, work) in shapes {
            let run = |obs: Observability| {
                let mut mem = SystemSpec::for_working_set(kind, pages * 4096, 13)
                    .observed(obs)
                    .boot();
                work(mem.as_mut());
                (mem.fault_counters(), mem.net_bytes(), mem.max_now())
            };
            let dark = run(Observability::none());
            let lit = run(Observability::tracing());
            let tag = format!("{} / {shape}", kind.label());
            assert!(dark.0 .0 > 0, "{tag}: workload must fault");
            assert_eq!(dark, lit, "{tag}: tracing changed the model");
        }
    }
}

/// The metrics registry, sampler, and span profiler must be pure observers:
/// booting with metrics on cannot change a single event in the trace. The
/// sampler is arithmetic on the registry, so no tick ever reaches a
/// system's event loop.
#[test]
fn metrics_leave_trace_digests_unchanged() {
    for kind in [
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
        SystemKind::Fastswap,
        SystemKind::Aifm,
    ] {
        for ratio in [13u32, 100] {
            let spec = SystemSpec::for_working_set(kind, WS_PAGES * 4096, ratio)
                .observed(Observability::metered());
            let mut mem = spec.boot();
            drive(mem.as_mut(), 0xD15C0);
            // Digesting quiesces, which also flushes sampler ticks up to
            // the completion horizon — check samples only afterwards.
            let metered = mem.trace_digest();
            assert_eq!(
                metered,
                digest_of(kind, ratio, 0xD15C0),
                "{} @ {ratio}%: metrics perturbed the trace",
                kind.label()
            );
            // The sampler ticks every interval up to the completion
            // horizon — exactly floor(max_now / interval) times. (AIFM at
            // 100% local finishes inside one interval: zero ticks is
            // correct there, not a telemetry hole.)
            assert_eq!(
                mem.metrics().samples(),
                mem.max_now() / SAMPLE_INTERVAL_NS,
                "{} @ {ratio}%: wrong sampler tick count",
                kind.label()
            );
        }
    }
}

/// Same seed, two fresh metered boots: everything the telemetry artifacts
/// are rendered from must come out identical — counters, gauges, gauge
/// series, folded profiler stacks, and both histogram families. (The
/// writer's output is a function of this data alone.)
#[test]
fn telemetry_artifacts_are_byte_identical_across_boots() {
    let run = || {
        let spec = SystemSpec::for_working_set(SystemKind::DilosReadahead, WS_PAGES * 4096, 13)
            .observed(Observability::metered());
        let mut mem = spec.boot();
        drive(mem.as_mut(), 0xBEEF);
        mem.trace_digest();
        let m = mem.metrics();
        let p = mem.profiler();
        let shape = |hists: Vec<(&'static str, LatencyHistogram)>| -> Vec<_> {
            let each = hists.into_iter();
            each.map(|(name, h)| (name, h.count(), h.sum(), h.nonzero_buckets()))
                .collect()
        };
        (
            p.counters(),
            m.gauges(),
            m.series(),
            p.folded(),
            shape(p.histograms()),
            shape(p.phase_histograms()),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "counters diverged");
    assert_eq!(a.1, b.1, "gauges diverged");
    assert_eq!(a.2, b.2, "series diverged");
    assert_eq!(a.3, b.3, "folded stacks diverged");
    assert_eq!(a.4, b.4, "histograms diverged");
    assert_eq!(a.5, b.5, "phase histograms diverged");
    assert!(!a.3.is_empty(), "metered run must produce profiler spans");
    assert!(!a.0.is_empty() && !a.1.is_empty() && !a.2.is_empty() && !a.4.is_empty());
}

/// A system booted without `--metrics` carries disabled handles that record
/// nothing and hand out no data — the zero-cost-when-off contract.
#[test]
fn disabled_telemetry_emits_nothing() {
    let spec = SystemSpec::for_working_set(SystemKind::DilosReadahead, WS_PAGES * 4096, 13);
    let mut mem = spec.boot();
    drive(mem.as_mut(), 3);
    let m = mem.metrics();
    let p = mem.profiler();
    assert!(!m.is_enabled());
    assert!(!p.is_enabled());
    assert_eq!(m.samples(), 0);
    assert!(p.counters().is_empty());
    assert!(m.gauges().is_empty());
    assert!(m.series().is_empty());
    assert!(p.folded().is_empty());
    assert!(p.histograms().is_empty());
    assert!(p.phase_histograms().is_empty());
}

#[test]
fn audited_deterministic_run_is_violation_free() {
    let spec = SystemSpec::for_working_set(SystemKind::DilosReadahead, WS_PAGES * 4096, 13)
        .observed(Observability::audited());
    let mut mem = spec.boot();
    drive(mem.as_mut(), 7);
    let report = mem.audit_report();
    assert!(report.is_empty(), "audit violations: {report:#?}");
    // Auditing must not perturb the simulation or the digest: a trace-only
    // boot of the same run lands on the same digest.
    assert_eq!(
        mem.trace_digest(),
        digest_of(SystemKind::DilosReadahead, 13, 7),
        "the auditor must be a pure observer"
    );
}

/// The write-heavy pin. Every other pinned digest is a read scan, where a
/// reclaim tick's successor is always the calendar's next delivery; here
/// ~30 % of the accesses dirty fully non-zero pages at 13 % local (the
/// benchmark's `rand_rw` shape, tier-1 sized), so cleaner write-backs and
/// deferred completions land *between* two ticks of one episode and the
/// delivery loop must fall back to the heap to keep the order.
#[test]
fn write_heavy_traced_digest_is_pinned() {
    const PAGES: u64 = 256;
    const WORDS: u64 = PAGES * 4096 / 8;
    let dense = |v: u64| v | 0x0101_0101_0101_0101;
    let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, PAGES * 4096, 13)
        .observed(Observability::audited())
        .boot();
    let mut rng = SplitMix64::new(0x7A2D_0BB1);
    let base = mem.alloc((PAGES * 4096) as usize);
    let mut page = [0u8; 4096];
    for p in 0..PAGES {
        for w in page.chunks_exact_mut(8) {
            w.copy_from_slice(&dense(rng.next_u64()).to_le_bytes());
        }
        mem.write(0, base + p * 4096, &page);
    }
    let mut sum = 0u64;
    for _ in 0..4_000 {
        let va = base + rng.gen_range(WORDS) * 8;
        if rng.gen_range(10) < 3 {
            mem.write_u64(0, va, dense(rng.next_u64()));
        } else {
            sum = sum.wrapping_add(mem.read_u64(0, va));
        }
    }
    let report = mem.audit_report();
    assert!(report.is_empty(), "audit violations: {report:#?}");
    assert_eq!(
        (
            mem.trace_digest(),
            mem.fault_counters(),
            mem.net_bytes(),
            mem.max_now(),
            sum
        ),
        (
            0x4b4a9ca291143a1a,
            (3550, 1, 256),
            (5_750_784, 16_769_024),
            10_386_628,
            0x1a3214a12e603cf
        ),
        "write-heavy DiLOS run moved"
    );
}

/// Two tenants on one pool, pinned: an open-loop point reader and a
/// closed-loop scanner whose verbs interleave on the shared fabric, each
/// tenant delivering from its own calendar.
#[test]
fn two_tenant_cluster_digests_are_pinned() {
    let spec = |local_demand| TenantSpec {
        local_quota: 128,
        local_demand,
        remote_bytes: 1 << 23,
        bandwidth_share: 2,
        cores: 1,
        obs: Observability::audited(),
    };
    let mut cluster = ServingCluster::boot(ClusterConfig {
        qos: true,
        tenants: vec![spec(128), spec(1_024)],
        ..ClusterConfig::default()
    });
    let results = loadgen::drive(
        &mut cluster,
        &[
            TenantLoad {
                seed: 0xA0,
                arrival: Arrival::Open { mean_ns: 40_000 },
                requests: 120,
                kind: RequestKind::PointRead { touches: 3 },
                working_pages: 320,
            },
            TenantLoad {
                seed: 0x5CA7,
                arrival: Arrival::Closed { think_ns: 0 },
                requests: 24,
                kind: RequestKind::Scan { pages: 128 },
                working_pages: 512,
            },
        ],
    );
    assert_eq!(
        cluster.audit_reports(),
        Vec::new(),
        "tenants must stay clean"
    );
    let pins: Vec<_> = (0..2)
        .map(|i| (cluster.tenant(i).trace_digest(), results[i].makespan))
        .collect();
    assert_eq!(
        pins,
        [
            (0x639c2ee6920a3cfc, 5_510_208),
            (0x5fbfe3dab4eb2a, 3_554_022)
        ],
        "two-tenant serving pass moved"
    );
}
