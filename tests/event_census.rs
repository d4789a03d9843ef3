//! The event census: every `TraceEvent` kind is emitted, and every
//! `SchedEvent` variant is delivered, by three small DiLOS boots — guided
//! paging with readahead, recovery armed with a planned crash, and a
//! replicated node that fails and is repaired through the fault plan.
//!
//! The consuming side is held by the compiler: `Auditor::on_event` and
//! `Dilos::dispatch` match every variant and deny wildcard arms. This test
//! holds the emitting side. Its observer sorts events with its own
//! exhaustive `match`, one [`Census`] counter per kind, so a new variant
//! needs a new arm and a new counter — and the census then fails until some
//! boot here emits it.

use std::cell::RefCell;
use std::rc::Rc;

use dilos::alloc::Heap;
use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, GuideOps, HeapPagingGuide, PrefetchGuide, Readahead};
use dilos::sim::{
    Fault, FaultPlan, Ns, Observability, RecoverConfig, Redundancy, SchedEvent, ServiceClass,
    TraceEvent, TraceObserver, When,
};

/// How many times each `TraceEvent` kind was emitted. `Debug` lists every
/// field, which is how the check finds the kinds that never appeared.
#[derive(Debug, Default)]
struct Census {
    fault_begin: u64,
    fault_phase: u64,
    fault_end: u64,
    rdma_issue: u64,
    rdma_complete: u64,
    link_transfer: u64,
    mem_access: u64,
    prefetch_issue: u64,
    prefetch_land: u64,
    prefetch_cancel: u64,
    frame_alloc: u64,
    frame_free: u64,
    pte_transition: u64,
    lru_insert: u64,
    lru_remove: u64,
    reclaim_begin: u64,
    reclaim_end: u64,
    evict: u64,
    guide_invoke: u64,
    checkpoint: u64,
    intent_append: u64,
    node_crash: u64,
    recovery_replay: u64,
    recovery_complete: u64,
}

impl TraceObserver for Census {
    fn on_event(&mut self, _t: Ns, ev: &TraceEvent) {
        use TraceEvent as E;
        let count = match ev {
            E::FaultBegin { .. } => &mut self.fault_begin,
            E::FaultPhase { .. } => &mut self.fault_phase,
            E::FaultEnd { .. } => &mut self.fault_end,
            E::RdmaIssue { .. } => &mut self.rdma_issue,
            E::RdmaComplete { .. } => &mut self.rdma_complete,
            E::LinkTransfer { .. } => &mut self.link_transfer,
            E::MemAccess { .. } => &mut self.mem_access,
            E::PrefetchIssue { .. } => &mut self.prefetch_issue,
            E::PrefetchLand { .. } => &mut self.prefetch_land,
            E::PrefetchCancel { .. } => &mut self.prefetch_cancel,
            E::FrameAlloc { .. } => &mut self.frame_alloc,
            E::FrameFree { .. } => &mut self.frame_free,
            E::PteTransition { .. } => &mut self.pte_transition,
            E::LruInsert { .. } => &mut self.lru_insert,
            E::LruRemove { .. } => &mut self.lru_remove,
            E::ReclaimBegin { .. } => &mut self.reclaim_begin,
            E::ReclaimEnd { .. } => &mut self.reclaim_end,
            E::Evict { .. } => &mut self.evict,
            E::GuideInvoke { .. } => &mut self.guide_invoke,
            E::Checkpoint { .. } => &mut self.checkpoint,
            E::IntentAppend { .. } => &mut self.intent_append,
            E::NodeCrash { .. } => &mut self.node_crash,
            E::RecoveryReplay { .. } => &mut self.recovery_replay,
            E::RecoveryComplete { .. } => &mut self.recovery_complete,
        };
        *count += 1;
    }
}

impl Census {
    /// The trace event a delivered `ev` shows up as: what its handler
    /// emits. Verb completions go to the endpoint, which emits the deferred
    /// `RdmaComplete`; the others go to `Dilos::dispatch`.
    fn delivered(&self, ev: SchedEvent) -> u64 {
        match ev {
            // `on_prefetch_land` maps the page: `PrefetchLand`.
            SchedEvent::PrefetchLand { .. } => self.prefetch_land,
            // Only the background reclaimer's tick opens an episode.
            SchedEvent::ReclaimTick => self.reclaim_begin,
            // The cleaned frame rejoins the free list: `FrameFree`.
            SchedEvent::CleanerWriteback { .. } => self.frame_free,
            SchedEvent::RdmaCompletion { .. } => self.rdma_complete,
            // The census's timed faults are repairs; only a repair with
            // recovery armed reports completion.
            SchedEvent::FaultDue => self.recovery_complete,
        }
    }
}

/// An audited bundle with `census` riding along.
fn observed(census: &Rc<RefCell<Census>>) -> Observability {
    let obs = Observability::audited();
    obs.trace().attach(census.clone());
    obs
}

fn boot(
    obs: Observability,
    replication: usize,
    recovery: Option<RecoverConfig>,
    faults: FaultPlan,
) -> Dilos {
    let mut n = Dilos::new(DilosConfig {
        local_pages: 64,
        remote_bytes: 1 << 24,
        memory_nodes: 3,
        redundancy: Redundancy::Replicas(replication),
        recovery,
        faults,
        obs,
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    n
}

fn assert_audit_clean(n: &mut Dilos, boot: &str) {
    let report = n.audit_report();
    assert!(report.is_empty(), "{boot}: audit violations: {report:#?}");
}

/// A prefetch guide that asks for the next 32 pages: the tail of that
/// batch is still on the wire when the fault that issued it returns.
struct FarAhead;

impl PrefetchGuide for FarAhead {
    fn on_fault(&mut self, va: u64, ops: &mut dyn GuideOps) {
        for page in 1..=32 {
            ops.prefetch_page(va + page * 4096);
        }
    }
}

/// Guided paging: a heap-backed paging guide evicts half-live pages, and a
/// region freed right behind a prefetch guide's fault cancels the fetches
/// still in flight.
fn guided(obs: Observability) {
    let mut n = boot(obs, 1, None, FaultPlan::default());
    let region = n.ddc_alloc(1 << 22);
    let heap = Rc::new(RefCell::new(Heap::new(region, 1 << 22)));
    n.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
        Rc::clone(&heap),
        3,
    ))));
    let vas: Vec<u64> = (0..256)
        .map(|_| heap.borrow_mut().malloc(256).expect("room"))
        .collect();
    for va in vas.iter().skip(1).step_by(2) {
        heap.borrow_mut().free(*va).expect("live");
    }
    for va in vas.iter().step_by(2) {
        n.write(0, *va, &[0x7E; 256]);
    }
    let churn = n.ddc_alloc(256 * 4096);
    for p in 0..256u64 {
        n.write_u64(0, churn + p * 4096, p);
    }
    for va in vas.iter().step_by(2) {
        let mut buf = [0u8; 256];
        n.read(0, *va, &mut buf);
        assert_eq!(buf, [0x7E; 256]);
    }
    // Free the resident half of the churn, so frames are plentiful, then
    // fault on its remote half and free that while the batch is in flight.
    n.ddc_free(churn + 128 * 4096, 128 * 4096);
    n.set_prefetch_guide(Rc::new(RefCell::new(FarAhead)));
    let _ = n.read_u64(0, churn);
    n.ddc_free(churn, 128 * 4096);
    assert_audit_clean(&mut n, "guided");
}

/// Recovery armed: memory node 1 crashes mid-run and is repaired from its
/// checkpoint, its intent log and the surviving replica.
fn recovery(obs: Observability) {
    let mut n = boot(
        obs,
        2,
        Some(RecoverConfig {
            checkpoint_every: 32,
        }),
        [(
            When::Completion(200),
            Fault::Crash {
                node: 1,
                down_for: 1_500_000,
            },
        )]
        .into_iter()
        .collect(),
    );
    let va = n.ddc_alloc(256 * 4096);
    for round in 0..4u64 {
        for p in 0..256u64 {
            n.write_u64(0, va + p * 4096, p ^ round);
        }
    }
    assert_eq!(n.recovery_stats().recoveries, 1, "the crash was repaired");
    assert_audit_clean(&mut n, "recovery");
}

/// Fail-stop and repair: a replicated node dies, and the repair planned
/// for a later instant wakes on the calendar and resyncs it mid-workload.
fn fail_and_repair(obs: Observability) {
    let mut n = boot(obs, 2, None, FaultPlan::default());
    let va = n.ddc_alloc(256 * 4096);
    for p in 0..256u64 {
        n.write_u64(0, va + p * 4096, p);
    }
    let now = n.now(0);
    n.inject(When::At(now), Fault::Fail { node: 1 });
    n.inject(When::At(now + 2_000_000), Fault::Repair { node: 1 });
    while !n.rdma().node_alive(1) {
        for p in 0..256u64 {
            assert_eq!(n.read_u64(0, va + p * 4096), p);
        }
    }
    assert_audit_clean(&mut n, "fail and repair");
}

#[test]
fn every_event_kind_is_emitted_and_every_sched_event_delivered() {
    let census = Rc::new(RefCell::new(Census::default()));
    guided(observed(&census));
    recovery(observed(&census));
    fail_and_repair(observed(&census));

    let census = census.borrow();
    let dump = format!("{census:#?}");
    let missing: Vec<&str> = dump
        .lines()
        .filter(|l| l.trim_end().ends_with(": 0,"))
        .map(str::trim)
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}\n{dump}");

    for ev in [
        SchedEvent::PrefetchLand { vpn: 0, token: 0 },
        SchedEvent::ReclaimTick,
        SchedEvent::CleanerWriteback { frame: 0 },
        SchedEvent::RdmaCompletion {
            class: ServiceClass::Fault,
            write: false,
            node: 0,
            core: 0,
        },
        SchedEvent::FaultDue,
    ] {
        assert!(census.delivered(ev) > 0, "{ev:?} never delivered");
    }
}
