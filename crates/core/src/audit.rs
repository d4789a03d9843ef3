//! Online invariant auditing over the trace stream.
//!
//! The [`Auditor`] attaches to a recording
//! [`TraceSink`](dilos_sim::TraceSink) and checks, event by event, the
//! invariants the paging subsystem must never break:
//!
//! - **Frame conservation** — a frame is allocated at most once at a time;
//!   every free matches a prior alloc; allocations minus frees equal the number
//!   of frames in use.
//! - **PTE state-machine legality** — every `PteTransition` follows an edge
//!   of the DiLOS unified-page-table automaton (§4.1/§4.2): pages reach
//!   `local` only through zero-fill (`none → local`) or a completed fetch
//!   (`fetching → local`), leave it only by eviction (`local → remote`,
//!   `local → action`), and fetches start only from `remote`/`action`.
//! - **No lost in-flight fetches** — every `PrefetchIssue` is eventually
//!   consumed by exactly one `PrefetchLand` (mapped or promoted by a minor
//!   fault) or `PrefetchCancel` (freed before landing); nothing lands or
//!   cancels twice.
//! - **LRU membership consistency** — inserts are of non-members, removals
//!   of members.
//! - **Fault nesting** — a core never opens a second fault before closing
//!   the first.
//! - **Link-bandwidth conservation** — per-class byte totals accumulated
//!   from `LinkTransfer` events equal the fabric's own accounting.
//! - **No acknowledged write lost** — every `IntentAppend` (a memnode
//!   acknowledging a write after durably logging its intent) must be
//!   covered by a later `Checkpoint` or redone by a `RecoveryReplay`
//!   before that node's `RecoveryComplete`; an intent still pending at
//!   recovery completion is an acknowledged write the crash lost.
//! - **No frame resurrected** — a freed frame must be re-allocated (a
//!   fresh `FrameAlloc`) before it may re-enter the LRU; an `LruInsert` of
//!   a frame sitting on the free list means recovery or repair revived
//!   stale state. The rule relies on DiLOS keying its chain by frame: the
//!   `vpn` field of `LruInsert`/`LruRemove` carries a *frame number* here.
//!
//! Violations are recorded as human-readable strings, in event order, and
//! capped so a broken run cannot exhaust memory. A clean run reports none.
//!
//! At the end of a run, [`Dilos::audit_report`](crate::Dilos::audit_report)
//! hands the auditor a census of the node's own state — frames in use, the
//! in-flight table, the counters, the LRU length and the fabric's per-class
//! bytes — and the auditor cross-checks each against its trace totals.

// Ordered containers: the auditor iterates these into reports, and
// report order must be deterministic run-to-run.
use std::collections::{BTreeMap, BTreeSet};

use dilos_sim::{FaultKind, FaultPhase, Ns, PteClass, ServiceClass, TraceEvent, TraceObserver};

use crate::stats::DilosStats;

/// Cap on recorded violations (further ones are counted, not stored).
const MAX_VIOLATIONS: usize = 64;

/// Is `from → to` an edge of the DiLOS PTE automaton?
///
/// Self-loops are legal (an aborted prefetch re-inserts its action vector:
/// `action → action`), and any state may drop to `none` via `ddc_free`.
pub fn legal_pte_transition(from: PteClass, to: PteClass) -> bool {
    use PteClass as P;
    from == to
        || matches!(
            (from, to),
            (_, P::None)
                | (P::None, P::Local)
                | (P::Remote, P::Fetching)
                | (P::Action, P::Fetching)
                | (P::Fetching, P::Local)
                | (P::Local, P::Remote)
                | (P::Local, P::Action)
        )
}

/// The online invariant checker. Attach with
/// [`TraceSink::attach`](dilos_sim::TraceSink::attach); it sees every event
/// synchronously and accumulates both violations and cross-checkable
/// totals.
#[derive(Default)]
pub struct Auditor {
    violations: Vec<String>,
    suppressed: u64,

    allocated: BTreeSet<u32>,
    /// Per-tenant frame-conservation bound: the node's local-frame quota.
    /// When set, holding more frames than this at any instant is flagged —
    /// in a shared cluster it means one tenant is eating a neighbour's
    /// local memory.
    frame_quota: Option<usize>,

    outstanding: BTreeSet<u64>,
    issues: u64,
    lands: u64,
    cancels: u64,

    lru: BTreeSet<u64>,

    open_fault: BTreeMap<u8, u64>,
    majors: u64,
    minors: u64,
    zero_fills: u64,
    phase_sums: [Ns; 6],

    evictions: u64,

    rdma_issued: [u64; 5],
    rdma_completed: [u64; 5],
    /// `(tx, rx)` wire bytes per service class.
    link: [(u64, u64); 5],

    reclaim_open: bool,

    /// Per-memnode acknowledged intents not yet covered by a checkpoint
    /// (mirrors each node's durable write-intent log).
    pending_intents: BTreeMap<u8, BTreeSet<u64>>,

    /// Frames currently on the free list (freed and not re-allocated):
    /// none of these may re-enter the LRU.
    freed_frames: BTreeSet<u32>,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("violations", &self.violation_count())
            .field("frames_in_use", &self.allocated.len())
            .field("outstanding_fetches", &self.outstanding.len())
            .finish_non_exhaustive()
    }
}

impl Auditor {
    /// A fresh auditor with no recorded history.
    pub fn new() -> Self {
        Self::default()
    }

    fn flag(&mut self, t: Ns, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("[t={t}] {msg}"));
        } else {
            self.suppressed += 1;
        }
    }

    /// True when no invariant has been violated so far.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// The recorded violations, in event order (capped; see
    /// [`violation_count`](Self::violation_count) for the true total).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including any beyond the storage cap.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    /// Arms the per-tenant frame-conservation invariant: the set of live
    /// frames must never exceed `quota` (the tenant's local-memory
    /// allotment).
    pub fn set_frame_quota(&mut self, quota: usize) {
        self.frame_quota = Some(quota);
    }

    /// End-of-run checks that only make sense once the system is quiescent:
    /// open faults and verb issue/complete pairing. (Outstanding fetches are
    /// *not* flagged here — [`report`](Self::report) cross-checks them
    /// against the node's in-flight table, since prefetches may
    /// legitimately be pending at shutdown.)
    fn final_checks(&mut self) {
        let open: Vec<(u8, u64)> = self.open_fault.iter().map(|(&c, &v)| (c, v)).collect();
        for (core, vpn) in open {
            self.flag(
                0,
                format!("fault on core {core} for vpn {vpn:#x} never ended"),
            );
        }
        for class in ServiceClass::ALL {
            let i = self.rdma_issued[class.idx()];
            let c = self.rdma_completed[class.idx()];
            if i != c {
                self.flag(
                    0,
                    format!("{} verbs: {i} issued but {c} completed", class.label()),
                );
            }
        }
        if self.reclaim_open {
            self.flag(0, "reclaim episode never ended".to_string());
        }
    }

    /// Runs the end-of-run checks, then cross-checks the trace's totals
    /// against the node's own `census`. Returns every violation recorded
    /// (capped, in event order) followed by one `[cross-check]` line per
    /// disagreement.
    pub(crate) fn report(&mut self, census: &NodeCensus) -> Vec<String> {
        self.final_checks();
        let mut cross = Vec::new();

        // Frame conservation: allocs − frees must equal the frames in use.
        let (traced, held) = (self.allocated.len(), census.frames_in_use);
        if traced as i64 != held {
            cross.push(format!(
                "trace says {traced} frames in use, the arena says {held}"
            ));
        }

        // No lost in-flight fetches: the traced outstanding set must equal
        // the node's in-flight table (pending prefetches at shutdown are
        // fine — silently dropped ones are not).
        for vpn in self.outstanding.difference(&census.inflight) {
            cross.push(format!(
                "lost in-flight fetch: vpn {vpn:#x} was issued but never landed or cancelled"
            ));
        }
        for vpn in census.inflight.difference(&self.outstanding) {
            cross.push(format!("untraced in-flight fetch for vpn {vpn:#x}"));
        }

        // Ad-hoc counters must be derivable from the trace.
        let s = &census.stats;
        for (name, traced, counted) in [
            ("major faults", self.majors, s.major_faults),
            ("minor faults", self.minors, s.minor_faults),
            ("zero fills", self.zero_fills, s.zero_fills),
            ("prefetch issues", self.issues, s.prefetch_issued),
            ("evictions", self.evictions, s.evictions),
        ] {
            if traced != counted {
                cross.push(format!("trace counts {traced} {name}, stats say {counted}"));
            }
        }

        // Fault-phase sums must reproduce the recorded latency breakdown.
        let b = &s.breakdown;
        for (phase, sum) in [
            (FaultPhase::Exception, b.exception),
            (FaultPhase::Check, b.check),
            (FaultPhase::Alloc, b.alloc_wait),
            (FaultPhase::Fetch, b.fetch),
            (FaultPhase::Map, b.map),
            (FaultPhase::Reclaim, b.reclaim),
        ] {
            let traced = self.phase_sums[phase as usize];
            if traced != sum {
                cross.push(format!("{phase:?} phase sum {traced} != breakdown's {sum}"));
            }
        }

        // LRU membership.
        let (traced, chain) = (self.lru.len(), census.lru_len);
        if traced != chain {
            cross.push(format!(
                "trace says {traced} LRU members, the chain holds {chain}"
            ));
        }

        // Link-bandwidth conservation, per service class.
        for class in ServiceClass::ALL {
            let traced = self.link[class.idx()];
            let fabric = census.link_bytes[class.idx()];
            if traced != fabric {
                let class = class.label();
                cross.push(format!(
                    "{class} link bytes {traced:?} != fabric accounting {fabric:?}"
                ));
            }
        }
        let cross = cross.into_iter().map(|c| format!("[cross-check] {c}"));
        self.violations.iter().cloned().chain(cross).collect()
    }
}

/// The node's own account of what its trace should add up to, taken after
/// quiescing and cross-checked by [`Auditor::report`].
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeCensus {
    /// Frames off the arena's free list. Signed: a corrupted free list can
    /// exceed the arena's total.
    pub(crate) frames_in_use: i64,
    /// VPNs with an entry in the node's in-flight table.
    pub(crate) inflight: BTreeSet<u64>,
    /// The node's counters and fault-latency breakdown.
    pub(crate) stats: DilosStats,
    /// Members of the node's LRU chain.
    pub(crate) lru_len: usize,
    /// The fabric's `(tx, rx)` bytes per service class, in
    /// [`ServiceClass::ALL`] order.
    pub(crate) link_bytes: [(u64, u64); ServiceClass::ALL.len()],
}

impl TraceObserver for Auditor {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        match *ev {
            TraceEvent::FaultBegin { core, vpn, kind } => {
                if let Some(&open) = self.open_fault.get(&core) {
                    self.flag(
                        t,
                        format!(
                            "core {core} began a fault on vpn {vpn:#x} while one on \
                             vpn {open:#x} is still open"
                        ),
                    );
                }
                self.open_fault.insert(core, vpn);
                match kind {
                    FaultKind::Major => self.majors += 1,
                    FaultKind::Minor => self.minors += 1,
                    FaultKind::ZeroFill => self.zero_fills += 1,
                }
            }
            TraceEvent::FaultPhase { core, phase, dur } => {
                if !self.open_fault.contains_key(&core) {
                    self.flag(t, format!("fault phase on core {core} with no open fault"));
                }
                self.phase_sums[phase as usize] += dur;
            }
            TraceEvent::FaultEnd { core, vpn } => {
                if self.open_fault.remove(&core).is_none() {
                    self.flag(
                        t,
                        format!("core {core} ended a fault on vpn {vpn:#x} it never began"),
                    );
                }
            }
            TraceEvent::RdmaIssue { class, .. } => {
                self.rdma_issued[class.idx()] += 1;
            }
            TraceEvent::RdmaComplete { class, .. } => {
                self.rdma_completed[class.idx()] += 1;
                if self.rdma_completed[class.idx()] > self.rdma_issued[class.idx()] {
                    self.flag(
                        t,
                        format!("{} verb completed without a matching issue", class.label()),
                    );
                }
            }
            TraceEvent::LinkTransfer {
                class,
                bytes,
                inbound,
                ..
            } => {
                let (tx, rx) = &mut self.link[class.idx()];
                *if inbound { rx } else { tx } += bytes as u64;
            }
            TraceEvent::MemAccess { .. } => {}
            TraceEvent::PrefetchIssue { vpn } => {
                self.issues += 1;
                if !self.outstanding.insert(vpn) {
                    self.flag(
                        t,
                        format!("prefetch issued for vpn {vpn:#x} which is already in flight"),
                    );
                }
            }
            TraceEvent::PrefetchLand { vpn } => {
                self.lands += 1;
                if !self.outstanding.remove(&vpn) {
                    self.flag(
                        t,
                        format!("fetch for vpn {vpn:#x} landed without a matching issue"),
                    );
                }
            }
            TraceEvent::PrefetchCancel { vpn } => {
                self.cancels += 1;
                if !self.outstanding.remove(&vpn) {
                    self.flag(
                        t,
                        format!("fetch for vpn {vpn:#x} cancelled without a matching issue"),
                    );
                }
            }
            TraceEvent::FrameAlloc { frame } => {
                self.freed_frames.remove(&frame);
                if !self.allocated.insert(frame) {
                    self.flag(
                        t,
                        format!("frame {frame} allocated while already allocated"),
                    );
                }
                if let Some(quota) = self.frame_quota {
                    if self.allocated.len() > quota {
                        self.flag(
                            t,
                            format!(
                                "frame quota exceeded: {} frames live, quota {quota}",
                                self.allocated.len()
                            ),
                        );
                    }
                }
            }
            TraceEvent::FrameFree { frame } => {
                self.freed_frames.insert(frame);
                if !self.allocated.remove(&frame) {
                    self.flag(t, format!("double free of frame {frame}"));
                }
            }
            TraceEvent::PteTransition { vpn, from, to } => {
                if !legal_pte_transition(from, to) {
                    self.flag(
                        t,
                        format!(
                            "illegal PTE transition {} → {} for vpn {vpn:#x}",
                            from.label(),
                            to.label()
                        ),
                    );
                }
            }
            TraceEvent::LruInsert { vpn } => {
                // No frame resurrected: an LRU key that is a frame sitting
                // on the free list re-entered circulation without a fresh
                // allocation. (Fastswap keys its LRU by vpn, but its vpns
                // are orders of magnitude above any frame id, so the
                // membership test cannot false-positive there.)
                if u32::try_from(vpn).is_ok_and(|f| self.freed_frames.contains(&f)) {
                    self.flag(t, format!("freed frame {vpn} resurrected in the LRU"));
                }
                if !self.lru.insert(vpn) {
                    self.flag(t, format!("LRU insert of member key {vpn:#x}"));
                }
            }
            TraceEvent::LruRemove { vpn } => {
                if !self.lru.remove(&vpn) {
                    self.flag(t, format!("LRU removal of non-member key {vpn:#x}"));
                }
            }
            TraceEvent::ReclaimBegin { .. } => {
                if self.reclaim_open {
                    self.flag(t, "nested reclaim episode".to_string());
                }
                self.reclaim_open = true;
            }
            TraceEvent::ReclaimEnd { .. } => {
                if !self.reclaim_open {
                    self.flag(t, "reclaim episode ended without beginning".to_string());
                }
                self.reclaim_open = false;
            }
            TraceEvent::Evict { .. } => {
                self.evictions += 1;
            }
            TraceEvent::GuideInvoke { .. } => {}
            TraceEvent::IntentAppend { node, seq } => {
                if !self.pending_intents.entry(node).or_default().insert(seq) {
                    self.flag(t, format!("node {node} acknowledged intent {seq} twice"));
                }
            }
            TraceEvent::Checkpoint { node, upto } => {
                // The checkpoint durably covers every intent up to `upto`:
                // only later acks remain pending.
                if let Some(set) = self.pending_intents.get_mut(&node) {
                    *set = set.split_off(&(upto + 1));
                }
            }
            // A crash loses only volatile state; the pending set mirrors
            // the durable log, which survives — nothing to do until
            // recovery reports what it replayed.
            TraceEvent::NodeCrash { .. } => {}
            TraceEvent::RecoveryReplay { node, seq } => {
                if !self.pending_intents.entry(node).or_default().remove(&seq) {
                    self.flag(
                        t,
                        format!(
                            "node {node} replayed intent {seq} that was never \
                             acknowledged (or already checkpointed)"
                        ),
                    );
                }
            }
            TraceEvent::RecoveryComplete { node, .. } => {
                // No acknowledged write lost: every intent acked before the
                // crash must have been checkpointed or replayed by now.
                if let Some(set) = self.pending_intents.get_mut(&node) {
                    let lost: Vec<u64> = set.iter().copied().collect();
                    set.clear();
                    for seq in lost {
                        self.flag(
                            t,
                            format!(
                                "acknowledged write lost: node {node} intent {seq} \
                                 neither checkpointed nor replayed at recovery"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilos_sim::TraceSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn audited_sink() -> (TraceSink, Rc<RefCell<Auditor>>) {
        let s = TraceSink::recording();
        let a = Rc::new(RefCell::new(Auditor::new()));
        s.attach(a.clone());
        (s, a)
    }

    #[test]
    fn clean_stream_stays_clean() {
        let (s, a) = audited_sink();
        let (vpn, from, to) = (9, PteClass::None, PteClass::Local);
        s.emit(1, TraceEvent::FrameAlloc { frame: 3 });
        s.emit(2, TraceEvent::PteTransition { vpn, from, to });
        s.emit(3, TraceEvent::LruInsert { vpn: 3 });
        s.emit(4, TraceEvent::LruRemove { vpn: 3 });
        s.emit(5, TraceEvent::FrameFree { frame: 3 });
        a.borrow_mut().final_checks();
        assert!(a.borrow().is_clean(), "{:?}", a.borrow().violations());
        assert_eq!(a.borrow().allocated.len(), 0);
    }

    #[test]
    fn frame_quota_violation_is_flagged() {
        let s = TraceSink::recording();
        let mut auditor = Auditor::new();
        auditor.set_frame_quota(2);
        let a = Rc::new(RefCell::new(auditor));
        s.attach(a.clone());
        s.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        s.emit(2, TraceEvent::FrameAlloc { frame: 1 });
        assert!(a.borrow().is_clean(), "within quota is clean");
        s.emit(3, TraceEvent::FrameAlloc { frame: 2 });
        {
            let a = a.borrow();
            assert_eq!(a.violation_count(), 1);
            assert!(
                a.violations()[0].contains("frame quota exceeded: 3 frames live, quota 2"),
                "{:?}",
                a.violations()
            );
        }
        // Dropping back under quota and re-allocating stays clean.
        s.emit(4, TraceEvent::FrameFree { frame: 2 });
        s.emit(5, TraceEvent::FrameFree { frame: 1 });
        s.emit(6, TraceEvent::FrameAlloc { frame: 1 });
        assert_eq!(a.borrow().violation_count(), 1);
    }

    #[test]
    fn double_free_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::FrameAlloc { frame: 7 });
        s.emit(2, TraceEvent::FrameFree { frame: 7 });
        s.emit(3, TraceEvent::FrameFree { frame: 7 });
        let a = a.borrow();
        assert_eq!(a.violation_count(), 1);
        assert!(a.violations()[0].contains("double free of frame 7"));
    }

    #[test]
    fn illegal_pte_edges_are_flagged() {
        // Fastswap-style swap-in (no fetching hop) is illegal under DiLOS.
        assert!(!legal_pte_transition(PteClass::Remote, PteClass::Local));
        assert!(!legal_pte_transition(PteClass::Fetching, PteClass::Remote));
        assert!(!legal_pte_transition(PteClass::None, PteClass::Fetching));
        assert!(legal_pte_transition(PteClass::Action, PteClass::Action));
        assert!(legal_pte_transition(PteClass::Local, PteClass::None));
        let (s, a) = audited_sink();
        let (vpn, from, to) = (4, PteClass::Remote, PteClass::Local);
        s.emit(1, TraceEvent::PteTransition { vpn, from, to });
        assert!(a.borrow().violations()[0].contains("illegal PTE transition"));
    }

    #[test]
    fn unbalanced_prefetch_lifecycle_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::PrefetchIssue { vpn: 11 });
        s.emit(2, TraceEvent::PrefetchLand { vpn: 11 });
        s.emit(3, TraceEvent::PrefetchLand { vpn: 11 });
        s.emit(4, TraceEvent::PrefetchCancel { vpn: 12 });
        let a = a.borrow();
        assert_eq!(a.violation_count(), 2);
        assert_eq!((a.issues, a.lands, a.cancels), (1, 2, 1));
    }

    #[test]
    fn fault_nesting_is_flagged() {
        let (s, a) = audited_sink();
        let (core, kind) = (0, FaultKind::Major);
        s.emit(1, TraceEvent::FaultBegin { core, vpn: 1, kind });
        s.emit(2, TraceEvent::FaultBegin { core, vpn: 2, kind });
        assert_eq!(a.borrow().violation_count(), 1);
    }

    #[test]
    fn final_checks_catch_unpaired_verbs_and_open_faults() {
        let (s, a) = audited_sink();
        s.emit(
            1,
            TraceEvent::RdmaIssue {
                class: ServiceClass::Fault,
                write: false,
                node: 0,
                core: 0,
                bytes: 4096,
            },
        );
        let (core, vpn, kind) = (1, 5, FaultKind::Minor);
        s.emit(2, TraceEvent::FaultBegin { core, vpn, kind });
        let mut aud = a.borrow_mut();
        assert!(aud.is_clean());
        aud.final_checks();
        assert_eq!(aud.violation_count(), 2);
    }

    #[test]
    fn clean_crash_recovery_cycle_stays_clean() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::IntentAppend { node: 1, seq: 1 });
        s.emit(2, TraceEvent::IntentAppend { node: 1, seq: 2 });
        s.emit(3, TraceEvent::Checkpoint { node: 1, upto: 1 });
        s.emit(4, TraceEvent::IntentAppend { node: 1, seq: 3 });
        s.emit(5, TraceEvent::NodeCrash { node: 1 });
        // Recovery replays everything the checkpoint did not cover.
        s.emit(6, TraceEvent::RecoveryReplay { node: 1, seq: 2 });
        s.emit(7, TraceEvent::RecoveryReplay { node: 1, seq: 3 });
        s.emit(
            8,
            TraceEvent::RecoveryComplete {
                node: 1,
                replayed: 2,
                reconciled: 0,
            },
        );
        let mut aud = a.borrow_mut();
        aud.final_checks();
        assert!(aud.is_clean(), "{:?}", aud.violations());
        assert!(aud.pending_intents.values().all(BTreeSet::is_empty));
    }

    #[test]
    fn acknowledged_write_lost_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::IntentAppend { node: 0, seq: 1 });
        s.emit(2, TraceEvent::IntentAppend { node: 0, seq: 2 });
        s.emit(3, TraceEvent::NodeCrash { node: 0 });
        // Intent 2 was acked but is neither checkpointed nor replayed.
        s.emit(4, TraceEvent::RecoveryReplay { node: 0, seq: 1 });
        s.emit(
            5,
            TraceEvent::RecoveryComplete {
                node: 0,
                replayed: 1,
                reconciled: 0,
            },
        );
        let a = a.borrow();
        assert_eq!(a.violation_count(), 1);
        assert!(
            a.violations()[0].contains("acknowledged write lost: node 0 intent 2"),
            "{:?}",
            a.violations()
        );
    }

    #[test]
    fn checkpoint_covers_acknowledged_intents() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::IntentAppend { node: 2, seq: 1 });
        s.emit(2, TraceEvent::IntentAppend { node: 2, seq: 2 });
        s.emit(3, TraceEvent::Checkpoint { node: 2, upto: 2 });
        s.emit(4, TraceEvent::NodeCrash { node: 2 });
        // Nothing to replay: the checkpoint already covers both acks.
        s.emit(
            5,
            TraceEvent::RecoveryComplete {
                node: 2,
                replayed: 0,
                reconciled: 4,
            },
        );
        assert!(a.borrow().is_clean(), "{:?}", a.borrow().violations());
    }

    #[test]
    fn replay_of_unacknowledged_intent_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::RecoveryReplay { node: 0, seq: 9 });
        let a = a.borrow();
        assert_eq!(a.violation_count(), 1);
        assert!(
            a.violations()[0].contains("replayed intent 9 that was never"),
            "{:?}",
            a.violations()
        );
    }

    #[test]
    fn double_acknowledged_intent_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::IntentAppend { node: 0, seq: 5 });
        s.emit(2, TraceEvent::IntentAppend { node: 0, seq: 5 });
        let a = a.borrow();
        assert_eq!(a.violation_count(), 1);
        assert!(a.violations()[0].contains("acknowledged intent 5 twice"));
    }

    #[test]
    fn resurrected_frame_is_flagged() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::FrameAlloc { frame: 4 });
        s.emit(2, TraceEvent::LruInsert { vpn: 4 });
        s.emit(3, TraceEvent::LruRemove { vpn: 4 });
        s.emit(4, TraceEvent::FrameFree { frame: 4 });
        // The frame re-enters the LRU without a fresh allocation.
        s.emit(5, TraceEvent::LruInsert { vpn: 4 });
        let a = a.borrow();
        assert!(
            a.violations()
                .iter()
                .any(|v| v.contains("freed frame 4 resurrected in the LRU")),
            "{:?}",
            a.violations()
        );
    }

    #[test]
    fn reallocated_frame_is_not_a_resurrection() {
        let (s, a) = audited_sink();
        s.emit(1, TraceEvent::FrameAlloc { frame: 4 });
        s.emit(2, TraceEvent::LruInsert { vpn: 4 });
        s.emit(3, TraceEvent::LruRemove { vpn: 4 });
        s.emit(4, TraceEvent::FrameFree { frame: 4 });
        // A fresh allocation legitimises the frame again.
        s.emit(5, TraceEvent::FrameAlloc { frame: 4 });
        s.emit(6, TraceEvent::LruInsert { vpn: 4 });
        assert!(a.borrow().is_clean(), "{:?}", a.borrow().violations());
    }

    /// Each cross-check, fed a census that disagrees with a clean trace in
    /// that check alone, reports exactly its own line.
    #[test]
    fn each_cross_check_flags_only_its_own_disagreement() {
        // One frame in use and in the LRU, one major fault with a fetch
        // phase, one fetch in flight, one eviction, 4 KiB of fault bytes in.
        let (s, a) = audited_sink();
        let (core, vpn, kind, phase, dur) = (0, 9, FaultKind::Major, FaultPhase::Fetch, 2_000);
        let (class, bytes, inbound, done) = (ServiceClass::Fault, 4_096, true, 0);
        let dirty = false;
        for ev in [
            TraceEvent::FrameAlloc { frame: 3 },
            TraceEvent::FaultBegin { core, vpn, kind },
            TraceEvent::FaultPhase { core, phase, dur },
            TraceEvent::FaultEnd { core, vpn },
            TraceEvent::LruInsert { vpn: 3 },
            TraceEvent::PrefetchIssue { vpn: 10 },
            TraceEvent::Evict { vpn, dirty },
            TraceEvent::LinkTransfer {
                class,
                bytes,
                inbound,
                done,
            },
        ] {
            s.emit(1, ev);
        }
        let mut matching = NodeCensus {
            frames_in_use: 1,
            inflight: BTreeSet::from([10]),
            lru_len: 1,
            ..NodeCensus::default()
        };
        matching.stats.major_faults = 1;
        matching.stats.prefetch_issued = 1;
        matching.stats.evictions = 1;
        matching.stats.breakdown.fetch = 2_000;
        matching.link_bytes[class.idx()] = (0, 4_096);
        let mut a = a.borrow_mut();
        assert_eq!(a.report(&matching), Vec::<String>::new());

        type Skew = fn(&mut NodeCensus);
        let skews: [(Skew, &str); 7] = [
            (
                |c| c.frames_in_use = 2,
                "trace says 1 frames in use, the arena says 2",
            ),
            (
                |c| c.inflight.clear(),
                "lost in-flight fetch: vpn 0xa was issued but never landed or cancelled",
            ),
            (
                |c| _ = c.inflight.insert(11),
                "untraced in-flight fetch for vpn 0xb",
            ),
            (
                |c| c.stats.major_faults = 2,
                "trace counts 1 major faults, stats say 2",
            ),
            (
                |c| c.stats.breakdown.fetch = 1,
                "Fetch phase sum 2000 != breakdown's 1",
            ),
            (
                |c| c.lru_len = 0,
                "trace says 1 LRU members, the chain holds 0",
            ),
            (
                |c| c.link_bytes[0] = (0, 0),
                "fault link bytes (0, 4096) != fabric accounting (0, 0)",
            ),
        ];
        for (skew, line) in skews {
            let mut census = matching.clone();
            skew(&mut census);
            assert_eq!(a.report(&census), [format!("[cross-check] {line}")]);
        }
    }

    #[test]
    fn violation_storage_is_capped() {
        let (s, a) = audited_sink();
        for i in 0..(MAX_VIOLATIONS as u32 + 50) {
            s.emit(i as u64, TraceEvent::FrameFree { frame: i });
        }
        let a = a.borrow();
        assert_eq!(a.violations().len(), MAX_VIOLATIONS);
        assert_eq!(a.violation_count(), MAX_VIOLATIONS as u64 + 50);
    }
}
