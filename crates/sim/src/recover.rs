//! Memnode crash–recovery: persistent state, the fault plan, and
//! detectable replay — the paper's §5.1 future work, where a memory node
//! *crashes and rejoins* rather than merely failing over.
//!
//! 1. **Persistent state** (`DurableState`, sized by [`RecoverConfig`]):
//!    an armed memory node keeps a periodic checkpoint of its page and
//!    region tables plus a write-intent log. A record is appended —
//!    durably — *before* the write's page copy is acknowledged, so every
//!    acknowledged write is inside the checkpoint or inside the log.
//! 2. **The fault plan** ([`FaultPlan`]): sorted `(When, Fault)` entries,
//!    each a crash, fail, repair or intent drop on one node, due after a
//!    data-path completion index or at a virtual instant. The endpoint
//!    applies them at one site, from its completion hook or from a
//!    [`SchedEvent::FaultDue`] wake-up; a crash plans its node's repair,
//!    so a run may hold any number of crash/recovery cycles.
//! 3. **Recovery**: on repair the node restores its checkpoint, replays
//!    the log record by record (each replay emits
//!    [`TraceEvent::RecoveryReplay`], which the auditor checks against the
//!    acknowledged intents), and reconciles with surviving replicas or EC
//!    stripes. Its cost is modelled, not charged to the calendar:
//!    [`RecoveryStats::recovery_ns`] is `replayed ×`
//!    [`REPLAY_NS_PER_RECORD`] `+ reconciled ×` [`RESYNC_NS_PER_PAGE`].
//!
//! [`SchedEvent::FaultDue`]: crate::sched::SchedEvent::FaultDue
//! [`TraceEvent::RecoveryReplay`]: crate::trace::TraceEvent::RecoveryReplay

use std::collections::BTreeMap;

use crate::time::{Ns, PAGE_SIZE};

/// Modeled replay cost per intent-log record, in virtual ns.
pub const REPLAY_NS_PER_RECORD: Ns = 500;
/// Modeled reconciliation cost per page resynced from survivors, in
/// virtual ns.
pub const RESYNC_NS_PER_PAGE: Ns = 2_000;

/// The durability model: the checkpoint interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverConfig {
    /// Seal a checkpoint once the intent log holds this many records.
    pub checkpoint_every: u64,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 64,
        }
    }
}

/// When a planned fault fires. Every `Completion` entry sorts before every
/// `At` entry; each kind has its own trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum When {
    /// Right after the endpoint's `n`-th completed data-path verb
    /// (1-based, counted from connect).
    Completion(u64),
    /// At virtual time `t`.
    At(Ns),
}

/// What a planned fault does to memory node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Volatile state lost, liveness down, `NodeCrash` emitted, and a
    /// `Repair` planned `down_for` later.
    Crash { node: usize, down_for: Ns },
    /// Liveness down; the contents stay as they were.
    Fail { node: usize },
    /// Back online and resynced from the surviving redundancy, through the
    /// recovery protocol when durable state is armed. A live node is left
    /// alone.
    Repair { node: usize },
    /// The most recent acknowledged intent record is silently dropped: a
    /// durability bug the auditor must catch at the next recovery.
    DropIntent { node: usize },
}

/// Faults still to fire, sorted by [`When`] (ties keep insertion order).
/// Build one with `collect()` over `(When, Fault)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan(Vec<(When, Fault)>);

impl FromIterator<(When, Fault)> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = (When, Fault)>>(iter: I) -> Self {
        let mut entries: Vec<_> = iter.into_iter().collect();
        entries.sort_by_key(|&(when, _)| when);
        Self(entries)
    }
}

impl<'a> IntoIterator for &'a FaultPlan {
    type Item = &'a (When, Fault);
    type IntoIter = std::slice::Iter<'a, (When, Fault)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FaultPlan {
    /// Inserts `fault` after every entry due no later than `when`.
    pub(crate) fn push(&mut self, when: When, fault: Fault) {
        let at = self.0.partition_point(|&(w, _)| w <= when);
        self.0.insert(at, (when, fault));
    }

    /// The completion index the first entry waits for (`u64::MAX` when it
    /// waits for none).
    pub(crate) fn next_completion(&self) -> u64 {
        match self.0.first() {
            Some(&(When::Completion(n), _)) => n,
            _ => u64::MAX,
        }
    }

    /// Removes the first entry if it waits for completion `n`.
    pub(crate) fn pop_completion(&mut self, n: u64) -> Option<Fault> {
        (self.next_completion() == n).then(|| self.0.remove(0).1)
    }

    /// Removes the earliest `At` entry due by `now`.
    pub(crate) fn pop_due(&mut self, now: Ns) -> Option<Fault> {
        let i = self.0.partition_point(|&(w, _)| w < When::At(0));
        match self.0.get(i) {
            Some(&(When::At(t), _)) if t <= now => Some(self.0.remove(i).1),
            _ => None,
        }
    }
}

/// Counters of the run's crash/recovery cycles. `completions`, `crashes`
/// and `recoveries` accumulate over the whole run; `log_depth_at_crash`,
/// `replayed`, `reconciled` and `recovery_ns` describe the last cycle
/// (the last crash, and the last recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Data-path verb completions so far — the index space
    /// [`When::Completion`] addresses. A sweep takes this from a
    /// crash-free run to know the valid crash points.
    pub completions: u64,
    /// Crashes fired.
    pub crashes: u64,
    /// Recoveries completed through the repair path.
    pub recoveries: u64,
    /// Intent-log depth on the last crashed node at the instant of its
    /// crash.
    pub log_depth_at_crash: u64,
    /// Intent records replayed during the last recovery.
    pub replayed: u64,
    /// Pages reconciled from surviving replicas/EC stripes during the last
    /// recovery.
    pub reconciled: u64,
    /// Modeled latency of the last recovery (replay + reconciliation).
    pub recovery_ns: Ns,
}

/// One write-intent record: the full payload of an acknowledged write,
/// appended before the page copy so replay can redo it verbatim.
#[derive(Debug, Clone)]
pub(crate) struct IntentRecord {
    /// Monotone, 1-based acknowledgement sequence number.
    pub seq: u64,
    /// Remote address the write targeted.
    pub addr: u64,
    /// The written bytes.
    pub data: Vec<u8>,
}

/// A memory node's durable image: the last sealed checkpoint plus the
/// intent log of every write acknowledged since.
///
/// Volatile state (the live page/region tables) dies with the node; this
/// struct is what survives a [`MemoryNode::crash`].
///
/// [`MemoryNode::crash`]: crate::memnode::MemoryNode::crash
#[derive(Debug)]
pub(crate) struct DurableState {
    /// Page table as of the last checkpoint.
    pub checkpoint_pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
    /// Region table as of the last checkpoint: `key → (base, len)`.
    pub checkpoint_regions: BTreeMap<u32, (u64, u64)>,
    /// Highest sequence number the checkpoint covers (0 = none).
    pub checkpoint_upto: u64,
    /// Intents acknowledged after the checkpoint, in ack order.
    pub log: Vec<IntentRecord>,
    /// Next sequence number to hand out (1-based).
    pub next_seq: u64,
    /// Seal a checkpoint once the log reaches this depth.
    pub checkpoint_every: u64,
    /// Checkpoints sealed so far.
    pub checkpoints: u64,
}

impl DurableState {
    pub fn new(checkpoint_every: u64) -> Self {
        Self {
            checkpoint_pages: BTreeMap::new(),
            checkpoint_regions: BTreeMap::new(),
            checkpoint_upto: 0,
            log: Vec::new(),
            next_seq: 1,
            checkpoint_every: checkpoint_every.max(1),
            checkpoints: 0,
        }
    }

    /// Appends (and thereby acknowledges) one write intent, returning its
    /// sequence number.
    pub fn append(&mut self, addr: u64, data: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.push(IntentRecord {
            seq,
            addr,
            data: data.to_vec(),
        });
        seq
    }

    /// Whether the log is deep enough to seal a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.log.len() as u64 >= self.checkpoint_every
    }

    /// Seals a checkpoint over the given live tables: the checkpoint now
    /// covers every acknowledged intent, and the log is truncated. Returns
    /// the sequence number the checkpoint covers up to.
    pub fn seal(
        &mut self,
        pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
        regions: BTreeMap<u32, (u64, u64)>,
    ) -> u64 {
        self.checkpoint_pages = pages;
        self.checkpoint_regions = regions;
        self.checkpoint_upto = self.next_seq - 1;
        self.log.clear();
        self.checkpoints += 1;
        self.checkpoint_upto
    }

    /// Acknowledged intents not yet covered by a checkpoint.
    pub fn log_depth(&self) -> u64 {
        self.log.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_one_based_and_monotone() {
        let mut d = DurableState::new(4);
        assert_eq!(d.append(0, &[1]), 1);
        assert_eq!(d.append(8, &[2]), 2);
        assert_eq!(d.log_depth(), 2);
        assert!(!d.should_checkpoint());
    }

    #[test]
    fn sealing_covers_the_log_and_truncates_it() {
        let mut d = DurableState::new(2);
        d.append(0, &[1]);
        d.append(8, &[2]);
        assert!(d.should_checkpoint());
        let upto = d.seal(BTreeMap::new(), BTreeMap::new());
        assert_eq!(upto, 2);
        assert_eq!(d.checkpoint_upto, 2);
        assert_eq!(d.log_depth(), 0);
        assert_eq!(d.checkpoints, 1);
        // The next ack continues the sequence past the checkpoint.
        assert_eq!(d.append(16, &[3]), 3);
    }

    #[test]
    fn checkpoint_every_is_clamped_to_at_least_one() {
        let d = DurableState::new(0);
        assert_eq!(d.checkpoint_every, 1);
    }

    #[test]
    fn plan_sorts_by_when_and_keeps_ties_in_order() {
        let fail = |node| Fault::Fail { node };
        let mut plan: FaultPlan = [(When::At(50), fail(0)), (When::Completion(9), fail(1))]
            .into_iter()
            .collect();
        plan.push(When::At(50), fail(2));
        plan.push(When::Completion(3), fail(3));
        assert_eq!(plan.pop_completion(9), None, "completion 3 comes first");
        assert_eq!(plan.pop_completion(3), Some(fail(3)));
        assert_eq!(plan.pop_due(49), None, "not due yet");
        assert_eq!(plan.pop_due(50), Some(fail(0)));
        assert_eq!(plan.pop_due(60), Some(fail(2)));
        assert_eq!(plan.pop_completion(9), Some(fail(1)));
        assert_eq!(plan, FaultPlan::default());
    }
}
