//! One-sided RDMA verbs over per-core, per-module queue pairs.
//!
//! This is the data path DiLOS's low-latency driver exposes (§5): the LibOS
//! writes a WQE to its queue pair via BlueFlame MMIO, the NIC streams the
//! payload, and a completion arrives `base + bytes/bandwidth` later. The
//! model captures the three behaviours the paper's evaluation depends on:
//!
//! 1. **Queue-pair FIFO ordering** — verbs posted to the same QP complete in
//!    order, so a demand fetch posted behind a large writeback suffers
//!    head-of-line blocking. DiLOS's per-core, per-module queues (§4.5)
//!    avoid this; the `shared_queue` ablation mode re-introduces it.
//! 2. **Shared-wire bandwidth** — all QPs contend for the 100 GbE link.
//! 3. **Vectored (scatter/gather) verbs** — used by guided paging (§4.4),
//!    with the measured penalty past three segments (§6.3).
//!
//! The optional TCP mode adds the paper's 14,000-cycle handicap per
//! completion (§6.2) for the AIFM-comparable configuration.

use std::collections::BTreeMap;

use crate::config::SimConfig;
use crate::fabric::{Fabric, ServiceClass};
use crate::machine::DeliverCompletion;
use crate::memnode::{Durability, MemNodeError, MemoryNode, RegionHandle};
use crate::obs::Observability;
use crate::recover::{
    Fault, FaultPlan, RecoverConfig, RecoveryStats, When, REPLAY_NS_PER_RECORD, RESYNC_NS_PER_PAGE,
};
use crate::sched::{Calendar, SchedEvent};
use crate::store::Page;
use crate::time::{Ns, PAGE_SIZE};
use crate::timeline::Timeline;
use crate::trace::{ReqId, TraceEvent, TraceSink};

mod redundancy;

pub use redundancy::Redundancy;
use redundancy::Scheme;

/// One entry of a scatter/gather vector: `len` bytes at remote address
/// `remote`, landing at `offset` within the local page buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Remote (memory-node) address of the segment.
    pub remote: u64,
    /// Byte offset within the local buffer.
    pub offset: usize,
    /// Segment length in bytes.
    pub len: usize,
}

impl Segment {
    /// The one-segment vector of a plain verb: `len` bytes at `remote`,
    /// landing at the start of the local buffer.
    pub fn whole(remote: u64, len: usize) -> Self {
        Self {
            remote,
            offset: 0,
            len,
        }
    }
}

/// The local side of a verb: which way the payload moves, and the buffer
/// the segments' offsets index into.
pub(crate) enum Local<'a> {
    /// Remote → local (one-sided read) into every byte the segments name.
    Read(&'a mut [u8]),
    /// Local → remote (one-sided write).
    Write(&'a [u8]),
    /// [`Read`](Self::Read) of a whole aligned page into a shared image.
    ReadPage(&'a mut Page),
    /// [`Write`](Self::Write) of a whole aligned page as a shared image.
    WritePage(&'a Page),
}

impl Local<'_> {
    /// `(write, bytes, whole page)`: the direction and the local buffer.
    pub(crate) fn shape(&self) -> (bool, usize, bool) {
        match self {
            Local::Read(buf) => (false, buf.len(), false),
            Local::Write(buf) => (true, buf.len(), false),
            Local::ReadPage(_) => (false, PAGE_SIZE, true),
            Local::WritePage(_) => (true, PAGE_SIZE, true),
        }
    }
}

/// Errors surfaced by the verb layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// The memory node rejected the access.
    Remote(MemNodeError),
    /// A scatter/gather segment falls outside the local buffer.
    BadSegment,
    /// An empty scatter/gather vector was posted.
    EmptyVector,
    /// Every replica holding the address is down: the data is lost.
    AllReplicasDown,
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::Remote(e) => write!(f, "memory node rejected access: {e}"),
            RdmaError::BadSegment => write!(f, "segment outside local buffer"),
            RdmaError::EmptyVector => write!(f, "empty scatter/gather vector"),
            RdmaError::AllReplicasDown => {
                write!(f, "all replicas of the address are unreachable")
            }
        }
    }
}

impl std::error::Error for RdmaError {}

impl From<MemNodeError> for RdmaError {
    fn from(e: MemNodeError) -> Self {
        RdmaError::Remote(e)
    }
}

/// Per-class operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// One-sided reads posted.
    pub reads: u64,
    /// One-sided writes posted.
    pub writes: u64,
}

/// One memory node of the pool: its storage, its link, its liveness.
#[derive(Debug)]
struct RemoteNode {
    node: MemoryNode,
    region: RegionHandle,
    fabric: Fabric,
    alive: bool,
    /// Whether the compute node has already observed this node's death
    /// (the first access after a failure pays the RNIC retry timeout).
    death_detected: bool,
}

/// The compute node's RDMA endpoint: QPs, per-node fabrics, and the memory
/// node pool.
///
/// The default is the paper's configuration — one memory node (§5.1: "a
/// computing node only supports one memory node, just as in Fastswap and
/// AIFM"). [`connect_cluster`](Self::connect_cluster) implements the §5.1
/// future-work extension: pages are striped across `n` nodes and kept
/// through node deaths by one [`Redundancy`] scheme.
#[derive(Debug)]
pub struct RdmaEndpoint {
    nodes: Vec<RemoteNode>,
    scheme: Scheme,
    /// Degraded reads served by erasure-decode.
    reconstructions: u64,
    /// Queue-pair timelines in a dense core-major layout:
    /// `(core * nodes + node) * 5 + class`. Growing the core dimension
    /// appends whole blocks, so existing indices never move, and iteration
    /// order is structural — no hash order can leak into completion times.
    qps: Vec<Timeline>,
    /// Cores the `qps` table currently covers.
    qp_cores: usize,
    ops: [OpCounts; 5],
    /// Ablation: collapse all per-core, per-module queues into one QP.
    shared_queue: bool,
    /// Add the emulated TCP delay to every completion (AIFM comparison).
    tcp_mode: bool,
    failovers: u64,
    trace: TraceSink,
    /// When attached, traced verb completions are delivered through the
    /// event calendar at their true virtual time instead of being emitted
    /// inline at issue time.
    calendar: Option<Calendar>,
    /// Per-tenant protection keys, one region handle per memory node.
    /// Ordered by tenant id so enumeration can never leak hash order.
    tenants: BTreeMap<u8, Vec<RegionHandle>>,
    /// Tenant whose observability/calendar context is currently installed.
    /// `None` until the first [`activate_tenant`](Self::activate_tenant);
    /// an endpoint driven directly (Fastswap, AIFM) never activates.
    active: Option<u8>,
    /// Faults still to fire (see [`inject`](Self::inject)).
    faults: FaultPlan,
    /// `faults.next_completion()`, cached: the completion hook's compare.
    next_completion: u64,
    /// Verbs that completed with an error: posted, but not completions.
    failed_verbs: u64,
    /// Counters of the crash/recovery cycles so far (`completions` is
    /// filled in when they are read).
    stats: RecoveryStats,
    /// Causal request ids of calendar-deferred completions, FIFO per queue
    /// pair. `SchedEvent::RdmaCompletion` carries no id (the calendar is
    /// not part of the digest contract but its events are shared with
    /// baselines), so the id rides here: pushed at issue time, popped at
    /// delivery. Side-band only — never digested. Dense core-major layout
    /// like `qps`, with a write/read split per class:
    /// `((core * nodes + node) * 5 + class) * 2 + write`.
    pending_req: Vec<std::collections::VecDeque<Option<ReqId>>>,
    /// Cores the `pending_req` table currently covers.
    pending_cores: usize,
}

impl RdmaEndpoint {
    /// Connects to a fresh memory node exposing `remote_bytes` of memory.
    ///
    /// This performs the one-time control path: region registration and
    /// protection-key exchange.
    pub fn connect(cfg: SimConfig, remote_bytes: u64) -> Self {
        Self::connect_cluster(cfg, remote_bytes, 1, Redundancy::default())
    }

    /// Routes the events of the endpoint's verbs, and of the links and
    /// memory nodes they drive, into the bundle's trace sink.
    pub fn observe(&mut self, obs: &Observability) {
        self.trace = obs.trace().clone();
    }

    /// Registers tenant `tenant`'s slice `[base, base + bytes)` on every
    /// memory node, returning nothing: the per-node protection keys are kept
    /// inside the endpoint and selected by
    /// [`activate_tenant`](Self::activate_tenant). This is the control-path
    /// setup a cluster performs once per tenant at boot.
    pub fn register_tenant(&mut self, tenant: u8, base: u64, bytes: u64) {
        let regions = self
            .nodes
            .iter_mut()
            .map(|n| n.node.register_region(base, bytes))
            .collect();
        self.tenants.insert(tenant, regions);
    }

    /// Installs tenant `tenant`'s observability bundle, calendar, and
    /// protection keys as the endpoint's active context. Cheap when the
    /// tenant is already active (the common case between interleaved verbs).
    pub fn activate_tenant(&mut self, tenant: u8, obs: &Observability, cal: &Calendar) {
        if self.active == Some(tenant) {
            return;
        }
        self.active = Some(tenant);
        for n in &mut self.nodes {
            n.fabric.set_active_tenant(tenant);
        }
        self.trace = obs.trace().clone();
        self.calendar = Some(cal.clone());
    }

    /// Enables QoS bandwidth arbitration on every node's fabric with the
    /// given per-tenant link weights.
    pub fn set_qos(&mut self, shares: BTreeMap<u8, u32>) {
        for n in &mut self.nodes {
            n.fabric.set_qos(shares.clone());
        }
    }

    /// The protection key for node `ni` under the active tenant (the node's
    /// full-pool key when no tenant is active).
    fn region_of(&self, ni: usize) -> RegionHandle {
        match self.active.and_then(|t| self.tenants.get(&t)) {
            Some(regions) => regions[ni],
            None => self.nodes[ni].region,
        }
    }

    /// Bytes attributed to `(tenant, class)` across every node's link:
    /// `(tx, rx)`. An endpoint that never activates a tenant carries all
    /// its traffic on tenant 0's rows.
    pub fn tenant_class_bytes(&self, tenant: u8, class: ServiceClass) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(tx, rx), n| {
            (
                tx + n.fabric.tenant_tx(tenant, class),
                rx + n.fabric.tenant_rx(tenant, class),
            )
        })
    }

    /// Queue pairs whose timeline is still occupied at `now` — the per-QP
    /// depth gauge the sampler snapshots.
    pub fn busy_qps(&self, now: Ns) -> usize {
        self.qps.iter().filter(|q| q.busy_until() > now).count()
    }

    /// The primary shard index for `remote` (event labelling).
    fn shard_of(&self, remote: u64) -> u8 {
        (((remote >> 12) as usize) % self.nodes.len()) as u8
    }

    /// Traces one access to memory node `node` that a verb posted at `now`
    /// drove: the write's intent, the access, then the checkpoint the write
    /// sealed. `wrote` is `None` for a read.
    fn served(&self, now: Ns, node: usize, offset: u64, len: usize, wrote: Option<Durability>) {
        let (node, d) = (node as u8, wrote.unwrap_or_default());
        if let Some(seq) = d.intent {
            self.trace.emit(now, TraceEvent::IntentAppend { node, seq });
        }
        let (write, len) = (wrote.is_some(), len as u32);
        self.trace
            .emit(now, TraceEvent::MemAccess { write, offset, len });
        if let Some(upto) = d.sealed {
            self.trace.emit(now, TraceEvent::Checkpoint { node, upto });
        }
    }

    /// Attaches the shared event calendar. Traced completions are then
    /// posted as [`SchedEvent::RdmaCompletion`] entries and surface in the
    /// trace when the owner drains the calendar (via [`DeliverCompletion`]),
    /// so the `RdmaComplete` event appears at its delivery time rather than
    /// wherever in the issue sequence the verb happened to be posted.
    pub fn set_calendar(&mut self, cal: Calendar) {
        self.calendar = Some(cal);
    }

    fn trace_complete(
        &mut self,
        core: usize,
        class: ServiceClass,
        write: bool,
        node: u8,
        done: Ns,
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        if let Some(cal) = &self.calendar {
            cal.schedule(
                done,
                SchedEvent::RdmaCompletion {
                    class,
                    write,
                    node,
                    core: core as u8,
                },
            );
            // Remember which request issued this verb so the deferred
            // `RdmaComplete` re-attributes to it at delivery time.
            let idx = self.pending_idx(node as usize, core, class, write);
            self.pending_req[idx].push_back(self.trace.current_request());
            return;
        }
        self.trace.emit(
            done,
            TraceEvent::RdmaComplete {
                class,
                write,
                node,
                core: core as u8,
                done,
            },
        );
    }

    /// Whether memory node `i` is currently online.
    pub fn node_alive(&self, i: usize) -> bool {
        self.nodes[i].alive
    }

    /// Brings memory node `i` back online at virtual time `now` and
    /// resyncs it from the surviving redundancy (replica copy, or
    /// Reed–Solomon reconstruction) on the control path: no verb latency,
    /// no data-path events. With durable state armed it runs the recovery
    /// protocol around the resync: restore the checkpoint, replay the
    /// intent log ([`TraceEvent::RecoveryReplay`] per record), then emit
    /// [`TraceEvent::RecoveryComplete`] and seal a fresh checkpoint — in
    /// that order, since the auditor closes its no-acknowledged-write-lost
    /// window on `RecoveryComplete` and an earlier seal would mask a
    /// dropped intent. A no-op on a live node.
    fn repair(&mut self, now: Ns, i: usize) {
        if self.nodes[i].alive {
            return;
        }
        self.nodes[i].alive = true;
        self.nodes[i].death_detected = false;
        let node = i as u8;
        let armed = self.nodes[i].node.persistence_armed();
        let seqs = self.nodes[i].node.recover_from_durable();
        for &seq in &seqs {
            self.trace
                .emit(now, TraceEvent::RecoveryReplay { node, seq });
        }
        let reconciled = self.resync(i);
        if !armed {
            return;
        }
        let replayed = seqs.len() as u64;
        self.trace.emit(
            now,
            TraceEvent::RecoveryComplete {
                node,
                replayed,
                reconciled,
            },
        );
        if let Some(upto) = self.nodes[i].node.seal() {
            self.trace.emit(now, TraceEvent::Checkpoint { node, upto });
        }
        self.stats.recoveries += 1;
        self.stats.replayed = replayed;
        self.stats.reconciled = reconciled;
        self.stats.recovery_ns = replayed
            .saturating_mul(REPLAY_NS_PER_RECORD)
            .saturating_add(reconciled.saturating_mul(RESYNC_NS_PER_PAGE));
    }

    // ------------------------------------------------------------------
    // Fault plan + recovery (dilos_sim::recover).
    // ------------------------------------------------------------------

    /// Arms durable state on every memory node: a write-intent log and a
    /// checkpoint sealed every `cfg.checkpoint_every` records.
    pub fn arm_durability(&mut self, cfg: RecoverConfig) {
        for n in &mut self.nodes {
            n.node.arm_persistence(cfg.checkpoint_every);
        }
    }

    /// Counters of the crash/recovery cycles so far (zeroes unless durable
    /// state is armed).
    pub fn recovery_stats(&self) -> RecoveryStats {
        if !self.nodes[0].node.persistence_armed() {
            return RecoveryStats::default();
        }
        RecoveryStats {
            completions: self.completions(),
            ..self.stats
        }
    }

    /// Data-path verbs completed so far: every posted verb but the failed.
    fn completions(&self) -> u64 {
        let posted: u64 = self.ops.iter().map(|c| c.reads + c.writes).sum();
        posted - self.failed_verbs
    }

    /// Adds `fault` to the plan, or applies it at once if `when` is due by
    /// `now`. A planned instant gets a [`SchedEvent::FaultDue`] wake-up on
    /// the attached calendar (without one it never fires).
    ///
    /// # Panics
    ///
    /// Panics if the fault names a node outside the pool.
    pub fn inject(&mut self, now: Ns, when: When, fault: Fault) {
        let (Fault::Crash { node, .. }
        | Fault::Fail { node }
        | Fault::Repair { node }
        | Fault::DropIntent { node }) = fault;
        assert!(node < self.nodes.len(), "fault node {node} out of range");
        let due = match when {
            When::Completion(n) => n <= self.completions(),
            When::At(t) => t <= now,
        };
        if due {
            return self.apply(now, fault);
        }
        if let (When::At(t), Some(cal)) = (when, &self.calendar) {
            cal.schedule(t, SchedEvent::FaultDue);
        }
        self.faults.push(when, fault);
        self.next_completion = self.faults.next_completion();
    }

    /// The [`SchedEvent::FaultDue`] handler: applies the earliest planned
    /// instant fault due by `now` (each has its own wake-up).
    pub fn fault_due(&mut self, now: Ns) {
        if let Some(fault) = self.faults.pop_due(now) {
            self.apply(now, fault);
        }
    }

    /// The completion hook's slow path, taken while a `Completion` entry
    /// is planned: applies every entry due at the completion just counted.
    #[inline(never)]
    fn completed(&mut self, done: Ns) {
        let n = self.completions();
        while let Some(fault) = self.faults.pop_completion(n) {
            self.apply(done, fault);
        }
        self.next_completion = self.faults.next_completion();
    }

    /// Applies one fault at virtual time `now`: the only place a fault
    /// takes effect. A crash plans its node's repair `down_for` later.
    #[inline(never)]
    fn apply(&mut self, now: Ns, fault: Fault) {
        match fault {
            Fault::Crash { node, down_for } => {
                self.stats.crashes += 1;
                self.stats.log_depth_at_crash = self.nodes[node].node.intent_log_depth();
                self.nodes[node].alive = false;
                self.nodes[node].node.crash();
                self.trace
                    .emit(now, TraceEvent::NodeCrash { node: node as u8 });
                let back = When::At(now.saturating_add(down_for));
                self.inject(now, back, Fault::Repair { node });
            }
            Fault::Fail { node } => self.nodes[node].alive = false,
            Fault::Repair { node } => self.repair(now, node),
            Fault::DropIntent { node } => {
                self.nodes[node].node.corrupt_drop_last_intent();
            }
        }
    }

    /// How many reads had to fail over to a non-primary replica.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// How many degraded reads were served by erasure-decode.
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions
    }

    /// Pages materialized across the whole pool (storage-overhead metric:
    /// replication stores `r` copies, erasure coding `(k + m) / k`).
    pub fn total_resident_pages(&self) -> usize {
        self.nodes.iter().map(|n| n.node.resident_pages()).sum()
    }

    /// Enables the shared-queue ablation (head-of-line blocking returns).
    pub fn set_shared_queue(&mut self, on: bool) {
        self.shared_queue = on;
    }

    /// Enables the emulated TCP delay per completion.
    pub fn set_tcp_mode(&mut self, on: bool) {
        self.tcp_mode = on;
    }

    /// The calibration constants in force.
    pub fn cfg(&self) -> &SimConfig {
        self.nodes[0].fabric.cfg()
    }

    /// The primary node's fabric (byte rows, link utilization).
    pub fn fabric(&self) -> &Fabric {
        &self.nodes[0].fabric
    }

    /// Total bytes on the wire across every node's link: `(tx, rx)`.
    pub fn total_bytes(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(tx, rx), n| {
            let (out, inb) = n.fabric.total_bytes();
            (tx + out, rx + inb)
        })
    }

    /// Link busy time summed over every node's link.
    pub fn link_busy(&self) -> Ns {
        self.nodes
            .iter()
            .fold(0, |busy: Ns, n| busy.saturating_add(n.fabric.link_busy()))
    }

    /// Direct access to a remote node (tests and verification only; real
    /// data-path traffic must go through the verbs).
    pub fn node(&self) -> &MemoryNode {
        &self.nodes[0].node
    }

    /// Swaps every node's page store for the `BTreeStore` reference backend
    /// (see [`MemoryNode::use_reference_store`]).
    #[cfg(test)]
    fn use_reference_stores(&mut self) {
        for n in &mut self.nodes {
            n.node.use_reference_store();
        }
    }

    /// Per-class op counters.
    pub fn ops(&self, class: ServiceClass) -> OpCounts {
        self.ops[class.idx()]
    }

    fn qp(&mut self, node: usize, core: usize, class: ServiceClass) -> &mut Timeline {
        let (core, cls) = if self.shared_queue {
            (0, 0)
        } else {
            (core, class.idx())
        };
        if core >= self.qp_cores {
            self.qp_cores = core + 1;
            self.qps
                .resize_with(self.qp_cores * self.nodes.len() * 5, Timeline::default);
        }
        &mut self.qps[(core * self.nodes.len() + node) * 5 + cls]
    }

    /// Index into `pending_req`, growing the table's core dimension on
    /// first use (append-only, so existing indices never move).
    fn pending_idx(&mut self, node: usize, core: usize, class: ServiceClass, write: bool) -> usize {
        if core >= self.pending_cores {
            self.pending_cores = core + 1;
            self.pending_req.resize_with(
                self.pending_cores * self.nodes.len() * 5 * 2,
                std::collections::VecDeque::new,
            );
        }
        ((core * self.nodes.len() + node) * 5 + class.idx()) * 2 + usize::from(write)
    }

    /// Models one verb's timing: QP FIFO + shared wire + fixed latency.
    ///
    /// Returns the completion time. The QP is occupied for the doorbell plus
    /// the wire time (FIFO ordering of same-QP verbs); the wire is shared
    /// across QPs; the remaining fixed latency (NIC processing, PCIe DMA,
    /// propagation) rides on top.
    #[expect(clippy::too_many_arguments, reason = "a verb's timing needs them all")]
    fn verb_timing(
        &mut self,
        node: usize,
        now: Ns,
        core: usize,
        class: ServiceClass,
        bytes: usize,
        segments: usize,
        is_read: bool,
    ) -> Ns {
        let (wire, total) = self.nodes[node].fabric.verb_cost(bytes, is_read);
        // Fold the config into scalars up front so the mutable QP/fabric
        // borrows below don't force a per-verb SimConfig clone.
        let cfg = self.nodes[node].fabric.cfg();
        let doorbell = cfg.qp_doorbell_ns;
        let mut rest = total.saturating_sub(wire.saturating_add(doorbell));
        rest = rest
            .saturating_add(cfg.sg_extra_ns(segments))
            .saturating_sub(cfg.memnode_hugepage_saving_ns);
        let tcp_extra = if self.tcp_mode { cfg.tcp_extra_ns() } else { 0 };
        let (_, qp_end) = self
            .qp(node, core, class)
            .acquire(now, doorbell.saturating_add(wire));
        let t = qp_end - wire;
        let wire_end = self.nodes[node].fabric.transfer(t, class, bytes, is_read);
        // Stamped with the *request* time `t`, not the queued start:
        // queueing delay is visible as `done - t - wire_ns`.
        self.trace.emit(
            t,
            TraceEvent::LinkTransfer {
                class,
                bytes: bytes as u32,
                inbound: is_read,
                done: wire_end,
            },
        );
        qp_end
            .max(wire_end)
            .saturating_add(rest)
            .saturating_add(tcp_extra)
    }

    /// The one verb body: every public verb is a segment list plus a
    /// [`Local`] buffer posted here. Checks the vector, counts the op,
    /// traces issue and completion, moves the bytes under the endpoint's
    /// redundancy strategy, and runs the fault plan's completion hook.
    /// Returns the completion time.
    pub(crate) fn post(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        mut local: Local<'_>,
    ) -> Result<Ns, RdmaError> {
        let (write, buf_len, page) = local.shape();
        let bytes = Self::check_segments(segments, buf_len)?;
        if page && !segments[0].remote.is_multiple_of(PAGE_SIZE as u64) {
            return Err(RdmaError::BadSegment);
        }
        let counts = &mut self.ops[class.idx()];
        if write {
            counts.writes += 1;
        } else {
            counts.reads += 1;
        }
        let shard = self.shard_of(segments[0].remote);
        self.trace.emit(
            now,
            TraceEvent::RdmaIssue {
                class,
                write,
                node: shard,
                core: core as u8,
                bytes: bytes as u32,
            },
        );
        let moved = self.transfer(now, core, class, shard, segments, bytes, &mut local);
        // A failed verb still completes — the RNIC reports the error in a
        // CQE — so every traced issue is paired with a completion.
        let (done, node) = moved.inspect_err(|_| {
            self.failed_verbs += 1;
            self.trace_complete(core, class, write, shard, now);
        })?;
        self.trace_complete(core, class, write, node, done);
        if self.next_completion != u64::MAX {
            self.completed(done);
        }
        Ok(done)
    }

    /// Posts a one-sided read of `buf.len()` bytes from `remote`. Every
    /// byte of `buf` is written.
    ///
    /// Returns the virtual completion time; the caller decides whether to
    /// block on it (demand fetch) or continue (asynchronous prefetch).
    pub fn read(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::Read(buf))
    }

    /// [`read`](Self::read). A compatibility shim for existing callers,
    /// going with the verb shims (ROADMAP item 5).
    pub fn read_live(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.read(now, core, class, remote, buf)
    }

    /// [`read`](Self::read) of the page at aligned `remote`: `page` becomes
    /// a shared image of the stored page instead of a copy. An unaligned
    /// `remote` is [`RdmaError::BadSegment`].
    pub fn read_page(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        page: &mut Page,
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::ReadPage(page))
    }

    /// Posts a one-sided write of `buf` to `remote`.
    pub fn write(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &[u8],
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::Write(buf))
    }

    /// [`write`](Self::write); `_live` is unused. A compatibility shim for
    /// existing callers, going with the verb shims (ROADMAP item 5).
    pub fn write_live(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &[u8],
        _live: usize,
    ) -> Result<Ns, RdmaError> {
        self.write(now, core, class, remote, buf)
    }

    /// [`write`](Self::write) of the page at aligned `remote`: every live
    /// replica stores `page` itself instead of a copy. An unaligned
    /// `remote` is [`RdmaError::BadSegment`].
    pub fn write_page(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        page: &Page,
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::WritePage(page))
    }

    /// The plain verbs' one body: the whole local buffer as one segment.
    fn post_whole(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        local: Local<'_>,
    ) -> Result<Ns, RdmaError> {
        let seg = [Segment::whole(remote, local.shape().1)];
        self.post(now, core, class, &seg, local)
    }

    /// Posts a vectored (scatter) read: each segment lands at its offset in
    /// `buf`, and the bytes between segments are not touched. Guided paging
    /// uses this to fetch only the live chunks of a page (§4.4).
    pub fn read_v(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.post(now, core, class, segments, Local::Read(buf))
    }

    /// Posts a vectored (gather) write: each segment is taken from its
    /// offset in `buf`.
    pub fn write_v(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        buf: &[u8],
    ) -> Result<Ns, RdmaError> {
        self.post(now, core, class, segments, Local::Write(buf))
    }

    /// Validates a scatter/gather vector against a `buf_len`-byte local
    /// buffer and returns its payload size. A vectored verb addresses one
    /// page — the serving shard is chosen from the first segment — so a
    /// segment starting in any other page is rejected rather than served
    /// from the wrong memory node.
    fn check_segments(segments: &[Segment], buf_len: usize) -> Result<usize, RdmaError> {
        let first = segments.first().ok_or(RdmaError::EmptyVector)?;
        let mut bytes = 0usize;
        for s in segments {
            let end = s.offset.checked_add(s.len).ok_or(RdmaError::BadSegment)?;
            if end > buf_len || s.remote >> 12 != first.remote >> 12 {
                return Err(RdmaError::BadSegment);
            }
            bytes += s.len;
        }
        Ok(bytes)
    }
}

/// Re-attributes each deferred `RdmaComplete` to the request that issued it.
impl DeliverCompletion for RdmaEndpoint {
    fn deliver_completion(&mut self, t: Ns, class: ServiceClass, write: bool, node: u8, core: u8) {
        let idx = self.pending_idx(node as usize, core as usize, class, write);
        let req = self.pending_req[idx].pop_front().flatten();
        let prev_req = self.trace.set_request(req);
        self.trace.emit(
            t,
            TraceEvent::RdmaComplete {
                class,
                write,
                node,
                core,
                done: t,
            },
        );
        self.trace.set_request(prev_req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PAGE_SIZE;
    use proptest::prelude::*;
    use std::rc::Rc;
    use Redundancy::{Erasure, Replicas};

    /// A pool of `nodes` memory nodes under `redundancy`.
    fn pool(bytes: u64, nodes: usize, redundancy: Redundancy) -> RdmaEndpoint {
        RdmaEndpoint::connect_cluster(SimConfig::default(), bytes, nodes, redundancy)
    }

    fn ep() -> RdmaEndpoint {
        RdmaEndpoint::connect(SimConfig::default(), 1 << 30)
    }

    #[test]
    fn isolated_read_latency_matches_calibration() {
        let mut e = ep();
        let cfg = e.fabric().cfg().clone();
        let mut buf = [0u8; PAGE_SIZE];
        let done = e.read(1_000, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        let expected = 1_000 + cfg.rdma_read_ns(PAGE_SIZE) - cfg.memnode_hugepage_saving_ns;
        assert_eq!(done, expected);
    }

    #[test]
    fn write_then_read_roundtrips_payload() {
        let mut e = ep();
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 255) as u8).collect();
        e.write(0, 0, ServiceClass::Cleaner, 8192, &data).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        e.read(0, 0, ServiceClass::Fault, 8192, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn same_qp_verbs_suffer_head_of_line_blocking() {
        let mut e = ep();
        let mut buf = [0u8; PAGE_SIZE];
        let first = e.read(0, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        let second = e.read(0, 0, ServiceClass::Fault, 4096, &mut buf).unwrap();
        assert!(second > first, "FIFO ordering on one QP");
    }

    #[test]
    fn separate_classes_avoid_qp_blocking() {
        // Post a big cleaner write, then a fault read at the same instant.
        // With per-module queues the fault read's QP is idle.
        let mut e = ep();
        let big = vec![0u8; PAGE_SIZE];
        let mut buf = [0u8; PAGE_SIZE];
        e.write(0, 0, ServiceClass::Cleaner, 0, &big).unwrap();
        let isolated = e.cfg().rdma_read_ns(PAGE_SIZE);
        let done = e.read(0, 0, ServiceClass::Fault, 4096, &mut buf).unwrap();
        // Only wire sharing (one page of occupancy) may delay it, not the
        // full preceding verb.
        let wire = e.cfg().wire_ns(PAGE_SIZE);
        assert!(done <= isolated + 2 * wire, "done {done}");

        // With the shared-queue ablation, the read queues behind the write.
        let mut e2 = ep();
        e2.set_shared_queue(true);
        e2.write(0, 0, ServiceClass::Cleaner, 0, &big).unwrap();
        let done2 = e2.read(0, 0, ServiceClass::Fault, 4096, &mut buf).unwrap();
        assert!(
            done2 > done,
            "shared queue must be slower: {done2} vs {done}"
        );
    }

    #[test]
    fn vectored_read_lands_segments_at_offsets() {
        let mut e = ep();
        e.write(0, 0, ServiceClass::App, 0, &[0xAA; 64]).unwrap();
        e.write(0, 0, ServiceClass::App, 512, &[0xBB; 64]).unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        let segs = [
            Segment {
                remote: 0,
                offset: 0,
                len: 64,
            },
            Segment {
                remote: 512,
                offset: 512,
                len: 64,
            },
        ];
        e.read_v(0, 0, ServiceClass::Guide, &segs, &mut page)
            .unwrap();
        assert!(page[..64].iter().all(|&b| b == 0xAA));
        assert!(page[512..576].iter().all(|&b| b == 0xBB));
        assert!(page[64..512].iter().all(|&b| b == 0));
    }

    #[test]
    fn vectored_read_fetches_fewer_bytes() {
        let mut e = ep();
        let mut page = vec![0u8; PAGE_SIZE];
        let segs = [Segment {
            remote: 0,
            offset: 0,
            len: 128,
        }];
        e.read_v(0, 0, ServiceClass::Guide, &segs, &mut page)
            .unwrap();
        assert_eq!(e.fabric().tenant_rx(0, ServiceClass::Guide), 128);
    }

    #[test]
    fn long_vectors_are_penalized() {
        let mut e = ep();
        let mut page = vec![0u8; PAGE_SIZE];
        let seg = |i: usize| Segment {
            remote: i as u64 * 64,
            offset: i * 64,
            len: 64,
        };
        let three: Vec<_> = (0..3).map(seg).collect();
        let six: Vec<_> = (0..6).map(seg).collect();
        let t3 = e
            .read_v(0, 0, ServiceClass::Guide, &three, &mut page)
            .unwrap();
        let base = t3; // Next op starts after; compare marginal latencies.
        let t6 = e
            .read_v(base, 0, ServiceClass::Guide, &six, &mut page)
            .unwrap()
            - base;
        let t3_lat = t3;
        assert!(
            t6 > t3_lat,
            "six segments slower than three: {t6} vs {t3_lat}"
        );
    }

    #[test]
    fn bad_vectors_are_rejected() {
        let mut e = ep();
        let mut page = vec![0u8; 128];
        assert_eq!(
            e.read_v(0, 0, ServiceClass::Guide, &[], &mut page),
            Err(RdmaError::EmptyVector)
        );
        let bad = [Segment {
            remote: 0,
            offset: 100,
            len: 100,
        }];
        assert_eq!(
            e.read_v(0, 0, ServiceClass::Guide, &bad, &mut page),
            Err(RdmaError::BadSegment)
        );
        // On a striped pool the shard comes from the first segment, so a
        // segment starting in another page would be served from the wrong
        // memory node: rejected, in both directions.
        let mut e = pool(1 << 24, 2, Replicas(1));
        e.write(0, 0, ServiceClass::App, 4096, &[7; 64]).unwrap();
        let seg = |remote, offset| Segment {
            remote,
            offset,
            len: 64,
        };
        let stray = [seg(0, 0), seg(4096, 64)];
        assert_eq!(
            e.read_v(0, 0, ServiceClass::Guide, &stray, &mut page),
            Err(RdmaError::BadSegment)
        );
        assert_eq!(
            e.write_v(0, 0, ServiceClass::Guide, &stray, &page),
            Err(RdmaError::BadSegment)
        );
        let same_page = [seg(4096, 0), seg(4096 + 64, 64)];
        e.read_v(0, 0, ServiceClass::Guide, &same_page, &mut page)
            .unwrap();
        assert!(page[..64].iter().all(|&b| b == 7));
        // A page verb moves one whole page: an unaligned one is refused
        // before it is counted or posted, in both directions.
        let mut img: Page = Rc::new([0; PAGE_SIZE]);
        let posted = e.total_bytes();
        assert_eq!(
            e.read_page(0, 0, ServiceClass::Fault, 4096 + 64, &mut img),
            Err(RdmaError::BadSegment)
        );
        assert_eq!(
            e.write_page(0, 0, ServiceClass::Cleaner, 64, &img),
            Err(RdmaError::BadSegment)
        );
        assert_eq!(e.total_bytes(), posted);
        assert_eq!(e.ops(ServiceClass::Fault).reads, 0);
    }

    /// Everything a caller can observe about an endpoint after a run.
    fn observable(e: &RdmaEndpoint, obs: &Observability) -> ((u64, u64), [u64; 2], u64) {
        let ops = e.ops(ServiceClass::App);
        let counts = [ops.reads, ops.writes];
        (e.total_bytes(), counts, obs.trace().digest())
    }

    /// The shim/core relation: a plain verb *is* the one-segment vectored
    /// verb — same completion times, bytes, op counts and trace — on every
    /// redundancy strategy, healthy and degraded.
    #[test]
    fn plain_verbs_equal_one_segment_vectors() {
        let boots: [fn() -> RdmaEndpoint; 3] = [
            || pool(1 << 22, 1, Replicas(1)),
            || pool(1 << 22, 3, Replicas(2)),
            || pool(1 << 22, 5, Erasure { k: 3, m: 2 }),
        ];
        let class = ServiceClass::App;
        // Page 0 lives on node 0 under every placement (stripe, EC lane).
        let remote = 64;
        let data: Vec<u8> = (0..256).map(|i| i as u8 | 1).collect();
        let seg = [Segment {
            remote,
            offset: 0,
            len: data.len(),
        }];
        for boot in boots {
            let (mut plain, mut vectored) = (boot(), boot());
            let (obs_p, obs_v) = (Observability::tracing(), Observability::tracing());
            plain.observe(&obs_p);
            vectored.observe(&obs_v);
            let (mut out_p, mut out_v) = (vec![0u8; data.len()], vec![0u8; data.len()]);
            assert_eq!(
                plain.write(100, 1, class, remote, &data),
                vectored.write_v(100, 1, class, &seg, &data)
            );
            // Healthy read, then the page's node dies: failover on the
            // replicated pool, erasure-decode on the EC pool, a typed error
            // on the plain one — identically through either verb.
            for t in [50_000, 100_000] {
                assert_eq!(
                    plain.read(t, 1, class, remote, &mut out_p),
                    vectored.read_v(t, 1, class, &seg, &mut out_v)
                );
                assert_eq!(out_p, out_v);
                plain.inject(0, When::At(0), Fault::Fail { node: 0 });
                vectored.inject(0, When::At(0), Fault::Fail { node: 0 });
            }
            assert_eq!(observable(&plain, &obs_p), observable(&vectored, &obs_v));
            assert_ne!(obs_p.trace().digest(), 0, "the runs were traced");
        }
    }

    /// The shared-page verbs are the copying verbs without the copy: on
    /// every redundancy strategy, healthy and with a node down,
    /// `read_page`/`write_page` return what `read`/`write` return
    /// (completion time, errors), land the same bytes in the
    /// caller's image and in every node's store, and leave equal wire
    /// bytes, op counts and trace. Images the page side holds never change
    /// under later writes, and a third endpoint on the reference store
    /// vouches for the bytes themselves.
    #[test]
    fn page_verbs_equal_copying_verbs() {
        use crate::rng::SplitMix64;
        const PAGES: u64 = 12;
        type Boot = fn() -> RdmaEndpoint;
        // (boot, kill node 0 halfway)
        let boots: [(Boot, bool); 3] = [
            (|| pool(1 << 22, 1, Replicas(1)), false),
            (|| pool(1 << 22, 3, Replicas(2)), true),
            (|| pool(1 << 22, 5, Erasure { k: 3, m: 2 }), true),
        ];
        let class = ServiceClass::App;
        for (bi, (boot, kill0)) in boots.into_iter().enumerate() {
            let mut rng = SplitMix64::new(0x0021_0000 + bi as u64);
            let mut below = |n: usize| rng.gen_range(n as u64) as usize;
            let (mut paged, mut copied, mut oracle) = (boot(), boot(), boot());
            oracle.use_reference_stores();
            let (obs_p, obs_c) = (Observability::tracing(), Observability::tracing());
            paged.observe(&obs_p);
            copied.observe(&obs_c);
            let mut held: Vec<(Page, [u8; PAGE_SIZE])> = Vec::new();
            for round in 0..300u64 {
                if kill0 && round == 150 {
                    for e in [&mut paged, &mut copied, &mut oracle] {
                        e.inject(0, When::At(0), Fault::Fail { node: 0 });
                    }
                }
                let t = 1_000_000 + round * 50_000;
                let remote = (below(PAGES as usize) as u64) << 12;
                match below(3) {
                    // A whole-page write: absent, full or sparse content.
                    0 => {
                        let filled = [0, PAGE_SIZE, 1 + below(PAGE_SIZE - 1)][below(3)];
                        let mut bytes = [0u8; PAGE_SIZE];
                        bytes[..filled].fill_with(|| below(255) as u8 + 1);
                        let img = Rc::new(bytes);
                        let w_p = paged.write_page(t, 1, class, remote, &img);
                        let w_c = copied.write(t, 1, class, remote, &bytes);
                        assert_eq!(w_p, w_c, "boot {bi} round {round}");
                        oracle.write(t, 1, class, remote, &bytes).unwrap();
                    }
                    // A sub-page write, through the copying verb on both: it
                    // lands in slots the page side's images may share.
                    1 => {
                        let len = 1 + below(512);
                        let at = remote + below(PAGE_SIZE - len + 1) as u64;
                        let data: Vec<u8> = (0..len).map(|_| below(256) as u8).collect();
                        for e in [&mut paged, &mut copied, &mut oracle] {
                            e.write(t, 1, class, at, &data).unwrap();
                        }
                    }
                    _ => {
                        let mut img = Rc::new([0x5A; PAGE_SIZE]);
                        let mut buf = vec![0xA5; PAGE_SIZE];
                        let r_p = paged.read_page(t, 1, class, remote, &mut img);
                        let r_c = copied.read(t, 1, class, remote, &mut buf);
                        assert!(r_p.is_ok(), "boot {bi} round {round}: {r_p:?}");
                        assert_eq!(r_p, r_c, "boot {bi} round {round}");
                        assert_eq!(img[..], buf[..], "boot {bi} round {round}");
                        let mut want = vec![0u8; PAGE_SIZE];
                        oracle.read(t, 1, class, remote, &mut want).unwrap();
                        assert_eq!(buf, want, "boot {bi} round {round} vs reference");
                        held.push((Rc::clone(&img), *img));
                    }
                }
            }
            for (img, bytes) in &held {
                assert_eq!(**img, *bytes, "boot {bi}: a held image changed");
            }
            for (np, nc) in paged.nodes.iter().zip(&copied.nodes) {
                let pages = np.node.resident_page_numbers();
                assert_eq!(pages, nc.node.resident_page_numbers(), "boot {bi}");
                for p in pages {
                    assert_eq!(np.node.page_snapshot(p), nc.node.page_snapshot(p));
                }
            }
            assert_eq!(observable(&paged, &obs_p), observable(&copied, &obs_c));
            assert_ne!(obs_p.trace().digest(), 0, "the runs were traced");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test for the page-store backends: the same verb
    /// sequence — copying and shared-page verbs alike — driven through a
    /// flat-store cluster and a reference `BTreeStore` cluster produces
    /// byte-identical trace digests, the same read contents, and the same
    /// resident-page enumeration.
    #[test]
    fn flat_and_reference_stores_trace_identically(
        ops in prop::collection::vec(
            (0u64..60, 1usize..9_000, any::<u8>(), 0u8..4, 0usize..4),
            1..80,
        ),
    ) {
        const SIZE: u64 = 1 << 18;
        let mk = |reference: bool| {
            let mut ep = pool(SIZE, 3, Replicas(2));
            if reference {
                ep.use_reference_stores();
            }
            let obs = Observability::tracing();
            ep.observe(&obs);
            (ep, obs)
        };
        let (mut flat, flat_obs) = mk(false);
        let (mut reference, ref_obs) = mk(true);
        let mut now = 0;
        for &(page, len, stamp, verb, core) in &ops {
            // The page verbs move one aligned page; the others any span.
            let (at, len) = if verb >= 2 {
                (page * 4096, PAGE_SIZE)
            } else {
                let at = page * 4096 + u64::from(stamp % 64);
                (at, len.min((SIZE - at) as usize))
            };
            // Zero-tailed payloads: zeros written over stored bytes must
            // land as zeros.
            let mut data = vec![stamp; len];
            let keep = len - (len * usize::from(stamp % 4) / 4);
            data[keep..].fill(0);
            let (w, r) = (ServiceClass::Cleaner, ServiceClass::Fault);
            match verb {
                0 => {
                    flat.write(now, core, w, at, &data).expect("in bounds");
                    reference.write(now, core, w, at, &data).expect("in bounds");
                }
                1 => {
                    let mut a = vec![0u8; len];
                    let mut b = vec![1u8; len];
                    flat.read(now, core, r, at, &mut a).expect("in bounds");
                    reference.read(now, core, r, at, &mut b).expect("in bounds");
                    prop_assert_eq!(a, b, "read contents at {}", at);
                }
                2 => {
                    let img: Page = Rc::new(data[..].try_into().expect("one page"));
                    flat.write_page(now, core, w, at, &img).expect("in bounds");
                    reference.write_page(now, core, w, at, &img).expect("in bounds");
                }
                _ => {
                    let (mut a, mut b) = (Rc::new([0; PAGE_SIZE]), Rc::new([1; PAGE_SIZE]));
                    flat.read_page(now, core, r, at, &mut a).expect("in bounds");
                    reference.read_page(now, core, r, at, &mut b).expect("in bounds");
                    prop_assert_eq!(a, b, "page contents at {}", at);
                }
            }
            now += 1_000;
        }
        prop_assert_eq!(flat_obs.trace().count(), ref_obs.trace().count());
        prop_assert_eq!(flat_obs.trace().digest(), ref_obs.trace().digest());
        prop_assert_eq!(
            flat.node().resident_page_numbers(),
            reference.node().resident_page_numbers()
        );
    }
    }

    #[test]
    fn tcp_mode_adds_the_paper_handicap() {
        let mut e = ep();
        let mut buf = [0u8; PAGE_SIZE];
        let rdma = e.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        let mut t = ep();
        t.set_tcp_mode(true);
        let tcp = t.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        let extra = tcp - rdma;
        let expected = t.cfg().tcp_extra_ns();
        assert_eq!(extra, expected);
        assert!((6_000..6_200).contains(&extra), "extra {extra}");
    }

    #[test]
    fn cluster_stripes_pages_across_nodes() {
        let mut e = pool(1 << 24, 4, Replicas(1));
        assert_eq!(e.nodes.len(), 4);
        // Write one page to each shard and read them back.
        for p in 0..8u64 {
            let data = [p as u8 + 1; 64];
            e.write(0, 0, ServiceClass::App, p * 4096, &data).unwrap();
        }
        for p in 0..8u64 {
            let mut buf = [0u8; 64];
            e.read(0, 0, ServiceClass::App, p * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == p as u8 + 1), "page {p}");
        }
    }

    #[test]
    fn replicated_reads_survive_a_node_failure() {
        let mut e = pool(1 << 24, 3, Replicas(2));
        for p in 0..6u64 {
            e.write(0, 0, ServiceClass::App, p * 4096, &[0xAB; 32])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        let mut buf = [0u8; 32];
        let mut first_hit_penalized = false;
        for p in 0..6u64 {
            let t = e.read(0, 0, ServiceClass::App, p * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0xAB), "page {p}");
            // The very first access to the dead node pays the retry timeout.
            if t > 1_000_000 && !first_hit_penalized {
                first_hit_penalized = true;
            }
        }
        assert!(first_hit_penalized, "failure detection must cost a timeout");
        assert!(e.failovers() > 0, "reads must have failed over");
    }

    #[test]
    fn unreplicated_data_is_lost_with_its_node() {
        let mut e = pool(1 << 24, 2, Replicas(1));
        e.write(0, 0, ServiceClass::App, 0, &[1; 16]).unwrap();
        e.write(0, 0, ServiceClass::App, 4096, &[2; 16]).unwrap();
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        let mut buf = [0u8; 16];
        // Page 0 lives on node 0 (shard 0): lost.
        assert_eq!(
            e.read(0, 0, ServiceClass::App, 0, &mut buf),
            Err(RdmaError::AllReplicasDown)
        );
        // Page 1 lives on node 1: still readable.
        e.read(0, 0, ServiceClass::App, 4096, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn replicated_writes_reach_every_live_replica() {
        let mut e = pool(1 << 24, 2, Replicas(2));
        e.write(0, 0, ServiceClass::App, 0, &[7; 16]).unwrap();
        // Kill the primary; the replica must serve the data.
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        let mut buf = [0u8; 16];
        e.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        // Writes keep working against the surviving replica.
        e.write(0, 0, ServiceClass::App, 0, &[8; 16]).unwrap();
        e.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 8));
    }

    /// Every geometry is checked in the one pool constructor.
    #[test]
    fn degenerate_cluster_configs_are_rejected() {
        let rejected = [
            (2, Replicas(3), "replication > nodes"),
            (0, Replicas(1), "zero nodes"),
            (2, Replicas(0), "zero replicas"),
            (3, Erasure { k: 2, m: 2 }, "fewer nodes than k + m"),
            (3, Erasure { k: 0, m: 1 }, "no data lane"),
            (3, Erasure { k: 1, m: 0 }, "no parity"),
        ];
        for (nodes, redundancy, why) in rejected {
            let r = std::panic::catch_unwind(|| pool(1 << 20, nodes, redundancy));
            assert!(r.is_err(), "{why} must panic");
        }
    }

    #[test]
    fn erasure_coding_roundtrips_and_survives_m_failures() {
        // 5 nodes, k=3 data + m=2 parity: any two node deaths survivable.
        let mut e = pool(1 << 22, 5, Erasure { k: 3, m: 2 });
        let pages = 24u64;
        for p in 0..pages {
            let stamp = (p as u8).wrapping_mul(7).wrapping_add(1);
            e.write(0, 0, ServiceClass::App, p * 4096 + 16, &[stamp; 64])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        e.inject(0, When::At(0), Fault::Fail { node: 3 });
        let mut buf = [0u8; 64];
        for p in 0..pages {
            let stamp = (p as u8).wrapping_mul(7).wrapping_add(1);
            e.read(0, 0, ServiceClass::App, p * 4096 + 16, &mut buf)
                .unwrap();
            assert!(buf.iter().all(|&b| b == stamp), "page {p}");
        }
        assert!(
            e.reconstructions() > 0,
            "some reads must have been degraded"
        );
    }

    #[test]
    fn erasure_coding_rejects_k_plus_one_failures() {
        let mut e = pool(1 << 22, 4, Erasure { k: 2, m: 1 });
        for p in 0..8u64 {
            e.write(0, 0, ServiceClass::App, p * 4096, &[9; 32])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        e.inject(0, When::At(0), Fault::Fail { node: 1 });
        // With m = 1 parity, two dead nodes lose some spans.
        let mut lost = 0;
        let mut buf = [0u8; 32];
        for p in 0..8u64 {
            if e.read(0, 0, ServiceClass::App, p * 4096, &mut buf).is_err() {
                lost += 1;
            }
        }
        assert!(lost > 0, "double failure beyond m must lose data");
    }

    #[test]
    fn erasure_writes_update_parity_incrementally() {
        let mut e = pool(1 << 22, 4, Erasure { k: 2, m: 2 });
        // Write, overwrite, then fail the data node: the reconstruction
        // must return the *latest* contents (parity deltas applied).
        e.write(0, 0, ServiceClass::App, 0, &[1; 128]).unwrap();
        e.write(0, 0, ServiceClass::App, 0, &[2; 128]).unwrap();
        e.write(0, 0, ServiceClass::App, 64, &[3; 32]).unwrap();
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        let mut buf = [0u8; 128];
        e.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        assert!(buf[..64].iter().all(|&b| b == 2));
        assert!(buf[64..96].iter().all(|&b| b == 3));
        assert!(buf[96..].iter().all(|&b| b == 2));
    }

    #[test]
    fn an_erasure_coded_pool_accepts_a_zero_length_segment() {
        // `check_segments` accepts an empty segment; the stripe must
        // address its start page, at remote 0 as on any later page.
        let mut e = pool(1 << 22, 4, Erasure { k: 2, m: 2 });
        let mut buf = [0u8; 8];
        for remote in [0, PAGE_SIZE as u64] {
            let seg = [Segment {
                remote,
                offset: 0,
                len: 0,
            }];
            assert!(e.read_v(0, 0, ServiceClass::App, &seg, &mut buf).is_ok());
        }
    }

    #[test]
    fn degraded_reads_cost_more_than_direct_reads() {
        let mut e = pool(1 << 22, 5, Erasure { k: 3, m: 1 });
        e.write(0, 0, ServiceClass::App, 0, &[5; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        let t0 = 10_000_000u64;
        let direct = e.read(t0, 0, ServiceClass::App, 0, &mut buf).unwrap() - t0;
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        // Skip past the one-time detection penalty with a first probe.
        let t1 = 2 * t0;
        let _ = e.read(t1, 0, ServiceClass::App, 0, &mut buf).unwrap();
        let t2 = 4 * t0;
        let degraded = e.read(t2, 0, ServiceClass::App, 0, &mut buf).unwrap() - t2;
        assert!(
            degraded > direct,
            "degraded read must cost more: {degraded} vs {direct}"
        );
    }

    #[test]
    fn repaired_replica_node_catches_up_on_downtime_writes() {
        let mut e = pool(1 << 24, 3, Replicas(2));
        for p in 0..6u64 {
            e.write(0, 0, ServiceClass::App, p * 4096, &[0x11; 32])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        // Writes during the outage reach only the survivors.
        for p in 0..6u64 {
            e.write(0, 0, ServiceClass::App, p * 4096, &[0x22; 32])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Repair { node: 0 });
        let failovers_before = e.failovers();
        let mut buf = [0u8; 32];
        for p in 0..6u64 {
            e.read(0, 0, ServiceClass::App, p * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0x22), "page {p} must be fresh");
        }
        assert_eq!(
            e.failovers(),
            failovers_before,
            "a repaired primary serves its shards directly"
        );
    }

    #[test]
    fn repair_is_a_noop_on_a_live_node() {
        let mut e = pool(1 << 24, 3, Replicas(2));
        e.write(0, 0, ServiceClass::App, 0, &[5; 16]).unwrap();
        e.inject(0, When::At(0), Fault::Repair { node: 1 });
        let mut buf = [0u8; 16];
        e.read(0, 0, ServiceClass::App, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 5));
    }

    #[test]
    fn repaired_ec_node_is_rebuilt_from_survivors() {
        // 5 nodes, k=3, m=2. Fail one node, mutate during the outage,
        // repair — then fail two *other* nodes: correct reads now depend on
        // the repaired node's reconstructed shards.
        let mut e = pool(1 << 22, 5, Erasure { k: 3, m: 2 });
        let pages = 24u64;
        for p in 0..pages {
            e.write(0, 0, ServiceClass::App, p * 4096, &[0x31; 96])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Fail { node: 0 });
        for p in 0..pages {
            e.write(0, 0, ServiceClass::App, p * 4096, &[0x32; 96])
                .unwrap();
        }
        e.inject(0, When::At(0), Fault::Repair { node: 0 });
        e.inject(0, When::At(0), Fault::Fail { node: 1 });
        e.inject(0, When::At(0), Fault::Fail { node: 2 });
        let mut buf = [0u8; 96];
        for p in 0..pages {
            e.read(0, 0, ServiceClass::App, p * 4096, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == 0x32),
                "page {p} must reflect downtime writes after repair"
            );
        }
    }

    #[test]
    fn calendar_defers_traced_completions_to_delivery_time() {
        use crate::sched::{Calendar, SchedEvent};
        use crate::trace::TraceObserver;
        use std::cell::RefCell;

        struct Recorder(Vec<(Ns, TraceEvent)>);
        impl TraceObserver for Recorder {
            fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
                self.0.push((t, *ev));
            }
        }

        let mut e = ep();
        let obs = Observability::tracing();
        let trace = Rc::new(RefCell::new(Recorder(Vec::new())));
        obs.trace().attach(trace.clone());
        let cal = Calendar::new();
        e.observe(&obs);
        e.set_calendar(cal.clone());
        let mut buf = [0u8; PAGE_SIZE];
        let done = e.read(1_000, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        assert!(
            !trace
                .borrow()
                .0
                .iter()
                .any(|(_, ev)| matches!(ev, TraceEvent::RdmaComplete { .. })),
            "completion must not be emitted at issue time"
        );
        cal.deliver_due(done, |t, ev| {
            let SchedEvent::RdmaCompletion {
                class,
                write,
                node,
                core,
            } = ev
            else {
                panic!("expected a scheduled completion, got {ev:?}");
            };
            assert_eq!(t, done);
            e.deliver_completion(t, class, write, node, core);
            None
        });
        assert!(trace.borrow().0.iter().any(|&(at, ev)| at == done
            && matches!(ev, TraceEvent::RdmaComplete { done: d, .. } if d == done)));
    }
}
