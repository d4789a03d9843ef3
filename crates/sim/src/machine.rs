//! The chassis every compute node stands on.
//!
//! DiLOS, Fastswap and AIFM differ in the shape of their fault paths and in
//! nothing else the comparison measures. A [`Machine`] is what they share;
//! [`ComputeNode`] writes once the loop that delivers its calendar, samples
//! the gauges at every drain point, and quiesces.

use crate::config::SimConfig;
use crate::fabric::ServiceClass;
use crate::metrics::{MetricsRegistry, SpanProfiler};
use crate::obs::Observability;
use crate::sched::{Calendar, SchedEvent};
use crate::time::Ns;
use crate::trace::{FaultKind, ReqId, TraceEvent, TraceSink};

/// A compute node's substrate: one virtual clock per core, the node's event
/// calendar, and its observability handles. A core's clock never moves
/// backwards; every cost the paper measures is charged by advancing it.
#[derive(Debug)]
pub struct Machine {
    clocks: Vec<Ns>,
    /// [`SimConfig::local_access_ns`], fixed at boot.
    local_access_ns: Ns,
    /// The calendar, shared with the node's endpoint: background work is
    /// delivered from here at its true virtual time.
    pub cal: Calendar,
    /// Structured event trace (dark unless the bundle records).
    pub trace: TraceSink,
    /// Gauge registry and sampler (dark unless the bundle is metered).
    pub metrics: MetricsRegistry,
    /// Span profiler attached to the trace (dark unless metered).
    pub profiler: SpanProfiler,
}

impl Machine {
    /// `cores` clocks at time zero, a fresh calendar, and `obs`'s handles.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, sim: &SimConfig, obs: &Observability) -> Self {
        assert!(cores > 0, "at least one core");
        Self {
            clocks: vec![0; cores],
            local_access_ns: sim.local_access_ns,
            cal: Calendar::new(),
            trace: obs.trace().clone(),
            metrics: obs.metrics().clone(),
            profiler: obs.profiler().clone(),
        }
    }

    /// Current virtual time on `core`.
    #[inline]
    pub fn now(&self, core: usize) -> Ns {
        self.clocks[core]
    }

    /// Charges `dur` of work to `core`.
    #[inline]
    pub fn advance(&mut self, core: usize, dur: Ns) {
        self.clocks[core] += dur;
    }

    /// Blocks `core` until `deadline` (no-op if already past it).
    #[inline]
    pub fn wait_until(&mut self, core: usize, deadline: Ns) {
        self.clocks[core] = self.clocks[core].max(deadline);
    }

    /// Charges `core` one local access that copies `bytes`.
    #[inline]
    pub fn charge_copy(&mut self, core: usize, bytes: usize) {
        let ns = self.local_access_ns + (bytes as f64 * SimConfig::DRAM_NS_PER_BYTE) as Ns;
        self.advance(core, ns);
    }

    /// Opens `core`'s `kind` fault on `vpn` at `t` as a causal request of
    /// its own; returns the request register for [`end_fault`](Self::end_fault).
    #[inline]
    pub fn begin_fault(&self, t: Ns, core: usize, vpn: u64, kind: FaultKind) -> Option<ReqId> {
        let prev_req = self.trace.begin_request();
        let core = core as u8;
        self.trace
            .emit(t, TraceEvent::FaultBegin { core, vpn, kind });
        prev_req
    }

    /// Closes the fault [`begin_fault`](Self::begin_fault) opened, at `t`.
    #[inline]
    pub fn end_fault(&self, t: Ns, core: usize, vpn: u64, prev_req: Option<ReqId>) {
        let core = core as u8;
        self.trace.emit(t, TraceEvent::FaultEnd { core, vpn });
        self.trace.set_request(prev_req);
    }

    /// Completion time across all cores.
    pub fn max_now(&self) -> Ns {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Synchronizes all cores (fork/join barrier); returns the join time.
    pub fn barrier(&mut self) -> Ns {
        let t = self.max_now();
        self.clocks.fill(t);
        t
    }
}

/// Where a delivered [`SchedEvent::RdmaCompletion`] goes: the endpoint that
/// deferred it, or a tenant's port on a shared one.
pub trait DeliverCompletion {
    /// Emits the deferred `RdmaComplete` trace event at delivery time `t`.
    fn deliver_completion(&mut self, t: Ns, class: ServiceClass, write: bool, node: u8, core: u8);
}

/// A compute node built on a [`Machine`]: it supplies its chassis, its
/// endpoint, its calendar handlers and its gauges.
pub trait ComputeNode {
    /// The node's chassis.
    fn machine(&self) -> &Machine;

    /// The node's chassis, mutably.
    fn machine_mut(&mut self) -> &mut Machine;

    /// Where the node's deferred verb completions are delivered.
    fn endpoint(&mut self) -> &mut dyn DeliverCompletion;

    /// Delivers one calendar event other than a verb completion at its
    /// time `t`, returning the follow-up to deliver next, if any.
    fn dispatch(&mut self, t: Ns, ev: SchedEvent) -> Option<(Ns, SchedEvent)>;

    /// Sets the node's gauges for the sample taken at virtual time `t`.
    fn record_gauges(&self, t: Ns, gauges: &MetricsRegistry);

    /// Delivers every calendar event due at or before `bound`. Nothing due
    /// is one borrow-free probe, inlined into the access path; the loop
    /// itself is not.
    #[inline(always)]
    fn deliver_due(&mut self, bound: Ns) {
        if self.machine().cal.has_due(bound) {
            deliver(self, bound);
        }
    }

    /// [`deliver_due`](Self::deliver_due) up to `now`, then a gauge sample
    /// for every sampler tick passed: the sampler schedules nothing and
    /// rides the node's drain points. A dark registry is one inlined test.
    #[inline(always)]
    fn drain_events(&mut self, now: Ns) {
        self.deliver_due(now);
        if self.machine().metrics.is_enabled() {
            sample(self, now);
        }
    }

    /// Delivers everything still pending (follow-ups included), then
    /// samples the gauges to the horizon. A second call does nothing.
    fn quiesce(&mut self) {
        self.deliver_due(Ns::MAX);
        let horizon = self.machine().max_now();
        self.drain_events(horizon);
    }
}

/// The gauge sampler behind [`ComputeNode::drain_events`].
#[inline(never)]
fn sample<N: ComputeNode + ?Sized>(node: &N, now: Ns) {
    let gauges = &node.machine().metrics;
    while let Some(t) = gauges.next_sample_due(now) {
        node.record_gauges(t, gauges);
        gauges.record_sample(t);
    }
}

/// The one delivery loop behind [`ComputeNode::deliver_due`]. A handle
/// clone of the calendar keeps the node unborrowed while a handler runs.
#[inline(never)]
fn deliver<N: ComputeNode + ?Sized>(node: &mut N, bound: Ns) {
    let cal = node.machine().cal.clone();
    cal.deliver_due(bound, |t, ev| {
        // Background work never inherits the request id of whatever drained
        // it (e.g. a fault's allocation spin); handlers that know better
        // (landings, deferred completions) re-attribute.
        let drained_req = node.machine().trace.set_request(None);
        let follow_up = match ev {
            SchedEvent::RdmaCompletion {
                class,
                write,
                node: memnode,
                core,
            } => {
                node.endpoint()
                    .deliver_completion(t, class, write, memnode, core);
                None
            }
            ev => node.dispatch(t, ev),
        };
        node.machine().trace.set_request(drained_req);
        follow_up
    });
}
