//! Virtual-time telemetry: a gauge registry with its sampler, and a span
//! profiler that folds everything else out of the trace stream.
//!
//! The paper's headline evidence is observability output — fault-latency
//! breakdowns (Figs. 1/6), RDMA curves (Fig. 2), bandwidth and occupancy
//! behaviour under eager reclaim — and this module offers it through two
//! deterministic surfaces:
//!
//! 1. [`MetricsRegistry`] — named gauges (`BTreeMap`-keyed, so no
//!    enumeration can leak hash order) and the **gauge sampler**: a
//!    `next_sample` time advanced by [`SAMPLE_INTERVAL_NS`]. A system sets
//!    its gauges from state no event carries (free frames, busy QPs); its
//!    [`Machine`](crate::machine::Machine) chassis polls
//!    [`MetricsRegistry::next_sample_due`] at the node's event-drain points
//!    to snapshot every gauge into a virtual-time series; nothing is
//!    scheduled on any calendar. Only the chassis holds a registry handle.
//! 2. [`SpanProfiler`] — a [`TraceObserver`] that folds the existing
//!    [`TraceEvent`] stream into per-core hierarchical spans (fault
//!    begin/phase/end, RDMA verbs, reclaim episodes: a
//!    flamegraph.pl/inferno-compatible folded-stack file plus end-to-end
//!    fault-latency histograms per fault kind) and into **counters**: verbs
//!    per core, wire bytes per service class, memory-node accesses and
//!    bytes, LRU churn. A counter is a reading of the run that happened —
//!    whatever the events say, counted once, here — never a second ledger
//!    kept beside an `emit`.
//!
//! Like [`TraceSink`], both handles follow the `Option`-branch pattern:
//! `disabled()` (the default) is a `None` that makes every operation a
//! single branch, and telemetry is a pure observer either way — it never
//! emits trace events, never schedules calendar work, and never feeds back
//! into simulation decisions, so trace digests are byte-stable under it.
//!
//! Nothing here renders: both handles hand out what they hold as plain
//! data — names and values in `BTreeMap` key order (index order for the
//! counters), empty when disabled — and `dilos-bench` writes the artefacts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::causal::OpenSpans;
use crate::stats::LatencyHistogram;
use crate::time::Ns;
use crate::trace::{FaultKind, FaultPhase, TraceEvent, TraceObserver, TraceSink};

/// The gauge-sampling interval: 50 µs of virtual time — fine enough to
/// see reclaim episodes, coarse enough that bench-scale runs keep their
/// series small.
pub const SAMPLE_INTERVAL_NS: Ns = 50_000;

/// Stable label for a fault kind (histogram keys, folded-stack frames).
fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Major => "major",
        FaultKind::Minor => "minor",
        FaultKind::ZeroFill => "zero_fill",
    }
}

/// Stable label for a fault phase (folded-stack frames, cross-checks
/// against the hand-maintained `FaultBreakdown` fields).
fn phase_label(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::Exception => "exception",
        FaultPhase::Check => "check",
        FaultPhase::Alloc => "alloc",
        FaultPhase::Fetch => "fetch",
        FaultPhase::Map => "map",
        FaultPhase::Reclaim => "reclaim",
    }
}

/// What `read` sees in a handle's store — `T::default()` for a dark handle.
fn read<C, T: Default>(inner: &Option<Rc<RefCell<C>>>, read: impl FnOnce(&C) -> T) -> T {
    inner
        .as_ref()
        .map_or_else(T::default, |c| read(&c.borrow()))
}

/// Every `(name, value)` of a map, cloned out in key order.
fn entries<K: Clone, V: Clone>(map: &BTreeMap<K, V>) -> Vec<(K, V)> {
    map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

#[derive(Debug)]
struct RegistryCore {
    /// Latest value of each registered gauge.
    gauges: BTreeMap<&'static str, u64>,
    /// Gauge name → sampled `(virtual time, value)` series.
    series: BTreeMap<&'static str, Vec<(Ns, u64)>>,
    /// Virtual time of the next gauge sample: `k · interval`.
    next_sample: Ns,
    samples: u64,
}

/// Cloneable handle to a (possibly absent) metrics registry.
///
/// All clones share one store; [`MetricsRegistry::disabled`] (and
/// `Default`) is the dark handle whose every method is a branch on `None`.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Rc<RefCell<RegistryCore>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsRegistry(disabled)"),
            Some(core) => {
                let c = core.borrow();
                write!(
                    f,
                    "MetricsRegistry(gauges={}, samples={})",
                    c.gauges.len(),
                    c.samples
                )
            }
        }
    }
}

impl MetricsRegistry {
    /// The dark handle: nothing is recorded, every call is a `None` branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording registry sampling gauges every
    /// [`SAMPLE_INTERVAL_NS`]; the first tick is due one interval in.
    pub fn recording() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(RegistryCore {
                gauges: BTreeMap::new(),
                series: BTreeMap::new(),
                next_sample: SAMPLE_INTERVAL_NS,
                samples: 0,
            }))),
        }
    }

    /// Whether metrics are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets gauge `name` to `value` (registering it on first use).
    #[inline]
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        let Some(core) = &self.inner else { return };
        core.borrow_mut().gauges.insert(name, value);
    }

    /// The latest value of every gauge, in name order.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        read(&self.inner, |c| entries(&c.gauges))
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        read(&self.inner, |c| c.samples)
    }

    /// The next sample time `k · interval` at or before `now`, advancing the
    /// sampler past it. The chassis's drain loop records a gauge snapshot
    /// per returned tick.
    ///
    /// Sampling is drain-point semantics, deterministically: a tick due at
    /// virtual time `T` is observed at the host's first drain at or after
    /// `T`, and the snapshot is timestamped `T`.
    pub fn next_sample_due(&self, now: Ns) -> Option<Ns> {
        let mut c = self.inner.as_ref()?.borrow_mut();
        let t = c.next_sample;
        if t > now {
            return None;
        }
        c.next_sample = t + SAMPLE_INTERVAL_NS;
        Some(t)
    }

    /// Appends the current value of every gauge to its time series,
    /// stamped `t`.
    pub fn record_sample(&self, t: Ns) {
        let Some(core) = &self.inner else { return };
        let mut c = core.borrow_mut();
        let RegistryCore {
            gauges,
            series,
            samples,
            ..
        } = &mut *c;
        *samples += 1;
        for (&name, &value) in gauges.iter() {
            series.entry(name).or_default().push((t, value));
        }
    }

    /// Every sampled series, in name order: `(virtual time, value)` points.
    pub fn series(&self) -> Vec<(&'static str, Vec<(Ns, u64)>)> {
        read(&self.inner, |c| entries(&c.series))
    }
}

/// A fault span opened by `FaultBegin` and not yet closed.
#[derive(Debug, Clone, Copy)]
struct OpenFault {
    kind: FaultKind,
    begin: Ns,
    /// Virtual time already attributed to named phases: the `FaultEnd`
    /// residual (if any) is charged to the bare fault frame so the folded
    /// stacks sum to wall (virtual) time per fault.
    charged: Ns,
}

/// The counters the profiler folds, by index. Sorted, like every map here,
/// which puts the two directions of each kind side by side: an event's
/// counter is its kind's base below plus its direction flag (outbound,
/// remove, write) — the memory node has a bytes/ops pair per direction.
const COUNTER_NAMES: [&str; 10] = [
    "fabric_rx_bytes",
    "fabric_tx_bytes",
    "lru_inserts",
    "lru_removes",
    "memnode_read_bytes",
    "memnode_reads",
    "memnode_write_bytes",
    "memnode_writes",
    "rdma_reads",
    "rdma_writes",
];
const FABRIC_BYTES: usize = 0;
const LRU: usize = 2;
const MEMNODE: usize = 4;
const RDMA: usize = 8;

#[derive(Debug, Default)]
struct ProfilerCore {
    /// Per-core open fault span (the handler is synchronous per core).
    open: BTreeMap<u8, OpenFault>,
    /// Folded stack → accumulated virtual ns. `String` keys in a `BTreeMap`
    /// give byte-stable output order.
    folded: BTreeMap<String, u128>,
    /// End-to-end fault latency per fault kind; its `count()` is the number
    /// of completed spans (cross-checked against the systems'
    /// hand-maintained counters).
    hist: BTreeMap<&'static str, LatencyHistogram>,
    /// Per-phase duration distribution across all spans (one sample per
    /// `FaultPhase` event): `sum()` is the phase total, the buckets back the
    /// per-phase latency quantiles.
    phase_hist: BTreeMap<&'static str, LatencyHistogram>,
    /// In-flight verbs and the open background reclaim episode.
    spans: OpenSpans<()>,
    /// Lanes of each of [`COUNTER_NAMES`] (the issuing core for verbs, the
    /// service-class index for wire bytes, lane 0 otherwise). A counter is
    /// reported from its first event on and its lanes grow on demand.
    counters: [Vec<u64>; COUNTER_NAMES.len()],
}

impl ProfilerCore {
    fn count(&mut self, counter: usize, lane: usize, delta: u64) {
        let lanes = &mut self.counters[counter];
        if lanes.len() <= lane {
            lanes.resize(lane + 1, 0);
        }
        lanes[lane] += delta;
    }
}

impl TraceObserver for ProfilerCore {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        match *ev {
            TraceEvent::FaultBegin { core, kind, .. } => {
                self.open.insert(
                    core,
                    OpenFault {
                        kind,
                        begin: t,
                        charged: 0,
                    },
                );
            }
            TraceEvent::FaultPhase { core, phase, dur } => {
                if let Some(f) = self.open.get_mut(&core) {
                    f.charged += dur;
                    let kind = kind_label(f.kind);
                    let key = format!("core{core};fault:{kind};{}", phase_label(phase));
                    *self.folded.entry(key).or_default() += dur as u128;
                    self.phase_hist
                        .entry(phase_label(phase))
                        .or_default()
                        .record(dur);
                }
            }
            TraceEvent::FaultEnd { core, .. } => {
                if let Some(f) = self.open.remove(&core) {
                    let total = t.saturating_sub(f.begin);
                    let kind = kind_label(f.kind);
                    self.hist.entry(kind).or_default().record(total);
                    // Phases may double-charge overlapped work (reclaim
                    // hidden inside the fetch window), so the residual is
                    // saturating.
                    let residual = total.saturating_sub(f.charged);
                    if residual > 0 {
                        let key = format!("core{core};fault:{kind}");
                        *self.folded.entry(key).or_default() += residual as u128;
                    }
                }
            }
            TraceEvent::RdmaIssue { .. } | TraceEvent::RdmaComplete { .. } => {
                if let TraceEvent::RdmaIssue { write, core, .. } = *ev {
                    self.count(RDMA + usize::from(write), core.into(), 1);
                }
                if let Some(v) = self.spans.verb((), t, ev) {
                    let rw = if v.write { "write" } else { "read" };
                    let stack = format!("core{};rdma:{}:{rw}", v.core, v.class.label());
                    *self.folded.entry(stack).or_default() +=
                        v.done.saturating_sub(v.issued) as u128;
                }
            }
            TraceEvent::ReclaimBegin { .. } | TraceEvent::ReclaimEnd { .. } => {
                if let Some((begin, end, _)) = self.spans.reclaim(t, ev) {
                    *self.folded.entry("bg;reclaim".to_string()).or_default() +=
                        end.saturating_sub(begin) as u128;
                }
            }
            TraceEvent::LinkTransfer {
                class,
                bytes,
                inbound,
                ..
            } => {
                let counter = FABRIC_BYTES + usize::from(!inbound);
                self.count(counter, class.idx(), bytes.into());
            }
            TraceEvent::MemAccess { write, len, .. } => {
                let bytes = MEMNODE + 2 * usize::from(write);
                self.count(bytes, 0, len.into());
                self.count(bytes + 1, 0, 1);
            }
            TraceEvent::LruInsert { .. } => self.count(LRU, 0, 1),
            TraceEvent::LruRemove { .. } => self.count(LRU + 1, 0, 1),
            _ => {}
        }
    }
}

/// Cloneable handle to a (possibly absent) span profiler.
///
/// Attach it to a [`TraceSink`] with [`SpanProfiler::attach_to`]; it then
/// consumes every event synchronously, like the auditor, without emitting
/// anything back — a pure observer.
#[derive(Clone, Default)]
pub struct SpanProfiler {
    inner: Option<Rc<RefCell<ProfilerCore>>>,
}

impl std::fmt::Debug for SpanProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "SpanProfiler(disabled)"),
            Some(core) => {
                let c = core.borrow();
                write!(
                    f,
                    "SpanProfiler(stacks={}, open={})",
                    c.folded.len(),
                    c.open.len()
                )
            }
        }
    }
}

impl SpanProfiler {
    /// The dark handle: nothing is recorded.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording profiler (attach it to a sink to feed it).
    pub fn recording() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(ProfilerCore::default()))),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Subscribes this profiler to every subsequent event of `sink`. A
    /// no-op when either side is disabled.
    pub fn attach_to(&self, sink: &TraceSink) {
        if let Some(core) = &self.inner {
            sink.attach(core.clone());
        }
    }

    /// Completed fault spans of `kind` (`"major"`, `"minor"`,
    /// `"zero_fill"`).
    pub fn fault_count(&self, kind: &str) -> u64 {
        read(&self.inner, |c| {
            c.hist.get(kind).map_or(0, LatencyHistogram::count)
        })
    }

    /// Total virtual ns attributed to `phase` (`"exception"`, `"check"`,
    /// `"alloc"`, `"fetch"`, `"map"`, `"reclaim"`) across all spans.
    pub fn phase_sum(&self, phase: &str) -> Ns {
        read(&self.inner, |c| {
            let sum = c.phase_hist.get(phase).map_or(0, |h| h.sum());
            Ns::try_from(sum).unwrap_or(Ns::MAX)
        })
    }

    /// Sum of counter `name` across all lanes (zero if no event fed it).
    pub fn counter_total(&self, name: &str) -> u64 {
        let lanes = COUNTER_NAMES.iter().position(|n| *n == name);
        read(&self.inner, |c| {
            lanes.map_or(0, |i| c.counters[i].iter().sum())
        })
    }

    /// Every counter an event has fed, in name order, with its lanes.
    pub fn counters(&self) -> Vec<(&'static str, Vec<u64>)> {
        read(&self.inner, |c| {
            let seen = COUNTER_NAMES.iter().zip(&c.counters);
            seen.filter(|(_, lanes)| !lanes.is_empty())
                .map(|(&name, lanes)| (name, lanes.clone()))
                .collect()
        })
    }

    /// The folded stacks and their accumulated virtual ns, in stack order.
    pub fn folded(&self) -> Vec<(String, u128)> {
        read(&self.inner, |c| entries(&c.folded))
    }

    /// End-to-end fault-latency histograms, in fault-kind order.
    pub fn histograms(&self) -> Vec<(&'static str, LatencyHistogram)> {
        read(&self.inner, |c| entries(&c.hist))
    }

    /// Per-phase duration histograms (one sample per `FaultPhase` event),
    /// in phase order: [`SpanProfiler::phase_sum`] is each one's `sum()`,
    /// the buckets carry the tail shape.
    pub fn phase_histograms(&self) -> Vec<(&'static str, LatencyHistogram)> {
        read(&self.inner, |c| entries(&c.phase_hist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ServiceClass;

    #[test]
    fn disabled_registry_is_inert_and_emits_nothing() {
        let m = MetricsRegistry::disabled();
        m.set_gauge("free", 7);
        m.record_sample(100);
        assert!(!m.is_enabled());
        assert_eq!(m.samples(), 0);
        assert_eq!(m.next_sample_due(u64::MAX), None);
        assert!(m.gauges().is_empty());
        assert!(m.series().is_empty());
    }

    #[test]
    fn sampler_ticks_at_the_interval_and_catches_up() {
        // One interval is `I`; every time below is a multiple of it.
        const I: Ns = SAMPLE_INTERVAL_NS;
        let m = MetricsRegistry::recording();
        m.set_gauge("free", 10);
        assert_eq!(m.next_sample_due(I - 1), None, "first tick is due at I");
        // The host drains at t=3.5·I: three ticks (I, 2I, 3I) are due.
        let mut ticks = Vec::new();
        while let Some(t) = m.next_sample_due(3 * I + I / 2) {
            m.record_sample(t);
            ticks.push(t);
        }
        assert_eq!(ticks, vec![I, 2 * I, 3 * I]);
        assert_eq!(m.samples(), 3);
        // The progression is exactly `k * interval`: a tick due at `now` is
        // yielded, once, and a disabled registry yields nothing.
        assert_eq!(m.next_sample_due(4 * I), Some(4 * I));
        assert_eq!(m.next_sample_due(4 * I), None);
        assert_eq!(m.next_sample_due(10 * I), Some(5 * I));
        assert_eq!(MetricsRegistry::disabled().next_sample_due(10 * I), None);
        assert_eq!(
            m.series(),
            vec![("free", vec![(I, 10), (2 * I, 10), (3 * I, 10)])]
        );
    }

    #[test]
    fn gauges_track_latest_values_in_name_order() {
        let m = MetricsRegistry::recording();
        m.set_gauge("lru", 3);
        m.set_gauge("free", 12);
        m.set_gauge("lru", 4);
        assert_eq!(m.gauges(), vec![("free", 12), ("lru", 4)]);
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::recording();
        let m2 = m.clone();
        m.set_gauge("free", 3);
        assert_eq!(m2.gauges(), vec![("free", 3)]);
    }

    #[test]
    fn profiler_folds_counters_with_independent_lanes() {
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        for (core, write) in [(0, false), (2, false), (2, true)] {
            sink.emit(
                10,
                TraceEvent::RdmaIssue {
                    class: ServiceClass::Fault,
                    write,
                    node: 0,
                    core,
                    bytes: 4096,
                },
            );
        }
        for (class, bytes, inbound) in [
            (ServiceClass::Fault, 4096, true),
            (ServiceClass::Cleaner, 100, false),
            (ServiceClass::Cleaner, 28, false),
        ] {
            sink.emit(
                20,
                TraceEvent::LinkTransfer {
                    class,
                    bytes,
                    inbound,
                    done: 30,
                },
            );
        }
        for (write, len) in [(true, 128), (false, 64)] {
            sink.emit(
                20,
                TraceEvent::MemAccess {
                    write,
                    offset: 0,
                    len,
                },
            );
        }
        sink.emit(40, TraceEvent::LruInsert { vpn: 1 });
        sink.emit(40, TraceEvent::LruInsert { vpn: 2 });
        sink.emit(50, TraceEvent::LruRemove { vpn: 1 });
        assert!(COUNTER_NAMES.windows(2).all(|w| w[0] < w[1]), "name order");
        assert_eq!(p.counter_total("rdma_reads"), 2);
        assert_eq!(p.counter_total("fabric_tx_bytes"), 128);
        assert_eq!(p.counter_total("absent"), 0);
        assert_eq!(
            p.counters(),
            vec![
                ("fabric_rx_bytes", vec![4096]),
                ("fabric_tx_bytes", vec![0, 0, 0, 128]),
                ("lru_inserts", vec![2]),
                ("lru_removes", vec![1]),
                ("memnode_read_bytes", vec![64]),
                ("memnode_reads", vec![1]),
                ("memnode_write_bytes", vec![128]),
                ("memnode_writes", vec![1]),
                ("rdma_reads", vec![1, 0, 1]),
                ("rdma_writes", vec![0, 0, 1]),
            ]
        );
    }

    #[test]
    fn profiler_folds_fault_spans_with_residual() {
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        sink.emit(
            1_000,
            TraceEvent::FaultBegin {
                core: 1,
                vpn: 7,
                kind: FaultKind::Major,
            },
        );
        sink.emit(
            3_000,
            TraceEvent::FaultPhase {
                core: 1,
                phase: FaultPhase::Exception,
                dur: 500,
            },
        );
        sink.emit(
            3_000,
            TraceEvent::FaultPhase {
                core: 1,
                phase: FaultPhase::Fetch,
                dur: 1_200,
            },
        );
        sink.emit(3_000, TraceEvent::FaultEnd { core: 1, vpn: 7 });
        assert_eq!(p.fault_count("major"), 1);
        assert_eq!(p.phase_sum("exception"), 500);
        assert_eq!(p.phase_sum("fetch"), 1_200);
        // Total span = 2000, phases charged 1700 → 300 ns residual.
        assert_eq!(
            p.folded(),
            vec![
                ("core1;fault:major".to_string(), 300),
                ("core1;fault:major;exception".to_string(), 500),
                ("core1;fault:major;fetch".to_string(), 1_200),
            ]
        );
        let hists = p.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!((hists[0].0, hists[0].1.mean()), ("major", 2_000));
    }

    #[test]
    fn phase_histograms_carry_tail_shape() {
        assert!(SpanProfiler::disabled().phase_histograms().is_empty());
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        for (i, dur) in [100u64, 100, 900].iter().enumerate() {
            let core = i as u8;
            sink.emit(
                0,
                TraceEvent::FaultBegin {
                    core,
                    vpn: i as u64,
                    kind: FaultKind::Major,
                },
            );
            sink.emit(
                1_000,
                TraceEvent::FaultPhase {
                    core,
                    phase: FaultPhase::Fetch,
                    dur: *dur,
                },
            );
            sink.emit(
                1_000,
                TraceEvent::FaultEnd {
                    core,
                    vpn: i as u64,
                },
            );
        }
        let phases = p.phase_histograms();
        assert_eq!(phases.len(), 1);
        let (phase, h) = &phases[0];
        assert_eq!((*phase, h.count(), h.sum()), ("fetch", 3, 1_100));
        // Two of three samples are 100 ns: the median sits there, the tail
        // quantiles on the 900 ns outlier.
        assert!(h.quantile(0.50) < 200, "p50 {}", h.quantile(0.50));
        for q in [0.90, 0.99, 0.999] {
            assert!(h.quantile(q) >= 800, "q{q}: {}", h.quantile(q));
        }
        assert_eq!(p.phase_sum("fetch"), 1_100);
    }

    #[test]
    fn profiler_matches_rdma_verbs_fifo_per_qp() {
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        for t in [100, 150] {
            sink.emit(
                t,
                TraceEvent::RdmaIssue {
                    class: ServiceClass::Fault,
                    write: false,
                    node: 0,
                    core: 2,
                    bytes: 4096,
                },
            );
        }
        for done in [400, 900] {
            sink.emit(
                done,
                TraceEvent::RdmaComplete {
                    class: ServiceClass::Fault,
                    write: false,
                    node: 0,
                    core: 2,
                    done,
                },
            );
        }
        // FIFO: (400-100) + (900-150) = 1050.
        assert_eq!(
            p.folded(),
            vec![("core2;rdma:fault:read".to_string(), 1_050)]
        );
    }

    #[test]
    fn profiler_folds_reclaim_episodes() {
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        sink.emit(10, TraceEvent::ReclaimBegin { free: 2 });
        sink.emit(60, TraceEvent::ReclaimEnd { freed: 4 });
        sink.emit(100, TraceEvent::ReclaimBegin { free: 6 });
        sink.emit(130, TraceEvent::ReclaimEnd { freed: 1 });
        assert_eq!(p.folded(), vec![("bg;reclaim".to_string(), 80)]);
    }

    #[test]
    fn disabled_profiler_emits_nothing() {
        let p = SpanProfiler::disabled();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        sink.emit(
            5,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 1,
                kind: FaultKind::Minor,
            },
        );
        sink.emit(9, TraceEvent::FaultEnd { core: 0, vpn: 1 });
        assert!(!p.is_enabled());
        assert!(p.folded().is_empty());
        assert!(p.histograms().is_empty());
        assert!(p.counters().is_empty());
        assert_eq!(p.fault_count("minor"), 0);
    }

    #[test]
    fn histograms_carry_summary_and_buckets() {
        let p = SpanProfiler::recording();
        let sink = TraceSink::recording();
        p.attach_to(&sink);
        for (i, dur) in [2_000u64, 3_000, 2_500].iter().enumerate() {
            let t0 = i as Ns * 10_000;
            sink.emit(
                t0,
                TraceEvent::FaultBegin {
                    core: 0,
                    vpn: i as u64,
                    kind: FaultKind::Major,
                },
            );
            sink.emit(
                t0 + dur,
                TraceEvent::FaultEnd {
                    core: 0,
                    vpn: i as u64,
                },
            );
        }
        let hists = p.histograms();
        assert_eq!(hists.len(), 1);
        let (kind, h) = &hists[0];
        assert_eq!(*kind, "major");
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (3, 7_500, 2_000, 3_000)
        );
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|b| b.2).sum::<u64>(), 3);
        assert!(buckets.iter().all(|(lo, hi, _)| lo <= hi));
    }
}
