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
//!    its gauges from state no event carries (free frames, busy QPs) and
//!    polls [`MetricsRegistry::next_sample_due`] at its existing
//!    event-drain points to snapshot every gauge into a virtual-time
//!    series; nothing is scheduled on any calendar. Only the three systems
//!    hold a registry handle — no `sim` component does.
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
//! All JSON emitted here is hand-rolled (the workspace deliberately has no
//! serialization dependency) and byte-stable: map iteration order is the
//! `BTreeMap` key order. Metric names are `&'static str` ASCII identifiers,
//! so no string escaping is needed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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
pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Major => "major",
        FaultKind::Minor => "minor",
        FaultKind::ZeroFill => "zero_fill",
    }
}

/// Stable label for a fault phase (folded-stack frames, cross-checks
/// against the hand-maintained `FaultBreakdown` fields).
pub fn phase_label(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::Exception => "exception",
        FaultPhase::Check => "check",
        FaultPhase::Alloc => "alloc",
        FaultPhase::Fetch => "fetch",
        FaultPhase::Map => "map",
        FaultPhase::Reclaim => "reclaim",
    }
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
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets gauge `name` to `value` (registering it on first use).
    #[inline]
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        let Some(core) = &self.inner else { return };
        core.borrow_mut().gauges.insert(name, value);
    }

    /// The latest value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|core| core.borrow().gauges.get(name).copied())
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        self.inner.as_ref().map_or(0, |core| core.borrow().samples)
    }

    /// The next sample time `k · interval` at or before `now`, advancing the
    /// sampler past it. Hosts call this in a `while let` at their
    /// event-drain points and record a gauge snapshot per returned tick:
    ///
    /// ```text
    /// while let Some(t) = self.metrics.next_sample_due(now) {
    ///     self.record_gauges(t);
    /// }
    /// ```
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

    /// The sampled series for gauge `name` (empty if never sampled).
    pub fn series(&self, name: &str) -> Vec<(Ns, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |core| {
            core.borrow().series.get(name).cloned().unwrap_or_default()
        })
    }

    /// Latest gauge values as a byte-stable JSON object:
    /// `{"name": value, …}`. Disabled registries emit `{}`.
    pub fn gauges_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (name, value)) in c.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push('}');
        out
    }

    /// Sampled time series as a byte-stable JSON object:
    /// `{"name": [[t_ns, value], …], …}`. Disabled registries emit `{}`.
    pub fn series_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (name, points)) in c.series.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": [");
            for (j, (t, v)) in points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{t}, {v}]");
            }
            out.push(']');
        }
        out.push('}');
        out
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
        self.inner.as_ref().map_or(0, |core| {
            core.borrow()
                .hist
                .get(kind)
                .map_or(0, LatencyHistogram::count)
        })
    }

    /// Total virtual ns attributed to `phase` (`"exception"`, `"check"`,
    /// `"alloc"`, `"fetch"`, `"map"`, `"reclaim"`) across all spans.
    pub fn phase_sum(&self, phase: &str) -> Ns {
        self.inner.as_ref().map_or(0, |core| {
            let sum = core.borrow().phase_hist.get(phase).map_or(0, |h| h.sum());
            Ns::try_from(sum).unwrap_or(Ns::MAX)
        })
    }

    /// The end-to-end latency histogram for fault `kind`, if any span of
    /// that kind completed.
    pub fn histogram(&self, kind: &str) -> Option<LatencyHistogram> {
        self.inner
            .as_ref()
            .and_then(|core| core.borrow().hist.get(kind).cloned())
    }

    /// Sum of counter `name` across all lanes (zero if no event fed it).
    pub fn counter_total(&self, name: &str) -> u64 {
        let (Some(core), Some(i)) = (&self.inner, COUNTER_NAMES.iter().position(|n| *n == name))
        else {
            return 0;
        };
        core.borrow().counters[i].iter().sum()
    }

    /// Counters as a byte-stable JSON object: `{"name": [lane0, …], …}`.
    /// Disabled profilers emit `{}`.
    pub fn counters_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        let seen = COUNTER_NAMES
            .iter()
            .zip(&c.counters)
            .filter(|(_, lanes)| !lanes.is_empty());
        for (i, (name, lanes)) in seen.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": [");
            for (j, v) in lanes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// The folded-stack output, one `stack value` line per stack in
    /// byte-stable (sorted) order — the format flamegraph.pl and inferno
    /// consume directly. Disabled profilers emit the empty string.
    pub fn folded(&self) -> String {
        let Some(core) = &self.inner else {
            return String::new();
        };
        let c = core.borrow();
        let mut out = String::new();
        for (stack, value) in &c.folded {
            let _ = writeln!(out, "{stack} {value}");
        }
        out
    }

    /// Fault-latency histograms as a byte-stable JSON object keyed by fault
    /// kind. Each entry carries summary statistics plus the occupied bucket
    /// boundaries (`[low_ns, high_ns, count]`, bounds inclusive) so
    /// consumers can re-plot the distribution without the binary. Disabled
    /// profilers emit `{}`.
    pub fn histograms_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (kind, h)) in c.hist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{kind}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
            );
            for (j, (lo, hi, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{lo}, {hi}, {n}]");
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }

    /// Per-phase latency quantiles as a byte-stable JSON object keyed by
    /// phase label: count plus p50/p90/p99/p999 of the per-span phase
    /// durations. Complements [`SpanProfiler::phase_sum`] (aggregate) with
    /// tail shape — the question the causal tail report asks in bulk.
    /// Disabled profilers emit `{}`.
    pub fn phase_quantiles_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (phase, h)) in c.phase_hist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{phase}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}}}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
            );
        }
        out.push('}');
        out
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
        assert_eq!(m.gauge("free"), None);
        assert_eq!(m.samples(), 0);
        assert_eq!(m.next_sample_due(u64::MAX), None);
        assert_eq!(m.gauges_json(), "{}");
        assert_eq!(m.series_json(), "{}");
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
        assert_eq!(m.series("free"), vec![(I, 10), (2 * I, 10), (3 * I, 10)]);
        assert_eq!(
            m.series_json(),
            format!(
                "{{\"free\": [[{I}, 10], [{}, 10], [{}, 10]]}}",
                2 * I,
                3 * I
            )
        );
    }

    #[test]
    fn gauges_json_tracks_latest_values() {
        let m = MetricsRegistry::recording();
        m.set_gauge("lru", 3);
        m.set_gauge("free", 12);
        m.set_gauge("lru", 4);
        assert_eq!(m.gauge("lru"), Some(4));
        assert_eq!(m.gauges_json(), "{\"free\": 12, \"lru\": 4}");
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::recording();
        let m2 = m.clone();
        m.set_gauge("free", 3);
        assert_eq!(m2.gauge("free"), Some(3));
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
        assert!(COUNTER_NAMES.windows(2).all(|w| w[0] < w[1]), "JSON order");
        assert_eq!(p.counter_total("rdma_reads"), 2);
        assert_eq!(p.counter_total("fabric_tx_bytes"), 128);
        assert_eq!(p.counter_total("absent"), 0);
        assert_eq!(
            p.counters_json(),
            "{\"fabric_rx_bytes\": [4096], \"fabric_tx_bytes\": [0, 0, 0, 128], \
             \"lru_inserts\": [2], \"lru_removes\": [1], \
             \"memnode_read_bytes\": [64], \"memnode_reads\": [1], \
             \"memnode_write_bytes\": [128], \"memnode_writes\": [1], \
             \"rdma_reads\": [1, 0, 1], \"rdma_writes\": [0, 0, 1]}"
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
        let folded = p.folded();
        assert!(folded.contains("core1;fault:major;exception 500\n"));
        assert!(folded.contains("core1;fault:major;fetch 1200\n"));
        // Total span = 2000, phases charged 1700 → 300 ns residual.
        assert!(folded.contains("core1;fault:major 300\n"));
        let h = p.histogram("major").expect("major histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2_000);
    }

    #[test]
    fn phase_quantiles_json_carries_tail_shape() {
        assert_eq!(SpanProfiler::disabled().phase_quantiles_json(), "{}");
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
        let json = p.phase_quantiles_json();
        assert!(json.starts_with("{\"fetch\": {\"count\": 3, \"p50\": "));
        assert!(json.contains("\"p90\": "));
        assert!(json.contains("\"p999\": "));
        assert_eq!(json, p.phase_quantiles_json(), "byte-stable");
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
        assert!(p.folded().contains("core2;rdma:fault:read 1050\n"));
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
        assert_eq!(p.folded(), "bg;reclaim 80\n");
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
        assert_eq!(p.folded(), "");
        assert_eq!(p.histograms_json(), "{}");
        assert_eq!(p.counters_json(), "{}");
        assert_eq!(p.fault_count("minor"), 0);
    }

    #[test]
    fn histograms_json_is_byte_stable_and_carries_buckets() {
        let run = || {
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
            p.histograms_json()
        };
        let a = run();
        assert_eq!(a, run(), "histogram JSON must be byte-stable");
        assert!(a.contains("\"major\": {\"count\": 3"));
        assert!(a.contains("\"buckets\": [["));
    }
}
