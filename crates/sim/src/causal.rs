//! Causal request tracing: per-request span trees over the event stream.
//!
//! The span profiler answers "how much time did faults spend in each phase
//! in aggregate"; this module answers "*which* phase dominated *this* fault".
//! Every demand fault, prefetch, and eviction is assigned a stable
//! [`ReqId`] at origin (see
//! [`TraceSink::begin_request`](crate::trace::TraceSink::begin_request)) and
//! the id rides the side band to observers: it is never folded into the
//! digest, never schedules calendar work, and never perturbs data-path
//! timing — arming a [`CausalTracer`] leaves a run's digest byte-identical
//! to an unarmed run, exactly like the gauge sampler.
//!
//! The tracer is a passive [`TraceObserver`]: it groups events by their
//! request id into [`RequestTrace`] records (span trees), tracks background
//! reclaim episodes separately, and [`critical_path`] attributes each
//! request's latency to queueing / transfer / service / replay so the tail
//! report in `dilos-bench` can name the dominant phase of the p99.9
//! exemplars instead of an aggregate mean.

use crate::fabric::ServiceClass;
use crate::time::Ns;
use crate::trace::{FaultKind, FaultPhase, ReqId, TraceEvent, TraceObserver, TraceSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One RDMA verb from `RdmaIssue` to the `done` horizon of its
/// `RdmaComplete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbSpan {
    pub issued: Ns,
    pub done: Ns,
    pub class: ServiceClass,
    pub write: bool,
    pub node: u8,
    pub core: u8,
}

/// The one place a span is closed: in-flight verbs, FIFO per queue pair
/// `(class, write, node, core)` within a caller-chosen `scope`, and the
/// open background reclaim episode. The profiler pairs over the whole
/// stream (`scope = ()`), the causal tracer within each request. Only
/// in-flight verbs are held, so a linear scan for the oldest match is the
/// FIFO rule and the whole store.
#[derive(Debug, Default)]
pub(crate) struct OpenSpans<S> {
    verbs: Vec<(S, VerbSpan)>,
    reclaim: Option<Ns>,
}

impl<S: PartialEq> OpenSpans<S> {
    /// Feeds a verb event: an `RdmaIssue` opens a span, an `RdmaComplete`
    /// closes and returns the oldest open span of its queue pair (none if
    /// the issue was never seen).
    pub(crate) fn verb(&mut self, scope: S, t: Ns, ev: &TraceEvent) -> Option<VerbSpan> {
        match *ev {
            TraceEvent::RdmaIssue {
                class,
                write,
                node,
                core,
                ..
            } => {
                let span = VerbSpan {
                    issued: t,
                    done: t,
                    class,
                    write,
                    node,
                    core,
                };
                self.verbs.push((scope, span));
                None
            }
            TraceEvent::RdmaComplete {
                class,
                write,
                node,
                core,
                done,
            } => {
                let i = self.verbs.iter().position(|(s, v)| {
                    *s == scope && (v.class, v.write, v.node, v.core) == (class, write, node, core)
                })?;
                let (_, span) = self.verbs.remove(i);
                Some(VerbSpan { done, ..span })
            }
            _ => None,
        }
    }

    /// Feeds a reclaim event: `ReclaimEnd` closes the episode the latest
    /// `ReclaimBegin` opened and returns `(begin, end, frames freed)`.
    pub(crate) fn reclaim(&mut self, t: Ns, ev: &TraceEvent) -> Option<(Ns, Ns, u32)> {
        match *ev {
            TraceEvent::ReclaimBegin { .. } => {
                self.reclaim = Some(t);
                None
            }
            TraceEvent::ReclaimEnd { freed } => self.reclaim.take().map(|begin| (begin, t, freed)),
            _ => None,
        }
    }
}

/// What kind of causal request a span tree describes, inferred from the
/// first kind-bearing event emitted under its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Demand fetch from remote memory.
    MajorFault,
    /// Handler waited on a page already in flight.
    MinorFault,
    /// First touch of an unbacked page.
    ZeroFill,
    /// Asynchronous fetch issued by readahead / the trend prefetcher.
    Prefetch,
    /// A resident page was evicted (background or direct reclaim).
    Evict,
    /// No kind-bearing event was seen (e.g. a bare verb).
    Other,
}

impl ReqKind {
    /// Stable label used by exporters and reports.
    pub fn label(self) -> &'static str {
        match self {
            ReqKind::MajorFault => "major-fault",
            ReqKind::MinorFault => "minor-fault",
            ReqKind::ZeroFill => "zero-fill",
            ReqKind::Prefetch => "prefetch",
            ReqKind::Evict => "evict",
            ReqKind::Other => "other",
        }
    }
}

/// The assembled span tree of one request: every event emitted under its
/// id, in emission order, plus the derived envelope.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub id: ReqId,
    pub kind: ReqKind,
    /// Origin core (first event that carries one), 0 if none did.
    pub core: u8,
    /// Subject page (first event that carries one), u64::MAX if none did.
    pub vpn: u64,
    /// Virtual time of the first event.
    pub begin: Ns,
    /// Latest virtual time covered: event stamps and `done` horizons of
    /// deferred completions / link transfers extend it.
    pub end: Ns,
    /// Every event attributed to this request, in emission order.
    pub events: Vec<(Ns, TraceEvent)>,
    /// The request's verbs, closed at assembly, in completion order.
    pub verbs: Vec<VerbSpan>,
    /// Summed `FaultPhase` durations indexed by `FaultPhase as usize`;
    /// `None` when the request emitted no phase event.
    pub phases: Option<[Ns; 6]>,
    /// A crash / recovery-replay event fell inside the request's window.
    pub recovery: bool,
}

impl RequestTrace {
    /// End-to-end latency of the request on the virtual clock.
    pub fn total(&self) -> Ns {
        self.end.saturating_sub(self.begin)
    }
}

/// Where one request's latency went. Components are disjoint and
/// `queueing + transfer + service + replay + other == total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub total: Ns,
    /// Waiting for resources: frame-allocation stall of a major fault, or
    /// the whole wait of a minor fault riding an in-flight fetch.
    pub queueing: Ns,
    /// Time on the wire / in remote service (fetch phase, verb spans).
    pub transfer: Ns,
    /// Handler CPU work: exception entry, PTE checks, map/bookkeeping, and
    /// reclaim work charged inside the fault path.
    pub service: Ns,
    /// Portion overlapping a memnode crash-recovery replay window.
    pub replay: Ns,
    /// Residual not explained by the above (clock gaps).
    pub other: Ns,
}

impl PhaseBreakdown {
    /// The dominant component's name (ties broken in field order).
    pub fn dominant(&self) -> &'static str {
        let parts = [
            (self.queueing, "queueing"),
            (self.transfer, "transfer"),
            (self.service, "service"),
            (self.replay, "replay"),
            (self.other, "other"),
        ];
        let mut best = (0, "none");
        for (v, name) in parts {
            if v > best.0 {
                best = (v, name);
            }
        }
        best.1
    }
}

/// Attributes `r`'s end-to-end latency to phases.
///
/// Major faults use their `FaultPhase` durations (alloc → queueing, fetch →
/// transfer, exception/check/map/reclaim → service). Minor faults are pure
/// queueing (the handler waits on an in-flight fetch). Zero fills are pure
/// service. Prefetches split into wire time (issue → completion `done`) and
/// queueing (landing deferral). Evictions split into writeback wire time
/// and service. Any window that overlaps recovery-replay events moves its
/// transfer share to `replay`.
pub fn critical_path(r: &RequestTrace) -> PhaseBreakdown {
    let total = r.total();
    let mut b = PhaseBreakdown {
        total,
        ..PhaseBreakdown::default()
    };
    if let Some(p) = r.phases {
        let at = |phase: FaultPhase| p[phase as usize];
        b.queueing = at(FaultPhase::Alloc);
        b.transfer = at(FaultPhase::Fetch);
        b.service = at(FaultPhase::Exception)
            .saturating_add(at(FaultPhase::Check))
            .saturating_add(at(FaultPhase::Map))
            .saturating_add(at(FaultPhase::Reclaim));
    } else {
        // Time on the wire: issue to completion horizon over the verbs.
        let wire = r
            .verbs
            .iter()
            .fold(0, |sum: Ns, v| {
                sum.saturating_add(v.done.saturating_sub(v.issued))
            })
            .min(total);
        match r.kind {
            ReqKind::MinorFault => b.queueing = total,
            ReqKind::ZeroFill | ReqKind::Other => b.service = total,
            ReqKind::Prefetch => {
                b.transfer = wire;
                b.queueing = total - wire;
            }
            // Evictions, and a phase-less major fault (a baseline that does
            // not emit phases): the rest is service.
            ReqKind::Evict | ReqKind::MajorFault => {
                b.transfer = wire;
                b.service = total - wire;
            }
        }
    }
    // A crash-recovery replay observed inside the window converts the
    // transfer share into replay stall: the fetch was not moving bytes, it
    // was waiting for the memnode to redo its intent log.
    if r.recovery {
        b.replay = b.transfer;
        b.transfer = 0;
    }
    let explained = b
        .queueing
        .saturating_add(b.transfer)
        .saturating_add(b.service)
        .saturating_add(b.replay);
    b.other = total.saturating_sub(explained);
    b
}

#[derive(Debug, Default)]
struct CausalCore {
    reqs: BTreeMap<ReqId, RequestTrace>,
    open: OpenSpans<ReqId>,
    /// Background reclaim episodes: (begin, end, frames freed).
    reclaim_episodes: Vec<(Ns, Ns, u32)>,
}

impl CausalCore {
    fn record(&mut self, t: Ns, ev: &TraceEvent, req: Option<ReqId>) {
        let Some(id) = req else {
            // Unattributed stream: only the background reclaim envelope is
            // interesting (per-request reclaim shows up via FaultPhase).
            self.reclaim_episodes.extend(self.open.reclaim(t, ev));
            return;
        };
        let r = self.reqs.entry(id).or_insert_with(|| RequestTrace {
            id,
            kind: ReqKind::Other,
            core: 0,
            vpn: u64::MAX,
            begin: t,
            end: t,
            events: Vec::new(),
            verbs: Vec::new(),
            phases: None,
            recovery: false,
        });
        r.end = r.end.max(t);
        match *ev {
            TraceEvent::FaultBegin { core, vpn, kind } => {
                if r.kind == ReqKind::Other {
                    r.kind = match kind {
                        FaultKind::Major => ReqKind::MajorFault,
                        FaultKind::Minor => ReqKind::MinorFault,
                        FaultKind::ZeroFill => ReqKind::ZeroFill,
                    };
                }
                r.core = core;
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::PrefetchIssue { vpn } => {
                if r.kind == ReqKind::Other {
                    r.kind = ReqKind::Prefetch;
                }
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::Evict { vpn, .. } => {
                if r.kind == ReqKind::Other {
                    r.kind = ReqKind::Evict;
                }
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::FaultPhase { phase, dur, .. } => {
                let sum = &mut r.phases.get_or_insert([0; 6])[phase as usize];
                *sum = sum.saturating_add(dur);
            }
            TraceEvent::RdmaIssue { .. } => {
                self.open.verb(id, t, ev);
            }
            TraceEvent::RdmaComplete { done, .. } => {
                r.end = r.end.max(done);
                r.verbs.extend(self.open.verb(id, t, ev));
            }
            TraceEvent::LinkTransfer { done, .. } => r.end = r.end.max(done),
            TraceEvent::NodeCrash { .. }
            | TraceEvent::RecoveryReplay { .. }
            | TraceEvent::RecoveryComplete { .. } => r.recovery = true,
            _ => {}
        }
        r.events.push((t, *ev));
    }
}

impl TraceObserver for CausalCore {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        self.record(t, ev, None);
    }

    fn on_event_req(&mut self, t: Ns, ev: &TraceEvent, req: Option<ReqId>) {
        self.record(t, ev, req);
    }
}

/// Cloneable handle to a (possibly absent) causal recorder, following the
/// same dark-handle pattern as [`TraceSink`] and `SpanProfiler`: the
/// default / `disabled()` handle observes nothing and costs nothing.
#[derive(Debug, Clone, Default)]
pub struct CausalTracer {
    inner: Option<Rc<RefCell<CausalCore>>>,
}

impl CausalTracer {
    /// The dark handle: records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder (attach it to a sink with [`CausalTracer::attach_to`]).
    pub fn recording() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(CausalCore::default()))),
        }
    }

    /// Whether span trees are being assembled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers this tracer as an observer of `trace`. Call once per sink;
    /// `Observability::with_timeline` does this for bundles.
    pub fn attach_to(&self, trace: &TraceSink) {
        if let Some(core) = &self.inner {
            trace.attach(core.clone());
        }
    }

    /// Number of requests with at least one attributed event.
    pub fn request_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |c| c.borrow().reqs.len())
    }

    /// All assembled span trees, in request-id (origin) order.
    pub fn requests(&self) -> Vec<RequestTrace> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().reqs.values().cloned().collect())
    }

    /// Background reclaim episodes as (begin, end, frames freed).
    pub fn reclaim_episodes(&self) -> Vec<(Ns, Ns, u32)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().reclaim_episodes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> (TraceSink, CausalTracer) {
        let sink = TraceSink::recording();
        let tracer = CausalTracer::recording();
        tracer.attach_to(&sink);
        (sink, tracer)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let sink = TraceSink::recording();
        let tracer = CausalTracer::disabled();
        tracer.attach_to(&sink);
        sink.begin_request();
        sink.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.request_count(), 0);
        assert!(tracer.requests().is_empty());
    }

    #[test]
    fn groups_events_by_request_and_extends_end_by_done() {
        let (sink, tracer) = armed();
        let prev = sink.begin_request();
        sink.emit(
            100,
            TraceEvent::FaultBegin {
                core: 2,
                vpn: 7,
                kind: FaultKind::Major,
            },
        );
        sink.emit(
            110,
            TraceEvent::RdmaComplete {
                class: ServiceClass::Fault,
                write: false,
                node: 0,
                core: 2,
                done: 900,
            },
        );
        sink.emit(120, TraceEvent::FaultEnd { core: 2, vpn: 7 });
        sink.set_request(prev);
        sink.emit(130, TraceEvent::FrameFree { frame: 3 });

        let reqs = tracer.requests();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.kind, ReqKind::MajorFault);
        assert_eq!(r.core, 2);
        assert_eq!(r.vpn, 7);
        assert_eq!(r.begin, 100);
        assert_eq!(r.end, 900, "done horizon extends the envelope");
        assert_eq!(r.events.len(), 3, "unattributed events stay out");
    }

    #[test]
    fn critical_path_uses_fault_phases() {
        let (sink, tracer) = armed();
        sink.begin_request();
        sink.emit(
            0,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 1,
                kind: FaultKind::Major,
            },
        );
        for (phase, dur) in [
            (FaultPhase::Exception, 2),
            (FaultPhase::Check, 3),
            (FaultPhase::Alloc, 10),
            (FaultPhase::Fetch, 80),
            (FaultPhase::Map, 5),
        ] {
            sink.emit(
                100,
                TraceEvent::FaultPhase {
                    core: 0,
                    phase,
                    dur,
                },
            );
        }
        sink.emit(100, TraceEvent::FaultEnd { core: 0, vpn: 1 });
        let reqs = tracer.requests();
        let b = critical_path(&reqs[0]);
        assert_eq!(b.total, 100);
        assert_eq!(b.queueing, 10);
        assert_eq!(b.transfer, 80);
        assert_eq!(b.service, 10);
        assert_eq!(b.replay, 0);
        assert_eq!(b.other, 0);
        assert_eq!(b.dominant(), "transfer");
    }

    #[test]
    fn minor_fault_is_pure_queueing_and_prefetch_splits_wire() {
        let (sink, tracer) = armed();
        // Minor fault: begin/land/end, no phases.
        sink.begin_request();
        sink.emit(
            10,
            TraceEvent::FaultBegin {
                core: 1,
                vpn: 9,
                kind: FaultKind::Minor,
            },
        );
        sink.emit(70, TraceEvent::FaultEnd { core: 1, vpn: 9 });
        // Prefetch: issue + verb, landing later.
        sink.begin_request();
        sink.emit(20, TraceEvent::PrefetchIssue { vpn: 11 });
        sink.emit(
            20,
            TraceEvent::RdmaIssue {
                class: ServiceClass::Prefetch,
                write: false,
                node: 0,
                core: 1,
                bytes: 4096,
            },
        );
        sink.emit(
            21,
            TraceEvent::RdmaComplete {
                class: ServiceClass::Prefetch,
                write: false,
                node: 0,
                core: 1,
                done: 60,
            },
        );
        sink.emit(80, TraceEvent::PrefetchLand { vpn: 11 });
        sink.set_request(None);

        let reqs = tracer.requests();
        assert_eq!(reqs.len(), 2);
        let minor = critical_path(&reqs[0]);
        assert_eq!(minor.queueing, 60);
        assert_eq!(minor.transfer, 0);
        let pf = critical_path(&reqs[1]);
        assert_eq!(pf.total, 60);
        assert_eq!(pf.transfer, 40, "issue@20 -> done@60");
        assert_eq!(pf.queueing, 20, "landing deferral");
    }

    /// Two requests share a queue pair and complete in reverse order: each
    /// closed span pairs the issue of its own request, where the profiler's
    /// stream-wide FIFO crosses them.
    #[test]
    fn verbs_pair_within_their_request() {
        let (sink, tracer) = armed();
        let verb = |done: Option<Ns>| match done {
            None => TraceEvent::RdmaIssue {
                class: ServiceClass::Prefetch,
                write: false,
                node: 1,
                core: 0,
                bytes: 4096,
            },
            Some(done) => TraceEvent::RdmaComplete {
                class: ServiceClass::Prefetch,
                write: false,
                node: 1,
                core: 0,
                done,
            },
        };
        let a = sink.begin_request();
        sink.emit(10, verb(None));
        let a = sink.set_request(a);
        let b = sink.begin_request();
        sink.emit(20, verb(None));
        sink.emit(50, verb(Some(50)));
        sink.set_request(a);
        sink.emit(90, verb(Some(90)));
        sink.set_request(b);

        let spans: Vec<_> = tracer
            .requests()
            .iter()
            .map(|r| (r.verbs[0].issued, r.verbs[0].done, r.verbs.len()))
            .collect();
        assert_eq!(spans, vec![(10, 90, 1), (20, 50, 1)]);
    }

    #[test]
    fn background_reclaim_becomes_episodes_not_requests() {
        let (sink, tracer) = armed();
        sink.emit(5, TraceEvent::ReclaimBegin { free: 2 });
        sink.emit(
            9,
            TraceEvent::Evict {
                vpn: 1,
                dirty: false,
            },
        );
        sink.emit(15, TraceEvent::ReclaimEnd { freed: 4 });
        assert_eq!(tracer.request_count(), 0);
        assert_eq!(tracer.reclaim_episodes(), vec![(5, 15, 4)]);
    }

    #[test]
    fn replay_overlap_moves_transfer_to_replay() {
        let (sink, tracer) = armed();
        sink.begin_request();
        sink.emit(
            0,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 3,
                kind: FaultKind::Major,
            },
        );
        sink.emit(1, TraceEvent::NodeCrash { node: 0 });
        sink.emit(
            50,
            TraceEvent::FaultPhase {
                core: 0,
                phase: FaultPhase::Fetch,
                dur: 40,
            },
        );
        sink.emit(50, TraceEvent::FaultEnd { core: 0, vpn: 3 });
        let reqs = tracer.requests();
        let b = critical_path(&reqs[0]);
        assert_eq!(b.replay, 40);
        assert_eq!(b.transfer, 0);
    }
}
