//! Structured virtual-time event tracing.
//!
//! Every observable state change in a simulated run — page faults and their
//! phases, RDMA verbs per service class, prefetch lifecycles, reclaim
//! episodes, frame allocation, PTE transitions, guide invocations — can be
//! emitted as a typed [`TraceEvent`] stamped with its `Ns` virtual time.
//! The stream is the single source of truth for *what happened*: the ad-hoc
//! counters in `stats` modules are cross-checked against it, an online
//! auditor (in `dilos-core`) verifies state-machine invariants over it, and
//! an order-sensitive [digest](TraceSink::digest) lets two runs be compared
//! byte-for-byte.
//!
//! Tracing is opt-in and zero-cost when disabled: a [`TraceSink`] is a
//! cloneable handle that is either dark (`TraceSink::disabled()`, the
//! default — `emit` is a single branch on a `None`, inlined into the caller)
//! or lit: a running digest, an event count and a list of observers.
//! Components hold their own clone of the sink, so one sink sees a whole
//! system: node, page table and RDMA endpoint (for itself and the links and
//! memory nodes it drives) all emit into the same ordered stream.
//!
//! # Reading the stream
//!
//! The sink stores no event. Whoever wants more than the digest and the
//! count — the auditor, the span profiler, the causal tracer, a test that
//! needs history — is a [`TraceObserver`], attached with
//! [`TraceSink::attach`] and called once per event, in emission order. How
//! much to keep is the observer's business; keeping everything takes six
//! lines:
//!
//! ```
//! use dilos_sim::{Ns, TraceEvent, TraceObserver, TraceSink};
//! use std::{cell::RefCell, rc::Rc};
//!
//! struct Recorder(Vec<(Ns, TraceEvent)>);
//! impl TraceObserver for Recorder {
//!     fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
//!         self.0.push((t, *ev));
//!     }
//! }
//!
//! let sink = TraceSink::recording();
//! let seen = Rc::new(RefCell::new(Recorder(Vec::new())));
//! sink.attach(seen.clone());
//! sink.emit(7, TraceEvent::FrameAlloc { frame: 3 });
//! assert_eq!(seen.borrow().0, [(7, TraceEvent::FrameAlloc { frame: 3 })]);
//! ```
//!
//! # The digest
//!
//! Each event contributes its timestamp and then one to three 64-bit words
//! (`TraceEvent::encode`: a head word packing the variant tag and every
//! narrow field into fixed bit ranges, then each `u64` field in a word of
//! its own), and each word is absorbed by one multiply-and-rotate step
//! (`fold`). The words are produced inside the `match` on the event and
//! folded as they are produced; nothing is staged. Digests recorded before
//! this scheme (byte-wise FNV-1a over up to six words per event) name the
//! same streams under a different fold; `tests/causal.rs` keeps that fold
//! as a reference observer and checks the old pins through it.

use crate::fabric::ServiceClass;
use crate::time::Ns;
use std::cell::RefCell;
use std::rc::Rc;

/// Stable identity of one causal request (demand fault, prefetch, eviction),
/// assigned at origin by [`TraceSink::begin_request`]. Ids are side-band
/// metadata: they ride alongside the event stream to observers and are
/// **never** folded into the digest, so arming causal tracing cannot change
/// a recorded digest.
pub type ReqId = u64;

/// What kind of page fault a `FaultBegin` opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Demand fetch from remote memory (the PTE was Remote or Action).
    Major,
    /// The page was already in flight (Fetching PTE); the handler waits.
    Minor,
    /// First touch of an unbacked page; no remote traffic.
    ZeroFill,
}

/// One phase of the fault handler's latency breakdown (paper Figs. 1/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Hardware exception + kernel entry cost.
    Exception,
    /// PTE lookup and state check.
    Check,
    /// Waiting for a free frame (allocation stall).
    Alloc,
    /// The remote read itself.
    Fetch,
    /// Installing the PTE and LRU/ring bookkeeping.
    Map,
    /// Reclaim work charged inside the fault path (baselines only).
    Reclaim,
}

/// Page-table entry state class, as seen by the tracer.
///
/// Mirrors `dilos_core::Pte`'s tags without depending on that crate, so the
/// sim layer can carry transitions for any paging system that wants to emit
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PteClass {
    None,
    Local,
    Remote,
    Fetching,
    Action,
}

/// A single traced occurrence. Everything is `Copy` and numeric so emission
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A fault handler invocation begins.
    FaultBegin { core: u8, vpn: u64, kind: FaultKind },
    /// One phase of the in-progress fault took `dur` virtual ns.
    FaultPhase {
        core: u8,
        phase: FaultPhase,
        dur: Ns,
    },
    /// The fault handler returns; the page is usable.
    FaultEnd { core: u8, vpn: u64 },
    /// An RDMA verb is posted to a queue pair.
    RdmaIssue {
        class: ServiceClass,
        write: bool,
        node: u8,
        core: u8,
        bytes: u32,
    },
    /// The verb completed at virtual time `done`.
    RdmaComplete {
        class: ServiceClass,
        write: bool,
        node: u8,
        core: u8,
        done: Ns,
    },
    /// The shared wire carried `bytes` for `class`, finishing at `done`.
    LinkTransfer {
        class: ServiceClass,
        bytes: u32,
        inbound: bool,
        done: Ns,
    },
    /// The memory node served a region access.
    MemAccess { write: bool, offset: u64, len: u32 },
    /// An asynchronous fetch (prefetch/readahead) was issued for `vpn`.
    PrefetchIssue { vpn: u64 },
    /// The in-flight fetch for `vpn` was consumed: mapped, or promoted by a
    /// minor fault.
    PrefetchLand { vpn: u64 },
    /// The in-flight fetch for `vpn` was abandoned without mapping.
    PrefetchCancel { vpn: u64 },
    /// A physical frame left the free list.
    FrameAlloc { frame: u32 },
    /// A physical frame returned to the free list.
    FrameFree { frame: u32 },
    /// The page table moved `vpn` between state classes.
    PteTransition {
        vpn: u64,
        from: PteClass,
        to: PteClass,
    },
    /// A key entered the LRU chain. Despite its name, `vpn` is a *frame
    /// number* on DiLOS (the auditor's "no frame resurrected" rule relies
    /// on it) and a VPN on Fastswap.
    LruInsert { vpn: u64 },
    /// A key left the LRU chain (`vpn` as in `LruInsert`).
    LruRemove { vpn: u64 },
    /// A background reclaim episode starts with `free` frames available.
    ReclaimBegin { free: u32 },
    /// The episode ends having freed `freed` frames.
    ReclaimEnd { freed: u32 },
    /// A resident page was evicted (written back if `dirty`).
    Evict { vpn: u64, dirty: bool },
    /// An app-aware guide ran for `vpn` (`fetch` = fetch-side guide,
    /// otherwise evict-side).
    GuideInvoke { vpn: u64, fetch: bool },
    /// Memory node `node` sealed a checkpoint covering acknowledged intents
    /// up to sequence number `upto`.
    Checkpoint { node: u8, upto: u64 },
    /// Memory node `node` appended (acknowledged) write-intent `seq` before
    /// copying the payload into its page table.
    IntentAppend { node: u8, seq: u64 },
    /// A planned `Fault::Crash` struck memory node `node`: its volatile state is
    /// gone; only the durable checkpoint + intent log survive.
    NodeCrash { node: u8 },
    /// Recovery replayed intent `seq` onto node `node`'s restored
    /// checkpoint.
    RecoveryReplay { node: u8, seq: u64 },
    /// Node `node` finished recovery: `replayed` intents redone,
    /// `reconciled` pages resynced from surviving replicas/EC stripes.
    RecoveryComplete {
        node: u8,
        replayed: u64,
        reconciled: u64,
    },
}

impl FaultKind {
    fn code(self) -> u8 {
        match self {
            FaultKind::Major => 0,
            FaultKind::Minor => 1,
            FaultKind::ZeroFill => 2,
        }
    }
}

impl FaultPhase {
    fn code(self) -> u8 {
        match self {
            FaultPhase::Exception => 0,
            FaultPhase::Check => 1,
            FaultPhase::Alloc => 2,
            FaultPhase::Fetch => 3,
            FaultPhase::Map => 4,
            FaultPhase::Reclaim => 5,
        }
    }
}

impl PteClass {
    fn code(self) -> u8 {
        match self {
            PteClass::None => 0,
            PteClass::Local => 1,
            PteClass::Remote => 2,
            PteClass::Fetching => 3,
            PteClass::Action => 4,
        }
    }

    /// Stable label for reports and violation messages.
    pub fn label(self) -> &'static str {
        match self {
            PteClass::None => "none",
            PteClass::Local => "local",
            PteClass::Remote => "remote",
            PteClass::Fetching => "fetching",
            PteClass::Action => "action",
        }
    }
}

// Bit offsets of the fields of an event's first digest word (the *head*):
//
// | bits   | field | carries                                            |
// |--------|-------|----------------------------------------------------|
// | 0..8   | tag   | variant discriminant, 1..=24 in declaration order  |
// | 8..16  | CORE  | `core`                                             |
// | 16..24 | NODE  | `node`                                             |
// | 24..28 | CODE  | `kind` / `phase` / `class` / `from`                |
// | 28     | FLAG  | `write` / `inbound` / `dirty` / `fetch`            |
// | 29..32 | TO    | `PteTransition::to`                                |
// | 32..64 | LEN   | `bytes` / `len` / `frame` / `free` / `freed`       |
//
// A variant leaves the ranges it has no field for at zero. The layout is
// the digest's contract: move a field and every recorded digest changes.
const CORE: u32 = 8;
const NODE: u32 = 16;
const CODE: u32 = 24;
const FLAG: u32 = 28;
const TO: u32 = 29;
const LEN: u32 = 32;

/// `v` placed at bit offset `shift` of a head word.
#[inline(always)]
fn at(v: impl Into<u64>, shift: u32) -> u64 {
    v.into() << shift
}

impl TraceEvent {
    /// Hands the event's digest encoding to `word`, one call per word: the
    /// head word (tag in the low byte, every narrow field at its offset
    /// above), then each `u64` field in a word of its own, in declaration
    /// order — one to three words per event. The encoding is part of the
    /// digest's contract: change it and recorded digests change.
    #[inline(always)]
    fn encode(&self, mut word: impl FnMut(u64)) {
        use TraceEvent::*;
        match *self {
            FaultBegin { core, vpn, kind } => {
                word(1 | at(core, CORE) | at(kind.code(), CODE));
                word(vpn);
            }
            FaultPhase { core, phase, dur } => {
                word(2 | at(core, CORE) | at(phase.code(), CODE));
                word(dur);
            }
            FaultEnd { core, vpn } => {
                word(3 | at(core, CORE));
                word(vpn);
            }
            RdmaIssue {
                class,
                write,
                node,
                core,
                bytes,
            } => word(4 | verb(class, write, node, core) | at(bytes, LEN)),
            RdmaComplete {
                class,
                write,
                node,
                core,
                done,
            } => {
                word(5 | verb(class, write, node, core));
                word(done);
            }
            LinkTransfer {
                class,
                bytes,
                inbound,
                done,
            } => {
                word(6 | at(class.idx() as u8, CODE) | at(inbound, FLAG) | at(bytes, LEN));
                word(done);
            }
            MemAccess { write, offset, len } => {
                word(7 | at(write, FLAG) | at(len, LEN));
                word(offset);
            }
            PrefetchIssue { vpn } => {
                word(8);
                word(vpn);
            }
            PrefetchLand { vpn } => {
                word(9);
                word(vpn);
            }
            PrefetchCancel { vpn } => {
                word(10);
                word(vpn);
            }
            FrameAlloc { frame } => word(11 | at(frame, LEN)),
            FrameFree { frame } => word(12 | at(frame, LEN)),
            PteTransition { vpn, from, to } => {
                word(13 | at(from.code(), CODE) | at(to.code(), TO));
                word(vpn);
            }
            LruInsert { vpn } => {
                word(14);
                word(vpn);
            }
            LruRemove { vpn } => {
                word(15);
                word(vpn);
            }
            ReclaimBegin { free } => word(16 | at(free, LEN)),
            ReclaimEnd { freed } => word(17 | at(freed, LEN)),
            Evict { vpn, dirty } => {
                word(18 | at(dirty, FLAG));
                word(vpn);
            }
            GuideInvoke { vpn, fetch } => {
                word(19 | at(fetch, FLAG));
                word(vpn);
            }
            Checkpoint { node, upto } => {
                word(20 | at(node, NODE));
                word(upto);
            }
            IntentAppend { node, seq } => {
                word(21 | at(node, NODE));
                word(seq);
            }
            NodeCrash { node } => word(22 | at(node, NODE)),
            RecoveryReplay { node, seq } => {
                word(23 | at(node, NODE));
                word(seq);
            }
            RecoveryComplete {
                node,
                replayed,
                reconciled,
            } => {
                word(24 | at(node, NODE));
                word(replayed);
                word(reconciled);
            }
        }
    }
}

/// The head-word bits the two RDMA verb events share.
#[inline(always)]
fn verb(class: ServiceClass, write: bool, node: u8, core: u8) -> u64 {
    at(core, CORE) | at(node, NODE) | at(class.idx() as u8, CODE) | at(write, FLAG)
}

/// Consumes events as they are emitted (the auditor implements this).
///
/// Observers run synchronously inside `emit`, in attach order, *after* the
/// event has been folded into the digest and counted.
pub trait TraceObserver {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent);

    /// Like [`TraceObserver::on_event`] but also carries the request id that
    /// was current when the event was emitted (None for background /
    /// unattributed events). The default forwards to `on_event`, so
    /// observers that do not care about causality (auditor, profiler) need
    /// not change.
    fn on_event_req(&mut self, t: Ns, ev: &TraceEvent, req: Option<ReqId>) {
        let _ = req;
        self.on_event(t, ev);
    }
}

/// Observers as the sink holds them: an immutable snapshot that `attach`
/// replaces, so an emission shares it with one refcount bump.
type Observers = Rc<[Rc<RefCell<dyn TraceObserver>>]>;

/// What a lit sink keeps: a running digest, a count, the observer list and
/// the request register. No event is stored.
struct TraceCore {
    /// Order-sensitive digest over every event emitted.
    digest: u64,
    /// Total emitted.
    count: u64,
    observers: Observers,
    /// Next request id to hand out (ids start at 1; 0 is never issued).
    next_req: ReqId,
    /// The request currently on the (virtual) CPU: events emitted while it
    /// is set are attributed to it. Side-band only — never digested.
    current_req: Option<ReqId>,
}

impl TraceCore {
    fn push(&mut self, t: Ns, ev: TraceEvent) {
        let mut h = fold(self.digest, t);
        ev.encode(|w| h = fold(h, w));
        self.digest = h;
        self.count += 1;
    }
}

/// The digest of an empty stream (the 64-bit FNV offset basis, kept as an
/// arbitrary non-zero start).
const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;
/// Odd, so multiplying by it is a bijection of `u64` (2^64 / golden ratio).
const FOLD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const FOLD_ROT: u32 = 29;

/// One digest step: absorbs word `w` into state `h`.
///
/// Xor, multiply by an odd constant and rotate are each a bijection of `h`,
/// so two streams that differ in a single word can never collide. The
/// multiply only carries differences upwards — a flipped bit 63 would stay
/// a flipped bit 63 through every later step, and a second such flip would
/// cancel it — so the rotate moves the best-mixed high bits to the bottom,
/// where the next multiply spreads them over the whole word.
#[inline(always)]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FOLD_MUL).rotate_left(FOLD_ROT)
}

/// Cloneable handle to a (possibly absent) trace recorder.
///
/// All clones share one stream; `TraceSink::disabled()` (and `Default`) is
/// the dark handle whose `emit` compiles to a null check.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<TraceCore>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink(disabled)"),
            Some(_) => write!(
                f,
                "TraceSink(events={}, digest={:#018x})",
                self.count(),
                self.digest()
            ),
        }
    }
}

impl TraceSink {
    /// The dark handle: nothing is recorded, `emit` is a branch on `None`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A lit sink: every event is folded into the digest, counted and
    /// handed to the attached observers.
    pub fn recording() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(TraceCore {
                digest: DIGEST_SEED,
                count: 0,
                observers: Rc::new([]),
                next_req: 1,
                current_req: None,
            }))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. No-op (one branch) when disabled.
    // Forced into the caller so a dark sink costs the `None` test alone:
    // building `ev` and the call both sink into the lit branch.
    #[inline(always)]
    pub fn emit(&self, t: Ns, ev: TraceEvent) {
        if let Some(core) = &self.inner {
            Self::emit_lit(core, t, ev);
        }
    }

    #[inline(never)]
    fn emit_lit(core: &RefCell<TraceCore>, t: Ns, ev: TraceEvent) {
        let mut c = core.borrow_mut();
        c.push(t, ev);
        if c.observers.is_empty() {
            return;
        }
        // Observers run outside the borrow so they may re-enter the sink
        // (read the digest, attach another observer — which replaces the
        // snapshot and so is seen from the next event on).
        let (observers, req) = (Rc::clone(&c.observers), c.current_req);
        drop(c);
        for obs in observers.iter() {
            obs.borrow_mut().on_event_req(t, &ev, req);
        }
    }

    /// Allocates a fresh request id, installs it as current, and returns the
    /// *previous* register value so the caller can restore it when the
    /// request's origin scope ends. Disabled sinks hand out nothing.
    #[inline]
    pub fn begin_request(&self) -> Option<ReqId> {
        let Some(core) = &self.inner else { return None };
        let mut c = core.borrow_mut();
        let id = c.next_req;
        c.next_req += 1;
        c.current_req.replace(id)
    }

    /// Installs `req` as the current request, returning the previous value.
    /// Use `set_request(None)` at dispatch boundaries so deferred calendar
    /// work never inherits the interrupted request's identity.
    #[inline]
    pub fn set_request(&self, req: Option<ReqId>) -> Option<ReqId> {
        let Some(core) = &self.inner else { return None };
        let mut c = core.borrow_mut();
        std::mem::replace(&mut c.current_req, req)
    }

    /// The request currently on the register, if any.
    #[inline]
    pub fn current_request(&self) -> Option<ReqId> {
        self.inner.as_ref().and_then(|c| c.borrow().current_req)
    }

    /// Attaches an observer that sees every subsequent event.
    pub fn attach(&self, obs: Rc<RefCell<dyn TraceObserver>>) {
        if let Some(core) = &self.inner {
            let mut c = core.borrow_mut();
            c.observers = c.observers.iter().cloned().chain([obs]).collect();
        }
    }

    /// The order-sensitive digest over every event emitted so far.
    /// Disabled sinks report 0.
    pub fn digest(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.borrow().digest)
    }

    /// Total events emitted.
    pub fn count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.borrow().count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let s = TraceSink::disabled();
        s.emit(5, TraceEvent::FrameAlloc { frame: 1 });
        assert!(!s.is_enabled());
        assert_eq!(s.digest(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = TraceSink::recording();
        a.emit(1, TraceEvent::FrameAlloc { frame: 1 });
        a.emit(2, TraceEvent::FrameFree { frame: 1 });
        let b = TraceSink::recording();
        b.emit(2, TraceEvent::FrameFree { frame: 1 });
        b.emit(1, TraceEvent::FrameAlloc { frame: 1 });
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn identical_streams_agree() {
        let mk = || {
            let s = TraceSink::recording();
            for i in 0..100u64 {
                s.emit(
                    i,
                    TraceEvent::PteTransition {
                        vpn: i,
                        from: PteClass::Remote,
                        to: PteClass::Fetching,
                    },
                );
            }
            s.digest()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn clones_share_the_stream() {
        let s = TraceSink::recording();
        let s2 = s.clone();
        s.emit(1, TraceEvent::FrameAlloc { frame: 7 });
        s2.emit(2, TraceEvent::FrameFree { frame: 7 });
        assert_eq!(s.count(), 2);
        assert_eq!(s.digest(), s2.digest());
    }

    #[test]
    fn request_register_rides_side_band_and_never_digests() {
        struct Tags {
            seen: Vec<(Ns, Option<ReqId>)>,
        }
        impl TraceObserver for Tags {
            fn on_event(&mut self, _t: Ns, _ev: &TraceEvent) {}
            fn on_event_req(&mut self, t: Ns, _ev: &TraceEvent, req: Option<ReqId>) {
                self.seen.push((t, req));
            }
        }
        let bare = TraceSink::recording();
        bare.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        bare.emit(2, TraceEvent::FrameFree { frame: 0 });

        let s = TraceSink::recording();
        let tags = Rc::new(RefCell::new(Tags { seen: Vec::new() }));
        s.attach(tags.clone());
        let prev = s.begin_request();
        assert_eq!(prev, None);
        assert_eq!(s.current_request(), Some(1));
        s.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        let outer = s.set_request(None);
        s.emit(2, TraceEvent::FrameFree { frame: 0 });
        s.set_request(outer);
        assert_eq!(
            tags.borrow().seen,
            vec![(1, Some(1)), (2, None)],
            "ids ride the side band"
        );
        // Identical event stream, with and without request ids: same digest.
        assert_eq!(s.digest(), bare.digest(), "request ids must not digest");
    }

    #[test]
    fn disabled_sink_hands_out_no_requests() {
        let s = TraceSink::disabled();
        assert_eq!(s.begin_request(), None);
        assert_eq!(s.current_request(), None);
        assert_eq!(s.set_request(Some(9)), None);
        assert_eq!(s.current_request(), None);
    }

    #[test]
    fn observers_see_events_in_order() {
        struct Counter {
            seen: Vec<Ns>,
        }
        impl TraceObserver for Counter {
            fn on_event(&mut self, t: Ns, _ev: &TraceEvent) {
                self.seen.push(t);
            }
        }
        let s = TraceSink::recording();
        let c = Rc::new(RefCell::new(Counter { seen: Vec::new() }));
        s.attach(c.clone());
        s.emit(3, TraceEvent::FrameAlloc { frame: 0 });
        s.emit(9, TraceEvent::FrameFree { frame: 0 });
        assert_eq!(c.borrow().seen, vec![3, 9]);
    }

    #[test]
    fn observers_run_outside_the_borrow_and_see_the_folded_event() {
        struct Reads {
            sink: TraceSink,
            seen: Vec<(u64, u64)>,
        }
        impl TraceObserver for Reads {
            fn on_event(&mut self, _t: Ns, _ev: &TraceEvent) {
                self.seen.push((self.sink.count(), self.sink.digest()));
            }
        }
        let s = TraceSink::recording();
        let r = Rc::new(RefCell::new(Reads {
            sink: s.clone(),
            seen: Vec::new(),
        }));
        s.attach(r.clone());
        s.emit(1, TraceEvent::FrameAlloc { frame: 3 });
        let after_first = s.digest();
        s.emit(2, TraceEvent::FrameFree { frame: 3 });
        assert_eq!(
            r.borrow().seen,
            vec![(1, after_first), (2, s.digest())],
            "an observer reads the sink after its event was folded"
        );
    }

    #[test]
    fn attach_during_an_emission_takes_effect_from_the_next_event() {
        struct Late {
            seen: Vec<Ns>,
        }
        impl TraceObserver for Late {
            fn on_event(&mut self, t: Ns, _ev: &TraceEvent) {
                self.seen.push(t);
            }
        }
        struct Attacher {
            sink: TraceSink,
            late: Rc<RefCell<Late>>,
            armed: bool,
        }
        impl TraceObserver for Attacher {
            fn on_event(&mut self, _t: Ns, _ev: &TraceEvent) {
                if !std::mem::replace(&mut self.armed, true) {
                    self.sink.attach(self.late.clone());
                }
            }
        }
        let s = TraceSink::recording();
        let late = Rc::new(RefCell::new(Late { seen: Vec::new() }));
        s.attach(Rc::new(RefCell::new(Attacher {
            sink: s.clone(),
            late: late.clone(),
            armed: false,
        })));
        s.emit(5, TraceEvent::FrameAlloc { frame: 0 });
        assert!(
            late.borrow().seen.is_empty(),
            "the emission that attached it keeps its own snapshot"
        );
        s.emit(6, TraceEvent::FrameFree { frame: 0 });
        s.emit(7, TraceEvent::FrameAlloc { frame: 0 });
        assert_eq!(late.borrow().seen, vec![6, 7]);
    }

    // --- the digest encoding ---

    const KINDS: [FaultKind; 3] = [FaultKind::Major, FaultKind::Minor, FaultKind::ZeroFill];
    const PHASES: [FaultPhase; 6] = [
        FaultPhase::Exception,
        FaultPhase::Check,
        FaultPhase::Alloc,
        FaultPhase::Fetch,
        FaultPhase::Map,
        FaultPhase::Reclaim,
    ];
    const PTES: [PteClass; 5] = [
        PteClass::None,
        PteClass::Local,
        PteClass::Remote,
        PteClass::Fetching,
        PteClass::Action,
    ];
    const VARIANTS: u8 = 24;

    /// Raw value → one of `all`; `u64::MAX` picks the last so an all-ones
    /// raw vector builds every field at its maximum.
    fn pick<T: Copy>(all: &[T], raw: u64) -> T {
        let n = all.len() as u64;
        all[if raw == u64::MAX { n - 1 } else { raw % n } as usize]
    }

    /// Builds variant `tag` from raw values, one per field in declaration
    /// order, each truncated to its field's width. Also returns how many
    /// fields the variant has.
    #[rustfmt::skip]
    fn build(tag: u8, f: [u64; 5]) -> (TraceEvent, usize) {
        use TraceEvent::*;
        let bit = |v: u64| v & 1 == 1;
        let class = |v: u64| pick(&ServiceClass::ALL, v);
        match tag {
            1 => (FaultBegin { core: f[0] as u8, vpn: f[1], kind: pick(&KINDS, f[2]) }, 3),
            2 => (FaultPhase { core: f[0] as u8, phase: pick(&PHASES, f[1]), dur: f[2] }, 3),
            3 => (FaultEnd { core: f[0] as u8, vpn: f[1] }, 2),
            4 => (RdmaIssue { class: class(f[0]), write: bit(f[1]), node: f[2] as u8, core: f[3] as u8, bytes: f[4] as u32 }, 5),
            5 => (RdmaComplete { class: class(f[0]), write: bit(f[1]), node: f[2] as u8, core: f[3] as u8, done: f[4] }, 5),
            6 => (LinkTransfer { class: class(f[0]), bytes: f[1] as u32, inbound: bit(f[2]), done: f[3] }, 4),
            7 => (MemAccess { write: bit(f[0]), offset: f[1], len: f[2] as u32 }, 3),
            8 => (PrefetchIssue { vpn: f[0] }, 1),
            9 => (PrefetchLand { vpn: f[0] }, 1),
            10 => (PrefetchCancel { vpn: f[0] }, 1),
            11 => (FrameAlloc { frame: f[0] as u32 }, 1),
            12 => (FrameFree { frame: f[0] as u32 }, 1),
            13 => (PteTransition { vpn: f[0], from: pick(&PTES, f[1]), to: pick(&PTES, f[2]) }, 3),
            14 => (LruInsert { vpn: f[0] }, 1),
            15 => (LruRemove { vpn: f[0] }, 1),
            16 => (ReclaimBegin { free: f[0] as u32 }, 1),
            17 => (ReclaimEnd { freed: f[0] as u32 }, 1),
            18 => (Evict { vpn: f[0], dirty: bit(f[1]) }, 2),
            19 => (GuideInvoke { vpn: f[0], fetch: bit(f[1]) }, 2),
            20 => (Checkpoint { node: f[0] as u8, upto: f[1] }, 2),
            21 => (IntentAppend { node: f[0] as u8, seq: f[1] }, 2),
            22 => (NodeCrash { node: f[0] as u8 }, 1),
            23 => (RecoveryReplay { node: f[0] as u8, seq: f[1] }, 2),
            24 => (RecoveryComplete { node: f[0] as u8, replayed: f[1], reconciled: f[2] }, 3),
            _ => unreachable!("no variant {tag}"),
        }
    }

    fn words_of(ev: &TraceEvent) -> Vec<u64> {
        let mut out = Vec::new();
        ev.encode(|w| out.push(w));
        out
    }

    /// The inverse of `TraceEvent::encode`, written against the documented
    /// bit layout rather than the `at` offsets. Panics on a bit set outside
    /// the variant's own fields, or on a wrong word count.
    fn decode(words: &[u64]) -> TraceEvent {
        use TraceEvent::*;
        const C: u64 = 0xFF << 8;
        const N: u64 = 0xFF << 16;
        const K: u64 = 0xF << 24;
        const F: u64 = 1 << 28;
        const T: u64 = 0x7 << 29;
        const L: u64 = 0xFFFF_FFFF << 32;
        let w = words[0];
        let (core, node, len) = ((w >> 8) as u8, (w >> 16) as u8, (w >> 32) as u32);
        let (code, to) = ((w >> 24 & 0xF) as usize, (w >> 29 & 0x7) as usize);
        let flag = w >> 28 & 1 == 1;
        let class = || ServiceClass::ALL[code];
        let a = |i: usize| words[i];
        #[rustfmt::skip]
        let (ev, fields, arity) = match w as u8 {
            1 => (FaultBegin { core, vpn: a(1), kind: KINDS[code] }, C | K, 2),
            2 => (FaultPhase { core, phase: PHASES[code], dur: a(1) }, C | K, 2),
            3 => (FaultEnd { core, vpn: a(1) }, C, 2),
            4 => (RdmaIssue { class: class(), write: flag, node, core, bytes: len }, C | N | K | F | L, 1),
            5 => (RdmaComplete { class: class(), write: flag, node, core, done: a(1) }, C | N | K | F, 2),
            6 => (LinkTransfer { class: class(), bytes: len, inbound: flag, done: a(1) }, K | F | L, 2),
            7 => (MemAccess { write: flag, offset: a(1), len }, F | L, 2),
            8 => (PrefetchIssue { vpn: a(1) }, 0, 2),
            9 => (PrefetchLand { vpn: a(1) }, 0, 2),
            10 => (PrefetchCancel { vpn: a(1) }, 0, 2),
            11 => (FrameAlloc { frame: len }, L, 1),
            12 => (FrameFree { frame: len }, L, 1),
            13 => (PteTransition { vpn: a(1), from: PTES[code], to: PTES[to] }, K | T, 2),
            14 => (LruInsert { vpn: a(1) }, 0, 2),
            15 => (LruRemove { vpn: a(1) }, 0, 2),
            16 => (ReclaimBegin { free: len }, L, 1),
            17 => (ReclaimEnd { freed: len }, L, 1),
            18 => (Evict { vpn: a(1), dirty: flag }, F, 2),
            19 => (GuideInvoke { vpn: a(1), fetch: flag }, F, 2),
            20 => (Checkpoint { node, upto: a(1) }, N, 2),
            21 => (IntentAppend { node, seq: a(1) }, N, 2),
            22 => (NodeCrash { node }, N, 1),
            23 => (RecoveryReplay { node, seq: a(1) }, N, 2),
            24 => (RecoveryComplete { node, replayed: a(1), reconciled: a(2) }, N, 3),
            tag => panic!("unknown tag {tag} in head word {w:#x}"),
        };
        assert_eq!(w & !(0xFF | fields), 0, "{ev:?}: bits outside its fields");
        assert_eq!(words.len(), arity, "{ev:?}: word count");
        ev
    }

    /// Raw field vectors for the sweeps: full-width values and small ones
    /// (the common trace shape), from a fixed seed.
    fn raw_fields(rng: &mut crate::rng::SplitMix64) -> [u64; 5] {
        std::array::from_fn(|_| {
            let v = rng.next_u64();
            if rng.next_u64() & 1 == 0 {
                v
            } else {
                v & 0xFFFF
            }
        })
    }

    fn digest_of(stream: &[(Ns, TraceEvent)]) -> u64 {
        let s = TraceSink::recording();
        for &(t, ev) in stream {
            s.emit(t, ev);
        }
        s.digest()
    }

    #[test]
    fn encoding_round_trips_at_boundaries_and_at_random() {
        // Every {0, max} combination of every variant's fields: one field
        // at its maximum beside a neighbour at zero is what catches two
        // fields sharing a bit.
        for tag in 1..=VARIANTS {
            let (_, n) = build(tag, [0; 5]);
            for mask in 0..1u32 << n {
                let f = std::array::from_fn(|i| if mask >> i & 1 == 1 { u64::MAX } else { 0 });
                let (ev, _) = build(tag, f);
                let words = words_of(&ev);
                assert!((1..=3).contains(&words.len()), "{ev:?}");
                assert_eq!(decode(&words), ev);
            }
        }
        let (all_max, _) = build(4, [u64::MAX; 5]);
        assert_eq!(
            all_max,
            TraceEvent::RdmaIssue {
                class: ServiceClass::App,
                write: true,
                node: u8::MAX,
                core: u8::MAX,
                bytes: u32::MAX,
            },
            "the boundary sweep reaches the field maxima"
        );
        let mut rng = crate::rng::SplitMix64::new(0x7ACE);
        for _ in 0..50_000 {
            let tag = 1 + rng.gen_range(VARIANTS as u64) as u8;
            let (ev, _) = build(tag, raw_fields(&mut rng));
            assert_eq!(decode(&words_of(&ev)), ev);
        }
    }

    #[test]
    fn every_field_and_the_timestamp_reach_the_digest() {
        let mut rng = crate::rng::SplitMix64::new(0xF1E1D);
        for tag in 1..=VARIANTS {
            for _ in 0..64 {
                let f = raw_fields(&mut rng);
                let t = rng.next_u64();
                let (ev, n) = build(tag, f);
                let base = digest_of(&[(t, ev)]);
                assert_ne!(base, digest_of(&[(t ^ 1, ev)]), "{ev:?}: t");
                assert_ne!(base, digest_of(&[(t ^ (1 << 63), ev)]), "{ev:?}: t");
                for i in 0..n {
                    let mut g = f;
                    g[i] ^= 1;
                    let (changed, _) = build(tag, g);
                    assert_ne!(changed, ev, "field {i} of variant {tag} did not change");
                    assert_ne!(base, digest_of(&[(t, changed)]), "{ev:?} vs {changed:?}");
                }
            }
        }
    }

    #[test]
    fn two_bit_63_flips_do_not_cancel() {
        const TOP: u64 = 1 << 63;
        let stream = |a: u64, b: u64| {
            [
                (10, TraceEvent::PrefetchIssue { vpn: 7 ^ a }),
                (20, TraceEvent::LruInsert { vpn: 7 }),
                (30, TraceEvent::PrefetchLand { vpn: 7 ^ b }),
                (40, TraceEvent::LruRemove { vpn: 7 }),
            ]
        };
        let (plain, flipped) = (stream(0, 0), stream(TOP, TOP));
        assert_ne!(digest_of(&plain), digest_of(&flipped));
        assert_ne!(digest_of(&plain), digest_of(&stream(TOP, 0)));

        // Why `fold` rotates: under a bare xor-multiply step a flipped bit 63
        // stays exactly a flipped bit 63 of the state (2^63 · odd = 2^63),
        // so the second flip undoes the first and the two streams collide.
        let bare = |stream: &[(Ns, TraceEvent)]| {
            let mut h = DIGEST_SEED;
            for (t, ev) in stream {
                h = (h ^ t).wrapping_mul(FOLD_MUL);
                ev.encode(|w| h = (h ^ w).wrapping_mul(FOLD_MUL));
            }
            h
        };
        assert_eq!(bare(&plain), bare(&flipped));
    }

    #[test]
    fn reordering_equal_time_events_changes_the_digest() {
        let mut rng = crate::rng::SplitMix64::new(0x0DE2);
        let mut stream: Vec<(Ns, TraceEvent)> = (1..=VARIANTS)
            .map(|tag| (99, build(tag, raw_fields(&mut rng)).0))
            .collect();
        let forward = digest_of(&stream);
        stream.swap(3, 17);
        assert_ne!(forward, digest_of(&stream), "two events swapped");
        stream.swap(3, 17);
        stream.rotate_left(1);
        assert_ne!(forward, digest_of(&stream), "stream rotated by one");
        stream.rotate_right(1);
        assert_eq!(forward, digest_of(&stream), "and restored");
    }
}
