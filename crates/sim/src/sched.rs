//! The discrete-event calendar: background work at true virtual times.
//!
//! Components *schedule* typed [`SchedEvent`]s on the [`Calendar`] at their
//! true completion times and the owning node has everything due
//! *delivered* before each access, through one loop
//! ([`Calendar::deliver_due`]) — so prefetch landings, incremental reclaim
//! ticks, cleaner writebacks, RDMA completions, and planned faults all
//! interleave with foreground faults on one shared virtual timeline.
//!
//! Determinism is part of the contract: entries are ordered by `(Ns, seq)`
//! where `seq` is a monotone insertion counter, so two events due at the
//! same instant always pop in the order they were scheduled — no hash-map
//! iteration or allocator-address dependence can leak into the event order.
//!
//! Pending entries sit in two runs, each sorted by `(at, seq)`: a FIFO
//! *lane* that takes every schedule at or after its tail, and a binary heap
//! that takes the rest. `seq` only grows, so an append never breaks the
//! lane's order, and popping the smaller of the two fronts hands out
//! exactly what one heap holding everything would. Most schedules arrive in
//! time order (83 % land in the lane on `seq_fault`, 95 % on `kv_guided`);
//! each of those costs a push and a pop instead of two sifts.
//!
//! Storage is a slot+generation arena: each scheduled event owns a slot
//! holding its payload, the runs carry only `(at, seq, slot)` triples, and
//! an [`EventId`] is a typed `(slot, generation)` handle. Cancellation is
//! an O(1) tombstone on the slot (the entry is dropped lazily when it
//! reaches the front of its run), and the generation counter makes a stale
//! handle — one whose slot has since been delivered and reused — inert
//! instead of cancelling an unrelated event (the ABA guard).
//!
//! Like [`TraceSink`](crate::trace::TraceSink), a `Calendar` is a cheap
//! cloneable handle over shared state: the paging node, its RDMA endpoint,
//! and any background daemon all hold clones of the same calendar. The
//! earliest pending due time is mirrored into a `Cell` outside the
//! `RefCell`, so the hot "anything due yet?" probe on the access path
//! ([`Calendar::has_due`]) is a single load with no borrow traffic.
//!
//! The calendar carries no telemetry handle and keeps no tallies beyond
//! [`Calendar::len`]; its ledger — every scheduled event is delivered once,
//! cancelled once, or still pending — is pinned by a seeded unit test.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use crate::fabric::ServiceClass;
use crate::time::Ns;

/// Identifies a scheduled event so it can be cancelled before delivery.
///
/// A typed arena handle: `slot` names the event's arena cell and `gen` is
/// the cell's generation at scheduling time. A handle outliving its event
/// (delivered, cancelled, or the slot since reused) simply stops matching —
/// it can never cancel somebody else's event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A typed background occurrence scheduled for a future virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// An in-flight fetch for `vpn` arrives; `token` names the in-flight
    /// table slot it was issued from so a stale landing (slot reused after
    /// the original fetch was consumed or abandoned) can be recognized.
    PrefetchLand { vpn: u64, token: u32 },
    /// One step of the background reclaimer: scan and evict (at most) one
    /// victim, then reschedule if the pool is still below the high
    /// watermark.
    ReclaimTick,
    /// The cleaner finished writing back the page that occupied `frame`;
    /// the frame returns to the free list now.
    CleanerWriteback { frame: u32 },
    /// An RDMA verb completed on the wire (mirrors
    /// [`TraceEvent::RdmaComplete`](crate::trace::TraceEvent::RdmaComplete),
    /// which is emitted at delivery time).
    RdmaCompletion {
        class: ServiceClass,
        write: bool,
        node: u8,
        core: u8,
    },
    /// A fault planned for this instant is due: the endpoint applies the
    /// earliest one (see [`FaultPlan`](crate::recover::FaultPlan)).
    FaultDue,
}

/// One lane or heap entry. Ordered by `(at, seq)` — earliest first,
/// insertion order breaking ties. The payload lives in the slot arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Ns,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (Ns, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry
        // (smallest `(at, seq)`) on top.
        other.key().cmp(&self.key())
    }
}

/// One arena cell: the event payload plus the liveness/reuse bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped every time the slot is released; stale `EventId`s stop
    /// matching (the ABA rule).
    gen: u32,
    /// False once cancelled (tombstone) — the entry is dropped when it
    /// reaches the front of its run.
    live: bool,
    ev: SchedEvent,
}

#[derive(Debug, Default)]
struct CalendarCore {
    /// Entries scheduled at or after the lane's tail, in `(at, seq)` order.
    lane: VecDeque<Entry>,
    /// Everything else: the out-of-order schedules.
    heap: BinaryHeap<Entry>,
    /// The slot arena; `free` holds released indices for LIFO reuse
    /// (deterministic — reuse order depends only on the event history).
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live (non-tombstoned) entries, i.e. what `len()` reports.
    live: usize,
    next_seq: u64,
}

impl CalendarCore {
    /// Files an entry in the lane when it sorts after the lane's tail, in
    /// the heap otherwise.
    fn push(&mut self, e: Entry) {
        if self.lane.back().is_none_or(|b| e.at >= b.at) {
            self.lane.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// The earliest entry of the two runs (a tombstone unless `skim` just
    /// ran), and whether it heads the lane.
    fn first(&self) -> Option<(Entry, bool)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) if h.key() < l.key() => Some((*h, false)),
            (Some(l), _) => Some((*l, true)),
            (None, h) => h.map(|h| (*h, false)),
        }
    }

    /// Drops tombstoned entries off the front of both runs, releasing their
    /// slots.
    fn skim(&mut self) {
        while let Some(&e) = self.lane.front() {
            if self.slots[e.slot as usize].live {
                break;
            }
            self.lane.pop_front();
            self.release(e.slot);
        }
        while let Some(&e) = self.heap.peek() {
            if self.slots[e.slot as usize].live {
                break;
            }
            self.heap.pop();
            self.release(e.slot);
        }
    }

    /// Returns `slot` to the free list, bumping its generation so any
    /// outstanding handle to the old occupant goes stale.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.live = false;
        self.free.push(slot);
    }

    /// Pops the earliest entry if it is due at or before `now` (assumed
    /// live after a `skim`), releasing its slot and returning the delivery.
    fn take_due(&mut self, now: Ns) -> Option<(Ns, SchedEvent)> {
        let (e, in_lane) = self.first().filter(|(e, _)| e.at <= now)?;
        if in_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
        let ev = self.slots[e.slot as usize].ev;
        self.release(e.slot);
        self.live -= 1;
        Some((e.at, ev))
    }

    /// The due time of the earliest entry still held — possibly a
    /// tombstone, so this is a lower bound on the true next due time (the
    /// conservative direction for the `has_due` fast path).
    fn min_at(&self) -> Ns {
        self.first().map_or(Ns::MAX, |(e, _)| e.at)
    }
}

/// A cloneable handle to a shared deterministic event calendar.
#[derive(Clone)]
pub struct Calendar {
    inner: Rc<CalendarShared>,
}

#[derive(Default)]
struct CalendarShared {
    core: RefCell<CalendarCore>,
    /// Lower bound on the earliest pending due time (`Ns::MAX` when empty;
    /// may be early when the front of a run is a tombstone). Kept outside
    /// the `RefCell` so [`Calendar::has_due`] is a single load.
    next_at: Cell<Ns>,
}

impl Default for Calendar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Calendar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Calendar(pending={})", self.len())
    }
}

impl Calendar {
    /// An empty calendar.
    pub fn new() -> Self {
        let c = Self {
            inner: Rc::new(CalendarShared::default()),
        };
        c.inner.next_at.set(Ns::MAX);
        c
    }

    /// Schedules `ev` for delivery at virtual time `at`.
    ///
    /// Events due at the same instant are delivered in scheduling order.
    pub fn schedule(&self, at: Ns, ev: SchedEvent) -> EventId {
        let mut c = self.inner.core.borrow_mut();
        let seq = c.next_seq;
        c.next_seq += 1;
        let slot = match c.free.pop() {
            Some(i) => {
                let s = &mut c.slots[i as usize];
                s.live = true;
                s.ev = ev;
                i
            }
            None => {
                let i = c.slots.len() as u32;
                c.slots.push(Slot {
                    gen: 0,
                    live: true,
                    ev,
                });
                i
            }
        };
        let gen = c.slots[slot as usize].gen;
        c.push(Entry { at, seq, slot });
        c.live += 1;
        if at < self.inner.next_at.get() {
            self.inner.next_at.set(at);
        }
        EventId { slot, gen }
    }

    /// Cancels a pending event in O(1): the slot is tombstoned and its
    /// entry dropped lazily when it reaches the front of its run. Returns
    /// false if the event was already delivered or cancelled (a stale handle
    /// never matches — generations guard slot reuse).
    pub fn cancel(&self, id: EventId) -> bool {
        let mut c = self.inner.core.borrow_mut();
        match c.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.live => {
                s.live = false;
                c.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether any entry *might* be due at or before `now` — a single load,
    /// no borrow. False is exact ("nothing is due"); true may be a
    /// tombstone about to be skimmed, which the subsequent
    /// [`Calendar::deliver_due`] or [`Calendar::drain_due`] resolves.
    #[inline]
    pub fn has_due(&self, now: Ns) -> bool {
        self.inner.next_at.get() <= now
    }

    /// The delivery time of the next pending event, if any.
    pub fn next_due(&self) -> Option<Ns> {
        let mut c = self.inner.core.borrow_mut();
        c.skim();
        let due = c.first().map(|(e, _)| e.at);
        self.inner.next_at.set(due.unwrap_or(Ns::MAX));
        due
    }

    /// Pops the next event due at or before `now`, with its delivery time.
    fn pop_due(&self, now: Ns) -> Option<(Ns, SchedEvent)> {
        let mut c = self.inner.core.borrow_mut();
        c.skim();
        let popped = c.take_due(now);
        self.inner.next_at.set(c.min_at());
        popped
    }

    /// The one delivery loop: hands every event due at or before `bound`
    /// (`Ns::MAX` quiesces) to `handler`, one at a time in `(at, seq)`
    /// order. No borrow is held across the handler, which may schedule,
    /// cancel, or re-enter the loop.
    ///
    /// A handler that knows its successor (a reclaim tick chaining the
    /// next) returns it. The follow-up `(at, ev)` skips the calendar and is
    /// delivered in place when `at <= bound && !has_due(at)` — exactly
    /// where schedule-then-pop would put it: `!has_due(at)` says no entry,
    /// live or tombstoned, is (1) strictly earlier or (2) at `at` itself,
    /// the only ones that sort ahead of the newest `seq`; and (3)
    /// `at <= bound`, so this loop would pop it next. One-at-a-time
    /// delivery keeps the rule local: a same-instant sibling is still
    /// pending, where `has_due` sees it, not parked in a batch buffer.
    pub fn deliver_due(
        &self,
        bound: Ns,
        mut handler: impl FnMut(Ns, SchedEvent) -> Option<(Ns, SchedEvent)>,
    ) {
        while let Some((mut t, mut ev)) = self.pop_due(bound) {
            while let Some((at, next)) = handler(t, ev) {
                debug_assert!(at >= t, "follow-up at {at} precedes its cause at {t}");
                if at > bound || self.has_due(at) {
                    self.schedule(at, next);
                    break;
                }
                (t, ev) = (at, next);
            }
        }
    }

    /// Pops every event due at the *earliest* pending instant `t ≤ now`
    /// into `out`, returning how many were delivered (0 when nothing is
    /// due). Batch delivery lost to [`Calendar::deliver_due`] and no system
    /// calls this any more; it stays for `dilos_perf`'s calendar replay.
    pub fn drain_due(&self, now: Ns, out: &mut Vec<(Ns, SchedEvent)>) -> usize {
        let mut c = self.inner.core.borrow_mut();
        c.skim();
        let mut n = 0usize;
        let first = c.min_at();
        if first <= now {
            while let Some(d) = c.take_due(first) {
                out.push(d);
                n += 1;
                c.skim();
            }
        }
        self.inner.next_at.set(c.min_at());
        n
    }

    /// Pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.inner.core.borrow().live
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
