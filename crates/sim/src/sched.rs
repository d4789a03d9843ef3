//! The discrete-event calendar: background work at true virtual times.
//!
//! Components *schedule* typed [`SchedEvent`]s on the [`Calendar`] at their
//! true completion times and the owning node has everything due
//! *delivered* before each access, through one loop
//! ([`Calendar::deliver_due`]) — so prefetch landings, incremental reclaim
//! ticks, cleaner writebacks, RDMA completions, and node repairs all
//! interleave with foreground faults on one shared virtual timeline.
//!
//! Determinism is part of the contract: the heap is keyed on `(Ns, seq)`
//! where `seq` is a monotone insertion counter, so two events due at the
//! same instant always pop in the order they were scheduled — no hash-map
//! iteration or allocator-address dependence can leak into the event order.
//!
//! Storage is a slot+generation arena: each scheduled event owns a slot
//! holding its payload, the heap carries only `(at, seq, slot)` triples,
//! and an [`EventId`] is a typed `(slot, generation)` handle. Cancellation
//! is an O(1) tombstone on the slot (the heap entry is dropped lazily when
//! it surfaces), and the generation counter makes a stale handle — one
//! whose slot has since been delivered and reused — inert instead of
//! cancelling an unrelated event (the ABA guard).
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
use std::collections::BinaryHeap;
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
    /// A failed memory node comes back and must be resynced.
    NodeRepair { node: usize },
}

/// One heap entry. Ordered by `(at, seq)` — earliest first, insertion
/// order breaking ties. The payload lives in the slot arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Ns,
    seq: u64,
    slot: u32,
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
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One arena cell: the event payload plus the liveness/reuse bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped every time the slot is released; stale `EventId`s stop
    /// matching (the ABA rule).
    gen: u32,
    /// False once cancelled (tombstone) — the heap entry is dropped when it
    /// surfaces.
    live: bool,
    ev: SchedEvent,
}

#[derive(Debug, Default)]
struct CalendarCore {
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
    /// Drops tombstoned entries off the top of the heap, releasing their
    /// slots.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.slots[top.slot as usize].live {
                break;
            }
            let e = self.heap.pop();
            if let Some(e) = e {
                self.release(e.slot);
            }
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

    /// Pops the top entry (assumed live after a `skim`), releasing its slot
    /// and returning the delivery.
    fn take_top(&mut self) -> Option<(Ns, SchedEvent)> {
        let e = self.heap.pop()?;
        let ev = self.slots[e.slot as usize].ev;
        self.release(e.slot);
        self.live -= 1;
        Some((e.at, ev))
    }

    /// The due time of the earliest entry still in the heap — possibly a
    /// tombstone, so this is a lower bound on the true next due time (the
    /// conservative direction for the `has_due` fast path).
    fn heap_min(&self) -> Ns {
        self.heap.peek().map_or(Ns::MAX, |e| e.at)
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
    /// may be early when the top of the heap is a tombstone). Kept outside
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
        c.heap.push(Entry { at, seq, slot });
        c.live += 1;
        if at < self.inner.next_at.get() {
            self.inner.next_at.set(at);
        }
        EventId { slot, gen }
    }

    /// Cancels a pending event in O(1): the slot is tombstoned and the heap
    /// entry dropped lazily when it reaches the top. Returns false if the
    /// event was already delivered or cancelled (a stale handle never
    /// matches — generations guard slot reuse).
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
        let due = c.heap.peek().map(|e| e.at);
        self.inner.next_at.set(due.unwrap_or(Ns::MAX));
        due
    }

    /// Pops the next event due at or before `now`, with its delivery time.
    fn pop_due(&self, now: Ns) -> Option<(Ns, SchedEvent)> {
        let mut c = self.inner.core.borrow_mut();
        c.skim();
        let popped = if c.heap.peek().is_some_and(|e| e.at <= now) {
            c.take_top()
        } else {
            None
        };
        self.inner.next_at.set(c.heap_min());
        popped
    }

    /// The one delivery loop: hands every event due at or before `bound`
    /// (`Ns::MAX` quiesces) to `handler`, one at a time in `(at, seq)`
    /// order. No borrow is held across the handler, which may schedule,
    /// cancel, or re-enter the loop.
    ///
    /// A handler that knows its successor (a reclaim tick chaining the
    /// next) returns it. The follow-up `(at, ev)` skips the heap and is
    /// delivered in place when `at <= bound && !has_due(at)` — exactly
    /// where schedule-then-pop would put it: `!has_due(at)` says no entry,
    /// live or tombstoned, is (1) strictly earlier or (2) at `at` itself,
    /// the only ones that sort ahead of the newest `seq`; and (3)
    /// `at <= bound`, so this loop would pop it next. One-at-a-time
    /// delivery keeps the rule local: a same-instant sibling is still in
    /// the heap, where `has_due` sees it, not parked in a batch buffer.
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
        if let Some(first) = c.heap.peek().filter(|e| e.at <= now).map(|e| e.at) {
            while c.heap.peek().is_some_and(|e| e.at == first) {
                if let Some(d) = c.take_top() {
                    out.push(d);
                    n += 1;
                }
                c.skim();
            }
        }
        self.inner.next_at.set(c.heap_min());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// What the delivery loop hands out up to `bound`, chaining nothing.
    fn delivered(c: &Calendar, bound: Ns) -> Vec<(Ns, SchedEvent)> {
        let mut out = Vec::new();
        c.deliver_due(bound, |t, ev| {
            out.push((t, ev));
            None
        });
        out
    }

    #[test]
    fn delivers_in_time_order() {
        let c = Calendar::new();
        c.schedule(300, SchedEvent::ReclaimTick);
        c.schedule(100, SchedEvent::CleanerWriteback { frame: 1 });
        c.schedule(200, SchedEvent::NodeRepair { node: 0 });
        assert_eq!(c.next_due(), Some(100));
        assert_eq!(
            delivered(&c, Ns::MAX),
            vec![
                (100, SchedEvent::CleanerWriteback { frame: 1 }),
                (200, SchedEvent::NodeRepair { node: 0 }),
                (300, SchedEvent::ReclaimTick),
            ]
        );
        assert!(c.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let c = Calendar::new();
        for token in 0..16u32 {
            c.schedule(50, SchedEvent::PrefetchLand { vpn: 0, token });
        }
        let want: Vec<_> = (0..16u32)
            .map(|token| (50, SchedEvent::PrefetchLand { vpn: 0, token }))
            .collect();
        assert_eq!(delivered(&c, 50), want, "ties pop in scheduling order");
    }

    #[test]
    fn delivery_respects_the_bound() {
        let c = Calendar::new();
        c.schedule(100, SchedEvent::ReclaimTick);
        c.schedule(200, SchedEvent::ReclaimTick);
        assert!(delivered(&c, 99).is_empty());
        assert_eq!(delivered(&c, 100), vec![(100, SchedEvent::ReclaimTick)]);
        assert!(delivered(&c, 150).is_empty());
        assert_eq!(delivered(&c, 250), vec![(200, SchedEvent::ReclaimTick)]);
        assert!(delivered(&c, Ns::MAX).is_empty());
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let c = Calendar::new();
        let a = c.schedule(10, SchedEvent::PrefetchLand { vpn: 1, token: 0 });
        let b = c.schedule(20, SchedEvent::PrefetchLand { vpn: 2, token: 1 });
        assert!(c.cancel(a));
        assert!(!c.cancel(a), "double cancel reports false");
        assert_eq!(c.len(), 1);
        assert_eq!(
            delivered(&c, Ns::MAX),
            vec![(20, SchedEvent::PrefetchLand { vpn: 2, token: 1 })]
        );
        assert!(!c.cancel(b), "cancel after delivery reports false");
    }

    #[test]
    fn stale_handle_never_cancels_a_reused_slot() {
        let c = Calendar::new();
        let a = c.schedule(10, SchedEvent::ReclaimTick);
        assert_eq!(delivered(&c, 10), vec![(10, SchedEvent::ReclaimTick)]);
        // The slot is recycled for an unrelated event; the old handle must
        // be inert against it.
        let b = c.schedule(20, SchedEvent::PrefetchLand { vpn: 9, token: 3 });
        assert!(!c.cancel(a), "stale handle must not cancel the new tenant");
        assert_eq!(c.len(), 1);
        assert!(c.cancel(b));
        assert!(delivered(&c, Ns::MAX).is_empty());
    }

    #[test]
    fn has_due_is_borrow_free_and_conservative() {
        // `has_due` answers against a finite horizon; `Ns::MAX` itself is
        // the "empty" sentinel, so probe just below it.
        let horizon = u64::MAX - 1;
        let c = Calendar::new();
        assert!(!c.has_due(horizon), "empty calendar has nothing due");
        let a = c.schedule(100, SchedEvent::ReclaimTick);
        assert!(!c.has_due(99));
        assert!(c.has_due(100));
        // After a cancel the cached bound may still answer "maybe" — the
        // delivery loop resolves it to nothing and tightens the bound.
        assert!(c.cancel(a));
        assert!(delivered(&c, 100).is_empty());
        assert!(!c.has_due(horizon));
    }

    #[test]
    fn drain_due_delivers_same_instant_groups_in_order() {
        let c = Calendar::new();
        c.schedule(50, SchedEvent::PrefetchLand { vpn: 1, token: 0 });
        c.schedule(50, SchedEvent::PrefetchLand { vpn: 2, token: 1 });
        c.schedule(60, SchedEvent::ReclaimTick);
        let mut out = Vec::new();
        assert_eq!(c.drain_due(49, &mut out), 0);
        assert_eq!(c.drain_due(100, &mut out), 2, "only the t=50 group");
        assert_eq!(
            out,
            vec![
                (50, SchedEvent::PrefetchLand { vpn: 1, token: 0 }),
                (50, SchedEvent::PrefetchLand { vpn: 2, token: 1 }),
            ]
        );
        out.clear();
        assert_eq!(c.drain_due(100, &mut out), 1);
        assert_eq!(out, vec![(60, SchedEvent::ReclaimTick)]);
        assert!(c.is_empty());
    }

    #[test]
    fn drain_due_skips_tombstones_inside_the_group() {
        let c = Calendar::new();
        c.schedule(10, SchedEvent::PrefetchLand { vpn: 1, token: 0 });
        let b = c.schedule(10, SchedEvent::PrefetchLand { vpn: 2, token: 1 });
        c.schedule(10, SchedEvent::PrefetchLand { vpn: 3, token: 2 });
        assert!(c.cancel(b));
        let mut out = Vec::new();
        assert_eq!(c.drain_due(10, &mut out), 2);
        assert_eq!(
            out,
            vec![
                (10, SchedEvent::PrefetchLand { vpn: 1, token: 0 }),
                (10, SchedEvent::PrefetchLand { vpn: 3, token: 2 }),
            ]
        );
    }

    #[test]
    fn clones_share_one_calendar() {
        let c = Calendar::new();
        let c2 = c.clone();
        c.schedule(5, SchedEvent::ReclaimTick);
        assert_eq!(c2.len(), 1);
        assert_eq!(delivered(&c2, 5), vec![(5, SchedEvent::ReclaimTick)]);
        assert!(c.is_empty());
    }

    #[test]
    fn a_handler_may_schedule_into_the_loop_that_runs_it() {
        let c = Calendar::new();
        c.schedule(10, SchedEvent::ReclaimTick);
        c.schedule(30, SchedEvent::ReclaimTick);
        let mut times = Vec::new();
        c.deliver_due(20, |t, _| {
            times.push(t);
            if t == 10 {
                c.schedule(15, SchedEvent::ReclaimTick);
            }
            None
        });
        assert_eq!((times, c.next_due()), (vec![10, 15], Some(30)));
    }

    /// The calendar's ledger, exactly: on a seeded mix of schedules,
    /// cancels (some through stale handles) and deliveries, every scheduled
    /// event is delivered once, cancelled once, or still pending.
    #[test]
    fn every_scheduled_event_is_delivered_cancelled_or_pending() {
        let mut rng = SplitMix64::new(0x5C4ED);
        let c = Calendar::new();
        let mut ids = Vec::new();
        let (mut scheduled, mut delivered_n, mut cancelled) = (0usize, 0usize, 0usize);
        let mut now = 0;
        for _ in 0..4_000 {
            match rng.gen_range(4) {
                0 | 1 => {
                    ids.push(c.schedule(now + rng.gen_range(500), SchedEvent::ReclaimTick));
                    scheduled += 1;
                }
                // Handles are never retired, so many of these are stale.
                2 if !ids.is_empty() => {
                    let id = ids[rng.gen_range(ids.len() as u64) as usize];
                    cancelled += usize::from(c.cancel(id));
                }
                _ => {
                    now += rng.gen_range(200);
                    delivered_n += delivered(&c, now).len();
                }
            }
            assert_eq!(scheduled, delivered_n + cancelled + c.len());
        }
        assert!(delivered_n > 0 && cancelled > 0 && !c.is_empty());
    }

    #[test]
    fn heavy_cancel_churn_reuses_slots_safely() {
        let c = Calendar::new();
        let mut ids = Vec::new();
        for round in 0..100u64 {
            for i in 0..16u64 {
                ids.push(c.schedule(round * 100 + i, SchedEvent::ReclaimTick));
            }
            // Cancel every other one, then deliver the round.
            for id in ids.drain(..).step_by(2) {
                assert!(c.cancel(id));
            }
            assert_eq!(delivered(&c, round * 100 + 99).len(), 8, "round {round}");
            assert!(c.is_empty());
        }
    }
}
