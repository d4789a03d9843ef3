//! The event calendar's contract through its public API: time order,
//! insertion-order ties, the delivery bound, cancellation and stale
//! handles, the `has_due` probe, same-instant groups, shared handles,
//! re-entrant scheduling, the scheduled = delivered + cancelled + pending
//! ledger, and the 16-byte event size.

use dilos_sim::rng::SplitMix64;
use dilos_sim::sched::{Calendar, SchedEvent};
use dilos_sim::time::Ns;

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
    c.schedule(200, SchedEvent::FaultDue);
    assert_eq!(c.next_due(), Some(100));
    assert_eq!(
        delivered(&c, Ns::MAX),
        vec![
            (100, SchedEvent::CleanerWriteback { frame: 1 }),
            (200, SchedEvent::FaultDue),
            (300, SchedEvent::ReclaimTick),
        ]
    );
    assert!(c.is_empty());
}

/// The arena slot holds one payload per pending event: no variant may grow
/// it past two words.
#[test]
fn an_event_is_sixteen_bytes() {
    assert_eq!(size_of::<SchedEvent>(), 16);
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
