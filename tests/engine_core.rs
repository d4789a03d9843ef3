//! Engine-core determinism battery: the arena-backed calendar, flat page
//! store, and dense LRU must not leak allocation or iteration order into
//! anything `repro` writes to disk.
//!
//! `repro` persists `bench.json` (all experiments) and a standalone
//! `serve.json` for the CI determinism gate, both rendered via
//! [`Report::to_json`]. These tests boot the underlying experiments twice
//! from scratch — two independent arenas, two independent slot/generation
//! histories — and pin the rendered JSON byte-identical, the same
//! comparison CI's double-run `cmp` performs on the full artifacts.
//!
//! The calendar's delivery loop is held to the same standard from below: a
//! follow-up it delivers in place must land exactly where a round trip
//! through the heap would have put it.

use dilos::sim::{Calendar, EventId, Ns, Observability, SchedEvent, SplitMix64};
use dilos_bench::micro::{tab01_tab03_fault_counts, MicroScale};
use dilos_bench::serve::{serve_qos, ServeScale};

fn micro() -> MicroScale {
    MicroScale {
        pages: 256,
        ratio: 25,
    }
}

/// The tab01 table as `repro` boots it by default, rendered.
fn tab01(scale: MicroScale) -> String {
    tab01_tab03_fault_counts(scale, Observability::audited)
        .0
        .to_json()
}

fn serve() -> ServeScale {
    ServeScale {
        victim_requests: 60,
        victim_mean_ns: 50_000,
        noisy_requests: 30,
    }
}

#[test]
fn tab01_json_is_byte_identical_across_boots() {
    let a = tab01(micro());
    let b = tab01(micro());
    assert!(!a.is_empty());
    assert_eq!(a, b, "bench.json content must be byte-stable across boots");
}

#[test]
fn serve_json_is_byte_identical_across_boots() {
    let a = serve_qos(serve(), |obs| obs).0.to_json();
    let b = serve_qos(serve(), |obs| obs).0.to_json();
    assert!(!a.is_empty());
    assert_eq!(a, b, "serve.json must be byte-stable across boots");
}

#[test]
fn tab01_json_carries_digests_and_no_host_time() {
    let json = tab01(micro());
    assert!(
        json.contains("0x"),
        "tab01 notes should carry trace digests: {json}"
    );
    for leak in ["wall_clock", "elapsed", "ms/op"] {
        assert!(!json.contains(leak), "host-time leak {leak:?} in {json}");
    }
}

/// One side of the in-place differential: a calendar, the toy model
/// driving it, and which driver delivers.
struct Toy {
    cal: Calendar,
    /// True: the reference driver, which *always* schedules a follow-up and
    /// pops it back through the heap. Test-only — the library has one loop.
    always_schedule: bool,
    /// Bound of the innermost running delivery loop.
    bound: Ns,
    /// Handles of everything scheduled outside a follow-up return, in order
    /// (a follow-up delivered in place never gets one).
    ids: Vec<EventId>,
    minted: u64,
    follow_ups: u64,
    /// Follow-ups that met the in-place condition when they were returned.
    in_place: u64,
    log: Vec<(Ns, SchedEvent)>,
    cancels: Vec<bool>,
}

impl Toy {
    fn new(always_schedule: bool) -> Self {
        Self {
            cal: Calendar::new(),
            always_schedule,
            bound: 0,
            ids: Vec::new(),
            minted: 0,
            follow_ups: 0,
            in_place: 0,
            log: Vec::new(),
            cancels: Vec::new(),
        }
    }

    /// A fresh, identifiable event; `token` is its follow-up depth.
    fn mint(&mut self, token: u32) -> SchedEvent {
        self.minted += 1;
        SchedEvent::PrefetchLand {
            vpn: self.minted,
            token,
        }
    }

    fn schedule(&mut self, at: Ns) {
        let ev = self.mint(0);
        self.ids.push(self.cal.schedule(at, ev));
    }

    /// Cancels the `back`-th most recent handle (often already stale).
    fn cancel(&mut self, back: u64) {
        if let Some(&id) = self.ids.iter().rev().nth(back as usize) {
            self.cancels.push(self.cal.cancel(id));
        }
    }

    fn run(&mut self, bound: Ns) {
        let cal = self.cal.clone();
        let outer = std::mem::replace(&mut self.bound, bound);
        cal.deliver_due(bound, |t, ev| {
            let follow_up = self.handle(t, ev);
            if self.always_schedule {
                if let Some((at, next)) = follow_up {
                    cal.schedule(at, next);
                }
                return None;
            }
            follow_up
        });
        self.bound = outer;
    }

    /// The toy handler, a pure function of the delivery and the history
    /// before it: side effects first (a write-back completion soon after, a
    /// cancel, a nested drain), then maybe a follow-up at `t + δ` with
    /// δ = 0, a near miss that collides with pending entries, or a time
    /// past any bound in use.
    fn handle(&mut self, t: Ns, ev: SchedEvent) -> Option<(Ns, SchedEvent)> {
        self.log.push((t, ev));
        let SchedEvent::PrefetchLand { vpn, token } = ev else {
            return None;
        };
        let mut rng = SplitMix64::new(t ^ vpn << 20 ^ (self.log.len() as u64) << 40);
        if rng.gen_range(4) == 0 {
            self.schedule(t + rng.gen_range(6));
        }
        if rng.gen_range(5) == 0 {
            self.cancel(rng.gen_range(8));
        }
        if rng.gen_range(8) == 0 {
            self.run(t + rng.gen_range(3));
        }
        if token >= 12 {
            return None;
        }
        let at = t + match rng.gen_range(8) {
            0..=3 => return None,
            4 => 0,
            5 | 6 => rng.gen_range(5),
            _ => 20 + rng.gen_range(40),
        };
        self.follow_ups += 1;
        self.in_place += u64::from(at <= self.bound && !self.cal.has_due(at));
        Some((at, self.mint(token + 1)))
    }
}

/// The in-place rule is order-preserving: against a reference driver that
/// round-trips every follow-up through the heap, `deliver_due` hands out
/// the identical `(t, ev)` sequence, sees the identical cancel outcomes,
/// and leaves the identical pending set — with follow-ups landing on the
/// instant in hand, on pending entries, and past the bound, tombstones on
/// top of the heap, and nested drains.
#[test]
fn in_place_delivery_matches_always_scheduling() {
    for seed in 0..8u64 {
        let mut toys = [Toy::new(false), Toy::new(true)];
        let mut rng = SplitMix64::new(0x1ACE ^ seed);
        let mut now = 0;
        for _ in 0..400 {
            let mut script = Vec::new();
            for _ in 0..rng.gen_range(4) {
                script.push((now + rng.gen_range(30), rng.gen_range(3) == 0));
            }
            let cancel = (rng.gen_range(3) == 0).then(|| rng.gen_range(12));
            // Bounds repeat, creep and jump.
            now += [0, 1, 7, 25][rng.gen_range(4) as usize];
            for toy in &mut toys {
                for &(at, tombstone) in &script {
                    toy.schedule(at);
                    if tombstone {
                        toy.cancel(0);
                    }
                }
                if let Some(back) = cancel {
                    toy.cancel(back);
                }
                toy.run(now);
            }
            let [a, b] = &toys;
            assert_eq!(a.log, b.log, "seed {seed}: delivery order diverged");
            assert_eq!(a.cancels, b.cancels, "seed {seed}: cancel outcomes");
            assert_eq!(a.cal.len(), b.cal.len(), "seed {seed}: pending count");
            assert_eq!(a.cal.next_due(), b.cal.next_due(), "seed {seed}");
        }
        let [a, b] = &toys;
        assert_eq!(a.in_place, b.in_place, "seed {seed}");
        assert!(
            a.in_place > 0 && a.in_place < a.follow_ups,
            "seed {seed}: {} of {} follow-ups in place — the rule must both \
             fire and decline",
            a.in_place,
            a.follow_ups
        );
        let pending = |toy: &Toy| {
            let mut left = Vec::new();
            toy.cal.deliver_due(Ns::MAX, |t, ev| {
                left.push((t, ev));
                None
            });
            left
        };
        assert_eq!(pending(a), pending(b), "seed {seed}: pending sets differ");
    }
}

/// Lint R10 judges where a follow-up's time comes from; that it does not
/// precede the instant being delivered is the loop's own debug check.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "precedes its cause")]
fn a_follow_up_may_not_precede_its_cause() {
    let cal = Calendar::new();
    cal.schedule(100, SchedEvent::ReclaimTick);
    cal.deliver_due(100, |t, ev| Some((t - 1, ev)));
}
