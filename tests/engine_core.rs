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

/// The calendar's ground truth: every pending entry in one `Vec` sorted by
/// `(at, seq)`, popped from the front.
#[derive(Default)]
struct SortedReference {
    pending: Vec<(Ns, u64, SchedEvent)>,
    next_seq: u64,
}

impl SortedReference {
    /// Files an event and returns its `seq` (also its payload's `vpn`, so
    /// every delivery is identifiable).
    fn schedule(&mut self, at: Ns) -> (u64, SchedEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = SchedEvent::PrefetchLand { vpn: seq, token: 0 };
        let i = self.pending.partition_point(|e| e.0 <= at);
        self.pending.insert(i, (at, seq, ev));
        (seq, ev)
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let i = self.pending.iter().position(|e| e.1 == seq);
        i.map(|i| self.pending.remove(i)).is_some()
    }

    fn pop(&mut self, bound: Ns) -> Option<(Ns, SchedEvent)> {
        let &(at, _, ev) = self.pending.first().filter(|e| e.0 <= bound)?;
        self.pending.remove(0);
        Some((at, ev))
    }

    fn next_due(&self) -> Option<Ns> {
        self.pending.first().map(|e| e.0)
    }
}

/// One side of the lane differential: the calendar, its reference, and
/// every handle ever minted (with the reference `seq` it stands for).
#[derive(Default)]
struct LaneRig {
    cal: Calendar,
    model: SortedReference,
    handles: Vec<(EventId, u64)>,
    /// Provable placements and cancels the script reached, by kind.
    hits: std::collections::BTreeMap<&'static str, u32>,
}

impl LaneRig {
    fn schedule(&mut self, at: Ns) -> usize {
        let (seq, ev) = self.model.schedule(at);
        self.handles.push((self.cal.schedule(at, ev), seq));
        self.handles.len() - 1
    }

    fn cancel(&mut self, h: usize, kind: &'static str) {
        let (id, seq) = self.handles[h];
        let live = self.model.cancel(seq);
        assert_eq!(self.cal.cancel(id), live, "cancel of handle {h} ({kind})");
        self.hit(if live { kind } else { "stale" });
    }

    fn hit(&mut self, kind: &'static str) {
        *self.hits.entry(kind).or_default() += 1;
    }

    /// Delivers up to `bound` in lockstep with the reference; every
    /// `spawn_every`-th of the first eight deliveries schedules a new event
    /// from inside the handler, `delay` after the instant in hand.
    fn deliver(&mut self, bound: Ns, spawn_every: usize, delay: Ns) {
        let cal = self.cal.clone();
        let mut n = 0;
        cal.deliver_due(bound, |t, ev| {
            assert_eq!(Some((t, ev)), self.model.pop(bound), "delivery order");
            n += 1;
            if n <= 8 && n % spawn_every == 0 {
                self.schedule(t + delay);
                self.hit("from a handler");
            }
            None
        });
        assert_eq!(self.model.pop(bound), None, "the loop stopped early");
    }

    fn drain(&mut self, now: Ns) {
        let mut got = Vec::new();
        let n = self.cal.drain_due(now, &mut got);
        let mut want: Vec<_> = self.model.pop(now).into_iter().collect();
        while let Some(d) = want.first().and_then(|&(t, _)| self.model.pop(t)) {
            want.push(d);
        }
        assert_eq!((n, got), (want.len(), want), "drain_due group");
    }

    fn check(&self) {
        assert_eq!(self.cal.len(), self.model.pending.len(), "len");
        assert_eq!(self.cal.next_due(), self.model.next_due(), "next_due");
    }
}

/// The lane + heap merge pops exactly what one sorted run would. The
/// script knows where each entry lands without looking inside: a schedule
/// at or after every time scheduled so far appends to the lane, one below
/// the time scheduled just before it goes to the heap, and a quiesced
/// calendar has both runs empty, so a round that starts quiesced knows the
/// lane's front and middle and the heap's top exactly. Each round is an
/// in-order run (ties included), then inserts below the run's tail (some
/// tying a lane entry), then cancels, then a delivery.
#[test]
fn calendar_lane_matches_a_sorted_reference() {
    let mut rig = LaneRig::default();
    let mut rng = SplitMix64::new(0x1A4E);
    let (mut now, mut hi, mut quiesced) = (0, 0, true);
    for _ in 0..3_000 {
        let base = hi.max(now) + rng.gen_range(4);
        let mut run = Vec::new();
        let mut at = base;
        for _ in 0..2 + rng.gen_range(5) {
            run.push((at, rig.schedule(at)));
            at += rng.gen_range(3);
        }
        rig.hit("lane");
        hi = at;
        let tail = run[run.len() - 1].0;
        let mut outs = Vec::new();
        if tail > now {
            for _ in 0..1 + rng.gen_range(2) {
                let below = if rng.gen_range(2) == 0 {
                    let j = rng.gen_range(run.len() as u64) as usize;
                    run[j].0.min(tail - 1)
                } else {
                    now + rng.gen_range(tail - now)
                };
                outs.push((below, rig.schedule(below)));
                rig.hit(if run.iter().any(|r| r.0 == below) {
                    "tie: lane older"
                } else {
                    "heap"
                });
            }
        }
        rig.check();
        if quiesced && !outs.is_empty() {
            match rng.gen_range(4) {
                0 => rig.cancel(run[0].1, "lane front"),
                1 => rig.cancel(run[run.len() / 2].1, "mid-lane"),
                2 => {
                    let top = *outs.iter().min().expect("an out-of-order insert");
                    rig.cancel(top.1, "heap top");
                }
                _ => {
                    // Empty the lane; a reschedule at the heap's top time
                    // then heads a fresh lane, tying a senior heap entry.
                    for &(_, h) in &run {
                        rig.cancel(h, "lane");
                    }
                    rig.check();
                    let (t, _) = *outs.iter().min().expect("an out-of-order insert");
                    rig.schedule(t);
                    rig.hit("tie: heap older");
                }
            }
            rig.check();
        }
        let stale = rng.gen_range(rig.handles.len() as u64) as usize;
        rig.cancel(stale, "any");
        rig.check();
        quiesced = false;
        match rng.gen_range(5) {
            0 => rig.drain(now + rng.gen_range(8)),
            1 => {
                // Unbounded, so it also delivers what its handler schedules.
                rig.deliver(Ns::MAX, 1 + rng.gen_range(3) as usize, rng.gen_range(10));
                quiesced = true;
            }
            _ => {
                now += rng.gen_range(8);
                rig.deliver(now, 1 + rng.gen_range(4) as usize, rng.gen_range(10));
            }
        }
        // Past anything a handler scheduled (at most eight hops of < 10).
        hi = hi.max(now) + 80;
        rig.check();
    }
    for kind in [
        "lane",
        "heap",
        "tie: lane older",
        "tie: heap older",
        "lane front",
        "mid-lane",
        "heap top",
        "stale",
        "from a handler",
    ] {
        assert!(
            rig.hits.get(kind).copied().unwrap_or(0) > 0,
            "the script never reached {kind:?}: {:?}",
            rig.hits
        );
    }
}

/// Heap layout moves host speed: a boot-time object 8 or 16 bytes smaller
/// has shifted every later heap chunk and cost `seq_fault` 10–50 %. So the
/// size of each is pinned, and a change that moves one re-pins it here on
/// purpose, beside its A/B on every workload.
#[cfg(target_pointer_width = "64")]
#[test]
fn boot_time_objects_keep_their_size() {
    use std::mem::size_of;
    assert_eq!(size_of::<dilos::core::Dilos>(), 1_128);
    assert_eq!(size_of::<dilos::sim::RdmaEndpoint>(), 368);
    assert_eq!(size_of::<dilos::baselines::Fastswap>(), 944);
    assert_eq!(size_of::<dilos::sim::SchedEvent>(), 16);
}
