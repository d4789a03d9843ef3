//! The host-time ledger behind `repro --only hostprof`: where a simulated
//! fault's *host* time goes, layer by layer, and what one resident word
//! access costs.
//!
//! [`HostLedger`] is a [`TraceObserver`]. In every period of
//! [`SAMPLE_EVERY`] `FaultBegin`s it arms on one fault, at a random phase;
//! while armed it reads the host clock at every event and charges the time
//! since the previous event to the layer of the later one ([`LAYERS`]),
//! until the matching `FaultEnd` disarms it. At another random phase of the
//! same period it times a second fault begin to end only: the check that
//! the per-event intervals add up to what a fault costs.
//!
//! The probe's clock cost is measured where the probe runs. Each probe
//! reads the clock twice back to back: the first read closes the interval,
//! and the gap between the two is one clock read's cost at that point of
//! the run. Its bookkeeping runs before a third read opens the next
//! interval, so no interval holds it. The median gap of the run is taken
//! out of every interval and every begin-to-end time: a mean would let one
//! preemption between two reads cancel a layer's real work. A clock read
//! timed in a hot loop ([`calibrate`]) is printed beside it, not used.
//!
//! A TLB hit emits no event, so the ledger cannot see hits. [`time_hits`]
//! times them directly instead: fig07a's quicksort on DiLOS at 25 % local,
//! once through the word accessors and once through a wrapper that
//! forwards only `read`/`write`.
//!
//! Host time is not byte-stable, so nothing here is a pinned artefact.
//! The ledger observes only: every digest is the same with it attached.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dilos_apps::farmem::{FarMemory, Introspect, SystemKind, SystemSpec};
use dilos_apps::quicksort::QuicksortWorkload;
use dilos_sim::{Ns, Observability, SplitMix64, TraceEvent, TraceObserver};

use crate::json::{JsonWriter, Layout};
use crate::micro::{tab01_tab03_fault_counts, MicroScale};
use crate::serve::{serve_qos, ServeScale};
use crate::table::Report;

/// One fault in this many is timed event by event.
pub const SAMPLE_EVERY: u64 = 1_024;

/// The layers a sampled fault's host time is charged to. RDMA/fabric and
/// memnode/store are one layer: their events nest inside one `post` (the
/// memory node traces its access before it copies, the fabric after), so
/// the time between two of them belongs to both.
pub const LAYERS: [&str; 4] = ["rdma+memnode", "node/pt", "lru", "node.self"];

/// The layer an event closes an interval for.
fn layer_of(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::RdmaIssue { .. }
        | TraceEvent::RdmaComplete { .. }
        | TraceEvent::LinkTransfer { .. }
        | TraceEvent::MemAccess { .. } => 0,
        TraceEvent::FaultPhase { .. } | TraceEvent::PteTransition { .. } => 1,
        TraceEvent::LruInsert { .. } | TraceEvent::LruRemove { .. } => 2,
        _ => 3,
    }
}

/// What an armed fault is timing.
#[derive(Debug)]
enum Mode {
    /// Every event: `last` is the read that opened the current interval.
    Ledger { last: Instant },
    /// Begin to end only.
    Span { begin: Instant },
}

/// Raw host-time sums of one or more observed runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LedgerTotals {
    /// `FaultBegin`s seen outside a sampled fault.
    pub faults: u64,
    /// Faults timed event by event.
    pub sampled: u64,
    /// Host ns charged to each layer of [`LAYERS`], probes included.
    pub raw_ns: [u64; 4],
    /// Intervals charged to each layer: one probe each.
    pub intervals: [u64; 4],
    /// Faults timed begin to end only.
    pub timed: u64,
    /// Their host ns, one probe included per fault.
    pub timed_raw_ns: u64,
}

/// The sampling observer; see the module docs.
#[derive(Debug)]
pub struct HostLedger {
    every: u64,
    armed: Option<(u8, u64, Mode)>,
    totals: LedgerTotals,
    /// Every probe's back-to-back clock gap, in host ns.
    gaps: Vec<u32>,
    /// Draws each period's phases.
    rng: SplitMix64,
    /// This period's phases of the per-event and the begin-to-end fault.
    picks: (u64, u64),
}

impl HostLedger {
    /// A ledger that times one fault in every `every` per layer, and
    /// another of the same period begin to end.
    ///
    /// # Panics
    ///
    /// Panics if `every < 2`.
    pub fn new(every: u64) -> Self {
        assert!(every >= 2, "the two sample sets need a period of 2 or more");
        Self {
            every,
            armed: None,
            totals: LedgerTotals::default(),
            gaps: Vec::new(),
            rng: SplitMix64::new(0x4057_0F11),
            picks: (0, 0),
        }
    }

    /// One probe's clock cost in this run: the median gap, in host ns.
    fn probe_ns(&self) -> f64 {
        let mut gaps = self.gaps.clone();
        gaps.sort_unstable();
        gaps.get(gaps.len() / 2).map_or(0.0, |&g| g.into())
    }
}

/// Host ns from `a` to `b`.
fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

impl TraceObserver for HostLedger {
    fn on_event(&mut self, _t: Ns, ev: &TraceEvent) {
        if let Some((core, vpn, mode)) = &mut self.armed {
            let end =
                matches!(*ev, TraceEvent::FaultEnd { core: c, vpn: v } if c == *core && v == *vpn);
            let s = &mut self.totals;
            match mode {
                Mode::Ledger { last } => {
                    let (a, b) = (Instant::now(), Instant::now());
                    let layer = layer_of(ev);
                    s.raw_ns[layer] += ns(*last, a);
                    s.intervals[layer] += 1;
                    s.sampled += u64::from(end);
                    self.gaps.push(ns(a, b) as u32);
                    *last = Instant::now();
                }
                Mode::Span { begin } if end => {
                    let (a, b) = (Instant::now(), Instant::now());
                    s.timed_raw_ns += ns(*begin, a);
                    s.timed += 1;
                    self.gaps.push(ns(a, b) as u32);
                }
                Mode::Span { .. } => {}
            }
            if end {
                self.armed = None;
            }
            return;
        }
        if let TraceEvent::FaultBegin { core, vpn, .. } = *ev {
            let phase = self.totals.faults % self.every;
            self.totals.faults += 1;
            if phase == 0 {
                // Two distinct random phases per period, so that neither
                // sample set locks onto a periodic fault pattern (such as a
                // readahead window) that the other misses.
                let r = self.rng.next_u64();
                let ledger = r % self.every;
                let span = (ledger + 1 + (r >> 32) % (self.every - 1)) % self.every;
                self.picks = (ledger, span);
            }
            if phase == self.picks.0 {
                let last = Instant::now();
                self.armed = Some((core, vpn, Mode::Ledger { last }));
            } else if phase == self.picks.1 {
                let begin = Instant::now();
                self.armed = Some((core, vpn, Mode::Span { begin }));
            }
        }
    }
}

/// One `Instant::now` in a hot loop, in host ns: the least mean over five
/// rounds of 200 000 reads. Printed beside the in-run probe cost, never
/// subtracted.
pub fn calibrate() -> f64 {
    const N: u32 = 200_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..N {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .fold(f64::INFINITY, f64::min)
}

/// One system's ledger with the probes taken out.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Row label (a tab01 run id, or `serve`).
    pub id: String,
    /// The raw sums.
    pub totals: LedgerTotals,
    /// Host ns per sampled fault charged to each layer of [`LAYERS`].
    pub layer_ns: [f64; 4],
    /// Host ns per fault of the begin-to-end sample set.
    pub timed_ns: f64,
    /// What was taken out per probe: the median gap between its two reads.
    pub probe_ns: f64,
}

fn mean(x: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x as f64 / n as f64
    }
}

impl LedgerRow {
    /// Takes `ledger`'s in-run probe cost out of every interval and every
    /// begin-to-end time.
    pub fn new(id: impl Into<String>, ledger: &HostLedger) -> Self {
        let (t, probe_ns) = (ledger.totals, ledger.probe_ns());
        Self {
            id: id.into(),
            layer_ns: std::array::from_fn(|l| {
                mean(t.raw_ns[l], t.sampled) - mean(t.intervals[l], t.sampled) * probe_ns
            }),
            timed_ns: mean(t.timed_raw_ns, t.timed) - probe_ns,
            totals: t,
            probe_ns,
        }
    }

    /// Host ns per sampled fault over every layer.
    pub fn sum_ns(&self) -> f64 {
        self.layer_ns.iter().sum()
    }

    /// [`sum_ns`](Self::sum_ns) over the begin-to-end time per fault: the
    /// gate wants it within 10 % of 1.
    pub fn sum_over_timed(&self) -> f64 {
        if self.timed_ns > 0.0 {
            self.sum_ns() / self.timed_ns
        } else {
            0.0
        }
    }

    /// No layer came out negative once the probes were subtracted.
    pub fn no_negative_layer(&self) -> bool {
        self.layer_ns.iter().all(|&ns| ns >= 0.0)
    }
}

/// Host time per call of a hit-dominated run, through both access paths.
#[derive(Debug, Clone, Copy)]
pub struct HitTiming {
    /// Data-path calls the sort made (the same on both paths).
    pub calls: u64,
    /// Host ns per call through the word accessors, the sort's own work
    /// included.
    pub word_ns_per_call: f64,
    /// Host ns per call through a wrapper that forwards only `read`/`write`:
    /// the byte path plus one forwarding call.
    pub byte_ns_per_call: f64,
    /// Trace digest of the word run.
    pub word_digest: u64,
    /// Trace digest of the byte run; equal to the word run's.
    pub byte_digest: u64,
}

/// Forwards the data path but not the word accessors, so every 8-byte
/// access takes `read`/`write` with an 8-byte buffer, and counts the calls.
struct ByteOnly<'a> {
    inner: &'a mut dyn FarMemory,
    calls: u64,
}

impl Introspect for ByteOnly<'_> {
    fn fault_counts(&self) -> (u64, u64) {
        self.inner.fault_counts()
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.inner.net_bytes()
    }
}

impl FarMemory for ByteOnly<'_> {
    fn alloc(&mut self, len: usize) -> u64 {
        self.inner.alloc(len)
    }
    fn release(&mut self, va: u64, len: usize) {
        self.inner.release(va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        self.calls += 1;
        self.inner.read(core, va, buf);
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        self.calls += 1;
        self.inner.write(core, va, buf);
    }
    fn compute(&mut self, core: usize, ns: Ns) {
        self.inner.compute(core, ns);
    }
    fn now(&self, core: usize) -> Ns {
        self.inner.now(core)
    }
    fn barrier(&mut self) -> Ns {
        self.inner.barrier()
    }
    fn max_now(&self) -> Ns {
        self.inner.max_now()
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Times fig07a's quicksort of `elements` on DiLOS (readahead) at 25 %
/// local, once through the word accessors and once through a wrapper that
/// forwards only `read`/`write`.
pub fn time_hits(elements: usize) -> HitTiming {
    let wl = QuicksortWorkload { elements, seed: 42 };
    let spec = SystemSpec::for_working_set(SystemKind::DilosReadahead, elements as u64 * 8, 25);
    let run = |bytes: bool| {
        // A bundle per boot: two boots on one sink would share one digest.
        let mut mem = spec.clone().observed(Observability::tracing()).boot();
        let arr = wl.populate(mem.as_mut());
        let mut wrapped = ByteOnly {
            inner: mem.as_mut(),
            calls: 0,
        };
        let t0 = Instant::now();
        if bytes {
            wl.sort(&mut wrapped, arr);
        } else {
            wl.sort(&mut *wrapped.inner, arr);
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let calls = wrapped.calls;
        (wall, calls, mem.trace_digest())
    };
    let (word_wall, _, word_digest) = run(false);
    let (byte_wall, calls, byte_digest) = run(true);
    let per = |wall: f64| wall / calls.max(1) as f64;
    HitTiming {
        calls,
        word_ns_per_call: per(word_wall),
        byte_ns_per_call: per(byte_wall),
        word_digest,
        byte_digest,
    }
}

/// Everything one `hostprof` run measured.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// One clock read in a hot loop ([`calibrate`]), in host ns.
    pub hot_loop_clock_ns: f64,
    /// The sampling period.
    pub every: u64,
    /// tab01's four systems, then `serve`.
    pub rows: Vec<LedgerRow>,
    /// The hit-path timing.
    pub hit: HitTiming,
}

/// Runs tab01 at `micro` and `serve` at `serve`, `reps` times each, with
/// one ledger of period `every` per system across the repetitions, then the
/// hit timing at `sort_elements`.
///
/// tab01's runs boot traced, without the auditor, so the ledger times the
/// model rather than the checker. Of `serve` it observes the unaudited
/// victim of each contended pass: tenant 0 carries the auditor, and the
/// noisy neighbour boots dark.
pub fn profile(
    micro: MicroScale,
    serve: ServeScale,
    sort_elements: usize,
    every: u64,
    reps: usize,
) -> HostProfile {
    let hot_loop_clock_ns = calibrate();
    let ledgers = RefCell::new(Vec::<Rc<RefCell<HostLedger>>>::new());
    // The `i`th ledger, made on first use, attached to `obs`'s sink.
    let attach = |i: usize, obs: Observability| {
        let mut ls = ledgers.borrow_mut();
        while ls.len() <= i {
            ls.push(Rc::new(RefCell::new(HostLedger::new(every))));
        }
        obs.trace().attach(ls[i].clone());
        obs
    };
    let mut ids: Vec<String> = Vec::new();
    for _ in 0..reps {
        let next = std::cell::Cell::new(0);
        let (_, runs) = tab01_tab03_fault_counts(micro, || {
            next.set(next.get() + 1);
            attach(next.get() - 1, Observability::tracing())
        });
        ids = runs.iter().map(|(id, ..)| id.to_string()).collect();
        serve_qos(serve, |obs| {
            if obs.audit() || !obs.trace().is_enabled() {
                return obs;
            }
            attach(runs.len(), obs)
        });
    }
    ids.push("serve".into());
    let rows = ids
        .into_iter()
        .zip(ledgers.into_inner())
        .map(|(id, ledger)| LedgerRow::new(id, &ledger.borrow()))
        .collect();
    HostProfile {
        hot_loop_clock_ns,
        every,
        rows,
        hit: time_hits(sort_elements),
    }
}

impl HostProfile {
    /// The printed table: one row per system, then the hit timing in notes.
    pub fn report(&self) -> Report {
        let mut headers = vec!["system", "faults", "sampled"];
        headers.extend(LAYERS);
        headers.extend(["sum", "timed", "sum/timed", "probe"]);
        let mut report = Report::new(
            "Host-time ledger — host ns per sampled fault, by layer",
            &headers,
        );
        for r in &self.rows {
            let mut row = vec![
                r.id.clone(),
                r.totals.faults.to_string(),
                r.totals.sampled.to_string(),
            ];
            row.extend(r.layer_ns.iter().map(|ns| format!("{ns:.0}")));
            row.push(format!("{:.0}", r.sum_ns()));
            row.push(format!("{:.0}", r.timed_ns));
            row.push(format!("{:.2}", r.sum_over_timed()));
            row.push(format!("{:.1}", r.probe_ns));
            report.row(row);
        }
        report.note(format!(
            "One fault in {} timed per layer, one in {} begin to end. Each interval and \
             each begin-to-end time less one probe's clock cost, the median gap between \
             its two back-to-back reads in the run (`probe`, ns); one clock read in a hot \
             loop costs {:.1} ns.",
            self.every, self.every, self.hot_loop_clock_ns
        ));
        let missed = |gate: fn(&LedgerRow) -> bool| {
            let ids: Vec<&str> = self
                .rows
                .iter()
                .filter(|r| !gate(r))
                .map(|r| &*r.id)
                .collect();
            if ids.is_empty() {
                "held".to_string()
            } else {
                format!("MISSED on {}", ids.join(", "))
            }
        };
        report.note(format!(
            "Gates: no negative layer {}; sum within 10 % of timed {}.",
            missed(LedgerRow::no_negative_layer),
            missed(|r| (r.sum_over_timed() - 1.0).abs() <= 0.1),
        ));
        let h = &self.hit;
        report.note(format!(
            "Hits (quicksort on DiLOS at 25 % local, {} calls): word path {:.1} ns/call, \
             byte path {:.1} ns/call; digests {}.",
            h.calls,
            h.word_ns_per_call,
            h.byte_ns_per_call,
            if h.word_digest == h.byte_digest {
                "equal"
            } else {
                "DIFFER"
            }
        ));
        report
    }

    /// Writes the profile as one JSON document.
    pub fn write_json<W: std::io::Write>(&self, w: &mut JsonWriter<W>) {
        w.object(Layout::Broken, |w| {
            w.key("hot_loop_clock_ns")
                .thousandths((self.hot_loop_clock_ns * 1e3).round() as u64);
            w.key("sample_every").uint(self.every);
            w.key("layers").array(Layout::Inline, |w| {
                for l in LAYERS {
                    w.string(l);
                }
            });
            w.key("systems").object(Layout::Broken, |w| {
                for r in &self.rows {
                    w.key(&r.id).object(Layout::Broken, |w| {
                        w.key("faults").uint(r.totals.faults);
                        w.key("sampled").uint(r.totals.sampled);
                        w.key("events").uint(r.totals.intervals.iter().sum::<u64>());
                        w.key("layer_ns_per_fault").object(Layout::Inline, |w| {
                            for (l, ns) in LAYERS.iter().zip(r.layer_ns) {
                                w.key(l).int(ns.round() as i64);
                            }
                        });
                        w.key("sum_ns_per_fault").int(r.sum_ns().round() as i64);
                        w.key("timed").uint(r.totals.timed);
                        w.key("timed_ns_per_fault").int(r.timed_ns.round() as i64);
                        w.key("sum_over_timed")
                            .thousandths((r.sum_over_timed().max(0.0) * 1e3).round() as u64);
                        w.key("probe_ns")
                            .thousandths((r.probe_ns * 1e3).round() as u64);
                    });
                }
            });
            let h = &self.hit;
            w.key("hit").object(Layout::Broken, |w| {
                w.key("calls").uint(h.calls);
                w.key("word_ns_per_call")
                    .thousandths((h.word_ns_per_call * 1e3).round() as u64);
                w.key("byte_ns_per_call")
                    .thousandths((h.byte_ns_per_call * 1e3).round() as u64);
                w.key("word_digest").hex(h.word_digest);
                w.key("byte_digest").hex(h.byte_digest);
            });
        });
    }
}
