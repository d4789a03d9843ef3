//! Bench spans: host time recorded at the benchmark's side of each layer
//! boundary.
//!
//! [`SpanMem`] wraps whatever `FarMemory` a workload drives and times every
//! data-path call on both clocks; the gap between one call's end and the
//! next call's start is the application's own time. The replays in
//! `replay.rs` add one span per layer under the fault span. Everything is
//! held in memory and written once, by [`SpanTable::to_json`], when the
//! run ends.

use std::time::Instant;

use dilos_apps::farmem::{FarMemory, Introspect};
use dilos_core::{Dilos, Pte};
use dilos_sim::{MetricsRegistry, Ns, SpanProfiler};

use crate::clock::Stamp;
use crate::json::Json;
use crate::quant::LatHist;

/// A call whose virtual latency reaches the hardware exception cost took a
/// fault; anything cheaper was served from a resident page.
pub const FAULT_THRESHOLD_NS: Ns = 570;

/// One call in every `SAMPLE_EVERY` is kept verbatim with its ids.
const SAMPLE_EVERY: u64 = 1024;
const MAX_SAMPLES: usize = 1 << 16;

/// Count, total and log2 histogram of one span name.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub host_ns: u64,
    /// `hist[i]` counts spans of `[2^i, 2^(i+1))` host ns.
    pub hist: [u64; 32],
}

impl Agg {
    #[inline]
    fn add(&mut self, host_ns: u64) {
        self.count += 1;
        self.host_ns += host_ns;
        self.hist[(63 - (host_ns | 1).leading_zeros()).min(31) as usize] += 1;
    }

    pub fn ns_per(&self) -> f64 {
        ratio(self.host_ns as f64, self.count as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One data-path call as the replays need it: when, which page, whether it
/// wrote, and (on DiLOS) which frame served it.
#[derive(Clone, Copy)]
pub struct CallRec {
    pub t: Ns,
    pub vpn: u64,
    pub write: bool,
    /// LRU key the call touched: the frame on DiLOS, the VPN elsewhere.
    pub lru_key: u64,
}

/// A sampled call span.
struct Sample {
    id: u64,
    fault: bool,
    start_ns: u64,
    end_ns: u64,
    virt_ns: u64,
    vpn: u64,
}

/// What [`SpanMem`] accumulates over one timed region.
pub struct CallSpans {
    /// Record host time (off for the virtual-latency census, which must
    /// not pay two clock reads per call).
    host: bool,
    origin: Instant,
    last_end: Instant,
    pub hit: Agg,
    pub fault: Agg,
    /// Host time between calls: the workload's own code.
    pub apps: Agg,
    /// Virtual latency of every call.
    pub virt: LatHist,
    /// The first `log_cap` calls, for the page-table and LRU replays.
    pub log: Vec<CallRec>,
    log_cap: usize,
    samples: Vec<Sample>,
}

impl CallSpans {
    pub fn new(host: bool, log_cap: usize) -> Self {
        let now = Instant::now();
        Self {
            host,
            origin: now,
            last_end: now,
            hit: Agg::default(),
            fault: Agg::default(),
            apps: Agg::default(),
            virt: LatHist::default(),
            log: Vec::new(),
            log_cap,
            samples: Vec::new(),
        }
    }

    /// Marks the start of the timed region.
    pub fn begin(&mut self) {
        self.last_end = Instant::now();
    }

    /// Closes the timed region: the tail after the last call is apps time.
    pub fn end(&mut self) {
        if self.host {
            let now = Instant::now();
            self.apps
                .add(now.duration_since(self.last_end).as_nanos() as u64);
            self.last_end = now;
        }
    }

    pub fn calls(&self) -> u64 {
        self.hit.count + self.fault.count
    }

    /// Host ns covered by call and apps spans together.
    pub fn covered_ns(&self) -> u64 {
        self.hit.host_ns + self.fault.host_ns + self.apps.host_ns
    }
}

/// `FarMemory` by delegation, with a span around every data-path call.
pub struct SpanMem<'a> {
    pub inner: &'a mut dyn FarMemory,
    pub spans: &'a mut CallSpans,
}

impl SpanMem<'_> {
    #[inline]
    fn around(&mut self, core: usize, va: u64, write: bool, call: impl FnOnce(&mut dyn FarMemory)) {
        let v0 = self.inner.now(core);
        if !self.spans.host {
            call(self.inner);
            let dv = self.inner.now(core) - v0;
            self.spans.virt.record(dv);
            let agg = if dv >= FAULT_THRESHOLD_NS {
                &mut self.spans.fault
            } else {
                &mut self.spans.hit
            };
            agg.count += 1;
            return;
        }
        let h0 = Instant::now();
        call(self.inner);
        let h1 = Instant::now();
        let dv = self.inner.now(core) - v0;
        let s = &mut *self.spans;
        s.apps.add(h0.duration_since(s.last_end).as_nanos() as u64);
        let dh = h1.duration_since(h0).as_nanos() as u64;
        let fault = dv >= FAULT_THRESHOLD_NS;
        if fault {
            s.fault.add(dh);
        } else {
            s.hit.add(dh);
        }
        s.virt.record(dv);
        let n = s.hit.count + s.fault.count;
        if n.is_multiple_of(SAMPLE_EVERY) && s.samples.len() < MAX_SAMPLES {
            s.samples.push(Sample {
                id: n,
                fault,
                start_ns: h0.duration_since(s.origin).as_nanos() as u64,
                end_ns: h1.duration_since(s.origin).as_nanos() as u64,
                virt_ns: dv,
                vpn: va >> 12,
            });
        }
        if s.log.len() < s.log_cap {
            let vpn = va >> 12;
            let lru_key = match self.inner.as_dilos().map(|d| d.pte_of(va)) {
                Some(Pte::Local { frame, .. }) => u64::from(frame),
                _ => vpn,
            };
            s.log.push(CallRec {
                t: v0,
                vpn,
                write,
                lru_key,
            });
        }
        // The bookkeeping above is the benchmark's, not the workload's.
        s.last_end = Instant::now();
    }
}

impl Introspect for SpanMem<'_> {
    fn fault_counts(&self) -> (u64, u64) {
        self.inner.fault_counts()
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.inner.net_bytes()
    }
    fn as_dilos(&self) -> Option<&Dilos> {
        self.inner.as_dilos()
    }
    fn trace_digest(&mut self) -> u64 {
        self.inner.trace_digest()
    }
    fn audit_report(&mut self) -> Vec<String> {
        self.inner.audit_report()
    }
    fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics()
    }
    fn profiler(&self) -> SpanProfiler {
        self.inner.profiler()
    }
    fn fault_counters(&self) -> (u64, u64, u64) {
        self.inner.fault_counters()
    }
    fn phase_sums(&self) -> Vec<(&'static str, Ns)> {
        self.inner.phase_sums()
    }
}

impl FarMemory for SpanMem<'_> {
    fn alloc(&mut self, len: usize) -> u64 {
        self.inner.alloc(len)
    }
    fn release(&mut self, va: u64, len: usize) {
        self.inner.release(va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        self.around(core, va, false, |m| m.read(core, va, buf));
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        self.around(core, va, true, |m| m.write(core, va, buf));
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

/// Splits a timed region into segments of identical work, each timed on
/// the thread's on-CPU clock.
///
/// Every instance of one seed does the same work in the same order, so
/// segment `k` is the same work in every instance. That lets a run keep,
/// for each segment, the fastest time any instance achieved (see
/// `driver::best_composite`): interference on a shared host only ever
/// slows a segment down, and it comes in bursts of a second or more, so
/// the per-segment minimum over instances converges on the undisturbed
/// time where a mean or median over whole instances follows the bursts.
pub struct Ticker {
    last: Stamp,
    /// On-CPU seconds of each closed segment.
    pub segments: Vec<f64>,
}

impl Ticker {
    /// Closes the current segment. A workload calls this at fixed points
    /// of its request stream, every ten milliseconds of work or so.
    pub fn tick(&mut self) {
        let now = Stamp::now();
        self.segments.push(now.since(&self.last).cpu_s);
        self.last = now;
    }
}

/// What a workload's timed region is handed: its system as-is (spans off:
/// no wrapper, no cost) or behind a [`SpanMem`], and the segment clock.
pub struct Probe {
    pub spans: Option<CallSpans>,
    pub ticker: Ticker,
}

impl Probe {
    pub fn off() -> Self {
        Self {
            spans: None,
            ticker: Ticker {
                last: Stamp::now(),
                segments: Vec::new(),
            },
        }
    }

    pub fn on(host: bool, log_cap: usize) -> Self {
        Self {
            spans: Some(CallSpans::new(host, log_cap)),
            ..Self::off()
        }
    }

    pub fn with_mem<R>(
        &mut self,
        inner: &mut dyn FarMemory,
        f: impl FnOnce(&mut dyn FarMemory, &mut Ticker) -> R,
    ) -> R {
        match &mut self.spans {
            None => f(inner, &mut self.ticker),
            Some(spans) => f(&mut SpanMem { inner, spans }, &mut self.ticker),
        }
    }

    /// Marks the start of the timed region.
    pub fn begin(&mut self) {
        self.ticker.last = Stamp::now();
        if let Some(s) = &mut self.spans {
            s.begin();
        }
    }

    /// Closes the timed region and its last segment.
    pub fn end(&mut self) {
        if let Some(s) = &mut self.spans {
            s.end();
        }
        self.ticker.tick();
    }
}

/// One row of the span table: a name, the span that caused it, and totals.
pub struct SpanRow {
    pub name: String,
    pub parent: String,
    pub count: u64,
    pub total_ns: u64,
    pub hist: Option<[u64; 32]>,
}

/// Every span of one layers run, by name.
#[derive(Default)]
pub struct SpanTable {
    pub rows: Vec<SpanRow>,
}

impl SpanTable {
    pub fn add(&mut self, name: &str, parent: &str, count: u64, total_ns: u64) {
        self.rows.push(SpanRow {
            name: name.into(),
            parent: parent.into(),
            count,
            total_ns,
            hist: None,
        });
    }

    pub fn add_agg(&mut self, name: &str, parent: &str, agg: &Agg) {
        self.rows.push(SpanRow {
            name: name.into(),
            parent: parent.into(),
            count: agg.count,
            total_ns: agg.host_ns,
            hist: Some(agg.hist),
        });
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.total_ns)
            .sum()
    }

    /// Total host ns of the direct children of `name`.
    pub fn children_ns(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.parent == name)
            .map(|r| r.total_ns)
            .sum()
    }

    /// Self time = the span minus what its children cover; may be negative
    /// when children were replayed on cold structures (stated, not hidden).
    pub fn self_ns(&self, name: &str) -> i64 {
        self.total_ns(name) as i64 - self.children_ns(name) as i64
    }

    pub fn to_json(&self, workload: &str, calls: &CallSpans) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut o = vec![
                    ("name".to_string(), Json::str(&r.name)),
                    ("parent".to_string(), Json::str(&r.parent)),
                    ("count".to_string(), Json::Num(r.count as f64)),
                    ("total_ns".to_string(), Json::Num(r.total_ns as f64)),
                    (
                        "self_ns".to_string(),
                        Json::Num(self.self_ns(&r.name) as f64),
                    ),
                ];
                if let Some(h) = &r.hist {
                    let last = h.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
                    o.push((
                        "log2_ns_hist".to_string(),
                        Json::Arr(h[..last].iter().map(|&c| Json::Num(c as f64)).collect()),
                    ));
                }
                Json::Obj(o)
            })
            .collect();
        let samples = calls
            .samples
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::str("timed")),
                    (
                        "name",
                        Json::str(if s.fault { "call.fault" } else { "call.hit" }),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("virt_ns", Json::Num(s.virt_ns as f64)),
                    ("vpn", Json::Num(s.vpn as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(rows)),
            ("samples_one_in", Json::Num(SAMPLE_EVERY as f64)),
            ("samples", Json::Arr(samples)),
        ])
    }
}
