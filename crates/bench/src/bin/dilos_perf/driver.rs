//! One run of one workload: the measurement loop behind
//! `dilos_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! A run boots fresh *instances* of the workload, one after another, until
//! `--seconds` have passed. Each instance is set up (boot + populate +
//! warm-up) and then does the workload's fixed timed work once; both are
//! timed on the thread's on-CPU clock. Reporting medians over instances
//! makes one run robust to a burst of interference, gives `setup_s` several
//! samples per run, and — because every instance of one seed must produce
//! the same simulated statistics — turns each run into a determinism check.
//!
//! `--trace 0` measures the end-to-end metrics with bench spans off.
//! `--trace 1` is the layers run: spans on, a window of the real event
//! stream captured and replayed layer by layer (see `replay.rs`).

use std::collections::BTreeMap;

use crate::capture::{Instr, ObsMode, Window};
use crate::clock::{self, Elapsed, Stamp};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::quant::median;
use crate::replay::{self, Cost};
use crate::spans::{ratio, CallSpans, Probe, SpanTable};
use crate::workloads::{self, Outcome, Scale, Workload};
use dilos_sim::MemStore;

/// Events kept for the replays (first after warm-up).
const WINDOW_EVENTS: usize = 1 << 20;
/// Calls kept for the page-table and LRU replays.
const CALL_LOG: usize = 1 << 20;

/// One instance: set up, run the timed region, verify.
pub struct Instance {
    pub setup: Elapsed,
    pub timed: Elapsed,
    /// On-CPU seconds of each segment of the timed region.
    pub segments: Vec<f64>,
    pub out: Outcome,
    pub wl: Box<dyn Workload>,
}

pub fn instance(
    name: &str,
    seed: u64,
    scale: &Scale,
    instr: &Instr,
    probe: &mut Probe,
) -> Instance {
    let s0 = Stamp::now();
    let mut wl = workloads::boot(name, seed, scale, instr);
    if let Some(w) = &instr.window {
        w.borrow_mut().arm();
    }
    let s1 = Stamp::now();
    probe.begin();
    let mut out = wl.run(probe);
    probe.end();
    let s2 = Stamp::now();
    wl.check(&mut out);
    Instance {
        setup: s1.since(&s0),
        timed: s2.since(&s1),
        segments: std::mem::take(&mut probe.ticker.segments),
        out,
        wl,
    }
}

/// The timed region's cost with every segment at the fastest any instance
/// ran it: `Σ_k min_i segments[i][k]` (see [`crate::spans::Ticker`]).
pub fn best_composite(instances: &[Vec<f64>]) -> f64 {
    let n = instances.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|k| instances.iter().map(|s| s[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The result of a run, as printed.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping (fingerprint, per-instance timings,
    /// paper reference); printed on the line before the result.
    pub detail: Json,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// `sort_hit`'s request is one data-path call, which only a wrapper around
/// the memory can count. This boots one extra instance behind a `SpanMem`
/// that records virtual latencies only (no host clock reads), before
/// anything is timed; the counts are deterministic, so they hold for every
/// timed instance, and `adopt_census` checks that they do.
fn census(name: &str, seed: u64, scale: &Scale) -> Option<Outcome> {
    (name == "sort_hit").then(|| {
        let mut probe = Probe::on(false, 0);
        instance(name, seed, scale, &Instr::native(), &mut probe).out
    })
}

/// Gives a `sort_hit` outcome the census's request count and latencies;
/// fails every request if the instance's simulated totals differ from the
/// census's (they were produced by the same inputs).
fn adopt_census(out: &mut Outcome, census: Option<&Outcome>) {
    let Some(c) = census else { return };
    let same = out.makespan_ns == c.makespan_ns
        && out.faults() == c.faults()
        && out.counts.net_bytes == c.counts.net_bytes;
    out.ops = c.ops;
    out.lat = c.lat.clone();
    if !same {
        out.failed = out.ops;
    }
}

fn fingerprint_hex(out: &Outcome, native_traced: bool) -> String {
    format!("{:#018x}", out.fingerprint(native_traced))
}

fn paper_json(out: &Outcome) -> Json {
    match out.paper {
        None => Json::Null,
        Some(p) => Json::obj([
            ("what", Json::str(p.what)),
            ("unit", Json::str(p.unit)),
            ("model", Json::Num(p.model)),
            ("paper", Json::Num(p.paper)),
            ("model_over_paper", Json::Num(ratio(p.model, p.paper))),
        ]),
    }
}

fn sim_values(out: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("sim_makespan_ms", out.makespan_ns as f64 / 1e6),
        ("sim_req_mean_ns", out.lat.mean()),
        (
            "sim_net_mib",
            out.counts.net_bytes as f64 / (1 << 20) as f64,
        ),
    ])
}

/// `--trace 0`: instances with spans off until `seconds` have passed (at
/// least three), medians over instances.
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64, scale: &Scale) -> RunReport {
    let started = Stamp::now();
    let census = census(name, seed, scale);
    let instr = Instr::native();
    let mut first: Option<Outcome> = None;
    let native_traced = workloads::natively_traced(name);
    let (mut setups, mut timed_cpu, mut segments, mut wall_over_cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut odd) = (0u64, 0u64, 0u64);
    loop {
        let mut inst = instance(name, seed, scale, &instr, &mut Probe::off());
        adopt_census(&mut inst.out, census.as_ref());
        drop(inst.wl);
        setups.push(inst.setup.cpu_s);
        timed_cpu.push(inst.timed.cpu_s);
        segments.push(inst.segments);
        wall_over_cpu.push(ratio(inst.timed.wall_s, inst.timed.cpu_s));
        attempted += inst.out.ops;
        failed += inst.out.failed;
        match &first {
            None => first = Some(inst.out),
            Some(f) => {
                // An instance whose simulated statistics differ from the
                // first's is wrong in every request it served.
                if f.fingerprint(native_traced) != inst.out.fingerprint(native_traced) {
                    odd += 1;
                    failed += inst.out.ops - inst.out.failed.min(inst.out.ops);
                }
            }
        }
        let elapsed = Stamp::now().since(&started).wall_s;
        let per_instance = elapsed / setups.len() as f64;
        if setups.len() >= 3 && elapsed + per_instance / 2.0 >= seconds {
            break;
        }
    }
    let first = first.expect("at least one instance ran");
    let sim = sim_values(&first);
    // Host times are the least-disturbed ones the run saw: interference
    // on a shared host only ever adds time, in bursts longer than an
    // instance, so minima repeat from run to run where medians do not.
    let best_timed_s = best_composite(&segments);
    let best_setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let host = BTreeMap::from([
        ("setup_s", best_setup_s),
        ("ops_per_s", ratio(first.ops as f64, best_timed_s)),
        ("faults_per_s", ratio(first.faults() as f64, best_timed_s)),
        ("peak_rss_mib", clock::peak_rss_mib()),
    ]);
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let v = host.get(m.name).or_else(|| sim.get(m.name));
            (
                m.name,
                *v.expect("every end-to-end metric is computed"),
                m.unit,
            )
        })
        .collect();
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(seed as f64)),
        (
            "sim_fingerprint",
            Json::str(fingerprint_hex(&first, native_traced)),
        ),
        ("instances", Json::Num(setups.len() as f64)),
        ("odd_instances", Json::Num(odd as f64)),
        ("ops_per_instance", Json::Num(first.ops as f64)),
        ("faults_per_instance", Json::Num(first.faults() as f64)),
        ("latency_samples", Json::Num(first.lat.count() as f64)),
        (
            "latency_top",
            Json::Arr(
                first
                    .lat
                    .top(12)
                    .iter()
                    .map(|&(v, c)| Json::Arr(vec![Json::Num(v as f64), Json::Num(c as f64)]))
                    .collect(),
            ),
        ),
        (
            "trace_events_per_instance",
            Json::Num(first.counts.trace_events as f64),
        ),
        ("host_clock", Json::str(host_clock_name())),
        ("segments_per_instance", Json::Num(segments[0].len() as f64)),
        ("best_timed_cpu_s", Json::Num(best_timed_s)),
        ("median_timed_cpu_s", Json::Num(median(&timed_cpu))),
        ("setup_cpu_s", nums(&setups)),
        ("timed_cpu_s", nums(&timed_cpu)),
        ("wall_over_cpu", nums(&wall_over_cpu)),
        ("paper_ref", paper_json(&first)),
    ]);
    RunReport {
        attempted,
        failed,
        metrics,
        detail,
    }
}

fn host_clock_name() -> &'static str {
    if clock::cpu_clock_available() {
        "thread on-CPU time (/proc/thread-self/schedstat)"
    } else {
        "wall time (schedstat unavailable)"
    }
}

/// Requests attempted and failed over the instances of a layers run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Wrapped or not, tapped or not: the simulated statistics of one seed
    /// and one observability arm may not move, so an instance that
    /// disagrees with its arm's `reference` failed every request. (Digests
    /// are left out: a tap or a wrapper never changes them, but a lit copy
    /// of a dark workload has one where the original has none.)
    fn add(&mut self, out: &Outcome, reference: Option<&Outcome>) {
        self.attempted += out.ops;
        self.failed += out.failed;
        if reference.is_some_and(|r| r.fingerprint(false) != out.fingerprint(false)) {
            self.failed += out.ops - out.failed.min(out.ops);
        }
    }
}

/// Totals of the replayed window beside the same totals of the run it was
/// captured from. With the window open from boot (`capture_all`) each pair
/// must agree.
pub struct Conserved {
    /// Digest of a fresh sink fed the window / of the captured system.
    pub digest: (u64, u64),
    /// Verbs replayed / verbs the endpoint counted.
    pub verbs: (u64, u64),
    /// Bytes of the replayed link transfers / bytes the fabric counted.
    pub wire_bytes: (u64, u64),
    /// Whether a `FlatStore` fed only the window's writes ends with the
    /// pages and bytes of the run's memory node (`capture_all` only).
    pub store_matches: Option<bool>,
}

impl Conserved {
    fn to_json(&self) -> Json {
        let pair =
            |(replayed, run): (Json, Json)| Json::obj([("replayed", replayed), ("run", run)]);
        let num = |(a, b): (u64, u64)| (Json::Num(a as f64), Json::Num(b as f64));
        let hex = |v: u64| Json::str(format!("{v:#018x}"));
        Json::obj([
            ("digest", pair((hex(self.digest.0), hex(self.digest.1)))),
            ("verbs", pair(num(self.verbs))),
            ("wire_bytes", pair(num(self.wire_bytes))),
            (
                "store_matches",
                self.store_matches.map_or(Json::Null, Json::Bool),
            ),
        ])
    }
}

/// Everything the layers run measured, before it is flattened to metrics.
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub spans: SpanTable,
    pub calls: CallSpans,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: String,
    /// Whether the dark and lit arms produced the same simulated
    /// statistics (digests aside).
    pub dark_equals_lit: bool,
    pub conserved: Conserved,
}

/// Step 1 of the layers run: the same instances booted dark and lit, spans
/// off, alternating.
struct Arms {
    /// Best-composite on-CPU seconds of the timed region, per arm.
    dark_s: f64,
    lit_s: f64,
    /// The first outcome of each arm: the reference later instances of
    /// that arm must reproduce.
    dark_ref: Outcome,
    lit_ref: Outcome,
}

fn measure_arms(
    name: &str,
    seed: u64,
    budget_s: f64,
    scale: &Scale,
    lit_mode: ObsMode,
    census: Option<&Outcome>,
    tally: &mut Tally,
) -> Arms {
    let started = Stamp::now();
    let (mut dark, mut lit) = (Vec::new(), Vec::new());
    let (mut dark_ref, mut lit_ref) = (None, None);
    loop {
        for mode in [ObsMode::Dark, lit_mode] {
            let instr = Instr { mode, window: None };
            let mut inst = instance(name, seed, scale, &instr, &mut Probe::off());
            adopt_census(&mut inst.out, census);
            let (segments, reference) = if mode == ObsMode::Dark {
                (&mut dark, &mut dark_ref)
            } else {
                (&mut lit, &mut lit_ref)
            };
            segments.push(inst.segments);
            tally.add(&inst.out, reference.as_ref());
            reference.get_or_insert(inst.out);
        }
        let elapsed = Stamp::now().since(&started).wall_s;
        if dark.len() >= 3 || elapsed + elapsed / dark.len() as f64 > budget_s {
            break;
        }
    }
    Arms {
        dark_s: best_composite(&dark),
        lit_s: best_composite(&lit),
        dark_ref: dark_ref.expect("the loop ran"),
        lit_ref: lit_ref.expect("the loop ran"),
    }
}

/// `--trace 1`: the layers run.
///
/// 1. A few instances dark (`Observability::none`) and lit (`tracing`),
///    spans off: the native arm is the spans-off baseline and the
///    difference is what tracing costs per event.
/// 2. One native instance behind `SpanMem`: host time per hit, per fault
///    and between calls.
/// 3. One instance with capture taps on its sinks: the event window.
/// 4. The window replayed into each layer.
pub fn run_layers(name: &str, seed: u64, seconds: f64, scale: &Scale, capture_all: bool) -> Layers {
    let census = census(name, seed, scale);
    let census = census.as_ref();
    let native_traced = workloads::natively_traced(name);
    // "Lit" is the workload's own traced configuration where it has one
    // (on `serve_qos` the scanner stays dark), everything traced otherwise.
    let lit_mode = if native_traced {
        ObsMode::Native
    } else {
        ObsMode::Lit
    };
    let mut tally = Tally::default();
    // Half the budget; the instrumented instances and replays get the rest.
    let arms = measure_arms(
        name,
        seed,
        seconds / 2.0,
        scale,
        lit_mode,
        census,
        &mut tally,
    );
    // Whether tracing is a pure observer is a fact about the library,
    // reported rather than enforced.
    let dark_equals_lit = arms.dark_ref.fingerprint(false) == arms.lit_ref.fingerprint(false);
    let (native_ref, native_cpu_s) = if native_traced {
        (&arms.lit_ref, arms.lit_s)
    } else {
        (&arms.dark_ref, arms.dark_s)
    };
    let lit_events = arms.lit_ref.counts.trace_events;

    // 2. Spans on, natively booted.
    let mut probe = Probe::on(true, CALL_LOG);
    let mut spanned = instance(name, seed, scale, &Instr::native(), &mut probe);
    adopt_census(&mut spanned.out, census);
    tally.add(&spanned.out, Some(native_ref));
    let calls = probe.spans.take().expect("spans were on");
    let run = &spanned.out;

    // 3. Capture. A natively dark workload is lit so there is a stream.
    let cap = if capture_all {
        usize::MAX
    } else {
        WINDOW_EVENTS
    };
    let window = Window::shared(cap, capture_all);
    let instr = Instr {
        mode: lit_mode,
        window: Some(window.clone()),
    };
    let mut captured = instance(name, seed, scale, &instr, &mut Probe::off());
    adopt_census(&mut captured.out, census);
    tally.add(&captured.out, Some(&arms.lit_ref));
    let win = std::mem::take(&mut window.borrow_mut().events);
    let view = captured.wl.view();

    // 4. Replays.
    let sys = if view.fastswap { "fastswap" } else { "node" };
    let fault_span = format!("{sys}.fault");
    let mut spans = SpanTable::default();
    spans.add("timed", "", 1, (spanned.timed.wall_s * 1e9) as u64);
    spans.add_agg("apps.self", "timed", &calls.apps);
    spans.add_agg(&format!("{sys}.hit"), "timed", &calls.hit);
    spans.add_agg(&fault_span, "timed", &calls.fault);

    // Replays cover the window; the run's faults are `scale_up` times as
    // many, and the fault span's children are scaled to the whole run so
    // that its self time subtracts children of its own extent.
    let scale_up = run.faults() as f64 / replay::count_faults(&win).max(1) as f64;
    let child = |spans: &mut SpanTable, name: &str, c: Cost| {
        spans.add(&format!("replay.{name}"), &fault_span, c.ops, c.ns);
    };

    let (emit, sink, profiler_extra, causal_extra) = replay::replay_trace(&win);
    if native_traced {
        // By the events the natively booted systems emit, not by faults:
        // on `serve_qos` most faults belong to the dark scanner.
        child(
            &mut spans,
            "trace.emit",
            emit.portion(run.counts.trace_events),
        );
    }
    let sched = replay::replay_sched(&win, native_traced);
    child(&mut spans, "sched", sched.cost.scaled(scale_up));
    let verbs = replay::verbs_of(&win);
    let rdma = replay::replay_rdma(&verbs, &view);
    child(&mut spans, "rdma", rdma.scaled(scale_up));
    let (fcfs, shaped) = replay::replay_fabric(&win, &view);
    let fabric = shaped.unwrap_or(fcfs);
    let accesses = replay::accesses_of(&win);
    let memnode = replay::replay_memnode(&accesses, &view);
    let node = view.endpoint.node();
    let (_, store) = replay::replay_store(&accesses, node, true);
    let (pt, pt_sets) = replay::replay_pt(&win, &calls.log);
    let (lru, lru_links) = replay::replay_lru(&win, &calls.log);
    let frames = replay::replay_frames(&win, view.local_frames, store.live_bytes_per_page as usize);
    child(&mut spans, "frames", frames.scaled(scale_up));
    // Of the page-table and LRU replays only the structural operations
    // (PTE sets, chain inserts/removes) belong to the fault path.
    child(&mut spans, "pt.set", pt.portion(pt_sets).scaled(scale_up));
    child(
        &mut spans,
        "lru.link",
        lru.portion(lru_links).scaled(scale_up),
    );
    let prefetch = replay::replay_prefetch(&win);
    child(&mut spans, "prefetch", prefetch.scaled(scale_up));
    let (guide, alloc) = view.heap.as_ref().map_or_else(Default::default, |heap| {
        let heap = heap.borrow();
        let guide = replay::replay_guide(&win, &heap);
        child(&mut spans, "guide", guide.scaled(scale_up));
        (
            guide,
            replay::replay_alloc(scale.kv_keys, seed, heap.capacity()),
        )
    });
    let (shared_port, exclusive_port) = if view.tenants.len() > 1 {
        replay::replay_cluster(&verbs, &view)
    } else {
        Default::default()
    };
    // One level further down, at window scale, for the span file.
    let store_all = store.reads.plus(store.writes);
    spans.add("replay.fabric", "replay.rdma", fabric.ops, fabric.ns);
    spans.add("replay.memnode", "replay.rdma", memnode.ops, memnode.ns);
    spans.add(
        "replay.store",
        "replay.memnode",
        store_all.ops,
        store_all.ns,
    );

    let c = &run.counts;
    let fault_calls = calls.fault.count as f64;
    let self_per_fault =
        calls.fault.ns_per() - ratio(spans.children_ns(&fault_span) as f64, fault_calls);
    let verb_bytes: usize = verbs.iter().flat_map(|v| &v.segs).map(|s| s.1).sum();
    let spanned_cpu_s: f64 = spanned.segments.iter().sum();
    let minus = |a: Cost, b: Cost| ratio(a.ns as f64 - b.ns as f64, a.ops as f64);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        values.insert(k, v);
    };
    put("sim_req_p50_ns", run.lat.quantile(0.50) as f64);
    put("sim_req_p99_ns", run.lat.quantile(0.99) as f64);
    put("sim_req_p999_ns", run.lat.quantile(0.999) as f64);
    put(
        "apps.self_ns_per_op",
        ratio(calls.apps.host_ns as f64, run.ops as f64),
    );
    put("node.calls", calls.calls() as f64);
    put("node.hit_calls", calls.hit.count as f64);
    put("node.fault_calls", fault_calls);
    if view.fastswap {
        put("fastswap.hit_ns_per_call", calls.hit.ns_per());
        put("fastswap.fault_ns_per_call", calls.fault.ns_per());
        put("fastswap.self_ns_per_fault", self_per_fault);
    } else {
        put("node.hit_ns_per_call", calls.hit.ns_per());
        put("node.fault_ns_per_call", calls.fault.ns_per());
        put("node.self_ns_per_fault", self_per_fault);
    }
    put("node.major_faults", c.major as f64);
    put("node.minor_faults", c.minor as f64);
    put("node.evictions", c.evictions as f64);
    put("node.writebacks", c.writebacks as f64);
    put("prefetch.issued", c.prefetch_issued as f64);
    put(
        "prefetch.useful_frac",
        ratio(c.prefetch_hits as f64, c.prefetch_issued as f64),
    );
    put("prefetch.ns_per_fault", prefetch.ns_per_op());
    put("guide.invokes", c.guide_invokes as f64);
    put("guide.ns_per_invoke", guide.ns_per_op());
    put("guide.bytes_saved", c.guide_bytes_saved as f64);
    put("alloc.ns_per_op", alloc.ns_per_op());
    put("rdma.reads", c.rdma_reads as f64);
    put("rdma.writes", c.rdma_writes as f64);
    put(
        "rdma.bytes_per_verb",
        ratio(verb_bytes as f64, verbs.len() as f64),
    );
    put("rdma.ns_per_verb", rdma.ns_per_op());
    put("rdma.self_ns_per_verb", minus(rdma, fabric.plus(memnode)));
    put("fabric.transfers", fabric.scaled(scale_up).ops as f64);
    put("fabric.ns_per_transfer", fabric.ns_per_op());
    put(
        "fabric.link_util",
        ratio(c.link_busy_ns as f64, run.makespan_ns as f64),
    );
    put("memnode.ns_per_access", memnode.ns_per_op());
    put("store.read_ns_per_page", store.reads.ns_per_op());
    put("store.write_ns_per_page", store.writes.ns_per_op());
    put("store.live_bytes_per_page", store.live_bytes_per_page);
    put("sched.events", (sched.scheduled as f64 * scale_up).round());
    put("sched.ns_per_event", sched.cost.ns_per_op());
    put(
        "sched.cancel_frac",
        ratio(sched.cancelled as f64, sched.scheduled as f64),
    );
    // Events the natively booted system emits (0 when it is dark).
    put("trace.events", c.trace_events as f64);
    put(
        "trace.events_per_fault",
        ratio(lit_events as f64, run.faults() as f64),
    );
    put("trace.emit_ns_per_event", emit.ns_per_op());
    put(
        "trace.diff_ns_per_event",
        ratio((arms.lit_s - arms.dark_s) * 1e9, lit_events as f64),
    );
    put("profiler.ns_per_event", profiler_extra);
    put("causal.ns_per_event", causal_extra);
    put("pt.ns_per_op", pt.ns_per_op());
    put("frames.ns_per_op", frames.ns_per_op());
    put("lru.ns_per_op", lru.ns_per_op());
    put(
        "cluster.port_ns_per_verb",
        minus(shared_port, exclusive_port),
    );
    put(
        "cluster.qos_ns_per_transfer",
        shaped.map_or(0.0, |s| minus(s, fcfs)),
    );
    put(
        "bench.span_overhead_frac",
        ratio(spanned_cpu_s, native_cpu_s) - 1.0,
    );
    put("bench.replay_window_events", win.len() as f64);
    put(
        "bench.spans_account_frac",
        ratio(calls.covered_ns() as f64, spanned.timed.wall_s * 1e9),
    );
    put(
        "bench.untraced_ops_per_s",
        ratio(run.ops as f64, native_cpu_s),
    );

    let store_matches = capture_all.then(|| {
        let (replayed, _) = replay::replay_store(&accesses, node, false);
        let pages = replayed.page_numbers();
        pages == node.resident_page_numbers()
            && pages
                .iter()
                .all(|&p| replayed.snapshot(p) == node.page_snapshot(p))
    });
    let (ep_reads, ep_writes, ep_bytes, _) = workloads::endpoint_counts(&view.endpoint);
    let conserved = Conserved {
        digest: (sink.digest(), captured.out.digest),
        verbs: (rdma.ops, ep_reads + ep_writes),
        wire_bytes: (replay::wire_bytes(&win), ep_bytes),
        store_matches,
    };
    let fingerprint = fingerprint_hex(run, native_traced);
    drop(view);
    Layers {
        values,
        spans,
        calls,
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprint,
        dark_equals_lit,
        conserved,
    }
}

impl Layers {
    /// Flattens to the run's printed form. A layer the workload does not
    /// exercise reports 0.
    pub fn report(&self, name: &str, seed: u64) -> RunReport {
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect();
        RunReport {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            detail: Json::obj([
                ("workload", Json::str(name)),
                ("seed", Json::Num(seed as f64)),
                ("sim_fingerprint", Json::str(&self.fingerprint)),
                ("dark_equals_lit", Json::Bool(self.dark_equals_lit)),
                ("window_conserved", self.conserved.to_json()),
                ("host_clock", Json::str(host_clock_name())),
            ]),
        }
    }
}
