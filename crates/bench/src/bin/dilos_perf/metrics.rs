//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and per-layer metrics with the end-to-end metric each is
//! expected to move. `BENCHMARK.json` at the repository root lists the same
//! names; a unit test keeps the two in step.

/// How long one run measures when `--seconds` is not given (and the
/// `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "seq_fault",
        why: "untraced sequential 8 B reads over sparse pages at 13 % local: fault handler, readahead, rdma read path, sched and frames do the work; trace and apps do none",
    },
    WorkloadInfo {
        name: "seq_fault_traced",
        why: "same inputs as seq_fault booted with tracing: differs by trace emit and digest fold only, and pins the trace digest",
    },
    WorkloadInfo {
        name: "fastswap_seq",
        why: "the Fastswap baseline on the same region: the only workload on baselines::fastswap and lru; guards the paper's DiLOS-over-Fastswap ordering",
    },
    WorkloadInfo {
        name: "rand_rw",
        why: "uniform random 8 B accesses, 30 % writes, over fully non-zero pages: dirty write-backs, full-page copies, pt leaf-cache misses and mostly wasted readahead",
    },
    WorkloadInfo {
        name: "sort_hit",
        why: "quicksort at 25 % local where over 99.9 % of calls hit: pt walk, TLB, frame bytes, the dyn FarMemory boundary and apps self time; the fault path is idle",
    },
    WorkloadInfo {
        name: "kv_guided",
        why: "Redis-like store with guided paging, DEL 70 % then GET survivors: alloc bitmaps, guides and the vectored sub-page verbs do the work",
    },
    WorkloadInfo {
        name: "serve_qos",
        why: "three tenants on one pool with QoS: open-loop victims and a closed-loop scanner exercise cluster ports, the fabric shaper and arrival-driven tail latency",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether the value is a virtual-clock quantity that must repeat
    /// exactly for one seed.
    pub simulated: bool,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
        meaning: "on-CPU seconds to boot, populate and warm one instance (fastest of the run)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
        meaning: "requests retired per on-CPU second of the timed region",
    },
    EndToEnd {
        name: "faults_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
        meaning: "simulated major+minor demand faults per on-CPU second",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
        meaning: "VmHWM of the measuring process",
    },
    EndToEnd {
        name: "sim_makespan_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.12,
        simulated: true,
        meaning: "virtual time the timed region took (max over tenants)",
    },
    EndToEnd {
        name: "sim_req_mean_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.03,
        simulated: true,
        meaning: "virtual request latency, mean",
    },
    EndToEnd {
        name: "sim_net_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
        meaning: "bytes on the modelled wire, both directions",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 54] = [
    // Virtual-clock percentiles of the request latency. They live here and
    // not among the end-to-end metrics because the model's latencies are
    // quantised (a hit is 4 or 34 ns, a fault 2 822 ns), so on most
    // workloads a percentile is the same number for every seed; unit `vns`
    // = virtual nanoseconds.
    layer("sim_req_p50_ns", "vns", Lower, "sim_req_mean_ns on all"),
    layer(
        "sim_req_p99_ns",
        "vns",
        Lower,
        "sim_req_mean_ns on kv_guided, serve_qos",
    ),
    layer(
        "sim_req_p999_ns",
        "vns",
        Lower,
        "sim_req_mean_ns on serve_qos (queueing tail)",
    ),
    layer(
        "apps.self_ns_per_op",
        "ns",
        Lower,
        "ops_per_s on sort_hit, kv_guided",
    ),
    layer("node.calls", "count", Lower, "ops_per_s on sort_hit"),
    layer("node.hit_calls", "count", Higher, "ops_per_s on sort_hit"),
    layer(
        "node.fault_calls",
        "count",
        Lower,
        "faults_per_s on seq_fault, rand_rw",
    ),
    layer("node.hit_ns_per_call", "ns", Lower, "ops_per_s on sort_hit"),
    layer(
        "node.fault_ns_per_call",
        "ns",
        Lower,
        "faults_per_s on seq_fault, rand_rw",
    ),
    layer(
        "node.self_ns_per_fault",
        "ns",
        Lower,
        "faults_per_s on seq_fault, rand_rw",
    ),
    layer(
        "fastswap.hit_ns_per_call",
        "ns",
        Lower,
        "ops_per_s on fastswap_seq",
    ),
    layer(
        "fastswap.fault_ns_per_call",
        "ns",
        Lower,
        "faults_per_s on fastswap_seq",
    ),
    layer(
        "fastswap.self_ns_per_fault",
        "ns",
        Lower,
        "faults_per_s on fastswap_seq",
    ),
    layer(
        "node.major_faults",
        "count",
        Lower,
        "sim_makespan_ms, sim_net_mib on all",
    ),
    layer(
        "node.minor_faults",
        "count",
        Lower,
        "sim_makespan_ms on all",
    ),
    layer("node.evictions", "count", Lower, "sim_net_mib on all"),
    layer(
        "node.writebacks",
        "count",
        Lower,
        "sim_net_mib on rand_rw, kv_guided",
    ),
    layer(
        "prefetch.issued",
        "count",
        Lower,
        "sim_net_mib on seq_fault, rand_rw",
    ),
    layer(
        "prefetch.useful_frac",
        "ratio",
        Higher,
        "sim_req_mean_ns on seq_fault (useful) vs rand_rw (wasted)",
    ),
    layer(
        "prefetch.ns_per_fault",
        "ns",
        Lower,
        "faults_per_s on seq_fault",
    ),
    layer("guide.invokes", "count", Lower, "sim_net_mib on kv_guided"),
    layer("guide.ns_per_invoke", "ns", Lower, "ops_per_s on kv_guided"),
    layer(
        "guide.bytes_saved",
        "bytes",
        Higher,
        "sim_net_mib on kv_guided",
    ),
    layer("alloc.ns_per_op", "ns", Lower, "ops_per_s on kv_guided"),
    layer("rdma.reads", "count", Lower, "sim_net_mib on all"),
    layer(
        "rdma.writes",
        "count",
        Lower,
        "sim_net_mib on rand_rw, kv_guided",
    ),
    layer(
        "rdma.bytes_per_verb",
        "bytes",
        Lower,
        "sim_net_mib on kv_guided (vectored)",
    ),
    layer(
        "rdma.ns_per_verb",
        "ns",
        Lower,
        "faults_per_s on seq_fault, rand_rw, kv_guided",
    ),
    layer(
        "rdma.self_ns_per_verb",
        "ns",
        Lower,
        "faults_per_s on seq_fault, rand_rw, kv_guided",
    ),
    layer("fabric.transfers", "count", Lower, "sim_net_mib on all"),
    layer(
        "fabric.ns_per_transfer",
        "ns",
        Lower,
        "faults_per_s on seq_fault",
    ),
    layer(
        "fabric.link_util",
        "ratio",
        Lower,
        "sim_req_p999_ns on serve_qos",
    ),
    layer(
        "memnode.ns_per_access",
        "ns",
        Lower,
        "faults_per_s on rand_rw vs seq_fault",
    ),
    layer(
        "store.read_ns_per_page",
        "ns",
        Lower,
        "faults_per_s on rand_rw (full pages) vs seq_fault (sparse)",
    ),
    layer(
        "store.write_ns_per_page",
        "ns",
        Lower,
        "faults_per_s on rand_rw",
    ),
    layer(
        "store.live_bytes_per_page",
        "bytes",
        Lower,
        "faults_per_s on rand_rw vs seq_fault",
    ),
    layer(
        "sched.events",
        "count",
        Lower,
        "faults_per_s on seq_fault, serve_qos",
    ),
    layer(
        "sched.ns_per_event",
        "ns",
        Lower,
        "faults_per_s on seq_fault, serve_qos",
    ),
    layer(
        "sched.cancel_frac",
        "ratio",
        Lower,
        "faults_per_s on seq_fault",
    ),
    layer(
        "trace.events",
        "count",
        Lower,
        "faults_per_s on seq_fault_traced, fastswap_seq, serve_qos",
    ),
    layer(
        "trace.events_per_fault",
        "ratio",
        Lower,
        "faults_per_s on the traced workloads",
    ),
    layer(
        "trace.emit_ns_per_event",
        "ns",
        Lower,
        "faults_per_s on the traced workloads; no change on the untraced four",
    ),
    layer(
        "trace.diff_ns_per_event",
        "ns",
        Lower,
        "faults_per_s on the traced workloads; no change on the untraced four",
    ),
    layer(
        "profiler.ns_per_event",
        "ns",
        Lower,
        "none here: host cost of repro --metrics",
    ),
    layer(
        "causal.ns_per_event",
        "ns",
        Lower,
        "none here: host cost of repro --timeline",
    ),
    layer(
        "pt.ns_per_op",
        "ns",
        Lower,
        "ops_per_s on sort_hit; faults_per_s on rand_rw",
    ),
    layer("frames.ns_per_op", "ns", Lower, "faults_per_s on rand_rw"),
    layer(
        "lru.ns_per_op",
        "ns",
        Lower,
        "faults_per_s on fastswap_seq; ops_per_s on sort_hit",
    ),
    layer(
        "cluster.port_ns_per_verb",
        "ns",
        Lower,
        "faults_per_s on serve_qos",
    ),
    layer(
        "cluster.qos_ns_per_transfer",
        "ns",
        Lower,
        "faults_per_s on serve_qos",
    ),
    layer(
        "bench.span_overhead_frac",
        "ratio",
        Lower,
        "none: cost of the benchmark's own spans",
    ),
    layer(
        "bench.replay_window_events",
        "count",
        Higher,
        "none: size of the replayed event window",
    ),
    layer(
        "bench.spans_account_frac",
        "ratio",
        Higher,
        "none: share of the layers run's timed on-CPU time the call and apps spans cover",
    ),
    layer(
        "bench.untraced_ops_per_s",
        "1/s",
        Higher,
        "none: the spans-off rate the overhead is measured against",
    ),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}
