//! Microbenchmark experiments: Figures 1, 2, 6 and Tables 1, 2, 3.

use dilos_apps::farmem::{cache_sizing, Introspect, SystemKind, SystemSpec};
use dilos_apps::seqrw::SeqWorkload;
use dilos_baselines::{Fastswap, FastswapConfig};
use dilos_sim::{Observability, RdmaEndpoint, ServiceClass, SimConfig, PAGE_SIZE};

use crate::table::{f2, us, Report};

/// Scale factor: pages in the sequential region (the paper uses 20 GB /
/// 5.24 M pages; the default here keeps each run under a second).
#[derive(Debug, Clone, Copy)]
pub struct MicroScale {
    /// Region size in pages.
    pub pages: usize,
    /// Local cache ratio in percent (paper: 12.5).
    pub ratio: u32,
}

impl Default for MicroScale {
    fn default() -> Self {
        Self {
            pages: 4_096,
            ratio: 13,
        }
    }
}

fn fastswap_at(pages: usize, ratio: u32, offload_percent: u32, obs: Observability) -> Fastswap {
    let (local_pages, remote_bytes) = cache_sizing((pages * PAGE_SIZE) as u64, ratio);
    Fastswap::new(FastswapConfig {
        local_pages,
        remote_bytes,
        offload_percent,
        obs,
        ..FastswapConfig::default()
    })
}

/// Figure 1: Fastswap's page-fault latency breakdown, average vs
/// no-reclamation (all reclaim offloaded).
pub fn fig01_fastswap_breakdown(scale: MicroScale) -> Report {
    let mut report = Report::new(
        "Figure 1 — Fastswap page-fault latency breakdown (µs)",
        &[
            "config",
            "exception",
            "swap-cache",
            "page-alloc",
            "fetch",
            "reclaim",
            "map",
            "total",
        ],
    );
    for (label, offload) in [("average", 50u32), ("no reclamation", 100)] {
        let mut n = fastswap_at(scale.pages, scale.ratio, offload, Observability::none());
        let wl = SeqWorkload { pages: scale.pages };
        let base = wl.populate(&mut n);
        wl.read_pass(&mut n, base);
        let b = n.stats().breakdown;
        let phases = b.avg_phases();
        let mut row = vec![label.to_string()];
        row.extend(phases.iter().map(|&(_, v)| us(v)));
        row.push(us(b.avg_total()));
        report.row(row);
    }
    report.note("Paper: avg ≈ 6.3 µs with fetch 46 %, exception 9 %, reclaim 29 %.");
    report
}

/// Figure 2: raw one-sided RDMA latency vs object size.
pub fn fig02_rdma_latency() -> Report {
    let mut report = Report::new(
        "Figure 2 — RDMA latency (µs) for a range of object sizes",
        &["size", "read", "write"],
    );
    let mut ep = RdmaEndpoint::connect(SimConfig::default(), 1 << 26);
    let mut t = 0u64;
    for size in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let mut buf = vec![0u8; size];
        let r0 = t + 1_000_000; // Idle gaps between probes.
        let read_done = ep
            .read(r0, 0, ServiceClass::App, 0, &mut buf)
            .expect("probe read");
        let w0 = read_done + 1_000_000;
        let write_done = ep
            .write(w0, 0, ServiceClass::App, 0, &buf)
            .expect("probe write");
        t = write_done;
        report.row(vec![
            format!("{size}B"),
            us(read_done - r0),
            us(write_done - w0),
        ]);
    }
    report.note("Paper: 4 KB imposes only ~0.6 µs extra over 128 B.");
    report
}

/// The tab01 set, in table order. The id keys everything rendered from a
/// run of it: `metrics.json` objects, folded-stack prefixes, timeline
/// process names.
const TAB01: [(&str, SystemKind); 4] = [
    ("fastswap", SystemKind::Fastswap),
    ("dilos-noprefetch", SystemKind::DilosNoPrefetch),
    ("dilos-readahead", SystemKind::DilosReadahead),
    ("dilos-trend", SystemKind::DilosTrend),
];

/// Tables 1 & 3: page-fault counts during sequential read.
///
/// Every system boots under a fresh bundle from `arm` (an audited one makes
/// the run double as an invariant check). The bundles come back beside the
/// table as `(id, kind, bundle)` in table order, settled, so telemetry and
/// timelines are rendered from the run the table was computed from rather
/// than from a re-boot.
pub fn tab01_tab03_fault_counts(
    scale: MicroScale,
    arm: impl Fn() -> Observability,
) -> (Report, Vec<(&'static str, SystemKind, Observability)>) {
    let mut report = Report::new(
        "Tables 1 & 3 — page faults during sequential read",
        &["system", "major", "minor", "total", "pages"],
    );
    let ws = (scale.pages * PAGE_SIZE) as u64;
    let wl = SeqWorkload { pages: scale.pages };
    let mut runs = Vec::new();
    for (id, kind) in TAB01 {
        let obs = arm();
        let mut mem = SystemSpec::for_working_set(kind, ws, scale.ratio)
            .observed(obs.clone())
            .boot();
        let base = wl.populate(mem.as_mut());
        wl.read_pass(mem.as_mut(), base);
        let (major, minor) = mem.fault_counts();
        report.row(vec![
            kind.label().into(),
            major.to_string(),
            minor.to_string(),
            (major + minor).to_string(),
            scale.pages.to_string(),
        ]);
        let violations = mem.audit_report();
        // Digesting quiesces the system (which also flushes sampler ticks up
        // to the completion horizon), and the digest pins the exact event
        // stream this row was computed from.
        let digest = mem.trace_digest();
        report.digest(kind.label(), digest);
        // Only DiLOS carries an auditor; Fastswap has nothing to report.
        if obs.audit() && kind != SystemKind::Fastswap {
            report.note(format!(
                "{}: trace digest {digest:#018x}, audit {}",
                kind.label(),
                if violations.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} VIOLATIONS: {violations:?}", violations.len())
                }
            ));
        }
        runs.push((id, kind, obs));
    }
    report.note("Paper Table 1: Fastswap 12.5 % major / 87.5 % minor.");
    report.note("Paper Table 3: DiLOS prefetchers cut minors ~25 % vs Fastswap.");
    (report, runs)
}

/// Table 2: sequential read/write throughput (GB/s).
pub fn tab02_seq_throughput(scale: MicroScale) -> Report {
    let mut report = Report::new(
        "Table 2 — sequential read/write throughput (GB/s)",
        &["system", "read", "write"],
    );
    // Fastswap row.
    {
        let wl = SeqWorkload { pages: scale.pages };
        let mut n = fastswap_at(scale.pages, scale.ratio, 50, Observability::tracing());
        let base = wl.populate(&mut n);
        let r = wl.read_pass(&mut n, base);
        let mut n2 = fastswap_at(scale.pages, scale.ratio, 50, Observability::tracing());
        let base2 = wl.populate(&mut n2);
        let w = wl.write_pass(&mut n2, base2);
        report.row(vec!["Fastswap".into(), f2(r.gbps()), f2(w.gbps())]);
        report.digest("Fastswap (read)", n.trace_digest());
        report.digest("Fastswap (write)", n2.trace_digest());
    }
    for kind in [
        SystemKind::DilosNoPrefetch,
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
    ] {
        let ws = (scale.pages * PAGE_SIZE) as u64;
        let wl = SeqWorkload { pages: scale.pages };
        let mut mem = SystemSpec::for_working_set(kind, ws, scale.ratio)
            .observed(Observability::tracing())
            .boot();
        let base = wl.populate(mem.as_mut());
        let r = wl.read_pass(mem.as_mut(), base);
        let mut mem2 = SystemSpec::for_working_set(kind, ws, scale.ratio)
            .observed(Observability::tracing())
            .boot();
        let base2 = wl.populate(mem2.as_mut());
        let w = wl.write_pass(mem2.as_mut(), base2);
        report.row(vec![kind.label().into(), f2(r.gbps()), f2(w.gbps())]);
        report.digest(format!("{} (read)", kind.label()), mem.trace_digest());
        report.digest(format!("{} (write)", kind.label()), mem2.trace_digest());
    }
    report.note(
        "Paper: Fastswap 0.98/0.49; DiLOS none 1.24/1.14, readahead 3.74/3.49, trend 3.73/3.49.",
    );
    report
}

/// Figure 6: DiLOS vs Fastswap fault-latency breakdown on sequential read,
/// prefetch off for both.
pub fn fig06_latency_breakdown(scale: MicroScale) -> Report {
    let mut report = Report::new(
        "Figure 6 — fault latency breakdown, DiLOS vs Fastswap (µs)",
        &[
            "system",
            "exception",
            "software",
            "alloc/reclaim",
            "fetch",
            "map",
            "total",
        ],
    );
    {
        let mut n = fastswap_at(scale.pages, scale.ratio, 50, Observability::none());
        let wl = SeqWorkload { pages: scale.pages };
        let base = wl.populate(&mut n);
        wl.read_pass(&mut n, base);
        let b = n.stats().breakdown;
        let d = b.count.max(1);
        report.row(vec![
            "Fastswap".into(),
            us(b.exception / d),
            us((b.swap_cache + b.page_alloc) / d),
            us(b.reclaim / d),
            us(b.fetch / d),
            us(b.map / d),
            us(b.avg_total()),
        ]);
    }
    {
        let ws = (scale.pages * PAGE_SIZE) as u64;
        let wl = SeqWorkload { pages: scale.pages };
        let mut mem =
            SystemSpec::for_working_set(SystemKind::DilosNoPrefetch, ws, scale.ratio).boot();
        let base = wl.populate(mem.as_mut());
        wl.read_pass(mem.as_mut(), base);
        let b = mem.as_dilos().expect("DiLOS node").stats().breakdown;
        let d = b.count.max(1);
        report.row(vec![
            "DiLOS".into(),
            us(b.exception / d),
            us(b.check / d),
            us((b.alloc_wait + b.reclaim) / d),
            us(b.fetch / d),
            us(b.map / d),
            us(b.avg_total()),
        ]);
    }
    report.note("Paper: DiLOS cuts total fault latency ~49 %, reclaim time fully hidden.");
    report
}
