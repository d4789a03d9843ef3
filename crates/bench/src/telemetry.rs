//! Telemetry rendering for `repro --metrics`.
//!
//! Renders the bundles a metered tab01 run hands back (Fastswap plus the
//! three DiLOS prefetcher configurations, see
//! [`tab01_tab03_fault_counts`](crate::micro::tab01_tab03_fault_counts))
//! into three artifacts:
//!
//! * `metrics.json` — per-system counters, final gauges, and fault-latency
//!   histograms (with quantiles and bucket boundaries),
//! * `timeseries.json` — per-system virtual-time gauge series from the
//!   arithmetic sampler,
//! * `profile.folded` — merged folded stacks (`system;core;span value`) in
//!   the format `flamegraph.pl` and inferno consume directly.
//!
//! Nothing here boots a system: every number is read from the registry and
//! the profiler of the run the tab01 table was computed from, so the
//! digests recorded here are that table's. Everything is hand-rolled,
//! byte-stable JSON: same seed and scale produce byte-identical files, so
//! CI can `cmp` two runs.

use std::fmt::Write as _;

use dilos_apps::farmem::SystemKind;
use dilos_sim::{Observability, SAMPLE_INTERVAL_NS};

use crate::table::{us, Report};

/// One metered tab01 system: `(id, kind, the bundle it ran under)`. The id
/// is the JSON key and the folded-stack prefix.
type Metered = (&'static str, SystemKind, Observability);

/// Indents every line of a JSON fragment after the first by `pad` spaces.
fn indent(json: &str, pad: usize) -> String {
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            for _ in 0..pad {
                out.push(' ');
            }
        }
        out.push_str(line);
    }
    out
}

/// Renders `metrics.json`: per-system counters, gauges, and histograms.
/// Fault counts are the profiler's completed spans per kind.
pub fn metrics_json(systems: &[Metered]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, kind, obs)) in systems.iter().enumerate() {
        let p = obs.profiler();
        let _ = write!(
            out,
            "  \"{id}\": {{\n    \"label\": \"{}\",\n    \"digest\": \"{:#018x}\",\n    \
             \"major\": {},\n    \"minor\": {},\n    \"zero_fill\": {},\n    \
             \"counters\": {},\n    \"gauges\": {},\n    \"histograms\": {},\n    \
             \"phase_quantiles\": {}\n  }}",
            kind.label(),
            obs.trace().digest(),
            p.fault_count("major"),
            p.fault_count("minor"),
            p.fault_count("zero_fill"),
            indent(&p.counters_json(), 4),
            indent(&obs.metrics().gauges_json(), 4),
            indent(&p.histograms_json(), 4),
            indent(&p.phase_quantiles_json(), 4),
        );
        out.push_str(if i + 1 < systems.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders `timeseries.json`: per-system sampler output.
pub fn timeseries_json(systems: &[Metered]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, _, obs)) in systems.iter().enumerate() {
        let m = obs.metrics();
        let _ = write!(
            out,
            "  \"{id}\": {{\n    \"interval_ns\": {SAMPLE_INTERVAL_NS},\n    \
             \"samples\": {},\n    \"series\": {}\n  }}",
            m.samples(),
            indent(&m.series_json(), 4),
        );
        out.push_str(if i + 1 < systems.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders `profile.folded`: all systems' folded stacks concatenated, each
/// line prefixed `id;`.
pub fn profile_folded(systems: &[Metered]) -> String {
    let mut out = String::new();
    for (id, _, obs) in systems {
        for line in obs.profiler().folded().lines() {
            let _ = writeln!(out, "{id};{line}");
        }
    }
    out
}

/// Writes the three artifacts under `out_dir` and returns a human summary
/// table.
pub fn write_artifacts(systems: &[Metered], out_dir: &str) -> std::io::Result<Report> {
    std::fs::write(format!("{out_dir}/metrics.json"), metrics_json(systems))?;
    std::fs::write(
        format!("{out_dir}/timeseries.json"),
        timeseries_json(systems),
    )?;
    std::fs::write(format!("{out_dir}/profile.folded"), profile_folded(systems))?;
    let mut report = Report::new(
        "Telemetry — metered sequential read (tab01 systems)",
        &[
            "system",
            "major",
            "minor",
            "zero-fill",
            "samples",
            "p99 major (µs)",
        ],
    );
    for (_, kind, obs) in systems {
        let p = obs.profiler();
        report.row(vec![
            kind.label().to_string(),
            p.fault_count("major").to_string(),
            p.fault_count("minor").to_string(),
            p.fault_count("zero_fill").to_string(),
            obs.metrics().samples().to_string(),
            us(p.histogram("major").map_or(0, |h| h.quantile(0.99))),
        ]);
        report.digest(kind.label(), obs.trace().digest());
    }
    report.note(format!(
        "Artifacts: {out_dir}/metrics.json, {out_dir}/timeseries.json, {out_dir}/profile.folded."
    ));
    report.note("Render the profile with: inferno-flamegraph < results/profile.folded > flame.svg");
    report.note("Read from the tab01 run itself: metrics are pure observers, nothing re-boots.");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{tab01_tab03_fault_counts, MicroScale};

    /// The bundles of one metered tab01 run at test scale.
    fn metered() -> Vec<Metered> {
        let tiny = MicroScale {
            pages: 256,
            ratio: 25,
        };
        tab01_tab03_fault_counts(tiny, Observability::full).1
    }

    #[test]
    fn the_tab01_run_meters_every_system() {
        let systems = metered();
        assert_eq!(systems.len(), 4);
        let folded = profile_folded(&systems);
        for (id, _, obs) in &systems {
            assert!(obs.metrics().samples() > 0, "{id}: no sampler ticks");
            assert!(
                obs.profiler().fault_count("major") > 0,
                "{id}: no major faults"
            );
            assert!(
                folded.lines().any(|l| l.starts_with(id)),
                "{id}: no folded stacks"
            );
            assert_ne!(obs.trace().digest(), 0, "{id}: digest missing");
        }
        assert!(folded
            .lines()
            .all(|l| systems.iter().any(|(id, ..)| l.starts_with(id))));
    }

    #[test]
    fn artifacts_are_byte_stable() {
        let a = metered();
        let b = metered();
        assert_eq!(metrics_json(&a), metrics_json(&b));
        assert_eq!(timeseries_json(&a), timeseries_json(&b));
        assert_eq!(profile_folded(&a), profile_folded(&b));
        // Sanity: the JSON opens and closes as an object and names every
        // system.
        let m = metrics_json(&a);
        assert!(m.starts_with("{\n") && m.ends_with("}\n"));
        for (id, ..) in &a {
            assert!(m.contains(&format!("\"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn metrics_json_carries_phase_quantiles() {
        let systems = metered();
        let m = metrics_json(&systems);
        assert!(m.contains("\"phase_quantiles\": {"));
        for (id, _, obs) in &systems {
            let quantiles = obs.profiler().phase_quantiles_json();
            if *id == "fastswap" {
                // Baselines do not emit FaultPhase events; their object is
                // empty but present.
                assert_eq!(quantiles, "{}", "{id}");
                continue;
            }
            assert!(
                quantiles.contains("\"fetch\""),
                "{id}: fetch phase missing from {quantiles}"
            );
            assert!(quantiles.contains("\"p999\""), "{id}");
        }
    }
}
