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
//! digests recorded here are that table's. The observers hand out data and
//! [`JsonWriter`] renders it: same seed and scale produce byte-identical
//! files, so CI can `cmp` two runs.

use std::fmt::Write as _;
use std::io;

use dilos_apps::farmem::SystemKind;
use dilos_sim::{LatencyHistogram, Observability, SAMPLE_INTERVAL_NS};

use crate::json::{
    self, JsonWriter,
    Layout::{Broken, Inline},
};
use crate::table::{us, Report};

/// One metered tab01 system: `(id, kind, the bundle it ran under)`. The id
/// is the JSON key and the folded-stack prefix.
type Metered = (&'static str, SystemKind, Observability);

/// Writes an inline array of integers.
fn uints<W: io::Write>(w: &mut JsonWriter<W>, values: &[u64]) {
    w.array(Inline, |w| values.iter().for_each(|v| w.uint(*v)));
}

/// Writes one member per quantile of `h`: `"p50": …`, `"p99": …`.
fn quantiles<W: io::Write>(w: &mut JsonWriter<W>, h: &LatencyHistogram, qs: &[(&str, f64)]) {
    for (key, q) in qs {
        w.key(key).uint(h.quantile(*q));
    }
}

/// Renders `metrics.json`: per-system fault counts (the profiler's
/// completed spans per kind), counters with their lanes, final gauges,
/// fault-latency histograms — summary statistics plus the occupied buckets
/// (`[low_ns, high_ns, count]`, bounds inclusive) so a consumer can re-plot
/// the distribution — and per-phase latency quantiles.
pub fn metrics_json<W: io::Write>(w: &mut JsonWriter<W>, systems: &[Metered]) {
    w.object(Broken, |w| {
        for (id, kind, obs) in systems {
            let p = obs.profiler();
            w.key(id).object(Broken, |w| {
                w.key("label").string(kind.label());
                w.key("digest").hex(obs.trace().digest());
                for kind in ["major", "minor", "zero_fill"] {
                    w.key(kind).uint(p.fault_count(kind));
                }
                w.key("counters").object(Broken, |w| {
                    for (name, lanes) in p.counters() {
                        uints(w.key(name), &lanes);
                    }
                });
                w.key("gauges").object(Broken, |w| {
                    for (name, value) in obs.metrics().gauges() {
                        w.key(name).uint(value);
                    }
                });
                w.key("histograms").object(Broken, |w| {
                    for (kind, h) in p.histograms() {
                        w.key(kind).object(Inline, |w| {
                            w.key("count").uint(h.count());
                            w.key("sum").uint(h.sum());
                            w.key("mean").uint(h.mean());
                            w.key("min").uint(h.min());
                            w.key("max").uint(h.max());
                            quantiles(w, &h, &[("p50", 0.50), ("p99", 0.99), ("p999", 0.999)]);
                            w.key("buckets").array(Inline, |w| {
                                for (lo, hi, n) in h.nonzero_buckets() {
                                    uints(w, &[lo, hi, n]);
                                }
                            });
                        });
                    }
                });
                w.key("phase_quantiles").object(Broken, |w| {
                    for (phase, h) in p.phase_histograms() {
                        w.key(phase).object(Inline, |w| {
                            w.key("count").uint(h.count());
                            let qs = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];
                            quantiles(w, &h, &qs);
                        });
                    }
                });
            });
        }
    });
}

/// Renders `timeseries.json`: per-system sampler output, each series an
/// array of `[t_ns, value]` points.
pub fn timeseries_json<W: io::Write>(w: &mut JsonWriter<W>, systems: &[Metered]) {
    w.object(Broken, |w| {
        for (id, _, obs) in systems {
            let m = obs.metrics();
            w.key(id).object(Broken, |w| {
                w.key("interval_ns").uint(SAMPLE_INTERVAL_NS);
                w.key("samples").uint(m.samples());
                w.key("series").object(Broken, |w| {
                    for (name, points) in m.series() {
                        w.key(name).array(Inline, |w| {
                            for (t, v) in points {
                                uints(w, &[t, v]);
                            }
                        });
                    }
                });
            });
        }
    });
}

/// Renders `profile.folded`: all systems' folded stacks concatenated, each
/// line prefixed `id;`.
pub fn profile_folded(systems: &[Metered]) -> String {
    let mut out = String::new();
    for (id, _, obs) in systems {
        for (stack, ns) in obs.profiler().folded() {
            let _ = writeln!(out, "{id};{stack} {ns}");
        }
    }
    out
}

/// Writes the three artifacts under `out_dir` and returns a human summary
/// table.
pub fn write_artifacts(systems: &[Metered], out_dir: &str) -> std::io::Result<Report> {
    json::write_file(&format!("{out_dir}/metrics.json"), |w| {
        metrics_json(w, systems)
    })?;
    json::write_file(&format!("{out_dir}/timeseries.json"), |w| {
        timeseries_json(w, systems)
    })?;
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
        let hists = p.histograms();
        let major = hists.iter().find(|(kind, _)| *kind == "major");
        report.row(vec![
            kind.label().to_string(),
            p.fault_count("major").to_string(),
            p.fault_count("minor").to_string(),
            p.fault_count("zero_fill").to_string(),
            obs.metrics().samples().to_string(),
            us(major.map_or(0, |(_, h)| h.quantile(0.99))),
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
        let render = |systems: &[Metered]| {
            (
                json::document(|w| metrics_json(w, systems)),
                json::document(|w| timeseries_json(w, systems)),
                profile_folded(systems),
            )
        };
        let a = metered();
        let (metrics, series, folded) = render(&a);
        assert_eq!((metrics.clone(), series, folded), render(&metered()));
        // Sanity: the JSON opens and closes as an object and names every
        // system.
        assert!(metrics.starts_with("{\n") && metrics.ends_with("}\n"));
        for (id, ..) in &a {
            assert!(metrics.contains(&format!("\"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn metrics_json_carries_histograms_and_phase_quantiles() {
        let systems = metered();
        let m = json::document(|w| metrics_json(w, &systems));
        for (id, _, obs) in &systems {
            let p = obs.profiler();
            let (kind, h) = &p.histograms()[0];
            assert_eq!(*kind, "major");
            let (lo, hi, n) = h.nonzero_buckets()[0];
            let line = format!(
                "\"major\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
                 \"buckets\": [[{lo}, {hi}, {n}]",
                h.count(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
            );
            assert!(m.contains(&line), "{id}: {line} missing");
            let phases = p.phase_histograms();
            // Baselines do not emit FaultPhase events; their object is
            // empty but present.
            assert_eq!(phases.is_empty(), *id == "fastswap", "{id}");
            assert_eq!(
                phases.iter().any(|(name, _)| *name == "fetch"),
                *id != "fastswap"
            );
            for (phase, h) in phases {
                let line = format!(
                    "\"{phase}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"p999\": {}}}",
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.quantile(0.999),
                );
                assert!(m.contains(&line), "{id}: {line} missing");
            }
        }
        assert_eq!(m.matches("\"phase_quantiles\": {").count(), systems.len());
        assert!(m.contains("\"phase_quantiles\": {}"));
    }
}
