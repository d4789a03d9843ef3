//! A full set (`dilos_perf --seed 1 --reps 5`) and the comparison of two
//! sets (`dilos_perf compare a.json b.json`).
//!
//! A set runs every workload `reps` times with spans off — round-robin over
//! workloads, so a burst of interference cannot land on every repetition of
//! one workload — then once more each as the layers run. Every repetition
//! is a fresh child process of this binary in its single-run mode, so
//! `peak_rss_mib` is per workload and no allocator state carries over.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::quant::{quartiles, spread};

/// A repetition whose wall time exceeds its on-CPU time by more than this
/// was preempted for a noticeable share of its run.
const PREEMPTED: f64 = 1.10;

struct Child {
    result: Json,
    detail: Json,
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or(format!("{workload}: printed nothing"))?;
    let detail = lines.next().unwrap_or("null");
    if !out.status.success() {
        eprintln!("{workload}: exited with {}", out.status);
    }
    Ok(Child {
        result: Json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
        detail: Json::parse(detail).unwrap_or(Json::Null),
    })
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .map(|m| {
            m.entries()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn summary(values: &[f64], unit: &str) -> Json {
    let (q1, med, q3) = quartiles(values);
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
        ("spread", Json::Num(spread(values))),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// What a set accumulates for one workload.
#[derive(Default)]
struct Acc {
    /// End-to-end values, one per repetition, by metric name.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Layer values from the layers run.
    layers: BTreeMap<String, f64>,
    fingerprints: BTreeSet<String>,
    attempted: f64,
    failed: f64,
    latency_samples: f64,
    /// Per repetition, the `wall_over_cpu` of each of its instances.
    wall_over_cpu: Vec<Json>,
    paper: Json,
}

impl Acc {
    /// Folds one child run in; returns whether it was correct.
    fn add(&mut self, child: &Child, layers_run: bool) -> bool {
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += num(&child.result, "attempted");
        self.failed += num(&child.result, "failed");
        if let Some(fp) = child.detail.get("sim_fingerprint").and_then(Json::as_str) {
            self.fingerprints.insert(fp.into());
        }
        let values = metric_values(&child.result);
        if layers_run {
            self.layers = values;
        } else {
            for (k, v) in values {
                self.metrics.entry(k).or_default().push(v);
            }
            self.latency_samples = num(&child.detail, "latency_samples");
            self.wall_over_cpu
                .extend(child.detail.get("wall_over_cpu").cloned());
            self.paper = child.detail.get("paper_ref").cloned().unwrap_or(Json::Null);
        }
        child.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Runs a full set, prints it, writes it to `out`, and returns whether
/// every correctness check passed.
pub fn run_set(seed: u64, reps: usize, seconds: u64, out: &str) -> bool {
    let mut ok = true;
    let mut accs: BTreeMap<&str, Acc> = BTreeMap::new();
    // Round-robin over workloads, then each workload's layers run.
    let plan = (0..reps)
        .flat_map(|rep| WORKLOADS.iter().map(move |w| (w.name, rep, 0u8)))
        .chain(WORKLOADS.iter().map(|w| (w.name, 0, 1u8)));
    for (name, rep, trace) in plan {
        if trace == 0 {
            eprintln!("rep {}/{reps}: {name}", rep + 1);
        } else {
            eprintln!("layers run: {name}");
        }
        match run_child(name, seed, seconds, trace) {
            Ok(child) => ok &= accs.entry(name).or_default().add(&child, trace == 1),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }

    // The paper's ordering (Table 2): DiLOS with readahead finishes a
    // sequential pass sooner than Fastswap does.
    let per_pass = |w: &str, passes: u32| {
        let ms = accs.get(w)?.metrics.get("sim_makespan_ms")?.first()?;
        Some(ms / f64::from(passes))
    };
    let scale = crate::workloads::Scale::FULL;
    let ordering = match (
        per_pass("seq_fault", scale.seq_passes),
        per_pass("fastswap_seq", scale.fastswap_passes),
    ) {
        (Some(d), Some(f)) => d < f,
        _ => false,
    };
    ok &= ordering;

    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let acc = accs.remove(w.name).unwrap_or_default();
        let stable = acc.fingerprints.len() == 1;
        ok &= stable;
        let metrics = END_TO_END.iter().filter_map(|m| {
            let values = acc.metrics.get(m.name)?;
            Some((m.name, summary(values, m.unit)))
        });
        let layer_metrics = PER_LAYER.iter().filter_map(|m| {
            let v = acc.layers.get(m.name)?;
            Some((
                m.name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
            ))
        });
        workloads_json.push((
            w.name,
            Json::obj([
                (
                    "sim_fingerprint",
                    Json::Arr(acc.fingerprints.iter().map(Json::str).collect()),
                ),
                ("sim_fingerprint_stable", Json::Bool(stable)),
                ("ops_attempted", Json::Num(acc.attempted)),
                ("ops_failed", Json::Num(acc.failed)),
                ("latency_samples", Json::Num(acc.latency_samples)),
                ("wall_over_cpu", Json::Arr(acc.wall_over_cpu)),
                ("paper_ref", acc.paper),
                ("end_to_end", Json::obj(metrics)),
                ("per_layer", Json::obj(layer_metrics)),
            ]),
        ));
    }
    let set = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("dilos_faster_than_fastswap_per_pass", Json::Bool(ordering)),
        ("all_checks_passed", Json::Bool(ok)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    print_set(&set);
    let text = set.pretty();
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, &text) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ok = false;
        }
    }
    ok
}

fn print_set(set: &Json) {
    for (name, w) in set.get("workloads").map_or(&[][..], Json::entries) {
        let fps: Vec<&str> = w
            .get("sim_fingerprint")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let why = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map_or("", |w| w.why);
        println!("\n{name} — {why}");
        println!(
            "  ops_attempted {} ops_failed {} sim_fingerprint {}",
            w.get("ops_attempted").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0),
            fps.join(" != "),
        );
        match w.get("paper_ref") {
            Some(p @ Json::Obj(_)) => println!("  paper_ref {}", p.render()),
            _ => println!("  \"paper_ref\": null (model unvalidated on this workload)"),
        }
        println!(
            "  {:<18} {:>5} {:>16} {:>16} {:>16} {:>3} {:>7}  better (bound): meaning",
            "end-to-end metric", "unit", "median", "q1", "q3", "n", "spread"
        );
        for m in &END_TO_END {
            let Some(s) = w.get("end_to_end").and_then(|e| e.get(m.name)) else {
                continue;
            };
            let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  {:<18} {:>5} {:>16.4} {:>16.4} {:>16.4} {:>3} {:>7.4}  {} ({}): {}",
                m.name,
                m.unit,
                f("median"),
                f("q1"),
                f("q3"),
                f("n"),
                f("spread"),
                m.better.label(),
                m.bound,
                m.meaning,
            );
        }
        println!(
            "  {:<30} {:>6} {:>16}  better; should move",
            "layer metric", "unit", "value"
        );
        for m in &PER_LAYER {
            let value = w
                .get("per_layer")
                .and_then(|l| l.get(m.name)?.get("value")?.as_f64())
                .unwrap_or(0.0);
            if value != 0.0 {
                println!(
                    "  {:<30} {:>6} {:>16.4}  {}; {}",
                    m.name,
                    m.unit,
                    value,
                    m.better.label(),
                    m.moves
                );
            }
        }
    }
    let flag = |k: &str| set.get(k).and_then(Json::as_bool).unwrap_or(false);
    println!(
        "\nDiLOS per-pass makespan below Fastswap's (Table 2 ordering): {}",
        flag("dilos_faster_than_fastswap_per_pass")
    );
    println!(
        "all correctness checks passed: {}",
        flag("all_checks_passed")
    );
}

/// Verdict on one (workload, metric) pair of two sets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread wider than the bound: the sets cannot tell.
    Unresolved,
}

/// Applies a metric's bound and the quartile-spread rule to two samples.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (_, ma, _) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let noise = spread(a).max(spread(b));
    if noise > bound {
        return Verdict::Unresolved;
    }
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = b is worse than a, as a share of a's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -noise.max(f64::EPSILON) && worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Compares set `b` (the change) against set `a` (the parent). Returns
/// whether `b` is acceptable: nothing regressed or unresolved, and no
/// simulated statistic or failed share moved outside `expect_sim_change`.
pub fn compare(a_path: &str, b_path: &str, expect_sim_change: &[String]) -> bool {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .unwrap_or_else(|e| {
                eprintln!("{p}: {e}");
                std::process::exit(2);
            })
    };
    let (a, b) = (load(a_path), load(b_path));
    let mut ok = true;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread"
    );
    for w in &WORKLOADS {
        let expected = expect_sim_change.iter().any(|n| n == w.name);
        for m in &END_TO_END {
            let (va, vb) = (values_of(&a, w.name, m.name), values_of(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<18} {:<18} missing in one set", w.name, m.name);
                ok = false;
                continue;
            }
            let mut v = verdict(&va, &vb, m.better, m.bound);
            if m.simulated && expected && v != Verdict::Unchanged {
                // Announced beforehand: reported, not judged.
                v = Verdict::Unchanged;
            }
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let label = match v {
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            *counts.entry(label).or_default() += 1;
            ok &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.4} {:>8.4}  {label}",
                w.name,
                m.name,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() },
                spread(&va).max(spread(&vb)),
            );
        }
        let field = |s: &Json, k: &str| {
            s.get("workloads")
                .and_then(|x| x.get(w.name))?
                .get(k)
                .cloned()
        };
        let fp = |s: &Json| field(s, "sim_fingerprint").map(|j| j.render());
        if fp(&a) != fp(&b) {
            println!(
                "{:<18} sim_fingerprint differs{}",
                w.name,
                if expected { " (expected)" } else { "" }
            );
            ok &= expected;
        }
        let failed_share = |s: &Json| {
            let n = |k: &str| field(s, k).and_then(|j| j.as_f64()).unwrap_or(0.0);
            n("ops_failed") / n("ops_attempted").max(1.0)
        };
        if failed_share(&a) != failed_share(&b) {
            println!(
                "{:<18} failed share differs: {} vs {}",
                w.name,
                failed_share(&a),
                failed_share(&b)
            );
            ok = false;
        }
        for (label, set) in [("a", &a), ("b", &b)] {
            let reps: Vec<f64> = field(set, "wall_over_cpu")
                .map(|j| {
                    j.as_arr()
                        .iter()
                        .flat_map(|rep| rep.as_arr().iter().filter_map(Json::as_f64))
                        .collect()
                })
                .unwrap_or_default();
            let preempted = reps.iter().filter(|&&r| r > PREEMPTED).count();
            let worst = reps.iter().copied().fold(0.0, f64::max);
            println!(
                "{:<18} wall_over_cpu[{label}]: {} instances, {preempted} preempted (>{PREEMPTED}), worst {worst:.3}",
                w.name,
                reps.len()
            );
        }
    }
    println!(
        "\n{}",
        counts
            .iter()
            .map(|(k, n)| format!("{n} {k}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("acceptable: {ok}");
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [111.0, 112.0, 110.0, 111.5, 110.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            verdict(&steady, &same, Better::Lower, 0.08),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.08),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Higher, 0.08),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&steady, &faster, Better::Lower, 0.08),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // Bit-identical simulated values never regress, whatever the bound.
        assert_eq!(
            verdict(&[5.0; 5], &[5.0; 5], Better::Lower, 0.005),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[5.0; 5], &[5.1; 5], Better::Lower, 0.005),
            Verdict::Regressed
        );
    }

    #[test]
    fn metric_names_are_within_the_contract_charset() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(ok(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        assert!(crate::metrics::is_workload("serve_qos"));
    }
}
