//! `dilos_perf` — the repository's benchmark: seven workloads, host and
//! modelled end-to-end metrics, and a per-layer ledger replayed from real
//! traffic. See `README.md` in this directory.
//!
//! ```text
//! dilos_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! dilos_perf [--seed <n>] [--reps <r>] [--seconds <s>] [--out <file>]   a full set
//! dilos_perf compare <a.json> <b.json> [--expect-sim-change <workload>]…
//! ```
//!
//! The last line a single run prints is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod capture;
mod clock;
mod driver;
mod json;
mod metrics;
mod quant;
mod replay;
mod spans;
mod suite;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

use workloads::Scale;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dilos_perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         dilos_perf [--seed <n>] [--reps <r>] [--seconds <s>] [--out <file>]\n  \
         dilos_perf compare <a.json> <b.json> [--expect-sim-change <workload>]...",
        metrics::workload_names().join("|")
    );
    ExitCode::from(2)
}

/// Where build outputs live: cargo's target directory when cargo told us,
/// `target/` under the current directory otherwise.
fn output_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("dilos_perf")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare_main(&args[1..]);
    }
    let mut workload: Option<String> = None;
    let (mut seed, mut reps, mut trace) = (1u64, 5usize, 0u8);
    let mut seconds = metrics::RUN_SECONDS;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                metrics::is_workload(value)
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--reps" => value.parse().map(|v| reps = v).is_ok_and(|()| reps > 0),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => value.parse().map(|v| trace = v).is_ok_and(|()| trace <= 1),
            "--out" => {
                out = Some(value.clone());
                true
            }
            _ => false,
        };
        if !parsed {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        let out = out.unwrap_or_else(|| {
            output_dir()
                .join(format!("set-seed{seed}.json"))
                .to_string_lossy()
                .into_owned()
        });
        return exit(suite::run_set(seed, reps, seconds, &out));
    };

    let report = if trace == 0 {
        driver::run_end_to_end(&workload, seed, seconds as f64, &Scale::FULL)
    } else {
        let layers = driver::run_layers(&workload, seed, seconds as f64, &Scale::FULL, false);
        let dir = output_dir();
        let path = dir.join(format!("spans-{workload}.json"));
        let text = layers.spans.to_json(&workload, &layers.calls).pretty();
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        layers.report(&workload, seed)
    };
    println!("{}", report.detail.render());
    println!("{}", report.result_line());
    exit(report.correct())
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut expected = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--expect-sim-change" {
            match it.next() {
                Some(w) if metrics::is_workload(w) => expected.push(w.clone()),
                _ => return usage(),
            }
        } else {
            files.push(a.as_str());
        }
    }
    let [a, b] = files[..] else {
        return usage();
    };
    exit(suite::compare(a, b, &expected))
}
