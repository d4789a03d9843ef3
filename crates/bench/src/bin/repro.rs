//! `repro` — regenerates every table and figure of the DiLOS paper.
//!
//! Usage:
//!
//! ```text
//! repro [--full] [--only <id>...] [--out <dir>] [--metrics] [--timeline]
//! ```
//!
//! Ids: fig01 fig02 fig06 tab01 tab02 tab03 fig07a fig07b fig07cd fig08
//! fig09 fig10 tab04 fig12 ablation serve recover hostprof (`tab03` is an
//! alias for `tab01` — both tables come from the same fault-count run).
//! `--only` accepts any number of ids. `hostprof` runs only when named: it
//! times host work rather than virtual time, so it prints its table and
//! writes `target/hostprof.json`, never anything under `--out` (see
//! `dilos_bench::hostprof`). Default writes reports to `results/` and
//! prints them; `--full` runs larger (slower) configurations. Alongside
//! the per-id markdown, a machine-readable `bench.json` maps each
//! experiment id that ran to its measured rows, notes, and trace digests;
//! `serve` and `recover` additionally write their own byte-stable
//! `serve.json` / `recover.json` (the CI determinism gate compares two
//! fresh runs of each).
//!
//! `--metrics` and `--timeline` select artifacts and boot nothing: they arm
//! observers on the experiments' own runs and render what those observed.
//! `--metrics` meters the `tab01` run and writes `metrics.json`,
//! `timeseries.json`, and `profile.folded`, so `tab01` must be among the
//! selected ids. `--timeline` arms the causal tracer on the `tab01` and
//! `serve` runs and writes `timeline.json` / `serve_timeline.json` (Chrome
//! trace-event JSON, openable at ui.perfetto.dev) plus the critical-path
//! tail report `tail.md` / `tail.json`, so both ids must be selected. An
//! unknown `--flag`, an unknown id, or a flag whose experiment is not
//! selected exits 2.

use std::io::Write as _;

use dilos_bench::ablation::{ablation_design_choices, ablation_transport, ablation_vector_length};
use dilos_bench::apps_exp::{
    fig07a_quicksort, fig07b_kmeans, fig07cd_snappy, fig08_dataframe, fig09_gapbs, SimpleScale,
};
use dilos_bench::json;
use dilos_bench::micro::{
    fig01_fastswap_breakdown, fig02_rdma_latency, fig06_latency_breakdown,
    tab01_tab03_fault_counts, tab02_seq_throughput, MicroScale,
};
use dilos_bench::recover::{recover_crash_sweep, RecoverScale};
use dilos_bench::redis_exp::{fig10_redis, fig12_bandwidth, tab04_tail_latency, RedisScale};
use dilos_bench::serve::{serve_qos, ServeScale};
use dilos_bench::table::bench_json;
use dilos_bench::Report;
use dilos_sim::Observability;

const FLAGS: [&str; 5] = ["--full", "--only", "--out", "--metrics", "--timeline"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("[repro] unknown flag {bad:?}; known: {}", FLAGS.join(" "));
        std::process::exit(2);
    }
    let full = args.iter().any(|a| a == "--full");
    let metrics = args.iter().any(|a| a == "--metrics");
    let timeline = args.iter().any(|a| a == "--timeline");
    // `--only` takes every following token up to the next flag. `tab03` is
    // an alias for `tab01` (one run produces both tables).
    let only: Option<Vec<String>> = args.iter().position(|a| a == "--only").map(|i| {
        args[i + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .map(|a| {
                if a == "tab03" {
                    "tab01".into()
                } else {
                    a.clone()
                }
            })
            .collect()
    });
    if let Some(ids) = &only {
        if ids.is_empty() {
            eprintln!("[repro] --only requires at least one experiment id");
            std::process::exit(2);
        }
    }
    // `hostprof` is not one of the reports: it runs last, and alone when it
    // is the only id, so that it writes nothing under `--out`.
    let mut only = only;
    let hostprof = only.as_mut().is_some_and(|ids| {
        let n = ids.len();
        ids.retain(|id| id != "hostprof");
        ids.len() < n
    });
    if hostprof && only.as_ref().is_some_and(Vec::is_empty) {
        run_hostprof();
        return;
    }
    // Artifacts are renderings of the experiments' own runs, so a flag needs
    // its experiments selected.
    let selected = |id: &str| only.as_ref().is_none_or(|ids| ids.iter().any(|o| o == id));
    for (flag, on, needs) in [
        ("--metrics", metrics, &["tab01"][..]),
        ("--timeline", timeline, &["tab01", "serve"]),
    ] {
        if let Some(missing) = needs.iter().find(|id| on && !selected(id)) {
            eprintln!("[repro] {flag} renders the {missing} run: add {missing} to --only");
            std::process::exit(2);
        }
    }
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string());
    std::fs::create_dir_all(&out_dir).expect("create results dir");

    let micro = if full {
        MicroScale {
            pages: 32_768,
            ratio: 13,
        }
    } else {
        MicroScale::default()
    };
    let simple = if full {
        SimpleScale {
            sort_elements: 1 << 21,
            kmeans_points: 1 << 18,
            snappy_bytes: 4 << 20,
        }
    } else {
        SimpleScale::default()
    };
    let redis = if full {
        RedisScale {
            keys_4k: 2_048,
            keys_64k: 128,
            keys_mixed: 192,
            lists: 128,
            list_elements: 25_600,
            queries: 2_000,
        }
    } else {
        RedisScale::default()
    };
    let serve = if full {
        ServeScale {
            victim_requests: 2_000,
            victim_mean_ns: 50_000,
            noisy_requests: 600,
        }
    } else {
        ServeScale::default()
    };
    let recover = if full {
        RecoverScale {
            pages: 1_024,
            local_pages: 128,
            rw_ops: 2_000,
        }
    } else {
        RecoverScale::default()
    };
    let taxi_rows = if full { 60_000 } else { 16_000 };
    let graph_scale = if full { 13 } else { 11 };
    let fig12_keys = if full { 16_384 } else { 4_096 };

    // What `--metrics` / `--timeline` arm on the tab01 and serve runs, and
    // where those runs leave their bundles for the renderers below.
    let arm_tab01 = move || {
        let obs = if metrics {
            Observability::full()
        } else {
            Observability::audited()
        };
        if timeline {
            obs.with_timeline()
        } else {
            obs
        }
    };
    let arm_serve = if timeline {
        Observability::with_timeline
    } else {
        |obs| obs
    };
    let mut tab01_runs = Vec::new();
    let mut serve_tracks = Vec::new();

    type Experiment<'a> = (&'static str, Box<dyn FnOnce() -> Report + 'a>);
    let experiments: Vec<Experiment> = vec![
        ("fig01", Box::new(move || fig01_fastswap_breakdown(micro))),
        ("fig02", Box::new(fig02_rdma_latency)),
        (
            "tab01",
            Box::new(|| {
                let (report, runs) = tab01_tab03_fault_counts(micro, arm_tab01);
                tab01_runs = runs;
                report
            }),
        ),
        ("tab02", Box::new(move || tab02_seq_throughput(micro))),
        ("fig06", Box::new(move || fig06_latency_breakdown(micro))),
        ("fig07a", Box::new(move || fig07a_quicksort(simple))),
        ("fig07b", Box::new(move || fig07b_kmeans(simple))),
        ("fig07cd", Box::new(move || fig07cd_snappy(simple))),
        ("fig08", Box::new(move || fig08_dataframe(taxi_rows))),
        ("fig09", Box::new(move || fig09_gapbs(graph_scale))),
        ("fig10", Box::new(move || fig10_redis(redis))),
        ("tab04", Box::new(move || tab04_tail_latency(redis))),
        (
            "fig12",
            Box::new(move || fig12_bandwidth(fig12_keys, 2_000)),
        ),
        (
            "serve",
            Box::new(|| {
                let (report, tracks) = serve_qos(serve, arm_serve);
                serve_tracks = tracks;
                report
            }),
        ),
        ("recover", Box::new(move || recover_crash_sweep(recover))),
        (
            "ablation",
            Box::new(move || {
                let mut a = ablation_design_choices(micro.pages);
                for extra in [ablation_vector_length(256), ablation_transport(micro.pages)] {
                    a.notes.push(String::new());
                    a.notes.extend(extra.render().lines().map(String::from));
                }
                a
            }),
        ),
    ];

    let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
    if let Some(ids) = &only {
        if let Some(bad) = ids.iter().find(|o| !known.contains(&o.as_str())) {
            eprintln!(
                "[repro] unknown experiment id {bad:?}; known: {} hostprof",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }

    let mut combined = String::new();
    let mut reports: Vec<(&str, Report)> = Vec::new();
    for (id, run) in experiments {
        if let Some(ids) = &only {
            if !ids.iter().any(|o| o == id) {
                continue;
            }
        }
        eprintln!("[repro] running {id} …");
        let t0 = std::time::Instant::now();
        let report = run();
        let rendered = report.render();
        eprintln!("[repro] {id} done in {:.1?}", t0.elapsed());
        println!("{rendered}");
        combined.push_str(&rendered);
        combined.push('\n');
        let path = format!("{out_dir}/{id}.md");
        std::fs::write(&path, &rendered).expect("write report");
        if id == "serve" || id == "recover" {
            // These tables get their own byte-stable artifacts so the CI
            // determinism gate can `cmp` two fresh runs of just them.
            std::fs::write(format!("{out_dir}/{id}.json"), report.to_json())
                .expect("write per-id json");
        }
        reports.push((id, report));
    }
    let mut f = std::fs::File::create(format!("{out_dir}/all.md")).expect("create all.md");
    f.write_all(combined.as_bytes()).expect("write all.md");
    json::write_file(&format!("{out_dir}/bench.json"), |w| {
        bench_json(w, &reports)
    })
    .expect("write bench.json");
    eprintln!("[repro] reports written to {out_dir}/ (machine-readable: {out_dir}/bench.json)");
    if metrics {
        let report = dilos_bench::telemetry::write_artifacts(&tab01_runs, &out_dir)
            .expect("write telemetry");
        println!("{}", report.render());
        eprintln!(
            "[repro] telemetry written to {out_dir}/metrics.json, {out_dir}/timeseries.json, \
             {out_dir}/profile.folded"
        );
    }
    if timeline {
        let micro_tracks: Vec<(String, Observability)> = tab01_runs
            .iter()
            .map(|(id, _, obs)| (id.to_string(), obs.clone()))
            .collect();
        let report =
            dilos_bench::timeline::write_timeline_artifacts(&micro_tracks, &serve_tracks, &out_dir)
                .expect("write timeline");
        println!("{}", report.render());
        eprintln!(
            "[repro] timelines written to {out_dir}/timeline.json, \
             {out_dir}/serve_timeline.json; tail report in {out_dir}/tail.md, {out_dir}/tail.json"
        );
    }
    if hostprof {
        run_hostprof();
    }
}

/// `repro --only hostprof`: the host-time ledger on tab01 (at the `--full`
/// region size) and on `serve` (at eight times the `--full` victim
/// requests), 24 runs each, so every row has about a thousand sampled
/// faults or more; plus the hit timing on fig07a's quicksort. Prints the
/// table and writes `target/hostprof.json`.
fn run_hostprof() {
    use dilos_bench::hostprof::{profile, SAMPLE_EVERY};
    eprintln!("[repro] running hostprof …");
    let t0 = std::time::Instant::now();
    let micro = MicroScale {
        pages: 32_768,
        ratio: 13,
    };
    let serve = ServeScale {
        victim_requests: 16_000,
        victim_mean_ns: 50_000,
        noisy_requests: 6_000,
    };
    let sort_elements = SimpleScale::default().sort_elements;
    let prof = profile(micro, serve, sort_elements, SAMPLE_EVERY, 24);
    eprintln!("[repro] hostprof done in {:.1?}", t0.elapsed());
    println!("{}", prof.report().render());
    std::fs::create_dir_all("target").expect("create target dir");
    json::write_file("target/hostprof.json", |w| prof.write_json(w)).expect("write hostprof.json");
    eprintln!("[repro] host-time ledger written to target/hostprof.json");
}
