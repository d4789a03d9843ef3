//! Replay conservation and output-shape tests, on tiny instances.
//!
//! Conservation: with the capture window open from boot and unbounded, what
//! the replays are fed must be everything the run did — the same digest,
//! the same verbs, the same bytes on the wire, the same pages in the store.

use crate::driver::{run_end_to_end, run_layers};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::workloads::Scale;

#[test]
fn replayed_window_conserves_digest_verbs_bytes_and_store() {
    for name in ["seq_fault_traced", "fastswap_seq", "rand_rw", "kv_guided"] {
        let layers = run_layers(name, 7, 0.0, &Scale::TINY, true);
        assert_eq!(layers.failed, 0, "{name}");
        let c = &layers.conserved;
        assert_ne!(c.digest.1, 0, "{name}: capture was not traced");
        assert_eq!(c.digest.0, c.digest.1, "{name}: replayed digest");
        assert_eq!(c.verbs.0, c.verbs.1, "{name}: verbs replayed vs counted");
        assert_eq!(c.wire_bytes.0, c.wire_bytes.1, "{name}: wire bytes");
        assert_eq!(c.store_matches, Some(true), "{name}: store contents");
    }
}

#[test]
fn cluster_window_conserves_verbs_and_bytes() {
    // Three sinks, one window: digests are per tenant, totals are shared.
    // The scanner is dark by definition, so the window holds the victims'
    // share of the endpoint's traffic and no more.
    let layers = run_layers("serve_qos", 7, 0.0, &Scale::TINY, true);
    assert_eq!(layers.failed, 0);
    let c = &layers.conserved;
    assert!(c.verbs.0 > 0 && c.verbs.0 < c.verbs.1);
    assert!(c.wire_bytes.0 > 0 && c.wire_bytes.0 < c.wire_bytes.1);
    assert!(layers.values["cluster.port_ns_per_verb"].is_finite());
}

#[test]
fn layers_run_reports_every_layer_metric_and_a_nonnegative_window() {
    let layers = run_layers("seq_fault", 3, 0.0, &Scale::TINY, false);
    let report = layers.report("seq_fault", 3);
    assert_eq!(report.metrics.len(), PER_LAYER.len());
    let parsed = Json::parse(&report.result_line()).expect("result line parses");
    let metrics = parsed.get("metrics").expect("metrics");
    for m in &PER_LAYER {
        let v = metrics.get(m.name).and_then(|v| v.get("value"));
        assert!(v.and_then(Json::as_f64).is_some(), "{} missing", m.name);
    }
    assert!(layers.values["bench.replay_window_events"] > 0.0);
    assert!(layers.values["node.fault_calls"] > 0.0);
    // seq_fault is dark by definition; the layers run lights a copy up.
    assert_eq!(layers.values["trace.events"], 0.0);
    assert!(layers.values["trace.events_per_fault"] > 1.0);
}

#[test]
fn every_workload_prints_all_end_to_end_metrics_and_repeats_exactly() {
    for w in &WORKLOADS {
        let a = run_end_to_end(w.name, 11, 0.0, &Scale::TINY);
        let b = run_end_to_end(w.name, 11, 0.0, &Scale::TINY);
        assert!(
            a.correct(),
            "{}: {} of {} failed",
            w.name,
            a.failed,
            a.attempted
        );
        let line = Json::parse(&a.result_line()).expect("result line parses");
        assert_eq!(line.entries().len(), 4, "exactly the four contract keys");
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), END_TO_END.len());
        for m in &END_TO_END {
            let v = metrics.get(m.name).and_then(|v| v.get("value"));
            let v = v.and_then(Json::as_f64).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {} is {v}", w.name, m.name);
        }
        let fp = |r: &crate::driver::RunReport| {
            r.detail
                .get("sim_fingerprint")
                .and_then(Json::as_str)
                .map(String::from)
        };
        assert_eq!(fp(&a), fp(&b), "{}: same seed, same fingerprint", w.name);
        let c = run_end_to_end(w.name, 12, 0.0, &Scale::TINY);
        assert_ne!(fp(&a), fp(&c), "{}: the seed must reach the inputs", w.name);
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_measures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let alt = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path)
        .or_else(|_| std::fs::read_to_string(alt))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|e| e.get("name")?.as_str().map(String::from))
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
    assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
    assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name.to_string()));
    for (entry, m) in spec
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .zip(&END_TO_END)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.label())
        );
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
}
