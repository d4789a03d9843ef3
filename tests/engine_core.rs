//! Engine-core determinism battery: the arena-backed calendar, flat page
//! store, and dense LRU must not leak allocation or iteration order into
//! anything `repro` writes to disk.
//!
//! `repro` persists `bench.json` (all experiments) and a standalone
//! `serve.json` for the CI determinism gate, both rendered via
//! [`Report::to_json`]. These tests boot the underlying experiments twice
//! from scratch — two independent arenas, two independent slot/generation
//! histories — and pin the rendered JSON byte-identical, the same
//! comparison CI's double-run `cmp` performs on the full artifacts.

use dilos::sim::Observability;
use dilos_bench::micro::{tab01_tab03_fault_counts, MicroScale};
use dilos_bench::serve::{serve_qos, ServeScale};

fn micro() -> MicroScale {
    MicroScale {
        pages: 256,
        ratio: 25,
    }
}

/// The tab01 table as `repro` boots it by default, rendered.
fn tab01(scale: MicroScale) -> String {
    tab01_tab03_fault_counts(scale, Observability::audited)
        .0
        .to_json()
}

fn serve() -> ServeScale {
    ServeScale {
        victim_requests: 60,
        victim_mean_ns: 50_000,
        noisy_requests: 30,
    }
}

#[test]
fn tab01_json_is_byte_identical_across_boots() {
    let a = tab01(micro());
    let b = tab01(micro());
    assert!(!a.is_empty());
    assert_eq!(a, b, "bench.json content must be byte-stable across boots");
}

#[test]
fn serve_json_is_byte_identical_across_boots() {
    let a = serve_qos(serve(), |obs| obs).0.to_json();
    let b = serve_qos(serve(), |obs| obs).0.to_json();
    assert!(!a.is_empty());
    assert_eq!(a, b, "serve.json must be byte-stable across boots");
}

#[test]
fn tab01_json_carries_digests_and_no_host_time() {
    let json = tab01(micro());
    assert!(
        json.contains("0x"),
        "tab01 notes should carry trace digests: {json}"
    );
    for leak in ["wall_clock", "elapsed", "ms/op"] {
        assert!(!json.contains(leak), "host-time leak {leak:?} in {json}");
    }
}
