//! The fixture battery: every rule is pinned by one violating and one
//! clean snippet, linted under a virtual workspace path so the path-based
//! scoping is exercised too. Assertions are exact — rule, file and line —
//! so any drift in a rule's detection surface fails here first.
//!
//! `fixtures/r2_*.rs`, `r3_*.rs` and `r6_*.rs` are not linted here: they
//! pin retired rules that clippy now enforces, and CI's "Clippy" step
//! compiles each as a module of the crate that holds the policy
//! (`dilos-core` for R2/R3, `dilos-alloc` for R6) to show it bites.

use dilos_lint::{lint_source, Rule, Violation};

/// Asserts that `violations` holds exactly `expect`, as `(rule, line)`
/// pairs in `lint_source` order, each reported against `file`.
fn assert_violations(violations: &[Violation], file: &str, expect: &[(Rule, u32)]) {
    let got: Vec<(Rule, u32)> = violations.iter().map(|v| (v.rule, v.line)).collect();
    let shown: Vec<String> = violations.iter().map(Violation::to_string).collect();
    assert_eq!(got, expect, "violations for {file}:\n{}", shown.join("\n"));
    for v in violations {
        assert_eq!(v.file, file);
    }
}

fn clean(file: &str, src: &str) {
    assert_violations(&lint_source(file, src), file, &[]);
}

#[test]
fn r4_calendar_time() {
    let src = include_str!("fixtures/r4_violating.rs");
    let file = "crates/core/src/pager.rs";
    assert_violations(
        &lint_source(file, src),
        file,
        &[(Rule::R4, 8), (Rule::R4, 10)],
    );
    clean(file, include_str!("fixtures/r4_clean.rs"));
}

#[test]
fn r8_ns_arithmetic() {
    let src = include_str!("fixtures/r8_violating.rs");
    // R8's modules, by file (`timeline.rs`) and by directory (`rdma/`).
    for file in [
        "crates/sim/src/timeline.rs",
        "crates/sim/src/rdma/redundancy.rs",
    ] {
        assert_violations(&lint_source(file, src), file, &[(Rule::R8, 4)]);
    }
    // The same arithmetic is out of scope away from the time-math modules.
    clean("crates/sim/src/metrics.rs", src);
    clean(
        "crates/sim/src/timeline.rs",
        include_str!("fixtures/r8_clean.rs"),
    );
}

#[test]
fn r10_schedule_time_monotonicity() {
    let src = include_str!("fixtures/r10_violating.rs");
    let file = "crates/sim/src/pump.rs";
    assert_violations(
        &lint_source(file, src),
        file,
        &[(Rule::R10, 2), (Rule::R10, 3)],
    );
    // Out of scope outside the deterministic crates.
    clean("crates/bench/src/pump.rs", src);
    clean(file, include_str!("fixtures/r10_clean.rs"));
}
