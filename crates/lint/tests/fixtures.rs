//! The fixture battery: every rule is pinned by one violating and one
//! clean snippet, linted under a virtual workspace path so the path-based
//! scoping is exercised too. Assertions are exact — rule code, rule id,
//! file, and line — so any drift in a rule's detection surface fails here
//! first.
//!
//! `fixtures/r2_*.rs`, `r3_*.rs` and `r6_*.rs` are not linted here: they
//! pin retired rules that clippy now enforces, and CI's "Clippy" step
//! compiles each as a module of the crate that holds the policy
//! (`dilos-core` for R2/R3, `dilos-alloc` for R6) to show it bites.

use dilos_lint::{lint_source, Report};

/// Asserts that `report` holds exactly `expect` violations, as
/// `(rule, id, line)` triples in report (sorted) order, and that each one
/// round-trips into the JSON output verbatim.
fn assert_violations(report: &Report, file: &str, expect: &[(&str, &str, u32)]) {
    let got: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.id, v.line))
        .collect();
    assert_eq!(got, expect, "violations for {file}:\n{}", report.to_human());
    for v in &report.violations {
        assert_eq!(v.file, file);
    }
    let json = report.to_json();
    for (rule, id, line) in expect {
        let needle = format!(
            "{{\"rule\": \"{rule}\", \"id\": \"{id}\", \"file\": \"{file}\", \"line\": {line}, \"message\": "
        );
        assert!(json.contains(&needle), "JSON missing {needle}\n{json}");
    }
}

fn clean(report: &Report, file: &str) {
    assert_violations(report, file, &[]);
}

#[test]
fn r4_calendar_time() {
    let src = include_str!("fixtures/r4_violating.rs");
    let file = "crates/core/src/pager.rs";
    let r = lint_source(file, src);
    assert_violations(
        &r,
        file,
        &[
            ("R4", "calendar-time-only", 8),
            ("R4", "calendar-time-only", 10),
        ],
    );
    clean(
        &lint_source(file, include_str!("fixtures/r4_clean.rs")),
        file,
    );
}

#[test]
fn r8_ns_arithmetic() {
    let src = include_str!("fixtures/r8_violating.rs");
    let file = "crates/sim/src/timeline.rs";
    let r = lint_source(file, src);
    assert_violations(&r, file, &[("R8", "ns-arithmetic-safety", 4)]);
    // The same arithmetic is out of scope away from the time-math stems.
    clean(
        &lint_source("crates/sim/src/metrics.rs", src),
        "crates/sim/src/metrics.rs",
    );
    let file = "crates/sim/src/timeline.rs";
    clean(
        &lint_source(file, include_str!("fixtures/r8_clean.rs")),
        file,
    );
}

#[test]
fn r10_schedule_time_monotonicity() {
    let src = include_str!("fixtures/r10_violating.rs");
    let file = "crates/sim/src/pump.rs";
    let r = lint_source(file, src);
    assert_violations(
        &r,
        file,
        &[
            ("R10", "schedule-time-monotonicity", 2),
            ("R10", "schedule-time-monotonicity", 3),
        ],
    );
    // Out of scope outside the deterministic crates.
    clean(
        &lint_source("crates/bench/src/pump.rs", src),
        "crates/bench/src/pump.rs",
    );
    let file = "crates/sim/src/pump.rs";
    clean(
        &lint_source(file, include_str!("fixtures/r10_clean.rs")),
        file,
    );
}

#[test]
fn suppression_shields_and_ledgers() {
    let file = "crates/core/src/sweep.rs";
    let r = lint_source(file, include_str!("fixtures/suppressed.rs"));
    clean(&r, file);
    assert_eq!(r.suppressions.len(), 2);
    let shield = &r.suppressions[0];
    assert_eq!(
        (shield.line, shield.id.as_str(), shield.used),
        (2, "calendar-time-only", true)
    );
    let idle = &r.suppressions[1];
    assert_eq!(
        (idle.line, idle.id.as_str(), idle.used),
        (7, "ns-arithmetic-safety", false)
    );
    assert_eq!(
        shield.reason,
        "fixture: the boot record is stamped at time zero"
    );
}

#[test]
fn suppression_for_the_wrong_rule_does_not_shield() {
    let file = "crates/core/src/sweep.rs";
    let r = lint_source(file, include_str!("fixtures/suppressed_wrong_rule.rs"));
    assert_violations(&r, file, &[("R4", "calendar-time-only", 3)]);
    assert_eq!(r.suppressions.len(), 1);
    assert!(!r.suppressions[0].used);
}
