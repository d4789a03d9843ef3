//! The fixture battery: every rule is pinned by one violating and one
//! clean snippet, linted under a virtual workspace path so the path-based
//! scoping is exercised too. Assertions are exact — rule code, rule id,
//! file, and line — so any drift in a rule's detection surface fails here
//! first.
//!
//! `fixtures/r2_*.rs` and `fixtures/r3_*.rs` are not linted here: they pin
//! the retired R2/R3, now clippy's, and CI's "Clippy" step compiles each
//! as a module of `dilos-core` to show the workspace lint policy bites.

use dilos_lint::{lint_files, lint_source, Report};

/// Lints several virtual files together so the interprocedural rules
/// (R6/R7/R9) see the whole set.
fn lint_set(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned)
}

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
fn r6_transitive_panic_freedom() {
    let hot = include_str!("fixtures/r6_hot.rs");
    let heap = include_str!("fixtures/r6_heap_violating.rs");
    let r = lint_set(&[
        ("crates/core/src/node_fixture.rs", hot),
        ("crates/alloc/src/heap_fixture.rs", heap),
    ]);
    assert_eq!(r.violations.len(), 1, "{}", r.to_human());
    let v = &r.violations[0];
    assert_eq!(
        (v.rule, v.id, v.file.as_str(), v.line),
        (
            "R6",
            "transitive-panic-freedom",
            "crates/alloc/src/heap_fixture.rs",
            7
        )
    );
    // The full call chain, outermost hot-path root first.
    let labels: Vec<&str> = v.path.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(labels, ["Node::fault", "Heap::carve"]);
    assert_eq!(v.path[0].file, "crates/core/src/node_fixture.rs");
    let json = r.to_json();
    assert!(
        json.contains("\"path\": [{\"label\": \"Node::fault\""),
        "call path must round-trip into JSON:\n{json}"
    );
    // The .get() version panics nowhere, so the same root is clean.
    let r = lint_set(&[
        ("crates/core/src/node_fixture.rs", hot),
        (
            "crates/alloc/src/heap_fixture.rs",
            include_str!("fixtures/r6_heap_clean.rs"),
        ),
    ]);
    assert!(r.violations.is_empty(), "{}", r.to_human());
}

#[test]
fn r7_refcell_borrow_overlap() {
    let file = "crates/sim/src/pool_fixture.rs";
    let r = lint_source(file, include_str!("fixtures/r7_violating.rs"));
    assert_violations(&r, file, &[("R7", "refcell-borrow-overlap", 20)]);
    let v = &r.violations[0];
    assert!(
        v.message.contains("Endpoint"),
        "names the re-borrowed cell: {}",
        v.message
    );
    assert!(!v.path.is_empty(), "carries the borrow chain");
    // Dropping the guard before the call resolves the overlap.
    clean(
        &lint_source(file, include_str!("fixtures/r7_clean.rs")),
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
fn r9_trace_event_coverage() {
    let events = include_str!("fixtures/r9_events.rs");
    let r = lint_set(&[
        ("crates/sim/src/trace_fixture.rs", events),
        (
            "crates/core/src/audit.rs",
            include_str!("fixtures/r9_audit_violating.rs"),
        ),
    ]);
    assert_eq!(r.violations.len(), 1, "{}", r.to_human());
    let v = &r.violations[0];
    assert_eq!(
        (v.rule, v.id, v.file.as_str(), v.line),
        (
            "R9",
            "trace-event-coverage",
            "crates/sim/src/trace_fixture.rs",
            3
        )
    );
    assert!(v.message.contains("Evict"), "{}", v.message);
    // Matching every variant in the auditor clears the census.
    let r = lint_set(&[
        ("crates/sim/src/trace_fixture.rs", events),
        (
            "crates/core/src/audit.rs",
            include_str!("fixtures/r9_audit_clean.rs"),
        ),
    ]);
    assert!(r.violations.is_empty(), "{}", r.to_human());
}

/// The causal tracer consumes every `TraceEvent` variant when assembling
/// span trees, but it is a passive observer: R9 must keep demanding an
/// audit/digest-stem consumer even when a causal-style file matches every
/// variant. (Guards the PR 9 tracing layer from silently becoming the only
/// consumer of an event.)
#[test]
fn r9_causal_consumer_is_not_audit_coverage() {
    let events = include_str!("fixtures/r9_events.rs");
    let causal = include_str!("fixtures/r9_causal_consumer.rs");
    // Full match in the causal observer, wildcard in the auditor: the
    // unaudited variant still flags.
    let r = lint_set(&[
        ("crates/sim/src/trace_fixture.rs", events),
        ("crates/sim/src/causal_fixture.rs", causal),
        (
            "crates/core/src/audit.rs",
            include_str!("fixtures/r9_audit_violating.rs"),
        ),
    ]);
    assert_eq!(r.violations.len(), 1, "{}", r.to_human());
    let v = &r.violations[0];
    assert_eq!((v.rule, v.id), ("R9", "trace-event-coverage"));
    assert!(v.message.contains("Evict"), "{}", v.message);
    // A full auditor match clears it; the causal observer stays legal.
    let r = lint_set(&[
        ("crates/sim/src/trace_fixture.rs", events),
        ("crates/sim/src/causal_fixture.rs", causal),
        (
            "crates/core/src/audit.rs",
            include_str!("fixtures/r9_audit_clean.rs"),
        ),
    ]);
    assert!(r.violations.is_empty(), "{}", r.to_human());
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
