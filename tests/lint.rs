//! Tier-1 gate: the workspace is `dilos-lint` clean, its suppression
//! ledger is empty, and the linter's machine output is deterministic.

use std::path::Path;

fn scan() -> dilos_lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    dilos_lint::scan_workspace(root).expect("workspace scan")
}

#[test]
fn workspace_is_lint_clean() {
    let report = scan();
    assert!(
        report.violations.is_empty(),
        "dilos-lint found violations:\n{}",
        report.to_human()
    );
    assert!(report.files_scanned > 50, "scan missed the workspace");
}

#[test]
fn every_suppression_is_justified_and_live() {
    // Every escape is a compiler-checked `#[expect(lint, reason)]` now, so
    // the ledger holds nothing: justified and live holds vacuously.
    let report = scan();
    assert!(
        report.suppressions.is_empty(),
        "the suppression ledger is not empty:\n{}",
        report.to_human()
    );
}

#[test]
fn lint_output_is_deterministic() {
    // Two independent scans must serialize byte-identically: the linter
    // iterates no hash container.
    let a = scan().to_json();
    let b = scan().to_json();
    assert_eq!(a, b, "dilos-lint --json output is not deterministic");
    assert!(a.contains("\"violations\": []"));
}

#[test]
fn sarif_output_is_deterministic_and_well_formed() {
    // SARIF is what CI uploads; two scans must be byte-identical and the
    // log must carry the full three-rule table even on a clean tree.
    let a = dilos_lint::sarif::to_sarif(&scan());
    let b = dilos_lint::sarif::to_sarif(&scan());
    assert_eq!(
        a, b,
        "dilos-lint --format sarif output is not deterministic"
    );
    assert!(a.contains("\"version\": \"2.1.0\""));
    assert!(a.contains("\"name\": \"dilos-lint\""));
    for (_, slug) in dilos_lint::RULES {
        assert!(
            a.contains(&format!("\"id\": \"{slug}\"")),
            "missing rule {slug}"
        );
    }
    assert!(a.contains("\"results\": []"), "clean tree, empty results");
}

#[test]
fn deterministic_crates_forbid_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for krate in ["core", "sim", "alloc", "baselines", "lint", "bench"] {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let src = std::fs::read_to_string(&lib).expect("crate root");
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "crates/{krate}/src/lib.rs must carry #![forbid(unsafe_code)]"
        );
    }
}
