//! Tier-1 gate: the workspace is `dilos-lint` clean, every suppression in
//! the tree is both justified (has a reason) and live (actually shields a
//! violation), and the linter's machine output is deterministic.

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
    let report = scan();
    for s in &report.suppressions {
        assert!(
            !s.reason.is_empty(),
            "suppression at {}:{} has no reason",
            s.file,
            s.line
        );
        assert!(
            s.used,
            "suppression at {}:{} shields nothing — remove it",
            s.file, s.line
        );
    }
    // A ratchet, not a budget: lower it whenever an entry is retired.
    assert!(
        report.suppressions.len() <= 1,
        "the suppression ledger grew:\n{}",
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
    // log must carry the full six-rule table even on a clean tree.
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
    for krate in ["core", "sim", "lint", "bench"] {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let src = std::fs::read_to_string(&lib).expect("crate root");
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "crates/{krate}/src/lib.rs must carry #![forbid(unsafe_code)]"
        );
    }
}
