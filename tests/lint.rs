//! Tier-1 gate: the workspace is `dilos-lint` clean, and the deterministic
//! crates forbid `unsafe`.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = dilos_lint::scan_workspace(root).expect("workspace scan");
    let shown: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "dilos-lint found violations:\n{}",
        shown.join("\n")
    );
    assert!(report.files_scanned > 50, "scan missed the workspace");
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
