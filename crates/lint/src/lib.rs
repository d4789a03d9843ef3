//! `dilos-lint`: registry-free determinism & simulation-hygiene static
//! analysis for the DiLOS workspace.
//!
//! The whole reproduction rests on one property: the simulator is
//! deterministic, so same-seed runs produce identical trace digests and
//! the paper orderings in `results/` are reproducible facts. That property
//! is checked dynamically by `tests/determinism.rs`; this crate enforces
//! it *statically*, so the bug classes that break it (stale trace and
//! schedule timestamps, transitive panics, re-entrant borrows, wrapping
//! time sums, unaudited events) cannot be reintroduced silently.
//!
//! Six named rules (see [`rules::RULES`]). R4 is token-level and per-file;
//! R6–R10 (the v2 families) are *interprocedural*: a hand-rolled item
//! parser ([`parser`]) feeds per-function effect summaries ([`summary`])
//! into a crate-wide call graph ([`graph`]), and the rules in [`rules2`]
//! walk its closures. The token rules rustc can resolve exactly live in
//! the toolchain instead: the root `clippy.toml` bans `HashMap`/`HashSet`
//! (formerly R2) and `[workspace.lints.clippy]` denies
//! `unwrap`/`expect`/`panic!` in core, sim and alloc (formerly R3). R1
//! (wall clock) and R5 (ambient randomness) were retired without a
//! replacement: neither ever caught anything outside its own fixtures.
//!
//! | rule | slug | invariant it protects |
//! |------|------|-----------------------|
//! | R4 | `calendar-time-only` | trace fidelity — `TraceSink::emit` times come from the live clock |
//! | R6 | `transitive-panic-freedom` | survivability — hot-path fns must not *reach* a panic site through any call chain |
//! | R7 | `refcell-borrow-overlap` | no runtime `BorrowMutError` — a live `borrow_mut()` may not span a call that re-borrows the same cell |
//! | R8 | `ns-arithmetic-safety` | no silent time wraparound — `+`/`*` on `Ns` in sched/fabric/rdma/timeline must be `saturating_`/`checked_` |
//! | R9 | `trace-event-coverage` | observability — every `TraceEvent`/`SchedEvent` variant is emitted *and* consumed |
//! | R10 | `schedule-time-monotonicity` | calendar sanity — `schedule(...)` times, and the follow-up times delivery handlers return, derive from `now`, never literals or host clocks |
//!
//! Sites that are individually justified carry an inline suppression:
//!
//! ```text
//! // dilos-lint: allow(transitive-panic-freedom, "index bounded by the only constructor")
//! ```
//!
//! which shields the same line and the next, and is itself counted in the
//! report's suppression ledger (unused suppressions are called out).
//!
//! Like the vendored `crates/proptest` shim, this crate has **zero
//! registry dependencies**: the tokenizer, rule engine, and JSON writer
//! are all hand-rolled.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod rules2;
pub mod sarif;
pub mod summary;

pub use report::{PathStep, Report, Suppression, Violation};
pub use rules::{lint_source, RULES};

use graph::{FileAnalysis, Model};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of files *together*: per-file token rules first, then the
/// interprocedural families over the crate-wide call graph.
///
/// This is the real entry point — [`lint_source`] and [`scan_workspace`]
/// both route through it. Inputs are `(workspace-relative path, source)`
/// pairs; the report is sorted and suppression-filtered.
pub fn lint_files(inputs: &[(String, String)]) -> Report {
    let mut violations = Vec::new();
    let mut suppressions = Vec::new();
    let mut files = Vec::with_capacity(inputs.len());
    for (path, src) in inputs {
        let fa = FileAnalysis::new(path, src);
        rules::run_intra(path, &fa.lexed.tokens, &mut violations);
        suppressions.extend(rules::parse_suppressions(path, &fa.lexed.comments));
        files.push(fa);
    }
    let model = Model::build(&files);
    rules2::rule_transitive_panic(&model, &mut violations);
    rules2::rule_borrow_overlap(&model, &mut violations);
    rules2::rule_event_coverage(&files, &model, &mut violations);
    let mut report = Report {
        violations: rules::apply_suppressions(violations, &mut suppressions),
        suppressions,
        files_scanned: inputs.len(),
    };
    report.sort();
    report
}

/// Directories never scanned (build output, VCS, and the deliberately
/// violating lint fixtures).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Path suffix of the fixture corpus: every file there violates a rule on
/// purpose, so the tree scan must not see them.
const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// Scans every `.rs` file under `root` (a workspace checkout) and returns
/// the merged, sorted report.
///
/// Traversal order is deterministic (directory entries sorted by name), so
/// two scans of the same tree produce byte-identical reports.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut inputs = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        inputs.push((rel_str, src));
    }
    Ok(lint_files(&inputs))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            // Hidden directories (`.git`, editor state, tooling snapshots)
            // are never part of the workspace source tree.
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) || rel_str == FIXTURE_DIR
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_shields_next_line_and_lands_in_ledger() {
        let src = "\
// dilos-lint: allow(ns-arithmetic-safety, \"bounded by the link rate\")
let t = now + 1;
let u = now + 2;
";
        let r = lint_source("crates/sim/src/fabric.rs", src);
        assert_eq!(r.violations.len(), 1, "only the unshielded line remains");
        assert_eq!(r.violations[0].line, 3);
        assert_eq!(r.suppressions.len(), 1);
        assert!(r.suppressions[0].used);
        assert_eq!(r.suppressions[0].reason, "bounded by the link rate");
    }

    #[test]
    fn unused_suppression_is_reported_unused() {
        let src = "// dilos-lint: allow(calendar-time-only, \"nothing here\")\nlet x = 1;\n";
        let r = lint_source("crates/sim/src/x.rs", src);
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressions.len(), 1);
        assert!(!r.suppressions[0].used);
    }
}
