//! `dilos-lint`: the three token rules about virtual time that the
//! toolchain cannot hold while `Ns` is a bare `u64`.
//!
//! The whole reproduction rests on one property: the simulator is
//! deterministic, so same-seed runs produce identical trace digests and
//! the paper orderings in `results/` are reproducible facts. That property
//! is checked dynamically by `tests/determinism.rs`; this crate enforces
//! the part of it that is about virtual *time* statically, so stale trace
//! and schedule timestamps and wrapping time sums cannot be reintroduced
//! silently.
//!
//! [`lint_source`] lints one file and [`scan_workspace`] every `.rs` file
//! of a checkout; the tier-1 test `tests/lint.rs` fails on any
//! [`Violation`]. The rules (see [`Rule`] and the scope table in
//! [`rules`]):
//!
//! | rule | invariant it protects |
//! |------|-----------------------|
//! | R4 | trace fidelity — `TraceSink::emit` times come from the live clock |
//! | R8 | no silent time wraparound — `+`/`*` on `Ns` in the `sched`/`fabric`/`rdma`/`timeline` modules of `crates/sim` must be `saturating_`/`checked_` |
//! | R10 | calendar sanity — `schedule(...)` times, and the follow-up times delivery handlers return, derive from `now`, never literals or host clocks |
//!
//! All three exist only because virtual time is a bare `u64` (`Ns`); a
//! time type would retire them. Every other rule this crate once ran now
//! lives in the toolchain or a test, or was retired on its record:
//!
//! - R2 (hash containers) is the root `clippy.toml`'s `disallowed-types`;
//!   R3 (`unwrap`/`expect`/`panic!`) is `[workspace.lints.clippy]` for
//!   core, sim and alloc.
//! - R6 (transitive panic freedom) is a `clippy::indexing_slicing`/
//!   `unreachable`/`todo`/`unimplemented` deny in `dilos-alloc`, the only
//!   crate core and sim call into.
//! - R9 (event coverage) is `clippy::wildcard_enum_match_arm` on
//!   `Auditor::on_event` and `Dilos::dispatch` (consumed) plus the tier-1
//!   event census in `tests/event_census.rs` (emitted).
//! - R1 (wall clock), R5 (ambient randomness) and R7 (`RefCell` borrow
//!   overlap) never caught anything outside their own fixtures; `RefCell`
//!   checks itself at runtime under every test suite.
//!
//! There is no escape: a justified site is rewritten, and a site the rules
//! misjudge is a fixture case and a rule fix. Like the vendored
//! `crates/proptest` shim, this crate has **zero registry dependencies**.

#![forbid(unsafe_code)]

mod lexer;
pub mod rules;

pub use rules::{lint_source, Rule, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned (build output, VCS, and the deliberately
/// violating lint fixtures).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Path suffix of the fixture corpus: every file there violates a rule on
/// purpose, so the tree scan must not see them.
const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// The outcome of a workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Every violation, in `(file, line, rule)` order.
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

/// Scans every `.rs` file under `root` (a workspace checkout).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    let mut violations = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        violations.extend(lint_source(&rel_str, &src));
    }
    violations.sort();
    Ok(Report {
        violations,
        files_scanned: files.len(),
    })
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
