//! The `dilos-lint` CLI.
//!
//! ```text
//! dilos-lint [--json] [--format human|json|sarif] [--root <path>]
//! ```
//!
//! Scans every `.rs` file in the workspace and prints a human report,
//! machine-readable JSON, or SARIF 2.1.0 for code-scanning upload
//! (`--json` is shorthand for `--format json`). Exit status is non-zero
//! when any violation survives suppression, so CI can gate on it
//! directly.

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "dilos-lint: --format requires human, json, or sarif (got {other:?})"
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--root" => {
                root = args.next().map(PathBuf::from);
                if root.is_none() {
                    eprintln!("dilos-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                println!("usage: dilos-lint [--json] [--format human|json|sarif] [--root <path>]");
                println!("rules:");
                for (code, slug) in dilos_lint::RULES {
                    println!("  {code}  {slug}");
                }
                println!("suppress a site with: // dilos-lint: allow(<rule>, \"<reason>\")");
                println!("R1-R3, R5-R7 and R9 left the linter:");
                println!("  R2/R3: clippy.toml and [workspace.lints.clippy]");
                println!("  R6: the clippy indexing/unreachable deny in dilos-alloc");
                println!("  R9: wildcard-free matches and tests/event_census.rs");
                println!("  R1, R5, R7: retired, never caught a real site");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dilos-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let report = match dilos_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dilos-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Human => print!("{}", report.to_human()),
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", dilos_lint::sarif::to_sarif(&report)),
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]`; falls back to the current directory.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
