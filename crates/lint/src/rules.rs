//! The rule table, the per-file pass, R4, and the inline suppression
//! ledger.
//!
//! R4 is a token-pattern heuristic, not a type-checked analysis — the
//! fixtures in `tests/fixtures/` pin exactly what it catches.

use crate::lexer::{Comment, TokKind, Token};
use crate::report::{PathStep, Report, Suppression, Violation};
use crate::rules2::{ident_at, punct_at};

/// `(code, slug)` for every rule, in order. R4 is token-level; R6–R10 are
/// the v2 interprocedural families (see [`crate::rules2`]). Codes are not
/// renumbered, so `--json`/SARIF ids stay stable: R1–R3 and R5 left for
/// clippy or were retired (see the crate docs).
pub const RULES: [(&str, &str); 6] = [
    ("R4", "calendar-time-only"),
    ("R6", "transitive-panic-freedom"),
    ("R7", "refcell-borrow-overlap"),
    ("R8", "ns-arithmetic-safety"),
    ("R9", "trace-event-coverage"),
    ("R10", "schedule-time-monotonicity"),
];

/// Lints one file's source under its workspace-relative path.
///
/// Interprocedural rules see only this one file; use
/// [`crate::lint_files`] to analyze a set together.
pub fn lint_source(rel_path: &str, src: &str) -> Report {
    crate::lint_files(&[(rel_path.to_string(), src.to_string())])
}

/// Whether R4 applies to this path: everywhere except `crates/bench`
/// (which legitimately measures host time) and test targets.
fn r4_in_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/") && !crate::graph::is_test_target(path)
}

/// Runs the per-file rules (R4, plus R8/R10 from the v2 families) on one
/// file's tokens.
pub(crate) fn run_intra(rel_path: &str, tokens: &[Token], violations: &mut Vec<Violation>) {
    if r4_in_scope(rel_path) {
        rule_calendar_time(rel_path, tokens, violations);
    }
    if crate::rules2::r8_in_scope(rel_path) {
        crate::rules2::rule_ns_arithmetic(rel_path, tokens, violations);
    }
    if crate::rules2::r10_in_scope(rel_path) {
        crate::rules2::rule_schedule_time(rel_path, tokens, violations);
    }
}

/// Identifier prefixes that mark a cached/stale time value.
pub(crate) const STALE_TIME_PREFIXES: [&str; 6] =
    ["cached", "saved", "stale", "old_", "prev_", "last_"];

/// R4: the time argument of a `TraceSink::emit` call must come from the
/// live virtual clock (calendar, timeline, stamped access time), never a
/// literal or an obviously cached local.
fn rule_calendar_time(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        if i == 0
            || ident_at(tokens, i) != Some("emit")
            || !punct_at(tokens, i - 1, '.')
            || !punct_at(tokens, i + 1, '(')
        {
            continue;
        }
        // Collect the first argument's tokens (up to a top-level comma).
        let mut depth = 0i32;
        let mut arg: Vec<&Token> = Vec::new();
        let mut j = i + 2;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') if depth == 0 => break,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            arg.push(&tokens[j]);
            j += 1;
        }
        if arg.len() == 1 && arg[0].kind == TokKind::Number {
            out.push(violation(file, tokens[i].line, 0, vec![], "trace emitted at a literal time; every emit must carry the live virtual time (Calendar/Timeline/stamped access clock)".to_string()));
            continue;
        }
        for t in &arg {
            if let TokKind::Ident(s) = &t.kind {
                if STALE_TIME_PREFIXES.iter().any(|p| s.starts_with(p)) {
                    out.push(violation(file, tokens[i].line, 0, vec![], format!(
                        "trace emitted at `{s}`, which looks like a cached/stale time; take the time from the Calendar/Timeline at the emit site"
                    )));
                    break;
                }
            }
        }
    }
}

pub(crate) fn violation(
    file: &str,
    line: u32,
    rule_idx: usize,
    path: Vec<PathStep>,
    message: String,
) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule: RULES[rule_idx].0,
        id: RULES[rule_idx].1,
        message,
        path,
    }
}

/// Parses `// dilos-lint: allow(<rule>, "<reason>")` directives.
pub(crate) fn parse_suppressions(file: &str, comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) describe the
        // directive syntax without invoking it; only plain comments count.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("dilos-lint:") else {
            continue;
        };
        let rest = c.text[pos + "dilos-lint:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = body.find(')') else {
            continue;
        };
        let inner = &body[..close];
        let (id, reason_part) = match inner.find(',') {
            Some(comma) => (&inner[..comma], &inner[comma + 1..]),
            None => (inner, ""),
        };
        let reason = match (reason_part.find('"'), reason_part.rfind('"')) {
            (Some(a), Some(b)) if b > a => reason_part[a + 1..b].to_string(),
            _ => reason_part.trim().to_string(),
        };
        out.push(Suppression {
            file: file.to_string(),
            line: c.line,
            id: id.trim().to_string(),
            reason,
            used: false,
        });
    }
    out
}

/// Drops violations shielded by a matching suppression (same file, same
/// line or the line directly below the directive), marking the
/// suppression used. Interprocedural findings are anchored at file-local
/// lines (R6 at the sink, R9 at the variant declaration), so the same
/// mechanism covers them.
pub(crate) fn apply_suppressions(
    violations: Vec<Violation>,
    suppressions: &mut [Suppression],
) -> Vec<Violation> {
    violations
        .into_iter()
        .filter(|v| {
            for s in suppressions.iter_mut() {
                let names_rule = s.id == v.id || s.id == v.rule;
                if names_rule && s.file == v.file && (v.line == s.line || v.line == s.line + 1) {
                    s.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}
