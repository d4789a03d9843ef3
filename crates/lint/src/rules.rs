//! The three token rules.
//!
//! Every rule is a per-file token-pattern heuristic, not a type-checked
//! analysis — the fixtures in `tests/fixtures/` pin exactly what each one
//! catches. Scope:
//!
//! | rule | scope |
//! |------|-------|
//! | R4 | `.emit(...)` calls everywhere but `crates/bench` |
//! | R8 | the `sched`, `fabric`, `rdma` and `timeline` modules of `crates/sim` (every file under `crates/sim/src/rdma/` is `rdma`) |
//! | R10 | `.schedule*(...)` call sites and returned `(time, SchedEvent::…)` follow-ups in `crates/core`/`crates/sim`/`crates/baselines` |
//!
//! Test targets and `#[cfg(test)]`/`#[test]` scopes are exempt from all
//! three.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{lex, TokKind, Token};

/// A rule, named by its code. Codes are not renumbered: R1–R3, R5, R6,
/// R7 and R9 left for the toolchain or were retired (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Trace-emit times come from the live clock.
    R4,
    /// `+`/`*` on virtual time saturates or is checked.
    R8,
    /// Schedule times derive from `now`.
    R10,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line of the offending token.
    pub line: u32,
    pub rule: Rule,
    /// Human explanation of this site.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{:?}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints one file's source under its workspace-relative path with the
/// rules in scope for the path, in `(line, rule)` order.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let tokens = &lex(src);
    let mut violations = Vec::new();
    if !is_test_target(rel_path) {
        if !rel_path.starts_with("crates/bench/") {
            rule_calendar_time(rel_path, tokens, &mut violations);
        }
        if r8_in_scope(rel_path) {
            rule_ns_arithmetic(rel_path, tokens, &mut violations);
        }
        if is_hot_crate(rel_path) || rel_path.starts_with("crates/baselines/") {
            rule_schedule_time(rel_path, tokens, &mut violations);
        }
    }
    violations.sort();
    violations
}

/// Whether a path is a test, bench, or example target.
fn is_test_target(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Whether a path is in the hot-path crates (`crates/core`, `crates/sim`).
fn is_hot_crate(path: &str) -> bool {
    path.starts_with("crates/core/") || path.starts_with("crates/sim/")
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Identifier prefixes that mark a cached/stale time value.
const STALE_TIME_PREFIXES: [&str; 6] = ["cached", "saved", "stale", "old_", "prev_", "last_"];

/// R4: the time argument of a `TraceSink::emit` call must come from the
/// live virtual clock (calendar, timeline, a verb's post time), never a
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
            out.push(violation(file, tokens[i].line, Rule::R4, "trace emitted at a literal time; every emit must carry the live virtual time (Calendar/Timeline/verb post time)".to_string()));
            continue;
        }
        for t in &arg {
            if let TokKind::Ident(s) = &t.kind {
                if STALE_TIME_PREFIXES.iter().any(|p| s.starts_with(p)) {
                    out.push(violation(file, tokens[i].line, Rule::R4, format!(
                        "trace emitted at `{s}`, which looks like a cached/stale time; take the time from the Calendar/Timeline at the emit site"
                    )));
                    break;
                }
            }
        }
    }
}

/// Modules of `crates/sim` whose arithmetic is dominated by virtual-time
/// math.
const R8_MODULES: [&str; 4] = ["sched", "fabric", "rdma", "timeline"];

/// Whether R8 applies to this (non-test) path: a file whose module path
/// under `crates/sim/src` names an R8 module, so `rdma.rs` and every file
/// under `rdma/` are in scope.
fn r8_in_scope(path: &str) -> bool {
    path.strip_prefix("crates/sim/src/").is_some_and(|module| {
        module
            .trim_end_matches(".rs")
            .split('/')
            .any(|m| R8_MODULES.contains(&m))
    })
}

/// R8: `+`/`*` on `Ns` values must be `saturating_`/`checked_`.
///
/// Taint is statement-granular: a statement mentions virtual time when it
/// uses a name ascribed `: Ns` anywhere in the file, an identifier
/// containing `_ns`, or the conventional `now`. Every *binary* `+`/`*`
/// (including `+=`/`*=`) in such a statement is flagged.
fn rule_ns_arithmetic(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    // Pass 1: names ascribed `: Ns` (params, lets, fields).
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("Ns")
            && i >= 2
            && punct_at(tokens, i - 1, ':')
            && !punct_at(tokens, i - 2, ':')
        {
            if let Some(name) = ident_at(tokens, i - 2) {
                tainted.insert(name);
            }
        }
    }
    // Pass 2: statement segmentation and op flagging.
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    while i <= tokens.len() {
        let boundary = i == tokens.len()
            || matches!(
                &tokens[i].kind,
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}')
            );
        if boundary {
            let stmt = &tokens[stmt_start..i];
            let live = stmt.iter().any(|t| !t.in_test);
            let has_time = stmt.iter().any(|t| match &t.kind {
                TokKind::Ident(s) => {
                    tainted.contains(s.as_str()) || s.contains("_ns") || s == "now"
                }
                _ => false,
            });
            if live && has_time {
                for (k, t) in stmt.iter().enumerate() {
                    let op = match &t.kind {
                        TokKind::Punct('+') => "+",
                        TokKind::Punct('*') => "*",
                        _ => continue,
                    };
                    // Binary position: preceded by a value.
                    let binary = k > 0
                        && match &stmt[k - 1].kind {
                            TokKind::Ident(s) => s != "as" && s != "return" && s != "in",
                            TokKind::Number | TokKind::Punct(')') | TokKind::Punct(']') => true,
                            _ => false,
                        };
                    if binary && flagged_lines.insert(t.line) {
                        out.push(violation(file, t.line, Rule::R8, format!(
                            "unchecked `{op}` in virtual-time (`Ns`) arithmetic; use saturating_add/saturating_mul (or checked_) so a pathological time sum cannot wrap the timeline"
                        )));
                    }
                }
            }
            stmt_start = i + 1;
        }
        i += 1;
    }
}

/// Identifier prefixes that mark a foreign (host/wall) clock.
const HOST_CLOCK_PREFIXES: [&str; 2] = ["host_", "wall_"];

/// R10: the delivery time of every schedule site must derive from a live
/// virtual-time expression — never a bare literal, never a cached/stale
/// value, never a host clock. A schedule site is the first argument of a
/// `.schedule*(...)` call, or the first element of a `(time, SchedEvent::…)`
/// tuple: the follow-up a delivery handler returns for
/// `Calendar::deliver_due` to deliver in place or schedule on its behalf.
fn rule_schedule_time(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].in_test || !punct_at(tokens, i, '(') {
            continue;
        }
        // The paren opens the argument list of a `.schedule*(` call, or
        // possibly a follow-up tuple (decided once its first element ends).
        let call = ident_at(tokens, i.wrapping_sub(1)).filter(|name| {
            name.starts_with("schedule") && punct_at(tokens, i.wrapping_sub(2), '.')
        });
        // The time: tokens up to the first top-level comma.
        let mut depth = 0i32;
        let mut arg: Vec<&Token> = Vec::new();
        let mut j = i + 1;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') if depth == 0 => {
                    break
                }
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            arg.push(&tokens[j]);
            j += 1;
        }
        let site = match call {
            Some(name) => format!("`.{name}()`"),
            None if punct_at(tokens, j, ',')
                && ident_at(tokens, j + 1) == Some("SchedEvent")
                && punct_at(tokens, j + 2, ':') =>
            {
                "a returned follow-up".to_string()
            }
            None => continue,
        };
        if arg.is_empty() {
            continue;
        }
        let has_ident = arg.iter().any(|t| matches!(&t.kind, TokKind::Ident(_)));
        if !has_ident {
            out.push(violation(file, tokens[i].line, Rule::R10, format!(
                "{site} given a raw literal delivery time; schedule times must derive from `now`/config so the calendar stays monotone with the causing access"
            )));
            continue;
        }
        for t in &arg {
            if let TokKind::Ident(s) = &t.kind {
                if STALE_TIME_PREFIXES.iter().any(|p| s.starts_with(p))
                    || HOST_CLOCK_PREFIXES.iter().any(|p| s.starts_with(p))
                {
                    out.push(violation(file, tokens[i].line, Rule::R10, format!(
                        "{site} delivery time derives from `{s}`, a cached/foreign clock; recompute from the live virtual `now` at the schedule site"
                    )));
                    break;
                }
            }
        }
    }
}

fn violation(file: &str, line: u32, rule: Rule, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(file: &str, src: &str, rule: Rule) -> Vec<u32> {
        lint_source(file, src)
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn r8_flags_bare_ops_only_in_time_statements() {
        let src = "fn cost(start: Ns, wire: Ns, n: u64) -> Ns {\n\
                   let count = n + 1;\n\
                   let end = start + wire;\n\
                   end\n}\n";
        let r8 = lines("crates/sim/src/fabric.rs", src, Rule::R8);
        assert_eq!(r8, [3], "the count arithmetic is not time math");
    }

    #[test]
    fn r10_flags_literal_schedule_times() {
        let src = "fn arm(cal: &Calendar, now: Ns) {\n\
                   cal.schedule(1000, SchedEvent::ReclaimTick);\n\
                   cal.schedule(now + 10, SchedEvent::ReclaimTick);\n}\n";
        assert_eq!(lines("crates/sim/src/pump.rs", src, Rule::R10), [2]);
    }

    #[test]
    fn r10_checks_returned_follow_ups_like_schedule_calls() {
        let src = "fn tick(&mut self, t: Ns) -> Option<(Ns, SchedEvent)> {\n\
                   if self.idle { return Some((1000, SchedEvent::ReclaimTick)); }\n\
                   if self.lazy { return Some((last_tick, SchedEvent::ReclaimTick)); }\n\
                   let (at, ev) = (t, SchedEvent::ReclaimTick);\n\
                   Some((self.bg.next_free(t), SchedEvent::ReclaimTick))\n}\n";
        assert_eq!(lines("crates/core/src/pump.rs", src, Rule::R10), [2, 3]);
    }
}
