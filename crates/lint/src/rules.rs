//! The rule table: five named determinism/hygiene invariants plus the
//! inline suppression ledger.
//!
//! Every rule is a token-pattern heuristic, not a type-checked analysis —
//! the fixtures in `tests/fixtures/` pin exactly what each one catches.
//! Scope is path-based: a rule applies to a file according to where that
//! file sits in the workspace (see [`Scope::for_path`]).

use crate::lexer::{Comment, TokKind, Token};
use crate::report::{PathStep, Report, Suppression, Violation};
use std::collections::BTreeMap;

/// `(code, slug)` for every rule, in order. R1–R5 are token-level (PR 3);
/// R6–R10 are the v2 interprocedural families (see [`crate::rules2`]).
pub const RULES: [(&str, &str); 10] = [
    ("R1", "no-wall-clock"),
    ("R2", "no-hash-iteration"),
    ("R3", "no-unwrap-in-hot-path"),
    ("R4", "calendar-time-only"),
    ("R5", "no-ambient-rand"),
    ("R6", "transitive-panic-freedom"),
    ("R7", "refcell-borrow-overlap"),
    ("R8", "ns-arithmetic-safety"),
    ("R9", "trace-event-coverage"),
    ("R10", "schedule-time-monotonicity"),
];

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub r1: bool,
    pub r2: bool,
    pub r3: bool,
    pub r4: bool,
    pub r5: bool,
}

impl Scope {
    /// Path-based scoping (workspace-relative, forward slashes):
    ///
    /// - **R1/R4**: everywhere except `crates/bench`, which legitimately
    ///   measures host time.
    /// - **R2**: the deterministic simulation core (`crates/core`,
    ///   `crates/sim`, `crates/baselines`, `crates/alloc`) plus any file
    ///   whose name marks it as a digest/trace/audit/stats path.
    /// - **R3**: `crates/core` and `crates/sim` only — the fault/event hot
    ///   path, where a panic takes down the whole simulated machine.
    /// - **R5**: everywhere.
    pub fn for_path(path: &str) -> Scope {
        let host_time_ok = path.starts_with("crates/bench/");
        let det_core = path.starts_with("crates/core/")
            || path.starts_with("crates/sim/")
            || path.starts_with("crates/baselines/")
            || path.starts_with("crates/alloc/");
        // Integration-test, bench, and example targets are test code in
        // their entirety (on top of the per-token `#[cfg(test)]` marking
        // inside library files).
        let test_target = path.starts_with("tests/")
            || path.starts_with("examples/")
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/");
        let stem = path.rsplit('/').next().unwrap_or(path);
        let det_named = ["trace", "audit", "stats", "digest"]
            .iter()
            .any(|m| stem.contains(m));
        Scope {
            r1: !host_time_ok,
            r2: (det_core || det_named) && !test_target,
            r3: (path.starts_with("crates/core/") || path.starts_with("crates/sim/"))
                && !test_target,
            r4: !host_time_ok && !test_target,
            r5: true,
        }
    }
}

/// Lints one file's source under its workspace-relative path.
///
/// Interprocedural rules see only this one file; use
/// [`crate::lint_files`] to analyze a set together.
pub fn lint_source(rel_path: &str, src: &str) -> Report {
    crate::lint_files(&[(rel_path.to_string(), src.to_string())])
}

/// Runs the per-file rules (R1–R5, plus R8/R10 from the v2 families) on
/// one file's tokens.
pub(crate) fn run_intra(rel_path: &str, tokens: &[Token], violations: &mut Vec<Violation>) {
    let scope = Scope::for_path(rel_path);
    if scope.r1 {
        rule_wall_clock(rel_path, tokens, violations);
    }
    if scope.r2 {
        rule_hash_iteration(rel_path, tokens, violations);
    }
    if scope.r3 {
        rule_unwrap_hot_path(rel_path, tokens, violations);
    }
    if scope.r4 {
        rule_calendar_time(rel_path, tokens, violations);
    }
    if scope.r5 {
        rule_ambient_rand(rel_path, tokens, violations);
    }
    if crate::rules2::r8_in_scope(rel_path) {
        crate::rules2::rule_ns_arithmetic(rel_path, tokens, violations);
    }
    if crate::rules2::r10_in_scope(rel_path) {
        crate::rules2::rule_schedule_time(rel_path, tokens, violations);
    }
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

/// R1: `Instant`/`SystemTime` read the host clock; virtual time comes from
/// the `Calendar`/`Timeline`.
fn rule_wall_clock(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for t in tokens {
        if let TokKind::Ident(s) = &t.kind {
            if s == "Instant" || s == "SystemTime" {
                out.push(violation(file, t.line, 0, vec![], format!(
                    "`{s}` reads the host wall clock; simulation time must come from the Calendar/Timeline (host time is only legitimate in crates/bench)"
                )));
            }
        }
    }
}

const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Walks backwards over `seg :: seg :: Name` path segments; returns the
/// index of the head segment of the path ending at `i`.
fn path_head(tokens: &[Token], mut i: usize) -> usize {
    while i >= 3
        && punct_at(tokens, i - 1, ':')
        && punct_at(tokens, i - 2, ':')
        && ident_at(tokens, i - 3).is_some()
    {
        i -= 3;
    }
    i
}

/// R2: iterating a `HashMap`/`HashSet` yields allocator/seed-dependent
/// order. Pass 1 records identifiers declared (or initialized) as hash
/// containers; pass 2 flags iteration call sites and `for … in` loops over
/// them. Test scopes are exempt on both passes.
fn rule_hash_iteration(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let mut hash_decls: BTreeMap<String, &'static str> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let type_name = match &t.kind {
            TokKind::Ident(s) if s == "HashMap" => "HashMap",
            TokKind::Ident(s) if s == "HashSet" => "HashSet",
            _ => continue,
        };
        let head = path_head(tokens, i);
        // `name: [std::collections::]HashMap<...>` (field, binding, param,
        // or struct-literal init).
        if head >= 2 && punct_at(tokens, head - 1, ':') && !punct_at(tokens, head - 2, ':') {
            if let Some(name) = ident_at(tokens, head - 2) {
                hash_decls.insert(name.to_string(), type_name);
            }
        }
        // `[let [mut]] name = [path::]HashMap::new()` (or `::default()`).
        if head >= 2 && punct_at(tokens, head - 1, '=') {
            if let Some(name) = ident_at(tokens, head - 2) {
                if name != "mut" && name != "let" {
                    hash_decls.insert(name.to_string(), type_name);
                }
            }
        }
    }
    if hash_decls.is_empty() {
        return;
    }
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        // `name . method (` where method iterates.
        if let Some(m) = ident_at(tokens, i) {
            if HASH_ITER_METHODS.contains(&m)
                && punct_at(tokens, i + 1, '(')
                && i >= 2
                && punct_at(tokens, i - 1, '.')
            {
                if let Some(name) = ident_at(tokens, i - 2) {
                    if let Some(ty) = hash_decls.get(name) {
                        out.push(violation(file, tokens[i].line, 1, vec![], format!(
                            "`{name}.{m}()` iterates a `{ty}` in a determinism-sensitive path; hash order is seed/allocator-dependent — use BTreeMap/BTreeSet or a sorted snapshot"
                        )));
                    }
                }
            }
        }
        // `for … in [& [mut]] name {`
        if ident_at(tokens, i) == Some("in") {
            let mut j = i + 1;
            if punct_at(tokens, j, '&') {
                j += 1;
            }
            if ident_at(tokens, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_at(tokens, j) {
                if punct_at(tokens, j + 1, '{') {
                    if let Some(ty) = hash_decls.get(name) {
                        out.push(violation(file, tokens[j].line, 1, vec![], format!(
                            "`for … in {name}` iterates a `{ty}` in a determinism-sensitive path; hash order is seed/allocator-dependent — use BTreeMap/BTreeSet or a sorted snapshot"
                        )));
                    }
                }
            }
        }
    }
}

/// R3: `unwrap()`/`expect()`/`panic!` in non-test hot-path code.
fn rule_unwrap_hot_path(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        match ident_at(tokens, i) {
            Some(m @ ("unwrap" | "expect"))
                if i >= 1 && punct_at(tokens, i - 1, '.') && punct_at(tokens, i + 1, '(') =>
            {
                out.push(violation(file, tokens[i].line, 2, vec![], format!(
                    "`.{m}()` in hot-path code can take down the whole simulated machine; return an Err, restructure, or add a documented dilos-lint allow"
                )));
            }
            Some("panic") if punct_at(tokens, i + 1, '!') => {
                out.push(violation(
                    file,
                    tokens[i].line,
                    2,
                    vec![],
                    "`panic!` in hot-path code; return an Err, restructure, or add a documented dilos-lint allow".to_string(),
                ));
            }
            _ => {}
        }
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
            out.push(violation(file, tokens[i].line, 3, vec![], "trace emitted at a literal time; every emit must carry the live virtual time (Calendar/Timeline/stamped access clock)".to_string()));
            continue;
        }
        for t in &arg {
            if let TokKind::Ident(s) = &t.kind {
                if STALE_TIME_PREFIXES.iter().any(|p| s.starts_with(p)) {
                    out.push(violation(file, tokens[i].line, 3, vec![], format!(
                        "trace emitted at `{s}`, which looks like a cached/stale time; take the time from the Calendar/Timeline at the emit site"
                    )));
                    break;
                }
            }
        }
    }
}

const AMBIENT_RAND_IDENTS: [&str; 7] = [
    "thread_rng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// R5: all randomness flows through `dilos_sim::rng` seeded generators.
fn rule_ambient_rand(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if let TokKind::Ident(s) = &t.kind {
            if AMBIENT_RAND_IDENTS.contains(&s.as_str()) {
                out.push(violation(file, t.line, 4, vec![], format!(
                    "`{s}` draws ambient (non-seeded) randomness; all randomness must flow through dilos_sim::rng seeded generators"
                )));
            } else if s == "rand" && punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, ':') {
                out.push(violation(file, t.line, 4, vec![],
                    "the `rand` crate draws ambient randomness; all randomness must flow through dilos_sim::rng seeded generators".to_string(),
                ));
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
