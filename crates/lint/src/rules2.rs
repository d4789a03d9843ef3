//! dilos-lint v2: the interprocedural rule families (R6–R10).
//!
//! R8 and R10 are per-file passes (they need only one file's tokens) and
//! run from the same phase as R4. R6, R7, and R9 need the whole
//! workspace: the call graph for R6/R7, and every file's token stream for
//! R9's emit/match coverage census. Scope:
//!
//! | rule | slug | scope |
//! |------|------|-------|
//! | R6 | `transitive-panic-freedom` | roots: non-test fns in `crates/core`/`crates/sim`; sinks: panic sites in non-test fns *outside* those crates (inside them, clippy's `unwrap_used`/`expect_used`/`panic` deny governs direct sites) |
//! | R7 | `refcell-borrow-overlap` | every non-test fn with a live `borrow_mut()` span |
//! | R8 | `ns-arithmetic-safety` | `crates/sim` files named `sched`/`fabric`/`rdma`/`timeline` |
//! | R9 | `trace-event-coverage` | `TraceEvent`/`SchedEvent` enums declared in `crates/sim`/`crates/core` |
//! | R10 | `schedule-time-monotonicity` | `.schedule*(...)` call sites and returned `(time, SchedEvent::…)` follow-ups in `crates/core`/`crates/sim`/`crates/baselines` |
//!
//! All five anchor their violations at file-local lines, so the existing
//! `// dilos-lint: allow(<rule>, "<reason>")` mechanism shields them with
//! no extension: an R6 finding is suppressed at its *sink* line, an R9
//! finding at the variant declaration line.

use crate::graph::{is_hot_crate, is_test_target, FileAnalysis, Model};
use crate::lexer::{TokKind, Token};
use crate::parser::skip_group;
use crate::report::Violation;
use crate::rules::{violation, STALE_TIME_PREFIXES};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

// ---------------------------------------------------------------------
// R8: Ns-arithmetic safety (per file)
// ---------------------------------------------------------------------

/// File stems whose arithmetic is dominated by virtual-time math.
const R8_STEMS: [&str; 4] = ["sched", "fabric", "rdma", "timeline"];

/// Whether R8 applies to this path.
pub fn r8_in_scope(path: &str) -> bool {
    if !path.starts_with("crates/sim/") || is_test_target(path) {
        return false;
    }
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    R8_STEMS.contains(&stem)
}

/// R8: `+`/`*` on `Ns` values must be `saturating_`/`checked_`.
///
/// Taint is statement-granular: a statement mentions virtual time when it
/// uses a name ascribed `: Ns` anywhere in the file, an identifier
/// containing `_ns`, or the conventional `now`. Every *binary* `+`/`*`
/// (including `+=`/`*=`) in such a statement is flagged.
pub fn rule_ns_arithmetic(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
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
                        out.push(violation(file, t.line, 3, vec![], format!(
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

// ---------------------------------------------------------------------
// R10: schedule-time monotonicity (per file)
// ---------------------------------------------------------------------

/// Whether R10 applies to this path.
pub fn r10_in_scope(path: &str) -> bool {
    (is_hot_crate(path) || path.starts_with("crates/baselines/")) && !is_test_target(path)
}

/// Identifier prefixes that mark a foreign (host/wall) clock.
const HOST_CLOCK_PREFIXES: [&str; 2] = ["host_", "wall_"];

/// R10: the delivery time of every schedule site must derive from a live
/// virtual-time expression — never a bare literal, never a cached/stale
/// value, never a host clock. A schedule site is the first argument of a
/// `.schedule*(...)` call, or the first element of a `(time, SchedEvent::…)`
/// tuple: the follow-up a delivery handler returns for
/// `Calendar::deliver_due` to deliver in place or schedule on its behalf.
pub fn rule_schedule_time(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
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
            out.push(violation(file, tokens[i].line, 5, vec![], format!(
                "{site} given a raw literal delivery time; schedule times must derive from `now`/config so the calendar stays monotone with the causing access"
            )));
            continue;
        }
        for t in &arg {
            if let TokKind::Ident(s) = &t.kind {
                if STALE_TIME_PREFIXES.iter().any(|p| s.starts_with(p))
                    || HOST_CLOCK_PREFIXES.iter().any(|p| s.starts_with(p))
                {
                    out.push(violation(file, tokens[i].line, 5, vec![], format!(
                        "{site} delivery time derives from `{s}`, a cached/foreign clock; recompute from the live virtual `now` at the schedule site"
                    )));
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6 + R7: call-graph rules
// ---------------------------------------------------------------------

/// R6: no non-test fn in `crates/core`/`crates/sim` may transitively
/// reach a panic site in a helper crate. Direct sites inside core/sim are
/// clippy's (the workspace lint table, escaped by `#[expect]`); R6 closes
/// the loophole where a "clean" hot-path function calls an `unwrap`-ing
/// helper elsewhere.
pub fn rule_transitive_panic(model: &Model, out: &mut Vec<Violation>) {
    let roots: Vec<usize> = (0..model.fns.len())
        .filter(|&i| {
            is_hot_crate(&model.fns[i].file)
                && model.is_live(i)
                && !model.fns[i].item.body.is_empty()
        })
        .collect();
    let parent = model.reach_parents(&roots);
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for i in 0..model.fns.len() {
        if parent[i] == usize::MAX || is_hot_crate(&model.fns[i].file) || !model.is_live(i) {
            continue;
        }
        let node = &model.fns[i];
        for p in &node.summary.panics {
            if !seen.insert((node.file.clone(), p.line)) {
                continue;
            }
            let chain = model.chain_to(&parent, i);
            let root = chain.first().map(|s| s.label.clone()).unwrap_or_default();
            let sink_desc = if p.what == "index" {
                "unchecked dynamic indexing".to_string()
            } else {
                format!("`{}`", p.what)
            };
            out.push(violation(&node.file, p.line, 1, chain, format!(
                "{sink_desc} in `{}` is reachable from hot-path `{root}`; a panic here takes down the simulated machine — return an Err, use .get(), or add a documented dilos-lint allow at this sink",
                node.qual_name()
            )));
        }
    }
}

/// R7: a live `borrow_mut()` guard may not span a call whose transitive
/// callees borrow the same cell, and may not overlap a direct same-cell
/// borrow — either is a guaranteed `BorrowMutError` panic at runtime.
pub fn rule_borrow_overlap(model: &Model, out: &mut Vec<Violation>) {
    let trans = model.transitive_borrows();
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for i in 0..model.fns.len() {
        if !model.is_live(i) {
            continue;
        }
        let node = &model.fns[i];
        for span in &node.summary.spans {
            // Direct same-cell borrow while the guard is live.
            for &b in &span.overlaps {
                let site = &node.summary.borrows[b];
                if seen.insert((node.file.clone(), site.line, span.cell.clone())) {
                    out.push(violation(&node.file, site.line, 2, vec![], format!(
                        "`{}` re-borrows `{}` while the borrow_mut guard taken at line {} is still live; this panics with BorrowMutError at runtime",
                        if site.mutable { ".borrow_mut()" } else { ".borrow()" },
                        span.cell, span.line
                    )));
                }
            }
            // Calls whose transitive callees borrow the same cell.
            for &c in &span.calls {
                let Some(callee) = node.resolved[c] else {
                    continue;
                };
                if !trans[callee].contains(&span.cell) {
                    continue;
                }
                let line = node.summary.calls[c].line;
                if !seen.insert((node.file.clone(), line, span.cell.clone())) {
                    continue;
                }
                let mut chain = vec![node.path_step()];
                chain.extend(model.borrow_chain(callee, &span.cell));
                out.push(violation(&node.file, line, 2, chain, format!(
                    "call into `{}` while the borrow_mut guard on `{}` (taken at line {}) is live; the callee transitively borrows the same cell, which panics with BorrowMutError",
                    model.fns[callee].qual_name(), span.cell, span.line
                )));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R9: trace-event coverage
// ---------------------------------------------------------------------

/// Enum names whose variants must be fully emitted and consumed.
const R9_ENUMS: [&str; 2] = ["TraceEvent", "SchedEvent"];

#[derive(Default, Debug, Clone, Copy)]
struct Usage {
    emitted: bool,
    matched: bool,
}

/// Whether `path` hosts live emit sites for R9 purposes.
fn r9_emit_scope(path: &str) -> bool {
    (is_hot_crate(path) || path.starts_with("crates/baselines/")) && !is_test_target(path)
}

/// Whether `path` is an audit/digest consumer (TraceEvent matches only
/// count here — the encoder in `trace.rs` itself does not absolve a
/// variant of audit coverage).
fn r9_audit_scope(path: &str) -> bool {
    let stem = path.rsplit('/').next().unwrap_or(path);
    (stem.contains("audit") || stem.contains("digest")) && !is_test_target(path)
}

/// R9: every `TraceEvent`/`SchedEvent` variant must be constructed in
/// live sim/core/baselines code AND matched by a consumer — an auditor or
/// digest for `TraceEvent`, any live dispatch for `SchedEvent`. Catches
/// the "new event, forgot the auditor" regression class.
pub fn rule_event_coverage(files: &[FileAnalysis], model: &Model, out: &mut Vec<Violation>) {
    // Variants of interest, keyed (enum, variant).
    let mut usage: BTreeMap<(String, String), Usage> = BTreeMap::new();
    let mut decl: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (file, v) in &model.variants {
        if R9_ENUMS.contains(&v.owner.as_str())
            && !v.in_test
            && is_hot_crate(file)
            && !is_test_target(file)
        {
            usage.insert((v.owner.clone(), v.name.clone()), Usage::default());
            decl.insert((v.owner.clone(), v.name.clone()), (file.clone(), v.line));
        }
    }
    if usage.is_empty() {
        return;
    }
    // Bare-name lookup for files with `use Enum::*;` (owned strings so
    // the usage map stays mutably borrowable during classification).
    let variant_owner: BTreeMap<String, String> =
        usage.keys().map(|(e, v)| (v.clone(), e.clone())).collect();

    for f in files {
        let toks = &f.lexed.tokens;
        let globs: Vec<&str> = f
            .items
            .glob_enums
            .iter()
            .map(String::as_str)
            .filter(|g| R9_ENUMS.contains(g))
            .collect();
        // Ranges to skip: enum declaration bodies (a variant's own
        // declaration is neither an emit nor a match). Ranges where a
        // usage is a pattern regardless of trailing token: the second
        // argument of `matches!`.
        let mut skip: Vec<(usize, usize)> = Vec::new();
        let mut pattern_ctx: Vec<(usize, usize)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            if ident_at(toks, i) == Some("enum") {
                let mut j = i + 1;
                while j < toks.len() && !punct_at(toks, j, '{') {
                    if punct_at(toks, j, ';') {
                        break;
                    }
                    j += 1;
                }
                if punct_at(toks, j, '{') {
                    if let Some(close) = skip_group(toks, j) {
                        skip.push((j, close));
                        i = close;
                        continue;
                    }
                }
            }
            if ident_at(toks, i) == Some("matches")
                && punct_at(toks, i + 1, '!')
                && punct_at(toks, i + 2, '(')
            {
                if let Some(close) = skip_group(toks, i + 2) {
                    // Pattern context: after the first top-level comma.
                    let mut d = 0i32;
                    let mut k = i + 3;
                    while k < close {
                        match &toks[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                d += 1
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                d -= 1
                            }
                            TokKind::Punct(',') if d == 0 => {
                                pattern_ctx.push((k, close));
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            i += 1;
        }

        // Pass 1: collect variant mention sites; pass 2 classifies them
        // (two passes so the usage map is not borrowed during the scan).
        let mut sites: Vec<(String, String, usize)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            if skip.iter().any(|&(a, b)| i >= a && i < b) {
                i += 1;
                continue;
            }
            if let Some(e) = ident_at(toks, i) {
                if R9_ENUMS.contains(&e) && punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':')
                {
                    if let Some(v) = ident_at(toks, i + 3) {
                        if usage.contains_key(&(e.to_string(), v.to_string())) {
                            sites.push((e.to_string(), v.to_string(), i + 3));
                            i += 4;
                            continue;
                        }
                    }
                }
                // Bare variant names, only under `use Enum::*;`.
                if !globs.is_empty() {
                    if let Some(owner) = variant_owner.get(e) {
                        let qualified =
                            (i >= 2 && punct_at(toks, i - 1, ':') && punct_at(toks, i - 2, ':'))
                                || (i >= 1 && punct_at(toks, i - 1, '.'));
                        if globs.contains(&owner.as_str()) && !qualified {
                            sites.push((owner.clone(), e.to_string(), i));
                        }
                    }
                }
            }
            i += 1;
        }

        for (enum_name, var_name, at) in sites {
            let key = (enum_name.clone(), var_name);
            let Some(u) = usage.get_mut(&key) else {
                continue;
            };
            if toks[at].in_test {
                continue;
            }
            // Classify: pattern or construction.
            let mut j = at + 1;
            if punct_at(toks, j, '{') || punct_at(toks, j, '(') {
                if let Some(p) = skip_group(toks, j) {
                    j = p;
                }
            }
            let in_matches = pattern_ctx.iter().any(|&(a, b)| at > a && at < b);
            let is_pattern = in_matches
                || punct_at(toks, j, '=')
                || punct_at(toks, j, '|')
                || ident_at(toks, j) == Some("if");
            if is_pattern {
                let consumer_ok = if enum_name == "TraceEvent" {
                    r9_audit_scope(&f.path)
                } else {
                    r9_emit_scope(&f.path)
                };
                if consumer_ok {
                    u.matched = true;
                }
            } else if r9_emit_scope(&f.path) {
                u.emitted = true;
            }
        }
    }

    for ((enum_name, var_name), u) in &usage {
        let (file, line) = &decl[&(enum_name.clone(), var_name.clone())];
        if !u.emitted {
            out.push(violation(file, *line, 4, vec![], format!(
                "variant `{enum_name}::{var_name}` is never constructed in live sim/core/baselines code; dead events rot — emit it or remove it"
            )));
        }
        if !u.matched {
            let consumer = if enum_name == "TraceEvent" {
                "an audit/digest consumer"
            } else {
                "any live dispatch"
            };
            out.push(violation(file, *line, 4, vec![], format!(
                "variant `{enum_name}::{var_name}` is never matched by {consumer}; the auditor cannot see it — extend the consumer or remove the variant"
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileAnalysis;

    fn run_all(files: &[(&str, &str)]) -> Vec<Violation> {
        let fas: Vec<FileAnalysis> = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();
        let model = Model::build(&fas);
        let mut out = Vec::new();
        for f in &fas {
            if r8_in_scope(&f.path) {
                rule_ns_arithmetic(&f.path, &f.lexed.tokens, &mut out);
            }
            if r10_in_scope(&f.path) {
                rule_schedule_time(&f.path, &f.lexed.tokens, &mut out);
            }
        }
        rule_transitive_panic(&model, &mut out);
        rule_borrow_overlap(&model, &mut out);
        rule_event_coverage(&fas, &model, &mut out);
        out
    }

    #[test]
    fn r6_reports_cross_crate_panic_with_path() {
        let v = run_all(&[
            (
                "crates/core/src/node.rs",
                r#"
                struct Node { h: Rc<RefCell<Heap>> }
                impl Node {
                    fn fault(&self) -> u64 { self.h.borrow().carve(3) }
                }
                "#,
            ),
            (
                "crates/alloc/src/heap.rs",
                r#"
                struct Heap { pages: Vec<u64> }
                impl Heap {
                    fn carve(&self, idx: usize) -> u64 { self.pages[idx] }
                }
                "#,
            ),
        ]);
        let r6: Vec<&Violation> = v.iter().filter(|v| v.rule == "R6").collect();
        assert_eq!(r6.len(), 1);
        assert_eq!(r6[0].file, "crates/alloc/src/heap.rs");
        assert_eq!(r6[0].path.len(), 2, "root and sink in the chain");
        assert!(r6[0].path[0].label.contains("fault"));
        assert!(r6[0].path[1].label.contains("carve"));
    }

    #[test]
    fn r9_flags_unconsumed_variant_only() {
        let v = run_all(&[
            (
                "crates/sim/src/trace.rs",
                "pub enum TraceEvent { Fault { vpn: u64 }, Evict { vpn: u64 } }\n\
                 fn emit_all(s: &S) { s.push(TraceEvent::Fault { vpn: 1 }); s.push(TraceEvent::Evict { vpn: 2 }); }\n",
            ),
            (
                "crates/core/src/audit.rs",
                "fn consume(ev: &TraceEvent) -> u32 { match ev { TraceEvent::Fault { .. } => 1, _ => 0 } }\n",
            ),
        ]);
        let r9: Vec<&Violation> = v.iter().filter(|v| v.rule == "R9").collect();
        assert_eq!(r9.len(), 1, "only Evict is unconsumed: {r9:?}");
        assert!(r9[0].message.contains("Evict"));
        assert!(r9[0].message.contains("audit"));
        assert_eq!(r9[0].line, 1, "anchored at the variant declaration");
    }

    #[test]
    fn r8_flags_bare_ops_only_in_time_statements() {
        let v = run_all(&[(
            "crates/sim/src/fabric.rs",
            "fn cost(start: Ns, wire: Ns, n: u64) -> Ns {\n\
             let count = n + 1;\n\
             let end = start + wire;\n\
             end\n}\n",
        )]);
        let r8: Vec<&Violation> = v.iter().filter(|v| v.rule == "R8").collect();
        assert_eq!(r8.len(), 1, "{r8:?}");
        assert_eq!(r8[0].line, 3, "the count arithmetic is not time math");
    }

    #[test]
    fn r10_flags_literal_schedule_times() {
        let v = run_all(&[(
            "crates/sim/src/pump.rs",
            "fn arm(cal: &Calendar, now: Ns) {\n\
             cal.schedule(1000, SchedEvent::ReclaimTick);\n\
             cal.schedule(now + 10, SchedEvent::ReclaimTick);\n}\n",
        )]);
        let r10: Vec<&Violation> = v.iter().filter(|v| v.rule == "R10").collect();
        assert_eq!(r10.len(), 1, "{r10:?}");
        assert_eq!(r10[0].line, 2);
    }

    #[test]
    fn r10_checks_returned_follow_ups_like_schedule_calls() {
        let v = run_all(&[(
            "crates/core/src/pump.rs",
            "fn tick(&mut self, t: Ns) -> Option<(Ns, SchedEvent)> {\n\
             if self.idle { return Some((1000, SchedEvent::ReclaimTick)); }\n\
             if self.lazy { return Some((last_tick, SchedEvent::ReclaimTick)); }\n\
             let (at, ev) = (t, SchedEvent::ReclaimTick);\n\
             Some((self.bg.next_free(t), SchedEvent::ReclaimTick))\n}\n",
        )]);
        let r10: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "R10")
            .map(|v| v.line)
            .collect();
        assert_eq!(r10, [2, 3], "{v:?}");
    }

    #[test]
    fn r7_flags_call_that_reenters_cell() {
        let v = run_all(&[(
            "crates/sim/src/cluster.rs",
            r#"
            struct Pool { ep: Rc<RefCell<Endpoint>> }
            struct Endpoint { n: u64 }
            impl Pool {
                fn peek(&self) -> u64 { self.ep.borrow().n }
                fn poke(&self) {
                    let mut g = self.ep.borrow_mut();
                    let x = self.peek();
                }
            }
            "#,
        )]);
        let r7: Vec<&Violation> = v.iter().filter(|v| v.rule == "R7").collect();
        assert_eq!(r7.len(), 1, "{r7:?}");
        assert!(r7[0].message.contains("Endpoint"));
        assert!(!r7[0].path.is_empty());
    }
}
