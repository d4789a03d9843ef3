//! Intraprocedural effect summaries: what one function *does*.
//!
//! For every parsed function body this module extracts the facts the
//! interprocedural rules consume:
//!
//! - **call sites** — method calls with a resolved receiver type where the
//!   local type environment allows it (`self` fields, typed params/lets,
//!   chained field access through `Rc<RefCell<...>>` peeling), associated
//!   calls (`Type::new`), and free calls;
//! - **panic sites** — `unwrap`/`expect`, `panic!`-family macros, and
//!   dynamic (non-literal) indexing, i.e. everything rule R6 treats as a
//!   transitive panic sink;
//! - **borrow sites** — `.borrow()`/`.borrow_mut()` on identified
//!   `RefCell` cells, keyed by the cell's *inner type* so aliased handles
//!   (two structs holding clones of one `Rc<RefCell<RdmaEndpoint>>`)
//!   conflate to the same cell;
//! - **mutable borrow spans** — the extent of each live `borrow_mut()`
//!   (a `let` guard lives to the end of its block or an explicit `drop`,
//!   a temporary to the end of its statement) together with every call
//!   and same-cell borrow that happens inside it, which is exactly what
//!   rule R7 needs.
//!
//! Resolution is deliberately conservative: a receiver whose type cannot
//! be derived stays `None`, and the call-graph layer only creates an edge
//! for it when the method name is globally unambiguous (and not a common
//! std name). A missed edge weakens a rule; a wrong edge fabricates a
//! violation — the design prefers the former.

use crate::lexer::{TokKind, Token};
use crate::parser::{peel_type, skip_group, FieldItem, FnItem};
use std::collections::BTreeMap;

/// Methods that preserve the receiver type (and its `RefCell`-ness) when
/// chained through.
const PASSTHROUGH: [&str; 4] = ["clone", "to_owned", "as_ref", "as_mut"];

/// Keywords that must never be read as call or receiver names.
const KEYWORDS: [&str; 22] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "as", "in",
    "let", "mut", "move", "ref", "fn", "impl", "pub", "use", "mod", "where", "dyn",
];

/// A resolved-enough call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `recv.name(...)` — receiver type known when `recv` is `Some`.
    Method { recv: Option<String>, name: String },
    /// `Type::name(...)`.
    Assoc { ty: String, name: String },
    /// `name(...)` or `module::name(...)`.
    Free { name: String },
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: u32,
    pub target: CallTarget,
}

/// A direct panic sink: what rule R6 propagates backwards.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: u32,
    /// `unwrap`, `expect`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!`, or `index` (dynamic `xs[i]`).
    pub what: &'static str,
}

/// A direct `.borrow()`/`.borrow_mut()` on an identified cell.
#[derive(Debug, Clone)]
pub struct BorrowSite {
    /// Inner type of the `RefCell` (cell identity).
    pub cell: String,
    pub line: u32,
    pub mutable: bool,
}

/// The extent of one live `borrow_mut()` guard.
#[derive(Debug, Clone)]
pub struct MutSpan {
    pub cell: String,
    /// Line the `borrow_mut()` happens on.
    pub line: u32,
    /// Indices into [`FnSummary::calls`] made while the guard is live.
    pub calls: Vec<usize>,
    /// Indices into [`FnSummary::borrows`] of *same-cell* borrows taken
    /// while the guard is live (a guaranteed `BorrowError` panic).
    pub overlaps: Vec<usize>,
}

/// Everything the interprocedural rules need to know about one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub borrows: Vec<BorrowSite>,
    pub spans: Vec<MutSpan>,
}

/// Cross-file type facts the summarizer resolves chains against.
#[derive(Debug, Default)]
pub struct TypeTables {
    /// `owner -> field -> (peeled type, crossed RefCell)`.
    pub fields: BTreeMap<String, BTreeMap<String, (String, bool)>>,
    /// `(type, method) -> (peeled return type, return crosses RefCell)`.
    pub method_ret: BTreeMap<(String, String), (String, bool)>,
    /// `free fn name -> (peeled return type, crosses RefCell)` (only kept
    /// when the name is unique among free fns).
    pub free_ret: BTreeMap<String, (String, bool)>,
}

impl TypeTables {
    /// Builds the tables from every file's parsed items.
    pub fn build(all_fields: &[FieldItem], all_fns: &[(String, FnItem)]) -> TypeTables {
        let mut t = TypeTables::default();
        for f in all_fields {
            t.fields
                .entry(f.owner.clone())
                .or_default()
                .insert(f.name.clone(), (f.ty.clone(), f.ref_cell));
        }
        let mut free_seen: BTreeMap<String, u32> = BTreeMap::new();
        for (_, f) in all_fns {
            let ret = (f.ret.clone(), false);
            match &f.impl_type {
                Some(ty) => {
                    t.method_ret
                        .entry((ty.clone(), f.name.clone()))
                        .or_insert(ret);
                }
                None => {
                    *free_seen.entry(f.name.clone()).or_insert(0) += 1;
                    t.free_ret.entry(f.name.clone()).or_insert(ret);
                }
            }
        }
        for (name, n) in free_seen {
            if n > 1 {
                t.free_ret.remove(&name);
            }
        }
        t
    }
}

/// One backward-collected receiver-chain segment.
enum Seg {
    /// A plain name (`self`, a local, a field).
    Name(String),
    /// A call segment `name(...)`.
    Call(String),
    /// An `Assoc` base: `Type::name(...)`.
    TypeCall(String, String),
    /// An index `[...]` (type-preserving thanks to `Vec` peeling).
    Index,
    /// Something the resolver cannot follow.
    Opaque,
}

fn is_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
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

/// Finds the opening index of the group whose closer sits at `close`.
fn open_of(tokens: &[Token], close: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        match &tokens[i].kind {
            TokKind::Punct(p) if *p == c => depth += 1,
            TokKind::Punct(p) if *p == o => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Extracts effect summaries for one function body.
pub struct Summarizer<'a> {
    pub tokens: &'a [Token],
    pub tables: &'a TypeTables,
    pub impl_type: Option<&'a str>,
}

impl<'a> Summarizer<'a> {
    /// Walks `item`'s body and produces its summary.
    pub fn summarize(&self, item: &FnItem) -> FnSummary {
        let mut s = FnSummary::default();
        // Local type environment: name -> (peeled ty, is RefCell handle).
        let mut env: BTreeMap<String, (String, bool)> = BTreeMap::new();
        for p in &item.params {
            if !p.ty.is_empty() {
                env.insert(p.name.clone(), (p.ty.clone(), p.ref_cell));
            }
        }
        // Open borrow_mut spans: (cell, line, guard name, open depth,
        // temporary?, call idxs, overlap idxs).
        struct Open {
            cell: String,
            line: u32,
            guard: Option<String>,
            depth: i32,
            calls: Vec<usize>,
            overlaps: Vec<usize>,
        }
        let mut open: Vec<Open> = Vec::new();
        let mut depth = 0i32;
        // Set while scanning a `let g = ....borrow_mut()` statement: the
        // binding that should become a guard rather than a temporary.
        let mut pending_guard: Option<String> = None;
        let toks = self.tokens;
        let close_span = |o: Open, s: &mut FnSummary| {
            s.spans.push(MutSpan {
                cell: o.cell,
                line: o.line,
                calls: o.calls,
                overlaps: o.overlaps,
            });
        };

        let mut i = item.body.start;
        while i < item.body.end {
            match &toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    // Guards die with their block; temporaries can never
                    // outlive it either.
                    while let Some(pos) = open.iter().position(|o| o.depth > depth) {
                        close_span(open.remove(pos), &mut s);
                    }
                }
                TokKind::Punct(';') => {
                    pending_guard = None;
                    while let Some(pos) = open
                        .iter()
                        .position(|o| o.guard.is_none() && o.depth >= depth)
                    {
                        close_span(open.remove(pos), &mut s);
                    }
                }
                TokKind::Punct('[')
                    if !toks[i].in_test && self.indexes_dynamically(i, item.body.end) =>
                {
                    s.panics.push(PanicSite {
                        line: toks[i].line,
                        what: "index",
                    });
                }
                TokKind::Ident(w) if w == "let" => {
                    if let Some((name, Some((ty, rc, guard)))) =
                        self.infer_let(i, item.body.end, &env)
                    {
                        if guard {
                            pending_guard = Some(name.clone());
                        }
                        env.insert(name, (ty, rc));
                    }
                }
                TokKind::Ident(w) if w == "drop" && punct_at(toks, i + 1, '(') => {
                    if let Some(g) = ident_at(toks, i + 2) {
                        if punct_at(toks, i + 3, ')') {
                            while let Some(pos) =
                                open.iter().position(|o| o.guard.as_deref() == Some(g))
                            {
                                close_span(open.remove(pos), &mut s);
                            }
                        }
                    }
                }
                TokKind::Ident(w)
                    if !toks[i].in_test
                        && matches!(
                            w.as_str(),
                            "panic" | "unreachable" | "todo" | "unimplemented"
                        )
                        && punct_at(toks, i + 1, '!') =>
                {
                    let what = match w.as_str() {
                        "panic" => "panic!",
                        "unreachable" => "unreachable!",
                        "todo" => "todo!",
                        _ => "unimplemented!",
                    };
                    s.panics.push(PanicSite {
                        line: toks[i].line,
                        what,
                    });
                }
                TokKind::Ident(name)
                    if !toks[i].in_test
                        && punct_at(toks, i + 1, '(')
                        && !KEYWORDS.contains(&name.as_str()) =>
                {
                    let line = toks[i].line;
                    // Classify by what precedes the name.
                    if i > item.body.start && punct_at(toks, i - 1, '.') {
                        let (rty, rc) = self.resolve_recv(i - 1, item.body.start, &env);
                        if rc && (name == "borrow" || name == "borrow_mut") {
                            if let Some(cell) = rty {
                                let b_idx = s.borrows.len();
                                s.borrows.push(BorrowSite {
                                    cell: cell.clone(),
                                    line,
                                    mutable: name == "borrow_mut",
                                });
                                for o in open.iter_mut() {
                                    if o.cell == cell {
                                        o.overlaps.push(b_idx);
                                    }
                                }
                                if name == "borrow_mut" {
                                    open.push(Open {
                                        cell,
                                        line,
                                        guard: pending_guard.take(),
                                        depth,
                                        calls: Vec::new(),
                                        overlaps: Vec::new(),
                                    });
                                }
                            }
                        } else if name == "unwrap" || name == "expect" {
                            s.panics.push(PanicSite {
                                line,
                                what: if name == "unwrap" { "unwrap" } else { "expect" },
                            });
                        } else if !PASSTHROUGH.contains(&name.as_str()) || rty.is_some() {
                            let c_idx = s.calls.len();
                            s.calls.push(CallSite {
                                line,
                                target: CallTarget::Method {
                                    recv: rty,
                                    name: name.clone(),
                                },
                            });
                            for o in open.iter_mut() {
                                o.calls.push(c_idx);
                            }
                        }
                    } else if i >= 2 && punct_at(toks, i - 1, ':') && punct_at(toks, i - 2, ':') {
                        if let Some(head) = ident_at(toks, i.wrapping_sub(3)) {
                            if is_upper(name) {
                                // `Type::Variant(...)` — construction, not
                                // a call edge.
                            } else if is_upper(head) || head == "Self" {
                                let ty = if head == "Self" {
                                    self.impl_type.unwrap_or("Self").to_string()
                                } else {
                                    head.to_string()
                                };
                                let c_idx = s.calls.len();
                                s.calls.push(CallSite {
                                    line,
                                    target: CallTarget::Assoc {
                                        ty,
                                        name: name.clone(),
                                    },
                                });
                                for o in open.iter_mut() {
                                    o.calls.push(c_idx);
                                }
                            } else {
                                // `module::free(...)`.
                                let c_idx = s.calls.len();
                                s.calls.push(CallSite {
                                    line,
                                    target: CallTarget::Free { name: name.clone() },
                                });
                                for o in open.iter_mut() {
                                    o.calls.push(c_idx);
                                }
                            }
                        }
                    } else if !is_upper(name) {
                        // Bare `free(...)` (tuple-struct constructors are
                        // capitalized and skipped).
                        let c_idx = s.calls.len();
                        s.calls.push(CallSite {
                            line,
                            target: CallTarget::Free { name: name.clone() },
                        });
                        for o in open.iter_mut() {
                            o.calls.push(c_idx);
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        while let Some(o) = open.pop() {
            close_span(o, &mut s);
        }
        s
    }

    /// True when the `[` at `i` is a dynamic index expression: preceded by
    /// a value (ident/`)`/`]`, not a keyword, macro bang, or attribute)
    /// and containing at least one identifier.
    fn indexes_dynamically(&self, i: usize, end: usize) -> bool {
        let toks = self.tokens;
        let prev_ok = if i == 0 {
            false
        } else {
            match &toks[i - 1].kind {
                TokKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            }
        };
        if !prev_ok {
            return false;
        }
        let Some(close) = skip_group(toks, i) else {
            return false;
        };
        let close = close.min(end);
        toks[i + 1..close.saturating_sub(1)]
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(_)))
    }

    /// Lookahead over a `let` statement starting at the `let` keyword.
    /// Returns `(binding name, Some((ty, refcell, opens_guard)))` when the
    /// binding's type can be inferred.
    #[expect(
        clippy::type_complexity,
        reason = "a one-off tuple read only by its single caller"
    )]
    fn infer_let(
        &self,
        let_idx: usize,
        end: usize,
        env: &BTreeMap<String, (String, bool)>,
    ) -> Option<(String, Option<(String, bool, bool)>)> {
        let toks = self.tokens;
        let mut i = let_idx + 1;
        if ident_at(toks, i) == Some("mut") {
            i += 1;
        }
        // Pattern: `name`, or `Some(name)`-style single-binding wrapper.
        let first = ident_at(toks, i)?;
        let name;
        if is_upper(first) && punct_at(toks, i + 1, '(') {
            name = ident_at(toks, i + 2)?.to_string();
            i = skip_group(toks, i + 1)?;
        } else if is_upper(first) {
            return None; // struct pattern etc.
        } else {
            name = first.to_string();
            i += 1;
        }
        // Optional ascription `: Type`.
        let mut ascribed: Option<(String, bool)> = None;
        if punct_at(toks, i, ':') && !punct_at(toks, i + 1, ':') {
            let mut stop = i + 1;
            let mut d = 0i32;
            while stop < end {
                match &toks[stop].kind {
                    TokKind::Punct('<') => d += 1,
                    TokKind::Punct('>') => d -= 1,
                    TokKind::Punct('=') | TokKind::Punct(';') if d <= 0 => break,
                    _ => {}
                }
                stop += 1;
            }
            let (ty, rc) = peel_type(toks, i + 1, stop);
            if !ty.is_empty() {
                ascribed = Some((ty, rc));
            }
            i = stop;
        }
        if !punct_at(toks, i, '=') {
            return Some((name, ascribed.map(|(t, r)| (t, r, false))));
        }
        // Infer from the initializer chain.
        let (ty, rc, guard) = self.eval_init(i + 1, end, env);
        if let Some((at, arc)) = ascribed {
            return Some((name, Some((at, arc, guard))));
        }
        match ty {
            Some(t) => Some((name, Some((t, rc, guard)))),
            None => Some((name, None)),
        }
    }

    /// Evaluates an initializer expression's leading chain:
    /// `Rc::new(RefCell::new(T::new(..)))`, `self.field.borrow_mut()`,
    /// `local.clone()`, ... Returns `(type, refcell, ends_in_borrow_mut)`.
    fn eval_init(
        &self,
        mut i: usize,
        end: usize,
        env: &BTreeMap<String, (String, bool)>,
    ) -> (Option<String>, bool, bool) {
        let toks = self.tokens;
        let mut rc_seen = false;
        // Descend through wrapper constructors.
        loop {
            if punct_at(toks, i, '&') {
                i += 1;
                continue;
            }
            let Some(head) = ident_at(toks, i) else {
                return (None, false, false);
            };
            if matches!(
                head,
                "Rc" | "Arc" | "Box" | "Some" | "Ok" | "RefCell" | "Cell"
            ) && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
                && punct_at(toks, i + 4, '(')
            {
                if head == "RefCell" {
                    rc_seen = true;
                }
                i += 5; // into the constructor argument
                continue;
            }
            if head == "Some" && punct_at(toks, i + 1, '(') {
                i += 2;
                continue;
            }
            break;
        }
        // Base value.
        let (mut ty, mut rc): (Option<String>, bool) = (None, false);
        let head = ident_at(toks, i).unwrap_or("");
        let mut j = i;
        if head == "self" {
            ty = self.impl_type.map(str::to_string);
            j += 1;
        } else if let Some((t, r)) = env.get(head) {
            ty = Some(t.clone());
            rc = *r;
            j += 1;
        } else if is_upper(head) && punct_at(toks, j + 1, '{') {
            // Struct literal `Type { ... }`.
            ty = Some(head.to_string());
            match skip_group(toks, j + 1) {
                Some(p) => j = p,
                None => return (ty, rc_seen, false),
            }
        } else if is_upper(head) && punct_at(toks, j + 1, ':') && punct_at(toks, j + 2, ':') {
            // `Type::ctor(...)`.
            let m = ident_at(toks, j + 3).unwrap_or("");
            if let Some((r_ty, r_rc)) = self
                .tables
                .method_ret
                .get(&(head.to_string(), m.to_string()))
            {
                if !r_ty.is_empty() {
                    ty = Some(r_ty.clone());
                    rc = *r_rc;
                }
            }
            if ty.is_none() && (m == "new" || m == "default" || m.starts_with("with_")) {
                ty = Some(head.to_string());
            }
            j += 4;
            if punct_at(toks, j, '(') {
                match skip_group(toks, j) {
                    Some(p) => j = p,
                    None => return (ty, rc || rc_seen, false),
                }
            }
        } else {
            return (None, false, false);
        }
        // Postfix chain.
        let mut last_borrow_mut = false;
        while j < end && punct_at(toks, j, '.') {
            let Some(m) = ident_at(toks, j + 1) else {
                break;
            };
            last_borrow_mut = false;
            if punct_at(toks, j + 2, '(') {
                if rc && (m == "borrow" || m == "borrow_mut") {
                    last_borrow_mut = m == "borrow_mut";
                    rc = false;
                } else if PASSTHROUGH.contains(&m) {
                    // type preserved
                } else if let Some(t) = &ty {
                    match self.tables.method_ret.get(&(t.clone(), m.to_string())) {
                        Some((r_ty, r_rc)) if !r_ty.is_empty() => {
                            ty = Some(r_ty.clone());
                            rc = *r_rc;
                        }
                        _ => {
                            ty = None;
                            rc = false;
                        }
                    }
                } else {
                    ty = None;
                }
                match skip_group(toks, j + 2) {
                    Some(p) => j = p,
                    None => break,
                }
            } else {
                // Field access.
                match ty
                    .as_ref()
                    .and_then(|t| self.tables.fields.get(t))
                    .and_then(|fs| fs.get(m))
                {
                    Some((f_ty, f_rc)) => {
                        ty = Some(f_ty.clone());
                        rc = *f_rc;
                    }
                    None => {
                        ty = None;
                        rc = false;
                    }
                }
                j += 2;
            }
        }
        (ty, rc || rc_seen, last_borrow_mut)
    }

    /// Resolves the receiver chain ending at the `.` token at `dot`.
    /// Returns the receiver's `(peeled type, is-RefCell-handle)`.
    fn resolve_recv(
        &self,
        dot: usize,
        start: usize,
        env: &BTreeMap<String, (String, bool)>,
    ) -> (Option<String>, bool) {
        let toks = self.tokens;
        // Collect segments backwards.
        let mut segs: Vec<Seg> = Vec::new();
        let mut j = dot; // points at a `.`
        loop {
            if j == start {
                return (None, false);
            }
            let k = j - 1;
            match &toks[k].kind {
                TokKind::Punct(')') => {
                    let Some(open) = open_of(toks, k, '(', ')') else {
                        return (None, false);
                    };
                    if open <= start {
                        return (None, false);
                    }
                    match ident_at(toks, open - 1) {
                        Some(m) if !KEYWORDS.contains(&m) => {
                            // `name(...)`: method/assoc/free call segment.
                            if open >= 3
                                && punct_at(toks, open - 2, ':')
                                && punct_at(toks, open - 3, ':')
                            {
                                let head = ident_at(toks, open.wrapping_sub(4)).unwrap_or("");
                                segs.push(Seg::TypeCall(head.to_string(), m.to_string()));
                                break;
                            }
                            segs.push(Seg::Call(m.to_string()));
                            if open >= 2 && punct_at(toks, open - 2, '.') {
                                j = open - 2;
                                continue;
                            }
                            break;
                        }
                        _ => {
                            // Parenthesized expression.
                            segs.push(Seg::Opaque);
                            break;
                        }
                    }
                }
                TokKind::Punct(']') => {
                    let Some(open) = open_of(toks, k, '[', ']') else {
                        return (None, false);
                    };
                    if open <= start {
                        return (None, false);
                    }
                    segs.push(Seg::Index);
                    // The `[` behaves like a `.`-continuation: the token
                    // before it is the indexed value.
                    if open == start {
                        return (None, false);
                    }
                    match &toks[open - 1].kind {
                        TokKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                            segs.push(Seg::Name(s.clone()));
                            if open >= 2 && punct_at(toks, open - 2, '.') {
                                // Re-enter the loop at that dot; the name
                                // becomes a field segment of what precedes.
                                j = open - 2;
                                continue;
                            }
                            break;
                        }
                        _ => {
                            segs.push(Seg::Opaque);
                            break;
                        }
                    }
                }
                TokKind::Ident(s) => {
                    if KEYWORDS.contains(&s.as_str()) {
                        return (None, false);
                    }
                    segs.push(Seg::Name(s.clone()));
                    if k >= 1 && punct_at(toks, k - 1, '.') {
                        if k - 1 <= start {
                            break;
                        }
                        j = k - 1;
                        continue;
                    }
                    break;
                }
                _ => return (None, false),
            }
        }
        // Resolve forward (segments were collected innermost-last).
        segs.reverse();
        let mut ty: Option<String> = None;
        let mut rc = false;
        for (n, seg) in segs.iter().enumerate() {
            match seg {
                Seg::Name(s) if n == 0 => {
                    if s == "self" {
                        ty = self.impl_type.map(str::to_string);
                    } else if let Some((t, r)) = env.get(s) {
                        ty = Some(t.clone());
                        rc = *r;
                    } else if is_upper(s) {
                        ty = Some(s.clone());
                    } else {
                        return (None, false);
                    }
                }
                Seg::Name(s) => {
                    // Field access on the current type.
                    match ty
                        .as_ref()
                        .and_then(|t| self.tables.fields.get(t))
                        .and_then(|fs| fs.get(s))
                    {
                        Some((f_ty, f_rc)) => {
                            ty = Some(f_ty.clone());
                            rc = *f_rc;
                        }
                        None => return (None, false),
                    }
                }
                Seg::TypeCall(t, m) => {
                    let base = if t == "Self" {
                        self.impl_type.unwrap_or("Self").to_string()
                    } else {
                        t.clone()
                    };
                    match self.tables.method_ret.get(&(base.clone(), m.clone())) {
                        Some((r_ty, r_rc)) if !r_ty.is_empty() => {
                            ty = Some(r_ty.clone());
                            rc = *r_rc;
                        }
                        _ if m == "new" || m == "default" || m.starts_with("with_") => {
                            ty = Some(base);
                        }
                        _ => return (None, false),
                    }
                }
                Seg::Call(m) if n == 0 => match self.tables.free_ret.get(m) {
                    Some((r_ty, r_rc)) if !r_ty.is_empty() => {
                        ty = Some(r_ty.clone());
                        rc = *r_rc;
                    }
                    _ => return (None, false),
                },
                Seg::Call(m) => {
                    if rc && (m == "borrow" || m == "borrow_mut") {
                        rc = false;
                    } else if PASSTHROUGH.contains(&m.as_str()) {
                        // type preserved
                    } else {
                        match ty
                            .as_ref()
                            .and_then(|t| self.tables.method_ret.get(&(t.clone(), m.clone())))
                        {
                            Some((r_ty, r_rc)) if !r_ty.is_empty() => {
                                ty = Some(r_ty.clone());
                                rc = *r_rc;
                            }
                            _ => return (None, false),
                        }
                    }
                }
                Seg::Index => {
                    // `Vec` is peeled from field/param types, so indexing
                    // preserves the element type.
                }
                Seg::Opaque => return (None, false),
            }
        }
        (ty, rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;

    fn summarize_all(src: &str) -> Vec<(String, FnSummary)> {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let mut fields = Vec::new();
        let mut fns = Vec::new();
        fields.extend(items.fields.iter().cloned());
        for f in &items.fns {
            fns.push(("test.rs".to_string(), f.clone()));
        }
        let tables = TypeTables::build(&fields, &fns);
        items
            .fns
            .iter()
            .map(|f| {
                let s = Summarizer {
                    tokens: &lexed.tokens,
                    tables: &tables,
                    impl_type: f.impl_type.as_deref(),
                }
                .summarize(f);
                (f.name.clone(), s)
            })
            .collect()
    }

    #[test]
    fn resolves_self_field_chain_through_refcell() {
        let src = r#"
            struct Pool { ep: Rc<RefCell<Endpoint>> }
            impl Pool {
                fn read(&self) -> u64 {
                    self.ep.borrow_mut().fetch(1)
                }
            }
        "#;
        let sums = summarize_all(src);
        let (_, s) = &sums[0];
        assert_eq!(s.borrows.len(), 1);
        assert_eq!(s.borrows[0].cell, "Endpoint");
        assert!(s.borrows[0].mutable);
        assert_eq!(s.spans.len(), 1, "temporary span recorded");
        // `.fetch` is a call on the borrowed inner value, inside the span.
        assert_eq!(s.calls.len(), 1);
        assert_eq!(
            s.calls[0].target,
            CallTarget::Method {
                recv: Some("Endpoint".into()),
                name: "fetch".into()
            }
        );
        assert_eq!(s.spans[0].calls, vec![0]);
    }

    #[test]
    fn let_guard_span_runs_to_block_end_or_drop() {
        let src = r#"
            struct Pool { ep: Rc<RefCell<Endpoint>> }
            impl Pool {
                fn a(&self) {
                    let mut g = self.ep.borrow_mut();
                    g.poke();
                    other();
                }
                fn b(&self) {
                    let g = self.ep.borrow_mut();
                    drop(g);
                    after();
                }
            }
        "#;
        let sums = summarize_all(src);
        let (_, a) = &sums[0];
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans[0].calls.len(), 2, "poke and other are in-span");
        let (_, b) = &sums[1];
        assert_eq!(b.spans.len(), 1);
        assert!(
            b.spans[0].calls.is_empty(),
            "drop(g) ends the guard before after()"
        );
    }

    #[test]
    fn same_cell_reborrow_is_an_overlap() {
        let src = r#"
            struct Pool { ep: Rc<RefCell<Endpoint>>, other: Rc<RefCell<Stats>> }
            impl Pool {
                fn bad(&self) {
                    let g = self.ep.borrow_mut();
                    let h = self.ep.borrow();
                    let ok = self.other.borrow();
                }
            }
        "#;
        let sums = summarize_all(src);
        let (_, s) = &sums[0];
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].overlaps.len(), 1, "same-cell borrow overlaps");
        assert_eq!(s.borrows[s.spans[0].overlaps[0]].cell, "Endpoint");
    }

    #[test]
    fn panic_sites_and_dynamic_indexing() {
        let src = r#"
            fn f(xs: &[u64], i: usize) -> u64 {
                let a = xs[i];
                let b = xs[0];
                let c = xs.first().unwrap();
                if i > 99 { panic!("too big"); }
                a + b + c
            }
        "#;
        let sums = summarize_all(src);
        let (_, s) = &sums[0];
        let whats: Vec<&str> = s.panics.iter().map(|p| p.what).collect();
        assert_eq!(whats, vec!["index", "unwrap", "panic!"]);
    }

    #[test]
    fn assoc_and_free_calls_are_classified() {
        let src = r#"
            impl Node {
                fn go(&self) {
                    let c = Calendar::new();
                    helper(3);
                    std::mem::take(&mut 1);
                }
            }
        "#;
        let sums = summarize_all(src);
        let (_, s) = &sums[0];
        let t: Vec<&CallTarget> = s.calls.iter().map(|c| &c.target).collect();
        assert_eq!(
            t,
            vec![
                &CallTarget::Assoc {
                    ty: "Calendar".into(),
                    name: "new".into()
                },
                &CallTarget::Free {
                    name: "helper".into()
                },
                &CallTarget::Free {
                    name: "take".into()
                },
            ]
        );
    }

    #[test]
    fn local_refcell_binding_is_tracked() {
        let src = r#"
            struct Core { n: u64 }
            fn f() {
                let cell = Rc::new(RefCell::new(Core { n: 0 }));
                let g = cell.borrow_mut();
            }
        "#;
        let sums = summarize_all(src);
        let (_, s) = &sums.last().unwrap();
        assert_eq!(s.borrows.len(), 1);
        assert_eq!(s.borrows[0].cell, "Core");
    }

    #[test]
    fn test_scope_tokens_are_ignored() {
        let src = r#"
            struct S { v: u64 }
            impl S {
                fn live(&self) -> u64 { self.v }
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { S { v: 0 }.live(); x.unwrap(); }
            }
        "#;
        let sums = summarize_all(src);
        for (name, s) in &sums {
            assert!(
                s.panics.is_empty(),
                "{name}: test-scope unwrap must not count"
            );
        }
    }
}
