//! A hand-rolled, comment/string/raw-string-aware Rust tokenizer.
//!
//! The analyzer must never mistake the word `unwrap` inside a doc comment,
//! a string literal, or a `# Panics` section for a call site, so the lexer
//! classifies every byte of the source before any rule runs. It is not a
//! full Rust lexer — it only distinguishes the shapes the rules care
//! about: identifiers, punctuation, integer literals, string/char
//! literals and lifetimes. Comments are skipped.

/// What a token is, as far as the rules need to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `for`, `unwrap`, ...).
    Ident(String),
    /// A single punctuation byte (`.`, `(`, `{`, `!`, ...).
    Punct(char),
    /// An integer or float literal (value irrelevant to the rules).
    Number,
    /// A string, byte-string, or raw-string literal.
    Str,
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`) — distinct from `Char` so `&'a self` never looks
    /// like an unterminated character literal.
    Lifetime,
}

/// One token with its source position and test-scope classification.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// 1-indexed source line.
    pub line: u32,
    /// True when the token sits inside `#[cfg(test)]` / `#[test]` scope.
    pub in_test: bool,
}

/// Lexes `src`, then marks test scopes (`#[cfg(test)]`/`#[test]` blocks).
pub fn lex(src: &str) -> Vec<Token> {
    let mut tokens = raw_lex(src);
    mark_test_scopes(&mut tokens);
    tokens
}

fn raw_lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i + 1, &mut line);
                out.push(Token {
                    kind: TokKind::Str,
                    line: start_line,
                    in_test: false,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let start_line = line;
                i = skip_raw_or_byte_string(b, i, &mut line);
                out.push(Token {
                    kind: TokKind::Str,
                    line: start_line,
                    in_test: false,
                });
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`, `'\n'`).
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'\\' || b[j] != b'\'') {
                    // Scan a short run: a lifetime is ident bytes NOT
                    // followed by a closing quote.
                    let ident_start = j;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j > ident_start && (j >= b.len() || b[j] != b'\'') {
                        out.push(Token {
                            kind: TokKind::Lifetime,
                            line,
                            in_test: false,
                        });
                        i = j;
                        continue;
                    }
                }
                // Char literal: consume to the closing quote, honoring `\`.
                let mut j = i + 1;
                while j < b.len() && b[j] != b'\'' {
                    if b[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Char,
                    line,
                    in_test: false,
                });
                i = (j + 1).min(b.len());
            }
            _ if c.is_ascii_digit() => {
                // Floats lex as Number Punct('.') Number — the rules only
                // care that these bytes are not identifiers.
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Number,
                    line,
                    in_test: false,
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident(src[start..i].to_string()),
                    line,
                    in_test: false,
                });
            }
            _ => {
                out.push(Token {
                    kind: TokKind::Punct(c as char),
                    line,
                    in_test: false,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` starts `r"`, `r#"`, `b"`, `br"`, or `br#"`.
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"';
    }
    // Plain byte string `b"..."`.
    b[i] == b'b' && j < b.len() && b[j] == b'"'
}

/// Skips past a plain (escaped) string body; `i` points after the opening
/// quote. Returns the index after the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw/byte string starting at `i` (at the `r`/`b`). Returns the
/// index after the closing delimiter.
fn skip_raw_or_byte_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    if i < b.len() && b[i] == b'r' {
        i += 1;
        let mut hashes = 0usize;
        while i < b.len() && b[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        i += 1; // opening quote
        while i < b.len() {
            if b[i] == b'\n' {
                *line += 1;
                i += 1;
            } else if b[i] == b'"' {
                let mut j = i + 1;
                let mut seen = 0usize;
                while j < b.len() && b[j] == b'#' && seen < hashes {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        i
    } else {
        // `b"..."`: same escape rules as a plain string.
        skip_string(b, i + 1, line)
    }
}

/// Marks every token inside `#[cfg(test)]` / `#[test]`-attributed elements.
///
/// Heuristic, not a parser: when an attribute's tokens contain the
/// identifier `test` (not negated via `not(test)`), the attributed element
/// is marked. The element sits at the attribute's nesting depth (counting
/// `(`, `[` and `{`) and ends at the first of:
///
/// - its first braced group, nested braces included — the body of an
///   attributed `mod` or `fn` (unless `=>` follows: then it was a match
///   arm's pattern, and the arm goes on);
/// - a `,` or `;` at its own depth — a field, a struct-literal field, a
///   match arm, or a bodiless item such as `#[cfg(test)] use foo;`;
/// - the close of the group that encloses it (a last field with no comma).
fn mark_test_scopes(tokens: &mut [Token]) {
    let mut nest: i32 = 0;
    // Depths at which a test region closes (stack of open test braces).
    let mut test_close: Vec<i32> = Vec::new();
    // The depth of the element a test attribute is pending on.
    let mut pending: Option<i32> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        // Attribute detection: `#` `[` ... `]` (outer) or `#` `!` `[` ... `]`.
        if tokens[i].kind == TokKind::Punct('#') {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].kind == TokKind::Punct('!') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokKind::Punct('[') {
                let mut brack = 1i32;
                let mut k = j + 1;
                let mut has_test = false;
                let mut prev_ident: Option<&str> = None;
                while k < tokens.len() && brack > 0 {
                    match &tokens[k].kind {
                        TokKind::Punct('[') => brack += 1,
                        TokKind::Punct(']') => brack -= 1,
                        TokKind::Ident(s) => {
                            if s == "test" && prev_ident != Some("not") {
                                has_test = true;
                            }
                            prev_ident = Some(s);
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if has_test {
                    pending = Some(nest);
                }
                // Attribute tokens themselves inherit the current scope.
                let in_test = !test_close.is_empty();
                for t in &mut tokens[i..k] {
                    t.in_test = t.in_test || in_test || has_test;
                }
                i = k;
                continue;
            }
        }
        match tokens[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct('{') => {
                if pending == Some(nest) {
                    test_close.push(nest + 1);
                    pending = None;
                }
                nest += 1;
            }
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if test_close.last() == Some(&nest) {
                    test_close.pop();
                    let arm = matches!(tokens.get(i + 1..i + 3), Some([eq, gt])
                        if eq.kind == TokKind::Punct('=') && gt.kind == TokKind::Punct('>'));
                    if arm {
                        pending = Some(nest - 1);
                    }
                }
                nest -= 1;
                if pending.is_some_and(|p| p > nest) {
                    pending = None;
                }
            }
            TokKind::Punct(',') | TokKind::Punct(';') if pending == Some(nest) => pending = None,
            _ => {}
        }
        tokens[i].in_test = tokens[i].in_test || !test_close.is_empty() || pending.is_some();
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // Instant::now in a comment
            /* unwrap() in a block /* nested */ comment */
            let s = "SystemTime inside a string";
            let r = r#"panic! inside a raw "string""#;
            let ok = 1;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"ok".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let n = '\\n';";
        let l = lex(src);
        let lifetimes = l.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 2);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = r#"
            fn hot() { let x = map.get(&k); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { map.get(&k).unwrap(); }
            }
        "#;
        let l = lex(src);
        for t in &l {
            if let TokKind::Ident(s) = &t.kind {
                if s == "unwrap" {
                    assert!(t.in_test, "unwrap inside #[cfg(test)] must be test-scoped");
                }
                if s == "hot" {
                    assert!(!t.in_test);
                }
            }
        }
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(not(test))] fn live() { x.unwrap(); }";
        let l = lex(src);
        for t in &l {
            if let TokKind::Ident(s) = &t.kind {
                if s == "unwrap" {
                    assert!(!t.in_test, "not(test) must stay live code");
                }
            }
        }
    }

    #[test]
    fn test_attr_on_use_does_not_leak() {
        let src = "#[cfg(test)] use foo::bar; fn live() { x.unwrap(); }";
        let l = lex(src);
        for t in &l {
            if let TokKind::Ident(s) = &t.kind {
                if s == "unwrap" {
                    assert!(!t.in_test);
                }
            }
        }
    }

    /// Whether the identifier `name` is test-marked at each occurrence.
    fn marks(src: &str, name: &str) -> Vec<bool> {
        lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Ident(name.to_string()))
            .map(|t| t.in_test)
            .collect()
    }

    #[test]
    fn test_attr_on_a_field_arm_or_literal_marks_only_that_element() {
        let live = "fn live(now: Ns, d: Ns) -> Ns { now + d }";
        for element in [
            "struct S { #[cfg(test)] probe: u32, real: u32 }",
            "struct S { real: u32, #[cfg(test)] probe: u32 }",
            "fn boot() -> S { S { #[cfg(test)] probe: 0, real: 1 } }",
            "fn f(e: E) { match e { #[cfg(test)] E::A => probe(), E::B => {} } }",
            "fn f(e: E) { match e { #[cfg(test)] E::A { .. } => { probe() } E::B => {} } }",
        ] {
            let src = format!("{element}\n{live}");
            assert_eq!(marks(&src, "probe"), [true], "{element}");
            assert!(!marks(&src, "real").contains(&true), "{element}");
            assert_eq!(marks(&src, "now"), [false, false], "{element} leaked");
        }
    }
}
