//! The doc census: what README.md, DESIGN.md and EXPERIMENTS.md name in
//! backticks must exist.
//!
//! A token scan, like `tests/event_census.rs`, with two rules:
//!
//! - **Paths.** A span holding a `/` and ending in `.rs`, `.md`, `.json` or
//!   `.yml` (optionally followed by `::item`) names a file that exists under
//!   the repository root or under `crates/`, or a build artefact the root
//!   `.gitignore` declares. `{a,b}` alternatives expand.
//! - **Items.** A span that starts with a path `Type::name` (segments may be
//!   a `{a, b}` group) names only identifiers declared somewhere in the
//!   workspace sources: an item, a field, an enum variant, a crate or a `use
//!   … as` alias. A span outside the workspace (the standard library,
//!   clippy) must be on [`OUTSIDE`].
//!
//! Fenced code blocks are skipped: they show code, not references to it.
//!
//! A third rule holds the citations *into* DESIGN.md: where README.md,
//! EXPERIMENTS.md or a workspace `.rs` comment names DESIGN.md and then
//! quotes a section in parentheses, either as `DESIGN.md (` quote `)` or
//! as `(DESIGN.md, ` quote `)`, the quoted text is the start of a DESIGN.md
//! heading or of a bold lead (a paragraph or list item that opens in
//! bold). Quoted text may run across line breaks and comment markers.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents the census holds to the tree.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Paths named in the docs that live outside the workspace.
const OUTSIDE: [&str; 3] = ["Rc::make_mut", "Ns::MAX", "u64::MAX"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the start of `s` and the rest after it.
fn ident(s: &str) -> Option<(&str, &str)> {
    let end = s.find(|c| !is_ident_char(c)).unwrap_or(s.len());
    let first = s.chars().next()?;
    (end > 0 && !first.is_ascii_digit()).then(|| s.split_at(end))
}

/// Every identifier the workspace declares, by token shape: the word after
/// an item keyword or after `as` in a `use`, a leading `name:` (a field),
/// a leading capitalised `Name {`, `Name(`, `Name,` or `Name =` (a
/// variant), and each crate's package name.
fn declared() -> BTreeSet<String> {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let keywords = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let mut names = BTreeSet::from(["dilos".to_string()]);
    for file in files {
        let text = fs::read_to_string(&file).unwrap_or_default();
        for line in text.lines() {
            let words: Vec<&str> = line.split(|c| !is_ident_char(c)).collect();
            let words: Vec<&str> = words.into_iter().filter(|w| !w.is_empty()).collect();
            for pair in words.windows(2) {
                let is_use_alias = pair[0] == "as" && line.trim_start().contains("use ");
                if keywords.contains(&pair[0]) || is_use_alias {
                    names.insert(pair[1].to_string());
                }
            }
            let mut rest = line.trim_start();
            for vis in ["pub(crate) ", "pub(super) ", "pub "] {
                rest = rest.strip_prefix(vis).unwrap_or(rest);
            }
            let Some((name, after)) = ident(rest) else {
                continue;
            };
            let after = after.trim_start();
            let field = after.starts_with(':') && !after.starts_with("::");
            let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
                && (after.is_empty() || after.starts_with(['{', '(', ',', '=']));
            if field || variant {
                names.insert(name.to_string());
            }
        }
    }
    for krate in fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        let manifest = fs::read_to_string(krate.path().join("Cargo.toml")).unwrap_or_default();
        if let Some(line) = manifest.lines().find(|l| l.starts_with("name = ")) {
            names.insert(line[7..].trim_matches('"').replace('-', "_"));
        }
    }
    names
}

/// Each backticked span of `doc` outside fenced blocks, with its line.
fn spans(doc: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            prose.push('\n');
            continue;
        }
        if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut out = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 {
            out.push((line, piece.replace('\n', " ")));
        }
        line += piece.matches('\n').count();
    }
    out
}

/// `a{b,c}d` → `abd`, `acd` (one group; the docs use no more).
fn expand(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close]
        .split(',')
        .map(|alt| format!("{head}{}{tail}", alt.trim()))
        .collect()
}

/// The file a path-shaped span names, if it is one.
fn path_of(span: &str) -> Option<&str> {
    let path = span.split("::").next()?;
    let is_path = path.contains('/')
        && !path.contains(char::is_whitespace)
        && [".rs", ".md", ".json", ".yml"]
            .iter()
            .any(|e| path.ends_with(e));
    is_path.then_some(path)
}

/// The leading `A::b::{c, d}` path of `span` as its text and its segments.
fn item_path(span: &str) -> Option<(&str, Vec<&str>)> {
    let (first, mut rest) = ident(span)?;
    let mut segments = vec![first];
    while let Some(after) = rest.strip_prefix("::") {
        if let Some(group) = after.strip_prefix('{') {
            let close = group.find('}')?;
            for item in group[..close].split(',') {
                let item = item.trim();
                let end = item.find(|c| !is_ident_char(c)).unwrap_or(item.len());
                segments.push(&item[..end]);
            }
            rest = &group[close + 1..];
        } else {
            let (segment, after) = ident(after)?;
            segments.push(segment);
            rest = after;
        }
    }
    (segments.len() > 1).then(|| (&span[..span.len() - rest.len()], segments))
}

/// `text` as single lines to search: for a `.rs` file, each run of comment
/// lines with the markers stripped; for a document, all its lines. Each
/// whitespace run becomes one space.
fn joined(text: &str, rust: bool) -> Vec<String> {
    let mut out = vec![String::new()];
    for line in text.lines() {
        let line = line.trim();
        let body = if rust {
            let Some(comment) = line.strip_prefix("//") else {
                out.push(String::new());
                continue;
            };
            comment.trim_start_matches(['/', '!'])
        } else {
            line
        };
        let last = out.last_mut().expect("one paragraph at least");
        for word in body.split_whitespace() {
            if !last.is_empty() {
                last.push(' ');
            }
            last.push_str(word);
        }
    }
    out
}

/// Each section `text` cites in DESIGN.md: the quoted text that opens
/// right after `DESIGN.md (` or `(DESIGN.md, `, up to its closing quote.
fn citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for opener in ["DESIGN.md (\"", "(DESIGN.md, \""] {
        for (at, _) in text.match_indices(opener) {
            let quote = &text[at + opener.len()..];
            if let Some(end) = quote.find('"') {
                out.push(quote[..end].to_string());
            }
        }
    }
    out
}

/// DESIGN.md's headings and bold leads, whitespace-normalised: the text
/// after the `#`s of a heading line, and the bold span that opens a line
/// (after an optional `- `), joined across the lines it spans.
fn sections(design: &str) -> Vec<String> {
    let lines: Vec<&str> = design.lines().map(str::trim).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim().to_string());
        } else if let Some(lead) = line.trim_start_matches("- ").strip_prefix("**") {
            let rest = std::iter::once(lead).chain(lines[i + 1..].iter().copied());
            let text = rest
                .take_while(|l| !l.is_empty())
                .collect::<Vec<_>>()
                .join(" ");
            if let Some(end) = text.find("**") {
                out.push(text[..end].split_whitespace().collect::<Vec<_>>().join(" "));
            }
        }
    }
    out
}

#[test]
fn every_citation_into_design_md_names_a_section() {
    let root = root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    let sections = sections(&design);
    let mut sources = vec![root.join("README.md"), root.join("EXPERIMENTS.md")];
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let (mut cited, mut stale) = (0, Vec::new());
    for source in sources {
        let text = fs::read_to_string(&source).unwrap_or_default();
        let rust = source.extension().is_some_and(|e| e == "rs");
        for quote in joined(&text, rust).iter().flat_map(|p| citations(p)) {
            cited += 1;
            if !sections.iter().any(|s| s.starts_with(&quote)) {
                stale.push(format!("{}: \"{quote}\"", source.display()));
            }
        }
    }
    assert!(cited > 0, "no citation found: the scan is broken");
    assert!(
        stale.is_empty(),
        "citations of no DESIGN.md heading or bold lead:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_backticked_path_and_item_in_the_docs_exists() {
    let root = root();
    let declared = declared();
    let ignored = fs::read_to_string(root.join(".gitignore")).unwrap_or_default();
    let artefact = |p: &str| ignored.lines().any(|l| l.trim_start_matches('/') == p);
    let mut stale = Vec::new();
    let mut outside_used = BTreeSet::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc readable");
        for (line, span) in spans(&text) {
            let span = span.trim();
            if let Some(path) = path_of(span) {
                for p in expand(path) {
                    let found = root.join(&p).exists() || root.join("crates").join(&p).exists();
                    if !found && !artefact(&p) {
                        stale.push(format!("{doc}:{line}: no file `{p}`"));
                    }
                }
            } else if let Some((text, segments)) = item_path(span) {
                if let Some(term) = OUTSIDE.iter().find(|t| **t == text) {
                    outside_used.insert(*term);
                } else if let Some(s) = segments.iter().find(|s| !declared.contains(**s)) {
                    stale.push(format!("{doc}:{line}: `{text}` names no item `{s}`"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "stale doc references:\n{}",
        stale.join("\n")
    );
    let unused: Vec<_> = OUTSIDE
        .iter()
        .filter(|t| !outside_used.contains(*t))
        .collect();
    assert!(
        unused.is_empty(),
        "allow-listed terms no doc uses: {unused:?}"
    );
}

#[test]
fn the_census_catches_what_it_claims_to() {
    let declared = declared();
    let doc = "`crates/core/src/gone.rs` and `Dilos::no_such_method()`\n\
               ```\n`crates/also/gone.rs`\n```\n`crates/core/src/{node,audit}.rs`";
    let spans = spans(doc);
    assert_eq!(spans.len(), 3, "the fenced span is skipped: {spans:?}");
    assert_eq!(spans[2].0, 5, "line numbers count fenced lines");
    assert_eq!(path_of(&spans[0].1), Some("crates/core/src/gone.rs"));
    let (text, segments) = item_path(&spans[1].1).expect("an item path");
    assert_eq!(text, "Dilos::no_such_method");
    assert!(declared.contains("Dilos") && !declared.contains(segments[1]));
    let both = expand(path_of(&spans[2].1).expect("a path"));
    assert_eq!(
        both,
        ["crates/core/src/node.rs", "crates/core/src/audit.rs"]
    );
    let group = item_path("PageLiveness::{Empty, Partial(LiveVector)}").expect("a group");
    assert_eq!(group.1, ["PageLiveness", "Empty", "Partial"]);
    let rust =
        "//! see (DESIGN.md, \"A page is\n    /// shared\") here\nfn f() {}\n// DESIGN.md (\"x\")";
    let quotes: Vec<String> = joined(rust, true)
        .iter()
        .flat_map(|p| citations(p))
        .collect();
    assert_eq!(quotes, ["A page is shared", "x"]);
    let design = "## Data path\n\n- **A page is shared\n  until written.** Text.\n**Not**";
    assert_eq!(
        sections(design),
        ["Data path", "A page is shared until written.", "Not"]
    );
}
