//! Findings, the suppression ledger, and deterministic output.
//!
//! Reports are value types sorted by `(file, line, rule)` before any
//! rendering, and the JSON writer walks those sorted vectors — nothing
//! iterates a hash container, so two runs over the same tree produce
//! byte-identical output.

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line of the offending token.
    pub line: u32,
    /// Short rule id: `R4`, `R8` or `R10`.
    pub rule: &'static str,
    /// Rule slug: `calendar-time-only`, `ns-arithmetic-safety`, ...
    pub id: &'static str,
    /// Human explanation of this site.
    pub message: String,
}

/// One `// dilos-lint: allow(<rule>, "<reason>")` directive.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppression {
    pub file: String,
    /// Line the directive sits on; it covers this line and the next.
    pub line: u32,
    /// The rule slug it names.
    pub id: String,
    /// The quoted justification (empty if none was given).
    pub reason: String,
    /// Whether it actually shielded a violation.
    pub used: bool,
}

/// The outcome of scanning a tree (or a single virtual file).
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
    pub files_scanned: usize,
}

impl Report {
    /// Canonical order: `(file, line, rule)` for violations, `(file, line)`
    /// for the ledger. Every renderer calls this first.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressions
            .sort_by(|a, b| (&a.file, a.line, &a.id).cmp(&(&b.file, b.line, &b.id)));
    }

    /// Merges another file's findings into this report.
    pub fn absorb(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.suppressions.extend(other.suppressions);
        self.files_scanned += other.files_scanned;
    }

    /// Machine-readable JSON (hand-rolled — no registry dependencies).
    pub fn to_json(&self) -> String {
        let mut sorted = self.clone();
        sorted.sort();
        let mut s = String::new();
        s.push_str("{\n  \"files_scanned\": ");
        s.push_str(&sorted.files_scanned.to_string());
        s.push_str(",\n  \"violations\": [");
        for (i, v) in sorted.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"rule\": ");
            json_str(&mut s, v.rule);
            s.push_str(", \"id\": ");
            json_str(&mut s, v.id);
            s.push_str(", \"file\": ");
            json_str(&mut s, &v.file);
            s.push_str(", \"line\": ");
            s.push_str(&v.line.to_string());
            s.push_str(", \"message\": ");
            json_str(&mut s, &v.message);
            s.push('}');
        }
        if !sorted.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"suppressions\": [");
        for (i, sp) in sorted.suppressions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"id\": ");
            json_str(&mut s, &sp.id);
            s.push_str(", \"file\": ");
            json_str(&mut s, &sp.file);
            s.push_str(", \"line\": ");
            s.push_str(&sp.line.to_string());
            s.push_str(", \"reason\": ");
            json_str(&mut s, &sp.reason);
            s.push_str(", \"used\": ");
            s.push_str(if sp.used { "true" } else { "false" });
            s.push('}');
        }
        if !sorted.suppressions.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Human-readable rendering: violations first, then the ledger.
    pub fn to_human(&self) -> String {
        let mut sorted = self.clone();
        sorted.sort();
        let mut s = String::new();
        if sorted.violations.is_empty() {
            s.push_str(&format!(
                "dilos-lint: clean — {} files scanned, 0 violations\n",
                sorted.files_scanned
            ));
        } else {
            for v in &sorted.violations {
                s.push_str(&format!(
                    "{}:{}: [{} {}] {}\n",
                    v.file, v.line, v.rule, v.id, v.message
                ));
            }
            s.push_str(&format!(
                "dilos-lint: {} violation(s) across {} files scanned\n",
                sorted.violations.len(),
                sorted.files_scanned
            ));
        }
        if !sorted.suppressions.is_empty() {
            s.push_str(&format!(
                "suppression ledger ({} entries):\n",
                sorted.suppressions.len()
            ));
            for sp in &sorted.suppressions {
                s.push_str(&format!(
                    "  {}:{}: allow({}) {} — \"{}\"\n",
                    sp.file,
                    sp.line,
                    sp.id,
                    if sp.used { "[used]" } else { "[UNUSED]" },
                    sp.reason
                ));
            }
        }
        s
    }
}

/// Appends `v` to `out` as a JSON string literal: the one escaper behind
/// both `--json` and SARIF.
pub(crate) fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_and_escaped() {
        let mut r = Report {
            files_scanned: 2,
            ..Default::default()
        };
        r.violations.push(Violation {
            file: "b.rs".into(),
            line: 9,
            rule: "R4",
            id: "calendar-time-only",
            message: "say \"no\"".into(),
        });
        r.violations.push(Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "R8",
            id: "ns-arithmetic-safety",
            message: "x".into(),
        });
        let j = r.to_json();
        let a = j.find("a.rs").unwrap();
        let b = j.find("b.rs").unwrap();
        assert!(a < b, "violations must sort by file");
        assert!(j.contains("say \\\"no\\\""));
    }

    #[test]
    fn empty_report_renders_clean() {
        let r = Report {
            files_scanned: 5,
            ..Default::default()
        };
        assert!(r.to_human().contains("clean"));
        assert!(r.to_json().contains("\"violations\": []"));
    }
}
