//! Plain-text table rendering for experiment reports.
//!
//! Every experiment runner returns a [`Report`]; the `repro` binary prints
//! it and persists it under `results/`.

use std::fmt::Write as _;

/// A rendered experiment report: a title, column headers, and rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id + description ("Table 2 — sequential throughput").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper-vs-measured commentary).
    pub notes: Vec<String>,
    /// Trace digests pinning the exact event stream behind the numbers,
    /// labelled per system/configuration. Rendered into `bench.json` so a
    /// regression shows up as a digest change even when the table rounds it
    /// away.
    pub digests: Vec<(String, u64)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "column count");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Records a labelled trace digest.
    pub fn digest(&mut self, label: impl Into<String>, digest: u64) {
        self.digests.push((label.into(), digest));
    }

    /// Renders the report as a JSON object (hand-rolled; the workspace
    /// deliberately has no serialization dependency). Digests are emitted
    /// as hex strings — JSON numbers lose precision past 2^53.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let arr = |items: &[String]| {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(label, d)| format!("\"{}\": \"{d:#018x}\"", esc(label)))
            .collect();
        format!(
            "{{\n    \"title\": \"{}\",\n    \"headers\": {},\n    \"rows\": [{}],\n    \
             \"notes\": {},\n    \"digests\": {{{}}}\n  }}",
            esc(&self.title),
            arr(&self.headers),
            rows.join(", "),
            arr(&self.notes),
            digests.join(", ")
        )
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "> {n}");
        }
        out
    }
}

/// Formats nanoseconds as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

/// Formats a ratio/float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats virtual nanoseconds as milliseconds.
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut r = Report::new("Test", &["name", "value"]);
        r.row(vec!["a".into(), "1".into()]);
        r.row(vec!["long-name".into(), "22".into()]);
        r.note("a note");
        let s = r.render();
        assert!(s.contains("## Test"));
        assert!(s.contains("| long-name | 22    |"));
        assert!(s.contains("> a note"));
    }

    #[test]
    fn renders_json() {
        let mut r = Report::new("Test \"q\"", &["name", "value"]);
        r.row(vec!["a".into(), "1".into()]);
        r.note("line1\nline2");
        r.digest("sys", 0x1234_5678_9abc_def0);
        let j = r.to_json();
        assert!(j.contains("\"title\": \"Test \\\"q\\\"\""));
        assert!(j.contains("[\"a\", \"1\"]"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"sys\": \"0x123456789abcdef0\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(us(2_500), "2.50");
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(ms(2_000_000), "2.00");
    }
}
