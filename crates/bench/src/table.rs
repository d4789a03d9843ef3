//! Plain-text table rendering for experiment reports.
//!
//! Every experiment runner returns a [`Report`]; the `repro` binary prints
//! it and persists it under `results/`.

use std::fmt::Write as _;

use crate::json::{
    self, JsonWriter,
    Layout::{Broken, Inline},
};

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

    /// Writes the report as one JSON object: title, headers, rows, notes,
    /// digests. Digests are hex strings — JSON numbers lose precision past
    /// 2^53.
    pub fn write_json<W: std::io::Write>(&self, w: &mut JsonWriter<W>) {
        fn strings<W: std::io::Write>(w: &mut JsonWriter<W>, items: &[String]) {
            w.array(Inline, |w| items.iter().for_each(|s| w.string(s)));
        }
        w.object(Broken, |w| {
            w.key("title").string(&self.title);
            strings(w.key("headers"), &self.headers);
            w.key("rows")
                .array(Broken, |w| self.rows.iter().for_each(|r| strings(w, r)));
            w.key("notes")
                .array(Broken, |w| self.notes.iter().for_each(|n| w.string(n)));
            w.key("digests").object(Broken, |w| {
                for (label, digest) in &self.digests {
                    w.key(label).hex(*digest);
                }
            });
        });
    }

    /// The report as a standalone JSON document (`serve.json`,
    /// `recover.json`).
    pub fn to_json(&self) -> String {
        json::document(|w| self.write_json(w))
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

/// Writes `bench.json`: each experiment id that ran, mapped to its report.
pub fn bench_json<W: std::io::Write>(w: &mut JsonWriter<W>, reports: &[(&str, Report)]) {
    w.object(Broken, |w| {
        for (id, report) in reports {
            report.write_json(w.key(id));
        }
    });
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
        assert_eq!(
            r.to_json(),
            "{\n  \"title\": \"Test \\\"q\\\"\",\n  \"headers\": [\"name\", \"value\"],\n  \
             \"rows\": [\n    [\"a\", \"1\"]\n  ],\n  \"notes\": [\n    \"line1\\nline2\"\n  ],\n  \
             \"digests\": {\n    \"sys\": \"0x123456789abcdef0\"\n  }\n}\n"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(us(2_500), "2.50");
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(ms(2_000_000), "2.00");
    }
}
