//! The one JSON writer: every `.json` artefact `repro` writes is rendered
//! here and nowhere else.
//!
//! [`JsonWriter`] streams to any [`io::Write`] and alone owns commas,
//! quoting, escaping, number formatting and indentation. A call site says
//! *what* — keys and values in the order they should appear — and chooses,
//! per container, one thing about *how*: [`Layout::Broken`] (one member per
//! line, two spaces per level) or [`Layout::Inline`] (the whole container on
//! one line, `, ` between members). Everything inside an inline container is
//! inline. A key is always followed by `": "`, a document always ends in one
//! newline, and there is no other layout.
//!
//! Output is a function of the calls alone — no map is iterated here, no
//! float is formatted — so the same calls give the same bytes, which is what
//! lets CI `cmp` two runs. Integers are written exactly; a `u64` that may
//! exceed 2^53 (a trace digest) goes out as a hex *string* via
//! [`JsonWriter::hex`], because JSON readers parse numbers as doubles.

use std::fmt::{self, Write as _};
use std::io;

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented under the container.
    Broken,
    /// All members on the container's line.
    Inline,
}

/// An open container: its closing bracket, whether it is broken, and
/// whether it has a member yet.
struct Open {
    close: &'static str,
    broken: bool,
    empty: bool,
}

/// A streaming JSON writer over `W`. The first I/O error is kept, later
/// writes are skipped, and [`finish`](Self::finish) reports it.
pub struct JsonWriter<W: io::Write> {
    out: W,
    /// Open containers, outermost first. A broken container's ancestors are
    /// all broken, so its members sit at `open.len()` indent levels.
    open: Vec<Open>,
    /// A key was just written: the next value continues its line.
    after_key: bool,
    err: Option<io::Error>,
}

impl<W: io::Write> JsonWriter<W> {
    /// A writer at the start of a document.
    pub fn new(out: W) -> Self {
        Self {
            out,
            open: Vec::new(),
            after_key: false,
            err: None,
        }
    }

    /// Ends the document with a newline, flushes, and hands back the sink —
    /// or the first error any write met.
    pub fn finish(mut self) -> io::Result<W> {
        debug_assert!(self.open.is_empty() && !self.after_key, "open container");
        self.raw("\n");
        if let Some(e) = self.err {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn raw(&mut self, s: &str) {
        if self.err.is_none() {
            self.err = self.out.write_all(s.as_bytes()).err();
        }
    }

    fn raw_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.err.is_none() {
            self.err = self.out.write_fmt(args).err();
        }
    }

    /// Starts a member of the innermost container: the comma after its
    /// predecessor, then a fresh indented line (broken) or a space (inline).
    /// A value that follows a key is already placed.
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(top) = self.open.last_mut() else {
            return;
        };
        let first = std::mem::take(&mut top.empty);
        let broken = top.broken;
        if !first {
            self.raw(",");
        }
        if broken {
            self.newline(depth);
        } else if !first {
            self.raw(" ");
        }
    }

    fn newline(&mut self, depth: usize) {
        self.raw("\n");
        for _ in 0..depth {
            self.raw("  ");
        }
    }

    fn quoted(&mut self, s: impl fmt::Display) {
        self.raw("\"");
        // The adapter never fails: I/O errors are parked in `self.err`.
        let _ = write!(Escaped(self), "{s}");
        self.raw("\"");
    }

    fn container(
        &mut self,
        brackets: (&'static str, &'static str),
        layout: Layout,
        body: impl FnOnce(&mut Self),
    ) {
        self.member();
        let broken = layout == Layout::Broken && self.open.last().is_none_or(|o| o.broken);
        self.raw(brackets.0);
        self.open.push(Open {
            close: brackets.1,
            broken,
            empty: true,
        });
        body(self);
        debug_assert!(!self.after_key, "key without a value");
        if let Some(done) = self.open.pop() {
            if done.broken && !done.empty {
                self.newline(self.open.len());
            }
            self.raw(done.close);
        }
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.member();
        self.quoted(k);
        self.raw(": ");
        self.after_key = true;
        self
    }

    /// Writes an object whose members `body` writes as `key` + value pairs.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) {
        self.container(("{", "}"), layout, body);
    }

    /// Writes an array whose items `body` writes as values.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) {
        self.container(("[", "]"), layout, body);
    }

    /// Writes a string value, escaped. Takes anything printable, so a call
    /// site passes `format_args!` instead of allocating.
    pub fn string(&mut self, s: impl fmt::Display) {
        self.member();
        self.quoted(s);
    }

    /// Writes an unsigned integer, exactly.
    pub fn uint(&mut self, v: impl Into<u128>) {
        self.member();
        self.raw_fmt(format_args!("{}", v.into()));
    }

    /// Writes a signed integer, exactly.
    pub fn int(&mut self, v: impl Into<i128>) {
        self.member();
        self.raw_fmt(format_args!("{}", v.into()));
    }

    /// Writes a `u64` as a 16-digit hex string (`"0x0123…"`): digests and
    /// anything else that must survive a reader's 2^53 mantissa.
    pub fn hex(&mut self, v: u64) {
        self.member();
        self.raw_fmt(format_args!("\"{v:#018x}\""));
    }

    /// Writes `v / 1000` as a fixed three-decimal number (ns shown as µs):
    /// integer arithmetic in, no float formatting out.
    pub fn thousandths(&mut self, v: u64) {
        self.member();
        self.raw_fmt(format_args!("{}.{:03}", v / 1_000, v % 1_000));
    }
}

/// Escapes what is printed through it into the writer's open string.
struct Escaped<'a, W: io::Write>(&'a mut JsonWriter<W>);

impl<W: io::Write> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Bytes that need no escape — all of UTF-8 above 0x1f bar `"` and
        // `\` — pass through in runs.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                b'\r' => "\\r",
                0x00..=0x1f => "",
                _ => continue,
            };
            self.0.raw(&s[run..i]);
            if esc.is_empty() {
                self.0.raw_fmt(format_args!("\\u{b:04x}"));
            } else {
                self.0.raw(esc);
            }
            run = i + 1;
        }
        self.0.raw(&s[run..]);
        Ok(())
    }
}

/// Renders one document into a `String`.
pub fn document(body: impl FnOnce(&mut JsonWriter<Vec<u8>>)) -> String {
    let mut w = JsonWriter::new(Vec::new());
    body(&mut w);
    let bytes = w.finish().expect("a Vec sink cannot fail");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

/// Streams one document to a new file at `path`, buffered.
pub fn write_file(
    path: &str,
    body: impl FnOnce(&mut JsonWriter<io::BufWriter<std::fs::File>>),
) -> io::Result<()> {
    let mut w = JsonWriter::new(io::BufWriter::new(std::fs::File::create(path)?));
    body(&mut w);
    w.finish().map(drop)
}

#[cfg(test)]
mod tests {
    use super::Layout::{Broken, Inline};
    use super::*;

    #[test]
    fn strings_are_escaped_and_non_ascii_passes_through() {
        let doc = document(|w| w.string("q\" b\\ n\n t\t r\r nul\0 esc\x1b µs — 页"));
        assert_eq!(
            doc,
            "\"q\\\" b\\\\ n\\n t\\t r\\r nul\\u0000 esc\\u001b µs — 页\"\n"
        );
        // Keys take the same path, and so does anything printed piecewise.
        let doc = document(|w| {
            w.object(Inline, |w| {
                w.key("a\"b").string(format_args!("{}\\{:?}", 'x', "y"));
            })
        });
        assert_eq!(doc, "{\"a\\\"b\": \"x\\\\\\\"y\\\"\"}\n");
    }

    #[test]
    fn numbers_are_exact_and_large_u64s_go_out_as_hex_strings() {
        let above_2_53 = (1u64 << 53) + 1;
        let doc = document(|w| {
            w.array(Inline, |w| {
                w.uint(0u8);
                w.uint(above_2_53);
                w.uint(u128::MAX);
                w.hex(above_2_53);
                w.hex(0);
                w.thousandths(0);
                w.thousandths(1_270);
                w.thousandths(12_403_914);
                w.thousandths(7);
            })
        });
        assert_eq!(
            doc,
            "[0, 9007199254740993, 340282366920938463463374607431768211455, \
             \"0x0020000000000001\", \"0x0000000000000000\", 0.000, 1.270, 12403.914, 0.007]\n"
        );
    }

    #[test]
    fn empty_containers_close_on_the_same_line() {
        let doc = document(|w| {
            w.object(Broken, |w| {
                w.key("o").object(Broken, |_| {});
                w.key("a").array(Broken, |_| {});
                w.key("i").array(Inline, |_| {});
            })
        });
        assert_eq!(doc, "{\n  \"o\": {},\n  \"a\": [],\n  \"i\": []\n}\n");
        assert_eq!(document(|w| w.object(Broken, |_| {})), "{}\n");
    }

    #[test]
    fn broken_and_inline_containers_nest_with_no_trailing_comma() {
        let doc = document(|w| {
            w.object(Broken, |w| {
                w.key("rows").array(Broken, |w| {
                    for row in [[1u8, 2], [3, 4]] {
                        w.array(Inline, |w| row.iter().for_each(|v| w.uint(*v)));
                    }
                });
                w.key("inline").object(Inline, |w| {
                    w.key("k").uint(1u8);
                    // Broken inside inline stays on the line.
                    w.key("nested").array(Broken, |w| {
                        w.object(Broken, |w| {
                            w.key("x").uint(2u8);
                        });
                        w.uint(3u8);
                    });
                });
                w.key("last").string("z");
            })
        });
        assert_eq!(
            doc,
            "{\n  \"rows\": [\n    [1, 2],\n    [3, 4]\n  ],\n  \
             \"inline\": {\"k\": 1, \"nested\": [{\"x\": 2}, 3]},\n  \
             \"last\": \"z\"\n}\n"
        );
        assert!(!doc.contains(",\n}") && !doc.contains(", }") && !doc.contains(",]"));
    }

    #[test]
    fn the_first_io_error_is_reported_by_finish() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonWriter::new(Full);
        w.array(Inline, |w| w.uint(1u8));
        assert_eq!(
            w.finish().err().map(|e| e.to_string()),
            Some("disk full".into())
        );
    }
}
