//! The data-term decoder under the log and the wire.
//!
//! [`decode()`] reads one data term (the grammar in [`crate::parser`]) from
//! bytes in one pass: no token vector, no `Vec<char>`, no `String` per
//! token. A text leaf is copied once, straight from the input, into its
//! `Arc<str>`; only a string with an escape is unescaped into a buffer
//! first. Labels and attribute names are interned ([`Sym::new`]) in the
//! order the reference parser interns them (a label before its items, an
//! attribute name after its value), so symbol ids do not change.
//!
//! The cursor-based [`crate::parser::reference`] stays the definition:
//! on every input, `decode` returns what it returns — the same term or
//! the same [`TermError`], message, line and column. The error is built
//! on the cold path by running the reference over the rejected input.
//! One exception: input nested deeper than [`MAX_NESTING`] brackets is
//! refused here, before the recursive reference (or any recursive
//! consumer of the term) could exhaust a thread's stack. Bytes a node
//! wrote itself (its logs) are read with [`decode_uncapped`], which has
//! no such exception. `crates/term/tests/decoder_wall.rs` holds the
//! equivalence.

use std::sync::Arc;

use crate::attrs::{AttrBuf, Attrs};
use crate::error::TermError;
use crate::parser;
use crate::sym::Sym;
use crate::term::{Children, Element, Term};

/// Deepest bracket nesting ([`Term::nesting`]) [`decode()`] accepts. A
/// constant, not a setting: every peer must agree on it, since a term
/// one side sends must decode on the other.
pub const MAX_NESTING: usize = 128;

/// Decode one data term from `bytes`; the whole input must be consumed.
/// Returns exactly what [`crate::parser::reference`] returns on the same
/// text, except that nesting deeper than [`MAX_NESTING`] is refused.
pub fn decode(bytes: &[u8]) -> Result<Term, TermError> {
    decode_str(utf8(bytes)?, MAX_NESTING)
}

/// [`decode()`] without the nesting cap, for bytes this node wrote itself
/// (its logs and snapshots). They hold terms its rules derived, which
/// may nest deeper than any input; like the reference parser, and like
/// every recursive reader of the term, this is bounded only by the stack.
pub fn decode_uncapped(bytes: &[u8]) -> Result<Term, TermError> {
    decode_str(utf8(bytes)?, usize::MAX)
}

fn utf8(bytes: &[u8]) -> Result<&str, TermError> {
    std::str::from_utf8(bytes).map_err(|e| {
        let (line, col) = position(bytes, e.valid_up_to());
        TermError::parse(format!("input is not UTF-8: {e}"), line, col)
    })
}

/// Decode input already known to be UTF-8 ([`crate::parse_term`]),
/// refusing nesting deeper than `max_nesting`.
pub(crate) fn decode_str(text: &str, max_nesting: usize) -> Result<Term, TermError> {
    let mut d = Decoder {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        max_nesting,
    };
    match d.whole() {
        Ok(t) => Ok(t),
        Err(Refused::TooDeep(at)) => {
            let (line, col) = position(text.as_bytes(), at);
            Err(TermError::parse(
                format!("nesting deeper than {max_nesting} levels"),
                line,
                col,
            ))
        }
        Err(Refused::Syntax) => {
            let reference = parser::reference(text);
            debug_assert!(
                reference.is_err(),
                "decode refused input the reference parser accepts: {text:?}"
            );
            reference
        }
    }
}

/// 1-based line and column (in characters) of byte `at`, as the lexer
/// counts them.
fn position(bytes: &[u8], at: usize) -> (u32, u32) {
    let before = &bytes[..at];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + String::from_utf8_lossy(&before[line_start..])
        .chars()
        .count();
    (line as u32, col as u32)
}

/// Why the fast path stopped.
enum Refused {
    /// Not a data term; the reference parser says why.
    Syntax,
    /// An opening bracket at this byte offset nests past the cap.
    TooDeep(usize),
}

type Step<T> = Result<T, Refused>;

struct Decoder<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    max_nesting: usize,
}

fn ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn ident_part(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'a> Decoder<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn whole(&mut self) -> Step<Term> {
        let t = self.term(0)?;
        self.skip_blank();
        if self.pos < self.bytes.len() {
            return Err(Refused::Syntax);
        }
        Ok(t)
    }

    /// Skip what the lexer skips between tokens: whitespace (Unicode's,
    /// as `char::is_whitespace` defines it) and `#` / `//` comments.
    fn skip_blank(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b'#' => self.skip_comment(),
                b'/' if self.bytes.get(self.pos + 1) == Some(&b'/') => self.skip_comment(),
                0x80..=0xff => match self.text[self.pos..].chars().next() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    fn skip_comment(&mut self) {
        self.pos = self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.bytes.len(), |i| self.pos + i);
    }

    /// Consume `b` if it is the next token.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_blank();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `term ::= STRING | NUMBER | label | label '[' items ']' | label '{' items '}'`
    /// at bracket depth `depth`.
    fn term(&mut self, depth: usize) -> Step<Term> {
        self.skip_blank();
        match self.peek() {
            Some(b'"') => Ok(Term::Text(self.string()?.into())),
            Some(b) if b.is_ascii_digit() => Ok(Term::Text(self.number().into())),
            Some(b) if ident_start(b) => {
                let label = Sym::new(self.ident());
                self.body(label, depth)
            }
            _ => Err(Refused::Syntax),
        }
    }

    /// The bracketed items after `label`, or nothing (a bare label).
    fn body(&mut self, label: Sym, depth: usize) -> Step<Term> {
        self.skip_blank();
        let (ordered, close) = match self.peek() {
            Some(b'[') => (true, b']'),
            Some(b'{') => (false, b'}'),
            _ => {
                return Ok(Term::Elem(Arc::new(Element {
                    label,
                    ordered: true,
                    attrs: Attrs::new(),
                    children: Children::new(),
                })))
            }
        };
        if depth == self.max_nesting {
            return Err(Refused::TooDeep(self.pos));
        }
        self.pos += 1;
        let mut attrs = AttrBuf::new();
        let mut children = Children::new();
        loop {
            if self.eat(close) {
                break;
            }
            if self.eat(b'@') {
                self.skip_blank();
                if !self.peek().is_some_and(ident_start) {
                    return Err(Refused::Syntax);
                }
                let key = self.ident();
                if !self.eat(b'=') {
                    return Err(Refused::Syntax);
                }
                self.skip_blank();
                let value = match self.peek() {
                    Some(b'"') => self.string()?.into_owned(),
                    Some(b) if b.is_ascii_digit() => self.number().to_owned(),
                    _ => return Err(Refused::Syntax),
                };
                attrs.push((Sym::new(key), value));
            } else {
                children.push(self.term(depth + 1)?);
            }
            if !self.eat(b',') {
                if !self.eat(close) {
                    return Err(Refused::Syntax);
                }
                break;
            }
        }
        Ok(Term::Elem(Arc::new(Element {
            label,
            ordered,
            attrs: Attrs::from_writes(attrs),
            children,
        })))
    }

    /// An identifier starting at `pos` (whose first byte the caller
    /// checked): name parts joined by single `:` or `.`.
    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        self.pos += 1;
        while let Some(b) = self.peek() {
            let take = ident_part(b)
                || ((b == b':' || b == b'.')
                    && self.bytes.get(self.pos + 1).is_some_and(|&n| ident_part(n)));
            if !take {
                break;
            }
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// A number starting at `pos`: digits with at most one fractional part.
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        let mut seen_dot = false;
        while let Some(b) = self.peek() {
            if b == b'.'
                && !seen_dot
                && self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
            {
                seen_dot = true;
            } else if !b.is_ascii_digit() {
                break;
            }
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// A string literal starting at the `"` at `pos`: borrowed from the
    /// input unless it holds an escape.
    fn string(&mut self) -> Step<std::borrow::Cow<'a, str>> {
        self.pos += 1;
        let start = self.pos;
        let mut unescaped: Option<String> = None;
        let mut run = start;
        loop {
            let Some(i) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(Refused::Syntax);
            };
            self.pos += i;
            if self.bytes[self.pos] == b'"' {
                let tail = &self.text[run..self.pos];
                self.pos += 1;
                return Ok(match unescaped {
                    None => tail.into(),
                    Some(mut s) => {
                        s.push_str(tail);
                        s.into()
                    }
                });
            }
            let decoded = match self.bytes.get(self.pos + 1) {
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                _ => return Err(Refused::Syntax),
            };
            let s = unescaped.get_or_insert_with(String::new);
            s.push_str(&self.text[run..self.pos]);
            s.push(decoded);
            self.pos += 2;
            run = self.pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_what_the_reference_parses() {
        for src in [
            "\"hi\"",
            "42",
            "3.25",
            "br",
            "s{}",
            "flight[@id=\"LH123\", status[\"cancelled\"], eta[\"18:40\"]]",
            "l[a, b,]",
            "p[@n=5]",
            "xml:id[\"a\\\"b\\\\c\\nd\\te\\rf\"]",
            " # comment\n a // more\n [ b ]\u{a0}",
        ] {
            assert_eq!(decode(src.as_bytes()), parser::reference(src), "{src}");
        }
    }

    #[test]
    fn errors_are_the_reference_errors() {
        for src in [
            "",
            "a[",
            "a[b",
            "a]",
            "a[@x]",
            "a b",
            "[x]",
            "\"oops",
            "a[\"\\q\"]",
        ] {
            let got = decode(src.as_bytes());
            assert!(got.is_err(), "{src}");
            assert_eq!(got, parser::reference(src), "{src}");
        }
    }

    #[test]
    fn text_leaves_borrow_until_an_escape() {
        let t = decode(b"a[\"plain\", \"with \\\"quote\\\"\"]").unwrap();
        assert_eq!(t.children()[0].as_text(), Some("plain"));
        assert_eq!(t.children()[1].as_text(), Some("with \"quote\""));
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let nest = |n: usize| format!("{}x{}", "a[".repeat(n), "]".repeat(n));
        let ok = decode(nest(MAX_NESTING).as_bytes()).unwrap();
        assert_eq!(ok.nesting(), MAX_NESTING);
        let deep = "a[".repeat(10_000);
        let err = decode(deep.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            TermError::parse(
                format!("nesting deeper than {MAX_NESTING} levels"),
                1,
                2 * MAX_NESTING as u32 + 2
            )
        );
        assert!(decode(nest(MAX_NESTING + 1).as_bytes()).is_err());
    }

    #[test]
    fn uncapped_reads_past_the_cap_as_the_reference_does() {
        let src = format!(
            "{}x{}",
            "a[".repeat(3 * MAX_NESTING),
            "]".repeat(3 * MAX_NESTING)
        );
        let t = decode_uncapped(src.as_bytes()).unwrap();
        assert_eq!(t.nesting(), 3 * MAX_NESTING);
        assert_eq!(Ok(t), parser::reference(&src));
        let broken = &src[..src.len() - 1];
        assert_eq!(
            decode_uncapped(broken.as_bytes()),
            parser::reference(broken)
        );
    }

    #[test]
    fn non_utf8_is_an_error_with_its_position() {
        let err = decode(b"a[\n\"\xff\"]").unwrap_err();
        let TermError::Parse { msg, line, col } = err else {
            panic!("not a parse error")
        };
        assert!(msg.starts_with("input is not UTF-8"), "{msg}");
        assert_eq!((line, col), (2, 2));
    }
}
