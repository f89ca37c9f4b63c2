//! Shared lexer for every textual syntax in `reweb`.
//!
//! Query terms (`reweb-query`) and the ECA rule language (`reweb-core`),
//! including the data terms embedded in them, are lexed with this one
//! tokenizer, which is a big part of the "language coherency" Thesis 7
//! asks for: learning one surface syntax is enough.
//!
//! Whole data terms — every log record and wire frame, and
//! [`crate::parse_term`] — no longer go through it: the one-pass
//! [`crate::decode()`] reads them without a token vector. Its token rules
//! are the ones below, and [`crate::parser::reference`] (this lexer plus
//! the cursor parser) is the definition it is checked against.
//!
//! Token classes: identifiers (which may contain `:` or `.` between name
//! parts, so `xml:id` and `price.usd` lex as one token), double-quoted
//! strings with escapes, unsigned numbers (`12`, `3.25`), and single-char
//! punctuation. `#` and `//` start comments running to end of line.
//! Multi-char operators (`[[`, `<=`, …) are assembled by parsers from
//! adjacent punctuation tokens.

use crate::error::TermError;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier / bare word, e.g. `flight`, `xml:id`.
    Ident(String),
    /// String literal with escapes already processed.
    Str(String),
    /// Number literal, kept as written (`"3.25"`).
    Num(String),
    /// Single punctuation character.
    Punct(char),
}

impl Tok {
    /// Case-insensitive keyword test for identifiers.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Is this exactly the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Num(n) => format!("number {n}"),
            Tok::Punct(c) => format!("`{c}`"),
        }
    }
}

/// A token plus its 1-based source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Tokenize `input`. Comments (`# …` and `// …`) and whitespace are skipped.
pub fn lex(input: &str) -> Result<Vec<Spanned>, TermError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let bump = |c: char, line: &mut u32, col: &mut u32| {
        if c == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
    };

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            bump(c, &mut line, &mut col);
            i += 1;
            continue;
        }
        // Comments: `#` or `//` to end of line.
        if c == '#' || (c == '/' && chars.get(i + 1) == Some(&'/')) {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
                col += 1;
            }
            continue;
        }
        let (tline, tcol) = (line, col);
        // Identifiers.
        if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while i < chars.len() {
                let c = chars[i];
                let take = c.is_ascii_alphanumeric()
                    || c == '_'
                    || ((c == ':' || c == '.')
                        && chars
                            .get(i + 1)
                            .is_some_and(|n| n.is_ascii_alphanumeric() || *n == '_'));
                if !take {
                    break;
                }
                s.push(c);
                bump(c, &mut line, &mut col);
                i += 1;
            }
            out.push(Spanned {
                tok: Tok::Ident(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Numbers: digits with optional single fractional part.
        if c.is_ascii_digit() {
            let mut s = String::new();
            let mut seen_dot = false;
            while i < chars.len() {
                let c = chars[i];
                if c.is_ascii_digit() {
                    s.push(c);
                } else if c == '.'
                    && !seen_dot
                    && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                {
                    seen_dot = true;
                    s.push(c);
                } else {
                    break;
                }
                bump(c, &mut line, &mut col);
                i += 1;
            }
            out.push(Spanned {
                tok: Tok::Num(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            i += 1;
            col += 1;
            let mut s = String::new();
            loop {
                match chars.get(i) {
                    None => {
                        return Err(TermError::parse("unterminated string", tline, tcol));
                    }
                    Some('"') => {
                        i += 1;
                        col += 1;
                        break;
                    }
                    Some('\\') => {
                        let esc = chars.get(i + 1).copied();
                        let decoded = match esc {
                            Some('n') => '\n',
                            Some('t') => '\t',
                            Some('r') => '\r',
                            Some('"') => '"',
                            Some('\\') => '\\',
                            other => {
                                return Err(TermError::parse(
                                    format!("bad escape `\\{}`", other.unwrap_or(' ')),
                                    line,
                                    col,
                                ));
                            }
                        };
                        s.push(decoded);
                        i += 2;
                        col += 2;
                    }
                    Some(&c) => {
                        s.push(c);
                        bump(c, &mut line, &mut col);
                        i += 1;
                    }
                }
            }
            out.push(Spanned {
                tok: Tok::Str(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Everything else is single-char punctuation.
        const PUNCT: &str = "[]{}()<>,@=!+-*/%;?&|.:";
        if PUNCT.contains(c) {
            out.push(Spanned {
                tok: Tok::Punct(c),
                line: tline,
                col: tcol,
            });
            bump(c, &mut line, &mut col);
            i += 1;
            continue;
        }
        return Err(TermError::parse(
            format!("unexpected character `{c}`"),
            line,
            col,
        ));
    }
    Ok(out)
}

/// Cursor over a token stream, shared by the recursive-descent parsers in
/// this crate, `reweb-query`, and `reweb-core`.
#[derive(Clone, Debug)]
pub struct Cursor {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Cursor {
    /// A cursor at the start of a token stream.
    pub fn new(toks: Vec<Spanned>) -> Self {
        Cursor { toks, pos: 0 }
    }

    /// Lex and wrap in one step. Deliberately an inherent method, not a
    /// `FromStr` impl: every parser in the tree calls it with an
    /// explicit `Cursor::from_str`, and the `?`-friendly `TermError`
    /// (not `FromStr::Err`) is part of the signature.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(input: &str) -> Result<Self, TermError> {
        Ok(Cursor::new(lex(input)?))
    }

    /// The current token, without consuming it.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    /// The token `n` positions ahead of the current one.
    pub fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|s| &s.tok)
    }

    /// Consume and return the current token. Not an `Iterator` impl on
    /// purpose: iteration would take the cursor by value or borrow it
    /// exclusively, while the parsers interleave `next` with `peek`,
    /// `peek_at`, and `here` on the same cursor.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Have all tokens been consumed?
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Position of the *current* token for error reporting.
    pub fn here(&self) -> (u32, u32) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1))
    }

    /// A parse error positioned at the current token.
    pub fn error(&self, msg: impl Into<String>) -> TermError {
        let (line, col) = self.here();
        TermError::parse(msg, line, col)
    }

    /// Consume a specific punctuation char or fail.
    pub fn expect_punct(&mut self, c: char) -> Result<(), TermError> {
        match self.peek() {
            Some(t) if t.is_punct(c) => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected `{c}`, found {}", t.describe()))),
            None => Err(self.error(format!("expected `{c}`, found end of input"))),
        }
    }

    /// Consume a specific (case-insensitive) keyword or fail.
    pub fn expect_kw(&mut self, kw: &str) -> Result<(), TermError> {
        match self.peek() {
            Some(t) if t.is_kw(kw) => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected keyword `{kw}`, found {}", t.describe()))),
            None => Err(self.error(format!("expected keyword `{kw}`, found end of input"))),
        }
    }

    /// Consume the keyword if present; report whether it was.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume the punctuation char if present; report whether it was.
    pub fn eat_punct(&mut self, c: char) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume two adjacent punctuation chars (e.g. `[[`) if both present.
    pub fn eat_punct2(&mut self, a: char, b: char) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(a))
            && self.peek_at(1).is_some_and(|t| t.is_punct(b))
        {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    /// Consume an identifier or fail.
    pub fn expect_ident(&mut self) -> Result<String, TermError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(self.error(format!("expected identifier, found {}", t.describe()))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    /// Consume a string literal or fail.
    pub fn expect_str(&mut self) -> Result<String, TermError> {
        match self.peek() {
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(self.error(format!("expected string, found {}", t.describe()))),
            None => Err(self.error("expected string, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
        lex(s).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn idents_with_namespaces_and_dots() {
        assert_eq!(
            toks("flight xml:id price.usd a_b"),
            vec![
                Tok::Ident("flight".into()),
                Tok::Ident("xml:id".into()),
                Tok::Ident("price.usd".into()),
                Tok::Ident("a_b".into()),
            ]
        );
    }

    #[test]
    fn trailing_colon_is_punct_not_ident() {
        // `label:` — the colon is not followed by a name part, so it stays
        // punctuation and the identifier is just `label`.
        assert_eq!(
            toks("label:"),
            vec![Tok::Ident("label".into()), Tok::Punct(':')]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("12 3.25 7.x"),
            vec![
                Tok::Num("12".into()),
                Tok::Num("3.25".into()),
                Tok::Num("7".into()),
                Tok::Punct('.'),
                Tok::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""he said \"hi\"\n""#),
            vec![Tok::Str("he said \"hi\"\n".into())]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a # rest of line\nb // more\nc"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn slash_alone_is_division_not_comment() {
        assert_eq!(
            toks("a / b"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct('/'),
                Tok::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let ts = lex("ab\n  cd").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn cursor_multi_punct() {
        let mut c = Cursor::from_str("[[ x ]]").unwrap();
        assert!(c.eat_punct2('[', '['));
        assert_eq!(c.expect_ident().unwrap(), "x");
        assert!(c.eat_punct2(']', ']'));
        assert!(c.at_end());
    }

    #[test]
    fn cursor_keywords_case_insensitive() {
        let mut c = Cursor::from_str("RULE on End").unwrap();
        assert!(c.eat_kw("rule"));
        assert!(c.eat_kw("ON"));
        assert!(c.expect_kw("end").is_ok());
    }
}
