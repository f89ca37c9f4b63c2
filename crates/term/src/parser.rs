//! Parser for the compact data-term syntax.
//!
//! Grammar (attributes and children share the bracket list):
//!
//! ```text
//! term   ::= STRING                      text leaf
//!          | NUMBER                      text leaf holding the number
//!          | label                       empty ordered element
//!          | label '[' items ']'         ordered element
//!          | label '{' items '}'         unordered element
//! items  ::= (item (',' item)*)?         trailing comma allowed
//! item   ::= '@' IDENT '=' (STRING|NUMBER)   attribute
//!          | term                            child
//! label  ::= IDENT
//! ```
//!
//! `Display` on [`Term`] produces exactly this syntax, and
//! `parse_term(t.to_string()) == t` holds for every term (see the property
//! test at the bottom).
//!
//! Whole data terms go through the one-pass [`crate::decode()`]. The
//! cursor-based [`parse`] below stays for data terms embedded in rules
//! and queries, and [`reference()`] — the same parser over a whole input —
//! is the definition `decode` is checked against.

use crate::error::TermError;
use crate::lex::{Cursor, Tok};
use crate::term::Term;

/// Parse a single data term; the whole input must be consumed. Runs the
/// one-pass decoder ([`crate::decode()`]), so input nested deeper than
/// [`crate::MAX_NESTING`] is refused.
pub fn parse_term(input: &str) -> Result<Term, TermError> {
    crate::decode::decode_str(input, crate::MAX_NESTING)
}

/// The reference parser: [`parse`] over the lexer's token stream, the
/// whole input consumed. [`crate::decode()`] returns exactly its result on
/// every input nested at most [`crate::MAX_NESTING`] deep.
pub fn reference(input: &str) -> Result<Term, TermError> {
    let mut cur = Cursor::from_str(input)?;
    let t = parse(&mut cur)?;
    if !cur.at_end() {
        return Err(cur.error("trailing input after term"));
    }
    Ok(t)
}

/// Parse a term at the cursor (used by the query and rule parsers for
/// embedded data terms).
pub fn parse(cur: &mut Cursor) -> Result<Term, TermError> {
    match cur.peek() {
        Some(Tok::Str(_)) => {
            let s = cur.expect_str()?;
            Ok(Term::text(s))
        }
        Some(Tok::Num(n)) => {
            let n = n.clone();
            cur.next();
            Ok(Term::text(n))
        }
        Some(Tok::Ident(_)) => {
            let label = cur.expect_ident()?;
            parse_body(cur, label)
        }
        Some(t) => Err(cur.error(format!("expected term, found {}", t.describe()))),
        None => Err(cur.error("expected term, found end of input")),
    }
}

/// Parse the bracketed body (or nothing) after a label.
pub fn parse_body(cur: &mut Cursor, label: String) -> Result<Term, TermError> {
    let ordered = if cur.eat_punct('[') {
        true
    } else if cur.eat_punct('{') {
        false
    } else {
        return Ok(Term::elem(label));
    };
    let mut b = Term::build(label);
    if !ordered {
        b = b.unordered();
    }
    let close = if ordered { ']' } else { '}' };
    loop {
        if cur.eat_punct(close) {
            break;
        }
        if cur.eat_punct('@') {
            let key = cur.expect_ident()?;
            cur.expect_punct('=')?;
            let val = match cur.peek() {
                Some(Tok::Str(_)) => cur.expect_str()?,
                Some(Tok::Num(n)) => {
                    let n = n.clone();
                    cur.next();
                    n
                }
                Some(t) => {
                    return Err(
                        cur.error(format!("expected attribute value, found {}", t.describe()))
                    )
                }
                None => return Err(cur.error("expected attribute value, found end of input")),
            };
            b = b.attr(key, val);
        } else {
            b = b.child(parse(cur)?);
        }
        if !cur.eat_punct(',') {
            cur.expect_punct(close)?;
            break;
        }
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves() {
        assert_eq!(parse_term("\"hi\"").unwrap(), Term::text("hi"));
        assert_eq!(parse_term("42").unwrap(), Term::text("42"));
        assert_eq!(parse_term("3.25").unwrap(), Term::text("3.25"));
        assert_eq!(parse_term("br").unwrap(), Term::elem("br"));
    }

    #[test]
    fn nested_elements() {
        let t = parse_term("flight[ number[\"LH123\"], status[\"cancelled\"] ]").unwrap();
        assert_eq!(t.label(), Some("flight"));
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.children()[0].text_content(), "LH123");
        assert!(t.is_ordered());
    }

    #[test]
    fn unordered_and_attrs() {
        let t = parse_term("article{ @id=\"a42\", title[\"News\"], 7 }").unwrap();
        assert!(!t.is_ordered());
        assert_eq!(t.attr("id"), Some("a42"));
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.children()[1].as_number(), Some(7.0));
    }

    #[test]
    fn numeric_attr_value() {
        let t = parse_term("p[@n=5]").unwrap();
        assert_eq!(t.attr("n"), Some("5"));
    }

    #[test]
    fn trailing_comma_ok() {
        let t = parse_term("l[a, b,]").unwrap();
        assert_eq!(t.children().len(), 2);
    }

    #[test]
    fn empty_unordered_roundtrip() {
        let t = parse_term("s{}").unwrap();
        assert!(!t.is_ordered());
        assert_eq!(parse_term(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn errors() {
        assert!(parse_term("").is_err());
        assert!(parse_term("a[").is_err());
        assert!(parse_term("a[b").is_err());
        assert!(parse_term("a]").is_err());
        assert!(parse_term("a[@x]").is_err());
        assert!(parse_term("a b").is_err()); // trailing input
        assert!(parse_term("[x]").is_err());
    }

    #[test]
    fn roundtrip_examples() {
        for src in [
            "flight[@id=\"LH123\", status[\"cancelled\"], eta[\"18:40\"]]",
            "s{a, b[c, \"text\"], d{@k=\"v\"}}",
            "\"just text with \\\"quotes\\\"\"",
            "deep[a[b[c[d[\"x\"]]]]]",
        ] {
            let t = parse_term(src).unwrap();
            assert_eq!(parse_term(&t.to_string()).unwrap(), t, "src: {src}");
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_label() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s)
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Includes characters that need escaping.
        proptest::string::string_regex("[ -~]{0,12}").unwrap()
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        let leaf = prop_oneof![
            arb_text().prop_map(Term::text),
            arb_label().prop_map(Term::elem),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            (
                arb_label(),
                any::<bool>(),
                proptest::collection::vec(inner, 0..4),
                proptest::collection::btree_map(arb_label(), arb_text(), 0..3),
            )
                .prop_map(|(label, ordered, children, attrs)| {
                    let mut b = Term::build(label);
                    if !ordered {
                        b = b.unordered();
                    }
                    for (k, v) in attrs {
                        b = b.attr(k, v);
                    }
                    b.children(children).finish()
                })
        })
    }

    proptest! {
        /// parse ∘ print = id — the textual syntax is lossless.
        #[test]
        fn parse_print_roundtrip(t in arb_term()) {
            let printed = t.to_string();
            let reparsed = parse_term(&printed).unwrap();
            prop_assert_eq!(reparsed, t);
        }

        /// The counting sink and the printer agree on the wire size.
        #[test]
        fn serialized_size_is_printed_length(t in arb_term()) {
            prop_assert_eq!(t.serialized_size(), t.to_string().len());
            // Control characters and multi-byte text, which `arb_text`
            // does not draw.
            let odd = Term::ordered("_", vec![t, Term::text("\n\t\r\\\" é")]);
            prop_assert_eq!(odd.serialized_size(), odd.to_string().len());
        }

        /// Canonicalization is idempotent and preserves structural equality.
        #[test]
        fn canonicalize_idempotent(t in arb_term()) {
            let c = t.canonicalize();
            prop_assert_eq!(c.canonicalize(), c.clone());
            prop_assert!(t.structurally_equal(&c));
        }
    }
}
