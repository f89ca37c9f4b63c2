//! The decoder wall: [`reweb_term::decode()`] returns exactly what the
//! cursor-based reference parser returns — the same `Ok` term, or the
//! same `Err` with the same message, line and column — on random terms
//! printed with `Display`, on copies with one to three bytes replaced,
//! inserted or deleted, and on input that is not UTF-8. None may panic.
//! (The documented wire frames are held to the same check by
//! `tests/wire_protocol_doc.rs` at the workspace root.)

use proptest::prelude::*;
use reweb_term::parser::reference;
use reweb_term::{decode, Sym, Term, TermError};

/// `decode(bytes) == reference(bytes)`, reading non-UTF-8 input as the
/// callers do: an error, whatever the parser would say.
fn assert_wall(bytes: &[u8]) {
    let got = decode(bytes);
    match std::str::from_utf8(bytes) {
        Ok(text) => assert_eq!(got, reference(text), "input {text:?}"),
        Err(_) => match got {
            Err(TermError::Parse { msg, .. }) => {
                assert!(msg.starts_with("input is not UTF-8"), "{msg}")
            }
            other => panic!("non-UTF-8 input {bytes:?} decoded to {other:?}"),
        },
    }
}

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,5}".prop_map(|s| s)
}

/// Text with every character the printer escapes, whitespace the lexer
/// skips, and multi-byte characters.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[ -~]{0,10}").unwrap(),
        proptest::string::string_regex("[a\"\\\\\n\t\r é€#/]{0,8}").unwrap(),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        arb_text().prop_map(Term::text),
        arb_label().prop_map(Term::elem),
        (0u32..100_000).prop_map(|n| Term::text(format!("{}.{}", n / 100, n % 100))),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
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

/// A byte to write at an edit: mostly ones the grammar gives meaning
/// (brackets, separators, quotes, escapes, comment starts, whitespace,
/// the lead byte of a multi-byte sequence), sometimes any byte at all.
fn edit_byte(pick: u8, raw: u8) -> u8 {
    const MEANINGFUL: &[u8] = b"[]{}@=,\"\\#/ \n\t.:_a9\xc3\xa0\xff";
    if pick % 4 == 0 {
        raw
    } else {
        MEANINGFUL[raw as usize % MEANINGFUL.len()]
    }
}

fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8, u8, u8)]) -> Vec<u8> {
    for &(at, op, pick, raw) in edits {
        let b = edit_byte(pick, raw);
        match op % 3 {
            0 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] = b;
            }
            1 => {
                let i = at % (bytes.len() + 1);
                bytes.insert(i, b);
            }
            _ if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes.remove(i);
            }
            _ => bytes.push(b),
        }
    }
    bytes
}

fn arb_edits() -> impl Strategy<Value = Vec<(usize, u8, u8, u8)>> {
    proptest::collection::vec(
        (any::<usize>(), any::<u8>(), any::<u8>(), any::<u8>()),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Printed terms decode to themselves, exactly as the reference
    /// parses them.
    #[test]
    fn printed_terms_decode_as_the_reference_parses(t in arb_term()) {
        let printed = t.to_string();
        assert_wall(printed.as_bytes());
        prop_assert_eq!(decode(printed.as_bytes()).unwrap(), t);
    }

    /// One to three bytes replaced, inserted or deleted: the same term or
    /// the same error, never a panic.
    #[test]
    fn mutated_terms_decode_as_the_reference_parses(t in arb_term(), edits in arb_edits()) {
        assert_wall(&mutate(t.to_string().into_bytes(), &edits));
    }

    /// Short random byte strings, most of them not UTF-8.
    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..24)) {
        assert_wall(&raw);
    }
}

/// Hand-picked corners of the lexer: comments, Unicode whitespace,
/// separators inside identifiers and numbers, escapes, trailing commas.
#[test]
fn lexer_corners_decode_as_the_reference_parses() {
    for src in [
        "a # to end of line\n[b]",
        "a // to end of line\n{b}",
        "a /[b]",
        "a\u{2003}[\u{85}b\u{3000}]",
        "a\u{e9}[b]",
        "xml:id[price.usd, a:, b., c.1, d..e]",
        "n[1.2.3, 7.x, 12abc, 0.5]",
        "s[\"\\n\\t\\r\\\"\\\\\", \"\\x\", \"\\\u{e9}\"]",
        "a[@k=1, @k=\"2\", @j=3.5]",
        "a[@=1]",
        "a[@k 1]",
        "a[@k=b]",
        "a[,]",
        "a[b,,]",
        "a{}{}",
        "\"unterminated",
        "a[\"x\"",
        "_q\"label\"",
        "",
        "   ",
        "# only a comment",
    ] {
        assert_wall(src.as_bytes());
    }
}

/// A label is interned before the items of its element, an attribute
/// name after its value — the reference's order, so ids do not move.
#[test]
fn symbols_are_interned_in_the_reference_order() {
    let src = "wall_order_outer[@wall_order_attr=\"v\", wall_order_inner]";
    assert!(Sym::lookup("wall_order_outer").is_none());
    decode(src.as_bytes()).unwrap();
    let ids: Vec<u32> = ["wall_order_outer", "wall_order_attr", "wall_order_inner"]
        .iter()
        .map(|s| Sym::lookup(s).expect("interned").id())
        .collect();
    assert!(ids[0] < ids[1] && ids[1] < ids[2], "{ids:?}");
}
