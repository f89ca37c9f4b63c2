//! `Attrs` against its model, a `BTreeMap<Sym, String>`: after random
//! insert, replace and remove sequences the two agree on `get`, on
//! iteration order, on `Eq` and `Ord` between two lists, and on the bytes
//! they feed a `Hasher`. Attribute lists written with a name twice — in
//! printed text or through `TermBuilder` — keep the last value, as the
//! map did, and a printed term decodes back to itself.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use reweb_term::parser::reference;
use reweb_term::{decode, Attrs, Sym, Term};

/// Attribute names, interned out of string order so that `Sym` ids and
/// the list's order disagree.
const NAMES: [&str; 6] = ["zeta", "route", "a_1", "mid", "b", "alpha"];

fn name(i: usize) -> Sym {
    Sym::new(NAMES[i % NAMES.len()])
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, String),
    Remove(usize),
}

fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[a-z0-9]{0,4}").unwrap(),
        proptest::string::string_regex("[ \"\\\\é]{0,3}").unwrap(),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        3 => (0..NAMES.len(), arb_value()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..NAMES.len()).prop_map(Op::Remove),
    ];
    proptest::collection::vec(op, 0..12)
}

type Model = BTreeMap<Sym, String>;

/// Apply `ops` to a list and to the model, checking each step's return.
fn run(ops: &[Op]) -> (Attrs, Model) {
    let (mut attrs, mut model) = (Attrs::new(), Model::new());
    for op in ops {
        match op {
            Op::Insert(k, v) => assert_eq!(
                attrs.insert(name(*k), v.clone()),
                model.insert(name(*k), v.clone())
            ),
            Op::Remove(k) => assert_eq!(attrs.remove(&name(*k)), model.remove(&name(*k))),
        }
    }
    (attrs, model)
}

/// Records every byte written to it.
#[derive(Default)]
struct Recording(Vec<u8>);

impl Hasher for Recording {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn hashed(value: &impl Hash) -> Vec<u8> {
    let mut h = Recording::default();
    value.hash(&mut h);
    h.0
}

fn assert_agrees(attrs: &Attrs, model: &Model) {
    for i in 0..NAMES.len() {
        assert_eq!(attrs.get(&name(i)), model.get(&name(i)));
    }
    assert_eq!(attrs.len(), model.len());
    assert_eq!(attrs.is_empty(), model.is_empty());
    assert!(attrs.iter().eq(model.iter()));
    assert!(attrs.into_iter().eq(model.iter()));
    assert_eq!(hashed(attrs), hashed(model));
    assert_eq!(format!("{attrs:?}"), format!("{model:?}"));
}

/// `e[@k="v", …]` with the pairs in the order given, names repeated.
fn printed(pairs: &[(usize, String)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("@{}={}", NAMES[*k], Term::text(v.as_str())))
        .collect();
    format!("e[{}]", items.join(", "))
}

proptest! {
    #[test]
    fn attrs_behave_as_the_map(a in arb_ops(), b in arb_ops()) {
        let (la, ma) = run(&a);
        let (lb, mb) = run(&b);
        assert_agrees(&la, &ma);
        assert_agrees(&lb, &mb);
        assert_eq!(la == lb, ma == mb);
        assert_eq!(la.cmp(&lb), ma.cmp(&mb));
        assert_eq!(la.partial_cmp(&lb), ma.partial_cmp(&mb));
        assert_eq!(la.clone().cmp(&la), Ordering::Equal);
    }

    #[test]
    fn repeated_names_keep_the_last_value(
        pairs in proptest::collection::vec((0..NAMES.len(), arb_value()), 0..8),
    ) {
        let model: Model = pairs.iter().map(|(k, v)| (name(*k), v.clone())).collect();
        let mut b = Term::build("e");
        for (k, v) in &pairs {
            b = b.attr(NAMES[*k], v.as_str());
        }
        let built = b.finish();
        let text = printed(&pairs);
        let decoded = decode(text.as_bytes()).unwrap();
        assert_eq!(decoded, built, "{text}");
        assert_eq!(reference(&text).unwrap(), built, "{text}");
        assert_agrees(&built.as_element().unwrap().attrs, &model);

        // A printed term decodes back to the same term.
        let reprinted = built.to_string();
        assert_eq!(decode(reprinted.as_bytes()).unwrap(), built, "{reprinted}");
    }
}

#[test]
fn a_repeated_name_in_print_keeps_its_last_value() {
    let t = decode(br#"e[@k="1", @j="2", @k="3"]"#).unwrap();
    assert_eq!(t.attr("k"), Some("3"));
    assert_eq!(t.to_string(), r#"e[@j="2", @k="3"]"#);
    let built = Term::build("e")
        .attr("k", "1")
        .attr("j", "2")
        .attr("k", "3")
        .finish();
    assert_eq!(built, t);
}
