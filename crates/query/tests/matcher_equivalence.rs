//! Differential wall: the match kernel ≡ the reference interpreter.
//!
//! `reweb_query::matcher` is a continuation-passing walk with a binding
//! trail; `reference::m` is the tree-walking interpreter it replaced. For
//! random patterns × random terms × random seeds the two must agree
//! *exactly*: the same `Vec<Bindings>` from `match_at` (and `match_each`),
//! the same `Vec<Match>` — paths included — from `match_anywhere`.
//!
//! Cases are generated from one `u64`, over a deliberately tiny vocabulary
//! so that sibling labels repeat (multiple embeddings), variables repeat
//! (consistency checks) and patterns derived from the data actually match.

mod reference;

use proptest::prelude::*;

use reweb_query::{
    match_anywhere, match_at, match_each, AttrPattern, Bindings, LabelPattern, QueryElem, QueryTerm,
};
use reweb_term::{Sym, Term};

// ----- generator ----------------------------------------------------------

/// SplitMix64: a self-contained stream per case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

const LABELS: &[&str] = &["a", "b", "c"];
const TEXTS: &[&str] = &["x", "y", "1"];
const ATTRS: &[&str] = &["k", "j"];
const VARS: &[&str] = &["X", "Y", "Z"];

fn gen_term(r: &mut Rng, depth: usize) -> Term {
    if depth == 0 || (depth < TOP && r.chance(25)) {
        return Term::text(r.pick(TEXTS));
    }
    let mut b = Term::build(r.pick(LABELS));
    if r.chance(50) {
        b = b.unordered();
    }
    for key in ATTRS {
        if r.chance(30) {
            b = b.attr(*key, r.pick(TEXTS));
        }
    }
    for _ in 0..r.below(5) {
        b = b.child(gen_term(r, depth - 1));
    }
    b.finish()
}

fn gen_var(r: &mut Rng) -> Sym {
    Sym::new(r.pick(VARS))
}

/// A pattern with no data in mind: usually fails high up, which is the
/// zero-answer path the kernel must take without leaving anything behind.
fn gen_free_pattern(r: &mut Rng, depth: usize) -> QueryTerm {
    match r.below(if depth == 0 { 2 } else { 6 }) {
        0 => QueryTerm::Var(gen_var(r)),
        1 => QueryTerm::text(r.pick(TEXTS)),
        2 => QueryTerm::desc(gen_free_pattern(r, depth - 1)),
        3 => QueryTerm::var_as(gen_var(r), gen_free_pattern(r, depth - 1)),
        _ => {
            let children = (0..r.below(3))
                .map(|_| gen_free_pattern(r, depth - 1))
                .collect();
            let label = Sym::new(r.pick(LABELS));
            gen_elem(r, label, children, &[])
        }
    }
}

/// An element pattern over `children` with a random regime, label
/// wildcarding, attribute patterns drawn from `attrs` (the data's, when
/// derived) and an occasional `without`.
fn gen_elem(
    r: &mut Rng,
    label: Sym,
    mut children: Vec<QueryTerm>,
    attrs: &[(Sym, &str)],
) -> QueryTerm {
    let mut attr_pats = Vec::new();
    for (k, v) in attrs {
        match r.below(4) {
            0 => attr_pats.push((*k, AttrPattern::Exact((*v).to_string()))),
            1 => attr_pats.push((*k, AttrPattern::Var(gen_var(r)))),
            _ => {}
        }
    }
    if r.chance(10) {
        // An attribute constraint the data may not satisfy.
        let pat = if r.chance(50) {
            AttrPattern::Exact(r.pick(TEXTS).to_string())
        } else {
            AttrPattern::Var(gen_var(r))
        };
        attr_pats.push((Sym::new(r.pick(ATTRS)), pat));
    }
    if r.chance(20) {
        let at = r.below(children.len() + 1);
        let negated = gen_free_pattern(r, 1);
        children.insert(at, QueryTerm::Without(Box::new(negated)));
    }
    QueryTerm::Elem(QueryElem {
        label: if r.chance(15) {
            LabelPattern::Any
        } else {
            LabelPattern::Exact(label)
        },
        ordered: r.chance(50),
        partial: r.chance(60),
        attrs: attr_pats,
        children,
    })
}

/// A pattern shaped after `d`, so that it matches often: children are
/// kept (all, or a subset under a partial regime), shuffled when
/// unordered, and generalised to variables / `var X as` / `desc`.
fn gen_derived_pattern(r: &mut Rng, d: &Term, depth: usize) -> QueryTerm {
    // (The case's root pattern is generated at `TOP` and is never a bare
    // variable: that matches anything, once.)
    if depth == 0 || (depth < TOP && r.chance(30)) {
        return QueryTerm::Var(gen_var(r));
    }
    if r.chance(8) {
        return gen_free_pattern(r, 1);
    }
    let Some(e) = d.as_element() else {
        return QueryTerm::text(d.as_text().unwrap_or_default());
    };
    if r.chance(10) {
        return QueryTerm::var_as(gen_var(r), gen_derived_pattern(r, d, depth - 1));
    }
    if r.chance(10) && !e.children.is_empty() {
        // `desc` of something below this node.
        let below = &e.children[r.below(e.children.len())];
        return QueryTerm::desc(gen_derived_pattern(r, below, depth - 1));
    }
    let mut children: Vec<QueryTerm> = e
        .children
        .iter()
        .map(|c| gen_derived_pattern(r, c, depth - 1))
        .collect();
    let attrs: Vec<(Sym, &str)> = e.attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let mut p = gen_elem(r, e.label, Vec::new(), &attrs);
    let QueryTerm::Elem(qe) = &mut p else {
        unreachable!("gen_elem builds an element pattern")
    };
    if qe.partial {
        children.retain(|_| r.chance(50));
    }
    if !qe.ordered && r.chance(50) {
        children.reverse();
    }
    // `gen_elem` may have placed a `without`; keep it among the positives.
    let at = r.below(children.len() + 1);
    let negations = std::mem::take(&mut qe.children);
    children.splice(at..at, negations);
    qe.children = children;
    p
}

/// Nesting depth of generated terms and patterns.
const TOP: usize = 3;

struct Case {
    pattern: QueryTerm,
    data: Term,
    seed: Bindings,
}

fn gen_case(case_seed: u64) -> Case {
    let mut r = Rng(case_seed);
    let data = gen_term(&mut r, TOP);
    let pattern = if r.chance(75) {
        gen_derived_pattern(&mut r, &data, TOP)
    } else {
        gen_free_pattern(&mut r, TOP)
    };
    let vars = pattern.variables();
    let seed = match r.below(4) {
        // Pre-bind a pattern variable the way some answer binds it …
        0 => match reference::match_anywhere(&pattern, &data, &Bindings::new()).first() {
            Some(hit) if !vars.is_empty() => {
                let x = vars[r.below(vars.len())];
                match hit.bindings.get_sym(x) {
                    Some(t) => Bindings::of(x, t.clone()),
                    None => Bindings::new(),
                }
            }
            _ => Bindings::new(),
        },
        // … or to an unrelated term (usually inconsistent) …
        1 if !vars.is_empty() => Bindings::of(vars[r.below(vars.len())], gen_term(&mut r, 1)),
        // … or bind a variable the pattern never mentions.
        2 => Bindings::of("Unused", gen_term(&mut r, 1)),
        _ => Bindings::new(),
    };
    Case {
        pattern,
        data,
        seed,
    }
}

// ----- the wall -------------------------------------------------------------

/// Kernel and reference agree on this case; returns the reference's
/// `match_at` answer count (for the coverage test).
fn check(case_seed: u64) -> usize {
    let Case {
        pattern,
        data,
        seed,
    } = gen_case(case_seed);
    let want = reference::match_at(&pattern, &data, &seed);
    let got = match_at(&pattern, &data, &seed);
    prop_assert_eq!(
        &got,
        &want,
        "match_at({}, {}, {}) [case {}]",
        pattern,
        data,
        seed,
        case_seed
    );
    let mut each = Vec::new();
    match_each(&pattern, &data, &seed, |b| each.push(b));
    prop_assert_eq!(&each, &want, "match_each [case {}]", case_seed);
    prop_assert_eq!(
        match_anywhere(&pattern, &data, &seed),
        reference::match_anywhere(&pattern, &data, &seed),
        "match_anywhere({}, {}, {}) [case {}]",
        pattern,
        data,
        seed,
        case_seed
    );
    want.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_equals_reference(case_seed in any::<u64>()) {
        check(case_seed);
    }
}

/// The kernel's two stack-to-heap fallbacks, which the generated cases
/// (≤ 4 children, ≤ 3 variables) never reach: the injectivity mask past
/// 64 data children and the answer's sort buffer past 8 fresh variables.
#[test]
fn wide_elements_and_many_variables_agree_with_the_reference() {
    let wide = Term::unordered(
        "l",
        (0..70)
            .map(|i| Term::ordered("i", vec![Term::text((i % 35).to_string())]))
            .collect(),
    );
    let vars: Vec<String> = (0..10).map(|i| format!("i[[var V{i}]]")).collect();
    for pattern in [
        "l{{ i[[var A]], i[[var B]], i[[var A]] }}".to_string(),
        "l{{ i[\"3\"], i[\"3\"], without i[\"99\"] }}".to_string(),
        format!("l[[ {} ]]", vars.join(", ")),
    ] {
        let pattern = reweb_query::parse_query_term(&pattern).expect("pattern parses");
        // Ten variables over 70 children is 70-choose-10 embeddings;
        // twelve children keep the subsequence count at 66.
        let data = if pattern.variables().len() > 2 {
            Term::unordered("l", wide.children()[..12].to_vec())
        } else {
            wide.clone()
        };
        let want = reference::match_at(&pattern, &data, &Bindings::new());
        assert!(!want.is_empty(), "{pattern} matches nothing");
        assert_eq!(
            match_at(&pattern, &data, &Bindings::new()),
            want,
            "{pattern}"
        );
    }
}

/// The generator is not vacuous: over a fixed block of cases every
/// construct occurs, a good share of the cases match, and some match
/// more than once (so sort + dedup and multiple embeddings are
/// exercised). The same block is also checked against the reference.
#[test]
fn generator_covers_the_pattern_language() {
    fn scan(p: &QueryTerm, seen: &mut [bool; 12]) {
        match p {
            QueryTerm::Var(_) => seen[0] = true,
            QueryTerm::VarAs(_, inner) => {
                seen[1] = true;
                scan(inner, seen);
            }
            QueryTerm::Desc(inner) => {
                seen[2] = true;
                scan(inner, seen);
            }
            QueryTerm::Without(inner) => {
                seen[3] = true;
                scan(inner, seen);
            }
            QueryTerm::Text(_) => seen[4] = true,
            QueryTerm::Elem(qe) => {
                seen[5 + 2 * usize::from(qe.ordered) + usize::from(qe.partial)] = true;
                seen[9] |= qe.label == LabelPattern::Any;
                for (_, ap) in &qe.attrs {
                    match ap {
                        AttrPattern::Exact(_) => seen[10] = true,
                        AttrPattern::Var(_) => seen[11] = true,
                    }
                }
                for c in &qe.children {
                    scan(c, seen);
                }
            }
        }
    }
    const CASES: u64 = 4096;
    let mut seen = [false; 12];
    let (mut matched, mut multiple, mut seeded, mut repeated_var) = (0, 0, 0, 0);
    for case_seed in 0..CASES {
        let answers = check(case_seed);
        let case = gen_case(case_seed);
        scan(&case.pattern, &mut seen);
        matched += usize::from(answers > 0);
        multiple += usize::from(answers > 1);
        seeded += usize::from(!case.seed.is_empty());
        let printed = case.pattern.to_string();
        repeated_var += usize::from(
            VARS.iter()
                .any(|v| printed.matches(&format!("var {v}")).count() > 1),
        );
    }
    assert_eq!(seen, [true; 12], "a pattern construct never occurred");
    assert!(
        matched * 4 >= CASES as usize,
        "only {matched} cases matched"
    );
    assert!(
        multiple * 25 >= CASES as usize,
        "only {multiple} cases had several answers"
    );
    assert!(
        seeded * 4 >= CASES as usize,
        "only {seeded} cases were seeded"
    );
    assert!(
        repeated_var * 10 >= CASES as usize,
        "only {repeated_var} cases repeat a variable"
    );
}
