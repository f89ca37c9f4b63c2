//! Simulation matching of query terms against data terms.
//!
//! The matcher computes *all* answers: every way the data can simulate the
//! pattern yields one [`Bindings`]. Matching can be seeded with existing
//! bindings, which is how event-part bindings parameterize condition
//! queries (Thesis 7): a variable already bound behaves like a constant.
//!
//! Child matching follows Xcerpt:
//!
//! | pattern      | data children matched                                 |
//! |--------------|-------------------------------------------------------|
//! | `l[p…]`      | exactly, in order                                     |
//! | `l[[p…]]`    | a subsequence (order preserved)                       |
//! | `l{p…}`      | all of them, in any order (perfect matching)          |
//! | `l{{p…}}`    | pairwise-distinct children, any order                 |
//!
//! `without p` inside a child list succeeds iff *no* data child matches `p`
//! under the candidate bindings. Query children map to *distinct* data
//! children (injectivity).

use reweb_term::path::Path;
use reweb_term::{Element, Sym, Term};

use crate::ast::{AttrPattern, LabelPattern, QueryElem, QueryTerm};
use crate::bindings::Bindings;

/// A match of a pattern at a specific node of a document.
#[derive(Clone, Debug, PartialEq)]
pub struct Match {
    /// Path of the matched node from the document root.
    pub path: Path,
    /// Variable bindings the match produced.
    pub bindings: Bindings,
}

/// Match `pattern` against the node `data` itself. Returns all answers
/// (sorted, deduplicated), each extending `seed`.
pub fn match_at(pattern: &QueryTerm, data: &Term, seed: &Bindings) -> Vec<Bindings> {
    let mut out = Vec::new();
    match_each(pattern, data, seed, |b| out.push(b));
    out
}

/// [`match_at`] handing each answer to `f` (same answers, same order)
/// instead of returning them: the common zero-or-one-answer match never
/// allocates a result vector.
pub fn match_each(pattern: &QueryTerm, data: &Term, seed: &Bindings, mut f: impl FnMut(Bindings)) {
    let mut first = None;
    let mut more = Vec::new();
    let start = Cx { seed, trail: None };
    walk(pattern, data, start, &mut |cx: Cx<'_, '_>| {
        if first.is_none() {
            first = Some(cx.answer());
        } else {
            more.push(cx.answer());
        }
    });
    let Some(first) = first else { return };
    if more.is_empty() {
        return f(first);
    }
    more.push(first);
    more.sort();
    more.dedup();
    more.into_iter().for_each(f);
}

/// Match `pattern` at every node of `root` (the node itself and all
/// descendants, in document order), returning the matched node's path
/// with each answer.
pub fn match_anywhere(pattern: &QueryTerm, root: &Term, seed: &Bindings) -> Vec<Match> {
    fn descend(
        pattern: &QueryTerm,
        node: &Term,
        seed: &Bindings,
        ixs: &mut Vec<usize>,
        out: &mut Vec<Match>,
    ) {
        // A path is built per answer, never per visited node.
        match_each(pattern, node, seed, |bindings| {
            out.push(Match {
                path: Path::new(ixs.clone()),
                bindings,
            })
        });
        for (i, c) in node.children().iter().enumerate() {
            ixs.push(i);
            descend(pattern, c, seed, ixs, out);
            ixs.pop();
        }
    }
    let mut out = Vec::new();
    descend(pattern, root, seed, &mut Vec::new(), &mut out);
    out
}

/// The bindings of [`match_anywhere`], appended to `out` — for callers
/// (conditions) that never look at the paths.
pub(crate) fn match_anywhere_into(
    pattern: &QueryTerm,
    node: &Term,
    seed: &Bindings,
    out: &mut Vec<Bindings>,
) {
    match_each(pattern, node, seed, |b| out.push(b));
    for c in node.children() {
        match_anywhere_into(pattern, c, seed, out);
    }
}

// ----- the match kernel -------------------------------------------------------
//
// A continuation-passing walk over `(pattern, data)`. Matching a pattern
// node calls the continuation `k` once per way the node can match, with
// the bindings made so far; returning from `k` *is* backtracking. New
// bindings live on a **trail**: a chain of stack frames borrowing from
// the data, consulted together with the read-only seed. Nothing touches
// the heap until an answer survives the whole pattern, at which point
// [`Cx::answer`] materialises seed + trail into one `Bindings`.

/// What a variable is bound to on the trail: a data node, or an attribute
/// value (which denotes the text leaf holding that string).
#[derive(Clone, Copy)]
enum Val<'a> {
    Node(&'a Term),
    Attr(&'a str),
}

impl Val<'_> {
    fn same(self, other: Val<'_>) -> bool {
        match (self, other) {
            (Val::Node(a), Val::Node(b)) => a == b,
            (Val::Attr(a), Val::Attr(b)) => a == b,
            (Val::Node(t), Val::Attr(s)) | (Val::Attr(s), Val::Node(t)) => t.as_text() == Some(s),
        }
    }

    fn to_term(self) -> Term {
        match self {
            Val::Node(t) => t.clone(),
            Val::Attr(s) => Term::Text(s.into()),
        }
    }
}

/// One trail frame: `var` bound to `val` on top of the bindings in `prev`.
struct Bound<'t, 'a> {
    var: Sym,
    val: Val<'a>,
    prev: Option<&'t Bound<'t, 'a>>,
}

/// The bindings in force at one point of the walk: the caller's seed plus
/// the trail of variables bound since (never a variable the seed binds).
#[derive(Clone, Copy)]
struct Cx<'t, 'a> {
    seed: &'a Bindings,
    trail: Option<&'t Bound<'t, 'a>>,
}

/// Trail frames [`Cx::answer`] sorts on the stack; deeper trails spill.
const INLINE_FRESH: usize = 8;

impl<'t, 'a> Cx<'t, 'a> {
    /// The trail, most recent binding first.
    fn frames(self) -> impl Iterator<Item = &'t Bound<'t, 'a>> {
        std::iter::successors(self.trail, |b| b.prev)
    }

    fn lookup(self, var: Sym) -> Option<Val<'a>> {
        match self.frames().find(|b| b.var == var) {
            Some(b) => Some(b.val),
            None => self.seed.get_sym(var).map(Val::Node),
        }
    }

    /// Materialise seed + trail. An empty trail shares the seed.
    fn answer(self) -> Bindings {
        let Some(top) = self.trail else {
            return self.seed.clone();
        };
        // Sort the trail by name in a stack buffer (a vector past
        // `INLINE_FRESH` variables), then merge it into the seed.
        let n = self.frames().count();
        let mut inline = [(top.var, top.val); INLINE_FRESH];
        let mut spill = Vec::new();
        let fresh = if n <= INLINE_FRESH {
            &mut inline[..n]
        } else {
            spill.resize(n, (top.var, top.val));
            &mut spill[..]
        };
        for (slot, b) in fresh.iter_mut().zip(self.frames()) {
            *slot = (b.var, b.val);
        }
        fresh.sort_unstable_by_key(|&(var, _)| var);
        self.seed
            .extended(fresh.iter().map(|&(var, val)| (var, val.to_term())))
    }
}

/// The continuation: called once per way the pattern so far can match.
type K<'k, 'a> = &'k mut dyn for<'t> FnMut(Cx<'t, 'a>);

/// Bind `var` to `val`: a variable already bound (by the seed or the
/// trail) behaves like a constant, a fresh one pushes a trail frame that
/// lives exactly as long as the continuation runs.
fn bind<'a>(cx: Cx<'_, 'a>, var: Sym, val: Val<'a>, k: K<'_, 'a>) {
    match cx.lookup(var) {
        Some(bound) => {
            if bound.same(val) {
                k(cx)
            }
        }
        None => {
            let frame = Bound {
                var,
                val,
                prev: cx.trail,
            };
            k(Cx {
                seed: cx.seed,
                trail: Some(&frame),
            })
        }
    }
}

fn walk<'a>(p: &'a QueryTerm, d: &'a Term, cx: Cx<'_, 'a>, k: K<'_, 'a>) {
    match p {
        QueryTerm::Var(x) => bind(cx, *x, Val::Node(d), k),
        QueryTerm::VarAs(x, inner) => walk(inner, d, cx, &mut |cx: Cx<'_, 'a>| {
            bind(cx, *x, Val::Node(d), k)
        }),
        QueryTerm::Desc(inner) => {
            // At this node or any descendant.
            walk(inner, d, cx, k);
            for c in d.children() {
                walk(p, c, cx, k);
            }
        }
        // `without` is only meaningful inside a child list; standalone it
        // matches nothing (the parser rejects it in term position).
        QueryTerm::Without(_) => {}
        QueryTerm::Text(s) => {
            if d.as_text() == Some(s.as_str()) {
                k(cx)
            }
        }
        QueryTerm::Elem(qe) => {
            let Some(e) = d.as_element() else { return };
            if let LabelPattern::Exact(l) = &qe.label {
                if *l != e.label {
                    return;
                }
            }
            attrs(qe, e, 0, cx, k)
        }
    }
}

/// Attributes `from..`: all listed must be present and match; then the
/// children.
fn attrs<'a>(qe: &'a QueryElem, e: &'a Element, from: usize, cx: Cx<'_, 'a>, k: K<'_, 'a>) {
    let Some((key, ap)) = qe.attrs.get(from) else {
        return children(qe, e, cx, k);
    };
    let Some(v) = e.attrs.get(key) else { return };
    match ap {
        AttrPattern::Exact(want) => {
            if want == v {
                attrs(qe, e, from + 1, cx, k)
            }
        }
        AttrPattern::Var(x) => bind(cx, *x, Val::Attr(v), &mut |cx: Cx<'_, 'a>| {
            attrs(qe, e, from + 1, cx, k)
        }),
    }
}

/// The first positive (non-`without`) pattern of `pats` and what follows
/// it. `without` entries are skipped in place: no per-call split.
fn next_positive(pats: &[QueryTerm]) -> Option<(&QueryTerm, &[QueryTerm])> {
    let i = pats
        .iter()
        .position(|p| !matches!(p, QueryTerm::Without(_)))?;
    Some((&pats[i], &pats[i + 1..]))
}

/// Match the positive child patterns against the data children under the
/// ordered/partial regime, then check the `without` patterns.
fn children<'a>(qe: &'a QueryElem, e: &'a Element, cx: Cx<'_, 'a>, k: K<'_, 'a>) {
    let (pats, data) = (&qe.children[..], &e.children[..]);
    let positives = pats
        .iter()
        .filter(|p| !matches!(p, QueryTerm::Without(_)))
        .count();
    // Positive patterns map to distinct data children; the total regimes
    // additionally leave no data child over.
    if positives > data.len() || (!qe.partial && positives != data.len()) {
        return;
    }
    // Subterm negation: no data child may match any `without` pattern
    // under the bindings of the candidate answer.
    let mut done = |cx: Cx<'_, 'a>| {
        let negated = pats.iter().filter_map(|p| match p {
            QueryTerm::Without(wp) => Some(&**wp),
            _ => None,
        });
        for wp in negated {
            for c in data {
                let mut hit = false;
                walk(wp, c, cx, &mut |_: Cx<'_, 'a>| hit = true);
                if hit {
                    return;
                }
            }
        }
        k(cx)
    };
    if qe.ordered {
        ordered(pats, data, qe.partial, cx, &mut done)
    } else {
        // Injectivity mask, one bit per data child: a word on the stack
        // for up to 64 children, a vector beyond.
        let mut word = [0u64];
        let mut words = Vec::new();
        let used = if data.len() <= 64 {
            &mut word[..]
        } else {
            words.resize(data.len().div_ceil(64), 0u64);
            &mut words[..]
        };
        unordered(pats, data, used, cx, &mut done)
    }
}

/// Ordered regimes. Total (`l[p…]`): pairwise in order — the caller
/// checked the lengths agree. Partial (`l[[p…]]`): a subsequence, each
/// pattern matching a later data child than the previous one.
fn ordered<'a>(
    pats: &'a [QueryTerm],
    data: &'a [Term],
    partial: bool,
    cx: Cx<'_, 'a>,
    k: K<'_, 'a>,
) {
    let Some((p, rest)) = next_positive(pats) else {
        return k(cx);
    };
    if partial {
        for (i, d) in data.iter().enumerate() {
            walk(p, d, cx, &mut |cx: Cx<'_, 'a>| {
                ordered(rest, &data[i + 1..], true, cx, k)
            });
        }
    } else if let Some((d, drest)) = data.split_first() {
        walk(p, d, cx, &mut |cx: Cx<'_, 'a>| {
            ordered(rest, drest, false, cx, k)
        });
    }
}

/// Unordered regimes: an injective assignment of patterns to data
/// children (a bijection when total — the caller checked the lengths).
fn unordered<'a>(
    pats: &'a [QueryTerm],
    data: &'a [Term],
    used: &mut [u64],
    cx: Cx<'_, 'a>,
    k: K<'_, 'a>,
) {
    let Some((p, rest)) = next_positive(pats) else {
        return k(cx);
    };
    for (i, d) in data.iter().enumerate() {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if used[w] & bit != 0 {
            continue;
        }
        used[w] |= bit;
        walk(p, d, cx, &mut |cx: Cx<'_, 'a>| {
            unordered(rest, data, used, cx, k)
        });
        used[w] &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query_term;
    use reweb_term::parse_term;

    fn q(s: &str) -> QueryTerm {
        parse_query_term(s).unwrap()
    }

    fn d(s: &str) -> Term {
        parse_term(s).unwrap()
    }

    fn matches(qs: &str, ds: &str) -> Vec<Bindings> {
        match_at(&q(qs), &d(ds), &Bindings::new())
    }

    fn binding_text(b: &Bindings, var: &str) -> String {
        b.get(var).unwrap().text_content()
    }

    #[test]
    fn total_ordered_is_exact() {
        assert_eq!(matches("a[b, c]", "a[b, c]").len(), 1);
        assert!(matches("a[b, c]", "a[c, b]").is_empty());
        assert!(matches("a[b]", "a[b, c]").is_empty());
        assert!(matches("a[b, c]", "a[b]").is_empty());
    }

    #[test]
    fn partial_ordered_is_subsequence() {
        assert_eq!(matches("a[[b, d]]", "a[b, c, d]").len(), 1);
        assert!(matches("a[[d, b]]", "a[b, c, d]").is_empty());
        // Multiple embeddings yield one answer each (here: no vars, so one
        // deduplicated answer).
        assert_eq!(matches("a[[b]]", "a[b, b]").len(), 1);
        // With a variable, both embeddings are distinguishable.
        let r = match_at(
            &q("a[[var X]]"),
            &d("a[p[\"1\"], p[\"2\"]]"),
            &Bindings::new(),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn total_unordered_is_perfect_matching() {
        assert_eq!(matches("a{c, b}", "a[b, c]").len(), 1);
        assert!(matches("a{b}", "a[b, c]").is_empty());
        assert!(matches("a{b, c, x}", "a[b, c]").is_empty());
    }

    #[test]
    fn partial_unordered_ignores_rest() {
        assert_eq!(matches("a{{c}}", "a[b, c, d]").len(), 1);
        assert_eq!(matches("a{{d, b}}", "a[b, c, d]").len(), 1);
        assert!(matches("a{{x}}", "a[b, c, d]").is_empty());
    }

    #[test]
    fn injectivity_two_patterns_need_two_children() {
        // Two identical query children cannot both match the single data
        // child.
        assert!(matches("a{{b, b}}", "a[b]").is_empty());
        assert_eq!(matches("a{{b, b}}", "a[b, b]").len(), 1);
    }

    #[test]
    fn variables_bind_and_stay_consistent() {
        let r = match_at(
            &q("pair{{ var X, var X }}"),
            &d("pair[v[\"1\"], v[\"1\"]]"),
            &Bindings::new(),
        );
        assert_eq!(r.len(), 1);
        let r = match_at(
            &q("pair{ var X, var X }"),
            &d("pair[v[\"1\"], v[\"2\"]]"),
            &Bindings::new(),
        );
        assert!(r.is_empty(), "same var must bind equal terms");
    }

    #[test]
    fn var_as_binds_node_and_matches_inner() {
        let r = match_at(
            &q("a[[ var F as flight[[ status[\"cancelled\"] ]] ]]"),
            &d("a[flight[no[\"LH1\"], status[\"cancelled\"]], flight[no[\"LH2\"], status[\"ok\"]]]"),
            &Bindings::new(),
        );
        assert_eq!(r.len(), 1);
        let f = r[0].get("F").unwrap();
        assert_eq!(f.children()[0].text_content(), "LH1");
    }

    #[test]
    fn desc_matches_at_depth() {
        let r = matches("desc deep", "a[b[c[deep]]]");
        assert_eq!(r.len(), 1);
        // desc inside a child list
        let r = matches("a{{ desc deep }}", "a[b[c[deep]]]");
        assert_eq!(r.len(), 1);
        // Multiple occurrences at different depths give multiple answers if
        // distinguishable.
        let r = match_at(
            &q("desc p[[var X]]"),
            &d("r[p[\"1\"], q[p[\"2\"]]]"),
            &Bindings::new(),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn without_rejects_on_match() {
        // The travel example: a flight element without a rebooked child.
        let qq = q("flight{{ status[\"cancelled\"], without rebooked }}");
        assert_eq!(
            match_at(&qq, &d("flight[status[\"cancelled\"]]"), &Bindings::new()).len(),
            1
        );
        assert!(match_at(
            &qq,
            &d("flight[status[\"cancelled\"], rebooked]"),
            &Bindings::new()
        )
        .is_empty());
    }

    #[test]
    fn without_sees_outer_bindings() {
        // no duplicate entry: list must not contain another item equal to X
        let qq = q("l{{ item[[var X]], without dup[[var X]] }}");
        assert_eq!(
            match_at(&qq, &d("l[item[\"a\"], dup[\"b\"]]"), &Bindings::new()).len(),
            1
        );
        assert!(match_at(&qq, &d("l[item[\"a\"], dup[\"a\"]]"), &Bindings::new()).is_empty());
    }

    #[test]
    fn attributes_partial_and_binding() {
        let r = match_at(
            &q("article{{ @id=var I }}"),
            &d("article{@id=\"a42\", @lang=\"en\", title[\"x\"]}"),
            &Bindings::new(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(binding_text(&r[0], "I"), "a42");
        // exact attr mismatch
        assert!(matches("a[[@k=\"x\"]]", "a[@k=\"y\"]").is_empty());
        // missing attr
        assert!(matches("a[[@k=\"x\"]]", "a[b]").is_empty());
    }

    #[test]
    fn label_wildcard() {
        let r = match_at(&q("*[[var X]]"), &d("thing[\"v\"]"), &Bindings::new());
        assert_eq!(r.len(), 1);
        assert_eq!(binding_text(&r[0], "X"), "v");
    }

    #[test]
    fn seed_bindings_parameterize() {
        // Simulates the event → condition flow: O is already bound.
        let seed = Bindings::of("O", Term::text("o1"));
        let pat = q("order{{ id[[var O]], total[[var T]] }}");
        let data = d("order{id[\"o1\"], total[\"59.9\"]}");
        let r = match_at(&pat, &data, &seed);
        assert_eq!(r.len(), 1);
        assert_eq!(binding_text(&r[0], "T"), "59.9");
        // A conflicting seed filters the match out.
        let seed = Bindings::of("O", Term::text("other"));
        assert!(match_at(&pat, &data, &seed).is_empty());
    }

    #[test]
    fn match_anywhere_returns_paths() {
        let doc = d("news[article[@id=\"a1\"], sec[article[@id=\"a2\"]]]");
        let hits = match_anywhere(&q("article{{@id=var I}}"), &doc, &Bindings::new());
        assert_eq!(hits.len(), 2);
        let paths: Vec<String> = hits.iter().map(|h| h.path.to_string()).collect();
        assert_eq!(paths, vec!["/0", "/1/0"]);
    }

    #[test]
    fn text_patterns() {
        assert_eq!(matches("\"x\"", "\"x\"").len(), 1);
        assert!(matches("\"x\"", "\"y\"").is_empty());
        assert!(matches("\"x\"", "x").is_empty(), "text ≠ element");
    }

    #[test]
    fn element_pattern_rejects_text_node() {
        assert!(matches("a", "\"a\"").is_empty());
    }

    #[test]
    fn duplicate_answers_are_deduped() {
        // Two data children produce the same (empty) bindings — one answer.
        assert_eq!(matches("a{{b}}", "a[b, b]").len(), 1);
    }
}
