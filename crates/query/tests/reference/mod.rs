//! The reference matcher: the tree-walking interpreter `reweb_query`
//! shipped before the continuation-passing kernel replaced it, kept
//! verbatim as the obviously-correct meaning the `matcher_equivalence`
//! wall compares the kernel against. It allocates at every pattern node
//! (`vec![b.clone()]`, a `partition`, a fresh `Bindings` per `bind_sym`),
//! which is why it is test support and not production code.

use reweb_query::{AttrPattern, Bindings, LabelPattern, Match, QueryTerm};
use reweb_term::Term;

/// Match `pattern` against the node `data` itself. Returns all answers
/// (deduplicated), each extending `seed`.
pub fn match_at(pattern: &QueryTerm, data: &Term, seed: &Bindings) -> Vec<Bindings> {
    let mut out = Vec::new();
    m(pattern, data, seed, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Match `pattern` at every node of `root` (the node itself and all
/// descendants), returning the matched node's path with each answer.
pub fn match_anywhere(pattern: &QueryTerm, root: &Term, seed: &Bindings) -> Vec<Match> {
    let mut out = Vec::new();
    for (path, node) in root.walk() {
        for bindings in match_at(pattern, node, seed) {
            out.push(Match {
                path: path.clone(),
                bindings,
            });
        }
    }
    out
}

fn m(p: &QueryTerm, d: &Term, b: &Bindings, out: &mut Vec<Bindings>) {
    match p {
        QueryTerm::Var(x) => {
            if let Some(b2) = b.bind_sym(*x, d) {
                out.push(b2);
            }
        }
        QueryTerm::VarAs(x, inner) => {
            let mut tmp = Vec::new();
            m(inner, d, b, &mut tmp);
            for b2 in tmp {
                if let Some(b3) = b2.bind_sym(*x, d) {
                    out.push(b3);
                }
            }
        }
        QueryTerm::Desc(inner) => {
            // At this node or any descendant.
            m(inner, d, b, out);
            for c in d.children() {
                m(p, c, b, out);
            }
        }
        QueryTerm::Without(_) => {
            // `without` is only meaningful inside a child list; standalone it
            // matches nothing (the parser rejects it in term position).
        }
        QueryTerm::Text(s) => {
            if d.as_text() == Some(s.as_str()) {
                out.push(b.clone());
            }
        }
        QueryTerm::Elem(qe) => {
            let Some(e) = d.as_element() else { return };
            if let LabelPattern::Exact(l) = &qe.label {
                if *l != e.label {
                    return;
                }
            }
            // Attributes: all listed must be present and match.
            let mut cur = vec![b.clone()];
            for (k, ap) in &qe.attrs {
                let Some(v) = e.attrs.get(k) else { return };
                match ap {
                    AttrPattern::Exact(want) => {
                        if want != v {
                            return;
                        }
                    }
                    AttrPattern::Var(x) => {
                        let vt = Term::text(v.clone());
                        cur = cur
                            .into_iter()
                            .filter_map(|bb| bb.bind_sym(*x, &vt))
                            .collect();
                        if cur.is_empty() {
                            return;
                        }
                    }
                }
            }
            let (positives, withouts): (Vec<&QueryTerm>, Vec<&QueryTerm>) = qe
                .children
                .iter()
                .partition(|c| !matches!(c, QueryTerm::Without(_)));
            for bb in cur {
                let mut results = Vec::new();
                match_children(
                    &positives,
                    &e.children,
                    qe.ordered,
                    qe.partial,
                    &bb,
                    &mut results,
                );
                'cand: for b2 in results {
                    // Subterm negation: no data child may match any
                    // `without` pattern under these bindings.
                    for w in &withouts {
                        let QueryTerm::Without(wp) = w else {
                            unreachable!()
                        };
                        for c in &e.children {
                            let mut hit = Vec::new();
                            m(wp, c, &b2, &mut hit);
                            if !hit.is_empty() {
                                continue 'cand;
                            }
                        }
                    }
                    out.push(b2);
                }
            }
        }
    }
}

/// Match the positive child patterns against the data children according to
/// the ordered/partial regime, pushing every consistent extension of `b`.
fn match_children(
    pats: &[&QueryTerm],
    data: &[Term],
    ordered: bool,
    partial: bool,
    b: &Bindings,
    out: &mut Vec<Bindings>,
) {
    if ordered && !partial {
        // Exact: same length, pairwise in order.
        if pats.len() != data.len() {
            return;
        }
        fn step(pats: &[&QueryTerm], data: &[Term], b: &Bindings, out: &mut Vec<Bindings>) {
            match (pats.split_first(), data.split_first()) {
                (None, None) => out.push(b.clone()),
                (Some((p, prest)), Some((d, drest))) => {
                    let mut tmp = Vec::new();
                    m(p, d, b, &mut tmp);
                    for b2 in tmp {
                        step(prest, drest, &b2, out);
                    }
                }
                _ => {}
            }
        }
        step(pats, data, b, out);
    } else if ordered && partial {
        // Subsequence: each pattern matches a later data child than the
        // previous one.
        fn step(pats: &[&QueryTerm], data: &[Term], b: &Bindings, out: &mut Vec<Bindings>) {
            let Some((p, prest)) = pats.split_first() else {
                out.push(b.clone());
                return;
            };
            for (i, d) in data.iter().enumerate() {
                let mut tmp = Vec::new();
                m(p, d, b, &mut tmp);
                for b2 in tmp {
                    step(prest, &data[i + 1..], &b2, out);
                }
            }
        }
        step(pats, data, b, out);
    } else {
        // Unordered: injective assignment of patterns to data children.
        // Total additionally requires the assignment to be a bijection.
        if !partial && pats.len() != data.len() {
            return;
        }
        fn step(
            pats: &[&QueryTerm],
            data: &[Term],
            used: &mut Vec<bool>,
            b: &Bindings,
            out: &mut Vec<Bindings>,
        ) {
            let Some((p, prest)) = pats.split_first() else {
                out.push(b.clone());
                return;
            };
            for (i, d) in data.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let mut tmp = Vec::new();
                m(p, d, b, &mut tmp);
                if tmp.is_empty() {
                    continue;
                }
                used[i] = true;
                for b2 in tmp {
                    step(prest, data, used, &b2, out);
                }
                used[i] = false;
            }
        }
        let mut used = vec![false; data.len()];
        step(pats, data, &mut used, b, out);
    }
}
