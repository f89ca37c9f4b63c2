//! The query engine: conditions over resources and views.
//!
//! A [`Condition`] is the `IF` part of an ECA rule (Thesis 7): a conjunction
//! of possibly negated *query atoms* — each a pattern matched against a
//! URI-addressed resource or view — plus comparisons. Evaluation threads
//! bindings left to right, so variables bound by the event part (the seed)
//! or an earlier atom parameterize later atoms (joins), and negated atoms
//! act as filters (no answers may exist).

use std::collections::BTreeMap;
use std::fmt;

use reweb_term::{ResourceStore, Term, TermError};

use crate::ast::QueryTerm;
use crate::bindings::Bindings;
use crate::expr::Cmp;
use crate::matcher::match_anywhere_into;
use crate::rules::DeductiveRule;

/// One conjunct of a condition: a pattern over a resource or view.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAtom {
    /// URI of a store document or registered view.
    pub resource: String,
    /// Pattern matched anywhere in the resource's document.
    pub pattern: QueryTerm,
    /// `not in <uri> <pattern>` — holds iff the pattern has *no* answer.
    pub negated: bool,
}

/// The condition part of a rule: conjunction of atoms plus comparisons.
///
/// The empty condition is `true`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Condition {
    /// The conjoined query atoms.
    pub atoms: Vec<QueryAtom>,
    /// Comparisons every answer's bindings must satisfy.
    pub comparisons: Vec<Cmp>,
}

impl Condition {
    /// The trivially true condition.
    pub fn always_true() -> Condition {
        Condition::default()
    }

    /// `true` when the condition has no atoms and no comparisons.
    pub fn is_trivial(&self) -> bool {
        self.atoms.is_empty() && self.comparisons.is_empty()
    }

    /// All variables mentioned anywhere in the condition, sorted by name.
    pub fn variables(&self) -> Vec<reweb_term::Sym> {
        let mut out = Vec::new();
        for a in &self.atoms {
            out.extend(a.pattern.variables());
        }
        for c in &self.comparisons {
            out.extend(c.variables());
        }
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_trivial() {
            return f.write_str("true");
        }
        let mut first = true;
        for a in &self.atoms {
            if !first {
                f.write_str(" and ")?;
            }
            first = false;
            if a.negated {
                f.write_str("not ")?;
            }
            write!(f, "in {:?} {}", a.resource, a.pattern)?;
        }
        for c in &self.comparisons {
            if !first {
                f.write_str(" and ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Evaluates queries and conditions against a [`ResourceStore`] and
/// registered deductive views (Thesis 9).
#[derive(Clone, Debug, Default)]
pub struct QueryEngine {
    /// The documents queries and conditions run against.
    pub store: ResourceStore,
    views: BTreeMap<String, Vec<DeductiveRule>>,
}

impl QueryEngine {
    /// An engine with an empty store and no views.
    pub fn new() -> QueryEngine {
        QueryEngine::default()
    }

    /// An engine over an existing store.
    pub fn with_store(store: ResourceStore) -> QueryEngine {
        QueryEngine {
            store,
            views: BTreeMap::new(),
        }
    }

    /// Register a deductive rule contributing to the view `uri`. Several
    /// rules may feed the same view (union).
    pub fn register_view(&mut self, uri: impl Into<String>, rule: DeductiveRule) {
        self.views.entry(uri.into()).or_default().push(rule);
    }

    /// Is `uri` a registered deductive view (vs a stored document)?
    pub fn is_view(&self, uri: &str) -> bool {
        self.views.contains_key(uri)
    }

    /// Does the dependency graph of views reach `uri` back from itself?
    fn view_in_cycle(&self, uri: &str) -> bool {
        fn reaches(
            views: &BTreeMap<String, Vec<DeductiveRule>>,
            from: &str,
            target: &str,
            seen: &mut Vec<String>,
        ) -> bool {
            if seen.iter().any(|s| s == from) {
                return false;
            }
            seen.push(from.to_string());
            let Some(rules) = views.get(from) else {
                return false;
            };
            for r in rules {
                for a in &r.body.atoms {
                    if a.resource == target {
                        return true;
                    }
                    if views.contains_key(&a.resource) && reaches(views, &a.resource, target, seen)
                    {
                        return true;
                    }
                }
            }
            false
        }
        reaches(&self.views, uri, uri, &mut Vec::new())
    }

    /// Materialize all views to a fixpoint (bottom-up, set semantics).
    ///
    /// Recursion through *positive* atoms is supported with an iteration
    /// cap; negation against a view that is part of a dependency cycle is
    /// rejected (unstratified).
    pub fn materialize_views(&self) -> Result<BTreeMap<String, Vec<Term>>, TermError> {
        const MAX_ITERS: usize = 1_000;
        // Reject unstratified negation up front.
        for rules in self.views.values() {
            for r in rules {
                for a in &r.body.atoms {
                    if a.negated && self.is_view(&a.resource) && self.view_in_cycle(&a.resource) {
                        return Err(TermError::InvalidEdit(format!(
                            "unstratified negation: `not in {:?}` where the view is recursive",
                            a.resource
                        )));
                    }
                }
            }
        }
        let mut extents: BTreeMap<String, Vec<Term>> =
            self.views.keys().map(|k| (k.clone(), Vec::new())).collect();
        for _ in 0..MAX_ITERS {
            let mut changed = false;
            for (uri, rules) in &self.views {
                for rule in rules {
                    let answers =
                        self.eval_condition_with(&rule.body, &Bindings::new(), Some(&extents))?;
                    for t in crate::construct::construct(&rule.head, &answers)? {
                        let ext = extents.get_mut(uri).expect("extent exists");
                        if !ext.contains(&t) {
                            ext.push(t);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Ok(extents);
            }
        }
        Err(TermError::InvalidEdit(
            "view fixpoint did not converge within the iteration cap".into(),
        ))
    }

    /// The document root a query atom runs against: a store document, or a
    /// synthetic root wrapping a view's extent.
    fn resource_root(
        &self,
        uri: &str,
        extents: Option<&BTreeMap<String, Vec<Term>>>,
    ) -> Result<Term, TermError> {
        if let Some(ext) = extents.and_then(|e| e.get(uri)) {
            return Ok(Term::unordered("view", ext.clone()));
        }
        if self.is_view(uri) {
            let all = self.materialize_views()?;
            return Ok(Term::unordered(
                "view",
                all.get(uri).cloned().unwrap_or_default(),
            ));
        }
        self.store.get(uri).cloned()
    }

    /// All answers of `pattern` against resource `uri`, extending `seed`.
    pub fn query(
        &self,
        uri: &str,
        pattern: &QueryTerm,
        seed: &Bindings,
    ) -> Result<Vec<Bindings>, TermError> {
        let root = self.resource_root(uri, None)?;
        let mut out = Vec::new();
        match_anywhere_into(pattern, &root, seed, &mut out);
        Ok(out)
    }

    /// Evaluate a condition, threading bindings through atoms left to right.
    /// Returns every extension of `seed` that satisfies the condition
    /// (empty = condition false; for a trivial condition, `vec![seed]`).
    pub fn eval_condition(
        &self,
        cond: &Condition,
        seed: &Bindings,
    ) -> Result<Vec<Bindings>, TermError> {
        self.eval_condition_with(cond, seed, None)
    }

    fn eval_condition_with(
        &self,
        cond: &Condition,
        seed: &Bindings,
        extents: Option<&BTreeMap<String, Vec<Term>>>,
    ) -> Result<Vec<Bindings>, TermError> {
        let mut current = vec![seed.clone()];
        for atom in &cond.atoms {
            let root = self.resource_root(&atom.resource, extents)?;
            let mut next = Vec::new();
            for b in &current {
                if atom.negated {
                    let mut hits = Vec::new();
                    match_anywhere_into(&atom.pattern, &root, b, &mut hits);
                    if hits.is_empty() {
                        next.push(b.clone());
                    }
                } else {
                    match_anywhere_into(&atom.pattern, &root, b, &mut next);
                }
            }
            if next.len() > 1 {
                next.sort();
                next.dedup();
            }
            current = next;
            if current.is_empty() {
                return Ok(current);
            }
        }
        for c in &cond.comparisons {
            let mut next = Vec::new();
            for b in current {
                match c.holds(&b) {
                    Ok(true) => next.push(b),
                    Ok(false) => {}
                    Err(e) => return Err(TermError::InvalidEdit(e.to_string())),
                }
            }
            current = next;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_condition, parse_query_term};
    use reweb_term::parse_term;

    fn engine() -> QueryEngine {
        let mut store = ResourceStore::new();
        store.put(
            "http://shop/customers",
            parse_term(
                "customers[ customer{id[\"c1\"], name[\"Ann\"], income[\"1800\"]}, \
                             customer{id[\"c2\"], name[\"Bob\"], income[\"900\"]} ]",
            )
            .unwrap(),
        );
        store.put(
            "http://shop/orders",
            parse_term(
                "orders[ order{id[\"o1\"], customer[\"c1\"], total[\"60\"]}, \
                          order{id[\"o2\"], customer[\"c2\"], total[\"45\"]} ]",
            )
            .unwrap(),
        );
        QueryEngine::with_store(store)
    }

    #[test]
    fn single_atom_query() {
        let e = engine();
        let answers = e
            .query(
                "http://shop/customers",
                &parse_query_term("customer{{name[[var N]]}}").unwrap(),
                &Bindings::new(),
            )
            .unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn condition_join_across_resources() {
        // Join orders to customers on the customer id.
        let e = engine();
        let cond = parse_condition(
            "in \"http://shop/orders\" order{{customer[[var C]], total[[var T]]}} \
             and in \"http://shop/customers\" customer{{id[[var C]], name[[var N]]}} \
             and var T >= 50",
        )
        .unwrap();
        let answers = e.eval_condition(&cond, &Bindings::new()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("N").unwrap().text_content(), "Ann");
    }

    #[test]
    fn seed_parameterizes_condition() {
        // The event part bound C = c2; the condition only sees Bob.
        let e = engine();
        let cond =
            parse_condition("in \"http://shop/customers\" customer{{id[[var C]], name[[var N]]}}")
                .unwrap();
        let seed = Bindings::of("C", Term::text("c2"));
        let answers = e.eval_condition(&cond, &seed).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("N").unwrap().text_content(), "Bob");
    }

    #[test]
    fn negated_atom_filters() {
        let e = engine();
        let cond = parse_condition(
            "in \"http://shop/customers\" customer{{id[[var C]]}} \
             and not in \"http://shop/orders\" order{{customer[[var C]], total[[\"60\"]]}}",
        )
        .unwrap();
        let answers = e.eval_condition(&cond, &Bindings::new()).unwrap();
        // c1 has a 60-total order, c2 does not.
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("C").unwrap().text_content(), "c2");
    }

    #[test]
    fn trivial_condition_passes_seed_through() {
        let e = engine();
        let seed = Bindings::of("X", Term::text("1"));
        let answers = e.eval_condition(&Condition::always_true(), &seed).unwrap();
        assert_eq!(answers, vec![seed]);
    }

    #[test]
    fn missing_resource_is_error() {
        let e = engine();
        let cond = parse_condition("in \"http://nowhere\" x").unwrap();
        assert!(e.eval_condition(&cond, &Bindings::new()).is_err());
    }

    #[test]
    fn unbound_comparison_is_error() {
        let e = engine();
        let cond = parse_condition("var Nope > 3").unwrap();
        assert!(e.eval_condition(&cond, &Bindings::new()).is_err());
    }

    #[test]
    fn condition_display() {
        let cond = parse_condition("in \"u\" a[[var X]] and not in \"v\" b and var X > 1").unwrap();
        let printed = cond.to_string();
        let reparsed = parse_condition(&printed).unwrap();
        assert_eq!(cond, reparsed);
        assert_eq!(Condition::always_true().to_string(), "true");
    }
}
