//! # reweb-production — the production-rule (Condition-Action) baseline
//!
//! Thesis 1 argues that ECA rules suit the Web better than production
//! rules. To *measure* that (experiment E1), the production-rule model the
//! paper contrasts with must exist. This crate provides it:
//!
//! * [`CaRule`] — `IF condition DO action` over the same stores, query
//!   language, and action language as the ECA engine.
//! * [`ProductionEngine`] — a recognize-act cycle: conditions are
//!   re-evaluated against the fact base; a rule fires **once per newly
//!   satisfied binding** (the paper's footnote 4: "the production rule
//!   fires only once, when the condition becomes true"), and firing
//!   continues to quiescence. Because CA rules cannot see events, the
//!   engine must be *driven* — re-run after every state change or poll
//!   tick — which is exactly the cost E1 quantifies.
//! * [`derive_eca`] — the footnote-4 translation of a CA rule into the
//!   ECA rule `on any-event if C do A`, together with tests demonstrating
//!   when the two are and are not equivalent (idempotence of the action,
//!   persistence of the condition).

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use reweb_core::EcaRule;
use reweb_events::EventQuery;
use reweb_query::{Bindings, Condition, QueryEngine, QueryTerm};
use reweb_update::{Action, Executor, OutMessage, ProcedureDef};

/// A production (Condition-Action) rule: `IF condition DO action`.
#[derive(Clone, Debug, PartialEq)]
pub struct CaRule {
    /// Rule name (diagnostics and fired-set keys).
    pub name: String,
    /// The `IF` part: a query over the fact base.
    pub condition: Condition,
    /// The `DO` part, executed once per new satisfaction.
    pub action: Action,
}

impl CaRule {
    /// A named Condition-Action rule.
    pub fn new(name: impl Into<String>, condition: Condition, action: Action) -> CaRule {
        CaRule {
            name: name.into(),
            condition,
            action,
        }
    }
}

impl fmt::Display for CaRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF {} DO {}", self.condition, self.action)
    }
}

/// Counters for experiment E1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProductionMetrics {
    /// Recognize-act cycles executed.
    pub cycles: u64,
    /// Condition evaluations — each is a full query over the fact base.
    pub condition_evals: u64,
    /// New (rule, bindings) satisfactions whose action ran.
    pub rules_fired: u64,
    /// Actions that raised an [`reweb_update::ActionError`].
    pub actions_failed: u64,
    /// Human-readable records of every failure.
    pub errors: Vec<String>,
}

/// A forward-chaining production-rule engine over a resource store.
pub struct ProductionEngine {
    /// The fact base the conditions query and the actions update.
    pub qe: QueryEngine,
    rules: Vec<CaRule>,
    procedures: BTreeMap<String, ProcedureDef>,
    /// (rule, bindings) pairs that already fired — the "fires only once
    /// when the condition becomes true" semantics.
    fired: BTreeSet<(String, Bindings)>,
    /// Counters for experiment E1.
    pub metrics: ProductionMetrics,
}

impl ProductionEngine {
    /// An engine with an empty fact base and no rules.
    pub fn new() -> ProductionEngine {
        ProductionEngine {
            qe: QueryEngine::new(),
            rules: Vec::new(),
            procedures: BTreeMap::new(),
            fired: BTreeSet::new(),
            metrics: ProductionMetrics::default(),
        }
    }

    /// Install a rule; it participates from the next cycle on.
    pub fn add_rule(&mut self, r: CaRule) {
        self.rules.push(r);
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Run recognize-act cycles to quiescence. Must be called after every
    /// state change — production rules have no events to wake them up.
    pub fn run_to_quiescence(&mut self) -> Vec<OutMessage> {
        const MAX_CYCLES: u64 = 10_000;
        let mut out = Vec::new();
        loop {
            self.metrics.cycles += 1;
            if self.metrics.cycles > MAX_CYCLES {
                self.metrics
                    .errors
                    .push("production engine did not reach quiescence".into());
                return out;
            }
            let mut fired_any = false;
            for i in 0..self.rules.len() {
                let rule = self.rules[i].clone();
                self.metrics.condition_evals += 1;
                let answers = match self.qe.eval_condition(&rule.condition, &Bindings::new()) {
                    Ok(a) => a,
                    Err(e) => {
                        self.metrics.errors.push(format!("rule {}: {e}", rule.name));
                        continue;
                    }
                };
                for b in answers {
                    if !self.fired.insert((rule.name.clone(), b.clone())) {
                        continue; // this satisfaction already fired
                    }
                    fired_any = true;
                    self.metrics.rules_fired += 1;
                    let mut ex = Executor::new(&mut self.qe, &self.procedures);
                    if let Err(e) = ex.execute(&rule.action, &b) {
                        self.metrics.actions_failed += 1;
                        self.metrics
                            .errors
                            .push(format!("rule {}: action failed: {e}", rule.name));
                    }
                    out.extend(ex.outbox);
                }
            }
            if !fired_any {
                return out;
            }
        }
    }
}

impl Default for ProductionEngine {
    fn default() -> Self {
        ProductionEngine::new()
    }
}

/// Footnote 4: express the production rule `IF C DO A` as the ECA rule
/// `ON any-event IF C DO A`, where the event query matches *every* event.
///
/// The paper is careful: this is **not** equivalent in general. The ECA
/// rule fires on every event while the condition holds; the production
/// rule fires once per new satisfaction. They coincide only when the
/// action is idempotent and the condition is not un-made and re-made —
/// see the `derive_eca_*` tests.
pub fn derive_eca(ca: &CaRule) -> EcaRule {
    EcaRule::new(
        format!("{}__as_eca", ca.name),
        EventQuery::atomic(QueryTerm::var("AnyEvent")),
        ca.condition.clone(),
        ca.action.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_core::{MessageMeta, ReactiveEngine};
    use reweb_query::parser::{parse_condition, parse_construct_term, parse_query_term};
    use reweb_term::{parse_term, Term, Timestamp};
    use reweb_update::Update;

    fn grant_rule() -> CaRule {
        // The paper's credit-card example, production style: grant when an
        // application with sufficient income and no debts is on file.
        CaRule::new(
            "grant_card",
            parse_condition(
                "in \"http://bank/applications\" application{{id[[var A]], income[[var I]]}} \
                 and not in \"http://bank/debts\" debt{{applicant[[var A]]}} \
                 and var I >= 1500",
            )
            .unwrap(),
            Action::Persist {
                resource: "http://bank/granted".into(),
                payload: parse_construct_term("granted[var A]").unwrap(),
            },
        )
    }

    fn bank_engine() -> ProductionEngine {
        let mut e = ProductionEngine::new();
        e.qe.store.put(
            "http://bank/applications",
            parse_term("applications[]").unwrap(),
        );
        e.qe.store
            .put("http://bank/debts", parse_term("debts[]").unwrap());
        e.add_rule(grant_rule());
        e
    }

    fn file_application(e: &mut QueryEngine, id: &str, income: &str) {
        let u = Update::insert(
            "http://bank/applications",
            parse_query_term("applications[[]]").unwrap(),
            parse_construct_term(&format!(
                "application{{id[\"{id}\"], income[\"{income}\"]}}"
            ))
            .unwrap(),
        );
        reweb_update::apply_update(&mut e.store, &u, &Bindings::new()).unwrap();
    }

    #[test]
    fn fires_once_when_condition_becomes_true() {
        let mut e = bank_engine();
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 0);
        file_application(&mut e.qe, "a1", "2000");
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 1);
        // Re-running without a state change must not re-fire.
        e.run_to_quiescence();
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 1);
        let granted = e.qe.store.get("http://bank/granted").unwrap();
        assert_eq!(granted.children().len(), 1);
    }

    #[test]
    fn below_threshold_never_fires() {
        let mut e = bank_engine();
        file_application(&mut e.qe, "a1", "900");
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 0);
    }

    #[test]
    fn chained_firing_runs_to_quiescence() {
        // Rule 1 derives a fact that satisfies rule 2.
        let mut e = ProductionEngine::new();
        e.qe.store
            .put("http://f", parse_term("facts[seed]").unwrap());
        e.add_rule(CaRule::new(
            "step1",
            parse_condition("in \"http://f\" seed").unwrap(),
            Action::Persist {
                resource: "http://f2".into(),
                payload: parse_construct_term("middle").unwrap(),
            },
        ));
        e.add_rule(CaRule::new(
            "step2",
            parse_condition("in \"http://f2\" middle").unwrap(),
            Action::Persist {
                resource: "http://f3".into(),
                payload: parse_construct_term("done").unwrap(),
            },
        ));
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 2);
        assert!(e.qe.store.contains("http://f3"));
        // Quiescence took more than one cycle (chaining), then stopped.
        assert!(e.metrics.cycles >= 2);
    }

    #[test]
    fn condition_evals_grow_with_polling_not_with_events() {
        // The E1 effect in miniature: every drive of the production engine
        // costs one condition evaluation per rule, events or not.
        let mut e = bank_engine();
        for _ in 0..10 {
            e.run_to_quiescence(); // ten "poll ticks" with nothing new
        }
        assert_eq!(e.metrics.condition_evals, 10); // 1 rule × 10 drives
        assert_eq!(e.metrics.rules_fired, 0);
    }

    #[test]
    fn derive_eca_equivalent_for_idempotent_action() {
        // ECA twin: on any event, if condition then grant. The Persist
        // action is NOT idempotent (it appends), so to show equivalence we
        // compare the *set* of granted applicants, checking duplicates
        // separately below.
        let ca = grant_rule();
        let eca = derive_eca(&ca);
        let mut engine = ReactiveEngine::new("http://bank");
        engine.qe.store.put(
            "http://bank/applications",
            parse_term("applications[application{id[\"a1\"], income[\"2000\"]}]").unwrap(),
        );
        engine
            .qe
            .store
            .put("http://bank/debts", parse_term("debts[]").unwrap());
        engine.add_rule(eca);
        let meta = MessageMeta::from_uri("http://x");
        engine.receive(Term::elem("tick"), &meta, Timestamp(1));
        let granted = engine.qe.store.get("http://bank/granted").unwrap();
        assert_eq!(granted.children().len(), 1, "same grant as production");
    }

    #[test]
    fn derive_eca_not_equivalent_without_idempotence() {
        // The paper's caveat: the ECA rule fires on EVERY event while the
        // condition holds. Two ticks → two grants, where the production
        // rule granted once.
        let ca = grant_rule();
        let mut engine = ReactiveEngine::new("http://bank");
        engine.qe.store.put(
            "http://bank/applications",
            parse_term("applications[application{id[\"a1\"], income[\"2000\"]}]").unwrap(),
        );
        engine
            .qe
            .store
            .put("http://bank/debts", parse_term("debts[]").unwrap());
        engine.add_rule(derive_eca(&ca));
        let meta = MessageMeta::from_uri("http://x");
        engine.receive(Term::elem("tick"), &meta, Timestamp(1));
        engine.receive(Term::elem("tick"), &meta, Timestamp(2));
        let granted = engine.qe.store.get("http://bank/granted").unwrap();
        assert_eq!(
            granted.children().len(),
            2,
            "non-idempotent action fired twice — footnote 4's inequivalence"
        );
    }

    #[test]
    fn negation_unfires_are_not_retracted() {
        // Classic production-rule subtlety: once fired, a firing is not
        // undone when the condition later becomes false.
        let mut e = bank_engine();
        file_application(&mut e.qe, "a1", "2000");
        e.run_to_quiescence();
        assert_eq!(e.metrics.rules_fired, 1);
        // A debt appears — the condition is now false, but the grant stays.
        let u = Update::insert(
            "http://bank/debts",
            parse_query_term("debts[[]]").unwrap(),
            parse_construct_term("debt{applicant[\"a1\"]}").unwrap(),
        );
        reweb_update::apply_update(&mut e.qe.store, &u, &Bindings::new()).unwrap();
        e.run_to_quiescence();
        assert!(e.qe.store.contains("http://bank/granted"));
        assert_eq!(e.metrics.rules_fired, 1);
    }
}
