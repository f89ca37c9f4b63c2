//! Deductive rules for events (Thesis 9, events half).
//!
//! > "The same advantages [as views] apply for querying and reasoning with
//! > event data, and we propose to also have deductive rules for events.
//! > However, since event queries have to \[be\] evaluated very frequently, a
//! > reactive language can be made more restrictive about rules for events
//! > for efficiency reasons (e.g., reject recursive rules)."
//!
//! An [`EventRule`] (`DETECT head ON query`) watches an event query and, on
//! every answer, *derives* a new event whose payload is built by the head
//! construct term. Derived events are fed back through the other rules of
//! the [`DeductionLayer`] — but the rule graph must be acyclic, which is
//! checked at registration exactly as the thesis prescribes.

use reweb_query::{construct, ConstructTerm};
use reweb_term::{Sym, TermError, Timestamp};

use crate::beta::JoinMode;
use crate::event::{Event, EventId};
use crate::incremental::{EngineStats, IncrementalEngine};
use crate::query::EventQuery;

/// A deductive event rule: `DETECT head ON query END`.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRule {
    /// Rule name (diagnostics and cycle reports).
    pub name: String,
    /// Payload of the derived event (instantiated per answer).
    pub head: ConstructTerm,
    /// The composite event query that triggers the derivation.
    pub on: EventQuery,
}

impl EventRule {
    /// Build `DETECT head ON on END`.
    pub fn new(name: impl Into<String>, head: ConstructTerm, on: EventQuery) -> EventRule {
        EventRule {
            name: name.into(),
            head,
            on,
        }
    }

    /// Root label of the derived payload, if statically known.
    pub fn head_label(&self) -> Option<Sym> {
        match &self.head {
            ConstructTerm::Elem { label, .. } => Some(*label),
            _ => None,
        }
    }

    /// Labels of events this rule listens for (`None` = could be anything).
    pub fn listens_to(&self) -> Option<Vec<Sym>> {
        self.on.trigger_labels()
    }
}

/// A set of event rules evaluated together; derived events cascade through
/// other rules (acyclicity enforced).
#[derive(Debug, Default)]
pub struct DeductionLayer {
    rules: Vec<Detector>,
    next_derived_id: u64,
    join_mode: JoinMode,
}

/// One registered DETECT rule with its event-query engine.
#[derive(Debug)]
struct Detector {
    rule: EventRule,
    engine: IncrementalEngine,
    /// The payload labels worth pushing into `engine`; `None` = every
    /// event. Precomputed from [`EventRule::listens_to`]. A rule with an
    /// `absence` takes every event, as events also move its clock.
    listens: Option<Vec<Sym>>,
}

impl Detector {
    fn listens_to(&self, e: &Event) -> bool {
        match &self.listens {
            None => true,
            Some(labels) => e.label_sym().is_some_and(|l| labels.contains(&l)),
        }
    }
}

impl DeductionLayer {
    /// An empty layer.
    pub fn new() -> DeductionLayer {
        DeductionLayer::default()
    }

    /// Register a rule. Fails if adding it would make the dependency graph
    /// of event rules cyclic (a rule depends on another if it listens to
    /// the label the other derives — or could, for label-less patterns).
    pub fn register(&mut self, rule: EventRule) -> Result<(), TermError> {
        let mut rules: Vec<&EventRule> = self.rules.iter().map(|d| &d.rule).collect();
        rules.push(&rule);
        if has_cycle(&rules) {
            return Err(TermError::InvalidEdit(format!(
                "event rule `{}` would make the deductive event rules recursive \
                 (rejected per Thesis 9)",
                rule.name
            )));
        }
        let engine = IncrementalEngine::new(&rule.on).with_join_mode(self.join_mode);
        let listens = if rule.on.has_absence() {
            None
        } else {
            rule.listens_to()
        };
        self.rules.push(Detector {
            rule,
            engine,
            listens,
        });
        Ok(())
    }

    /// Number of registered DETECT rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Switch the join implementation of every registered DETECT rule's
    /// engine (and of rules registered later) — see
    /// [`IncrementalEngine::set_join_mode`].
    pub fn set_join_mode(&mut self, mode: JoinMode) {
        self.join_mode = mode;
        for d in self.rules.iter_mut() {
            d.engine.set_join_mode(mode);
        }
    }

    /// Sum of the per-DETECT-rule engine counters, for folding into
    /// host-level metrics.
    pub fn stats_total(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for d in &self.rules {
            total.events_processed += d.engine.stats.events_processed;
            total.answers_emitted += d.engine.stats.answers_emitted;
            total.join_attempts += d.engine.stats.join_attempts;
            total.index_probes += d.engine.stats.index_probes;
        }
        total
    }

    /// Total partial-match state across all DETECT rules (Thesis 4).
    pub fn state_size(&self) -> usize {
        self.rules.iter().map(|d| d.engine.state_size()).sum()
    }

    /// Earliest pending absence deadline across all DETECT rules.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.rules
            .iter()
            .filter_map(|d| d.engine.next_deadline())
            .min()
    }

    /// `true` when no DETECT rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The derived-event sequence counter. Derived events are stamped
    /// `EventId(u64::MAX - seq)`; those ids end up in answer constituent
    /// lists (which order simultaneous answers), so crash recovery must
    /// restore this counter exactly before replaying a log suffix.
    pub fn derived_seq(&self) -> u64 {
        self.next_derived_id
    }

    /// Restore the derived-event sequence counter (recovery only; see
    /// [`DeductionLayer::derived_seq`]).
    pub fn set_derived_seq(&mut self, seq: u64) {
        self.next_derived_id = seq;
    }

    /// The replay horizon across all registered DETECT rules (see
    /// [`crate::EventQuery::replay_horizon`]); DETECT engines run without
    /// an engine TTL, so the bound uses none.
    pub fn replay_horizon(&self) -> Option<reweb_term::Dur> {
        let mut max = reweb_term::Dur::ZERO;
        for d in &self.rules {
            max = max.max(d.rule.on.replay_horizon(None)?);
        }
        Some(max)
    }

    /// Does any registered DETECT rule use an `absence` operator (and
    /// therefore need timer advances)?
    pub fn has_absence(&self) -> bool {
        self.rules.iter().any(|d| d.rule.on.has_absence())
    }

    /// Feed one external event; returns all *derived* events, including
    /// those derived from other derived events (cascade, bounded because
    /// the rule graph is acyclic).
    pub fn push(&mut self, e: &Event) -> Result<Vec<Event>, TermError> {
        let mut derived = Vec::new();
        // `next` collects one cascade level at a time. Each level can only
        // move "up" the acyclic rule graph, so at most `rules.len()`
        // levels are possible.
        let mut next = Vec::new();
        self.derive(e, &mut next)?;
        let mut cascaded = 0;
        let mut levels = 1;
        while !next.is_empty() {
            levels += 1;
            if levels > self.rules.len() + 1 {
                return Err(TermError::InvalidEdit(
                    "event deduction cascade exceeded the acyclic depth bound".into(),
                ));
            }
            derived.append(&mut next);
            for ev in &derived[cascaded..] {
                self.derive(ev, &mut next)?;
            }
            cascaded = derived.len();
        }
        Ok(derived)
    }

    /// Push `ev` into every rule listening for it, appending the events
    /// their answers derive to `out`.
    fn derive(&mut self, ev: &Event, out: &mut Vec<Event>) -> Result<(), TermError> {
        for d in self.rules.iter_mut().filter(|d| d.listens_to(ev)) {
            let answers = d.engine.push(ev);
            let seq = &mut self.next_derived_id;
            derive_events(&d.rule, &answers, ev.time(), ev.trace, seq, out)?;
        }
        Ok(())
    }

    /// Advance the clock for all rule engines (absence deadlines inside
    /// DETECT rules); returns events derived by firing deadlines.
    pub fn advance_to(&mut self, t: Timestamp) -> Result<Vec<Event>, TermError> {
        let mut initial = Vec::new();
        for d in self.rules.iter_mut() {
            let answers = d.engine.advance_to(t);
            let seq = &mut self.next_derived_id;
            // Deadline-derived: no single triggering event, so trace 0.
            derive_events(&d.rule, &answers, t, 0, seq, &mut initial)?;
        }
        // Cascade the deadline-derived events through the other rules.
        let mut derived = Vec::new();
        for ev in &initial {
            derived.extend(self.push(ev)?);
        }
        initial.append(&mut derived);
        Ok(initial)
    }
}

/// Instantiate `rule`'s head once per answer into derived events.
fn derive_events(
    rule: &EventRule,
    answers: &[crate::event::Answer],
    at: Timestamp,
    trace: u64,
    next_derived_id: &mut u64,
    out: &mut Vec<Event>,
) -> Result<(), TermError> {
    for a in answers {
        for payload in construct(&rule.head, std::slice::from_ref(&a.bindings))? {
            *next_derived_id += 1;
            out.push(Event {
                id: EventId(u64::MAX - *next_derived_id),
                occurred: at,
                received: at,
                source: format!("derived:{}", rule.name),
                payload,
                trace,
            });
        }
    }
    Ok(())
}

/// Dependency: r1 → r2 if r2 listens to what r1 derives (conservatively
/// true when either side is label-less).
fn depends(r1: &EventRule, r2: &EventRule) -> bool {
    match (r1.head_label(), r2.listens_to()) {
        (Some(h), Some(labels)) => labels.contains(&h),
        // Unknown head or wildcard listener: assume dependency.
        _ => true,
    }
}

fn has_cycle(rules: &[&EventRule]) -> bool {
    let n = rules.len();
    // DFS over the dependency graph.
    fn dfs(
        i: usize,
        rules: &[&EventRule],
        state: &mut Vec<u8>, // 0 = unseen, 1 = on stack, 2 = done
    ) -> bool {
        state[i] = 1;
        for j in 0..rules.len() {
            if depends(rules[i], rules[j]) {
                if state[j] == 1 {
                    return true;
                }
                if state[j] == 0 && dfs(j, rules, state) {
                    return true;
                }
            }
        }
        state[i] = 2;
        false
    }
    let mut state = vec![0u8; n];
    for i in 0..n {
        if state[i] == 0 && dfs(i, rules, &mut state) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_event_query;
    use reweb_query::parser::parse_construct_term;
    use reweb_term::parse_term;

    fn rule(name: &str, head: &str, on: &str) -> EventRule {
        EventRule::new(
            name,
            parse_construct_term(head).unwrap(),
            parse_event_query(on).unwrap(),
        )
    }

    fn ev(id: u64, at: u64, payload: &str) -> Event {
        Event::new(EventId(id), Timestamp(at), parse_term(payload).unwrap())
    }

    #[test]
    fn derives_higher_level_event() {
        let mut layer = DeductionLayer::new();
        layer
            .register(rule(
                "big_order",
                "big_order{id[var O], total[var T]}",
                "order{{id[[var O]], total[[var T]]}} where var T >= 100",
            ))
            .unwrap();
        let d = layer
            .push(&ev(1, 10, "order{id[\"o1\"], total[\"250\"]}"))
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].label(), Some("big_order"));
        assert_eq!(d[0].source, "derived:big_order");
        // Below threshold: nothing.
        let d = layer
            .push(&ev(2, 20, "order{id[\"o2\"], total[\"10\"]}"))
            .unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn cascade_through_two_levels() {
        let mut layer = DeductionLayer::new();
        layer
            .register(rule("lvl1", "warning{src[var S]}", "fault{{src[[var S]]}}"))
            .unwrap();
        layer
            .register(rule("lvl2", "alarm{src[var S]}", "warning{{src[[var S]]}}"))
            .unwrap();
        let d = layer.push(&ev(1, 10, "fault{src[\"db\"]}")).unwrap();
        let labels: Vec<_> = d.iter().filter_map(Event::label).collect();
        assert_eq!(labels, vec!["warning", "alarm"]);
    }

    #[test]
    fn recursion_rejected() {
        let mut layer = DeductionLayer::new();
        layer
            .register(rule("ping", "ping{n[var N]}", "pong{{n[[var N]]}}"))
            .unwrap();
        let err = layer.register(rule("pong", "pong{n[var N]}", "ping{{n[[var N]]}}"));
        assert!(err.is_err());
        // Self-recursion too.
        let mut layer = DeductionLayer::new();
        assert!(layer
            .register(rule("self", "x{v[var V]}", "x{{v[[var V]]}}"))
            .is_err());
    }

    #[test]
    fn wildcard_listener_is_conservatively_recursive() {
        let mut layer = DeductionLayer::new();
        // A rule that listens to anything depends on everything, including
        // itself once it derives events.
        assert!(layer
            .register(rule("all", "seen{e[var X]}", "var X"))
            .is_err());
    }

    #[test]
    fn deadline_inside_detect_rule() {
        let mut layer = DeductionLayer::new();
        layer
            .register(rule(
                "stranded",
                "stranded{no[var N]}",
                "absence(cancel{{no[[var N]]}}, rebooked{{no[[var N]]}}, 2h)",
            ))
            .unwrap();
        layer.push(&ev(1, 0, "cancel{no[\"LH1\"]}")).unwrap();
        let d = layer.advance_to(Timestamp(7_200_000)).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].label(), Some("stranded"));
    }
}
