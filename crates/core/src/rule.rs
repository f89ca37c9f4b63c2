//! ECA rules with branching, and rule sets with scoping (Thesis 9).
//!
//! A rule has the shape `ON event [WHERE …] branches`, where the branches
//! generalize the three forms the thesis names:
//!
//! * plain **ECA**: one branch with a condition (or `DO` = trivially true);
//! * **ECAA** ("on E if C do A1 else A2"): a conditioned branch plus an
//!   else-branch — the condition is evaluated *once*, not twice as with a
//!   `C`/`¬C` rule pair (experiment E9 measures exactly this);
//! * **ECnAn**: a chain of condition/action pairs, first match fires.
//!
//! [`RuleSet`]s group rules, nest, can be disabled as a unit, and act as
//! scopes: procedures, views, and DETECT rules defined in a set are
//! visible to that set's rules and its descendants, with inner definitions
//! shadowing outer ones ("rule sets could introduce scopes for
//! identifiers").

use std::fmt;

use reweb_events::{EventQuery, EventRule};
use reweb_query::{Condition, DeductiveRule};
use reweb_update::{Action, ProcedureDef};

/// One condition/action pair of a rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Branch {
    /// `Condition::always_true()` for `DO`/`ELSE` branches.
    pub cond: Condition,
    /// The action executed when the condition holds.
    pub action: Action,
}

/// A reactive rule: `RULE name ON event (IF c THEN a)… (ELSE a)? END`.
#[derive(Clone, Debug, PartialEq)]
pub struct EcaRule {
    /// The rule's name (metrics and error messages refer to it).
    pub name: String,
    /// The event query triggering this rule.
    pub on: EventQuery,
    /// Evaluated in order; the first branch whose condition holds fires.
    pub branches: Vec<Branch>,
}

impl EcaRule {
    /// Plain ECA rule: `ON event IF cond DO action`.
    pub fn new(name: impl Into<String>, on: EventQuery, cond: Condition, action: Action) -> Self {
        EcaRule {
            name: name.into(),
            on,
            branches: vec![Branch { cond, action }],
        }
    }

    /// ECAA rule: `ON event IF cond THEN a1 ELSE a2`.
    pub fn ecaa(
        name: impl Into<String>,
        on: EventQuery,
        cond: Condition,
        then: Action,
        else_: Action,
    ) -> Self {
        EcaRule {
            name: name.into(),
            on,
            branches: vec![
                Branch { cond, action: then },
                Branch {
                    cond: Condition::always_true(),
                    action: else_,
                },
            ],
        }
    }

    /// Append another `ELSEIF cond THEN action` branch.
    pub fn with_branch(mut self, cond: Condition, action: Action) -> Self {
        self.branches.push(Branch { cond, action });
        self
    }
}

impl fmt::Display for EcaRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RULE {}", self.name)?;
        writeln!(f, "  ON {}", self.on)?;
        // `DO` only fits a single-branch rule; in a chain, a trivially
        // true branch prints as `IF true THEN` (non-final) or `ELSE`
        // (final) so the printed form stays inside the grammar.
        if self.branches.len() == 1 && self.branches[0].cond.is_trivial() {
            writeln!(f, "  DO {}", self.branches[0].action)?;
        } else {
            let last = self.branches.len() - 1;
            for (i, b) in self.branches.iter().enumerate() {
                if i == 0 {
                    writeln!(f, "  IF {} THEN {}", b.cond, b.action)?;
                } else if i == last && b.cond.is_trivial() {
                    writeln!(f, "  ELSE {}", b.action)?;
                } else {
                    writeln!(f, "  ELSEIF {} THEN {}", b.cond, b.action)?;
                }
            }
        }
        write!(f, "END")
    }
}

/// A named group of rules and scoped definitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleSet {
    /// The set's name (a path segment for [`RuleSet::find_mut`]).
    pub name: String,
    /// Disabled sets (and everything below them) are skipped at install.
    pub enabled: bool,
    /// The set's own rules.
    pub rules: Vec<EcaRule>,
    /// Nested rule sets.
    pub children: Vec<RuleSet>,
    /// Procedures scoped to this set and its descendants.
    pub procedures: Vec<ProcedureDef>,
    /// Views: (URI, rule) pairs registered with the local query engine.
    pub views: Vec<(String, DeductiveRule)>,
    /// DETECT rules deriving higher-level events.
    pub event_rules: Vec<EventRule>,
}

impl RuleSet {
    /// An empty, enabled rule set.
    pub fn new(name: impl Into<String>) -> RuleSet {
        RuleSet {
            name: name.into(),
            enabled: true,
            ..RuleSet::default()
        }
    }

    /// Append a rule (builder style).
    pub fn with_rule(mut self, r: EcaRule) -> RuleSet {
        self.rules.push(r);
        self
    }

    /// Append a nested set (builder style).
    pub fn with_child(mut self, c: RuleSet) -> RuleSet {
        self.children.push(c);
        self
    }

    /// Append a scoped view (builder style).
    pub fn with_view(mut self, uri: impl Into<String>, rule: DeductiveRule) -> RuleSet {
        self.views.push((uri.into(), rule));
        self
    }

    /// Mark the set disabled (skipped at install).
    pub fn disabled(mut self) -> RuleSet {
        self.enabled = false;
        self
    }

    /// Total number of rules, including nested sets (enabled or not).
    pub fn rule_count(&self) -> usize {
        self.rules.len() + self.children.iter().map(RuleSet::rule_count).sum::<usize>()
    }

    /// Find a nested rule set by dotted path (`"shop.orders"`), for
    /// enabling/disabling groups at runtime.
    pub fn find_mut(&mut self, path: &str) -> Option<&mut RuleSet> {
        let (head, rest) = match path.split_once('.') {
            Some((h, r)) => (h, Some(r)),
            None => (path, None),
        };
        if head != self.name {
            return None;
        }
        match rest {
            None => Some(self),
            Some(rest) => self.children.iter_mut().find_map(|c| c.find_mut(rest)),
        }
    }
}

impl RuleSet {
    /// What `Display` prints before the set's rules: the `RULESET` line
    /// and the scoped procedures, views and DETECT rules, a line each.
    pub(crate) fn write_head(&self, f: &mut impl fmt::Write) -> fmt::Result {
        writeln!(f, "RULESET {}", self.name)?;
        for p in &self.procedures {
            writeln!(
                f,
                "PROCEDURE {}({}) DO {} END",
                p.name,
                p.params.join(", "),
                p.body
            )?;
        }
        for (uri, v) in &self.views {
            writeln!(f, "VIEW {uri:?} CONSTRUCT {} FROM {} END", v.head, v.body)?;
        }
        for er in &self.event_rules {
            writeln!(f, "DETECT {} ON {} END", er.head, er.on)?;
        }
        Ok(())
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_head(f)?;
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for c in &self.children {
            writeln!(f, "{c}")?;
        }
        write!(f, "END")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_events::parse_event_query;
    use reweb_query::parser::parse_condition;

    fn sample_rule(name: &str) -> EcaRule {
        EcaRule::ecaa(
            name,
            parse_event_query("a{{v[[var X]]}}").unwrap(),
            parse_condition("var X >= 1").unwrap(),
            Action::Noop,
            Action::Fail("else".into()),
        )
    }

    #[test]
    fn ecaa_has_two_branches_with_trivial_else() {
        let r = sample_rule("r");
        assert_eq!(r.branches.len(), 2);
        assert!(!r.branches[0].cond.is_trivial());
        assert!(r.branches[1].cond.is_trivial());
    }

    #[test]
    fn ecnan_chain() {
        let r = sample_rule("r").with_branch(parse_condition("var X >= 0").unwrap(), Action::Noop);
        assert_eq!(r.branches.len(), 3);
    }

    #[test]
    fn ruleset_counts_and_paths() {
        let mut root = RuleSet::new("shop").with_rule(sample_rule("a")).with_child(
            RuleSet::new("orders")
                .with_rule(sample_rule("b"))
                .with_rule(sample_rule("c")),
        );
        assert_eq!(root.rule_count(), 3);
        assert!(root.find_mut("shop.orders").is_some());
        assert!(root.find_mut("shop.payments").is_none());
        assert!(root.find_mut("orders").is_none());
        root.find_mut("shop.orders").unwrap().enabled = false;
        assert!(!root.children[0].enabled);
    }

    #[test]
    fn display_has_rule_shape() {
        let r = sample_rule("on_a");
        let s = r.to_string();
        assert!(s.starts_with("RULE on_a"));
        assert!(s.contains("ON a{{v[[var X]]}}"));
        assert!(s.contains("IF var X >= 1 THEN NOOP"));
        assert!(s.contains("ELSE FAIL \"else\""));
        assert!(s.ends_with("END"));
    }
}
