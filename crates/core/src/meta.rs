//! Meta-programming: rules as data (Thesis 11).
//!
//! > "In meta-programming, programs can 'have other programs as data and
//! > exploit their semantics'. A particular form … is meta-circularity,
//! > where the same language is used on both levels."
//!
//! Rules and rule sets *reify* to terms — ordinary data that can travel in
//! event messages, be stored in resources, and be queried with the same
//! query language as everything else — and *reflect* back into executable
//! rules. The parts (event queries, conditions, actions) are carried as
//! their textual form, which the receiving engine parses with the very
//! parser it uses for its own rules: the two levels genuinely share one
//! language.
//!
//! The wire shape:
//!
//! ```text
//! ruleset{ name["shop"],
//!          procedure{ name["ship"], params[p["Order"], p["Customer"]], body["SEQ …"] },
//!          view{ uri["view://good"], head["good[var C]"], from["in …"] },
//!          detect{ head["big{…}"], on["order{{…}}"] },
//!          rule{ name["on_payment"], on["and(…)"],
//!                branch{ cond["in …"], action["CALL ship(…)"] },
//!                branch{ cond["true"], action["SEND …"] } },
//!          ruleset{ … } }
//! ```
//!
//! [`crate::ReactiveEngine`] installs rule sets arriving as
//! `install_rules[ ruleset{…} ]` messages, gated by the `InstallRules`
//! permission (Thesis 12 guarding Thesis 11).

use reweb_events::parse_event_query;
use reweb_query::parser::{parse_condition, parse_construct_term};
use reweb_query::DeductiveRule;
use reweb_term::{Term, TermError};
use reweb_update::ProcedureDef;

use crate::parser::parse_action;
use crate::rule::{Branch, EcaRule, RuleSet};

/// Reify a rule as a term.
pub fn rule_to_term(r: &EcaRule) -> Term {
    let mut b = Term::build("rule")
        .unordered()
        .field("name", &r.name)
        .field("on", r.on.to_string());
    for br in &r.branches {
        b = b.child(
            Term::build("branch")
                .field("cond", br.cond.to_string())
                .field("action", br.action.to_string())
                .finish(),
        );
    }
    b.finish()
}

fn field_text(t: &Term, name: &str) -> Result<String, TermError> {
    t.field(name)
        .map(Term::text_content)
        .ok_or_else(|| TermError::InvalidEdit(format!("missing `{name}` in {}", t)))
}

/// Reflect a rule term back into an executable rule.
pub fn rule_from_term(t: &Term) -> Result<EcaRule, TermError> {
    if t.label() != Some("rule") {
        return Err(TermError::InvalidEdit(format!(
            "expected rule{{…}}, got {t}"
        )));
    }
    let name = field_text(t, "name")?;
    let on = parse_event_query(&field_text(t, "on")?)?;
    let mut branches = Vec::new();
    for c in t.children().iter().filter(|c| c.label() == Some("branch")) {
        branches.push(Branch {
            cond: parse_condition(&field_text(c, "cond")?)?,
            action: parse_action(&field_text(c, "action")?)?,
        });
    }
    if branches.is_empty() {
        return Err(TermError::InvalidEdit(format!(
            "rule `{name}` has no branches"
        )));
    }
    Ok(EcaRule { name, on, branches })
}

/// Reify a rule set (recursively) as a term.
pub fn ruleset_to_term(s: &RuleSet) -> Term {
    let mut b = Term::build("ruleset").unordered().field("name", &s.name);
    for p in &s.procedures {
        b = b.child(
            Term::build("procedure")
                .field("name", &p.name)
                .child(
                    Term::build("params")
                        .children(
                            p.params
                                .iter()
                                .map(|x| Term::ordered("p", vec![Term::text(x.clone())])),
                        )
                        .finish(),
                )
                .field("body", p.body.to_string())
                .finish(),
        );
    }
    for (uri, v) in &s.views {
        b = b.child(
            Term::build("view")
                .field("uri", uri)
                .field("head", v.head.to_string())
                .field("from", v.body.to_string())
                .finish(),
        );
    }
    for er in &s.event_rules {
        b = b.child(
            Term::build("detect")
                .field("name", &er.name)
                .field("head", er.head.to_string())
                .field("on", er.on.to_string())
                .finish(),
        );
    }
    for r in &s.rules {
        b = b.child(rule_to_term(r));
    }
    for c in &s.children {
        b = b.child(ruleset_to_term(c));
    }
    b.finish()
}

/// Reflect a rule-set term back into a rule set (enabled).
pub fn ruleset_from_term(t: &Term) -> Result<RuleSet, TermError> {
    if t.label() != Some("ruleset") {
        return Err(TermError::InvalidEdit(format!(
            "expected ruleset{{…}}, got {t}"
        )));
    }
    let mut s = RuleSet::new(field_text(t, "name")?);
    for c in t.children() {
        match c.label() {
            Some("procedure") => {
                let name = field_text(c, "name")?;
                let params = c
                    .children()
                    .iter()
                    .find(|x| x.label() == Some("params"))
                    .map(|ps| {
                        ps.children()
                            .iter()
                            .map(|p| p.text_content())
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default();
                let body = parse_action(&field_text(c, "body")?)?;
                s.procedures.push(ProcedureDef::new(name, params, body));
            }
            Some("view") => {
                let uri = field_text(c, "uri")?;
                let head = parse_construct_term(&field_text(c, "head")?)?;
                let body = parse_condition(&field_text(c, "from")?)?;
                s.views.push((uri, DeductiveRule::new(head, body)));
            }
            Some("detect") => {
                let name = field_text(c, "name")?;
                let head = parse_construct_term(&field_text(c, "head")?)?;
                let on = parse_event_query(&field_text(c, "on")?)?;
                s.event_rules
                    .push(reweb_events::EventRule::new(name, head, on));
            }
            Some("rule") => s.rules.push(rule_from_term(c)?),
            Some("ruleset") => s.children.push(ruleset_from_term(c)?),
            Some("name") => {}
            other => {
                return Err(TermError::InvalidEdit(format!(
                    "unexpected item in ruleset term: {other:?}"
                )))
            }
        }
    }
    Ok(s)
}

/// Build the `install_rules[ … ]` message payload carrying a rule set.
pub fn install_rules_payload(s: &RuleSet) -> Term {
    Term::ordered("install_rules", vec![ruleset_to_term(s)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const PROGRAM: &str = r#"
        RULESET shop
          PROCEDURE ship(Order) DO SEND s{o[var Order]} TO "http://mail" END
          VIEW "view://good" CONSTRUCT good[var C]
            FROM in "http://c" customer{{id[[var C]]}} END
          DETECT big{id[var O]} ON order{{id[[var O]], total[[var T]]}} where var T >= 100 END
          RULE on_big ON big{{id[[var O]]}}
            IF in "view://good" good[[var O]] THEN CALL ship(var O)
            ELSE LOG skipped[var O]
          END
          RULESET inner
            RULE r2 ON ping DO NOOP END
          END
        END
    "#;

    #[test]
    fn ruleset_roundtrips_through_terms() {
        let set = parse_program(PROGRAM).unwrap();
        let term = ruleset_to_term(&set);
        let back = ruleset_from_term(&term).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn rule_roundtrip() {
        let set = parse_program(PROGRAM).unwrap();
        let r = &set.rules[0];
        let back = rule_from_term(&rule_to_term(r)).unwrap();
        assert_eq!(r, &back);
    }

    #[test]
    fn reified_rules_are_queryable() {
        // The point of reification over opaque source strings: other rules
        // can *query* the rule base with the ordinary query language.
        use reweb_query::{match_anywhere, parse_query_term, Bindings};
        let set = parse_program(PROGRAM).unwrap();
        let term = ruleset_to_term(&set);
        let hits = match_anywhere(
            &parse_query_term("rule{{name[[var N]]}}").unwrap(),
            &term,
            &Bindings::new(),
        );
        let names: Vec<String> = hits
            .iter()
            .map(|m| m.bindings.get("N").unwrap().text_content())
            .collect();
        assert_eq!(names, vec!["on_big", "r2"]);
    }

    #[test]
    fn malformed_terms_are_rejected() {
        assert!(rule_from_term(&Term::elem("not_a_rule")).is_err());
        assert!(ruleset_from_term(&Term::elem("rule")).is_err());
        // Rule without branches.
        let t = Term::build("rule")
            .field("name", "r")
            .field("on", "ping")
            .finish();
        assert!(rule_from_term(&t).is_err());
        // Unknown item inside a ruleset.
        let t = Term::build("ruleset")
            .field("name", "s")
            .child(Term::elem("mystery"))
            .finish();
        assert!(ruleset_from_term(&t).is_err());
    }

    #[test]
    fn install_payload_shape() {
        let set = parse_program("RULE r ON ping DO NOOP END").unwrap();
        let p = install_rules_payload(&set);
        assert_eq!(p.label(), Some("install_rules"));
        assert_eq!(p.children().len(), 1);
        assert_eq!(p.children()[0].label(), Some("ruleset"));
    }
}
