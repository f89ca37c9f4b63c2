//! `ReactiveEngine::program_source` prints, byte for byte, the text
//! committed under `tests/fixtures/program_source/`: nested sets with
//! scoped procedures, views and DETECT rules; a disabled subtree; bare
//! `add_rule` rules between set installs; and an install that fails
//! partway through a DETECT registration, whose uninstalled remainder is
//! still printed (installation has no rollback, so the reprint reproduces
//! what partially installed). The fixtures pin the printed form itself,
//! not only a print⇄parse fixed point.

use reweb_core::{parse_program, parse_rule, ReactiveEngine};

fn assert_prints(engine: &ReactiveEngine, fixture: &str) {
    let got = engine.program_source();
    assert_eq!(
        got, fixture,
        "program_source changed; it now prints:\n{got}"
    );
}

const NESTED: &str = r#"
RULESET shop
  PROCEDURE ship(O, C) DO SEND shipped{o[var O], c[var C]} TO "http://mail" END
  VIEW "http://shop/big" CONSTRUCT big[var O] FROM in "http://shop/orders" order{{id[[var O]]}} END
  DETECT paid{id[var O]} ON and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1h END
  RULE on_paid ON paid{{id[[var O]]}} DO CALL ship(var O, "c1") END
  RULE on_refund ON refund{{@reason="late", id[[var O]]}}
    IF in "http://shop/orders" order{{id[[var O]]}} THEN SEND credit{id[var O]} TO "http://bank"
    ELSE NOOP
  END
  RULESET returns
    PROCEDURE ship(O, C) DO NOOP END
    RULE on_return ON return{{id[[var O]]}} DO CALL ship(var O, "c2") END
    RULESET audit
      RULE on_audit ON audit DO NOOP END
    END
  END
  RULESET fraud
    RULE stale ON absence(order{{id[[var O]]}}, payment{{order[[var O]]}}, 2h)
      DO SEND stale{id[var O]} TO "http://alerts"
    END
  END
END
"#;

#[test]
fn nested_sets_print_as_installed() {
    let mut e = ReactiveEngine::new("http://shop");
    e.install_program(NESTED).unwrap();
    assert_eq!(e.rule_count(), 5);
    assert_prints(&e, include_str!("fixtures/program_source/nested.txt"));
}

#[test]
fn disabled_subtrees_are_pruned() {
    let mut set = parse_program(NESTED).unwrap();
    set.find_mut("shop.returns.audit").unwrap().enabled = false;
    set.find_mut("shop.fraud").unwrap().enabled = false;
    let mut e = ReactiveEngine::new("http://shop");
    e.install(&set).unwrap();
    let mut ghost = parse_program(NESTED).unwrap();
    ghost.enabled = false;
    e.install(&ghost).unwrap();
    assert_eq!(e.rule_count(), 3);
    assert_prints(&e, include_str!("fixtures/program_source/disabled.txt"));
}

#[test]
fn bare_rules_interleave_with_sets() {
    let mut e = ReactiveEngine::new("http://node");
    e.add_rule(parse_rule(r#"RULE first ON ping DO SEND pong TO "http://s" END"#).unwrap());
    e.install_program("RULESET a RULE in_a ON x{{v[[var V]]}} DO NOOP END END")
        .unwrap();
    e.add_rule(parse_rule("RULE second ON y DO NOOP END").unwrap());
    e.add_rule(parse_rule("RULE third ON z DO NOOP END").unwrap());
    e.install_program(
        "RULE top1 ON p DO NOOP END\n\
         RULE top2 ON q DO NOOP END",
    )
    .unwrap();
    assert_eq!(e.rule_count(), 6);
    assert_prints(&e, include_str!("fixtures/program_source/bare_rules.txt"));
}

#[test]
fn a_failed_install_prints_what_it_meant() {
    let mut e = ReactiveEngine::new("http://node");
    e.add_rule(parse_rule("RULE before ON b DO NOOP END").unwrap());
    // `second` closes a DETECT cycle (ping2 → ping1 → ping2), so its
    // registration fails: `outer`'s own rule and `first` installed, and
    // nothing from `second` on did.
    let failed = e.install_program(
        r#"
        RULESET outer
          DETECT ping2{v[var X]} ON ping1{{v[[var X]]}} END
          RULE r_outer ON ping1{{v[[var X]]}} DO NOOP END
          RULESET first
            RULE r_first ON x DO NOOP END
          END
          RULESET second
            DETECT other{v[var X]} ON w{{v[[var X]]}} END
            DETECT ping1{v[var X]} ON ping2{{v[[var X]]}} END
            RULE r_second ON y DO NOOP END
            RULESET deeper
              RULE r_deeper ON d DO NOOP END
            END
          END
          RULESET third
            RULE r_third ON t DO NOOP END
          END
          RULE r_outer_last ON last DO NOOP END
        END
        "#,
    );
    assert!(failed.is_err());
    assert_eq!(e.rule_count(), 4);
    e.add_rule(parse_rule("RULE after ON a DO NOOP END").unwrap());
    e.install_program("RULESET later RULE r_later ON l DO NOOP END END")
        .unwrap();
    assert_eq!(e.rule_count(), 6);
    assert_prints(
        &e,
        include_str!("fixtures/program_source/failed_install.txt"),
    );
}
