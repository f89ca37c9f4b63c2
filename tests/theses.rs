//! Theses checked on the running system. Thesis 11: trust negotiation
//! between two engine nodes on the simulated Web, whose policies travel
//! as rule sets (`reweb_bench::negotiation`).

use reweb::core::meta::{ruleset_from_term, ruleset_to_term};
use reweb::core::{parse_program, ReactiveEngine};
use reweb::term::Timestamp;
use reweb::websim::Simulation;
use reweb_bench::negotiation::{self, Outcome, Party, EAGER, QUIET_BY, REACTIVE};

const STRATEGIES: [&str; 2] = [REACTIVE, EAGER];

/// Neither node recorded an error (a failed action, a denied message, a
/// rule set that would not install).
fn assert_clean(sim: &Simulation, parties: [&Party; 2]) {
    for p in parties {
        let e = sim.engine(&p.uri()).unwrap();
        assert!(
            e.metrics.errors.is_empty(),
            "{}: {:?}",
            p.name,
            e.metrics.errors
        );
    }
}

fn buy(strategy: &str, extra: usize) -> Outcome {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(extra));
    let (sim, out) = negotiation::run(strategy, &franz, &shop, "purchase");
    assert_clean(&sim, [&franz, &shop]);
    out
}

#[test]
fn thesis_11_reactive_discloses_only_the_policies_on_the_path() {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(0));
    let (sim, out) = negotiation::run(REACTIVE, &franz, &shop, "purchase");
    assert_clean(&sim, [&franz, &shop]);
    assert!(out.success, "{out:?}");
    // The shop's `purchase` policy went to Franz and Franz's sensitive
    // `credit_card` policy to the shop; the free `bbb_membership` one
    // stayed home.
    assert_eq!(out.policies_sent, 2);
    assert_eq!(out.sensitive_leaked, 1);
    let installed = |p: &Party| sim.engine(&p.uri()).unwrap().program_source();
    assert!(installed(&franz).contains("RULESET purchase"));
    assert!(installed(&shop).contains("RULESET credit_card"));
    assert!(!installed(&franz).contains("RULESET bbb_membership"));
}

#[test]
fn thesis_11_reactive_message_count_matches_the_walkthrough() {
    let out = buy(REACTIVE, 0);
    assert!(out.success, "{out:?}");
    // request, policy, request, policy, request, then three credentials.
    assert_eq!(out.messages, 8);
}

#[test]
fn thesis_11_eager_discloses_every_policy() {
    let (eager, reactive) = (buy(EAGER, 0), buy(REACTIVE, 0));
    assert!(eager.success);
    assert_eq!(eager.policies_sent, 3);
    assert!(eager.policies_sent >= reactive.policies_sent);
    assert_eq!(eager.sensitive_leaked, 1);
}

#[test]
fn thesis_11_reactive_disclosure_does_not_grow_with_unrelated_policies() {
    let (reactive, eager) = (buy(REACTIVE, 50), buy(EAGER, 50));
    assert!(reactive.success && eager.success);
    assert_eq!(reactive.policies_sent, 2);
    assert_eq!(eager.policies_sent, 53);
    assert!(eager.bytes > reactive.bytes, "{eager:?} vs {reactive:?}");
}

#[test]
fn thesis_11_a_requester_without_credentials_gets_no_purchase() {
    let poor = Party::new("franz", "credentials[]", "");
    let shop = Party::fussbaelle(0);
    for strategy in STRATEGIES {
        let (sim, out) = negotiation::run(strategy, &poor, &shop, "purchase");
        assert_clean(&sim, [&poor, &shop]);
        assert!(!out.success, "{out:?}");
    }
}

#[test]
fn thesis_11_circular_policies_go_quiet_without_success() {
    // Each side shows its credential only after the other has shown its.
    let a = Party::new(
        "a",
        r#"credentials[credential{name["ca"], doc[ca]}]"#,
        r#"RULESET ca RULE cb ON present{{name[["cb"]]}} DO CALL unlock("ca") END END"#,
    );
    let b = Party::new(
        "b",
        r#"credentials[credential{name["cb"], doc[cb]}]"#,
        r#"RULESET cb RULE ca ON present{{name[["ca"]]}} DO CALL unlock("cb") END END"#,
    );
    for strategy in STRATEGIES {
        let (mut sim, out) = negotiation::run(strategy, &a, &b, "cb");
        assert_clean(&sim, [&a, &b]);
        assert!(!out.success, "{out:?}");
        // Quiet by the bound: a thousand times longer sends nothing more.
        sim.run_until(Timestamp(QUIET_BY.0 * 1_000));
        assert_eq!(sim.metrics.messages, out.messages);
    }
}

#[test]
fn thesis_11_an_unknown_item_fails_cleanly() {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(0));
    let (sim, out) = negotiation::run(REACTIVE, &franz, &shop, "unicorn");
    assert_clean(&sim, [&franz, &shop]);
    assert!(!out.success);
    // The request and the shop's refusal; no policy travelled.
    assert_eq!(out.messages, 2);
    assert_eq!(out.policies_sent, 0);
}

/// A policy travels as knowledge: its rules `CALL unlock`, which only
/// the sender's program defines, so on the receiving node every rule of
/// every set installed from the peer reports that call as unresolved —
/// reported, not refused, and not logged as an error. Each party's own
/// program resolves every call it makes.
#[test]
fn thesis_11_installed_policies_report_their_unresolved_unlock() {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(0));
    for strategy in STRATEGIES {
        let (sim, out) = negotiation::run(strategy, &franz, &shop, "purchase");
        assert_clean(&sim, [&franz, &shop]);
        assert!(out.success, "{out:?}");
        for (me, peer) in [(&franz, &shop), (&shop, &franz)] {
            let mut own = ReactiveEngine::new(me.uri());
            own.install_program(&me.program(strategy, peer)).unwrap();
            let unresolved = own.unresolved_calls();
            assert!(unresolved.is_empty(), "{}: {unresolved:?}", me.name);

            let e = sim.engine(&me.uri()).unwrap();
            let calls = e.unresolved_calls();
            let installed = e.rule_count() - own.rule_count();
            assert!(installed > 0, "{} installed no policy", me.name);
            assert_eq!(calls.len(), installed, "{}: {calls:?}", me.name);
            assert!(calls.iter().all(|(_, p)| p == "unlock"), "{calls:?}");
        }
    }
}

#[test]
fn thesis_11_party_programs_print_and_parse_to_a_fixed_point() {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(4));
    for strategy in STRATEGIES {
        for (me, peer) in [(&franz, &shop), (&shop, &franz)] {
            let set = parse_program(&me.program(strategy, peer)).unwrap();
            let printed = set.to_string();
            let reparsed = parse_program(&printed).unwrap();
            assert_eq!(set, reparsed, "printed:\n{printed}");
            assert_eq!(reparsed.to_string(), printed);
            // The wire form a disclosed policy travels in.
            assert_eq!(ruleset_from_term(&ruleset_to_term(&set)).unwrap(), set);
        }
    }
}
