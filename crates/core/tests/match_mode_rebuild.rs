//! A match-mode switch rebuilds the candidate index with every rule
//! registered as it was at install. Whether a rule registers label-only
//! depends on the default TTL *in force at its install*; a later
//! `set_default_ttl` applies only to later installs, so a rebuild must not
//! re-decide it from the current TTL. Compiled → Interpreted → Compiled
//! must leave candidate sets, index size and outputs equal to those of a
//! fresh engine built the same way.

use reweb_core::{MatchMode, MessageMeta, OutMessage, ReactiveEngine};
use reweb_term::{Dur, Term, Timestamp};

/// Rule `early` installed under no TTL (alpha tests kept), then a TTL,
/// then rule `late` (label-only, since its TTL timing must see every
/// `order`).
fn build() -> ReactiveEngine {
    let mut e = ReactiveEngine::new("http://node");
    e.install_program(
        r#"RULE early ON order{{@route="r1", n[[var N]]}} DO SEND hit{n[var N]} TO "http://a" END"#,
    )
    .unwrap();
    e.set_default_ttl(Dur::secs(10));
    e.install_program(
        r#"RULE late ON order{{@route="r2", n[[var N]]}} DO SEND hit{n[var N]} TO "http://b" END"#,
    )
    .unwrap();
    e
}

fn order(route: &str, n: usize) -> Term {
    Term::build("order")
        .unordered()
        .attr("route", route)
        .field("n", n.to_string())
        .finish()
}

/// What one event costs and yields: candidates handed to dispatch, alpha
/// tests run, and the outputs.
fn step(e: &mut ReactiveEngine, payload: Term, at: u64) -> (u64, u64, Vec<OutMessage>) {
    let (considered, tests) = (e.metrics.rules_considered, e.metrics.alpha_tests_run);
    let out = e.receive(payload, &MessageMeta::from_uri("http://c"), Timestamp(at));
    (
        e.metrics.rules_considered - considered,
        e.metrics.alpha_tests_run - tests,
        out,
    )
}

/// Feed the same events to `e` and to a fresh engine in `mode`, and
/// require the same candidates, tests and outputs event by event.
fn assert_like_fresh(e: &mut ReactiveEngine, mode: MatchMode, from: u64) {
    let mut fresh = build();
    if mode != MatchMode::Compiled {
        fresh.set_match_mode(mode);
    }
    assert_eq!(e.match_mode(), mode);
    assert_eq!(e.index_node_count(), fresh.index_node_count(), "{mode:?}");
    for (k, route) in ["r1", "r2", "r3", "r1", "r3"].into_iter().enumerate() {
        let at = from + k as u64;
        let got = step(e, order(route, k), at);
        let want = step(&mut fresh, order(route, k), at);
        assert_eq!(got, want, "{mode:?}, event {k} routed {route}");
    }
}

#[test]
fn a_mode_round_trip_keeps_install_time_registrations() {
    let mut e = build();
    assert_like_fresh(&mut e, MatchMode::Compiled, 1);
    e.set_match_mode(MatchMode::Interpreted);
    assert_like_fresh(&mut e, MatchMode::Interpreted, 100);
    e.set_match_mode(MatchMode::Compiled);
    assert_like_fresh(&mut e, MatchMode::Compiled, 200);
}
