//! Event *values* never reach the symbol table.
//!
//! The alpha network keys layers on attribute values and child texts, and
//! resolves the event's strings with `Sym::lookup` — never interning.
//! The table is process-global, so this check lives in a test binary of
//! its own: nothing else interns while it counts.

use reweb_core::{MessageMeta, ReactiveEngine};
use reweb_term::{Sym, Term, Timestamp};

#[test]
fn fresh_event_values_leave_the_symbol_table_unchanged() {
    let mut engine = ReactiveEngine::new("http://svc");
    // One rule per value-keyed layer kind: attribute equality, child
    // label + text, root text child.
    engine
        .install_program(
            "RULE by_attr ON order{{@route=\"r1\", n[[var N]]}} DO NOOP END\n\
             RULE by_child ON order{{status[\"shipped\"]}} DO NOOP END\n\
             RULE by_text ON order{{\"urgent\"}} DO NOOP END",
        )
        .expect("program installs");
    let meta = MessageMeta::from_uri("http://client");
    let event = |route: String, status: String, text: String, n: usize| {
        Term::build("order")
            .unordered()
            .attr("route", route)
            .field("n", n.to_string())
            .field("status", status)
            .text_child(text)
            .finish()
    };
    // Vocabulary and pattern constants are interned by now.
    let hit = event("r1".into(), "shipped".into(), "urgent".into(), 0);
    engine.receive(hit.clone(), &meta, Timestamp(1));
    assert_eq!(engine.metrics.rules_fired, 3);

    let before = Sym::table_len();
    for j in 0..100_000usize {
        // Every value occurs twice in a row: a repeat sighting must not
        // promote it either.
        let v = j / 2;
        let e = event(
            format!("route-{v}"),
            format!("status-{v}"),
            format!("text-{v}"),
            j,
        );
        engine.receive(e, &meta, Timestamp(j as u64 + 2));
    }
    assert_eq!(engine.metrics.rules_fired, 3, "fresh values match nothing");
    assert_eq!(Sym::table_len(), before, "event values were interned");

    // The constants still dispatch.
    engine.receive(hit, &meta, Timestamp(200_000));
    assert_eq!(engine.metrics.rules_fired, 6);
}
