//! Event *values* never reach the symbol table.
//!
//! The alpha network keys layers on attribute values and child texts, and
//! resolves the event's strings with `Sym::lookup` — never interning.
//! The wire decoder interns labels and attribute names only. The table
//! is process-global, so these checks live in a test binary of their
//! own and take turns ([`SERIAL`]): nothing else interns while one counts.

use std::sync::Mutex;

use reweb_core::{MessageMeta, ReactiveEngine};
use reweb_net::wire::Request;
use reweb_term::frame::FRAME_HEADER_LEN;
use reweb_term::{Sym, Term, Timestamp};

/// Held by every test here: one interning test would move another's
/// count.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn fresh_event_values_leave_the_symbol_table_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// One wire `event` frame's payload bytes (the frame header stripped).
fn event_frame(id: u64, payload: Term) -> Vec<u8> {
    let frame = Request::Event {
        id,
        at: Some(Timestamp(id)),
        from: None,
        credentials: None,
        payload,
    }
    .encode();
    frame[FRAME_HEADER_LEN..].to_vec()
}

/// Decoding wire frames interns their labels and attribute names, never
/// their text or attribute values.
#[test]
fn wire_decoding_interns_vocabulary_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let order = |v: usize| {
        Term::build("order")
            .unordered()
            .attr("route", format!("route-{v}"))
            .field("status", format!("status-{v}"))
            .text_child(format!("text-{v}"))
            .finish()
    };
    let decode = |bytes: &[u8]| match Request::decode(bytes).expect("event decodes") {
        Request::Event { payload, .. } => payload,
        other => panic!("not an event: {other:?}"),
    };
    // The vocabulary is interned by the first frame.
    assert_eq!(decode(&event_frame(0, order(0))), order(0));
    let before = Sym::table_len();
    for j in 1..100_000usize {
        let payload = decode(&event_frame(j as u64, order(j)));
        assert_eq!(payload.attr("route"), Some(format!("route-{j}").as_str()));
    }
    assert_eq!(Sym::table_len(), before, "wire values were interned");

    // Fresh labels are interned: bounding them is still open.
    for j in 0..1_000usize {
        let label = format!("fresh_label_{j}");
        let frame = format!("event{{id[\"{j}\"], payload[{label}]}}");
        assert_eq!(decode(frame.as_bytes()).label(), Some(label.as_str()));
    }
    assert_eq!(
        Sym::table_len(),
        before + 1_000,
        "fresh labels are interned"
    );
}
