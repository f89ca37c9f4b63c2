//! Property test pinning the tentpole invariant of the compiled matcher:
//! a [`ReactiveEngine`] dispatching through the shared alpha
//! discrimination network ([`MatchMode::Compiled`], the default) produces
//! **byte-identical output in identical order** to the historical
//! label-indexed interpreted dispatch ([`MatchMode::Interpreted`]) — for
//! random rule sets spanning every trigger form the language has (atomic,
//! attribute equality, hoisted `WHERE` guards, conjunction, sequence,
//! absence, wildcard, DETECT, `count`, sliding aggregates) and random
//! event streams.
//!
//! Single-engine runs are compared as exact sequences (same messages, same
//! order — the network may only *skip* non-matching candidates, never
//! reorder or change an answer). The threaded sharded executor is compared
//! as a sorted multiset against the interpreted single engine, closing the
//! chain compiled-threaded ≡ interpreted-single.

use proptest::prelude::*;

use reweb_core::{InMessage, MatchMode, MessageMeta, ReactiveEngine, ShardedEngine};
use reweb_term::{parse_term, Term, Timestamp};

const LABELS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

/// Materialize rule-program fragment `i` from a kind code and two label
/// picks. Extends the shard-equivalence fragment pool with the trigger
/// forms the alpha network actually discriminates on: attribute equality,
/// attribute-variable guards, child text, counting, and aggregation.
fn fragment(i: usize, kind: u8, a: usize, b: usize) -> String {
    let la = LABELS[a % LABELS.len()];
    let lb = LABELS[b % LABELS.len()];
    match kind % 13 {
        // atomic, label-indexed
        0 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} DO SEND saw{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // conjunction with a window
        1 => format!(
            r#"RULE r{i} ON and({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 2m
               DO SEND pair{i}{{a[var X], b[var Y]}} TO "http://sink/{i}" END"#
        ),
        // temporal order
        2 => format!(
            r#"RULE r{i} ON seq({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 90s
               DO SEND seq{i}{{a[var X]}} TO "http://sink/{i}" END"#
        ),
        // absence with a deadline (never alpha-skipped)
        3 => format!(
            r#"RULE r{i} ON absence({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var X]]}}}}, 30s)
               DO SEND missing{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // wildcard (routes through the network's any-label bucket)
        4 => format!(
            r#"RULE r{i} ON *{{{{v[[var X]]}}}} DO SEND any{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // event-level WHERE on a child-bound var (not hoistable)
        5 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} where var X >= 5
               DO SEND big{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // ECAA branching over a store read
        6 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}}
               IF in "http://data/items" item{{{{v[[var X]]}}}}
               THEN SEND hit{i}{{v[var X]}} TO "http://sink/{i}"
               ELSE SEND miss{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // DETECT + consumer of the derived event
        7 => format!(
            r#"DETECT d{i}{{v[var X]}} ON {la}{{{{v[[var X]]}}}} where var X >= 3 END
               RULE r{i} ON d{i}{{{{v[[var X]]}}}} DO SEND derived{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // stateful wildcard conjunct
        8 => format!(
            r#"RULE r{i} ON and({la}{{{{v[[var X]]}}}}, *{{{{tag[[var Y]]}}}}) within 2m
               DO SEND wild{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        // attribute equality — the network's value-discrimination layer
        9 => format!(
            r#"RULE r{i} ON {la}{{{{@route="r{}", v[[var X]]}}}}
               DO SEND route{i}{{v[var X]}} TO "http://sink/{i}" END"#,
            b % 3
        ),
        // attribute variable + hoisted WHERE guard
        10 => format!(
            r#"RULE r{i} ON {la}{{{{@lvl=var L}}}} where var L >= {}
               DO SEND lvl{i}{{l[var L]}} TO "http://sink/{i}" END"#,
            b % 7
        ),
        // counting accumulation (buffer contents output-visible: no guards)
        11 => format!(
            r#"RULE r{i} ON count(3, {la}{{{{v[[var X]]}}}}, 2m)
               DO SEND cnt{i}{{k["c"]}} TO "http://sink/{i}" END"#
        ),
        // sliding aggregate
        _ => format!(
            r#"RULE r{i} ON avg(var P, 3, {la}{{{{v[[var P]]}}}}) as var A
               DO SEND agg{i}{{a[var A]}} TO "http://sink/{i}" END"#
        ),
    }
}

/// Every event carries the attributes the attr-eq and guard fragments
/// dispatch on, plus the `v[...]` child the rest bind.
fn event_payload(label_idx: usize, v: u64) -> Term {
    let label = if label_idx < LABELS.len() {
        LABELS[label_idx]
    } else if label_idx == LABELS.len() {
        "noise"
    } else {
        "static"
    };
    parse_term(&format!(
        "{label}{{@route=\"r{}\", @lvl=\"{v}\", v[\"{v}\"]}}",
        v % 3
    ))
    .unwrap()
}

fn seed_store() -> Term {
    parse_term(
        "items[item{v[\"0\"]}, item{v[\"1\"]}, item{v[\"2\"]}, item{v[\"3\"]}, item{v[\"4\"]}]",
    )
    .unwrap()
}

/// Run the stream through a single engine in the given match mode,
/// keeping output order.
fn run_mode(
    program: &str,
    stream: &[InMessage],
    mode: MatchMode,
) -> (Vec<(String, String)>, reweb_core::EngineMetrics) {
    let mut e = ReactiveEngine::new("http://node");
    e.set_match_mode(mode);
    e.qe.store.put("http://data/items", seed_store());
    e.install_program(program).expect("program installs");
    let mut out = Vec::new();
    for m in stream {
        out.extend(e.receive(m.payload.clone(), &m.meta, m.at));
    }
    (
        out.into_iter()
            .map(|o| (o.to, o.payload.to_string()))
            .collect(),
        e.metrics,
    )
}

/// Run the same stream as one batch through a thread-per-shard engine
/// (which dispatches compiled, the default mode).
fn run_threaded(program: &str, stream: &[InMessage], shards: usize) -> Vec<(String, String)> {
    let mut e = ShardedEngine::new_parallel("http://node", shards);
    e.put_resource("http://data/items", seed_store());
    e.install_program(program).expect("program installs");
    let out = e.try_receive_batch(stream).expect("no worker failure");
    out.into_iter()
        .map(|o| (o.to, o.payload.to_string()))
        .collect()
}

fn build_program(rules: &[(u8, usize, usize)]) -> String {
    rules
        .iter()
        .enumerate()
        .map(|(i, &(kind, a, b))| fragment(i, kind, a, b))
        .collect::<Vec<_>>()
        .join("\n")
}

fn build_stream(stream: &[(usize, u64, u64)]) -> Vec<InMessage> {
    let meta = MessageMeta::from_uri("http://peer");
    let mut at = 0u64;
    stream
        .iter()
        .map(|&(l, v, dt)| {
            at += dt;
            InMessage::new(event_payload(l, v), meta.clone(), Timestamp(at))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled dispatch ≡ interpreted dispatch, as exact sequences, and
    /// compiled-threaded ≡ interpreted-single as sorted multisets. Also
    /// pins the direction of the optimization: the network never hands
    /// dispatch *more* candidates than the label index does.
    #[test]
    fn compiled_matcher_is_equivalent_to_interpreted(
        rules in proptest::collection::vec((0..13u8, 0..6usize, 0..6usize), 1..6),
        stream in proptest::collection::vec((0..8usize, 0..10u64, 1..20_000u64), 4..40),
    ) {
        let program = build_program(&rules);
        let msgs = build_stream(&stream);

        let (compiled_out, cm) = run_mode(&program, &msgs, MatchMode::Compiled);
        let (interp_out, im) = run_mode(&program, &msgs, MatchMode::Interpreted);
        prop_assert_eq!(
            &compiled_out, &interp_out,
            "compiled and interpreted dispatch diverged for program:\n{}", program
        );
        prop_assert_eq!(cm.rules_fired, im.rules_fired);
        prop_assert_eq!(cm.fires_by_rule, im.fires_by_rule);
        prop_assert!(
            cm.rules_considered <= im.rules_considered,
            "network considered more candidates ({}) than the label index ({})",
            cm.rules_considered, im.rules_considered
        );

        let mut interp_sorted = interp_out;
        interp_sorted.sort();
        for shards in [2usize, 4] {
            let mut threaded = run_threaded(&program, &msgs, shards);
            threaded.sort();
            prop_assert_eq!(
                &interp_sorted, &threaded,
                "threaded compiled outputs diverged at {} shards for program:\n{}",
                shards, program
            );
        }
    }
}

/// Installing a rule mid-stream extends the live network — no rebuild, and
/// the late rule sees exactly the suffix, in both modes, byte-identically.
#[test]
fn dynamic_install_extends_the_network_mid_stream() {
    let meta = MessageMeta::from_uri("http://peer");
    let run = |mode: MatchMode| {
        let mut e = ReactiveEngine::new("http://node");
        e.set_match_mode(mode);
        e.install_program(
            r#"RULE early ON alpha{{@route="r1", v[[var X]]}}
               DO SEND early{v[var X]} TO "http://sink/e" END"#,
        )
        .unwrap();
        let mut out = Vec::new();
        for k in 0..20u64 {
            if k == 10 {
                // Mid-stream install: from here on, `late` competes for the
                // same events through the already-live index.
                e.install_program(
                    r#"RULE late ON alpha{{@route="r1", v[[var X]]}}
                       DO SEND late{v[var X]} TO "http://sink/l" END"#,
                )
                .unwrap();
            }
            out.extend(e.receive(event_payload(0, k % 4), &meta, Timestamp(1_000 + k * 1_000)));
        }
        let fired = e.metrics.fires_by_rule.clone();
        let seq: Vec<(String, String)> = out
            .into_iter()
            .map(|o| (o.to, o.payload.to_string()))
            .collect();
        (seq, fired)
    };

    let (compiled, cf) = run(MatchMode::Compiled);
    let (interp, inf) = run(MatchMode::Interpreted);
    assert_eq!(compiled, interp);
    assert_eq!(cf, inf);
    // `@route="r1"` holds for v % 3 == 1, i.e. k % 4 ∈ {1}∪... — the early
    // rule saw the whole stream, the late rule only the suffix.
    let early = cf.get("early").copied().unwrap_or(0);
    let late = cf.get("late").copied().unwrap_or(0);
    assert!(early > late && late > 0, "early={early} late={late}");
}

/// Flat dispatch cost, as counts: rule `i` fires on `order` events whose
/// `@route` is `"r{i}"`, so every rule shares the label and child-shape
/// tests and the network's per-event work is one attribute probe plus
/// those shared tests at *any* rule count. Alpha tests per event must be
/// identical at 100 and 10 000 rules, and each event must hand dispatch
/// exactly the one rule it fires. A matcher that tests every installed
/// rule instead of walking the network fails both.
#[test]
fn alpha_tests_per_event_do_not_grow_with_rule_count() {
    const EVENTS: usize = 2_000;
    let meta = MessageMeta::from_uri("http://client");
    let run = |rules: usize| {
        let program: String = (0..rules)
            .map(|i| format!("RULE r{i} ON order{{{{@route=\"r{i}\", n[[var N]]}}}} DO NOOP END\n"))
            .collect();
        let mut e = ReactiveEngine::new("http://svc");
        e.install_program(&program).expect("program installs");
        for k in 0..EVENTS {
            let p = parse_term(&format!("order{{@route=\"r{}\", n[\"{k}\"]}}", k % rules)).unwrap();
            e.receive(p, &meta, Timestamp(k as u64));
        }
        let m = &e.metrics;
        assert_eq!(
            m.rules_considered, EVENTS as u64,
            "{rules} rules: one candidate per event"
        );
        assert_eq!(
            m.rules_fired, EVENTS as u64,
            "{rules} rules: one firing per event"
        );
        assert!(
            e.index_node_count() >= rules,
            "{rules} rules share a network of only {} nodes",
            e.index_node_count()
        );
        m.alpha_tests_run as f64 / EVENTS as f64
    };
    let (small, large) = (run(100), run(10_000));
    assert!(small > 0.0, "no alpha tests counted");
    assert_eq!(
        small, large,
        "alpha tests per event grew with the rule count"
    );
}

/// Switching modes mid-stream rebuilds the index from stored
/// registrations without disturbing partial-match state.
#[test]
fn mode_switch_mid_stream_is_seamless() {
    let program = r#"
        RULE pair ON and(alpha{{v[[var X]]}}, beta{{v[[var X]]}}) within 2m
          DO SEND pair{v[var X]} TO "http://sink" END
    "#;
    let meta = MessageMeta::from_uri("http://peer");
    let run = |switch: bool| {
        let mut e = ReactiveEngine::new("http://node");
        e.install_program(program).unwrap();
        let mut out = Vec::new();
        // alpha halves arrive first...
        for k in 0..6u64 {
            out.extend(e.receive(event_payload(0, k), &meta, Timestamp(1_000 + k)));
        }
        if switch {
            // ...the index is torn down and rebuilt mid-join...
            e.set_match_mode(MatchMode::Interpreted);
            assert_eq!(e.match_mode(), MatchMode::Interpreted);
        }
        // ...and the beta halves still complete every pair.
        for k in 0..6u64 {
            out.extend(e.receive(event_payload(1, k), &meta, Timestamp(2_000 + k)));
        }
        out.into_iter()
            .map(|o| (o.to, o.payload.to_string()))
            .collect::<Vec<_>>()
    };
    let stable = run(false);
    let switched = run(true);
    assert_eq!(stable, switched);
    assert_eq!(stable.len(), 6);
}
