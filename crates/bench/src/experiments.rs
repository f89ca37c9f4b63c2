//! The experiments E1…E12 — one per thesis (DESIGN.md §3).
//!
//! Each function builds its workload, runs the systems under comparison,
//! and returns a [`Table`] whose *shape* (who wins, how things scale)
//! tests the thesis's quantifiable claim. Absolute numbers depend on the
//! host; the shapes should not.

use reweb_core::{AaaConfig, MessageMeta, Permission, ReactiveEngine};
use reweb_events::{parse_event_query, Event, EventId, IncrementalEngine, NaiveEngine};
use reweb_production::{CaRule, ProductionEngine};
use reweb_query::parser::{parse_condition, parse_construct_term, parse_query_term};
use reweb_query::{Bindings, QueryEngine};
use reweb_term::{parse_term, Dur, IdentityMode, ResourceStore, Term, Timestamp};
use reweb_update::{apply_update, Action, Executor, Update};
use reweb_websim::{Poller, Simulation};

use crate::negotiation::{self, Party};
use crate::{customers_doc, f, mixed_stream, news_doc, order_payload, timed, Table};

/// An experiment entry point: builds its workload and returns its table.
pub type Runner = fn() -> Table;

/// The experiment table, in run order — the single source the
/// `experiments` binary uses both to validate its arguments and to
/// dispatch, so ids and runners cannot drift apart.
pub const RUNNERS: [(&str, Runner); 12] = [
    ("E1", e1_eca_vs_production),
    ("E2", e2_local_vs_central),
    ("E3", e3_push_vs_poll),
    ("E4", e4_volatility),
    ("E5", e5_event_dimensions),
    ("E6", e6_incremental_vs_naive),
    ("E7", e7_condition_queries),
    ("E8", e8_compound_actions),
    ("E9", e9_structuring),
    ("E10", e10_identity),
    ("E11", e11_trust_negotiation),
    ("E12", e12_aaa_overhead),
];

/// E1 (Thesis 1): ECA rules vs production rules on an event-driven
/// marketplace workload over a growing fact base.
pub fn e1_eca_vs_production() -> Table {
    let mut t = Table::new(
        "E1",
        "Thesis 1",
        "ECA vs production rules: 50 order events over n customers",
        vec!["approach", "n_facts", "reactions", "cond_evals", "time_ms"],
    )
    .with_note(
        "Claim: ECA rules react per event with bindings flowing from the event; \
         production rules must be re-driven against the whole fact base after \
         every change, so their evaluations and time grow with it.",
    );
    const EVENTS: usize = 50;
    for n_facts in [100usize, 1_000, 5_000] {
        // --- ECA ---
        let mut eca = ReactiveEngine::new("http://shop");
        eca.qe
            .store
            .put("http://shop/customers", customers_doc(n_facts));
        eca.install_program(
            r#"RULE on_order ON order{{id[[var O]], total[[var T]]}}
               IF in "http://shop/customers" customer{{id[[var O]], name[[var N]]}} and var T >= 50
               THEN PERSIST handled{order[var O], by[var N]} IN "http://shop/handled"
               END"#,
        )
        .expect("program");
        let meta = MessageMeta::from_uri("http://client");
        let (_, secs) = timed(|| {
            for i in 0..EVENTS {
                // Each order references customer c{i} via the condition's
                // free variable — one customer matches per event is the
                // interesting case, so seed C through the payload id.
                let payload =
                    parse_term(&format!("order{{id[\"c{}\"], total[\"60\"]}}", i % n_facts))
                        .unwrap();
                eca.receive(payload, &meta, Timestamp(i as u64 * 100));
            }
        });
        t.row(vec![
            "ECA".into(),
            n_facts.to_string(),
            eca.metrics.rules_fired.to_string(),
            eca.metrics.condition_evals.to_string(),
            f(secs * 1e3),
        ]);

        // --- production ---
        let mut pe = ProductionEngine::new();
        pe.qe
            .store
            .put("http://shop/customers", customers_doc(n_facts));
        pe.qe
            .store
            .put("http://shop/orders", parse_term("orders[]").unwrap());
        pe.add_rule(CaRule::new(
            "on_order",
            parse_condition(
                "in \"http://shop/orders\" order{{id[[var O]], total[[var T]]}} \
                 and in \"http://shop/customers\" customer{{id[[var O]], name[[var N]]}} \
                 and var T >= 50",
            )
            .unwrap(),
            Action::Persist {
                resource: "http://shop/handled".into(),
                payload: parse_construct_term("handled{order[var O], by[var N]}").unwrap(),
            },
        ));
        let (_, secs) = timed(|| {
            for i in 0..EVENTS {
                let u = Update::insert(
                    "http://shop/orders",
                    parse_query_term("orders[[]]").unwrap(),
                    parse_construct_term(&format!(
                        "order{{id[\"c{}\"], total[\"60\"]}}",
                        i % n_facts
                    ))
                    .unwrap(),
                );
                apply_update(&mut pe.qe.store, &u, &Bindings::new()).unwrap();
                pe.run_to_quiescence(); // CA rules must be driven
            }
        });
        t.row(vec![
            "production".into(),
            n_facts.to_string(),
            pe.metrics.rules_fired.to_string(),
            pe.metrics.condition_evals.to_string(),
            f(secs * 1e3),
        ]);
    }
    t
}

/// E2 (Thesis 2): choreography (local rules, peer-to-peer events) vs a
/// central rule-processing node, by load concentration.
pub fn e2_local_vs_central() -> Table {
    let mut t = Table::new(
        "E2",
        "Thesis 2",
        "token ring, 100 laps: messages through the hottest node",
        vec![
            "architecture",
            "n_nodes",
            "total_msgs",
            "hottest_node_msgs",
            "hottest_share",
        ],
    )
    .with_note(
        "Claim: local processing with event-based communication spreads load; \
         a central rule processor concentrates it (its load grows with n).",
    );
    const LAPS: usize = 100;
    for n in [4usize, 16, 64] {
        // --- choreography: each node forwards to the next ---
        let mut sim = Simulation::new(1);
        sim.set_latency(Dur::millis(1), 0);
        for i in 0..n {
            let mut e = ReactiveEngine::new(format!("http://n{i}"));
            let next = (i + 1) % n;
            e.install_program(&format!(
                r#"RULE fwd ON token{{{{lap[[var L]]}}}} where var L < {LAPS}
                   DO SEND token{{lap[eval(var L + {inc})]}} TO "http://n{next}" END"#,
                inc = if next == 0 { 1 } else { 0 },
            ))
            .expect("ring rule");
            sim.add_engine(format!("http://n{i}"), e);
        }
        sim.post(
            "http://n0",
            "http://n0",
            parse_term("token{lap[\"0\"]}").unwrap(),
            Timestamp(0),
        );
        sim.run_until(Timestamp(3_600_000));
        let total = sim.metrics.posts;
        let hottest = sim
            .metrics
            .received_by_node
            .values()
            .copied()
            .max()
            .unwrap_or(0);
        t.row(vec![
            "choreography".into(),
            n.to_string(),
            total.to_string(),
            hottest.to_string(),
            f(hottest as f64 / total as f64),
        ]);

        // --- central coordinator: every hop goes through it ---
        let mut sim = Simulation::new(1);
        sim.set_latency(Dur::millis(1), 0);
        let mut coord = ReactiveEngine::new("http://coord");
        for i in 0..n {
            let next = (i + 1) % n;
            coord
                .install_program(&format!(
                    r#"RULE hop{i} ON from{i}{{{{lap[[var L]]}}}} where var L < {LAPS}
                       DO SEND visit{{lap[eval(var L + {inc})]}} TO "http://n{next}" END"#,
                    inc = if next == 0 { 1 } else { 0 },
                ))
                .expect("coord rule");
        }
        sim.add_engine("http://coord", coord);
        for i in 0..n {
            let mut e = ReactiveEngine::new(format!("http://n{i}"));
            e.install_program(&format!(
                r#"RULE up ON visit{{{{lap[[var L]]}}}}
                   DO SEND from{i}{{lap[var L]}} TO "http://coord" END"#,
            ))
            .expect("leaf rule");
            sim.add_engine(format!("http://n{i}"), e);
        }
        sim.post(
            "http://coord",
            "http://n0",
            parse_term("visit{lap[\"0\"]}").unwrap(),
            Timestamp(0),
        );
        sim.run_until(Timestamp(3_600_000));
        let total = sim.metrics.posts;
        let hottest = sim
            .metrics
            .received_by_node
            .get("http://coord")
            .copied()
            .unwrap_or(0);
        t.row(vec![
            "central".into(),
            n.to_string(),
            total.to_string(),
            hottest.to_string(),
            f(hottest as f64 / total as f64),
        ]);
    }
    t
}

/// E3 (Thesis 3): push vs poll — traffic and reaction latency over one
/// simulated hour.
pub fn e3_push_vs_poll() -> Table {
    let mut t = Table::new(
        "E3",
        "Thesis 3",
        "watching one resource for 1h (updates every 60s)",
        vec![
            "paradigm",
            "param",
            "wire_msgs",
            "kbytes",
            "mean_lat_s",
            "max_lat_s",
            "changes_seen",
        ],
    )
    .with_note(
        "Claim: push costs traffic proportional to the event rate with \
         latency ≈ transit; polling costs 1/Δ whether or not anything \
         changed, with latency up to Δ.",
    );
    const HORIZON_MS: u64 = 3_600_000;
    const UPDATE_EVERY_MS: u64 = 60_000;

    // Updates land at randomized (seeded) times so poll ticks and update
    // instants never phase-align.
    let updates: Vec<u64> = {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut ts = Vec::new();
        let mut t = 0u64;
        loop {
            t += rng.gen_range(UPDATE_EVERY_MS / 2..UPDATE_EVERY_MS * 3 / 2);
            if t >= HORIZON_MS {
                break;
            }
            ts.push(t);
        }
        ts
    };

    let latencies = |sim: &Simulation| -> (f64, f64, usize) {
        let got = sim.sink("http://watcher");
        let mut lats = Vec::new();
        for (at, env) in got {
            // The article title carries the update's timestamp.
            if let Some(after) = env
                .body
                .children()
                .iter()
                .find(|c| c.label() == Some("after"))
            {
                if let Some(ms) = after
                    .to_string()
                    .split('"')
                    .find_map(|s| s.parse::<u64>().ok())
                {
                    lats.push(at.since(Timestamp(ms)).as_secs_f64());
                }
            }
        }
        let mean = if lats.is_empty() {
            0.0
        } else {
            lats.iter().sum::<f64>() / lats.len() as f64
        };
        let max = lats.iter().cloned().fold(0.0, f64::max);
        (mean, max, got.len())
    };

    // --- push ---
    let mut sim = Simulation::new(3);
    sim.set_latency(Dur::millis(20), 10);
    let mut store = ResourceStore::new();
    store.put("http://news/front", news_doc(5, 0));
    sim.add_store("http://news", store);
    sim.add_sink("http://watcher");
    sim.subscribe_push(
        "http://news/front",
        "http://watcher",
        IdentityMode::surrogate(),
    );
    for &ms in &updates {
        let mut doc = news_doc(5, 0);
        doc = reweb_term::apply_edit(
            &doc,
            &reweb_term::Path::new(vec![0]),
            reweb_term::PathEdit::Replace(
                parse_term(&format!("article{{@id=\"a0\", title[\"{ms}\"]}}")).unwrap(),
            ),
        )
        .unwrap();
        sim.schedule_update("http://news/front", doc, Timestamp(ms));
    }
    sim.run_until(Timestamp(HORIZON_MS + 1_000));
    let (mean, max, seen) = latencies(&sim);
    t.row(vec![
        "push".into(),
        "-".into(),
        sim.metrics.messages.to_string(),
        f(sim.metrics.bytes as f64 / 1024.0),
        f(mean),
        f(max),
        seen.to_string(),
    ]);

    // --- poll at several intervals ---
    for poll_secs in [5u64, 30, 120] {
        let mut sim = Simulation::new(3);
        sim.set_latency(Dur::millis(20), 10);
        let mut store = ResourceStore::new();
        store.put("http://news/front", news_doc(5, 0));
        sim.add_store("http://news", store);
        sim.add_sink("http://watcher");
        sim.add_poller(
            "http://poller",
            Poller::new(
                "http://news/front",
                Dur::secs(poll_secs),
                "http://watcher",
                IdentityMode::surrogate(),
            ),
        );
        for &ms in &updates {
            let mut doc = news_doc(5, 0);
            doc = reweb_term::apply_edit(
                &doc,
                &reweb_term::Path::new(vec![0]),
                reweb_term::PathEdit::Replace(
                    parse_term(&format!("article{{@id=\"a0\", title[\"{ms}\"]}}")).unwrap(),
                ),
            )
            .unwrap();
            sim.schedule_update("http://news/front", doc, Timestamp(ms));
        }
        sim.run_until(Timestamp(HORIZON_MS + 1_000));
        let (mean, max, seen) = latencies(&sim);
        t.row(vec![
            "poll".into(),
            format!("Δ={poll_secs}s"),
            sim.metrics.messages.to_string(),
            f(sim.metrics.bytes as f64 / 1024.0),
            f(mean),
            f(max),
            seen.to_string(),
        ]);
    }
    t
}

/// E4 (Thesis 4): volatile event data must be disposed of — retained
/// partial-match state with and without windows/TTL.
pub fn e4_volatility() -> Table {
    let mut t = Table::new(
        "E4",
        "Thesis 4",
        "20,000-event stream into `and(a, b)`: retained partial matches",
        vec!["configuration", "max_state", "final_state", "answers"],
    )
    .with_note(
        "Claim: without disposal, event state grows without bound (a \
         'shadow Web'); windows or a TTL keep it constant.",
    );
    const N: usize = 20_000;
    for (name, q, ttl) in [
        ("no window, no TTL", "and(a{{n[[var X]]}}, b)", None),
        ("window 1m", "and(a{{n[[var X]]}}, b) within 1m", None),
        (
            "no window, TTL 1m",
            "and(a{{n[[var X]]}}, b)",
            Some(Dur::mins(1)),
        ),
    ] {
        let mut eng = IncrementalEngine::new(&parse_event_query(q).unwrap());
        if let Some(d) = ttl {
            eng = eng.with_ttl(d);
        }
        let mut max_state = 0usize;
        let mut answers = 0usize;
        for i in 0..N {
            let e = Event::new(
                EventId(i as u64),
                Timestamp(i as u64 * 1_000),
                parse_term(&format!("a{{n[\"{i}\"]}}")).unwrap(),
            );
            answers += eng.push(&e).len();
            max_state = max_state.max(eng.state_size());
        }
        t.row(vec![
            name.into(),
            max_state.to_string(),
            eng.state_size().to_string(),
            answers.to_string(),
        ]);
    }
    t
}

/// E5 (Thesis 5): the four event-query dimensions, detect counts and
/// throughput on 10,000-event streams.
pub fn e5_event_dimensions() -> Table {
    let mut t = Table::new(
        "E5",
        "Thesis 5",
        "four dimensions of event queries on 10,000-event streams",
        vec!["dimension", "query", "detections", "kevents_per_s"],
    );
    const N: usize = 10_000;
    type PayloadGen = Box<dyn Fn(usize) -> Term>;
    let cases: Vec<(&str, &str, PayloadGen)> = vec![
        (
            "data extraction",
            "order{{id[[var O]], total[[var T]]}}",
            Box::new(|i| order_payload(i, 50 + (i as u64 % 100))),
        ),
        (
            "composition",
            "and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1m",
            Box::new(|i| {
                if i % 2 == 0 {
                    order_payload(i / 2, 100)
                } else {
                    crate::payment_payload(i / 2, 100)
                }
            }),
        ),
        (
            "temporal (absence)",
            "absence(ping{{n[[var N]]}}, pong{{n[[var N]]}}, 5s)",
            Box::new(|i| {
                // Pings every 3rd event; answered unless n % 15 == 0, so a
                // fraction of the deadlines fire.
                if i % 3 == 0 {
                    parse_term(&format!("ping{{n[\"{i}\"]}}")).unwrap()
                } else {
                    let n = i - 1 - (i % 3 - 1);
                    let n = if n % 15 == 0 { n + 1 } else { n };
                    parse_term(&format!("pong{{n[\"{n}\"]}}")).unwrap()
                }
            }),
        ),
        (
            "accumulation",
            "avg(var P, 5, stock{{sym[[var S]], price[[var P]]}}) as var A group by var S",
            Box::new(|i| {
                crate::stock_payload(
                    if i % 2 == 0 { "ACME" } else { "GLOB" },
                    100.0 + (i % 10) as f64,
                )
            }),
        ),
    ];
    for (dim, q, gen) in cases {
        let mut eng = IncrementalEngine::new(&parse_event_query(q).unwrap());
        let events: Vec<Event> = (0..N)
            .map(|i| Event::new(EventId(i as u64), Timestamp(i as u64 * 1_000), gen(i)))
            .collect();
        let (detections, secs) = timed(|| {
            let mut d = 0usize;
            for e in &events {
                d += eng.push(e).len();
            }
            d += eng.advance_to(Timestamp(N as u64 * 1_000 + 10_000)).len();
            d
        });
        t.row(vec![
            dim.into(),
            q.into(),
            detections.to_string(),
            f(N as f64 / secs / 1_000.0),
        ]);
    }
    t
}

/// E6 (Thesis 6): incremental vs naive evaluation — per-event cost vs
/// history length.
pub fn e6_incremental_vs_naive() -> Table {
    let mut t = Table::new(
        "E6",
        "Thesis 6",
        "per-event latency, `and(order, payment)` over growing history",
        vec![
            "history",
            "incremental_total_ms",
            "incr_us_per_event",
            "naive_total_ms",
            "naive_us_per_event",
            "speedup",
        ],
    )
    .with_note(
        "Claim: the incremental engine's per-event cost tracks the live \
         state, the naive engine's tracks the whole history — so the gap \
         widens with history length.",
    );
    let q = parse_event_query("and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1h")
        .unwrap();
    for h in [500usize, 1_000, 2_000, 4_000] {
        let stream = mixed_stream(h, 50, 42);
        let mut inc = IncrementalEngine::new(&q);
        let (inc_answers, inc_secs) = timed(|| {
            let mut n = 0usize;
            for (i, (ts, p)) in stream.iter().enumerate() {
                n += inc
                    .push(&Event::new(EventId(i as u64), *ts, p.clone()))
                    .len();
            }
            n
        });
        let mut naive = NaiveEngine::new(&q);
        let (naive_answers, naive_secs) = timed(|| {
            let mut n = 0usize;
            for (i, (ts, p)) in stream.iter().enumerate() {
                n += naive
                    .push(&Event::new(EventId(i as u64), *ts, p.clone()))
                    .len();
            }
            n
        });
        assert_eq!(inc_answers, naive_answers, "engines must agree");
        t.row(vec![
            h.to_string(),
            f(inc_secs * 1e3),
            f(inc_secs * 1e6 / h as f64),
            f(naive_secs * 1e3),
            f(naive_secs * 1e6 / h as f64),
            f(naive_secs / inc_secs),
        ]);
    }
    t
}

/// E7 (Thesis 7): conditions are Web queries parameterized by event
/// bindings — evaluation cost vs document size, seeded vs unseeded.
pub fn e7_condition_queries() -> Table {
    let mut t = Table::new(
        "E7",
        "Thesis 7",
        "condition over a customers document, seeded by event bindings",
        vec![
            "n_customers",
            "seeded_ms_per_eval",
            "unseeded_ms_per_eval",
            "answers_seeded",
            "answers_unseeded",
        ],
    )
    .with_note(
        "Claim: variables bound in the event part parameterize the \
         condition (one answer instead of n), which is both the semantics \
         Thesis 7 requires and a large constant-factor win.",
    );
    const REPS: usize = 20;
    for n in [100usize, 1_000, 5_000] {
        let mut qe = QueryEngine::new();
        qe.store.put("http://shop/customers", customers_doc(n));
        let cond =
            parse_condition("in \"http://shop/customers\" customer{{id[[var C]], name[[var N]]}}")
                .unwrap();
        let seed = Bindings::of("C", Term::text(format!("c{}", n / 2)));
        let (a_seeded, secs_seeded) = timed(|| {
            let mut total = 0usize;
            for _ in 0..REPS {
                total = qe.eval_condition(&cond, &seed).unwrap().len();
            }
            total
        });
        let (a_unseeded, secs_unseeded) = timed(|| {
            let mut total = 0usize;
            for _ in 0..REPS {
                total = qe.eval_condition(&cond, &Bindings::new()).unwrap().len();
            }
            total
        });
        t.row(vec![
            n.to_string(),
            f(secs_seeded * 1e3 / REPS as f64),
            f(secs_unseeded * 1e3 / REPS as f64),
            a_seeded.to_string(),
            a_unseeded.to_string(),
        ]);
    }
    t
}

/// E8 (Thesis 8): transactional compound actions under failure injection.
pub fn e8_compound_actions() -> Table {
    let mut t = Table::new(
        "E8",
        "Thesis 8",
        "2-step payment workflow, 500 runs, injected step-2 failures",
        vec![
            "p_fail",
            "variant",
            "completed",
            "anomalies",
            "alt_recovered",
        ],
    )
    .with_note(
        "Claim: compound actions need atomicity. Transactional SEQ leaves \
         zero half-done workflows; the naive variant leaks one per failure. \
         ALT recovers failed runs via the alternative action.",
    );
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const RUNS: usize = 500;
    for p_fail in [0.0f64, 0.1, 0.3] {
        for variant in ["transactional", "naive", "alt-fallback"] {
            let mut qe = QueryEngine::new();
            qe.store.put(
                "http://shop/stock",
                parse_term("stock[units[\"100000\"]]").unwrap(),
            );
            qe.store
                .put("http://shop/ledger", parse_term("ledger[]").unwrap());
            let procs = std::collections::BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(7);
            let mut completed = 0usize;
            let mut recovered = 0usize;
            for i in 0..RUNS {
                let fail = rng.gen_bool(p_fail);
                let step1 = Action::Persist {
                    resource: "http://shop/stock_log".into(),
                    payload: parse_construct_term(&format!("take[\"{i}\"]")).unwrap(),
                };
                let step2: Action = if fail {
                    Action::Fail("ledger write failed".into())
                } else {
                    Action::Persist {
                        resource: "http://shop/ledger_log".into(),
                        payload: parse_construct_term(&format!("entry[\"{i}\"]")).unwrap(),
                    }
                };
                let mut ex = Executor::new(&mut qe, &procs);
                let result = match variant {
                    "transactional" => {
                        ex.execute(&Action::seq(vec![step1, step2]), &Bindings::new())
                    }
                    "alt-fallback" => {
                        let r = ex.execute(
                            &Action::alt(vec![
                                Action::seq(vec![step1, step2]),
                                Action::Persist {
                                    resource: "http://shop/deferred".into(),
                                    payload: parse_construct_term(&format!("retry[\"{i}\"]"))
                                        .unwrap(),
                                },
                            ]),
                            &Bindings::new(),
                        );
                        if r.is_ok() && fail {
                            recovered += 1;
                        }
                        r
                    }
                    _ => {
                        // Naive: steps run independently, errors ignored.
                        let _ = ex.execute(&step1, &Bindings::new());
                        ex.execute(&step2, &Bindings::new())
                    }
                };
                if result.is_ok() && !fail {
                    completed += 1;
                }
            }
            let takes = qe
                .store
                .get("http://shop/stock_log")
                .map(|d| d.children().len())
                .unwrap_or(0);
            let entries = qe
                .store
                .get("http://shop/ledger_log")
                .map(|d| d.children().len())
                .unwrap_or(0);
            // An anomaly is a stock take without a ledger entry.
            let anomalies = takes.saturating_sub(entries);
            t.row(vec![
                f(p_fail),
                variant.into(),
                completed.to_string(),
                anomalies.to_string(),
                recovered.to_string(),
            ]);
        }
    }
    t
}

/// E9 (Thesis 9): structuring removes redundant evaluation — ECAA vs a
/// C/¬C rule pair, and label-indexed dispatch vs unindexable rules.
pub fn e9_structuring() -> Table {
    let mut t = Table::new(
        "E9",
        "Thesis 9",
        "ECAA vs two rules (1000 events); indexed vs wildcard dispatch",
        vec!["comparison", "variant", "cond_evals", "time_ms"],
    )
    .with_note(
        "Claims: an ECAA rule tests its condition once where a C/¬C pair \
         tests twice; grouping rules by trigger label lets dispatch skip \
         unrelated rules entirely.",
    );
    const EVENTS: usize = 1_000;

    // --- ECAA vs pair ---
    let run_branching = |ecaa: bool| -> (u64, f64) {
        let mut e = ReactiveEngine::new("http://x");
        e.qe.store.put("http://x/c", customers_doc(200));
        if ecaa {
            e.install_program(
                r#"RULE r ON order{{id[[var O]]}}
                   IF in "http://x/c" customer{{id[[var O]]}} THEN LOG known[var O]
                   ELSE LOG unknown[var O] END"#,
            )
            .unwrap();
        } else {
            e.install_program(
                r#"RULE r_pos ON order{{id[[var O]]}}
                   IF in "http://x/c" customer{{id[[var O]]}} THEN LOG known[var O] END
                   RULE r_neg ON order{{id[[var O]]}}
                   IF not in "http://x/c" customer{{id[[var O]]}} THEN LOG unknown[var O] END"#,
            )
            .unwrap();
        }
        let meta = MessageMeta::from_uri("http://y");
        let (_, secs) = timed(|| {
            for i in 0..EVENTS {
                let p = parse_term(&format!("order{{id[\"c{}\"]}}", i % 400)).unwrap();
                e.receive(p, &meta, Timestamp(i as u64));
            }
        });
        (e.metrics.condition_evals, secs)
    };
    let (evals, secs) = run_branching(true);
    t.row(vec![
        "branching".into(),
        "ECAA (one rule)".into(),
        evals.to_string(),
        f(secs * 1e3),
    ]);
    let (evals, secs) = run_branching(false);
    t.row(vec![
        "branching".into(),
        "C and ¬C pair".into(),
        evals.to_string(),
        f(secs * 1e3),
    ]);

    // --- dispatch: 200 rules, only one relevant ---
    let run_dispatch = |indexed: bool| -> f64 {
        let mut e = ReactiveEngine::new("http://x");
        for i in 0..200 {
            let pattern = if indexed {
                format!("evt{i}{{{{v[[var X]]}}}}")
            } else {
                // A wildcard label defeats indexing: every rule must be
                // consulted for every event.
                format!("*{{{{kind[[\"evt{i}\"]], v[[var X]]}}}}")
            };
            e.install_program(&format!(
                r#"RULE r{i} ON {pattern} DO LOG seen{i}[var X] END"#
            ))
            .unwrap();
        }
        let meta = MessageMeta::from_uri("http://y");
        let (_, secs) = timed(|| {
            for i in 0..EVENTS {
                let p = parse_term(&format!("evt7{{kind[\"evt7\"], v[\"{i}\"]}}")).unwrap();
                e.receive(p, &meta, Timestamp(i as u64));
            }
        });
        secs
    };
    let secs = run_dispatch(true);
    t.row(vec![
        "dispatch (200 rules)".into(),
        "label-indexed".into(),
        "-".into(),
        f(secs * 1e3),
    ]);
    let secs = run_dispatch(false);
    t.row(vec![
        "dispatch (200 rules)".into(),
        "unindexable (wildcard)".into(),
        "-".into(),
        f(secs * 1e3),
    ]);
    t
}

/// E10 (Thesis 10): identity regimes under change monitoring.
pub fn e10_identity() -> Table {
    let mut t = Table::new(
        "E10",
        "Thesis 10",
        "monitoring 100 articles through 200 edits",
        vec![
            "identity",
            "modifications",
            "delete+insert",
            "attributed_correctly",
            "diff_ms_total",
        ],
    )
    .with_note(
        "Claim: surrogate identity tracks an object across value changes \
         (edits appear as modifications of *that* article); extensional \
         identity loses it (every edit is a delete + insert).",
    );
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const ARTICLES: usize = 100;
    const EDITS: usize = 200;
    for mode in [IdentityMode::surrogate(), IdentityMode::Extensional] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut doc = news_doc(ARTICLES, 0);
        let mut mods = 0usize;
        let mut delins = 0usize;
        let mut attributed = 0usize;
        let mut total_secs = 0.0;
        for k in 1..=EDITS {
            let target = rng.gen_range(0..ARTICLES);
            let new_doc = reweb_term::apply_edit(
                &doc,
                &reweb_term::Path::new(vec![target]),
                reweb_term::PathEdit::Replace(
                    parse_term(&format!("article{{@id=\"a{target}\", title[\"{k}\"]}}")).unwrap(),
                ),
            )
            .unwrap();
            let (changes, secs) = timed(|| reweb_term::diff_documents(&doc, &new_doc, &mode));
            total_secs += secs;
            for c in &changes {
                match c {
                    reweb_term::Change::Modified { key, .. } => {
                        mods += 1;
                        if *key
                            == reweb_term::identity::IdentityKey::Surrogate(format!("a{target}"))
                        {
                            attributed += 1;
                        }
                    }
                    _ => delins += 1,
                }
            }
            doc = new_doc;
        }
        t.row(vec![
            match mode {
                IdentityMode::Surrogate { .. } => "surrogate (@id)".into(),
                IdentityMode::Extensional => "extensional".into(),
            },
            mods.to_string(),
            delins.to_string(),
            attributed.to_string(),
            f(total_secs * 1e3),
        ]);
    }
    t
}

/// E11 (Thesis 11): reactive vs eager policy exchange in trust
/// negotiation, as the policy base grows. Franz and the shop are two
/// engine nodes on the simulated Web (see [`negotiation`]); every column
/// is read off the run.
pub fn e11_trust_negotiation() -> Table {
    let mut t = Table::new(
        "E11",
        "Thesis 11",
        "fussbaelle.biz negotiation with n extra unrelated shop policies",
        vec![
            "strategy",
            "n_policies",
            "messages",
            "policies_sent",
            "sensitive_leaked",
            "bytes",
            "success",
        ],
    )
    .with_note(
        "Claims: reactive exchange sends only the relevant rules (constant \
         in n) and leaks only sensitive policies on the needed path; eager \
         exchange sends and leaks everything.",
    );
    let franz = Party::franz();
    for extra in [0usize, 14, 62] {
        let shop = Party::fussbaelle(extra);
        let n = shop.policy_count() + franz.policy_count();
        for (name, strategy) in [
            ("Reactive", negotiation::REACTIVE),
            ("Eager", negotiation::EAGER),
        ] {
            let (_, out) = negotiation::run(strategy, &franz, &shop, "purchase");
            t.row(vec![
                name.into(),
                n.to_string(),
                out.messages.to_string(),
                out.policies_sent.to_string(),
                out.sensitive_leaked.to_string(),
                out.bytes.to_string(),
                out.success.to_string(),
            ]);
        }
    }
    t
}

/// E12 (Thesis 12): AAA overhead and accounting's double reactivity.
pub fn e12_aaa_overhead() -> Table {
    let mut t = Table::new(
        "E12",
        "Thesis 12",
        "5,000 messages through one engine under increasing AAA levels",
        vec![
            "aaa_level",
            "kmsg_per_s",
            "overhead_pct",
            "acct_records",
            "acct_rule_fires",
        ],
    )
    .with_note(
        "Claim: AAA belongs in the engine, affordable as configuration; \
         accounting is itself reactive (records re-enter as events and can \
         trigger rules) without any meta-programming.",
    );
    const N: usize = 5_000;
    let mut base_rate = 0.0f64;
    // Warm up caches/allocator so the first measured config isn't cold.
    {
        let mut w = ReactiveEngine::new("http://svc");
        w.install_program(r#"RULE serve ON order{{id[[var O]]}} DO LOG served[var O] END"#)
            .unwrap();
        let meta = MessageMeta::from_uri("http://client");
        for i in 0..N {
            let p = parse_term(&format!("order{{id[\"o{i}\"]}}")).unwrap();
            w.receive(p, &meta, Timestamp(i as u64));
        }
    }
    for (name, config) in [
        ("off", AaaConfig::default()),
        (
            "authn",
            AaaConfig {
                require_auth: true,
                ..AaaConfig::default()
            },
        ),
        (
            "authn+authz",
            AaaConfig {
                require_auth: true,
                authorize: true,
                ..AaaConfig::default()
            },
        ),
        (
            "full accounting",
            AaaConfig {
                require_auth: true,
                authorize: true,
                accounting: true,
                accounting_events: true,
            },
        ),
    ] {
        let mut e = ReactiveEngine::new("http://svc");
        e.aaa = reweb_core::aaa::Aaa::new(config);
        e.aaa.register("franz", "pw", vec!["customer".into()]);
        e.aaa
            .acl
            .grant("customer", Permission::ReceiveEvent("order".into()));
        e.install_program(
            r#"
            RULE serve ON order{{id[[var O]]}} DO LOG served[var O] END
            RULE meter ON accounting{{principal[[var P]], allowed[["true"]]}}
              DO LOG metered[var P] END
            "#,
        )
        .unwrap();
        // Credentials are only attached when the engine demands them —
        // the "off" level measures the truly unauthenticated path.
        let meta = if e.aaa.config.require_auth {
            MessageMeta::from_uri("http://client").with_credentials("franz", "pw")
        } else {
            MessageMeta::from_uri("http://client")
        };
        let (_, secs) = timed(|| {
            for i in 0..N {
                let p = parse_term(&format!("order{{id[\"o{i}\"]}}")).unwrap();
                e.receive(p, &meta, Timestamp(i as u64));
            }
        });
        let rate = N as f64 / secs;
        if base_rate == 0.0 {
            base_rate = rate;
        }
        let meter_fires = e.metrics.fires_by_rule.get("meter").copied().unwrap_or(0);
        t.row(vec![
            name.into(),
            f(rate / 1_000.0),
            f((base_rate / rate - 1.0) * 100.0),
            e.aaa.records.len().to_string(),
            meter_fires.to_string(),
        ]);
    }
    t
}

/// Run all experiments (E1–E12).
pub fn all() -> Vec<Table> {
    vec![
        e1_eca_vs_production(),
        e2_local_vs_central(),
        e3_push_vs_poll(),
        e4_volatility(),
        e5_event_dimensions(),
        e6_incremental_vs_naive(),
        e7_condition_queries(),
        e8_compound_actions(),
        e9_structuring(),
        e10_identity(),
        e11_trust_negotiation(),
        e12_aaa_overhead(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shape assertions: each experiment's table must support its thesis.
    // (Smaller workloads would be nicer, but these run in a few seconds.)

    #[test]
    fn e4_shapes() {
        let t = e4_volatility();
        let unbounded: usize = t.rows[0][1].parse().unwrap();
        let windowed: usize = t.rows[1][1].parse().unwrap();
        let ttl: usize = t.rows[2][1].parse().unwrap();
        assert!(unbounded >= 19_000, "no-GC state grows with the stream");
        assert!(windowed < 100, "windowed state stays bounded");
        assert!(ttl < 100, "TTL state stays bounded");
    }

    #[test]
    fn e11_shapes() {
        let t = e11_trust_negotiation();
        // Reactive discloses a constant number of policies regardless of n.
        let reactive_rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "Reactive").collect();
        assert!(reactive_rows.iter().all(|r| r[3] == "2"));
        // Eager disclosure grows with n and leaks more sensitive policies.
        let eager_last = t.rows.last().unwrap();
        assert_eq!(eager_last[0], "Eager");
        let eager_sent: usize = eager_last[3].parse().unwrap();
        assert!(eager_sent > 60);
        let leaked: usize = eager_last[4].parse().unwrap();
        assert!(leaked > 10);
    }

    #[test]
    fn e10_shapes() {
        let t = e10_identity();
        // surrogate row: all edits attributed as modifications
        assert_eq!(t.rows[0][1], "200");
        assert_eq!(t.rows[0][3], "200");
        assert_eq!(t.rows[0][2], "0");
        // extensional row: zero modifications, 400 delete+insert halves
        assert_eq!(t.rows[1][1], "0");
        assert_eq!(t.rows[1][2], "400");
    }

    #[test]
    fn e8_shapes() {
        let t = e8_compound_actions();
        for r in &t.rows {
            match r[1].as_str() {
                "transactional" | "alt-fallback" => {
                    assert_eq!(r[3], "0", "atomic variants leak no anomalies: {r:?}")
                }
                "naive" if r[0] != "0.000" => {
                    let anomalies: usize = r[3].parse().unwrap();
                    assert!(anomalies > 0, "naive must leak under failures: {r:?}");
                }
                _ => {}
            }
        }
    }
}
