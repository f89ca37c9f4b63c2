//! Regenerate the experiment tables E1…E12 (see DESIGN.md §3).
//!
//! ```text
//! cargo run --release --bin experiments            # all tables
//! cargo run --release --bin experiments -- E3 E6   # a subset
//! cargo run --release --bin experiments -- --smoke # fast CI sanity check
//! cargo run --release --bin experiments -- --obs   # observability report
//! ```
//!
//! Output is Markdown, pasteable into EXPERIMENTS.md. `--smoke` skips the
//! tables and instead drives one rule through the reactive engine
//! end-to-end in well under a second — CI uses it to prove the binary and
//! the engine work without paying for the full experiment run.

use reweb_bench::experiments;

/// Fast path for CI: one ECA rule, one matching event, one reaction.
/// Panics (non-zero exit) if the engine does not behave.
fn smoke() {
    use reweb_core::{MessageMeta, ReactiveEngine};
    use reweb_term::{parse_term, Timestamp};

    let mut engine = ReactiveEngine::new("http://smoke.example");
    engine.qe.store.put(
        "http://smoke.example/customers",
        parse_term(r#"customers[ customer{id["c1"], name["Ann"]} ]"#).unwrap(),
    );
    engine
        .install_program(
            r#"RULE on_order
                 ON order{{ id[[var O]], customer[[var C]] }}
                 IF in "http://smoke.example/customers" customer{{ id[[var C]], name[[var N]] }}
                 THEN SEND confirmation{order[var O], dear[var N]} TO "http://client.example"
               END"#,
        )
        .expect("smoke rule parses");

    let meta = MessageMeta::from_uri("http://client.example");
    let out = engine.receive(
        parse_term(r#"order{ id["o-1"], customer["c1"] }"#).unwrap(),
        &meta,
        Timestamp(1_000),
    );
    assert_eq!(out.len(), 1, "expected exactly one reaction message");
    assert_eq!(
        engine.metrics.rules_fired, 1,
        "expected the rule to fire once"
    );
    println!(
        "smoke OK: 1 rule installed, 1 event received, 1 reaction sent to {}",
        out[0].to
    );
}

/// The `--obs` report: drive a small two-node run (sender with a
/// forwarding rule + delivery agent, receiver over loopback TCP) with
/// observability enabled, then print what the layer recorded — the
/// four latency histograms, one full ingress→delivery trace chain, and
/// a reaction explanation. A human-readable complement to the
/// benchmark's `obs.*` metrics; docs/OBSERVABILITY.md documents the model.
fn obs_report() {
    use reweb_core::ReactiveEngine;
    use reweb_net::{DeliveryAgent, DeliveryConfig, NetClient, NetConfig, NetServer};
    use reweb_obs::Span;
    use reweb_term::{parse_term, Timestamp};
    use std::time::Duration;

    const N: usize = 200;
    let dir = std::env::temp_dir().join(format!("reweb-obs-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("obs report scratch dir");

    let receiver = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://b/"),
        NetConfig::default(),
    )
    .expect("receiver binds");
    let mut agent = DeliveryAgent::new(DeliveryConfig {
        from: "http://a/".into(),
        outbox: Some(dir.join("outbox.log")),
        ..DeliveryConfig::default()
    })
    .expect("delivery agent");
    agent.add_route("http://b/", receiver.local_addr());
    let mut engine = ReactiveEngine::new("http://a/");
    engine
        .install_program(
            r#"RULE fwd ON order{{id[[var O]]}} DO SEND ship{id[var O]} TO "http://b/recv" END"#,
        )
        .expect("forwarding rule");
    let sender =
        NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).expect("sender binds");
    sender.attach_delivery(agent.handle());
    sender.obs().enable();

    let mut client =
        NetClient::connect(sender.local_addr(), "http://client/").expect("client connects");
    for i in 0..N {
        client
            .send_event(
                parse_term(&format!("order{{id[\"o{i}\"]}}")).expect("payload"),
                Some(Timestamp(i as u64)),
            )
            .expect("send");
        if (i + 1) % 32 == 0 {
            client.sync().expect("sync");
        }
    }
    client.sync().expect("final sync");
    assert!(agent.flush(Duration::from_secs(30)), "deliveries settle");
    for _ in 0..5_000 {
        if receiver.delivered().len() == N {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let obs = sender.obs();
    println!("# Observability report ({N} traced events, sender -> delivery agent -> receiver)\n");
    println!("## Latency histograms (ns; log-bucket upper bounds)\n");
    println!("| histogram | count | p50 | p90 | p99 | max |");
    println!("|---|---|---|---|---|---|");
    for (name, h) in [
        ("batch", obs.batch.snapshot()),
        ("fsync", obs.fsync.snapshot()),
        ("queue", obs.queue.snapshot()),
        ("delivery", obs.delivery.snapshot()),
    ] {
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        );
    }

    println!("\n## Trace 1 (the first ingested event, ingress -> delivery ack)\n");
    let spans: Vec<Span> = obs.spans_for(1);
    if spans.is_empty() {
        println!("(trace 1 evicted from the flight recorder)");
    }
    for s in &spans {
        println!(
            "{:<10} start {:>12} ns   dur {:>9} ns",
            s.stage.to_string(),
            s.start_ns,
            s.dur_ns
        );
    }

    // The provenance surface, shown on a directly driven engine (the
    // wire servers consume their reactions internally).
    let mut local = ReactiveEngine::new("http://a/");
    local
        .install_program(
            r#"RULE fwd ON order{{id[[var O]]}} DO SEND ship{id[var O]} TO "http://b/recv" END"#,
        )
        .expect("forwarding rule");
    local.obs().enable();
    let outs = local.receive(
        parse_term(r#"order{id["o0"]}"#).expect("payload"),
        &reweb_core::MessageMeta::from_uri("http://client/"),
        Timestamp(1),
    );
    println!("\n## explain(reaction)\n");
    for o in &outs {
        if let Some(p) = &o.provenance {
            println!("{} -> {}: {}", p.trace, o.to, p.explain());
        }
    }

    agent.shutdown();
    drop((sender, receiver));
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--obs") {
        if args.len() > 1 {
            eprintln!("error: --obs cannot be combined with other arguments (got {args:?})");
            std::process::exit(2);
        }
        obs_report();
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        if args.len() > 1 {
            eprintln!("error: --smoke cannot be combined with experiment ids (got {args:?})");
            std::process::exit(2);
        }
        smoke();
        return;
    }
    if let Some(bad) = args.iter().find(|a| {
        !experiments::RUNNERS
            .iter()
            .any(|(id, _)| id.eq_ignore_ascii_case(a))
    }) {
        let ids: Vec<&str> = experiments::RUNNERS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: unknown experiment id {bad:?} (expected one of {})",
            ids.join(", ")
        );
        std::process::exit(2);
    }
    let run_all = args.is_empty();

    println!("# reweb experiment tables (E1…E12)\n");
    for (id, run) in experiments::RUNNERS {
        if run_all || args.iter().any(|w| id.eq_ignore_ascii_case(w)) {
            eprintln!("running {id}…");
            let table = run();
            println!("{}", table.to_markdown());
        }
    }
}
