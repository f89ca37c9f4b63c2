//! Regenerate the experiment tables E1…E19 (see DESIGN.md §3).
//!
//! ```text
//! cargo run --release --bin experiments            # all tables
//! cargo run --release --bin experiments -- E3 E6   # a subset
//! cargo run --release --bin experiments -- --smoke # fast CI sanity check
//! cargo run --release --bin experiments -- --obs   # observability report
//! cargo run --release --bin experiments -- \
//!     --bench-json out.json                        # machine-readable E13+E14
//! cargo run --release --bin experiments -- \
//!     --bench-json out.json --check-floor bench/baseline.json
//! ```
//!
//! Output is Markdown, pasteable into EXPERIMENTS.md. `--smoke` skips the
//! tables and instead drives one rule through the reactive engine
//! end-to-end in well under a second — CI uses it to prove the binary and
//! the engine work without paying for the full (~15 s) experiment run.
//!
//! `--bench-json <path>` runs only the perf experiments — E13 (sharded
//! throughput), E14 (single-engine hot path), E15 (durable-mode
//! ingestion + cold recovery), E16 (compiled-matcher rule scaling,
//! 100 → 100k installed rules), E17 (indexed vs scan beta joins,
//! 100 → 10k composite rules plus the occupancy axis), E18 (TCP
//! loopback ingress at 1 → 8 clients), E18b (outbound delivery
//! under a receiver kill/recover cycle, with its recovery time), and
//! E19 (observability overhead: the E14 workload with the obs handle
//! disabled, enabled, and with a saturated flight recorder), full
//! 100k-event workloads — and writes their numbers as one JSON file;
//! `--check-floor <baseline>` additionally compares the run against a
//! committed baseline and exits non-zero when parallel throughput fell
//! more than 25% below it (normalized by the same run's single-engine
//! rate, so machine speed cancels), when the absolute E14 hot-path,
//! E15 durable-ingestion, E16 100k-rule, E17 10k-composite, E18
//! loopback-ingress, or E18b delivery-push rates fell more than 25%
//! below their conservatively
//! rounded committed floors (E19's `obs-off` row included), or when the
//! same run's E16 per-event cost
//! is no longer flat in the rule count, or when the same run's E17
//! indexed join is no longer ≥2x the scan join at the largest occupancy,
//! or when the same run's E19 obs-disabled rate fell below 0.95x the
//! interleaved uninstrumented baseline in every measured round — the
//! "zero-cost when disabled" budget
//! (see [`experiments::check_floor`]). CI runs this as its performance
//! floor and uploads the JSON — recovery timings included — as an
//! artifact.

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

/// The perf bench path: run E13 through E18, write JSON, optionally
/// enforce the perf floor.
fn bench_perf(json_out: Option<&str>, floor_baseline: Option<&str>) {
    eprintln!("running E13 (100k events, serial + parallel at 1/2/4/8 shards)…");
    let report = experiments::e13_report(100_000);
    println!("{}", experiments::e13_table(&report).to_markdown());
    eprintln!("running E14 (100k events, single-engine hot path)…");
    let hot = experiments::e14_report(100_000);
    println!("{}", experiments::e14_table(&hot).to_markdown());
    eprintln!("running E15 (100k events, durable engine + cold recovery)…");
    let durable = experiments::e15_report(100_000);
    println!("{}", experiments::e15_table(&durable).to_markdown());
    eprintln!("running E16 (100k events, compiled matcher at 100 → 100k rules)…");
    let rules = experiments::e16_report(100_000);
    println!("{}", experiments::e16_table(&rules).to_markdown());
    eprintln!("running E17 (100k events, indexed vs scan joins at 100 → 10k composite rules)…");
    let joins = experiments::e17_report(100_000);
    println!("{}", experiments::e17_table(&joins).to_markdown());
    eprintln!("running E18 (100k events per rung, TCP loopback at 1/2/4/8 clients)…");
    let net = experiments::e18_report(100_000);
    println!("{}", experiments::e18_table(&net).to_markdown());
    eprintln!("running E18b (2k live + 200 faulted reactions, kill/recover delivery)…");
    let delivery = experiments::e18_delivery_report(2_000, 200);
    println!(
        "{}",
        experiments::e18_delivery_table(&delivery).to_markdown()
    );
    eprintln!("running E19 (100k events, observability off / on / recorder-full)…");
    let obs = experiments::e19_report(100_000);
    println!("{}", experiments::e19_table(&obs).to_markdown());
    if let Some(path) = json_out {
        std::fs::write(
            path,
            experiments::bench_json(
                &report, &hot, &durable, &rules, &joins, &net, &delivery, &obs,
            ),
        )
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = floor_baseline {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match experiments::check_floor(
            &report, &hot, &durable, &rules, &joins, &net, &delivery, &obs, &baseline, 0.25,
        ) {
            Ok(summary) => {
                println!("## Performance floor: OK (baseline {path}, 25% tolerance)\n");
                println!("{summary}");
            }
            Err(why) => {
                eprintln!("{why}");
                std::process::exit(1);
            }
        }
    }
}

/// The `--obs` report: drive a small two-node run (sender with a
/// forwarding rule + delivery agent, receiver over loopback TCP) with
/// observability enabled, then print what the layer recorded — the
/// four latency histograms, one full ingress→delivery trace chain, and
/// a reaction explanation. A human-readable complement to the E19
/// overhead numbers; docs/OBSERVABILITY.md documents the model.
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_flag_value = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            eprintln!("error: {flag} needs a path argument");
            std::process::exit(2);
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Some(v)
    };
    let bench_json = take_flag_value("--bench-json");
    let check_floor = take_flag_value("--check-floor");
    if bench_json.is_some() || check_floor.is_some() {
        if !args.is_empty() {
            eprintln!(
                "error: --bench-json/--check-floor cannot be combined with other \
                 arguments (got {args:?})"
            );
            std::process::exit(2);
        }
        bench_perf(bench_json.as_deref(), check_floor.as_deref());
        return;
    }
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

    println!("# reweb experiment tables (E1…E19)\n");
    for (id, run) in experiments::RUNNERS {
        if run_all || args.iter().any(|w| id.eq_ignore_ascii_case(w)) {
            eprintln!("running {id}…");
            let table = run();
            println!("{}", table.to_markdown());
        }
    }
}
