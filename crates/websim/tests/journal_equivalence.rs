//! An engine node serves the same whether or not its inputs are
//! journalled: the same seeded simulation, run once with the shop's
//! engine in memory and once with it journalled to disk, gives
//! byte-identical deliveries at every sink and the same installed
//! program — across a kill and a recovery in the middle of the run,
//! which the journalled node survives by replaying its log and the
//! in-memory one by keeping its memory. The simulated-Web twin of
//! `reweb_net`'s `single_and_durable_engines_serve_identically`.

use reweb_core::ReactiveEngine;
use reweb_persist::{DurableOptions, SyncPolicy};
use reweb_term::{parse_term, Term, Timestamp};
use reweb_websim::Simulation;

const SHOP: &str = r#"
RULESET shop
  PROCEDURE ship(O) DO
    SEQ
      PERSIST shipped{order[var O]} IN "http://shop/log";
      SEND ship{order[var O]} TO "http://warehouse";
    END
  END
  RULE pay
    ON and(order{{id[[var O]], total[[var T]]}},
           payment{{order[[var O]], amount[[var A]]}}) within 10s
    WHERE var A >= var T
    DO CALL ship(var O)
  END
  RULE stale
    ON absence(order{{id[[var O]]}}, payment{{order[[var O]]}}, 5s)
    DO SEND reminder{order[var O]} TO "http://client"
  END
  RULE quote ON ask{{item[[var I]]}}
    IF in "http://shop/prices" price{{item[[var I]], eur[[var P]]}}
    THEN SEND quote{item[var I], eur[var P]} TO "http://client"
    ELSE SEND unknown{item[var I]} TO "http://client"
  END
END
"#;

fn term(src: &str) -> Term {
    parse_term(src).unwrap()
}

/// One run of the workload; the shop is journalled to `journal` when one
/// is given. Returns every sink delivery, rendered whole, and the shop's
/// installed program.
fn run(journal: Option<&std::path::Path>) -> (Vec<String>, String) {
    let mut sim = Simulation::new(5);
    match journal {
        Some(dir) => {
            let opts = DurableOptions {
                sync: SyncPolicy::Os,
                snapshot_every: Some(7),
            };
            sim.add_durable_engine("http://shop", dir, opts, SHOP)
                .unwrap();
        }
        None => {
            let mut e = ReactiveEngine::new("http://shop");
            e.install_program(SHOP).unwrap();
            sim.add_engine("http://shop", e);
        }
    }
    sim.add_sink("http://client");
    sim.add_sink("http://warehouse");
    for i in 0..30u64 {
        let at = i * 700;
        let total = 10 + i % 4;
        sim.post(
            "http://client",
            "http://shop",
            term(&format!("order{{id[\"o{i}\"], total[\"{total}\"]}}")),
            Timestamp(at),
        );
        if i % 3 != 0 {
            let amount = total + i % 2 - 1;
            sim.post(
                "http://client",
                "http://shop",
                term(&format!("payment{{order[\"o{i}\"], amount[\"{amount}\"]}}")),
                Timestamp(at + 300 + i * 37 % 400),
            );
        }
        if i % 5 == 2 {
            let item = ["ball", "net", "boot"][(i % 3) as usize];
            sim.post(
                "http://client",
                "http://shop",
                term(&format!("ask{{item[\"{item}\"]}}")),
                Timestamp(at + 100),
            );
        }
    }
    for (k, at) in [1_000u64, 8_000, 15_000].into_iter().enumerate() {
        let doc = format!(
            "prices[price{{item[\"ball\"], eur[\"{}\"]}}, price{{item[\"net\"], eur[\"7\"]}}]",
            20 + k
        );
        sim.schedule_update("http://shop/prices", term(&doc), Timestamp(at));
    }

    sim.run_until(Timestamp(9_000));
    assert!(sim.kill_node("http://shop"));
    sim.run_until(Timestamp(12_000));
    sim.recover_node("http://shop").unwrap();
    let recovery = sim.durable("http://shop").unwrap().recovery();
    assert_eq!(recovery.recovered, journal.is_some(), "{recovery:?}");
    sim.run_until(Timestamp(40_000));
    assert!(sim.metrics.lost_while_down > 0, "the kill lost deliveries");

    let deliveries = ["http://client", "http://warehouse"]
        .iter()
        .flat_map(|sink| sim.sink(sink))
        .map(|(t, e)| {
            format!(
                "{} {}->{} #{} sent {} {:?} {}",
                t.millis(),
                e.from,
                e.to,
                e.message_id,
                e.sent_at.millis(),
                e.credentials,
                e.body
            )
        })
        .collect();
    let program = sim.engine("http://shop").unwrap().program_source();
    (deliveries, program)
}

#[test]
fn journalled_and_in_memory_engine_nodes_deliver_identically() {
    let dir = std::env::temp_dir().join(format!("reweb-websim-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (plain, plain_program) = run(None);
    let (journalled, journalled_program) = run(Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(plain.iter().any(|d| d.contains("ship{")), "{plain:#?}");
    assert!(plain.iter().any(|d| d.contains("reminder{")), "{plain:#?}");
    assert!(plain.iter().any(|d| d.contains("quote{")), "{plain:#?}");
    assert_eq!(plain, journalled);
    assert_eq!(plain_program, journalled_program);
}
