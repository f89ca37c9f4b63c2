//! The delivery wall: fault-injected end-to-end tests of the outbound
//! delivery agent — retry/backoff, dead-lettering, redelivery, receiver
//! deduplication — plus the differential property that faults never
//! change *what* is accounted for, only *where* it ends up.
//!
//! The headline test is the two-node kill/recover scenario from the
//! at-least-once contract: node A's rules fire reactions addressed to
//! node B while B crashes, restarts, and recovers. Every reaction must
//! end up delivered or dead-lettered (never silently dropped), B's
//! ingested sequence after redelivery must be byte-identical to a
//! fault-free run, and per-destination order must hold throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;

use reweb_core::ReactiveEngine;
use reweb_net::wire::{ErrorCode, Reply, Request};
use reweb_net::{BackoffPolicy, DeliveryAgent, DeliveryConfig, NetClient, NetConfig, NetServer};
use reweb_persist::{DurableEngine, DurableOptions};
use reweb_term::frame::{crc32, FRAME_HEADER_LEN};
use reweb_term::{parse_term, Term, Timestamp, MAX_NESTING};

/// A fresh scratch directory for one test.
fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("reweb-delivery-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Poll until `f` holds (agents and servers are asynchronous; the
/// assertions are not).
fn wait_until(what: &str, f: impl Fn() -> bool) {
    for _ in 0..5000 {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// An aggressive test backoff: fail fast, dead-letter fast.
fn fast_cfg(from: &str, dir: &Path, budget: u32) -> DeliveryConfig {
    DeliveryConfig {
        from: from.into(),
        backoff: BackoffPolicy {
            base_ms: 1,
            max_ms: 8,
            jitter_ms: 2,
        },
        retry_budget: budget,
        connect_timeout: Duration::from_millis(300),
        io_timeout: Duration::from_millis(1_000),
        outbox: Some(dir.join("outbox.log")),
        dead_letter: Some(dir.join("dead.log")),
    }
}

/// Bind a receiver node: a plain engine (no rules — it only ingests
/// pushed reactions) with a journaled delivery ledger.
fn bind_receiver(uri: &str, journal: &Path) -> NetServer {
    let cfg = NetConfig {
        delivery_journal: Some(journal.to_path_buf()),
        ..NetConfig::default()
    };
    NetServer::bind("127.0.0.1:0", ReactiveEngine::new(uri.to_string()), cfg).unwrap()
}

/// Bind a receiver whose engine is durable (crash/restart target).
fn bind_durable_receiver(uri: &str, dir: &Path, journal: &Path) -> NetServer {
    let uri_owned = uri.to_string();
    let engine = DurableEngine::open(dir, DurableOptions::default(), move || {
        ReactiveEngine::new(uri_owned)
    })
    .unwrap();
    let cfg = NetConfig {
        delivery_journal: Some(journal.to_path_buf()),
        ..NetConfig::default()
    };
    NetServer::bind("127.0.0.1:0", engine, cfg).unwrap()
}

/// Node A: its rule forwards every `order` as a `ship` reaction
/// addressed into node B's URI space.
fn bind_sender_a(delivery: &reweb_net::DeliveryHandle) -> NetServer {
    let mut engine = ReactiveEngine::new("http://a/".to_string());
    engine
        .install_program(
            r#"RULE fwd ON order{{id[[var O]]}} DO SEND ship{id[var O]} TO "http://b/recv" END"#,
        )
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
    server.attach_delivery(delivery.clone());
    server
}

fn order(i: usize) -> Term {
    parse_term(&format!("order{{id[\"o{i}\"]}}")).unwrap()
}

/// Drive `n` orders into node A over TCP, fenced so A's processing
/// order is deterministic.
fn post_orders(client: &mut NetClient, range: std::ops::Range<usize>) {
    for i in range {
        client
            .send_event(order(i), Some(Timestamp(i as u64 * 10)))
            .unwrap();
        client.sync().unwrap();
    }
}

/// The fault-free reference: same rules, same orders, nothing killed.
/// Returns B's ingested `(key, payload)` sequence.
fn fault_free_reference(n: usize) -> Vec<(String, String)> {
    let dir = tmp("reference");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    let a = bind_sender_a(&agent.handle());
    let mut client = NetClient::connect(a.local_addr(), "http://client/").unwrap();
    post_orders(&mut client, 0..n);
    assert!(agent.flush(Duration::from_secs(10)), "reference flush");
    wait_until("reference deliveries", || b.delivered().len() == n);
    let out = b
        .delivered()
        .into_iter()
        .map(|(k, p)| (k, p.to_string()))
        .collect();
    agent.shutdown();
    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The acceptance scenario: A pushes to B; B crashes mid-stream and
/// stays down past the retry budget (every undeliverable reaction must
/// land in the dead-letter log, exactly accounting for the remainder);
/// B restarts from its journals; `redeliver` brings B's ingested
/// sequence to byte-equality with the fault-free run.
#[test]
fn two_node_kill_recover_delivers_at_least_once_in_order() {
    let dir = tmp("killrecover");
    let b_wal = dir.join("b-wal");
    let b_ledger = dir.join("b-ledger.log");

    let b = bind_durable_receiver("http://b/", &b_wal, &b_ledger);
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    let a = bind_sender_a(&agent.handle());
    let mut client = NetClient::connect(a.local_addr(), "http://client/").unwrap();

    // Phase 1: B is up; five orders flow end to end.
    post_orders(&mut client, 0..5);
    assert!(agent.flush(Duration::from_secs(10)), "phase-1 flush");
    wait_until("phase-1 deliveries", || b.delivered().len() == 5);

    // Phase 2: B crashes. Five more orders fire; the agent retries past
    // its budget and must dead-letter all five — no silent drops.
    let mut b_down = b;
    b_down.shutdown();
    drop(b_down);
    post_orders(&mut client, 5..10);
    assert!(agent.flush(Duration::from_secs(20)), "phase-2 flush");
    let dead = agent.dead_letters();
    assert_eq!(dead.len(), 5, "undeliverable remainder: {dead:?}");
    // Each dead letter spent its whole budget, and they kept queue order.
    assert!(dead.iter().all(|d| d.attempts >= 2));
    let dead_seqs: Vec<u64> = dead.iter().map(|d| d.seq).collect();
    assert_eq!(dead_seqs, vec![5, 6, 7, 8, 9]);
    let stats = agent.stats();
    assert_eq!(stats.delivered, 5);
    assert_eq!(stats.dead_lettered, 5);
    assert!(stats.failed_attempts >= 10, "stats {stats:?}");

    // Phase 3: B restarts from its write-ahead log and delivery ledger
    // (a different port — recovery must not depend on the address).
    let b2 = bind_durable_receiver("http://b/", &b_wal, &b_ledger);
    assert_eq!(b2.delivered().len(), 5, "ledger survived the crash");
    agent.add_route("http://b/", b2.local_addr());
    assert_eq!(agent.redeliver().unwrap(), 5);
    assert!(agent.flush(Duration::from_secs(10)), "redelivery flush");
    wait_until("redeliveries", || b2.delivered().len() == 10);

    // At-least-once, exactly-once ingested, order preserved: B's final
    // sequence is byte-identical to the fault-free run's.
    let got: Vec<(String, String)> = b2
        .delivered()
        .into_iter()
        .map(|(k, p)| (k, p.to_string()))
        .collect();
    assert_eq!(got, fault_free_reference(10));
    assert!(agent.dead_letters().is_empty());
    let stats = agent.stats();
    assert_eq!(stats.redelivered, 5);
    assert_eq!(stats.delivered, 10);

    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sender-side durability: an agent that dies with unsettled deliveries
/// re-queues them from its outbox journal on restart and completes them.
#[test]
fn outbox_recovers_unsettled_deliveries_across_agent_restart() {
    let dir = tmp("outbox-restart");
    // Route to a port nobody listens on: enqueue succeeds, delivery
    // cannot — then kill the agent with everything still pending.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    {
        let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
        agent.add_route("http://b/", dead_addr);
        for i in 0..3 {
            assert!(agent.enqueue(
                "http://b/recv",
                Timestamp(i),
                &parse_term(&format!("ev{i}")).unwrap()
            ));
        }
        agent.shutdown(); // deliveries still pending: journal keeps them
    }
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
    assert_eq!(agent.pending(), 3, "outbox re-queued the unsettled set");
    agent.add_route("http://b/", b.local_addr());
    assert!(agent.flush(Duration::from_secs(10)));
    wait_until("recovered deliveries", || b.delivered().len() == 3);
    let keys: Vec<String> = b.delivered().into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, vec!["http://a/#0", "http://a/#1", "http://a/#2"]);
    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopened agent compacts its outbox: deliveries that were all
/// settled leave only the journal header behind, and the next reaction
/// gets a fresh sequence number, so the receiver's ledger does not
/// mistake it for a duplicate.
#[test]
fn reopened_agent_compacts_a_settled_outbox() {
    const N: usize = 5;
    let dir = tmp("outbox-compact");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    {
        let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
        agent.add_route("http://b/", b.local_addr());
        for i in 0..N {
            assert!(agent.enqueue(
                "http://b/recv",
                Timestamp(i as u64),
                &parse_term(&format!("ev{i}")).unwrap()
            ));
        }
        assert!(agent.flush(Duration::from_secs(10)));
        agent.shutdown();
    }
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
    assert_eq!(agent.pending(), 0);
    let journal = std::fs::read(dir.join("outbox.log")).unwrap();
    let frames = reweb_term::scan_frames(&journal).frames;
    assert_eq!(frames.len(), 1, "only the header survives compaction");
    assert!(frames[0].1.starts_with(b"o_head"));
    agent.add_route("http://b/", b.local_addr());
    assert!(agent.enqueue("http://b/recv", Timestamp(99), &parse_term("late").unwrap()));
    assert!(agent.flush(Duration::from_secs(10)));
    wait_until("the post-compaction delivery", || b.delivered().len() == N + 1);
    assert_eq!(b.delivered()[N].0, format!("http://a/#{N}"));
    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server-attached agent delivers on its own: the reactions node A's
/// driver hands over start their destination's worker, with no `flush`,
/// `enqueue` or other call on the agent.
#[test]
fn server_attached_agent_delivers_without_being_polled() {
    const N: usize = 5;
    let dir = tmp("attached");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    let a = bind_sender_a(&agent.handle());
    let mut client = NetClient::connect(a.local_addr(), "http://client/").unwrap();
    post_orders(&mut client, 0..N);
    wait_until("deliveries from an unpolled agent", || {
        b.delivered().len() == N
    });
    drop(agent);
    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire's nesting cap, end to end. A reaction nested one level past
/// what a `deliver` envelope admits is refused by the receiver with
/// `bad-envelope` before its durable engine logs anything; the sender
/// spends its retry budget on it and dead-letters it, and its outbox and
/// dead-letter log read it back on restart. The reaction at the
/// admitted depth behind it is delivered.
#[test]
fn a_reaction_past_the_wire_cap_is_dead_lettered_and_never_logged() {
    let dir = tmp("nesting-cap");
    let b_wal = dir.join("b-wal");
    let mut b = bind_durable_receiver("http://b/", &b_wal, &dir.join("b-ledger.log"));
    let nested = |n: usize| (0..n).fold(Term::text("x"), |t, _| Term::ordered("a", vec![t]));
    // `deliver{…, payload[…]}` holds the payload two levels down.
    let admitted = MAX_NESTING - 2;
    {
        let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
        agent.add_route("http://b/", b.local_addr());
        assert!(agent.enqueue("http://b/recv", Timestamp(1), &nested(admitted + 1)));
        assert!(agent.enqueue("http://b/recv", Timestamp(2), &nested(admitted)));
        assert!(agent.flush(Duration::from_secs(10)));
        wait_until("the admitted reaction", || b.delivered().len() == 1);
        assert_eq!(b.delivered()[0].1, nested(admitted));
        let dead = agent.dead_letters();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!(dead[0].payload, nested(admitted + 1));
        agent.shutdown();
    }
    let agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
    assert_eq!(agent.pending(), 0);
    let dead = agent.dead_letters();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].payload, nested(admitted + 1));
    b.shutdown();
    drop(b);
    let d = DurableEngine::open(&b_wal, DurableOptions::default(), || {
        ReactiveEngine::new("http://b/".to_string())
    })
    .unwrap();
    assert_eq!(d.engine().metrics.events_received, 1);
    drop(agent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `redeliver` is durable: requeues reach the outbox first, then the
/// dead-letter log is rewritten atomically with the still-unroutable
/// remainder. Reopening on the same paths loses neither letter.
#[test]
fn redeliver_survives_agent_restart() {
    let dir = tmp("redeliver-restart");
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    {
        let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 1)).unwrap();
        agent.add_route("http://b/", dead_addr);
        agent.add_route("http://c/", dead_addr);
        assert!(agent.enqueue("http://b/recv", Timestamp(1), &Term::elem("to_b")));
        assert!(agent.enqueue("http://c/recv", Timestamp(2), &Term::elem("to_c")));
        assert!(agent.flush(Duration::from_secs(10)));
        assert_eq!(agent.dead_letters().len(), 2);
    }
    let b = bind_receiver("http://b/", &dir.join("b-ledger.log"));
    {
        // Only b is routable now; c's letter must stay dead.
        let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
        assert_eq!(agent.dead_letters().len(), 2);
        agent.add_route("http://b/", b.local_addr());
        assert_eq!(agent.redeliver().unwrap(), 1);
    }
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 100)).unwrap();
    let dead = agent.dead_letters();
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert_eq!(dead[0].to, "http://c/recv");
    assert_eq!(dead[0].payload, Term::elem("to_c"));
    // The routed letter is pending in the outbox, or already delivered.
    agent.add_route("http://b/", b.local_addr());
    assert!(agent.flush(Duration::from_secs(10)));
    wait_until("redelivered letter", || b.delivered().len() == 1);
    assert_eq!(b.delivered()[0].1, Term::elem("to_b"));
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The classic duplicate-generating fault: the connection drops after
/// the push but before the ack. The retry must be absorbed by the
/// receiver's key ledger — ingested exactly once, acked as duplicate.
#[test]
fn drop_before_ack_retry_is_deduplicated_by_the_receiver() {
    let dir = tmp("dropack");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 10)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    agent.inject_drop_before_ack("http://b/", 1);
    for i in 0..2 {
        assert!(agent.enqueue(
            "http://b/recv",
            Timestamp(i),
            &parse_term(&format!("ev{i}")).unwrap()
        ));
    }
    assert!(agent.flush(Duration::from_secs(10)));
    wait_until("both deliveries", || b.delivered().len() == 2);
    // The dropped push *was* ingested; only its ack was lost.
    assert_eq!(b.delivered().len(), 2, "ingested exactly once each");
    let stats = agent.stats();
    assert_eq!(stats.delivered, 2);
    assert_eq!(stats.duplicate_acks, 1, "stats {stats:?}");
    assert_eq!(b.stats().deliveries_duplicate, 1);
    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One persistent connection per destination, never a reconnect per
/// reaction: N fault-free reactions, fired one at a time by node A's
/// rule, all reach B over the single connection the agent dialled first.
#[test]
fn fault_free_reactions_share_one_connection() {
    const N: usize = 20;
    let dir = tmp("oneconn");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 2)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    let a = bind_sender_a(&agent.handle());
    let mut client = NetClient::connect(a.local_addr(), "http://client/").unwrap();
    post_orders(&mut client, 0..N);
    assert!(agent.flush(Duration::from_secs(10)), "flush");
    wait_until("all deliveries", || b.delivered().len() == N);
    assert_eq!(agent.stats().delivered, N as u64);
    assert!(agent.dead_letters().is_empty());
    assert_eq!(
        b.stats().connections_accepted,
        1,
        "the agent reconnected to its one destination"
    );
    agent.shutdown();
    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that is alive but slow exercises the io timeout path without
/// losing anything: deliveries retry until the latency clears the bar.
#[test]
fn slow_peer_delays_but_loses_nothing() {
    let dir = tmp("slowpeer");
    let b = bind_receiver("http://b/", &dir.join("ledger.log"));
    let mut agent = DeliveryAgent::new(fast_cfg("http://a/", &dir, 10)).unwrap();
    agent.add_route("http://b/", b.local_addr());
    agent.inject_slow_peer("http://b/", Duration::from_millis(20));
    for i in 0..3 {
        assert!(agent.enqueue(
            "http://b/recv",
            Timestamp(i),
            &parse_term(&format!("ev{i}")).unwrap()
        ));
    }
    assert!(agent.flush(Duration::from_secs(10)));
    wait_until("slow deliveries", || b.delivered().len() == 3);
    assert!(agent.dead_letters().is_empty());
    agent.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the connection cap refuses at accept with a well-formed
/// `error{code["busy"]}` carrying a `retry_ms` hint from the shared
/// backoff policy — not a bare RST.
#[test]
fn connection_cap_refuses_with_busy_and_retry_hint() {
    let cfg = NetConfig {
        max_connections: Some(1),
        ..NetConfig::default()
    };
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://s/".to_string()),
        cfg,
    )
    .unwrap();
    let _first = NetClient::connect(server.local_addr(), "http://one/").unwrap();
    wait_until("first connection open", || {
        server.stats().connections_open == 1
    });

    // Second connection: refused before the hello is even read.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut header = [0u8; FRAME_HEADER_LEN];
    raw.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(crc32(&payload), crc, "refusal is a well-formed frame");
    match Reply::decode(&payload).unwrap() {
        Reply::Error { code, retry_ms, .. } => {
            assert_eq!(code, ErrorCode::Busy);
            assert_eq!(retry_ms, Some(BackoffPolicy::BUSY.delay_ms(0)));
        }
        other => panic!("expected busy error, got {other:?}"),
    }
    // The refused socket is closed server-side; further writes go
    // nowhere and the cap still admits nobody new while one is open.
    let _ = raw.write_all(
        &Request::Hello {
            from: "http://two/".into(),
            credentials: None,
            gateway: false,
        }
        .encode(),
    );
    wait_until("refusal counted", || {
        server.stats().connections_refused >= 1
    });
}

// ---------------------------------------------------------------------------
// Differential property: faults move outcomes between "delivered" and
// "dead-lettered" but never lose, reorder, or duplicate an ingestion.
// ---------------------------------------------------------------------------

/// Run one reaction stream through an agent against receivers B (live)
/// and C (killed under faults). Returns, per destination, the settled
/// payloads sorted by delivery seq (delivered ∪ dead-lettered).
fn run_stream(stream: &[(usize, u8)], faults: Option<(u32, u32, u64)>) -> Vec<Vec<String>> {
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let ledger = |node: &str| {
        std::env::temp_dir().join(format!(
            "reweb-delivery-prop-{node}-{}-{run}.log",
            std::process::id()
        ))
    };
    let (ledger_b, ledger_c) = (ledger("b"), ledger("c"));
    let _ = std::fs::remove_file(&ledger_b);
    let _ = std::fs::remove_file(&ledger_c);
    let b = bind_receiver("http://b/", &ledger_b);
    let mut c = bind_receiver("http://c/", &ledger_c);
    let mut agent = DeliveryAgent::new(DeliveryConfig {
        from: "http://a/".into(),
        backoff: BackoffPolicy {
            base_ms: 1,
            max_ms: 4,
            jitter_ms: 2,
        },
        retry_budget: 3,
        connect_timeout: Duration::from_millis(300),
        io_timeout: Duration::from_millis(1_000),
        outbox: None,
        dead_letter: None,
    })
    .unwrap();
    agent.add_route("http://b/", b.local_addr());
    agent.add_route("http://c/", c.local_addr());
    if let Some((connect_fails, ack_drops, slow_ms)) = faults {
        c.shutdown(); // the kill: C is down for the whole run
        agent.inject_connect_failures("http://b/", connect_fails);
        agent.inject_drop_before_ack("http://b/", ack_drops);
        if slow_ms > 0 {
            agent.inject_slow_peer("http://b/", Duration::from_millis(slow_ms));
        }
    }
    for (i, (dest, v)) in stream.iter().enumerate() {
        let to = if *dest == 0 {
            "http://b/recv"
        } else {
            "http://c/recv"
        };
        let payload = parse_term(&format!("ev{i}{{v[\"{v}\"]}}")).unwrap();
        assert!(agent.enqueue(to, Timestamp(i as u64), &payload));
    }
    assert!(agent.flush(Duration::from_secs(60)), "stream flush");

    // Collect every settled delivery as (seq, dest, payload).
    let mut settled: Vec<(u64, usize, String)> = Vec::new();
    let mut collect_ledger = |server: &NetServer, dest: usize| {
        let mut last_seq = None;
        for (key, payload) in server.delivered() {
            let seq: u64 = key.rsplit('#').next().unwrap().parse().unwrap();
            // Per-destination ingestion order follows delivery seqs.
            assert!(last_seq < Some(seq), "out of order at {key}");
            last_seq = Some(seq);
            settled.push((seq, dest, payload.to_string()));
        }
    };
    collect_ledger(&b, 0);
    collect_ledger(&c, 1);
    for d in agent.dead_letters() {
        let dest = usize::from(!d.to.starts_with("http://b/"));
        settled.push((d.seq, dest, d.payload.to_string()));
    }
    agent.shutdown();
    let _ = std::fs::remove_file(&ledger_b);
    let _ = std::fs::remove_file(&ledger_c);
    settled.sort();
    // A delivery whose ack was lost can be *both* ingested and (after
    // the budget ran out) dead-lettered — the sender cannot know. The
    // union is therefore keyed by delivery seq, exactly as the
    // receiver's ledger would absorb a redelivery. A seq surviving with
    // two different payloads would not collapse here and fails the
    // comparison — that would be a real corruption.
    settled.dedup();
    let mut per_dest = vec![Vec::new(), Vec::new()];
    for (_, dest, payload) in settled {
        per_dest[dest].push(payload);
    }
    per_dest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: the same reaction stream with and without injected
    /// faults (a killed receiver, refused connects, dropped acks, slow
    /// peers) settles identically — the union of delivered and
    /// dead-lettered payloads matches the fault-free delivery sequence
    /// per destination, with order preserved and nothing duplicated.
    #[test]
    fn faults_never_lose_reorder_or_duplicate(
        stream in proptest::collection::vec((0..2usize, 0..50u8), 1..10),
        connect_fails in 0..5u32,
        ack_drops in 0..3u32,
        slow_ms in 0..3u64,
    ) {
        let reference = run_stream(&stream, None);
        let faulted = run_stream(&stream, Some((connect_fails, ack_drops, slow_ms)));
        prop_assert_eq!(faulted, reference);
    }
}
