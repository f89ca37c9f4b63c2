//! The loopback differential wall: a message stream delivered over TCP
//! produces **byte-identical** outputs to the same stream delivered
//! in-process — including under injected malformed frames and mid-batch
//! client disconnects, which must degrade per-connection only.
//!
//! Method: every network run is driven in *lockstep phases* so the
//! global arrival order at the driver is fully determined — the main
//! client flushes with `sync` before any other connection sends, and
//! the test waits on server counters before moving on. The oracle then
//! replays exactly that merged stream through an in-process engine with
//! per-message submitter attribution, and the main client's raw reply
//! payload bytes must equal the oracle's re-encoded reactions byte for
//! byte.

use std::time::Duration;

use proptest::prelude::*;

use reweb_core::{InMessage, MessageMeta, ReactiveEngine};
use reweb_net::wire::Reply;
use reweb_net::{NetClient, NetConfig, NetServer, RateLimit};
use reweb_persist::{DurableEngine, DurableOptions, SyncPolicy};
use reweb_term::frame::encode_frame;
use reweb_term::{parse_term, Term, Timestamp};

const LABELS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "eps"];

/// Rule fragments: atomic, windowed joins, sequences, guards, DETECT
/// cascades — the operators whose outputs the wire must carry
/// faithfully. (Absence deadlines get their own deterministic test:
/// their firings attribute to whichever arrival advances the clock, so
/// they need a fixed schedule, not a random one.)
fn fragment(i: usize, kind: u8, a: usize, b: usize) -> String {
    let la = LABELS[a % LABELS.len()];
    let lb = LABELS[b % LABELS.len()];
    match kind % 5 {
        0 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} DO SEND saw{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        1 => format!(
            r#"RULE r{i} ON and({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 2m
               DO SEND pair{i}{{a[var X], b[var Y]}} TO "http://sink/{i}" END"#
        ),
        2 => format!(
            r#"RULE r{i} ON seq({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 90s
               DO SEND seq{i}{{a[var X]}} TO "http://sink/{i}" END"#
        ),
        3 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} where var X >= 5
               DO SEND big{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        _ => format!(
            r#"DETECT d{i}{{v[var X]}} ON {la}{{{{v[[var X]]}}}} where var X >= 3 END
               RULE r{i} ON d{i}{{{{v[[var X]]}}}} DO SEND derived{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
    }
}

fn program(rules: &[(u8, usize, usize)]) -> String {
    rules
        .iter()
        .enumerate()
        .map(|(i, &(kind, a, b))| fragment(i, kind, a, b))
        .collect::<Vec<_>>()
        .join("\n")
}

fn event_payload(label_idx: usize, v: u64) -> Term {
    parse_term(&format!(
        "{}{{v[\"{v}\"]}}",
        LABELS[label_idx % LABELS.len()]
    ))
    .unwrap()
}

/// Poll until `f` holds (servers are asynchronous; the tests are not).
fn wait_until(what: &str, f: impl Fn() -> bool) {
    for _ in 0..4000 {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// The in-process oracle: replay the merged stream through a fresh
/// single engine, attributing outputs per message, and return the raw
/// reply payload bytes the main client must receive — reactions for its
/// own messages, re-encoded exactly as the server encodes them.
fn oracle_bytes(
    program_src: &str,
    merged: &[(bool, u64, InMessage)], // (is_main, wire id, message)
) -> Vec<Vec<u8>> {
    let mut oracle = ReactiveEngine::new("http://server/".to_string());
    oracle.install_program(program_src).expect("oracle install");
    let mut expect = Vec::new();
    for (is_main, id, m) in merged {
        let outs = oracle.receive(m.payload.clone(), &m.meta, m.at);
        if *is_main {
            for o in outs {
                let rep = Reply::Reaction {
                    id: *id,
                    to: o.to,
                    payload: o.payload,
                };
                expect.push(rep.to_term().to_string().into_bytes());
            }
        }
    }
    expect
}

fn default_cfg() -> NetConfig {
    NetConfig {
        max_batch: 7, // small, so multi-batch splits actually happen
        ..NetConfig::default()
    }
}

/// Drive one stream through a server over loopback TCP, in chunks with
/// a sync barrier per chunk, and compare the received reply payloads
/// byte-for-byte with the oracle.
fn run_differential(
    server: &NetServer,
    program_src: &str,
    stream: &[(usize, u64, u64)],
    inject_faults: bool,
) {
    server.with_engine(|e| e.install_source(program_src).expect("install"));
    let addr = server.local_addr();
    let mut a = NetClient::connect(addr, "http://a/").expect("connect a");
    let meta_a = MessageMeta::from_uri("http://a/");
    let meta_b = MessageMeta::from_uri("http://b/");

    let mut merged: Vec<(bool, u64, InMessage)> = Vec::new();
    let mut got: Vec<Vec<u8>> = Vec::new();
    let mut at = 0u64;
    let mut processed = 0u64;
    let stats = || server.stats();

    for (chunk_no, chunk) in stream.chunks(5).enumerate() {
        // Phase 1: the main client sends a chunk and flushes.
        for &(l, v, dt) in chunk {
            at += dt;
            let payload = event_payload(l, v);
            let id = a
                .send_event(payload.clone(), Some(Timestamp(at)))
                .expect("send");
            merged.push((
                true,
                id,
                InMessage::new(payload, meta_a.clone(), Timestamp(at)),
            ));
        }
        got.extend(a.sync_raw().expect("sync"));
        processed += chunk.len() as u64;
        assert_eq!(stats().msgs_processed, processed, "sync is a barrier");

        if !inject_faults {
            continue;
        }
        // Phase 2: a second client sends events that interleave with
        // the main stream at a *known* point (the barrier above), then
        // disconnects without reading its replies — a mid-batch
        // disconnect, whose reactions must be dropped, not misrouted.
        if chunk_no % 2 == 0 {
            let mut b = NetClient::connect(addr, "http://b/").expect("connect b");
            for k in 0..2u64 {
                let payload = event_payload(chunk_no + k as usize, 7);
                let id = b
                    .send_event(payload.clone(), Some(Timestamp(at)))
                    .expect("send b");
                merged.push((
                    false,
                    id,
                    InMessage::new(payload, meta_b.clone(), Timestamp(at)),
                ));
            }
            processed += 2;
            drop(b); // vanish mid-stream, replies unread
            wait_until("disconnector's events processed", || {
                stats().msgs_processed >= processed
            });
        }
        // Phase 3: a third connection speaks garbage — a frame whose
        // CRC does not match. Its connection dies; nothing else may.
        if chunk_no % 2 == 1 {
            let before = stats().framing_errors;
            let mut c = NetClient::connect(addr, "http://c/").expect("connect c");
            let mut bad = encode_frame(b"event{id[\"1\"]}");
            let n = bad.len() - 1;
            bad[n] ^= 0xff; // corrupt the payload against its CRC
            c.send_raw(&bad).expect("send garbage");
            wait_until("framing error counted", || stats().framing_errors > before);
            // The server told it off and closed it.
            match c.recv() {
                Ok(Reply::Error { .. }) => {}
                Ok(other) => panic!("expected an error reply, got {other:?}"),
                Err(_) => {} // close may already have landed
            }
        }
    }

    let expect = oracle_bytes(program_src, &merged);
    let got_s: Vec<String> = got
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    let expect_s: Vec<String> = expect
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    assert_eq!(got_s, expect_s, "loopback TCP diverged from in-process");
    assert_eq!(got, expect, "payload bytes diverged beyond UTF-8");
    if !inject_faults {
        // Every offered event is accounted for: admitted to the queue or
        // refused with an explicit `busy`, never shed silently. With no
        // disconnecting client, no reply is dropped either.
        let s = stats();
        assert_eq!(
            s.replies_dropped, 0,
            "a fault-free run dropped replies: {s:?}"
        );
        assert_eq!(
            s.msgs_enqueued + s.busy_replies,
            processed,
            "offered events unaccounted for: {s:?}"
        );
    }
    let _ = a.bye();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random programs, random streams: loopback ≡ in-process.
    #[test]
    fn loopback_tcp_equals_in_process(
        rules in proptest::collection::vec((0..5u8, 0..5usize, 0..5usize), 1..5),
        stream in proptest::collection::vec((0..5usize, 0..10u64, 1..20_000u64), 1..25),
    ) {
        let src = program(&rules);
        let server = NetServer::bind(
            "127.0.0.1:0",
            ReactiveEngine::new("http://server/".to_string()),
            default_cfg(),
        ).expect("bind");
        run_differential(&server, &src, &stream, false);
    }

    /// Same, with malformed frames and mid-batch disconnects injected
    /// between chunks: the main client's byte stream must not change,
    /// and the faults must be visible in the counters.
    #[test]
    fn faults_degrade_per_connection_only(
        rules in proptest::collection::vec((0..5u8, 0..5usize, 0..5usize), 1..4),
        stream in proptest::collection::vec((0..5usize, 0..10u64, 1..20_000u64), 6..20),
    ) {
        let src = program(&rules);
        let server = NetServer::bind(
            "127.0.0.1:0",
            ReactiveEngine::new("http://server/".to_string()),
            default_cfg(),
        ).expect("bind");
        run_differential(&server, &src, &stream, true);
        let s = server.stats();
        prop_assert!(s.framing_errors > 0, "garbage client never counted: {s:?}");
        // After every fault the server still accepts fresh connections.
        let mut d = NetClient::connect(server.local_addr(), "http://d/").expect("connect after faults");
        d.send_event(Term::elem("ping"), Some(Timestamp(u64::MAX / 2))).expect("send after faults");
        d.sync().expect("sync after faults");
    }
}

/// The same transport equivalence holds for both engine shapes the
/// ingress tier serves: the durable front-end (WAL underneath) produces
/// the single engine's byte stream for a fixed representative workload.
#[test]
fn single_and_durable_engines_serve_identically() {
    let rules: Vec<(u8, usize, usize)> = (0..5).map(|i| (i as u8, i, i + 1)).collect();
    let src = program(&rules);
    let stream: Vec<(usize, u64, u64)> = (0..40).map(|i| (i % 5, i as u64 % 11, 500)).collect();

    let single = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        default_cfg(),
    )
    .expect("bind single");
    run_differential(&single, &src, &stream, false);

    let dir = std::env::temp_dir().join(format!("reweb-net-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let durable = DurableEngine::open(
        &dir,
        DurableOptions {
            sync: SyncPolicy::Os,
            snapshot_every: Some(8),
        },
        || ReactiveEngine::new("http://server/".to_string()),
    )
    .expect("open durable");
    let durable = NetServer::bind("127.0.0.1:0", durable, default_cfg()).expect("bind durable");
    run_differential(&durable, &src, &stream, false);

    let descriptors: Vec<String> = [&single, &durable]
        .iter()
        .map(|s| s.with_engine(|e| e.descriptor()))
        .collect();
    assert_eq!(descriptors, ["single", "durable:single"]);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Absence deadlines over the wire: reactions fired by an explicit
/// `advance` are routed to the advancing session, under its request id.
#[test]
fn advance_routes_deadline_reactions() {
    let src = r#"RULE r0 ON absence(alpha{{v[[var X]]}}, beta{{v[[var X]]}}, 30s)
                 DO SEND missing{v[var X]} TO "http://sink/0" END"#;
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        default_cfg(),
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(src).expect("install"));
    let mut a = NetClient::connect(server.local_addr(), "http://a/").expect("connect");
    a.send_event(
        parse_term("alpha{v[\"1\"]}").unwrap(),
        Some(Timestamp(1_000)),
    )
    .expect("send");
    assert_eq!(a.sync().expect("sync"), vec![]);
    let advance_id = a.advance(Timestamp(120_000)).expect("advance");
    let replies = a.sync().expect("sync after advance");
    assert_eq!(replies.len(), 1, "one absence firing: {replies:?}");
    match &replies[0] {
        Reply::Reaction { id, to, payload } => {
            assert_eq!(*id, advance_id);
            assert_eq!(to, "http://sink/0");
            assert_eq!(payload.to_string(), "missing{v[\"1\"]}");
        }
        other => panic!("expected a reaction, got {other:?}"),
    }
}

/// Rate-limited sessions see explicit `throttled` replies, and admitted
/// traffic still processes (the oracle sees only admitted events).
#[test]
fn throttled_events_are_rejected_explicitly() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        NetConfig {
            rate_limit: Some(RateLimit {
                events_per_sec: 1,
                burst: 3,
            }),
            ..default_cfg()
        },
    )
    .expect("bind");
    server.with_engine(|e| {
        e.install_source(
            r#"RULE r0 ON alpha{{v[[var X]]}} DO SEND saw{v[var X]} TO "http://sink/0" END"#,
        )
        .expect("install")
    });
    let mut a = NetClient::connect(server.local_addr(), "http://a/").expect("connect");
    for i in 0..10u64 {
        a.send_event(event_payload(0, i), Some(Timestamp(1 + i)))
            .expect("send");
    }
    let replies = a.sync().expect("sync");
    let throttled = replies
        .iter()
        .filter(|r| matches!(r, Reply::Throttled { .. }))
        .count();
    let reactions = replies
        .iter()
        .filter(|r| matches!(r, Reply::Reaction { .. }))
        .count();
    assert_eq!(throttled, 7, "burst of 3 admits 3 of 10: {replies:?}");
    assert_eq!(reactions, 3, "admitted events still react: {replies:?}");
    assert_eq!(server.stats().throttled_replies, 7);
}
