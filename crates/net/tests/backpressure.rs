//! Deterministic fault and backpressure tests: every degradation mode
//! the wire protocol documents — `busy`, `throttled` (covered in
//! `net_equivalence.rs`), oversized frames, slow readers, missing or
//! malformed handshakes, non-gateway overrides — must be observable as
//! an explicit reply or counter, and must degrade *that connection
//! only* while the engine and every other client keep working.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use reweb_core::ReactiveEngine;
use reweb_net::wire::{ErrorCode, Reply, Request};
use reweb_net::{NetClient, NetConfig, NetServer};
use reweb_term::frame::{encode_frame, read_frame, FrameError, MAX_FRAME_LEN};
use reweb_term::parse_term;

/// One rule that echoes every `ping` so each admitted event produces
/// exactly one reaction — admitted vs. rejected is countable.
const ECHO: &str = r#"RULE r0 ON ping{v[[var X]]} DO SEND pong{v[var X]} TO "http://sink/0" END"#;

fn ping(v: &str) -> reweb_term::Term {
    parse_term(&format!("ping{{v[\"{v}\"]}}")).expect("ping payload")
}

fn wait_until(what: &str, f: impl Fn() -> bool) {
    for _ in 0..4000 {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// `n` valid `event` frames, ids and times counting from 1 000,
/// concatenated: a pipelined window written in one go.
fn event_window(n: u64) -> Vec<u8> {
    (0..n)
        .flat_map(|i| {
            Request::Event {
                id: 1_000 + i,
                at: Some(reweb_term::Timestamp(1_000 + i)),
                from: None,
                credentials: None,
                payload: ping(&i.to_string()),
            }
            .encode()
        })
        .collect()
}

/// Read one reply frame from a raw socket (for tests that bypass
/// [`NetClient`] to violate the handshake or the framing).
fn recv_frame(stream: &mut TcpStream) -> Result<Vec<u8>, FrameError> {
    read_frame(stream, MAX_FRAME_LEN as usize)
}

/// A full ingress queue answers `busy` — a bounded, explicit rejection,
/// never silent loss and never an unbounded buffer. Stall the driver by
/// holding the engine lock, overflow the queue, then release and check
/// that exactly the admitted events produced reactions.
#[test]
fn queue_full_yields_busy_replies() {
    let cfg = NetConfig {
        max_batch: 1,
        queue_capacity: 2,
        ..NetConfig::default()
    };
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        cfg,
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(ECHO).expect("install"));

    // Connect before stalling the driver. The handshake itself never
    // takes the engine lock (the descriptor is read once at bind).
    let mut c = NetClient::connect(server.local_addr(), "http://c/").expect("connect");

    let hold = AtomicBool::new(true);
    let held = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            server.with_engine(|_| {
                held.store(true, Ordering::SeqCst);
                while hold.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        wait_until("engine lock held", || held.load(Ordering::SeqCst));

        // The driver can pop at most one batch (max_batch = 1) before
        // blocking on the engine lock, and the queue holds two more:
        // of 8 events, at most 3 are admitted.
        for v in 0..8u32 {
            c.send_event(
                ping(&v.to_string()),
                Some(reweb_term::Timestamp(1_000 + v as u64)),
            )
            .expect("send");
        }
        wait_until("all 8 events admitted or rejected", || {
            let st = server.stats();
            st.msgs_enqueued + st.busy_replies == 8
        });
        hold.store(false, Ordering::SeqCst);
    });

    let replies = c.sync().expect("sync");
    let busy = replies
        .iter()
        .filter(|r| {
            if let Reply::Busy {
                depth, capacity, ..
            } = r
            {
                assert_eq!(*capacity, 2, "busy reply reports the configured bound");
                assert!(*depth >= *capacity, "busy reply reports a full queue");
                true
            } else {
                false
            }
        })
        .count();
    let reactions = replies
        .iter()
        .filter(|r| matches!(r, Reply::Reaction { .. }))
        .count();
    assert_eq!(
        busy + reactions,
        8,
        "every event answered: busy or reaction"
    );
    assert!(
        (5..=6).contains(&busy),
        "8 events against capacity 2 + one in-flight batch: got {busy} busy"
    );
    let st = server.stats();
    assert_eq!(st.busy_replies, busy as u64);
    assert_eq!(st.msgs_processed, reactions as u64);

    // Backpressure is transient: the same connection is fully served
    // once the queue drains.
    c.send_event(ping("after"), Some(reweb_term::Timestamp(2_000)))
        .expect("send");
    let after = c.sync().expect("sync after");
    assert_eq!(after.len(), 1);
    assert!(matches!(after[0], Reply::Reaction { .. }));
}

/// A pipelined window is read in bulk and wakes the driver once per
/// batch, not once per event: 512 events written in one `send_raw`,
/// then a `sync`. Each connection reads through one buffer (two `read`
/// calls per frame without it, 1 026 here), and a push wakes the
/// driver only at the depth it can act on (over a hundred wake-ups here
/// when every push notified).
#[test]
fn a_pipelined_window_is_read_in_bulk_and_wakes_the_driver_per_batch() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        NetConfig::default(),
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(ECHO).expect("install"));
    let mut c = NetClient::connect(server.local_addr(), "http://c/").expect("connect");
    let window = event_window(512);
    let before = server.stats();
    c.send_raw(&window).expect("send window");
    let replies = c.sync().expect("sync");
    let after = server.stats();

    assert_eq!(replies.len(), 512, "one reaction per event");
    assert_eq!(after.frames_in - before.frames_in, 513, "512 events + sync");
    assert_eq!(after.msgs_processed - before.msgs_processed, 512);
    let reads = after.socket_reads - before.socket_reads;
    assert!(reads <= 64, "{reads} socket reads for 513 frames");
    let wakeups = after.driver_wakeups - before.driver_wakeups;
    assert!(wakeups <= 16, "{wakeups} driver wake-ups for 512 events");
}

/// An oversized frame is rejected from its header alone — its body is
/// never allocated or parsed — with an explicit error, and closes only
/// the offending connection.
#[test]
fn oversized_frame_closes_offender_only() {
    let cfg = NetConfig {
        max_body: 256,
        ..NetConfig::default()
    };
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        cfg,
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(ECHO).expect("install"));
    let addr = server.local_addr();

    let mut a = NetClient::connect(addr, "http://a/").expect("connect a");
    let mut b = NetClient::connect(addr, "http://b/").expect("connect b");

    b.send_event(ping(&"x".repeat(1024)), Some(reweb_term::Timestamp(1_000)))
        .expect("send oversized");
    match b.recv().expect("error reply before close") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::OversizedFrame),
        other => panic!("expected oversized-frame error, got {other:?}"),
    }
    assert!(b.recv().is_err(), "offending connection is closed");
    wait_until("framing error counted", || {
        server.stats().framing_errors == 1
    });

    // The other connection never notices.
    a.send_event(ping("ok"), Some(reweb_term::Timestamp(1_001)))
        .expect("send a");
    let replies = a.sync().expect("sync a");
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Reaction { .. }));
    assert_eq!(server.stats().msgs_processed, 1);
}

/// Every framing fault class, one row each, on a raw session after a
/// good `hello`: the reply it earns (or that none is sent), its
/// `framing_errors` count, and a neighbouring session whose `sync` is
/// still answered. One envelope fault rides along: an `event` whose
/// payload nests 10 000 brackets deep — a valid frame well under
/// `max_body` that once overflowed the reader thread's stack and aborted
/// the process. It earns `bad-envelope`, counts no framing error, and
/// the session goes on to answer the `sync` behind it.
#[test]
fn every_framing_fault_class_is_answered_and_counted() {
    framing_fault_rows(0);
}

/// The same rows with good `event` frames ahead of each fault in the
/// same write, so the server's read buffer holds valid frames and the
/// fault together: the events are admitted before the fault is
/// answered and then processed, and the fault still earns the same
/// reply, the same count and the same close.
#[test]
fn framing_faults_behind_good_frames_are_answered_and_counted() {
    for k in [1, 64] {
        framing_fault_rows(k);
    }
}

/// One session per fault row, each writing `k` valid events and then
/// the fault in a single `write_all`.
fn framing_fault_rows(k: usize) {
    let cfg = NetConfig {
        max_body: 64 * 1024,
        ..NetConfig::default()
    };
    let max_body = cfg.max_body as u32;
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        cfg,
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut neighbour = NetClient::connect(addr, "http://neighbour/").expect("connect neighbour");

    let whole = Request::Sync { id: 9 }.encode();
    let mut corrupt = whole.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    let header = |len: u32| [len.to_le_bytes(), [0u8; 4]].concat();
    let deep = format!(
        "event{{id[\"5\"], payload[{}\"x\"{}]}}",
        "a[".repeat(10_000),
        "]".repeat(10_000)
    );
    let deep = encode_frame(deep.as_bytes());
    assert!(deep.len() < max_body as usize);
    // (what, bytes, the error reply, counted as a framing error)
    let cases = [
        (
            "truncated header",
            whole[..3].to_vec(),
            Some(ErrorCode::MalformedFrame),
            true,
        ),
        (
            "truncated payload",
            whole[..whole.len() - 2].to_vec(),
            Some(ErrorCode::MalformedFrame),
            true,
        ),
        (
            "CRC mismatch",
            corrupt,
            Some(ErrorCode::MalformedFrame),
            true,
        ),
        (
            "header over max_body",
            header(max_body + 1),
            Some(ErrorCode::OversizedFrame),
            true,
        ),
        (
            "header over MAX_FRAME_LEN",
            header(MAX_FRAME_LEN + 1),
            Some(ErrorCode::OversizedFrame),
            true,
        ),
        ("clean EOF after a whole frame", whole.clone(), None, false),
        (
            "payload nested past MAX_NESTING",
            deep,
            Some(ErrorCode::BadEnvelope),
            false,
        ),
    ];
    let events = event_window(k as u64);
    for (what, bytes, want, framing) in cases {
        let what = format!("{what} behind {k} events");
        let what = what.as_str();
        let before = server.stats().framing_errors;
        let (enqueued, processed) = {
            let st = server.stats();
            (st.msgs_enqueued, st.msgs_processed)
        };
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let hello = Request::Hello {
            from: "http://raw/".into(),
            credentials: None,
            gateway: false,
        };
        raw.write_all(&hello.encode()).expect("write hello");
        let welcome = recv_frame(&mut raw).expect("welcome");
        assert!(
            matches!(Reply::decode(&welcome), Ok(Reply::Welcome { .. })),
            "{what}"
        );
        raw.write_all(&[events.as_slice(), &bytes].concat())
            .expect("write events and fault");
        let mut errors = Vec::new();
        let mut read_reply = |raw: &mut TcpStream| match recv_frame(raw) {
            Ok(payload) => match Reply::decode(&payload).expect("reply decodes") {
                Reply::Error { code, .. } => {
                    // The reader admits the events ahead of the fault
                    // before it reads, let alone answers, the fault.
                    assert_eq!(
                        server.stats().msgs_enqueued,
                        enqueued + k as u64,
                        "{what}: events admitted before the fault's reply"
                    );
                    errors.push(code);
                    true
                }
                Reply::Done { id: 9 } => true,
                other => panic!("{what}: unexpected {other:?}"),
            },
            Err(FrameError::Eof) => false,
            Err(e) => panic!("{what}: the server did not close cleanly: {e}"),
        };
        if want == Some(ErrorCode::BadEnvelope) {
            // An envelope fault leaves the session open: the fault's
            // reply, then the answer to a `sync` sent after it.
            raw.write_all(&whole).expect("write sync");
            assert!(read_reply(&mut raw), "{what}: no reply to the fault");
            let done = recv_frame(&mut raw).expect("the session goes on");
            assert_eq!(Reply::decode(&done), Ok(Reply::Done { id: 9 }), "{what}");
            // The `sync` fences the events: processed before its `done`.
            assert_eq!(
                server.stats().msgs_processed,
                processed + k as u64,
                "{what}"
            );
        }
        raw.shutdown(Shutdown::Write).expect("half-close");
        // Replies until the server closes: the `done` for the whole
        // frame may race the close and be dropped; an error may not.
        while read_reply(&mut raw) {}
        assert_eq!(errors, want.into_iter().collect::<Vec<_>>(), "{what}");
        assert_eq!(
            server.stats().framing_errors,
            before + u64::from(framing),
            "{what}"
        );
        assert_eq!(server.stats().msgs_enqueued, enqueued + k as u64, "{what}");
        wait_until("events ahead of the fault processed", || {
            server.stats().msgs_processed == processed + k as u64
        });
        assert!(
            neighbour.sync().expect("neighbour sync").is_empty(),
            "{what}"
        );
    }
}

/// A reader that never drains its replies gets them dropped (counted,
/// bounded buffering) — the driver never blocks on a slow connection,
/// and other clients stay fully served.
#[test]
fn slow_reader_drops_replies_not_the_engine() {
    let cfg = NetConfig {
        reply_buffer: 1,
        ..NetConfig::default()
    };
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        cfg,
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(ECHO).expect("install"));
    let addr = server.local_addr();

    // Big echoes fill the OS socket buffers quickly; once the writer
    // blocks and its one-slot buffer is full, further replies drop.
    let mut slow = NetClient::connect(addr, "http://slow/").expect("connect slow");
    let big = "x".repeat(32 * 1024);
    let mut sent = 0u64;
    for _ in 0..3000 {
        slow.send_event(ping(&big), Some(reweb_term::Timestamp(1_000)))
            .expect("send");
        sent += 1;
        if server.stats().replies_dropped > 0 {
            break;
        }
    }
    let st = server.stats();
    assert!(
        st.replies_dropped > 0,
        "no drops after {sent} undrained 32KiB echoes"
    );
    // The engine processed everything that was admitted — drops happen
    // at the reply boundary, not inside the batch.
    wait_until("all admitted events processed", || {
        let st = server.stats();
        st.msgs_processed == st.msgs_enqueued && st.msgs_enqueued == sent
    });

    // A well-behaved client on the same server is unaffected.
    let mut ok = NetClient::connect(addr, "http://ok/").expect("connect ok");
    ok.send_event(ping("ok"), Some(reweb_term::Timestamp(1_001)))
        .expect("send ok");
    let replies = ok.sync().expect("sync ok");
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Reaction { .. }));
}

/// Per-event `from`/`cred` overrides are a gateway privilege: ordinary
/// sessions get `not-gateway` for that event and keep their session.
#[test]
fn sender_override_requires_gateway() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        NetConfig::default(),
    )
    .expect("bind");
    server.with_engine(|e| e.install_source(ECHO).expect("install"));
    let addr = server.local_addr();

    let mut plain = NetClient::connect(addr, "http://plain/").expect("connect");
    let id = plain
        .send_event_as(
            "http://spoofed/",
            None,
            ping("1"),
            Some(reweb_term::Timestamp(1_000)),
        )
        .expect("send");
    let replies = plain.sync().expect("sync");
    assert_eq!(replies.len(), 1);
    match &replies[0] {
        Reply::Error { code, id: got, .. } => {
            assert_eq!(*code, ErrorCode::NotGateway);
            assert_eq!(*got, Some(id), "error names the offending event");
        }
        other => panic!("expected not-gateway error, got {other:?}"),
    }
    // The session survives the rejection.
    plain
        .send_event(ping("2"), Some(reweb_term::Timestamp(1_001)))
        .expect("send");
    let replies = plain.sync().expect("sync");
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Reaction { .. }));

    // A gateway session may override per event.
    let mut gw = NetClient::connect_with(addr, "http://gw/", None, true).expect("connect gw");
    gw.send_event_as(
        "http://origin/",
        None,
        ping("3"),
        Some(reweb_term::Timestamp(1_002)),
    )
    .expect("send as");
    let replies = gw.sync().expect("sync gw");
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Reaction { .. }));
    assert_eq!(server.stats().envelope_errors, 1);
}

/// The first envelope must be `hello`: anything else is answered with
/// `no-hello` and the connection is closed.
#[test]
fn first_envelope_must_be_hello() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        NetConfig::default(),
    )
    .expect("bind");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let req = Request::Event {
        id: 1,
        at: Some(reweb_term::Timestamp(1_000)),
        from: None,
        credentials: None,
        payload: ping("1"),
    };
    raw.write_all(&req.encode()).expect("write");
    let payload = recv_frame(&mut raw).expect("reply");
    match Reply::decode(&payload).expect("decode") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::NoHello),
        other => panic!("expected no-hello error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        raw.read_to_end(&mut rest).expect("eof"),
        0,
        "connection closed after no-hello"
    );
}

/// A `hello` naming an unknown schema is refused with `bad-schema`.
#[test]
fn unknown_schema_is_refused() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://server/".to_string()),
        NetConfig::default(),
    )
    .expect("bind");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = parse_term(r#"hello{schema["reweb-net/999"], from["http://x/"]}"#).unwrap();
    raw.write_all(&reweb_term::frame::encode_frame(
        hello.to_string().as_bytes(),
    ))
    .expect("write");
    let payload = recv_frame(&mut raw).expect("reply");
    match Reply::decode(&payload).expect("decode") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::BadSchema),
        other => panic!("expected bad-schema error, got {other:?}"),
    }
}

/// A driver that panicked mid-batch leaves the engine mutex poisoned;
/// the handshake must not depend on it. A fresh connection still gets
/// its `welcome`, because the engine descriptor is read once at bind.
#[test]
fn welcome_survives_a_poisoned_engine_lock() {
    let mut engine = ReactiveEngine::new("http://server/".to_string());
    engine.rig_panic_on_label("boom");
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).expect("bind");

    let mut c = NetClient::connect(server.local_addr(), "http://c/").expect("connect");
    c.send_event(
        parse_term("boom").unwrap(),
        Some(reweb_term::Timestamp(1_000)),
    )
    .expect("send");
    wait_until("engine mutex poisoned", || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.with_engine(|_| ())))
            .is_err()
    });

    // A raw socket with a read timeout: without the cached descriptor
    // the reader thread dies on the poisoned lock while the writer keeps
    // the socket open, so the reply would never come.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let hello = Request::Hello {
        from: "http://late/".into(),
        credentials: None,
        gateway: false,
    };
    raw.write_all(&hello.encode()).expect("write hello");
    let payload = recv_frame(&mut raw).expect("a reply despite the poisoned engine lock");
    match Reply::decode(&payload).expect("decode") {
        Reply::Welcome { engine, .. } => assert_eq!(engine, "single"),
        other => panic!("expected welcome, got {other:?}"),
    }
}
