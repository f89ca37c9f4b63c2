//! Executable documentation: every fenced snippet in
//! `docs/WIRE_PROTOCOL.md` is decoded by the decoder its fence tag
//! names, so the protocol reference cannot drift from the envelopes the
//! server actually speaks. Envelope snippets are round-tripped through
//! their constructed form, and the worked hex frames are re-encoded
//! byte-for-byte — the documented CRCs are checked, not trusted.

use reweb::net::wire::{ErrorCode, Reply, Request};
use reweb::term::frame::{encode_frame, scan_frames, TailState};
use reweb::term::{decode, parse_term, parser};

/// A fenced snippet: tag, body, and the line the fence opened on.
struct Snippet {
    tag: String,
    body: String,
    line: usize,
}

fn extract_snippets(doc: &str) -> Vec<Snippet> {
    let mut out = Vec::new();
    let mut current: Option<Snippet> = None;
    for (i, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("```") {
            match current.take() {
                Some(s) => out.push(s),
                None => {
                    current = Some(Snippet {
                        tag: rest.trim().to_string(),
                        body: String::new(),
                        line: i + 1,
                    })
                }
            }
        } else if let Some(s) = current.as_mut() {
            s.body.push_str(line);
            s.body.push('\n');
        }
    }
    assert!(current.is_none(), "unclosed code fence in WIRE_PROTOCOL.md");
    out
}

/// Panic with the snippet's location.
fn fail<T>(s: &Snippet, e: &dyn std::fmt::Display) -> T {
    panic!(
        "docs/WIRE_PROTOCOL.md:{} — `{}` snippet does not decode: {e}\n{}",
        s.line, s.tag, s.body
    )
}

/// The decoder wall on a documented example: the one-pass decoder
/// returns exactly what the reference parser returns.
fn assert_decoder_wall(s: &Snippet, bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("documented frames are UTF-8");
    assert_eq!(
        decode(bytes),
        parser::reference(text),
        "docs/WIRE_PROTOCOL.md:{} — decode differs from the reference parser",
        s.line
    );
}

/// A hex fence body → bytes: `#` starts a comment, everything else must
/// be whitespace-separated hex pairs.
fn parse_hex(s: &Snippet) -> Vec<u8> {
    let mut out = Vec::new();
    for line in s.body.lines() {
        let code = line.split('#').next().unwrap_or("");
        for tok in code.split_whitespace() {
            let b = u8::from_str_radix(tok, 16).unwrap_or_else(|_| {
                panic!(
                    "docs/WIRE_PROTOCOL.md:{} — `{tok}` is not a hex byte",
                    s.line
                )
            });
            out.push(b);
        }
    }
    out
}

#[test]
fn every_example_in_the_reference_decodes() {
    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let snippets = extract_snippets(doc);

    let mut checked = 0usize;
    let mut hex_frames = 0usize;
    for s in &snippets {
        match s.tag.as_str() {
            // Untagged/`text` fences are grammar and session sketches.
            "" | "text" => continue,
            "reweb-request" => {
                assert_decoder_wall(s, s.body.as_bytes());
                let t = parse_term(&s.body).unwrap_or_else(|e| fail(s, &e));
                let req = Request::from_term(&t).unwrap_or_else(|e| fail(s, &e));
                // The constructed form must reparse to the same request
                // (the Display round-trip the WAL and wire both rely on).
                let printed = req.to_term().to_string();
                let back = Request::from_term(&parse_term(&printed).unwrap())
                    .unwrap_or_else(|e| fail(s, &e));
                assert_eq!(
                    req, back,
                    "round-trip changed the request at line {}",
                    s.line
                );
            }
            "reweb-reply" => {
                assert_decoder_wall(s, s.body.as_bytes());
                let t = parse_term(&s.body).unwrap_or_else(|e| fail(s, &e));
                let rep = Reply::from_term(&t).unwrap_or_else(|e| fail(s, &e));
                let printed = rep.to_term().to_string();
                let back = Reply::from_term(&parse_term(&printed).unwrap())
                    .unwrap_or_else(|e| fail(s, &e));
                assert_eq!(rep, back, "round-trip changed the reply at line {}", s.line);
            }
            "reweb-term" => {
                assert_decoder_wall(s, s.body.as_bytes());
                let t = parse_term(&s.body).unwrap_or_else(|e| fail(s, &e));
                let reparsed = parse_term(&t.to_string()).unwrap_or_else(|e| fail(s, &e));
                assert_eq!(t, reparsed, "print is not a fixed point at line {}", s.line);
            }
            "reweb-frame-hex" => {
                let bytes = parse_hex(s);
                let scan = scan_frames(&bytes);
                assert_eq!(
                    scan.frames.len(),
                    1,
                    "docs/WIRE_PROTOCOL.md:{} — expected exactly one frame, found {}",
                    s.line,
                    scan.frames.len()
                );
                assert!(
                    matches!(scan.tail, TailState::Clean),
                    "docs/WIRE_PROTOCOL.md:{} — trailing bytes after the frame: {:?}",
                    s.line,
                    scan.tail
                );
                let payload = &scan.frames[0].1;
                assert_decoder_wall(s, payload);
                // The payload must be a protocol envelope — one
                // direction or the other (labels are disjoint).
                let as_req = Request::decode(payload);
                let as_rep = Reply::decode(payload);
                assert!(
                    as_req.is_ok() || as_rep.is_ok(),
                    "docs/WIRE_PROTOCOL.md:{} — hex payload is not an envelope: {} / {}",
                    s.line,
                    as_req.unwrap_err(),
                    as_rep.unwrap_err()
                );
                // Re-encoding must reproduce the documented bytes — this
                // verifies the worked `len` and CRC values in the doc.
                assert_eq!(
                    encode_frame(payload),
                    bytes,
                    "docs/WIRE_PROTOCOL.md:{} — documented frame bytes are not canonical",
                    s.line
                );
                hex_frames += 1;
            }
            other => panic!(
                "docs/WIRE_PROTOCOL.md:{} — unknown fence tag `{other}`; \
                 add a decoder arm here or retag the snippet",
                s.line
            ),
        }
        checked += 1;
    }
    // Guard against the reference quietly losing its examples.
    assert!(
        checked >= 14,
        "expected at least 14 verified snippets, found {checked}"
    );
    assert!(
        hex_frames >= 2,
        "expected at least 2 worked byte examples, found {hex_frames}"
    );
}

/// The documented hex frames carry the exact envelopes the prose says
/// they do — `sync{id["7"]}` and its `done` answer.
#[test]
fn worked_frames_are_the_sync_exchange() {
    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let frames: Vec<Vec<u8>> = extract_snippets(doc)
        .iter()
        .filter(|s| s.tag == "reweb-frame-hex")
        .map(parse_hex)
        .collect();
    assert_eq!(frames[0], (Request::Sync { id: 7 }).encode());
    assert_eq!(frames[1], (Reply::Done { id: 7 }).encode());
}

/// The nesting-cap example in §4 is the reply the decoder really gives:
/// an `event` whose payload opens 127 `a[` brackets nests 129 deep
/// counting the envelope's own two, one past the cap.
#[test]
fn nesting_cap_example_is_the_decoders_refusal() {
    use reweb::term::MAX_NESTING;
    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let snippet = extract_snippets(doc)
        .into_iter()
        .find(|s| s.tag == "reweb-reply" && s.body.contains("nesting deeper"))
        .expect("§4 documents the nesting-cap refusal");
    let Ok(Reply::Error {
        code: ErrorCode::BadEnvelope,
        detail,
        id: None,
        retry_ms: None,
    }) = Reply::from_term(&parse_term(&snippet.body).unwrap())
    else {
        panic!("the nesting-cap example is not a bare bad-envelope error")
    };
    let depth = MAX_NESTING - 1;
    let deep = format!(
        "event{{id[\"5\"], payload[{}\"x\"{}]}}",
        "a[".repeat(depth),
        "]".repeat(depth)
    );
    let refused = Request::decode(deep.as_bytes()).expect_err("one past the cap");
    assert_eq!(refused.0, detail);
    // One bracket shallower is an ordinary event.
    let shallower = format!(
        "event{{id[\"5\"], payload[{}\"x\"{}]}}",
        "a[".repeat(depth - 1),
        "]".repeat(depth - 1)
    );
    assert!(matches!(
        Request::decode(shallower.as_bytes()),
        Ok(Request::Event { .. })
    ));
}

/// Every error code in the §4 catalogue table parses back through
/// [`ErrorCode::parse`], and every code the enum can produce appears in
/// the table — the catalogue is complete in both directions.
#[test]
fn error_catalogue_matches_the_enum() {
    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let mut documented = Vec::new();
    for line in doc.lines() {
        // Table rows look like: | `bad-schema` | … | closes |
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(code) = rest.split('`').next() else {
            continue;
        };
        if let Ok(c) = ErrorCode::parse(code) {
            assert_eq!(c.as_str(), code);
            documented.push(code.to_string());
        }
    }
    let all = [
        ErrorCode::BadSchema,
        ErrorCode::NoHello,
        ErrorCode::BadEnvelope,
        ErrorCode::MalformedFrame,
        ErrorCode::OversizedFrame,
        ErrorCode::NotGateway,
        ErrorCode::Engine,
        ErrorCode::ShuttingDown,
        ErrorCode::Busy,
    ];
    for code in all {
        assert!(
            documented.contains(&code.as_str().to_string()),
            "error code `{code}` is missing from the docs/WIRE_PROTOCOL.md catalogue"
        );
    }
    assert_eq!(
        documented.len(),
        all.len(),
        "duplicate rows in the catalogue"
    );
}

/// The defaults table in §6 matches [`reweb::net::NetConfig`]'s actual
/// `Default` and the fixed batch fill wait — the doc may round units
/// but not drift.
#[test]
fn defaults_table_matches_netconfig() {
    use reweb::net::router::BATCH_FILL_WAIT;
    use reweb::net::NetConfig;
    let cfg = NetConfig::default();
    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let cell = |field: &str| -> String {
        doc.lines()
            .find(|l| l.contains(&format!("| `{field}` |")))
            .unwrap_or_else(|| panic!("defaults table has no `{field}` row"))
            .split('|')
            .nth(2)
            .unwrap()
            .trim()
            .to_string()
    };
    assert_eq!(cell("max_batch"), cfg.max_batch.to_string());
    assert_eq!(
        cell("BATCH_FILL_WAIT"),
        format!("{} ms, fixed", BATCH_FILL_WAIT.as_millis())
    );
    assert_eq!(cell("queue_capacity"), cfg.queue_capacity.to_string());
    assert_eq!(cell("max_body"), "1 MiB");
    assert_eq!(cfg.max_body, 1 << 20);
    assert_eq!(cell("reply_buffer"), cfg.reply_buffer.to_string());
    assert_eq!(cell("rate_limit"), "off");
    assert!(cfg.rate_limit.is_none());
    assert_eq!(cell("max_connections"), "off");
    assert!(cfg.max_connections.is_none());
    assert_eq!(cell("delivery_journal"), "off");
    assert!(cfg.delivery_journal.is_none());
}

/// The hello example in §3 actually opens a session against a live
/// server — the reference's opening lines are not hypothetical.
#[test]
fn documented_hello_opens_a_real_session() {
    use reweb::core::ReactiveEngine;
    use reweb::net::{NetConfig, NetServer};
    use std::io::Write;

    let mut server = NetServer::bind(
        "127.0.0.1:0",
        ReactiveEngine::new("http://doc.example"),
        NetConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let doc = include_str!("../docs/WIRE_PROTOCOL.md");
    let hello = extract_snippets(doc)
        .into_iter()
        .find(|s| s.tag == "reweb-request" && s.body.trim_start().starts_with("hello"))
        .expect("the reference documents hello");

    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    let payload = parse_term(&hello.body).unwrap().to_string();
    sock.write_all(&encode_frame(payload.as_bytes())).unwrap();
    sock.write_all(&(Request::Sync { id: 7 }).encode()).unwrap();

    let mut replies = Vec::new();
    let mut buf = Vec::new();
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    while replies.len() < 2 {
        let n = sock.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed before welcome+done");
        buf.extend_from_slice(&chunk[..n]);
        let scan = scan_frames(&buf);
        replies = scan
            .frames
            .iter()
            .map(|(_, p)| Reply::decode(p).expect("server sent a valid reply"))
            .collect();
    }
    assert!(
        matches!(&replies[0], Reply::Welcome { schema, .. } if schema == "reweb-net/1"),
        "expected welcome, got {:?}",
        replies[0]
    );
    assert_eq!(replies[1], Reply::Done { id: 7 });
    drop(sock);
    server.shutdown();
}
