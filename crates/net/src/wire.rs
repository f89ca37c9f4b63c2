//! The wire protocol: framed textual terms over a byte stream.
//!
//! Every message on a connection — in either direction — is one *frame*
//! ([`reweb_term::frame`]: `[len u32 LE][CRC-32 u32 LE][payload]`) whose
//! payload is a single envelope term in the textual term syntax (read
//! by [`reweb_term::decode()`], written by `Display`). The WAL already
//! proved this format portable and pager-readable; the network reuses it
//! verbatim, and the same decoder, so `strings` on a packet capture is a
//! readable session history.
//!
//! Client→server envelopes are [`Request`]s, server→client envelopes are
//! [`Reply`]s. The full grammar, the error- and backpressure-reply
//! catalogue, and worked byte examples live in `docs/WIRE_PROTOCOL.md`;
//! every fenced example there is parsed and round-tripped by
//! `tests/wire_protocol_doc.rs` at the workspace root.
//!
//! Fault classes are deliberately split by what the server can still
//! trust afterwards:
//!
//! - **framing faults** (bad CRC, oversized or truncated frame): the
//!   byte stream itself is broken, so the server sends one
//!   [`ErrorCode`] reply best-effort and closes *that connection* —
//!   never more;
//! - **envelope faults** (valid frame, unparsable or ill-shaped term):
//!   the stream is still framed correctly, so the server replies with
//!   [`ErrorCode::BadEnvelope`] and the session continues.

use std::borrow::Cow;
use std::fmt;

use reweb_core::{Credentials, InMessage, MessageMeta};
use reweb_term::frame::encode_frame;
use reweb_term::{decode, Term, TermBuilder, Timestamp};

/// Schema string every session negotiates in its `hello`/`welcome`
/// exchange. Bump when the envelope grammar changes incompatibly.
pub const WIRE_SCHEMA: &str = "reweb-net/1";

/// A valid frame whose payload is not a valid envelope: the term failed
/// to parse, or parsed into a shape the protocol does not define. The
/// connection survives this (unlike a framing fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError(pub String);

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad envelope: {}", self.0)
    }
}

impl std::error::Error for EnvelopeError {}

type Result<T> = std::result::Result<T, EnvelopeError>;

fn field<'a>(t: &'a Term, name: &str) -> Result<&'a Term> {
    t.field(name)
        .ok_or_else(|| EnvelopeError(format!("field `{name}` missing in {t}")))
}

fn field_str<'a>(t: &'a Term, name: &str) -> Result<Cow<'a, str>> {
    field(t, name).map(Term::text_str)
}

fn field_text(t: &Term, name: &str) -> Result<String> {
    field_str(t, name).map(Cow::into_owned)
}

fn field_u64(t: &Term, name: &str) -> Result<u64> {
    let s = field_str(t, name)?;
    s.parse()
        .map_err(|_| EnvelopeError(format!("field `{name}` is not a number: {s}")))
}

fn opt_field_u64(t: &Term, name: &str) -> Result<Option<u64>> {
    t.field(name).map(|_| field_u64(t, name)).transpose()
}

fn field_child<'a>(t: &'a Term, name: &str) -> Result<&'a Term> {
    field(t, name)?
        .children()
        .first()
        .ok_or_else(|| EnvelopeError(format!("field `{name}` is empty in {t}")))
}

fn cred_from(t: &Term) -> Result<Option<Credentials>> {
    t.field("cred")
        .map(|c| {
            Ok(Credentials {
                principal: field_text(c, "principal")?,
                secret: field_text(c, "secret")?,
            })
        })
        .transpose()
}

/// The head every correlated envelope shares: `label{id["…"], …}`.
fn envelope(label: &str, id: u64) -> TermBuilder {
    Term::build(label).unordered().field("id", id.to_string())
}

fn cred_term(c: &Credentials) -> Term {
    Term::build("cred")
        .unordered()
        .field("principal", &c.principal)
        .field("secret", &c.secret)
        .finish()
}

/// One client→server envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session opener — MUST be the first envelope on a connection.
    /// Names the sender and negotiates the schema; the server answers
    /// with [`Reply::Welcome`] or an [`ErrorCode`] reply and a close.
    Hello {
        /// The client's URI: the `from` every event on this session is
        /// attributed to (unless the session is a gateway).
        from: String,
        /// Session credentials, forwarded into AAA admission.
        credentials: Option<Credentials>,
        /// A gateway session relays traffic for *other* principals:
        /// each [`Request::Event`] may carry its own `from`/`cred`,
        /// which the server honors instead of the session identity.
        /// The websim TCP front uses this to preserve per-envelope
        /// senders.
        gateway: bool,
    },
    /// One event for the engine.
    Event {
        /// Client-chosen correlation id, echoed on every reply this
        /// event provokes ([`Reply::Reaction`], error and backpressure
        /// replies).
        id: u64,
        /// Event time in engine milliseconds. Omitted ⇒ the server
        /// stamps its wall clock. Either way the ingress clock is
        /// monotone: the effective time is clamped to
        /// `max(previous, at)` across the whole ingress stream.
        at: Option<Timestamp>,
        /// Gateway sessions only: the original sender this event is
        /// relayed for.
        from: Option<String>,
        /// Gateway sessions only: the original sender's credentials.
        credentials: Option<Credentials>,
        /// The event term delivered to the engine.
        payload: Term,
    },
    /// Explicitly advance the engine clock (fires due absence
    /// deadlines). Reactions are routed back to this session.
    Advance {
        /// Correlation id, echoed on replies.
        id: u64,
        /// Target engine time.
        at: Timestamp,
    },
    /// One reaction pushed by a peer's delivery agent
    /// ([`crate::delivery`]). Unlike [`Request::Event`], a `deliver`
    /// carries a globally unique `key` so the receiver can make
    /// at-least-once retries idempotent: the server ingests the payload
    /// exactly once per key and answers [`Reply::Accepted`] (with the
    /// duplicate flag set on re-sends), only after the engine has
    /// processed the batch containing it.
    Deliver {
        /// Correlation id, echoed on the `accepted` (or error) reply.
        id: u64,
        /// Globally unique delivery key (`<origin-uri>#<outbox-seq>`);
        /// the receiver deduplicates retries by this key.
        key: String,
        /// Event time of the originating reaction, in engine
        /// milliseconds. Omitted ⇒ the receiver stamps its wall clock.
        at: Option<Timestamp>,
        /// The reaction term, ingested as an event by the receiver.
        payload: Term,
    },
    /// Flush marker: the server answers [`Reply::Done`] with the same
    /// id once everything this session enqueued before the marker has
    /// been processed and its replies written. The blocking client uses
    /// this for lockstep request/response turns.
    Sync {
        /// Correlation id, echoed on the `done` reply.
        id: u64,
    },
    /// Runtime observability query: the server answers [`Reply::Stats`]
    /// with the current histogram snapshot (batch latency, fsync stall,
    /// queue wait, delivery round-trip). Answered from shared atomics —
    /// never queued behind the engine, so stats stay readable under
    /// ingress pressure.
    Stats {
        /// Correlation id, echoed on the `stats` reply.
        id: u64,
    },
    /// Runtime observability query: the server answers [`Reply::Trace`]
    /// with the recorded span chain of one trace id (as far as the
    /// flight recorder still remembers it).
    Trace {
        /// Correlation id, echoed on the `trace` reply.
        id: u64,
        /// The trace id whose span chain is requested.
        trace: u64,
    },
    /// Polite close: the server drops the session without counting a
    /// fault.
    Bye,
}

impl Request {
    /// Serialize as an envelope term (the frame payload is its
    /// `Display` form).
    pub fn to_term(&self) -> Term {
        match self {
            Request::Hello {
                from,
                credentials,
                gateway,
            } => {
                let mut b = Term::build("hello")
                    .unordered()
                    .field("schema", WIRE_SCHEMA)
                    .field("from", from);
                if let Some(c) = credentials {
                    b = b.child(cred_term(c));
                }
                if *gateway {
                    b = b.child(Term::elem("gateway"));
                }
                b.finish()
            }
            Request::Event {
                id,
                at,
                from,
                credentials,
                payload,
            } => {
                let mut b = envelope("event", *id);
                if let Some(at) = at {
                    b = b.field("at", at.millis().to_string());
                }
                if let Some(from) = from {
                    b = b.field("from", from);
                }
                if let Some(c) = credentials {
                    b = b.child(cred_term(c));
                }
                b.child(Term::ordered("payload", vec![payload.clone()]))
                    .finish()
            }
            Request::Deliver {
                id,
                key,
                at,
                payload,
            } => {
                let mut b = envelope("deliver", *id).field("key", key);
                if let Some(at) = at {
                    b = b.field("at", at.millis().to_string());
                }
                b.child(Term::ordered("payload", vec![payload.clone()]))
                    .finish()
            }
            Request::Advance { id, at } => envelope("advance", *id)
                .field("at", at.millis().to_string())
                .finish(),
            Request::Sync { id } => envelope("sync", *id).finish(),
            Request::Stats { id } => envelope("stats", *id).finish(),
            Request::Trace { id, trace } => envelope("trace", *id)
                .field("trace", trace.to_string())
                .finish(),
            Request::Bye => Term::elem("bye"),
        }
    }

    /// Parse an envelope term back into a request.
    pub fn from_term(t: &Term) -> Result<Request> {
        match t.label() {
            Some("hello") => {
                let schema = field_text(t, "schema")?;
                if schema != WIRE_SCHEMA {
                    return Err(EnvelopeError(format!(
                        "schema `{schema}` is not `{WIRE_SCHEMA}`"
                    )));
                }
                Ok(Request::Hello {
                    from: field_text(t, "from")?,
                    credentials: cred_from(t)?,
                    gateway: t.field("gateway").is_some(),
                })
            }
            Some("event") => Ok(Request::Event {
                id: field_u64(t, "id")?,
                at: opt_field_u64(t, "at")?.map(Timestamp),
                from: t.field("from").map(Term::text_content),
                credentials: cred_from(t)?,
                payload: field_child(t, "payload")?.clone(),
            }),
            Some("deliver") => Ok(Request::Deliver {
                id: field_u64(t, "id")?,
                key: field_text(t, "key")?,
                at: opt_field_u64(t, "at")?.map(Timestamp),
                payload: field_child(t, "payload")?.clone(),
            }),
            Some("advance") => Ok(Request::Advance {
                id: field_u64(t, "id")?,
                at: Timestamp(field_u64(t, "at")?),
            }),
            Some("sync") => Ok(Request::Sync {
                id: field_u64(t, "id")?,
            }),
            Some("stats") => Ok(Request::Stats {
                id: field_u64(t, "id")?,
            }),
            Some("trace") => Ok(Request::Trace {
                id: field_u64(t, "id")?,
                trace: field_u64(t, "trace")?,
            }),
            Some("bye") => Ok(Request::Bye),
            other => Err(EnvelopeError(format!(
                "unknown request label {other:?} in {t}"
            ))),
        }
    }

    /// Encode as one complete frame (header + payload bytes), ready to
    /// write to a socket.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.to_term().to_string().as_bytes())
    }

    /// Decode one frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        Request::from_term(&decode_term(payload)?)
    }
}

/// Why the server rejected a frame, an envelope, or a whole session.
/// Serialized as the `code` field of [`Reply::Error`]; the catalogue —
/// including which codes close the connection — is specified in
/// `docs/WIRE_PROTOCOL.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// `hello` named a schema this server does not speak. Closes.
    BadSchema,
    /// The first envelope was not `hello` (or `hello` was repeated).
    /// Closes.
    NoHello,
    /// A valid frame carried an unparsable or ill-shaped envelope term.
    /// The session continues.
    BadEnvelope,
    /// The byte stream broke: a frame whose CRC does not match its
    /// payload (or a truncated frame at EOF). Closes — after a framing
    /// fault the stream can no longer be trusted to be at a frame
    /// boundary.
    MalformedFrame,
    /// A frame header announced a body larger than the server's
    /// configured `max_body`. Closes without reading the body.
    OversizedFrame,
    /// A non-gateway session sent a per-event `from`/`cred` override.
    /// The event is rejected; the session continues.
    NotGateway,
    /// The engine refused the batch (e.g. a durable engine's log write
    /// failed). The session continues; the event was
    /// logged as rejected.
    Engine,
    /// The server is shutting down; no further events are accepted.
    ShuttingDown,
    /// The server is at its configured connection cap
    /// (`NetConfig::max_connections`); the session was refused at
    /// accept, before any `hello`. Closes — reconnect after the
    /// reply's `retry_ms`.
    Busy,
}

impl ErrorCode {
    /// The wire form of the code (kebab-case).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadSchema => "bad-schema",
            ErrorCode::NoHello => "no-hello",
            ErrorCode::BadEnvelope => "bad-envelope",
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::NotGateway => "not-gateway",
            ErrorCode::Engine => "engine",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Busy => "busy",
        }
    }

    /// Parse the wire form back.
    pub fn parse(s: &str) -> Result<ErrorCode> {
        Ok(match s {
            "bad-schema" => ErrorCode::BadSchema,
            "no-hello" => ErrorCode::NoHello,
            "bad-envelope" => ErrorCode::BadEnvelope,
            "malformed-frame" => ErrorCode::MalformedFrame,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "not-gateway" => ErrorCode::NotGateway,
            "engine" => ErrorCode::Engine,
            "shutting-down" => ErrorCode::ShuttingDown,
            "busy" => ErrorCode::Busy,
            other => return Err(EnvelopeError(format!("unknown error code `{other}`"))),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One server→client envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful `hello` answer: the session is open.
    Welcome {
        /// The schema the server speaks ([`WIRE_SCHEMA`]).
        schema: String,
        /// The serving engine's shape descriptor (`single`,
        /// `durable:single`) — diagnostic only.
        engine: String,
    },
    /// One reaction the receiver's own submission produced, in engine
    /// output order.
    Reaction {
        /// The id of the [`Request::Event`] (or [`Request::Advance`])
        /// that produced this reaction.
        id: u64,
        /// The destination URI the rule action addressed. The ingress
        /// tier reports it to the submitter; when a delivery agent
        /// ([`crate::delivery`]) is attached to the server it *also*
        /// dials the destination and pushes the reaction as a
        /// [`Request::Deliver`].
        to: String,
        /// The reaction term.
        payload: Term,
    },
    /// Answer to [`Request::Deliver`]: the reaction is durably ingested
    /// (or was already, on a retried key). Sent *after* the engine
    /// processed the batch — the ack is the sender's license to drop
    /// the reaction from its outbox.
    Accepted {
        /// The delivery request's id.
        id: u64,
        /// The key had been ingested before; this send was a retry and
        /// was *not* ingested again.
        duplicate: bool,
    },
    /// Answer to [`Request::Sync`]: everything this session enqueued
    /// before the marker has been processed.
    Done {
        /// The sync marker's id.
        id: u64,
    },
    /// A fault, per the [`ErrorCode`] catalogue.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (never required for client logic).
        detail: String,
        /// The offending request's id, when one was decodable.
        id: Option<u64>,
        /// Present on retryable faults ([`ErrorCode::Busy`],
        /// [`ErrorCode::ShuttingDown`]): suggested client backoff in
        /// milliseconds, from the server's [`crate::BackoffPolicy`].
        retry_ms: Option<u64>,
    },
    /// Backpressure: the global ingress queue is full; the event was
    /// NOT enqueued. Retry after a backoff.
    Busy {
        /// The rejected request's id.
        id: u64,
        /// Queue depth observed at rejection time.
        depth: u64,
        /// The configured queue capacity.
        capacity: u64,
        /// Suggested client backoff in milliseconds.
        retry_ms: u64,
    },
    /// Backpressure: this session exceeded its per-client rate limit;
    /// the event was NOT enqueued. Retry after a backoff.
    Throttled {
        /// The rejected request's id.
        id: u64,
        /// Suggested client backoff in milliseconds (time until the
        /// token bucket refills one token).
        retry_ms: u64,
    },
    /// Answer to [`Request::Stats`]: the server's observability
    /// snapshot, a `stats{…}` term as produced by `Obs::stats_term`
    /// (enabled flag, span count, and the four latency histograms).
    Stats {
        /// The stats request's id.
        id: u64,
        /// The `stats{…}` snapshot term.
        body: Term,
    },
    /// Answer to [`Request::Trace`]: the span chain the flight
    /// recorder still holds for one trace id, a `trace{…}` term as
    /// produced by `Obs::trace_term`. An unknown or already-evicted
    /// trace id answers with an empty chain, not an error.
    Trace {
        /// The trace request's id.
        id: u64,
        /// The `trace{…}` span-chain term.
        body: Term,
    },
}

impl Reply {
    /// Serialize as an envelope term (the frame payload is its
    /// `Display` form).
    pub fn to_term(&self) -> Term {
        match self {
            Reply::Welcome { schema, engine } => Term::build("welcome")
                .unordered()
                .field("schema", schema)
                .field("engine", engine)
                .finish(),
            Reply::Reaction { id, to, payload } => envelope("reaction", *id)
                .field("to", to)
                .child(Term::ordered("payload", vec![payload.clone()]))
                .finish(),
            Reply::Accepted { id, duplicate } => {
                let mut b = envelope("accepted", *id);
                if *duplicate {
                    b = b.child(Term::elem("dup"));
                }
                b.finish()
            }
            Reply::Done { id } => envelope("done", *id).finish(),
            Reply::Error {
                code,
                detail,
                id,
                retry_ms,
            } => {
                let mut b = Term::build("error")
                    .unordered()
                    .field("code", code.as_str())
                    .field("detail", detail);
                if let Some(id) = id {
                    b = b.field("id", id.to_string());
                }
                if let Some(retry_ms) = retry_ms {
                    b = b.field("retry_ms", retry_ms.to_string());
                }
                b.finish()
            }
            Reply::Busy {
                id,
                depth,
                capacity,
                retry_ms,
            } => envelope("busy", *id)
                .field("depth", depth.to_string())
                .field("capacity", capacity.to_string())
                .field("retry_ms", retry_ms.to_string())
                .finish(),
            Reply::Throttled { id, retry_ms } => envelope("throttled", *id)
                .field("retry_ms", retry_ms.to_string())
                .finish(),
            Reply::Stats { id, body } => envelope("stats", *id)
                .child(Term::ordered("body", vec![body.clone()]))
                .finish(),
            Reply::Trace { id, body } => envelope("trace", *id)
                .child(Term::ordered("body", vec![body.clone()]))
                .finish(),
        }
    }

    /// Parse an envelope term back into a reply.
    pub fn from_term(t: &Term) -> Result<Reply> {
        match t.label() {
            Some("welcome") => Ok(Reply::Welcome {
                schema: field_text(t, "schema")?,
                engine: field_text(t, "engine")?,
            }),
            Some("reaction") => Ok(Reply::Reaction {
                id: field_u64(t, "id")?,
                to: field_text(t, "to")?,
                payload: field_child(t, "payload")?.clone(),
            }),
            Some("accepted") => Ok(Reply::Accepted {
                id: field_u64(t, "id")?,
                duplicate: t.field("dup").is_some(),
            }),
            Some("done") => Ok(Reply::Done {
                id: field_u64(t, "id")?,
            }),
            Some("error") => Ok(Reply::Error {
                code: ErrorCode::parse(&field_text(t, "code")?)?,
                detail: field_text(t, "detail")?,
                id: opt_field_u64(t, "id")?,
                retry_ms: opt_field_u64(t, "retry_ms")?,
            }),
            Some("busy") => Ok(Reply::Busy {
                id: field_u64(t, "id")?,
                depth: field_u64(t, "depth")?,
                capacity: field_u64(t, "capacity")?,
                retry_ms: field_u64(t, "retry_ms")?,
            }),
            Some("throttled") => Ok(Reply::Throttled {
                id: field_u64(t, "id")?,
                retry_ms: field_u64(t, "retry_ms")?,
            }),
            Some("stats") => Ok(Reply::Stats {
                id: field_u64(t, "id")?,
                body: field_child(t, "body")?.clone(),
            }),
            Some("trace") => Ok(Reply::Trace {
                id: field_u64(t, "id")?,
                body: field_child(t, "body")?.clone(),
            }),
            other => Err(EnvelopeError(format!(
                "unknown reply label {other:?} in {t}"
            ))),
        }
    }

    /// Encode as one complete frame (header + payload bytes).
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.to_term().to_string().as_bytes())
    }

    /// Decode one frame payload into a reply.
    pub fn decode(payload: &[u8]) -> Result<Reply> {
        Reply::from_term(&decode_term(payload)?)
    }
}

/// Parse one frame payload as an envelope term (either direction), with
/// the one-pass [`reweb_term::decode()`] the log also reads with.
fn decode_term(payload: &[u8]) -> Result<Term> {
    decode(payload).map_err(|e| match std::str::from_utf8(payload) {
        Err(u) => EnvelopeError(format!("payload is not UTF-8: {u}")),
        Ok(_) => EnvelopeError(format!("unparsable term: {e}")),
    })
}

/// Turn a decoded [`Request::Event`] into the engine's [`InMessage`],
/// resolving the session-vs-gateway identity rules: a gateway session
/// may override `from`/`cred` per event; any other session gets its
/// `hello` identity regardless.
pub fn event_to_message(
    session_from: &str,
    session_cred: &Option<Credentials>,
    gateway: bool,
    from: &Option<String>,
    credentials: &Option<Credentials>,
    payload: Term,
    at: Timestamp,
) -> std::result::Result<InMessage, ErrorCode> {
    let (from, cred) = if gateway {
        (
            from.clone().unwrap_or_else(|| session_from.to_string()),
            credentials.clone().or_else(|| session_cred.clone()),
        )
    } else {
        if from.is_some() || credentials.is_some() {
            return Err(ErrorCode::NotGateway);
        }
        (session_from.to_string(), session_cred.clone())
    };
    let mut meta = MessageMeta::from_uri(from);
    if let Some(c) = cred {
        meta = meta.with_credentials(c.principal, c.secret);
    }
    Ok(InMessage::new(payload, meta, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    fn rt_req(r: Request) {
        let t = r.to_term();
        let parsed = parse_term(&t.to_string()).unwrap();
        assert_eq!(Request::from_term(&parsed).unwrap(), r, "via {t}");
    }

    fn rt_rep(r: Reply) {
        let t = r.to_term();
        let parsed = parse_term(&t.to_string()).unwrap();
        assert_eq!(Reply::from_term(&parsed).unwrap(), r, "via {t}");
    }

    #[test]
    fn requests_round_trip() {
        rt_req(Request::Hello {
            from: "http://client.example/".into(),
            credentials: Some(Credentials {
                principal: "alice".into(),
                secret: "s3cret".into(),
            }),
            gateway: true,
        });
        rt_req(Request::Event {
            id: 42,
            at: Some(Timestamp(1000)),
            from: Some("http://origin.example/".into()),
            credentials: None,
            payload: parse_term("order{item[\"book\"], qty[\"2\"]}").unwrap(),
        });
        rt_req(Request::Event {
            id: 43,
            at: None,
            from: None,
            credentials: None,
            payload: Term::elem("ping"),
        });
        rt_req(Request::Deliver {
            id: 46,
            key: "http://a.example/#17".into(),
            at: Some(Timestamp(2500)),
            payload: parse_term("ship{item[\"book\"]}").unwrap(),
        });
        rt_req(Request::Deliver {
            id: 47,
            key: "http://a.example/#18".into(),
            at: None,
            payload: Term::elem("ping"),
        });
        rt_req(Request::Advance {
            id: 44,
            at: Timestamp(5000),
        });
        rt_req(Request::Sync { id: 45 });
        rt_req(Request::Stats { id: 48 });
        rt_req(Request::Trace { id: 49, trace: 12 });
        rt_req(Request::Bye);
    }

    #[test]
    fn replies_round_trip() {
        rt_rep(Reply::Welcome {
            schema: WIRE_SCHEMA.into(),
            engine: "single".into(),
        });
        rt_rep(Reply::Reaction {
            id: 42,
            to: "http://warehouse.example/".into(),
            payload: Term::elem("ship"),
        });
        rt_rep(Reply::Accepted {
            id: 46,
            duplicate: false,
        });
        rt_rep(Reply::Accepted {
            id: 47,
            duplicate: true,
        });
        rt_rep(Reply::Done { id: 45 });
        rt_rep(Reply::Error {
            code: ErrorCode::BadEnvelope,
            detail: "unparsable term".into(),
            id: Some(7),
            retry_ms: None,
        });
        rt_rep(Reply::Error {
            code: ErrorCode::Busy,
            detail: "connection cap reached".into(),
            id: None,
            retry_ms: Some(10),
        });
        rt_rep(Reply::Busy {
            id: 9,
            depth: 4096,
            capacity: 4096,
            retry_ms: 10,
        });
        rt_rep(Reply::Throttled {
            id: 10,
            retry_ms: 50,
        });
        // Observability bodies round-trip shaped exactly as the live
        // server produces them (Obs::stats_term / Obs::trace_term).
        let obs = reweb_obs::Obs::enabled();
        obs.batch.record(1500);
        let t = obs.next_trace();
        obs.span(t, reweb_obs::Stage::Admission, 10, 250);
        rt_rep(Reply::Stats {
            id: 11,
            body: obs.stats_term(),
        });
        rt_rep(Reply::Trace {
            id: 12,
            body: obs.trace_term(t),
        });
    }

    #[test]
    fn hello_schema_is_checked() {
        let t = parse_term("hello{schema[\"reweb-net/999\"], from[\"x\"]}").unwrap();
        assert!(Request::from_term(&t).is_err());
    }

    #[test]
    fn non_gateway_override_is_rejected() {
        let err = event_to_message(
            "http://s/",
            &None,
            false,
            &Some("http://other/".into()),
            &None,
            Term::elem("e"),
            Timestamp(1),
        )
        .unwrap_err();
        assert_eq!(err, ErrorCode::NotGateway);
    }
}
