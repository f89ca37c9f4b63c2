//! Networked ingress tier: real sockets in front of the reweb engines.
//!
//! The paper's theses put reactive rules *on the Web*; this crate is the
//! piece that turns in-process `receive` calls into served traffic. It
//! speaks a deliberately boring protocol — the same length+CRC32 frames
//! and textual term syntax the write-ahead log already uses
//! ([`reweb_term::frame`], `docs/WIRE_PROTOCOL.md`) — over plain TCP,
//! and it puts an explicit admission edge between the sockets and the
//! engine:
//!
//! - **framing + envelopes** ([`wire`]): `hello`/`event`/`sync`
//!   requests, `reaction`/`error`/`busy`/`throttled` replies;
//! - **admission** ([`limit`], [`router`]): per-connection token-bucket
//!   rate limits, a frame body limit enforced from the header (an
//!   oversized body is never allocated or parsed), and a bounded global
//!   queue whose overflow is an explicit `busy`
//!   reply — backpressure is part of the protocol, not a TCP accident;
//! - **the driver** ([`server`]): one thread forming batches under size
//!   and latency bounds and feeding the one served engine type, a
//!   [`reweb_persist::DurableEngine`]: a [`reweb_core::ReactiveEngine`]
//!   and, when its inputs are logged, its journal. It feeds the engine
//!   through the *tagged* batch surface, so every reaction routes back
//!   to the connection whose event produced it;
//! - **the client** ([`client`]): the blocking reference client the
//!   tests, benches, and the websim TCP front use;
//! - **outbound delivery** ([`delivery`]): the push half of Thesis 2 —
//!   a per-destination-ordered delivery agent with a durable outbox,
//!   exponential backoff with jitter ([`BackoffPolicy`]), a retry
//!   budget, and a replayable dead-letter log, paired with key-based
//!   receiver deduplication so at-least-once retries ingest
//!   exactly once.
//!
//! The load-bearing invariant, pinned by `tests/net_equivalence.rs`: a
//! message stream delivered over loopback TCP produces **byte-identical
//! engine outputs** to the same stream delivered in-process, and
//! per-connection faults (malformed frames, oversized bodies, slow
//! readers, mid-batch disconnects) never disturb other connections or
//! the engine.

#![warn(missing_docs)]

pub mod client;
pub mod delivery;
pub mod limit;
pub mod router;
pub mod server;
pub mod wire;

pub use client::NetClient;
pub use delivery::{
    DeadLetter, DeliveryAgent, DeliveryConfig, DeliveryHandle, DeliveryLedger, DeliveryStats,
};
pub use limit::{BackoffPolicy, RateLimit};
pub use router::NetConfig;
pub use server::{IngressStats, NetServer};
pub use wire::{EnvelopeError, ErrorCode, Reply, Request, WIRE_SCHEMA};
