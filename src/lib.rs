//! # reweb — reactive (ECA) rules for the Web
//!
//! A complete implementation of the language design laid out in
//! **“Twelve Theses on Reactive Rules for the Web”** (François Bry and
//! Michael Eckert, EDBT 2006 Workshops): an XChange-style
//! Event-Condition-Action rule language with composite event queries,
//! an Xcerpt-style Web query language, an update/action language, local
//! per-node rule processing over a simulated Web, meta-programming
//! (rules as data), and AAA support.
//!
//! This facade crate re-exports every layer:
//!
//! * [`term`] — data substrate: semi-structured terms, identity, diff,
//!   versioned resource stores, virtual time.
//! * [`query`] — Web query language: query terms, simulation matching,
//!   construct terms, deductive rules (views).
//! * [`events`] — composite event queries: incremental (data-driven) and
//!   naive (query-driven) evaluation, windows, accumulation, absence.
//! * [`update`] — update language and compound actions: transactional
//!   sequences, alternatives, branching, procedures.
//! * [`core`] — the ECA rule language and reactive engine (the paper's
//!   primary contribution), including meta-rules and AAA.
//! * [`persist`] — durability: write-ahead log, snapshots, and crash
//!   recovery of one engine, paired with it as [`DurableEngine`], the
//!   engine and its optional journal.
//! * [`net`] — the networked ingress tier: a framed TCP listener,
//!   backpressured router, and per-client reply streams in front of one
//!   engine, journalled or not ([`NetServer`], [`NetClient`];
//!   `docs/WIRE_PROTOCOL.md`).
//! * [`obs`] — observability: causal tracing through a lock-free flight
//!   recorder, log-scale latency histograms, and reaction provenance
//!   (`docs/OBSERVABILITY.md`).
//! * [`production`] — the production-rule (Condition-Action) baseline.
//! * [`websim`] — deterministic discrete-event simulation of Web nodes.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and the per-thesis experiment index.

pub use reweb_core as core;
// The batch-ingestion front-end, re-exported at the root: scaling out a
// node is a facade-level concern, not something users should dig into
// `core::shard` for.
pub use reweb_core::{ExecMode, InMessage, ShardedEngine};
pub use reweb_events as events;
pub use reweb_persist as persist;
// Durability is likewise a facade-level concern: a node that must
// survive restarts pairs its engine with a journal once, here.
pub use reweb_net as net;
pub use reweb_persist::{DurableEngine, DurableOptions, SyncPolicy};
// Serving over TCP is the facade-level entry point to the whole stack:
// bind a server around an engine, point clients at it.
pub use reweb_net::{NetClient, NetConfig, NetServer};
pub use reweb_obs as obs;
// Observability is a facade-level concern too: one shared `Obs` handle
// threads tracing and histograms through every layer above.
pub use reweb_obs::Obs;
pub use reweb_production as production;
pub use reweb_query as query;
pub use reweb_term as term;
pub use reweb_update as update;
pub use reweb_websim as websim;
