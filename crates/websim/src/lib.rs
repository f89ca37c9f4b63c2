//! # reweb-websim — a deterministic simulated Web
//!
//! The substitute for the real Web that the paper's claims run on
//! (Theses 2 and 3): nodes identified by URIs exchange HTTP-like messages
//! — `POST` delivers a SOAP-like [`Envelope`] (push), `GET` retrieves a
//! resource (pull) — over a network with configurable, seeded latency.
//! Everything is discrete-event simulated on the shared virtual clock, so
//! whole-system runs are reproducible bit for bit.
//!
//! * Every node processes its rules **locally** ([`NodeKind::Engine`]
//!   holds one `reweb_core::ReactiveEngine`, with a journal when its
//!   inputs are logged); coordination happens only through messages —
//!   there is no central rule processor (Thesis 2). Locality is between
//!   nodes: a node is one engine (in memory, journalled or served over
//!   TCP), never a set of in-process shards.
//! * **Push**: resource owners notify subscribers on every change
//!   ([`Simulation::subscribe_push`]); **poll**: a [`Poller`] GETs a
//!   remote resource periodically and synthesizes change events from the
//!   diff (Thesis 10's identity modes decide what the diff can say).
//!   Experiment E3 contrasts the two on traffic and reaction latency.
//! * [`NetMetrics`] counts every message and byte on the wire, per node
//!   and total, and records deliveries at [`NodeKind::Sink`] nodes so
//!   benchmarks can compute reaction latencies.
//! * A [`NodeKind::Net`] node fronts a real `reweb_net::NetServer` over
//!   loopback TCP ([`Simulation::add_net_engine`]): simulated deliveries
//!   cross the actual wire protocol in lockstep, so a networked engine
//!   can be dropped into any experiment without losing determinism.
//! * **Fault injection**: [`Simulation::kill_node`] crashes a node
//!   mid-run — a journalled [`EngineNode`] drops its in-memory engine
//!   (its write-ahead log survives on disk), a [`NodeKind::Net`] node
//!   drops its TCP session — and [`Simulation::recover_node`] brings it
//!   back, replaying the log or reconnecting. Deliveries that arrive
//!   while a node is down are lost and counted
//!   ([`NetMetrics::lost_while_down`]), which is exactly the gap the
//!   `reweb_net` delivery agent's retry/dead-letter machinery closes.

#![warn(missing_docs)]

pub mod envelope;
pub mod node;
pub mod sim;

pub use envelope::Envelope;
pub use node::{EngineNode, NetFront, NodeKind, Poller};
pub use sim::{NetMetrics, Simulation};

pub use reweb_term::TermError;
