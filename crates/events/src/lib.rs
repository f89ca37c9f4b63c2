//! # reweb-events — composite event queries for a reactive Web
//!
//! This crate implements Theses 4–6 of *Twelve Theses on Reactive Rules for
//! the Web*:
//!
//! * **Thesis 4 — events are volatile data.** An [`Event`] is a timestamped,
//!   immutable message payload. The incremental engine never retains event
//!   data beyond what unexpired queries can still use: every operator
//!   derives a retention bound from its temporal window, expired partial
//!   matches are garbage-collected, and an engine-wide TTL bounds the state
//!   of window-less queries. [`IncrementalEngine::state_size`] exposes the
//!   retained state so the "no shadow Web" claim is measurable (E4).
//!
//! * **Thesis 5 — composite events are specified by event queries**, with
//!   four dimensions: *data extraction* (atomic patterns bind variables from
//!   payloads), *composition* ([`EventQuery::And`]/[`EventQuery::Or`]/
//!   [`EventQuery::Seq`]), *temporal conditions* (`within` windows,
//!   [`EventQuery::Absence`] for timer-driven negation), and *event
//!   accumulation* ([`EventQuery::Count`], sliding [`EventQuery::Agg`]
//!   aggregates). Instance *selection* and *consumption* policies
//!   ([`Policy`]) cover the paper's citation \[12\].
//!
//! * **Thesis 6 — data-driven incremental evaluation.** Queries compile to
//!   an operator network with per-operator partial-match storage
//!   ([`IncrementalEngine`]); each incoming event does work proportional to
//!   the affected state, never to the event history. `And`/`Seq` joins run
//!   on a beta network of join-key indexes ([`beta`]) by default — stored
//!   answers hashed by projected key bindings, windows and sequence order
//!   pruned by range lookup — with the scan join kept as a
//!   runtime-switchable oracle ([`JoinMode`]). The strawman
//!   the thesis argues against — query-driven re-evaluation over the full
//!   history — is implemented too ([`NaiveEngine`]) as the baseline for
//!   experiment E6, and property tests pin all of them to the same
//!   semantics.
//!
//! * **Thesis 9 (events half)** — deductive rules for events:
//!   [`EventRule`] (`DETECT head ON query`) derives higher-level events;
//!   recursion among event rules is rejected, as the thesis prescribes.

#![warn(missing_docs)]

pub mod beta;
pub mod compiled;
pub mod deductive;
pub mod event;
pub mod incremental;
pub mod naive;
pub mod parser;
pub mod query;

pub use beta::JoinMode;
pub use compiled::{alpha_skippable, registrations};
pub use deductive::{DeductionLayer, EventRule};
pub use event::{Answer, Event, EventId};
pub use incremental::{IncrementalEngine, Policy, Selection};
pub use naive::NaiveEngine;
pub use parser::parse_event_query;
pub use query::EventQuery;

pub use reweb_term::TermError;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TermError>;
