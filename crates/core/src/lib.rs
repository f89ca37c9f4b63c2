//! # reweb-core — the ECA rule language and reactive engine
//!
//! The primary contribution of *Twelve Theses on Reactive Rules for the
//! Web* (Bry & Eckert, EDBT 2006), rebuilt from the theses: an
//! XChange-style language of reactive rules
//!
//! ```text
//! RULE on_payment
//!   ON and( order{{id[[var O]], total[[var T]]}},
//!           payment{{order[[var O]], amount[[var A]]}} ) within 2h
//!   WHERE var A >= var T
//!   IF in "http://shop/customers" customer{{id[[var C]], order[[var O]]}}
//!   THEN CALL ship(var O, var C)
//!   ELSE SEND unmatched_payment{order[var O]} TO "http://shop/alerts"
//! END
//! ```
//!
//! and a per-node engine that processes them **locally** (Thesis 2),
//! reacting to events with event-based communication to other nodes.
//!
//! What lives where:
//!
//! * [`rule`] — [`EcaRule`] with ECAA/ECnAn branching (Thesis 9),
//!   [`RuleSet`] grouping with nesting, enable/disable, and scoped
//!   procedures/views/event-rules.
//! * [`engine`] — [`ReactiveEngine`]: event-label-indexed dispatch,
//!   incremental event query evaluation, condition evaluation over the
//!   local store and views, action execution, timer handling, metrics.
//!   It is the one engine type hosts drive: `reweb_persist` pairs it
//!   with an optional write-ahead journal, and the TCP tier and the Web
//!   simulator hold that pair.
//! * [`parser`] — the full textual rule language (programs, rule sets,
//!   rules, procedures, views, DETECT rules, actions), round-trippable
//!   with the `Display` impls.
//! * [`meta`] — Thesis 11: rules as data. Rules and rule sets reify to
//!   terms that travel inside event messages and reflect back into rules,
//!   so engines can exchange and evaluate each other's rules
//!   (meta-circularity: same language on both levels).
//! * [`shard`] — batch ingestion front-end: a [`ShardedEngine`] owning N
//!   engines, partitioning rules by event-label affinity and routing each
//!   event to the one shard that needs it — semantically equivalent to a
//!   single engine (`sharded_equivalence` pins it).
//! * [`aaa`] — Thesis 12: authentication (salted-hash credentials),
//!   authorization (ACL over event labels, resources, rule installation),
//!   and accounting — realized as *derived events* fed back into the same
//!   engine ("double reactivity") plus usage counters and a billing report.

#![warn(missing_docs)]

pub mod aaa;
pub mod engine;
pub mod meta;
pub mod parser;
pub mod rule;
pub mod shard;

pub use aaa::{AaaConfig, AccountingRecord, Acl, Credentials, MessageMeta, Permission, Principal};
pub use engine::{EngineMetrics, InMessage, MatchMode, OutMessage, ReactiveEngine, ReplayMark};
pub use meta::{rule_from_term, rule_to_term, ruleset_from_term, ruleset_to_term};
pub use parser::{parse_action, parse_program, parse_rule};
pub use reweb_events::JoinMode;
pub use rule::{Branch, EcaRule, RuleSet};
pub use shard::{ExecMode, ShardedEngine};

pub use reweb_term::TermError;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TermError>;
