//! The engine surface: one trait for every engine shape a host drives.
//!
//! A reactive node receives messages and emits reactions, whether the
//! messages are pushed to it over the Web (Thesis 3) or carry its rules
//! (Thesis 11), and whether it is one [`ReactiveEngine`], a
//! label-sharded [`crate::ShardedEngine`], or a durable wrapper over either
//! (`reweb_persist::DurableEngine`). [`Engine`] is that one surface: the
//! ingestion, clock, install and observability calls hosts make (the TCP
//! ingress tier, the Web simulator), plus the shard-view hooks crash
//! recovery drives.

use std::sync::Arc;

use reweb_obs::Obs;
use reweb_term::{Dur, Term, Timestamp};

use crate::{EngineMetrics, InMessage, MessageMeta, OutMessage, ReactiveEngine, Result};

/// Any engine a host can drive. Object safe: the ingress tier serves a
/// `Box<dyn Engine>`, the simulator holds `&mut dyn Engine` views.
/// Implemented by [`ReactiveEngine`], [`crate::ShardedEngine`], and
/// `reweb_persist::DurableEngine` over any of them.
///
/// The one required ingestion call is the tagged batch
/// ([`Engine::receive_batch_tagged`]); the untagged batch and the
/// single-message [`Engine::receive`] are adaptors that strip the tags,
/// so every shape has one meaning under every calling convention.
pub trait Engine: Send {
    /// Shape descriptor: `single`, `sharded:N:<ExecMode>` or
    /// `durable:<inner>`. Write-ahead-log and snapshot headers record it
    /// and recovery refuses a differently shaped engine (it would replay
    /// into different routing), so these strings are frozen: changing
    /// one makes every existing log unreadable.
    fn descriptor(&self) -> String;

    /// Install a rule program (see [`crate::parse_program`]). Rules can
    /// also arrive as `install_rules` messages (Thesis 11).
    fn install_source(&mut self, src: &str) -> Result<()>;

    /// Process one ingestion batch, tagging each output with the index
    /// of the batch message that produced it — what lets a host route
    /// every reaction back to its submitter.
    fn receive_batch_tagged(&mut self, msgs: &[InMessage]) -> Result<Vec<(u32, OutMessage)>>;

    /// [`Engine::receive_batch_tagged`] with the tags stripped.
    fn receive_batch(&mut self, msgs: &[InMessage]) -> Result<Vec<OutMessage>> {
        Ok(self
            .receive_batch_tagged(msgs)?
            .into_iter()
            .map(|(_, o)| o)
            .collect())
    }

    /// Process one message: a batch of one.
    fn receive(
        &mut self,
        payload: Term,
        meta: &MessageMeta,
        at: Timestamp,
    ) -> Result<Vec<OutMessage>> {
        self.receive_batch(&[InMessage::new(payload, meta.clone(), at)])
    }

    /// Advance the virtual clock, firing due absence deadlines.
    fn advance_clock(&mut self, t: Timestamp) -> Result<Vec<OutMessage>>;

    /// Store a document (replicated to every shard where applicable).
    fn put_doc(&mut self, uri: &str, doc: Term) -> Result<()>;

    /// Aggregated metrics (all shards where applicable).
    fn metrics(&self) -> EngineMetrics;

    /// The observability handle every wrapped engine reports into.
    fn obs(&self) -> &Arc<Obs>;

    /// Attach a shared observability handle to every wrapped engine.
    fn set_obs(&mut self, obs: Arc<Obs>);

    /// The per-shard engines, in shard order (a single engine is one).
    fn engines(&self) -> &[ReactiveEngine];

    /// Mutable access to the per-shard engines — recovery's restore
    /// hatch; changes made here bypass routing and logging.
    fn engines_mut(&mut self) -> &mut [ReactiveEngine];

    /// Earliest pending absence deadline across the shards.
    fn next_deadline(&self) -> Option<Timestamp> {
        self.engines()
            .iter()
            .filter_map(ReactiveEngine::next_deadline)
            .min()
    }

    /// The front-end clock (latest time seen).
    fn front_clock(&self) -> Timestamp;

    /// Restore the front-end clock without firing deadlines. Recovery
    /// calls this once, after restoring every shard's replay mark and
    /// store behind the engine's back, so front-end caches derived from
    /// shard state are rebuilt here too.
    fn restore_front_clock(&mut self, t: Timestamp);

    /// Warmup-replay mode for crash recovery, on every shard: while set,
    /// events still flow through AAA admission, deduction, and every
    /// rule's incremental event-query state — but **no rule fires**: no
    /// condition is evaluated, no action runs, no store write, output,
    /// log entry, or metric results. `reweb_persist` uses this to
    /// rebuild composite-event partial state from a log suffix whose
    /// *effects* are already covered by a snapshot.
    fn set_replay_warmup(&mut self, on: bool);

    /// The replay horizon: a duration `B` such that no input older than
    /// `now - B` can still influence a future answer of any installed
    /// rule or DETECT rule (see
    /// [`reweb_events::EventQuery::replay_horizon`]). `None` = unbounded
    /// (some installed query retains state forever). Recovery replays
    /// exactly this much log suffix to rebuild composite-event state.
    fn replay_horizon(&self) -> Option<Dur>;

    /// Fire every absence deadline already due at the *current* clock,
    /// bypassing the monotone-clock fast path of
    /// [`ReactiveEngine::advance_time`]. Recovery uses this (under
    /// warmup mode) to discharge deadlines that a restored clock jumped
    /// over, so they cannot fire spuriously on the first post-recovery
    /// input; the outputs are discarded.
    fn flush_due_deadlines(&mut self);
}
