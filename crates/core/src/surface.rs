//! The engine surface: one trait for every engine shape a host drives.
//!
//! A reactive node receives messages and emits reactions, whether the
//! messages are pushed to it over the Web (Thesis 3) or carry its rules
//! (Thesis 11), and whether it is one [`ReactiveEngine`](crate::ReactiveEngine) or a durable
//! wrapper over one (`reweb_persist::DurableEngine`). [`Engine`] is that
//! one surface: the ingestion, clock, install and observability calls
//! hosts make (the TCP ingress tier, the Web simulator). Crash recovery
//! is not a host: it drives the wrapped [`ReactiveEngine`](crate::ReactiveEngine) through that
//! engine's own methods. The label-sharded [`crate::ShardedEngine`] is
//! an in-process engine with its own API and does not implement
//! [`Engine`].

use std::sync::Arc;

use reweb_obs::Obs;
use reweb_term::{Term, Timestamp};

use crate::{EngineMetrics, InMessage, MessageMeta, OutMessage, Result};

/// Any engine a host can drive. Object safe: the ingress tier serves a
/// `Box<dyn Engine>`, the simulator holds `&mut dyn Engine` views.
/// Implemented by [`ReactiveEngine`](crate::ReactiveEngine) and `reweb_persist::DurableEngine`.
///
/// The one required ingestion call is the tagged batch
/// ([`Engine::receive_batch_tagged`]); the untagged batch and the
/// single-message [`Engine::receive`] are adaptors that strip the tags,
/// so every shape has one meaning under every calling convention.
pub trait Engine: Send {
    /// Shape descriptor: `single` or `durable:single`. Write-ahead-log
    /// and snapshot headers record it and recovery refuses a differently
    /// shaped engine, so these strings are frozen: changing one makes
    /// every existing log unreadable.
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

    /// Store a document.
    fn put_doc(&mut self, uri: &str, doc: Term) -> Result<()>;

    /// The engine's metrics.
    fn metrics(&self) -> EngineMetrics;

    /// The observability handle every wrapped engine reports into.
    fn obs(&self) -> &Arc<Obs>;

    /// Attach a shared observability handle to every wrapped engine.
    fn set_obs(&mut self, obs: Arc<Obs>);

    /// Earliest pending absence deadline — hosts (the Web simulator)
    /// use it to schedule a timely clock advance.
    fn next_deadline(&self) -> Option<Timestamp>;
}
