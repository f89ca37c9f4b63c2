//! The six workloads. Each is closed-loop: a producer here is a Web node
//! that waits for `done`, for `receive_batch` to return, or for an ack.

use crate::{Cfg, Workload};

pub mod durable;
pub mod match_mix;
pub mod push;
pub mod wire;

/// The workload called `name` (a [`crate::spec::WORKLOADS`] name).
pub fn build(name: &str, cfg: Cfg) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire-blast" => Box::new(wire::Wire::blast(cfg)),
        "wire-ping" => Box::new(wire::Wire::ping(cfg)),
        "match-mix" => Box::new(match_mix::MatchMix::new(cfg)),
        "durable-ingest" => Box::new(durable::Ingest::new(cfg)),
        "durable-recover" => Box::new(durable::Recover::new(cfg)),
        "push-deliver" => Box::new(push::PushDeliver::new(cfg)),
        _ => return None,
    })
}
