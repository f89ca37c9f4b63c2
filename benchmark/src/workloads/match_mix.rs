//! `match-mix`: the in-process engine under a large, mixed rule base —
//! no sockets, no disk. One operation is one `receive_batch_tagged` call
//! over [`ENGINE_BATCH`] messages.

use std::time::Instant;

use reweb_core::{ExecMode, JoinMode, MatchMode, ShardedEngine};

use crate::gen::{mix_program, mix_resource, mix_stream, MixShape, MIX_RESOURCE};
use crate::measure::timed_cpu;
use crate::replay::{
    build_engine, engine_stages, feed, owned_engine_counters, sample, ENGINE_BATCH,
};
use crate::spans::Spans;
use crate::{Cfg, Digest, Layers, Round, Workload};

/// Rule base and stream at scale 1.0.
const SHAPE: MixShape = MixShape {
    atomic_rules: 10_000,
    composite_rules: 2_000,
    events: 102_400,
};
/// Events also run through the interpreted matcher and scan joins (the
/// superseded paths, kept as oracles) at scale 1.0. The interpreted index
/// walks every same-label rule per event, so this prefix costs about as
/// much as the whole compiled stream.
const ORACLE_EVENTS: usize = 2_048;

/// The workload.
pub struct MatchMix {
    cfg: Cfg,
    round_no: u64,
    /// Did the oracle prefix agree? Checked once per process.
    oracle_failed: Option<u64>,
}

impl MatchMix {
    /// `match-mix` under `cfg`.
    pub fn new(cfg: Cfg) -> MatchMix {
        MatchMix {
            cfg,
            round_no: 0,
            oracle_failed: None,
        }
    }

    fn shape(&self) -> MixShape {
        let rules = |n: usize| ((n as f64 * self.cfg.scale).ceil() as usize).max(8);
        MixShape {
            atomic_rules: rules(SHAPE.atomic_rules),
            composite_rules: rules(SHAPE.composite_rules),
            events: self.cfg.events(SHAPE.events, ENGINE_BATCH),
        }
    }

    fn oracle_len(&self) -> usize {
        self.cfg
            .events(ORACLE_EVENTS, ENGINE_BATCH)
            .min(self.shape().events)
    }
}

impl Workload for MatchMix {
    fn round(&mut self, spans: &mut Spans) -> Round {
        self.round_no += 1;
        let shape = self.shape();

        let t0 = Instant::now();
        let program = mix_program(shape);
        let msgs = mix_stream(shape, self.cfg.seed);
        let resources = [(MIX_RESOURCE, mix_resource())];
        let mut engine = build_engine("http://svc", &program, &resources);
        if spans.is_on() {
            engine.obs().enable();
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let oracle_len = self.oracle_len();
        let mut outs = Vec::with_capacity(msgs.len() / ENGINE_BATCH + 1);
        let mut lat_us = Vec::with_capacity(msgs.len() / ENGINE_BATCH + 1);
        let root = spans.open(self.round_no, None, "round.timed");
        let ((), wall_s, cpu_s) = timed_cpu(|| {
            for (b, chunk) in msgs.chunks(ENGINE_BATCH).enumerate() {
                let t0 = Instant::now();
                let out = spans.span(b as u64, root, "core.receive_batch_tagged", || {
                    engine.receive_batch_tagged(chunk)
                });
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                outs.push(out);
            }
        });
        spans.close(root);

        // Digests are taken after the clock stops: they are the
        // benchmark's work, not the engine's.
        let mut digest = Digest::default();
        let mut prefix = Digest::default();
        for (b, out) in outs.iter().enumerate() {
            digest.add_all(out.iter().map(|(_, o)| o));
            if (b + 1) * ENGINE_BATCH == oracle_len {
                prefix = digest;
            }
        }

        let oracle_failed = *self.oracle_failed.get_or_insert_with(|| {
            let mut oracle = build_engine("http://svc", &program, &resources);
            oracle.set_match_mode(MatchMode::Interpreted);
            oracle.set_join_mode(JoinMode::Scan);
            let mut want = Digest::default();
            feed(&mut oracle, &msgs[..oracle_len], |out| {
                want.add_all(out.iter().map(|(_, o)| o))
            });
            prefix.mismatch(&want)
        });

        let events = msgs.len() as u64;
        let mut layers = Layers::new();
        owned_engine_counters(&mut layers, &engine, events);
        if spans.is_on() {
            layers.insert(
                "obs.spans_per_event",
                engine.obs().recorder().recorded() as f64 / events as f64,
            );
        }
        Round {
            setup_s,
            events,
            wall_s,
            cpu_s,
            lat_us,
            attempted: events,
            failed: engine.metrics.actions_failed + oracle_failed,
            reactions: digest.count,
            layers,
        }
    }

    fn replay(&mut self, spans: &mut Spans, _round: &Layers) -> (Layers, Vec<(&'static str, f64)>) {
        let shape = self.shape();
        let program = mix_program(shape);
        let msgs = mix_stream(shape, self.cfg.seed);
        let resources = [(MIX_RESOURCE, mix_resource())];
        let mut layers = Layers::new();
        engine_stages(&program, &resources, &msgs, spans, &mut layers);

        // Threaded sharding on the same stream. With workers sharing cores
        // this is a count-backed ratio, not a scaling claim.
        let shards = self.cfg.conns;
        let mut sharded = ShardedEngine::with_mode("http://svc", shards, ExecMode::Threads);
        sharded.put_resource(MIX_RESOURCE, mix_resource());
        match sharded.install_program(&program) {
            Ok(()) => {
                let msgs = sample(&msgs);
                let t0 = Instant::now();
                spans.span(0, None, "core.sharded_receive_batch_tagged", || {
                    for chunk in msgs.chunks(ENGINE_BATCH) {
                        std::hint::black_box(sharded.receive_batch_tagged(chunk));
                    }
                });
                let sharded_ns = t0.elapsed().as_nanos() as f64 / msgs.len().max(1) as f64;
                layers.insert(
                    "core.shard_mt_vs_single",
                    layers["core.receive_ns_per_event"] / sharded_ns,
                );
                layers.insert("core.shard_hottest_share", sharded.hottest_share());
            }
            Err(e) => eprintln!("match-mix: the sharded engine refused the program: {e}"),
        }
        let receive = layers["core.receive_ns_per_event"];
        (layers, vec![("core.receive_ns_per_event", receive)])
    }
}
