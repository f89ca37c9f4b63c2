//! Stage replay: the per-layer clocks shared by several workloads.
//!
//! The program under test may not be instrumented by the change that
//! defines its benchmark, so a layer's time is taken from outside: the
//! benchmark calls the layer's public functions over the workload's own
//! generated inputs and times the calls. Stateless stages run three passes
//! and report the median pass; stateful ones (`receive`, `push`) run once
//! on fresh state.

use std::time::Instant;

use reweb_core::{EngineMetrics, InMessage, ReactiveEngine, RuleSet};
use reweb_events::{alpha_skippable, registrations, Event, EventId, IncrementalEngine};
use reweb_query::{AlphaNetwork, CandidateIndex, EventShape};
use reweb_term::Term;

use crate::measure::ns_per_item;
use crate::spans::Spans;
use crate::Layers;

/// Messages per in-process ingestion batch (the ingress tier's default
/// `max_batch`).
pub const ENGINE_BATCH: usize = 256;

/// Largest input prefix a stage replay times.
pub const REPLAY_SAMPLE: usize = 20_000;

/// The stage-replay sample of a generated input.
pub fn sample<T>(items: &[T]) -> &[T] {
    &items[..items.len().min(REPLAY_SAMPLE)]
}

/// Counter-backed per-layer values of an engine that processed `events`
/// input events.
pub fn engine_counters(layers: &mut Layers, m: &EngineMetrics, events: u64) {
    let per = |n: u64| n as f64 / events.max(1) as f64;
    layers.insert("query.alpha_tests_per_event", per(m.alpha_tests_run));
    layers.insert("query.rules_considered_per_event", per(m.rules_considered));
    layers.insert("query.condition_evals_per_event", per(m.condition_evals));
    layers.insert("events.join_attempts_per_event", per(m.join_attempts));
    layers.insert("events.index_probes_per_event", per(m.index_probes));
    layers.insert(
        "events.attempts_per_answer",
        m.join_attempts as f64 / m.rules_fired.max(1) as f64,
    );
    layers.insert("update.messages_sent_per_event", per(m.messages_sent));
    layers.insert("update.actions_failed", m.actions_failed as f64);
    layers.insert("core.rules_fired_per_event", per(m.rules_fired));
    layers.insert(
        "core.events_unmatched_share",
        m.events_unmatched as f64 / (m.events_received + m.events_derived).max(1) as f64,
    );
}

/// [`engine_counters`] plus the two sizes only an engine in hand can
/// report (one behind a `NetServer` exposes its metrics alone).
pub fn owned_engine_counters(layers: &mut Layers, e: &ReactiveEngine, events: u64) {
    engine_counters(layers, &e.metrics, events);
    layers.insert("query.network_nodes", e.index_node_count() as f64);
    layers.insert("events.state_size_end", e.state_size() as f64);
}

/// Counter-backed per-layer values of an ingress tier.
pub fn ingress_counters(layers: &mut Layers, s: &reweb_net::IngressStats) {
    layers.insert(
        "net.events_per_batch",
        s.msgs_processed as f64 / s.batches.max(1) as f64,
    );
    layers.insert("net.batches", s.batches as f64);
    layers.insert("net.queue_highwater", s.queue_highwater as f64);
    layers.insert("net.busy_replies", s.busy_replies as f64);
    layers.insert("net.throttled_replies", s.throttled_replies as f64);
    layers.insert("net.replies_dropped", s.replies_dropped as f64);
    layers.insert("net.frames_in", s.frames_in as f64);
}

/// What a traced node's `Obs` handle recorded while it processed `events`.
pub fn obs_layers(layers: &mut Layers, obs: &reweb_obs::Obs, events: u64) {
    layers.insert(
        "net.queue_wait_p50_us",
        obs.queue.snapshot().p50() as f64 / 1e3,
    );
    layers.insert("net.batch_p50_us", obs.batch.snapshot().p50() as f64 / 1e3);
    layers.insert(
        "obs.spans_per_event",
        obs.recorder().recorded() as f64 / events.max(1) as f64,
    );
}

/// A blank engine with `program` installed and `resources` stored.
pub fn build_engine(uri: &str, program: &str, resources: &[(&str, Term)]) -> ReactiveEngine {
    let mut e = ReactiveEngine::new(uri);
    for (res, doc) in resources {
        e.qe.store.put(*res, doc.clone());
    }
    e.install_program(program)
        .expect("generated program installs");
    e
}

/// Push `msgs` through `engine` in [`ENGINE_BATCH`]-message batches,
/// handing every output batch to `sink`.
pub fn feed(
    engine: &mut ReactiveEngine,
    msgs: &[InMessage],
    mut sink: impl FnMut(Vec<(u32, reweb_core::OutMessage)>),
) {
    for chunk in msgs.chunks(ENGINE_BATCH) {
        sink(engine.receive_batch_tagged(chunk));
    }
}

fn flatten<'a>(set: &'a RuleSet, out: &mut Vec<&'a reweb_core::EcaRule>) {
    out.extend(set.rules.iter());
    for c in &set.children {
        flatten(c, out);
    }
}

/// The engine's stages over `msgs`: install (`core.install_ms`), the whole
/// `receive_batch_tagged` call (`core.receive_ns_per_event`), and inside
/// it shape digest, alpha-network candidate collection and the incremental
/// event-query push, each timed on its own.
pub fn engine_stages(
    program: &str,
    resources: &[(&str, Term)],
    msgs: &[InMessage],
    spans: &mut Spans,
    layers: &mut Layers,
) {
    let msgs = sample(msgs);
    let n = msgs.len().max(1) as f64;
    let root = spans.open(0, None, "replay.engine");

    let t0 = Instant::now();
    let mut engine = spans.span(0, root, "core.install_program", || {
        build_engine("http://svc", program, resources)
    });
    layers.insert("core.install_ms", t0.elapsed().as_secs_f64() * 1e3);

    let t0 = Instant::now();
    spans.span(0, root, "core.receive_batch_tagged", || {
        feed(&mut engine, msgs, |out| {
            std::hint::black_box(out);
        })
    });
    layers.insert(
        "core.receive_ns_per_event",
        t0.elapsed().as_nanos() as f64 / n,
    );
    // Workloads that own their engine report these from the real round;
    // the ones behind a server (no accessor) take the replay engine's.
    layers
        .entry("query.network_nodes")
        .or_insert(engine.index_node_count() as f64);
    layers
        .entry("events.state_size_end")
        .or_insert(engine.state_size() as f64);

    let shape_ns = spans.span(0, root, "query.shape", || {
        ns_per_item(msgs, |m| {
            std::hint::black_box(EventShape::of(&m.payload));
        })
    });
    layers.insert("query.shape_ns_per_event", shape_ns);

    // The alpha network exactly as the engine builds it: one registration
    // per constituent pattern, label-only for absence-bearing rules.
    let set = reweb_core::parse_program(program).expect("generated program parses");
    let mut rules = Vec::new();
    flatten(&set, &mut rules);
    let mut network = AlphaNetwork::new();
    for (idx, rule) in rules.iter().enumerate() {
        for mut reg in registrations(&rule.on) {
            if !alpha_skippable(&rule.on) {
                reg.tests.clear();
            }
            network.insert(&reg, idx);
        }
    }
    let (mut cands, mut tests) = (Vec::new(), 0u64);
    let collect_ns = spans.span(0, root, "query.alpha_collect", || {
        ns_per_item(msgs, |m| {
            cands.clear();
            network.collect(&EventShape::of(&m.payload), &mut cands, &mut tests);
            std::hint::black_box(&cands);
        })
    });
    // `collect` needs the shape, so its clock includes one shape digest.
    layers.insert(
        "query.alpha_collect_ns_per_event",
        (collect_ns - shape_ns).max(0.0),
    );

    // Candidate lists and events are prepared outside the clock; only the
    // `push` calls are timed.
    let mut engines: Vec<IncrementalEngine> = rules
        .iter()
        .map(|r| IncrementalEngine::new(&r.on))
        .collect();
    let pushes: Vec<(Event, Vec<usize>)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut c = Vec::new();
            network.collect(&EventShape::of(&m.payload), &mut c, &mut tests);
            c.sort_unstable();
            c.dedup();
            (
                Event::new(EventId(i as u64 + 1), m.at, m.payload.clone()),
                c,
            )
        })
        .collect();
    let t0 = Instant::now();
    spans.span(0, root, "events.push", || {
        for (ev, cands) in &pushes {
            for &c in cands {
                std::hint::black_box(engines[c].push(ev));
            }
        }
    });
    layers.insert(
        "events.push_ns_per_event",
        t0.elapsed().as_nanos() as f64 / n,
    );
    spans.close(root);
}
