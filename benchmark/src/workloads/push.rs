//! `push-deliver`: Thesis 2's push path with no faults injected.
//!
//! A sender `ReactiveEngine` fires one `SEND` per event; each `OutMessage`
//! goes to `DeliveryAgent::enqueue` (durable outbox, one FIFO worker per
//! destination URI, `min(nproc, 4)` destinations) → loopback TCP → a
//! receiver `NetServer` with a journaled delivery ledger and a consuming
//! rule → `accepted` ack. The clock stops when `flush` has settled
//! everything. One operation is one event's hand-off (`receive` +
//! `enqueue`, i.e. until the reaction is durable in the outbox); the
//! delivery round trip itself is the per-layer `net.delivery_rtt_p50_us`.
//! Fault accounting stays in E18b.

use std::time::{Duration, Instant};

use reweb_core::{InMessage, ReactiveEngine};
use reweb_net::{
    DeliveryAgent, DeliveryConfig, DeliveryLedger, NetConfig, NetServer, Reply, Request,
};
use reweb_persist::{Outbox, Settle, SyncPolicy};
use reweb_term::{Term, Timestamp};

use crate::gen::{push_sender_program, push_stream, PUSH_RECEIVER_PROGRAM};
use crate::measure::{ns_per_item, timed_cpu};
use crate::replay::{engine_stages, ingress_counters, obs_layers, owned_engine_counters, sample};
use crate::spans::Spans;
use crate::{Cfg, Digest, Layers, Round, Workload};

/// Events (= reactions = deliveries) per round at scale 1.0.
const EVENTS: usize = 1_024;
/// Deliveries the ledger/outbox stage replays time (each is an fsync).
const JOURNAL_SAMPLE: usize = 256;

/// The workload.
pub struct PushDeliver {
    cfg: Cfg,
    round_no: u64,
}

impl PushDeliver {
    /// `push-deliver` under `cfg`.
    pub fn new(cfg: Cfg) -> PushDeliver {
        PushDeliver { cfg, round_no: 0 }
    }

    fn inputs(&self) -> (String, Vec<InMessage>) {
        let dests = self.cfg.conns;
        (
            push_sender_program(dests),
            push_stream(self.cfg.events(EVENTS, 1), dests, self.cfg.seed),
        )
    }
}

/// What the sender's rules produce for `msgs`: `(to, at, payload)`.
fn reactions(program: &str, msgs: &[InMessage]) -> Vec<(String, Timestamp, Term)> {
    let mut sender = ReactiveEngine::new("http://a/");
    sender.install_program(program).expect("sender program");
    msgs.iter()
        .flat_map(|m| {
            sender
                .receive(m.payload.clone(), &m.meta, m.at)
                .into_iter()
                .map(move |o| (o.to, m.at, o.payload))
        })
        .collect()
}

impl Workload for PushDeliver {
    fn round(&mut self, spans: &mut Spans) -> Round {
        self.round_no += 1;
        let traced = spans.is_on();

        let t0 = Instant::now();
        let (program, msgs) = self.inputs();
        let dir = self.cfg.scratch.join("push-deliver");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut receiver = NetServer::bind(
            "127.0.0.1:0",
            ReactiveEngine::new("http://b/"),
            NetConfig {
                delivery_journal: Some(dir.join("ledger.log")),
                ..NetConfig::default()
            },
        )
        .expect("receiver binds on loopback");
        receiver
            .with_engine(|e| e.install_source(PUSH_RECEIVER_PROGRAM))
            .expect("receiver program installs");
        let mut sender = ReactiveEngine::new("http://a/");
        sender.install_program(&program).expect("sender program");
        let mut agent = DeliveryAgent::new(DeliveryConfig {
            from: "http://a/".into(),
            outbox: Some(dir.join("outbox.log")),
            dead_letter: Some(dir.join("dead.log")),
            ..DeliveryConfig::default()
        })
        .expect("delivery agent opens its outbox");
        agent.add_route("http://b/", receiver.local_addr());
        let obs = std::sync::Arc::new(reweb_obs::Obs::new());
        if traced {
            obs.enable();
            receiver.set_obs(std::sync::Arc::clone(&obs));
            sender.set_obs(std::sync::Arc::clone(&obs));
            agent.handle().set_obs(std::sync::Arc::clone(&obs));
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let mut sent = Vec::with_capacity(msgs.len());
        let mut lat_us = Vec::with_capacity(msgs.len());
        let mut unrouted = 0u64;
        let root = spans.open(self.round_no, None, "round.timed");
        let (settled, wall_s, cpu_s) = timed_cpu(|| {
            for (j, m) in msgs.iter().enumerate() {
                let t0 = Instant::now();
                let out = spans.span(j as u64, root, "core.receive", || {
                    sender.receive(m.payload.clone(), &m.meta, m.at)
                });
                spans.span(j as u64, root, "net.delivery_enqueue", || {
                    for o in &out {
                        unrouted += u64::from(!agent.enqueue(&o.to, m.at, &o.payload));
                    }
                });
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                sent.push(out);
            }
            spans.span(0, root, "net.delivery_flush", || {
                agent.flush(Duration::from_secs(120))
            })
        });
        spans.close(root);

        // Ledger entries must equal the reactions enqueued, no duplicates.
        let mut want = Digest::default();
        for out in &sent {
            for o in out {
                want.add("", &o.payload);
            }
        }
        let mut got = Digest::default();
        for (_, payload) in receiver.delivered() {
            got.add("", &payload);
        }
        let stats = agent.stats();
        let ingress = receiver.stats();
        let consumed = receiver.with_engine(|e| e.metrics()).rules_fired;
        agent.shutdown();
        receiver.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let events = msgs.len() as u64;
        let mut layers = Layers::new();
        owned_engine_counters(&mut layers, &sender, events);
        ingress_counters(&mut layers, &ingress);
        layers.insert(
            "net.delivery_attempts_per_delivered",
            (stats.delivered + stats.failed_attempts) as f64 / stats.delivered.max(1) as f64,
        );
        layers.insert("net.delivery_duplicate_acks", stats.duplicate_acks as f64);
        if traced {
            obs_layers(&mut layers, &obs, events);
            layers.insert(
                "net.delivery_rtt_p50_us",
                obs.delivery.snapshot().p50() as f64 / 1e3,
            );
        }

        let failed = u64::from(!settled)
            + unrouted
            + stats.dead_lettered
            + stats.failed_attempts
            + stats.duplicate_acks
            + ingress.deliveries_duplicate
            + ingress.engine_errors
            + sender.metrics.actions_failed
            + got.mismatch(&want)
            + consumed.abs_diff(want.count);
        Round {
            setup_s,
            events,
            wall_s,
            cpu_s,
            lat_us,
            attempted: events,
            failed,
            reactions: want.count,
            layers,
        }
    }

    fn replay(&mut self, spans: &mut Spans, _round: &Layers) -> (Layers, Vec<(&'static str, f64)>) {
        let (program, msgs) = self.inputs();
        let mut layers = Layers::new();
        engine_stages(&program, &[], &msgs, spans, &mut layers);

        let reacts = reactions(&program, sample(&msgs));
        let journal = &reacts[..reacts.len().min(JOURNAL_SAMPLE)];
        let dir = self.cfg.scratch.join("push-deliver-replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let root = spans.open(0, None, "replay.push");

        // The `deliver` request and its `accepted` reply on the wire.
        let requests: Vec<Request> = reacts
            .iter()
            .enumerate()
            .map(|(seq, (_, at, payload))| Request::Deliver {
                id: seq as u64,
                key: format!("http://a/#{seq}"),
                at: Some(*at),
                payload: payload.clone(),
            })
            .collect();
        let frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let header = reweb_term::frame::FRAME_HEADER_LEN;
        spans.span(0, root, "net.wire_stages", || {
            layers.insert(
                "net.request_encode_ns_per_event",
                ns_per_item(&requests, |r| {
                    std::hint::black_box(r.encode());
                }),
            );
            layers.insert(
                "net.request_decode_ns_per_event",
                ns_per_item(&frames, |f| {
                    std::hint::black_box(Request::decode(&f[header..]).expect("deliver decodes"));
                }),
            );
            let acks: Vec<Reply> = (0..reacts.len() as u64)
                .map(|id| Reply::Accepted {
                    id,
                    duplicate: false,
                })
                .collect();
            let ack_frames: Vec<Vec<u8>> = acks.iter().map(Reply::encode).collect();
            layers.insert(
                "net.reply_encode_ns_per_reaction",
                ns_per_item(&acks, |a| {
                    std::hint::black_box(a.encode());
                }),
            );
            layers.insert(
                "net.reply_decode_ns_per_reaction",
                ns_per_item(&ack_frames, |f| {
                    std::hint::black_box(Reply::decode(&f[header..]).expect("ack decodes"));
                }),
            );
            layers.insert(
                "term.bytes_per_event",
                frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64,
            );
        });

        // The two journals, one fsync per call each: wall time is the
        // per-layer metric, CPU time the budget addend.
        let n = journal.len().max(1) as f64;
        let mut outbox = Outbox::open(&dir.join("outbox.log"), SyncPolicy::Always)
            .expect("outbox opens")
            .outbox;
        let mut seqs = Vec::with_capacity(journal.len());
        let ((), wall_s, enqueue_cpu_s) = timed_cpu(|| {
            spans.span(0, root, "persist.outbox_enqueue", || {
                for (to, at, payload) in journal {
                    seqs.push(outbox.enqueue(to, *at, payload).expect("outbox enqueue"));
                }
            })
        });
        layers.insert("persist.outbox_enqueue_ns_per_reaction", wall_s * 1e9 / n);
        let ((), wall_s, settle_cpu_s) = timed_cpu(|| {
            spans.span(0, root, "persist.outbox_settle", || {
                for seq in seqs {
                    outbox.settle(seq, Settle::Acked).expect("outbox settle");
                }
            })
        });
        layers.insert("persist.outbox_settle_ns_per_reaction", wall_s * 1e9 / n);
        let mut ledger = DeliveryLedger::open(&dir.join("ledger.log")).expect("ledger opens");
        let ((), wall_s, ledger_cpu_s) = timed_cpu(|| {
            spans.span(0, root, "net.ledger_record", || {
                for (seq, (_, _, payload)) in journal.iter().enumerate() {
                    ledger.record(&format!("http://a/#{seq}"), payload);
                }
            })
        });
        layers.insert("net.ledger_record_ns_per_delivery", wall_s * 1e9 / n);
        spans.close(root);
        drop((outbox, ledger));
        let _ = std::fs::remove_dir_all(&dir);

        let on_path = |name: &'static str| (name, layers[name]);
        let addends = vec![
            on_path("core.receive_ns_per_event"),
            ("persist.outbox_enqueue (cpu)", enqueue_cpu_s * 1e9 / n),
            on_path("net.request_encode_ns_per_event"),
            on_path("net.request_decode_ns_per_event"),
            ("net.ledger_record (cpu)", ledger_cpu_s * 1e9 / n),
            on_path("net.reply_encode_ns_per_reaction"),
            on_path("net.reply_decode_ns_per_reaction"),
            ("persist.outbox_settle (cpu)", settle_cpu_s * 1e9 / n),
        ];
        (layers, addends)
    }
}
