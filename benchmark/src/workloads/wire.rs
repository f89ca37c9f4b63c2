//! `wire-blast` and `wire-ping`: a `NetServer` over a `ReactiveEngine`
//! with one echo rule, driven over loopback TCP.
//!
//! `wire-blast` streams pre-encoded `event` frames on `min(nproc, 4)`
//! connections and syncs every [`SYNC_WINDOW`]; one operation is one
//! window (first byte sent → its `done` read). `wire-ping` keeps a single
//! event outstanding on a single connection; one operation is one event
//! (frame sent → `done` read, the reaction arriving just before it).

use std::time::Instant;

use reweb_core::{InMessage, MessageMeta, ReactiveEngine};
use reweb_net::wire::event_to_message;
use reweb_net::{NetClient, NetConfig, NetServer, Reply, Request};
use reweb_term::frame::{encode_frame, FRAME_HEADER_LEN};
use reweb_term::{parse_term, scan_frames};

use crate::gen::{wire_stream, WireStream, WIRE_PROGRAM};
use crate::measure::{ns_per_item, timed_cpu};
use crate::replay::{engine_counters, engine_stages, ingress_counters, obs_layers, sample};
use crate::spans::Spans;
use crate::{Cfg, Digest, Layers, Round, Workload};

/// Events between `sync` round trips on `wire-blast` (E18's window).
pub const SYNC_WINDOW: usize = 512;
/// `wire-blast` events per round at scale 1.0, all connections together.
const BLAST_EVENTS: usize = 98_304;
/// `wire-ping` events per round at scale 1.0.
const PING_EVENTS: usize = 500;

/// Node starts per round (see the set-up comment in `round`).
const STARTS: usize = 4;

/// Either wire workload.
pub struct Wire {
    cfg: Cfg,
    ping: bool,
    round_no: u64,
    reference: Option<Digest>,
}

/// What one connection's thread brings back from a round.
struct ConnResult {
    digest: Digest,
    refused: u64,
    lat_us: Vec<f64>,
    spans: Spans,
}

impl Wire {
    /// `wire-blast`.
    pub fn blast(cfg: Cfg) -> Wire {
        Wire {
            cfg,
            ping: false,
            round_no: 0,
            reference: None,
        }
    }

    /// `wire-ping`.
    pub fn ping(cfg: Cfg) -> Wire {
        Wire {
            ping: true,
            ..Wire::blast(cfg)
        }
    }

    fn conns(&self) -> usize {
        if self.ping {
            1
        } else {
            self.cfg.conns
        }
    }

    fn window(&self) -> usize {
        if self.ping {
            1
        } else {
            SYNC_WINDOW
        }
    }

    fn streams(&self) -> Vec<WireStream> {
        let conns = self.conns();
        let (per_conn, labels) = if self.ping {
            (self.cfg.events(PING_EVENTS, 1), 1)
        } else {
            (self.cfg.events(BLAST_EVENTS / conns, SYNC_WINDOW), 16)
        };
        (0..conns)
            .map(|c| wire_stream(c, per_conn, labels, self.cfg.seed))
            .collect()
    }

    fn messages(streams: &[WireStream]) -> Vec<InMessage> {
        streams
            .iter()
            .enumerate()
            .flat_map(|(c, s)| {
                let meta = MessageMeta::from_uri(format!("http://load/{c}"));
                s.events
                    .iter()
                    .map(move |(p, at)| InMessage::new(p.clone(), meta.clone(), *at))
            })
            .collect()
    }

    /// The reactions an in-process engine produces for the same events.
    fn reference(&mut self, streams: &[WireStream]) -> Digest {
        *self.reference.get_or_insert_with(|| {
            let mut engine = ReactiveEngine::new("http://svc");
            engine.install_program(WIRE_PROGRAM).expect("wire program");
            let mut d = Digest::default();
            for m in Wire::messages(streams) {
                d.add_all(&engine.receive(m.payload, &m.meta, m.at));
            }
            d
        })
    }
}

fn drive(
    client: &mut NetClient,
    stream: &WireStream,
    window: usize,
    mut spans: Spans,
    conn: u64,
) -> ConnResult {
    let mut digest = Digest::default();
    let mut refused = 0;
    let mut lat_us = Vec::with_capacity(stream.frames.len() / window + 1);
    let root = spans.open(conn, None, "net.connection");
    for (w, frames) in stream.frames.chunks(window).enumerate() {
        let id = conn << 32 | w as u64;
        let t0 = Instant::now();
        let h = spans.open(id, root, "net.client_send");
        for f in frames {
            client.send_raw(f).expect("event frame written");
        }
        spans.close(h);
        let h = spans.open(id, root, "net.client_sync");
        let replies = client.sync().expect("sync answered");
        spans.close(h);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        for reply in replies {
            match reply {
                Reply::Reaction { to, payload, .. } => digest.add(&to, &payload),
                _ => refused += 1,
            }
        }
    }
    spans.close(root);
    ConnResult {
        digest,
        refused,
        lat_us,
        spans,
    }
}

impl Workload for Wire {
    fn round(&mut self, spans: &mut Spans) -> Round {
        self.round_no += 1;
        let traced = spans.is_on();
        let window = self.window();

        // Generating the inputs is timed once; starting the node (bind,
        // install, connect) is timed `STARTS` times and averaged, because
        // one start is bimodal: `hello` is answered at once if it beats
        // the accept thread's first poll and two sleeps later if not.
        let t0 = Instant::now();
        let streams = self.streams();
        let generate_s = t0.elapsed().as_secs_f64();
        let start = || {
            let server = NetServer::bind(
                "127.0.0.1:0",
                ReactiveEngine::new("http://svc"),
                NetConfig::default(),
            )
            .expect("server binds on loopback");
            server
                .with_engine(|e| e.install_source(WIRE_PROGRAM))
                .expect("wire program installs");
            let clients: Vec<NetClient> = (0..streams.len())
                .map(|c| {
                    NetClient::connect(server.local_addr(), format!("http://load/{c}"))
                        .expect("client connects")
                })
                .collect();
            (server, clients)
        };
        let mut start_s = 0.0;
        let mut node = None;
        for _ in 0..STARTS {
            drop(node.take());
            let t0 = Instant::now();
            node = Some(start());
            start_s += t0.elapsed().as_secs_f64();
        }
        let (mut server, mut clients) = node.expect("STARTS > 0");
        if traced {
            server.obs().enable();
        }
        let setup_s = generate_s + start_s / STARTS as f64;

        let root = spans.open(self.round_no, None, "round.timed");
        let forks: Vec<Spans> = clients.iter().map(|_| spans.fork()).collect();
        let (results, wall_s, cpu_s) = timed_cpu(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(&streams)
                    .zip(forks)
                    .enumerate()
                    .map(|(c, ((client, stream), fork))| {
                        s.spawn(move || drive(client, stream, window, fork, c as u64))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection thread"))
                    .collect::<Vec<ConnResult>>()
            })
        });
        spans.close(root);

        let stats = server.stats();
        let metrics = server.with_engine(|e| e.metrics());
        let obs = server.obs();
        for c in clients {
            let _ = c.bye();
        }
        server.shutdown();

        let events: u64 = streams.iter().map(|s| s.frames.len() as u64).sum();
        let mut digest = Digest::default();
        let mut refused = 0;
        let mut lat_us = Vec::new();
        let mut layers = Layers::new();
        engine_counters(&mut layers, &metrics, events);
        // From this round's own spans: how long the generator spent writing
        // frames, and how much of its time it sat in `sync`.
        let (mut send_ns, mut sync_ns) = (0u64, 0u64);
        for r in results {
            digest.merge(r.digest);
            refused += r.refused;
            lat_us.extend(r.lat_us);
            let totals = r.spans.totals();
            send_ns += totals.get("net.client_send").map_or(0, |t| t.total_ns);
            sync_ns += totals.get("net.client_sync").map_or(0, |t| t.total_ns);
            spans.merge(r.spans, root);
        }
        if traced {
            layers.insert(
                "net.client_send_ns_per_event",
                send_ns as f64 / events as f64,
            );
            layers.insert(
                "net.client_sync_wait_share",
                sync_ns as f64 / (send_ns + sync_ns).max(1) as f64,
            );
            obs_layers(&mut layers, &obs, events);
        }
        ingress_counters(&mut layers, &stats);

        let want = self.reference(&streams);
        let failed = refused
            + stats.engine_errors
            + stats.replies_dropped
            + metrics.actions_failed
            + events.abs_diff(stats.msgs_processed)
            + digest.mismatch(&want);
        Round {
            setup_s,
            events,
            wall_s,
            cpu_s,
            lat_us,
            attempted: events,
            failed,
            reactions: digest.count,
            layers,
        }
    }

    fn replay(&mut self, spans: &mut Spans, round: &Layers) -> (Layers, Vec<(&'static str, f64)>) {
        let mut layers = Layers::new();
        let streams = self.streams();
        let msgs = Wire::messages(&streams[..1]);
        let events = sample(&streams[0].events);
        let frames = sample(&streams[0].frames);
        let root = spans.open(0, None, "replay.wire");

        // Client side: envelope term → text → frame. The workload sends
        // pre-encoded frames, so none of this is on the timed path.
        let requests: Vec<Request> = events
            .iter()
            .enumerate()
            .map(|(j, (payload, at))| Request::Event {
                id: j as u64 + 1,
                at: Some(*at),
                from: None,
                credentials: None,
                payload: payload.clone(),
            })
            .collect();
        let terms: Vec<_> = requests.iter().map(Request::to_term).collect();
        let texts: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
        spans.span(0, root, "term.stages", || {
            layers.insert(
                "term.print_ns_per_event",
                ns_per_item(&terms, |t| {
                    std::hint::black_box(t.to_string());
                }),
            );
            layers.insert(
                "term.parse_ns_per_event",
                ns_per_item(&texts, |t| {
                    std::hint::black_box(parse_term(t).expect("request text parses"));
                }),
            );
            layers.insert(
                "term.frame_encode_ns_per_event",
                ns_per_item(&texts, |t| {
                    std::hint::black_box(encode_frame(t.as_bytes()));
                }),
            );
            // The server reads and CRC-checks frames off the socket;
            // `scan_frames` over one window's bytes is the same work.
            let windows: Vec<Vec<u8>> = frames.chunks(SYNC_WINDOW).map(|w| w.concat()).collect();
            let per_window = ns_per_item(&windows, |w| {
                std::hint::black_box(scan_frames(w));
            });
            layers.insert(
                "term.frame_scan_ns_per_event",
                per_window * windows.len() as f64 / frames.len().max(1) as f64,
            );
            layers.insert(
                "term.bytes_per_event",
                frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64,
            );
        });
        spans.span(0, root, "net.wire_stages", || {
            layers.insert(
                "net.request_encode_ns_per_event",
                ns_per_item(&requests, |r| {
                    std::hint::black_box(r.encode());
                }),
            );
            layers.insert(
                "net.request_decode_ns_per_event",
                ns_per_item(&texts, |t| {
                    std::hint::black_box(Request::decode(t.as_bytes()).expect("request decodes"));
                }),
            );
            layers.insert(
                "net.event_to_message_ns_per_event",
                ns_per_item(events, |(payload, at)| {
                    std::hint::black_box(
                        event_to_message(
                            "http://load/0",
                            &None,
                            false,
                            &None,
                            &None,
                            payload.clone(),
                            *at,
                        )
                        .expect("session event"),
                    );
                }),
            );
            let mut engine = ReactiveEngine::new("http://svc");
            engine.install_program(WIRE_PROGRAM).expect("wire program");
            let replies: Vec<Reply> = sample(&msgs)
                .iter()
                .enumerate()
                .flat_map(|(j, m)| {
                    engine
                        .receive(m.payload.clone(), &m.meta, m.at)
                        .into_iter()
                        .map(move |o| Reply::Reaction {
                            id: j as u64 + 1,
                            to: o.to,
                            payload: o.payload,
                        })
                })
                .collect();
            let reply_frames: Vec<Vec<u8>> = replies.iter().map(Reply::encode).collect();
            layers.insert(
                "net.reply_encode_ns_per_reaction",
                ns_per_item(&replies, |r| {
                    std::hint::black_box(r.encode());
                }),
            );
            layers.insert(
                "net.reply_decode_ns_per_reaction",
                ns_per_item(&reply_frames, |f| {
                    std::hint::black_box(
                        Reply::decode(&f[FRAME_HEADER_LEN..]).expect("reply decodes"),
                    );
                }),
            );
        });
        spans.close(root);
        engine_stages(WIRE_PROGRAM, &[], &msgs, spans, &mut layers);

        let per_event = round
            .get("update.messages_sent_per_event")
            .copied()
            .unwrap_or(0.0);
        let on_path = |name: &'static str, factor: f64| {
            (name, layers.get(name).copied().unwrap_or(0.0) * factor)
        };
        let addends = vec![
            (
                "net.client_send_ns_per_event",
                round
                    .get("net.client_send_ns_per_event")
                    .copied()
                    .unwrap_or(0.0),
            ),
            on_path("term.frame_scan_ns_per_event", 1.0),
            on_path("net.request_decode_ns_per_event", 1.0),
            on_path("net.event_to_message_ns_per_event", 1.0),
            on_path("core.receive_ns_per_event", 1.0),
            on_path("net.reply_encode_ns_per_reaction", per_event),
            on_path("net.reply_decode_ns_per_reaction", per_event),
        ];
        (layers, addends)
    }
}
