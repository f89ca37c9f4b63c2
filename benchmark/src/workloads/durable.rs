//! `durable-ingest` and `durable-recover`: the write and the read side of
//! `DurableEngine<ReactiveEngine>` over the 128-pair `sharded_rules`
//! program (reused from `reweb_bench`, as E15 does).
//!
//! `durable-ingest` commits [`BATCH`]-message batches under
//! `SyncPolicy::Always` with periodic snapshots; one operation is one
//! `receive_batch` call — the commit latency a pushing node waits for.
//! Batches are small on purpose so the per-fsync cost is not amortised
//! away as in E15's 1024. `durable-recover` times cold
//! `DurableEngine::open` calls over a log written during set-up; one
//! operation is one open. Both are one workload pair so a WAL change that
//! speeds the write side but slows replay shows up in the same set.

use std::path::{Path, PathBuf};
use std::time::Instant;

use reweb_core::{InMessage, ReactiveEngine};
use reweb_persist::wal::Wal;
use reweb_persist::{DurableEngine, DurableOptions, Record, SyncPolicy};
use reweb_term::frame::encode_frame;
use reweb_term::{parse_term, scan_frames};

use crate::gen::paired_messages;
use crate::measure::{ns_per_item, timed_cpu};
use crate::replay::{engine_stages, owned_engine_counters, sample};
use crate::spans::Spans;
use crate::{Cfg, Digest, Layers, Round, Workload};

/// Independent evt/ack label pairs in the rule program.
const LABELS: usize = 128;
/// Messages per `receive_batch` call = per log record = per fsync.
pub const BATCH: usize = 64;
/// `durable-ingest` events per round at scale 1.0.
const INGEST_EVENTS: usize = 65_536;
/// Automatic snapshots per `durable-ingest` round. Three in 1024 batches
/// keeps the snapshot-carrying commits above the 99th percentile, so
/// `latency_p99_us` reads the ordinary commit tail and not a coin toss
/// between the two modes.
const SNAPSHOTS: u64 = 3;
/// Events in the log `durable-recover` reopens, at scale 1.0.
const RECOVER_EVENTS: usize = 4_096;
/// Cold opens per `durable-recover` round.
const OPENS: usize = 24;

fn blank(traced: bool) -> impl FnOnce() -> ReactiveEngine {
    move || {
        let e = ReactiveEngine::new("http://svc");
        if traced {
            e.obs().enable();
        }
        e
    }
}

fn fresh_dir(cfg: &Cfg, tag: &str) -> PathBuf {
    let dir = cfg.scratch.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What must survive a restart: the installed program, the partial-match
/// state, and the firing count.
#[derive(PartialEq, Eq, Debug)]
struct Survives {
    program: String,
    state: usize,
    fired: u64,
}

fn survives(e: &ReactiveEngine) -> Survives {
    Survives {
        program: e.program_source(),
        state: e.state_size(),
        fired: e.metrics.rules_fired,
    }
}

/// The reactions an in-memory engine produces for `msgs`, and then for
/// the `tail` batch that follows them.
fn reference(program: &str, msgs: &[InMessage], tail: &[InMessage]) -> (Digest, Digest) {
    let mut engine = ReactiveEngine::new("http://svc");
    engine.install_program(program).expect("program installs");
    let mut digest = |msgs: &[InMessage]| {
        let mut d = Digest::default();
        for chunk in msgs.chunks(BATCH) {
            d.add_all(engine.receive_batch_tagged(chunk).iter().map(|(_, o)| o));
        }
        d
    };
    (digest(msgs), digest(tail))
}

/// Stages of the log's byte path over `msgs`, shared by both workloads:
/// record text (print/parse), framing (encode/scan) and
/// `Record::{to,from}_bytes`.
fn record_stages(msgs: &[InMessage], spans: &mut Spans, layers: &mut Layers) {
    let msgs = sample(msgs);
    let per_event = |ns_per_batch: f64| ns_per_batch / BATCH as f64;
    let records: Vec<Record> = msgs
        .chunks(BATCH)
        .map(|c| Record::Batch(c.to_vec()))
        .collect();
    let bytes: Vec<Vec<u8>> = records.iter().map(Record::to_bytes).collect();
    let texts: Vec<&str> = bytes
        .iter()
        .map(|b| std::str::from_utf8(b).expect("records are text"))
        .collect();
    let terms: Vec<_> = texts
        .iter()
        .map(|t| parse_term(t).expect("record text parses"))
        .collect();
    let log: Vec<u8> = bytes.iter().flat_map(|b| encode_frame(b)).collect();
    spans.span(0, None, "replay.record", || {
        layers.insert(
            "term.print_ns_per_event",
            per_event(ns_per_item(&terms, |t| {
                std::hint::black_box(t.to_string());
            })),
        );
        layers.insert(
            "term.parse_ns_per_event",
            per_event(ns_per_item(&texts, |t| {
                std::hint::black_box(parse_term(t).expect("record text parses"));
            })),
        );
        layers.insert(
            "term.frame_encode_ns_per_event",
            per_event(ns_per_item(&bytes, |b| {
                std::hint::black_box(encode_frame(b));
            })),
        );
        layers.insert(
            "term.frame_scan_ns_per_event",
            ns_per_item(std::slice::from_ref(&log), |l| {
                std::hint::black_box(scan_frames(l));
            }) / msgs.len().max(1) as f64,
        );
        layers.insert(
            "term.bytes_per_event",
            log.len() as f64 / msgs.len().max(1) as f64,
        );
        layers.insert(
            "persist.record_encode_ns_per_event",
            per_event(ns_per_item(&records, |r| {
                std::hint::black_box(r.to_bytes());
            })),
        );
        layers.insert(
            "persist.record_decode_ns_per_event",
            per_event(ns_per_item(&bytes, |b| {
                std::hint::black_box(Record::from_bytes(b).expect("record decodes"));
            })),
        );
    });
}

fn recovery_layers(layers: &mut Layers, d: &DurableEngine<ReactiveEngine>) {
    let r = d.recovery();
    layers.insert("persist.recovery_warm_records", r.warm_records as f64);
    layers.insert(
        "persist.recovery_replayed_records",
        r.replayed_records as f64,
    );
    layers.insert(
        "persist.recovery_ns_per_record",
        r.elapsed_ns as f64 / (r.warm_records + r.replayed_records).max(1) as f64,
    );
}

/// A node at `dir` that has ingested `msgs` without waiting for the disk
/// (`SyncPolicy::Os` writes the same bytes) and never snapshots.
fn written_node(dir: &Path, program: &str, msgs: &[InMessage]) -> DurableEngine<ReactiveEngine> {
    let opts = DurableOptions {
        sync: SyncPolicy::Os,
        snapshot_every: None,
    };
    let mut node = DurableEngine::open(dir, opts, blank(false)).expect("durable node opens");
    node.install_program(program).expect("program installs");
    for chunk in msgs.chunks(BATCH) {
        node.receive_batch(chunk).expect("batch commits");
    }
    node
}

// ----- durable-ingest -----------------------------------------------------

/// `durable-ingest`.
pub struct Ingest {
    cfg: Cfg,
    round_no: u64,
    reference: Option<(Digest, Digest)>,
}

impl Ingest {
    /// `durable-ingest` under `cfg`.
    pub fn new(cfg: Cfg) -> Ingest {
        Ingest {
            cfg,
            round_no: 0,
            reference: None,
        }
    }

    fn events(&self) -> usize {
        self.cfg.events(INGEST_EVENTS, BATCH)
    }

    fn options(&self) -> DurableOptions {
        let records = (self.events() / BATCH) as u64 + 1; // + the install record
        DurableOptions {
            sync: SyncPolicy::Always,
            snapshot_every: Some((records / SNAPSHOTS).max(1)),
        }
    }
}

impl Workload for Ingest {
    fn round(&mut self, spans: &mut Spans) -> Round {
        self.round_no += 1;
        let traced = spans.is_on();
        let opts = self.options();

        let t0 = Instant::now();
        let program = reweb_bench::sharded_rules(LABELS);
        let mut msgs = paired_messages(LABELS, self.events() + BATCH, self.cfg.seed);
        // Held back: what the reopened node is asked after the round.
        let tail = msgs.split_off(self.events());
        let dir = fresh_dir(&self.cfg, "durable-ingest");
        let mut node = DurableEngine::open(&dir, opts, blank(traced)).expect("durable node opens");
        node.install_program(&program).expect("program installs");
        let setup_s = t0.elapsed().as_secs_f64();

        let mut outs = Vec::with_capacity(msgs.len() / BATCH);
        let mut lat_us = Vec::with_capacity(msgs.len() / BATCH);
        let root = spans.open(self.round_no, None, "round.timed");
        let ((), wall_s, cpu_s) = timed_cpu(|| {
            for (b, chunk) in msgs.chunks(BATCH).enumerate() {
                let t0 = Instant::now();
                let out = spans.span(b as u64, root, "persist.receive_batch", || {
                    node.receive_batch(chunk).expect("batch commits")
                });
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                outs.push(out);
            }
        });
        spans.close(root);

        let events = msgs.len() as u64;
        let mut digest = Digest::default();
        for out in &outs {
            digest.add_all(out);
        }
        let (want, want_tail) = *self
            .reference
            .get_or_insert_with(|| reference(&program, &msgs, &tail));

        let mut layers = Layers::new();
        owned_engine_counters(&mut layers, node.engine(), events);
        layers.insert(
            "persist.wal_bytes_per_event",
            node.wal_len() as f64 / events as f64,
        );
        if traced {
            let fsync = node.obs().fsync.snapshot();
            layers.insert(
                "persist.fsyncs_per_event",
                fsync.count() as f64 / events as f64,
            );
            layers.insert("persist.fsync_p50_us", fsync.p50() as f64 / 1e3);
            layers.insert(
                "obs.spans_per_event",
                node.obs().recorder().recorded() as f64 / events as f64,
            );
        }

        // The recovery wall, every round: a reopened node holds the same
        // program and firing count and reacts to the next batch exactly as
        // an uninterrupted engine does. Its `state_size` may be smaller:
        // window gc is lazy, so the uninterrupted engine still counts
        // expired partial matches that a snapshot-bounded replay never
        // rebuilds.
        let uninterrupted = survives(node.engine());
        let actions_failed = node.engine().metrics.actions_failed;
        drop(node);
        let mut reopened = spans.span(self.round_no, None, "persist.open", || {
            DurableEngine::open(&dir, opts, blank(false)).expect("durable node reopens")
        });
        let after = survives(reopened.engine());
        let mut got_tail = Digest::default();
        got_tail.add_all(&reopened.receive_batch(&tail).expect("tail batch commits"));
        let recovered = after.program == uninterrupted.program
            && after.fired == uninterrupted.fired
            && after.state <= uninterrupted.state
            && got_tail == want_tail;
        recovery_layers(&mut layers, &reopened);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);

        Round {
            setup_s,
            events,
            wall_s,
            cpu_s,
            lat_us,
            attempted: events,
            failed: actions_failed + digest.mismatch(&want) + u64::from(!recovered),
            reactions: digest.count,
            layers,
        }
    }

    fn replay(&mut self, spans: &mut Spans, _round: &Layers) -> (Layers, Vec<(&'static str, f64)>) {
        let program = reweb_bench::sharded_rules(LABELS);
        let msgs = paired_messages(LABELS, self.events(), self.cfg.seed);
        let mut layers = Layers::new();
        record_stages(&msgs, spans, &mut layers);
        engine_stages(&program, &[], &msgs, spans, &mut layers);

        // `Wal::append` and `Wal::sync` timed apart, then one snapshot.
        let dir = fresh_dir(&self.cfg, "durable-ingest-replay");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut wal = Wal::open(&dir.join("wal.log")).expect("wal opens").wal;
        let records: Vec<Record> = sample(&msgs)
            .chunks(BATCH)
            .map(|c| Record::Batch(c.to_vec()))
            .collect();
        let (mut append_ns, mut sync_ns) = (0u128, 0u128);
        let ((), _, wal_cpu_s) = timed_cpu(|| {
            spans.span(0, None, "replay.wal", || {
                for r in &records {
                    let t0 = Instant::now();
                    wal.append(r).expect("append");
                    append_ns += t0.elapsed().as_nanos();
                    let t0 = Instant::now();
                    wal.sync().expect("sync");
                    sync_ns += t0.elapsed().as_nanos();
                }
            })
        });
        drop(wal);
        let batches = records.len().max(1) as f64;
        layers.insert(
            "persist.wal_append_ns_per_batch",
            append_ns as f64 / batches,
        );
        layers.insert("persist.wal_sync_ns_per_batch", sync_ns as f64 / batches);
        snapshot_stage(
            &dir.join("node"),
            &program,
            sample(&msgs),
            spans,
            &mut layers,
        );
        let _ = std::fs::remove_dir_all(&dir);

        let addends = vec![
            (
                "persist.wal_append+sync (cpu)",
                wal_cpu_s * 1e9 / (records.len() * BATCH).max(1) as f64,
            ),
            (
                "core.receive_ns_per_event",
                layers["core.receive_ns_per_event"],
            ),
        ];
        (layers, addends)
    }
}

/// `persist.snapshot_ms` / `persist.snapshot_bytes`: one `snapshot_now`
/// on a node that ingested `msgs`.
fn snapshot_stage(
    dir: &Path,
    program: &str,
    msgs: &[InMessage],
    spans: &mut Spans,
    layers: &mut Layers,
) {
    let mut node = written_node(dir, program, msgs);
    let t0 = Instant::now();
    spans.span(0, None, "persist.snapshot_now", || {
        node.snapshot_now().expect("snapshot")
    });
    layers.insert("persist.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    let bytes = std::fs::metadata(dir.join("snapshot.bin")).map_or(0, |m| m.len());
    layers.insert("persist.snapshot_bytes", bytes as f64);
}

// ----- durable-recover ----------------------------------------------------

/// `durable-recover`.
pub struct Recover {
    cfg: Cfg,
    round_no: u64,
}

impl Recover {
    /// `durable-recover` under `cfg`.
    pub fn new(cfg: Cfg) -> Recover {
        Recover { cfg, round_no: 0 }
    }

    fn events(&self) -> usize {
        self.cfg.events(RECOVER_EVENTS, BATCH)
    }
}

/// Recovery never snapshots here: the metric is the cold open.
const COLD: DurableOptions = DurableOptions {
    sync: SyncPolicy::Always,
    snapshot_every: None,
};

impl Workload for Recover {
    fn round(&mut self, spans: &mut Spans) -> Round {
        self.round_no += 1;
        let traced = spans.is_on();

        // Set-up writes the log the timed phase reopens.
        let t0 = Instant::now();
        let program = reweb_bench::sharded_rules(LABELS);
        let msgs = paired_messages(LABELS, self.events(), self.cfg.seed);
        let dir = fresh_dir(&self.cfg, "durable-recover");
        let mut writer = written_node(&dir, &program, &msgs);
        writer.sync().expect("log reaches the disk");
        let uninterrupted = survives(writer.engine());
        let wal_bytes = writer.wal_len();
        drop(writer);
        let setup_s = t0.elapsed().as_secs_f64();

        // Only the opens are on the clock: tearing the previous node down
        // (which has to happen first, to reuse its memory as a restarted
        // process would not) is not part of a restart.
        let mut lat_us = Vec::with_capacity(OPENS);
        let (mut wall_s, mut cpu_s) = (0.0, 0.0);
        let mut last = None;
        let root = spans.open(self.round_no, None, "round.timed");
        for k in 0..OPENS {
            drop(last.take());
            let (node, wall, cpu) = timed_cpu(|| {
                spans.span(k as u64, root, "persist.open", || {
                    DurableEngine::open(&dir, COLD, blank(traced)).expect("cold recovery")
                })
            });
            lat_us.push(wall * 1e6);
            wall_s += wall;
            cpu_s += cpu;
            last = Some(node);
        }
        spans.close(root);

        let node = last.expect("at least one open");
        let recovery = node.recovery().clone();
        let recovered = recovery.recovered
            && !recovery.used_snapshot
            && survives(node.engine()) == uninterrupted;
        let events = (OPENS * msgs.len()) as u64;
        let mut layers = Layers::new();
        owned_engine_counters(&mut layers, node.engine(), msgs.len() as u64);
        layers.insert(
            "persist.wal_bytes_per_event",
            wal_bytes as f64 / msgs.len() as f64,
        );
        recovery_layers(&mut layers, &node);
        if traced {
            layers.insert(
                "obs.spans_per_event",
                node.obs().recorder().recorded() as f64 / msgs.len() as f64,
            );
        }
        let reactions = node.engine().metrics.rules_fired;
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);

        Round {
            setup_s,
            events,
            wall_s,
            cpu_s,
            lat_us,
            attempted: OPENS as u64,
            failed: if recovered { 0 } else { OPENS as u64 },
            reactions,
            layers,
        }
    }

    fn replay(&mut self, spans: &mut Spans, _round: &Layers) -> (Layers, Vec<(&'static str, f64)>) {
        let program = reweb_bench::sharded_rules(LABELS);
        let msgs = paired_messages(LABELS, self.events(), self.cfg.seed);
        let mut layers = Layers::new();
        record_stages(&msgs, spans, &mut layers);
        engine_stages(&program, &[], &msgs, spans, &mut layers);

        let on_path = |name: &'static str| (name, layers[name]);
        let addends = vec![
            on_path("term.frame_scan_ns_per_event"),
            on_path("persist.record_decode_ns_per_event"),
            on_path("core.receive_ns_per_event"),
        ];
        (layers, addends)
    }
}
