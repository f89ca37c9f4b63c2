//! `benchmark`: one end-to-end + per-layer yardstick for the served
//! reactive node. See `README.md` for what each workload and metric means
//! and `../BENCHMARK.json` for the contract the driver checks.
//!
//! A run is a sequence of identical **rounds**: set the node up from the
//! seed (timed → `setup_s`), push a fixed number of events through it
//! (timed → everything else), check the outputs against an in-process
//! reference, tear down. Rounds repeat until `--seconds` have passed;
//! the first is discarded as warm-up and every metric is the median over
//! the rest. Fixed event counts keep the program's counters identical
//! from round to round and run to run; repeating the set-up is what gives
//! `setup_s` a median.

#![warn(missing_docs)]

pub mod gen;
pub mod measure;
pub mod replay;
pub mod spans;
pub mod spec;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use measure::median;
use spans::Spans;

/// Per-layer metric values by name (names from [`spec::PER_LAYER`]).
pub type Layers = BTreeMap<&'static str, f64>;

/// What every workload is configured with.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Multiplier on every workload's per-round event count (1.0 for real
    /// runs; the smoke test runs at ~1/200).
    pub scale: f64,
    /// Client threads / connections / delivery destinations:
    /// `min(nproc, 4)`.
    pub conns: usize,
    /// Directory for WALs, outboxes and ledgers. Must be on a real
    /// filesystem: on tmpfs fsync is a no-op.
    pub scratch: PathBuf,
}

impl Cfg {
    /// `n` events at scale 1.0, scaled and rounded up to a multiple of
    /// `quantum` (a batch or sync window), never less than one quantum.
    pub fn events(&self, n: usize, quantum: usize) -> usize {
        let scaled = (n as f64 * self.scale).ceil() as usize;
        scaled.div_ceil(quantum).max(1) * quantum
    }
}

/// `min(nproc, 4)`: the sizing rule for client threads and connections.
pub fn default_conns() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Count plus order-insensitive digest of a multiset of printed terms —
/// how a workload's reactions are compared with the reference run's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Items added.
    pub count: u64,
    /// Wrapping sum of the items' FNV-1a hashes.
    pub sum: u64,
}

impl Digest {
    /// Add one reaction (`to` + printed payload).
    pub fn add(&mut self, to: &str, payload: &reweb_term::Term) {
        self.count += 1;
        self.sum = self
            .sum
            .wrapping_add(reweb_term::fnv1a(format!("{to} {payload}").as_bytes()));
    }

    /// Add every message of an engine output.
    pub fn add_all<'a>(&mut self, out: impl IntoIterator<Item = &'a reweb_core::OutMessage>) {
        for o in out {
            self.add(&o.to, &o.payload);
        }
    }

    /// Fold another digest in (per-thread digests of one round).
    pub fn merge(&mut self, other: Digest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Operations to count as failed when `self` should equal `want`:
    /// the count difference, or 1 when only the contents differ.
    pub fn mismatch(&self, want: &Digest) -> u64 {
        if self == want {
            0
        } else {
            self.count.abs_diff(want.count).max(1)
        }
    }
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Seconds from seed to a node ready for its first event.
    pub setup_s: f64,
    /// Input events fully processed in the timed phase.
    pub events: u64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) of the timed phase.
    pub cpu_s: f64,
    /// One latency sample per operation, microseconds.
    pub lat_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: refused, errored, dropped, duplicated, or with
    /// a reaction missing from / different to the reference.
    pub failed: u64,
    /// Reactions the round produced.
    pub reactions: u64,
    /// Counter-backed per-layer values of this round (deterministic for
    /// a seed; timing-backed ones come from the stage replay).
    pub layers: Layers,
}

/// One of the six workloads.
pub trait Workload {
    /// Run one round; `spans` records the calls into each layer when it
    /// is on, and the node runs with `Obs` enabled iff it is.
    fn round(&mut self, spans: &mut Spans) -> Round;

    /// Stage replay: time calls into each layer's public functions over
    /// this workload's own generated inputs, recording a span per stage.
    /// `round` holds the traced round's counter- and span-backed values.
    /// Returns the timing-backed per-layer values and the stage budget's
    /// addends: `(stage, CPU ns per input event)` for every stage on the
    /// workload's per-event path. Stages that never block are timed by
    /// the wall clock (single-threaded, so wall = CPU); stages that wait
    /// for the disk contribute their CPU time only, because the budget's
    /// total is the end-to-end CPU time per event.
    fn replay(&mut self, spans: &mut Spans, round: &Layers) -> (Layers, Vec<(&'static str, f64)>);
}

/// Medians over the measured rounds of one run.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Rounds measured (after the warm-up round).
    pub rounds: usize,
    /// Latency samples behind the percentiles, all rounds together.
    pub samples: usize,
    /// Events per round.
    pub events: u64,
    /// Reactions per round.
    pub reactions: u64,
    /// Operations attempted, all rounds.
    pub attempted: u64,
    /// Operations failed, all rounds.
    pub failed: u64,
    /// End-to-end metric values by name (`peak_rss_mb` is added by the
    /// caller at exit).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counter-backed per-layer values of the last round.
    pub layers: Layers,
    /// Did every round produce the same event and reaction counts and the
    /// same [`spec::EXACT`] counters?
    pub counters_repeat: bool,
}

/// Run rounds of `w` for `budget` wall time (at least `min_rounds + 1`),
/// discard the first, and reduce the rest to medians.
pub fn run_rounds(
    w: &mut dyn Workload,
    budget: Duration,
    min_rounds: usize,
    spans: &mut Spans,
) -> Summary {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds + 1 || start.elapsed() < budget {
        rounds.push(w.round(spans));
    }
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    let exact = |r: &Round| -> Vec<Option<f64>> {
        spec::EXACT
            .iter()
            .map(|n| r.layers.get(n).copied())
            .collect()
    };
    let counters_repeat = rounds.windows(2).all(|p| {
        p[0].events == p[1].events
            && p[0].reactions == p[1].reactions
            && exact(&p[0]) == exact(&p[1])
    });
    if !counters_repeat {
        for (i, p) in rounds.windows(2).enumerate() {
            for n in spec::EXACT {
                if p[0].layers.get(n) != p[1].layers.get(n) {
                    eprintln!(
                        "counter {n} differs between rounds {i} and {}: {:?} vs {:?}",
                        i + 1,
                        p[0].layers.get(n),
                        p[1].layers.get(n)
                    );
                }
            }
        }
    }
    let measured = &rounds[1..];
    let over = |f: fn(&Round) -> f64| median(&measured.iter().map(f).collect::<Vec<_>>());
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", over(|r| r.setup_s));
    metrics.insert("events_per_s", over(|r| r.events as f64 / r.wall_s));
    metrics.insert(
        "latency_p50_us",
        over(|r| measure::quantile(&r.lat_us, 0.50)),
    );
    metrics.insert(
        "latency_p99_us",
        over(|r| measure::quantile(&r.lat_us, 0.99)),
    );
    metrics.insert(
        "cpu_us_per_event",
        over(|r| r.cpu_s * 1e6 / r.events as f64),
    );
    let last = rounds.last().expect("at least one round");
    Summary {
        rounds: measured.len(),
        samples: measured.iter().map(|r| r.lat_us.len()).sum(),
        events: last.events,
        reactions: last.reactions,
        attempted,
        failed,
        metrics,
        layers: last.layers.clone(),
        counters_repeat,
    }
}
