//! # reweb-obs — observability for the reactive engine stack
//!
//! The system spans four tiers (ingress → engine → durability →
//! delivery); this crate is what the system emits about itself:
//!
//! * **Causal tracing** — each ingested event gets a trace id carried
//!   admission → alpha dispatch → beta probes → firing → reaction →
//!   outbox → delivery ack, with each hop recorded as a [`Span`] in a
//!   bounded lock-free ring ([`FlightRecorder`]).
//! * **Latency histograms** — fixed-bucket log-scale [`Histogram`]s
//!   (p50/p90/p99/max) for batch latency, fsync stall, queue wait, and
//!   delivery round-trip, mergeable across shards and nodes the way
//!   `EngineMetrics::merge` merges counters.
//! * **Reaction provenance** — every reaction is annotated with the
//!   rule and the constituent event ids that satisfied its event query
//!   ([`Provenance`]), so [`Provenance::explain`] reconstructs a firing.
//!
//! Everything hangs off one [`Obs`] handle, compiled in unconditionally
//! but **runtime-toggled**: while disabled, instrumented code performs a
//! single relaxed atomic load and nothing else — no ids, no clock reads,
//! no recording (`alloc_budget` pins that this path allocates and
//! records nothing).

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use reweb_term::Term;

mod hist;
mod recorder;

pub use hist::{bucket_ceil, bucket_of, AtomicHistogram, Histogram, BUCKETS};
pub use recorder::{FlightRecorder, Span};

pub(crate) use hist::field_u64;

/// Pipeline stages a span can cover, in causal order. The numeric
/// values are the ring-buffer encoding; the names are the wire/report
/// encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u64)]
pub enum Stage {
    /// AAA admission + event construction at the engine boundary.
    Admission = 0,
    /// Alpha network dispatch: shape digest + candidate-rule collection.
    Alpha = 1,
    /// Beta tier: incremental join probes for one candidate rule.
    Beta = 2,
    /// Rule firing: condition evaluation + action execution.
    Fire = 3,
    /// A reaction leaving the engine (outbox messages produced).
    Reaction = 4,
    /// A reaction enqueued on the outbound delivery agent.
    Outbox = 5,
    /// Delivery round-trip: dial/push until the receiver's ack.
    Delivery = 6,
    /// Time spent queued in the ingress router before the engine ran.
    QueueWait = 7,
    /// A WAL fsync stall.
    Fsync = 8,
    /// Crash recovery replay (journal → warm-up → exact replay).
    Recovery = 9,
    /// Anything not covered above (forward compatibility).
    Other = 10,
}

impl Stage {
    /// The report/wire name of this stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Alpha => "alpha",
            Stage::Beta => "beta",
            Stage::Fire => "fire",
            Stage::Reaction => "reaction",
            Stage::Outbox => "outbox",
            Stage::Delivery => "delivery",
            Stage::QueueWait => "queue-wait",
            Stage::Fsync => "fsync",
            Stage::Recovery => "recovery",
            Stage::Other => "other",
        }
    }

    /// Parse a stage name printed by [`Stage::name`].
    pub fn from_name(s: &str) -> Option<Stage> {
        Some(match s {
            "admission" => Stage::Admission,
            "alpha" => Stage::Alpha,
            "beta" => Stage::Beta,
            "fire" => Stage::Fire,
            "reaction" => Stage::Reaction,
            "outbox" => Stage::Outbox,
            "delivery" => Stage::Delivery,
            "queue-wait" => Stage::QueueWait,
            "fsync" => Stage::Fsync,
            "recovery" => Stage::Recovery,
            "other" => Stage::Other,
            _ => return None,
        })
    }

    /// Total decoding from the ring-buffer representation (unknown
    /// values map to [`Stage::Other`] rather than failing — the ring is
    /// best-effort diagnostics, not a source of truth).
    pub fn from_u64(v: u64) -> Stage {
        match v {
            0 => Stage::Admission,
            1 => Stage::Alpha,
            2 => Stage::Beta,
            3 => Stage::Fire,
            4 => Stage::Reaction,
            5 => Stage::Outbox,
            6 => Stage::Delivery,
            7 => Stage::QueueWait,
            8 => Stage::Fsync,
            9 => Stage::Recovery,
            _ => Stage::Other,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a reaction happened: the rule that fired and the constituent
/// events (by engine-assigned id) whose join satisfied its event query.
/// Carried on `OutMessage` when observability is enabled; excluded from
/// message equality so the byte-identity equivalence walls (sharded ≡
/// single, indexed ≡ scan, …) are undisturbed by per-shard id skew.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Name of the rule that fired.
    pub rule: String,
    /// Ids of the constituent events, ascending.
    pub events: Vec<u64>,
    /// The trace id of the triggering event's journey (0 if tracing was
    /// off when the event entered).
    pub trace: u64,
}

impl Provenance {
    /// Print as a term:
    /// `provenance{rule[...], trace[...], events[e[..] …]}`.
    pub fn to_term(&self) -> Term {
        Term::build("provenance")
            .unordered()
            .field("rule", self.rule.clone())
            .field("trace", self.trace.to_string())
            .child(Term::ordered(
                "events",
                self.events
                    .iter()
                    .map(|id| Term::ordered("e", vec![Term::text(id.to_string())]))
                    .collect(),
            ))
            .finish()
    }

    /// Parse a term printed by [`Provenance::to_term`].
    pub fn from_term(t: &Term) -> Option<Provenance> {
        if t.label() != Some("provenance") {
            return None;
        }
        let rule = t
            .children()
            .iter()
            .find(|c| c.label() == Some("rule"))
            .map(|c| c.text_content())?;
        let trace = field_u64(t, "trace")?;
        let events = t
            .children()
            .iter()
            .find(|c| c.label() == Some("events"))?
            .children()
            .iter()
            .filter(|c| c.label() == Some("e"))
            .map(|c| c.text_content().parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        Some(Provenance {
            rule,
            events,
            trace,
        })
    }

    /// A one-line human reconstruction of the firing.
    pub fn explain(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule `{}` fired on event", self.rule)?;
        if self.events.len() != 1 {
            write!(f, "s")?;
        }
        for (i, id) in self.events.iter().enumerate() {
            write!(f, "{} #{}", if i == 0 { "" } else { "," }, id)?;
        }
        if self.trace != 0 {
            write!(f, " (trace {})", self.trace)?;
        }
        Ok(())
    }
}

/// Default flight-recorder capacity (spans).
pub const DEFAULT_RECORDER_CAPACITY: usize = 65_536;

/// The shared observability handle: an enable flag, a trace-id source, a
/// flight recorder, and the four tier histograms. One `Arc<Obs>` is
/// shared by an engine, all its shards, the durability wrapper, the
/// ingress server, and the delivery agent — sharing *is* the cross-shard
/// merge, since every member is a plain atomic.
pub struct Obs {
    enabled: AtomicBool,
    next_trace: AtomicU64,
    epoch: Instant,
    recorder: FlightRecorder,
    /// Engine batch ingest latency (ns per `receive_batch` call).
    pub batch: AtomicHistogram,
    /// WAL fsync stall (ns per `sync`).
    pub fsync: AtomicHistogram,
    /// Ingress queue wait (ns from enqueue to engine pickup).
    pub queue: AtomicHistogram,
    /// Outbound delivery round-trip (ns from push to ack).
    pub delivery: AtomicHistogram,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// A disabled handle with the default recorder capacity. This is
    /// what every engine owns from construction, so instrumented code
    /// never needs an `Option` check — just [`Obs::is_enabled`].
    pub fn new() -> Obs {
        Obs::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A disabled handle whose flight recorder holds `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Obs {
        Obs {
            enabled: AtomicBool::new(false),
            next_trace: AtomicU64::new(1),
            epoch: Instant::now(),
            recorder: FlightRecorder::new(capacity),
            batch: AtomicHistogram::new(),
            fsync: AtomicHistogram::new(),
            queue: AtomicHistogram::new(),
            delivery: AtomicHistogram::new(),
        }
    }

    /// An enabled handle (convenience for tests and reports).
    pub fn enabled() -> Arc<Obs> {
        let o = Obs::new();
        o.enable();
        Arc::new(o)
    }

    /// Turn recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off. Already-recorded spans and histograms remain
    /// readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// The one check on the disabled hot path: a relaxed load.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh trace id (never 0; 0 everywhere means "untraced").
    #[inline]
    pub fn next_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since this handle was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    #[inline]
    pub fn span_since(&self, trace: u64, stage: Stage, start_ns: u64) {
        let now = self.now_ns();
        self.recorder
            .record(trace, stage, start_ns, now.saturating_sub(start_ns));
    }

    /// Record a fully specified span.
    #[inline]
    pub fn span(&self, trace: u64, stage: Stage, start_ns: u64, dur_ns: u64) {
        self.recorder.record(trace, stage, start_ns, dur_ns);
    }

    /// The flight recorder (snapshots, capacity, totals).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The span chain of one trace, oldest first.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        self.recorder.spans_for(trace)
    }

    /// The full stats snapshot as a term — the body of a `stats` wire
    /// reply:
    /// `stats{enabled[...], spans[...], batch[hist…], fsync[hist…], queue[hist…], delivery[hist…]}`.
    pub fn stats_term(&self) -> Term {
        fn wrap(name: &str, h: &AtomicHistogram) -> Term {
            Term::ordered(name, vec![h.snapshot().to_term()])
        }
        Term::build("stats")
            .unordered()
            .field("enabled", if self.is_enabled() { "1" } else { "0" })
            .field("spans", self.recorder.recorded().to_string())
            .child(wrap("batch", &self.batch))
            .child(wrap("fsync", &self.fsync))
            .child(wrap("queue", &self.queue))
            .child(wrap("delivery", &self.delivery))
            .finish()
    }

    /// The span dump of one trace as a term — the body of a `trace`
    /// wire reply: `trace{id[...], span{…} …}`.
    pub fn trace_term(&self, trace: u64) -> Term {
        let mut b = Term::build("trace")
            .unordered()
            .field("id", trace.to_string());
        for s in self.spans_for(trace) {
            b = b.child(s.to_term());
        }
        b.finish()
    }
}

/// Pull one named histogram back out of a `stats{}` term (the inverse of
/// the corresponding [`Obs::stats_term`] child). `None` on shape
/// mismatch.
pub fn stats_histogram(stats: &Term, name: &str) -> Option<Histogram> {
    stats
        .children()
        .iter()
        .find(|c| c.label() == Some(name))
        .and_then(|c| c.children().first())
        .and_then(Histogram::from_term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let o = Obs::new();
        assert!(!o.is_enabled());
        o.enable();
        assert!(o.is_enabled());
        o.disable();
        assert!(!o.is_enabled());
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let o = Obs::new();
        let a = o.next_trace();
        let b = o.next_trace();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn stage_names_round_trip() {
        for v in 0..=10u64 {
            let s = Stage::from_u64(v);
            assert_eq!(Stage::from_name(s.name()), Some(s));
            assert_eq!(s as u64, v);
        }
        assert_eq!(Stage::from_name("bogus"), None);
        assert_eq!(Stage::from_u64(999), Stage::Other);
    }

    #[test]
    fn provenance_term_round_trip_and_explain() {
        let p = Provenance {
            rule: "on_payment".into(),
            events: vec![3, 9],
            trace: 12,
        };
        let t = p.to_term();
        assert_eq!(Provenance::from_term(&t), Some(p.clone()));
        let printed = t.to_string();
        let reparsed = reweb_term::parse_term(&printed).unwrap();
        assert_eq!(Provenance::from_term(&reparsed), Some(p.clone()));
        let e = p.explain();
        assert!(e.contains("on_payment"), "{e}");
        assert!(e.contains("#3"), "{e}");
        assert!(e.contains("#9"), "{e}");
        assert!(e.contains("trace 12"), "{e}");
    }

    #[test]
    fn stats_term_carries_all_four_histograms() {
        let o = Obs::new();
        o.enable();
        o.batch.record(1_000);
        o.fsync.record(2_000);
        o.queue.record(10);
        o.delivery.record(5_000_000);
        let t = o.stats_term();
        assert_eq!(t.label(), Some("stats"));
        for name in ["batch", "fsync", "queue", "delivery"] {
            let h = stats_histogram(&t, name).expect(name);
            assert_eq!(h.count(), 1, "{name}");
        }
        // And the printed form re-parses to the same histograms.
        let reparsed = reweb_term::parse_term(&t.to_string()).unwrap();
        assert_eq!(
            stats_histogram(&reparsed, "delivery").unwrap().max(),
            5_000_000
        );
    }

    #[test]
    fn trace_term_is_the_span_chain() {
        let o = Obs::new();
        o.enable();
        let id = o.next_trace();
        let t0 = o.now_ns();
        o.span(id, Stage::Admission, t0, 50);
        o.span(id, Stage::Alpha, t0 + 50, 20);
        o.span(999_999, Stage::Fire, t0, 1); // someone else's trace
        let t = o.trace_term(id);
        assert_eq!(t.label(), Some("trace"));
        let spans: Vec<Span> = t
            .children()
            .iter()
            .filter(|c| c.label() == Some("span"))
            .map(|c| Span::from_term(c).unwrap())
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Admission);
        assert_eq!(spans[1].stage, Stage::Alpha);
    }
}
