//! The flight recorder: a bounded lock-free ring buffer of spans.
//!
//! Writers claim a slot with one `fetch_add` and publish through a
//! per-slot seqlock (odd generation = write in progress), so recording
//! never blocks and never allocates; when the ring wraps, the oldest
//! spans are overwritten — a flight recorder keeps the recent past, not
//! the full history. Readers (`snapshot`, `spans_for`) retry torn slots
//! and otherwise observe a consistent span or nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use reweb_term::Term;

use crate::{field_u64, Stage};

/// One timestamped, staged interval in an event's journey through the
/// system. Times are nanoseconds since the owning recorder's epoch
/// (wall-clock monotonic, not virtual time — spans measure the machine,
/// not the simulation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Global record order (younger spans have larger sequence numbers).
    pub seq: u64,
    /// The trace this span belongs to; 0 marks an untraced stage sample
    /// (e.g. an fsync outside any event's causal path).
    pub trace: u64,
    /// Which pipeline stage the interval covers.
    pub stage: Stage,
    /// Start, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    /// Print as a term: `span{seq[...], trace[...], stage[...], start_ns[...], dur_ns[...]}`.
    pub fn to_term(&self) -> Term {
        Term::build("span")
            .unordered()
            .field("seq", self.seq.to_string())
            .field("trace", self.trace.to_string())
            .field("stage", self.stage.name())
            .field("start_ns", self.start_ns.to_string())
            .field("dur_ns", self.dur_ns.to_string())
            .finish()
    }

    /// Parse a term printed by [`Span::to_term`].
    pub fn from_term(t: &Term) -> Option<Span> {
        if t.label() != Some("span") {
            return None;
        }
        let stage = t
            .children()
            .iter()
            .find(|c| c.label() == Some("stage"))
            .map(|c| c.text_content())?;
        Some(Span {
            seq: field_u64(t, "seq")?,
            trace: field_u64(t, "trace")?,
            stage: Stage::from_name(&stage)?,
            start_ns: field_u64(t, "start_ns")?,
            dur_ns: field_u64(t, "dur_ns")?,
        })
    }
}

/// One ring slot: a seqlock generation word plus the span fields, all
/// word-sized atomics so the whole structure is lock-free.
#[derive(Default)]
struct Slot {
    /// 0 = never written; odd = write in progress; even ≥ 2 = published.
    gen: AtomicU64,
    seq: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

/// A fixed-capacity lock-free span ring. All methods take `&self`; the
/// recorder is shared freely across shard workers and network threads.
///
/// The ring is allocated by the first [`FlightRecorder::record`]: every
/// engine carries a recorder, and one that never traces should not keep
/// `capacity` slots (3 MB at the default) resident.
pub struct FlightRecorder {
    capacity: usize,
    slots: OnceLock<Box<[Slot]>>,
    head: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` spans (rounded up
    /// to at least 2).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(2),
            slots: OnceLock::new(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total spans ever recorded (including those already overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one span. Never blocks: if another writer is mid-flight in
    /// the same slot (only possible after a full ring wrap-around within
    /// the race window) the younger span is dropped.
    pub fn record(&self, trace: u64, stage: Stage, start_ns: u64, dur_ns: u64) {
        let slots = self
            .slots
            .get_or_init(|| (0..self.capacity).map(|_| Slot::default()).collect());
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &slots[(seq % slots.len() as u64) as usize];
        let gen = slot.gen.load(Ordering::Relaxed);
        if gen & 1 == 1 {
            return; // a wrapped-around writer owns this slot right now
        }
        if slot
            .gen
            .compare_exchange(gen, gen + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.seq.store(seq, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.stage.store(stage as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.gen.store(gen + 2, Ordering::Release);
    }

    /// Every currently published span, oldest first. Slots being written
    /// during the scan are skipped rather than read torn.
    pub fn snapshot(&self) -> Vec<Span> {
        let Some(slots) = self.slots.get() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots.iter() {
            let g1 = slot.gen.load(Ordering::Acquire);
            if g1 == 0 || g1 & 1 == 1 {
                continue;
            }
            let span = Span {
                seq: slot.seq.load(Ordering::Relaxed),
                trace: slot.trace.load(Ordering::Relaxed),
                stage: Stage::from_u64(slot.stage.load(Ordering::Relaxed)),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            };
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.gen.load(Ordering::Relaxed) == g1 {
                out.push(span);
            }
        }
        out.sort_by_key(|s| s.seq);
        out
    }

    /// The span chain of one trace, oldest first — the ingress→delivery
    /// journey of a single event, as far as the ring still remembers it.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        let mut v = self.snapshot();
        v.retain(|s| s.trace == trace);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let r = FlightRecorder::new(16);
        r.record(7, Stage::Admission, 100, 10);
        r.record(7, Stage::Alpha, 110, 5);
        r.record(8, Stage::Admission, 120, 3);
        let all = r.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].stage, Stage::Admission);
        assert_eq!(all[1].stage, Stage::Alpha);
        let chain = r.spans_for(7);
        assert_eq!(chain.len(), 2);
        assert!(chain[0].seq < chain[1].seq);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(i, Stage::Fire, i * 10, 1);
        }
        let all = r.snapshot();
        assert_eq!(all.len(), 4);
        // Only the four youngest survive.
        let traces: Vec<u64> = all.iter().map(|s| s.trace).collect();
        assert_eq!(traces, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn concurrent_recording_never_tears() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|k| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        // Encode the writer id in every field so a torn
                        // read would be detectable below.
                        let v = k * 1_000_000 + i;
                        r.record(v, Stage::Delivery, v, v);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for s in r.snapshot() {
                assert_eq!(s.trace, s.start_ns);
                assert_eq!(s.trace, s.dur_ns);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let final_spans = r.snapshot();
        assert!(final_spans.len() <= 64);
        for s in final_spans {
            assert_eq!(s.trace, s.start_ns);
        }
    }

    #[test]
    fn span_term_round_trip() {
        let s = Span {
            seq: 3,
            trace: 9,
            stage: Stage::Fsync,
            start_ns: 1234,
            dur_ns: 56,
        };
        let t = s.to_term();
        assert_eq!(Span::from_term(&t), Some(s));
        let printed = t.to_string();
        let reparsed = reweb_term::parse_term(&printed).unwrap();
        assert_eq!(Span::from_term(&reparsed), Some(s));
    }
}
