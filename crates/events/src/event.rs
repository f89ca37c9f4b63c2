//! Events and answers to event queries.
//!
//! An [`Event`] is the volatile counterpart of a persistent document
//! (Thesis 4): it carries a term payload, a local sequence id, an occurrence
//! time (stamped by the sender) and a reception time (stamped by the
//! receiver). Event queries run over reception order, which is all a local
//! engine can observe (Thesis 2: rules are processed locally).
//!
//! An [`Answer`] is one detected (possibly composite) event: variable
//! bindings extracted from the constituent payloads, the time interval the
//! composite occupies, and the ids of the constituent atomic events.

use std::fmt;

use reweb_query::Bindings;
use reweb_term::{Sym, Term, Timestamp};

/// Local sequence number of an event at one node's engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An atomic event as seen by a local engine.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Local sequence id (assigned by the receiving engine).
    pub id: EventId,
    /// When the sender says it happened.
    pub occurred: Timestamp,
    /// When it arrived here — the timestamp event queries use.
    pub received: Timestamp,
    /// Sender URI, or `"local"` for internally raised/derived events.
    pub source: String,
    /// The message payload.
    pub payload: Term,
    /// Observability trace id (0 = untraced). Assigned at admission when
    /// tracing is on; carried through derivation so a derived event's
    /// spans land on its ancestor's trace. Never part of event
    /// semantics: queries, windows, and dedup ignore it.
    pub trace: u64,
}

impl Event {
    /// A local event where occurrence and reception coincide.
    pub fn new(id: EventId, at: Timestamp, payload: Term) -> Event {
        Event {
            id,
            occurred: at,
            received: at,
            source: "local".into(),
            payload,
            trace: 0,
        }
    }

    /// Replace the source URI (builder style).
    pub fn with_source(mut self, source: impl Into<String>) -> Event {
        self.source = source.into();
        self
    }

    /// The canonical timestamp used by event queries (reception time).
    pub fn time(&self) -> Timestamp {
        self.received
    }

    /// Root label of the payload, if it is an element. Engines index
    /// subscriptions by this label so unrelated rules are never consulted.
    pub fn label(&self) -> Option<&str> {
        self.payload.label()
    }

    /// Root label as an interned symbol — the form the dispatch index
    /// looks up without touching string bytes.
    pub fn label_sym(&self) -> Option<Sym> {
        self.payload.label_sym()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} {}", self.id, self.received, self.payload)
    }
}

/// One answer to an event query: a detected (composite) event.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Answer {
    /// Constituent atomic event ids, sorted ascending.
    pub constituents: Vec<EventId>,
    /// Variable bindings extracted from the constituents.
    pub bindings: Bindings,
    /// Start of the composite occurrence interval.
    pub start: Timestamp,
    /// End of the composite occurrence interval (detection time).
    pub end: Timestamp,
}

impl Answer {
    /// An answer for a single atomic event.
    pub fn atomic(e: &Event, bindings: Bindings) -> Answer {
        Answer {
            constituents: vec![e.id],
            bindings,
            start: e.time(),
            end: e.time(),
        }
    }

    /// Combine two answers (used by conjunction/sequence joins); bindings
    /// must already be merged by the caller.
    pub fn combine(&self, other: &Answer, bindings: Bindings) -> Answer {
        let mut constituents = self.constituents.clone();
        constituents.extend(other.constituents.iter().copied());
        constituents.sort();
        constituents.dedup();
        Answer {
            constituents,
            bindings,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Identity for deduplication and for the incremental ≡ naive
    /// equivalence check: constituents + bindings + interval. The interval
    /// matters: an absence answer occupies `[trigger, deadline]`, which
    /// distinguishes it from an atomic answer over the same constituent.
    pub fn key(&self) -> (Vec<EventId>, Bindings, Timestamp, Timestamp) {
        (
            self.constituents.clone(),
            self.bindings.clone(),
            self.start,
            self.end,
        )
    }

    /// Length of the occupied interval.
    pub fn span(&self) -> reweb_term::Dur {
        self.end.since(self.start)
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}] {} via ", self.start, self.end, self.bindings)?;
        for (i, c) in self.constituents.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::Dur;

    fn ev(id: u64, at: u64) -> Event {
        Event::new(EventId(id), Timestamp(at), Term::elem("x"))
    }

    #[test]
    fn atomic_answer() {
        let e = ev(3, 100);
        let a = Answer::atomic(&e, Bindings::new());
        assert_eq!(a.constituents, vec![EventId(3)]);
        assert_eq!(a.start, Timestamp(100));
        assert_eq!(a.end, Timestamp(100));
        assert_eq!(a.span(), Dur::ZERO);
    }

    #[test]
    fn combine_merges_interval_and_constituents() {
        let a = Answer::atomic(&ev(1, 100), Bindings::new());
        let b = Answer::atomic(&ev(2, 250), Bindings::new());
        let c = a.combine(&b, Bindings::new());
        assert_eq!(c.constituents, vec![EventId(1), EventId(2)]);
        assert_eq!(c.start, Timestamp(100));
        assert_eq!(c.end, Timestamp(250));
        assert_eq!(c.span(), Dur::millis(150));
        // Order-insensitive.
        let c2 = b.combine(&a, Bindings::new());
        assert_eq!(c.key(), c2.key());
    }

    #[test]
    fn event_label_and_time() {
        let e = Event::new(EventId(1), Timestamp(5), Term::ordered("order", vec![]))
            .with_source("http://client");
        assert_eq!(e.label(), Some("order"));
        assert_eq!(e.time(), Timestamp(5));
        assert_eq!(e.source, "http://client");
    }
}
