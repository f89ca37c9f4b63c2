//! The composite event query algebra (Thesis 5).
//!
//! The four dimensions the thesis names map onto the variants:
//!
//! * **data extraction** — [`EventQuery::Atomic`]: an Xcerpt query term
//!   matched against event payloads, producing variable bindings;
//! * **event composition** — [`EventQuery::And`], [`EventQuery::Or`],
//!   [`EventQuery::Seq`] (conjunction with temporal order);
//! * **temporal conditions** — `within` windows on `and`/`seq`
//!   ("events A and B happen within 1 hour and A happens before B"),
//!   and [`EventQuery::Absence`] for deadline-driven negation ("no
//!   rebooking notification within the next two hours");
//! * **event accumulation** — [`EventQuery::Count`] ("3 server outages
//!   within 1 hour") and [`EventQuery::Agg`] (sliding aggregates: "the
//!   average over the last 5 reported stock prices").
//!
//! [`EventQuery::Where`] attaches comparisons over extracted variables
//! (the `WHERE` part of a rule's event clause).

use std::fmt;

use reweb_query::{AggFn, Cmp, QueryTerm};
use reweb_term::{Dur, Sym};

/// A composite event query.
#[derive(Clone, Debug, PartialEq)]
pub enum EventQuery {
    /// A single event whose payload matches the pattern (matched at the
    /// payload root).
    Atomic {
        /// Query term matched against the payload root.
        pattern: QueryTerm,
    },
    /// All parts occur (any order), bindings consistent, optionally within
    /// a window.
    And {
        /// The conjuncts; all must occur with consistent bindings.
        parts: Vec<EventQuery>,
        /// Optional temporal bound on the whole conjunction.
        window: Option<Dur>,
    },
    /// Any part occurs.
    Or {
        /// The disjuncts; any one occurring answers the query.
        parts: Vec<EventQuery>,
    },
    /// All parts occur in temporal order (each part strictly after the
    /// previous part's interval), optionally within a window.
    Seq {
        /// The conjuncts, in required temporal order.
        parts: Vec<EventQuery>,
        /// Optional temporal bound on the whole sequence.
        window: Option<Dur>,
    },
    /// After a `trigger` answer, `absent` does *not* occur (with consistent
    /// bindings) for `window`; fires at the deadline. This is the paper's
    /// flight-cancellation example and requires timer support
    /// ([`crate::IncrementalEngine::advance_to`]).
    Absence {
        /// Query whose answer starts the absence watch.
        trigger: Box<EventQuery>,
        /// Query that must *not* answer before the deadline.
        absent: Box<EventQuery>,
        /// How long after the trigger the absence is required to hold.
        window: Dur,
    },
    /// `n` events matching `pattern`, sliding: fires on each matching event
    /// once the latest `n` matches span at most `window` (if given).
    Count {
        /// Query term each counted event must match.
        pattern: QueryTerm,
        /// How many matches are required.
        n: usize,
        /// Optional span the latest `n` matches must fit in.
        window: Option<Dur>,
    },
    /// Sliding aggregate over the last `over` matches of `pattern`
    /// (optionally per group): binds `out` to `f` applied to the values of
    /// `var`. Fires on each matching event once `over` matches exist.
    Agg {
        /// The aggregate function (avg, sum, min, max, count).
        f: AggFn,
        /// Variable bound by `pattern` whose numeric values are aggregated.
        var: Sym,
        /// Ring-buffer length (the "last n").
        over: usize,
        /// Query term each contributing event must match.
        pattern: QueryTerm,
        /// Output variable receiving the aggregate.
        out: Sym,
        /// Maintain one buffer per valuation of these variables
        /// (e.g. per stock symbol).
        group_by: Vec<Sym>,
    },
    /// Filter answers of `inner` by comparisons.
    Where {
        /// The query whose answers are filtered.
        inner: Box<EventQuery>,
        /// Comparisons every answer's bindings must satisfy.
        cmps: Vec<Cmp>,
    },
}

impl EventQuery {
    /// A single-event query matching `pattern` at the payload root.
    pub fn atomic(pattern: QueryTerm) -> EventQuery {
        EventQuery::Atomic { pattern }
    }

    /// Unwindowed conjunction of `parts`.
    pub fn and(parts: Vec<EventQuery>) -> EventQuery {
        EventQuery::And {
            parts,
            window: None,
        }
    }

    /// Unwindowed temporal sequence of `parts`.
    pub fn seq(parts: Vec<EventQuery>) -> EventQuery {
        EventQuery::Seq {
            parts,
            window: None,
        }
    }

    /// Disjunction of `parts`.
    pub fn or(parts: Vec<EventQuery>) -> EventQuery {
        EventQuery::Or { parts }
    }

    /// Constrain this query to a window (only `and`/`seq` carry windows;
    /// other shapes are returned unchanged wrapped semantics-preserving).
    pub fn within(self, d: Dur) -> EventQuery {
        match self {
            EventQuery::And { parts, .. } => EventQuery::And {
                parts,
                window: Some(d),
            },
            EventQuery::Seq { parts, .. } => EventQuery::Seq {
                parts,
                window: Some(d),
            },
            EventQuery::Count { pattern, n, .. } => EventQuery::Count {
                pattern,
                n,
                window: Some(d),
            },
            other => EventQuery::And {
                parts: vec![other],
                window: Some(d),
            },
        }
    }

    /// The payload root labels this query can react to; `None` means "any
    /// label" (used for subscription indexing). Labels of `absent` parts
    /// are included: those events must reach the operator too. Sorted by
    /// name.
    pub fn trigger_labels(&self) -> Option<Vec<Sym>> {
        fn pattern_label(p: &QueryTerm) -> Option<Sym> {
            match p {
                QueryTerm::Elem(e) => match &e.label {
                    reweb_query::LabelPattern::Exact(l) => Some(*l),
                    reweb_query::LabelPattern::Any => None,
                },
                QueryTerm::VarAs(_, inner) => pattern_label(inner),
                // `desc`, bare `var`, text: could match any payload.
                _ => None,
            }
        }
        fn go(q: &EventQuery, out: &mut Vec<Sym>) -> bool {
            match q {
                EventQuery::Atomic { pattern } => match pattern_label(pattern) {
                    Some(l) => {
                        out.push(l);
                        true
                    }
                    None => false,
                },
                EventQuery::And { parts, .. }
                | EventQuery::Or { parts }
                | EventQuery::Seq { parts, .. } => parts.iter().all(|p| go(p, out)),
                EventQuery::Absence {
                    trigger, absent, ..
                } => go(trigger, out) && go(absent, out),
                EventQuery::Count { pattern, .. } => match pattern_label(pattern) {
                    Some(l) => {
                        out.push(l);
                        true
                    }
                    None => false,
                },
                EventQuery::Agg { pattern, .. } => match pattern_label(pattern) {
                    Some(l) => {
                        out.push(l);
                        true
                    }
                    None => false,
                },
                EventQuery::Where { inner, .. } => go(inner, out),
            }
        }
        let mut out = Vec::new();
        if go(self, &mut out) {
            out.sort();
            out.dedup();
            Some(out)
        } else {
            None
        }
    }

    /// The longest time this query can keep partial state alive, if
    /// bounded: the basis of volatile-data GC (Thesis 4). `None` means the
    /// query can hold state forever (window-less `and`/`seq`) — engines
    /// then fall back to their configured TTL.
    pub fn retention_bound(&self) -> Option<Dur> {
        match self {
            EventQuery::Atomic { .. } => Some(Dur::ZERO),
            EventQuery::Or { parts } => {
                let mut max = Dur::ZERO;
                for p in parts {
                    max = max.max(p.retention_bound()?);
                }
                Some(max)
            }
            EventQuery::And { parts, window } | EventQuery::Seq { parts, window } => {
                let w = (*window)?;
                let mut max = Dur::ZERO;
                for p in parts {
                    max = max.max(p.retention_bound()?);
                }
                Some(w + max)
            }
            EventQuery::Absence {
                trigger,
                absent,
                window,
            } => {
                let t = trigger.retention_bound()?;
                let a = absent.retention_bound()?;
                Some(*window + t.max(a))
            }
            EventQuery::Count { window, .. } => *window, // buffer bounded by n anyway
            EventQuery::Agg { .. } => Some(Dur::ZERO),   // ring buffers bounded by `over`
            EventQuery::Where { inner, .. } => inner.retention_bound(),
        }
    }

    /// The *replay horizon* of this query under an engine TTL of `ttl`: a
    /// duration `B` such that an event received before `now - B` can no
    /// longer influence any future answer or any operator state
    /// transition. The durability layer uses this to bound how far back
    /// in its write-ahead log a recovery must replay to rebuild
    /// composite-event partial state (crash recovery = snapshot + bounded
    /// log suffix).
    ///
    /// This differs from [`EventQuery::retention_bound`], which describes
    /// *memory*: an `agg` ring buffer is memory-bounded by its `over`
    /// count but can hold arbitrarily old events, so its replay horizon
    /// is unbounded (`None`) while its retention bound is zero. The
    /// bounds here are deliberately conservative (windows are summed
    /// along nesting chains, never intersected): over-estimating only
    /// lengthens a replay, under-estimating would corrupt recovery.
    pub fn replay_horizon(&self, ttl: Option<Dur>) -> Option<Dur> {
        fn min_opt(a: Option<Dur>, b: Option<Dur>) -> Option<Dur> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, None) | (None, x) => x,
            }
        }
        match self {
            EventQuery::Atomic { .. } => Some(Dur::ZERO),
            EventQuery::Or { parts } => {
                let mut max = Dur::ZERO;
                for p in parts {
                    max = max.max(p.replay_horizon(ttl)?);
                }
                Some(max)
            }
            EventQuery::And { parts, window } | EventQuery::Seq { parts, window } => {
                // Stored child answers are pruned once `now - start`
                // exceeds min(window, ttl); a window-less join without a
                // TTL keeps partial matches forever.
                let w = min_opt(*window, ttl)?;
                let mut max = Dur::ZERO;
                for p in parts {
                    max = max.max(p.replay_horizon(ttl)?);
                }
                Some(w + max)
            }
            EventQuery::Absence {
                trigger,
                absent,
                window,
            } => {
                // Pending triggers live until `end + window`; their own
                // constituents reach back by the trigger's horizon.
                let t = trigger.replay_horizon(ttl)?;
                let a = absent.replay_horizon(ttl)?;
                Some(*window + t.max(a))
            }
            // A count buffer is pruned by min(window, ttl); without
            // either, an arbitrarily old event can still appear in a
            // future answer's constituents.
            EventQuery::Count { window, .. } => min_opt(*window, ttl),
            // Agg ring buffers are never time-pruned (only size-bounded),
            // so an old constituent can resurface at any future event.
            EventQuery::Agg { .. } => None,
            EventQuery::Where { inner, .. } => inner.replay_horizon(ttl),
        }
    }

    /// Does this query contain an `absence` operator? Only absence
    /// carries deadlines, so engines without one never need timer
    /// scheduling for it.
    pub fn has_absence(&self) -> bool {
        match self {
            EventQuery::Absence { .. } => true,
            EventQuery::And { parts, .. }
            | EventQuery::Or { parts }
            | EventQuery::Seq { parts, .. } => parts.iter().any(EventQuery::has_absence),
            EventQuery::Where { inner, .. } => inner.has_absence(),
            EventQuery::Atomic { .. } | EventQuery::Count { .. } | EventQuery::Agg { .. } => false,
        }
    }
}

impl fmt::Display for EventQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventQuery::Atomic { pattern } => write!(f, "{pattern}"),
            EventQuery::And { parts, window } => {
                f.write_str("and(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")?;
                if let Some(w) = window {
                    write!(f, " within {w}")?;
                }
                Ok(())
            }
            EventQuery::Or { parts } => {
                f.write_str("or(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            EventQuery::Seq { parts, window } => {
                f.write_str("seq(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")?;
                if let Some(w) = window {
                    write!(f, " within {w}")?;
                }
                Ok(())
            }
            EventQuery::Absence {
                trigger,
                absent,
                window,
            } => write!(f, "absence({trigger}, {absent}, {window})"),
            EventQuery::Count { pattern, n, window } => {
                write!(f, "count({n}, {pattern}")?;
                if let Some(w) = window {
                    write!(f, ", {w}")?;
                }
                f.write_str(")")
            }
            EventQuery::Agg {
                f: func,
                var,
                over,
                pattern,
                out,
                group_by,
            } => {
                write!(
                    f,
                    "{}(var {var}, {over}, {pattern}) as var {out}",
                    func.name()
                )?;
                match group_by.as_slice() {
                    [] => {}
                    [g] => write!(f, " group by var {g}")?,
                    many => {
                        write!(f, " group by (")?;
                        for (i, g) in many.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "var {g}")?;
                        }
                        write!(f, ")")?;
                    }
                }
                Ok(())
            }
            EventQuery::Where { inner, cmps } => {
                write!(f, "{inner} where ")?;
                for (i, c) in cmps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_query::parse_query_term;

    fn at(p: &str) -> EventQuery {
        EventQuery::atomic(parse_query_term(p).unwrap())
    }

    #[test]
    fn within_attaches_window() {
        let q = EventQuery::and(vec![at("a"), at("b")]).within(Dur::hours(1));
        match q {
            EventQuery::And { window, .. } => assert_eq!(window, Some(Dur::hours(1))),
            _ => panic!(),
        }
        // A bare atomic gets wrapped.
        let q = at("a").within(Dur::secs(5));
        assert!(matches!(
            q,
            EventQuery::And {
                window: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn trigger_labels_for_indexing() {
        let q = EventQuery::seq(vec![
            at("order{{id[[var O]]}}"),
            at("payment{{order[[var O]]}}"),
        ]);
        assert_eq!(
            q.trigger_labels(),
            Some(vec![Sym::new("order"), Sym::new("payment")])
        );
        // A wildcard pattern defeats indexing.
        let q = EventQuery::and(vec![at("a"), at("*[[var X]]")]);
        assert_eq!(q.trigger_labels(), None);
        // `var F as flight[[..]]` still has a root label.
        let q = at("var F as flight[[status[\"cancelled\"]]]");
        assert_eq!(q.trigger_labels(), Some(vec![Sym::new("flight")]));
    }

    #[test]
    fn retention_bounds() {
        // Windowed and: window + children bounds.
        let q = EventQuery::and(vec![at("a"), at("b")]).within(Dur::mins(10));
        assert_eq!(q.retention_bound(), Some(Dur::mins(10)));
        // Window-less and: unbounded.
        let q = EventQuery::and(vec![at("a"), at("b")]);
        assert_eq!(q.retention_bound(), None);
        // Absence bounded by its window.
        let q = EventQuery::Absence {
            trigger: Box::new(at("cancel")),
            absent: Box::new(at("rebooked")),
            window: Dur::hours(2),
        };
        assert_eq!(q.retention_bound(), Some(Dur::hours(2)));
        // Nested windows compose.
        let inner = EventQuery::seq(vec![at("a"), at("b")]).within(Dur::mins(5));
        let outer = EventQuery::and(vec![inner, at("c")]).within(Dur::mins(10));
        assert_eq!(outer.retention_bound(), Some(Dur::mins(15)));
    }

    #[test]
    fn display_is_parseable_shape() {
        let q = EventQuery::seq(vec![at("a{{x[[var X]]}}"), at("b")]).within(Dur::mins(1));
        assert_eq!(q.to_string(), "seq(a{{x[[var X]]}}, b) within 1m");
    }
}
