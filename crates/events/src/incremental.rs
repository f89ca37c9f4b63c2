//! Data-driven, incremental evaluation of event queries (Thesis 6).
//!
//! > "Work done in one evaluation step of an event query should not be
//! > redone in future evaluation. […] a non-incremental, query-driven
//! > (backward-chaining) evaluation would have to check the entire history
//! > of events for an A when a B is detected."
//!
//! An [`EventQuery`] compiles to a tree of operators, each holding exactly
//! the partial matches it may still need:
//!
//! * `Atomic` — stateless; matches the incoming payload.
//! * `And`/`Seq` joins — store each child's answers; a new child answer is
//!   joined against the *stored* answers of the siblings (never against raw
//!   history). `Seq` additionally requires interval order; `within` windows
//!   both filter and bound retention.
//! * `Absence` — pending triggers with deadlines; cancelled by a consistent
//!   absent-answer, fired by [`IncrementalEngine::advance_to`].
//! * `Count`/`Agg` — ring buffers of the last *n* matches (per group).
//! * `Or`/`Where` — stateless routing/filtering.
//!
//! **Volatility (Thesis 4).** After every step, operators garbage-collect
//! state that can no longer contribute: windowed joins prune answers whose
//! start is older than the window; window bounds are pushed down to
//! children at compile time; an engine-wide TTL bounds window-less queries.
//! [`IncrementalEngine::state_size`] reports the retained partial matches.
//!
//! **Selection & consumption (Thesis 5, citation \[12\]).** [`Policy`]
//! optionally restricts each batch to its first answer and/or consumes
//! constituent events so they cannot contribute to later answers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use reweb_query::{match_at, match_each, AggFn, Bindings, Cmp, QueryTerm};
use reweb_term::{Dur, Sym, Timestamp};

use crate::beta::{join_indexed, JoinIndex, JoinMode, JoinPlan};
use crate::event::{Answer, Event, EventId};
use crate::query::EventQuery;

/// Instance selection: which of several simultaneous answers to keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Selection {
    /// Every answer (the default; complete answer sets).
    #[default]
    Every,
    /// Only the first (smallest) answer of each batch.
    First,
}

/// Selection and consumption policy for one engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Policy {
    /// Which answers of a simultaneous batch are emitted.
    pub selection: Selection,
    /// If set, the constituents of an emitted answer are "used up": all
    /// partial matches involving them are discarded.
    pub consume: bool,
}

/// Counters exposed for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events fed into the operator tree.
    pub events_processed: u64,
    /// Answers the root operator emitted.
    pub answers_emitted: u64,
    /// Join candidates examined — the unit of "work" E6 and the
    /// `volatility` occupancy wall compare.
    /// Under [`JoinMode::Scan`] this counts every stored sibling answer
    /// enumerated; under [`JoinMode::Indexed`] only the candidates
    /// surviving the key and range cuts.
    pub join_attempts: u64,
    /// Bucket lookups performed by indexed joins (zero in scan mode) —
    /// the probes-per-event currency.
    pub index_probes: u64,
}

/// The incremental (data-driven) event query engine.
#[derive(Clone, Debug)]
pub struct IncrementalEngine {
    root: OpNode,
    policy: Policy,
    ttl: Option<Dur>,
    now: Timestamp,
    join_mode: JoinMode,
    /// Does any operator hold state that [`OpNode::gc`] prunes? Fixed at
    /// compile time; lets atomic (and absence-over-atomic) queries skip
    /// the per-step gc walk.
    collects: bool,
    /// Work counters (join attempts, index probes, …).
    pub stats: EngineStats,
}

impl IncrementalEngine {
    /// Compile a query. Window bounds propagate down so every operator
    /// knows its retention.
    pub fn new(q: &EventQuery) -> IncrementalEngine {
        let join_mode = JoinMode::default();
        let root = compile(q, None, join_mode);
        IncrementalEngine {
            collects: root.collects(),
            root,
            policy: Policy::default(),
            ttl: None,
            now: Timestamp::ZERO,
            join_mode,
            stats: EngineStats::default(),
        }
    }

    /// Set the selection/consumption policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> IncrementalEngine {
        self.policy = policy;
        self
    }

    /// Builder form of [`IncrementalEngine::set_join_mode`].
    pub fn with_join_mode(mut self, mode: JoinMode) -> IncrementalEngine {
        self.set_join_mode(mode);
        self
    }

    /// Switch the join implementation of every `And`/`Seq` operator,
    /// rebuilding index state from the stored answers (the index is
    /// derived data, so the switch is lossless in both directions and
    /// legal mid-stream). Answer sequences are byte-identical in both
    /// modes — pinned by the `join_equivalence` differential proptest;
    /// [`JoinMode::Scan`] exists as that pin's oracle and for the
    /// occupancy-scaling contrast in `volatility`.
    pub fn set_join_mode(&mut self, mode: JoinMode) {
        if self.join_mode != mode {
            self.join_mode = mode;
            self.root.set_join_mode(mode);
        }
    }

    /// The join implementation `And`/`Seq` operators currently run on.
    pub fn join_mode(&self) -> JoinMode {
        self.join_mode
    }

    /// Engine-wide TTL: even window-less queries dispose of partial state
    /// after this long (Thesis 4's "volatile data stays volatile").
    /// Changes semantics for window-less joins — by design.
    pub fn with_ttl(mut self, ttl: Dur) -> IncrementalEngine {
        self.ttl = Some(ttl);
        self
    }

    /// Feed one event; returns the answers it completes.
    pub fn push(&mut self, e: &Event) -> Vec<Answer> {
        self.now = self.now.max(e.time());
        self.stats.events_processed += 1;
        let mut out = Vec::new();
        self.root.delta(&Input::Ev(e), &mut out, &mut self.stats);
        self.finish_batch(out)
    }

    /// Advance the clock; fires absence deadlines that have passed.
    pub fn advance_to(&mut self, t: Timestamp) -> Vec<Answer> {
        self.now = self.now.max(t);
        let mut out = Vec::new();
        // Passing time only ever fires pending deadlines: with none due,
        // the time delta is a no-op and is skipped (gc still runs).
        if self.next_deadline().is_some_and(|d| d <= self.now) {
            self.root
                .delta(&Input::Time(self.now), &mut out, &mut self.stats);
        }
        self.finish_batch(out)
    }

    fn finish_batch(&mut self, mut out: Vec<Answer>) -> Vec<Answer> {
        if out.len() > 1 {
            out.sort();
            out.dedup();
            if self.policy.selection == Selection::First {
                out.truncate(1);
            }
        }
        if self.policy.consume && !out.is_empty() {
            let ids: BTreeSet<EventId> = out
                .iter()
                .flat_map(|a| a.constituents.iter().copied())
                .collect();
            self.root.consume(&ids);
        }
        if self.collects {
            self.root.gc(self.now, self.ttl);
        }
        self.stats.answers_emitted += out.len() as u64;
        out
    }

    /// Total partial matches currently retained — the "volatile data" that
    /// Thesis 4 insists must stay bounded.
    pub fn state_size(&self) -> usize {
        self.root.state_size()
    }

    /// The earliest pending absence deadline, if any — hosts use this to
    /// schedule a timely [`IncrementalEngine::advance_to`] call.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.root.next_deadline()
    }

    /// The engine's current clock (latest event or explicit advance).
    pub fn now(&self) -> Timestamp {
        self.now
    }
}

// ----- operator tree ----------------------------------------------------------

enum Input<'a> {
    Ev(&'a Event),
    Time(Timestamp),
}

/// Per-child answer storage of one `And`/`Seq` operator, switchable at
/// runtime (see [`IncrementalEngine::set_join_mode`]). Both variants hold
/// the same answers; only lookup shape differs.
#[derive(Clone, Debug)]
enum JoinStore {
    /// Flat stores, enumerated in full per delta (the oracle).
    Scan(Vec<Vec<Answer>>),
    /// Key-hashed, time-sorted stores probed per delta (the default).
    Indexed(Vec<JoinIndex>),
}

impl JoinStore {
    fn len(&self) -> usize {
        match self {
            JoinStore::Scan(stored) => stored.iter().map(Vec::len).sum(),
            JoinStore::Indexed(idxs) => idxs.iter().map(JoinIndex::len).sum(),
        }
    }
}

#[derive(Clone, Debug)]
enum OpNode {
    Atomic {
        pattern: QueryTerm,
    },
    Join {
        children: Vec<OpNode>,
        store: JoinStore,
        /// Compile-time join-key analysis shared by clones of this
        /// operator (crash-recovery builders clone engines freely).
        plan: Arc<JoinPlan>,
        window: Option<Dur>,
        /// Retention bound (own window, inherited bound, whichever is
        /// smaller); `None` = unbounded unless the engine TTL applies.
        retention: Option<Dur>,
        sequential: bool,
    },
    Or {
        children: Vec<OpNode>,
    },
    Absence {
        trigger: Box<OpNode>,
        absent: Box<OpNode>,
        window: Dur,
        /// Trigger answers awaiting their deadline (`end + window`).
        pending: Vec<Answer>,
        /// The earliest deadline in `pending`, kept current whenever
        /// `pending` changes, so asking "is anything due?" on every clock
        /// tick does not scan it.
        next_due: Option<Timestamp>,
    },
    Count {
        pattern: QueryTerm,
        n: usize,
        window: Option<Dur>,
        buf: VecDeque<(EventId, Timestamp)>,
    },
    Agg {
        f: AggFn,
        var: Sym,
        over: usize,
        pattern: QueryTerm,
        out_var: Sym,
        group_by: Vec<Sym>,
        bufs: BTreeMap<Bindings, VecDeque<(EventId, Timestamp, f64, Bindings)>>,
    },
    Where {
        inner: Box<OpNode>,
        cmps: Vec<Cmp>,
    },
}

fn min_opt(a: Option<Dur>, b: Option<Dur>) -> Option<Dur> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// The earliest deadline among pending absence triggers.
fn earliest_deadline(pending: &[Answer], window: Dur) -> Option<Timestamp> {
    pending.iter().map(|ta| ta.end + window).min()
}

fn compile(q: &EventQuery, inherited: Option<Dur>, mode: JoinMode) -> OpNode {
    match q {
        EventQuery::Atomic { pattern } => OpNode::Atomic {
            pattern: pattern.clone(),
        },
        EventQuery::And { parts, window } | EventQuery::Seq { parts, window } => {
            let retention = min_opt(*window, inherited);
            let plan = JoinPlan::new(parts);
            let store = match mode {
                JoinMode::Indexed => JoinStore::Indexed(
                    plan.child_keys
                        .iter()
                        .map(|ks| JoinIndex::new(ks))
                        .collect(),
                ),
                JoinMode::Scan => JoinStore::Scan(vec![Vec::new(); parts.len()]),
            };
            OpNode::Join {
                children: parts.iter().map(|p| compile(p, retention, mode)).collect(),
                store,
                plan: Arc::new(plan),
                window: *window,
                retention,
                sequential: matches!(q, EventQuery::Seq { .. }),
            }
        }
        EventQuery::Or { parts } => OpNode::Or {
            children: parts.iter().map(|p| compile(p, inherited, mode)).collect(),
        },
        EventQuery::Absence {
            trigger,
            absent,
            window,
        } => {
            let child_bound = min_opt(Some(*window), inherited);
            OpNode::Absence {
                trigger: Box::new(compile(trigger, child_bound, mode)),
                absent: Box::new(compile(absent, child_bound, mode)),
                window: *window,
                pending: Vec::new(),
                next_due: None,
            }
        }
        EventQuery::Count { pattern, n, window } => OpNode::Count {
            pattern: pattern.clone(),
            n: (*n).max(1),
            window: *window,
            buf: VecDeque::new(),
        },
        EventQuery::Agg {
            f,
            var,
            over,
            pattern,
            out,
            group_by,
        } => OpNode::Agg {
            f: *f,
            var: *var,
            over: (*over).max(1),
            pattern: pattern.clone(),
            out_var: *out,
            group_by: {
                // Projection treats the names as a set; sorting once here
                // keeps every per-event `Bindings::project` on the
                // zero-copy sorted fast path.
                let mut gb = group_by.clone();
                gb.sort();
                gb
            },
            bufs: BTreeMap::new(),
        },
        EventQuery::Where { inner, cmps } => OpNode::Where {
            inner: Box::new(compile(inner, inherited, mode)),
            cmps: cmps.clone(),
        },
    }
}

impl OpNode {
    fn delta(&mut self, inp: &Input<'_>, out: &mut Vec<Answer>, stats: &mut EngineStats) {
        match self {
            OpNode::Atomic { pattern } => {
                if let Input::Ev(e) = inp {
                    match_each(pattern, &e.payload, &Bindings::new(), |b| {
                        out.push(Answer::atomic(e, b))
                    });
                }
            }
            OpNode::Join {
                children,
                store,
                plan,
                window,
                sequential,
                ..
            } => {
                let mut deltas: Vec<Vec<Answer>> = Vec::with_capacity(children.len());
                for c in children.iter_mut() {
                    let mut d = Vec::new();
                    c.delta(inp, &mut d, stats);
                    deltas.push(d);
                }
                if deltas.iter().any(|d| !d.is_empty()) {
                    match store {
                        JoinStore::Scan(stored) => {
                            join_new(stored, &deltas, *window, *sequential, out, stats);
                        }
                        JoinStore::Indexed(idxs) => {
                            join_indexed(idxs, &deltas, plan, *window, *sequential, out, stats);
                        }
                    }
                }
                match store {
                    JoinStore::Scan(stored) => {
                        for (s, d) in stored.iter_mut().zip(deltas) {
                            s.extend(d);
                        }
                    }
                    JoinStore::Indexed(idxs) => {
                        for (ix, d) in idxs.iter_mut().zip(deltas) {
                            for a in d {
                                ix.insert(a);
                            }
                        }
                    }
                }
            }
            OpNode::Or { children } => {
                for c in children {
                    c.delta(inp, out, stats);
                }
            }
            OpNode::Absence {
                trigger,
                absent,
                window,
                pending,
                next_due,
            } => {
                // New triggers open pending deadlines; consistent absent
                // answers strictly after a trigger cancel it; passing time
                // fires deadlines.
                let mut tdelta = Vec::new();
                trigger.delta(inp, &mut tdelta, stats);
                let mut adelta = Vec::new();
                absent.delta(inp, &mut adelta, stats);
                *next_due = earliest_deadline(&tdelta, *window)
                    .into_iter()
                    .chain(*next_due)
                    .min();
                pending.extend(tdelta);
                if !adelta.is_empty() {
                    let before = pending.len();
                    pending.retain(|ta| {
                        !adelta.iter().any(|aa| {
                            aa.end > ta.end
                                && aa.end <= ta.end + *window
                                && ta.bindings.merge(&aa.bindings).is_some()
                        })
                    });
                    if pending.len() != before {
                        *next_due = earliest_deadline(pending, *window);
                    }
                }
                let now = match inp {
                    Input::Ev(e) => e.time(),
                    Input::Time(t) => *t,
                };
                if next_due.is_some_and(|d| d <= now) {
                    let mut fired: Vec<Answer> = Vec::new();
                    pending.retain(|ta| {
                        if ta.end + *window <= now {
                            fired.push(Answer {
                                constituents: ta.constituents.clone(),
                                bindings: ta.bindings.clone(),
                                start: ta.start,
                                end: ta.end + *window,
                            });
                            false
                        } else {
                            true
                        }
                    });
                    *next_due = earliest_deadline(pending, *window);
                    fired.sort();
                    out.extend(fired);
                }
            }
            OpNode::Count {
                pattern,
                n,
                window,
                buf,
            } => {
                if let Input::Ev(e) = inp {
                    if !match_at(pattern, &e.payload, &Bindings::new()).is_empty() {
                        buf.push_back((e.id, e.time()));
                        while buf.len() > *n {
                            buf.pop_front();
                        }
                        if buf.len() == *n {
                            let start = buf.front().expect("nonempty").1;
                            let within = window.map_or(true, |w| e.time().since(start) <= w);
                            if within {
                                out.push(Answer {
                                    constituents: buf.iter().map(|(id, _)| *id).collect(),
                                    bindings: Bindings::new(),
                                    start,
                                    end: e.time(),
                                });
                            }
                        }
                    }
                }
            }
            OpNode::Agg {
                f,
                var,
                over,
                pattern,
                out_var,
                group_by,
                bufs,
            } => {
                if let Input::Ev(e) = inp {
                    let matches = match_at(pattern, &e.payload, &Bindings::new());
                    for b in matches {
                        let Some(v) = b.get_sym(*var).and_then(reweb_term::Term::as_number) else {
                            continue;
                        };
                        let key = b.project(group_by);
                        let buf = bufs.entry(key).or_default();
                        buf.push_back((e.id, e.time(), v, b.clone()));
                        while buf.len() > *over {
                            buf.pop_front();
                        }
                        if buf.len() == *over {
                            let vals: Vec<f64> = buf.iter().map(|(_, _, v, _)| *v).collect();
                            let agg = fold_agg(*f, &vals);
                            if let Some(bb) = b.bind_sym(*out_var, &reweb_term::Term::num(agg)) {
                                out.push(Answer {
                                    constituents: buf.iter().map(|(id, _, _, _)| *id).collect(),
                                    bindings: bb,
                                    start: buf.front().expect("nonempty").1,
                                    end: e.time(),
                                });
                            }
                        }
                    }
                }
            }
            OpNode::Where { inner, cmps } => {
                let mut d = Vec::new();
                inner.delta(inp, &mut d, stats);
                out.extend(
                    d.into_iter()
                        .filter(|a| cmps.iter().all(|c| c.holds(&a.bindings).unwrap_or(false))),
                );
            }
        }
    }

    fn gc(&mut self, now: Timestamp, ttl: Option<Dur>) {
        match self {
            OpNode::Atomic { .. } => {}
            OpNode::Join {
                children,
                store,
                retention,
                ..
            } => {
                // A stored answer can only combine into an answer whose span
                // stays within the retention bound, and future events end at
                // `now` or later — prune once `now - start` exceeds it.
                if let Some(r) = min_opt(*retention, ttl) {
                    match store {
                        JoinStore::Scan(stored) => {
                            for s in stored.iter_mut() {
                                s.retain(|a| now.since(a.start) <= r);
                            }
                        }
                        JoinStore::Indexed(idxs) => {
                            for ix in idxs.iter_mut() {
                                ix.gc(now, r);
                            }
                        }
                    }
                }
                for c in children {
                    c.gc(now, ttl);
                }
            }
            OpNode::Or { children } => {
                for c in children {
                    c.gc(now, ttl);
                }
            }
            OpNode::Absence {
                trigger, absent, ..
            } => {
                // `pending` is self-pruning (fires at deadline).
                trigger.gc(now, ttl);
                absent.gc(now, ttl);
            }
            OpNode::Count { window, buf, .. } => {
                if let Some(w) = min_opt(*window, ttl) {
                    while buf.front().is_some_and(|(_, t)| now.since(*t) > w) {
                        buf.pop_front();
                    }
                }
            }
            OpNode::Agg { bufs, .. } => {
                // Ring buffers are bounded by `over`; empty groups are
                // dropped opportunistically.
                bufs.retain(|_, b| !b.is_empty());
            }
            OpNode::Where { inner, .. } => inner.gc(now, ttl),
        }
    }

    /// Does this subtree hold anything [`OpNode::gc`] prunes?
    fn collects(&self) -> bool {
        match self {
            OpNode::Atomic { .. } => false,
            OpNode::Join { .. } | OpNode::Count { .. } | OpNode::Agg { .. } => true,
            OpNode::Or { children } => children.iter().any(OpNode::collects),
            OpNode::Absence {
                trigger, absent, ..
            } => trigger.collects() || absent.collects(),
            OpNode::Where { inner, .. } => inner.collects(),
        }
    }

    fn consume(&mut self, ids: &BTreeSet<EventId>) {
        match self {
            OpNode::Atomic { .. } => {}
            OpNode::Join {
                children, store, ..
            } => {
                match store {
                    JoinStore::Scan(stored) => {
                        for s in stored.iter_mut() {
                            s.retain(|a| a.constituents.iter().all(|id| !ids.contains(id)));
                        }
                    }
                    JoinStore::Indexed(idxs) => {
                        for ix in idxs.iter_mut() {
                            ix.consume(ids);
                        }
                    }
                }
                for c in children {
                    c.consume(ids);
                }
            }
            OpNode::Or { children } => {
                for c in children {
                    c.consume(ids);
                }
            }
            OpNode::Absence {
                trigger,
                absent,
                window,
                pending,
                next_due,
            } => {
                pending.retain(|a| a.constituents.iter().all(|id| !ids.contains(id)));
                *next_due = earliest_deadline(pending, *window);
                trigger.consume(ids);
                absent.consume(ids);
            }
            OpNode::Count { buf, .. } => {
                buf.retain(|(id, _)| !ids.contains(id));
            }
            OpNode::Agg { bufs, .. } => {
                for b in bufs.values_mut() {
                    b.retain(|(id, _, _, _)| !ids.contains(id));
                }
            }
            OpNode::Where { inner, .. } => inner.consume(ids),
        }
    }

    fn state_size(&self) -> usize {
        match self {
            OpNode::Atomic { .. } => 0,
            OpNode::Join {
                children, store, ..
            } => store.len() + children.iter().map(OpNode::state_size).sum::<usize>(),
            OpNode::Or { children } => children.iter().map(OpNode::state_size).sum(),
            OpNode::Absence {
                trigger,
                absent,
                pending,
                ..
            } => pending.len() + trigger.state_size() + absent.state_size(),
            OpNode::Count { buf, .. } => buf.len(),
            OpNode::Agg { bufs, .. } => bufs.values().map(VecDeque::len).sum(),
            OpNode::Where { inner, .. } => inner.state_size(),
        }
    }

    /// Convert every join store to `mode`, rebuilding index state from
    /// the stored answers (or flattening it back to scan vectors). Both
    /// representations hold identical answer sets, so a switch is
    /// output-invisible mid-stream.
    fn set_join_mode(&mut self, mode: JoinMode) {
        match self {
            OpNode::Atomic { .. } | OpNode::Count { .. } | OpNode::Agg { .. } => {}
            OpNode::Join {
                children,
                store,
                plan,
                ..
            } => {
                match (mode, &mut *store) {
                    (JoinMode::Indexed, JoinStore::Scan(stored)) => {
                        let mut idxs: Vec<JoinIndex> = plan
                            .child_keys
                            .iter()
                            .map(|ks| JoinIndex::new(ks))
                            .collect();
                        for (ix, s) in idxs.iter_mut().zip(stored.iter_mut()) {
                            for a in s.drain(..) {
                                ix.insert(a);
                            }
                        }
                        *store = JoinStore::Indexed(idxs);
                    }
                    (JoinMode::Scan, JoinStore::Indexed(idxs)) => {
                        *store = JoinStore::Scan(
                            idxs.iter().map(JoinIndex::to_time_ordered_vec).collect(),
                        );
                    }
                    _ => {}
                }
                for c in children {
                    c.set_join_mode(mode);
                }
            }
            OpNode::Or { children } => {
                for c in children {
                    c.set_join_mode(mode);
                }
            }
            OpNode::Absence {
                trigger, absent, ..
            } => {
                trigger.set_join_mode(mode);
                absent.set_join_mode(mode);
            }
            OpNode::Where { inner, .. } => inner.set_join_mode(mode),
        }
    }

    fn next_deadline(&self) -> Option<Timestamp> {
        match self {
            OpNode::Atomic { .. } | OpNode::Count { .. } | OpNode::Agg { .. } => None,
            OpNode::Join { children, .. } | OpNode::Or { children } => {
                children.iter().filter_map(OpNode::next_deadline).min()
            }
            OpNode::Absence {
                trigger,
                absent,
                next_due,
                ..
            } => [*next_due, trigger.next_deadline(), absent.next_deadline()]
                .into_iter()
                .flatten()
                .min(),
            OpNode::Where { inner, .. } => inner.next_deadline(),
        }
    }
}

pub(crate) fn fold_agg(f: AggFn, vals: &[f64]) -> f64 {
    match f {
        AggFn::Count => vals.len() as f64,
        AggFn::Sum => vals.iter().sum(),
        AggFn::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
        AggFn::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
        AggFn::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Enumerate every *new* combination (one answer per child, at least one
/// from a delta) with consistent bindings, sequence order (if `sequential`)
/// and window respected.
///
/// Incremental-cost enumeration: each new combo is generated exactly once,
/// keyed by its *first* delta position `i` — positions before `i` draw from
/// stored answers only, position `i` from the delta only, later positions
/// from both. An event that contributes no delta to any child therefore
/// costs nothing here, and an event extending one child joins only against
/// the *stored* sibling answers — never against raw history (Thesis 6).
fn join_new(
    stored: &[Vec<Answer>],
    deltas: &[Vec<Answer>],
    window: Option<Dur>,
    sequential: bool,
    out: &mut Vec<Answer>,
    stats: &mut EngineStats,
) {
    // Candidate source per position, relative to the first-new index.
    #[derive(Clone, Copy)]
    enum Source {
        OldOnly,
        NewOnly,
        Both,
    }

    // A recursive join enumerator: the parameters are the loop state of
    // a depth-first product walk, threaded explicitly instead of boxed
    // into a context struct on this hot path.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        stored: &[Vec<Answer>],
        deltas: &[Vec<Answer>],
        sources: &[Source],
        idx: usize,
        acc: Option<&Answer>,
        window: Option<Dur>,
        sequential: bool,
        out: &mut Vec<Answer>,
        stats: &mut EngineStats,
    ) {
        if idx == stored.len() {
            if let Some(a) = acc {
                out.push(a.clone());
            }
            return;
        }
        let (olds, news): (&[Answer], &[Answer]) = match sources[idx] {
            Source::OldOnly => (&stored[idx], &[]),
            Source::NewOnly => (&[], &deltas[idx]),
            Source::Both => (&stored[idx], &deltas[idx]),
        };
        for a in olds.iter().chain(news.iter()) {
            stats.join_attempts += 1;
            let combined = match acc {
                None => a.clone(),
                Some(prev) => {
                    if sequential && prev.end >= a.start {
                        continue;
                    }
                    let Some(b) = prev.bindings.merge(&a.bindings) else {
                        continue;
                    };
                    prev.combine(a, b)
                }
            };
            if let Some(w) = window {
                if combined.span() > w {
                    continue;
                }
            }
            rec(
                stored,
                deltas,
                sources,
                idx + 1,
                Some(&combined),
                window,
                sequential,
                out,
                stats,
            );
        }
    }

    let n = stored.len();
    for first_new in 0..n {
        if deltas[first_new].is_empty() {
            continue;
        }
        // Cheap feasibility check before enumerating.
        let feasible = (0..n).all(|j| {
            if j < first_new {
                !stored[j].is_empty()
            } else if j == first_new {
                true
            } else {
                !stored[j].is_empty() || !deltas[j].is_empty()
            }
        });
        if !feasible {
            continue;
        }
        let sources: Vec<Source> = (0..n)
            .map(|j| {
                if j < first_new {
                    Source::OldOnly
                } else if j == first_new {
                    Source::NewOnly
                } else {
                    Source::Both
                }
            })
            .collect();
        rec(
            stored, deltas, &sources, 0, None, window, sequential, out, stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_event_query;
    use reweb_term::parse_term;

    fn eng(q: &str) -> IncrementalEngine {
        IncrementalEngine::new(&parse_event_query(q).unwrap())
    }

    fn ev(id: u64, at_ms: u64, payload: &str) -> Event {
        Event::new(EventId(id), Timestamp(at_ms), parse_term(payload).unwrap())
    }

    #[test]
    fn atomic_extracts_data() {
        let mut e = eng("order{{id[[var O]]}}");
        let out = e.push(&ev(1, 10, "order{id[\"o1\"], total[\"5\"]}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings.get("O").unwrap().text_content(), "o1");
        // Non-matching payloads produce nothing.
        assert!(e.push(&ev(2, 11, "payment{order[\"o1\"]}")).is_empty());
    }

    #[test]
    fn and_joins_across_time_with_consistent_bindings() {
        let mut e = eng("and(order{{id[[var O]]}}, payment{{order[[var O]]}})");
        assert!(e.push(&ev(1, 10, "order{id[\"o1\"]}")).is_empty());
        assert!(e.push(&ev(2, 20, "payment{order[\"oX\"]}")).is_empty());
        let out = e.push(&ev(3, 30, "payment{order[\"o1\"]}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].constituents, vec![EventId(1), EventId(3)]);
        assert_eq!(out[0].start, Timestamp(10));
        assert_eq!(out[0].end, Timestamp(30));
    }

    #[test]
    fn and_is_order_insensitive_seq_is_not() {
        let mut a = eng("and(a, b)");
        assert!(a.push(&ev(1, 10, "b")).is_empty());
        assert_eq!(a.push(&ev(2, 20, "a")).len(), 1);

        let mut s = eng("seq(a, b)");
        assert!(s.push(&ev(1, 10, "b")).is_empty());
        assert!(s.push(&ev(2, 20, "a")).is_empty(), "b came before a");
        assert_eq!(s.push(&ev(3, 30, "b")).len(), 1);
    }

    #[test]
    fn seq_requires_strict_order_same_time_fails() {
        let mut s = eng("seq(a, b)");
        s.push(&ev(1, 10, "a"));
        // Same timestamp: prev.end >= next.start → rejected.
        assert!(s.push(&ev(2, 10, "b")).is_empty());
        assert_eq!(s.push(&ev(3, 11, "b")).len(), 1);
    }

    #[test]
    fn window_filters_and_gc_prunes() {
        let mut e = eng("and(a, b) within 1m");
        e.push(&ev(1, 0, "a"));
        assert_eq!(e.state_size(), 1);
        // Too late: outside the window.
        assert!(e.push(&ev(2, 120_000, "b")).is_empty());
        // And the stale `a` has been garbage-collected (Thesis 4).
        assert_eq!(e.state_size(), 1, "only the fresh b remains");
        let out = e.push(&ev(3, 150_000, "a"));
        assert_eq!(out.len(), 1, "fresh a joins fresh b");
    }

    #[test]
    fn or_unions() {
        let mut e = eng("or(a, b)");
        assert_eq!(e.push(&ev(1, 10, "a")).len(), 1);
        assert_eq!(e.push(&ev(2, 20, "b")).len(), 1);
        assert!(e.push(&ev(3, 30, "c")).is_empty());
    }

    #[test]
    fn absence_fires_at_deadline_only_if_silent() {
        // The paper's travel example: cancellation, then no rebooking
        // within 2h.
        let q =
            "absence(flight{{status[[\"cancelled\"]], no[[var N]]}}, rebooked{{no[[var N]]}}, 2h)";
        let mut e = eng(q);
        assert!(e
            .push(&ev(1, 0, "flight{status[\"cancelled\"], no[\"LH1\"]}"))
            .is_empty());
        // Before the deadline: nothing.
        assert!(e.advance_to(Timestamp(3_600_000)).is_empty());
        // Deadline passes in silence → fire.
        let out = e.advance_to(Timestamp(7_200_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings.get("N").unwrap().text_content(), "LH1");
        assert_eq!(out[0].end, Timestamp(7_200_000));
        // Does not fire twice.
        assert!(e.advance_to(Timestamp(9_000_000)).is_empty());
    }

    #[test]
    fn absence_cancelled_by_consistent_event() {
        let q =
            "absence(flight{{status[[\"cancelled\"]], no[[var N]]}}, rebooked{{no[[var N]]}}, 2h)";
        let mut e = eng(q);
        e.push(&ev(1, 0, "flight{status[\"cancelled\"], no[\"LH1\"]}"));
        // A rebooking for a *different* flight does not cancel.
        e.push(&ev(2, 1000, "rebooked{no[\"LH9\"]}"));
        // The right one does.
        e.push(&ev(3, 2000, "rebooked{no[\"LH1\"]}"));
        assert!(e.advance_to(Timestamp(7_200_001)).is_empty());
    }

    #[test]
    fn absence_fires_via_late_event_too() {
        let mut e = eng("absence(a, b, 1s)");
        e.push(&ev(1, 0, "a"));
        // An unrelated event after the deadline also flushes it.
        let out = e.push(&ev(2, 5_000, "c"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].end, Timestamp(1_000));
    }

    #[test]
    fn count_sliding_with_window() {
        // SLA: 3 outages within 1h.
        let mut e = eng("count(3, outage, 1h)");
        assert!(e.push(&ev(1, 0, "outage")).is_empty());
        assert!(e.push(&ev(2, 600_000, "outage")).is_empty());
        let out = e.push(&ev(3, 1_200_000, "outage"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].constituents.len(), 3);
        // Sliding: a fourth outage within range fires again (with the
        // latest three).
        let out = e.push(&ev(4, 1_800_000, "outage"));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].constituents,
            vec![EventId(2), EventId(3), EventId(4)]
        );
        // Outside the window: the three newest span > 1h → no fire.
        let out = e.push(&ev(5, 9_000_000, "outage"));
        assert!(out.is_empty());
    }

    #[test]
    fn agg_average_of_last_five() {
        // The paper's stock example: average over the last 5 prices.
        let mut e = eng("avg(var P, 5, stock{{price[[var P]]}}) as var A");
        for (i, p) in [10.0, 12.0, 11.0, 13.0].iter().enumerate() {
            let out = e.push(&ev(
                i as u64,
                i as u64 * 1000,
                &format!("stock{{price[\"{p}\"]}}"),
            ));
            assert!(out.is_empty(), "needs 5 values");
        }
        let out = e.push(&ev(9, 9000, "stock{price[\"14\"]}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings.get("A").unwrap().as_number(), Some(12.0));
    }

    #[test]
    fn agg_group_by_keeps_separate_buffers() {
        let mut e =
            eng("avg(var P, 2, stock{{sym[[var S]], price[[var P]]}}) as var A group by var S");
        e.push(&ev(1, 1, "stock{sym[\"ACME\"], price[\"10\"]}"));
        e.push(&ev(2, 2, "stock{sym[\"GLOB\"], price[\"100\"]}"));
        let out = e.push(&ev(3, 3, "stock{sym[\"ACME\"], price[\"20\"]}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings.get("S").unwrap().text_content(), "ACME");
        assert_eq!(out[0].bindings.get("A").unwrap().as_number(), Some(15.0));
    }

    #[test]
    fn where_filters_answers() {
        // Rise of 5%: two consecutive averages compared.
        let mut e = eng("seq(p{{v[[var X]]}}, p{{v[[var Y]]}}) where var Y >= var X * 1.05");
        e.push(&ev(1, 10, "p{v[\"100\"]}"));
        assert!(e.push(&ev(2, 20, "p{v[\"104\"]}")).is_empty());
        // 100 → 105 is a 5% rise; note both pairs (100,105) qualify but
        // (104,105) does not.
        let out = e.push(&ev(3, 30, "p{v[\"105\"]}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].constituents, vec![EventId(1), EventId(3)]);
    }

    #[test]
    fn selection_first_keeps_one_answer_per_batch() {
        let q = parse_event_query("and(a{{v[[var X]]}}, b)").unwrap();
        let mut every = IncrementalEngine::new(&q);
        let mut first = IncrementalEngine::new(&q).with_policy(Policy {
            selection: Selection::First,
            consume: false,
        });
        for e in [
            ev(1, 10, "a{v[\"1\"]}"),
            ev(2, 20, "a{v[\"2\"]}"),
            ev(3, 30, "b"),
        ] {
            let oe = every.push(&e);
            let of = first.push(&e);
            if e.id == EventId(3) {
                assert_eq!(oe.len(), 2);
                assert_eq!(of.len(), 1);
                assert_eq!(of[0].constituents, vec![EventId(1), EventId(3)]);
            }
        }
    }

    #[test]
    fn consumption_uses_events_up() {
        let q = parse_event_query("and(a, b)").unwrap();
        let mut e = IncrementalEngine::new(&q).with_policy(Policy {
            selection: Selection::Every,
            consume: true,
        });
        e.push(&ev(1, 10, "a"));
        assert_eq!(e.push(&ev(2, 20, "b")).len(), 1);
        // `a` was consumed: a second b finds nothing to join with.
        assert!(e.push(&ev(3, 30, "b")).is_empty());
        // Without consumption it would have fired again.
        let mut e2 = IncrementalEngine::new(&q);
        e2.push(&ev(1, 10, "a"));
        e2.push(&ev(2, 20, "b"));
        assert_eq!(e2.push(&ev(3, 30, "b")).len(), 1);
    }

    #[test]
    fn ttl_bounds_windowless_state() {
        let q = parse_event_query("and(a, b)").unwrap();
        let mut unbounded = IncrementalEngine::new(&q);
        let mut bounded = IncrementalEngine::new(&q).with_ttl(Dur::secs(10));
        for i in 0..100u64 {
            let e = ev(i, i * 1_000, "a");
            unbounded.push(&e);
            bounded.push(&e);
        }
        assert_eq!(unbounded.state_size(), 100);
        // Only ~10s of events retained: the "shadow Web" stays bounded.
        assert!(bounded.state_size() <= 11, "got {}", bounded.state_size());
    }

    #[test]
    fn nested_composition() {
        let mut e = eng("and(or(a, b), seq(c, d) within 10s)");
        e.push(&ev(1, 0, "c"));
        e.push(&ev(2, 1_000, "d"));
        let out = e.push(&ev(3, 2_000, "b"));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].constituents,
            vec![EventId(1), EventId(2), EventId(3)]
        );
    }

    #[test]
    fn stats_count_work() {
        let mut e = eng("and(a, b)");
        for i in 0..10 {
            e.push(&ev(i, i * 10, "a"));
        }
        e.push(&ev(99, 1_000, "b"));
        assert_eq!(e.stats.events_processed, 11);
        assert_eq!(e.stats.answers_emitted, 10);
        assert!(e.stats.join_attempts > 0);
    }
}
