//! The beta network: indexed semi-naive joins for `And`/`Seq` (Thesis 6).
//!
//! PR 6 gave *alpha* dispatch a shared discrimination network; this module
//! does the same for the *join* side. The scan join in
//! [`crate::incremental`] enumerates, per delta, every stored sibling
//! answer — per-event join cost grows with window occupancy. Here every
//! child store of a join is a [`JoinIndex`]: stored answers hashed by
//! their bindings projected onto a compile-time *join key*, with buckets
//! sorted by start time so `within` windows and `Seq` interval order
//! prune candidates by range lookup instead of scan.
//!
//! **Key analysis** ([`JoinPlan`]). A combination is enumerated delta
//! first: the delta answer at position `k` is placed, then the remaining
//! positions in ascending order. The probe key for each step is
//! `certain(child) ∩ ⋃ certain(already placed)`, where [`certain_vars`]
//! are the variables bound by *every* answer of a child (atomic patterns
//! bind all their variables except those under `without`; `or` yields the
//! intersection of its branches; `count` binds nothing; …). Restricting
//! keys to certain variables makes the index lossless: a stored answer
//! always fully binds its key (so it lands in exactly one bucket), the
//! probing side always fully binds it too (certainty is closed under
//! union), and two answers whose bindings merge agree on every shared
//! variable — in particular the key — so every merge-compatible stored
//! answer is in the probed bucket. Extra bucket mates that agree on the
//! key but conflict elsewhere are rejected by the usual merge.
//!
//! **Range pruning.** Within a bucket, entries are sorted by start time.
//! A `within w` window admits only candidates with `start ≥ acc.end − w`
//! (anything earlier would already overflow the span regardless of its
//! end). `Seq` places positions in an order where a candidate's
//! predecessor position is always placed first, so `start > prev.end`
//! cuts the low end exactly, and for positions before the delta the chain
//! transitively requires `end < delta.start` (hence `start < delta.start`
//! cuts the high end). Every cut is a *necessary* condition of the full
//! checks the enumerator still performs, so the answer set is byte-
//! identical to the scan join — pinned by the `join_equivalence`
//! differential proptest.
//!
//! **Retraction.** Window GC pops from a `(start, id)` ordering, so each
//! expired answer costs `O(log n)` instead of a full-store retain;
//! `Policy { consume }` removal and mode switches re-derive an answer's
//! bucket positions from its stored bindings, so the index never needs a
//! reverse map. The index is *derived data*: rebuilding it from the
//! stored answers (as crash recovery does when `reweb_persist` replays
//! through the operators, and as a [`JoinMode`] switch does mid-stream)
//! reproduces it deterministically.

use std::collections::{BTreeSet, HashMap};

use reweb_query::Bindings;
use reweb_term::{Dur, Sym, Timestamp};

use crate::event::{Answer, EventId};
use crate::incremental::EngineStats;
use crate::query::EventQuery;

/// Which join implementation `And`/`Seq` operators run on — see
/// [`crate::IncrementalEngine::set_join_mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinMode {
    /// Hash child stores by projected join-key bindings with time-sorted
    /// buckets ([`JoinIndex`]); per-delta join cost tracks the matching
    /// candidates, not the window occupancy.
    #[default]
    Indexed,
    /// The historical scan join: each delta is joined by enumerating the
    /// full sibling stores. Kept as the equivalence oracle (indexed
    /// output is pinned byte-identical to it) and for the occupancy
    /// contrast in `volatility`.
    Scan,
}

/// The variables bound by *every* answer of `q`, sorted by name.
///
/// This is the soundness condition for join keys: hashing stored answers
/// by a variable that only *some* answers bind would file the others in a
/// different bucket and silently skip joins the scan oracle finds
/// (bindings merge fine across disjoint variable sets).
pub fn certain_vars(q: &EventQuery) -> Vec<Sym> {
    match q {
        EventQuery::Atomic { pattern } => pattern.certain_variables(),
        EventQuery::And { parts, .. } | EventQuery::Seq { parts, .. } => {
            let mut out: Vec<Sym> = parts.iter().flat_map(certain_vars).collect();
            out.sort();
            out.dedup();
            out
        }
        EventQuery::Or { parts } => {
            // An or-answer carries whichever branch matched: only the
            // intersection is guaranteed.
            let mut iter = parts.iter().map(certain_vars);
            let first = iter.next().unwrap_or_default();
            iter.fold(first, |acc, next| {
                acc.into_iter()
                    .filter(|s| next.binary_search(s).is_ok())
                    .collect()
            })
        }
        // An absence answer is its trigger answer with the interval
        // extended to the deadline.
        EventQuery::Absence { trigger, .. } => certain_vars(trigger),
        // Count answers carry no bindings at all.
        EventQuery::Count { .. } => Vec::new(),
        EventQuery::Agg { pattern, out, .. } => {
            // Emitted only when the out-variable binds consistently, so it
            // is certain alongside the pattern's certain variables.
            let mut vs = pattern.certain_variables();
            if vs.binary_search(out).is_err() {
                vs.push(*out);
                vs.sort();
            }
            vs
        }
        EventQuery::Where { inner, .. } => certain_vars(inner),
    }
}

/// One probe step of the delta-first enumeration: which child to extend
/// the partial combination with, and which of its key indexes to probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinStep {
    /// Child position to place next.
    pub child: usize,
    /// Index into this child's [`JoinPlan::child_keys`] entry.
    pub slot: usize,
}

/// Compile-time join-key analysis for one `And`/`Seq` node.
///
/// For each possible first-delta position `k`, the enumeration places
/// position `k` first and then the remaining positions in ascending
/// order; `steps[k]` lists those `n − 1` probe steps. `child_keys[j]`
/// holds the deduplicated key variable sets child `j` is indexed under —
/// one [`JoinIndex`] map per entry. For the common binary join each child
/// has exactly one key (the variables it shares with its sibling).
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// Deduplicated key variable sets (each sorted) per child.
    pub child_keys: Vec<Vec<Vec<Sym>>>,
    /// Probe steps per first-delta position.
    pub steps: Vec<Vec<JoinStep>>,
}

impl JoinPlan {
    /// Analyze the children of one `And`/`Seq` node.
    pub fn new(parts: &[EventQuery]) -> JoinPlan {
        let certain: Vec<Vec<Sym>> = parts.iter().map(certain_vars).collect();
        let n = parts.len();
        let mut child_keys: Vec<Vec<Vec<Sym>>> = vec![Vec::new(); n];
        let mut steps: Vec<Vec<JoinStep>> = Vec::with_capacity(n);
        for k in 0..n {
            // Certain variables of everything placed so far, kept sorted.
            let mut bound = certain[k].clone();
            let mut ksteps = Vec::with_capacity(n.saturating_sub(1));
            for j in (0..n).filter(|&j| j != k) {
                let key: Vec<Sym> = certain[j]
                    .iter()
                    .filter(|s| bound.binary_search(s).is_ok())
                    .copied()
                    .collect();
                let slot = child_keys[j]
                    .iter()
                    .position(|existing| *existing == key)
                    .unwrap_or_else(|| {
                        child_keys[j].push(key);
                        child_keys[j].len() - 1
                    });
                ksteps.push(JoinStep { child: j, slot });
                for s in &certain[j] {
                    if let Err(pos) = bound.binary_search(s) {
                        bound.insert(pos, *s);
                    }
                }
            }
            steps.push(ksteps);
        }
        JoinPlan { child_keys, steps }
    }
}

/// A bucket entry: `(start, end, arena slot)`. Sorting by this tuple
/// orders each bucket by start time, which is what range pruning cuts on.
type Entry = (Timestamp, Timestamp, u32);

#[derive(Clone, Debug)]
struct KeyMap {
    key: Vec<Sym>,
    buckets: HashMap<Bindings, Vec<Entry>>,
}

/// One child store of an indexed join: an arena of stored answers plus
/// one hash index per key the [`JoinPlan`] probes this child by, and a
/// global `(start, id)` ordering for O(expired · log n) window GC.
#[derive(Clone, Debug, Default)]
pub struct JoinIndex {
    arena: Vec<Option<Answer>>,
    free: Vec<u32>,
    by_start: BTreeSet<(Timestamp, u32)>,
    maps: Vec<KeyMap>,
}

impl JoinIndex {
    /// An empty store indexed under each of the given key variable sets.
    pub fn new(keys: &[Vec<Sym>]) -> JoinIndex {
        JoinIndex {
            arena: Vec::new(),
            free: Vec::new(),
            by_start: BTreeSet::new(),
            maps: keys
                .iter()
                .map(|k| KeyMap {
                    key: k.clone(),
                    buckets: HashMap::new(),
                })
                .collect(),
        }
    }

    /// Number of live stored answers.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// No live stored answers?
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Store one answer, filing it into every key map.
    pub fn insert(&mut self, a: Answer) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.arena.push(None);
            (self.arena.len() - 1) as u32
        });
        self.by_start.insert((a.start, id));
        for m in &mut self.maps {
            let entry = (a.start, a.end, id);
            let bucket = m.buckets.entry(a.bindings.project(&m.key)).or_default();
            let pos = bucket.partition_point(|e| e < &entry);
            bucket.insert(pos, entry);
        }
        self.arena[id as usize] = Some(a);
    }

    fn remove(&mut self, id: u32) {
        let a = self.arena[id as usize].take().expect("live arena slot");
        self.by_start.remove(&(a.start, id));
        for m in &mut self.maps {
            let key = a.bindings.project(&m.key);
            if let Some(bucket) = m.buckets.get_mut(&key) {
                if let Ok(pos) = bucket.binary_search(&(a.start, a.end, id)) {
                    bucket.remove(pos);
                }
                // Drop empty buckets: expired keys must not accrete
                // (the volatility regression pins this).
                if bucket.is_empty() {
                    m.buckets.remove(&key);
                }
            }
        }
        self.free.push(id);
    }

    /// Drop every answer whose start has aged past the retention bound —
    /// the same predicate the scan join's retain uses, popped from the
    /// `(start, id)` ordering so cost is O(expired · log n).
    pub fn gc(&mut self, now: Timestamp, retention: Dur) {
        while let Some(&(start, id)) = self.by_start.iter().next() {
            if now.since(start) <= retention {
                break;
            }
            self.remove(id);
        }
    }

    /// Drop every answer with a consumed constituent (`Policy::consume`).
    pub fn consume(&mut self, ids: &BTreeSet<EventId>) {
        let victims: Vec<u32> = self
            .arena
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|a| (i as u32, a)))
            .filter(|(_, a)| a.constituents.iter().any(|c| ids.contains(c)))
            .map(|(i, _)| i)
            .collect();
        for id in victims {
            self.remove(id);
        }
    }

    /// Stored answers in `(start, id)` order — the flat form a
    /// [`JoinMode::Scan`] switch converts back to.
    pub fn to_time_ordered_vec(&self) -> Vec<Answer> {
        self.by_start
            .iter()
            .map(|&(_, id)| self.arena[id as usize].clone().expect("live arena slot"))
            .collect()
    }

    fn get(&self, id: u32) -> &Answer {
        self.arena[id as usize].as_ref().expect("live arena slot")
    }

    /// The bucket slice for `key` under key map `slot`, range-cut to
    /// `start ∈ [min_start, max_start_excl)`.
    fn probe(
        &self,
        slot: usize,
        key: &Bindings,
        min_start: Option<Timestamp>,
        max_start_excl: Option<Timestamp>,
    ) -> &[Entry] {
        let Some(bucket) = self.maps[slot].buckets.get(key) else {
            return &[];
        };
        let lo = min_start.map_or(0, |t| bucket.partition_point(|e| e.0 < t));
        let hi = max_start_excl.map_or(bucket.len(), |t| bucket.partition_point(|e| e.0 < t));
        &bucket[lo..hi.max(lo)]
    }
}

/// Enumerate every *new* combination, like the scan join, but probing
/// [`JoinIndex`]es instead of enumerating full sibling stores. Each combo
/// is keyed by its first delta position `k`: positions before `k` draw
/// from stored answers only, later positions from stored and delta
/// answers. Emits the same answer multiset as the scan join (the batch is
/// sorted and deduplicated downstream, so enumeration order is
/// output-invisible).
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_indexed(
    indexes: &[JoinIndex],
    deltas: &[Vec<Answer>],
    plan: &JoinPlan,
    window: Option<Dur>,
    sequential: bool,
    out: &mut Vec<Answer>,
    stats: &mut EngineStats,
) {
    let n = indexes.len();
    let mut spans: Vec<Option<(Timestamp, Timestamp)>> = vec![None; n];
    for k in 0..n {
        if deltas[k].is_empty() {
            continue;
        }
        let feasible =
            (0..n).all(|j| j == k || !indexes[j].is_empty() || (j > k && !deltas[j].is_empty()));
        if !feasible {
            continue;
        }
        for d in &deltas[k] {
            stats.join_attempts += 1;
            if let Some(w) = window {
                if d.span() > w {
                    continue;
                }
            }
            spans[k] = Some((d.start, d.end));
            place(
                indexes,
                deltas,
                &plan.steps[k],
                0,
                k,
                d,
                &mut spans,
                window,
                sequential,
                out,
                stats,
            );
            spans[k] = None;
        }
    }
}

/// Place the next probe step's child into the partial combination `acc`.
/// `spans` records the interval of every placed position (for the `Seq`
/// order cuts); positions are placed delta-first, then ascending, so a
/// non-first position's predecessor is always placed before it.
#[allow(clippy::too_many_arguments)]
fn place(
    indexes: &[JoinIndex],
    deltas: &[Vec<Answer>],
    steps: &[JoinStep],
    si: usize,
    k: usize,
    acc: &Answer,
    spans: &mut Vec<Option<(Timestamp, Timestamp)>>,
    window: Option<Dur>,
    sequential: bool,
    out: &mut Vec<Answer>,
    stats: &mut EngineStats,
) {
    let Some(&JoinStep { child: j, slot }) = steps.get(si) else {
        out.push(acc.clone());
        return;
    };
    // Range cuts — each a necessary condition of the full checks below.
    let mut min_start: Option<Timestamp> = None;
    let mut max_start_excl: Option<Timestamp> = None;
    if let Some(w) = window {
        // A candidate starting before acc.end − w overflows the span no
        // matter where it ends (acc itself fits the window, so its own
        // start is not the binding constraint).
        min_start = Some(acc.end.saturating_sub(w));
    }
    // Interval of the delta at position k; placed before any probe step.
    let delta_start = spans[k].expect("delta position placed").0;
    if sequential {
        if let Some(Some((_, prev_end))) = j.checked_sub(1).map(|p| spans[p]) {
            // Strict succession: start > prev.end, i.e. start ≥ prev.end+1ms.
            let lb = Timestamp(prev_end.millis() + 1);
            min_start = Some(min_start.map_or(lb, |m| m.max(lb)));
        }
        if j < k {
            // The chain transitively needs end < delta.start, so
            // start < delta.start too.
            max_start_excl = Some(max_start_excl.map_or(delta_start, |m| m.min(delta_start)));
        }
    }
    let try_candidate = |a: &Answer,
                         spans: &mut Vec<Option<(Timestamp, Timestamp)>>,
                         out: &mut Vec<Answer>,
                         stats: &mut EngineStats| {
        stats.join_attempts += 1;
        if sequential && j < k && a.end >= delta_start {
            return;
        }
        let Some(b) = acc.bindings.merge(&a.bindings) else {
            return;
        };
        let combined = acc.combine(a, b);
        if let Some(w) = window {
            if combined.span() > w {
                return;
            }
        }
        spans[j] = Some((a.start, a.end));
        place(
            indexes,
            deltas,
            steps,
            si + 1,
            k,
            &combined,
            spans,
            window,
            sequential,
            out,
            stats,
        );
        spans[j] = None;
    };
    stats.index_probes += 1;
    let probe_key = acc.bindings.project(&indexes[j].maps[slot].key);
    for &(_, _, id) in indexes[j].probe(slot, &probe_key, min_start, max_start_excl) {
        try_candidate(indexes[j].get(id), spans, out, stats);
    }
    if j > k {
        // Later positions also draw from this round's deltas (they are
        // not yet stored); apply the same range cuts by hand.
        for a in &deltas[j] {
            if min_start.is_some_and(|m| a.start < m) {
                continue;
            }
            if max_start_excl.is_some_and(|m| a.start >= m) {
                continue;
            }
            try_candidate(a, spans, out, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_event_query;

    fn q(src: &str) -> EventQuery {
        parse_event_query(src).unwrap()
    }

    fn syms(names: &[&str]) -> Vec<Sym> {
        names.iter().map(|n| Sym::new(n)).collect()
    }

    #[test]
    fn certain_vars_per_operator() {
        assert_eq!(certain_vars(&q("a{{v[[var X]]}}")), syms(&["X"]));
        assert_eq!(
            certain_vars(&q("and(a{{v[[var X]]}}, b{{w[[var Y]]}})")),
            syms(&["X", "Y"])
        );
        // Or: only the intersection is certain.
        assert_eq!(
            certain_vars(&q("or(a{{v[[var X]], w[[var Y]]}}, b{{v[[var X]]}})")),
            syms(&["X"])
        );
        // Count binds nothing; Agg binds its out-variable.
        assert_eq!(certain_vars(&q("count(3, a{{v[[var X]]}})")), syms(&[]));
        assert_eq!(
            certain_vars(&q("avg(var X, 3, a{{v[[var X]]}}) as var A")),
            syms(&["A", "X"])
        );
        // Absence answers are extended trigger answers.
        assert_eq!(
            certain_vars(&q(
                "absence(a{{v[[var X]]}}, b{{v[[var X]], u[[var U]]}}, 2s)"
            )),
            syms(&["X"])
        );
        assert_eq!(
            certain_vars(&q("a{{v[[var X]]}} where var X >= 2")),
            syms(&["X"])
        );
    }

    #[test]
    fn plan_keys_are_shared_certain_vars() {
        let parts = [q("a{{v[[var X]]}}"), q("b{{v[[var X]], w[[var Y]]}}")];
        let plan = JoinPlan::new(&parts);
        // Binary join: one key per child, the shared variable X.
        assert_eq!(plan.child_keys[0], vec![syms(&["X"])]);
        assert_eq!(plan.child_keys[1], vec![syms(&["X"])]);
        assert_eq!(plan.steps[0], vec![JoinStep { child: 1, slot: 0 }]);
        assert_eq!(plan.steps[1], vec![JoinStep { child: 0, slot: 0 }]);
    }

    #[test]
    fn plan_key_grows_along_enumeration() {
        // Three-way chain a(X) — b(X,Y) — c(Y): probing c after a,b keys
        // on Y, but probing c right after the delta at c... is position 2,
        // so from delta k=0 the order is [0, 1, 2]: key(1) = X, key(2) = Y.
        let parts = [
            q("a{{v[[var X]]}}"),
            q("b{{v[[var X]], w[[var Y]]}}"),
            q("c{{w[[var Y]]}}"),
        ];
        let plan = JoinPlan::new(&parts);
        assert_eq!(
            plan.steps[0],
            vec![
                JoinStep { child: 1, slot: 0 },
                JoinStep { child: 2, slot: 0 }
            ]
        );
        assert_eq!(plan.child_keys[1][0], syms(&["X"]));
        assert_eq!(plan.child_keys[2][0], syms(&["Y"]));
        // From delta k=2 the order is [2, 0, 1]: a keys on nothing shared
        // (c binds Y, a binds X), b keys on both.
        assert_eq!(plan.child_keys[0].last().unwrap(), &syms(&[]));
        assert!(plan.child_keys[1].contains(&syms(&["X", "Y"])));
    }

    #[test]
    fn unshared_vars_use_empty_key_single_bucket() {
        let parts = [q("a"), q("b")];
        let plan = JoinPlan::new(&parts);
        assert_eq!(plan.child_keys[0], vec![Vec::<Sym>::new()]);
        let mut ix = JoinIndex::new(&plan.child_keys[0]);
        let a1 = Answer {
            constituents: vec![EventId(1)],
            bindings: Bindings::new(),
            start: Timestamp(10),
            end: Timestamp(10),
        };
        ix.insert(a1.clone());
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.probe(0, &Bindings::new(), None, None).len(), 1);
    }

    #[test]
    fn index_gc_and_consume_retract() {
        let plan = JoinPlan::new(&[q("a{{v[[var X]]}}"), q("b{{v[[var X]]}}")]);
        let mut ix = JoinIndex::new(&plan.child_keys[0]);
        for i in 0..10u64 {
            ix.insert(Answer {
                constituents: vec![EventId(i)],
                bindings: Bindings::of("X", reweb_term::Term::int(i as i64)),
                start: Timestamp(i * 100),
                end: Timestamp(i * 100),
            });
        }
        assert_eq!(ix.len(), 10);
        // GC everything older than 500ms before t=900.
        ix.gc(Timestamp(900), Dur::millis(500));
        assert_eq!(ix.len(), 6);
        // Consume two of the survivors.
        let ids: BTreeSet<EventId> = [EventId(5), EventId(7)].into();
        ix.consume(&ids);
        assert_eq!(ix.len(), 4);
        // Flattening preserves time order and the empty buckets are gone.
        let flat = ix.to_time_ordered_vec();
        assert_eq!(flat.len(), 4);
        assert!(flat.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(ix.maps[0].buckets.len() == 4);
    }
}
