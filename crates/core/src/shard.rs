//! Sharded batch ingestion: N reactive engines behind one front-end.
//!
//! Thesis 2 argues for *local* rule processing at many Web nodes; this
//! module applies the same idea inside one node. A [`ShardedEngine`] owns
//! N independent [`ReactiveEngine`] shards and partitions the installed
//! rules by **event-label affinity**: labels that co-occur in one rule's
//! trigger (e.g. `and(order, payment)`) are grouped with union-find, each
//! group is pinned to one shard, and every incoming event is routed to
//! the single shard owning its label. A rule therefore sees exactly the
//! events it would see in an unsharded engine, and each shard's per-event
//! work (timer advance, dispatch, partial-match bookkeeping) covers only
//! its own rules — the first architecture step toward multi-backend
//! scale-out (the benchmark reports the threaded rate as
//! `core.shard_mt_vs_single`). Shards share no state, so batches can
//! also execute with **one worker thread per shard**: see [`ExecMode`]
//! and the [`exec`] module. Both modes produce identical
//! output sequences; [`ShardedEngine::new_parallel`] is a drop-in
//! constructor swap.
//!
//! Placement rules, in order:
//!
//! * **Label-bearing rules** (`trigger_labels()` is `Some`) go to the
//!   shard owning their label group. Groups are assigned round-robin in
//!   first-appearance order, so installs are deterministic. A later
//!   install whose rules would *join* groups already pinned to different
//!   shards is refused with an error (honoring it would orphan the rules
//!   on the losing shard); install co-triggered rules together.
//! * **Stateless wildcard rules** (an atomic pattern with an `*` label,
//!   optionally under `where`) are replicated to *all* shards: each event
//!   is processed by exactly one shard, so exactly one replica fires.
//! * **Stateful wildcard rules** (composite queries a wildcard makes
//!   unindexable, e.g. `and(a, *)`) need every event in one place: the
//!   router *collapses* to shard 0. Collapsing is only sound before rules
//!   have been distributed — afterwards [`ShardedEngine::install`]
//!   returns an error instead of silently losing events.
//! * **DETECT rules** are pinned with their head label unioned into their
//!   trigger group, so derived events surface on the same shard as every
//!   rule consuming them (consumers of the head label are unioned into
//!   that group too).
//! * Rules listening for `accounting{…}` events collapse the router as
//!   well: accounting records are raised on whichever shard admits a
//!   message, so double reactivity (Thesis 12) needs all admissions in
//!   one place.
//!
//! What sharding deliberately does **not** give you: shards have
//! independent resource stores, so a rule that `PERSIST`s state one shard
//! and a rule that queries it from another diverge from the single-engine
//! semantics. Nodes that need shared state should communicate through
//! events (which is Thesis 2's position anyway) or pre-seed every shard
//! via [`ShardedEngine::put_resource`]. Rule sets carried by
//! `install_rules` messages (Thesis 11) install on the shard that admits
//! the message; their labels are pinned there when still unclaimed, and a
//! warning is recorded when a label already routes elsewhere.
//!
//! The equivalence of sharded and single-engine processing over random
//! rule sets and event streams is pinned by the property test in
//! `crates/core/tests/sharded_equivalence.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use reweb_events::{EventQuery, EventRule};
use reweb_term::{fnv1a, Dur, Sym, SymMap, Term, Timestamp};

use crate::aaa::MessageMeta;
use crate::engine::{EngineMetrics, InMessage, OutMessage, ReactiveEngine};
use crate::meta::ruleset_from_term;
use crate::rule::RuleSet;

pub mod exec;

pub use exec::ExecMode;

use exec::{Job, JobKind, Reply, WorkerPool};

/// Where a rule's trigger places it among the shards.
enum Affinity {
    /// All trigger labels, to be unioned into one group.
    Labels(Vec<Sym>),
    /// Stateless wildcard: replicate to every shard.
    Replicate,
    /// Stateful wildcard: all events must reach one shard.
    Collapse,
}

/// A wildcard query is safe to replicate only when it keeps no
/// cross-event state: each event then fires the one replica on its home
/// shard exactly once.
fn is_stateless(q: &EventQuery) -> bool {
    match q {
        EventQuery::Atomic { .. } => true,
        EventQuery::Where { inner, .. } => is_stateless(inner),
        _ => false,
    }
}

fn rule_affinity(on: &EventQuery) -> Affinity {
    match on.trigger_labels() {
        // Accounting events are raised shard-locally on admission; rules
        // consuming them need every admission on one shard.
        Some(labels) if labels.iter().any(|l| l == "accounting") => Affinity::Collapse,
        Some(labels) => Affinity::Labels(labels),
        None if is_stateless(on) => Affinity::Replicate,
        None => Affinity::Collapse,
    }
}

/// Does any enabled rule of the set carry an `absence` operator (see
/// [`EventQuery::has_absence`])? Only absence carries deadlines, so
/// shards without one never need their deadline cache refreshed — which
/// keeps the per-event fast path free of the O(rules-per-shard)
/// `next_deadline` scan.
fn set_has_absence(set: &RuleSet) -> bool {
    set.enabled
        && (set.rules.iter().any(|r| r.on.has_absence())
            || set.event_rules.iter().any(|er| er.on.has_absence())
            || set.children.iter().any(set_has_absence))
}

/// A DETECT rule is pinned with its head label in the same group as its
/// trigger labels, so derived events meet their consumers.
fn detect_affinity(er: &EventRule) -> Affinity {
    match (er.listens_to(), er.head_label()) {
        (Some(labels), Some(head)) if !labels.iter().any(|l| l == "accounting") => {
            let mut ls = labels;
            ls.push(head);
            Affinity::Labels(ls)
        }
        _ => Affinity::Collapse,
    }
}

/// Union-find over event labels: the label → shard routing table.
#[derive(Clone, Debug, Default)]
struct Router {
    /// label → group id (an index into `parent`). Keyed by interned
    /// symbol: per-event routing is an integer hash lookup.
    label_group: SymMap<usize>,
    /// Union-find parents; roots are the live groups.
    parent: Vec<usize>,
    /// Root group → owning shard, assigned round-robin at install.
    group_shard: BTreeMap<usize, usize>,
    /// Next round-robin shard for a fresh group.
    next_shard: usize,
    /// All routing forced to shard 0 (a stateful wildcard is installed).
    collapsed: bool,
}

impl Router {
    fn find(&mut self, mut g: usize) -> usize {
        while self.parent[g] != g {
            self.parent[g] = self.parent[self.parent[g]]; // path halving
            g = self.parent[g];
        }
        g
    }

    fn group_of(&mut self, label: Sym) -> usize {
        if let Some(&g) = self.label_group.get(&label) {
            return self.find(g);
        }
        let g = self.parent.len();
        self.parent.push(g);
        self.label_group.insert(label, g);
        g
    }

    /// Union two groups. When both are already pinned to different
    /// shards, the first shard wins and the conflict is reported so the
    /// caller can record a warning (partial-match state is not migrated).
    fn union(&mut self, a: usize, b: usize) -> Option<(usize, usize)> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let sa = self.group_shard.get(&ra).copied();
        let sb = self.group_shard.get(&rb).copied();
        self.parent[rb] = ra;
        if let Some(s) = sb {
            self.group_shard.remove(&rb);
            match sa {
                None => {
                    self.group_shard.insert(ra, s);
                }
                Some(keep) if keep != s => return Some((keep, s)),
                Some(_) => {}
            }
        }
        None
    }

    /// Union all of a rule's labels into one group; returns its root.
    /// A union that merges groups already pinned to *different* shards is
    /// reported in `conflicts` — the static install path rejects it, the
    /// dynamic path records it as a warning.
    fn union_labels(&mut self, labels: &[Sym], conflicts: &mut Vec<String>) -> usize {
        let first = self.group_of(labels[0]);
        let mut root = first;
        for l in &labels[1..] {
            let g = self.group_of(*l);
            if let Some((kept, lost)) = self.union(root, g) {
                conflicts.push(format!(
                    "labels {labels:?} join groups already routed to shards \
                     {kept} and {lost}"
                ));
            }
            root = self.find(root);
        }
        root
    }

    /// Pin every not-yet-assigned group among `labels` round-robin.
    fn assign(&mut self, labels: &[Sym], n_shards: usize) {
        for l in labels {
            let Some(&g) = self.label_group.get(l) else {
                continue;
            };
            let root = self.find(g);
            if !self.group_shard.contains_key(&root) {
                self.group_shard.insert(root, self.next_shard % n_shards);
                self.next_shard += 1;
            }
        }
    }

    /// Home shard of a label: its group's shard, or a stable hash for
    /// labels no rule subscribes to (`None` = text payload, hashed like
    /// the empty label so routing matches the pre-interning behaviour).
    fn home_of(&mut self, label: Option<Sym>, n_shards: usize) -> usize {
        if self.collapsed || n_shards == 1 {
            return 0;
        }
        if let Some(label) = label {
            if let Some(&g) = self.label_group.get(&label) {
                let root = self.find(g);
                if let Some(&s) = self.group_shard.get(&root) {
                    return s;
                }
            }
            return (fnv1a(label.as_str().as_bytes()) % n_shards as u64) as usize;
        }
        (fnv1a(b"") % n_shards as u64) as usize
    }
}

/// First pass over a rule set: build label groups in `router`, record
/// label first-appearance order, detect collapse triggers, and report
/// unions that would span already-pinned shards.
fn scan_set(
    router: &mut Router,
    set: &RuleSet,
    labels: &mut Vec<Sym>,
    collapse: &mut bool,
    conflicts: &mut Vec<String>,
) {
    if !set.enabled {
        return;
    }
    for r in &set.rules {
        match rule_affinity(&r.on) {
            Affinity::Labels(ls) => {
                router.union_labels(&ls, conflicts);
                labels.extend(ls);
            }
            Affinity::Replicate => {}
            Affinity::Collapse => *collapse = true,
        }
    }
    for er in &set.event_rules {
        match detect_affinity(er) {
            Affinity::Labels(ls) => {
                router.union_labels(&ls, conflicts);
                labels.extend(ls);
            }
            _ => *collapse = true,
        }
    }
    for c in &set.children {
        scan_set(router, c, labels, collapse, conflicts);
    }
}

/// N [`ReactiveEngine`] shards behind one `receive_batch` front-end,
/// semantically equivalent to a single engine (see the module docs for
/// the placement rules and the documented store-sharing caveat).
pub struct ShardedEngine {
    /// This node's URI; shard `i` is named `{uri}#shard{i}`.
    pub uri: String,
    shards: Vec<ReactiveEngine>,
    router: Router,
    /// Shared front-end clock: the latest `at` seen across all batches.
    now: Timestamp,
    /// Cached earliest deadline per shard, so batch routing touches only
    /// shards with due timers instead of advancing all of them per event.
    deadlines: Vec<Option<Timestamp>>,
    /// Whether a shard hosts any absence rule at all; shards without one
    /// can never have a deadline, so the cache refresh is skipped.
    has_timers: Vec<bool>,
    /// Events routed per shard (the occupancy metric).
    routed: Vec<u64>,
    /// Routing-layer warnings (dynamic installs that could not be placed
    /// soundly); engine-level errors stay in each shard's metrics.
    pub warnings: Vec<String>,
    /// How batches execute: in the caller's thread, or fanned out to one
    /// worker thread per shard.
    mode: ExecMode,
    /// The worker threads (present only in [`ExecMode::Threads`]).
    pool: Option<WorkerPool>,
    /// Set when a worker panicked: the shard's engine state was lost
    /// with the unwound stack, so every later batch is refused with this
    /// error instead of silently diverging.
    poisoned: Option<String>,
}

impl ShardedEngine {
    /// A sharded engine with `shards` (at least 1) empty shards,
    /// executing serially in the caller's thread.
    pub fn new(uri: impl Into<String>, shards: usize) -> ShardedEngine {
        ShardedEngine::with_mode(uri, shards, ExecMode::Serial)
    }

    /// A sharded engine whose shards execute concurrently, one worker
    /// thread per shard. Same `InMessage` interface, same outputs — the
    /// merge reproduces the serial order byte for byte (see
    /// [`exec`]'s module docs).
    pub fn new_parallel(uri: impl Into<String>, shards: usize) -> ShardedEngine {
        ShardedEngine::with_mode(uri, shards, ExecMode::Threads)
    }

    /// A sharded engine with an explicit execution mode.
    pub fn with_mode(uri: impl Into<String>, shards: usize, mode: ExecMode) -> ShardedEngine {
        let uri = uri.into();
        let n = shards.max(1);
        ShardedEngine {
            shards: (0..n)
                .map(|i| ReactiveEngine::new(format!("{uri}#shard{i}")))
                .collect(),
            uri,
            router: Router::default(),
            now: Timestamp::ZERO,
            deadlines: vec![None; n],
            has_timers: vec![false; n],
            routed: vec![0; n],
            warnings: Vec::new(),
            mode,
            pool: match mode {
                ExecMode::Serial => None,
                ExecMode::Threads => Some(WorkerPool::new(n)),
            },
            poisoned: None,
        }
    }

    /// The worker pool backing [`ExecMode::Threads`]. The
    /// mode-implies-pool invariant is established by
    /// [`ShardedEngine::with_mode`] and checked in this one place, so a
    /// future execution-mode refactor cannot leave a stale unwrap behind
    /// in one of the thread-backend paths — they all funnel through
    /// here. Takes the field (not `&self`) so callers keep disjoint
    /// mutable access to the shard vector while the pool is borrowed.
    fn worker_pool(pool: &Option<WorkerPool>) -> &WorkerPool {
        pool.as_ref()
            .expect("ExecMode::Threads invariant: with_mode constructed the pool")
    }

    /// The panic message that poisoned this engine, if a worker panicked.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Test hook: rig every shard to panic when it receives an event
    /// with this label (see `ReactiveEngine::rig_panic_on_label`).
    #[doc(hidden)]
    pub fn rig_panic_on_label(&mut self, label: &str) {
        for s in &mut self.shards {
            s.rig_panic_on_label(label);
        }
    }

    /// Read access to the shards (tests, experiments). After a worker
    /// panic (see [`ShardedEngine::poisoned`]) the lost shard's slot
    /// holds a blank placeholder engine — check `poisoned()` before
    /// trusting per-shard state on the thread backend.
    pub fn shards(&self) -> &[ReactiveEngine] {
        &self.shards
    }

    /// Apply `f` to every shard — the escape hatch for configuration
    /// that must be uniform across shards (AAA, store seeding, TTLs).
    pub fn for_each_shard(&mut self, mut f: impl FnMut(&mut ReactiveEngine)) {
        for s in &mut self.shards {
            f(s);
        }
    }

    /// Replicate a document into every shard's store, so conditions read
    /// the same data wherever the reading rule was placed.
    pub fn put_resource(&mut self, uri: impl Into<String>, doc: Term) {
        let uri = uri.into();
        for s in &mut self.shards {
            s.qe.store.put(uri.clone(), doc.clone());
        }
    }

    /// Volatility bound for window-less event queries, forwarded to all
    /// shards (applies to rules installed *after* the call).
    pub fn set_default_ttl(&mut self, ttl: Dur) {
        for s in &mut self.shards {
            s.set_default_ttl(ttl);
        }
    }

    /// Total installed rules across shards. Replicated wildcard rules
    /// count once per shard.
    pub fn rule_count(&self) -> usize {
        self.shards.iter().map(ReactiveEngine::rule_count).sum()
    }

    /// Total partial-match state across all shards (Thesis 4 metric).
    pub fn state_size(&self) -> usize {
        self.shards.iter().map(ReactiveEngine::state_size).sum()
    }

    /// The front-end clock (latest message time seen).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Events routed to each shard so far; `occupancy()[i]` /
    /// ingested events is shard `i`'s share of the batch traffic.
    pub fn occupancy(&self) -> &[u64] {
        &self.routed
    }

    /// The busiest shard's share of all routed events (0 when idle).
    pub fn hottest_share(&self) -> f64 {
        let total: u64 = self.routed.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.routed.iter().max().expect("at least one shard") as f64 / total as f64
    }

    /// Aggregate metrics over all shards (counters summed, per-rule fire
    /// counts and error logs merged). After a worker panic the lost
    /// shard's counters are gone with it; the merged error log then
    /// carries the poison message so the gap is visible.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for s in &self.shards {
            m.merge(&s.metrics);
        }
        if let Some(why) = &self.poisoned {
            m.errors.push(format!(
                "sharded engine poisoned ({why}); counters from the lost shard \
                 are missing from these totals"
            ));
        }
        m
    }

    /// Install a rule set, partitioning its rules by label affinity (see
    /// the module docs). Errors — leaving the engine untouched — if the
    /// set would force collapsed routing after rules were already
    /// distributed, or if it would merge label groups already pinned to
    /// different shards (either way, already-installed rules would stop
    /// receiving their events).
    pub fn install(&mut self, set: &RuleSet) -> crate::Result<()> {
        // Dry-run the affinity pass on a copy of the router so a rejected
        // install cannot leave half-merged groups behind.
        let mut trial = self.router.clone();
        let mut labels = Vec::new();
        let mut collapse = false;
        let mut conflicts = Vec::new();
        scan_set(&mut trial, set, &mut labels, &mut collapse, &mut conflicts);
        if !conflicts.is_empty() {
            return Err(reweb_term::TermError::InvalidEdit(format!(
                "rule set joins event labels already routed to different shards \
                 ({}); install co-triggered rules together, before their labels \
                 are pinned apart",
                conflicts.join("; ")
            )));
        }
        if collapse && !trial.collapsed {
            let distributed = self.shards[1..].iter().any(|s| s.rule_count() > 0);
            if distributed {
                return Err(reweb_term::TermError::InvalidEdit(
                    "rule set needs collapsed (single-shard) routing, but rules are \
                     already distributed; install wildcard-composite and accounting \
                     rules first, or use fewer shards"
                        .into(),
                ));
            }
            trial.collapsed = true;
        }
        trial.assign(&labels, self.shards.len());
        self.router = trial;
        for i in 0..self.shards.len() {
            let pruned = self.prune(set, i);
            self.has_timers[i] = self.has_timers[i] || set_has_absence(&pruned);
            self.shards[i].install(&pruned)?;
            self.deadlines[i] = self.shards[i].next_deadline();
        }
        Ok(())
    }

    /// Parse and install a rule program (see [`crate::parse_program`]).
    pub fn install_program(&mut self, src: &str) -> crate::Result<()> {
        let set = crate::parser::parse_program(src)?;
        self.install(&set)
    }

    /// Second pass: the subset of `set` that shard `i` installs.
    /// Procedures and views replicate everywhere (they are definitions,
    /// not subscriptions); rules and DETECT rules go to their home shard,
    /// replicated wildcards to every shard.
    fn prune(&mut self, set: &RuleSet, shard: usize) -> RuleSet {
        let n = self.shards.len();
        let mut out = RuleSet::new(set.name.clone());
        out.enabled = set.enabled;
        out.procedures = set.procedures.clone();
        out.views = set.views.clone();
        for r in &set.rules {
            let keep = match rule_affinity(&r.on) {
                Affinity::Labels(ls) => self.router.home_of(Some(ls[0]), n) == shard,
                Affinity::Replicate => !self.router.collapsed || shard == 0,
                Affinity::Collapse => shard == 0,
            };
            if keep {
                out.rules.push(r.clone());
            }
        }
        for er in &set.event_rules {
            let keep = match detect_affinity(er) {
                Affinity::Labels(ls) => self.router.home_of(Some(ls[0]), n) == shard,
                _ => shard == 0,
            };
            if keep {
                out.event_rules.push(er.clone());
            }
        }
        for c in &set.children {
            out.children.push(self.prune(c, shard));
        }
        out
    }

    /// Rules installed dynamically by an `install_rules` message live on
    /// the shard that admitted it; pin their labels there when the labels
    /// are still unclaimed, and warn when they already route elsewhere.
    fn note_dynamic_install(&mut self, set: &RuleSet, shard: usize) {
        if !set.enabled {
            return;
        }
        // (rule name, affinity) for both plain rules and DETECT rules —
        // a carried DETECT's trigger labels must route to the admitting
        // shard just like a plain rule's.
        let placements: Vec<(String, Affinity)> = set
            .rules
            .iter()
            .map(|r| (r.name.clone(), rule_affinity(&r.on)))
            .chain(
                set.event_rules
                    .iter()
                    .map(|er| (er.name.clone(), detect_affinity(er))),
            )
            .collect();
        let n = self.shards.len();
        for (name, affinity) in placements {
            match affinity {
                Affinity::Labels(ls) => {
                    let mut conflicts = Vec::new();
                    let root = self.router.union_labels(&ls, &mut conflicts);
                    self.warnings.extend(conflicts);
                    let home = *self.router.group_shard.entry(root).or_insert(shard);
                    if home != shard && !self.router.collapsed && n > 1 {
                        self.warnings.push(format!(
                            "dynamically installed rule {name} lives on shard {shard} \
                             but its labels {ls:?} route to shard {home}; it will not \
                             fire"
                        ));
                    }
                }
                Affinity::Replicate | Affinity::Collapse => {
                    if n > 1 && !self.router.collapsed {
                        self.warnings.push(format!(
                            "dynamically installed wildcard rule {name} is only on \
                             shard {shard}; it sees that shard's events only"
                        ));
                    }
                }
            }
        }
        for c in &set.children {
            self.note_dynamic_install(c, shard);
        }
    }

    /// Route one batch of messages: each message is delivered to the one
    /// shard owning its label, shards with due absence deadlines are
    /// advanced first, and the batch ends with every shard aligned to the
    /// shared clock. Outputs are merged deterministically (batch order,
    /// then shard order). Semantically equivalent to feeding the batch
    /// through a single [`ReactiveEngine::receive`] loop — in **both**
    /// execution modes, byte for byte.
    ///
    /// Errors (a poisoned engine after a worker panic) are recorded in
    /// [`ShardedEngine::warnings`]; use
    /// [`ShardedEngine::try_receive_batch`] to observe them directly.
    pub fn receive_batch(&mut self, msgs: &[InMessage]) -> Vec<OutMessage> {
        match self.try_receive_batch(msgs) {
            Ok(out) => out,
            Err(e) => {
                self.warnings.push(format!("receive_batch failed: {e}"));
                Vec::new()
            }
        }
    }

    /// [`ShardedEngine::receive_batch`], tagging every output with the
    /// index of the batch message that produced it.
    pub fn receive_batch_tagged(&mut self, msgs: &[InMessage]) -> Vec<(u32, OutMessage)> {
        match self.try_receive_batch_tagged(msgs) {
            Ok(out) => out,
            Err(e) => {
                self.warnings.push(format!("receive_batch failed: {e}"));
                Vec::new()
            }
        }
    }

    /// [`ShardedEngine::receive_batch`], surfacing execution failures.
    ///
    /// The only failure source is the thread backend: a worker panic (a
    /// defective rule action) loses that shard's engine state, so the
    /// batch — and every batch after it — returns an error naming the
    /// panic instead of hanging on a dead worker or silently dropping a
    /// shard. The serial backend always succeeds (engine-level failures
    /// are contained per rule and recorded in metrics).
    pub fn try_receive_batch(&mut self, msgs: &[InMessage]) -> crate::Result<Vec<OutMessage>> {
        Ok(self
            .try_receive_batch_tagged(msgs)?
            .into_iter()
            .map(|(_, o)| o)
            .collect())
    }

    /// [`ShardedEngine::try_receive_batch`], tagging every output with
    /// the index of the batch message that produced it — the attribution
    /// surface the networked ingress tier uses to route reactions back
    /// to their submitters. Deadline firings are attributed to the
    /// message whose arrival advanced the clock past them; the batch
    /// epilogue sweep is attributed to the last message. Stripping the
    /// tags reproduces the untagged output byte for byte (it IS the
    /// untagged implementation).
    fn try_receive_batch_tagged(
        &mut self,
        msgs: &[InMessage],
    ) -> crate::Result<Vec<(u32, OutMessage)>> {
        if let Some(why) = &self.poisoned {
            return Err(reweb_term::TermError::InvalidEdit(why.clone()));
        }
        let obs = std::sync::Arc::clone(self.shards[0].obs());
        let obs_on = obs.is_enabled() && !msgs.is_empty();
        let t0 = if obs_on { obs.now_ns() } else { 0 };
        let out = match self.mode {
            ExecMode::Serial => Ok(self.receive_batch_serial_tagged(msgs)),
            ExecMode::Threads => self.receive_batch_parallel_tagged(msgs),
        };
        if obs_on {
            // Whole-batch latency across all shards — the front-end view,
            // matching what a single engine records per batch.
            obs.batch.record(obs.now_ns().saturating_sub(t0));
        }
        out
    }

    fn receive_batch_serial_tagged(&mut self, msgs: &[InMessage]) -> Vec<(u32, OutMessage)> {
        let last = msgs.len().saturating_sub(1) as u32;
        let mut pre = Vec::new();
        let mut out = Vec::new();
        for (k, m) in msgs.iter().enumerate() {
            if m.at > self.now {
                self.now = m.at;
            }
            // Deadlines elsewhere fire before this message is processed,
            // exactly as a single engine's pre-receive time advance does.
            pre.clear();
            self.advance_due_shards(m.at, &mut pre);
            out.extend(pre.drain(..).map(|o| (k as u32, o)));
            out.extend(self.route_one(m).into_iter().map(|o| (k as u32, o)));
        }
        let now = self.now;
        out.extend(self.advance_time(now).into_iter().map(|o| (last, o)));
        out
    }

    /// Fire due absence deadlines on every shard, in shard order — the
    /// pre-delivery step of the serial batch loop.
    fn advance_due_shards(&mut self, at: Timestamp, out: &mut Vec<OutMessage>) {
        for s in 0..self.shards.len() {
            if self.deadlines[s].is_some_and(|d| d <= at) {
                out.extend(self.shards[s].advance_time(at));
                self.deadlines[s] = self.shards[s].next_deadline();
            }
        }
    }

    /// The thread backend: fan each batch segment out to one worker per
    /// shard, merge tagged outputs back into the serial append order.
    ///
    /// `install_rules` messages rewrite the routing table mid-batch, so
    /// they split the batch: the stretch before one executes in
    /// parallel, the install itself is processed on the caller's thread
    /// (engines are home between segments), then the next stretch fans
    /// out against the updated router.
    fn receive_batch_parallel_tagged(
        &mut self,
        msgs: &[InMessage],
    ) -> crate::Result<Vec<(u32, OutMessage)>> {
        let is_install = |m: &InMessage| m.payload.label() == Some("install_rules");
        let batch_end = msgs.iter().map(|m| m.at).fold(self.now, Timestamp::max);
        let last = msgs.len().saturating_sub(1) as u32;
        let mut out = Vec::new();
        let mut k = 0;
        let mut flushed = false;
        while k < msgs.len() {
            let m = &msgs[k];
            if is_install(m) {
                if m.at > self.now {
                    self.now = m.at;
                }
                let mut pre = Vec::new();
                self.advance_due_shards(m.at, &mut pre);
                out.extend(pre.into_iter().map(|o| (k as u32, o)));
                out.extend(self.route_one(m).into_iter().map(|o| (k as u32, o)));
                k += 1;
                continue;
            }
            let end = k + msgs[k..]
                .iter()
                .position(is_install)
                .unwrap_or(msgs.len() - k);
            // The final segment carries the epilogue sweep with it, so
            // the workers align every shard to the batch clock in
            // parallel too. Segment tags are local to the segment
            // (`u32::MAX` marks the epilogue sweep); re-base them to
            // batch indices here.
            let flush = (end == msgs.len()).then_some(batch_end);
            flushed = flush.is_some();
            let base = k as u32;
            out.extend(self.run_segment(&msgs[k..end], flush)?.into_iter().map(
                |(lk, o)| match lk {
                    u32::MAX => (last, o),
                    lk => (base + lk, o),
                },
            ));
            k = end;
        }
        if !flushed {
            // Empty batch, or one ending in an `install_rules` message:
            // the epilogue has not run yet.
            out.extend(
                self.try_advance_time(batch_end)?
                    .into_iter()
                    .map(|o| (last, o)),
            );
        }
        Ok(out)
    }

    /// Route one segment main-side, ship every shard's engine and slice
    /// to its worker, and merge the tagged replies.
    fn run_segment(
        &mut self,
        seg: &[InMessage],
        flush: Option<Timestamp>,
    ) -> crate::Result<Vec<(u32, OutMessage)>> {
        let n = self.shards.len();
        let mut subs: Vec<Vec<(u32, InMessage)>> = vec![Vec::new(); n];
        let mut timeline = Vec::with_capacity(seg.len());
        for (k, m) in seg.iter().enumerate() {
            if m.at > self.now {
                self.now = m.at;
            }
            timeline.push(m.at);
            let h = self.router.home_of(m.payload.label_sym(), n);
            self.routed[h] += 1;
            subs[h].push((k as u32, m.clone()));
        }
        let timeline = Arc::new(timeline);
        let pool = Self::worker_pool(&self.pool);
        let mut sent = 0;
        let mut send_failure = None;
        for (s, sub) in subs.into_iter().enumerate() {
            // An idle shard — no messages, no pending deadline, and no
            // absence rule that the epilogue sweep could fire — can
            // produce no output; keep its engine home (bumping its
            // clock exactly as the serial epilogue would) instead of
            // paying two channel hops. This is what keeps the
            // single-message `receive` path cheap at high shard counts.
            if sub.is_empty() && self.deadlines[s].is_none() && !self.has_timers[s] {
                if let Some(end) = flush {
                    self.shards[s].advance_time(end);
                }
                continue;
            }
            let engine = std::mem::replace(&mut self.shards[s], ReactiveEngine::new(String::new()));
            match pool.send(
                s,
                Job {
                    engine: Box::new(engine),
                    kind: JobKind::Segment {
                        sub,
                        timeline: Arc::clone(&timeline),
                        deadline: self.deadlines[s],
                        has_timers: self.has_timers[s],
                        flush,
                    },
                },
            ) {
                Ok(()) => sent += 1,
                Err(job) => {
                    // The worker thread is gone; the engine comes back
                    // with the refused job. Fail fast after draining
                    // the jobs that did go out.
                    self.shards[s] = *job.engine;
                    send_failure.get_or_insert(format!("shard {s} worker is gone (thread died)"));
                }
            }
        }
        let out = self.collect_replies(sent);
        match send_failure {
            None => out,
            Some(why) => {
                self.poisoned.get_or_insert(why.clone());
                Err(reweb_term::TermError::InvalidEdit(why))
            }
        }
    }

    /// Collect `expect` worker replies, re-homing engines and deadline
    /// caches, and merge every output group by its `(message index,
    /// phase, shard)` tag — the serial append order. The message index
    /// (`u32::MAX` for the epilogue sweep) survives the merge so callers
    /// can attribute outputs.
    fn collect_replies(&mut self, expect: usize) -> crate::Result<Vec<(u32, OutMessage)>> {
        let pool = Self::worker_pool(&self.pool);
        let mut tagged: Vec<(u32, u8, usize, Vec<OutMessage>)> = Vec::new();
        let mut failure: Option<String> = None;
        for _ in 0..expect {
            match pool.recv() {
                Ok(Reply::Done {
                    shard,
                    engine,
                    out,
                    deadline,
                }) => {
                    self.shards[shard] = *engine;
                    self.deadlines[shard] = deadline;
                    for t in out {
                        tagged.push((t.k, t.phase, shard, t.out));
                    }
                }
                Ok(Reply::Panicked { shard, msg }) => {
                    failure.get_or_insert(format!(
                        "shard {shard} worker panicked: {msg}; shard state lost, \
                         sharded engine poisoned"
                    ));
                }
                Err(e) => {
                    failure.get_or_insert(format!("shard execution failed: {e}"));
                    break;
                }
            }
        }
        if let Some(why) = failure {
            self.poisoned = Some(why.clone());
            return Err(reweb_term::TermError::InvalidEdit(why));
        }
        // Keys are unique per group — each (k, phase) pair belongs to
        // exactly one shard — so an unstable sort reproduces the serial
        // order exactly.
        tagged.sort_unstable_by_key(|&(k, phase, shard, _)| (k, phase, shard));
        Ok(tagged
            .into_iter()
            .flat_map(|(k, _, _, o)| o.into_iter().map(move |m| (k, m)))
            .collect())
    }

    /// Receive a single message (the websim delivery path).
    pub fn receive(
        &mut self,
        payload: Term,
        meta: &MessageMeta,
        now: Timestamp,
    ) -> Vec<OutMessage> {
        self.receive_batch(&[InMessage::new(payload, meta.clone(), now)])
    }

    fn route_one(&mut self, m: &InMessage) -> Vec<OutMessage> {
        let h = self
            .router
            .home_of(m.payload.label_sym(), self.shards.len());
        self.routed[h] += 1;
        let dynamic = m.payload.label() == Some("install_rules");
        let rules_before = if dynamic {
            self.shards[h].rule_count()
        } else {
            0
        };
        let out = self.shards[h].receive(m.payload.clone(), &m.meta, m.at);
        if self.has_timers[h] {
            self.deadlines[h] = self.shards[h].next_deadline();
        }
        if dynamic && self.shards[h].rule_count() > rules_before {
            if let Some(carried) = m.payload.children().first() {
                if let Ok(set) = ruleset_from_term(carried) {
                    self.note_dynamic_install(&set, h);
                    if set_has_absence(&set) {
                        self.has_timers[h] = true;
                        self.deadlines[h] = self.shards[h].next_deadline();
                    }
                }
            }
        }
        out
    }

    /// Advance every shard's clock to `now`, firing due absence
    /// deadlines; also the batch epilogue that re-aligns lagging shards.
    /// In [`ExecMode::Threads`] the advance fans out to the workers —
    /// each shard's timer scan runs concurrently — and the outputs merge
    /// back in shard order, exactly as the serial loop appends them.
    pub fn advance_time(&mut self, now: Timestamp) -> Vec<OutMessage> {
        match self.try_advance_time(now) {
            Ok(out) => out,
            Err(e) => {
                self.warnings.push(format!("advance_time failed: {e}"));
                Vec::new()
            }
        }
    }

    /// [`ShardedEngine::advance_time`], surfacing worker failures (see
    /// [`ShardedEngine::try_receive_batch`]).
    fn try_advance_time(&mut self, now: Timestamp) -> crate::Result<Vec<OutMessage>> {
        if let Some(why) = &self.poisoned {
            return Err(reweb_term::TermError::InvalidEdit(why.clone()));
        }
        if now > self.now {
            self.now = now;
        }
        match self.mode {
            ExecMode::Serial => {
                let mut out = Vec::new();
                for s in 0..self.shards.len() {
                    out.extend(self.shards[s].advance_time(now));
                    self.deadlines[s] = self.shards[s].next_deadline();
                }
                Ok(out)
            }
            ExecMode::Threads => {
                let n = self.shards.len();
                let pool = Self::worker_pool(&self.pool);
                let mut sent = 0;
                let mut send_failure = None;
                for s in 0..n {
                    // A shard with no pending deadline has nothing to
                    // fire; advancing it is a clock bump the next batch
                    // performs anyway, so skip the channel round-trip.
                    if self.deadlines[s].is_none() && !self.has_timers[s] {
                        self.shards[s].advance_time(now);
                        continue;
                    }
                    let engine =
                        std::mem::replace(&mut self.shards[s], ReactiveEngine::new(String::new()));
                    match pool.send(
                        s,
                        Job {
                            engine: Box::new(engine),
                            kind: JobKind::Advance(now),
                        },
                    ) {
                        Ok(()) => sent += 1,
                        Err(job) => {
                            self.shards[s] = *job.engine;
                            send_failure
                                .get_or_insert(format!("shard {s} worker is gone (thread died)"));
                        }
                    }
                }
                let out = self
                    .collect_replies(sent)
                    .map(|v| v.into_iter().map(|(_, o)| o).collect());
                match send_failure {
                    None => out,
                    Some(why) => {
                        self.poisoned.get_or_insert(why.clone());
                        Err(reweb_term::TermError::InvalidEdit(why))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    fn msg(src: &str, at: u64) -> InMessage {
        InMessage::new(
            parse_term(src).unwrap(),
            MessageMeta::from_uri("http://client"),
            Timestamp(at),
        )
    }

    /// Two independent label groups land on different shards and both
    /// composite rules fire exactly as in a single engine.
    #[test]
    fn label_groups_spread_and_fire() {
        let mut e = ShardedEngine::new("http://node", 2);
        e.install_program(
            r#"
            RULE pay ON and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1h
              DO SEND paid{order[var O]} TO "http://sink" END
            RULE ship ON and(pick{{id[[var P]]}}, pack{{id[[var P]]}}) within 1h
              DO SEND shipped{id[var P]} TO "http://sink" END
            "#,
        )
        .unwrap();
        // order/payment share a group, pick/pack another; round-robin
        // puts them on different shards.
        assert_eq!(e.shards()[0].rule_count(), 1);
        assert_eq!(e.shards()[1].rule_count(), 1);
        let out = e.receive_batch(&[
            msg("order{id[\"o1\"]}", 1_000),
            msg("pick{id[\"p1\"]}", 2_000),
            msg("payment{order[\"o1\"]}", 3_000),
            msg("pack{id[\"p1\"]}", 4_000),
        ]);
        let mut payloads: Vec<String> = out.iter().map(|o| o.payload.to_string()).collect();
        payloads.sort();
        assert_eq!(payloads, vec!["paid{order[\"o1\"]}", "shipped{id[\"p1\"]}"]);
        assert_eq!(e.occupancy().iter().sum::<u64>(), 4);
        assert!(e.hottest_share() <= 0.5 + f64::EPSILON);
    }

    /// A stateless wildcard rule is replicated, yet fires exactly once
    /// per event because each event has exactly one home shard.
    #[test]
    fn stateless_wildcard_fires_once_per_event() {
        let mut e = ShardedEngine::new("http://node", 4);
        e.install_program(
            r#"RULE audit ON *{{kind[[var K]]}} DO SEND saw{kind[var K]} TO "http://audit" END"#,
        )
        .unwrap();
        assert_eq!(e.rule_count(), 4, "one replica per shard");
        let out = e.receive_batch(&[
            msg("a{kind[\"x\"]}", 1),
            msg("b{kind[\"y\"]}", 2),
            msg("c{kind[\"z\"]}", 3),
        ]);
        assert_eq!(out.len(), 3);
        assert_eq!(e.metrics().rules_fired, 3);
    }

    /// A composite wildcard needs global state: the router collapses and
    /// the rule still sees both events.
    #[test]
    fn stateful_wildcard_collapses_router() {
        let mut e = ShardedEngine::new("http://node", 4);
        e.install_program(
            r#"RULE pair ON and(a{{v[[var X]]}}, *{{tag[[var X]]}}) within 1h
               DO SEND matched{v[var X]} TO "http://sink" END"#,
        )
        .unwrap();
        let out = e.receive_batch(&[msg("a{v[\"1\"]}", 1), msg("zzz{tag[\"1\"]}", 2)]);
        assert_eq!(out.len(), 1);
        assert_eq!(e.occupancy()[0], 2, "all events routed to shard 0");
    }

    /// Collapsing after rules were distributed would lose events, so the
    /// install is refused.
    #[test]
    fn late_collapse_is_an_install_error() {
        let mut e = ShardedEngine::new("http://node", 2);
        e.install_program(r#"RULE a ON a DO NOOP END  RULE b ON b DO NOOP END"#)
            .unwrap();
        assert!(e.shards()[1].rule_count() > 0, "rules distributed");
        let err = e.install_program(r#"RULE w ON and(a, *{{v[[var X]]}}) DO NOOP END"#);
        assert!(err.is_err());
    }

    /// DETECT rules and their consumers share a shard, so derived events
    /// cascade exactly as in one engine.
    #[test]
    fn detect_and_consumer_are_colocated() {
        let mut e = ShardedEngine::new("http://node", 4);
        e.install_program(
            r#"
            DETECT big{id[var O]} ON order{{id[[var O]], total[[var T]]}} where var T >= 100 END
            RULE on_big ON big{{id[[var O]]}} DO SEND audit{id[var O]} TO "http://audit" END
            RULE other ON ping DO SEND pong TO "http://sink" END
            "#,
        )
        .unwrap();
        let out = e.receive_batch(&[msg("order{id[\"o1\"], total[\"500\"]}", 1)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "http://audit");
        assert_eq!(e.metrics().events_derived, 1);
    }

    /// Absence deadlines fire on shards that receive no further traffic:
    /// the batch loop advances due shards before each message and aligns
    /// all clocks at the end.
    #[test]
    fn absence_deadline_fires_across_shards() {
        let mut e = ShardedEngine::new("http://node", 2);
        e.install_program(
            r#"
            RULE stranded ON absence(cancel{{no[[var N]]}}, rebooked{{no[[var N]]}}, 2h)
              DO SEND alarm{no[var N]} TO "http://phone" END
            RULE chatter ON tick DO SEND tock TO "http://sink" END
            "#,
        )
        .unwrap();
        // cancel on one shard, then only `tick` traffic (other shard)
        // until well past the 2h deadline.
        let out = e.receive_batch(&[
            msg("cancel{no[\"LH1\"]}", 0),
            msg("tick", 3_600_000),
            msg("tick", 7_300_000),
        ]);
        let alarms: Vec<_> = out
            .iter()
            .filter(|o| o.payload.label() == Some("alarm"))
            .collect();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].payload.to_string(), "alarm{no[\"LH1\"]}");
    }

    /// `install_rules` messages install on the admitting shard and the
    /// router pins the new labels there.
    #[test]
    fn dynamic_install_pins_labels_to_admitting_shard() {
        use crate::meta::ruleset_to_term;

        let carried = crate::parse_program(
            r#"RULE fresh ON newevt{{v[[var X]]}} DO SEND got{v[var X]} TO "http://sink" END"#,
        )
        .unwrap();
        let payload = Term::ordered("install_rules", vec![ruleset_to_term(&carried)]);
        let mut e = ShardedEngine::new("http://node", 3);
        let before = e.rule_count();
        let out = e.receive_batch(&[
            InMessage::new(
                payload,
                MessageMeta::from_uri("http://partner"),
                Timestamp(1),
            ),
            msg("newevt{v[\"7\"]}", 2),
        ]);
        assert_eq!(e.rule_count(), before + 1);
        assert_eq!(out.len(), 1, "new rule fired on its pinned shard");
        assert_eq!(out[0].payload.to_string(), "got{v[\"7\"]}");
    }

    /// A later install joining label groups pinned to different shards
    /// is refused, and the failed install leaves routing fully intact.
    #[test]
    fn install_refuses_to_merge_groups_across_shards() {
        let mut e = ShardedEngine::new("http://node", 2);
        e.install_program(r#"RULE ra ON a DO SEND xa TO "http://s" END"#)
            .unwrap();
        e.install_program(r#"RULE rb ON b DO SEND xb TO "http://s" END"#)
            .unwrap();
        // `a` and `b` were pinned round-robin to different shards; a rule
        // joining them cannot be placed without orphaning one of them.
        let err = e.install_program(r#"RULE rab ON and(a, b) within 1m DO NOOP END"#);
        assert!(err.is_err());
        assert_eq!(e.rule_count(), 2, "rejected set not installed anywhere");
        let out = e.receive_batch(&[msg("a", 1), msg("b", 2)]);
        assert_eq!(out.len(), 2, "existing rules still routed correctly");
    }

    /// A DETECT rule carried by `install_rules` gets its trigger labels
    /// pinned to the admitting shard, so derivation keeps working.
    #[test]
    fn dynamic_install_pins_detect_trigger_labels() {
        use crate::meta::ruleset_to_term;

        // `orderq` hashes to a different shard than `install_rules` at 4
        // shards, so this fails if the DETECT trigger is left unpinned.
        let carried = crate::parse_program(
            r#"DETECT dd{v[var X]} ON orderq{{v[[var X]]}} END
               RULE consume ON dd{{v[[var X]]}} DO SEND got{v[var X]} TO "http://sink" END"#,
        )
        .unwrap();
        let payload = Term::ordered("install_rules", vec![ruleset_to_term(&carried)]);
        let mut e = ShardedEngine::new("http://node", 4);
        let out = e.receive_batch(&[
            InMessage::new(
                payload,
                MessageMeta::from_uri("http://partner"),
                Timestamp(1),
            ),
            msg("orderq{v[\"9\"]}", 2),
        ]);
        assert_eq!(
            e.metrics().events_derived,
            1,
            "DETECT saw its trigger event"
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.to_string(), "got{v[\"9\"]}");
    }

    /// Aggregated metrics sum the per-shard counters.
    #[test]
    fn metrics_aggregate_across_shards() {
        let mut e = ShardedEngine::new("http://node", 2);
        e.install_program(
            r#"RULE a ON a DO SEND x TO "http://s" END
               RULE b ON b DO SEND y TO "http://s" END"#,
        )
        .unwrap();
        e.receive_batch(&[msg("a", 1), msg("b", 2), msg("nobody_listens", 3)]);
        let m = e.metrics();
        assert_eq!(m.events_received, 3);
        assert_eq!(m.rules_fired, 2);
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.events_unmatched, 1);
        assert_eq!(m.rules_installed, 2);
    }

    /// The thread backend reproduces the serial backend's output
    /// *sequence* (not just multiset) on a mixed workload with absence
    /// deadlines, wildcards, and a mid-batch dynamic install.
    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        use crate::meta::ruleset_to_term;

        let program = r#"
            RULE pay ON and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1h
              DO SEND paid{order[var O]} TO "http://sink" END
            RULE audit ON *{{kind[[var K]]}} DO SEND saw{kind[var K]} TO "http://audit" END
            RULE quiet ON absence(ping{{n[[var N]]}}, pong{{n[[var N]]}}, 10s)
              DO SEND silent{n[var N]} TO "http://ops" END
        "#;
        let carried = crate::parse_program(
            r#"RULE fresh ON newevt{{v[[var X]]}} DO SEND got{v[var X]} TO "http://sink" END"#,
        )
        .unwrap();
        let install = Term::ordered("install_rules", vec![ruleset_to_term(&carried)]);
        let mut msgs = vec![
            msg("order{id[\"o1\"]}", 1_000),
            msg("ping{n[\"7\"]}", 2_000),
            msg("x{kind[\"a\"]}", 3_000),
            InMessage::new(
                install,
                MessageMeta::from_uri("http://peer"),
                Timestamp(4_000),
            ),
            msg("newevt{v[\"9\"]}", 5_000),
            msg("payment{order[\"o1\"]}", 6_000),
            msg("y{kind[\"b\"]}", 20_000),
        ];
        // A second absence window that stays pending at batch end.
        msgs.push(msg("ping{n[\"8\"]}", 21_000));

        let run = |mode: ExecMode| {
            let mut e = ShardedEngine::with_mode("http://node", 4, mode);
            e.install_program(program).unwrap();
            let out = e.receive_batch(&msgs);
            assert!(
                e.warnings.iter().all(|w| !w.contains("failed")),
                "{:?}",
                e.warnings
            );
            out.iter()
                .map(|o| format!("{}<-{}", o.to, o.payload))
                .collect::<Vec<_>>()
        };
        let serial = run(ExecMode::Serial);
        let threads = run(ExecMode::Threads);
        assert!(!serial.is_empty());
        assert_eq!(serial, threads, "thread merge must reproduce serial order");
    }

    /// `advance_time` fans out to the workers and still merges
    /// deterministically in shard order.
    #[test]
    fn parallel_advance_time_fans_out() {
        let mut e = ShardedEngine::new_parallel("http://node", 2);
        e.install_program(
            r#"
            RULE a ON absence(s1{{n[[var N]]}}, e1{{n[[var N]]}}, 5s)
              DO SEND t1{n[var N]} TO "http://ops" END
            RULE b ON absence(s2{{n[[var N]]}}, e2{{n[[var N]]}}, 5s)
              DO SEND t2{n[var N]} TO "http://ops" END
            "#,
        )
        .unwrap();
        e.receive_batch(&[msg("s1{n[\"1\"]}", 0), msg("s2{n[\"2\"]}", 0)]);
        let out = e.advance_time(Timestamp(10_000));
        let labels: Vec<_> = out.iter().filter_map(|o| o.payload.label()).collect();
        assert_eq!(labels, vec!["t1", "t2"], "shard-order merge");
    }

    /// A worker panic (defective rule action) surfaces as an engine
    /// error — not a hang, not a poisoned lock — and poisons the engine
    /// for later batches too.
    #[test]
    fn worker_panic_surfaces_as_engine_error() {
        let mut e = ShardedEngine::new_parallel("http://node", 2);
        e.install_program(
            r#"RULE a ON a DO SEND xa TO "http://s" END
               RULE b ON b DO SEND xb TO "http://s" END"#,
        )
        .unwrap();
        e.rig_panic_on_label("boom");
        let err = e
            .try_receive_batch(&[msg("a", 1), msg("boom", 2), msg("b", 3)])
            .expect_err("rigged panic must surface");
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(e.poisoned().is_some());
        // Poison sticks: the next batch is refused with the same error.
        let err2 = e.try_receive_batch(&[msg("a", 4)]).expect_err("poisoned");
        assert!(err2.to_string().contains("panicked"), "{err2}");
        // The infallible wrapper records it instead of panicking.
        assert!(e.receive_batch(&[msg("a", 5)]).is_empty());
        assert!(e
            .warnings
            .iter()
            .any(|w| w.contains("receive_batch failed")));
    }

    /// One shard degenerates to plain single-engine behaviour.
    #[test]
    fn single_shard_is_identity() {
        let mut sharded = ShardedEngine::new("http://node", 1);
        let mut single = ReactiveEngine::new("http://node");
        sharded
            .install_program(r#"RULE r ON ping DO SEND pong TO "http://s" END"#)
            .unwrap();
        single
            .install_program(r#"RULE r ON ping DO SEND pong TO "http://s" END"#)
            .unwrap();
        let meta = MessageMeta::from_uri("http://c");
        let a = sharded.receive(Term::elem("ping"), &meta, Timestamp(5));
        let b = single.receive(Term::elem("ping"), &meta, Timestamp(5));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].payload.to_string(), b[0].payload.to_string());
    }
}
