//! The reactive engine: local rule processing per Web node (Thesis 2).
//!
//! Each node runs one [`ReactiveEngine`] owning its rule base, resource
//! store, and event-query state. Engines interact *only* through events:
//! received payloads trigger rules; actions produce [`OutMessage`]s for
//! the transport to deliver (push, Thesis 3). There is no central
//! coordinator anywhere.
//!
//! Processing a message:
//!
//! 1. due timers fire ([`ReactiveEngine::advance_time`] — absence
//!    deadlines);
//! 2. AAA admission (Thesis 12): authenticate, authorize, account — a
//!    denied message triggers no rules but is accounted;
//! 3. `install_rules` payloads install the carried rule set (Thesis 11),
//!    gated by the `InstallRules` permission;
//! 4. DETECT rules derive higher-level events (Thesis 9);
//! 5. the event (and every derived event) is dispatched to the rules
//!    subscribed to its payload label — rule sets index their rules by
//!    trigger label, so unrelated rules cost nothing;
//! 6. for each answer of a rule's event query, the rule's branches run in
//!    order: the first branch whose condition holds executes its action
//!    once per condition answer (ECAA/ECnAn, Thesis 9), with bindings
//!    flowing event → condition → action (Thesis 7).
//!
//! Rule failures are contained: an action error is recorded in the
//! metrics, never unwinding the engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

use reweb_events::{
    alpha_skippable, registrations, Answer, DeductionLayer, Event, EventId, IncrementalEngine,
    JoinMode,
};
use reweb_obs::{Obs, Provenance, Stage};
use reweb_query::compiled::{AlphaNetwork, CandidateIndex, EventShape, InterpretedIndex};
use reweb_query::QueryEngine;
use reweb_term::{Dur, Sym, Term, Timestamp};
use reweb_update::{Action, Executor, ProcedureDef};

pub use reweb_update::OutMessage;

use crate::aaa::{Aaa, AaaConfig, MessageMeta, Permission};
use crate::meta::ruleset_from_term;
use crate::rule::{EcaRule, RuleSet};

/// One unit of batch input: everything [`ReactiveEngine::receive`] takes.
#[derive(Clone, Debug, PartialEq)]
pub struct InMessage {
    /// The event payload.
    pub payload: Term,
    /// Transport metadata (sender, credentials) for AAA admission.
    pub meta: MessageMeta,
    /// Arrival time; batches should be non-decreasing in `at`.
    pub at: Timestamp,
}

impl InMessage {
    /// Bundle a payload, its transport metadata, and an arrival time.
    pub fn new(payload: Term, meta: MessageMeta, at: Timestamp) -> InMessage {
        InMessage { payload, meta, at }
    }
}

/// Counters and error log of one engine (experiments E1, E9, E12).
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Messages received (via [`ReactiveEngine::receive`] or
    /// [`ReactiveEngine::raise_local`]), whether or not anything fired.
    pub events_received: u64,
    /// Messages refused by AAA admission; they trigger no rules.
    pub events_denied: u64,
    /// Higher-level events derived by DETECT rules (Thesis 9).
    pub events_derived: u64,
    /// Received or derived events dispatched to no rule at all — dropped
    /// without any partial-match or condition work.
    pub events_unmatched: u64,
    /// Rule firings (branch taken for at least one answer).
    pub rules_fired: u64,
    /// Non-trivial condition evaluations (the E9 currency).
    pub condition_evals: u64,
    /// Actions that returned an error (contained, logged in `errors`).
    pub actions_failed: u64,
    /// Outbound messages produced by actions.
    pub messages_sent: u64,
    /// Rules compiled into this engine.
    pub rules_installed: u64,
    /// Alpha tests and dispatch probes evaluated by the candidate index
    /// (`compiled_equivalence` pins it flat in the rule count): with the
    /// compiled network this tracks event shape and vocabulary, not
    /// installed-rule count.
    pub alpha_tests_run: u64,
    /// Candidate rules the index actually handed to dispatch, after
    /// dedup. `rules_considered / events_received` is the observable
    /// sharing ratio of the discrimination network.
    pub rules_considered: u64,
    /// Join candidates examined across all rules' event queries
    /// ([`reweb_events::incremental::EngineStats::join_attempts`] summed
    /// over every push and clock advance) — the beta join's work currency.
    pub join_attempts: u64,
    /// Beta-index bucket probes across all rules' event queries (zero
    /// under [`reweb_events::JoinMode::Scan`]).
    pub index_probes: u64,
    /// Firing count per rule name.
    pub fires_by_rule: BTreeMap<String, u64>,
    /// Human-readable error log (action failures, denied installs, …).
    pub errors: Vec<String>,
}

impl EngineMetrics {
    /// Fold another engine's counters into this one — how a
    /// [`crate::shard::ShardedEngine`] aggregates its shards.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.events_received += other.events_received;
        self.events_denied += other.events_denied;
        self.events_derived += other.events_derived;
        self.events_unmatched += other.events_unmatched;
        self.rules_fired += other.rules_fired;
        self.condition_evals += other.condition_evals;
        self.actions_failed += other.actions_failed;
        self.messages_sent += other.messages_sent;
        self.rules_installed += other.rules_installed;
        self.alpha_tests_run += other.alpha_tests_run;
        self.rules_considered += other.rules_considered;
        self.join_attempts += other.join_attempts;
        self.index_probes += other.index_probes;
        for (name, n) in &other.fires_by_rule {
            *self.fires_by_rule.entry(name.clone()).or_default() += n;
        }
        self.errors.extend(other.errors.iter().cloned());
    }
}

struct CompiledRule {
    /// The engine's only copy of the rule: [`ReactiveEngine::program_source`]
    /// prints it from here.
    rule: EcaRule,
    ev: IncrementalEngine,
    procs: BTreeMap<String, ProcedureDef>,
    set_path: String,
    /// Whether the rule registers its trigger patterns label-only (see
    /// [`register`]). Decided at install under the TTL in force then, and
    /// kept: a later [`ReactiveEngine::set_default_ttl`] changes only later
    /// installs, also across a match-mode rebuild.
    label_only: bool,
}

/// Register rule `idx`'s trigger patterns with `index`. A `label_only`
/// rule drops every test but the label: its deadline or TTL timing must
/// see the full same-label stream, which is exactly the interpreted
/// candidate set.
fn register(index: &mut dyn CandidateIndex, rule: &EcaRule, label_only: bool, idx: usize) {
    for mut reg in registrations(&rule.on) {
        if label_only {
            reg.tests.clear();
        }
        index.insert(&reg, idx);
    }
}

/// Which candidate-index implementation dispatch runs on — see
/// [`ReactiveEngine::set_match_mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchMode {
    /// The shared alpha discrimination network
    /// ([`reweb_query::compiled::AlphaNetwork`]); per-event dispatch cost
    /// tracks the event's shape, not the installed-rule count.
    #[default]
    Compiled,
    /// The historical label → rule-list index: every rule sharing the
    /// event's label is a candidate and gets the full pattern walk. Kept
    /// as the equivalence baseline (compiled output is pinned
    /// byte-identical to it).
    Interpreted,
}

/// Fold two replay horizons: unbounded (`None`) absorbs everything,
/// otherwise the larger bound wins.
fn fold_horizon(a: Option<Dur>, b: Option<Dur>) -> Option<Dur> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    }
}

/// One top-level item installed into an engine, kept for
/// [`ReactiveEngine::program_source`]. The rules themselves live once, in
/// the engine's compiled rules, which hold them in install order: each
/// item takes its rules from there in turn.
enum InstalledItem {
    /// A rule set installed via [`ReactiveEngine::install`].
    Set(InstalledSet),
    /// A bare rule installed via [`ReactiveEngine::add_rule`]: the next
    /// compiled rule.
    Rule,
}

/// What an install of one enabled rule set *means*, without the rules it
/// compiled: disabled subtrees are pruned (they install nothing, and the
/// textual form cannot express disabledness). Its compiled rules are the
/// next `compiled` ones in install pre-order, the set's own before its
/// children's.
struct InstalledSet {
    /// The set's name and scoped definitions. Its `rules` are those that
    /// never compiled — an install failed before reaching them, and
    /// installation has no rollback, so the reprint keeps them — and its
    /// `children` are empty (see `children` below).
    head: RuleSet,
    /// How many of the set's own rules compiled: all of them or none.
    compiled: usize,
    /// The enabled nested sets.
    children: Vec<InstalledSet>,
}

impl InstalledSet {
    /// Print the set as `RuleSet`'s `Display` prints the set it records,
    /// its compiled rules taken in turn from `rules`.
    fn write(
        &self,
        out: &mut String,
        rules: &mut std::slice::Iter<'_, CompiledRule>,
    ) -> fmt::Result {
        self.head.write_head(out)?;
        let compiled = rules.by_ref().take(self.compiled).map(|cr| &cr.rule);
        for r in compiled.chain(&self.head.rules) {
            writeln!(out, "{r}")?;
        }
        for c in &self.children {
            c.write(out, rules)?;
            out.push('\n');
        }
        out.write_str("END")
    }
}

/// The engine-internal sequence state that stamps events: the virtual
/// clock, the received-event id counter, and the derived-event id
/// counter. Event ids order simultaneous composite answers, so crash
/// recovery (`reweb_persist`) must capture these *before* a log record is
/// processed and restore them exactly before replaying that record —
/// otherwise a recovered engine's future outputs could sort differently
/// from the uninterrupted run's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayMark {
    /// The engine's virtual clock ([`ReactiveEngine::now`]).
    pub clock: Timestamp,
    /// Received-event sequence counter (next event gets `seq + 1`).
    pub event_seq: u64,
    /// Derived-event sequence counter of the deduction layer.
    pub derived_seq: u64,
}

/// A per-node ECA rule engine.
pub struct ReactiveEngine {
    /// This node's own URI (stamped on outbound messages by the host).
    pub uri: String,
    /// Local persistent data and views.
    pub qe: QueryEngine,
    /// Authentication/authorization/accounting state.
    pub aaa: Aaa,
    compiled: Vec<CompiledRule>,
    /// The candidate index dispatch consults per event: the shared alpha
    /// discrimination network by default, the historical label map under
    /// [`MatchMode::Interpreted`]. Extended live on each rule install —
    /// never rebuilt from scratch except on an explicit mode switch.
    index: Box<dyn CandidateIndex>,
    match_mode: MatchMode,
    /// The join implementation every rule's `And`/`Seq` operators run on
    /// (see [`ReactiveEngine::set_join_mode`]). Applied to already
    /// installed rules on switch and remembered for future installs.
    join_mode: JoinMode,
    /// Rules whose event engines must observe every clock tick: absence
    /// deadlines fire on ticks, and TTL gc timing is output-visible. All
    /// other rules advance lazily on their next candidate push, so a
    /// tick costs `O(|advance_idxs|)`, not `O(rules)`.
    advance_idxs: Vec<usize>,
    /// Reused dispatch scratch: the candidate rule-index list is built in
    /// this buffer instead of allocating a fresh `Vec` per event.
    scratch_idxs: Vec<usize>,
    deduction: DeductionLayer,
    default_ttl: Option<Dur>,
    next_event_id: u64,
    now: Timestamp,
    /// Test hook: receiving an event with this label panics mid-action,
    /// simulating a defective rule body (see [`ReactiveEngine::rig_panic_on_label`]).
    panic_on_label: Option<String>,
    /// Top-level installed items, in order (see
    /// [`ReactiveEngine::program_source`]).
    installed: Vec<InstalledItem>,
    /// Cached fold of every installed rule's and DETECT rule's replay
    /// horizon — rules are never uninstalled, so the fold only ever
    /// widens, and the durability layer reads it per logged record.
    horizon: Option<Dur>,
    /// Warmup-replay mode: event-query and deduction state advances, but
    /// no rule fires (see [`ReactiveEngine::set_replay_warmup`]).
    replay_warmup: bool,
    /// Counters and error log (see [`EngineMetrics`]).
    pub metrics: EngineMetrics,
    /// Terms written by `LOG` actions.
    pub action_log: Vec<Term>,
    /// Observability handle: tracing, flight recorder, histograms.
    /// Always present (disabled by default) so the hot path pays one
    /// relaxed load, never an `Option` branch; shards of one
    /// `ShardedEngine` share a single handle, which is what makes the
    /// histograms mergeable across shards for free.
    obs: Arc<Obs>,
}

impl ReactiveEngine {
    /// An empty engine for the node at `uri`.
    pub fn new(uri: impl Into<String>) -> ReactiveEngine {
        ReactiveEngine {
            uri: uri.into(),
            qe: QueryEngine::new(),
            aaa: Aaa::new(AaaConfig::default()),
            compiled: Vec::new(),
            index: Box::new(AlphaNetwork::new()),
            match_mode: MatchMode::Compiled,
            join_mode: JoinMode::default(),
            advance_idxs: Vec::new(),
            scratch_idxs: Vec::new(),
            deduction: DeductionLayer::new(),
            default_ttl: None,
            next_event_id: 0,
            now: Timestamp::ZERO,
            panic_on_label: None,
            installed: Vec::new(),
            horizon: Some(Dur::ZERO),
            replay_warmup: false,
            metrics: EngineMetrics::default(),
            action_log: Vec::new(),
            obs: Arc::new(Obs::new()),
        }
    }

    /// Attach a shared observability handle (replacing the default
    /// disabled one). Pass clones of one `Arc` to every engine, shard,
    /// and tier that should report into the same recorder/histograms.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled unless enabled or
    /// replaced via [`ReactiveEngine::set_obs`]).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Volatility bound for window-less event queries (Thesis 4): partial
    /// matches older than this are disposed of. Applies to rules installed
    /// *after* the call.
    pub fn set_default_ttl(&mut self, ttl: Dur) {
        self.default_ttl = Some(ttl);
    }

    /// Install a rule set: registers its views and DETECT rules, compiles
    /// its (enabled) rules, scoping procedures root-to-leaf with inner
    /// definitions shadowing outer ones.
    pub fn install(&mut self, set: &RuleSet) -> crate::Result<()> {
        // A failing install is still recorded whole: installation has no
        // rollback, so whatever partially installed is reproduced by
        // re-running the same text.
        let mut failed = None;
        if let Some(record) = self.install_scoped(set, &BTreeMap::new(), "", &mut failed) {
            self.installed.push(InstalledItem::Set(record));
        }
        failed.map_or(Ok(()), Err)
    }

    /// Parse and install a rule program (see [`crate::parse_program`]).
    pub fn install_program(&mut self, src: &str) -> crate::Result<()> {
        let set = crate::parser::parse_program(src)?;
        self.install(&set)
    }

    /// Install the enabled part of `set` and return its record (`None`
    /// when the set is disabled). After the first error, kept in `failed`,
    /// nothing more installs, but the rest of the set is still recorded,
    /// its rules kept in the record since they never compiled.
    fn install_scoped(
        &mut self,
        set: &RuleSet,
        inherited: &BTreeMap<String, ProcedureDef>,
        parent_path: &str,
        failed: &mut Option<crate::TermError>,
    ) -> Option<InstalledSet> {
        if !set.enabled {
            return None;
        }
        let mut record = InstalledSet {
            head: RuleSet {
                name: set.name.clone(),
                enabled: true,
                rules: Vec::new(),
                children: Vec::new(),
                procedures: set.procedures.clone(),
                views: set.views.clone(),
                event_rules: set.event_rules.clone(),
            },
            compiled: 0,
            children: Vec::new(),
        };
        let path = if parent_path.is_empty() {
            set.name.clone()
        } else {
            format!("{parent_path}.{}", set.name)
        };
        let mut procs = inherited.clone();
        for p in &set.procedures {
            procs.insert(p.name.clone(), p.clone());
        }
        if failed.is_none() {
            for (uri, v) in &set.views {
                self.qe.register_view(uri.clone(), v.clone());
            }
            for er in &set.event_rules {
                if let Err(e) = self.deduction.register(er.clone()) {
                    *failed = Some(e);
                    break;
                }
                // DETECT engines run without a TTL (see DeductionLayer).
                self.horizon = fold_horizon(self.horizon, er.on.replay_horizon(None));
            }
        }
        if failed.is_none() {
            for r in &set.rules {
                self.add_rule_scoped(r.clone(), procs.clone(), path.clone());
            }
            record.compiled = set.rules.len();
        } else {
            record.head.rules = set.rules.clone();
        }
        record.children = set
            .children
            .iter()
            .filter_map(|c| self.install_scoped(c, &procs, &path, failed))
            .collect();
        Some(record)
    }

    /// Install a single rule with no scoped procedures.
    pub fn add_rule(&mut self, rule: EcaRule) {
        self.installed.push(InstalledItem::Rule);
        self.add_rule_scoped(rule, BTreeMap::new(), String::new());
    }

    fn add_rule_scoped(
        &mut self,
        rule: EcaRule,
        procs: BTreeMap<String, ProcedureDef>,
        set_path: String,
    ) {
        let mut ev = IncrementalEngine::new(&rule.on).with_join_mode(self.join_mode);
        if let Some(ttl) = self.default_ttl {
            ev = ev.with_ttl(ttl);
        }
        self.horizon = fold_horizon(self.horizon, rule.on.replay_horizon(self.default_ttl));
        let idx = self.compiled.len();
        let label_only = !alpha_skippable(&rule.on) || self.default_ttl.is_some();
        register(self.index.as_mut(), &rule, label_only, idx);
        if rule.on.has_absence() || self.default_ttl.is_some() {
            self.advance_idxs.push(idx);
        }
        self.compiled.push(CompiledRule {
            rule,
            ev,
            procs,
            set_path,
            label_only,
        });
        self.metrics.rules_installed += 1;
    }

    /// Number of compiled (installed, enabled) rules.
    pub fn rule_count(&self) -> usize {
        self.compiled.len()
    }

    /// Switch the candidate-index implementation and rebuild it from every
    /// installed rule's trigger patterns, each registered as it was at
    /// install (label-only or not). Dispatch outputs are
    /// byte-identical in both modes — pinned by the `compiled_equivalence`
    /// property test; [`MatchMode::Interpreted`] exists as that pin's
    /// baseline.
    pub fn set_match_mode(&mut self, mode: MatchMode) {
        self.match_mode = mode;
        let mut index: Box<dyn CandidateIndex> = match mode {
            MatchMode::Compiled => Box::new(AlphaNetwork::new()),
            MatchMode::Interpreted => Box::new(InterpretedIndex::new()),
        };
        for (idx, cr) in self.compiled.iter().enumerate() {
            register(index.as_mut(), &cr.rule, cr.label_only, idx);
        }
        self.index = index;
    }

    /// The candidate-index implementation dispatch currently runs on.
    pub fn match_mode(&self) -> MatchMode {
        self.match_mode
    }

    /// Switch the join implementation of every installed rule's (and
    /// DETECT rule's) `And`/`Seq` operators — the beta-network analogue
    /// of [`ReactiveEngine::set_match_mode`]. Index state rebuilds from
    /// the stored answers, so the switch is legal mid-stream; answer
    /// sequences are byte-identical in both modes (pinned by the
    /// `join_equivalence` differential proptest). Rules installed later
    /// inherit the mode.
    pub fn set_join_mode(&mut self, mode: JoinMode) {
        self.join_mode = mode;
        for cr in self.compiled.iter_mut() {
            cr.ev.set_join_mode(mode);
        }
        self.deduction.set_join_mode(mode);
    }

    /// The join implementation event queries currently run on.
    pub fn join_mode(&self) -> JoinMode {
        self.join_mode
    }

    /// Nodes in the candidate index — under [`MatchMode::Compiled`] the
    /// size of the shared discrimination network, whose growth is
    /// sublinear in rules whenever rules share tests.
    pub fn index_node_count(&self) -> usize {
        self.index.node_count()
    }

    /// Reprint everything installed into this engine as a parseable rule
    /// program (the `RULE_LANGUAGE.md` textual syntax): the sets and
    /// bare rules passed to [`ReactiveEngine::install`],
    /// [`ReactiveEngine::install_program`], and
    /// [`ReactiveEngine::add_rule`] — including rule sets that arrived
    /// dynamically in `install_rules` messages — in installation order,
    /// with disabled subtrees pruned (they installed nothing). Feeding
    /// the result to [`ReactiveEngine::install_program`] on a blank
    /// engine reproduces the rule base; reprinting *that* engine is a
    /// fixed point. Snapshots in `reweb_persist` persist rule programs in
    /// exactly this textual form; standalone it is the engine's rule
    /// export/debug surface.
    pub fn program_source(&self) -> String {
        let mut out = String::new();
        let mut rules = self.compiled.iter();
        for item in &self.installed {
            if !out.is_empty() {
                out.push_str("\n\n");
            }
            let printed = match item {
                InstalledItem::Set(s) => s.write(&mut out, &mut rules),
                InstalledItem::Rule => {
                    let cr = rules.next().expect("a bare rule's install compiled it");
                    write!(out, "{}", cr.rule)
                }
            };
            printed.expect("a String sink never fails");
        }
        out
    }

    /// Every `CALL` an installed rule can make to a procedure outside its
    /// scope, as `(rule, procedure)` pairs, each pair once. Calls are
    /// followed through the bodies of the procedures they reach. Such a
    /// rule still installs — a peer's policy installed as knowledge need
    /// not run here (Thesis 11) — but firing it fails the action with an
    /// unknown procedure. Computed on demand from the compiled rules.
    pub fn unresolved_calls(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for cr in &self.compiled {
            let mut seen = BTreeSet::new();
            let mut todo: Vec<&Action> = cr.rule.branches.iter().map(|b| &b.action).collect();
            while let Some(action) = todo.pop() {
                match action {
                    Action::Seq(xs) | Action::Alt(xs) => todo.extend(xs),
                    Action::If { then, else_, .. } => {
                        todo.push(then);
                        todo.extend(else_.as_deref());
                    }
                    Action::Call { name, .. } if seen.insert(name.as_str()) => {
                        match cr.procs.get(name) {
                            Some(p) => todo.push(&p.body),
                            None => out.push((cr.rule.name.clone(), name.clone())),
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Capture the sequence state a recovery must restore before
    /// replaying the next input (see [`ReplayMark`]).
    pub fn replay_mark(&self) -> ReplayMark {
        ReplayMark {
            clock: self.now,
            event_seq: self.next_event_id,
            derived_seq: self.deduction.derived_seq(),
        }
    }

    /// Restore a previously captured [`ReplayMark`] — recovery only. The
    /// clock is set without firing any deadline.
    pub fn restore_replay_mark(&mut self, m: ReplayMark) {
        self.now = m.clock;
        self.next_event_id = m.event_seq;
        self.deduction.set_derived_seq(m.derived_seq);
    }

    /// Does any installed rule or DETECT rule use an `absence` operator
    /// (i.e. can this engine ever hold a pending deadline)?
    pub fn has_deadline_rules(&self) -> bool {
        self.compiled.iter().any(|c| c.rule.on.has_absence()) || self.deduction.has_absence()
    }

    /// Total partial-match state across all rules (Thesis 4 metric).
    pub fn state_size(&self) -> usize {
        self.compiled.iter().map(|c| c.ev.state_size()).sum()
    }

    /// Earliest pending absence deadline across all rules and DETECT
    /// rules — hosts (the Web simulator) use this to schedule a timely
    /// [`ReactiveEngine::advance_time`] call instead of polling the clock.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        let rules = self.compiled.iter().filter_map(|c| c.ev.next_deadline());
        rules.chain(self.deduction.next_deadline()).min()
    }

    /// The engine's current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Test hook: make this engine panic (as a defective rule action
    /// would) whenever it receives an event with the given label. Used by
    /// the shard executor's panic-containment tests; hidden from docs
    /// because it exists only to rig failures.
    #[doc(hidden)]
    pub fn rig_panic_on_label(&mut self, label: impl Into<String>) {
        self.panic_on_label = Some(label.into());
    }

    /// Receive a message from the Web: AAA admission, rule installation,
    /// deduction, dispatch. Returns the outbound messages the triggered
    /// actions produced.
    pub fn receive(
        &mut self,
        payload: Term,
        meta: &MessageMeta,
        now: Timestamp,
    ) -> Vec<OutMessage> {
        if let Some(rigged) = &self.panic_on_label {
            if payload.label() == Some(rigged.as_str()) {
                panic!("rigged action panic on label `{rigged}`");
            }
        }
        let mut out = self.advance_time(now);
        self.metrics.events_received += 1;
        // `as_str` on the interned label is `&'static`, so admission works
        // on a borrowed label with no per-event `String` allocation.
        let label: &str = payload.label_sym().map(Sym::as_str).unwrap_or("");
        // The wire size feeds `Usage.bytes` only; without accounting nobody
        // reads it.
        let bytes = if self.aaa.config.accounting {
            payload.serialized_size()
        } else {
            0
        };
        let (admission, acct_event) = self.aaa.admit(meta, label, bytes, now);
        if !admission.allowed {
            self.metrics.events_denied += 1;
            self.metrics.errors.push(format!(
                "denied message `{label}` from {}: {}",
                meta.from, admission.reason
            ));
        } else {
            // Thesis 11: rules received as messages.
            if label == "install_rules" {
                if self
                    .aaa
                    .check(&admission.principal, &Permission::InstallRules)
                {
                    match payload
                        .children()
                        .first()
                        .ok_or_else(|| {
                            reweb_term::TermError::InvalidEdit(
                                "install_rules without a rule set".into(),
                            )
                        })
                        .and_then(ruleset_from_term)
                    {
                        Ok(set) => {
                            if let Err(e) = self.install(&set) {
                                self.metrics.errors.push(format!("install failed: {e}"));
                            }
                        }
                        Err(e) => self.metrics.errors.push(format!("install failed: {e}")),
                    }
                } else {
                    self.metrics
                        .errors
                        .push(format!("{} may not install rules", admission.principal));
                }
            }
            self.process_event(payload, &meta.from, &mut out);
        }
        // Double reactivity: the accounting record is itself an event.
        if let Some(acct) = acct_event {
            self.process_event(acct, "aaa:local", &mut out);
        }
        out
    }

    /// Receive a batch of messages, tagging every output with the index
    /// of the message that produced it — the attribution surface the
    /// networked ingress tier uses to route reactions back to their
    /// submitters. Equivalent to calling [`ReactiveEngine::receive`] per
    /// message and concatenating: stripping the tags reproduces that
    /// output byte for byte.
    pub fn receive_batch_tagged(&mut self, msgs: &[InMessage]) -> Vec<(u32, OutMessage)> {
        let obs_on = self.obs.is_enabled();
        let t0 = if obs_on { self.obs.now_ns() } else { 0 };
        let mut out = Vec::new();
        for (k, m) in msgs.iter().enumerate() {
            out.extend(
                self.receive(m.payload.clone(), &m.meta, m.at)
                    .into_iter()
                    .map(|o| (k as u32, o)),
            );
        }
        if obs_on && !msgs.is_empty() {
            self.obs.batch.record(self.obs.now_ns().saturating_sub(t0));
        }
        out
    }

    /// Raise an event locally (no AAA — it never crossed the Web).
    pub fn raise_local(&mut self, payload: Term, now: Timestamp) -> Vec<OutMessage> {
        let mut out = self.advance_time(now);
        self.metrics.events_received += 1;
        self.process_event(payload, "local", &mut out);
        out
    }

    /// Warmup-replay mode for crash recovery: while set, events still
    /// flow through AAA admission, deduction, and every rule's
    /// incremental event-query state — but **no rule fires**: no
    /// condition is evaluated, no action runs, no store write, output,
    /// log entry, or metric results. `reweb_persist` uses this to
    /// rebuild composite-event partial state from a log suffix whose
    /// *effects* are already covered by a snapshot.
    pub fn set_replay_warmup(&mut self, on: bool) {
        self.replay_warmup = on;
    }

    /// The replay horizon: a duration `B` such that no input older than
    /// `now - B` can still influence a future answer of any installed
    /// rule or DETECT rule (see
    /// [`reweb_events::EventQuery::replay_horizon`]). `None` = unbounded
    /// (some installed query retains state forever). Recovery replays
    /// exactly this much log suffix to rebuild composite-event state.
    pub fn replay_horizon(&self) -> Option<Dur> {
        // Cached: folded at install time (per rule, under the TTL the
        // rule was compiled with; DETECT rules without one), because the
        // durability layer consults this per logged record and rules are
        // never uninstalled — the fold only ever widens.
        self.horizon
    }

    /// Fire every absence deadline already due at the *current* clock,
    /// bypassing the monotone-clock fast path of
    /// [`ReactiveEngine::advance_time`]. Recovery uses this (under
    /// warmup mode) to discharge deadlines that a restored clock jumped
    /// over, so they cannot fire spuriously on the first post-recovery
    /// input; the outputs are discarded.
    pub fn flush_due_deadlines(&mut self) {
        self.advance_fire();
    }

    /// Advance the virtual clock: fires absence deadlines in rule event
    /// queries and DETECT rules.
    pub fn advance_time(&mut self, now: Timestamp) -> Vec<OutMessage> {
        if now <= self.now && self.now != Timestamp::ZERO {
            return Vec::new();
        }
        self.now = self.now.max(now);
        self.advance_fire()
    }

    /// Shared body of [`ReactiveEngine::advance_time`] and
    /// [`ReactiveEngine::flush_due_deadlines`]: advance the deduction
    /// layer and every *tick-sensitive* rule (see `advance_idxs`) to the
    /// current clock. Remaining rules catch up on their next candidate
    /// push — their windowed gc is output-invisible, so delaying it never
    /// changes an answer.
    fn advance_fire(&mut self) -> Vec<OutMessage> {
        let now = self.now;
        let mut out = Vec::new();
        for i in 0..self.advance_idxs.len() {
            let idx = self.advance_idxs[i];
            let s0 = self.compiled[idx].ev.stats;
            let answers = self.compiled[idx].ev.advance_to(now);
            self.absorb_join_stats(s0, self.compiled[idx].ev.stats);
            for a in answers {
                // Deadline-driven firings have no triggering event, so
                // their spans land on trace 0 (untraced samples).
                self.fire(idx, &a, 0, &mut out);
            }
        }
        let d0 = self.deduction_stats();
        let advanced = self.deduction.advance_to(now);
        self.absorb_deduction_stats(d0);
        match advanced {
            Ok(derived) => {
                for d in derived {
                    self.metrics.events_derived += 1;
                    self.dispatch(&d, &mut out);
                }
            }
            Err(e) => self.metrics.errors.push(format!("deduction: {e}")),
        }
        out
    }

    /// Fold the events-layer join counters accumulated between two
    /// [`reweb_events::incremental::EngineStats`] observations into the
    /// engine metrics — without this the per-rule counters would be
    /// dropped at the core boundary and sharded/durable runs (which only
    /// see [`EngineMetrics`]) would report 0.
    fn absorb_join_stats(
        &mut self,
        before: reweb_events::incremental::EngineStats,
        after: reweb_events::incremental::EngineStats,
    ) {
        self.metrics.join_attempts += after.join_attempts - before.join_attempts;
        self.metrics.index_probes += after.index_probes - before.index_probes;
    }

    /// Summed DETECT-engine counters, or a zero default when the
    /// deduction layer is empty (skips the per-rule walk on the hot path).
    fn deduction_stats(&self) -> reweb_events::incremental::EngineStats {
        if self.deduction.is_empty() {
            reweb_events::incremental::EngineStats::default()
        } else {
            self.deduction.stats_total()
        }
    }

    fn absorb_deduction_stats(&mut self, before: reweb_events::incremental::EngineStats) {
        if !self.deduction.is_empty() {
            let after = self.deduction.stats_total();
            self.absorb_join_stats(before, after);
        }
    }

    fn process_event(&mut self, payload: Term, source: &str, out: &mut Vec<OutMessage>) {
        let tracing = self.obs.is_enabled();
        self.next_event_id += 1;
        let mut e = Event {
            id: EventId(self.next_event_id),
            occurred: self.now,
            received: self.now,
            source: source.to_string(),
            payload,
            trace: 0,
        };
        let t0 = if tracing {
            e.trace = self.obs.next_trace();
            self.obs.now_ns()
        } else {
            0
        };
        let d0 = self.deduction_stats();
        let pushed = self.deduction.push(&e);
        self.absorb_deduction_stats(d0);
        let derived = match pushed {
            Ok(d) => d,
            Err(err) => {
                self.metrics.errors.push(format!("deduction: {err}"));
                Vec::new()
            }
        };
        self.metrics.events_derived += derived.len() as u64;
        if tracing {
            // Admission span: event construction + DETECT derivation,
            // everything between entry and alpha dispatch.
            self.obs.span_since(e.trace, Stage::Admission, t0);
        }
        self.dispatch(&e, out);
        for d in derived {
            self.dispatch(&d, out);
        }
    }

    fn dispatch(&mut self, e: &Event, out: &mut Vec<OutMessage>) {
        // Take the scratch buffer for the duration of the dispatch; `fire`
        // borrows `self` mutably, so the buffer lives as a local and is
        // put back before returning. (Dispatch never re-enters itself —
        // derived events dispatch from `process_event` — but even if it
        // did, the nested call would simply see an empty scratch.)
        let mut idxs = std::mem::take(&mut self.scratch_idxs);
        idxs.clear();
        let tracing = e.trace != 0 && self.obs.is_enabled();
        let t_alpha = if tracing { self.obs.now_ns() } else { 0 };
        let shape = EventShape::of(&e.payload);
        self.index
            .collect(&shape, &mut idxs, &mut self.metrics.alpha_tests_run);
        // Rules registered per trigger pattern, so a multi-part query can
        // surface more than once; sorting restores install order, which
        // is the firing order the interpreted matcher pins.
        idxs.sort_unstable();
        idxs.dedup();
        self.metrics.rules_considered += idxs.len() as u64;
        if tracing {
            self.obs.span_since(e.trace, Stage::Alpha, t_alpha);
        }
        if idxs.is_empty() {
            self.metrics.events_unmatched += 1;
            self.scratch_idxs = idxs;
            return;
        }
        for &idx in &idxs {
            let s0 = self.compiled[idx].ev.stats;
            let t_beta = if tracing { self.obs.now_ns() } else { 0 };
            let answers = self.compiled[idx].ev.push(e);
            if tracing {
                self.obs.span_since(e.trace, Stage::Beta, t_beta);
            }
            self.absorb_join_stats(s0, self.compiled[idx].ev.stats);
            for a in answers {
                self.fire(idx, &a, e.trace, out);
            }
        }
        self.scratch_idxs = idxs;
    }

    /// Run the branches of rule `idx` for one event-query answer.
    fn fire(&mut self, idx: usize, ans: &Answer, trace: u64, out: &mut Vec<OutMessage>) {
        // Warmup replay rebuilds event-query state only: the answer's
        // *effects* (conditions, actions, store writes, outputs, metric
        // counts) already happened before the crash and live in the
        // snapshot this replay runs on top of.
        if self.replay_warmup {
            return;
        }
        let obs_on = self.obs.is_enabled();
        let t_fire = if obs_on { self.obs.now_ns() } else { 0 };
        // Split borrows: the compiled rule is read, the query engine is
        // mutated by actions, metrics/log are appended to.
        let ReactiveEngine {
            qe,
            compiled,
            metrics,
            action_log,
            obs,
            ..
        } = self;
        let cr = &compiled[idx];
        let binds = &ans.bindings;
        for branch in &cr.rule.branches {
            let evaluated;
            let answers = if branch.cond.is_trivial() {
                std::slice::from_ref(binds)
            } else {
                metrics.condition_evals += 1;
                evaluated = match qe.eval_condition(&branch.cond, binds) {
                    Ok(a) => a,
                    Err(e) => {
                        metrics
                            .errors
                            .push(format!("rule {}: condition error: {e}", cr.rule.name));
                        return;
                    }
                };
                &evaluated[..]
            };
            if answers.is_empty() {
                continue; // try the next branch (ECAA/ECnAn)
            }
            metrics.rules_fired += 1;
            match metrics.fires_by_rule.get_mut(&cr.rule.name) {
                Some(n) => *n += 1,
                None => {
                    metrics.fires_by_rule.insert(cr.rule.name.clone(), 1);
                }
            }
            let mut produced = false;
            for b in answers {
                let mut ex = Executor::new(qe, &cr.procs);
                if let Err(e) = ex.execute(&branch.action, b) {
                    metrics.actions_failed += 1;
                    metrics.errors.push(format!(
                        "rule {} ({}): action failed: {e}",
                        cr.rule.name, cr.set_path
                    ));
                }
                metrics.messages_sent += ex.outbox.len() as u64;
                if obs_on && !ex.outbox.is_empty() {
                    produced = true;
                    // One shared provenance per firing: which rule, on
                    // which constituent events, on which trace.
                    let prov = Arc::new(Provenance {
                        rule: cr.rule.name.clone(),
                        events: ans.constituents.iter().map(|id| id.0).collect(),
                        trace,
                    });
                    for m in &mut ex.outbox {
                        m.provenance = Some(Arc::clone(&prov));
                    }
                }
                out.extend(ex.outbox);
                action_log.extend(ex.log);
            }
            if obs_on {
                obs.span_since(trace, Stage::Fire, t_fire);
                if produced {
                    obs.span_since(trace, Stage::Reaction, t_fire);
                }
            }
            return; // first branch that held fires; later branches skipped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    fn shop_engine() -> ReactiveEngine {
        let mut e = ReactiveEngine::new("http://shop");
        e.qe.store.put(
            "http://shop/customers",
            parse_term("customers[customer{id[\"c1\"], order[\"o1\"]}]").unwrap(),
        );
        e.install_program(
            r#"
            RULESET shop
              PROCEDURE ship(Order, Customer) DO
                SEQ
                  PERSIST shipment{order[var Order], customer[var Customer]} IN "http://shop/shipments";
                  SEND shipped{order[var Order]} TO "http://mail";
                END
              END

              RULE on_payment
                ON and( order{{id[[var O]], total[[var T]]}},
                        payment{{order[[var O]], amount[[var A]]}} ) within 2h
                WHERE var A >= var T
                IF in "http://shop/customers" customer{{id[[var C]], order[[var O]]}}
                THEN CALL ship(var O, var C)
                ELSE SEND unmatched{order[var O]} TO "http://shop/alerts"
              END
            END
            "#,
        )
        .unwrap();
        e
    }

    #[test]
    fn full_rule_fires_through_condition_into_procedure() {
        let mut e = shop_engine();
        let meta = MessageMeta::from_uri("http://client");
        let out = e.receive(
            parse_term("order{id[\"o1\"], total[\"50\"]}").unwrap(),
            &meta,
            Timestamp(1_000),
        );
        assert!(out.is_empty());
        let out = e.receive(
            parse_term("payment{order[\"o1\"], amount[\"60\"]}").unwrap(),
            &meta,
            Timestamp(2_000),
        );
        // The composite fired, the condition joined the customer, the
        // procedure persisted and sent.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "http://mail");
        assert_eq!(out[0].payload.to_string(), "shipped{order[\"o1\"]}");
        let shipments = e.qe.store.get("http://shop/shipments").unwrap();
        assert!(shipments.to_string().contains("customer[\"c1\"]"));
        assert_eq!(e.metrics.rules_fired, 1);
        assert_eq!(e.metrics.condition_evals, 1);
    }

    #[test]
    fn else_branch_for_unknown_customer() {
        let mut e = shop_engine();
        let meta = MessageMeta::from_uri("http://client");
        e.receive(
            parse_term("order{id[\"o9\"], total[\"50\"]}").unwrap(),
            &meta,
            Timestamp(1_000),
        );
        let out = e.receive(
            parse_term("payment{order[\"o9\"], amount[\"60\"]}").unwrap(),
            &meta,
            Timestamp(2_000),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "http://shop/alerts");
        // The ECAA else took one condition evaluation, not two.
        assert_eq!(e.metrics.condition_evals, 1);
    }

    #[test]
    fn where_clause_guards_event() {
        let mut e = shop_engine();
        let meta = MessageMeta::from_uri("http://client");
        e.receive(
            parse_term("order{id[\"o1\"], total[\"50\"]}").unwrap(),
            &meta,
            Timestamp(1_000),
        );
        // Underpayment: WHERE var A >= var T fails, nothing fires.
        let out = e.receive(
            parse_term("payment{order[\"o1\"], amount[\"10\"]}").unwrap(),
            &meta,
            Timestamp(2_000),
        );
        assert!(out.is_empty());
        assert_eq!(e.metrics.rules_fired, 0);
    }

    #[test]
    fn label_index_skips_unrelated_rules() {
        let mut e = shop_engine();
        let meta = MessageMeta::from_uri("http://client");
        // An event with an unrelated label triggers no event-query work.
        e.receive(
            parse_term("weather{t[\"20\"]}").unwrap(),
            &meta,
            Timestamp(1),
        );
        assert_eq!(e.state_size(), 0);
    }

    #[test]
    fn unresolved_calls_follow_procedure_bodies_and_leave_the_install_alone() {
        let mut e = ReactiveEngine::new("http://me");
        e.install_program(
            r#"
            RULESET own
              PROCEDURE p() DO IF in "http://me/x" x THEN CALL missing() ELSE CALL p() END END
              RULE fine ON a DO CALL p() END
              RULE direct ON b DO SEQ CALL p(); CALL gone(); CALL gone(); END END
            END
            "#,
        )
        .unwrap();
        let policy =
            crate::parse_program(r#"RULESET peer RULE r ON c DO CALL unlock("x") END END"#)
                .unwrap();
        let msg = crate::meta::install_rules_payload(&policy);
        e.receive(msg, &MessageMeta::from_uri("http://peer"), Timestamp(1));
        let mut calls = e.unresolved_calls();
        calls.sort();
        let pair = |r: &str, p: &str| (r.to_string(), p.to_string());
        assert_eq!(
            calls,
            [
                pair("direct", "gone"),
                pair("direct", "missing"),
                pair("fine", "missing"),
                pair("r", "unlock"),
            ]
        );
        // Reported, not refused: the peer's rule installed without an error.
        assert_eq!(e.rule_count(), 3);
        assert!(e.metrics.errors.is_empty(), "{:?}", e.metrics.errors);
    }

    #[test]
    fn timer_fires_absence_rule() {
        let mut e = ReactiveEngine::new("http://me");
        e.install_program(
            r#"
            RULE stranded
              ON absence(cancel{{no[[var N]]}}, rebooked{{no[[var N]]}}, 2h)
              DO SEND alarm{no[var N]} TO "http://phone"
            END
            "#,
        )
        .unwrap();
        let meta = MessageMeta::from_uri("http://airline");
        e.receive(
            parse_term("cancel{no[\"LH1\"]}").unwrap(),
            &meta,
            Timestamp(0),
        );
        let out = e.advance_time(Timestamp(7_200_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.to_string(), "alarm{no[\"LH1\"]}");
    }

    #[test]
    fn detect_rule_derives_and_triggers() {
        let mut e = ReactiveEngine::new("http://me");
        e.install_program(
            r#"
            DETECT big{id[var O]} ON order{{id[[var O]], total[[var T]]}} where var T >= 100 END
            RULE on_big ON big{{id[[var O]]}} DO SEND audit{id[var O]} TO "http://audit" END
            "#,
        )
        .unwrap();
        let meta = MessageMeta::from_uri("http://client");
        let out = e.receive(
            parse_term("order{id[\"o1\"], total[\"500\"]}").unwrap(),
            &meta,
            Timestamp(1),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "http://audit");
        assert_eq!(e.metrics.events_derived, 1);
    }

    #[test]
    fn aaa_denies_and_accounts() {
        let mut e = ReactiveEngine::new("http://me");
        e.aaa = Aaa::new(AaaConfig {
            require_auth: true,
            authorize: true,
            accounting: true,
            accounting_events: true,
        });
        e.aaa.register("franz", "pw", vec![]);
        e.aaa
            .acl
            .grant("franz", Permission::ReceiveEvent("order".into()));
        e.install_program(
            r#"
            RULE audit_denied
              ON accounting{{allowed[["false"]], principal[[var P]]}}
              DO PERSIST denied[var P] IN "http://me/audit"
            END
            "#,
        )
        .unwrap();
        // Unauthenticated: denied, no rule processing of the payload...
        let out = e.receive(
            parse_term("order{id[\"o1\"]}").unwrap(),
            &MessageMeta::from_uri("http://x"),
            Timestamp(1),
        );
        assert!(out.is_empty());
        assert_eq!(e.metrics.events_denied, 1);
        // ...but the accounting event (double reactivity) fired our audit
        // rule.
        let audit = e.qe.store.get("http://me/audit").unwrap();
        assert_eq!(audit.children().len(), 1);
    }

    #[test]
    fn install_rules_message_requires_permission() {
        use crate::meta::ruleset_to_term;
        use crate::parser::parse_program;

        let carried =
            parse_program(r#"RULE injected ON ping DO SEND pong TO "http://attacker" END"#)
                .unwrap();
        let payload = Term::ordered("install_rules", vec![ruleset_to_term(&carried)]);

        // Without permission: rejected.
        let mut e = ReactiveEngine::new("http://me");
        e.aaa = Aaa::new(AaaConfig {
            require_auth: false,
            authorize: true,
            accounting: false,
            accounting_events: false,
        });
        e.aaa.acl.grant("*", Permission::ReceiveEvent("*".into()));
        let before = e.rule_count();
        e.receive(
            payload.clone(),
            &MessageMeta::from_uri("http://partner"),
            Timestamp(1),
        );
        assert_eq!(e.rule_count(), before);
        assert!(e
            .metrics
            .errors
            .iter()
            .any(|m| m.contains("may not install")));

        // With permission: installed and live.
        let mut e = ReactiveEngine::new("http://me");
        e.receive(
            payload,
            &MessageMeta::from_uri("http://partner"),
            Timestamp(1),
        );
        assert_eq!(e.rule_count(), 1);
        let out = e.receive(
            Term::elem("ping"),
            &MessageMeta::from_uri("http://partner"),
            Timestamp(2),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "http://attacker");
    }

    #[test]
    fn action_failure_is_contained() {
        let mut e = ReactiveEngine::new("http://me");
        e.install_program(
            r#"
            RULE bad ON ping DO UPDATE DELETE nothing IN "http://missing" END
            RULE good ON ping DO SEND pong TO "http://ok" END
            "#,
        )
        .unwrap();
        let out = e.raise_local(Term::elem("ping"), Timestamp(1));
        // The failing rule did not prevent the good one.
        assert_eq!(out.len(), 1);
        assert_eq!(e.metrics.actions_failed, 1);
        assert!(!e.metrics.errors.is_empty());
    }

    #[test]
    fn disabled_ruleset_not_installed() {
        use crate::parser::parse_program;
        let mut set = parse_program(
            r#"
            RULESET a
              RULE r1 ON ping DO NOOP END
              RULESET b
                RULE r2 ON ping DO NOOP END
              END
            END
            "#,
        )
        .unwrap();
        // Disable the nested set before install. A single top-level
        // RULESET is returned unwrapped, so the path starts at `a`.
        set.find_mut("a.b").expect("path").enabled = false;
        let mut e = ReactiveEngine::new("http://me");
        e.install(&set).unwrap();
        assert_eq!(e.rule_count(), 1);
    }
}
