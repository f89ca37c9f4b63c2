//! Compiled rule matching: a shared alpha discrimination network.
//!
//! The interpreted dispatch path answers "which rules might this event
//! trigger?" with a label lookup and then re-walks every candidate's
//! `QueryTerm` from scratch — per-event cost linear in the rules sharing a
//! label. This module compiles the *necessary conditions* of every
//! installed pattern into one trie shared across all rules (a Rete-style
//! **alpha network**):
//!
//! ```text
//! label ──► attr presence ──► attr value (=) ──► child shape ──► guards ──► rule ids
//! ```
//!
//! * Each root pattern yields a [`Registration`]: its trigger label plus a
//!   canonically-ordered list of [`AlphaTest`]s, every one a *necessary*
//!   condition — an event failing any test cannot match the pattern, while
//!   an event passing all tests is merely a candidate (the full matcher
//!   still runs on it). That containment is what keeps compiled output
//!   byte-identical to interpreted output.
//! * Identical tests are shared structurally: insertion walks the trie
//!   keyed by `(node, test)` — `Sym`-based structural hashing — so 100k
//!   rules over the same vocabulary collapse into a small network, and
//!   value-discriminating tests (`@route="eu-1"`) dispatch through a hash
//!   map in O(1) instead of being tried one rule at a time.
//! * The network supports **live extension**: installing one more rule
//!   threads one more path through the existing trie (`insert`), never
//!   rebuilding the other registrations.
//!
//! [`EventShape`] is the per-event view the tests run against: it reads
//! the payload lazily and resolves an event value to a `Sym` (by
//! [`reweb_term::Sym::lookup`], never interning) only where a hash layer
//! dispatches on it.
//!
//! Firing order is preserved because the network only ever *selects*
//! candidate rule indices; the engine sorts and deduplicates them into
//! installation order, exactly as the interpreted label index did. See
//! DESIGN §1d.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use reweb_term::{Element, Sym, SymHasher, SymMap, Term};

use crate::ast::{AttrPattern, LabelPattern, QueryTerm};
use crate::bindings::Bindings;
use crate::expr::Cmp;

/// A map keyed by `(Sym, Sym)` pairs with the integer [`SymHasher`].
type SymPairMap<V> = HashMap<(Sym, Sym), V, BuildHasherDefault<SymHasher>>;

// ---------------------------------------------------------------------------
// Event fingerprint
// ---------------------------------------------------------------------------

/// The per-event view alpha tests evaluate against: the payload's root,
/// read lazily.
///
/// Nothing is precomputed and nothing is interned. A layer that dispatches
/// on a value (`@route="eu-1"`, `status["shipped"]`) resolves the event's
/// string with [`Sym::lookup`] at the moment the network asks, and only
/// for the attribute names / child labels the visited nodes actually key
/// on. A value that resolves to `None` was never interned, so it cannot
/// equal any pattern constant (those are interned at compile time by
/// [`compile_pattern`]) and the probe simply misses. Event *data* — order
/// ids, counters, free text — therefore never reaches the symbol table.
#[derive(Clone, Copy, Debug)]
pub struct EventShape<'a> {
    /// The root element (`None` for a text payload).
    root: Option<&'a Element>,
    /// The payload string, when the event is a bare text leaf.
    text: Option<&'a str>,
}

impl<'a> EventShape<'a> {
    /// View `payload`'s root node.
    pub fn of(payload: &'a Term) -> EventShape<'a> {
        EventShape {
            root: payload.as_element(),
            text: payload.as_text(),
        }
    }

    /// Root element label (`None` for a text payload).
    pub fn label(&self) -> Option<Sym> {
        self.root.map(|e| e.label)
    }

    /// Raw value of attribute `name`, if present.
    fn attr(&self, name: Sym) -> Option<&'a str> {
        self.root?.attrs.get(&name).map(String::as_str)
    }

    fn children(&self) -> &'a [Term] {
        self.root.map_or(&[], |e| &e.children)
    }

    /// `(child label, text)` for each direct text child of each element
    /// child whose text is a known symbol — the pairs
    /// `HasChildLabelText` layers dispatch on.
    fn child_pairs(&self) -> impl Iterator<Item = (Sym, Sym)> + 'a {
        self.children()
            .iter()
            .filter_map(Term::as_element)
            .flat_map(|ce| {
                ce.children
                    .iter()
                    .filter_map(Term::as_text)
                    .filter_map(Sym::lookup)
                    .map(|t| (ce.label, t))
            })
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// A comparison guard hoisted from a `WHERE` clause: the single variable
/// `var` is bound at the pattern root as the value of attribute `attr`, so
/// the comparison can run during dispatch from the raw attribute string.
#[derive(Clone, Debug)]
pub struct GuardTest {
    /// The comparison's only variable.
    pub var: Sym,
    /// The root attribute whose value binds `var`.
    pub attr: Sym,
    /// The hoisted comparison.
    pub cmp: Cmp,
}

impl GuardTest {
    /// Evaluate against the event's raw attribute value. Mirrors the
    /// operator semantics exactly: an evaluation error means "does not
    /// hold", as in the `Where` operator.
    fn passes(&self, shape: &EventShape<'_>) -> bool {
        let Some(raw) = shape.attr(self.attr) else {
            return false;
        };
        let b = Bindings::of(self.var, Term::text(raw));
        self.cmp.holds(&b).unwrap_or(false)
    }
}

/// One necessary condition on the event's root, compiled from a pattern.
///
/// Every variant is *necessary*: if the test fails, the pattern cannot
/// match the event. No variant is assumed sufficient.
#[derive(Clone, Debug)]
pub enum AlphaTest {
    /// Root has attribute `name` (any value).
    AttrPresent(Sym),
    /// Root attribute `name` equals the interned constant `value`.
    AttrEq(Sym, Sym),
    /// Some element child of the root has this label.
    HasChildLabel(Sym),
    /// Some element child with this label has a direct text child equal to
    /// this interned constant.
    HasChildLabelText(Sym, Sym),
    /// Some direct text-leaf child of the root equals this constant.
    HasTextChild(Sym),
    /// Root has exactly this many children (total child regimes).
    ChildCountEq(usize),
    /// Root has at least this many children (partial child regimes).
    ChildCountGe(usize),
    /// The payload is a bare text leaf equal to this constant.
    IsText(Sym),
    /// A hoisted `WHERE` comparison over one root attribute binding
    /// (boxed: the rarest test is the largest, and every other test is
    /// stored at its size).
    Guard(Box<GuardTest>),
}

impl AlphaTest {
    /// Structural identity for trie sharing and canonical ordering.
    ///
    /// Variant order is the network's layer order (attribute presence →
    /// attribute equality → child shape → guards), so sorting a
    /// registration's tests by key aligns shared prefixes across rules.
    fn key(&self) -> TestKey {
        match self {
            AlphaTest::AttrPresent(k) => TestKey::AttrPresent(*k),
            AlphaTest::AttrEq(k, v) => TestKey::AttrEq(*k, *v),
            AlphaTest::HasChildLabel(l) => TestKey::HasChildLabel(*l),
            AlphaTest::HasChildLabelText(l, t) => TestKey::HasChildLabelText(*l, *t),
            AlphaTest::HasTextChild(t) => TestKey::HasTextChild(*t),
            AlphaTest::ChildCountEq(n) => TestKey::ChildCountEq(*n),
            AlphaTest::ChildCountGe(n) => TestKey::ChildCountGe(*n),
            AlphaTest::IsText(t) => TestKey::IsText(*t),
            // `Cmp` holds floats (no `Eq`/`Hash`), so guards are keyed by
            // their printed form — identical guards print identically.
            AlphaTest::Guard(g) => TestKey::Guard(Box::new((g.var, g.attr, g.cmp.to_string()))),
        }
    }

    /// Does the event pass this test? Constants compare as strings
    /// against the event's own data: no symbol is needed on the event side.
    fn passes(&self, shape: &EventShape<'_>) -> bool {
        match self {
            AlphaTest::AttrPresent(k) => shape.attr(*k).is_some(),
            AlphaTest::AttrEq(k, v) => shape.attr(*k) == Some(v.as_str()),
            AlphaTest::HasChildLabel(l) => {
                shape.children().iter().any(|c| c.label_sym() == Some(*l))
            }
            AlphaTest::HasChildLabelText(l, t) => shape.child_pairs().any(|p| p == (*l, *t)),
            AlphaTest::HasTextChild(t) => shape
                .children()
                .iter()
                .any(|c| c.as_text() == Some(t.as_str())),
            AlphaTest::ChildCountEq(n) => shape.children().len() == *n,
            AlphaTest::ChildCountGe(n) => shape.children().len() >= *n,
            AlphaTest::IsText(t) => shape.text == Some(t.as_str()),
            AlphaTest::Guard(g) => g.passes(shape),
        }
    }
}

/// Canonical, hashable identity of an [`AlphaTest`] (structural hashing on
/// `Sym` ids; guards via their printed form, boxed so that every other
/// edge key stays 16 bytes).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum TestKey {
    AttrPresent(Sym),
    AttrEq(Sym, Sym),
    HasChildLabel(Sym),
    HasChildLabelText(Sym, Sym),
    HasTextChild(Sym),
    ChildCountEq(usize),
    ChildCountGe(usize),
    IsText(Sym),
    Guard(Box<(Sym, Sym, String)>),
}

// ---------------------------------------------------------------------------
// Registrations (compiler output, network input)
// ---------------------------------------------------------------------------

/// The compiled form of one trigger pattern: its dispatch label and the
/// canonically-ordered necessary conditions extracted from the pattern.
#[derive(Clone, Debug)]
pub struct Registration {
    /// Root label to dispatch on; `None` routes through the wildcard
    /// bucket, which every event visits.
    pub label: Option<Sym>,
    /// Necessary conditions, sorted by structural key, deduplicated.
    pub tests: Vec<AlphaTest>,
}

impl Registration {
    /// A label-only registration (no tests beyond the dispatch label) —
    /// the compiled equivalent of the interpreted label index entry. Used
    /// for rules whose timing semantics forbid skipping events (absence
    /// windows, TTL-limited state).
    pub fn label_only(label: Option<Sym>) -> Registration {
        Registration {
            label,
            tests: Vec::new(),
        }
    }

    fn normalize(mut self) -> Registration {
        self.tests.sort_by_cached_key(AlphaTest::key);
        self.tests.dedup_by_key(|t| t.key());
        self
    }
}

/// Compile the necessary conditions of `pattern` into a [`Registration`],
/// hoisting any of `cmps` whose single variable is bound as a root
/// attribute value into dispatch-time [`AlphaTest::Guard`]s.
///
/// Interns every constant the tests compare against (so event-side
/// resolution by [`Sym::lookup`] is exact), and only
/// ever *under*-approximates: tests are necessary conditions, never
/// assumed sufficient.
pub fn compile_pattern(pattern: &QueryTerm, cmps: &[Cmp]) -> Registration {
    let mut reg = Registration {
        label: None,
        tests: Vec::new(),
    };
    let mut attr_vars: SymMap<Sym> = SymMap::default();
    compile_root(pattern, &mut reg, &mut attr_vars);
    for cmp in cmps {
        let vars = cmp.variables();
        if let [x] = vars[..] {
            if let Some(&attr) = attr_vars.get(&x) {
                reg.tests.push(AlphaTest::Guard(Box::new(GuardTest {
                    var: x,
                    attr,
                    cmp: cmp.clone(),
                })));
            }
        }
    }
    reg.normalize()
}

fn compile_root(p: &QueryTerm, reg: &mut Registration, attr_vars: &mut SymMap<Sym>) {
    match p {
        // A bare variable or descendant pattern can match any payload at
        // any depth: wildcard, no tests.
        QueryTerm::Var(_) | QueryTerm::Desc(_) | QueryTerm::Without(_) => {}
        QueryTerm::VarAs(_, inner) => compile_root(inner, reg, attr_vars),
        QueryTerm::Text(s) => reg.tests.push(AlphaTest::IsText(Sym::new(s))),
        QueryTerm::Elem(qe) => {
            if let LabelPattern::Exact(l) = qe.label {
                reg.label = Some(l);
            }
            for (k, ap) in &qe.attrs {
                match ap {
                    AttrPattern::Exact(v) => reg.tests.push(AlphaTest::AttrEq(*k, Sym::new(v))),
                    AttrPattern::Var(x) => {
                        reg.tests.push(AlphaTest::AttrPresent(*k));
                        attr_vars.entry(*x).or_insert(*k);
                    }
                }
            }
            let positives: Vec<&QueryTerm> = qe
                .children
                .iter()
                .filter(|c| !matches!(c, QueryTerm::Without(_)))
                .collect();
            if qe.partial {
                if !positives.is_empty() {
                    reg.tests.push(AlphaTest::ChildCountGe(positives.len()));
                }
            } else {
                reg.tests.push(AlphaTest::ChildCountEq(positives.len()));
            }
            for c in &positives {
                compile_child(c, reg);
            }
        }
    }
}

/// Necessary conditions contributed by one positive child pattern.
fn compile_child(c: &QueryTerm, reg: &mut Registration) {
    match c {
        QueryTerm::VarAs(_, inner) => compile_child(inner, reg),
        QueryTerm::Text(s) => reg.tests.push(AlphaTest::HasTextChild(Sym::new(s))),
        QueryTerm::Elem(ce) => {
            if let LabelPattern::Exact(m) = ce.label {
                // A direct text constant inside the child pattern is
                // required in *every* child regime — strongest available
                // test; otherwise the label presence alone.
                let text_const = ce.children.iter().find_map(|cc| match cc {
                    QueryTerm::Text(s) => Some(Sym::new(s)),
                    _ => None,
                });
                match text_const {
                    Some(t) => reg.tests.push(AlphaTest::HasChildLabelText(m, t)),
                    None => reg.tests.push(AlphaTest::HasChildLabel(m)),
                }
            }
        }
        // Variables, descendants, and negations constrain nothing the
        // root fingerprint can check.
        QueryTerm::Var(_) | QueryTerm::Desc(_) | QueryTerm::Without(_) => {}
    }
}

// ---------------------------------------------------------------------------
// Candidate indexes: the trait both dispatch paths implement
// ---------------------------------------------------------------------------

/// The rule-dispatch index: maps an event fingerprint to the candidate
/// rule indices that might trigger on it.
///
/// Two implementations: [`InterpretedIndex`] (the historical label →
/// rule-list map, every same-label rule a candidate) and [`AlphaNetwork`]
/// (the compiled discrimination network). The contract both satisfy:
/// `collect` pushes a **superset-free, order-free** candidate list — every
/// rule that could match the event is pushed at least once (possibly with
/// duplicates, in any order), and the caller sorts + deduplicates into
/// installation order, which is what preserves firing order across the
/// two paths.
pub trait CandidateIndex: Send {
    /// Add one rule's registration. Live extension: must not disturb
    /// existing registrations.
    fn insert(&mut self, reg: &Registration, rule: usize);

    /// Push every candidate rule index for `shape` into `out` (duplicates
    /// allowed; caller sorts and dedups), incrementing `tests_run` once
    /// per alpha test or dispatch probe evaluated.
    fn collect(&self, shape: &EventShape<'_>, out: &mut Vec<usize>, tests_run: &mut u64);

    /// Number of interior nodes (diagnostics; 0 where meaningless).
    fn node_count(&self) -> usize;
}

/// The interpreted dispatch path: label → rule list, wildcard rules appended
/// to every event. Ignores registration tests entirely — every same-label
/// rule is a candidate, exactly as `ReactiveEngine` dispatched historically.
#[derive(Debug, Default)]
pub struct InterpretedIndex {
    by_label: SymMap<Vec<usize>>,
    wildcard: Vec<usize>,
}

impl InterpretedIndex {
    /// An empty index.
    pub fn new() -> InterpretedIndex {
        InterpretedIndex::default()
    }
}

impl CandidateIndex for InterpretedIndex {
    fn insert(&mut self, reg: &Registration, rule: usize) {
        match reg.label {
            Some(l) => self.by_label.entry(l).or_default().push(rule),
            None => self.wildcard.push(rule),
        }
    }

    fn collect(&self, shape: &EventShape<'_>, out: &mut Vec<usize>, tests_run: &mut u64) {
        if let Some(l) = shape.label() {
            *tests_run += 1;
            if let Some(rules) = self.by_label.get(&l) {
                out.extend_from_slice(rules);
            }
        }
        out.extend_from_slice(&self.wildcard);
    }

    fn node_count(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// The alpha network
// ---------------------------------------------------------------------------

type NodeId = usize;

/// One trie node. Passing edges are split by dispatch mechanism:
/// value-equality edges resolve through hash maps in O(1) per attribute
/// name / child pair, everything else is evaluated linearly (each linear
/// edge is a *distinct* test, shared across all rules that need it).
#[derive(Debug, Default)]
struct Node {
    /// `AttrEq` edges: attribute name → (value symbol → child node). The
    /// event's value for the attribute selects at most one edge.
    attr_eq: SymMap<SymMap<NodeId>>,
    /// `HasChildLabelText` edges: (child label, text) → child node. Probed
    /// once per event child pair.
    child_text: SymPairMap<NodeId>,
    /// All other edges, one per distinct test.
    linear: Vec<(AlphaTest, NodeId)>,
    /// Rules whose registration ends at this node.
    emit: Vec<usize>,
}

/// The shared alpha discrimination network (see module docs).
///
/// Structure: a label-dispatch root (`labels` + the wildcard bucket every
/// event visits) over tries of shared [`AlphaTest`] edges. Identical
/// `(parent, test)` pairs are structurally deduplicated across all
/// registrations, so the network's size tracks the *vocabulary* of the
/// rule set, not the rule count, and per-event work tracks the event's
/// shape, not the number of installed rules.
#[derive(Debug, Default)]
pub struct AlphaNetwork {
    nodes: Vec<Node>,
    /// Root buckets by exact label.
    labels: SymMap<NodeId>,
    /// Root bucket for label-less registrations (wildcard patterns, text
    /// patterns); traversed for every event, including text payloads.
    any_label: Option<NodeId>,
    /// Structural-sharing map: `(parent, test key)` → existing child.
    edges: HashMap<(NodeId, TestKey), NodeId>,
}

impl AlphaNetwork {
    /// An empty network.
    pub fn new() -> AlphaNetwork {
        AlphaNetwork::default()
    }

    fn new_node(&mut self) -> NodeId {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    /// Child of `parent` along `test`, creating and wiring the edge on
    /// first use (the structural-sharing step).
    fn child(&mut self, parent: NodeId, test: &AlphaTest) -> NodeId {
        let key = test.key();
        if let Some(&c) = self.edges.get(&(parent, key.clone())) {
            return c;
        }
        let c = self.new_node();
        match test {
            AlphaTest::AttrEq(k, v) => {
                self.nodes[parent]
                    .attr_eq
                    .entry(*k)
                    .or_default()
                    .insert(*v, c);
            }
            AlphaTest::HasChildLabelText(l, t) => {
                self.nodes[parent].child_text.insert((*l, *t), c);
            }
            t => push_sized(&mut self.nodes[parent].linear, (t.clone(), c)),
        }
        self.edges.insert((parent, key), c);
        c
    }

    fn walk(
        &self,
        node: NodeId,
        shape: &EventShape<'_>,
        out: &mut Vec<usize>,
        tests_run: &mut u64,
    ) {
        let n = &self.nodes[node];
        out.extend_from_slice(&n.emit);
        for (name, by_value) in &n.attr_eq {
            *tests_run += 1;
            if let Some(v) = shape.attr(*name).and_then(Sym::lookup) {
                if let Some(&c) = by_value.get(&v) {
                    self.walk(c, shape, out, tests_run);
                }
            }
        }
        if !n.child_text.is_empty() {
            for pair in shape.child_pairs() {
                *tests_run += 1;
                if let Some(&c) = n.child_text.get(&pair) {
                    self.walk(c, shape, out, tests_run);
                }
            }
        }
        for (test, c) in &n.linear {
            *tests_run += 1;
            if test.passes(shape) {
                self.walk(*c, shape, out, tests_run);
            }
        }
    }
}

/// Push onto a node's edge or rule list. Most nodes hold one of each, so
/// the first allocation holds exactly one; `push` grows the list from
/// there (reserving exactly on every push would copy a shared node's list
/// once per rule).
fn push_sized<T>(list: &mut Vec<T>, item: T) {
    if list.capacity() == 0 {
        list.reserve_exact(1);
    }
    list.push(item);
}

impl CandidateIndex for AlphaNetwork {
    fn insert(&mut self, reg: &Registration, rule: usize) {
        let mut node = match reg.label {
            Some(l) => match self.labels.get(&l) {
                Some(&n) => n,
                None => {
                    let n = self.new_node();
                    self.labels.insert(l, n);
                    n
                }
            },
            None => match self.any_label {
                Some(n) => n,
                None => {
                    let n = self.new_node();
                    self.any_label = Some(n);
                    n
                }
            },
        };
        for test in &reg.tests {
            node = self.child(node, test);
        }
        push_sized(&mut self.nodes[node].emit, rule);
    }

    fn collect(&self, shape: &EventShape<'_>, out: &mut Vec<usize>, tests_run: &mut u64) {
        if let Some(l) = shape.label() {
            *tests_run += 1;
            if let Some(&n) = self.labels.get(&l) {
                self.walk(n, shape, out, tests_run);
            }
        }
        if let Some(n) = self.any_label {
            self.walk(n, shape, out, tests_run);
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::parser::{parse_cmp, parse_query_term};
    use reweb_term::parse_term;

    fn reg(pattern: &str) -> Registration {
        compile_pattern(&parse_query_term(pattern).unwrap(), &[])
    }

    fn candidates(net: &AlphaNetwork, payload: &str) -> Vec<usize> {
        let t = parse_term(payload).unwrap();
        let shape = EventShape::of(&t);
        let mut out = Vec::new();
        let mut tests = 0;
        net.collect(&shape, &mut out, &mut tests);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn attr_value_discrimination_is_shared() {
        let mut net = AlphaNetwork::new();
        for i in 0..100 {
            let r = reg(&format!("order{{{{ @route=\"r{i}\", n[[var N]] }}}}"));
            net.insert(&r, i);
        }
        // 100 rules share label + attr-present layers; value edges fan out
        // from ONE dispatch map, so node count ≈ rules + shared prefix, and
        // a lookup touches one value edge.
        let hits = candidates(&net, "order{@route=\"r42\", n[\"x\"]}");
        assert_eq!(hits, vec![42]);

        let t = parse_term("order{@route=\"r42\", n[\"x\"]}").unwrap();
        let shape = EventShape::of(&t);
        let mut out = Vec::new();
        let mut tests = 0;
        net.collect(&shape, &mut out, &mut tests);
        assert!(
            tests < 10,
            "dispatch cost must not scale with rule count (ran {tests} tests)"
        );
    }

    #[test]
    fn tests_are_necessary_conditions_only() {
        // Candidate containment: any payload the full matcher accepts must
        // pass the compiled tests.
        let patterns = [
            "order{{ id[[var O]], customer[[var C]] }}",
            "a[b, c]",
            "a[[b, d]]",
            "flight{{ status[\"cancelled\"], without rebooked }}",
            "*{{ v[[var X]] }}",
            "pair{ var X, var X }",
            "\"ping\"",
        ];
        let payloads = [
            r#"order{ id["o-1"], customer["c1"] }"#,
            "a[b, c]",
            "a[b, c, d]",
            r#"flight[status["cancelled"]]"#,
            r#"thing{ v["1"] }"#,
            r#"pair[v["1"], v["1"]]"#,
            "\"ping\"",
            "noise",
        ];
        for p in &patterns {
            let q = parse_query_term(p).unwrap();
            let r = compile_pattern(&q, &[]);
            for d in &payloads {
                let t = parse_term(d).unwrap();
                let interpreted = !crate::matcher::match_at(&q, &t, &Bindings::new()).is_empty();
                let shape = EventShape::of(&t);
                let label_ok = match r.label {
                    Some(l) => shape.label() == Some(l),
                    None => true,
                };
                let compiled = label_ok && r.tests.iter().all(|test| test.passes(&shape));
                assert!(
                    !interpreted || compiled,
                    "pattern {p} matched {d} but compiled tests rejected it"
                );
            }
        }
    }

    #[test]
    fn guards_hoist_only_root_attr_vars() {
        let q = parse_query_term("reading{{ @level=var L, src[[var S]] }}").unwrap();
        let level_guard = parse_cmp("var L >= 10").unwrap();
        let src_guard = parse_cmp("var S >= 10").unwrap(); // S is not an attr var
        let two_vars = Cmp::new(Expr::var("L"), CmpOp::Lt, Expr::var("S"));
        let r = compile_pattern(&q, &[level_guard, src_guard, two_vars]);
        let guards: Vec<_> = r
            .tests
            .iter()
            .filter(|t| matches!(t, AlphaTest::Guard(_)))
            .collect();
        assert_eq!(guards.len(), 1, "only the root-attr single-var cmp hoists");

        let mut net = AlphaNetwork::new();
        net.insert(&r, 0);
        assert_eq!(
            candidates(&net, "reading{@level=\"12\", src[\"a\"]}"),
            vec![0]
        );
        assert!(candidates(&net, "reading{@level=\"7\", src[\"a\"]}").is_empty());
    }

    #[test]
    fn live_extension_does_not_disturb_existing_rules() {
        let mut net = AlphaNetwork::new();
        net.insert(&reg("a{{ x[[var X]] }}"), 0);
        let before = candidates(&net, "a{ x[\"1\"] }");
        net.insert(&reg("a{{ x[[var X]], y[[var Y]] }}"), 1);
        net.insert(&reg("b{{ z[[var Z]] }}"), 2);
        assert_eq!(candidates(&net, "a{ x[\"1\"] }"), before);
        assert_eq!(candidates(&net, "a{ x[\"1\"], y[\"2\"] }"), vec![0, 1]);
        assert_eq!(candidates(&net, "b{ z[\"3\"] }"), vec![2]);
    }

    #[test]
    fn shared_prefixes_collapse() {
        let mut net = AlphaNetwork::new();
        // Ten rules with identical structure differing only in rule id.
        let r = reg("evt{{ k[[var K]] }}");
        for i in 0..10 {
            net.insert(&r, i);
        }
        // One path through the trie serves all ten.
        assert!(net.node_count() <= 3, "nodes: {}", net.node_count());
        assert_eq!(
            candidates(&net, "evt{ k[\"v\"] }"),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wildcard_and_text_routes() {
        let mut net = AlphaNetwork::new();
        net.insert(&reg("*{{ v[[var X]] }}"), 0);
        net.insert(&reg("\"ping\""), 1);
        assert_eq!(candidates(&net, "anything{ v[\"1\"] }"), vec![0]);
        assert_eq!(candidates(&net, "\"ping\""), vec![1]);
        assert!(candidates(&net, "\"pong\"").is_empty());
        assert!(candidates(&net, "anything{ w[\"1\"] }").is_empty());
    }

    #[test]
    fn interpreted_index_keeps_all_label_mates() {
        let mut idx = InterpretedIndex::new();
        idx.insert(&reg("order{{ @route=\"r1\" }}"), 0);
        idx.insert(&reg("order{{ @route=\"r2\" }}"), 1);
        idx.insert(&Registration::label_only(None), 2);
        let t = parse_term("order{@route=\"r1\"}").unwrap();
        let shape = EventShape::of(&t);
        let mut out = Vec::new();
        let mut tests = 0;
        idx.collect(&shape, &mut out, &mut tests);
        out.sort_unstable();
        // Interpreted: both order rules are candidates regardless of value.
        assert_eq!(out, vec![0, 1, 2]);
    }
}
