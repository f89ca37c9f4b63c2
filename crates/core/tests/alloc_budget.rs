//! Allocation budgets of the per-event path, and resident-bytes budgets
//! of what a node keeps.
//!
//! This binary installs a counting `#[global_allocator]` and asserts how
//! many heap allocations one input event costs in steady state (after a
//! warm-up that lets scratch buffers, join stores and the symbol snapshot
//! reach their working size). Budgets are counts, so they repeat exactly
//! and fail loudly when someone reintroduces a per-pattern-node `Vec`.
//! Each budget sits a little above what the tree measured when it was set
//! (in parentheses, with the count before the allocation-free match
//! kernel).
//!
//! The same allocator keeps a live-bytes balance (bytes allocated minus
//! bytes freed), which the resident budgets read: bytes an installed rule
//! keeps, and bytes one event term keeps. They repeat exactly too, and
//! only ever tighten.
//!
//! The counters are thread-local: the scenarios run on libtest's parallel
//! threads without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use reweb_core::{InMessage, MessageMeta, ReactiveEngine};
use reweb_term::{Term, Timestamp};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live_add(bytes: usize, sign: i64) {
    LIVE.with(|n| n.set(n.get() + sign * bytes as i64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is thread-local counter updates that themselves never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live_add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(layout.size(), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live_add(layout.size(), -1);
        live_add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: usize = 256;
const WARMUP: usize = 8 * BATCH;
const MEASURED: usize = 16 * BATCH;

const RESOURCE: &str = "http://svc/stock";

fn order(j: usize, route: usize) -> Term {
    Term::build("order")
        .unordered()
        .attr("route", format!("r{route}"))
        .field("n", j.to_string())
        .field("sku", format!("s{}", j % 32))
        .finish()
}

fn pair(label: &str, route: usize, id: usize) -> Term {
    Term::build(label)
        .unordered()
        .attr("route", format!("c{route}"))
        .field("id", id.to_string())
        .finish()
}

fn stock() -> Term {
    Term::build("stock")
        .unordered()
        .children((0..16).map(|k| {
            Term::build("item")
                .unordered()
                .field("sku", format!("s{k}"))
                .finish()
        }))
        .finish()
}

/// A fresh engine with the stock resource and `program` installed.
fn engine_with(program: &str) -> ReactiveEngine {
    let mut engine = ReactiveEngine::new("http://svc");
    engine.qe.store.put(RESOURCE, stock());
    engine.install_program(program).expect("program installs");
    engine
}

/// Steady-state allocations per input event of `program` over the stream
/// `event(j)`, fed in `BATCH`-message `receive_batch_tagged` calls.
fn allocs_per_event(program: &str, event: impl Fn(usize) -> Term) -> f64 {
    steady_allocs_per_event(&mut engine_with(program), event)
}

/// [`allocs_per_event`] through a caller-supplied `engine`.
fn steady_allocs_per_event(engine: &mut ReactiveEngine, event: impl Fn(usize) -> Term) -> f64 {
    let meta = MessageMeta::from_uri("http://client");
    let msgs: Vec<InMessage> = (0..WARMUP + MEASURED)
        .map(|j| InMessage::new(event(j), meta.clone(), Timestamp(20 * j as u64 + 1)))
        .collect();
    let (warm, measured) = msgs.split_at(WARMUP);
    for chunk in warm.chunks(BATCH) {
        std::hint::black_box(engine.receive_batch_tagged(chunk));
    }
    let before = ALLOCS.with(Cell::get);
    for chunk in measured.chunks(BATCH) {
        std::hint::black_box(engine.receive_batch_tagged(chunk));
    }
    let after = ALLOCS.with(Cell::get);
    assert_eq!(engine.metrics.actions_failed, 0);
    (after - before) as f64 / MEASURED as f64
}

fn assert_budget(what: &str, got: f64, budget: f64) {
    eprintln!("alloc budget: {what}: {got:.2} allocations/event (budget {budget})");
    assert!(
        got <= budget,
        "{what}: {got:.2} allocations per event exceeds the budget of {budget}"
    );
}

#[test]
fn unmatched_event() {
    let got = allocs_per_event(
        "RULE a ON order{{@route=\"r1\", n[[var N]]}} DO NOOP END",
        |j| pair("other", j, j),
    );
    // 1.00: the event's `source` string (was 15).
    assert_budget("unmatched event", got, 2.0);
}

#[test]
fn one_atomic_noop_rule() {
    let got = allocs_per_event("RULE a ON order{{n[[var N]]}} DO NOOP END", |j| order(j, 1));
    // 4.00: source, answer vector, its bindings, its constituents (was 31).
    assert_budget("one atomic NOOP rule", got, 6.0);
}

#[test]
fn conditional_send_over_16_item_resource() {
    let got = allocs_per_event(
        "RULE a ON order{{n[[var N]], sku[[var S]]}} \
         IF in \"http://svc/stock\" item{{sku[[var S]]}} \
         THEN SEND hit{n[var N]} TO \"http://sink/a\" ELSE NOOP END",
        |j| order(j, 1),
    );
    // 9.02 (was 180).
    assert_budget("conditional SEND over a 16-item resource", got, 12.0);
}

/// `match-mix` in miniature: `atomic` attr-routed atomic rules (1 in 10
/// conditional), `composite` `and`/`seq` joins within 10 s, a two-step
/// DETECT chain and one absence rule — `atomic + composite + 2` rules.
fn mix_program(atomic: usize, composite: usize) -> String {
    let mut program = String::new();
    for i in 0..atomic {
        if i % 10 == 0 {
            program.push_str(&format!(
                "RULE a{i} ON order{{{{@route=\"r{i}\", n[[var N]], sku[[var S]]}}}} \
                 IF in \"{RESOURCE}\" item{{{{sku[[var S]]}}}} \
                 THEN SEND hit{{n[var N]}} TO \"http://sink/a\" ELSE NOOP END\n"
            ));
        } else {
            program.push_str(&format!(
                "RULE a{i} ON order{{{{@route=\"r{i}\", n[[var N]]}}}} DO NOOP END\n"
            ));
        }
    }
    for i in 0..composite {
        let op = if i % 2 == 0 { "and" } else { "seq" };
        program.push_str(&format!(
            "RULE c{i} ON {op}(pa{{{{@route=\"c{i}\", id[[var K]]}}}}, \
             pb{{{{@route=\"c{i}\", id[[var K]]}}}}) within 10s \
             DO SEND joined{{k[var K]}} TO \"http://sink/c\" END\n"
        ));
    }
    program.push_str(
        "DETECT hot{n[var N]} ON order{{@route=\"r1\", n[[var N]]}} END\n\
         DETECT hotter{n[var N]} ON hot{{n[[var N]]}} END\n\
         RULE on_hotter ON hotter{{n[[var N]]}} DO SEND alarm{n[var N]} TO \"http://sink/d\" END\n\
         RULE stale ON absence(pa{{@route=\"c0\", id[[var K]]}}, pb{{@route=\"c0\", id[[var K]]}}, 10s) \
         DO SEND stale{k[var K]} TO \"http://sink/s\" END\n",
    );
    program
}

/// `match-mix` in miniature under a 60/40 order/pair stream.
#[test]
fn match_mix_shaped_program() {
    let program = mix_program(40, 8);
    let event = |j: usize| match j % 5 {
        // Every `pa` is closed by its `pb` two events later on even
        // routes; odd routes never close and expire with the window.
        1 => pair("pa", (j / 5) % 8, j),
        3 if (j / 5) % 2 == 0 => pair("pb", (j / 5) % 8, j - 2),
        3 => pair("pb", (j / 5) % 8, j),
        _ => order(j, (j * 7) % 40),
    };
    let mut engine = engine_with(&program);
    let got = steady_allocs_per_event(&mut engine, event);
    // 6.97 (was 51).
    assert_budget("match-mix-shaped program", got, 10.0);

    // Observability off (the default handle) records nothing; switched
    // on, the same stream records at least one span per event.
    assert_eq!(
        engine.obs().recorder().recorded(),
        0,
        "the disabled observability path recorded spans"
    );
    let mut traced = engine_with(&program);
    traced.obs().enable();
    steady_allocs_per_event(&mut traced, event);
    let spans = traced.obs().recorder().recorded();
    assert!(
        spans >= (WARMUP + MEASURED) as u64,
        "enabled observability recorded {spans} spans over {} events",
        WARMUP + MEASURED
    );
}

/// Live heap bytes on this thread that `make` leaves allocated, with what
/// it returned (still alive, so counted).
fn live_bytes<T>(make: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = make();
    (out, LIVE.with(Cell::get) - before)
}

fn assert_resident(what: &str, got: i64, budget: i64) {
    eprintln!("resident budget: {what}: {got} B (budget {budget})");
    assert!(
        got <= budget,
        "{what}: {got} B exceeds the budget of {budget} B"
    );
}

/// Bytes an installed rule keeps, over a 1 000-rule `match-mix`-shaped
/// program: the rule's AST, its compiled event query, its share of the
/// alpha network and of the engine's per-rule tables. The symbols are
/// interned by a first install beforehand, so the process-wide symbol
/// table (which other tests on other threads also grow) is not counted.
#[test]
fn resident_bytes_per_installed_rule() {
    let program = mix_program(832, 166);
    drop(engine_with(&program));
    // A fresh symbol, resolved once, brings this thread's symbol snapshot
    // up to date, so the measured install resolves without refreshing it.
    let _ = reweb_term::Sym::new("resident_bytes_per_installed_rule").as_str();
    let mut engine = ReactiveEngine::new("http://svc");
    let ((), bytes) = live_bytes(|| engine.install_program(&program).expect("program installs"));
    assert_eq!(engine.rule_count(), 1_000);
    let per_rule = bytes / engine.rule_count() as i64;
    // 2 027 (was 4 119: a second copy of each rule's AST, its stored
    // registrations, and 80-byte alpha tests in 4-slot edge lists).
    assert_resident("live bytes per installed rule", per_rule, 2_100);
}

/// Bytes one `order{@route, n, sku}` event term keeps, built by
/// `TermBuilder` and decoded from its printed form.
#[test]
fn resident_bytes_of_one_order_term() {
    let text = order(7, 3).to_string();
    let (built, built_bytes) = live_bytes(|| order(7, 3));
    let (decoded, decoded_bytes) =
        live_bytes(|| reweb_term::decode(text.as_bytes()).expect("the printed term decodes"));
    assert_eq!(built, decoded);
    // 442 each (was 754: a B-tree leaf for the one attribute).
    assert_resident(
        "live bytes of an order term (TermBuilder)",
        built_bytes,
        450,
    );
    assert_resident("live bytes of an order term (decode)", decoded_bytes, 450);
}
