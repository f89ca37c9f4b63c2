//! Allocation budgets of the data-term codec under the log and the wire.
//!
//! This binary installs a counting `#[global_allocator]` (as
//! `reweb_core`'s `alloc_budget.rs` does) and counts the heap
//! allocations of the three codec calls on the hot paths: reading a
//! 64-message WAL batch (`Record::from_bytes`, per message), writing it
//! (`Record::to_bytes`, per batch), and decoding one wire `event` frame
//! (`Request::decode`). Counts repeat exactly, so each budget is the
//! count the tree measured when it was set; it only ever tightens. The
//! count before the one-pass decoder and the record writer is in
//! parentheses.
//!
//! The counter is thread-local: the scenarios run on libtest's parallel
//! threads without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use reweb_core::{InMessage, MessageMeta};
use reweb_net::wire::Request;
use reweb_persist::Record;
use reweb_term::{Term, Timestamp};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Messages per batch record, as `durable-ingest` commits them.
const BATCH: usize = 64;

/// Allocations made by `f`, after one warm-up call (which interns the
/// labels and fills the per-thread symbol snapshot).
fn allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(std::hint::black_box(out));
    after - before
}

/// The paired `evt`/`ack` stream the durable workloads log.
fn batch() -> Record {
    let meta = MessageMeta::from_uri("http://client");
    Record::Batch(
        (0..BATCH)
            .map(|j| {
                let label = if j % 2 == 0 { "evt" } else { "ack" };
                let payload = Term::build(format!("{label}{}", j / 2 % 128))
                    .unordered()
                    .field("n", (j - j % 2).to_string())
                    .finish();
                InMessage::new(payload, meta.clone(), Timestamp(20 * j as u64 + 1))
            })
            .collect(),
    )
}

fn assert_budget(what: &str, got: f64, budget: f64) {
    eprintln!("alloc budget: {what}: {got:.2} allocations (budget {budget})");
    assert!(
        got <= budget,
        "{what}: {got:.2} allocations exceeds the budget of {budget}"
    );
}

#[test]
fn record_from_bytes_per_message() {
    let bytes = batch().to_bytes();
    let got = allocs(|| Record::from_bytes(&bytes).expect("record decodes"));
    // 650 / 64 = 10.16. Per message: the `m`, `at`, `from`, `payload`,
    // event and `n` elements, three text leaves and the `from` string;
    // per batch, the `w_batch` element, its spilled child list and the
    // message vector growing to 64 (was 2 458 / 64 = 38.41).
    assert_budget(
        "Record::from_bytes, per message of a 64-message batch",
        got as f64 / BATCH as f64,
        650.0 / BATCH as f64,
    );
}

#[test]
fn record_to_bytes_per_batch() {
    let record = batch();
    let got = allocs(|| record.to_bytes());
    // The one pre-sized buffer (was 780).
    assert_budget("Record::to_bytes, per 64-message batch", got as f64, 1.0);
}

#[test]
fn request_decode_one_event_frame() {
    let event = Request::Event {
        id: 41,
        at: Some(Timestamp(1_000)),
        from: None,
        credentials: None,
        payload: Term::build("evt7").unordered().field("n", "14").finish(),
    };
    let payload = event.to_term().to_string().into_bytes();
    let got = allocs(|| Request::decode(&payload).expect("event decodes"));
    // The envelope, `id`, `at` and `payload` elements, the event and
    // its `n`, three text leaves (was 44).
    assert_budget("Request::decode, one event frame", got as f64, 9.0);
}
