//! Thesis 4 regression wall, beta-network edition: on a *windowed*
//! composite stream, both the retained join state and the per-event index
//! work must stay **bounded as the history grows**. A regression that
//! makes the index retain answers past their window (or probe buckets it
//! should have pruned by range) turns the engine back into the "shadow
//! Web" the paper warns about — this test fails loudly on either.
//!
//! Method: feed a long steady-state stream (constant event rate, cycling
//! join keys) through windowed `and`/`seq` composites, sample
//! `state_size` after every event, and compare the per-event
//! `index_probes` and `join_attempts` of the first quarter of the run to
//! the last quarter. Bounded state + a flat probe rate are exactly the
//! indexed-join claim; the naive engine's history over the same stream
//! grows linearly, which is the contrast pinned here. A second stream
//! with a window that never expires is the occupancy axis: the store
//! grows, indexed join work stays flat, and the scan join's does not.

use reweb_events::{parse_event_query, Event, EventId, IncrementalEngine, JoinMode, NaiveEngine};
use reweb_term::{Term, Timestamp};

const EVENTS: usize = 2_400;
const STEP_MS: u64 = 1_000;

fn payload(k: usize) -> Term {
    let label = match k % 3 {
        0 => "a",
        1 => "b",
        _ => "c",
    };
    Term::unordered(
        label,
        vec![Term::ordered("v", vec![Term::int((k % 8) as i64)])],
    )
}

/// One `a`/`b` pair per key: event `2j` is `a`, event `2j + 1` the `b`
/// that closes it, both keyed `j`. No key repeats, so every join has
/// exactly one true partner however many pairs the store holds.
fn pair_payload(k: usize) -> Term {
    let label = if k % 2 == 0 { "a" } else { "b" };
    Term::unordered(
        label,
        vec![Term::ordered("v", vec![Term::int((k / 2) as i64)])],
    )
}

/// Drive the steady-state stream `payload(k)`; returns (max state_size,
/// probes and attempts split into first-quarter and last-quarter
/// buckets).
fn run(query: &str, mode: JoinMode, payload: fn(usize) -> Term) -> (usize, [u64; 2], [u64; 2]) {
    let q = parse_event_query(query).unwrap();
    let mut eng = IncrementalEngine::new(&q).with_join_mode(mode);
    let mut max_state = 0usize;
    let quarter = EVENTS / 4;
    let mut probes = [0u64; 2];
    let mut attempts = [0u64; 2];
    for k in 0..EVENTS {
        let (p0, a0) = (eng.stats.index_probes, eng.stats.join_attempts);
        let at = Timestamp(1_000 + k as u64 * STEP_MS);
        eng.push(&Event::new(EventId(k as u64 + 1), at, payload(k)));
        max_state = max_state.max(eng.state_size());
        let bucket = if k < quarter {
            Some(0)
        } else if k >= EVENTS - quarter {
            Some(1)
        } else {
            None
        };
        if let Some(b) = bucket {
            probes[b] += eng.stats.index_probes - p0;
            attempts[b] += eng.stats.join_attempts - a0;
        }
    }
    (max_state, probes, attempts)
}

#[test]
fn windowed_composite_state_and_probe_rate_stay_bounded() {
    for query in [
        "and(a{{v[[var X]]}}, b{{v[[var X]]}}, c{{v[[var X]]}}) within 20s",
        "seq(a{{v[[var X]]}}, b{{v[[var X]]}}, c{{v[[var X]]}}) within 20s",
        "and(seq(a{{v[[var X]]}}, b{{v[[var X]]}}) within 10s, c{{v[[var X]]}}) within 30s",
    ] {
        let (max_state, probes, attempts) = run(query, JoinMode::Indexed, payload);

        // Bounded state: the 30s-or-less windows hold at most ~30 events'
        // worth of partial matches at this rate; 200 is a generous roof
        // that a window-GC leak blows through within a few hundred events
        // (an unbounded store would reach ~EVENTS here).
        assert!(
            max_state < 200,
            "state_size reached {max_state} on {query} — window GC is leaking"
        );

        // Flat work rate: the last quarter of a steady-state run must not
        // probe (or examine) meaningfully more than the first quarter.
        // Under a history-proportional regression the tail quarter does
        // ~4x the head quarter's work.
        assert!(probes[0] > 0, "no index probes recorded on {query}");
        assert!(
            probes[1] <= probes[0] + probes[0] / 2,
            "probes/event grew with history on {query}: head {} vs tail {}",
            probes[0],
            probes[1]
        );
        assert!(
            attempts[1] <= attempts[0] + attempts[0] / 2,
            "join attempts grew with history on {query}: head {} vs tail {}",
            attempts[0],
            attempts[1]
        );
    }
}

/// The occupancy axis: a two-way `and` whose window outlives the whole
/// [`pair_payload`] stream keeps every partial match, so the store only
/// grows. Indexed joins examine the matching bucket only, and their
/// tail-quarter work stays at the head quarter's; the scan join examines
/// every stored sibling, and its tail quarter does at least twice the
/// head's work without a single index probe.
#[test]
fn indexed_join_work_is_flat_in_occupancy_and_scan_is_not() {
    let query = "and(a{{v[[var X]]}}, b{{v[[var X]]}}) within 10h";

    let (_, probes, attempts) = run(query, JoinMode::Indexed, pair_payload);
    assert!(attempts[0] > 0, "no join attempts recorded under Indexed");
    assert!(
        attempts[1] <= attempts[0] + attempts[0] / 2,
        "indexed join attempts grew with occupancy: head {} vs tail {}",
        attempts[0],
        attempts[1]
    );
    assert!(probes[0] > 0, "no index probes recorded under Indexed");

    let (_, probes, attempts) = run(query, JoinMode::Scan, pair_payload);
    assert_eq!(probes, [0, 0], "the scan join never probes an index");
    assert!(
        attempts[1] >= 2 * attempts[0],
        "scan join attempts did not grow with occupancy: head {} vs tail {}",
        attempts[0],
        attempts[1]
    );
}

/// The contrast the bound is measured against: the naive engine's history
/// over the same stream grows linearly (its per-event cost with it).
#[test]
fn naive_history_grows_linearly_on_the_same_stream() {
    let q = parse_event_query("and(a{{v[[var X]]}}, b{{v[[var X]]}}) within 20s").unwrap();
    let mut naive = NaiveEngine::new(&q);
    for k in 0..500usize {
        let at = Timestamp(1_000 + k as u64 * STEP_MS);
        naive.push(&Event::new(EventId(k as u64 + 1), at, payload(k)));
    }
    assert_eq!(naive.history_len(), 500);
}
