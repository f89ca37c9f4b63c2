//! Seeded input generators. The program under test only ever sees what
//! these produce; the same seed gives the same bytes.
//!
//! (`paired_stream`/`sharded_rules` for the durable workloads are reused
//! from `reweb_bench`, where the E13–E15 experiments already define them.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use reweb_core::{InMessage, MessageMeta};
use reweb_net::Request;
use reweb_term::{Term, Timestamp};

/// Zipf(1.0) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative weights of `n` ranks.
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf over an empty rank set");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

// ----- wire-blast / wire-ping --------------------------------------------

/// The wire workloads' rule base: one echo rule on a 16-label cycle, so
/// `e0` events (1 in 16 on `wire-blast`, all on `wire-ping`) produce a
/// reaction and everything else costs only ingress.
pub const WIRE_PROGRAM: &str =
    r#"RULE echo ON e0{{n[[var N]]}} DO SEND seen{n[var N]} TO "http://sink/0" END"#;

/// One connection's share of a wire workload: the events (for the
/// reference run) and the same events pre-encoded as `event` request
/// frames, so the timed phase spends no generator CPU on encoding.
pub struct WireStream {
    /// `(payload, at)` in send order.
    pub events: Vec<(Term, Timestamp)>,
    /// `events[i]` as a complete request frame with correlation id `i + 1`.
    pub frames: Vec<Vec<u8>>,
}

/// `n` events `e{k}{n["<g>"]}` for one connection: `k` uniform in
/// `0..labels` from the seed, `g` unique across connections.
pub fn wire_stream(conn: usize, n: usize, labels: usize, seed: u64) -> WireStream {
    let mut rng = StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut events = Vec::with_capacity(n);
    let mut frames = Vec::with_capacity(n);
    for j in 0..n {
        let k = rng.gen_range(0..labels);
        let g = conn * n + j;
        let payload = Term::build(format!("e{k}"))
            .unordered()
            .field("n", g.to_string())
            .finish();
        let at = Timestamp(g as u64 + 1);
        frames.push(
            Request::Event {
                // May coincide with an id `NetClient::sync` picks; harmless,
                // since a `reaction` and a `done` are told apart by kind.
                id: j as u64 + 1,
                at: Some(at),
                from: None,
                credentials: None,
                payload: payload.clone(),
            }
            .encode(),
        );
        events.push((payload, at));
    }
    WireStream { events, frames }
}

// ----- match-mix ----------------------------------------------------------

/// Sizes of the `match-mix` rule base and stream.
#[derive(Clone, Copy, Debug)]
pub struct MixShape {
    /// Attr-routed atomic rules (`order{{@route="r<i>"}}`).
    pub atomic_rules: usize,
    /// `and`/`seq` composite rules (`pa`/`pb` joined on `id`, `within 10s`).
    pub composite_rules: usize,
    /// Events in the stream.
    pub events: usize,
}

/// Resource the conditional atomic rules query.
pub const MIX_RESOURCE: &str = "http://svc/stock";
/// `sku` values in [`MIX_RESOURCE`]; events carry one of twice as many,
/// so the condition holds for about half of them.
pub const MIX_SKUS: usize = 16;

/// The document behind [`MIX_RESOURCE`].
pub fn mix_resource() -> Term {
    Term::build("stock")
        .unordered()
        .children((0..MIX_SKUS).map(|k| {
            Term::build("item")
                .unordered()
                .field("sku", format!("s{k}"))
                .finish()
        }))
        .finish()
}

/// The `match-mix` rule program: `atomic_rules` attr-routed atomic rules
/// (1 in 10 with an `IF in` condition and a `SEND`), `composite_rules`
/// windowed joins keyed on `var K` (`and` for even, `seq` for odd), a
/// two-step `DETECT` chain off the hottest route, and one `absence` rule.
pub fn mix_program(shape: MixShape) -> String {
    let mut src = String::new();
    for i in 0..shape.atomic_rules {
        if i % 10 == 0 {
            src.push_str(&format!(
                "RULE a{i} ON order{{{{@route=\"r{i}\", n[[var N]], sku[[var S]]}}}} \
                 IF in \"{MIX_RESOURCE}\" item{{{{sku[[var S]]}}}} \
                 THEN SEND hit{{n[var N]}} TO \"http://sink/a\" ELSE NOOP END\n"
            ));
        } else {
            src.push_str(&format!(
                "RULE a{i} ON order{{{{@route=\"r{i}\", n[[var N]]}}}} DO NOOP END\n"
            ));
        }
    }
    for i in 0..shape.composite_rules {
        let op = if i % 2 == 0 { "and" } else { "seq" };
        src.push_str(&format!(
            "RULE c{i} ON {op}(pa{{{{@route=\"c{i}\", id[[var K]]}}}}, \
             pb{{{{@route=\"c{i}\", id[[var K]]}}}}) within 10s \
             DO SEND joined{{k[var K]}} TO \"http://sink/c\" END\n"
        ));
    }
    src.push_str(
        "DETECT hot{n[var N]} ON order{{@route=\"r1\", n[[var N]]}} END\n\
         DETECT hotter{n[var N]} ON hot{{n[[var N]]}} END\n\
         RULE on_hotter ON hotter{{n[[var N]]}} DO SEND alarm{n[var N]} TO \"http://sink/d\" END\n\
         RULE stale ON absence(pa{{@route=\"c0\", id[[var K]]}}, pb{{@route=\"c0\", id[[var K]]}}, 10s) \
         DO SEND stale{k[var K]} TO \"http://sink/s\" END\n",
    );
    src
}

/// The `match-mix` stream: 60% `order` events routed Zipf(1.0) over the
/// atomic rules, 40% composite events routed Zipf(1.0) over the composite
/// rules — each a `pa` opening a pair or the `pb` closing one opened up
/// to 2000 events earlier; half of the pairs are never closed and expire
/// with the 10 s window. Timestamps advance 1–3 ms per event, so a window
/// spans ~5000 events and join state plateaus.
pub fn mix_stream(shape: MixShape, seed: u64) -> Vec<InMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let atomic = Zipf::new(shape.atomic_rules);
    let composite = Zipf::new(shape.composite_rules);
    let meta = MessageMeta::from_uri("http://client");
    // (due position, route, pair id) of every `pb` still to be emitted.
    let mut closing: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
    let mut t = 0u64;
    let mut out = Vec::with_capacity(shape.events);
    for j in 0..shape.events {
        t += rng.gen_range(1..=3u64);
        let payload = if rng.gen_range(0..10) < 6 {
            Term::build("order")
                .unordered()
                .attr("route", format!("r{}", atomic.sample(&mut rng)))
                .field("n", j.to_string())
                .field("sku", format!("s{}", rng.gen_range(0..2 * MIX_SKUS)))
                .finish()
        } else if closing.peek().is_some_and(|Reverse((due, _, _))| *due <= j) {
            let Reverse((_, route, pair)) = closing.pop().expect("peeked");
            pair_event("pb", route, pair)
        } else {
            let route = composite.sample(&mut rng);
            if rng.gen_bool(0.5) {
                closing.push(Reverse((j + rng.gen_range(1..=2000usize), route, j)));
            }
            pair_event("pa", route, j)
        };
        out.push(InMessage::new(payload, meta.clone(), Timestamp(t)));
    }
    out
}

fn pair_event(label: &str, route: usize, pair: usize) -> Term {
    Term::build(label)
        .unordered()
        .attr("route", format!("c{route}"))
        .field("id", pair.to_string())
        .finish()
}

// ----- push-deliver -------------------------------------------------------

/// The `push-deliver` sender program: one forwarding rule per destination,
/// each `SEND`ing to its own URI under the receiver's prefix, so the
/// delivery agent runs one FIFO worker per destination.
pub fn push_sender_program(destinations: usize) -> String {
    (0..destinations)
        .map(|k| {
            format!(
                "RULE fwd{k} ON ev{k}{{{{n[[var N]]}}}} \
                 DO SEND note{{n[var N]}} TO \"http://b/in{k}\" END\n"
            )
        })
        .collect()
}

/// The receiver's consuming rule.
pub const PUSH_RECEIVER_PROGRAM: &str = "RULE got ON note{{n[[var N]]}} DO NOOP END";

/// `n` sender-side events, destination drawn uniformly from the seed.
pub fn push_stream(n: usize, destinations: usize, seed: u64) -> Vec<InMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let meta = MessageMeta::from_uri("http://client");
    (0..n)
        .map(|j| {
            let k = rng.gen_range(0..destinations);
            let payload = Term::build(format!("ev{k}"))
                .unordered()
                .field("n", format!("{j}-{}", rng.gen_range(0..1_000_000u32)))
                .finish();
            InMessage::new(payload, meta.clone(), Timestamp(j as u64 + 1))
        })
        .collect()
}

/// `paired_stream` as engine input messages (the durable workloads).
pub fn paired_messages(labels: usize, n: usize, seed: u64) -> Vec<InMessage> {
    let meta = MessageMeta::from_uri("http://client");
    reweb_bench::paired_stream(labels, n, seed)
        .into_iter()
        .map(|(at, payload)| InMessage::new(payload, meta.clone(), at))
        .collect()
}
