//! Shared workload generators and table plumbing for the experiments
//! E1…E12, one per thesis (see `DESIGN.md` §3).
//!
//! The paper is a position paper with no tables or figures of its own, so
//! every experiment here regenerates a table supporting one thesis's
//! quantifiable claim. The `experiments` binary prints them all; the
//! `benchmark/` workspace reuses the paired generators below.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reweb_term::{parse_term, Term, Timestamp};

pub mod experiments;
pub mod negotiation;

/// A printable experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: &'static str,
    pub thesis: &'static str,
    pub title: String,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
    pub note: String,
}

impl Table {
    pub fn new(
        id: &'static str,
        thesis: &'static str,
        title: impl Into<String>,
        columns: Vec<&'static str>,
    ) -> Table {
        Table {
            id,
            thesis,
            title: title.into(),
            columns,
            rows: Vec::new(),
            note: String::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }

    /// Render as a Markdown table block.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### {} ({}) — {}\n\n",
            self.id, self.thesis, self.title
        ));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n{}\n", self.note));
        }
        out
    }
}

/// Format a float cell compactly.
pub fn f(x: f64) -> String {
    if x >= 1000.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

// ----- workload generators ------------------------------------------------

/// A customers document with `n` entries (`c0` … `c{n-1}`).
pub fn customers_doc(n: usize) -> Term {
    let mut src = String::from("customers[");
    for i in 0..n {
        if i > 0 {
            src.push(',');
        }
        src.push_str(&format!(
            "customer{{id[\"c{i}\"], name[\"cust{i}\"], rating[\"{}\"]}}",
            i % 5 + 1
        ));
    }
    src.push(']');
    parse_term(&src).expect("generated customers parse")
}

/// A news document with `n` articles carrying their last-update time in
/// the title (so observers can compute reaction latency from content).
pub fn news_doc(n: usize, stamp: u64) -> Term {
    let mut src = String::from("news[");
    for i in 0..n {
        if i > 0 {
            src.push(',');
        }
        src.push_str(&format!("article{{@id=\"a{i}\", title[\"{stamp}\"]}}"));
    }
    src.push(']');
    parse_term(&src).expect("generated news parse")
}

/// An order event payload.
pub fn order_payload(id: usize, total: u64) -> Term {
    parse_term(&format!("order{{id[\"o{id}\"], total[\"{total}\"]}}")).expect("order parse")
}

/// A payment event payload.
pub fn payment_payload(id: usize, amount: u64) -> Term {
    parse_term(&format!(
        "payment{{order[\"o{id}\"], amount[\"{amount}\"]}}"
    ))
    .expect("payment parse")
}

/// A stock-tick payload.
pub fn stock_payload(sym: &str, price: f64) -> Term {
    parse_term(&format!("stock{{sym[\"{sym}\"], price[\"{price}\"]}}")).expect("stock parse")
}

/// An event stream for the incremental-vs-naive comparison: mostly noise
/// (`c`), with an `order`/`payment` pair every `pair_every` events.
pub fn mixed_stream(len: usize, pair_every: usize, seed: u64) -> Vec<(Timestamp, Term)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut t = 0u64;
    for i in 0..len {
        t += rng.gen_range(50..150);
        let payload = if pair_every > 0 && i % pair_every == 0 {
            order_payload(i, 100)
        } else if pair_every > 0 && i % pair_every == pair_every / 2 {
            payment_payload(i - pair_every / 2, 100)
        } else {
            Term::unordered("c", vec![Term::ordered("v", vec![Term::int(i as i64)])])
        };
        out.push((Timestamp(t), payload));
    }
    out
}

/// A rule program with `n_labels` independent composite rules, one per
/// evt/ack label pair — the partitionable program the `durable-ingest`
/// and `durable-recover` benchmark workloads run. Every rule is a windowed
/// join, so the per-event timer-advance cost is proportional to how many rules one
/// engine hosts; label affinity splits them evenly across shards.
pub fn sharded_rules(n_labels: usize) -> String {
    let mut src = String::new();
    for i in 0..n_labels {
        src.push_str(&format!(
            "RULE pair{i} ON and(evt{i}{{{{n[[var N]]}}}}, ack{i}{{{{n[[var N]]}}}}) within 1m \
             DO SEND done{i}{{n[var N]}} TO \"http://sink\" END\n"
        ));
    }
    src
}

/// The matching event stream: adjacent evt/ack pairs cycling round-robin
/// over `n_labels` label pairs, with seeded timestamp jitter. Every pair
/// completes its join, so reactions = `len / 2` regardless of sharding.
pub fn paired_stream(n_labels: usize, len: usize, seed: u64) -> Vec<(Timestamp, Term)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut t = 0u64;
    for j in 0..len {
        t += rng.gen_range(10..50);
        let i = (j / 2) % n_labels;
        let payload = if j % 2 == 0 {
            parse_term(&format!("evt{i}{{n[\"{j}\"]}}")).expect("evt parse")
        } else {
            parse_term(&format!("ack{i}{{n[\"{}\"]}}", j - 1)).expect("ack parse")
        };
        out.push((Timestamp(t), payload));
    }
    out
}

/// Wall-clock helper: run `body` and return elapsed seconds.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let v = body();
    (v, start.elapsed().as_secs_f64())
}
