//! Fixed-bucket log-scale latency histograms.
//!
//! Values (nanoseconds, but the scale is unit-agnostic) land in one of
//! [`BUCKETS`] power-of-two buckets: bucket 0 holds exactly 0, bucket
//! `b > 0` holds `[2^(b-1), 2^b)`. The layout is fixed so snapshots from
//! different shards, nodes, or runs merge by plain bucket-wise addition —
//! the histogram analogue of `EngineMetrics::merge` — and quantiles are
//! answered from the merged counts without ever storing samples.

use std::sync::atomic::{AtomicU64, Ordering};

use reweb_term::Term;

/// Number of buckets. 64 covers the full `u64` range at one bucket per
/// power of two, so recording can never overflow the scale.
pub const BUCKETS: usize = 64;

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`, clamped
/// to the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper edge of a bucket — the value quantiles report, so the
/// estimate errs high (a conservative latency bound), never low.
#[inline]
pub fn bucket_ceil(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A plain (single-threaded) histogram snapshot: mergeable, printable,
/// and round-trippable through the textual term syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded value (exact, not bucketed). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-wise sum — merging shard or node snapshots loses nothing
    /// because every histogram shares the one fixed bucket layout.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket holding the `ceil(q * count)`-th smallest sample (the exact
    /// `max` for the last occupied bucket). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Within the topmost occupied bucket the tracked max is a
                // tighter bound than the bucket edge.
                return bucket_ceil(b).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    /// Shorthand for the 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }
    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Print as a term: `hist{n[...], max[...], b{i[...], c[...]}…}` with
    /// one `b` child per non-empty bucket. The term syntax is the
    /// wire/WAL lingua franca, so snapshots travel in `stats` replies and
    /// journal records unchanged.
    pub fn to_term(&self) -> Term {
        let mut b = Term::build("hist")
            .unordered()
            .field("n", self.count.to_string())
            .field("max", self.max.to_string());
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                b = b.child(
                    Term::build("b")
                        .unordered()
                        .field("i", i.to_string())
                        .field("c", c.to_string())
                        .finish(),
                );
            }
        }
        b.finish()
    }

    /// Parse a term printed by [`Histogram::to_term`]. Returns `None` on
    /// shape mismatch (wrong label, missing fields, bucket out of range).
    pub fn from_term(t: &Term) -> Option<Histogram> {
        if t.label() != Some("hist") {
            return None;
        }
        let mut h = Histogram::new();
        h.count = field_u64(t, "n")?;
        h.max = field_u64(t, "max")?;
        for c in t.children() {
            if c.label() == Some("b") {
                let i = field_u64(c, "i")? as usize;
                let n = field_u64(c, "c")?;
                if i >= BUCKETS {
                    return None;
                }
                h.counts[i] = n;
            }
        }
        Some(h)
    }
}

/// Read the `u64` text content of the child labelled `name`.
pub(crate) fn field_u64(t: &Term, name: &str) -> Option<u64> {
    t.field(name).and_then(|c| c.text_content().parse().ok())
}

/// A thread-safe histogram: one relaxed `fetch_add` per record, no
/// locks, so shards and network threads share one instance and the
/// "merge" across shards is the data structure itself. `snapshot()`
/// produces a plain [`Histogram`] for quantiles and printing.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (relaxed; counts are statistics, not
    /// synchronization).
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy into a plain [`Histogram`]. Concurrent recorders may land
    /// between bucket reads; each sample is still counted exactly once
    /// in some snapshot at or after its record.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (i, c) in self.counts.iter().enumerate() {
            h.counts[i] = c.load(Ordering::Relaxed);
        }
        h.count = h.counts.iter().sum();
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value's bucket ceiling bounds it from above.
        for v in [0u64, 1, 7, 100, 4096, 1 << 40] {
            assert!(bucket_ceil(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn quantiles_err_high_never_low() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; the bucket holding it spans 512..1023,
        // but rank 500 lands in bucket [256, 511] → ceiling 511.
        assert!(h.p50() >= 500);
        assert!(h.p99() >= 990);
        assert!(h.p99() <= h.max());
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3u64, 70, 900] {
            a.record(v);
        }
        for v in [5u64, 1_000_000] {
            b.record(v);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 5);
        assert_eq!(m.max(), 1_000_000);
        // Merging in the other order gives the identical histogram.
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m, m2);
    }

    #[test]
    fn term_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 42, 65_536, u64::MAX] {
            h.record(v);
        }
        let t = h.to_term();
        let back = Histogram::from_term(&t).expect("round trip");
        assert_eq!(h, back);
        // And through the printed text, the wire representation.
        let printed = t.to_string();
        let reparsed = reweb_term::parse_term(&printed).expect("parses");
        assert_eq!(Histogram::from_term(&reparsed).expect("round trip"), h);
    }

    #[test]
    fn from_term_rejects_garbage() {
        let t = reweb_term::parse_term("nothist{n[\"1\"]}").unwrap();
        assert!(Histogram::from_term(&t).is_none());
        let t = reweb_term::parse_term("hist{n[\"1\"]}").unwrap();
        assert!(Histogram::from_term(&t).is_none(), "missing max");
        let t =
            reweb_term::parse_term("hist{n[\"1\"], max[\"1\"], b{i[\"99\"], c[\"1\"]}}").unwrap();
        assert!(Histogram::from_term(&t).is_none(), "bucket out of range");
    }

    #[test]
    fn atomic_histogram_snapshots_match_serial_recording() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 500, 100_000] {
            ah.record(v);
            h.record(v);
        }
        assert_eq!(ah.snapshot(), h);
    }

    #[test]
    fn atomic_histogram_is_shared_across_threads() {
        use std::sync::Arc;
        let ah = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let ah = Arc::clone(&ah);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ah.record(k * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = ah.snapshot();
        assert_eq!(s.count(), 4000);
        assert_eq!(s.max(), 3999);
    }
}
