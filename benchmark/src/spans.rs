//! Benchmark-side spans: one per call the benchmark makes into a layer.
//!
//! Recorded from outside the program (the change that defines a
//! benchmark may not instrument the program itself), kept in memory, and
//! written to `benchmark/out/trace-<workload>.json` when the traced run
//! ends. Spans of one request (a batch, a sync window, a delivery) share
//! an `id`; `parent` is the index of the span that caused this one.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request identifier shared by every span of one batch.
    pub id: u64,
    /// Index (in the written file) of the causing span; `None` at a root.
    pub parent: Option<usize>,
    /// `<layer>.<call>`, e.g. `core.receive_batch_tagged`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Count, total and self time of every span that shares a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover.
    pub self_ns: u64,
}

/// An in-memory span recorder; a disabled one records nothing.
#[derive(Clone, Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder measuring from `epoch`; with `on == false` every call
    /// is a no-op, which is how untraced rounds run the same code.
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run (same epoch and
    /// on/off state); fold it back with [`Spans::merge`].
    pub fn fork(&self) -> Spans {
        Spans::new(self.on, self.epoch)
    }

    /// Is this recorder recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; pass the returned handle to [`Spans::close`] (and as
    /// `parent` of the spans it causes).
    pub fn open(&mut self, id: u64, parent: Option<usize>, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// End a span started with [`Spans::open`].
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record `body` as one span.
    pub fn span<T>(
        &mut self,
        id: u64,
        parent: Option<usize>,
        name: &'static str,
        body: impl FnOnce() -> T,
    ) -> T {
        let h = self.open(id, parent, name);
        let v = body();
        self.close(h);
        v
    }

    /// Append another thread's spans, re-basing their parent indices;
    /// their roots become children of `under`.
    pub fn merge(&mut self, other: Spans, under: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under);
            s
        }));
    }

    /// Per-name totals with self times: a span's self time is its
    /// duration minus the part its child spans cover. Children of one
    /// thread run one after another, so their durations add; children on
    /// parallel threads (connections under a round) can add up to more
    /// than the parent, whose self time then floors at 0.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON array of
    /// `{span, id, parent, name, start_ns, end_ns}` objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"span\":{i},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
