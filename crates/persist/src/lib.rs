//! # reweb-persist — durable engines: write-ahead log, snapshots, crash recovery
//!
//! Every engine in the lower layers is in-memory: kill the process and
//! rules, resource stores, and in-flight composite-event state vanish.
//! This crate makes a [`reweb_core::ReactiveEngine`] recoverable by
//! stepping it through a [`Journal`]: the journal logs each input and
//! then applies it to the engine, and on open it replays the log into
//! the engine in place. [`DurableEngine`] pairs the engine with an
//! optional journal; it is the one type hosts serve, journalled or not.
//!
//! * **Write-ahead log.** Every input — `install_program`,
//!   `receive`/`receive_batch` payloads, `advance_time`, `put_resource`
//!   — is appended to `wal.log` as a length- and CRC32-framed record
//!   *before* it is processed ([`wal::Record`]). Records use the
//!   existing textual term syntax, so interned symbols serialize as
//!   strings and re-intern on load: logs are portable across processes.
//! * **Snapshots.** Periodically (or on demand) the durable state —
//!   reprinted rule programs (the install journal), the resource store,
//!   metrics, and action log — is written to
//!   `snapshot.bin` together with a log offset ([`snapshot::Snapshot`]).
//! * **Recovery.** [`Journal::open`] rebuilds the engine: load the
//!   snapshot (if any), then replay the log suffix. A torn or corrupt
//!   final record — the expected residue of a crash mid-write — is
//!   discarded and the file truncated back to the last valid boundary,
//!   never a panic.
//!
//! ## Why a snapshot plus a *warmup* suffix is exact
//!
//! A snapshot at log offset `S` captures rules, stores, metrics, and
//! logs — but not the incremental evaluator's partial matches (windowed
//! joins, pending absences). Those are rebuilt by replay, and the
//! engine's retention bounds make the replay *bounded*: by
//! [`reweb_core::ReactiveEngine::replay_horizon`] (which folds
//! `reweb_events::EventQuery::replay_horizon` over the installed
//! rules), no event older than `clock − B` can still influence a future
//! answer, where `B` is that conservative horizon. So the snapshot also
//! records the offset `H` of the first log record within that horizon,
//! plus the engine's [`reweb_core::ReplayMark`] (clock and event-id
//! counters) as of `H`. Recovery then:
//!
//! 1. replays the **install journal** (all rule programs installed
//!    before `H`, static text or original `install_rules` messages, in
//!    order);
//! 2. restores the replay mark and the resource store (state as of
//!    `S`);
//! 3. replays `[H, S)` in **warmup mode**
//!    ([`reweb_core::ReactiveEngine::set_replay_warmup`]): events flow
//!    through admission, deduction, and event-query state, re-stamped
//!    with their original event ids — but nothing fires, because every
//!    effect of those records (store writes, outputs, metrics) is
//!    already inside the snapshot;
//! 4. flushes deadlines already due, restores metrics/action logs as of
//!    `S`, and
//! 5. replays `[S, …)` with full effects, discarding the outputs (they
//!    were returned to the caller before the crash).
//!
//! After step 5 the engine state is byte-for-byte what an uninterrupted
//! run would hold — pinned by the crash-matrix property test
//! (`tests/crash_matrix.rs`), which kills runs at every record boundary
//! *and* at random byte offsets inside the torn tail. Rules with unbounded retention (window-less
//! joins without a TTL, `agg` buffers) make the horizon unbounded; the
//! snapshot then still restores stores and skips re-executing actions,
//! but the warmup suffix degenerates to the whole log.
//!
//! Not snapshotted (node-local observability, no effect on outputs):
//! AAA accounting records and usage counters — after a snapshot recovery they cover
//! only the replayed suffix. Genesis recovery (no snapshot) rebuilds
//! them exactly.
//!
//! ## Fsync policy
//!
//! [`SyncPolicy::Always`] (default) fsyncs after every appended record:
//! one fsync per `receive_batch` call, which is what makes batching the
//! throughput lever — the `durable-ingest` benchmark workload measures
//! 64-message batches amortizing their single fsync. [`SyncPolicy::Os`]
//! leaves flushing to the OS page cache: recovery is still *consistent*
//! (the framed log heals at the last durable boundary) but the tail may be
//! lost with the machine, not just the process.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use reweb_core::{EngineMetrics, InMessage, MessageMeta, OutMessage, ReactiveEngine, ReplayMark};
use reweb_obs::{Obs, Stage};
use reweb_term::{Term, TermError, Timestamp};

pub mod log;
pub mod outbox;
pub mod snapshot;
pub mod wal;

pub use outbox::{Outbox, OutboxOpen, PendingDelivery, Settle};
pub use snapshot::{JournalEntry, Snapshot};
pub use wal::Record;

use snapshot::ShardState;

/// Errors of the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// An engine- or parse-level failure (rule programs, terms).
    Term(TermError),
    /// Log or snapshot contents that cannot be trusted: bad schema,
    /// unknown records, a snapshot pointing past the end of the log.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O error: {e}"),
            PersistError::Term(e) => write!(f, "persist engine error: {e}"),
            PersistError::Corrupt(m) => write!(f, "persist corruption: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<TermError> for PersistError {
    fn from(e: TermError) -> Self {
        PersistError::Term(e)
    }
}

/// For callers whose error surface is I/O (the delivery agent).
impl From<PersistError> for std::io::Error {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => e,
            e => std::io::Error::other(e.to_string()),
        }
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PersistError>;

/// When the log is flushed to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record (one fsync per
    /// `receive`/`receive_batch`/`install`/`advance` call). Batch your
    /// ingestion to amortize it (`recovery_edges` pins one fsync per
    /// batch).
    #[default]
    Always,
    /// Never fsync; the OS flushes when it pleases. Consistent but not
    /// durable against machine (as opposed to process) crashes.
    Os,
}

/// Configuration of a [`Journal`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Fsync policy (default: [`SyncPolicy::Always`]).
    pub sync: SyncPolicy,
    /// Write a snapshot automatically every this many records (`None` =
    /// only on explicit [`DurableEngine::snapshot_now`] calls).
    pub snapshot_every: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        }
    }
}

/// What [`Journal::open`] did to bring the engine back.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// True when an existing log was found and replayed.
    pub recovered: bool,
    /// True when a snapshot bounded the replay.
    pub used_snapshot: bool,
    /// Bytes discarded from a torn or corrupt log tail.
    pub torn_bytes: u64,
    /// Records replayed in warmup mode (state only, no effects).
    pub warm_records: u64,
    /// Records replayed with full effects.
    pub replayed_records: u64,
    /// Install-journal entries replayed from the snapshot.
    pub journal_entries: u64,
    /// Wall-clock nanoseconds [`Journal::open`] spent bringing the
    /// engine back (0 for a fresh log). Reported as a `recovery` span
    /// once an observability handle is attached
    /// ([`DurableEngine::set_obs`]).
    pub elapsed_ns: u64,
}

/// A replay mark of one log record: the engine sequence state captured
/// *before* the record was processed, so a future snapshot can name this
/// record as its warmup start.
#[derive(Clone, Debug)]
struct Mark {
    /// Record offset in the WAL.
    offset: u64,
    /// Effective latest event time of the record (monotone across
    /// records): what the retention horizon is compared against.
    at: Timestamp,
    /// The engine's replay mark before processing.
    mark: ReplayMark,
    /// Install-journal length before this record's entries.
    journal_len: usize,
}

/// The shape descriptor of a [`ReactiveEngine`] in log and snapshot
/// headers; a pair with a journal serves as `durable:single`. Recovery
/// refuses any other shape, so both strings are frozen: changing one
/// makes every existing log unreadable.
const ENGINE: &str = "single";

/// The write-ahead journal of one [`ReactiveEngine`]: the log, the
/// snapshots, and what recovery and the next snapshot need to know. It
/// does not own the engine; every call takes it, so stepping an engine
/// and logging its inputs stay one step (see the crate docs).
pub struct Journal {
    wal: wal::Wal,
    snap_path: PathBuf,
    opts: DurableOptions,
    /// Offset of the first non-header record (genesis warm start).
    genesis_offset: u64,
    /// Every rule install since genesis, in order.
    installs: Vec<JournalEntry>,
    /// Replay marks of recent records, pruned to the retention horizon.
    marks: VecDeque<Mark>,
    records_since_snapshot: u64,
    recovery: RecoveryStats,
}

enum Mode {
    Live,
    Warm,
    Replay,
}

impl Journal {
    /// Open (or create) the journal rooted at `dir` and recover `engine`
    /// in place. `engine` must be in its *configured blank* state — the
    /// AAA setup and TTL the original process used; everything dynamic
    /// (rules, events, stores) is replayed from disk. Fails on real
    /// corruption (unknown records, schema/shape mismatch, a snapshot
    /// pointing past the log end); a torn log tail or half-written
    /// snapshot is healed silently and reported in
    /// [`Journal::recovery`].
    pub fn open(dir: &Path, opts: DurableOptions, engine: &mut ReactiveEngine) -> Result<Journal> {
        let opened_at = std::time::Instant::now();
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join("snapshot.bin");
        let opened = wal::Wal::open(&dir.join("wal.log"))?;
        let mut records = opened.records;
        let mut wal = opened.wal;
        let fresh = records.is_empty();
        let genesis_offset = match records.first() {
            None => {
                // Fresh log: stamp the header. A snapshot without any log
                // would drop every event since that snapshot — refuse.
                if Snapshot::read_from(&snap_path)?.is_some() {
                    return Err(PersistError::Corrupt(
                        "snapshot exists but the write-ahead log is empty: the log was \
                         truncated after the snapshot was taken; recovery would silently \
                         drop events"
                            .into(),
                    ));
                }
                wal.append(&Record::Head {
                    schema: wal::WAL_SCHEMA.to_string(),
                    engine: ENGINE.to_string(),
                })?;
                wal.sync()?;
                wal.len()
            }
            Some((_, Record::Head { schema, engine })) => {
                if schema != wal::WAL_SCHEMA {
                    return Err(PersistError::Corrupt(format!(
                        "log schema `{schema}` is not `{}`",
                        wal::WAL_SCHEMA
                    )));
                }
                if engine != ENGINE {
                    return Err(PersistError::Corrupt(format!(
                        "log was written by engine `{engine}` but `{ENGINE}` is recovering it"
                    )));
                }
                records.remove(0);
                match records.first() {
                    Some((off, _)) => *off,
                    None => wal.len(),
                }
            }
            Some((_, other)) => {
                return Err(PersistError::Corrupt(format!(
                    "log does not start with a header record (found {other:?})"
                )));
            }
        };

        let mut me = Journal {
            wal,
            snap_path,
            opts,
            genesis_offset,
            installs: Vec::new(),
            marks: VecDeque::new(),
            records_since_snapshot: 0,
            recovery: RecoveryStats::default(),
        };
        if fresh {
            return Ok(me);
        }
        let mut stats = RecoveryStats {
            recovered: true,
            torn_bytes: opened.torn_bytes,
            ..RecoveryStats::default()
        };
        match Snapshot::read_from(&me.snap_path)? {
            Some(snap) => {
                me.recover_with_snapshot(engine, &records, snap, &mut stats)?;
            }
            None => {
                for (off, rec) in &records {
                    me.apply(engine, *off, rec, Mode::Replay)?;
                    stats.replayed_records += 1;
                }
            }
        }
        me.records_since_snapshot = stats.replayed_records;
        stats.elapsed_ns = opened_at.elapsed().as_nanos() as u64;
        me.recovery = stats;
        Ok(me)
    }

    /// Flush the log to stable storage regardless of [`SyncPolicy`],
    /// recording the stall into `obs`'s fsync histogram (and an untraced
    /// `fsync` span) when observability is on.
    pub fn sync(&mut self, obs: &Obs) -> Result<()> {
        if !obs.is_enabled() {
            return self.wal.sync();
        }
        let t0 = obs.now_ns();
        let r = self.wal.sync();
        let dur = obs.now_ns().saturating_sub(t0);
        obs.fsync.record(dur);
        obs.span(0, Stage::Fsync, t0, dur);
        r
    }

    fn recover_with_snapshot(
        &mut self,
        engine: &mut ReactiveEngine,
        records: &[(u64, Record)],
        snap: Snapshot,
        stats: &mut RecoveryStats,
    ) -> Result<()> {
        stats.used_snapshot = true;
        if snap.engine != ENGINE {
            return Err(PersistError::Corrupt(format!(
                "snapshot was taken from engine `{}` but `{ENGINE}` is recovering it",
                snap.engine
            )));
        }
        let end = self.wal.len();
        if snap.log_offset > end {
            return Err(PersistError::Corrupt(format!(
                "snapshot is newer than the log: it references offset {} but the log \
                 ends at {end}; the log lost records after the snapshot was taken and \
                 recovery would silently drop those events",
                snap.log_offset
            )));
        }
        let boundary = |off: u64| off == end || records.iter().any(|(o, _)| *o == off);
        if !boundary(snap.log_offset) || !boundary(snap.warm_offset) {
            return Err(PersistError::Corrupt(
                "snapshot offsets do not lie on log record boundaries".into(),
            ));
        }
        // 1. Suppress all effects while state is reassembled.
        engine.set_replay_warmup(true);

        // 2. Rule base as of the warm offset: replay the install journal
        //    through the engine's normal install paths, so scoping comes
        //    out exactly as it did originally.
        for entry in &snap.journal {
            match entry {
                JournalEntry::Static(src) => {
                    let _ = engine.install_program(src);
                }
                JournalEntry::Dynamic(m) => {
                    engine.receive_batch_tagged(std::slice::from_ref(m));
                }
            }
            stats.journal_entries += 1;
        }
        self.installs = snap.journal.clone();

        // 3. Sequence state (clock included) as of the warm offset, the
        //    store as of the snapshot offset (warmup never touches it).
        engine.restore_replay_mark(snap.warm_mark);
        for (uri, version, doc) in &snap.state.resources {
            engine
                .qe
                .store
                .put_with_version(uri.clone(), doc.clone(), *version);
        }

        // 4. Warmup replay [H, S): rebuild composite-event state.
        for (off, rec) in records {
            if *off < snap.warm_offset || *off >= snap.log_offset {
                continue;
            }
            self.apply(engine, *off, rec, Mode::Warm)?;
            stats.warm_records += 1;
        }

        // 5. Deadlines the restored clock jumped over must not fire
        //    spuriously later; discharge them while still suppressed.
        engine.flush_due_deadlines();
        engine.set_replay_warmup(false);

        // 6. Observability as of S overwrites whatever warmup touched.
        engine.metrics = snap.state.metrics;
        engine.action_log = snap.state.action_log;

        // 7. Full replay of the suffix [S, …): effects on, outputs
        //    discarded (the pre-crash process already returned them).
        for (off, rec) in records {
            if *off < snap.log_offset {
                continue;
            }
            self.apply(engine, *off, rec, Mode::Replay)?;
            stats.replayed_records += 1;
        }
        Ok(())
    }

    /// Process one (already appended) record. Outputs carry the index
    /// of the batch message that produced them (0 for records that are
    /// not batches). In `Live` mode engine errors propagate to the
    /// caller; in replay modes they are swallowed — the original caller
    /// already saw them, and installation has no rollback, so re-running
    /// the same text reproduces the same partial state.
    fn apply(
        &mut self,
        engine: &mut ReactiveEngine,
        offset: u64,
        rec: &Record,
        mode: Mode,
    ) -> Result<Vec<(u32, OutMessage)>> {
        self.push_mark(engine, offset, rec);
        let outcome = match rec {
            Record::Head { .. } => Ok(Vec::new()),
            Record::Install(src) => {
                self.installs.push(JournalEntry::Static(src.clone()));
                engine.install_program(src).map(|()| Vec::new())
            }
            Record::Batch(msgs) => {
                for m in msgs {
                    if m.payload.label() == Some("install_rules") {
                        self.installs.push(JournalEntry::Dynamic(m.clone()));
                    }
                }
                Ok(engine.receive_batch_tagged(msgs))
            }
            Record::Advance(t) => Ok(engine
                .advance_time(*t)
                .into_iter()
                .map(|o| (0, o))
                .collect()),
            // Warmup skips puts: the snapshot's store already holds the
            // final as-of-S value; re-putting an older one would clobber
            // later in-window updates.
            Record::Put { .. } if matches!(mode, Mode::Warm) => Ok(Vec::new()),
            Record::Put { uri, doc } => {
                engine.qe.store.put(uri.clone(), doc.clone());
                Ok(Vec::new())
            }
        };
        match outcome {
            Ok(out) => Ok(out),
            Err(e) if matches!(mode, Mode::Live) => Err(e.into()),
            Err(_) => Ok(Vec::new()),
        }
    }

    /// Capture this record's replay mark (sequence state *before*
    /// processing) and prune marks that fell behind the retention
    /// horizon.
    fn push_mark(&mut self, engine: &ReactiveEngine, offset: u64, rec: &Record) {
        let mark = engine.replay_mark();
        let clock = mark.clock;
        let at = match rec {
            Record::Batch(msgs) => msgs.iter().map(|m| m.at).fold(clock, Timestamp::max),
            Record::Advance(t) => clock.max(*t),
            _ => clock,
        };
        self.marks.push_back(Mark {
            offset,
            at,
            mark,
            journal_len: self.installs.len(),
        });
        match engine.replay_horizon() {
            Some(r) => {
                let horizon = at.saturating_sub(r);
                while self.marks.front().is_some_and(|m| m.at < horizon) {
                    self.marks.pop_front();
                }
            }
            None => self.marks.clear(), // unbounded: snapshots warm from genesis
        }
    }

    /// The one input path: log the record, sync it per policy, apply it
    /// to `engine`, and snapshot on cadence.
    pub fn commit(
        &mut self,
        engine: &mut ReactiveEngine,
        rec: Record,
    ) -> Result<Vec<(u32, OutMessage)>> {
        let offset = self.wal.append(&rec)?;
        if self.opts.sync == SyncPolicy::Always {
            self.sync(engine.obs())?;
        }
        let out = self.apply(engine, offset, &rec, Mode::Live)?;
        self.records_since_snapshot += 1;
        if let Some(n) = self.opts.snapshot_every {
            if self.records_since_snapshot >= n {
                self.snapshot_now(engine)?;
            }
        }
        Ok(out)
    }

    /// Write a snapshot of `engine`'s durable state (see crate docs).
    pub fn snapshot_now(&mut self, engine: &ReactiveEngine) -> Result<()> {
        // The snapshot references `wal.len()`; under `SyncPolicy::Os`
        // those bytes may still live in the page cache. Flush first, so
        // a durable snapshot can never point past the durable log — a
        // machine crash in that window would otherwise leave a node that
        // refuses to start ("snapshot is newer than the log").
        self.sync(engine.obs())?;
        let end = self.wal.len();
        let clock = engine.now();
        // Warm start: the first retained record inside the retention
        // horizon. No such record (quiet log, or everything expired) ⇒
        // the snapshot is self-sufficient and warms from its own offset;
        // unbounded retention ⇒ warm from genesis.
        let (warm_offset, warm_mark, journal_len) = match engine.replay_horizon() {
            None => (self.genesis_offset, ReplayMark::default(), 0usize),
            Some(r) => {
                let horizon = clock.saturating_sub(r);
                match self.marks.iter().find(|m| m.at >= horizon) {
                    Some(m) => (m.offset, m.mark, m.journal_len),
                    None => (end, engine.replay_mark(), self.installs.len()),
                }
            }
        };
        let state = ShardState {
            resources: engine
                .qe
                .store
                .uris()
                .map(|u| {
                    (
                        u.to_string(),
                        engine.qe.store.version(u).expect("listed uri"),
                        engine.qe.store.get(u).expect("listed uri").clone(),
                    )
                })
                .collect(),
            metrics: engine.metrics.clone(),
            action_log: engine.action_log.clone(),
        };
        let snap = Snapshot {
            engine: ENGINE.to_string(),
            log_offset: end,
            warm_offset,
            warm_mark,
            journal: self.installs[..journal_len].to_vec(),
            state,
        };
        snap.write_to(&self.snap_path)?;
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// What recovery did when this journal was opened.
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Valid bytes in the write-ahead log.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }
}

/// One served engine: a [`ReactiveEngine`] and, when its inputs are
/// logged, its [`Journal`]. Hosts (the TCP ingress tier, the Web
/// simulator) hold this one type. With a journal every state-changing
/// call is logged before the engine steps ([`DurableEngine::open`]);
/// without one ([`From<ReactiveEngine>`]) the calls go straight to the
/// engine and build no log record.
///
/// The type parameter stays, defaulted and with every method defined
/// for `DurableEngine<ReactiveEngine>` only, so that code naming
/// `DurableEngine<ReactiveEngine>` (the benchmark harness does) keeps
/// compiling.
pub struct DurableEngine<E = ReactiveEngine> {
    engine: E,
    journal: Option<Journal>,
}

impl fmt::Debug for DurableEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableEngine")
            .field("engine", &self.descriptor())
            .field("wal_len", &self.wal_len())
            .finish_non_exhaustive()
    }
}

/// An engine served without a journal: nothing is logged.
impl From<ReactiveEngine> for DurableEngine {
    fn from(engine: ReactiveEngine) -> Self {
        DurableEngine {
            engine,
            journal: None,
        }
    }
}

impl DurableEngine {
    /// Open (or create) the journal at `dir` for the engine `build`
    /// returns in its configured blank state, recovering it from disk
    /// (see [`Journal::open`]).
    pub fn open(
        dir: &Path,
        opts: DurableOptions,
        build: impl FnOnce() -> ReactiveEngine,
    ) -> Result<Self> {
        let mut engine = build();
        let journal = Journal::open(dir, opts, &mut engine)?;
        Ok(DurableEngine {
            engine,
            journal: Some(journal),
        })
    }

    /// Shape descriptor: `single`, or `durable:single` with a journal.
    /// Frozen (see the wire's `welcome`).
    pub fn descriptor(&self) -> String {
        match self.journal {
            Some(_) => format!("durable:{ENGINE}"),
            None => ENGINE.to_string(),
        }
    }

    /// Install a rule program, logged first when there is a journal.
    pub fn install_program(&mut self, src: &str) -> Result<()> {
        match &mut self.journal {
            Some(j) => j
                .commit(&mut self.engine, Record::Install(src.to_string()))
                .map(drop),
            None => Ok(self.engine.install_program(src)?),
        }
    }

    /// [`DurableEngine::install_program`] under the name the benchmark
    /// harness calls.
    pub fn install_source(&mut self, src: &str) -> Result<()> {
        self.install_program(src)
    }

    /// Process one ingestion batch (with a journal: one log record, one
    /// fsync), tagging each output with the index of the batch message
    /// that produced it — what lets a host route every reaction back to
    /// its submitter.
    pub fn receive_batch_tagged(&mut self, msgs: &[InMessage]) -> Result<Vec<(u32, OutMessage)>> {
        match &mut self.journal {
            Some(j) => j.commit(&mut self.engine, Record::Batch(msgs.to_vec())),
            None => Ok(self.engine.receive_batch_tagged(msgs)),
        }
    }

    /// [`DurableEngine::receive_batch_tagged`] with the tags stripped.
    pub fn receive_batch(&mut self, msgs: &[InMessage]) -> Result<Vec<OutMessage>> {
        self.receive_batch_tagged(msgs).map(untag)
    }

    /// Process one message: a batch of one.
    pub fn receive(
        &mut self,
        payload: Term,
        meta: &MessageMeta,
        at: Timestamp,
    ) -> Result<Vec<OutMessage>> {
        self.receive_batch(&[InMessage::new(payload, meta.clone(), at)])
    }

    /// Advance the virtual clock, firing due absence deadlines.
    pub fn advance_time(&mut self, t: Timestamp) -> Result<Vec<OutMessage>> {
        match &mut self.journal {
            Some(j) => j.commit(&mut self.engine, Record::Advance(t)).map(untag),
            None => Ok(self.engine.advance_time(t)),
        }
    }

    /// Store a document in the engine's resource store.
    pub fn put_resource(&mut self, uri: &str, doc: Term) -> Result<()> {
        let uri = uri.to_string();
        match &mut self.journal {
            Some(j) => j
                .commit(&mut self.engine, Record::Put { uri, doc })
                .map(drop),
            None => {
                self.engine.qe.store.put(uri, doc);
                Ok(())
            }
        }
    }

    /// The engine's metrics.
    pub fn metrics(&self) -> EngineMetrics {
        self.engine.metrics.clone()
    }

    /// The engine's observability handle; the journal reports into it
    /// too.
    pub fn obs(&self) -> &Arc<Obs> {
        self.engine.obs()
    }

    /// Attach a shared observability handle. If the journal recovered an
    /// existing log, the recovery duration is recorded as a `recovery`
    /// span at attach time.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        let recovered = self.journal.as_ref().map(Journal::recovery);
        if let Some(r) = recovered.filter(|r| r.recovered && obs.is_enabled()) {
            obs.span(0, Stage::Recovery, 0, r.elapsed_ns);
        }
        self.engine.set_obs(obs);
    }

    /// Write a snapshot now (a no-op without a journal).
    pub fn snapshot_now(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(j) => j.snapshot_now(&self.engine),
            None => Ok(()),
        }
    }

    /// The engine (read access; mutating it directly would bypass the
    /// journal).
    pub fn engine(&self) -> &ReactiveEngine {
        &self.engine
    }

    /// What recovery did when the journal was opened (nothing, without
    /// one).
    pub fn recovery(&self) -> RecoveryStats {
        self.journal
            .as_ref()
            .map(Journal::recovery)
            .cloned()
            .unwrap_or_default()
    }

    /// Flush the log to stable storage regardless of [`SyncPolicy`] (a
    /// no-op without a journal).
    pub fn sync(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(j) => j.sync(self.engine.obs()),
            None => Ok(()),
        }
    }

    /// Valid bytes in the write-ahead log (0 without a journal).
    pub fn wal_len(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::wal_len)
    }
}

/// Drop the batch-message tags from a record's outputs.
fn untag(out: Vec<(u32, OutMessage)>) -> Vec<OutMessage> {
    out.into_iter().map(|(_, o)| o).collect()
}
