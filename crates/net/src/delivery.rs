//! The outbound delivery agent: the push half of Thesis 2.
//!
//! The ingress tier reports every reaction back to its submitter; this
//! module is what makes `reaction{to[addr]}` actually *reach* `addr`.
//! A [`DeliveryAgent`] attached to a server (or fed directly) keeps one
//! ordered queue per destination URI, resolves each destination against
//! a longest-prefix route table, dials the peer over the same framed
//! wire protocol, and pushes the reaction as a `deliver` request. The
//! reliability ladder, in order of escalation:
//!
//! 1. **At-least-once.** Every reaction is journaled to a durable
//!    outbox ([`reweb_persist::outbox`]) *before* the first dial; only
//!    the peer's `accepted` reply settles it. A crash of the sender
//!    re-queues the unsettled remainder on restart.
//! 2. **Retry with backoff.** Connect failures, I/O timeouts, dropped
//!    connections, and retryable replies (`busy`, `throttled`,
//!    `shutting-down`) put the destination to sleep on its
//!    [`crate::BackoffPolicy`] ladder — exponential, jittered by the
//!    delivery's stable sequence number — and redial. The head of a
//!    destination queue blocks the rest: per-destination order is
//!    never traded for progress.
//! 3. **Dead-letter, never drop.** A delivery that exhausts its retry
//!    budget moves to a CRC-framed dead-letter log
//!    ([`reweb_term::frame`], same format as the WAL), freeing the
//!    queue behind it. Dead letters survive restarts, are inspectable
//!    ([`DeliveryAgent::dead_letters`]), and are re-queued *under
//!    their original keys* by [`DeliveryAgent::redeliver`] once the
//!    destination is back — the receiver's key-based deduplication
//!    makes the retry idempotent.
//!
//! Duplicates are possible by design (an ack lost in a crash or a
//! dropped connection re-sends an already-ingested reaction); the
//! receiving server deduplicates by delivery key against its
//! [`DeliveryLedger`], so the *ingested* sequence per destination is
//! exactly-once and in order. The fault-injection hooks
//! ([`DeliveryAgent::inject_connect_failures`],
//! [`DeliveryAgent::inject_drop_before_ack`],
//! [`DeliveryAgent::inject_slow_peer`]) exist so the tests exercise
//! every rung of the ladder deterministically.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reweb_persist::log::FrameLog;
use reweb_persist::outbox::{Outbox, PendingDelivery, Settle};
use reweb_persist::wal::{field_child, field_text, field_u64, term_from_bytes};
use reweb_persist::{PersistError, SyncPolicy};
use reweb_term::{Term, Timestamp};

use crate::client::NetClient;
use crate::limit::BackoffPolicy;
use crate::wire::{ErrorCode, Reply, Request};

/// Tuning knobs of a [`DeliveryAgent`].
#[derive(Debug, Clone)]
pub struct DeliveryConfig {
    /// The sender's URI: the `hello` identity of every outbound
    /// session, and the prefix of every delivery key
    /// (`<from>#<outbox-seq>`).
    pub from: String,
    /// Retry ladder between failed attempts (see
    /// [`DeliveryConfig::default`] for the shipped ladder).
    pub backoff: BackoffPolicy,
    /// Attempts per delivery before it dead-letters. An attempt is one
    /// dial-and-push cycle that did not end in an `accepted`.
    pub retry_budget: u32,
    /// TCP connect timeout per dial.
    pub connect_timeout: Duration,
    /// Read/write timeout on an open session (a peer that accepts the
    /// connection but never answers counts as a failed attempt).
    pub io_timeout: Duration,
    /// Durable outbox journal path; `None` keeps the pending set in
    /// memory only (sender crashes then lose unsettled deliveries —
    /// fine for tests, not for a durable node).
    pub outbox: Option<PathBuf>,
    /// Dead-letter log path; `None` keeps dead letters in memory only.
    pub dead_letter: Option<PathBuf>,
}

impl Default for DeliveryConfig {
    fn default() -> DeliveryConfig {
        DeliveryConfig {
            from: "http://local/".into(),
            backoff: BackoffPolicy {
                base_ms: 50,
                max_ms: 2_000,
                jitter_ms: 25,
            },
            retry_budget: 8,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(2_000),
            outbox: None,
            dead_letter: None,
        }
    }
}

/// A reaction that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The delivery's stable outbox sequence number (its wire key is
    /// `<from>#<seq>`).
    pub seq: u64,
    /// Destination URI that could not be reached.
    pub to: String,
    /// Event time of the originating reaction.
    pub at: Timestamp,
    /// The reaction term.
    pub payload: Term,
    /// Attempts spent before giving up.
    pub attempts: u32,
}

/// Point-in-time counters of a [`DeliveryAgent`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Reactions accepted into a destination queue.
    pub enqueued: u64,
    /// Reactions acknowledged by their destination.
    pub delivered: u64,
    /// Reactions moved to the dead-letter log.
    pub dead_lettered: u64,
    /// Reactions re-queued by [`DeliveryAgent::redeliver`].
    pub redelivered: u64,
    /// Acks that came back flagged duplicate (the peer had already
    /// ingested the key — a retry crossed a lost ack).
    pub duplicate_acks: u64,
    /// Dial-and-push attempts that failed (connect, I/O, retryable
    /// replies).
    pub failed_attempts: u64,
    /// Reactions skipped at enqueue because no route matched their
    /// destination (they still reached their submitter as a `reaction`
    /// reply; they were never the agent's to deliver).
    pub unrouted: u64,
}

struct Queued {
    seq: u64,
    at: Timestamp,
    payload: Term,
    attempts: u32,
    /// Originating event's trace id (0 = untraced); joins the delivery
    /// round-trip span to the causal chain the engine recorded.
    trace: u64,
}

struct AgentState {
    queues: HashMap<String, VecDeque<Queued>>,
    outbox: Option<Outbox>,
    dead: Vec<DeadLetter>,
    dead_log: Option<FrameLog>,
    stats: DeliveryStats,
}

struct AgentInner {
    cfg: DeliveryConfig,
    routes: Mutex<Vec<(String, SocketAddr)>>,
    state: Mutex<AgentState>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// One worker thread per destination that ever had a queued
    /// delivery; spawned by [`enqueue_inner`], joined by
    /// [`DeliveryAgent::shutdown`].
    workers: Mutex<HashMap<String, JoinHandle<()>>>,
    /// Observability handle (disabled by default;
    /// [`crate::NetServer::attach_delivery`] swaps in the server's).
    obs: Mutex<Arc<reweb_obs::Obs>>,
    // Fault injection (tests): counters/delays consumed by workers.
    fault_connect: Mutex<Vec<(String, u32)>>,
    fault_drop_ack: Mutex<Vec<(String, u32)>>,
    fault_slow: Mutex<Vec<(String, Duration)>>,
}

impl AgentInner {
    fn state(&self) -> std::sync::MutexGuard<'_, AgentState> {
        self.state.lock().expect("delivery state poisoned")
    }
}

/// The delivery agent. Cloning the handle is cheap (shared state);
/// worker threads — one per destination, spawned when it first gets a
/// queued delivery, whoever queued it — are joined by
/// [`DeliveryAgent::shutdown`].
pub struct DeliveryAgent {
    inner: Arc<AgentInner>,
}

/// A cheap cloneable feed handle: just enough surface for the server's
/// driver thread to hand reactions over.
#[derive(Clone)]
pub struct DeliveryHandle {
    inner: Arc<AgentInner>,
}

impl DeliveryHandle {
    /// See [`DeliveryAgent::enqueue`]. `trace` is the originating
    /// event's trace id (0 = untraced).
    pub fn enqueue(&self, to: &str, at: Timestamp, payload: &Term, trace: u64) -> bool {
        enqueue_inner(&self.inner, to, at, payload, None, trace)
    }

    /// Swap in a shared observability handle (outbox + delivery
    /// round-trip instrumentation).
    pub fn set_obs(&self, obs: Arc<reweb_obs::Obs>) {
        *self.inner.obs.lock().expect("obs handle poisoned") = obs;
    }
}

fn dead_letter_to_bytes(d: &DeadLetter) -> Vec<u8> {
    Term::build("dl")
        .unordered()
        .field("seq", d.seq.to_string())
        .field("to", &d.to)
        .field("at", d.at.millis().to_string())
        .field("attempts", d.attempts.to_string())
        .child(Term::ordered("payload", vec![d.payload.clone()]))
        .finish()
        .to_string()
        .into_bytes()
}

fn dead_letter_from_bytes(bytes: &[u8]) -> reweb_persist::Result<DeadLetter> {
    let t = term_from_bytes(bytes)?;
    if t.label() != Some("dl") {
        return Err(PersistError::Corrupt(format!("expected dl{{…}}, got {t}")));
    }
    Ok(DeadLetter {
        seq: field_u64(&t, "seq")?,
        to: field_text(&t, "to")?,
        at: Timestamp(field_u64(&t, "at")?),
        payload: field_child(&t, "payload")?.clone(),
        attempts: field_u64(&t, "attempts")? as u32,
    })
}

/// Longest-prefix lookup (the websim `owner_of` rule) over the route and
/// fault tables: the index and value of the entry whose prefix is the
/// longest one `to` starts with (the later entry on a tie).
fn longest_prefix<'a, T>(table: &'a [(String, T)], to: &str) -> Option<(usize, &'a T)> {
    table
        .iter()
        .enumerate()
        .filter(|(_, (p, _))| to.starts_with(p.as_str()))
        .max_by_key(|(_, (p, _))| p.len())
        .map(|(i, (_, v))| (i, v))
}

/// Spawn `dest`'s worker unless it already has one or the agent is
/// shutting down (checked under the registry lock, which
/// [`DeliveryAgent::shutdown`] takes after raising the flag).
fn spawn_worker(inner: &Arc<AgentInner>, dest: &str) {
    let mut workers = inner.workers.lock().expect("worker registry poisoned");
    if inner.shutdown.load(Ordering::Acquire) || workers.contains_key(dest) {
        return;
    }
    let name = format!("reweb-delivery-{}", workers.len());
    let (worker_inner, worker_dest) = (Arc::clone(inner), dest.to_string());
    if let Ok(h) = std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(worker_inner, worker_dest))
    {
        workers.insert(dest.to_string(), h);
    }
}

fn enqueue_inner(
    inner: &Arc<AgentInner>,
    to: &str,
    at: Timestamp,
    payload: &Term,
    fixed_seq: Option<u64>,
    trace: u64,
) -> bool {
    {
        let routes = inner.routes.lock().expect("route table poisoned");
        if longest_prefix(&routes[..], to).is_none() {
            let mut s = inner.state();
            s.stats.unrouted += 1;
            return false;
        }
    }
    let mut s = inner.state();
    let seq = match (fixed_seq, s.outbox.as_mut()) {
        (Some(seq), Some(ob)) => {
            let p = PendingDelivery {
                seq,
                to: to.to_string(),
                at,
                payload: payload.clone(),
            };
            if ob.requeue(&p).is_err() {
                return false;
            }
            seq
        }
        (Some(seq), None) => seq,
        (None, Some(ob)) => match ob.enqueue(to, at, payload) {
            Ok(seq) => seq,
            Err(_) => return false,
        },
        (None, None) => {
            // No journal: synthesize monotone seqs from what is known.
            s.stats.enqueued + s.stats.redelivered
        }
    };
    s.stats.enqueued += 1;
    s.queues
        .entry(to.to_string())
        .or_default()
        .push_back(Queued {
            seq,
            at,
            payload: payload.clone(),
            attempts: 0,
            trace,
        });
    drop(s);
    inner.cv.notify_all();
    spawn_worker(inner, to);
    if trace != 0 {
        let obs = Arc::clone(&inner.obs.lock().expect("obs handle poisoned"));
        if obs.is_enabled() {
            // Instantaneous marker: the reaction entered the outbox.
            let now = obs.now_ns();
            obs.span(trace, reweb_obs::Stage::Outbox, now, 0);
        }
    }
    true
}

impl DeliveryAgent {
    /// Create an agent: open (and recover) the outbox and dead-letter
    /// log, re-queue every unsettled delivery, and stand ready. Worker
    /// threads spawn on demand, one per destination with traffic.
    pub fn new(cfg: DeliveryConfig) -> std::io::Result<DeliveryAgent> {
        let mut pending: Vec<PendingDelivery> = Vec::new();
        let outbox = match &cfg.outbox {
            Some(path) => {
                let mut open = Outbox::open(path, SyncPolicy::Always)?;
                // Settled records are history: drop them now, so the
                // journal holds only what this run may still deliver.
                open.outbox.compact()?;
                pending = open.pending;
                Some(open.outbox)
            }
            None => None,
        };
        let (dead_log, dead) = match &cfg.dead_letter {
            Some(path) => {
                let open = FrameLog::open(path)?;
                let dead = open
                    .frames
                    .iter()
                    .map(|(_, p)| dead_letter_from_bytes(p))
                    .collect::<reweb_persist::Result<_>>()?;
                (Some(open.log), dead)
            }
            None => (None, Vec::new()),
        };
        let inner = Arc::new(AgentInner {
            cfg,
            routes: Mutex::new(Vec::new()),
            state: Mutex::new(AgentState {
                queues: HashMap::new(),
                outbox,
                dead,
                dead_log,
                stats: DeliveryStats::default(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(HashMap::new()),
            obs: Mutex::new(Arc::new(reweb_obs::Obs::new())),
            fault_connect: Mutex::new(Vec::new()),
            fault_drop_ack: Mutex::new(Vec::new()),
            fault_slow: Mutex::new(Vec::new()),
        });
        // Recovered deliveries re-enter their destination queues (in
        // seq order — Outbox::open returns them sorted) once routes
        // exist; queue them now, workers will wait on routes.
        let dests: Vec<String> = {
            let mut s = inner.state();
            for p in pending {
                s.stats.enqueued += 1;
                s.queues.entry(p.to.clone()).or_default().push_back(Queued {
                    seq: p.seq,
                    at: p.at,
                    payload: p.payload,
                    attempts: 0,
                    // Trace ids are not journaled: a recovered delivery
                    // re-enters untraced (the recorder that knew the
                    // chain died with the crashed process anyway).
                    trace: 0,
                });
            }
            s.queues.keys().cloned().collect()
        };
        for d in dests {
            spawn_worker(&inner, &d);
        }
        Ok(DeliveryAgent { inner })
    }

    /// Register a route: destinations whose URI starts with `prefix`
    /// dial `addr`. Longest prefix wins.
    pub fn add_route(&self, prefix: impl Into<String>, addr: SocketAddr) {
        self.inner
            .routes
            .lock()
            .expect("route table poisoned")
            .push((prefix.into(), addr));
        self.inner.cv.notify_all();
    }

    /// A cheap cloneable feed handle for the server driver.
    pub fn handle(&self) -> DeliveryHandle {
        DeliveryHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Queue one reaction for delivery. Returns `false` when no route
    /// matches `to` (counted in [`DeliveryStats::unrouted`]) — such
    /// reactions are the submitter's to handle, not the agent's.
    pub fn enqueue(&mut self, to: &str, at: Timestamp, payload: &Term) -> bool {
        enqueue_inner(&self.inner, to, at, payload, None, 0)
    }

    /// Deliveries currently queued (not yet acked or dead-lettered).
    pub fn pending(&self) -> usize {
        let s = self.inner.state();
        s.queues.values().map(|q| q.len()).sum()
    }

    /// Wait until every queued delivery settled (acked or
    /// dead-lettered), or `timeout` passed. Returns `true` on settle.
    pub fn flush(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.pending() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Snapshot the agent's counters.
    pub fn stats(&self) -> DeliveryStats {
        self.inner.state().stats.clone()
    }

    /// The dead-letter log, oldest first — the inspection surface.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.state().dead.clone()
    }

    /// Re-queue every dead letter under its original key, then rewrite
    /// the log with the letters that are still unroutable. Returns how
    /// many were re-queued. Call once the destination is reachable
    /// again; the receiver's ledger absorbs any that had in fact arrived
    /// before their acks were lost. The requeues reach the outbox before
    /// the log is rewritten, so a crash in between leaves a letter both
    /// pending and dead (delivered at least once), never neither.
    pub fn redeliver(&mut self) -> std::io::Result<usize> {
        let dead = std::mem::take(&mut self.inner.state().dead);
        let mut requeued = 0;
        let mut still_dead = Vec::new();
        for d in dead {
            let queued = enqueue_inner(&self.inner, &d.to, d.at, &d.payload, Some(d.seq), 0);
            let mut s = self.inner.state();
            if queued {
                // enqueue_inner counted it as a fresh enqueue; account
                // it as a redelivery instead.
                s.stats.enqueued -= 1;
                s.stats.redelivered += 1;
                requeued += 1;
            } else {
                // Still unroutable: keep it dead rather than lose it.
                s.stats.unrouted -= 1;
                still_dead.push(d);
            }
        }
        {
            let mut s = self.inner.state();
            // Letters dead-lettered while the requeues ran stay behind
            // the still-unroutable ones.
            still_dead.append(&mut s.dead);
            s.dead = still_dead;
            let AgentState { dead, dead_log, .. } = &mut *s;
            if let Some(log) = dead_log.as_mut() {
                log.replace(dead.iter().map(dead_letter_to_bytes))?;
            }
        }
        Ok(requeued)
    }

    /// Fault injection: fail the next `n` connect attempts to
    /// destinations matching `prefix`.
    pub fn inject_connect_failures(&self, prefix: impl Into<String>, n: u32) {
        self.inner
            .fault_connect
            .lock()
            .expect("fault table poisoned")
            .push((prefix.into(), n));
    }

    /// Fault injection: for the next `n` pushes to destinations
    /// matching `prefix`, drop the connection after writing the
    /// `deliver` frame but before reading the ack — the classic
    /// duplicate-generating fault.
    pub fn inject_drop_before_ack(&self, prefix: impl Into<String>, n: u32) {
        self.inner
            .fault_drop_ack
            .lock()
            .expect("fault table poisoned")
            .push((prefix.into(), n));
    }

    /// Fault injection: delay every write to destinations matching
    /// `prefix` by `delay` (a slow peer; exercises the io timeout when
    /// `delay` exceeds it, plain latency otherwise).
    pub fn inject_slow_peer(&self, prefix: impl Into<String>, delay: Duration) {
        self.inner
            .fault_slow
            .lock()
            .expect("fault table poisoned")
            .push((prefix.into(), delay));
    }

    /// Stop the workers (the attempt in flight finishes first) and join
    /// them. Queued-but-unsettled deliveries stay in the outbox journal
    /// for the next incarnation. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.cv.notify_all();
        let workers =
            std::mem::take(&mut *self.inner.workers.lock().expect("worker registry poisoned"));
        for h in workers.into_values() {
            let _ = h.join();
        }
    }
}

impl Drop for DeliveryAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One fault-table lookup-and-consume: decrement the matching entry's
/// budget, dropping it at zero. Returns whether a fault fired.
fn consume_fault(table: &Mutex<Vec<(String, u32)>>, to: &str) -> bool {
    let mut t = table.lock().expect("fault table poisoned");
    match longest_prefix(&t[..], to) {
        Some((i, &n)) if n > 0 => {
            if n == 1 {
                t.remove(i);
            } else {
                t[i].1 -= 1;
            }
            true
        }
        _ => false,
    }
}

fn slow_delay(table: &Mutex<Vec<(String, Duration)>>, to: &str) -> Option<Duration> {
    let t = table.lock().expect("fault table poisoned");
    longest_prefix(&t[..], to).map(|(_, d)| *d)
}

/// One dial-and-push attempt against an open question: how did it end?
enum Attempt {
    /// The peer acked; `true` when it flagged the key duplicate.
    Acked(bool),
    /// Anything retryable: connect/IO failure, `busy`, `throttled`,
    /// `shutting-down`, dropped connection.
    Failed,
}

/// Push the queue head over an open session and await its fate. Every
/// `Failed` makes the caller drop (and so close) the session.
fn push_one(
    inner: &AgentInner,
    session: &mut NetClient,
    to: &str,
    seq: u64,
    at: Timestamp,
    payload: &Term,
) -> Attempt {
    if let Some(d) = slow_delay(&inner.fault_slow, to) {
        std::thread::sleep(d);
    }
    let key = format!("{}#{}", inner.cfg.from, seq);
    let req = Request::Deliver {
        id: seq,
        key,
        at: Some(at),
        payload: payload.clone(),
    };
    if session.send(&req).is_err() {
        return Attempt::Failed;
    }
    if consume_fault(&inner.fault_drop_ack, to) {
        // The connection closes before the ack is read.
        return Attempt::Failed;
    }
    loop {
        let hint = match session.recv() {
            Ok(Reply::Accepted { id, duplicate }) if id == seq => return Attempt::Acked(duplicate),
            // The peer is alive but pushing back: honor its hint, then
            // count a failed attempt (the ladder redials).
            Ok(Reply::Busy { retry_ms, .. } | Reply::Throttled { retry_ms, .. }) => Some(retry_ms),
            Ok(Reply::Error {
                code: ErrorCode::ShuttingDown | ErrorCode::Busy,
                retry_ms,
                ..
            }) => retry_ms,
            Ok(Reply::Error { .. }) | Err(_) => None,
            // Reactions provoked by our own delivery (the receiver's
            // rules fired) are reported back on this session; they are
            // not ours to consume — skip them, as any other reply.
            Ok(_) => continue,
        };
        if let Some(ms) = hint {
            std::thread::sleep(Duration::from_millis(ms.min(inner.cfg.backoff.max_ms)));
        }
        return Attempt::Failed;
    }
}

/// The per-destination worker: deliver the queue head, in order, until
/// shutdown. Sleeps on the backoff ladder between failed attempts;
/// dead-letters the head when its budget is spent.
fn worker_loop(inner: Arc<AgentInner>, dest: String) {
    let mut session: Option<NetClient> = None;
    loop {
        // Wait for work (or shutdown).
        let head = {
            let mut s = inner.state();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match s.queues.get(&dest).and_then(|q| q.front()) {
                    Some(h) => {
                        break (h.seq, h.at, h.payload.clone(), h.attempts, h.trace);
                    }
                    None => {
                        let (guard, _) = inner
                            .cv
                            .wait_timeout(s, Duration::from_millis(20))
                            .expect("delivery state poisoned");
                        s = guard;
                    }
                }
            }
        };
        let (seq, at, payload, attempts, trace) = head;

        // Budget spent: dead-letter the head, freeing the queue.
        if attempts >= inner.cfg.retry_budget {
            session = None;
            let mut s = inner.state();
            let d = DeadLetter {
                seq,
                to: dest.clone(),
                at,
                payload,
                attempts,
            };
            if let Some(log) = s.dead_log.as_mut() {
                if log.append(&dead_letter_to_bytes(&d)).is_ok() {
                    let _ = log.sync();
                }
            }
            s.dead.push(d);
            s.stats.dead_lettered += 1;
            settle_head(&mut s, &dest, seq, Settle::DeadLettered);
            continue;
        }

        // Hold an open session (dial if not); a failed dial is a failed
        // attempt like any other.
        if session.is_none() {
            let addr = {
                let routes = inner.routes.lock().expect("route table poisoned");
                longest_prefix(&routes[..], &dest).map(|(_, a)| *a)
            };
            session = match addr {
                Some(addr) if !consume_fault(&inner.fault_connect, &dest) => {
                    let cfg = &inner.cfg;
                    NetClient::dial(addr, &cfg.from, cfg.connect_timeout, cfg.io_timeout).ok()
                }
                _ => None,
            };
        }

        let obs = Arc::clone(&inner.obs.lock().expect("obs handle poisoned"));
        let rtt_start = if obs.is_enabled() { obs.now_ns() } else { 0 };
        let outcome = match session.as_mut() {
            Some(s) => push_one(&inner, s, &dest, seq, at, &payload),
            None => Attempt::Failed,
        };
        match outcome {
            Attempt::Acked(duplicate) => {
                if obs.is_enabled() {
                    // Round-trip of the *successful* attempt: write,
                    // peer ingests, ack read. Failed attempts are
                    // retries, not latency samples.
                    let rtt = obs.now_ns().saturating_sub(rtt_start);
                    obs.delivery.record(rtt);
                    if trace != 0 {
                        obs.span(trace, reweb_obs::Stage::Delivery, rtt_start, rtt);
                    }
                }
                let mut s = inner.state();
                s.stats.delivered += 1;
                if duplicate {
                    s.stats.duplicate_acks += 1;
                }
                settle_head(&mut s, &dest, seq, Settle::Acked);
            }
            Attempt::Failed => {
                session = None;
                fail_head(&inner, &dest, seq);
                backoff_sleep(&inner, attempts, seq);
            }
        }
    }
}

/// Take the queue head `seq` off `dest`'s queue and settle it in the
/// outbox journal (acked or dead-lettered).
fn settle_head(s: &mut AgentState, dest: &str, seq: u64, how: Settle) {
    if let Some(q) = s.queues.get_mut(dest) {
        q.pop_front();
    }
    if let Some(ob) = s.outbox.as_mut() {
        let _ = ob.settle(seq, how);
    }
}

/// Charge one failed attempt against the queue head (if it is still the
/// same delivery).
fn fail_head(inner: &AgentInner, dest: &str, seq: u64) {
    let mut s = inner.state();
    s.stats.failed_attempts += 1;
    if let Some(h) = s.queues.get_mut(dest).and_then(|q| q.front_mut()) {
        if h.seq == seq {
            h.attempts += 1;
        }
    }
}

/// Sleep one backoff rung, interruptible by shutdown.
fn backoff_sleep(inner: &AgentInner, attempt: u32, seed: u64) {
    let ms = inner.cfg.backoff.delay_with_jitter_ms(attempt, seed);
    let deadline = Instant::now() + Duration::from_millis(ms);
    let mut s = inner.state();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let (guard, _) = inner
            .cv
            .wait_timeout(s, (deadline - now).min(Duration::from_millis(20)))
            .expect("delivery state poisoned");
        s = guard;
    }
}

/// The receiver half of at-least-once: a set of already-ingested
/// delivery keys, optionally journaled to disk (same CRC framing as
/// everything else) so a restarted server still recognizes retries of
/// reactions it ingested before the crash. The in-order entry list
/// doubles as the inspection surface the equivalence tests compare.
#[derive(Default)]
pub struct DeliveryLedger {
    log: Option<FrameLog>,
    seen: std::collections::HashSet<String>,
    entries: Vec<(String, Term)>,
}

impl DeliveryLedger {
    /// A purely in-memory ledger (a process restart forgets it — only
    /// safe when the engine behind it is not durable either).
    pub fn in_memory() -> DeliveryLedger {
        DeliveryLedger::default()
    }

    /// Open (creating if absent) a journaled ledger, healing a torn
    /// tail and seeding the seen-set from the surviving records.
    pub fn open(path: &Path) -> std::io::Result<DeliveryLedger> {
        let open = FrameLog::open(path)?;
        let mut seen = std::collections::HashSet::new();
        let mut entries = Vec::with_capacity(open.frames.len());
        for (_, payload) in &open.frames {
            let t = term_from_bytes(payload)?;
            let key = field_text(&t, "key")?;
            let payload = field_child(&t, "payload")?.clone();
            seen.insert(key.clone());
            entries.push((key, payload));
        }
        Ok(DeliveryLedger {
            log: Some(open.log),
            seen,
            entries,
        })
    }

    /// Has this key been ingested already?
    pub fn contains(&self, key: &str) -> bool {
        self.seen.contains(key)
    }

    /// Record one ingested delivery. Journaled (and flushed) before the
    /// ack goes out, so a crash after the ack still remembers the key.
    pub fn record(&mut self, key: &str, payload: &Term) {
        if !self.seen.insert(key.to_string()) {
            return;
        }
        self.entries.push((key.to_string(), payload.clone()));
        if let Some(log) = self.log.as_mut() {
            let bytes = Term::build("d")
                .unordered()
                .field("key", key)
                .child(Term::ordered("payload", vec![payload.clone()]))
                .finish()
                .to_string()
                .into_bytes();
            if log.append(&bytes).is_ok() {
                let _ = log.sync();
            }
        }
    }

    /// Every ingested delivery `(key, payload)`, in ingestion order.
    pub fn entries(&self) -> &[(String, Term)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    #[test]
    fn routes_resolve_by_longest_prefix() {
        let addr1: SocketAddr = "127.0.0.1:1001".parse().unwrap();
        let addr2: SocketAddr = "127.0.0.1:1002".parse().unwrap();
        let routes = vec![
            ("http://b/".to_string(), addr1),
            ("http://b/special/".to_string(), addr2),
        ];
        let resolve = |routes: &[(String, SocketAddr)], to| {
            longest_prefix(routes, to).map(|(_, a): (usize, &SocketAddr)| *a)
        };
        assert_eq!(resolve(&routes, "http://b/x"), Some(addr1));
        assert_eq!(resolve(&routes, "http://b/special/x"), Some(addr2));
        assert_eq!(resolve(&routes, "http://c/x"), None);
    }

    #[test]
    fn dead_letters_round_trip_through_frames() {
        let d = DeadLetter {
            seq: 7,
            to: "http://b/".into(),
            at: Timestamp(123),
            payload: parse_term("ship{item[\"book\"]}").unwrap(),
            attempts: 3,
        };
        let back = dead_letter_from_bytes(&dead_letter_to_bytes(&d)).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn ledger_journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("reweb-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut l = DeliveryLedger::open(&path).unwrap();
            l.record("a#0", &Term::elem("x"));
            l.record("a#1", &Term::elem("y"));
            l.record("a#0", &Term::elem("x")); // idempotent
            assert_eq!(l.entries().len(), 2);
        }
        let l = DeliveryLedger::open(&path).unwrap();
        assert!(l.contains("a#0") && l.contains("a#1") && !l.contains("a#2"));
        assert_eq!(l.entries()[1].1, Term::elem("y"));
        drop(l);

        // A crash mid-record: the torn tail heals on open, and the next
        // record lands on a clean boundary instead of behind garbage.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let mut l = DeliveryLedger::open(&path).unwrap();
        assert!(
            l.contains("a#0") && !l.contains("a#1"),
            "torn record dropped"
        );
        l.record("a#2", &Term::elem("z"));
        drop(l);
        let l = DeliveryLedger::open(&path).unwrap();
        let keys: Vec<&str> = l.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a#0", "a#2"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrouted_reactions_are_counted_not_queued() {
        let mut agent = DeliveryAgent::new(DeliveryConfig::default()).unwrap();
        assert!(!agent.enqueue("http://nowhere/x", Timestamp(1), &Term::elem("e")));
        assert_eq!(agent.pending(), 0);
        assert_eq!(agent.stats().unrouted, 1);
        agent.shutdown();
    }
}
