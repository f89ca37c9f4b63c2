//! The TCP ingress server: accept loop, per-connection reader/writer
//! threads, and the single engine-driver thread.
//!
//! ```text
//!   client ──TCP──▶ reader thread ──▶ IngressQueue ──▶ driver thread ──▶ engine
//!      ▲                │  (admission: rate limit,      │ (batches, tagged
//!      │                │   body limit, queue bound)    │  ingestion)
//!      └── writer thread ◀────────── reply frames ◀─────┘
//! ```
//!
//! Threading contract: every connection gets one reader and one writer
//! thread; exactly one driver thread owns batch formation and calls the
//! engine (behind a mutex, so [`NetServer::with_engine`] can inspect it
//! between batches). Faults — malformed frames, oversized bodies, slow
//! readers, mid-batch disconnects — degrade *that connection only*: the
//! reader closes or the reply is dropped, while the queue, the driver,
//! and every other connection keep running.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use reweb_core::{InMessage, OutMessage};
use reweb_persist::DurableEngine;
use reweb_term::frame::{read_frame, FrameError};
use reweb_term::Timestamp;

use crate::delivery::{DeliveryHandle, DeliveryLedger};
use crate::limit::{Admission, BackoffPolicy, TokenBucket};
use crate::router::{
    IngressQueue, Item, LanePush, NetConfig, ReplyClass, ReplyLane, BATCH_FILL_WAIT,
};
use crate::wire::{event_to_message, ErrorCode, Reply, Request};

/// Monotone ingress counters, updated with relaxed atomics on the hot
/// paths and snapshotted via [`NetServer::stats`].
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    connections_refused: AtomicU64,
    deliveries_ingested: AtomicU64,
    deliveries_duplicate: AtomicU64,
    frames_in: AtomicU64,
    socket_reads: AtomicU64,
    msgs_enqueued: AtomicU64,
    msgs_processed: AtomicU64,
    batches: AtomicU64,
    reactions_out: AtomicU64,
    replies_dropped: AtomicU64,
    busy_replies: AtomicU64,
    throttled_replies: AtomicU64,
    envelope_errors: AtomicU64,
    framing_errors: AtomicU64,
    engine_errors: AtomicU64,
    queue_highwater: AtomicU64,
}

/// A point-in-time snapshot of the ingress tier's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Connections ever accepted.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections refused at accept by the `max_connections` cap
    /// (`error{code["busy"]}` sent, socket closed before any `hello`).
    pub connections_refused: u64,
    /// Pushed deliveries ingested (first sight of their key).
    pub deliveries_ingested: u64,
    /// Pushed deliveries recognized as retries of an already-ingested
    /// key and acked without re-ingestion.
    pub deliveries_duplicate: u64,
    /// Frames successfully read off sockets (any request kind).
    pub frames_in: u64,
    /// Successful `read` calls on connection sockets. Each connection
    /// reads through one buffer, so a pipelined run of small frames
    /// costs one call per buffer fill, not two per frame.
    pub socket_reads: u64,
    /// Times the driver was woken from a wait for work: waits in the
    /// ingress queue that a push ended, not a timeout (the idle
    /// driver's 20 ms shutdown polls are not counted). A push wakes the
    /// driver only at the depth it can act on — the first item, or a
    /// full `max_batch` while a batch fills — so a filling batch costs
    /// at most one wake-up however many events arrive during it.
    pub driver_wakeups: u64,
    /// Events admitted into the ingress queue.
    pub msgs_enqueued: u64,
    /// Events the driver has handed to the engine.
    pub msgs_processed: u64,
    /// Engine batches the driver has run.
    pub batches: u64,
    /// Reaction replies produced (written or dropped).
    pub reactions_out: u64,
    /// Replies dropped because a connection's reply buffer was full (a
    /// slow reader) or the connection was already gone (a mid-batch
    /// disconnect).
    pub replies_dropped: u64,
    /// `busy` backpressure replies sent (global queue full).
    pub busy_replies: u64,
    /// `throttled` backpressure replies sent (per-client rate limit).
    pub throttled_replies: u64,
    /// `bad-envelope`/`not-gateway` faults (session survived).
    pub envelope_errors: u64,
    /// Framing faults (CRC mismatch, oversized, truncated — connection
    /// closed).
    pub framing_errors: u64,
    /// Batches the engine refused.
    pub engine_errors: u64,
    /// Highest ingress queue depth observed.
    pub queue_highwater: u64,
    /// Current ingress queue depth.
    pub queue_depth: u64,
}

/// One registered connection's reply path.
struct ClientHandle {
    lane: Arc<ReplyLane>,
}

/// State shared by every server thread.
struct Shared {
    cfg: NetConfig,
    engine: Mutex<DurableEngine>,
    /// The engine's [`DurableEngine::descriptor`], read once at bind: it never
    /// changes, and `welcome` must not depend on the engine lock (a
    /// driver that panicked mid-batch leaves that lock poisoned).
    descriptor: String,
    queue: IngressQueue,
    clients: Mutex<HashMap<u64, ClientHandle>>,
    counters: Counters,
    shutdown: AtomicBool,
    next_client: AtomicU64,
    /// Ingested delivery keys (+ optional journal): the receiver half
    /// of at-least-once deduplication. Touched only by the driver and
    /// by inspection calls.
    ledger: Mutex<DeliveryLedger>,
    /// When attached, every reaction the engine emits is also handed to
    /// the delivery agent for outbound push.
    delivery: Mutex<Option<DeliveryHandle>>,
    /// Mirror of the serving engine's observability handle, so `stats`
    /// and `trace` requests (and queue-wait stamping) never take the
    /// engine lock — observability stays readable while the driver is
    /// mid-batch.
    obs: Mutex<Arc<reweb_obs::Obs>>,
}

impl Shared {
    /// The current observability handle (cheap: mutex + Arc clone, no
    /// engine lock).
    fn obs(&self) -> Arc<reweb_obs::Obs> {
        Arc::clone(&self.obs.lock().expect("obs handle poisoned"))
    }

    /// Route one encoded reply frame to a connection's writer lane.
    /// Never blocks: a full data buffer (slow reader), a closed lane, or
    /// a vanished connection (mid-batch disconnect) counts a dropped
    /// reply and moves on. Reactions are [`ReplyClass::Data`]; protocol
    /// replies are [`ReplyClass::Control`] and only drop when the
    /// connection itself is gone.
    fn send_to(&self, client: u64, class: ReplyClass, frame: Vec<u8>) {
        let clients = self.clients.lock().expect("client registry poisoned");
        match clients.get(&client) {
            Some(h) => {
                if h.lane.push(class, frame) == LanePush::Dropped {
                    self.counters
                        .replies_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.counters
                    .replies_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A running TCP ingress server. Dropping it (or calling
/// [`NetServer::shutdown`]) stops accepting, finishes queued work, and
/// joins every thread.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    driver: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `engine` under `cfg`: a `ReactiveEngine`, served
    /// without a journal, or a journalled [`DurableEngine`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: impl Into<DurableEngine>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let engine = engine.into();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ledger = match &cfg.delivery_journal {
            Some(path) => DeliveryLedger::open(path)?,
            None => DeliveryLedger::in_memory(),
        };
        let obs = Arc::clone(engine.obs());
        let shared = Arc::new(Shared {
            queue: IngressQueue::new(cfg.queue_capacity),
            cfg,
            descriptor: engine.descriptor(),
            engine: Mutex::new(engine),
            clients: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_client: AtomicU64::new(1),
            ledger: Mutex::new(ledger),
            delivery: Mutex::new(None),
            obs: Mutex::new(obs),
        });
        let readers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("reweb-net-accept".into())
                .spawn(move || accept_loop(listener, shared, readers))?
        };
        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("reweb-net-driver".into())
                .spawn(move || driver_loop(shared))?
        };
        Ok(NetServer {
            shared,
            addr,
            accept: Some(accept),
            driver: Some(driver),
            readers,
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the ingress counters.
    pub fn stats(&self) -> IngressStats {
        let c = &self.shared.counters;
        IngressStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_open: c.connections_open.load(Ordering::Relaxed),
            connections_refused: c.connections_refused.load(Ordering::Relaxed),
            deliveries_ingested: c.deliveries_ingested.load(Ordering::Relaxed),
            deliveries_duplicate: c.deliveries_duplicate.load(Ordering::Relaxed),
            frames_in: c.frames_in.load(Ordering::Relaxed),
            socket_reads: c.socket_reads.load(Ordering::Relaxed),
            driver_wakeups: self.shared.queue.driver_wakeups(),
            msgs_enqueued: c.msgs_enqueued.load(Ordering::Relaxed),
            msgs_processed: c.msgs_processed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            reactions_out: c.reactions_out.load(Ordering::Relaxed),
            replies_dropped: c.replies_dropped.load(Ordering::Relaxed),
            busy_replies: c.busy_replies.load(Ordering::Relaxed),
            throttled_replies: c.throttled_replies.load(Ordering::Relaxed),
            envelope_errors: c.envelope_errors.load(Ordering::Relaxed),
            framing_errors: c.framing_errors.load(Ordering::Relaxed),
            engine_errors: c.engine_errors.load(Ordering::Relaxed),
            queue_highwater: c.queue_highwater.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.depth() as u64,
        }
    }

    /// Run `f` against the serving engine. The driver takes the same
    /// lock per batch, so this sees a consistent state between batches
    /// — use it to install programs at startup or to read metrics in
    /// tests; holding it stalls ingestion.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut DurableEngine) -> R) -> R {
        f(&mut self.shared.engine.lock().expect("engine mutex poisoned"))
    }

    /// Attach a delivery agent: from now on every reaction the engine
    /// emits is *also* queued for outbound push to the destination its
    /// `to[...]` names (the submitter still gets its `reaction` reply).
    /// The agent inherits the server's observability handle, so
    /// delivery round-trips land in the same histograms `stats`
    /// reports.
    pub fn attach_delivery(&self, handle: DeliveryHandle) {
        handle.set_obs(self.shared.obs());
        *self
            .shared
            .delivery
            .lock()
            .expect("delivery handle poisoned") = Some(handle);
    }

    /// Swap in a shared observability handle: forwarded to the serving
    /// engine, mirrored for the lock-free `stats`/`trace` surface, and
    /// propagated to an attached delivery agent. Call before serving
    /// traffic — connections opened earlier keep stamping queue-wait
    /// against the handle they saw at handshake. (Toggling
    /// `enable`/`disable` on an already-installed handle needs no
    /// re-install: the flag lives inside the shared `Obs`.)
    pub fn set_obs(&self, obs: Arc<reweb_obs::Obs>) {
        self.with_engine(|e| e.set_obs(Arc::clone(&obs)));
        if let Some(h) = self
            .shared
            .delivery
            .lock()
            .expect("delivery handle poisoned")
            .as_ref()
        {
            h.set_obs(Arc::clone(&obs));
        }
        *self.shared.obs.lock().expect("obs handle poisoned") = obs;
    }

    /// The server's observability handle (the serving engine's, unless
    /// [`NetServer::set_obs`] swapped in another).
    pub fn obs(&self) -> Arc<reweb_obs::Obs> {
        self.shared.obs()
    }

    /// The receiver-side delivery ledger: every pushed reaction this
    /// server ingested, `(key, payload)` in ingestion order. The
    /// byte-equality surface of the two-node tests.
    pub fn delivered(&self) -> Vec<(String, reweb_term::Term)> {
        self.shared
            .ledger
            .lock()
            .expect("delivery ledger poisoned")
            .entries()
            .to_vec()
    }

    /// Stop accepting, drain the queue, join every thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // The accept thread blocks in `accept`: wake it with a
            // connection of our own, and keep waking it until it has
            // exited, so a lost wake cannot hang the shutdown.
            let wake = wake_addr(self.addr);
            while !h.is_finished() {
                let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(100));
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = h.join();
        }
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
        // Readers notice the shutdown flag within their poll interval,
        // close their reply lanes (ending the writers), and exit.
        self.shared
            .clients
            .lock()
            .expect("client registry poisoned")
            .clear();
        let handles: Vec<_> = {
            let mut r = self.readers.lock().expect("reader registry poisoned");
            r.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Milliseconds since the UNIX epoch — the stamp for events that omit
/// `at`. The driver clamps the ingress clock monotone regardless.
fn wall_clock() -> Timestamp {
    Timestamp(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    )
}

/// Where [`NetServer::shutdown`] connects to wake the accept thread: the
/// listener itself, through loopback of the same family when it is bound
/// to an unspecified address.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // A shutdown wakes a blocked `accept` with a connection of its
        // own: check before counting or serving what came in.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                // Connection cap: refuse before spawning anything. The
                // refusal is a complete, well-formed error reply — the
                // client learns *why* and *when to come back*, instead
                // of diagnosing a bare RST.
                if let Some(cap) = shared.cfg.max_connections {
                    let open = shared.counters.connections_open.load(Ordering::Relaxed);
                    if open >= cap as u64 {
                        shared
                            .counters
                            .connections_refused
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                        send_direct(
                            &mut stream,
                            &Reply::Error {
                                code: ErrorCode::Busy,
                                detail: format!("connection cap {cap} reached"),
                                id: None,
                                retry_ms: Some(BackoffPolicy::BUSY.delay_ms(0)),
                            },
                        );
                        continue;
                    }
                }
                let _ = stream.set_nodelay(true);
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .connections_open
                    .fetch_add(1, Ordering::Relaxed);
                let shared2 = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("reweb-net-conn-{client}"))
                    .spawn(move || {
                        connection_loop(stream, client, &shared2);
                        shared2
                            .counters
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    });
                match handle {
                    Ok(h) => readers.lock().expect("reader registry poisoned").push(h),
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion):
                        // the connection is simply dropped.
                        shared
                            .counters
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            // A persistent error (out of descriptors, say) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Capacity of each connection's read buffer. One `read` call on the
/// socket takes in up to this much, so a pipelined window of small
/// frames costs a few calls instead of two per frame (header, then
/// payload). Only the bytes a read fills are touched, so an idle or
/// lockstep connection does not hold the whole buffer resident.
const READ_BUFFER: usize = 64 * 1024;

/// A connection's socket as the frame reader sees it: reads come out of
/// one per-connection buffer, each refill is one `read` call on the
/// socket (counted in `socket_reads`), each such call blocks for at
/// most the socket's read timeout (the poll interval), and a timeout
/// ends the read only once the server is shutting down. The buffer sits
/// *under* the poll so that it fills through the socket's own
/// `read_buf`, which leaves unfilled bytes untouched.
struct Polled<'a> {
    stream: BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    socket_reads: &'a AtomicU64,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            // With nothing buffered, this read goes to the socket.
            let from_socket = self.stream.buffer().is_empty();
            match self.stream.read(buf) {
                Ok(n) => {
                    if from_socket {
                        self.socket_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(n);
                }
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !self.shutdown.load(Ordering::Acquire) => {}
                r => return r,
            }
        }
    }
}

/// Read one request frame, bounded by `max_body` from its header (the
/// body-limit pattern): an oversized body is never allocated as a
/// payload or parsed, and at most one read buffer of it is taken off
/// the socket. A framing fault is counted here and comes back as the
/// error reply that closes the connection; `Err(None)` closes silently
/// (clean EOF, shutdown, socket error).
fn next_frame(
    conn: &mut Polled<'_>,
    shared: &Shared,
) -> Result<Vec<u8>, Option<(ErrorCode, String)>> {
    let fault = match read_frame(conn, shared.cfg.max_body) {
        Ok(payload) => {
            shared.counters.frames_in.fetch_add(1, Ordering::Relaxed);
            return Ok(payload);
        }
        Err(FrameError::Eof | FrameError::Io(_)) => return Err(None),
        Err(fault) => fault,
    };
    shared
        .counters
        .framing_errors
        .fetch_add(1, Ordering::Relaxed);
    Err(Some(match fault {
        FrameError::Oversized(len) => (
            ErrorCode::OversizedFrame,
            format!(
                "frame of {len} bytes exceeds max_body {}",
                shared.cfg.max_body
            ),
        ),
        fault => (ErrorCode::MalformedFrame, fault.to_string()),
    }))
}

/// Write a reply straight to the socket — used before the writer thread
/// exists (handshake) and for final error replies. Best effort.
fn send_direct(stream: &mut TcpStream, reply: &Reply) {
    let _ = stream.write_all(&reply.encode());
}

/// One connection, handshake to close. Runs on the connection's reader
/// thread; spawns the paired writer thread after a successful `hello`.
fn connection_loop(stream: TcpStream, client: u64, shared_arc: &Arc<Shared>) {
    let shared: &Shared = shared_arc;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut conn = Polled {
        stream: BufReader::with_capacity(READ_BUFFER, stream),
        shutdown: &shared.shutdown,
        socket_reads: &shared.counters.socket_reads,
    };

    // Handshake: the first envelope must be a schema-matching `hello`.
    let hello = next_frame(&mut conn, shared).and_then(|payload| match Request::decode(&payload) {
        Ok(Request::Hello {
            from,
            credentials,
            gateway,
        }) => Ok((from, credentials, gateway)),
        refused => {
            shared
                .counters
                .envelope_errors
                .fetch_add(1, Ordering::Relaxed);
            Err(Some(match refused {
                Err(e) if e.0.contains("schema") => (ErrorCode::BadSchema, e.0),
                Err(e) => (ErrorCode::BadEnvelope, e.0),
                Ok(_) => (ErrorCode::NoHello, "first envelope must be hello".into()),
            }))
        }
    });
    let (session_from, session_cred, gateway) = match hello {
        Ok(session) => session,
        Err(close) => {
            if let Some((code, detail)) = close {
                send_direct(
                    conn.stream.get_mut(),
                    &Reply::Error {
                        code,
                        detail,
                        id: None,
                        retry_ms: None,
                    },
                );
            }
            return;
        }
    };

    // Register the reply path and spawn the writer.
    let lane = Arc::new(ReplyLane::new(shared.cfg.reply_buffer));
    let writer = match conn.stream.get_ref().try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    shared
        .clients
        .lock()
        .expect("client registry poisoned")
        .insert(
            client,
            ClientHandle {
                lane: Arc::clone(&lane),
            },
        );
    let writer_handle = {
        let lane = Arc::clone(&lane);
        let shared2 = Arc::clone(shared_arc);
        std::thread::Builder::new()
            .name(format!("reweb-net-write-{client}"))
            .spawn(move || writer_loop(writer, lane, shared2))
    };
    lane.push(
        ReplyClass::Control,
        Reply::Welcome {
            schema: crate::wire::WIRE_SCHEMA.into(),
            engine: shared.descriptor.clone(),
        }
        .encode(),
    );

    let mut bucket = shared
        .cfg
        .rate_limit
        .map(|l| TokenBucket::new(l, Instant::now()));
    // Cached per connection: queue-wait stamping checks the enabled
    // flag on every event, and the flag lives inside the shared `Obs`.
    let obs = shared.obs();
    let reply = |r: &Reply| {
        // Session replies are control-class: they go through the writer
        // lane so they order after earlier reactions, and they are never
        // dropped while the lane is open.
        if lane.push(ReplyClass::Control, r.encode()) == LanePush::Dropped {
            shared
                .counters
                .replies_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    };

    let close_err = loop {
        let payload = match next_frame(&mut conn, shared) {
            Ok(p) => p,
            Err(close) => break close,
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared
                    .counters
                    .envelope_errors
                    .fetch_add(1, Ordering::Relaxed);
                reply(&Reply::Error {
                    code: ErrorCode::BadEnvelope,
                    detail: e.0,
                    id: None,
                    retry_ms: None,
                });
                continue;
            }
        };
        let id = match req {
            Request::Hello { .. } => {
                shared
                    .counters
                    .envelope_errors
                    .fetch_add(1, Ordering::Relaxed);
                break Some((ErrorCode::NoHello, "hello repeated".into()));
            }
            Request::Bye => break None,
            Request::Sync { id } => {
                shared.queue.push_control(Item::Sync { client, id });
                continue;
            }
            Request::Stats { id } => {
                // Answered inline from shared atomics — never queued
                // behind the engine, so stats stay readable under
                // ingress pressure.
                let body = shared.obs().stats_term();
                reply(&Reply::Stats { id, body });
                continue;
            }
            Request::Trace { id, trace } => {
                let body = shared.obs().trace_term(trace);
                reply(&Reply::Trace { id, body });
                continue;
            }
            Request::Advance { id, .. }
            | Request::Event { id, .. }
            | Request::Deliver { id, .. } => id,
        };
        // Everything below is work for the driver: refused once the
        // server is shutting down.
        if shared.shutdown.load(Ordering::Acquire) {
            reply(&Reply::Error {
                code: ErrorCode::ShuttingDown,
                detail: "server is shutting down".into(),
                id: Some(id),
                retry_ms: Some(BackoffPolicy::BUSY.delay_ms(0)),
            });
            continue;
        }
        // A pushed delivery is attributed to the pushing peer's session
        // identity (it carries no per-event override); deduplication
        // and the `accepted` ack happen in the driver, *after* the
        // batch runs.
        let (key, from, credentials, at, payload) = match req {
            Request::Advance { at, .. } => {
                shared.queue.push_control(Item::Advance { client, id, at });
                continue;
            }
            Request::Event {
                from,
                credentials,
                at,
                payload,
                ..
            } => (None, from, credentials, at, payload),
            Request::Deliver {
                key, at, payload, ..
            } => (Some(key), None, None, at, payload),
            _ => unreachable!("answered above"),
        };
        if let Some(Admission::Throttled { retry_ms }) =
            bucket.as_mut().map(|b| b.admit(Instant::now()))
        {
            shared
                .counters
                .throttled_replies
                .fetch_add(1, Ordering::Relaxed);
            reply(&Reply::Throttled { id, retry_ms });
            continue;
        }
        let msg = match event_to_message(
            &session_from,
            &session_cred,
            gateway,
            &from,
            &credentials,
            payload,
            at.unwrap_or_else(wall_clock),
        ) {
            Ok(m) => m,
            Err(code) => {
                shared
                    .counters
                    .envelope_errors
                    .fetch_add(1, Ordering::Relaxed);
                reply(&Reply::Error {
                    code,
                    detail: "per-event from/cred requires a gateway session".into(),
                    id: Some(id),
                    retry_ms: None,
                });
                continue;
            }
        };
        match shared.queue.push_event(Item::Msg {
            client,
            id,
            msg,
            key,
            enq: obs.is_enabled().then(Instant::now),
        }) {
            Ok(depth) => {
                shared
                    .counters
                    .msgs_enqueued
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .queue_highwater
                    .fetch_max(depth as u64, Ordering::Relaxed);
            }
            Err(full) => {
                shared.counters.busy_replies.fetch_add(1, Ordering::Relaxed);
                reply(&Reply::Busy {
                    id,
                    depth: full.depth,
                    capacity: full.capacity,
                    retry_ms: BackoffPolicy::BUSY.delay_ms(0),
                });
            }
        }
    };

    if let Some((code, detail)) = close_err {
        reply(&Reply::Error {
            code,
            detail,
            id: None,
            retry_ms: None,
        });
    }
    // Unregister: the driver's future sends to this client become
    // counted drops; pending queue items still process (a mid-batch
    // disconnect never disturbs the batch). Closing the lane lets the
    // writer drain what is queued (the close error above included) and
    // exit.
    shared
        .clients
        .lock()
        .expect("client registry poisoned")
        .remove(&client);
    lane.close();
    if let Ok(h) = writer_handle {
        let _ = h.join();
    }
    let _ = conn.stream.get_ref().shutdown(std::net::Shutdown::Both);
}

/// The writer thread: drain reply frames from the lane to the socket
/// until the lane closes empty or the socket dies. A dead socket
/// discards whatever is still queued — counted, since those replies
/// were promised but never delivered.
fn writer_loop(mut stream: TcpStream, lane: Arc<ReplyLane>, shared: Arc<Shared>) {
    while let Some(frame) = lane.pop() {
        if stream.write_all(&frame).is_err() {
            let discarded = lane.close_and_discard();
            shared
                .counters
                .replies_dropped
                .fetch_add(discarded as u64 + 1, Ordering::Relaxed);
            return;
        }
    }
    let _ = stream.flush();
}

/// The driver thread: form batches, run the engine, route replies.
fn driver_loop(shared: Arc<Shared>) {
    // The ingress clock: event times are clamped monotone across the
    // whole stream, so a batch boundary can never reorder engine time.
    let mut last_at = Timestamp::ZERO;
    loop {
        let batch = shared
            .queue
            .pop_batch(shared.cfg.max_batch, BATCH_FILL_WAIT, &shared.shutdown);
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) && shared.queue.depth() == 0 {
                return;
            }
            continue;
        }
        let obs = shared.obs();
        let mut run_msgs: Vec<InMessage> = Vec::new();
        let mut run_tags: Vec<(u64, u64)> = Vec::new();
        let mut run_keys: Vec<Option<String>> = Vec::new();
        for item in batch {
            match item {
                Item::Msg {
                    client,
                    id,
                    mut msg,
                    key,
                    enq,
                } => {
                    if let Some(enq) = enq {
                        if obs.is_enabled() {
                            // Queue wait is infrastructure latency, not
                            // tied to one event's trace (ids are only
                            // assigned inside the engine) — spans land
                            // on the untraced chain, trace 0.
                            let dur = enq.elapsed().as_nanos() as u64;
                            obs.queue.record(dur);
                            let now = obs.now_ns();
                            obs.span(0, reweb_obs::Stage::QueueWait, now.saturating_sub(dur), dur);
                        }
                    }
                    if let Some(k) = &key {
                        // Deduplicate pushed deliveries before they
                        // reach the engine: against the ledger (all
                        // time) and against the current run (a retry
                        // that landed in the same batch).
                        let seen = shared
                            .ledger
                            .lock()
                            .expect("delivery ledger poisoned")
                            .contains(k)
                            || run_keys.iter().flatten().any(|k2| k2 == k);
                        if seen {
                            shared
                                .counters
                                .deliveries_duplicate
                                .fetch_add(1, Ordering::Relaxed);
                            send_accepted(&shared, client, id, true);
                            continue;
                        }
                    }
                    if msg.at < last_at {
                        msg.at = last_at;
                    } else {
                        last_at = msg.at;
                    }
                    run_msgs.push(msg);
                    run_tags.push((client, id));
                    run_keys.push(key);
                }
                Item::Advance { client, id, at } => {
                    flush_run(&shared, &mut run_msgs, &mut run_tags, &mut run_keys);
                    last_at = last_at.max(at);
                    let outcome = shared
                        .engine
                        .lock()
                        .expect("engine mutex poisoned")
                        .advance_time(at);
                    match outcome {
                        Ok(outs) => {
                            for o in outs {
                                route_reaction(&shared, client, id, at, o);
                            }
                        }
                        Err(e) => report_engine_error(&shared, &[(client, id)], &e),
                    }
                }
                Item::Sync { client, id } => {
                    flush_run(&shared, &mut run_msgs, &mut run_tags, &mut run_keys);
                    shared.send_to(client, ReplyClass::Control, Reply::Done { id }.encode());
                }
            }
        }
        flush_run(&shared, &mut run_msgs, &mut run_tags, &mut run_keys);
    }
}

/// Route one reaction the engine produced for request `id` of `client`:
/// count it, hand it to the attached delivery agent (when one is), and
/// send the submitter its `reaction` reply. `at` is the originating
/// event's time; the provenance trace id (0 = untraced) rides along so
/// the agent's outbox/round-trip spans join the same causal chain.
fn route_reaction(shared: &Shared, client: u64, id: u64, at: Timestamp, o: OutMessage) {
    shared
        .counters
        .reactions_out
        .fetch_add(1, Ordering::Relaxed);
    if let Some(h) = shared
        .delivery
        .lock()
        .expect("delivery handle poisoned")
        .as_ref()
    {
        let trace = o.provenance.as_ref().map_or(0, |p| p.trace);
        h.enqueue(&o.to, at, &o.payload, trace);
    }
    shared.send_to(
        client,
        ReplyClass::Data,
        Reply::Reaction {
            id,
            to: o.to,
            payload: o.payload,
        }
        .encode(),
    );
}

/// Hand one accumulated message run to the engine, route its tagged
/// outputs back to their submitters (and onward to the delivery agent),
/// then settle the run's pushed deliveries: record their keys in the
/// ledger and answer `accepted` — *after* the engine ran, so an ack is
/// never a lie.
fn flush_run(
    shared: &Shared,
    msgs: &mut Vec<InMessage>,
    tags: &mut Vec<(u64, u64)>,
    keys: &mut Vec<Option<String>>,
) {
    if msgs.is_empty() {
        return;
    }
    let outcome = shared
        .engine
        .lock()
        .expect("engine mutex poisoned")
        .receive_batch_tagged(msgs);
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .msgs_processed
        .fetch_add(msgs.len() as u64, Ordering::Relaxed);
    match outcome {
        Ok(tagged) => {
            for (k, o) in tagged {
                let (client, id) = tags[k as usize];
                route_reaction(shared, client, id, msgs[k as usize].at, o);
            }
            for (i, key) in keys.iter().enumerate() {
                if let Some(key) = key {
                    let (client, id) = tags[i];
                    shared
                        .ledger
                        .lock()
                        .expect("delivery ledger poisoned")
                        .record(key, &msgs[i].payload);
                    shared
                        .counters
                        .deliveries_ingested
                        .fetch_add(1, Ordering::Relaxed);
                    send_accepted(shared, client, id, false);
                }
            }
        }
        // Pushed deliveries in a refused run are deliberately *not*
        // recorded in the ledger — no ack goes out, the sender retries,
        // and a later successful run ingests them.
        Err(e) => report_engine_error(shared, tags, &e),
    }
    msgs.clear();
    tags.clear();
    keys.clear();
}

/// Ack one pushed delivery, flagged `dup` when its key had been ingested
/// before.
fn send_accepted(shared: &Shared, client: u64, id: u64, duplicate: bool) {
    let ack = Reply::Accepted { id, duplicate };
    shared.send_to(client, ReplyClass::Control, ack.encode());
}

/// Count one engine refusal and answer it. Attribution is lost when a
/// whole batch is refused, so every submitter in `tags` hears about it
/// once, under its first request's id.
fn report_engine_error(shared: &Shared, tags: &[(u64, u64)], e: &dyn std::fmt::Display) {
    shared
        .counters
        .engine_errors
        .fetch_add(1, Ordering::Relaxed);
    let detail = e.to_string();
    let mut told = std::collections::HashSet::new();
    for &(client, id) in tags {
        if told.insert(client) {
            shared.send_to(
                client,
                ReplyClass::Control,
                Reply::Error {
                    code: ErrorCode::Engine,
                    detail: detail.clone(),
                    id: Some(id),
                    retry_ms: None,
                }
                .encode(),
            );
        }
    }
}
