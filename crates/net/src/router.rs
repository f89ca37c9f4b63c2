//! The ingress router's heart: a bounded global queue with batch
//! formation under size *and* latency bounds.
//!
//! Every connection's reader thread pushes decoded work items here; the
//! single driver thread pops them in arrival order as batches. The queue
//! is the backpressure point (modeled on the boundary-router pattern:
//! admission is decided at the edge, with an explicit reply, not by
//! letting buffers grow): an event arriving at a full queue is rejected
//! with a `busy` reply and is **not** enqueued. Control items (`sync`
//! markers, clock advances) bypass the capacity check — they are
//! client-bounded and rejecting them would deadlock lockstep clients.
//!
//! The queue wakes its driver only when the driver can act. Under the
//! queue mutex it keeps the depth its single waiter needs: 1 while
//! `IngressQueue::pop_batch` waits for a first item, `max_batch`
//! while a batch fills, none while the driver runs a batch. A push
//! notifies only when the depth reaches that value, so a batch filling
//! over [`BATCH_FILL_WAIT`] costs the driver one wake-up, not one per
//! arrival. Two counters in [`crate::IngressStats`] count the stages
//! that feed this hand-off: `socket_reads` (read calls on the
//! connection sockets) and `driver_wakeups` (waits in `pop_batch` that
//! a push ended, as opposed to a timeout).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use reweb_core::InMessage;
use reweb_term::Timestamp;

use crate::limit::RateLimit;

/// How long the driver waits for a batch to fill before running a
/// partial one (the latency bound of batch formation). Fixed: every
/// deployment and test ran with this one value.
pub const BATCH_FILL_WAIT: Duration = Duration::from_millis(1);

/// Tuning knobs of a [`crate::NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest batch handed to the engine in one call (batches that do
    /// not fill run after [`BATCH_FILL_WAIT`]).
    pub max_batch: usize,
    /// Global ingress queue capacity; events beyond it get `busy`
    /// replies.
    pub queue_capacity: usize,
    /// Largest accepted frame body, in bytes. A frame header announcing
    /// more closes the connection: the body is never allocated as a
    /// payload or parsed, and at most one read buffer of it is taken
    /// off the socket (the body-limit pattern: never allocate for what
    /// you already know you will reject).
    pub max_body: usize,
    /// Per-connection reply buffer for *reaction* frames. A slow reader
    /// whose buffer is full has further reactions *dropped* (counted in
    /// [`crate::IngressStats::replies_dropped`]) rather than stalling
    /// the driver — degradation is per-connection, never engine-wide.
    /// Protocol replies (`welcome`/`done`/`error`/`busy`/`throttled`)
    /// are never dropped while the connection lives: they are
    /// flow-control-critical (a lockstep client blocks on `done`), and
    /// each answers one request the client itself sent, so their
    /// buffering is bounded by the client's own traffic.
    pub reply_buffer: usize,
    /// Per-connection event admission rate; `None` disables limiting.
    pub rate_limit: Option<RateLimit>,
    /// Connection cap: a `connect` beyond this many open sessions is
    /// refused at accept with `error{code["busy"]}` + `retry_ms` and
    /// closed before any `hello`. `None` disables the cap.
    pub max_connections: Option<usize>,
    /// Path of the delivery ledger journal (ingested delivery keys).
    /// `None` keeps the receiver's deduplication set in memory only —
    /// a restart then forgets which pushed reactions it already
    /// ingested, so pair a journal with every durable engine.
    pub delivery_journal: Option<std::path::PathBuf>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_batch: 256,
            queue_capacity: 4096,
            max_body: 1 << 20,
            rate_limit: None,
            reply_buffer: 1024,
            max_connections: None,
            delivery_journal: None,
        }
    }
}

/// One unit of work a connection enqueued for the driver.
#[derive(Debug)]
pub(crate) enum Item {
    /// A decoded event bound for the engine.
    Msg {
        /// Connection id of the submitter (reply routing key).
        client: u64,
        /// The request's correlation id.
        id: u64,
        /// The decoded message.
        msg: InMessage,
        /// Set when this is a pushed delivery (`deliver` request): the
        /// deduplication key. The driver checks it against the ledger,
        /// ingests at most once, and answers `accepted` only after the
        /// batch ran.
        key: Option<String>,
        /// Enqueue stamp for the queue-wait histogram. Stamped only
        /// while observability is enabled — `None` costs nothing on the
        /// disabled path.
        enq: Option<Instant>,
    },
    /// An explicit clock advance.
    Advance {
        /// Connection id of the submitter.
        client: u64,
        /// The request's correlation id.
        id: u64,
        /// Target engine time.
        at: Timestamp,
    },
    /// A flush marker: answer `done{id}` once everything ahead of it is
    /// processed.
    Sync {
        /// Connection id of the submitter.
        client: u64,
        /// The marker's correlation id.
        id: u64,
    },
}

/// Why [`IngressQueue::push_event`] refused an event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueFull {
    /// Depth observed at rejection time.
    pub depth: u64,
    /// The configured capacity.
    pub capacity: u64,
}

/// The bounded arrival-order queue between reader threads and the
/// driver.
pub(crate) struct IngressQueue {
    inner: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

/// What the queue mutex guards.
struct QueueState {
    items: VecDeque<Item>,
    /// The depth at which the waiting driver can act, `None` while no
    /// driver waits. The push that reaches it notifies and clears it.
    wake_at: Option<usize>,
    /// Waits in `pop_batch` that ended on a notify, not a timeout.
    wakeups: u64,
}

impl IngressQueue {
    pub(crate) fn new(capacity: usize) -> IngressQueue {
        IngressQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                wake_at: None,
                wakeups: 0,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Admit one event, unless the queue is at capacity. Returns the
    /// queue depth *after* the push on success.
    pub(crate) fn push_event(&self, item: Item) -> Result<usize, QueueFull> {
        let q = self.inner.lock().expect("ingress queue poisoned");
        if q.items.len() >= self.capacity {
            return Err(QueueFull {
                depth: q.items.len() as u64,
                capacity: self.capacity as u64,
            });
        }
        Ok(self.push(q, item))
    }

    /// Enqueue a control item (`sync`/`advance`): always admitted, so a
    /// lockstep client can always flush even against a full queue. Like
    /// an event, it wakes the driver only at the depth the driver waits
    /// for: a control item does not end a batch's fill early.
    pub(crate) fn push_control(&self, item: Item) {
        let q = self.inner.lock().expect("ingress queue poisoned");
        self.push(q, item);
    }

    /// Append `item` under the held lock and wake the driver if this
    /// push reaches the depth it waits for. Returns the depth after the
    /// push.
    fn push(&self, mut q: MutexGuard<'_, QueueState>, item: Item) -> usize {
        q.items.push_back(item);
        let depth = q.items.len();
        let wake = q.wake_at.is_some_and(|n| depth >= n);
        if wake {
            q.wake_at = None;
        }
        drop(q);
        if wake {
            self.cv.notify_one();
        }
        depth
    }

    /// Block on the condvar until a push reaches depth `wake_at` or
    /// `timeout` passes, counting a wait that a push ended.
    fn wait<'a>(
        &self,
        mut q: MutexGuard<'a, QueueState>,
        wake_at: usize,
        timeout: Duration,
    ) -> MutexGuard<'a, QueueState> {
        q.wake_at = Some(wake_at);
        let (mut q, res) = self
            .cv
            .wait_timeout(q, timeout)
            .expect("ingress queue poisoned");
        q.wake_at = None;
        if !res.timed_out() {
            q.wakeups += 1;
        }
        q
    }

    /// Pop the next batch: blocks until at least one item is queued (or
    /// `shutdown` is raised), then waits up to `latency` for the batch
    /// to fill to `max_batch` before draining what is there. On
    /// shutdown the remaining items drain immediately — in-flight work
    /// is finished, not dropped.
    pub(crate) fn pop_batch(
        &self,
        max_batch: usize,
        latency: Duration,
        shutdown: &AtomicBool,
    ) -> Vec<Item> {
        let mut q = self.inner.lock().expect("ingress queue poisoned");
        // Phase 1: wait for the first item.
        while q.items.is_empty() {
            if shutdown.load(Ordering::Acquire) {
                return Vec::new();
            }
            q = self.wait(q, 1, Duration::from_millis(20));
        }
        // Phase 2: give the batch `latency` to fill.
        let deadline = Instant::now() + latency;
        while q.items.len() < max_batch && !shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            q = self.wait(q, max_batch, deadline - now);
        }
        let n = q.items.len().min(max_batch);
        q.items.drain(..n).collect()
    }

    /// Current queue depth (diagnostics).
    pub(crate) fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("ingress queue poisoned")
            .items
            .len()
    }

    /// Waits in [`IngressQueue::pop_batch`] that a push ended.
    pub(crate) fn driver_wakeups(&self) -> u64 {
        self.inner.lock().expect("ingress queue poisoned").wakeups
    }
}

/// Reply frame class — determines the lane's admission rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyClass {
    /// A reaction: droppable under backpressure (bounded buffer).
    Data,
    /// A protocol reply (`welcome`/`done`/`error`/`busy`/`throttled`):
    /// never dropped while the lane is open — lockstep clients block on
    /// these.
    Control,
}

/// How a [`ReplyLane`] push ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LanePush {
    /// The frame is queued for the writer.
    Queued,
    /// The frame was dropped (full data buffer, or a closed lane).
    Dropped,
}

/// The per-connection outbound queue, mirroring the ingress discipline
/// in the other direction: *data* frames (reactions) are bounded and
/// dropped when the reader is slow; *control* frames always enqueue —
/// each answers one request the client sent, so their buffering is
/// bounded by the client's own traffic — up to a hard cap that closes
/// the lane (a client that never reads at all). One queue for both
/// classes, so reply order is preserved: a `done` never overtakes the
/// reactions it fences.
pub(crate) struct ReplyLane {
    inner: Mutex<LaneState>,
    cv: Condvar,
    data_cap: usize,
    control_cap: usize,
}

struct LaneState {
    frames: VecDeque<(ReplyClass, Vec<u8>)>,
    data: usize,
    control: usize,
    closed: bool,
}

impl ReplyLane {
    /// A lane buffering up to `data_cap` reaction frames; the control
    /// hard cap scales with it.
    pub(crate) fn new(data_cap: usize) -> ReplyLane {
        let data_cap = data_cap.max(1);
        ReplyLane {
            inner: Mutex::new(LaneState {
                frames: VecDeque::new(),
                data: 0,
                control: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            data_cap,
            // Far above any live client's outstanding requests; only a
            // connection that stopped reading entirely can reach it.
            control_cap: 4096 + 64 * data_cap,
        }
    }

    /// Queue one frame under its class's admission rule. A control
    /// overflow marks the lane closed (further pushes drop); frames
    /// already queued still drain to the writer.
    pub(crate) fn push(&self, class: ReplyClass, frame: Vec<u8>) -> LanePush {
        let mut s = self.inner.lock().expect("reply lane poisoned");
        if s.closed {
            return LanePush::Dropped;
        }
        match class {
            ReplyClass::Data => {
                if s.data >= self.data_cap {
                    return LanePush::Dropped;
                }
                s.data += 1;
            }
            ReplyClass::Control => {
                if s.control >= self.control_cap {
                    s.closed = true;
                    drop(s);
                    self.cv.notify_all();
                    return LanePush::Dropped;
                }
                s.control += 1;
            }
        }
        s.frames.push_back((class, frame));
        drop(s);
        self.cv.notify_one();
        LanePush::Queued
    }

    /// Next frame for the writer: blocks while the lane is open and
    /// empty; drains queued frames even after close; `None` once closed
    /// *and* empty.
    pub(crate) fn pop(&self) -> Option<Vec<u8>> {
        let mut s = self.inner.lock().expect("reply lane poisoned");
        loop {
            if let Some((class, frame)) = s.frames.pop_front() {
                match class {
                    ReplyClass::Data => s.data -= 1,
                    ReplyClass::Control => s.control -= 1,
                }
                return Some(frame);
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).expect("reply lane poisoned");
        }
    }

    /// Close the lane: pushes drop from now on, the writer drains what
    /// is queued and exits.
    pub(crate) fn close(&self) {
        let mut s = self.inner.lock().expect("reply lane poisoned");
        s.closed = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Close and discard everything queued (the socket is dead, nothing
    /// can be delivered). Returns how many frames were thrown away.
    pub(crate) fn close_and_discard(&self) -> usize {
        let mut s = self.inner.lock().expect("reply lane poisoned");
        s.closed = true;
        s.data = 0;
        s.control = 0;
        let n = s.frames.len();
        s.frames.clear();
        drop(s);
        self.cv.notify_all();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_core::MessageMeta;
    use reweb_term::Term;

    fn item(i: u64) -> Item {
        Item::Msg {
            client: 1,
            id: i,
            msg: InMessage::new(Term::elem("e"), MessageMeta::local(), Timestamp(i)),
            key: None,
            enq: None,
        }
    }

    #[test]
    fn capacity_rejects_events_but_not_controls() {
        let q = IngressQueue::new(2);
        assert!(q.push_event(item(1)).is_ok());
        assert!(q.push_event(item(2)).is_ok());
        let full = q.push_event(item(3)).unwrap_err();
        assert_eq!((full.depth, full.capacity), (2, 2));
        q.push_control(Item::Sync { client: 1, id: 9 });
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn pop_batch_respects_size_bound_and_order() {
        let q = IngressQueue::new(16);
        for i in 0..5 {
            q.push_event(item(i)).unwrap();
        }
        let shutdown = AtomicBool::new(false);
        let batch = q.pop_batch(3, Duration::from_millis(0), &shutdown);
        assert_eq!(batch.len(), 3);
        match &batch[0] {
            Item::Msg { id, .. } => assert_eq!(*id, 0),
            other => panic!("unexpected {other:?}"),
        }
        let rest = q.pop_batch(16, Duration::from_millis(0), &shutdown);
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn shutdown_unblocks_an_empty_pop() {
        let q = IngressQueue::new(16);
        let shutdown = AtomicBool::new(true);
        assert!(q
            .pop_batch(16, Duration::from_millis(1), &shutdown)
            .is_empty());
    }

    /// Spin until the driver waits for depth `n`: the interleaving a
    /// wake test checks (a push while the driver waits) is forced, not
    /// slept into.
    fn until_waiting_for(q: &IngressQueue, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while q.inner.lock().expect("queue").wake_at != Some(n) {
            assert!(Instant::now() < deadline, "driver never waited for {n}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_full_batch_ends_the_fill_wait() {
        let q = IngressQueue::new(16);
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            let driver = s.spawn(|| {
                let t0 = Instant::now();
                let batch = q.pop_batch(4, Duration::from_secs(30), &shutdown);
                (batch.len(), t0.elapsed())
            });
            q.push_event(item(0)).unwrap();
            until_waiting_for(&q, 4);
            for i in 1..4 {
                q.push_event(item(i)).unwrap();
            }
            let (n, took) = driver.join().expect("driver");
            assert_eq!(n, 4);
            assert!(took < Duration::from_secs(10), "fill ran {took:?}");
        });
    }

    #[test]
    fn a_first_item_wakes_an_idle_driver() {
        // A poll that times out between the test's check and its push
        // takes the item without a wake-up; another round rules that
        // out, while a missing wake fails every round.
        let woken = (0..3).any(|_| {
            let q = IngressQueue::new(16);
            let shutdown = AtomicBool::new(false);
            std::thread::scope(|s| {
                let driver = s.spawn(|| q.pop_batch(1, Duration::from_secs(30), &shutdown));
                until_waiting_for(&q, 1);
                q.push_event(item(0)).unwrap();
                assert_eq!(driver.join().expect("driver").len(), 1);
            });
            q.driver_wakeups() == 1
        });
        assert!(woken, "the first item never woke the waiting driver");
    }

    #[test]
    fn pushes_below_the_batch_size_do_not_wake_a_filling_driver() {
        let q = IngressQueue::new(16);
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            let driver = s.spawn(|| q.pop_batch(8, Duration::from_secs(30), &shutdown));
            q.push_event(item(0)).unwrap();
            until_waiting_for(&q, 8);
            let filling = q.driver_wakeups();
            for i in 1..8 {
                // Each push lands while the driver waits; only the one
                // that completes the batch may wake it. The pause gives
                // a wrongly woken driver time to count its wake-up; the
                // right count does not depend on it.
                until_waiting_for(&q, 8);
                if i == 7 {
                    q.push_control(Item::Sync { client: 1, id: i });
                } else {
                    q.push_event(item(i)).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            assert_eq!(driver.join().expect("driver").len(), 8);
            assert_eq!(q.driver_wakeups(), filling + 1);
        });
    }

    #[test]
    fn reply_lane_bounds_data_but_not_control() {
        let lane = ReplyLane::new(2);
        assert_eq!(lane.push(ReplyClass::Data, vec![1]), LanePush::Queued);
        assert_eq!(lane.push(ReplyClass::Data, vec![2]), LanePush::Queued);
        assert_eq!(lane.push(ReplyClass::Data, vec![3]), LanePush::Dropped);
        // Control frames ignore the data bound entirely.
        assert_eq!(lane.push(ReplyClass::Control, vec![4]), LanePush::Queued);
        // Order is preserved across classes.
        assert_eq!(lane.pop(), Some(vec![1]));
        assert_eq!(lane.pop(), Some(vec![2]));
        // A pop frees a data slot.
        assert_eq!(lane.push(ReplyClass::Data, vec![5]), LanePush::Queued);
        assert_eq!(lane.pop(), Some(vec![4]));
        assert_eq!(lane.pop(), Some(vec![5]));
    }

    #[test]
    fn reply_lane_drains_after_close_then_ends() {
        let lane = ReplyLane::new(4);
        lane.push(ReplyClass::Control, vec![1]);
        lane.close();
        assert_eq!(lane.push(ReplyClass::Control, vec![2]), LanePush::Dropped);
        assert_eq!(lane.pop(), Some(vec![1]));
        assert_eq!(lane.pop(), None);
    }

    #[test]
    fn reply_lane_control_overflow_closes() {
        let lane = ReplyLane::new(1);
        let cap = 4096 + 64; // control cap for data_cap = 1
        for _ in 0..cap {
            assert_eq!(lane.push(ReplyClass::Control, vec![0]), LanePush::Queued);
        }
        assert_eq!(lane.push(ReplyClass::Control, vec![0]), LanePush::Dropped);
        assert_eq!(lane.push(ReplyClass::Data, vec![0]), LanePush::Dropped);
        assert_eq!(lane.close_and_discard(), cap);
        assert_eq!(lane.pop(), None);
    }
}
