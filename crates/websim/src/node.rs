//! Web nodes: engines, resource servers, pollers, sinks, and TCP
//! fronts.

use std::path::{Path, PathBuf};

use reweb_core::ReactiveEngine;
use reweb_net::wire::Reply;
use reweb_net::NetClient;
use reweb_persist::log::{read_frames, FrameLog};
use reweb_persist::{DurableEngine, DurableOptions};
use reweb_term::{diff_documents, Dur, IdentityMode, ResourceStore, Term, Timestamp};

use crate::envelope::Envelope;

/// What a node does with the messages and timers it receives.
pub enum NodeKind {
    /// A reactive node: rules processed locally (Thesis 2), by one
    /// engine with an optional journal ([`EngineNode`]).
    Engine(EngineNode),
    /// A passive resource server: answers `GET`s, ignores `POST`s.
    Store(ResourceStore),
    /// A polling observer (the Thesis 3 baseline).
    Poller(Poller),
    /// Records every delivery, for tests and latency measurements.
    Sink(Vec<(Timestamp, Envelope)>),
    /// A node whose engine is served over real TCP by a
    /// `reweb_net::NetServer` ([`NetFront`]): simulated deliveries cross
    /// the wire protocol and the engine's reactions re-enter the
    /// simulation as ordinary posts.
    Net(NetFront),
}

impl NodeKind {
    /// The store served to `GET` requests, if this node has one.
    pub fn store(&self) -> Option<&ResourceStore> {
        match self {
            NodeKind::Engine(_) => self.as_engine().map(|e| &e.qe.store),
            NodeKind::Store(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to a resource server's store. Engine nodes store
    /// through their engine, which logs the write when it has a journal.
    pub fn store_mut(&mut self) -> Option<&mut ResourceStore> {
        match self {
            NodeKind::Store(s) => Some(s),
            _ => None,
        }
    }

    /// The engine, if this is an engine node (`None` while a journalled
    /// node is crashed).
    pub fn as_engine(&self) -> Option<&ReactiveEngine> {
        match self {
            NodeKind::Engine(n) => n.engine().map(DurableEngine::engine),
            _ => None,
        }
    }

    /// The recorded deliveries, if this node is an [`NodeKind::Sink`].
    pub fn as_sink(&self) -> Option<&[(Timestamp, Envelope)]> {
        match self {
            NodeKind::Sink(v) => Some(v),
            _ => None,
        }
    }
}

/// A reactive node: one engine and, when its inputs are logged, the
/// directory of its journal. Killing a journalled node drops its
/// in-memory engine (the log survives) and recovering it reopens the
/// [`DurableEngine`] from disk, replaying rules, state, and pending
/// absence deadlines exactly as the persistence tier guarantees. A node
/// without a journal keeps its engine across a kill and only stops
/// receiving while down.
pub struct EngineNode {
    pub(crate) uri: String,
    pub(crate) journal: Option<(PathBuf, DurableOptions)>,
    /// `None` while a journalled node is crashed.
    pub(crate) engine: Option<Box<DurableEngine>>,
}

impl EngineNode {
    /// The running engine with its optional journal, `None` while the
    /// node is crashed.
    pub fn engine(&self) -> Option<&DurableEngine> {
        self.engine.as_deref()
    }

    /// Simulate a crash: drop a journalled engine. The log directory
    /// survives; whatever was synced is what recovery will see.
    pub(crate) fn kill(&mut self) {
        if self.journal.is_some() {
            self.engine = None;
        }
    }

    /// Reopen a crashed engine from its log directory (crash recovery).
    pub(crate) fn recover(&mut self) -> reweb_persist::Result<()> {
        let Some((dir, opts)) = self.journal.as_ref().filter(|_| self.engine.is_none()) else {
            return Ok(());
        };
        let uri = self.uri.clone();
        let eng = DurableEngine::open(dir, *opts, move || ReactiveEngine::new(uri))?;
        self.engine = Some(Box::new(eng));
        Ok(())
    }

    /// Journal one delivery lost while this node was down (nothing
    /// without a journal directory). The count lives beside the WAL
    /// (CRC-framed, one `lost{at[…]}` record per loss) so
    /// `NetMetrics::lost_while_down` survives a simulation restart over
    /// the same directory — the counter is durability accounting, and
    /// accounting that forgets losses across the very crash that caused
    /// them is useless. Best-effort: the node is *down*; a journaling
    /// failure must not take the simulation with it. Opening heals a torn
    /// tail left by an earlier crash, so the new record is never written
    /// behind garbage.
    pub(crate) fn journal_lost(&self, at: Timestamp) {
        let Some((dir, _)) = &self.journal else {
            return;
        };
        let Ok(mut log) = FrameLog::open(&EngineNode::lost_journal_path(dir)).map(|open| open.log)
        else {
            return;
        };
        let bytes = Term::build("lost")
            .unordered()
            .field("at", at.millis().to_string())
            .finish()
            .to_string()
            .into_bytes();
        if log.append(&bytes).is_ok() {
            let _ = log.sync();
        }
    }

    /// The loss journal's path inside a node's log directory.
    pub(crate) fn lost_journal_path(dir: &Path) -> PathBuf {
        dir.join("lost.log")
    }

    /// Replay the loss journal of `dir`: how many deliveries were lost
    /// while the node logging there was down, across every incarnation.
    /// A torn tail (crash mid-append) drops only the torn record.
    pub fn lost_journal_count(dir: &Path) -> u64 {
        read_frames(&EngineNode::lost_journal_path(dir)).map_or(0, |f| f.len() as u64)
    }
}

/// The TCP front of a [`NodeKind::Net`] node: a gateway session on a
/// `reweb_net::NetServer`, so each simulated delivery keeps its original
/// sender and credentials on the wire.
///
/// Determinism: every forwarded event and clock advance is fenced with a
/// `sync` round-trip before the simulation's clock moves, so the remote
/// engine's reactions arrive in a fixed order at a fixed virtual time.
/// The remote engine's absence deadlines are invisible to the
/// simulation's deadline scan — schedule explicit wakeups
/// (`Simulation::schedule_wakeup`) where their timing matters; otherwise
/// they fire at the next clock advance.
pub struct NetFront {
    /// `None` while the connection is killed (fault injection).
    client: Option<NetClient>,
    /// Reconnect coordinates for [`Simulation::recover_node`].
    addr: std::net::SocketAddr,
    from: String,
}

impl NetFront {
    /// Wrap an established gateway session, remembering the reconnect
    /// coordinates so a killed front can be recovered.
    pub fn new(client: NetClient, addr: std::net::SocketAddr, from: impl Into<String>) -> NetFront {
        NetFront {
            client: Some(client),
            addr,
            from: from.into(),
        }
    }

    /// True while the TCP session is down (killed and not recovered).
    pub fn is_down(&self) -> bool {
        self.client.is_none()
    }

    /// Simulate a connection failure: drop the TCP session without a
    /// `bye`. Deliveries forwarded while down are lost, as they would be
    /// on a real partition.
    pub(crate) fn kill(&mut self) {
        self.client = None;
    }

    /// Re-establish the gateway session after a kill.
    pub(crate) fn recover(&mut self) -> std::io::Result<()> {
        if self.client.is_some() {
            return Ok(());
        }
        self.client = Some(NetClient::connect_with(
            self.addr,
            self.from.clone(),
            None,
            true,
        )?);
        Ok(())
    }

    /// Collect `(to, payload)` reactions from a fenced flush.
    fn drain(&mut self) -> Vec<(String, Term)> {
        let Some(client) = self.client.as_mut() else {
            return Vec::new();
        };
        match client.sync() {
            Ok(replies) => replies
                .into_iter()
                .filter_map(|r| match r {
                    Reply::Reaction { to, payload, .. } => Some((to, payload)),
                    // Errors and backpressure replies degrade the remote
                    // engine to silence for this delivery — the simulated
                    // Web drops messages, it does not crash.
                    _ => None,
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Forward one simulated delivery over the wire and return the
    /// remote engine's reactions.
    pub(crate) fn forward(&mut self, env: &Envelope, now: Timestamp) -> Vec<(String, Term)> {
        let Some(client) = self.client.as_mut() else {
            return Vec::new();
        };
        if client
            .send_event_as(
                env.from.clone(),
                env.credentials.clone(),
                env.body.clone(),
                Some(now),
            )
            .is_err()
        {
            return Vec::new();
        }
        self.drain()
    }

    /// Advance the remote engine's clock (absence deadlines) and return
    /// what fired.
    pub(crate) fn advance(&mut self, at: Timestamp) -> Vec<(String, Term)> {
        let Some(client) = self.client.as_mut() else {
            return Vec::new();
        };
        if client.advance(at).is_err() {
            return Vec::new();
        }
        self.drain()
    }
}

/// A periodic poller: `GET`s a remote resource, diffs it against the last
/// snapshot under the configured identity mode (Thesis 10), and sends the
/// changes as events to a notify target.
///
/// This is the pull-based observer Thesis 3 compares against push: its
/// traffic grows with `1/interval` whether or not anything changed, and
/// its reaction latency is up to a full interval.
pub struct Poller {
    /// Resource to watch (owned by whichever node's URI prefixes it).
    pub target: String,
    /// Polling period.
    pub interval: Dur,
    /// Node to send `changed{…}` events to.
    pub notify: String,
    /// Identity mode the diff runs under (Thesis 10).
    pub mode: IdentityMode,
    /// Snapshot from the previous poll (`None` before the first).
    pub last_seen: Option<Term>,
    /// Skip the diff when the resource version is unchanged (cheap
    /// version probe — still a round-trip on the wire).
    pub last_version: Option<u64>,
}

impl Poller {
    /// A poller with no baseline snapshot yet.
    pub fn new(
        target: impl Into<String>,
        interval: Dur,
        notify: impl Into<String>,
        mode: IdentityMode,
    ) -> Poller {
        Poller {
            target: target.into(),
            interval,
            notify: notify.into(),
            mode,
            last_seen: None,
            last_version: None,
        }
    }

    /// Process one fetched snapshot; returns the change-event payloads to
    /// send (empty on the first observation or when nothing changed).
    pub fn observe(&mut self, doc: &Term, version: u64) -> Vec<Term> {
        if self.last_version == Some(version) {
            return Vec::new();
        }
        self.last_version = Some(version);
        let out = match &self.last_seen {
            None => Vec::new(),
            Some(prev) => diff_documents(prev, doc, &self.mode)
                .into_iter()
                .map(|c| c.to_event_payload(&self.target))
                .collect(),
        };
        self.last_seen = Some(doc.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    #[test]
    fn poller_detects_changes_between_snapshots() {
        let mut p = Poller::new(
            "http://news/front",
            Dur::secs(30),
            "http://watcher",
            IdentityMode::surrogate(),
        );
        let v1 = parse_term("news[article{@id=\"a1\", title[\"old\"]}]").unwrap();
        let v2 = parse_term("news[article{@id=\"a1\", title[\"new\"]}]").unwrap();
        // First observation: baseline only.
        assert!(p.observe(&v1, 1).is_empty());
        // Same version: cheap skip.
        assert!(p.observe(&v1, 1).is_empty());
        // Changed version: one modification event.
        let events = p.observe(&v2, 2);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label(), Some("changed"));
        assert!(events[0].to_string().contains("modified"));
    }

    #[test]
    fn poller_under_extensional_identity_sees_delete_insert() {
        let mut p = Poller::new(
            "http://news/front",
            Dur::secs(30),
            "http://watcher",
            IdentityMode::Extensional,
        );
        let v1 = parse_term("news[article{@id=\"a1\", title[\"old\"]}]").unwrap();
        let v2 = parse_term("news[article{@id=\"a1\", title[\"new\"]}]").unwrap();
        p.observe(&v1, 1);
        let events = p.observe(&v2, 2);
        assert_eq!(events.len(), 2, "identity lost: delete + insert");
    }

    #[test]
    fn node_kind_accessors() {
        let mut store = ResourceStore::new();
        store.put("u", Term::elem("d"));
        let n = NodeKind::Store(store);
        assert!(n.store().is_some());
        assert!(n.as_engine().is_none());
        let n = NodeKind::Sink(Vec::new());
        assert!(n.store().is_none());
        assert!(n.as_sink().is_some());
    }
}
