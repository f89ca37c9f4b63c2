//! The discrete-event simulation: scheduled deliveries, polls, wakeups,
//! and resource updates over a virtual clock.
//!
//! Determinism: the event queue orders by (time, sequence number), and the
//! only randomness — latency jitter — comes from a seeded RNG. Two runs
//! with the same seed are identical, which is what makes the experiment
//! tables reproducible.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reweb_core::{Credentials, MessageMeta, OutMessage, ReactiveEngine};
use reweb_persist::{DurableEngine, DurableOptions};
use reweb_term::{Dur, IdentityMode, ResourceStore, Term, Timestamp};

use crate::envelope::Envelope;
use crate::node::{EngineNode, NetFront, NodeKind, Poller};

/// Network traffic and delivery statistics (experiments E2, E3).
#[derive(Clone, Debug, Default)]
pub struct NetMetrics {
    /// Push deliveries (`POST`s).
    pub posts: u64,
    /// Poll round-trips (`GET`s; each counts two wire messages).
    pub gets: u64,
    /// Total wire messages (posts + 2×gets).
    pub messages: u64,
    /// Total wire bytes ([`Envelope::wire_size`]).
    pub bytes: u64,
    /// Deliveries to unknown nodes.
    pub dropped: u64,
    /// Deliveries lost because the destination node was down (killed by
    /// fault injection and not yet recovered) when they arrived.
    pub lost_while_down: u64,
    /// Messages sent, per sending node.
    pub sent_by_node: BTreeMap<String, u64>,
    /// Messages delivered, per receiving node.
    pub received_by_node: BTreeMap<String, u64>,
    /// (recipient, transit time) per delivery.
    pub delivery_latencies: Vec<(String, Dur)>,
}

enum Task {
    Deliver(Envelope),
    Poll { node: String },
    Wakeup { node: String },
    UpdateResource { uri: String, doc: Term },
}

struct Scheduled {
    at: Timestamp,
    seq: u64,
    task: Task,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulated Web.
pub struct Simulation {
    nodes: BTreeMap<String, NodeKind>,
    /// resource URI → (notify node, identity mode) push subscriptions.
    push_subs: BTreeMap<String, Vec<(String, IdentityMode)>>,
    /// Credentials a node presents on its outbound messages.
    outgoing_creds: BTreeMap<String, Credentials>,
    /// Nodes currently killed by fault injection: deliveries to them are
    /// lost, their engines neither advance nor answer polls.
    down: BTreeSet<String>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    now: Timestamp,
    seq: u64,
    next_msg_id: u64,
    latency_base: Dur,
    jitter_ms: u64,
    rng: StdRng,
    /// Traffic and delivery counters.
    pub metrics: NetMetrics,
}

impl Simulation {
    /// An empty simulated Web; `seed` drives the latency jitter.
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            nodes: BTreeMap::new(),
            push_subs: BTreeMap::new(),
            outgoing_creds: BTreeMap::new(),
            down: BTreeSet::new(),
            queue: BinaryHeap::new(),
            now: Timestamp::ZERO,
            seq: 0,
            next_msg_id: 0,
            latency_base: Dur::millis(20),
            jitter_ms: 10,
            rng: StdRng::seed_from_u64(seed),
            metrics: NetMetrics::default(),
        }
    }

    /// Configure transit latency: `base` plus uniform jitter in
    /// `[0, jitter_ms]`.
    pub fn set_latency(&mut self, base: Dur, jitter_ms: u64) {
        self.latency_base = base;
        self.jitter_ms = jitter_ms;
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    // ----- topology -------------------------------------------------------

    /// Add a reactive node processing its rules locally, without a
    /// journal.
    pub fn add_engine(&mut self, uri: impl Into<String>, engine: ReactiveEngine) {
        let uri = uri.into();
        let node = EngineNode {
            uri: uri.clone(),
            journal: None,
            engine: Some(Box::new(engine.into())),
        };
        self.nodes.insert(uri, NodeKind::Engine(node));
    }

    /// Add a node whose engine is served over real TCP by a
    /// `reweb_net::NetServer` listening at `addr`. Connects a gateway
    /// session named after the node, so forwarded deliveries keep their
    /// simulated sender and credentials. See
    /// [`NetFront`] for the determinism contract
    /// (lockstep flushes; schedule wakeups for remote absence
    /// deadlines).
    pub fn add_net_engine(
        &mut self,
        uri: impl Into<String>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<()> {
        let uri = uri.into();
        let addr = std::net::ToSocketAddrs::to_socket_addrs(&addr)?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let client = reweb_net::NetClient::connect_with(addr, uri.clone(), None, true)?;
        self.nodes
            .insert(uri.clone(), NodeKind::Net(NetFront::new(client, addr, uri)));
        Ok(())
    }

    /// Add a reactive node whose engine is journalled to `dir` (a
    /// WAL-backed [`DurableEngine`]) — the target for
    /// [`Simulation::kill_node`] / [`Simulation::recover_node`] fault
    /// injection. On a fresh directory the `program` is installed (and
    /// logged); on an existing one the log is replayed and `program` is
    /// ignored, exactly as a restarted process would recover.
    pub fn add_durable_engine(
        &mut self,
        uri: impl Into<String>,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        program: &str,
    ) -> reweb_persist::Result<()> {
        let uri = uri.into();
        let u = uri.clone();
        let mut eng = DurableEngine::open(dir.as_ref(), opts, move || ReactiveEngine::new(u))?;
        if !eng.recovery().recovered {
            eng.install_program(program)?;
        }
        // Deliveries lost while previous incarnations of this node were
        // down were journaled beside its WAL; fold them back into the
        // metrics so the counter round-trips across a simulation
        // restart, exactly like the engine state does.
        self.metrics.lost_while_down += EngineNode::lost_journal_count(dir.as_ref());
        let node = EngineNode {
            uri: uri.clone(),
            journal: Some((dir.as_ref().to_path_buf(), opts)),
            engine: Some(Box::new(eng)),
        };
        self.nodes.insert(uri, NodeKind::Engine(node));
        Ok(())
    }

    // ----- fault injection --------------------------------------------------

    /// Kill `uri` mid-run: deliveries addressed to it are lost (counted
    /// in [`NetMetrics::lost_while_down`]), its engine neither advances
    /// nor answers polls. A journalled engine node drops its
    /// in-memory engine (the on-disk log survives, crash-style); a
    /// [`NodeKind::Net`] node drops its TCP session without a `bye`.
    /// Returns false if no such node exists.
    pub fn kill_node(&mut self, uri: &str) -> bool {
        let Some(node) = self.nodes.get_mut(uri) else {
            return false;
        };
        self.down.insert(uri.to_string());
        match node {
            NodeKind::Engine(n) => n.kill(),
            NodeKind::Net(f) => f.kill(),
            _ => {}
        }
        true
    }

    /// Recover a killed node: journalled engine nodes reopen their
    /// engine from the log (replaying to the pre-crash state), net nodes
    /// reconnect their gateway session. No-op for nodes that are up.
    pub fn recover_node(&mut self, uri: &str) -> std::io::Result<()> {
        let Some(node) = self.nodes.get_mut(uri) else {
            return Err(std::io::Error::other(format!("no node at {uri}")));
        };
        match node {
            NodeKind::Engine(n) => n.recover().map_err(std::io::Error::other)?,
            NodeKind::Net(f) => f.recover()?,
            _ => {}
        }
        self.down.remove(uri);
        Ok(())
    }

    /// True while `uri` is killed and not yet recovered.
    pub fn is_down(&self, uri: &str) -> bool {
        self.down.contains(uri)
    }

    /// Add a passive resource server.
    pub fn add_store(&mut self, uri: impl Into<String>, store: ResourceStore) {
        self.nodes.insert(uri.into(), NodeKind::Store(store));
    }

    /// Add a sink node recording every delivery.
    pub fn add_sink(&mut self, uri: impl Into<String>) {
        self.nodes.insert(uri.into(), NodeKind::Sink(Vec::new()));
    }

    /// Add a poller node; it polls immediately (taking its baseline
    /// snapshot) and then every interval.
    pub fn add_poller(&mut self, uri: impl Into<String>, poller: Poller) {
        let uri = uri.into();
        let at = self.now;
        self.nodes.insert(uri.clone(), NodeKind::Poller(poller));
        self.schedule(at, Task::Poll { node: uri });
    }

    /// Push subscription: whenever `resource` changes (via
    /// [`Simulation::schedule_update`]), the owner sends the diff as
    /// change events to `notify`.
    pub fn subscribe_push(
        &mut self,
        resource: impl Into<String>,
        notify: impl Into<String>,
        mode: IdentityMode,
    ) {
        self.push_subs
            .entry(resource.into())
            .or_default()
            .push((notify.into(), mode));
    }

    /// Credentials `node` presents on every outbound message.
    pub fn set_outgoing_credentials(&mut self, node: impl Into<String>, creds: Credentials) {
        self.outgoing_creds.insert(node.into(), creds);
    }

    /// The node registered at `uri`, if any.
    pub fn node(&self, uri: &str) -> Option<&NodeKind> {
        self.nodes.get(uri)
    }

    /// The engine at `uri`, if that node is an engine node (`None` while
    /// a journalled node is killed).
    pub fn engine(&self, uri: &str) -> Option<&ReactiveEngine> {
        self.nodes.get(uri).and_then(NodeKind::as_engine)
    }

    /// The engine at `uri` with its optional journal, if that node is an
    /// engine node (`None` while a journalled node is killed).
    pub fn durable(&self, uri: &str) -> Option<&DurableEngine> {
        match self.nodes.get(uri)? {
            NodeKind::Engine(n) => n.engine(),
            _ => None,
        }
    }

    /// Deliveries recorded at the sink `uri` (empty for non-sinks).
    pub fn sink(&self, uri: &str) -> &[(Timestamp, Envelope)] {
        self.nodes
            .get(uri)
            .and_then(NodeKind::as_sink)
            .unwrap_or(&[])
    }

    /// The node whose URI is the longest prefix of `uri` (resource
    /// ownership on this simulated Web).
    pub fn owner_of(&self, uri: &str) -> Option<&str> {
        self.nodes
            .keys()
            .filter(|n| uri.starts_with(n.as_str()))
            .max_by_key(|n| n.len())
            .map(|s| s.as_str())
    }

    // ----- scheduling -------------------------------------------------------

    fn schedule(&mut self, at: Timestamp, task: Task) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            task,
        }));
    }

    fn transit(&mut self) -> Dur {
        let jitter = if self.jitter_ms == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.jitter_ms)
        };
        self.latency_base + Dur::millis(jitter)
    }

    /// Send `payload` from one node to another at time `at` (push).
    pub fn post(&mut self, from: &str, to: &str, payload: Term, at: Timestamp) {
        self.next_msg_id += 1;
        let env = Envelope {
            from: from.to_string(),
            to: to.to_string(),
            sent_at: at,
            message_id: self.next_msg_id,
            credentials: self.outgoing_creds.get(from).cloned(),
            body: payload,
        };
        let arrive = at + self.transit();
        *self
            .metrics
            .sent_by_node
            .entry(from.to_string())
            .or_default() += 1;
        self.schedule(arrive, Task::Deliver(env));
    }

    /// Change a resource at time `at` (the external workload driver);
    /// triggers push notifications for subscribers.
    pub fn schedule_update(&mut self, resource_uri: impl Into<String>, doc: Term, at: Timestamp) {
        self.schedule(
            at,
            Task::UpdateResource {
                uri: resource_uri.into(),
                doc,
            },
        );
    }

    /// Wake an engine node at `at` (drives absence-rule deadlines).
    pub fn schedule_wakeup(&mut self, node: impl Into<String>, at: Timestamp) {
        self.schedule(at, Task::Wakeup { node: node.into() });
    }

    // ----- the main loop ----------------------------------------------------

    /// The earliest pending rule deadline (absence timers) across all
    /// engine nodes.
    fn min_engine_deadline(&self) -> Option<Timestamp> {
        self.nodes
            .iter()
            .filter(|(uri, _)| !self.down.contains(uri.as_str()))
            .filter_map(|(_, n)| n.as_engine()?.next_deadline())
            .min()
    }

    /// Advance every engine's clock to `at`, delivering what that
    /// produces.
    fn advance_engines(&mut self, at: Timestamp) {
        let uris: Vec<String> = self.nodes.keys().cloned().collect();
        for uri in uris {
            self.advance_node(&uri, at);
        }
    }

    /// Advance one node's engine clock to `at` and post what fires.
    /// Net-fronted engines advance over the wire, fenced, so their
    /// firings land at the same virtual time.
    fn advance_node(&mut self, uri: &str, at: Timestamp) {
        if self.down.contains(uri) {
            return;
        }
        let outs = match self.nodes.get_mut(uri) {
            Some(NodeKind::Net(f)) => f.advance(at),
            Some(NodeKind::Engine(n)) => reposts(n.engine.as_mut().map(|e| e.advance_time(at))),
            _ => Vec::new(),
        };
        for (to, payload) in outs {
            self.post(uri, &to, payload, at);
        }
    }

    /// Run the simulation up to and including time `t`. Queued work and
    /// engine deadlines (absence timers) interleave in timestamp order, so
    /// a deadline at 5 s produces its message at 5 s, not at `t`.
    pub fn run_until(&mut self, t: Timestamp) {
        loop {
            let qnext = self.queue.peek().map(|Reverse(s)| s.at);
            let dnext = self.min_engine_deadline();
            let next = [qnext, dnext].into_iter().flatten().min();
            match next {
                Some(at) if at <= t => {
                    self.now = self.now.max(at);
                    if qnext == Some(at) {
                        let Reverse(s) = self.queue.pop().expect("peeked");
                        self.dispatch(s.task);
                    } else {
                        self.advance_engines(at);
                    }
                }
                _ => {
                    // Nothing due before t: final clock advance and out.
                    self.now = self.now.max(t);
                    self.advance_engines(t);
                    if !self.queue.iter().any(|Reverse(s)| s.at <= t) {
                        return;
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, task: Task) {
        match task {
            Task::Deliver(env) => self.deliver(env),
            Task::Poll { node } => self.poll(node),
            Task::Wakeup { node } => self.advance_node(&node, self.now),
            Task::UpdateResource { uri, doc } => self.apply_update(uri, doc),
        }
    }

    fn deliver(&mut self, env: Envelope) {
        self.metrics.posts += 1;
        self.metrics.messages += 1;
        self.metrics.bytes += env.wire_size() as u64;
        self.metrics
            .delivery_latencies
            .push((env.to.clone(), self.now.since(env.sent_at)));
        let Some(owner) = self.owner_of(&env.to).map(String::from) else {
            self.metrics.dropped += 1;
            return;
        };
        if self.down.contains(&owner) {
            // The destination crashed: push delivery is fire-and-forget
            // on this simulated Web, so the message is simply lost. A
            // journalled owner logs the loss beside its WAL, so the
            // counter survives a restart of the simulation itself.
            self.metrics.lost_while_down += 1;
            if let Some(NodeKind::Engine(n)) = self.nodes.get(&owner) {
                n.journal_lost(self.now);
            }
            return;
        }
        *self
            .metrics
            .received_by_node
            .entry(owner.clone())
            .or_default() += 1;
        let now = self.now;
        let outs = match self.nodes.get_mut(&owner) {
            // The engine is on the far side of a TCP connection: the
            // delivery crosses the wire with its simulated sender and
            // credentials, and the fenced reply stream comes back before
            // the clock moves.
            Some(NodeKind::Net(f)) => f.forward(&env, now),
            Some(NodeKind::Sink(v)) => {
                v.push((now, env));
                Vec::new()
            }
            Some(NodeKind::Engine(n)) => {
                let meta = MessageMeta {
                    from: env.from.clone(),
                    credentials: env.credentials.clone(),
                };
                reposts(
                    n.engine
                        .as_mut()
                        .map(|e| e.receive(env.body.clone(), &meta, now)),
                )
            }
            // Stores and pollers have no engine: they accept but ignore
            // pushes.
            Some(_) => Vec::new(),
            None => unreachable!("owner resolved above"),
        };
        for (to, payload) in outs {
            self.post(&owner, &to, payload, now);
        }
    }

    fn poll(&mut self, node: String) {
        // Read the poller's config, fetch the remote snapshot, then feed
        // it to the poller (split to satisfy the borrow checker).
        let Some(NodeKind::Poller(p)) = self.nodes.get(&node) else {
            return;
        };
        let (target, notify, interval) = (p.target.clone(), p.notify.clone(), p.interval);

        let fetched: Option<(Term, u64)> = self
            .owner_of(&target)
            .map(String::from)
            .filter(|owner| !self.down.contains(owner))
            .and_then(|owner| self.nodes.get(&owner))
            .and_then(NodeKind::store)
            .and_then(|s| {
                s.get(&target)
                    .ok()
                    .cloned()
                    .map(|d| (d, s.version(&target).unwrap_or(0)))
            });

        // The GET round-trip costs traffic whether or not anything changed.
        self.metrics.gets += 1;
        self.metrics.messages += 2;
        self.metrics.bytes += 64
            + fetched
                .as_ref()
                .map(|(d, _)| d.serialized_size() as u64)
                .unwrap_or(16);

        let events: Vec<Term> = match (&fetched, self.nodes.get_mut(&node)) {
            (Some((doc, version)), Some(NodeKind::Poller(p))) => p.observe(doc, *version),
            _ => Vec::new(),
        };
        let now = self.now;
        for ev in events {
            self.post(&node, &notify, ev, now);
        }
        self.schedule(now + interval, Task::Poll { node });
    }

    fn apply_update(&mut self, uri: String, doc: Term) {
        let Some(owner) = self.owner_of(&uri).map(String::from) else {
            return;
        };
        if self.down.contains(&owner) {
            // A crashed owner can't accept the write; the update is lost
            // (the workload driver does not retry). Journalled owners
            // log the loss, as in `deliver`.
            self.metrics.lost_while_down += 1;
            if let Some(NodeKind::Engine(n)) = self.nodes.get(&owner) {
                n.journal_lost(self.now);
            }
            return;
        }
        let old = self
            .nodes
            .get(&owner)
            .and_then(NodeKind::store)
            .and_then(|s| s.get(&uri).ok().cloned());
        // An engine owner stores through its engine: a journalled one
        // logs the update so recovery replays it.
        let stored = match self.nodes.get_mut(&owner) {
            Some(NodeKind::Engine(n)) => n
                .engine
                .as_mut()
                .is_some_and(|e| e.put_resource(&uri, doc.clone()).is_ok()),
            Some(n) => n
                .store_mut()
                .map(|s| s.put(uri.clone(), doc.clone()))
                .is_some(),
            None => false,
        };
        if !stored {
            return;
        }
        // Push notifications: the owner tells subscribers what changed.
        let subs = self.push_subs.get(&uri).cloned().unwrap_or_default();
        let now = self.now;
        for (notify, mode) in subs {
            let payloads: Vec<Term> = match &old {
                Some(old_doc) => reweb_term::diff_documents(old_doc, &doc, &mode)
                    .into_iter()
                    .map(|c| c.to_event_payload(&uri))
                    .collect(),
                None => vec![Term::build("changed")
                    .unordered()
                    .field("resource", &uri)
                    .field("kind", "created")
                    .finish()],
            };
            for p in payloads {
                self.post(&owner, &notify, p, now);
            }
        }
    }
}

/// Shape an engine call's outputs for re-posting. Empty when the engine
/// is down or the call fails (a journal write) — the simulated Web drops
/// messages, it does not crash the run.
fn reposts(outs: Option<reweb_persist::Result<Vec<OutMessage>>>) -> Vec<(String, Term)> {
    outs.and_then(Result::ok)
        .unwrap_or_default()
        .into_iter()
        .map(|o| (o.to, o.payload))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    fn news_doc(title: &str) -> Term {
        parse_term(&format!("news[article{{@id=\"a1\", title[\"{title}\"]}}]")).unwrap()
    }

    #[test]
    fn post_delivers_to_engine_and_relays() {
        let mut sim = Simulation::new(7);
        let mut engine = ReactiveEngine::new("http://shop");
        engine
            .install_program(
                r#"RULE fwd ON order{{id[[var O]]}} DO SEND ack{id[var O]} TO "http://client" END"#,
            )
            .unwrap();
        sim.add_engine("http://shop", engine);
        sim.add_sink("http://client");
        sim.post(
            "http://client",
            "http://shop",
            parse_term("order{id[\"o1\"]}").unwrap(),
            Timestamp(0),
        );
        sim.run_until(Timestamp(1_000));
        let deliveries = sim.sink("http://client");
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].1.body.to_string(), "ack{id[\"o1\"]}");
        // Two wire messages: order + ack.
        assert_eq!(sim.metrics.posts, 2);
        assert!(sim.metrics.bytes > 0);
    }

    #[test]
    fn messages_to_nowhere_are_dropped() {
        let mut sim = Simulation::new(7);
        sim.add_sink("http://a");
        sim.post("http://a", "http://ghost", Term::elem("x"), Timestamp(0));
        sim.run_until(Timestamp(1_000));
        assert_eq!(sim.metrics.dropped, 1);
    }

    #[test]
    fn push_subscription_notifies_on_update() {
        let mut sim = Simulation::new(7);
        let mut store = ResourceStore::new();
        store.put("http://news/front", news_doc("old"));
        sim.add_store("http://news", store);
        sim.add_sink("http://watcher");
        sim.subscribe_push(
            "http://news/front",
            "http://watcher",
            IdentityMode::surrogate(),
        );
        sim.schedule_update("http://news/front", news_doc("new"), Timestamp(500));
        sim.run_until(Timestamp(2_000));
        let got = sim.sink("http://watcher");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.body.label(), Some("changed"));
        // Reaction latency ≈ transit latency only.
        let lat = got[0].0.since(Timestamp(500));
        assert!(lat <= Dur::millis(30), "latency {lat}");
    }

    #[test]
    fn poller_notices_late_and_costs_traffic() {
        let mut sim = Simulation::new(7);
        let mut store = ResourceStore::new();
        store.put("http://news/front", news_doc("old"));
        sim.add_store("http://news", store);
        sim.add_sink("http://watcher");
        sim.add_poller(
            "http://poller",
            Poller::new(
                "http://news/front",
                Dur::secs(10),
                "http://watcher",
                IdentityMode::surrogate(),
            ),
        );
        // Change at t=12s; polls at 10s (baseline), 20s (sees change).
        sim.schedule_update("http://news/front", news_doc("new"), Timestamp(12_000));
        sim.run_until(Timestamp(60_000));
        let got = sim.sink("http://watcher");
        assert_eq!(got.len(), 1);
        // Latency is dominated by the polling interval, not transit.
        let lat = got[0].0.since(Timestamp(12_000));
        assert!(lat >= Dur::secs(7), "latency {lat}");
        // Seven polls in a minute (baseline at t=0 plus six intervals),
        // each a GET round-trip.
        assert_eq!(sim.metrics.gets, 7);
    }

    #[test]
    fn wakeups_fire_absence_deadlines() {
        let mut sim = Simulation::new(7);
        let mut engine = ReactiveEngine::new("http://me");
        engine
            .install_program(
                r#"RULE quiet ON absence(ping, ping, 5s) DO SEND alarm TO "http://ops" END"#,
            )
            .unwrap();
        sim.add_engine("http://me", engine);
        sim.add_sink("http://ops");
        sim.post("http://ops", "http://me", Term::elem("ping"), Timestamp(0));
        sim.run_until(Timestamp(10_000));
        let got = sim.sink("http://ops");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.body.label(), Some("alarm"));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed);
            sim.add_sink("http://s");
            let mut store = ResourceStore::new();
            store.put("http://n/doc", news_doc("v0"));
            sim.add_store("http://n", store);
            sim.subscribe_push("http://n/doc", "http://s", IdentityMode::surrogate());
            for i in 1..10u64 {
                sim.schedule_update(
                    "http://n/doc",
                    news_doc(&format!("v{i}")),
                    Timestamp(i * 100),
                );
            }
            sim.run_until(Timestamp(5_000));
            sim.sink("http://s")
                .iter()
                .map(|(t, e)| (t.millis(), e.body.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        // Different seeds may reorder (jitter), but deliver the same count.
        assert_eq!(run(42).len(), run(43).len());
    }

    #[test]
    fn owner_resolution_longest_prefix() {
        let mut sim = Simulation::new(1);
        sim.add_sink("http://a");
        sim.add_sink("http://a/deep");
        assert_eq!(sim.owner_of("http://a/deep/doc"), Some("http://a/deep"));
        assert_eq!(sim.owner_of("http://a/other"), Some("http://a"));
        assert_eq!(sim.owner_of("http://zzz"), None);
    }

    #[test]
    fn durable_node_crash_loses_in_flight_and_recovery_replays_state() {
        let dir = std::env::temp_dir().join(format!("reweb-websim-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let program =
            r#"RULE fwd ON order{{id[[var O]]}} DO SEND ack{id[var O]} TO "http://client" END"#;
        let mut sim = Simulation::new(7);
        sim.add_durable_engine("http://shop", &dir, DurableOptions::default(), program)
            .unwrap();
        sim.add_sink("http://client");
        // First order processed (and logged) while the node is up.
        sim.post(
            "http://client",
            "http://shop",
            parse_term("order{id[\"o1\"]}").unwrap(),
            Timestamp(0),
        );
        sim.run_until(Timestamp(1_000));
        assert_eq!(sim.sink("http://client").len(), 1);

        // Crash the node; a second order arrives into the void.
        assert!(sim.kill_node("http://shop"));
        assert!(sim.is_down("http://shop"));
        sim.post(
            "http://client",
            "http://shop",
            parse_term("order{id[\"o2\"]}").unwrap(),
            Timestamp(2_000),
        );
        sim.run_until(Timestamp(3_000));
        assert_eq!(sim.metrics.lost_while_down, 1);
        assert_eq!(sim.sink("http://client").len(), 1, "o2 was lost");

        // Recover from the write-ahead log: the rules replay, and a
        // third order is processed as if the crash never happened.
        sim.recover_node("http://shop").unwrap();
        assert!(!sim.is_down("http://shop"));
        assert!(sim.durable("http://shop").unwrap().recovery().recovered);
        sim.post(
            "http://client",
            "http://shop",
            parse_term("order{id[\"o3\"]}").unwrap(),
            Timestamp(4_000),
        );
        sim.run_until(Timestamp(5_000));
        let bodies: Vec<String> = sim
            .sink("http://client")
            .iter()
            .map(|(_, e)| e.body.to_string())
            .collect();
        assert_eq!(bodies, vec!["ack{id[\"o1\"]}", "ack{id[\"o3\"]}"]);

        // The loss round-trips like the engine state does: a brand-new
        // simulation over the same directory starts with o2's loss
        // already on the books (journaled beside the WAL at loss time),
        // not reset to zero by the restart.
        drop(sim);
        let mut sim2 = Simulation::new(7);
        assert_eq!(sim2.metrics.lost_while_down, 0);
        sim2.add_durable_engine("http://shop", &dir, DurableOptions::default(), program)
            .unwrap();
        assert_eq!(
            sim2.metrics.lost_while_down, 1,
            "lost_while_down survives a simulation restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loss_journal_heals_a_torn_tail_before_counting_on() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("reweb-websim-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = Simulation::new(7);
        sim.add_durable_engine(
            "http://shop",
            &dir,
            DurableOptions::default(),
            "RULE r ON ping DO NOOP END",
        )
        .unwrap();
        assert!(sim.kill_node("http://shop"));
        // A crash mid-append left a torn record behind.
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(EngineNode::lost_journal_path(&dir))
            .unwrap()
            .write_all(&[0xde, 0xad, 0xbe])
            .unwrap();
        let before = EngineNode::lost_journal_count(&dir);
        for (i, at) in [(1, 1_000), (2, 2_000)] {
            sim.post(
                "http://client",
                "http://shop",
                parse_term(&format!("order{{id[\"o{i}\"]}}")).unwrap(),
                Timestamp(at),
            );
        }
        sim.run_until(Timestamp(3_000));
        assert_eq!(sim.metrics.lost_while_down, 2);
        assert_eq!(EngineNode::lost_journal_count(&dir), before + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn credentials_travel_with_messages() {
        let mut sim = Simulation::new(7);
        let mut engine = ReactiveEngine::new("http://secure");
        engine.aaa = reweb_core::aaa::Aaa::new(reweb_core::AaaConfig {
            require_auth: true,
            authorize: false,
            accounting: false,
            accounting_events: false,
        });
        engine.aaa.register("franz", "pw", vec![]);
        engine
            .install_program(r#"RULE ok ON ping DO SEND pong TO "http://client" END"#)
            .unwrap();
        sim.add_engine("http://secure", engine);
        sim.add_sink("http://client");
        // Without credentials: denied.
        sim.post(
            "http://client",
            "http://secure",
            Term::elem("ping"),
            Timestamp(0),
        );
        sim.run_until(Timestamp(1_000));
        assert_eq!(sim.sink("http://client").len(), 0);
        // With credentials: accepted.
        sim.set_outgoing_credentials(
            "http://client",
            Credentials {
                principal: "franz".into(),
                secret: "pw".into(),
            },
        );
        sim.post(
            "http://client",
            "http://secure",
            Term::elem("ping"),
            Timestamp(2_000),
        );
        sim.run_until(Timestamp(3_000));
        assert_eq!(sim.sink("http://client").len(), 1);
    }
}
