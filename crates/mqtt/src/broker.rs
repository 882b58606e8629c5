//! The embedded MQTT broker: a sharded, snapshot-routed core.
//!
//! Architecture: the broker runs **N parallel shard event loops**
//! ([`BrokerConfig::shards`]), each a readiness-driven reactor (see
//! [`crate::reactor`]): one nonblocking poll loop per shard multiplexes
//! every connection the shard owns — accept handoff, frame decode, CONNECT
//! gating, keep-alive deadlines, fault-delay timers, and vectored socket
//! writes with per-connection write backpressure — so broker-side thread
//! count is O(shards), never O(connections). A new connection parks on a
//! provisional shard until its CONNECT arrives; the client id is hashed
//! and the connection migrates to its owner shard. A shard therefore owns
//! a disjoint partition of connections — their keep-alive deadlines,
//! offline queues, and QoS 1/2 inflight windows — and two shards never
//! share session state.
//!
//! Routing state (subscription trie, retained store, client route table)
//! lives outside the shards in a [`crate::index::SharedIndex`]:
//! subscribes, unsubscribes, connects and retained writes funnel through
//! its single writer, which publishes generation-swapped **read-only
//! snapshots**. Any shard routes a publish by loading the current snapshot
//! — no lock is held while matching — and delivers:
//!
//! * QoS 0 to a live subscriber: the frame is encoded **once** per
//!   outgoing (QoS, retain) variant and the same `Bytes` is pushed
//!   straight into every subscriber's [`FrameSender`], regardless of which
//!   shard owns the subscriber;
//! * QoS 1/2, or any delivery to an offline session: the message hops to
//!   the owner shard's mailbox (the owner must allocate the packet id
//!   against the session, or queue the message). Same-shard deliveries
//!   skip the hop and stamp packet ids into a shared pre-encoded template.
//!
//! Fan-out order is **sorted by client id** at every shard count, so
//! delivery order — and which deliveries fall inside fault-rule
//! `skip`/`take` windows — is reproducible run to run. With `shards = 1`
//! the broker degenerates to the fully deterministic single-loop mode the
//! chaos harness relies on: one thread performs every route, fault
//! evaluation, and delivery in a fixed order.
//!
//! Keep-alive expiry and fault-delay timers are deadline-driven: each
//! shard parks in its poller until the earliest keep-alive deadline or
//! timer-heap entry (or forever when none is armed) instead of polling on
//! a tick, so an idle broker sleeps completely and a stalled loop can
//! never accumulate a backlog of tick events.
//!
//! There is one connection model. A TCP socket accepted by
//! [`Broker::listen`] and the broker end of an in-process socket pair
//! opened by [`Broker::connect_transport`] are both nonblocking streams
//! handed to a home shard by the same `Accept` event: reads pass through
//! a frame reader until whole frames decode, and writes queue into a
//! per-connection outbound buffer flushed with vectored writes when the
//! socket is writable. A subscriber whose outbound queue exceeds the
//! high-water mark ([`BrokerConfig::tcp_write_hwm`]) is evicted as a slow
//! consumer — an ungraceful close, so its last will fires. No path blocks
//! a shard on a consumer.
//!
//! Bridge connections (client ids beginning with [`BRIDGE_PREFIX`]) receive
//! special treatment: messages they publish are never echoed back to them,
//! which is the loop-prevention rule that makes acyclic broker bridging safe
//! (see [`crate::bridge`]).

use crate::codec::{self, PublishTemplate};
use crate::error::{ConnectReturnCode, MqttError, Result};
use crate::fault::{FaultPlan, FaultState, FaultVerdict, PendingDelivery};
use crate::index::{ClientKey, RetainedDelta, RouteEntry, SharedIndex};
use crate::packet::*;
use crate::persist::{recovery, PersistStore, Persistence, WalRecord};
use crate::reactor::{
    waker, PollEvent, Poller, WakeHandle, WakeReceiver, WriteScheduler, WAKE_TOKEN,
};
use crate::session::{InflightOut, QueuedMessage, Session};
use crate::stats::{BrokerCounters, BrokerStatsSnapshot};
use crate::topic::TopicName;
use crate::transport::{FrameReader, FrameSender, LinkEnd, Outbound, Stream};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-id prefix identifying bridge connections.
pub const BRIDGE_PREFIX: &str = "$bridge/";

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Human-readable broker name (used in traces and bridge ids).
    pub name: String,
    /// Cap on per-session offline message queues.
    pub max_queued_per_session: usize,
    /// Keep-alive grace multiplier (spec says 1.5).
    pub keepalive_grace: f64,
    /// Number of parallel event-loop shards. Connections are partitioned
    /// by a stable hash of the client id. `1` (the default) is the fully
    /// deterministic single-loop mode used by the chaos harness.
    pub shards: usize,
    /// Optional fault-injection plan applied to every delivery (chaos
    /// testing; see [`crate::fault`]). `None` delivers everything.
    pub fault_plan: Option<FaultPlan>,
    /// WAL + snapshot persistence (see [`crate::persist`]). The default,
    /// [`Persistence::disabled`], keeps the broker purely in-memory.
    pub persistence: Persistence,
    /// Per-connection outbound buffer high-water mark in bytes (TCP and
    /// in-process connections alike). A subscriber whose unflushed
    /// outbound queue exceeds this is evicted as a slow consumer
    /// (ungraceful close: its last will fires).
    pub tcp_write_hwm: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            name: "broker".to_owned(),
            max_queued_per_session: 1024,
            keepalive_grace: 1.5,
            shards: 1,
            fault_plan: None,
            persistence: Persistence::disabled(),
            tcp_write_hwm: 16 * 1024 * 1024,
        }
    }
}

/// Unique id of one transport connection.
pub type ConnId = u64;

/// Stable FNV-1a shard assignment for a client id. Identical ids always
/// land on the same shard, so session takeover is shard-local.
pub(crate) fn shard_of(client_id: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in client_id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A routed message on its way to one subscriber. Crosses shard mailboxes
/// for QoS>0 / offline deliveries whose session lives on another shard.
#[derive(Debug, Clone)]
struct Delivery {
    key: ClientKey,
    topic: TopicName,
    payload: Bytes,
    qos: QoS,
    retain: bool,
}

enum Event {
    /// A fresh connection (accepted TCP socket or in-process socket pair
    /// end) lands on its provisional home shard (`conn % shards`), which
    /// registers it with the poller and gates it until the CONNECT.
    Accept {
        conn: ConnId,
        stream: Stream,
    },
    /// A gated connection saw its CONNECT on the home shard and moves to
    /// the owner shard with its read buffer and outbound queue intact.
    Migrate {
        conn: ConnId,
        stream: Stream,
        reader: FrameReader,
        out: Arc<Outbound>,
        connect: Box<Connect>,
    },
    ConnClosed(ConnId),
    /// Cross-shard delivery hops, coalesced per target shard (the fault
    /// plan was already evaluated by the routing shard). A routing shard
    /// drains its mailbox, buffers every hop, and sends one batch per
    /// target shard per burst instead of one event per delivery.
    Deliver(Vec<Delivery>),
    /// Release the deliveries a `Hold` fault rule buffered.
    ReleaseHeld(String),
    /// Force a compacted snapshot of this shard's persisted state; `ack`
    /// is signalled when it is on disk.
    Snapshot {
        ack: Sender<()>,
    },
    Shutdown,
}

/// Mailbox + reactor waker for one shard: sending an event also wakes the
/// shard out of its poller so the mailbox is drained promptly.
#[derive(Clone)]
struct ShardHandle {
    tx: Sender<Event>,
    wake: WakeHandle,
}

impl ShardHandle {
    fn send(&self, event: Event) -> bool {
        if self.tx.send(event).is_err() {
            return false;
        }
        self.wake.wake();
        true
    }
}

/// One armed fault-delay timer. Ordered by `(at, seq)` so simultaneous
/// deadlines fire in arming order (chaos determinism).
struct TimerEntry {
    at: Instant,
    seq: u64,
    delivery: PendingDelivery,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One TCP listener: its accept thread, bound address, and stop flag.
struct ListenerState {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    handle: JoinHandle<()>,
}

/// A running broker. Dropping the handle shuts the broker down.
pub struct Broker {
    handles: Vec<ShardHandle>,
    counters: Arc<BrokerCounters>,
    index: Arc<SharedIndex>,
    name: String,
    next_conn: Arc<AtomicU64>,
    loop_handles: Vec<JoinHandle<()>>,
    listeners: Mutex<Vec<ListenerState>>,
    persist: Option<Arc<PersistStore>>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("name", &self.name)
            .field("shards", &self.handles.len())
            .finish()
    }
}

impl Broker {
    /// Starts a broker with the default configuration (one shard).
    pub fn start_default() -> Broker {
        Broker::start(BrokerConfig::default())
    }

    /// Starts a broker with the given configuration, spawning one event
    /// loop thread per shard.
    ///
    /// With persistence configured, startup first replays snapshot + WAL:
    /// persistent sessions (subscriptions, offline queues, QoS windows)
    /// are rebuilt on their owner shards and re-registered offline in the
    /// routing index, retained messages are re-seeded, and wills left by
    /// connections that died with the previous process are fired by each
    /// shard before it processes its first event.
    pub fn start(config: BrokerConfig) -> Broker {
        let shards = config.shards.max(1);
        let counters = Arc::new(BrokerCounters::default());
        let index = Arc::new(SharedIndex::new());
        let name = config.name.clone();

        // Fault-rule hit counters are registered once per broker (the
        // counters live in the rules and are shared by every shard).
        if let Some(plan) = &config.fault_plan {
            for rule in plan.rules() {
                counters.register_fault_rule(rule.label().to_owned(), rule.hits_handle());
            }
        }

        // Recovery: replay snapshot + WAL, then seed the routing index and
        // distribute sessions/wills to their owner shards. A store that
        // fails to open degrades to in-memory operation.
        let mut shard_sessions: Vec<HashMap<String, Session>> =
            (0..shards).map(|_| HashMap::new()).collect();
        let mut shard_wills: Vec<Vec<(String, LastWill)>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut persist = None;
        if let Some(dir) = &config.persistence.dir {
            if let Ok((store, state)) = PersistStore::open(
                dir,
                shards,
                &config.persistence,
                config.max_queued_per_session,
                Arc::clone(&counters),
            ) {
                let store = Arc::new(store);
                // Seed retained state *before* installing the WAL hook so
                // the replayed messages are not logged again.
                for (topic, (qos, payload)) in &state.retained {
                    index.apply_retained(&Publish {
                        dup: false,
                        qos: *qos,
                        retain: true,
                        topic: topic.clone(),
                        packet_id: None,
                        payload: payload.clone(),
                    });
                    BrokerCounters::bump(&counters.retained_current);
                    BrokerCounters::bump(&counters.recovered_retained);
                }
                index.set_retained_log(Arc::clone(&store));
                // Re-register every recovered session offline (routable
                // before its client reconnects) and restore subscriptions.
                for (client, session) in state.sessions {
                    let shard = shard_of(&client, shards);
                    let key = index.register_offline(&client, shard);
                    for (filter, qos) in &session.subscriptions {
                        if index.subscribe(filter, key, *qos) {
                            BrokerCounters::bump(&counters.subscriptions_current);
                        }
                    }
                    BrokerCounters::bump(&counters.sessions_current);
                    BrokerCounters::add(&counters.queued_current, session.queued.len() as u64);
                    BrokerCounters::bump(&counters.recovered_sessions);
                    shard_sessions[shard].insert(client, session);
                }
                // Wills of sessions that died with the process fire during
                // shard startup (BTreeMap order: sorted by client id).
                for (client, will) in state.wills {
                    shard_wills[shard_of(&client, shards)].push((client, will));
                }
                persist = Some(store);
            }
        }

        // Per-shard plumbing: mailbox + waker + poller + write scheduler.
        let mut handles = Vec::with_capacity(shards);
        let mut shard_ios = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            let (wake, wake_rx) = waker().expect("create shard waker");
            let mut poller = Poller::new().expect("create shard poller");
            poller
                .add(wake_rx.fd(), WAKE_TOKEN, true, false)
                .expect("register shard waker");
            let write_sched = Arc::new(WriteScheduler::new(wake.clone()));
            handles.push(ShardHandle { tx, wake });
            shard_ios.push(ShardIo {
                poller,
                wake_rx,
                write_sched,
            });
            rxs.push(rx);
        }

        let mut loop_handles = Vec::with_capacity(shards);
        let mut shard_sessions = shard_sessions.into_iter();
        let mut shard_wills = shard_wills.into_iter();
        let mut shard_ios = shard_ios.into_iter();
        for (shard, rx) in rxs.into_iter().enumerate() {
            let io = shard_ios.next().expect("one io bundle per shard");
            let mut core = ShardCore::new(shard, &config, &counters, &index, handles.clone(), io);
            core.persist = persist.clone();
            core.sessions = shard_sessions.next().unwrap_or_default();
            core.pending_wills = shard_wills.next().unwrap_or_default();
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-shard-{shard}"))
                    .spawn(move || core.run(rx))
                    .expect("spawn broker shard"),
            );
        }

        Broker {
            handles,
            counters,
            index,
            name,
            next_conn: Arc::new(AtomicU64::new(1)),
            loop_handles,
            listeners: Mutex::new(Vec::new()),
            persist,
        }
    }

    /// The broker's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of event-loop shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Current generation of the routing-index snapshot (bumps on every
    /// subscription / connection / retained mutation).
    pub fn index_generation(&self) -> u64 {
        self.index.load().generation
    }

    /// Opens a new in-process connection to this broker and returns the
    /// client end. The broker end of the Unix socket pair takes the same
    /// path as an accepted TCP socket: reactor reads, CONNECT gate,
    /// outbound queue, slow-consumer eviction. The caller then speaks MQTT
    /// over it (or hands it to [`crate::client::Client`]). Fails with
    /// [`MqttError::BrokerUnavailable`] when any shard loop has exited
    /// (shutdown in progress or a crashed shard).
    pub fn connect_transport(&self) -> Result<LinkEnd> {
        if self.loop_handles.iter().any(JoinHandle::is_finished) {
            return Err(MqttError::BrokerUnavailable);
        }
        let (client_end, broker_end) =
            UnixStream::pair().map_err(|_| MqttError::BrokerUnavailable)?;
        if !hand_off(
            &self.handles,
            &self.counters,
            &self.next_conn,
            Stream::Unix(broker_end),
        ) {
            return Err(MqttError::BrokerUnavailable);
        }
        Ok(LinkEnd::new(Stream::Unix(client_end)))
    }

    /// Binds a TCP listener and starts accepting real socket connections.
    /// Returns the bound address (useful with port `0`). The accept thread
    /// is the only per-listener thread; accepted sockets are handed to the
    /// shard reactors, so broker thread count stays O(shards) no matter
    /// how many clients connect.
    pub fn listen(&self, addr: impl ToSocketAddrs) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(|_| MqttError::BrokerUnavailable)?;
        let local = listener
            .local_addr()
            .map_err(|_| MqttError::BrokerUnavailable)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handles = self.handles.clone();
        let counters = Arc::clone(&self.counters);
        let next_conn = Arc::clone(&self.next_conn);
        let handle = std::thread::Builder::new()
            .name(format!("{}-accept", self.name))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    if !hand_off(&handles, &counters, &next_conn, Stream::Tcp(stream)) {
                        break;
                    }
                }
            })
            .expect("spawn acceptor");
        self.listeners
            .lock()
            .expect("listener registry lock")
            .push(ListenerState {
                stop,
                addr: local,
                handle,
            });
        Ok(local)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> BrokerStatsSnapshot {
        self.counters.snapshot()
    }

    /// Releases every delivery buffered by the `Hold` fault rule with
    /// `label` (see [`crate::fault::FaultAction::Hold`]). A no-op when no
    /// such rule exists or nothing is held. Broadcast to every shard: each
    /// shard releases the deliveries it stashed.
    pub fn release_held(&self, label: &str) {
        for h in &self.handles {
            h.send(Event::ReleaseHeld(label.to_owned()));
        }
    }

    /// Per-fault-rule hit counts, labelled. Empty without a fault plan.
    pub fn fault_hits(&self) -> Vec<(String, u64)> {
        self.counters.fault_hits()
    }

    /// Forces a compacted snapshot of every shard's persisted session
    /// state and of the retained store, blocking until all are on disk.
    /// A no-op without persistence.
    pub fn snapshot_now(&self) {
        if self.persist.is_none() {
            return;
        }
        let (ack, done) = channel();
        let mut sent = 0;
        for h in &self.handles {
            if h.send(Event::Snapshot { ack: ack.clone() }) {
                sent += 1;
            }
        }
        drop(ack);
        for _ in 0..sent {
            if done.recv().is_err() {
                break;
            }
        }
        if let Some(store) = &self.persist {
            store.compact_retained(&self.index.load().retained);
            // Drain barrier: the write-behind queues must be fully
            // flushed before callers may read the directory.
            store.drain();
        }
    }

    /// Requests shutdown and waits for every shard thread to finish.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Stop acceptors first: set the flag, then poke each listener with
        // a throwaway connection so the blocking accept observes it.
        let listeners =
            std::mem::take(&mut *self.listeners.lock().expect("listener registry lock"));
        for l in &listeners {
            l.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(l.addr);
        }
        for l in listeners {
            let _ = l.handle.join();
        }
        for h in &self.handles {
            h.send(Event::Shutdown);
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
        // Shards are gone: flush the write-behind queues and stop the
        // persistence thread so a dropped broker leaves every accepted
        // WAL record on disk (restart tests rely on this).
        if let Some(store) = &self.persist {
            store.shutdown();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Gives a fresh connection an id and hands it to its provisional home
/// shard. Returns false when that shard's mailbox is gone.
fn hand_off(
    handles: &[ShardHandle],
    counters: &BrokerCounters,
    next_conn: &AtomicU64,
    stream: Stream,
) -> bool {
    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
    BrokerCounters::bump(&counters.connections_total);
    BrokerCounters::bump(&counters.connections_current);
    let home = (conn % handles.len() as u64) as usize;
    if !handles[home].send(Event::Accept { conn, stream }) {
        counters.connections_current.fetch_sub(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Per-publish encode-once frame cache: QoS 0 frames are shared `Bytes`
/// (no packet id), QoS 1/2 frames share a [`PublishTemplate`] and stamp
/// each subscriber's packet id into a copy. Keyed by the retain flag,
/// which differs only for bridge subscribers.
struct FanoutFrames {
    topic: TopicName,
    payload: Bytes,
    qos0: [Option<Bytes>; 2],
    /// `[qos1 | qos2][retain]`
    templates: [[Option<PublishTemplate>; 2]; 2],
}

impl FanoutFrames {
    fn new(topic: &TopicName, payload: &Bytes) -> FanoutFrames {
        FanoutFrames {
            topic: topic.clone(),
            payload: payload.clone(),
            qos0: [None, None],
            templates: [[None, None], [None, None]],
        }
    }

    /// True when `payload` is the original publish payload (the fault
    /// layer may substitute a rewritten one, which must not hit the cache).
    fn cacheable(&self, payload: &Bytes) -> bool {
        payload.len() == self.payload.len() && payload.as_ptr() == self.payload.as_ptr()
    }

    /// The shared QoS 0 frame for this publish, or `None` when the payload
    /// was rewritten (caller encodes a one-off frame).
    fn qos0_frame(&mut self, retain: bool, payload: &Bytes) -> Option<Bytes> {
        if !self.cacheable(payload) {
            return None;
        }
        let slot = &mut self.qos0[usize::from(retain)];
        if slot.is_none() {
            *slot = codec::encode(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain,
                topic: self.topic.clone(),
                packet_id: None,
                payload: self.payload.clone(),
            }))
            .ok();
        }
        slot.clone()
    }

    /// The shared QoS>0 template for this publish, or `None` when the
    /// payload was rewritten.
    fn template(&mut self, qos: QoS, retain: bool, payload: &Bytes) -> Option<&PublishTemplate> {
        if qos == QoS::AtMostOnce || !self.cacheable(payload) {
            return None;
        }
        let slot = &mut self.templates[(qos as usize) - 1][usize::from(retain)];
        if slot.is_none() {
            *slot = PublishTemplate::new(&Publish {
                dup: false,
                qos,
                retain,
                topic: self.topic.clone(),
                packet_id: None,
                payload: self.payload.clone(),
            })
            .ok();
        }
        slot.as_ref()
    }
}

struct ConnState {
    sender: FrameSender,
    client_id: String,
    key: ClientKey,
    is_bridge: bool,
    keep_alive: u16,
    last_activity: Instant,
    will: Option<LastWill>,
    graceful: bool,
    /// True while a will registration is WAL-logged for this connection;
    /// discharged (WillClear) when the will fires or is suppressed.
    will_registered: bool,
}

/// Reactor-side state of one connection: the nonblocking socket, its
/// partial-frame reader, and the in-progress write queue.
struct SocketConn {
    stream: Stream,
    /// Partial frames survive here between readiness events.
    reader: FrameReader,
    /// Outbound queue shared with every routing shard's [`FrameSender`].
    out: Arc<Outbound>,
    /// Frames drained from `out` and currently being written.
    writing: VecDeque<Bytes>,
    /// Bytes of `writing.front()` already written.
    wr_off: usize,
    /// True while the poller watches this socket for writability.
    want_write: bool,
    /// False while the connection is still CONNECT-gated.
    registered: bool,
}

/// Reactor plumbing handed to one shard: its poller, the wake-pipe
/// receive half, and the write scheduler senders flush through.
struct ShardIo {
    poller: Poller,
    wake_rx: WakeReceiver,
    write_sched: Arc<WriteScheduler>,
}

/// One shard's event loop state: its partition of connections and
/// sessions, plus shared handles to the routing index, the counters, and
/// every shard's mailbox.
struct ShardCore {
    shard: usize,
    max_queued_per_session: usize,
    keepalive_grace: f64,
    write_hwm: u64,
    counters: Arc<BrokerCounters>,
    index: Arc<SharedIndex>,
    handles: Vec<ShardHandle>,
    poller: Poller,
    wake_rx: WakeReceiver,
    write_sched: Arc<WriteScheduler>,
    conns: HashMap<ConnId, ConnState>,
    /// Connections whose sockets this shard's poller owns, gated ones
    /// (awaiting CONNECT) included.
    sockets: HashMap<ConnId, SocketConn>,
    /// Armed fault-delay timers, earliest first.
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    /// client id → live connection (this shard's clients only).
    by_client: HashMap<String, ConnId>,
    /// client id → session (connected and parked; this shard's only).
    sessions: HashMap<String, Session>,
    /// Fault-injection engine; per-shard runtime over shared rule state.
    faults: Option<FaultState>,
    /// Cached earliest keep-alive deadline. Never *later* than the true
    /// earliest deadline: activity only pushes deadlines back (an early
    /// wake is a cheap no-op that recomputes), registrations fold in via
    /// `min`, and closes can only remove deadlines. Avoids an O(conns)
    /// scan per event-loop iteration.
    keepalive_deadline: Option<Instant>,
    /// Durable store handle (`None` = in-memory broker).
    persist: Option<Arc<PersistStore>>,
    /// Wills recovered from the WAL for sessions that died with the
    /// previous process; fired before the first event is processed.
    pending_wills: Vec<(String, LastWill)>,
    /// Cross-shard hops buffered during the current mailbox burst, one
    /// bucket per target shard; flushed as a single `Deliver` batch per
    /// shard when the mailbox drains.
    pending_hops: Vec<Vec<Delivery>>,
}

impl ShardCore {
    fn new(
        shard: usize,
        config: &BrokerConfig,
        counters: &Arc<BrokerCounters>,
        index: &Arc<SharedIndex>,
        handles: Vec<ShardHandle>,
        io: ShardIo,
    ) -> ShardCore {
        let shards = handles.len();
        ShardCore {
            shard,
            max_queued_per_session: config.max_queued_per_session,
            keepalive_grace: config.keepalive_grace,
            write_hwm: config.tcp_write_hwm as u64,
            counters: Arc::clone(counters),
            index: Arc::clone(index),
            handles,
            poller: io.poller,
            wake_rx: io.wake_rx,
            write_sched: io.write_sched,
            conns: HashMap::new(),
            sockets: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            by_client: HashMap::new(),
            sessions: HashMap::new(),
            faults: config
                .fault_plan
                .as_ref()
                .map(|plan| FaultState::new(plan, shard as u64)),
            keepalive_deadline: None,
            persist: None,
            pending_wills: Vec::new(),
            pending_hops: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    fn run(&mut self, rx: Receiver<Event>) {
        // Fire wills recovered for sessions that died with the previous
        // process (sorted by client id; each passes the fault plan via
        // `route`, so chaos rules apply to testament publishes too).
        for (client, will) in std::mem::take(&mut self.pending_wills) {
            let publish = Publish {
                dup: false,
                qos: will.qos,
                retain: will.retain,
                topic: will.topic,
                packet_id: None,
                payload: will.payload,
            };
            self.route(&publish, 0, false, Some(&client));
        }
        self.flush_hops();
        let mut events: Vec<PollEvent> = Vec::new();
        'outer: loop {
            // Drain whatever is queued without any deadline math on the
            // hot path — but check the cached deadline periodically so a
            // mailbox that never empties still expires keep-alives.
            let mut drained = 0u32;
            loop {
                match rx.try_recv() {
                    Ok(event) => {
                        if !self.handle(event) {
                            break 'outer;
                        }
                        drained = drained.wrapping_add(1);
                        if drained.is_multiple_of(128)
                            && self.keepalive_deadline.is_some_and(|d| d <= Instant::now())
                        {
                            self.expire_keepalives();
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'outer,
                }
            }
            // Mailbox drained: send the hops this burst produced, one
            // coalesced batch per target shard (events handled on the next
            // pass flush then).
            self.flush_hops();
            // Flush every connection a routing shard scheduled.
            for conn in self.write_sched.take() {
                self.flush(conn);
            }
            // Fire due deadlines before parking.
            let now = Instant::now();
            if self.keepalive_deadline.is_some_and(|d| d <= now) {
                self.expire_keepalives();
                continue;
            }
            if self.fire_due_timers(now) {
                continue;
            }
            let mut deadline = self.keepalive_deadline;
            if let Some(Reverse(t)) = self.timers.peek() {
                deadline = Some(deadline.map_or(t.at, |d| d.min(t.at)));
            }
            // Park in the poller. Arm the waker first, then re-check the
            // mailbox and write queue: an event or scheduled flush that
            // raced the arming would otherwise sleep until the deadline.
            self.wake_rx.arm();
            match rx.try_recv() {
                Ok(event) => {
                    if !self.handle(event) {
                        break 'outer;
                    }
                    continue;
                }
                Err(TryRecvError::Disconnected) => break 'outer,
                Err(TryRecvError::Empty) => {}
            }
            if !self.write_sched.is_empty() {
                continue;
            }
            events.clear();
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            for ev in events.iter().copied() {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                if ev.readable {
                    self.readable(ev.token);
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
        }
        // Close every connection so clients observe disconnection.
        self.conns.clear();
        self.sockets.clear();
    }

    /// Handles one event; returns false on shutdown.
    fn handle(&mut self, event: Event) -> bool {
        match event {
            Event::Accept { conn, stream } => self.on_accept(conn, stream),
            Event::Migrate {
                conn,
                stream,
                reader,
                out,
                connect,
            } => self.on_migrate(conn, stream, reader, out, *connect),
            Event::ConnClosed(conn) => self.close_transport(conn),
            Event::Deliver(batch) => {
                for d in batch {
                    self.on_deliver(d);
                }
            }
            Event::ReleaseHeld(label) => {
                let released = match &mut self.faults {
                    Some(state) => state.release(&label),
                    None => Vec::new(),
                };
                for d in released {
                    self.deliver_raw(&d.client, d.topic, d.payload, d.qos, d.retain);
                }
            }
            Event::Snapshot { ack } => {
                self.compact_now();
                let _ = ack.send(());
            }
            Event::Shutdown => return false,
        }
        true
    }

    /// A fresh connection lands on its provisional home shard: make it
    /// nonblocking, register it with the poller, and gate on CONNECT.
    fn on_accept(&mut self, conn: ConnId, stream: Stream) {
        if stream.set_nonblocking(true).is_err()
            || self
                .poller
                .add(stream.as_raw_fd(), conn, true, false)
                .is_err()
        {
            self.counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let out = Outbound::new(conn, self.write_hwm, Arc::clone(&self.write_sched));
        self.sockets.insert(
            conn,
            SocketConn {
                stream,
                reader: FrameReader::default(),
                out,
                writing: VecDeque::new(),
                wr_off: 0,
                want_write: false,
                registered: false,
            },
        );
    }

    /// A gated connection arrives at its owner shard with its read buffer
    /// and outbound queue intact.
    fn on_migrate(
        &mut self,
        conn: ConnId,
        stream: Stream,
        reader: FrameReader,
        out: Arc<Outbound>,
        connect: Connect,
    ) {
        // Retarget first: pushes that raced the handover scheduled a flush
        // on the home shard (which no longer owns the socket); from here
        // on they schedule here, and the unconditional flush below covers
        // anything already queued.
        out.retarget(Arc::clone(&self.write_sched));
        if self
            .poller
            .add(stream.as_raw_fd(), conn, true, false)
            .is_err()
        {
            self.counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.sockets.insert(
            conn,
            SocketConn {
                stream,
                reader,
                out: Arc::clone(&out),
                writing: VecDeque::new(),
                wr_off: 0,
                want_write: false,
                registered: true,
            },
        );
        self.on_register(conn, FrameSender::new(out), connect);
        // Pipelined packets may already sit in the read buffer.
        self.drain_frames(conn);
        self.flush(conn);
    }

    /// Socket readable: read and handle whole frames until the socket is
    /// drained. EOF or a read error closes the connection.
    fn readable(&mut self, conn: ConnId) {
        let mut total = 0usize;
        loop {
            let res = match self.sockets.get_mut(&conn) {
                Some(sc) => sc.reader.read_from(&sc.stream),
                None => return,
            };
            match res {
                Ok((0, _)) => break,
                Ok((n, more)) => {
                    self.drain_frames(conn);
                    total += n;
                    // Stop once the socket looks drained, or yield to other
                    // connections after 1 MiB: the level-triggered poller
                    // re-reports readiness (and EOF).
                    if !more || total >= 1 << 20 {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.close_transport(conn);
    }

    /// Handles every complete frame in the connection's read buffer: the
    /// CONNECT gate while the connection is gated, packets after.
    fn drain_frames(&mut self, conn: ConnId) {
        loop {
            let (next, registered) = match self.sockets.get_mut(&conn) {
                Some(sc) => (sc.reader.next_frame(), sc.registered),
                None => return,
            };
            match next {
                Ok(Some(frame)) if registered => match codec::decode(&frame) {
                    Ok((packet, _)) => self.on_packet(conn, packet),
                    Err(_) => self.on_conn_closed(conn),
                },
                Ok(Some(frame)) => self.gate_connect(conn, frame),
                Ok(None) => return,
                Err(_) => {
                    self.close_transport(conn);
                    return;
                }
            }
        }
    }

    /// The CONNECT gate for a connection parked on its home shard: accept
    /// it here, migrate it to its owner shard, or drop it (a rejected id,
    /// or any packet before CONNECT).
    fn gate_connect(&mut self, conn: ConnId, frame: Bytes) {
        let Ok((packet, _)) = codec::decode(&frame) else {
            self.teardown_gated(conn);
            return;
        };
        match packet {
            Packet::Connect(c) if c.client_id.is_empty() => {
                if let Some(sc) = self.sockets.get(&conn) {
                    let sender = FrameSender::new(Arc::clone(&sc.out));
                    let _ = sender.send_packet(&Packet::Connack(Connack {
                        session_present: false,
                        code: ConnectReturnCode::IdentifierRejected,
                    }));
                }
                // Best-effort: push the rejection onto the wire before
                // tearing the socket down.
                self.flush(conn);
                self.teardown_gated(conn);
            }
            Packet::Connect(c) => {
                let owner = shard_of(&c.client_id, self.handles.len());
                if owner == self.shard {
                    let out = {
                        let Some(sc) = self.sockets.get_mut(&conn) else {
                            return;
                        };
                        sc.registered = true;
                        Arc::clone(&sc.out)
                    };
                    // If registration itself closed the connection, the
                    // caller's drain loop notices via its liveness check.
                    self.on_register(conn, FrameSender::new(out), c);
                } else {
                    let Some(sc) = self.sockets.remove(&conn) else {
                        return;
                    };
                    let _ = self.poller.remove(sc.stream.as_raw_fd());
                    self.handles[owner].send(Event::Migrate {
                        conn,
                        stream: sc.stream,
                        reader: sc.reader,
                        out: sc.out,
                        connect: Box::new(c),
                    });
                }
            }
            _ => self.teardown_gated(conn),
        }
    }

    /// Closes a connection this shard transports, whether it completed
    /// CONNECT (full session teardown) or is still gated.
    fn close_transport(&mut self, conn: ConnId) {
        if self.conns.contains_key(&conn) {
            self.on_conn_closed(conn);
        } else {
            self.teardown_gated(conn);
        }
    }

    /// Tears down a connection that never completed CONNECT: it is absent
    /// from every connection table, so this shard decrements the
    /// connection counter itself.
    fn teardown_gated(&mut self, conn: ConnId) {
        if self.teardown_socket(conn) {
            self.counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Removes a connection's socket state (poller registration, outbound
    /// queue); dropping the socket closes it. Returns true when the
    /// connection was present.
    fn teardown_socket(&mut self, conn: ConnId) -> bool {
        let Some(sc) = self.sockets.remove(&conn) else {
            return false;
        };
        let _ = self.poller.remove(sc.stream.as_raw_fd());
        sc.out.mark_closed();
        if sc.out.take_eviction_count() {
            BrokerCounters::bump(&self.counters.slow_consumer_evictions);
        }
        true
    }

    /// Drains the connection's outbound queue to the socket with vectored
    /// writes. On `WouldBlock` the poller starts watching writability; a
    /// high-water-mark breach evicts the slow consumer (ungraceful, so
    /// its will fires); a dead socket closes the connection.
    fn flush(&mut self, conn: ConnId) {
        let mut evict = false;
        let mut dead = false;
        {
            let Some(sc) = self.sockets.get_mut(&conn) else {
                return;
            };
            sc.out.begin_flush();
            sc.out.drain_into(&mut sc.writing);
            if sc.out.is_evicted() {
                evict = true;
            } else {
                let fd = sc.stream.as_raw_fd();
                loop {
                    if sc.writing.is_empty() {
                        break;
                    }
                    let res = {
                        let mut slices: Vec<IoSlice<'_>> =
                            Vec::with_capacity(32.min(sc.writing.len()));
                        let mut iter = sc.writing.iter();
                        if let Some(first) = iter.next() {
                            slices.push(IoSlice::new(&first[sc.wr_off..]));
                        }
                        for b in iter.take(31) {
                            slices.push(IoSlice::new(b));
                        }
                        (&sc.stream).write_vectored(&slices)
                    };
                    match res {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => {
                            sc.out.note_written(n as u64);
                            let mut left = n;
                            while left > 0 {
                                let front_len = sc.writing[0].len() - sc.wr_off;
                                if left >= front_len {
                                    sc.writing.pop_front();
                                    sc.wr_off = 0;
                                    left -= front_len;
                                } else {
                                    sc.wr_off += left;
                                    left = 0;
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if !sc.want_write {
                                sc.want_write = true;
                                let _ = self.poller.modify(fd, conn, true, true);
                            }
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if sc.writing.is_empty() && sc.want_write && !dead {
                    sc.want_write = false;
                    let _ = self.poller.modify(fd, conn, true, false);
                }
            }
        }
        if evict || dead {
            self.close_transport(conn);
        }
    }

    /// Fires every elapsed fault-delay timer (earliest first; ties in
    /// arming order). Returns true when any fired.
    fn fire_due_timers(&mut self, now: Instant) -> bool {
        let mut fired = false;
        while self.timers.peek().is_some_and(|Reverse(t)| t.at <= now) {
            let Some(Reverse(t)) = self.timers.pop() else {
                break;
            };
            let d = t.delivery;
            self.deliver_raw(&d.client, d.topic, d.payload, d.qos, d.retain);
            fired = true;
        }
        fired
    }

    /// Sends the cross-shard hops buffered during the current mailbox
    /// burst: one `Deliver` batch per target shard, preserving per-shard
    /// delivery order. No-op with one shard (nothing ever buffers).
    fn flush_hops(&mut self) {
        for shard in 0..self.pending_hops.len() {
            if self.pending_hops[shard].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.pending_hops[shard]);
            BrokerCounters::bump(&self.counters.cross_shard_batches);
            self.handles[shard].send(Event::Deliver(batch));
        }
    }

    /// Enqueues one record for this shard's WAL stream (the persistence
    /// thread does the disk I/O), compacting the stream when it outgrows
    /// the snapshot threshold. No-op without persistence.
    fn log_wal(&mut self, rec: WalRecord) {
        let Some(store) = self.persist.as_ref().map(Arc::clone) else {
            return;
        };
        if store.append_shard(self.shard, rec) {
            self.compact_now();
        }
    }

    /// Serializes this shard's persisted state — every persistent
    /// session plus the wills of live connections, in sorted client-id
    /// order — and hands it to the persistence thread, which writes the
    /// compacted snapshot off the shard hot path.
    fn compact_now(&mut self) {
        let Some(store) = self.persist.as_ref().map(Arc::clone) else {
            return;
        };
        let mut records = Vec::new();
        let mut persistent: Vec<&Session> = self.sessions.values().filter(|s| !s.clean).collect();
        persistent.sort_unstable_by(|a, b| a.client_id.cmp(&b.client_id));
        for session in persistent {
            recovery::session_records(session, &mut records);
        }
        let mut wills: Vec<(&String, &LastWill)> = self
            .conns
            .values()
            .filter(|c| c.will_registered)
            .filter_map(|c| c.will.as_ref().map(|w| (&c.client_id, w)))
            .collect();
        wills.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (client, will) in wills {
            records.push(WalRecord::WillSet {
                client: client.clone(),
                will: will.clone(),
            });
        }
        store.compact_shard(self.shard, records);
    }

    /// True when `client` owns a persistent (WAL-logged) session.
    fn is_persistent(&self, client: &str) -> bool {
        self.sessions.get(client).is_some_and(|s| !s.clean)
    }

    fn conn_deadline(&self, c: &ConnState) -> Option<Instant> {
        (c.keep_alive > 0).then(|| {
            c.last_activity
                + Duration::from_secs_f64(f64::from(c.keep_alive) * self.keepalive_grace)
        })
    }

    /// Closes every expired connection, then recomputes the cached
    /// earliest deadline with one full scan (runs only when a deadline
    /// fires — at most once per keep-alive period per connection — never
    /// on the per-event hot path).
    fn expire_keepalives(&mut self) {
        let grace = self.keepalive_grace;
        let expired: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.keep_alive > 0
                    && c.last_activity.elapsed()
                        > Duration::from_secs_f64(f64::from(c.keep_alive) * grace)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            BrokerCounters::bump(&self.counters.keepalive_timeouts);
            self.on_conn_closed(id);
        }
        self.keepalive_deadline = self
            .conns
            .values()
            .filter_map(|c| self.conn_deadline(c))
            .min();
    }

    fn on_register(&mut self, conn_id: ConnId, sender: FrameSender, c: Connect) {
        // Session takeover: disconnect any live connection with this id
        // (always shard-local — same id, same shard).
        if let Some(&old) = self.by_client.get(&c.client_id) {
            if old != conn_id {
                self.on_conn_closed(old);
            }
        }

        let is_bridge = c.client_id.starts_with(BRIDGE_PREFIX);
        let key =
            self.index
                .register_conn(&c.client_id, self.shard, conn_id, sender.clone(), is_bridge);

        let session_present = if c.clean_session {
            // Fresh session: purge stored state and subscriptions.
            if let Some(old) = self.sessions.remove(&c.client_id) {
                self.counters
                    .sessions_current
                    .fetch_sub(1, Ordering::Relaxed);
                // The only sessions a clean reconnect can still find are
                // persistent ones (clean sessions die with their
                // connection): drop the persisted state too.
                if !old.clean {
                    BrokerCounters::bump(&self.counters.sessions_cleaned);
                    self.log_wal(WalRecord::SessionDestroy {
                        client: c.client_id.clone(),
                    });
                }
            }
            let removed = self.index.unsubscribe_all(key);
            self.counters
                .subscriptions_current
                .fetch_sub(removed as u64, Ordering::Relaxed);
            false
        } else {
            self.sessions.contains_key(&c.client_id)
        };

        if !self.sessions.contains_key(&c.client_id) {
            self.sessions.insert(
                c.client_id.clone(),
                Session::new(
                    c.client_id.clone(),
                    c.clean_session,
                    self.max_queued_per_session,
                ),
            );
            BrokerCounters::bump(&self.counters.sessions_current);
            if !c.clean_session {
                self.log_wal(WalRecord::SessionCreate {
                    client: c.client_id.clone(),
                });
            }
        } else if let Some(s) = self.sessions.get_mut(&c.client_id) {
            s.clean = c.clean_session;
        }

        // Last-will registration is connection-scoped (logged even for
        // clean sessions, so a will survives a process crash).
        if let Some(will) = &c.will {
            self.log_wal(WalRecord::WillSet {
                client: c.client_id.clone(),
                will: will.clone(),
            });
        }

        let state = ConnState {
            sender,
            client_id: c.client_id.clone(),
            key,
            is_bridge,
            keep_alive: c.keep_alive,
            last_activity: Instant::now(),
            will_registered: c.will.is_some(),
            will: c.will,
            graceful: false,
        };
        // Fold the newcomer into the cached earliest deadline (the only
        // mutation that can move the minimum *earlier*).
        if let Some(deadline) = self.conn_deadline(&state) {
            self.keepalive_deadline = Some(match self.keepalive_deadline {
                Some(current) => current.min(deadline),
                None => deadline,
            });
        }
        self.conns.insert(conn_id, state);
        self.by_client.insert(c.client_id.clone(), conn_id);

        self.send_to_conn(
            conn_id,
            &Packet::Connack(Connack {
                session_present,
                code: ConnectReturnCode::Accepted,
            }),
        );

        // Replay: queued offline messages, then unacknowledged inflight.
        if session_present {
            self.replay_session(conn_id, &c.client_id);
        }
    }

    fn replay_session(&mut self, conn_id: ConnId, client_id: &str) {
        let Some(session) = self.sessions.get_mut(client_id) else {
            return;
        };
        let queued = session.drain_queued();
        let inflight = session.take_inflight();
        self.counters
            .queued_current
            .fetch_sub(queued.len() as u64, Ordering::Relaxed);
        if !queued.is_empty() {
            self.log_wal(WalRecord::QueueDrained {
                client: client_id.to_owned(),
            });
        }
        for msg in queued {
            // Straight to deliver_raw: these messages already passed the
            // fault plan when they were routed (and queued); evaluating
            // them again would double-apply rules and skew hit windows.
            self.deliver_raw(client_id, msg.topic, msg.payload, msg.qos, false);
        }
        for (old_id, inflight_msg) in inflight {
            // Retransmit with a fresh id and DUP=1.
            let Some(session) = self.sessions.get_mut(client_id) else {
                return;
            };
            let id = session.alloc_packet_id();
            session.inflight_out.insert(
                id,
                InflightOut {
                    topic: inflight_msg.topic.clone(),
                    payload: inflight_msg.payload.clone(),
                    qos: inflight_msg.qos,
                    retain: inflight_msg.retain,
                    released: false,
                },
            );
            // The WAL mirrors the id swap: the old window entry goes
            // away, the retransmission enters under its fresh id.
            self.log_wal(WalRecord::InflightRemove {
                client: client_id.to_owned(),
                id: old_id,
            });
            self.log_wal(WalRecord::InflightInsert {
                client: client_id.to_owned(),
                id,
                topic: inflight_msg.topic.clone(),
                qos: inflight_msg.qos,
                retain: inflight_msg.retain,
                released: false,
                payload: inflight_msg.payload.clone(),
            });
            // Count before sending: once a receiver observes the frame,
            // the counter must already reflect it.
            BrokerCounters::bump(&self.counters.publishes_out);
            self.send_to_conn(
                conn_id,
                &Packet::Publish(Publish {
                    dup: true,
                    qos: inflight_msg.qos,
                    retain: inflight_msg.retain,
                    topic: inflight_msg.topic,
                    packet_id: Some(id),
                    payload: inflight_msg.payload,
                }),
            );
        }
    }

    fn on_packet(&mut self, conn_id: ConnId, packet: Packet) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return; // already closed
        };
        conn.last_activity = Instant::now();
        match packet {
            Packet::Publish(p) => self.on_publish(conn_id, p),
            Packet::Puback(id) => self.on_puback(conn_id, id),
            Packet::Pubrec(id) => self.on_pubrec(conn_id, id),
            Packet::Pubrel(id) => self.on_pubrel(conn_id, id),
            Packet::Pubcomp(id) => self.on_pubcomp(conn_id, id),
            Packet::Subscribe(s) => self.on_subscribe(conn_id, s),
            Packet::Unsubscribe(u) => self.on_unsubscribe(conn_id, u),
            Packet::Pingreq => {
                self.send_to_conn(conn_id, &Packet::Pingresp);
            }
            Packet::Disconnect => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.graceful = true;
                    conn.will = None;
                }
                self.on_conn_closed(conn_id);
            }
            // A second CONNECT on a live connection, or server-to-client
            // packets arriving at the broker, are protocol violations;
            // drop the connection.
            Packet::Connect(_)
            | Packet::Connack(_)
            | Packet::Suback(_)
            | Packet::Unsuback(_)
            | Packet::Pingresp => {
                self.on_conn_closed(conn_id);
            }
        }
    }

    fn on_publish(&mut self, conn_id: ConnId, p: Publish) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let client_id = conn.client_id.clone();
        let is_bridge = conn.is_bridge;

        BrokerCounters::bump(&self.counters.publishes_in);
        BrokerCounters::add(&self.counters.payload_bytes_in, p.payload.len() as u64);
        if is_bridge {
            BrokerCounters::bump(&self.counters.bridge_in);
        }

        match p.qos {
            QoS::AtMostOnce => self.route(&p, conn_id, is_bridge, Some(&client_id)),
            QoS::AtLeastOnce => {
                let id = p.packet_id.unwrap_or(0);
                self.route(&p, conn_id, is_bridge, Some(&client_id));
                self.send_to_conn(conn_id, &Packet::Puback(id));
            }
            QoS::ExactlyOnce => {
                let id = p.packet_id.unwrap_or(0);
                let fresh = self
                    .sessions
                    .get_mut(&client_id)
                    .map(|s| s.inbound_qos2.insert(id))
                    .unwrap_or(true);
                if fresh {
                    if self.is_persistent(&client_id) {
                        self.log_wal(WalRecord::InboundQos2Insert {
                            client: client_id.clone(),
                            id,
                        });
                    }
                    // Method A: route on first receipt, dedupe duplicates.
                    self.route(&p, conn_id, is_bridge, Some(&client_id));
                }
                self.send_to_conn(conn_id, &Packet::Pubrec(id));
            }
        }
    }

    /// Routes a publish to every matching subscriber and updates the
    /// retained store. Matching runs against the current index snapshot —
    /// no lock is held — and targets are visited in sorted client-id
    /// order, so delivery order is deterministic at every shard count.
    /// `origin_client` is the publishing client's id (used by fault-rule
    /// matching), `None` for broker-internal replays.
    fn route(
        &mut self,
        p: &Publish,
        origin: ConnId,
        origin_is_bridge: bool,
        origin_client: Option<&str>,
    ) {
        if p.retain {
            match self.index.apply_retained(p) {
                RetainedDelta::Added => {
                    BrokerCounters::bump(&self.counters.retained_current);
                }
                RetainedDelta::Removed => {
                    self.counters
                        .retained_current
                        .fetch_sub(1, Ordering::Relaxed);
                }
                RetainedDelta::Replaced | RetainedDelta::Unchanged => {}
            }
        }

        let snap = self.index.load();
        // Dedupe overlapping subscriptions per client, keeping max QoS.
        let mut matched: Vec<(ClientKey, QoS)> = snap
            .trie
            .matches(&p.topic)
            .into_iter()
            .map(|(k, q)| (*k, *q))
            .collect();
        matched.sort_unstable_by_key(|(k, _)| *k);
        matched.dedup_by(|next, keep| {
            if next.0 == keep.0 {
                keep.1 = keep.1.max(next.1);
                true
            } else {
                false
            }
        });
        // Resolve routes and order deterministically by client id.
        let mut targets: Vec<(&RouteEntry, ClientKey, QoS)> = matched
            .iter()
            .filter_map(|&(k, granted)| snap.routes.entry(k).map(|e| (e, k, granted)))
            .collect();
        targets.sort_unstable_by(|a, b| a.0.client.cmp(&b.0.client));

        let mut frames = FanoutFrames::new(&p.topic, &p.payload);
        for (entry, key, granted) in targets {
            // Loop prevention: never echo a bridge's own message back.
            if origin_is_bridge && entry.conn == Some(origin) {
                continue;
            }
            let qos = p.qos.min(granted);
            // Forwarded messages carry retain=0 for established subs, with
            // one exception: bridge connections keep the flag so retained
            // state propagates across brokers (mosquitto behaves the same).
            let retain_out = p.retain && entry.is_bridge;
            let Some((payload, duplicate, release)) = self.fault_gate(
                &entry.client,
                &p.topic,
                &p.payload,
                qos,
                retain_out,
                origin_client,
            ) else {
                continue;
            };
            let d = Delivery {
                key,
                topic: p.topic.clone(),
                payload,
                qos,
                retain: retain_out,
            };
            if duplicate {
                let copy = d.clone();
                self.dispatch(entry, d, Some(&mut frames));
                self.dispatch(entry, copy, Some(&mut frames));
            } else {
                self.dispatch(entry, d, Some(&mut frames));
            }
            for r in release {
                self.deliver_raw(&r.client, r.topic, r.payload, r.qos, r.retain);
            }
        }
    }

    /// Runs one prospective delivery through the fault plan. Returns the
    /// (possibly rewritten) payload, whether to deliver a duplicate, and
    /// any stashed deliveries to release afterwards — or `None` when the
    /// delivery was consumed (dropped, held, stashed, delayed, or turned
    /// into an ungraceful teardown of the recipient's connection).
    fn fault_gate(
        &mut self,
        client: &str,
        topic: &TopicName,
        payload: &Bytes,
        qos: QoS,
        retain: bool,
        origin: Option<&str>,
    ) -> Option<(Bytes, bool, Vec<PendingDelivery>)> {
        let Some(faults) = self.faults.as_mut() else {
            return Some((payload.clone(), false, Vec::new()));
        };
        match faults.evaluate(client, topic, payload, qos, retain, origin) {
            FaultVerdict::Deliver {
                payload,
                duplicate,
                release,
            } => Some((payload, duplicate, release)),
            FaultVerdict::Consumed => None,
            FaultVerdict::Delayed { delivery, delay } => {
                // Arm a reactor timer instead of spawning a sleeper
                // thread: the shard's park deadline accounts for the heap
                // and replays the delivery when it elapses.
                self.timer_seq += 1;
                self.timers.push(Reverse(TimerEntry {
                    at: Instant::now() + delay,
                    seq: self.timer_seq,
                    delivery,
                }));
                None
            }
            FaultVerdict::Kill => {
                // Sever the recipient's live connection through its owner
                // shard; the close is ungraceful, so on_conn_closed fires
                // the client's last-will testament.
                let snap = self.index.load();
                if let Some(entry) = snap
                    .routes
                    .key_of(client)
                    .and_then(|key| snap.routes.entry(key))
                {
                    if let Some(conn) = entry.conn {
                        self.handles[entry.shard].send(Event::ConnClosed(conn));
                    }
                }
                None
            }
        }
    }

    /// Delivers one fault-cleared message to one subscriber:
    ///
    /// * live + QoS 0 → encode-once shared frame pushed straight into the
    ///   subscriber's sender, from whichever shard is routing;
    /// * live + QoS 1/2 on this shard → packet id allocated against the
    ///   local session, frame stamped from the shared template;
    /// * anything else (other shard's session, or offline) → one hop to
    ///   the owner shard's mailbox.
    fn dispatch(&mut self, entry: &RouteEntry, d: Delivery, frames: Option<&mut FanoutFrames>) {
        match (&entry.conn, &entry.sender) {
            (Some(conn), Some(sender)) if d.qos == QoS::AtMostOnce => {
                let frame = match frames.and_then(|f| f.qos0_frame(d.retain, &d.payload)) {
                    Some(shared) => Some(shared),
                    None => codec::encode(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtMostOnce,
                        retain: d.retain,
                        topic: d.topic.clone(),
                        packet_id: None,
                        payload: d.payload.clone(),
                    }))
                    .ok(),
                };
                let Some(frame) = frame else {
                    BrokerCounters::bump(&self.counters.dropped);
                    return;
                };
                // Count before sending: once a receiver observes the
                // frame, the counter must already reflect it.
                BrokerCounters::bump(&self.counters.publishes_out);
                BrokerCounters::add(&self.counters.payload_bytes_out, d.payload.len() as u64);
                if sender.send_frame(frame).is_err() {
                    // The peer vanished mid-delivery; tell the owner shard
                    // so it can tear the connection down.
                    self.handles[entry.shard].send(Event::ConnClosed(*conn));
                }
            }
            _ if entry.shard == self.shard => {
                let client = Arc::clone(&entry.client);
                self.deliver_owned(&client, d, frames);
            }
            (None, _) if d.qos == QoS::AtMostOnce => {
                // Offline subscriber, QoS 0: never queued, so don't pay a
                // cross-shard hop just to have the owner drop it.
                BrokerCounters::bump(&self.counters.dropped);
            }
            _ => {
                // Buffer the hop; `flush_hops` sends one coalesced batch
                // per target shard when the current mailbox burst ends.
                BrokerCounters::bump(&self.counters.cross_shard_hops);
                self.pending_hops[entry.shard].push(d);
            }
        }
    }

    /// Cross-shard hop arriving at the session's owner shard.
    fn on_deliver(&mut self, d: Delivery) {
        let snap = self.index.load();
        let Some(entry) = snap.routes.entry(d.key) else {
            // Session vanished while the hop was in flight.
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        let client = Arc::clone(&entry.client);
        self.deliver_owned(&client, d, None);
    }

    /// Owner-shard delivery: consult the *local* connection table (the
    /// authoritative source for this shard's clients) and either send with
    /// a session packet id or queue for the offline session.
    fn deliver_owned(&mut self, client: &str, d: Delivery, frames: Option<&mut FanoutFrames>) {
        match self.by_client.get(client) {
            Some(&conn_id) if self.conns.contains_key(&conn_id) => {
                if d.qos == QoS::AtMostOnce {
                    // Only reachable when the snapshot lagged the local
                    // table (e.g. replay right after reconnect).
                    BrokerCounters::bump(&self.counters.publishes_out);
                    self.send_to_conn(
                        conn_id,
                        &Packet::Publish(Publish {
                            dup: false,
                            qos: d.qos,
                            retain: d.retain,
                            topic: d.topic,
                            packet_id: None,
                            payload: d.payload,
                        }),
                    );
                    return;
                }
                let Some(session) = self.sessions.get_mut(client) else {
                    BrokerCounters::bump(&self.counters.dropped);
                    return;
                };
                let id = session.alloc_packet_id();
                session.inflight_out.insert(
                    id,
                    InflightOut {
                        topic: d.topic.clone(),
                        payload: d.payload.clone(),
                        qos: d.qos,
                        retain: d.retain,
                        released: false,
                    },
                );
                let persistent = !session.clean;
                if persistent {
                    self.log_wal(WalRecord::InflightInsert {
                        client: client.to_owned(),
                        id,
                        topic: d.topic.clone(),
                        qos: d.qos,
                        retain: d.retain,
                        released: false,
                        payload: d.payload.clone(),
                    });
                }
                BrokerCounters::bump(&self.counters.publishes_out);
                let shared = frames
                    .and_then(|f| f.template(d.qos, d.retain, &d.payload))
                    .map(|t| t.with_packet_id(id));
                match shared {
                    Some(frame) => {
                        BrokerCounters::add(
                            &self.counters.payload_bytes_out,
                            d.payload.len() as u64,
                        );
                        let send_failed = self
                            .conns
                            .get(&conn_id)
                            .map(|c| c.sender.send_frame(frame).is_err())
                            .unwrap_or(false);
                        if send_failed {
                            self.on_conn_closed(conn_id);
                        }
                    }
                    None => self.send_to_conn(
                        conn_id,
                        &Packet::Publish(Publish {
                            dup: false,
                            qos: d.qos,
                            retain: d.retain,
                            topic: d.topic,
                            packet_id: Some(id),
                            payload: d.payload,
                        }),
                    ),
                }
            }
            _ => self.queue_offline(client, d),
        }
    }

    /// Queues a delivery for an offline persistent session, or drops it
    /// (QoS 0 / clean session / no session) per spec latitude.
    fn queue_offline(&mut self, client: &str, d: Delivery) {
        let Some(session) = self.sessions.get_mut(client) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        if d.qos == QoS::AtMostOnce || session.clean {
            BrokerCounters::bump(&self.counters.dropped);
        } else {
            let intact = session.queue_message(QueuedMessage {
                topic: d.topic.clone(),
                payload: d.payload.clone(),
                qos: d.qos,
            });
            // Recovery replays Enqueue through the same capped
            // `queue_message`, so an overflowing WAL converges on the
            // same post-cap queue.
            self.log_wal(WalRecord::Enqueue {
                client: client.to_owned(),
                topic: d.topic,
                qos: d.qos,
                payload: d.payload,
            });
            BrokerCounters::bump(&self.counters.queued_current);
            if !intact {
                BrokerCounters::bump(&self.counters.dropped);
                self.counters.queued_current.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Delivers one message to one client by name, bypassing the fault
    /// plan (used for replays the plan already cleared: queued messages,
    /// released holds, reordered or delayed deliveries).
    fn deliver_raw(
        &mut self,
        client: &str,
        topic: TopicName,
        payload: Bytes,
        qos: QoS,
        retain: bool,
    ) {
        let snap = self.index.load();
        let Some(key) = snap.routes.key_of(client) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        let Some(entry) = snap.routes.entry(key) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        let d = Delivery {
            key,
            topic,
            payload,
            qos,
            retain,
        };
        self.dispatch(entry, d, None);
    }

    fn session_of_conn(&mut self, conn_id: ConnId) -> Option<&mut Session> {
        let client = self.conns.get(&conn_id)?.client_id.clone();
        self.sessions.get_mut(&client)
    }

    fn on_puback(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inflight_out.remove(&id).is_some() && !session.clean {
                log = Some(WalRecord::InflightRemove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
    }

    fn on_pubrec(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if let Some(inflight) = session.inflight_out.get_mut(&id) {
                inflight.released = true;
                if !session.clean {
                    log = Some(WalRecord::InflightRelease {
                        client: session.client_id.clone(),
                        id,
                    });
                }
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
        self.send_to_conn(conn_id, &Packet::Pubrel(id));
    }

    fn on_pubrel(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inbound_qos2.remove(&id) && !session.clean {
                log = Some(WalRecord::InboundQos2Remove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
        self.send_to_conn(conn_id, &Packet::Pubcomp(id));
    }

    fn on_pubcomp(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inflight_out.remove(&id).is_some() && !session.clean {
                log = Some(WalRecord::InflightRemove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
    }

    fn on_subscribe(&mut self, conn_id: ConnId, s: Subscribe) {
        let Some((client_id, key)) = self
            .conns
            .get(&conn_id)
            .map(|c| (c.client_id.clone(), c.key))
        else {
            return;
        };
        let mut codes = Vec::with_capacity(s.filters.len());
        let mut replays: Vec<(TopicName, Bytes, QoS)> = Vec::new();
        for (filter, requested) in &s.filters {
            // The embedded broker grants every valid filter at the
            // requested QoS (codec already validated syntax).
            let granted = *requested;
            let new = self.index.subscribe(filter, key, granted);
            if new {
                BrokerCounters::bump(&self.counters.subscriptions_current);
            }
            let persistent = match self.sessions.get_mut(&client_id) {
                Some(session) => {
                    session.subscriptions.insert(filter.clone(), granted);
                    !session.clean
                }
                None => false,
            };
            if persistent {
                self.log_wal(WalRecord::Subscribe {
                    client: client_id.clone(),
                    filter: filter.clone(),
                    qos: granted,
                });
            }
            codes.push(SubackCode::Granted(granted));
            let snap = self.index.load();
            let mut matching = snap.retained.matching(filter);
            matching.sort_by(|(a, _), (b, _)| a.cmp(b));
            for (topic, retained) in matching {
                replays.push((topic, retained.payload, retained.qos.min(granted)));
            }
        }
        self.send_to_conn(
            conn_id,
            &Packet::Suback(Suback {
                packet_id: s.packet_id,
                return_codes: codes,
            }),
        );
        for (topic, payload, qos) in replays {
            // Retained replays carry retain=1 and pass the fault plan.
            if let Some((payload, duplicate, release)) =
                self.fault_gate(&client_id, &topic, &payload, qos, true, None)
            {
                self.deliver_raw(&client_id, topic.clone(), payload.clone(), qos, true);
                if duplicate {
                    self.deliver_raw(&client_id, topic, payload, qos, true);
                }
                for r in release {
                    self.deliver_raw(&r.client, r.topic, r.payload, r.qos, r.retain);
                }
            }
        }
    }

    fn on_unsubscribe(&mut self, conn_id: ConnId, u: Unsubscribe) {
        let Some((client_id, key)) = self
            .conns
            .get(&conn_id)
            .map(|c| (c.client_id.clone(), c.key))
        else {
            return;
        };
        for filter in &u.filters {
            if self.index.unsubscribe(filter, key) {
                self.counters
                    .subscriptions_current
                    .fetch_sub(1, Ordering::Relaxed);
            }
            let removed_persistent = match self.sessions.get_mut(&client_id) {
                Some(session) => session.subscriptions.remove(filter).is_some() && !session.clean,
                None => false,
            };
            if removed_persistent {
                self.log_wal(WalRecord::Unsubscribe {
                    client: client_id.clone(),
                    filter: filter.clone(),
                });
            }
        }
        self.send_to_conn(conn_id, &Packet::Unsuback(u.packet_id));
    }

    fn on_conn_closed(&mut self, conn_id: ConnId) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        self.counters
            .connections_current
            .fetch_sub(1, Ordering::Relaxed);
        self.teardown_socket(conn_id);

        let will = if conn.graceful {
            None
        } else {
            conn.will.clone()
        };
        // Discharge the persisted will registration: whether it fires now
        // (ungraceful close) or was suppressed (clean DISCONNECT), it must
        // not fire again after a broker restart.
        if conn.will_registered {
            self.log_wal(WalRecord::WillClear {
                client: conn.client_id.clone(),
            });
        }

        if self.by_client.get(&conn.client_id) == Some(&conn_id) {
            self.by_client.remove(&conn.client_id);
            let clean = self
                .sessions
                .get(&conn.client_id)
                .map(|s| s.clean)
                .unwrap_or(true);
            if clean {
                if self.sessions.remove(&conn.client_id).is_some() {
                    self.counters
                        .sessions_current
                        .fetch_sub(1, Ordering::Relaxed);
                }
                let removed = self.index.remove_client(conn.key);
                self.counters
                    .subscriptions_current
                    .fetch_sub(removed as u64, Ordering::Relaxed);
            } else {
                // Parked persistent session: keep routes so queued
                // deliveries still find the owner shard.
                self.index.deregister_conn(conn.key, conn_id);
            }
        }

        if let Some(will) = will {
            let publish = Publish {
                dup: false,
                qos: will.qos,
                retain: will.retain,
                topic: will.topic,
                packet_id: None,
                payload: will.payload,
            };
            // conn_id is gone, so origin-echo suppression is a no-op here.
            self.route(&publish, conn_id, false, Some(&conn.client_id));
        }
    }

    fn send_to_conn(&mut self, conn_id: ConnId, packet: &Packet) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        if let Packet::Publish(p) = packet {
            BrokerCounters::add(&self.counters.payload_bytes_out, p.payload.len() as u64);
        }
        if conn.sender.send_packet(packet).is_err() {
            self.on_conn_closed(conn_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;
    use crate::topic::TopicFilter;
    use std::time::Duration;

    /// Minimal raw-packet client for exercising the broker without the
    /// full `Client` machinery.
    struct RawClient {
        link: LinkEnd,
    }

    impl RawClient {
        fn connect(broker: &Broker, id: &str, clean: bool) -> RawClient {
            Self::connect_full(broker, id, clean, 0, None)
        }

        fn connect_full(
            broker: &Broker,
            id: &str,
            clean: bool,
            keep_alive: u16,
            will: Option<LastWill>,
        ) -> RawClient {
            let link = broker.connect_transport().unwrap();
            link.send_packet(&Packet::Connect(Connect {
                client_id: id.to_owned(),
                clean_session: clean,
                keep_alive,
                will,
            }))
            .unwrap();
            // Generous timeout: the full workspace test run executes many
            // binaries in parallel and can starve this thread for seconds.
            match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
                Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
                other => panic!("expected connack, got {other:?}"),
            }
            RawClient { link }
        }

        fn subscribe(&self, filter: &str, qos: QoS) {
            self.link
                .send_packet(&Packet::Subscribe(Subscribe {
                    packet_id: 1,
                    filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
                }))
                .unwrap();
            match self.recv() {
                Packet::Suback(_) => {}
                other => panic!("expected suback, got {other:?}"),
            }
        }

        fn publish(&self, topic: &str, payload: &[u8], qos: QoS, retain: bool) {
            let packet_id = if qos == QoS::AtMostOnce {
                None
            } else {
                Some(9)
            };
            self.link
                .send_packet(&Packet::Publish(Publish {
                    dup: false,
                    qos,
                    retain,
                    topic: TopicName::new(topic).unwrap(),
                    packet_id,
                    payload: Bytes::from(payload.to_vec()),
                }))
                .unwrap();
        }

        fn recv(&self) -> Packet {
            self.link
                .recv_packet_timeout(Duration::from_secs(30))
                .unwrap()
        }

        fn expect_publish(&self) -> Publish {
            loop {
                match self.recv() {
                    Packet::Publish(p) => return p,
                    Packet::Puback(_) | Packet::Pubrec(_) | Packet::Pubcomp(_) => continue,
                    other => panic!("expected publish, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn qos0_pubsub_roundtrip() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("a/b", QoS::AtMostOnce);
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("a/b", b"hi", QoS::AtMostOnce, false);
        let got = sub.expect_publish();
        assert_eq!(got.topic.as_str(), "a/b");
        assert_eq!(got.payload, Bytes::from_static(b"hi"));
        assert_eq!(got.qos, QoS::AtMostOnce);
    }

    #[test]
    fn qos1_gets_puback_and_delivery() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("t", QoS::AtLeastOnce);
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"x", QoS::AtLeastOnce, false);
        match publ.recv() {
            Packet::Puback(9) => {}
            other => panic!("expected puback(9), got {other:?}"),
        }
        let got = sub.expect_publish();
        assert_eq!(got.qos, QoS::AtLeastOnce);
        assert!(got.packet_id.is_some());
    }

    #[test]
    fn qos2_full_handshake_no_duplicates() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("t", QoS::ExactlyOnce);
        let publ = RawClient::connect(&broker, "pub", true);

        publ.publish("t", b"x", QoS::ExactlyOnce, false);
        match publ.recv() {
            Packet::Pubrec(9) => {}
            other => panic!("expected pubrec, got {other:?}"),
        }
        // Duplicate publish with the same id must not be re-routed.
        publ.publish("t", b"x", QoS::ExactlyOnce, false);
        match publ.recv() {
            Packet::Pubrec(9) => {}
            other => panic!("expected pubrec, got {other:?}"),
        }
        publ.link.send_packet(&Packet::Pubrel(9)).unwrap();
        match publ.recv() {
            Packet::Pubcomp(9) => {}
            other => panic!("expected pubcomp, got {other:?}"),
        }

        let got = sub.expect_publish();
        assert_eq!(got.qos, QoS::ExactlyOnce);
        // Complete the subscriber-side handshake.
        let id = got.packet_id.unwrap();
        sub.link.send_packet(&Packet::Pubrec(id)).unwrap();
        match sub.recv() {
            Packet::Pubrel(got_id) => assert_eq!(got_id, id),
            other => panic!("expected pubrel, got {other:?}"),
        }
        sub.link.send_packet(&Packet::Pubcomp(id)).unwrap();

        // Exactly one delivery.
        assert_eq!(broker.stats().publishes_out, 1);
    }

    #[test]
    fn qos_downgrade_to_subscription_grant() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("t", QoS::AtMostOnce);
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"x", QoS::AtLeastOnce, false);
        let got = sub.expect_publish();
        assert_eq!(got.qos, QoS::AtMostOnce, "delivery QoS = min(pub, sub)");
    }

    #[test]
    fn retained_message_replayed_on_subscribe() {
        let broker = Broker::start_default();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("cfg/x", b"v1", QoS::AtMostOnce, true);
        std::thread::sleep(Duration::from_millis(50));
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("cfg/#", QoS::AtMostOnce);
        let got = sub.expect_publish();
        assert!(got.retain, "retained replay sets the retain flag");
        assert_eq!(got.payload, Bytes::from_static(b"v1"));
    }

    #[test]
    fn empty_retained_clears() {
        let broker = Broker::start_default();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("cfg/x", b"v1", QoS::AtMostOnce, true);
        publ.publish("cfg/x", b"", QoS::AtMostOnce, true);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.stats().retained_current, 0);
    }

    #[test]
    fn persistent_session_queues_while_offline() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", false);
        sub.subscribe("t", QoS::AtLeastOnce);
        drop(sub); // goes offline; session persists
        std::thread::sleep(Duration::from_millis(50));

        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"while-away", QoS::AtLeastOnce, false);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.stats().queued_current, 1);

        // Reconnect without clean: message is replayed.
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Connect(Connect {
            client_id: "sub".into(),
            clean_session: false,
            keep_alive: 0,
            will: None,
        }))
        .unwrap();
        match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
            Packet::Connack(c) => assert!(c.session_present),
            other => panic!("expected connack, got {other:?}"),
        }
        match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
            Packet::Publish(p) => assert_eq!(p.payload, Bytes::from_static(b"while-away")),
            other => panic!("expected publish, got {other:?}"),
        }
    }

    #[test]
    fn clean_session_discards_state() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", false);
        sub.subscribe("t", QoS::AtLeastOnce);
        drop(sub);
        std::thread::sleep(Duration::from_millis(50));

        // Reconnect with clean=true: no session, no subscriptions.
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Connect(Connect {
            client_id: "sub".into(),
            clean_session: true,
            keep_alive: 0,
            will: None,
        }))
        .unwrap();
        match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
            Packet::Connack(c) => assert!(!c.session_present),
            other => panic!("expected connack, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.stats().subscriptions_current, 0);
    }

    #[test]
    fn last_will_published_on_ungraceful_drop() {
        let broker = Broker::start_default();
        let watcher = RawClient::connect(&broker, "watcher", true);
        watcher.subscribe("status/+", QoS::AtMostOnce);
        let doomed = RawClient::connect_full(
            &broker,
            "doomed",
            true,
            0,
            Some(LastWill {
                topic: TopicName::new("status/doomed").unwrap(),
                payload: Bytes::from_static(b"offline"),
                qos: QoS::AtMostOnce,
                retain: false,
            }),
        );
        drop(doomed); // ungraceful: no DISCONNECT sent
        let got = watcher.expect_publish();
        assert_eq!(got.topic.as_str(), "status/doomed");
        assert_eq!(got.payload, Bytes::from_static(b"offline"));
    }

    #[test]
    fn graceful_disconnect_suppresses_will() {
        let broker = Broker::start_default();
        let watcher = RawClient::connect(&broker, "watcher", true);
        watcher.subscribe("status/+", QoS::AtMostOnce);
        let polite = RawClient::connect_full(
            &broker,
            "polite",
            true,
            0,
            Some(LastWill {
                topic: TopicName::new("status/polite").unwrap(),
                payload: Bytes::from_static(b"offline"),
                qos: QoS::AtMostOnce,
                retain: false,
            }),
        );
        polite.link.send_packet(&Packet::Disconnect).unwrap();
        drop(polite);
        // No will should arrive.
        assert!(watcher
            .link
            .recv_packet_timeout(Duration::from_millis(200))
            .is_err());
    }

    #[test]
    fn kill_connection_fault_fires_will() {
        // A KillConnection rule assassinates the recipient instead of
        // delivering — the broker sees an ungraceful close and publishes
        // the victim's testament.
        let plan = FaultPlan::seeded(3).rule(
            FaultRule::kill_connection("assassin")
                .on_topic("trigger")
                .to_client("victim")
                .take(1),
        );
        let broker = Broker::start(BrokerConfig {
            fault_plan: Some(plan),
            ..BrokerConfig::default()
        });
        let watcher = RawClient::connect(&broker, "watcher", true);
        watcher.subscribe("status/+", QoS::AtMostOnce);
        let victim = RawClient::connect_full(
            &broker,
            "victim",
            true,
            0,
            Some(LastWill {
                topic: TopicName::new("status/victim").unwrap(),
                payload: Bytes::from_static(b"assassinated"),
                qos: QoS::AtMostOnce,
                retain: false,
            }),
        );
        victim.subscribe("trigger", QoS::AtMostOnce);
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("trigger", b"bang", QoS::AtMostOnce, false);
        // The trigger message is consumed, the testament arrives instead.
        let got = watcher.expect_publish();
        assert_eq!(got.topic.as_str(), "status/victim");
        assert_eq!(got.payload, Bytes::from_static(b"assassinated"));
        // The victim's link is dead and it never saw the trigger.
        let r = victim.link.recv_packet_timeout(Duration::from_millis(500));
        assert!(r.is_err(), "victim link should be severed, got {r:?}");
        assert_eq!(broker.fault_hits(), vec![("assassin".to_owned(), 1)]);
    }

    #[test]
    fn session_takeover_disconnects_old() {
        let broker = Broker::start_default();
        let first = RawClient::connect(&broker, "dup", true);
        let _second = RawClient::connect(&broker, "dup", true);
        std::thread::sleep(Duration::from_millis(50));
        // The first connection's link is now closed by the broker.
        assert_eq!(broker.stats().connections_current, 1);
        // Receiving on the first link eventually errors (channel closed).
        let r = first.link.recv_packet_timeout(Duration::from_millis(200));
        assert!(r.is_err());
    }

    #[test]
    fn keepalive_expiry_drops_connection() {
        // Keep-alive checks are deadline-driven (no tick): the shard
        // sleeps until exactly keep_alive * grace and expires then.
        let broker = Broker::start_default();
        let _quiet = RawClient::connect_full(&broker, "quiet", true, 1, None);
        // 1s keepalive * 1.5 grace = 1.5s until expiry.
        std::thread::sleep(Duration::from_millis(1700));
        assert_eq!(broker.stats().connections_current, 0);
        assert_eq!(broker.stats().keepalive_timeouts, 1);
    }

    #[test]
    fn pingreq_keeps_connection_alive() {
        let broker = Broker::start_default();
        let client = RawClient::connect_full(&broker, "alive", true, 1, None);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(500));
            client.link.send_packet(&Packet::Pingreq).unwrap();
            match client.recv() {
                Packet::Pingresp => {}
                other => panic!("expected pingresp, got {other:?}"),
            }
        }
        assert_eq!(broker.stats().connections_current, 1);
    }

    #[test]
    fn fanout_to_many_subscribers() {
        let broker = Broker::start_default();
        let subs: Vec<RawClient> = (0..10)
            .map(|i| {
                let c = RawClient::connect(&broker, &format!("sub{i}"), true);
                c.subscribe("fan/+", QoS::AtMostOnce);
                c
            })
            .collect();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("fan/1", b"data", QoS::AtMostOnce, false);
        for sub in &subs {
            assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"data"));
        }
        let stats = broker.stats();
        assert_eq!(stats.publishes_in, 1);
        assert_eq!(stats.publishes_out, 10);
        assert!((stats.fanout_ratio() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn publish_before_connect_drops_connection() {
        let broker = Broker::start_default();
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Publish(Publish::simple(
            TopicName::new("t").unwrap(),
            b"x".to_vec(),
        )))
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.stats().connections_current, 0);
    }

    #[test]
    fn second_connect_drops_connection() {
        let broker = Broker::start_default();
        let client = RawClient::connect(&broker, "twice", true);
        client
            .link
            .send_packet(&Packet::Connect(Connect {
                client_id: "twice".into(),
                clean_session: true,
                keep_alive: 0,
                will: None,
            }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.stats().connections_current, 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker = Broker::start_default();
        let sub = RawClient::connect(&broker, "sub", true);
        sub.subscribe("t", QoS::AtMostOnce);
        sub.link
            .send_packet(&Packet::Unsubscribe(Unsubscribe {
                packet_id: 2,
                filters: vec![TopicFilter::new("t").unwrap()],
            }))
            .unwrap();
        match sub.recv() {
            Packet::Unsuback(2) => {}
            other => panic!("expected unsuback, got {other:?}"),
        }
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"x", QoS::AtMostOnce, false);
        assert!(sub
            .link
            .recv_packet_timeout(Duration::from_millis(200))
            .is_err());
    }

    // ------------------------------------------------------------------
    // Sharded-core tests
    // ------------------------------------------------------------------

    fn sharded(shards: usize) -> Broker {
        Broker::start(BrokerConfig {
            name: format!("sharded{shards}"),
            shards,
            ..BrokerConfig::default()
        })
    }

    #[test]
    fn sharded_fanout_reaches_every_shard() {
        let broker = sharded(4);
        assert_eq!(broker.shards(), 4);
        let subs: Vec<RawClient> = (0..16)
            .map(|i| {
                let c = RawClient::connect(&broker, &format!("s{i:02}"), true);
                c.subscribe("fan/#", QoS::AtMostOnce);
                c
            })
            .collect();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("fan/x", b"blast", QoS::AtMostOnce, false);
        for sub in &subs {
            assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"blast"));
        }
        assert_eq!(broker.stats().publishes_out, 16);
    }

    #[test]
    fn sharded_qos1_crosses_shards_with_session_ids() {
        let broker = sharded(4);
        // 16 ids cover all 4 shards with overwhelming probability.
        let subs: Vec<RawClient> = (0..16)
            .map(|i| {
                let c = RawClient::connect(&broker, &format!("q{i:02}"), true);
                c.subscribe("t", QoS::AtLeastOnce);
                c
            })
            .collect();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"ack-me", QoS::AtLeastOnce, false);
        for sub in &subs {
            let p = sub.expect_publish();
            assert_eq!(p.qos, QoS::AtLeastOnce);
            let id = p.packet_id.expect("QoS1 delivery carries a packet id");
            sub.link.send_packet(&Packet::Puback(id)).unwrap();
        }
        // The publisher's shard routed; other shards' sessions were
        // reached via mailbox hops.
        assert!(
            broker.stats().cross_shard_hops > 0,
            "expected cross-shard hops"
        );
    }

    #[test]
    fn sharded_persistent_queue_and_replay() {
        let broker = sharded(4);
        let sub = RawClient::connect(&broker, "parked", false);
        sub.subscribe("t", QoS::AtLeastOnce);
        drop(sub);
        std::thread::sleep(Duration::from_millis(50));
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"held", QoS::AtLeastOnce, false);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(broker.stats().queued_current, 1);
        let sub = RawClient::connect(&broker, "parked", false);
        let got = sub.expect_publish();
        assert_eq!(got.payload, Bytes::from_static(b"held"));
    }

    #[test]
    fn fanout_order_is_sorted_by_client_id() {
        // A take(1) drop rule consumes exactly the FIRST delivery of the
        // fan-out. With sorted fan-out the victim is always the
        // lexicographically smallest subscriber, run after run —
        // previously HashMap iteration order picked a random victim.
        for _ in 0..3 {
            let plan = FaultPlan::seeded(7).rule(FaultRule::drop_matching("first").take(1));
            let broker = Broker::start(BrokerConfig {
                fault_plan: Some(plan),
                ..BrokerConfig::default()
            });
            // Connect in non-sorted order to rule out join-order effects.
            let names = ["m2", "m0", "m1"];
            let subs: Vec<RawClient> = names
                .iter()
                .map(|n| {
                    let c = RawClient::connect(&broker, n, true);
                    c.subscribe("t", QoS::AtMostOnce);
                    c
                })
                .collect();
            let publ = RawClient::connect(&broker, "pub", true);
            publ.publish("t", b"x", QoS::AtMostOnce, false);
            // m0 (sorted-first) is always the victim; m1 and m2 receive.
            assert_eq!(subs[2].expect_publish().payload, Bytes::from_static(b"x")); // m1
            assert_eq!(subs[0].expect_publish().payload, Bytes::from_static(b"x")); // m2
            assert!(
                subs[1] // m0
                    .link
                    .recv_packet_timeout(Duration::from_millis(150))
                    .is_err(),
                "sorted-first subscriber m0 must be the dropped one"
            );
        }
    }

    #[test]
    fn qos0_fanout_shares_one_encoded_frame() {
        // Encode-once: one publish's QoS0 frame is encoded once and the
        // same allocation is queued for every subscriber...
        let payload = Bytes::from_static(b"shared-bytes");
        let mut cache = FanoutFrames::new(&TopicName::new("enc").unwrap(), &payload);
        let first = cache.qos0_frame(false, &payload).unwrap();
        let again = cache.qos0_frame(false, &payload).unwrap();
        assert_eq!(first.as_ptr(), again.as_ptr(), "frame allocation is shared");
        // ...so every subscriber receives exactly those bytes, and payload
        // counters reflect every delivery.
        let broker = Broker::start_default();
        let subs: Vec<RawClient> = (0..5)
            .map(|i| {
                let c = RawClient::connect(&broker, &format!("e{i}"), true);
                c.subscribe("enc", QoS::AtMostOnce);
                c
            })
            .collect();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("enc", b"shared-bytes", QoS::AtMostOnce, false);
        let frames: Vec<Bytes> = subs
            .iter()
            .map(|s| {
                s.link
                    .recv_frame_timeout(Duration::from_secs(5))
                    .expect("frame")
            })
            .collect();
        for f in &frames {
            assert_eq!(f, &first);
        }
        assert_eq!(
            broker.stats().payload_bytes_out,
            5 * b"shared-bytes".len() as u64
        );
    }
}
