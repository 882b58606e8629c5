//! Snapshot-routed broker index: the single-writer, many-reader home of
//! the subscription trie, the retained store, and the client route table.
//!
//! The sharded broker (see [`crate::broker`]) runs one event loop per
//! shard, and any shard must be able to route a publish without touching
//! another shard's state. All routing state therefore lives here as
//! **generation-swapped read-only snapshots**:
//!
//! * mutations (subscribe / unsubscribe / connect / disconnect / retained
//!   writes) funnel through the index writer — a mutex over the master
//!   copies — which applies the change and publishes a fresh
//!   [`IndexSnapshot`] with a bumped generation;
//! * readers (`route` on every shard) load the current `Arc<IndexSnapshot>`
//!   and match against it without taking any exclusive lock. A snapshot is
//!   internally immutable, so a route decision is atomic with respect to
//!   concurrent mutations: either it sees the whole mutation or none of it.
//!
//! Subscriber keys in the trie are **interned** `u64` client keys
//! ([`ClientKey`]) instead of cloned `String`s: the hot matching path
//! compares and copies machine words, and the route table maps the key
//! back to the client name, owning shard, and live [`FrameSender`] when a
//! delivery needs them.
//!
//! Copy-on-write granularity is per-structure: a subscribe clones only the
//! trie, a retained publish clones only the retained map, a connect clones
//! only the route table. The parts that did not change are shared between
//! consecutive snapshots via `Arc`.

use crate::broker::ConnId;
use crate::packet::{Publish, QoS};
use crate::persist::PersistStore;
use crate::retained::RetainedStore;
use crate::topic::TopicFilter;
use crate::transport::FrameSender;
use crate::trie::SubscriptionTrie;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Interned client key: a small integer standing in for a client id
/// `String` in the subscription trie and route table.
pub type ClientKey = u64;

/// Routing facts for one known client (a client is "known" while the
/// broker holds a session for it, live or parked).
#[derive(Debug, Clone)]
pub struct RouteEntry {
    /// The client identifier this entry routes for.
    pub client: Arc<str>,
    /// Shard that owns the client's session state.
    pub shard: usize,
    /// Live connection id, if the client is currently connected.
    pub conn: Option<ConnId>,
    /// Live link sender, if the client is currently connected. QoS 0
    /// deliveries go straight through this from any shard.
    pub sender: Option<FrameSender>,
    /// True for bridge connections (loop-prevention + retain forwarding).
    pub is_bridge: bool,
}

/// The client route table: key → entry, plus the name → key interner view.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    by_key: HashMap<ClientKey, RouteEntry>,
    by_name: HashMap<Arc<str>, ClientKey>,
}

impl RouteTable {
    /// Looks up the route entry for an interned key.
    pub fn entry(&self, key: ClientKey) -> Option<&RouteEntry> {
        self.by_key.get(&key)
    }

    /// Resolves a client name to its interned key.
    pub fn key_of(&self, client: &str) -> Option<ClientKey> {
        self.by_name.get(client).copied()
    }

    /// Number of known clients.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when no clients are known.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// One immutable, internally consistent view of the broker's routing
/// state. Shards load it once per publish and route against it lock-free.
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    /// Monotonic snapshot generation (bumps on every published mutation).
    pub generation: u64,
    /// Subscription trie keyed by interned client keys.
    pub trie: Arc<SubscriptionTrie<ClientKey, QoS>>,
    /// Retained message store.
    pub retained: Arc<RetainedStore>,
    /// Client route table.
    pub routes: Arc<RouteTable>,
}

/// Master (writer-side) state behind the mutex.
struct IndexMaster {
    generation: u64,
    trie: SubscriptionTrie<ClientKey, QoS>,
    retained: RetainedStore,
    routes: RouteTable,
    next_key: ClientKey,
    /// Persistence hook: retained writes are WAL-logged *under the writer
    /// lock*, so the retained stream's record order matches index order
    /// exactly. `None` when persistence is off.
    retained_log: Option<Arc<PersistStore>>,
}

/// Outcome of a retained-store write, for the broker's gauge counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainedDelta {
    /// A new retained topic was stored.
    Added,
    /// An existing retained topic was replaced.
    Replaced,
    /// A retained topic was cleared.
    Removed,
    /// The write changed nothing (clear of an absent topic).
    Unchanged,
}

/// The shared index: one writer (mutex-funneled), any number of snapshot
/// readers.
pub struct SharedIndex {
    master: Mutex<IndexMaster>,
    snap: RwLock<Arc<IndexSnapshot>>,
}

impl std::fmt::Debug for SharedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedIndex")
            .field("generation", &self.load().generation)
            .finish()
    }
}

impl Default for SharedIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedIndex {
    /// Creates an empty index at generation 0.
    pub fn new() -> SharedIndex {
        let snapshot = Arc::new(IndexSnapshot {
            generation: 0,
            trie: Arc::new(SubscriptionTrie::new()),
            retained: Arc::new(RetainedStore::new()),
            routes: Arc::new(RouteTable::default()),
        });
        SharedIndex {
            master: Mutex::new(IndexMaster {
                generation: 0,
                trie: SubscriptionTrie::new(),
                retained: RetainedStore::new(),
                routes: RouteTable::default(),
                next_key: 1,
                retained_log: None,
            }),
            snap: RwLock::new(snapshot),
        }
    }

    /// Loads the current snapshot (cheap: one shared lock + `Arc` clone).
    pub fn load(&self) -> Arc<IndexSnapshot> {
        self.snap.read().clone()
    }

    /// Runs `f` against the live (master) trie — test and introspection
    /// hook for the snapshot-vs-live equivalence property.
    pub fn with_live_trie<R>(&self, f: impl FnOnce(&SubscriptionTrie<ClientKey, QoS>) -> R) -> R {
        f(&self.master.lock().trie)
    }

    /// Interns `client` (idempotent) and upserts its route entry with a
    /// live connection. Returns the client's key.
    pub fn register_conn(
        &self,
        client: &str,
        shard: usize,
        conn: ConnId,
        sender: FrameSender,
        is_bridge: bool,
    ) -> ClientKey {
        let mut master = self.master.lock();
        let key = Self::intern(&mut master, client);
        let name: Arc<str> = master.routes.by_key.get(&key).map_or_else(
            || Arc::from(client),
            |existing| Arc::clone(&existing.client),
        );
        master.routes.by_key.insert(
            key,
            RouteEntry {
                client: name,
                shard,
                conn: Some(conn),
                sender: Some(sender),
                is_bridge,
            },
        );
        self.publish(master, Changed::ROUTES);
        key
    }

    /// Interns `client` and inserts an *offline* route entry (no live
    /// connection) if none exists, so recovered persistent sessions are
    /// routable before their clients reconnect. Returns the client's key.
    pub fn register_offline(&self, client: &str, shard: usize) -> ClientKey {
        let mut master = self.master.lock();
        let key = Self::intern(&mut master, client);
        master
            .routes
            .by_key
            .entry(key)
            .or_insert_with(|| RouteEntry {
                client: Arc::from(client),
                shard,
                conn: None,
                sender: None,
                is_bridge: false,
            });
        self.publish(master, Changed::ROUTES);
        key
    }

    /// Installs the persistence hook for retained writes. Must be called
    /// *after* recovered retained state has been seeded (seeding goes
    /// through [`SharedIndex::apply_retained`] and must not be re-logged).
    pub fn set_retained_log(&self, store: Arc<PersistStore>) {
        self.master.lock().retained_log = Some(store);
    }

    /// Marks the client offline (parked session): clears the live
    /// connection but keeps the entry so queued deliveries keep routing
    /// to the owner shard. A no-op if a newer connection took over.
    pub fn deregister_conn(&self, key: ClientKey, conn: ConnId) {
        let mut master = self.master.lock();
        let Some(entry) = master.routes.by_key.get_mut(&key) else {
            return;
        };
        if entry.conn != Some(conn) {
            return; // session takeover already re-registered
        }
        entry.conn = None;
        entry.sender = None;
        self.publish(master, Changed::ROUTES);
    }

    /// Forgets the client entirely (clean-session disconnect): removes
    /// its route entry and purges its subscriptions. Returns the number
    /// of subscriptions removed.
    pub fn remove_client(&self, key: ClientKey) -> usize {
        let mut master = self.master.lock();
        let removed = master.trie.unsubscribe_all(&key);
        if let Some(entry) = master.routes.by_key.remove(&key) {
            master.routes.by_name.remove(&entry.client);
        }
        self.publish(master, Changed::TRIE.and(Changed::ROUTES));
        removed
    }

    /// Adds or replaces the subscription `(key, filter)`. Returns true if
    /// the entry is new.
    pub fn subscribe(&self, filter: &TopicFilter, key: ClientKey, granted: QoS) -> bool {
        let mut master = self.master.lock();
        let new = master.trie.subscribe(filter, key, granted);
        self.publish(master, Changed::TRIE);
        new
    }

    /// Removes the subscription `(key, filter)`. Returns true if it
    /// existed.
    pub fn unsubscribe(&self, filter: &TopicFilter, key: ClientKey) -> bool {
        let mut master = self.master.lock();
        let removed = master.trie.unsubscribe(filter, &key);
        self.publish(master, Changed::TRIE);
        removed
    }

    /// Removes every subscription held by `key` (clean CONNECT over an
    /// existing session). Returns the number removed.
    pub fn unsubscribe_all(&self, key: ClientKey) -> usize {
        let mut master = self.master.lock();
        let removed = master.trie.unsubscribe_all(&key);
        self.publish(master, Changed::TRIE);
        removed
    }

    /// Applies a retained publish to the store and reports what changed.
    pub fn apply_retained(&self, publish: &Publish) -> RetainedDelta {
        let mut master = self.master.lock();
        let delta = if publish.payload.is_empty() {
            if master.retained.apply(publish) {
                RetainedDelta::Removed
            } else {
                RetainedDelta::Unchanged
            }
        } else {
            let had = master.retained.get(&publish.topic).is_some();
            master.retained.apply(publish);
            if had {
                RetainedDelta::Replaced
            } else {
                RetainedDelta::Added
            }
        };
        if delta != RetainedDelta::Unchanged {
            if let Some(log) = master.retained_log.as_ref().map(Arc::clone) {
                // Under the writer lock: record order matches index order.
                log.append_retained(
                    &publish.topic,
                    publish.qos,
                    &publish.payload,
                    &master.retained,
                );
            }
            self.publish(master, Changed::RETAINED);
        }
        delta
    }

    fn intern(master: &mut IndexMaster, client: &str) -> ClientKey {
        if let Some(&key) = master.routes.by_name.get(client) {
            return key;
        }
        let key = master.next_key;
        master.next_key += 1;
        let name: Arc<str> = Arc::from(client);
        master.routes.by_name.insert(name, key);
        key
    }

    /// Publishes a snapshot rebuilding exactly the structures `changed`
    /// names from the master copies; everything else is `Arc`-shared with
    /// the previous generation (the copy-on-write granularity).
    fn publish(&self, mut master: parking_lot::MutexGuard<'_, IndexMaster>, changed: Changed) {
        master.generation += 1;
        let current = self.snap.read().clone();
        let snapshot = Arc::new(IndexSnapshot {
            generation: master.generation,
            trie: if changed.trie {
                Arc::new(master.trie.clone())
            } else {
                Arc::clone(&current.trie)
            },
            retained: if changed.retained {
                Arc::new(master.retained.clone())
            } else {
                Arc::clone(&current.retained)
            },
            routes: if changed.routes {
                Arc::new(master.routes.clone())
            } else {
                Arc::clone(&current.routes)
            },
        });
        *self.snap.write() = snapshot;
    }
}

/// Which master structures a mutation touched (selects the parts the next
/// snapshot must re-clone).
#[derive(Debug, Clone, Copy, Default)]
struct Changed {
    trie: bool,
    retained: bool,
    routes: bool,
}

impl Changed {
    const TRIE: Changed = Changed {
        trie: true,
        retained: false,
        routes: false,
    };
    const RETAINED: Changed = Changed {
        trie: false,
        retained: true,
        routes: false,
    };
    const ROUTES: Changed = Changed {
        trie: false,
        retained: false,
        routes: true,
    };

    const fn and(self, other: Changed) -> Changed {
        Changed {
            trie: self.trie || other.trie,
            retained: self.retained || other.retained,
            routes: self.routes || other.routes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicName;
    use bytes::Bytes;

    fn f(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }
    fn t(s: &str) -> TopicName {
        TopicName::new(s).unwrap()
    }

    /// Tests only inspect routing metadata, never send.
    fn sender() -> FrameSender {
        FrameSender::closed().unwrap()
    }

    #[test]
    fn interning_is_stable_across_reconnects() {
        let index = SharedIndex::new();
        let k1 = index.register_conn("alice", 0, 1, sender(), false);
        index.deregister_conn(k1, 1);
        let k2 = index.register_conn("alice", 0, 2, sender(), false);
        assert_eq!(k1, k2, "parked session keeps its key");
        let k3 = index.register_conn("bob", 1, 3, sender(), false);
        assert_ne!(k1, k3);
    }

    #[test]
    fn snapshot_is_immutable_while_master_moves() {
        let index = SharedIndex::new();
        let key = index.register_conn("c", 0, 1, sender(), false);
        index.subscribe(&f("a/#"), key, QoS::AtMostOnce);
        let old = index.load();
        index.subscribe(&f("b/#"), key, QoS::AtMostOnce);
        let new = index.load();
        assert_eq!(old.trie.matches(&t("b/x")).len(), 0, "old snapshot frozen");
        assert_eq!(new.trie.matches(&t("b/x")).len(), 1);
        assert!(new.generation > old.generation);
    }

    #[test]
    fn unchanged_parts_are_shared_between_generations() {
        let index = SharedIndex::new();
        let key = index.register_conn("c", 0, 1, sender(), false);
        index.subscribe(&f("a/#"), key, QoS::AtMostOnce);
        let before = index.load();
        index.apply_retained(&Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: true,
            topic: t("a/b"),
            packet_id: None,
            payload: Bytes::from_static(b"v"),
        });
        let after = index.load();
        assert!(
            Arc::ptr_eq(&before.trie, &after.trie),
            "retained write must not clone the trie"
        );
        assert!(!Arc::ptr_eq(&before.retained, &after.retained));
    }

    #[test]
    fn stale_deregister_is_ignored_after_takeover() {
        let index = SharedIndex::new();
        let key = index.register_conn("c", 0, 1, sender(), false);
        // Takeover: a new connection re-registers before the old closes.
        index.register_conn("c", 0, 2, sender(), false);
        index.deregister_conn(key, 1); // stale close
        let snap = index.load();
        assert_eq!(snap.routes.entry(key).unwrap().conn, Some(2));
    }

    #[test]
    fn remove_client_purges_routes_and_subscriptions() {
        let index = SharedIndex::new();
        let key = index.register_conn("c", 0, 1, sender(), false);
        index.subscribe(&f("a/#"), key, QoS::AtMostOnce);
        index.subscribe(&f("b"), key, QoS::AtMostOnce);
        assert_eq!(index.remove_client(key), 2);
        let snap = index.load();
        assert!(snap.routes.is_empty());
        assert!(snap.trie.is_empty());
        assert_eq!(snap.routes.key_of("c"), None);
    }

    #[test]
    fn retained_delta_reports_transitions() {
        let index = SharedIndex::new();
        let publ = |payload: &'static [u8]| Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: true,
            topic: t("cfg/x"),
            packet_id: None,
            payload: Bytes::from_static(payload),
        };
        assert_eq!(index.apply_retained(&publ(b"v1")), RetainedDelta::Added);
        assert_eq!(index.apply_retained(&publ(b"v2")), RetainedDelta::Replaced);
        assert_eq!(index.apply_retained(&publ(b"")), RetainedDelta::Removed);
        assert_eq!(index.apply_retained(&publ(b"")), RetainedDelta::Unchanged);
    }
}
