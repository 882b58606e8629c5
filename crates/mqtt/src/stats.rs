//! Broker runtime statistics.
//!
//! Counters are plain atomics updated by the broker event loop and read by
//! any thread via [`BrokerCounters::snapshot`]. All updates use `Relaxed`
//! ordering — these are monitoring counters, not synchronization points, so
//! no happens-before edges are required (cf. "Rust Atomics and Locks" ch. 2,
//! Example: Statistics).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared atomic counters for one broker instance.
#[derive(Debug, Default)]
pub struct BrokerCounters {
    /// PUBLISH packets received from clients.
    pub publishes_in: AtomicU64,
    /// PUBLISH packets sent to clients (fan-out counted per delivery).
    pub publishes_out: AtomicU64,
    /// Application payload bytes received in PUBLISH packets.
    pub payload_bytes_in: AtomicU64,
    /// Application payload bytes sent in PUBLISH packets.
    pub payload_bytes_out: AtomicU64,
    /// Currently open connections.
    pub connections_current: AtomicU64,
    /// Connections accepted since the broker started.
    pub connections_total: AtomicU64,
    /// Sessions currently stored (connected or parked).
    pub sessions_current: AtomicU64,
    /// Subscriptions currently stored in the trie.
    pub subscriptions_current: AtomicU64,
    /// Retained messages currently stored.
    pub retained_current: AtomicU64,
    /// Messages queued for offline persistent sessions.
    pub queued_current: AtomicU64,
    /// Messages dropped (queue overflow, no matching subscriber for a
    /// will, or delivery to a vanished connection).
    pub dropped: AtomicU64,
    /// Connections closed due to keep-alive expiry.
    pub keepalive_timeouts: AtomicU64,
    /// TCP connections evicted for exceeding the outbound write
    /// high-water mark (slow consumers).
    pub slow_consumer_evictions: AtomicU64,
    /// Messages forwarded in from a bridge connection.
    pub bridge_in: AtomicU64,
    /// Deliveries that hopped between broker shards (a QoS>0 or offline
    /// delivery whose session lives on a different shard than the one
    /// that routed the publish). Always 0 with `shards = 1`.
    pub cross_shard_hops: AtomicU64,
    /// Batched cross-shard `Deliver` events sent (each batch carries one
    /// or more hops coalesced per target shard). Always 0 with one shard.
    pub cross_shard_batches: AtomicU64,
    /// Persistent sessions destroyed by a clean-session reconnect or a
    /// clean disconnect.
    pub sessions_cleaned: AtomicU64,
    /// Records appended to the write-ahead log (0 with persistence off).
    pub wal_records: AtomicU64,
    /// Group-committed WAL batches written by the persistence thread
    /// (each batch is one `write` covering `>= 1` records).
    pub wal_batches: AtomicU64,
    /// High-water mark of any per-stream WAL queue (records enqueued but
    /// not yet written by the persistence thread).
    pub wal_queue_hwm: AtomicU64,
    /// Times a shard blocked on a full WAL queue.
    pub wal_stalls: AtomicU64,
    /// WAL records lost to write errors (the stream degrades to
    /// in-memory operation after the first failure).
    pub wal_append_errors: AtomicU64,
    /// Fsync calls issued by the persistence thread (0 under
    /// `Durability::OsCache`).
    pub fsyncs: AtomicU64,
    /// Cumulative milliseconds the persistence thread spent writing
    /// compacted snapshots (never shard event-loop time).
    pub snapshot_ms: AtomicU64,
    /// Compacted snapshots written (0 with persistence off).
    pub wal_snapshots: AtomicU64,
    /// Sessions reconstructed from snapshot + WAL replay at startup.
    pub recovered_sessions: AtomicU64,
    /// Retained messages reconstructed from snapshot + WAL at startup.
    pub recovered_retained: AtomicU64,
    /// Per-fault-rule hit counters, registered by the broker loop when a
    /// fault plan is installed (label → shared hit counter). The counters
    /// themselves live in the rules; this registry surfaces them through
    /// the stats API.
    fault_rules: Mutex<Vec<(String, Arc<AtomicU64>)>>,
}

impl BrokerCounters {
    /// Increments a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `n`.
    #[inline]
    pub fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Registers a fault rule's hit counter under `label`.
    pub fn register_fault_rule(&self, label: String, hits: Arc<AtomicU64>) {
        self.fault_rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((label, hits));
    }

    /// Point-in-time per-rule fault hit counts, in rule order.
    pub fn fault_hits(&self) -> Vec<(String, u64)> {
        self.fault_rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(label, hits)| (label.clone(), hits.load(Ordering::Relaxed)))
            .collect()
    }

    /// Takes a point-in-time copy of every counter.
    pub fn snapshot(&self) -> BrokerStatsSnapshot {
        BrokerStatsSnapshot {
            publishes_in: self.publishes_in.load(Ordering::Relaxed),
            publishes_out: self.publishes_out.load(Ordering::Relaxed),
            payload_bytes_in: self.payload_bytes_in.load(Ordering::Relaxed),
            payload_bytes_out: self.payload_bytes_out.load(Ordering::Relaxed),
            connections_current: self.connections_current.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            sessions_current: self.sessions_current.load(Ordering::Relaxed),
            subscriptions_current: self.subscriptions_current.load(Ordering::Relaxed),
            retained_current: self.retained_current.load(Ordering::Relaxed),
            queued_current: self.queued_current.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            keepalive_timeouts: self.keepalive_timeouts.load(Ordering::Relaxed),
            slow_consumer_evictions: self.slow_consumer_evictions.load(Ordering::Relaxed),
            bridge_in: self.bridge_in.load(Ordering::Relaxed),
            cross_shard_hops: self.cross_shard_hops.load(Ordering::Relaxed),
            cross_shard_batches: self.cross_shard_batches.load(Ordering::Relaxed),
            sessions_cleaned: self.sessions_cleaned.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_batches: self.wal_batches.load(Ordering::Relaxed),
            wal_queue_hwm: self.wal_queue_hwm.load(Ordering::Relaxed),
            wal_stalls: self.wal_stalls.load(Ordering::Relaxed),
            wal_append_errors: self.wal_append_errors.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            snapshot_ms: self.snapshot_ms.load(Ordering::Relaxed),
            wal_snapshots: self.wal_snapshots.load(Ordering::Relaxed),
            recovered_sessions: self.recovered_sessions.load(Ordering::Relaxed),
            recovered_retained: self.recovered_retained.load(Ordering::Relaxed),
            faults_injected: self
                .fault_rules
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(_, hits)| hits.load(Ordering::Relaxed))
                .sum(),
        }
    }
}

/// A point-in-time copy of [`BrokerCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStatsSnapshot {
    /// PUBLISH packets received from clients.
    pub publishes_in: u64,
    /// PUBLISH packets sent to clients.
    pub publishes_out: u64,
    /// Payload bytes received.
    pub payload_bytes_in: u64,
    /// Payload bytes sent.
    pub payload_bytes_out: u64,
    /// Currently open connections.
    pub connections_current: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Sessions currently stored.
    pub sessions_current: u64,
    /// Subscriptions currently stored.
    pub subscriptions_current: u64,
    /// Retained messages stored.
    pub retained_current: u64,
    /// Messages queued for offline sessions.
    pub queued_current: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Keep-alive expiries.
    pub keepalive_timeouts: u64,
    /// Slow-consumer evictions (TCP write high-water mark breaches).
    pub slow_consumer_evictions: u64,
    /// Messages that arrived over bridges.
    pub bridge_in: u64,
    /// Deliveries that hopped between broker shards (0 with one shard).
    pub cross_shard_hops: u64,
    /// Batched cross-shard `Deliver` events sent (0 with one shard).
    pub cross_shard_batches: u64,
    /// Persistent sessions destroyed by clean reconnect/disconnect.
    pub sessions_cleaned: u64,
    /// WAL records appended (0 with persistence off).
    pub wal_records: u64,
    /// Group-committed WAL batches written by the persistence thread.
    pub wal_batches: u64,
    /// High-water mark of any per-stream WAL queue.
    pub wal_queue_hwm: u64,
    /// Times a shard blocked on a full WAL queue.
    pub wal_stalls: u64,
    /// WAL records lost to write errors (degraded durability).
    pub wal_append_errors: u64,
    /// Fsync calls issued by the persistence thread.
    pub fsyncs: u64,
    /// Milliseconds the persistence thread spent writing snapshots.
    pub snapshot_ms: u64,
    /// Compacted snapshots written (0 with persistence off).
    pub wal_snapshots: u64,
    /// Sessions recovered from snapshot + WAL replay at startup.
    pub recovered_sessions: u64,
    /// Retained messages recovered from snapshot + WAL at startup.
    pub recovered_retained: u64,
    /// Deliveries the fault-injection layer acted on (sum over all rules;
    /// 0 without a fault plan).
    pub faults_injected: u64,
}

impl BrokerStatsSnapshot {
    /// Average fan-out per inbound publish, or 0 if none were received.
    pub fn fanout_ratio(&self) -> f64 {
        if self.publishes_in == 0 {
            0.0
        } else {
            self.publishes_out as f64 / self.publishes_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let c = BrokerCounters::default();
        BrokerCounters::bump(&c.publishes_in);
        BrokerCounters::add(&c.payload_bytes_in, 512);
        BrokerCounters::bump(&c.publishes_out);
        BrokerCounters::bump(&c.publishes_out);
        let snap = c.snapshot();
        assert_eq!(snap.publishes_in, 1);
        assert_eq!(snap.publishes_out, 2);
        assert_eq!(snap.payload_bytes_in, 512);
        assert!((snap.fanout_ratio() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn fanout_ratio_handles_zero() {
        assert_eq!(BrokerStatsSnapshot::default().fanout_ratio(), 0.0);
    }
}
