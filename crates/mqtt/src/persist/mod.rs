//! Broker persistence: write-ahead log + compacted snapshots.
//!
//! The subsystem write-ahead-logs every durable broker event — retained
//! sets/clears, subscribe/unsubscribe, QoS 1/2 inflight transitions,
//! offline enqueues, session create/destroy, will registration — into
//! per-shard append streams ([`wal`]), periodically folds them into
//! compacted snapshots ([`snapshot`]), and on startup replays
//! snapshot + WAL back into live sessions, retained store, and pending
//! wills ([`recovery`]). [`store`] owns the on-disk layout and the
//! write-behind append/compaction pipeline.
//!
//! Persistence is strictly opt-in via [`Persistence`] on
//! `BrokerConfig`; the default ([`Persistence::disabled`]) leaves the
//! broker purely in-memory with byte-identical behavior.
//!
//! Shard event-loop threads never touch the disk: appends are cheap
//! enqueues onto bounded per-stream queues drained by one dedicated
//! persistence thread that group-commits queued records (batch-encode,
//! single write per batch) and fsyncs per the configured [`Durability`]
//! policy. Order is preserved per stream, so the on-disk byte stream is
//! identical to a per-record writer's. See `docs/PERSISTENCE.md` for
//! the full crash-loss contract per mode.

pub mod recovery;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use recovery::RecoveredState;
pub use store::PersistStore;
pub use wal::WalRecord;

use std::path::PathBuf;
use std::time::Duration;

/// When the persistence thread issues `fsync` for appended WAL batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Never fsync: writes land in the OS page cache (the default).
    /// State survives *process* death — the failure mode the chaos
    /// harness injects — but a power cut may lose recently appended
    /// frames (recovery still stops cleanly at the last intact record).
    OsCache,
    /// Coalesced fsync: the persistence thread syncs dirty streams at
    /// most once per `interval`. A power cut loses at most the last
    /// interval's worth of acknowledged records.
    GroupCommit {
        /// Maximum time appended records may sit unsynced.
        interval: Duration,
    },
    /// Fsync after every group-committed batch: a power cut loses only
    /// records still queued in memory, never records already written.
    Always,
}

/// Persistence configuration for one broker instance.
#[derive(Debug, Clone)]
pub struct Persistence {
    /// Directory holding WAL and snapshot files; `None` disables
    /// persistence entirely.
    pub dir: Option<PathBuf>,
    /// Records appended to a stream since its last snapshot before the
    /// stream is compacted again. A stream whose last snapshot held more
    /// records waits for that many instead, so compaction work stays
    /// proportional to log growth however large the state is.
    pub snapshot_every: u64,
    /// Fsync policy for the persistence thread.
    pub durability: Durability,
    /// Bounded capacity of each per-stream append queue (records queued
    /// but not yet written by the persistence thread). An append that
    /// finds its queue full blocks the shard until the persistence
    /// thread frees a slot, so durability backpressure reaches clients
    /// and no record is lost; stalls are counted in `wal_stalls`.
    pub queue_capacity: usize,
}

impl Persistence {
    /// Persistence off: the broker is purely in-memory (the default).
    pub fn disabled() -> Self {
        Persistence {
            dir: None,
            snapshot_every: 4096,
            durability: Durability::OsCache,
            queue_capacity: 4096,
        }
    }

    /// Persists WAL + snapshots under `dir` (created if absent).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Persistence {
            dir: Some(dir.into()),
            ..Persistence::disabled()
        }
    }

    /// Overrides the records-per-snapshot compaction threshold.
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records.max(1);
        self
    }

    /// Overrides the fsync policy (default [`Durability::OsCache`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Overrides the per-stream append-queue capacity (default 4096).
    pub fn queue_capacity(mut self, records: usize) -> Self {
        self.queue_capacity = records.max(1);
        self
    }

    /// True when a persistence directory is configured.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

impl Default for Persistence {
    fn default() -> Self {
        Persistence::disabled()
    }
}
