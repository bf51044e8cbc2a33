//! The cluster control plane: configuration that is fixed at build
//! time and shared by every shard, plus the lock-free counters.
//!
//! The split matters for scale: [`ControlPlane`] is read-only after
//! construction (placement and configuration), so shard workers use it
//! without any lock. The only mutable control-plane
//! state — the snapshot sequence and the operation counters — is
//! atomic. Everything that *does* need mutual exclusion (the objects
//! themselves) lives in the per-placement [`crate::shard::Shard`]s.

use crate::cluster::ExecStats;
use crate::fault::{FaultPlane, RetryPolicy};
use crate::placement::PlacementMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Immutable cluster configuration plus the atomic counters. One
/// instance per cluster, shared (via `Arc`) by every handle and every
/// shard worker.
pub struct ControlPlane {
    pub(crate) placement: PlacementMap,
    pub(crate) shard_count: usize,
    /// Suggested client-side metadata cache size in bytes (see
    /// [`crate::ClusterBuilder::meta_cache_bytes`]); advisory for upper
    /// layers, unused inside the store.
    pub(crate) meta_cache_bytes: u64,
    /// The recorded crypto-lane count (see
    /// [`crate::ClusterBuilder::crypto_lanes`]); nothing reads it.
    pub(crate) crypto_lanes: usize,
    /// Cluster-wide self-managed snapshot sequence. Non-zero at build
    /// when a durable backend reopens a directory that already took
    /// snapshots: clone visibility is defined by seqs, so the sequence
    /// must continue, not restart.
    pub(crate) snap_seq: AtomicU64,
    /// Per-shard write-submission epochs (one per shard, zero at
    /// build): `write_seqs[s]` advances
    /// every time a write submission touching shard `s` is accepted
    /// (before any of its jobs can apply) and on every snapshot. A
    /// client that captures a shard's epoch before submitting a read
    /// and sees it unchanged after reaping knows **no overwrite or
    /// snapshot was even submitted** to that shard in between — the
    /// validity window client-side metadata caches need, keyed by
    /// submission order rather than wall clock (per-shard FIFO makes
    /// submission order the apply order).
    pub(crate) write_seqs: Vec<AtomicU64>,
    /// The installed fault plane, if any (see
    /// [`crate::ClusterBuilder::fault_plane`]): consulted by every
    /// shard worker before each apply/read attempt.
    pub(crate) faults: Option<Arc<FaultPlane>>,
    /// How shard workers replay attempts that drew a retryable
    /// injected fault (see [`crate::ClusterBuilder::retry_policy`]).
    pub(crate) retry: RetryPolicy,
    pub(crate) stats: StatCounters,
}

impl ControlPlane {
    /// The shard an object's placement group maps to.
    pub(crate) fn shard_of(&self, object: &str) -> usize {
        self.placement.shard_of(object, self.shard_count)
    }

    /// The current snapshot sequence.
    pub(crate) fn snap_seq(&self) -> u64 {
        self.snap_seq.load(Ordering::Acquire)
    }

    /// Advances the snapshot sequence, returning the new value.
    pub(crate) fn advance_snap_seq(&self) -> u64 {
        self.snap_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The write-submission epoch of one shard.
    pub(crate) fn shard_write_seq(&self, shard: usize) -> u64 {
        self.write_seqs[shard].load(Ordering::Acquire)
    }

    /// Advances one shard's write-submission epoch. Called while the
    /// submission is being accepted, strictly before any of its jobs
    /// is enqueued, so a reader that still observes the old epoch
    /// afterwards is ordered (per-shard FIFO) before the write.
    pub(crate) fn bump_shard_write_seq(&self, shard: usize) {
        self.write_seqs[shard].fetch_add(1, Ordering::AcqRel);
    }

    /// Advances every shard's epoch — the snapshot case: a snapshot
    /// changes what every subsequent write means (copy-on-write
    /// context), so in-flight cache fills anywhere must be abandoned.
    pub(crate) fn bump_all_write_seqs(&self) {
        for seq in &self.write_seqs {
            seq.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Atomic operation counters behind [`ExecStats`]. Incremented without
/// any lock so concurrently-applying shard groups never serialize on
/// bookkeeping.
#[derive(Default)]
pub(crate) struct StatCounters {
    transactions: AtomicU64,
    batches: AtomicU64,
    read_ops: AtomicU64,
    shard_fanout_max: AtomicU64,
    shard_concurrency_peak: AtomicU64,
    in_flight_shards: AtomicU64,
    queue_depth_peak: AtomicU64,
    /// Queue-depth high water since the last
    /// [`StatCounters::take_queue_depth_window_peak`] — a resettable
    /// twin of `queue_depth_peak` so background services (the rekey
    /// driver) can observe *recent* client pressure, not the
    /// cluster-lifetime maximum.
    queue_depth_window_peak: AtomicU64,
    open_submissions: AtomicU64,
    /// Attempts replayed in the shard workers after a retryable
    /// injected fault (see [`crate::fault::RetryPolicy`]).
    retries: AtomicU64,
    /// Pushes that found their worker parked and had to wake it.
    worker_wakes: AtomicU64,
}

/// Adds `n` to a counter, leaving its cache line alone when there is
/// nothing to add.
fn add(counter: &AtomicU64, n: u64) {
    if n > 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatCounters {
    /// Accumulates one accepted submission: its operation counts and
    /// how many distinct shards it touched (its ticket's [`ExecStats`]
    /// delta).
    pub(crate) fn record_submission(&self, delta: &ExecStats) {
        add(&self.transactions, delta.transactions);
        add(&self.batches, delta.batches);
        add(&self.read_ops, delta.read_ops);
        self.shard_fanout_max
            .fetch_max(delta.shard_fanout_max, Ordering::Relaxed);
    }

    /// Marks one shard going from idle to holding in-flight work and
    /// updates the concurrency high-water mark.
    pub(crate) fn enter_shard_apply(&self) {
        let now = self.in_flight_shards.fetch_add(1, Ordering::SeqCst) + 1;
        self.shard_concurrency_peak.fetch_max(now, Ordering::SeqCst);
    }

    /// Marks one shard going back to idle.
    pub(crate) fn exit_shard_apply(&self) {
        self.in_flight_shards.fetch_sub(1, Ordering::SeqCst);
    }

    /// Marks one submission issued (not yet reaped) and updates the
    /// queue-depth high-water marks (lifetime and current window).
    pub(crate) fn enter_submission(&self) {
        let now = self.open_submissions.fetch_add(1, Ordering::SeqCst) + 1;
        self.queue_depth_peak.fetch_max(now, Ordering::SeqCst);
        self.queue_depth_window_peak
            .fetch_max(now, Ordering::SeqCst);
    }

    /// Marks one submission reaped (or abandoned).
    pub(crate) fn exit_submission(&self) {
        self.open_submissions.fetch_sub(1, Ordering::SeqCst);
    }

    /// Submissions currently issued and not yet reaped.
    pub(crate) fn open_submissions(&self) -> u64 {
        self.open_submissions.load(Ordering::SeqCst)
    }

    /// Returns the queue-depth high water observed since the previous
    /// call and restarts the window at the *current* depth (open
    /// submissions are still open, so the new window must not start
    /// below them).
    pub(crate) fn take_queue_depth_window_peak(&self) -> u64 {
        let now = self.open_submissions.load(Ordering::SeqCst);
        let peak = self.queue_depth_window_peak.swap(now, Ordering::SeqCst);
        peak.max(now)
    }

    /// Accumulates attempts replayed after a retryable injected fault.
    pub(crate) fn record_retries(&self, n: u64) {
        add(&self.retries, n);
    }

    /// Counts one push that had to wake a parked worker.
    pub(crate) fn record_worker_wake(&self) {
        self.worker_wakes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ExecStats {
        ExecStats {
            transactions: self.transactions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            shard_fanout_max: self.shard_fanout_max.load(Ordering::Relaxed),
            shard_concurrency_peak: self.shard_concurrency_peak.load(Ordering::SeqCst),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::Relaxed),
            worker_wakes: self.worker_wakes.load(Ordering::Relaxed),
            ..ExecStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = StatCounters::default();
        s.record_submission(&ExecStats {
            transactions: 4,
            batches: 1,
            shard_fanout_max: 3,
            ..ExecStats::default()
        });
        // A lower fanout must not regress the max.
        s.record_submission(&ExecStats {
            read_ops: 2,
            shard_fanout_max: 2,
            ..ExecStats::default()
        });
        let snap = s.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.transactions, 4);
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.shard_fanout_max, 3);
    }

    #[test]
    fn concurrency_peak_tracks_high_water() {
        let s = StatCounters::default();
        s.enter_shard_apply();
        s.enter_shard_apply();
        s.exit_shard_apply();
        s.enter_shard_apply();
        s.exit_shard_apply();
        s.exit_shard_apply();
        assert_eq!(s.snapshot().shard_concurrency_peak, 2);
    }
}
