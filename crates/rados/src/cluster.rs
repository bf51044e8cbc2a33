//! The cluster handle: submission and reads over the shard work
//! queues, snapshots, the flush barrier, and the accessors upper layers
//! read. Building one is in `builder.rs`, scrub/repair in
//! `maintenance.rs`.
//!
//! State is split two ways:
//!
//! - an immutable control plane (`ControlPlane`): placement and
//!   configuration, plus atomic counters — read by every worker with
//!   no lock;
//! - N object `Shard`s keyed by placement group, each behind its own
//!   lock — an object's whole acting set lives in one shard, so
//!   per-object transactions and reads touch exactly one lock;
//! - W worker threads, each draining one FIFO work queue; shard `s` is
//!   served by worker `s mod W` (how W is chosen:
//!   [`ClusterBuilder::concurrent_apply`]).
//!
//! Every operation returns a [`Receipt`] of the physical work it did;
//! nothing here keeps or advances a simulated clock (pricing receipts
//! is [`crate::cost::Testbed`]'s job).
//!
//! IO dispatch is **submission-based** and written once, for both
//! kinds of submission (`Cluster::submit`): [`Cluster::submit_batch`]
//! and [`Cluster::submit_read_batch`] split the submission into
//! per-shard parts, enqueue each on the FIFO of the worker serving its
//! shard, and return a ticket immediately — so parts of *different*
//! submissions interleave on the workers, and one client overlaps many
//! IOs. Writes are validated up front (all-or-nothing). The synchronous
//! [`Cluster::execute_batch`] / [`Cluster::read_batch`] /
//! [`Cluster::execute`] / [`Cluster::read`] are thin submit-then-wait
//! wrappers. Per-shard FIFO with a single consumer is the ordering
//! rule: every job of a shard passes through one worker's FIFO, so ops
//! touching the same object always apply in submission order.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

pub use crate::builder::{ClusterBuilder, PayloadMode, DEFAULT_META_CACHE_BYTES};
pub use crate::maintenance::ScrubReport;

use crate::builder::DurableRoot;
use crate::fault::FaultPlane;
use crate::queue::{
    Apply, ApplyTicket, Job, Kind, Part, Progress, Read, ReadTicket, ShardHold, Shards, Submission,
    Ticket,
};
use crate::receipt::Receipt;
use crate::shard::Shard;
use crate::state::ControlPlane;
use crate::transaction::{ObjectReads, ReadOp, ReadResult, Transaction};
use crate::{RadosError, Result, SnapId};
use std::sync::Arc;

/// Counters of client-visible operations the cluster has served.
/// Tests and tooling use them to observe batching and sharding
/// behaviour (e.g. "a striped write issued exactly N transactions in
/// one batch, fanned out over M shards").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Transactions applied, including those inside batches.
    pub transactions: u64,
    /// [`Cluster::execute_batch`] invocations.
    pub batches: u64,
    /// Per-object read requests served (batched reads count each
    /// object they touch).
    pub read_ops: u64,
    /// Largest number of distinct shards one submission (write or
    /// read) fanned out over — deterministic potential parallelism.
    pub shard_fanout_max: u64,
    /// High-water mark of shards holding admitted-but-incomplete work
    /// at the same instant. A multi-shard submission admits all its
    /// shards before any applies, so this is at least the fanout of
    /// any single submission; values above the largest single
    /// submission's fanout prove **cross-submission** overlap on the
    /// shard workers (scheduling-dependent on a single-core host, so
    /// treat the cross-submission component as a lower-bound signal).
    pub shard_concurrency_peak: u64,
    /// High-water mark of submissions simultaneously open (issued via
    /// `submit_*` and not yet reaped) — the realized client queue
    /// depth. Client-bracketed, so it is deterministic for a
    /// single-threaded submission loop. Note that synchronous wrappers
    /// also hold one open submission for the duration of their call:
    /// N threads of sync IO register a depth up to N, so depths above
    /// 1 mean async use *or* multi-threaded sync use.
    pub queue_depth_peak: u64,
    /// Sectors whose IV/metadata round trip was skipped because a
    /// client-side metadata cache held their entry.
    ///
    /// This and the other three `meta_cache_*` fields are per-op
    /// deltas the encryption layer sets on the `ExecStats` it returns
    /// with each op; the store keeps no cache and
    /// [`Cluster::exec_stats`] leaves all four 0. An image's totals
    /// come from `vdisk_core::EncryptedImage::meta_cache_stats`.
    pub meta_cache_hits: u64,
    /// Sectors whose IV/metadata had to be fetched from the store
    /// despite a client-side metadata cache being enabled.
    pub meta_cache_misses: u64,
    /// Cached sector entries dropped because a queued overwrite or a
    /// snapshot made them unusable. Every overwritten cached sector is
    /// accounted here exactly once.
    pub meta_cache_invalidations: u64,
    /// Sector entries installed into a client-side metadata cache at
    /// **write**-reap time (write-through fills): the write already
    /// knows the entries it persisted, so the first subsequent read
    /// skips the metadata fetch without ever paying a miss.
    pub meta_cache_write_fills: u64,
    /// Attempts replayed inside the shard workers after a retryable
    /// injected fault (see [`crate::fault::RetryPolicy`]): each retry
    /// is one extra apply/read attempt that never surfaced to the
    /// client. Always zero on clusters without a fault plane.
    pub retries: u64,
    /// Pushes onto a worker's FIFO that found the worker parked and had
    /// to wake it (a futex wake of a sleeping thread); pushes landing
    /// while the worker is busy do not count. Cluster-wide only — zero
    /// in per-ticket deltas — and always zero in inline mode.
    pub worker_wakes: u64,
}

impl ExecStats {
    /// Folds a per-op `delta` into an accumulator: counters add,
    /// high-water marks take the max. The rollup primitive behind
    /// per-tenant stats in the multi-tenant runtime — each reaped
    /// per-op delta is absorbed into its tenant's running total.
    pub fn absorb(&mut self, delta: &ExecStats) {
        self.transactions += delta.transactions;
        self.batches += delta.batches;
        self.read_ops += delta.read_ops;
        self.shard_fanout_max = self.shard_fanout_max.max(delta.shard_fanout_max);
        self.shard_concurrency_peak = self
            .shard_concurrency_peak
            .max(delta.shard_concurrency_peak);
        self.queue_depth_peak = self.queue_depth_peak.max(delta.queue_depth_peak);
        self.meta_cache_hits += delta.meta_cache_hits;
        self.meta_cache_misses += delta.meta_cache_misses;
        self.meta_cache_invalidations += delta.meta_cache_invalidations;
        self.meta_cache_write_fills += delta.meta_cache_write_fills;
        self.retries += delta.retries;
        self.worker_wakes += delta.worker_wakes;
    }
}

/// A handle to the simulated Ceph-like cluster. Cheap to clone; all
/// clones share the same state.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) control: Arc<ControlPlane>,
    /// The shards, the worker queues and the worker threads; the last
    /// handle's drop closes the queues and joins the workers.
    pub(crate) shards: Arc<Shards>,
    /// `Some` for file-backed clusters: the store root and its
    /// `cluster.meta` bookkeeping. Declared after `shards` so that,
    /// on the last handle's drop, workers join before any scratch
    /// directory is removed.
    pub(crate) durable: Option<Arc<DurableRoot>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cluster({} osds, {} replicas, {} shards)",
            self.control.placement.osd_count(),
            self.control.placement.replicas(),
            self.shards.len()
        )
    }
}

impl Cluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The shard holding `object`.
    #[expect(
        clippy::indexing_slicing,
        reason = "shard_of reduces the object hash modulo shards.len()"
    )]
    pub(crate) fn shard_for(&self, object: &str) -> &Shard {
        &self.shards[self.control.shard_of(object)]
    }

    /// Applies a transaction atomically on every replica and returns
    /// its receipt. A thin submit-then-wait wrapper over the shard
    /// work queues, so it orders correctly after any asynchronous
    /// submissions already in flight on the same objects.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any op is malformed,
    /// or [`RadosError::CompareFailed`] if a
    /// [`crate::TxOp::CompareXattr`] precondition did not hold at apply
    /// time; in either case **no** op has been applied
    /// (all-or-nothing).
    pub fn execute(&self, tx: Transaction) -> Result<Receipt> {
        self.submit_txs(vec![tx], false, true)?.wait()
    }

    /// Applies many transactions under one cluster round trip and
    /// returns their receipt (one entry per transaction, in submission
    /// order): [`Cluster::submit_batch`] followed by
    /// [`ApplyTicket::wait`].
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any transaction in
    /// the batch is malformed (no transaction has been applied then),
    /// or the first [`RadosError::CompareFailed`] if a dynamic
    /// precondition failed at apply time (only that transaction is
    /// skipped).
    pub fn execute_batch(&self, txs: Vec<Transaction>) -> Result<Receipt> {
        self.submit_txs(txs, true, true)?.wait()
    }

    /// Submits a batch of transactions to the shard work queues and
    /// returns immediately with an [`ApplyTicket`]; the shard workers
    /// apply the jobs while the caller goes on to submit more IO. The
    /// asynchronous half of the aio/submission-queue API — keeping many submissions in flight is what realizes
    /// the paper's queue-depth bandwidth argument.
    ///
    /// Validation runs over the **whole batch** before anything is
    /// enqueued, extending the single-transaction all-or-nothing
    /// guarantee to the batch — a malformed transaction anywhere
    /// leaves every shard untouched. Ordering: per-shard FIFO with one
    /// consumer per shard (its worker), so two submissions touching the
    /// same object (same shard, by construction) apply in submission
    /// order, while disjoint shards interleave freely across
    /// submissions.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any transaction in
    /// the batch is malformed; nothing has been enqueued then.
    pub fn submit_batch(&self, txs: Vec<Transaction>) -> Result<ApplyTicket> {
        self.submit_txs(txs, true, false)
    }

    /// Rejects the whole batch before **any** mutation if one
    /// transaction is malformed, then submits it.
    fn submit_txs(
        &self,
        txs: Vec<Transaction>,
        batch: bool,
        inline_if_idle: bool,
    ) -> Result<ApplyTicket> {
        for tx in &txs {
            tx.validate()?;
        }
        Ok(self.submit::<Apply>(txs, self.snap_seq(), batch, inline_if_idle))
    }

    /// The one submission path. Counts the submission, splits its items
    /// by shard, advances every touched shard's write epoch (writes
    /// only) and admits every touched shard — all *before* any part
    /// runs, so a submission's fanout registers as concurrency
    /// deterministically and client-side caches comparing epochs across
    /// a read's submit→reap window never miss an overwrite — then
    /// either enqueues the parts on the shard work queues or serves
    /// them on the spot.
    ///
    /// `inline_if_idle` is the synchronous wrappers' fast path: the
    /// caller is about to block on the ticket anyway, so a shard whose
    /// admission found it **idle** (no enqueued or running job — the
    /// admission counter is the linearization point) is served in the
    /// calling thread, skipping two thread handoffs. This cannot
    /// reorder anything: an idle shard's queue is empty, so there is
    /// nothing to jump ahead of, and any job admitted concurrently is
    /// from an unordered independent submission. (The shard's worker
    /// may be busy with other shards' jobs; those are unordered with
    /// this one too.) Asynchronous submissions never use it — their
    /// point is not to block.
    fn submit<K: Kind>(
        &self,
        items: Vec<K::Item>,
        context: K::Context,
        batch: bool,
        inline_if_idle: bool,
    ) -> Ticket<K> {
        let cp = &self.control;
        let mut stats = K::stats(items.len() as u64, batch);
        // An empty submission dispatches nothing; keep it invisible to
        // the counters and the queue depth like the sync no-op paths.
        let counted = !items.is_empty();
        if counted {
            cp.stats.enter_submission();
        }
        let shared = Arc::new(Submission::<K>::new(context, items));

        let mut groups: Vec<Vec<usize>> = self.shards.iter().map(|_| Vec::new()).collect();
        for (slot, item) in shared.items().iter().enumerate() {
            // `shard_of` reduces modulo the shard count `groups` was
            // sized to.
            if let Some(group) = groups.get_mut(cp.shard_of(K::object(item))) {
                group.push(slot);
            }
        }
        let admitted: Vec<(&Shard, Part<K>, bool)> = self
            .shards
            .iter()
            .zip(groups)
            .filter(|(_, slots)| !slots.is_empty())
            .map(|(shard, slots)| {
                if K::WRITES {
                    cp.bump_shard_write_seq(shard.index);
                }
                let part = Part {
                    shared: Arc::clone(&shared),
                    slots,
                };
                (shard, part, shard.job_admitted(&cp.stats))
            })
            .collect();
        stats.shard_fanout_max = admitted.len() as u64;
        if counted {
            cp.stats.record_submission(&stats);
        }
        let queued = self.workers_enabled();
        for (shard, part, was_idle) in admitted {
            if queued && !(inline_if_idle && was_idle) {
                self.shards.push(&cp.stats, shard.index, K::job(part));
            } else {
                part.run(cp, shard);
            }
        }
        Ticket {
            shared,
            stats,
            cp: Arc::clone(cp),
            open: counted,
        }
    }

    /// Operation counters since the cluster was built.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.control.stats.snapshot()
    }

    /// The installed fault plane (observability: crash latch, injected
    /// counts), or `None` when the cluster was built without one.
    #[must_use]
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.control.faults.as_deref()
    }

    /// Submissions currently issued and not yet reaped, cluster-wide —
    /// the *instantaneous* client queue depth (the peak is in
    /// [`ExecStats::queue_depth_peak`]). Advisory: the value is racy
    /// by nature and meaningful as a pressure signal, not a precise
    /// accounting.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.control.stats.open_submissions()
    }

    /// Returns the queue-depth high water observed since the previous
    /// call and resets the window (to the current depth — open
    /// submissions remain observed). Background services use this to
    /// sample *recent* client pressure: the rekey driver takes the
    /// window before each migration window and shrinks its own
    /// submission depth when foreground tenants were queuing.
    #[must_use]
    pub fn take_queue_depth_window_peak(&self) -> u64 {
        self.control.stats.take_queue_depth_window_peak()
    }

    /// Number of state shards batches fan out over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of OSDs objects are placed on.
    #[must_use]
    pub fn osd_count(&self) -> usize {
        self.control.placement.osd_count()
    }

    /// The state shard `object` maps to (deterministic, derived from
    /// its placement group). Upper layers use this for shard-aware
    /// naming — spreading one image's consecutive objects over shards
    /// so queued IO fans out evenly.
    #[must_use]
    pub fn placement_shard(&self, object: &str) -> usize {
        self.control.shard_of(object)
    }

    /// Whether submissions are served by worker threads (true) or
    /// applied inline at submit time (false) — see
    /// [`ClusterBuilder::concurrent_apply`].
    #[must_use]
    pub fn workers_enabled(&self) -> bool {
        self.worker_threads() > 0
    }

    /// How many worker threads serve the shard queues (`0` in inline
    /// mode); shard `s` is served by worker `s mod worker_threads()`.
    /// Resolved at build time — see [`ClusterBuilder::concurrent_apply`].
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.shards.worker_count()
    }

    /// Executes read operations against the primary replica and returns
    /// the results plus the read's receipt. A thin submit-then-wait
    /// wrapper over the shard work queues, so it sees every previously
    /// submitted write to the same object.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the object does not
    /// exist, or [`RadosError::NoSuchSnapshot`] if it did not exist yet
    /// at the requested snapshot.
    pub fn read(
        &self,
        object: &str,
        snap: Option<SnapId>,
        ops: &[ReadOp],
    ) -> Result<(Vec<ReadResult>, Receipt)> {
        let requests = vec![ObjectReads::new(object, ops.to_vec())];
        let served = self
            .submit::<Read>(requests, snap, false, true)
            .reap()
            .pop();
        // One request went in, so one result comes out.
        let (results, work) =
            served.unwrap_or_else(|| Err(RadosError::NoSuchObject(object.to_string())))?;
        let receipt = Receipt {
            reads: vec![work],
            ..Receipt::default()
        };
        Ok((results, receipt))
    }

    /// Serves many per-object read requests in one round trip:
    /// [`Cluster::submit_read_batch`] followed by [`ReadTicket::wait`].
    /// Returns one result slot per request plus the receipt, one entry
    /// per request (in submission order). Objects absent (now, or at
    /// `snap`) yield `None` so striped callers can zero-fill sparse
    /// extents without failing the whole batch — but still made the
    /// round trip to the primary, so the receipt keeps **one entry per
    /// request**.
    ///
    /// # Errors
    ///
    /// Propagates any error other than a missing object/snapshot.
    #[allow(clippy::type_complexity)]
    pub fn read_batch(
        &self,
        snap: Option<SnapId>,
        requests: Vec<ObjectReads>,
    ) -> Result<(Vec<Option<Vec<ReadResult>>>, Receipt)> {
        self.submit::<Read>(requests, snap, false, true).wait()
    }

    /// Submits a vectored read to the shard work queues and returns
    /// immediately with a [`ReadTicket`] — the read half of the
    /// submission-queue API. Jobs ride the same per-shard FIFO queues
    /// as writes, so a read submitted after a write to the same object
    /// always observes it, even with both still in flight.
    pub fn submit_read_batch(
        &self,
        snap: Option<SnapId>,
        requests: Vec<ObjectReads>,
    ) -> ReadTicket {
        self.submit::<Read>(requests, snap, false, false)
    }

    /// Drains the worker queues: blocks until every job submitted
    /// **before** this call has been applied. It queues one barrier
    /// marker per worker FIFO; every shard's jobs pass through exactly
    /// one of them, so once every marker is served, so is every earlier
    /// job. The barrier for callers about to inspect cluster state
    /// directly (object listing, image removal, scrub) while
    /// asynchronous submissions may be in flight; jobs submitted
    /// concurrently with the flush are not covered.
    ///
    /// On a durable backend ([`crate::BackendKind::File`]) this is also the
    /// store-wide checkpoint: after draining the queues every shard
    /// folds its redo log into the object files and truncates it, the
    /// store directories are synced and `cluster.meta` is rewritten —
    /// afterwards the directory holds object files only (and empty
    /// logs). Acknowledged transactions never needed this to be
    /// durable; a process that stops *without* flushing reopens to the
    /// same state by replaying the logs. With the in-memory backend in
    /// inline mode this remains a no-op.
    ///
    /// # Panics
    ///
    /// Panics if a durable backend fails to checkpoint or sync — at
    /// that point durability can no longer be promised.
    pub fn flush(&self) {
        let workers = self.worker_threads();
        let barrier = Arc::new(Progress::new(workers));
        for worker in 0..workers {
            // `W` never exceeds the shard count, so worker `w` serves
            // shard `w`: a marker for shard `w` lands on worker `w`.
            let marker = Job::Flush {
                shared: Arc::clone(&barrier),
                slot: worker,
            };
            self.shards.push(&self.control.stats, worker, marker);
        }
        barrier.wait();
        if self.durable.is_some() {
            for shard in self.shards.iter() {
                #[expect(
                    clippy::expect_used,
                    reason = "documented panicking path: a failed directory sync voids the durability promise"
                )]
                shard
                    .state
                    .lock()
                    .durably(|disk, mirror| disk.flush(mirror))
                    .expect("backend flush failed");
            }
            self.persist_snap_seq(self.control.snap_seq());
        }
    }

    /// Takes a cluster-wide self-managed snapshot; subsequent writes
    /// copy-on-write any object they touch. Also advances **every**
    /// shard's write-submission epoch, so metadata-cache fills whose
    /// submit→reap window spans the snapshot are abandoned.
    pub fn create_snap(&self) -> SnapId {
        self.control.bump_all_write_seqs();
        let seq = self.control.advance_snap_seq();
        // Clone visibility is defined by sequence numbers, so a durable
        // backend must never reopen with a stale one: persist it before
        // the snapshot id is handed out.
        self.persist_snap_seq(seq);
        SnapId(seq)
    }

    /// Rewrites `cluster.meta` with the given snapshot sequence on a
    /// durable backend; no-op on the in-memory one.
    fn persist_snap_seq(&self, seq: u64) {
        if let Some(durable) = &self.durable {
            #[expect(
                clippy::expect_used,
                reason = "reopening with a stale snap seq silently corrupts clone visibility; failing loudly is the contract"
            )]
            durable.persist(seq).expect("cluster.meta update failed");
        }
    }

    /// The write-submission epoch of state shard `shard`: a monotone
    /// counter advanced whenever a write submission touching the shard
    /// is accepted (before any of it applies) and on every snapshot.
    /// Client-side metadata caches capture it before submitting a read
    /// and fill only if it is unchanged after reaping: per-shard FIFO
    /// makes submission order the apply order, so an unchanged epoch
    /// proves no overwrite or snapshot landed in the window.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn shard_write_seq(&self, shard: usize) -> u64 {
        self.control.shard_write_seq(shard)
    }

    /// The advisory client-side metadata-cache budget configured via
    /// [`ClusterBuilder::meta_cache_bytes`].
    #[must_use]
    pub fn meta_cache_bytes(&self) -> u64 {
        self.control.meta_cache_bytes
    }

    /// The crypto-lane count recorded by
    /// [`ClusterBuilder::crypto_lanes`] (default 1). Nothing reads it;
    /// ROADMAP G(4) deletes it.
    #[must_use]
    pub fn crypto_lanes(&self) -> usize {
        self.control.crypto_lanes
    }

    /// Parks the worker serving state shard `shard` until the returned
    /// [`ShardHold`] is released (or dropped). Jobs enqueued behind the
    /// hold sit on that worker's FIFO in the meantime — the hook tests
    /// use to delay a completion deliberately and prove that a client
    /// wait parks instead of spinning. The hold stalls **every** shard
    /// sharing that worker (all of them when [`Cluster::worker_threads`]
    /// is 1); per-shard FIFO order is unchanged. In inline mode (no
    /// workers) there is nothing to hold and the returned handle is a
    /// pre-released no-op.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn hold_shard(&self, shard: usize) -> ShardHold {
        assert!(shard < self.shards.len(), "shard index out of range");
        let gate = Arc::new(Progress::new(1));
        let released = !self.workers_enabled();
        if !released {
            let hold = Job::Hold {
                gate: Arc::clone(&gate),
            };
            self.shards.push(&self.control.stats, shard, hold);
        }
        ShardHold { gate, released }
    }

    /// The current snapshot sequence.
    #[must_use]
    pub fn snap_seq(&self) -> SnapId {
        SnapId(self.control.snap_seq())
    }

    /// Whether an object exists (on its primary).
    #[must_use]
    pub fn object_exists(&self, object: &str) -> bool {
        let primary = self.control.placement.primary(object);
        let shard = self.shard_for(object).state.lock();
        shard.store.get(primary.0, object).is_some()
    }

    /// Object metadata from the primary.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the object is absent.
    pub fn stat(&self, object: &str) -> Result<crate::object::ObjectStat> {
        let primary = self.control.placement.primary(object);
        self.shard_for(object)
            .state
            .lock()
            .store
            .get(primary.0, object)
            .map(crate::object::Object::stat)
            .ok_or_else(|| RadosError::NoSuchObject(object.to_string()))
    }

    /// All object names (sorted), from every OSD's primary view.
    #[must_use]
    pub fn list_objects(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            names.extend(shard.state.lock().store.names());
        }
        names.sort_unstable();
        names
    }

    /// Test-only: whether a specific OSD holds a copy of `object`.
    #[cfg(test)]
    fn osd_holds(&self, osd: usize, object: &str) -> bool {
        self.shard_for(object)
            .state
            .lock()
            .store
            .get(osd, object)
            .is_some()
    }
}

#[cfg(test)]
mod geometry;
#[cfg(test)]
mod tests;
