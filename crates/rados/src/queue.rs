//! Per-shard work queues: the asynchronous dispatch engine behind
//! [`crate::Cluster::submit_batch`] / [`crate::Cluster::submit_read_batch`].
//!
//! Every shard owns one FIFO job queue served by one dedicated worker
//! thread (when workers are enabled — see
//! [`crate::ClusterBuilder::concurrent_apply`]). A submission validates
//! up front, splits into per-shard jobs, and enqueues them all before
//! returning a ticket; the caller overlaps further submissions with the
//! apply and reaps completions via [`ApplyTicket::wait`] /
//! [`ReadTicket::wait`].
//!
//! **Ordering rule** (the fence/sequence contract of the queue API):
//! one queue per shard, one consumer per shard, FIFO. An object maps to
//! exactly one shard, so two operations on overlapping extents — which
//! necessarily touch the same objects — are applied in submission
//! order, even when their submissions were concurrent in flight.
//! Operations on disjoint shards interleave freely; that is the
//! cross-batch concurrency the paper's queue-depth argument needs.

use crate::shard::{Shard, ShardState};
use crate::state::ControlPlane;
use crate::transaction::{ObjectReads, ReadResult, Transaction};
use crate::{RadosError, SnapId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use vdisk_sim::Plan;

/// One per-shard unit of work: the indices of a submission's items
/// that landed on this shard.
pub(crate) enum Job {
    /// Apply transactions `idxs` of `shared`.
    Apply {
        shared: Arc<ApplyShared>,
        idxs: Vec<usize>,
    },
    /// Serve read requests `idxs` of `shared`.
    Read {
        shared: Arc<ReadShared>,
        idxs: Vec<usize>,
    },
    /// A barrier marker (see `Cluster::flush`): completes slot `slot`
    /// of `shared` once every job enqueued before it on this shard has
    /// been applied.
    Flush {
        shared: Arc<Progress<()>>,
        slot: usize,
    },
    /// A deliberate stall (see `Cluster::hold_shard`): the worker parks
    /// on the gate until the corresponding [`ShardHold`] is released.
    /// Like `Flush`, it carries no work and stays invisible to the
    /// admission/concurrency counters.
    Hold { gate: Arc<Progress<()>> },
}

/// A FIFO job queue with blocking pop — one per shard.
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl ShardQueue {
    pub(crate) fn new() -> Self {
        ShardQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn push(&self, job: Job) {
        self.lock().jobs.push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once closed **and** drained, so
    /// in-flight work always completes before a worker exits.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut guard = self.lock();
        loop {
            if let Some(job) = guard.jobs.pop_front() {
                return Some(job);
            }
            if guard.closed {
                return None;
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// The worker threads (one per shard) and their queues. Held by every
/// [`crate::Cluster`] clone via `Arc`; when the last handle drops, the
/// queues close and the workers drain and exit.
pub(crate) struct WorkerRuntime {
    /// `None` in inline mode (single-core hosts or an explicit
    /// opt-out): submissions apply synchronously at submit time.
    queues: Option<Arc<Vec<ShardQueue>>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerRuntime {
    /// Inline mode: no threads, submissions apply at submit.
    pub(crate) fn inline() -> Self {
        WorkerRuntime {
            queues: None,
            handles: Vec::new(),
        }
    }

    /// Spawns one worker per shard.
    pub(crate) fn spawn(cp: &Arc<ControlPlane>, shards: &Arc<[Shard]>) -> Self {
        let queues: Arc<Vec<ShardQueue>> =
            Arc::new((0..shards.len()).map(|_| ShardQueue::new()).collect());
        let handles = (0..shards.len())
            .map(|i| {
                let queues = Arc::clone(&queues);
                let cp = Arc::clone(cp);
                let shards = Arc::clone(shards);
                std::thread::spawn(move || {
                    // vdisk-lint: allow(hot-path-index) reason="one queue per shard; i ranges over 0..shards.len() which sized the vec"
                    while let Some(job) = queues[i].pop() {
                        run_job(&cp, &shards, i, job);
                    }
                })
            })
            .collect();
        WorkerRuntime {
            queues: Some(queues),
            handles,
        }
    }

    /// The shard queues, or `None` in inline mode.
    pub(crate) fn queues(&self) -> Option<&[ShardQueue]> {
        self.queues.as_deref().map(Vec::as_slice)
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        if let Some(queues) = &self.queues {
            for queue in queues.iter() {
                queue.close();
            }
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked has already poisoned its ticket;
            // nothing useful to propagate here.
            let _ = handle.join();
        }
    }
}

/// Executes one job against its shard — the body of a worker thread,
/// also called directly by the inline path. Bracketing of the
/// per-shard pending counter (entered at enqueue time by the
/// submitter) is *exited* here, after the shard's work completes.
pub(crate) fn run_job(cp: &ControlPlane, shards: &[Shard], shard_idx: usize, job: Job) {
    // Injected delayed completion: the worker sleeps before serving
    // the job. Per-shard FIFO is preserved — everything queued behind
    // simply waits — so a delay slows a completion without reordering.
    if matches!(job, Job::Apply { .. } | Job::Read { .. }) {
        if let Some(delay) = cp.faults.as_ref().and_then(|f| f.job_delay(shard_idx)) {
            std::thread::sleep(delay);
        }
    }
    match job {
        Job::Apply { shared, idxs } => {
            let result = {
                // vdisk-lint: allow(hot-path-index) reason="shard_idx is this worker thread's own spawn index into the shard table"
                let mut guard = shards[shard_idx].lock();
                catch_unwind(AssertUnwindSafe(|| {
                    idxs.iter()
                        .map(|&i| {
                            // vdisk-lint: allow(hot-path-index) reason="idxs were recorded against shared.txs when the batch was split by shard"
                            let tx = &shared.txs[i];
                            let applied =
                                with_retries(cp, shard_idx, &tx.object, &shared.retries, || {
                                    guard.apply_tx(cp, shared.default_seq, tx)
                                });
                            (i, applied)
                        })
                        .collect::<Vec<_>>()
                }))
            };
            exit_shard(cp, shards, shard_idx);
            match result {
                Ok(items) => shared.progress.complete(items),
                Err(_) => shared.progress.poison(),
            }
        }
        Job::Read { shared, idxs } => {
            let result = {
                // vdisk-lint: allow(hot-path-index) reason="shard_idx is this worker thread's own spawn index into the shard table"
                let guard = shards[shard_idx].lock();
                catch_unwind(AssertUnwindSafe(|| {
                    idxs.iter()
                        .map(|&i| {
                            // vdisk-lint: allow(hot-path-index) reason="idxs were recorded against shared.requests when the batch was split by shard"
                            let request = &shared.requests[i];
                            let served = with_retries(
                                cp,
                                shard_idx,
                                &request.object,
                                &shared.retries,
                                || guard.read_one(cp, &request.object, shared.snap, &request.ops),
                            );
                            let outcome = match served {
                                Ok((results, plan)) => ReadOutcome::Hit(results, plan),
                                Err(
                                    e @ (RadosError::NoSuchObject(_)
                                    | RadosError::NoSuchSnapshot { .. }),
                                ) => {
                                    // A miss still costs a round trip.
                                    ReadOutcome::Miss(e, ShardState::miss_plan(cp, &request.object))
                                }
                                Err(e) => ReadOutcome::Fail(e),
                            };
                            (i, outcome)
                        })
                        .collect::<Vec<_>>()
                }))
            };
            exit_shard(cp, shards, shard_idx);
            match result {
                Ok(items) => shared.progress.complete(items),
                Err(_) => shared.progress.poison(),
            }
        }
        Job::Flush { shared, slot } => {
            // FIFO per shard: reaching this marker means everything
            // enqueued before it on this shard has applied. Markers
            // carry no work, so they stay invisible to the
            // admission/concurrency counters.
            shared.complete(vec![(slot, ())]);
        }
        Job::Hold { gate } => {
            let _ = gate.wait();
        }
    }
}

fn exit_shard(cp: &ControlPlane, shards: &[Shard], shard_idx: usize) {
    // vdisk-lint: allow(hot-path-index) reason="shard_idx is the calling worker's own spawn index into the shard table"
    shards[shard_idx].job_done(&cp.stats);
}

/// Runs one item's attempt under the cluster's fault plane and retry
/// policy — the retryable-IO core. The fault check happens **before**
/// `attempt` touches any state, so replaying a failed draw is
/// idempotent: nothing of the failed attempt ever applied, and the job
/// never leaves the worker, so per-shard FIFO order (and the
/// write-epoch protocol client caches rely on) is untouched. A
/// retryable draw replays in place with bounded exponential backoff;
/// budget exhaustion and non-retryable faults surface as
/// [`RadosError::Injected`]. Real errors from `attempt` itself (e.g. a
/// torn durable commit) are never replayed — they may have partially
/// applied.
fn with_retries<T>(
    cp: &ControlPlane,
    shard_idx: usize,
    object: &str,
    retries: &AtomicU64,
    mut attempt: impl FnMut() -> crate::Result<T>,
) -> crate::Result<T> {
    let mut replays: u32 = 0;
    loop {
        match cp.fault_for(shard_idx, object) {
            None => return attempt(),
            Some(kind) => {
                let err = RadosError::Injected {
                    kind,
                    shard: shard_idx,
                };
                if !err.is_retryable() || replays >= cp.retry.budget() {
                    return Err(err);
                }
                replays += 1;
                retries.fetch_add(1, Ordering::Relaxed);
                cp.stats.record_retries(1);
                let backoff = cp.retry.backoff_for(replays);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// A parking/wakeup completion signal shared between a reaping client
/// and the shard workers: a generation counter plus a condvar.
///
/// Workers **ring** the bell once per subscribed submission, when its
/// last slot completes (see [`ApplyTicket::subscribe`] /
/// [`ReadTicket::subscribe`]). A reaper snapshots the
/// [`generation`](Doorbell::generation) *before* scanning its pending
/// operations for progress and, if nothing is ready, parks in
/// [`wait_past`](Doorbell::wait_past). Any ring after the snapshot
/// bumps the generation, so the reaper can never sleep through a
/// completion (no lost wakeups) — and never spins while idle.
pub struct Doorbell {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Doorbell {
    /// A fresh, shareable bell at generation zero.
    #[must_use]
    pub fn new() -> Arc<Doorbell> {
        Arc::new(Doorbell {
            generation: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    /// The current generation. Snapshot this **before** scanning for
    /// completed work, then hand it to [`Doorbell::wait_past`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        *self
            .generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Rings the bell: bumps the generation and wakes every parked
    /// waiter.
    pub fn ring(&self) {
        let mut generation = self
            .generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *generation += 1;
        drop(generation);
        self.cv.notify_all();
    }

    /// Parks until the generation moves past `seen`; returns
    /// immediately if it already has. Returns the generation observed
    /// on wakeup.
    pub fn wait_past(&self, seen: u64) -> u64 {
        let mut generation = self
            .generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *generation == seen {
            generation = self
                .cv
                .wait(generation)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *generation
    }

    /// [`Doorbell::wait_past`] with a deadline: parks until the
    /// generation moves past `seen` **or** `timeout` elapses. The
    /// escape hatch for waiters whose readiness can change without
    /// anyone ringing — a token-bucket refill is a function of wall
    /// time, so a rate-limited tenant parks with the time-to-next-token
    /// as its deadline. Returns the generation observed on wakeup.
    pub fn wait_past_for(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut generation = self
            .generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *generation == seen {
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(generation, left)
                .unwrap_or_else(PoisonError::into_inner);
            generation = guard;
        }
        *generation
    }
}

/// Completion state shared between a submission's jobs and its ticket:
/// one slot per submitted item, a remaining count, and a condvar.
pub(crate) struct Progress<T> {
    state: Mutex<ProgressState<T>>,
    cv: Condvar,
}

struct ProgressState<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
    poisoned: bool,
    /// Bells rung once, when the last slot completes (or on poison),
    /// so reapers parked on a [`Doorbell`] wake per finished submission.
    subscribers: Vec<Arc<Doorbell>>,
}

impl<T> Progress<T> {
    pub(crate) fn new(items: usize) -> Self {
        Progress {
            state: Mutex::new(ProgressState {
                slots: (0..items).map(|_| None).collect(),
                remaining: items,
                poisoned: false,
                subscribers: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProgressState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills completed slots; when the last slot lands, signals waiters
    /// and rings every subscribed doorbell — once per submission, since
    /// completion is all a reaper can act on.
    pub(crate) fn complete(&self, items: Vec<(usize, T)>) {
        let mut guard = self.lock();
        for (i, item) in items {
            // vdisk-lint: allow(hot-path-index) reason="slot indices were issued by this Progress at submit and sized its slots vec"
            debug_assert!(guard.slots[i].is_none(), "slot {i} completed twice");
            // vdisk-lint: allow(hot-path-index) reason="slot indices were issued by this Progress at submit and sized its slots vec"
            guard.slots[i] = Some(item);
            guard.remaining -= 1;
        }
        if guard.remaining > 0 {
            return;
        }
        self.cv.notify_all();
        let bells = std::mem::take(&mut guard.subscribers);
        drop(guard);
        for bell in bells {
            bell.ring();
        }
    }

    /// Marks the submission failed by a panicking worker.
    fn poison(&self) {
        let mut guard = self.lock();
        guard.poisoned = true;
        self.cv.notify_all();
        let bells = std::mem::take(&mut guard.subscribers);
        drop(guard);
        for bell in bells {
            bell.ring();
        }
    }

    /// Registers a bell to ring when the submission completes. Rings it
    /// immediately if the submission is already done, so a reaper
    /// subscribing late never parks past a finished op.
    pub(crate) fn subscribe(&self, bell: &Arc<Doorbell>) {
        let mut guard = self.lock();
        if guard.remaining == 0 || guard.poisoned {
            drop(guard);
            bell.ring();
        } else {
            guard.subscribers.push(Arc::clone(bell));
        }
    }

    /// True once every slot has completed.
    pub(crate) fn is_done(&self) -> bool {
        let guard = self.lock();
        guard.remaining == 0 || guard.poisoned
    }

    /// Blocks until every slot has completed, then returns the items in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked while serving this submission
    /// (mirroring the panic propagation of the old scoped-thread path).
    pub(crate) fn wait(&self) -> Vec<T> {
        let mut guard = self.lock();
        while guard.remaining > 0 && !guard.poisoned {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!guard.poisoned, "shard worker panicked");
        guard
            .slots
            .iter_mut()
            // vdisk-lint: allow(hot-path-panic) reason="wait returns only once remaining == 0, and every decrement filled its slot under this lock"
            .map(|slot| slot.take().expect("every slot completed"))
            .collect()
    }
}

/// Shared state of one write submission. Each slot completes with the
/// transaction's cost plan, or with the dynamic-precondition error
/// ([`RadosError::CompareFailed`]) that stopped that one transaction.
pub(crate) struct ApplyShared {
    pub(crate) txs: Vec<Transaction>,
    /// Snapshot sequence captured once at submit, so every transaction
    /// of the submission sees one consistent snapshot context.
    pub(crate) default_seq: u64,
    pub(crate) progress: Progress<crate::Result<Plan>>,
    /// In-worker replays of this submission's items under the fault
    /// plane; folded into the ticket's `stats_delta`.
    pub(crate) retries: AtomicU64,
}

/// Shared state of one read submission.
pub(crate) struct ReadShared {
    pub(crate) requests: Vec<ObjectReads>,
    pub(crate) snap: Option<SnapId>,
    pub(crate) progress: Progress<ReadOutcome>,
    /// In-worker replays of this submission's items under the fault
    /// plane; folded into the ticket's `stats_delta`.
    pub(crate) retries: AtomicU64,
}

/// What one object's read request produced.
pub(crate) enum ReadOutcome {
    /// The object exists; its results and cost plan.
    Hit(Vec<ReadResult>, Plan),
    /// The object is absent (now, or at the snapshot). Carries the
    /// original error (for single-object callers that must fail) and
    /// the miss cost plan (for batched callers that zero-fill).
    Miss(RadosError, Plan),
    /// A non-miss error; fails the whole submission.
    Fail(RadosError),
}

/// Tracks the "issued but not yet reaped" bracket of one submission
/// against the cluster-wide queue-depth counter. Decrements exactly
/// once — on `wait` or on drop.
pub(crate) struct DepthGuard {
    cp: Arc<ControlPlane>,
    open: bool,
}

impl DepthGuard {
    pub(crate) fn open(cp: Arc<ControlPlane>) -> Self {
        cp.stats.enter_submission();
        DepthGuard { cp, open: true }
    }

    /// A guard for submissions that dispatch nothing (empty batches):
    /// never counts against the queue depth.
    pub(crate) fn noop(cp: Arc<ControlPlane>) -> Self {
        DepthGuard { cp, open: false }
    }

    fn close(&mut self) {
        if self.open {
            self.open = false;
            self.cp.stats.exit_submission();
        }
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Keeps one shard's worker deliberately parked until released (or
/// dropped) — the test hook behind [`crate::Cluster::hold_shard`] for
/// proving that client-side waits park instead of spinning while a
/// completion is delayed. Jobs enqueued behind the hold sit in the
/// shard's FIFO until release. In inline mode (no workers) there is
/// nothing to hold and the handle is a pre-released no-op.
pub struct ShardHold {
    gate: Arc<Progress<()>>,
    released: bool,
}

impl ShardHold {
    pub(crate) fn new(gate: Arc<Progress<()>>, released: bool) -> ShardHold {
        ShardHold { gate, released }
    }

    /// Releases the held worker. Idempotent; also runs on drop, so a
    /// leaked hold cannot wedge the cluster's shutdown.
    pub fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.gate.complete(vec![(0, ())]);
        }
    }
}

impl Drop for ShardHold {
    fn drop(&mut self) {
        self.release();
    }
}

impl std::fmt::Debug for ShardHold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardHold(released: {})", self.released)
    }
}

/// An in-flight write submission (from [`crate::Cluster::submit_batch`]).
///
/// Holding the ticket keeps the submission's buffers alive; dropping it
/// without waiting abandons the results (the writes still apply).
#[must_use = "a submission completes in the background; wait() reaps its cost plan"]
pub struct ApplyTicket {
    pub(crate) shared: Arc<ApplyShared>,
    pub(crate) stats: crate::cluster::ExecStats,
    pub(crate) depth: DepthGuard,
}

impl ApplyTicket {
    /// True once every shard has applied its part.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shared.progress.is_done()
    }

    /// Registers `bell` to be rung once, when the last shard finishes
    /// its part of this submission (immediately if it is already
    /// complete), so a reaper can park on the bell instead of polling
    /// [`ApplyTicket::is_complete`].
    pub fn subscribe(&self, bell: &Arc<Doorbell>) {
        self.shared.progress.subscribe(bell);
    }

    /// Blocks until the submission has fully applied and returns
    /// [`Plan::par`] of the per-transaction cost plans, in submission
    /// order — exactly what the synchronous
    /// [`crate::Cluster::execute_batch`] returns.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::RadosError::CompareFailed`] if a
    /// transaction's [`crate::TxOp::CompareXattr`] precondition did not
    /// hold at apply time. That transaction applied nothing; other
    /// transactions of the submission are unaffected (the batch
    /// all-or-nothing guarantee covers static validation, not dynamic
    /// preconditions).
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked while applying.
    pub fn wait(mut self) -> crate::Result<Plan> {
        let outcomes = self.shared.progress.wait();
        self.depth.close();
        let mut plans = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            plans.push(outcome?);
        }
        Ok(Plan::par(plans))
    }

    /// Exact operation counts attributable to this submission (the
    /// cluster-wide high-water marks are not per-op quantities and stay
    /// zero here; read them from [`crate::Cluster::exec_stats`]).
    #[must_use]
    pub fn stats_delta(&self) -> crate::cluster::ExecStats {
        let mut stats = self.stats;
        stats.retries = self.shared.retries.load(Ordering::Relaxed);
        stats
    }
}

impl std::fmt::Debug for ApplyTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ApplyTicket({} txs, complete: {})",
            self.shared.txs.len(),
            self.is_complete()
        )
    }
}

/// An in-flight read submission (from
/// [`crate::Cluster::submit_read_batch`]).
#[must_use = "a submission completes in the background; wait() reaps its results"]
pub struct ReadTicket {
    pub(crate) shared: Arc<ReadShared>,
    pub(crate) stats: crate::cluster::ExecStats,
    pub(crate) depth: DepthGuard,
}

impl ReadTicket {
    /// True once every shard has served its part.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shared.progress.is_done()
    }

    /// Registers `bell` to be rung once, when the last shard finishes
    /// its part of this submission (immediately if it is already
    /// complete), so a reaper can park on the bell instead of polling
    /// [`ReadTicket::is_complete`].
    pub fn subscribe(&self, bell: &Arc<Doorbell>) {
        self.shared.progress.subscribe(bell);
    }

    /// Blocks until the submission has fully completed. Returns one
    /// result slot per request (in submission order; `None` for objects
    /// absent now or at the snapshot) plus [`Plan::par`] of the
    /// per-request costs — exactly what the synchronous
    /// [`crate::Cluster::read_batch`] returns.
    ///
    /// # Errors
    ///
    /// Propagates any error other than a missing object/snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked while serving.
    #[allow(clippy::type_complexity)]
    pub fn wait(self) -> crate::Result<(Vec<Option<Vec<ReadResult>>>, Plan)> {
        let outcomes = self.into_outcomes();
        let mut results = Vec::with_capacity(outcomes.len());
        let mut plans = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                ReadOutcome::Hit(res, plan) => {
                    results.push(Some(res));
                    plans.push(plan);
                }
                ReadOutcome::Miss(_, plan) => {
                    results.push(None);
                    plans.push(plan);
                }
                ReadOutcome::Fail(e) => return Err(e),
            }
        }
        Ok((results, Plan::par(plans)))
    }

    /// Exact operation counts attributable to this submission.
    #[must_use]
    pub fn stats_delta(&self) -> crate::cluster::ExecStats {
        let mut stats = self.stats;
        stats.retries = self.shared.retries.load(Ordering::Relaxed);
        stats
    }

    /// Blocks for completion and hands back the raw per-request
    /// outcomes (single-object callers distinguish miss kinds).
    pub(crate) fn into_outcomes(mut self) -> Vec<ReadOutcome> {
        let outcomes = self.shared.progress.wait();
        self.depth.close();
        outcomes
    }
}

impl std::fmt::Debug for ReadTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReadTicket({} requests, complete: {})",
            self.shared.requests.len(),
            self.is_complete()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_completes_out_of_order() {
        let p: Progress<u32> = Progress::new(3);
        assert!(!p.is_done());
        p.complete(vec![(2, 20)]);
        p.complete(vec![(0, 0), (1, 10)]);
        assert!(p.is_done());
        assert_eq!(p.wait(), vec![0, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn poisoned_progress_panics_waiters() {
        let p: Progress<u32> = Progress::new(1);
        p.poison();
        let _ = p.wait();
    }

    #[test]
    fn doorbell_rings_once_per_submission() {
        let p: Progress<u32> = Progress::new(2);
        let bell = Doorbell::new();
        p.subscribe(&bell);
        let g0 = bell.generation();
        p.complete(vec![(1, 10)]);
        assert_eq!(
            bell.generation(),
            g0,
            "a partial completion is nothing a reaper can act on"
        );
        assert!(!p.is_done());
        p.complete(vec![(0, 0)]);
        assert_eq!(
            bell.wait_past(g0),
            g0 + 1,
            "the last slot rings the bell exactly once"
        );
        assert_eq!(p.wait(), vec![0, 10]);
    }

    #[test]
    fn poison_rings_subscribed_doorbells() {
        let p: Progress<u32> = Progress::new(2);
        let bell = Doorbell::new();
        p.subscribe(&bell);
        let g0 = bell.generation();
        p.poison();
        assert_eq!(bell.wait_past(g0), g0 + 1);
        assert!(p.is_done(), "a poisoned submission reports done");
    }

    #[test]
    fn subscribing_to_a_done_submission_rings_immediately() {
        let p: Progress<u32> = Progress::new(0);
        let bell = Doorbell::new();
        let g0 = bell.generation();
        p.subscribe(&bell);
        assert!(
            bell.generation() > g0,
            "late subscription to a finished submission must not park"
        );
    }

    #[test]
    fn queue_is_fifo_and_drains_on_close() {
        let q = ShardQueue::new();
        let shared = Arc::new(ApplyShared {
            txs: Vec::new(),
            default_seq: 0,
            progress: Progress::new(0),
            retries: AtomicU64::new(0),
        });
        for i in 0..3 {
            q.push(Job::Apply {
                shared: Arc::clone(&shared),
                idxs: vec![i],
            });
        }
        q.close();
        let mut seen = Vec::new();
        while let Some(Job::Apply { idxs, .. }) = q.pop() {
            seen.extend(idxs);
        }
        assert_eq!(seen, vec![0, 1, 2], "closed queues still drain FIFO");
    }
}
