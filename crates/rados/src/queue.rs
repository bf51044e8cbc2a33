//! The submission path: everything between a `Cluster::submit_*` call
//! and the ticket that reaps it, written once.
//!
//! A **submission** is a vector of items of one [`Kind`] — transactions
//! ([`Apply`]) or per-object read requests ([`Read`]). The kind names
//! the item type, what serving one item yields, which object an item
//! addresses and how a locked shard serves it; everything else is
//! generic and statically dispatched:
//!
//! - `Cluster::submit` splits the items by shard into [`Part`]s and
//!   either enqueues each on the FIFO of the worker thread serving its
//!   shard ([`WorkerQueue`]; how many workers a cluster runs is
//!   [`crate::ClusterBuilder::concurrent_apply`]'s rule) or serves it
//!   on the spot;
//! - [`Part::run`] is the one serve loop: lock the shard, serve each
//!   item under the fault plane's retry policy, leave the shard, fill
//!   the submission's [`Progress`] slots (or poison them if serving
//!   panicked);
//! - [`Ticket`] is the caller's handle: `is_complete`, `subscribe`,
//!   `stats_delta` and `Debug` are shared; only `wait` — what the
//!   per-item results fold into — differs between [`ApplyTicket`] and
//!   [`ReadTicket`].
//!
//! **Ordering rule** (the fence/sequence contract of the queue API):
//! shard `s` is served by worker `s mod W` alone, through that worker's
//! one FIFO, so every job of a shard passes through one queue in
//! submission order and is served by one consumer. An object maps to
//! exactly one shard, so two operations on overlapping extents — which
//! necessarily touch the same objects — are applied in submission
//! order, even when their submissions were concurrent in flight.
//! Operations on disjoint shards interleave freely; that is the
//! cross-batch concurrency the paper's queue-depth argument needs.
//! Shards that share a worker also share its stalls: a
//! [`ShardHold`] or an injected delay holds up every shard of that
//! worker, never the order within one.
//!
//! **Wakes.** A worker marks itself parked, under its FIFO's mutex,
//! before it waits; a push notifies only a parked worker. A push that
//! lands while the worker is busy costs an uncontended lock instead of
//! a futex wake. [`Doorbell`] and [`Progress`] count their parked
//! waiters the same way, so a completion nobody waits for signals
//! nobody.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

use crate::cluster::ExecStats;
use crate::receipt::{ReadWork, Receipt, TxWork};
use crate::shard::{Shard, ShardState};
use crate::state::{ControlPlane, StatCounters};
use crate::sync::{LockClass, OrderedCondvar, OrderedMutex};
use crate::transaction::{ObjectReads, ReadResult, Transaction};
use crate::{RadosError, SnapId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a submission is made of. Implemented by [`Apply`] and [`Read`]
/// only; public because [`Ticket`] is, not exported.
pub trait Kind: Sized + 'static {
    /// One unit of the submission, addressed to one object.
    type Item: Send + Sync;
    /// What serving one item yields.
    type Served: Send;
    /// Captured once at submit and shown to every item.
    type Context: Send + Sync;
    /// The ticket's and the items' names in `Debug` output.
    const NAMES: (&'static str, &'static str);
    /// Whether accepting a submission advances the touched shards'
    /// write epochs.
    const WRITES: bool;

    /// The object `item` addresses (which decides its shard).
    fn object(item: &Self::Item) -> &str;

    /// The operation counts a submission of `items` items adds.
    fn stats(items: u64, batch: bool) -> ExecStats;

    /// Serves one item against its locked shard.
    ///
    /// # Errors
    ///
    /// Whatever the shard reports; the error fills the item's slot.
    fn serve(
        state: &mut ShardState,
        cp: &ControlPlane,
        context: &Self::Context,
        item: &Self::Item,
    ) -> crate::Result<Self::Served>;

    /// Wraps one shard's part of a submission for that shard's queue.
    fn job(part: Part<Self>) -> Job;
}

/// The write kind: items are transactions, each yields the record of
/// what it did — or the dynamic-precondition error
/// ([`RadosError::CompareFailed`]) that stopped that one transaction.
pub struct Apply;

impl Kind for Apply {
    type Item = Transaction;
    type Served = TxWork;
    /// The snapshot sequence, so every transaction of the submission
    /// sees one consistent snapshot context.
    type Context = SnapId;
    const NAMES: (&'static str, &'static str) = ("ApplyTicket", "txs");
    const WRITES: bool = true;

    fn object(tx: &Transaction) -> &str {
        &tx.object
    }

    fn stats(items: u64, batch: bool) -> ExecStats {
        ExecStats {
            transactions: items,
            batches: u64::from(batch),
            ..ExecStats::default()
        }
    }

    fn serve(
        state: &mut ShardState,
        cp: &ControlPlane,
        snap_seq: &SnapId,
        tx: &Transaction,
    ) -> crate::Result<TxWork> {
        state.apply_tx(cp, *snap_seq, tx)
    }

    fn job(part: Part<Self>) -> Job {
        Job::Apply(part)
    }
}

/// The read kind: items are per-object read requests, each yields its
/// results and the record of what serving them did.
pub struct Read;

impl Kind for Read {
    type Item = ObjectReads;
    type Served = (Vec<ReadResult>, ReadWork);
    /// The snapshot to read at (`None` = head).
    type Context = Option<SnapId>;
    const NAMES: (&'static str, &'static str) = ("ReadTicket", "requests");
    const WRITES: bool = false;

    fn object(request: &ObjectReads) -> &str {
        &request.object
    }

    fn stats(items: u64, _batch: bool) -> ExecStats {
        ExecStats {
            read_ops: items,
            ..ExecStats::default()
        }
    }

    fn serve(
        state: &mut ShardState,
        cp: &ControlPlane,
        snap: &Option<SnapId>,
        request: &ObjectReads,
    ) -> crate::Result<Self::Served> {
        state.read_one(cp, &request.object, *snap, &request.ops)
    }

    fn job(part: Part<Self>) -> Job {
        Job::Read(part)
    }
}

/// State shared between a submission's parts and its ticket.
pub struct Submission<K: Kind> {
    context: K::Context,
    /// The submitted items, in submission order. They stay here — and
    /// are freed by whichever thread drops the submission last, as a
    /// rule the submitter's — while the shards serve them by slot.
    items: Vec<K::Item>,
    /// One slot per submitted item, filled as the shards serve them.
    progress: Progress<crate::Result<K::Served>>,
    /// In-worker replays of this submission's items under the fault
    /// plane; folded into the ticket's `stats_delta`.
    retries: AtomicU64,
}

impl<K: Kind> Submission<K> {
    pub(crate) fn new(context: K::Context, items: Vec<K::Item>) -> Self {
        Submission {
            context,
            progress: Progress::new(items.len()),
            items,
            retries: AtomicU64::new(0),
        }
    }

    /// The submitted items, in slot order.
    pub(crate) fn items(&self) -> &[K::Item] {
        &self.items
    }
}

/// The items of one submission that landed on one shard, by slot.
pub struct Part<K: Kind> {
    pub(crate) shared: Arc<Submission<K>>,
    pub(crate) slots: Vec<usize>,
}

impl<K: Kind> Part<K> {
    /// Serves this part against its shard — the body of a worker
    /// thread, also called directly by the inline path. The shard's
    /// pending-job bracket (entered at admission by the submitter) is
    /// *exited* here, after the shard's work completes.
    pub(crate) fn run(self, cp: &ControlPlane, shard: &Shard) {
        // Injected delayed completion: the worker sleeps before serving
        // the job. FIFO is preserved — everything queued behind simply
        // waits, including the jobs of every other shard this worker
        // serves — so a delay slows completions without reordering.
        if let Some(delay) = cp.faults.as_ref().and_then(|f| f.job_delay(shard.index)) {
            std::thread::sleep(delay);
        }
        let shared = &self.shared;
        let served = {
            let mut state = shard.state.lock();
            catch_unwind(AssertUnwindSafe(|| {
                self.slots
                    .iter()
                    .filter_map(|&slot| {
                        let item = shared.items.get(slot)?;
                        let served =
                            with_retries(cp, shard.index, K::object(item), &shared.retries, || {
                                K::serve(&mut state, cp, &shared.context, item)
                            });
                        Some((slot, served))
                    })
                    .collect::<Vec<_>>()
            }))
        };
        shard.job_done(&cp.stats);
        match served {
            Ok(slots) => shared.progress.complete(slots),
            Err(_) => shared.progress.poison(),
        }
    }
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
        let fault = cp
            .faults
            .as_ref()
            .and_then(|f| f.fault_for(shard_idx, object));
        match fault {
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

/// One entry of a worker's work queue.
pub enum Job {
    /// Transactions of one write submission.
    Apply(Part<Apply>),
    /// Requests of one read submission.
    Read(Part<Read>),
    /// A test submission that reports which thread served it, or
    /// panics to poison its ticket on a live worker.
    #[cfg(test)]
    Probe(Part<tests::Probe>),
    /// A barrier marker (see `Cluster::flush`): completes slot `slot`
    /// of `shared` once every job enqueued before it on this worker's
    /// FIFO has been served.
    Flush {
        /// The barrier's completion state, one slot per worker.
        shared: Arc<Progress<()>>,
        /// This worker's slot.
        slot: usize,
    },
    /// A deliberate stall (see `Cluster::hold_shard`): the worker parks
    /// on the gate until the corresponding [`ShardHold`] is released,
    /// stalling every shard it serves. Like `Flush`, it carries no work
    /// and stays invisible to the admission/concurrency counters.
    Hold {
        /// Completed by the hold's release.
        gate: Arc<Progress<()>>,
    },
}

impl Job {
    fn run(self, cp: &ControlPlane, shard: &Shard) {
        match self {
            Job::Apply(part) => part.run(cp, shard),
            Job::Read(part) => part.run(cp, shard),
            #[cfg(test)]
            Job::Probe(part) => part.run(cp, shard),
            // FIFO per worker: reaching this marker means everything
            // enqueued before it on this worker has been served.
            Job::Flush { shared, slot } => shared.complete(vec![(slot, ())]),
            Job::Hold { gate } => {
                let _ = gate.wait();
            }
        }
    }
}

/// A FIFO job queue with blocking pop — one per worker thread, each
/// entry tagged with the shard it is for.
pub(crate) struct WorkerQueue {
    inner: OrderedMutex<QueueInner>,
    cv: OrderedCondvar,
}

struct QueueInner {
    jobs: VecDeque<(usize, Job)>,
    closed: bool,
    /// Set under this mutex right before the worker waits on the
    /// condvar, so a push knows whether a wake is needed at all.
    parked: bool,
}

impl LockClass for QueueInner {
    const NAME: &'static str = "WorkerQueue::inner";
}

impl WorkerQueue {
    pub(crate) fn new() -> Self {
        WorkerQueue {
            inner: OrderedMutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            cv: OrderedCondvar::new(),
        }
    }

    /// Appends `job` for shard `shard`. Notifies the worker only if it
    /// is parked, and returns whether it was. The flag is cleared here,
    /// so pushes landing before the woken worker runs do not notify
    /// again: it drains everything queued once it holds the lock.
    pub(crate) fn push(&self, shard: usize, job: Job) -> bool {
        let mut inner = self.inner.lock();
        inner.jobs.push_back((shard, job));
        let parked = std::mem::take(&mut inner.parked);
        drop(inner);
        if parked {
            self.cv.notify_one();
        }
        parked
    }

    /// Blocks for the next job and the shard it is for; `None` once
    /// closed **and** drained, so in-flight work always completes
    /// before a worker exits.
    fn pop(&self) -> Option<(usize, Job)> {
        let mut guard = self.inner.lock();
        loop {
            if let Some(entry) = guard.jobs.pop_front() {
                return Some(entry);
            }
            if guard.closed {
                return None;
            }
            guard.parked = true;
            guard = self.cv.wait(guard);
            // A spurious wakeup must not leave the flag set for a
            // worker that is about to run.
            guard.parked = false;
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }
}

/// The shard table, the worker FIFOs and the worker threads draining
/// them — `W` workers, shard `s` served by worker `s mod W` (see
/// [`crate::ClusterBuilder::concurrent_apply`] for how `W` is chosen).
/// Held by every [`crate::Cluster`] clone via `Arc`; when the last
/// handle drops, the queues close and the workers drain and exit.
pub(crate) struct Shards {
    table: Arc<[Shard]>,
    /// One FIFO per worker; empty in inline mode.
    queues: Arc<[WorkerQueue]>,
    workers: Vec<JoinHandle<()>>,
}

impl Shards {
    /// Spawns `workers` worker threads, named `vdisk-worker-{i}`, over
    /// the shard table; none in inline mode (`workers == 0`), where
    /// submissions are served at submit time.
    ///
    /// # Errors
    ///
    /// Fails if the OS refuses a thread; the workers already started
    /// are closed and joined first.
    pub(crate) fn start(
        cp: &Arc<ControlPlane>,
        table: Vec<Shard>,
        workers: usize,
    ) -> std::io::Result<Self> {
        let mut shards = Shards {
            table: table.into(),
            queues: (0..workers).map(|_| WorkerQueue::new()).collect(),
            workers: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let cp = Arc::clone(cp);
            let table = Arc::clone(&shards.table);
            let queues = Arc::clone(&shards.queues);
            let worker = std::thread::Builder::new()
                .name(format!("vdisk-worker-{i}"))
                .spawn(move || {
                    let Some(queue) = queues.get(i) else { return };
                    while let Some((index, job)) = queue.pop() {
                        if let Some(shard) = table.get(index) {
                            job.run(&cp, shard);
                        }
                    }
                })?;
            shards.workers.push(worker);
        }
        Ok(shards)
    }

    /// Whether worker `worker` is parked on its empty FIFO.
    #[cfg(test)]
    pub(crate) fn worker_parked(&self, worker: usize) -> bool {
        self.queues[worker].inner.lock().parked
    }

    /// Number of worker threads (`0` in inline mode).
    pub(crate) fn worker_count(&self) -> usize {
        self.queues.len()
    }

    /// Queues `job` on the FIFO of the worker serving shard `shard`,
    /// counting a wake if that worker was parked. In inline mode there
    /// is no FIFO: callers serve the job themselves instead.
    pub(crate) fn push(&self, stats: &StatCounters, shard: usize, job: Job) {
        let queue = shard
            .checked_rem(self.queues.len())
            .and_then(|worker| self.queues.get(worker));
        if let Some(queue) = queue {
            if queue.push(shard, job) {
                stats.record_worker_wake();
            }
        }
    }
}

impl std::ops::Deref for Shards {
    type Target = [Shard];

    fn deref(&self) -> &[Shard] {
        &self.table
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        for queue in self.queues.iter() {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked has already poisoned its ticket;
            // nothing useful to propagate here.
            let _ = worker.join();
        }
    }
}

/// A parking/wakeup completion signal shared between a reaping client
/// and the shard workers: a generation counter plus a condvar.
///
/// Workers **ring** the bell once per subscribed submission, when its
/// last slot completes (see [`Ticket::subscribe`]). A reaper snapshots the
/// [`generation`](Doorbell::generation) *before* scanning its pending
/// operations for progress and, if nothing is ready, parks in
/// [`wait_past`](Doorbell::wait_past). Any ring after the snapshot
/// bumps the generation, so the reaper can never sleep through a
/// completion (no lost wakeups) — and never spins while idle.
pub struct Doorbell {
    state: OrderedMutex<Bell>,
    cv: OrderedCondvar,
}

struct Bell {
    generation: u64,
    /// Threads parked in `wait_past`; a ring with none skips the
    /// notify.
    waiters: usize,
}

impl LockClass for Bell {
    const NAME: &'static str = "Doorbell::state";
}

impl Doorbell {
    /// A fresh, shareable bell at generation zero.
    #[must_use]
    pub fn new() -> Arc<Doorbell> {
        Arc::new(Doorbell {
            state: OrderedMutex::new(Bell {
                generation: 0,
                waiters: 0,
            }),
            cv: OrderedCondvar::new(),
        })
    }

    /// The current generation. Snapshot this **before** scanning for
    /// completed work, then hand it to [`Doorbell::wait_past`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Rings the bell: bumps the generation and wakes every parked
    /// waiter, if there is one.
    pub fn ring(&self) {
        let mut bell = self.state.lock();
        bell.generation += 1;
        let parked = bell.waiters > 0;
        drop(bell);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Parks until the generation moves past `seen`; returns
    /// immediately if it already has. Returns the generation observed
    /// on wakeup.
    pub fn wait_past(&self, seen: u64) -> u64 {
        let mut bell = self.state.lock();
        while bell.generation == seen {
            bell.waiters += 1;
            bell = self.cv.wait(bell);
            bell.waiters -= 1;
        }
        bell.generation
    }
}

/// Completion state shared between a submission's jobs and its ticket:
/// one slot per submitted item, a remaining count, and a condvar.
pub struct Progress<T> {
    state: OrderedMutex<ProgressState<T>>,
    cv: OrderedCondvar,
}

struct ProgressState<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
    poisoned: bool,
    /// Threads parked in [`Progress::wait`]; completion notifies only
    /// when there is one.
    waiters: usize,
    /// The bell rung once, when the last slot completes (or on
    /// poison), so the reaper parked on a [`Doorbell`] wakes per
    /// finished submission. A submission has one reaper, hence one bell.
    subscriber: Option<Arc<Doorbell>>,
}

impl<T> LockClass for ProgressState<T> {
    const NAME: &'static str = "Progress::state";
}

impl<T> Progress<T> {
    pub(crate) fn new(items: usize) -> Self {
        Progress {
            state: OrderedMutex::new(ProgressState {
                slots: (0..items).map(|_| None).collect(),
                remaining: items,
                poisoned: false,
                waiters: 0,
                subscriber: None,
            }),
            cv: OrderedCondvar::new(),
        }
    }

    /// Fills completed slots; when the last slot lands, signals waiters
    /// and rings the subscribed doorbell — once per submission, since
    /// completion is all a reaper can act on.
    pub(crate) fn complete(&self, items: Vec<(usize, T)>) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        for (i, item) in items {
            if let Some(slot) = state.slots.get_mut(i) {
                debug_assert!(slot.is_none(), "slot {i} completed twice");
                *slot = Some(item);
                state.remaining -= 1;
            }
        }
        if guard.remaining > 0 {
            return;
        }
        if guard.waiters > 0 {
            self.cv.notify_all();
        }
        let bell = guard.subscriber.take();
        drop(guard);
        if let Some(bell) = bell {
            bell.ring();
        }
    }

    /// Marks the submission failed by a panicking worker.
    fn poison(&self) {
        let mut guard = self.state.lock();
        guard.poisoned = true;
        if guard.waiters > 0 {
            self.cv.notify_all();
        }
        let bell = guard.subscriber.take();
        drop(guard);
        if let Some(bell) = bell {
            bell.ring();
        }
    }

    /// Registers the bell to ring when the submission completes. Rings
    /// it immediately if the submission is already done, so a reaper
    /// subscribing late never parks past a finished op.
    pub(crate) fn ring_when_done(&self, bell: &Arc<Doorbell>) {
        let mut guard = self.state.lock();
        debug_assert!(guard.subscriber.is_none(), "a submission takes one bell");
        if guard.remaining == 0 || guard.poisoned {
            drop(guard);
            bell.ring();
        } else {
            guard.subscriber = Some(Arc::clone(bell));
        }
    }

    /// True once every slot has completed.
    pub(crate) fn is_done(&self) -> bool {
        let guard = self.state.lock();
        guard.remaining == 0 || guard.poisoned
    }

    /// Blocks until every slot has completed, then returns the items in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked while serving this submission
    /// (mirroring the panic propagation of the old scoped-thread path).
    #[expect(
        clippy::expect_used,
        reason = "wait returns only once remaining == 0, and every decrement filled its slot under this lock"
    )]
    pub(crate) fn wait(&self) -> Vec<T> {
        let mut guard = self.state.lock();
        while guard.remaining > 0 && !guard.poisoned {
            guard.waiters += 1;
            guard = self.cv.wait(guard);
            guard.waiters -= 1;
        }
        assert!(!guard.poisoned, "shard worker panicked");
        guard
            .slots
            .iter_mut()
            .map(|slot| slot.take().expect("every slot completed"))
            .collect()
    }
}

/// Keeps one shard's worker deliberately parked until released (or
/// dropped) — the test hook behind [`crate::Cluster::hold_shard`] for
/// proving that client-side waits park instead of spinning while a
/// completion is delayed. Jobs enqueued behind the hold sit in the
/// worker's FIFO until release — those of every shard that worker
/// serves, not only the held one; per-shard FIFO order is unchanged.
/// In inline mode (no workers) there is nothing to hold and the handle
/// is a pre-released no-op.
pub struct ShardHold {
    pub(crate) gate: Arc<Progress<()>>,
    pub(crate) released: bool,
}

impl ShardHold {
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

/// An in-flight submission: [`ApplyTicket`] from
/// [`crate::Cluster::submit_batch`], [`ReadTicket`] from
/// [`crate::Cluster::submit_read_batch`].
///
/// Dropping a ticket without waiting abandons the results (writes
/// still apply).
#[must_use = "a submission completes in the background; wait() reaps its results"]
pub struct Ticket<K: Kind> {
    pub(crate) shared: Arc<Submission<K>>,
    pub(crate) stats: ExecStats,
    pub(crate) cp: Arc<ControlPlane>,
    /// Whether this submission still counts against the cluster-wide
    /// queue depth: the "issued but not yet reaped" bracket, entered at
    /// submit (unless the submission was empty) and left exactly once —
    /// on `wait` or on drop.
    pub(crate) open: bool,
}

/// An in-flight write submission.
pub type ApplyTicket = Ticket<Apply>;

/// An in-flight read submission.
pub type ReadTicket = Ticket<Read>;

impl<K: Kind> Ticket<K> {
    /// True once every shard has served its part.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shared.progress.is_done()
    }

    /// Registers `bell` to be rung once, when the last shard finishes
    /// its part of this submission (immediately if it is already
    /// complete), so a reaper can park on the bell instead of polling
    /// [`Ticket::is_complete`]. A submission takes one bell: subscribe
    /// each ticket once.
    pub fn subscribe(&self, bell: &Arc<Doorbell>) {
        self.shared.progress.ring_when_done(bell);
    }

    /// Exact operation counts attributable to this submission (the
    /// cluster-wide high-water marks are not per-op quantities and stay
    /// zero here; read them from [`crate::Cluster::exec_stats`]).
    #[must_use]
    pub fn stats_delta(&self) -> ExecStats {
        let mut stats = self.stats;
        stats.retries = self.shared.retries.load(Ordering::Relaxed);
        stats
    }

    /// Blocks for completion, closes the queue-depth bracket and hands
    /// back the per-item results in submission order.
    pub(crate) fn reap(&mut self) -> Vec<crate::Result<K::Served>> {
        let outcomes = self.shared.progress.wait();
        self.close();
        outcomes
    }

    fn close(&mut self) {
        if std::mem::take(&mut self.open) {
            self.cp.stats.exit_submission();
        }
    }
}

impl<K: Kind> Drop for Ticket<K> {
    fn drop(&mut self) {
        self.close();
    }
}

impl Ticket<Apply> {
    /// Blocks until the submission has fully applied and returns its
    /// receipt: one [`TxWork`] per transaction, in submission order —
    /// exactly what the synchronous [`crate::Cluster::execute_batch`]
    /// returns.
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
    pub fn wait(mut self) -> crate::Result<Receipt> {
        let txs = self.reap().into_iter().collect::<crate::Result<Vec<_>>>()?;
        Ok(Receipt {
            txs,
            ..Receipt::default()
        })
    }
}

impl Ticket<Read> {
    /// Blocks until the submission has fully completed. Returns one
    /// result slot per request (in submission order; `None` for objects
    /// absent now or at the snapshot) plus the receipt, one
    /// [`ReadWork`] per request — exactly what the synchronous
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
    pub fn wait(mut self) -> crate::Result<(Vec<Option<Vec<ReadResult>>>, Receipt)> {
        let outcomes = self.reap();
        let mut results = Vec::with_capacity(outcomes.len());
        let mut reads = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok((res, work)) => {
                    results.push(Some(res));
                    reads.push(work);
                }
                Err(
                    RadosError::NoSuchObject(object) | RadosError::NoSuchSnapshot { object, .. },
                ) => {
                    // A miss still made the round trip to the primary.
                    results.push(None);
                    reads.push(ReadWork {
                        primary: self.cp.placement.primary(&object),
                        response_bytes: 0,
                        effects: Vec::new(),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok((
            results,
            Receipt {
                reads,
                ..Receipt::default()
            },
        ))
    }
}

impl<K: Kind> std::fmt::Debug for Ticket<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ticket, items) = K::NAMES;
        write!(
            f,
            "{ticket}({} {items}, complete: {})",
            self.shared.items.len(),
            self.is_complete()
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A kind whose items name an object (and so the shard they go
    /// to); serving one yields the name of the thread serving it, or
    /// panics when the context says so.
    pub struct Probe;

    impl Kind for Probe {
        type Item = String;
        type Served = Option<String>;
        /// Whether serving panics.
        type Context = bool;
        const NAMES: (&'static str, &'static str) = ("ProbeTicket", "items");
        const WRITES: bool = false;

        fn object(item: &String) -> &str {
            item
        }

        fn stats(_items: u64, _batch: bool) -> ExecStats {
            ExecStats::default()
        }

        fn serve(
            _: &mut ShardState,
            _: &ControlPlane,
            panics: &bool,
            item: &String,
        ) -> crate::Result<Option<String>> {
            assert!(!panics, "serving {item} panicked on purpose");
            Ok(std::thread::current().name().map(String::from))
        }

        fn job(part: Part<Self>) -> Job {
            Job::Probe(part)
        }
    }

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
        p.ring_when_done(&bell);
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
        p.ring_when_done(&bell);
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
        p.ring_when_done(&bell);
        assert!(
            bell.generation() > g0,
            "late subscription to a finished submission must not park"
        );
    }

    #[test]
    fn queue_is_fifo_and_drains_on_close() {
        let q = WorkerQueue::new();
        let shared = Arc::new(Progress::new(3));
        // Entries for different shards share the one FIFO.
        for slot in 0..3 {
            let woke = q.push(
                2 - slot,
                Job::Flush {
                    shared: Arc::clone(&shared),
                    slot,
                },
            );
            assert!(!woke, "nobody is parked on the queue");
        }
        q.close();
        let mut seen = Vec::new();
        while let Some((shard, Job::Flush { slot, .. })) = q.pop() {
            seen.push((shard, slot));
        }
        assert_eq!(
            seen,
            vec![(2, 0), (1, 1), (0, 2)],
            "closed queues still drain FIFO"
        );
    }

    #[test]
    fn push_wakes_a_parked_worker_once() {
        let q = Arc::new(WorkerQueue::new());
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut shards = Vec::new();
                while let Some((shard, job)) = q.pop() {
                    shards.push(shard);
                    if let Job::Hold { gate } = job {
                        let _ = gate.wait();
                    }
                }
                shards
            })
        };
        // Wait until the consumer has parked on the empty queue.
        while !q.inner.lock().parked {
            std::thread::yield_now();
        }
        let gates: Vec<Arc<Progress<()>>> = (0..3).map(|_| Arc::new(Progress::new(1))).collect();
        let hold = |i: usize| Job::Hold {
            gate: Arc::clone(&gates[i]),
        };
        assert!(q.push(0, hold(0)), "a push onto a parked worker wakes it");
        // The flag was taken by the first push, and the worker cannot
        // park again before the first gate opens: later pushes, whether
        // the worker has run yet or sits on the gate, notify nobody.
        assert!(!q.push(1, hold(1)));
        assert!(!q.push(2, hold(2)));
        for gate in &gates {
            gate.complete(vec![(0, ())]);
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn a_ring_nobody_waits_for_still_moves_the_generation() {
        let bell = Doorbell::new();
        let seen = bell.generation();
        bell.ring();
        assert_eq!(bell.state.lock().waiters, 0);
        assert_eq!(
            bell.wait_past(seen),
            seen + 1,
            "a later wait_past(seen) returns at once"
        );
    }

    #[test]
    fn a_parked_doorbell_waiter_is_woken() {
        let bell = Doorbell::new();
        let seen = bell.generation();
        let waiter = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.wait_past(seen))
        };
        while bell.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        bell.ring();
        assert_eq!(waiter.join().unwrap(), seen + 1);
        assert_eq!(
            bell.state.lock().waiters,
            0,
            "the woken waiter left the count"
        );
    }

    #[test]
    fn a_parked_progress_waiter_is_woken() {
        let p: Arc<Progress<u32>> = Arc::new(Progress::new(2));
        let waiter = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.wait())
        };
        while p.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        p.complete(vec![(1, 10)]);
        p.complete(vec![(0, 0)]);
        assert_eq!(waiter.join().unwrap(), vec![0, 10]);
    }
}
