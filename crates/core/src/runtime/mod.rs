//! The multi-tenant client runtime: admission control, weighted fair
//! scheduling, and per-tenant QoS over the per-shard submission
//! queues.
//!
//! The paper's design hands the whole data path to the client — which
//! means the client is also where *fairness* has to live. One
//! [`EncryptedIoQueue`](crate::EncryptedIoQueue) per image with no
//! arbitration lets a single image at QD 64 starve every other image
//! sharing the shard workers. This module inserts the missing layer: a
//! [`Runtime`] owns tenant registration (weight, QD cap, backlog cap),
//! admission control at submit, every tenant's backlog, and a
//! weighted-fair allocation of a shared in-flight budget — so hundreds
//! of queues share the cluster with proportional fairness instead of
//! free-for-all.
//!
//! # The model
//!
//! - **Tenant**: a registered identity ([`TenantHandle`]) with a
//!   [`TenantSpec`]. Weights set proportional share under contention;
//!   the QD cap bounds a tenant's own in-flight ops; the backlog cap
//!   is the admission bound ([`RuntimeError::AdmissionDenied`] past
//!   it).
//! - **Queue**: a tenant attaches a concrete queue (the raw
//!   [`vdisk_rbd::IoQueue`] or the encrypted
//!   [`EncryptedIoQueue`](crate::EncryptedIoQueue)) with
//!   [`TenantHandle::attach`], yielding a [`TenantQueue`] with the
//!   same submit/poll/wait/fence surface. Submissions queue in the
//!   arbiter's per-tenant backlog (the only copy); dispatch happens
//!   only when the arbiter grants slots — always on the owning thread,
//!   never from a central dispatcher, so the borrow-based queue types
//!   need no lifetime contortions.
//! - **Fairness**: a virtual-time weighted-fair scheduler (see
//!   `sched.rs`): each tenant's clock advances by `bytes / weight` per
//!   dispatched op and free slots go to the smallest clock first. The
//!   allocation simulates all backlogged tenants at once, so slots a
//!   quieter tenant is entitled to are *reserved* — a deep-QD hog
//!   cannot claim them in between the quiet tenant's submissions. A
//!   blocking call whose tenant has backlog and nothing in flight takes
//!   one free slot before it parks, reserved or not, so its own
//!   completion can wake it.
//! - **Background work** is a tenant like any other: the online rekey
//!   driver ([`crate::RekeyDriver::with_runtime_tenant`]) submits
//!   fixed-size windows through a (typically low-weight) tenant, and
//!   the weights alone decide how much of the budget it gets while
//!   clients are busy.
//!
//! Per-tenant FIFO dispatch preserves the queue layers' ordering
//! contract: ops of one tenant dispatch in submission order, so the
//! interleaving ≡ sequential-replay property holds through the
//! scheduler (see `core/tests/runtime_properties.rs`).
//!
//! # Waking
//!
//! Every blocking call runs one loop: snapshot the queue's doorbell,
//! dispatch what the arbiter grants, reap, and park on the doorbell
//! only if nothing was reaped. Two rings end a park: a shard worker's,
//! when one of the tenant's own ops completes, and the arbiter's,
//! when another tenant's completion or refund frees slots while this
//! tenant has backlog. There is no timed wait.
//!
//! Slots return to the budget only when their ops are reaped. A thread
//! that owns several queues of one runtime must therefore reap every
//! other one before it blocks on one (see [`TenantQueue`]).
//!
//! # Example
//!
//! ```
//! use vdisk_core::runtime::{Runtime, TenantSpec};
//! use vdisk_rados::Cluster;
//! use vdisk_rbd::{Image, IoOp, IoQueue};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::builder().build();
//! let runtime = Runtime::new(8);
//! let tenant = runtime.register(TenantSpec::new("vm-1").weight(3));
//!
//! let image = Image::create(&cluster, "vm-1", 16 << 20)?;
//! let mut queue = tenant.attach(IoQueue::new(&image));
//! queue.submit(IoOp::Write { offset: 0, data: vec![7u8; 4096] })?;
//! let done = queue.fence()?;
//! assert_eq!(done.len(), 1);
//! assert_eq!(tenant.stats().completed_ops, 1);
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vdisk_rados::sync::OrderedMutex;
use vdisk_rados::{Doorbell, ExecStats};
use vdisk_rbd::{Completion, IoOp, IoResult, Queue, QueueBackend};

use crate::CryptError;

mod sched;

use sched::{Arbiter, Queued};

/// Identifies a registered tenant within its [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Registration-time description of a tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    weight: u32,
    qd_cap: usize,
    backlog_cap: usize,
}

impl TenantSpec {
    /// A tenant with weight 1, QD cap 16 and backlog cap 64.
    #[must_use]
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight: 1,
            qd_cap: 16,
            backlog_cap: 64,
        }
    }

    /// Proportional share under contention (≥ 1): at equal demand a
    /// weight-3 tenant dispatches ~3 bytes for a weight-1 tenant's 1.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Maximum ops this tenant may hold in flight at once (≥ 1).
    #[must_use]
    pub fn qd_cap(mut self, qd_cap: usize) -> TenantSpec {
        self.qd_cap = qd_cap;
        self
    }

    /// Admission bound: submits past this many queued-but-undispatched
    /// ops fail with [`RuntimeError::AdmissionDenied`] (≥ 1).
    #[must_use]
    pub fn backlog_cap(mut self, backlog_cap: usize) -> TenantSpec {
        self.backlog_cap = backlog_cap;
        self
    }
}

/// Point-in-time per-tenant counters (see [`Runtime::tenant_stats`]).
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// The tenant.
    pub id: TenantId,
    /// Registration name.
    pub name: String,
    /// Configured weight.
    pub weight: u32,
    /// Ops accepted by admission control.
    pub admitted_ops: u64,
    /// Ops rejected at the backlog cap.
    pub rejected_ops: u64,
    /// Ops handed to the underlying queue.
    pub dispatched_ops: u64,
    /// Ops reaped back through the tenant's queue.
    pub completed_ops: u64,
    /// Ops that died with a reap error (e.g. retry-budget exhaustion
    /// under fault injection). Their slots and backlog were refunded;
    /// they never count as completed.
    pub failed_ops: u64,
    /// Payload bytes of completed ops.
    pub completed_bytes: u64,
    /// Ops admitted and not yet dispatched, right now.
    pub backlog_ops: usize,
    /// Ops dispatched and not yet reaped, right now.
    pub in_flight_ops: usize,
    /// Rollup of the per-op [`ExecStats`] deltas of every completed
    /// op: counters sum, high-water marks take the max.
    pub exec: ExecStats,
}

/// Point-in-time view of the whole runtime (see [`Runtime::snapshot`]).
#[derive(Debug, Clone)]
pub struct RuntimeSnapshot {
    /// The shared in-flight budget.
    pub inflight_budget: usize,
    /// Ops in flight across all tenants, right now.
    pub in_flight_ops: usize,
    /// Every registered tenant's counters, in registration order.
    pub tenants: Vec<TenantStats>,
}

/// Errors of the runtime layer, wrapping the attached queue's own
/// error type `E`.
#[derive(Debug)]
pub enum RuntimeError<E> {
    /// Admission control rejected the submit: the tenant's backlog is
    /// at its cap. Reap some completions (or wait) and resubmit.
    AdmissionDenied {
        /// The rejected tenant.
        tenant: TenantId,
        /// Ops currently queued.
        backlog: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The underlying queue failed.
    Queue(E),
}

impl<E: fmt::Display> fmt::Display for RuntimeError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::AdmissionDenied {
                tenant,
                backlog,
                cap,
            } => write!(f, "{tenant} backlog full ({backlog}/{cap})"),
            RuntimeError::Queue(e) => write!(f, "queue error: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for RuntimeError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Queue(e) => Some(e),
            _ => None,
        }
    }
}

impl<E> From<E> for RuntimeError<E> {
    fn from(e: E) -> Self {
        RuntimeError::Queue(e)
    }
}

/// Maps a tenant-queue error back into the crypto error space: queue
/// errors pass through, admission denials become
/// [`CryptError::RuntimeStalled`].
impl From<RuntimeError<CryptError>> for CryptError {
    fn from(e: RuntimeError<CryptError>) -> Self {
        match e {
            RuntimeError::Queue(e) => e,
            other => CryptError::RuntimeStalled(other.to_string()),
        }
    }
}

/// A queue the runtime can arbitrate: non-blocking submit and reap,
/// an in-flight count, and the completion doorbell the runtime rings
/// when a scheduling change should wake the owner. Implemented once,
/// for every [`Queue`] — the raw [`vdisk_rbd::IoQueue`] and the
/// encrypted [`EncryptedIoQueue`](crate::EncryptedIoQueue) alike.
pub trait ArbitratedQueue {
    /// The queue's error type.
    type Error;

    /// Submits directly to the underlying queue (dispatch).
    ///
    /// # Errors
    ///
    /// The queue's synchronous submit errors (e.g. out of bounds).
    fn submit_direct(&mut self, op: IoOp) -> Result<Completion, Self::Error>;

    /// Non-blocking reap of everything finished.
    ///
    /// # Errors
    ///
    /// The queue's reap errors.
    fn poll_direct(&mut self) -> Result<Vec<IoResult>, Self::Error>;

    /// Ops dispatched and not yet reaped.
    fn in_flight(&self) -> usize;

    /// The queue's completion doorbell.
    fn doorbell(&self) -> Arc<Doorbell>;

    /// Drains the completion ids of ops consumed by reap errors since
    /// the last call, so the runtime can refund their budget.
    fn take_failed(&mut self) -> Vec<u64>;
}

/// Every [`Queue`] is arbitrable, whatever its backend.
impl<B: QueueBackend> ArbitratedQueue for Queue<B> {
    type Error = B::Error;

    fn submit_direct(&mut self, op: IoOp) -> Result<Completion, Self::Error> {
        self.submit(op)
    }

    fn poll_direct(&mut self) -> Result<Vec<IoResult>, Self::Error> {
        self.poll()
    }

    fn in_flight(&self) -> usize {
        Queue::in_flight(self)
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        Queue::doorbell(self)
    }

    fn take_failed(&mut self) -> Vec<u64> {
        Queue::take_failed(self)
    }
}

/// The shared arbiter. Cheap to clone; all clones share one scheduler
/// state. See the [module docs](self) for the model.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<OrderedMutex<Arbiter>>,
}

impl Runtime {
    /// A runtime sharing `inflight_budget` concurrent ops across all
    /// tenants. The budget is what creates fairness: tenants contend
    /// for slots, and the scheduler hands free slots to whoever is
    /// furthest below its weighted share.
    ///
    /// # Panics
    ///
    /// Panics if `inflight_budget` is zero.
    #[must_use]
    pub fn new(inflight_budget: usize) -> Runtime {
        Runtime {
            inner: Arc::new(OrderedMutex::new(Arbiter::new(inflight_budget))),
        }
    }

    /// Registers a tenant.
    ///
    /// # Panics
    ///
    /// Panics if the spec's weight, QD cap or backlog cap is zero.
    #[must_use]
    pub fn register(&self, spec: TenantSpec) -> TenantHandle {
        let id = self.inner.lock().register(&spec);
        TenantHandle {
            runtime: self.clone(),
            id,
        }
    }

    /// One tenant's counters, point in time.
    #[must_use]
    pub fn tenant_stats(&self, id: TenantId) -> TenantStats {
        self.inner.lock().tenant_stats(id)
    }

    /// The whole runtime's counters, point in time.
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let arbiter = self.inner.lock();
        RuntimeSnapshot {
            inflight_budget: arbiter.budget(),
            in_flight_ops: arbiter.in_flight_total(),
            tenants: arbiter.all_stats(),
        }
    }

    /// Ops in flight across all tenants, right now.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inner.lock().in_flight_total()
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arbiter = self.inner.lock();
        write!(
            f,
            "Runtime({} in flight / budget {})",
            arbiter.in_flight_total(),
            arbiter.budget()
        )
    }
}

/// A registered tenant: the key for attaching queues and reading
/// stats. Clones refer to the same tenant.
#[derive(Clone)]
pub struct TenantHandle {
    runtime: Runtime,
    id: TenantId,
}

impl TenantHandle {
    /// The tenant's id.
    #[must_use]
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The owning runtime.
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// This tenant's counters, point in time.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        self.runtime.tenant_stats(self.id)
    }

    /// Puts `inner` under this tenant's arbitration. All IO to the
    /// queue now flows through admission control and the fair
    /// scheduler; drop the [`TenantQueue`] to release the tenant for
    /// a new attachment (undispatched work is abandoned then).
    ///
    /// # Panics
    ///
    /// Panics if the tenant already has an attached queue: the
    /// arbiter's per-tenant backlog is a single FIFO, so two queues
    /// interleaving in it would dispatch each other's grants.
    #[must_use]
    pub fn attach<Q: ArbitratedQueue>(&self, inner: Q) -> TenantQueue<Q> {
        let bell = inner.doorbell();
        self.runtime.inner.lock().attach(self.id, Arc::clone(&bell));
        TenantQueue {
            runtime: self.runtime.clone(),
            id: self.id,
            inner,
            bell,
            dispatched: HashMap::new(),
            staged: Vec::new(),
            next_outer: 0,
        }
    }
}

impl fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TenantHandle({})", self.id)
    }
}

/// A tenant-arbitrated queue: same submit/poll/wait/fence surface as
/// the queue it wraps, with admission control at submit and dispatch
/// gated by the runtime's fair scheduler. Completion tokens are the
/// wrapper's own (allotted at submit, delivered in results with the
/// inner queue's tokens rewritten).
///
/// Ops whose dispatch the inner queue rejects synchronously (e.g. out
/// of bounds) surface that error from whichever pumping call performs
/// the dispatch — not necessarily the `submit` that queued them.
///
/// A thread that owns several queues of one runtime must reap (poll
/// or fence) every other one before it blocks in
/// [`TenantQueue::wait_any`], [`TenantQueue::fence`] or
/// [`TenantQueue::submit_blocking`] on one. A slot returns to the
/// budget only when its op is reaped, so if the other queues hold the
/// whole budget in completed but unreaped ops, the blocked queue never
/// gets a slot and the call never returns.
pub struct TenantQueue<Q: ArbitratedQueue> {
    runtime: Runtime,
    id: TenantId,
    inner: Q,
    bell: Arc<Doorbell>,
    /// Inner completion id → (wrapper completion id, cost bytes).
    dispatched: HashMap<u64, (u64, u64)>,
    /// Reaped results not yet delivered to the caller (a dispatch
    /// pump may reap while waiting for backlog slots).
    staged: Vec<IoResult>,
    next_outer: u64,
}

impl<Q: ArbitratedQueue> TenantQueue<Q> {
    /// Ops admitted and not yet dispatched.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.runtime.inner.lock().backlog_len(self.id)
    }

    /// Ops dispatched and not yet reaped.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    /// Submits one op through admission control; returns its wrapper
    /// completion token. The op dispatches now if the scheduler grants
    /// a slot, otherwise it queues and later pumping calls dispatch it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AdmissionDenied`] at the backlog cap; dispatch
    /// errors from the inner queue if the op (or an earlier queued
    /// one) dispatches within this call. When the dispatch error
    /// belongs to an *earlier* queued op, the op this call queued is
    /// un-admitted again — an error return never leaves behind an
    /// admitted op whose completion token the caller did not receive.
    pub fn submit(&mut self, op: IoOp) -> Result<Completion, RuntimeError<Q::Error>> {
        let outer = self.next_outer;
        self.runtime
            .inner
            .lock()
            .try_admit(self.id, outer, op)
            .map_err(|(backlog, cap)| RuntimeError::AdmissionDenied {
                tenant: self.id,
                backlog,
                cap,
            })?;
        self.next_outer += 1;
        if let Err(e) = self.pump(false) {
            // Dispatch is FIFO and aborts on the first failure, so if
            // the op queued above is still the newest backlog entry
            // the error was an earlier op's: revoke the fresh
            // admission (and its completion id) instead of stranding
            // it. If the failing op *was* this one, pump already
            // refunded it and the error speaks for itself.
            if self.runtime.inner.lock().unadmit_newest(self.id, outer) {
                self.next_outer = outer;
            }
            return Err(e);
        }
        Ok(Completion::from_id(outer))
    }

    /// Like [`TenantQueue::submit`], but blocks at the backlog cap
    /// instead of failing: pumps dispatch (and reaps, staging any
    /// results for the next reap call) until a backlog slot frees up.
    /// The submit primitive for background drivers that prefer
    /// throttling to error handling.
    ///
    /// # Errors
    ///
    /// As [`TenantQueue::wait_any`] — never
    /// [`RuntimeError::AdmissionDenied`].
    pub fn submit_blocking(&mut self, op: IoOp) -> Result<Completion, RuntimeError<Q::Error>> {
        self.drive_until(|q| !q.runtime.inner.lock().backlog_full(q.id))?;
        self.submit(op)
    }

    /// Dispatches whatever the scheduler currently grants (see
    /// `Arbiter::claim` for `parking`) and returns how many ops it
    /// dispatched.
    fn pump(&mut self, parking: bool) -> Result<usize, RuntimeError<Q::Error>> {
        let mut dispatched = 0;
        loop {
            let granted = self.runtime.inner.lock().claim(self.id, parking);
            if granted.is_empty() {
                return Ok(dispatched);
            }
            let mut granted = granted.into_iter();
            while let Some(Queued { outer, cost, op }) = granted.next() {
                match self.inner.submit_direct(op) {
                    Ok(completion) => {
                        self.dispatched.insert(completion.id(), (outer, cost));
                        dispatched += 1;
                    }
                    Err(e) => {
                        // The failing op's slot is refunded outright;
                        // the rest of this grant goes back to the
                        // front of the backlog, or those ops would
                        // count in flight forever while never
                        // dispatching.
                        self.runtime
                            .inner
                            .lock()
                            .dispatch_aborted(self.id, granted.collect());
                        return Err(RuntimeError::Queue(e));
                    }
                }
            }
        }
    }

    /// The one blocking loop behind every waiting call: each round
    /// snapshots the doorbell, pumps dispatch, checks `done`, reaps
    /// into the staging buffer, checks `done` again, and parks past
    /// the snapshot only if the reap came back empty and a parking
    /// claim dispatched nothing. A positive reap freed scheduler
    /// slots, so the round repeats instead (the runtime rings *other*
    /// tenants on completions — never the reaping thread, which is
    /// already awake).
    fn drive_until(&mut self, done: impl Fn(&Self) -> bool) -> Result<(), RuntimeError<Q::Error>> {
        loop {
            let seen = self.bell.generation();
            self.pump(false)?;
            if done(self) {
                return Ok(());
            }
            let reaped = self.reap_into_staged()?;
            if done(self) {
                return Ok(());
            }
            if reaped == 0 && self.pump(true)? == 0 {
                self.bell.wait_past(seen);
            }
        }
    }

    /// Whether the tenant has nothing queued and nothing in flight.
    fn is_idle(&self) -> bool {
        self.backlog() == 0 && self.inner.in_flight() == 0
    }

    /// Reaps the inner queue into the staging buffer, rewriting
    /// completion tokens and reporting per-tenant totals. Returns the
    /// number of ops reaped.
    fn reap_into_staged(&mut self) -> Result<usize, RuntimeError<Q::Error>> {
        let results = match self.inner.poll_direct() {
            Ok(results) => results,
            Err(e) => {
                // The inner queue consumed the failing op(s) with the
                // error; refund their slots (and drop their dispatch
                // tracking) or the shared budget leaks one slot per
                // failure and the tenant's in-flight count never
                // drains.
                let failed = self.inner.take_failed();
                let mut ops = 0usize;
                for id in failed {
                    if self.dispatched.remove(&id).is_some() {
                        ops += 1;
                    }
                }
                self.runtime.inner.lock().fail(self.id, ops);
                return Err(RuntimeError::Queue(e));
            }
        };
        if results.is_empty() {
            return Ok(0);
        }
        let mut ops = 0usize;
        let mut bytes = 0u64;
        let mut exec = ExecStats::default();
        for mut result in results {
            #[expect(
                clippy::expect_used,
                reason = "the inner queue only completes ops this wrapper submitted; ids are recorded at dispatch"
            )]
            let (outer, cost) = self
                .dispatched
                .remove(&result.completion.id())
                .expect("inner completion was dispatched by this wrapper");
            result.completion = Completion::from_id(outer);
            ops += 1;
            bytes += cost;
            exec.absorb(&result.stats);
            self.staged.push(result);
        }
        self.runtime
            .inner
            .lock()
            .complete(self.id, ops, bytes, &exec);
        Ok(ops)
    }

    fn take_staged(&mut self) -> Vec<IoResult> {
        std::mem::take(&mut self.staged)
    }

    /// Pumps dispatch and reaps everything finished, without blocking.
    ///
    /// # Errors
    ///
    /// Dispatch and reap errors of the inner queue.
    pub fn poll(&mut self) -> Result<Vec<IoResult>, RuntimeError<Q::Error>> {
        self.pump(false)?;
        self.reap_into_staged()?;
        Ok(self.take_staged())
    }

    /// Blocks until at least one completion is available (parking on
    /// the doorbell, never spinning), then returns every result
    /// staged so far. Returns empty only when the tenant has nothing
    /// queued and nothing in flight.
    ///
    /// # Errors
    ///
    /// As [`TenantQueue::poll`].
    pub fn wait_any(&mut self) -> Result<Vec<IoResult>, RuntimeError<Q::Error>> {
        self.drive_until(|q| !q.staged.is_empty() || q.is_idle())?;
        Ok(self.take_staged())
    }

    /// Full barrier: dispatches and completes everything queued, then
    /// returns all results in wrapper-submission order.
    ///
    /// # Errors
    ///
    /// As [`TenantQueue::wait_any`].
    pub fn fence(&mut self) -> Result<Vec<IoResult>, RuntimeError<Q::Error>> {
        self.drive_until(Self::is_idle)?;
        let mut results = self.take_staged();
        results.sort_by_key(|r| r.completion.id());
        Ok(results)
    }
}

impl<Q: ArbitratedQueue> Drop for TenantQueue<Q> {
    fn drop(&mut self) {
        self.runtime.inner.lock().detach(self.id);
    }
}

impl<Q: ArbitratedQueue> fmt::Debug for TenantQueue<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TenantQueue({}, {} queued, {} in flight)",
            self.id,
            self.backlog(),
            self.inner.in_flight()
        )
    }
}
