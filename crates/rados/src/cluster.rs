//! The cluster façade: OSD maps (sharded by placement), replicated
//! transaction execution, reads, snapshots, scrub/repair, and the
//! closed-loop benchmark entry point.
//!
//! State is split three ways (the sharding the ROADMAP's async-dispatch
//! item asked for):
//!
//! - an immutable control plane (`ControlPlane`):
//!   placement, cost profiles, resource handles, plus atomic counters —
//!   read by every worker with no lock;
//! - N object `Shard`s keyed by placement group, each
//!   behind its own lock **and its own FIFO work queue** — an object's
//!   whole acting set lives in one shard, so per-object transactions
//!   and reads touch exactly one lock;
//! - the simulator, behind its own lock (only the closed-loop harness
//!   mutates it).
//!
//! IO dispatch is **submission-based**: [`Cluster::submit_batch`] and
//! [`Cluster::submit_read_batch`] validate up front (all-or-nothing),
//! split the submission into per-shard jobs, enqueue them on the shard
//! work queues (served by one worker thread per shard), and return a
//! ticket immediately — so jobs from *different* submissions interleave
//! on the shard workers, and one client overlaps many IOs. The
//! synchronous [`Cluster::execute_batch`] / [`Cluster::read_batch`] /
//! [`Cluster::execute`] / [`Cluster::read`] are thin submit-then-wait
//! wrappers. Per-shard FIFO with a single consumer is the ordering
//! rule: ops touching the same object always apply in submission
//! order.

use crate::backend::{BackendKind, ClusterMeta, FileStore, MemStore, ObjectStore};
use crate::cost::{ResourceHandles, TestbedProfile};
use crate::fault::{FaultConfig, FaultPlane, RetryPolicy};
use crate::placement::PlacementMap;
use crate::queue::{
    self, ApplyShared, ApplyTicket, DepthGuard, Job, Progress, ReadOutcome, ReadShared, ReadTicket,
    ShardHold, WorkerRuntime,
};
use crate::shard::Shard;
use crate::state::ControlPlane;
use crate::transaction::{ObjectReads, ReadOp, ReadResult, Transaction, TxOp};
use crate::{RadosError, Result, SnapId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use vdisk_kv::CostProfile;
use vdisk_sim::{ClosedLoopStats, Plan, Simulator};

/// Whether object payload bytes are materialized in memory.
///
/// `Discarded` keeps only sizes and OMAP content — identical cost
/// plans at a fraction of the memory — and exists for the benchmark
/// harness, which sweeps up to 4 MB IOs and never re-reads plaintext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadMode {
    /// Store every byte (functional tests, examples).
    #[default]
    Stored,
    /// Track sizes only; reads return zeros.
    Discarded,
}

/// Scrub outcome: objects whose replicas disagree.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Objects checked.
    pub objects_checked: usize,
    /// Names of divergent objects.
    pub divergent: Vec<String>,
}

impl ScrubReport {
    /// True when every replica of every object agrees.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty()
    }
}

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
    /// client-side metadata cache held their entry (reported via
    /// [`Cluster::record_meta_cache`] by the encryption layer's cache;
    /// always zero when no cache is layered above).
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
    }
}

/// Default client-side metadata cache budget: 4 MiB of sector
/// metadata (256 Ki cached IV entries at 16 bytes each — enough for
/// 1 GiB of hot data at a 4 KiB sector size).
pub const DEFAULT_META_CACHE_BYTES: u64 = 4 << 20;

/// Configures and builds a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    osd_count: usize,
    replicas: usize,
    pg_count: u64,
    shard_count: usize,
    concurrent_apply: Option<bool>,
    payload: PayloadMode,
    meta_cache_bytes: u64,
    crypto_lanes: Option<usize>,
    backend: BackendKind,
    /// True when the backend came from the `VDISK_BACKEND` environment
    /// override: the store directory is session scratch, removed when
    /// the last [`Cluster`] handle drops.
    scratch: bool,
    faults: Option<FaultConfig>,
    retry: RetryPolicy,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        let (backend, scratch) = backend_from_env();
        ClusterBuilder {
            osd_count: 3,
            replicas: 3,
            pg_count: 128,
            shard_count: 8,
            concurrent_apply: None,
            payload: PayloadMode::Stored,
            meta_cache_bytes: DEFAULT_META_CACHE_BYTES,
            crypto_lanes: None,
            backend,
            scratch,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// The `VDISK_BACKEND` environment override: `file` (with an optional
/// `VDISK_BACKEND_DIR` base directory) makes every
/// default-constructed builder target a fresh scratch [`FileStore`]
/// directory — how the existing test suites run unmodified against the
/// durable backend. Anything else (or unset) keeps the in-memory
/// default. An explicit [`ClusterBuilder::backend`] call always wins.
fn backend_from_env() -> (BackendKind, bool) {
    match std::env::var("VDISK_BACKEND") {
        Ok(v) if v.eq_ignore_ascii_case("file") => {
            static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);
            let base = std::env::var_os("VDISK_BACKEND_DIR")
                .map_or_else(std::env::temp_dir, PathBuf::from);
            let dir = base.join(format!(
                "vdisk-scratch-{}-{}",
                std::process::id(),
                SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            (BackendKind::File { dir }, true)
        }
        _ => (BackendKind::Memory, false),
    }
}

impl ClusterBuilder {
    /// Number of OSD nodes (default 3, as in the paper).
    #[must_use]
    pub fn osd_count(mut self, n: usize) -> Self {
        self.osd_count = n;
        self
    }

    /// Replication factor (default 3, Ceph's default, as in the paper).
    #[must_use]
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Placement-group count (default 128).
    #[must_use]
    pub fn pg_count(mut self, n: u64) -> Self {
        self.pg_count = n;
        self
    }

    /// Number of state shards batches fan out over (default 8; must be
    /// at least 1 — validated at build). `1` reproduces the old
    /// single-lock behaviour.
    #[must_use]
    pub fn shard_count(mut self, n: usize) -> Self {
        self.shard_count = n;
        self
    }

    /// Whether submissions are served by per-shard worker threads (one
    /// dedicated worker per state shard, draining that shard's FIFO
    /// work queue). Defaults to auto: workers on a multi-core host,
    /// inline on a single core (worker threads cannot overlap in
    /// wall-clock there, so the queue degenerates to synchronous
    /// execution with identical semantics). `true` forces workers —
    /// the hook tests use to exercise the queued path regardless of
    /// host; `false` forces inline application at submit time.
    #[must_use]
    pub fn concurrent_apply(mut self, enabled: bool) -> Self {
        self.concurrent_apply = Some(enabled);
        self
    }

    /// Payload retention mode.
    #[must_use]
    pub fn payload_mode(mut self, mode: PayloadMode) -> Self {
        self.payload = mode;
        self
    }

    /// Budget (in bytes of sector metadata) for the client-side
    /// IV/metadata cache layered above this cluster — the knob behind
    /// `vdisk-core`'s read cache. `0` disables the cache. Defaults to
    /// [`DEFAULT_META_CACHE_BYTES`] (4 MiB). Advisory: the store
    /// itself never caches; upper layers read it via
    /// [`Cluster::meta_cache_bytes`] when opening an image.
    #[must_use]
    pub fn meta_cache_bytes(mut self, bytes: u64) -> Self {
        self.meta_cache_bytes = bytes;
        self
    }

    /// Number of client-side crypto lanes: how many sector-crypto jobs
    /// the encryption layer above this cluster may run in parallel,
    /// and how many servers the simulated client-crypto resource gets
    /// (the two must agree or simulated time would diverge from the
    /// real work). Clamped to at least 1. Defaults to the host's
    /// available parallelism capped at
    /// [`TestbedProfile::default`]'s crypto worker count (4), so a
    /// multi-core host keeps the calibrated resource while a
    /// single-core host degenerates to serial crypto. Must be at least
    /// 1 (validated at build). Advisory for upper layers, read via
    /// [`Cluster::crypto_lanes`].
    #[must_use]
    pub fn crypto_lanes(mut self, lanes: usize) -> Self {
        self.crypto_lanes = Some(lanes);
        self
    }

    /// Selects the storage backend (default: [`BackendKind::Memory`],
    /// or whatever the `VDISK_BACKEND` environment override picked —
    /// an explicit call here always wins over the environment).
    /// [`BackendKind::File`] makes every transaction commit durable
    /// (logged and `fsync`ed) under the given directory and reopens a
    /// directory formatted by an earlier cluster, provided the geometry
    /// (`osd_count`, `replicas`, `pg_count`, `shard_count`, payload
    /// mode) matches.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self.scratch = false;
        self
    }

    /// Installs a deterministic fault plane: the cluster injects
    /// per-shard transient/persistent errors, delayed completions, and
    /// (file backend) torn-commit crashes exactly as the seeded
    /// [`FaultConfig`] dictates. Default: no fault plane — nothing is
    /// ever injected and [`ExecStats::retries`] stays zero.
    #[must_use]
    pub fn fault_plane(mut self, config: FaultConfig) -> Self {
        self.faults = Some(config);
        self
    }

    /// How the shard workers replay attempts that drew a retryable
    /// injected fault (see [`RetryPolicy`]; default: 4 replays with
    /// exponential backoff). Only consulted when a fault plane is
    /// installed — without one there is nothing to retry.
    #[must_use]
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builds the cluster, panicking on invalid configuration — the
    /// ergonomic entry point for tests and examples whose knobs are
    /// literals. Fallible callers use [`ClusterBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics whenever [`ClusterBuilder::try_build`] would return an
    /// error (zero-valued knobs, replicas exceeding OSDs, or a file
    /// backend that cannot be opened).
    #[must_use]
    pub fn build(self) -> Cluster {
        self.try_build()
            // vdisk-lint: allow(hot-path-panic) reason="documented panicking constructor for literal-knob tests; fallible callers use try_build"
            .unwrap_or_else(|e| panic!("invalid cluster configuration: {e}"))
    }

    /// Builds the cluster, validating every knob first.
    ///
    /// # Errors
    ///
    /// - [`RadosError::InvalidConfig`] if `osd_count`, `replicas`,
    ///   `pg_count`, `shard_count` or `crypto_lanes` is zero, if
    ///   `replicas > osd_count`, or if a file backend's directory was
    ///   formatted with a different geometry.
    /// - [`RadosError::Io`] if a file backend's directory cannot be
    ///   created, read, or written.
    pub fn try_build(self) -> Result<Cluster> {
        for (knob, value) in [
            ("osd_count", self.osd_count as u64),
            ("replicas", self.replicas as u64),
            ("pg_count", self.pg_count),
            ("shard_count", self.shard_count as u64),
            ("crypto_lanes", self.crypto_lanes.unwrap_or(1) as u64),
        ] {
            if value == 0 {
                return Err(RadosError::InvalidConfig(format!(
                    "{knob} must be at least 1"
                )));
            }
        }
        if self.replicas > self.osd_count {
            return Err(RadosError::InvalidConfig(format!(
                "replicas ({}) cannot exceed osd_count ({})",
                self.replicas, self.osd_count
            )));
        }

        let mut sim = Simulator::new();
        let crypto_lanes = self.crypto_lanes.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(TestbedProfile::default().crypto_servers)
                .max(1)
        });
        // The simulated client-crypto resource must have exactly as
        // many servers as the encryption layer has lanes, or simulated
        // crypto time would diverge from the real parallel work.
        let testbed = TestbedProfile {
            crypto_servers: crypto_lanes,
            ..TestbedProfile::default()
        };
        let handles = testbed.install(&mut sim, self.osd_count);
        let placement = PlacementMap::new(self.osd_count, self.replicas, self.pg_count);

        // A file backend roots itself before the shards open: the meta
        // file decides whether this is a format or a reopen, and a
        // reopen must resume the snapshot sequence.
        let (durable, initial_snap_seq) = match &self.backend {
            BackendKind::Memory => (None, 0),
            BackendKind::File { dir } => {
                let geometry = ClusterMeta {
                    osd_count: self.osd_count,
                    replicas: self.replicas,
                    pg_count: self.pg_count,
                    shard_count: self.shard_count,
                    payload: self.payload,
                    snap_seq: 0,
                };
                std::fs::create_dir_all(dir)
                    .map_err(|e| RadosError::Io(format!("create store root: {e}")))?;
                let snap_seq = match ClusterMeta::load(dir)
                    .map_err(|e| RadosError::Io(format!("read cluster.meta: {e}")))?
                {
                    Some(existing) => {
                        let mut requested = geometry.clone();
                        requested.snap_seq = existing.snap_seq;
                        if existing != requested {
                            return Err(RadosError::InvalidConfig(format!(
                                "store at {} was formatted with a different geometry \
                                 ({existing:?}; this builder requests {requested:?})",
                                dir.display()
                            )));
                        }
                        existing.snap_seq
                    }
                    None => {
                        geometry
                            .store(dir)
                            .map_err(|e| RadosError::Io(format!("write cluster.meta: {e}")))?;
                        0
                    }
                };
                let root = DurableRoot {
                    root: dir.clone(),
                    geometry,
                    scratch: self.scratch,
                };
                (Some(Arc::new(root)), snap_seq)
            }
        };

        let faults = self
            .faults
            .map(|config| Arc::new(FaultPlane::new(config, self.shard_count)));
        let shards: Arc<[Shard]> = (0..self.shard_count)
            .map(|s| -> Result<Shard> {
                let store: Box<dyn ObjectStore> = match &self.backend {
                    BackendKind::Memory => Box::new(MemStore::new(self.osd_count)),
                    BackendKind::File { dir } => Box::new(
                        FileStore::open_faulted(
                            dir.join(format!("shard-{s}")),
                            self.osd_count,
                            s,
                            self.payload == PayloadMode::Stored,
                            faults.clone(),
                        )
                        .map_err(|e| RadosError::Io(format!("open shard {s}: {e}")))?,
                    ),
                };
                Ok(Shard::new(store))
            })
            .collect::<Result<Vec<_>>>()?
            .into();
        let workers = self
            .concurrent_apply
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from) > 1);
        let control = Arc::new(ControlPlane::new(
            placement,
            handles,
            testbed,
            CostProfile::default(),
            self.payload,
            self.shard_count,
            workers,
            self.meta_cache_bytes,
            crypto_lanes,
            initial_snap_seq,
            faults,
            self.retry,
        ));
        let runtime = if workers {
            WorkerRuntime::spawn(&control, &shards)
        } else {
            WorkerRuntime::inline()
        };
        Ok(Cluster {
            control,
            shards,
            sim: Arc::new(Mutex::new(sim)),
            runtime: Arc::new(runtime),
            durable,
        })
    }
}

/// The root of a file-backed cluster: where `cluster.meta` lives, the
/// geometry it was opened with, and whether the directory is session
/// scratch (an environment-selected store removed with the last
/// cluster handle).
struct DurableRoot {
    root: PathBuf,
    geometry: ClusterMeta,
    scratch: bool,
}

impl DurableRoot {
    /// Durably rewrites `cluster.meta` with the given snapshot seq.
    fn persist(&self, snap_seq: u64) -> std::io::Result<()> {
        let mut meta = self.geometry.clone();
        meta.snap_seq = snap_seq;
        meta.store(&self.root)
    }
}

impl Drop for DurableRoot {
    fn drop(&mut self) {
        if self.scratch {
            // Best effort: scratch stores are test conveniences, and a
            // shutdown race with an external cleaner must not panic.
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// A handle to the simulated Ceph-like cluster. Cheap to clone; all
/// clones share the same state.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct Cluster {
    control: Arc<ControlPlane>,
    shards: Arc<[Shard]>,
    sim: Arc<Mutex<Simulator>>,
    /// The per-shard worker threads and their queues; dropped (closing
    /// the queues and joining the workers) with the last handle.
    runtime: Arc<WorkerRuntime>,
    /// `Some` for file-backed clusters: the store root and its
    /// `cluster.meta` bookkeeping. Declared after `runtime` so that,
    /// on the last handle's drop, workers join before any scratch
    /// directory is removed.
    durable: Option<Arc<DurableRoot>>,
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

    /// The shard holding `object`, and its index.
    fn shard_for(&self, object: &str) -> &Shard {
        // vdisk-lint: allow(hot-path-index) reason="shard_of reduces the object hash modulo shards.len()"
        &self.shards[self.control.shard_of(object)]
    }

    /// Checks a transaction without touching any replica. Shared by
    /// the single and batched execution paths so both reject malformed
    /// input before **any** mutation (all-or-nothing).
    fn validate_tx(tx: &Transaction) -> Result<()> {
        if tx.object.is_empty() {
            return Err(RadosError::InvalidArgument("empty object name".into()));
        }
        for op in &tx.ops {
            match op {
                TxOp::OmapSet(entries) => {
                    if entries.iter().any(|(k, _)| k.is_empty()) {
                        return Err(RadosError::InvalidArgument("empty omap key".into()));
                    }
                }
                TxOp::OmapRemove(keys) => {
                    if keys.iter().any(Vec::is_empty) {
                        return Err(RadosError::InvalidArgument("empty omap key".into()));
                    }
                }
                TxOp::Write { data, .. } => {
                    if data.is_empty() {
                        return Err(RadosError::InvalidArgument("empty write".into()));
                    }
                }
                TxOp::CompareXattr { name, .. } => {
                    if name.is_empty() {
                        return Err(RadosError::InvalidArgument("empty xattr name".into()));
                    }
                }
                TxOp::Truncate(_) | TxOp::SetXattr(..) | TxOp::Delete => {}
            }
        }
        Ok(())
    }

    /// Applies a transaction atomically on every replica and returns
    /// its cost plan. A thin submit-then-wait wrapper over the shard
    /// work queues, so it orders correctly after any asynchronous
    /// submissions already in flight on the same objects.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any op is malformed,
    /// or [`RadosError::CompareFailed`] if a [`TxOp::CompareXattr`]
    /// precondition did not hold at apply time; in either case **no**
    /// op has been applied (all-or-nothing).
    pub fn execute(&self, tx: Transaction) -> Result<Plan> {
        self.submit_txs(vec![tx], false, true)?.wait()
    }

    /// Applies many transactions under one cluster round trip and
    /// returns [`Plan::par`] of their costs (in submission order):
    /// [`Cluster::submit_batch`] followed by [`ApplyTicket::wait`].
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any transaction in
    /// the batch is malformed (no transaction has been applied then),
    /// or the first [`RadosError::CompareFailed`] if a dynamic
    /// precondition failed at apply time (only that transaction is
    /// skipped).
    pub fn execute_batch(&self, txs: Vec<Transaction>) -> Result<Plan> {
        self.submit_txs(txs, true, true)?.wait()
    }

    /// Submits a batch of transactions to the shard work queues and
    /// returns immediately with an [`ApplyTicket`]; the per-shard
    /// worker threads apply the jobs while the caller goes on to
    /// submit more IO. The asynchronous half of the aio/submission-
    /// queue API — keeping many submissions in flight is what realizes
    /// the paper's queue-depth bandwidth argument.
    ///
    /// Validation runs over the **whole batch** before anything is
    /// enqueued, extending the single-transaction all-or-nothing
    /// guarantee to the batch — a malformed transaction anywhere
    /// leaves every shard untouched. Ordering: per-shard FIFO with one
    /// consumer per shard, so two submissions touching the same object
    /// (same shard, by construction) apply in submission order, while
    /// disjoint shards interleave freely across submissions.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if any transaction in
    /// the batch is malformed; nothing has been enqueued then.
    pub fn submit_batch(&self, txs: Vec<Transaction>) -> Result<ApplyTicket> {
        self.submit_txs(txs, true, false)
    }

    fn submit_txs(
        &self,
        txs: Vec<Transaction>,
        is_batch: bool,
        inline_if_idle: bool,
    ) -> Result<ApplyTicket> {
        for tx in &txs {
            Self::validate_tx(tx)?;
        }
        let cp = &self.control;
        // An empty submission dispatches nothing; keep it invisible to
        // the batch/queue-depth counters like the sync no-op paths.
        let is_empty = txs.is_empty();
        if is_batch && !is_empty {
            cp.stats.record_batch();
        }
        cp.stats.record_transactions(txs.len() as u64);
        let shard_keys: Vec<usize> = txs.iter().map(|tx| cp.shard_of(&tx.object)).collect();
        // Advance every touched shard's write-submission epoch while
        // the submission is accepted — strictly before any job can
        // apply — so client-side caches comparing epochs across a
        // read's submit→reap window never miss an overwrite.
        let mut touched = vec![false; self.shards.len()];
        for &shard in &shard_keys {
            // vdisk-lint: allow(hot-path-index) reason="shard_of reduces modulo shards.len(), which sized `touched`"
            if !touched[shard] {
                // vdisk-lint: allow(hot-path-index) reason="shard_of reduces modulo shards.len(), which sized `touched`"
                touched[shard] = true;
                cp.bump_shard_write_seq(shard);
            }
        }
        let tx_count = txs.len() as u64;
        let shared = Arc::new(ApplyShared {
            default_seq: cp.snap_seq(),
            progress: Progress::new(txs.len()),
            txs,
            retries: AtomicU64::new(0),
        });
        let depth = if is_empty {
            DepthGuard::noop(Arc::clone(cp))
        } else {
            DepthGuard::open(Arc::clone(cp))
        };
        let fanout = self.dispatch(&shard_keys, inline_if_idle, |idxs| Job::Apply {
            shared: Arc::clone(&shared),
            idxs,
        });
        Ok(ApplyTicket {
            shared,
            stats: ExecStats {
                transactions: tx_count,
                batches: u64::from(is_batch),
                shard_fanout_max: fanout,
                ..ExecStats::default()
            },
            depth,
        })
    }

    /// Groups item indices by shard, admits every touched shard (the
    /// concurrency bracket is entered here, *before* any job runs, so
    /// a submission's fanout registers deterministically), then either
    /// enqueues the jobs on the shard work queues or runs them on the
    /// spot. Returns the number of shards touched.
    ///
    /// `inline_if_idle` is the synchronous wrappers' fast path: the
    /// caller is about to block on the ticket anyway, so a shard whose
    /// admission found it **idle** (no enqueued or running job — the
    /// admission counter is the linearization point) is served in the
    /// calling thread, skipping two thread handoffs. This cannot
    /// reorder anything: an idle shard's queue is empty, so there is
    /// nothing to jump ahead of, and any job admitted concurrently is
    /// from an unordered independent submission. Asynchronous
    /// submissions never use it — their point is not to block.
    fn dispatch(
        &self,
        shard_keys: &[usize],
        inline_if_idle: bool,
        mut job_for: impl FnMut(Vec<usize>) -> Job,
    ) -> u64 {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &shard) in shard_keys.iter().enumerate() {
            // vdisk-lint: allow(hot-path-index) reason="shard keys come from shard_of, which reduces modulo shards.len(); groups was sized to match"
            groups[shard].push(i);
        }
        let touched: Vec<(usize, Vec<usize>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .collect();
        if touched.is_empty() {
            return 0;
        }
        let fanout = touched.len() as u64;
        self.control.stats.record_shard_fanout(fanout);
        let was_idle: Vec<bool> = touched
            .iter()
            // vdisk-lint: allow(hot-path-index) reason="shard indices are enumerate() positions over a vec sized shards.len()"
            .map(|(shard, _)| self.shards[*shard].job_admitted(&self.control.stats))
            .collect();
        match self.runtime.queues() {
            Some(queues) => {
                for ((shard, idxs), idle) in touched.into_iter().zip(was_idle) {
                    let job = job_for(idxs);
                    if inline_if_idle && idle {
                        queue::run_job(&self.control, &self.shards, shard, job);
                    } else {
                        // vdisk-lint: allow(hot-path-index) reason="one queue per shard; index is an enumerate() position over a vec sized shards.len()"
                        queues[shard].push(job);
                    }
                }
            }
            None => {
                for (shard, idxs) in touched {
                    queue::run_job(&self.control, &self.shards, shard, job_for(idxs));
                }
            }
        }
        fanout
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

    /// The state shard `object` maps to (deterministic, derived from
    /// its placement group). Upper layers use this for shard-aware
    /// naming — spreading one image's consecutive objects over shards
    /// so queued IO fans out evenly.
    #[must_use]
    pub fn placement_shard(&self, object: &str) -> usize {
        self.control.shard_of(object)
    }

    /// Whether submissions are served by per-shard worker threads
    /// (true) or applied inline at submit time (false) — see
    /// [`ClusterBuilder::concurrent_apply`].
    #[must_use]
    pub fn workers_enabled(&self) -> bool {
        self.control.workers
    }

    /// Executes read operations against the primary replica. A thin
    /// submit-then-wait wrapper over the shard work queues, so it sees
    /// every previously submitted write to the same object.
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
    ) -> Result<(Vec<ReadResult>, Plan)> {
        let requests = vec![ObjectReads::new(object, ops.to_vec())];
        let mut outcomes = self.submit_reads(snap, requests, true).into_outcomes();
        // vdisk-lint: allow(hot-path-panic) reason="submit_reads returns exactly one outcome per request and we submitted exactly one"
        match outcomes.pop().expect("one request, one outcome") {
            ReadOutcome::Hit(results, plan) => Ok((results, plan)),
            ReadOutcome::Miss(e, _) | ReadOutcome::Fail(e) => Err(e),
        }
    }

    /// Serves many per-object read requests in one round trip:
    /// [`Cluster::submit_read_batch`] followed by [`ReadTicket::wait`].
    /// Returns one result slot per request plus [`Plan::par`] of the
    /// per-request costs (in submission order). Objects absent (now,
    /// or at `snap`) yield `None` so striped callers can zero-fill
    /// sparse extents without failing the whole batch — but still cost
    /// a round trip to the primary, so the plan keeps **one child per
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
    ) -> Result<(Vec<Option<Vec<ReadResult>>>, Plan)> {
        self.submit_reads(snap, requests, true).wait()
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
        self.submit_reads(snap, requests, false)
    }

    fn submit_reads(
        &self,
        snap: Option<SnapId>,
        requests: Vec<ObjectReads>,
        inline_if_idle: bool,
    ) -> ReadTicket {
        let cp = &self.control;
        cp.stats.record_read_ops(requests.len() as u64);
        let shard_keys: Vec<usize> = requests.iter().map(|r| cp.shard_of(&r.object)).collect();
        let request_count = requests.len() as u64;
        let is_empty = requests.is_empty();
        let shared = Arc::new(ReadShared {
            snap,
            progress: Progress::new(requests.len()),
            requests,
            retries: AtomicU64::new(0),
        });
        let depth = if is_empty {
            DepthGuard::noop(Arc::clone(cp))
        } else {
            DepthGuard::open(Arc::clone(cp))
        };
        let fanout = self.dispatch(&shard_keys, inline_if_idle, |idxs| Job::Read {
            shared: Arc::clone(&shared),
            idxs,
        });
        ReadTicket {
            shared,
            stats: ExecStats {
                read_ops: request_count,
                shard_fanout_max: fanout,
                ..ExecStats::default()
            },
            depth,
        }
    }

    /// Drains the shard work queues: blocks until every job submitted
    /// **before** this call has been applied. The barrier for callers
    /// about to inspect cluster state directly (object listing, image
    /// removal, scrub) while asynchronous submissions may be in
    /// flight; jobs submitted concurrently with the flush are not
    /// covered.
    ///
    /// On a durable backend ([`BackendKind::File`]) this is also the
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
        if let Some(queues) = self.runtime.queues() {
            let progress = Arc::new(Progress::new(queues.len()));
            for (slot, queue) in queues.iter().enumerate() {
                queue.push(Job::Flush {
                    shared: Arc::clone(&progress),
                    slot,
                });
            }
            progress.wait();
        }
        if self.durable.is_some() {
            for shard in self.shards.iter() {
                // vdisk-lint: allow(hot-path-panic) reason="documented panicking path: a failed directory sync voids the durability promise"
                shard.lock().store.flush().expect("backend flush failed");
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
            // vdisk-lint: allow(hot-path-panic) reason="reopening with a stale snap seq silently corrupts clone visibility; failing loudly is the contract"
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

    /// The client-side crypto parallelism resolved at build time (see
    /// [`ClusterBuilder::crypto_lanes`]); always ≥ 1, and equal to the
    /// simulated client-crypto resource's server count.
    #[must_use]
    pub fn crypto_lanes(&self) -> usize {
        self.control.crypto_lanes
    }

    /// Parks the worker of state shard `shard` until the returned
    /// [`ShardHold`] is released (or dropped). Jobs enqueued behind the
    /// hold sit on the shard's FIFO in the meantime — the hook tests
    /// use to delay a completion deliberately and prove that a client
    /// wait parks instead of spinning. In inline mode (no workers)
    /// there is nothing to hold and the returned handle is a
    /// pre-released no-op.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn hold_shard(&self, shard: usize) -> ShardHold {
        assert!(shard < self.shards.len(), "shard index out of range");
        let gate = Arc::new(Progress::new(1));
        match self.runtime.queues() {
            Some(queues) => {
                // vdisk-lint: allow(hot-path-index) reason="asserted in range above, honoring the documented panic contract"
                queues[shard].push(Job::Hold {
                    gate: Arc::clone(&gate),
                });
                ShardHold::new(gate, false)
            }
            None => ShardHold::new(gate, true),
        }
    }

    /// Observability hook for client-side metadata caches layered
    /// above the store (the encryption layer's IV cache): accumulates
    /// the given deltas into [`ExecStats::meta_cache_hits`] /
    /// [`ExecStats::meta_cache_misses`] /
    /// [`ExecStats::meta_cache_invalidations`].
    pub fn record_meta_cache(&self, hits: u64, misses: u64, invalidations: u64) {
        self.control
            .stats
            .record_meta_cache(hits, misses, invalidations);
    }

    /// Observability hook for write-through cache fills (see
    /// [`ExecStats::meta_cache_write_fills`]).
    pub fn record_meta_cache_write_fills(&self, fills: u64) {
        self.control.stats.record_meta_cache_write_fills(fills);
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
        self.shard_for(object)
            .lock()
            .store
            .contains(primary.0, object)
    }

    /// Object metadata from the primary.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the object is absent.
    pub fn stat(&self, object: &str) -> Result<crate::object::ObjectStat> {
        self.shard_for(object).lock().stat(&self.control, object)
    }

    /// All object names (sorted), from every OSD's primary view.
    #[must_use]
    pub fn list_objects(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            names.extend(shard.lock().store.names());
        }
        names.sort_unstable();
        names
    }

    /// The installed resource handles (for plan construction by upper
    /// layers, e.g. client-side crypto cost).
    #[must_use]
    pub fn resources(&self) -> ResourceHandles {
        self.control.handles.clone()
    }

    /// The testbed profile in effect.
    #[must_use]
    pub fn testbed_profile(&self) -> TestbedProfile {
        self.control.testbed.clone()
    }

    /// Convenience: a plan occupying the client crypto workers for
    /// `bytes` of encryption/decryption work.
    #[must_use]
    pub fn crypto_plan(&self, bytes: u64) -> Plan {
        Plan::op(self.control.handles.client_crypto, bytes)
    }

    /// A crypto plan whose `bytes` of work are split over `lanes`
    /// near-equal parallel chunks — the cost shape of the encryption
    /// layer running one sector-crypto job per lane. Degenerates to
    /// [`Cluster::crypto_plan`] at one lane (or when the split would
    /// produce empty chunks).
    #[must_use]
    pub fn crypto_plan_parallel(&self, bytes: u64, lanes: usize) -> Plan {
        if lanes <= 1 || bytes < lanes as u64 {
            return self.crypto_plan(bytes);
        }
        let lanes = lanes as u64;
        let chunk = bytes / lanes;
        let remainder = bytes % lanes;
        Plan::par((0..lanes).map(|lane| {
            let extra = u64::from(lane < remainder);
            Plan::op(self.control.handles.client_crypto, chunk + extra)
        }))
    }

    /// Runs pre-built plans in a closed loop (fio-style, fixed queue
    /// depth) against this cluster's simulated hardware.
    #[must_use]
    pub fn run_closed_loop(&self, queue_depth: usize, plans: Vec<(Plan, u64)>) -> ClosedLoopStats {
        let mut sim = self.sim.lock().unwrap_or_else(PoisonError::into_inner);
        let total = plans.len() as u64;
        let mut plans = plans.into_iter();
        sim.run_closed_loop(queue_depth, total, move |_| {
            // vdisk-lint: allow(hot-path-panic) reason="total was computed as plans.len(), so the sim requests exactly that many"
            plans.next().expect("plan count matches total_ops")
        })
    }

    /// Per-resource utilization of the last closed-loop run.
    #[must_use]
    pub fn utilization_report(&self) -> Vec<vdisk_sim::ResourceUsage> {
        self.sim
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .utilization_report()
    }

    /// Verifies that all replicas of all objects agree (like Ceph's
    /// deep scrub).
    #[must_use]
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for shard in self.shards.iter() {
            let guard = shard.lock();
            for name in guard.store.names() {
                report.objects_checked += 1;
                let acting = self.control.placement.acting_set(&name);
                let prints: Vec<Option<u64>> = acting
                    .iter()
                    .map(|osd| guard.store.get(osd.0, &name).map(|o| o.head.fingerprint()))
                    .collect();
                let Some(first) = prints.first() else {
                    continue;
                };
                if prints.iter().any(|p| p != first) {
                    report.divergent.push(name);
                }
            }
        }
        report.divergent.sort_unstable();
        report
    }

    /// Fault injection: silently corrupts one byte on a **non-primary**
    /// replica (as a failing disk or torn replication would). Scrub
    /// must detect it; [`Cluster::repair`] must fix it.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if `replica_index` is 0
    /// (the primary) or out of range, or [`RadosError::NoSuchObject`]
    /// if that replica holds no such object.
    pub fn damage_replica(&self, object: &str, replica_index: usize, offset: usize) -> Result<()> {
        let acting = self.control.placement.acting_set(object);
        if replica_index == 0 || replica_index >= acting.len() {
            return Err(RadosError::InvalidArgument(format!(
                "replica_index {replica_index} out of range (1..{})",
                acting.len()
            )));
        }
        // vdisk-lint: allow(hot-path-index) reason="replica_index was range-checked against acting.len() just above"
        let osd = acting[replica_index];
        let mut shard = self.shard_for(object).lock();
        let obj = shard
            .store
            .get_mut(osd.0, object)
            .ok_or_else(|| RadosError::NoSuchObject(object.to_string()))?;
        obj.head.poke(offset, 0xFF);
        // Make the corruption durable too, so a reopened cluster still
        // sees (and can scrub) the damaged replica.
        shard.store.persist(object, std::slice::from_ref(&osd))?;
        Ok(())
    }

    /// Repairs an object by re-replicating the primary's copy (Ceph's
    /// `pg repair` policy: the primary is authoritative).
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the primary holds no
    /// such object.
    pub fn repair(&self, object: &str) -> Result<()> {
        let acting = self.control.placement.acting_set(object);
        let mut shard = self.shard_for(object).lock();
        let primary_copy = shard
            .store
            // vdisk-lint: allow(hot-path-index) reason="acting_set always places at least the primary; an empty acting set is unconstructible"
            .get(acting[0].0, object)
            .cloned()
            .ok_or_else(|| RadosError::NoSuchObject(object.to_string()))?;
        // vdisk-lint: allow(hot-path-index) reason="acting is non-empty (primary copy was just read), so the [1..] slice is in range"
        for osd in &acting[1..] {
            shard.store.insert(osd.0, object, primary_copy.clone());
        }
        // vdisk-lint: allow(hot-path-index) reason="acting is non-empty (primary copy was just read), so the [1..] slice is in range"
        shard.store.persist(object, &acting[1..])?;
        Ok(())
    }

    /// Test-only: whether a specific OSD holds a copy of `object`.
    #[cfg(test)]
    fn osd_holds(&self, osd: usize, object: &str) -> bool {
        self.shard_for(object).lock().store.contains(osd, object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::builder().build()
    }

    #[test]
    fn write_then_read_round_trips() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(100, b"hello world".to_vec());
        c.execute(tx).unwrap();
        let (results, plan) = c
            .read(
                "obj",
                None,
                &[ReadOp::Read {
                    offset: 100,
                    len: 11,
                }],
            )
            .unwrap();
        assert_eq!(results[0].as_data(), b"hello world");
        assert!(plan.op_count() > 0);
    }

    #[test]
    fn try_build_rejects_zero_osd_count() {
        let err = Cluster::builder().osd_count(0).try_build().unwrap_err();
        assert_eq!(
            err,
            RadosError::InvalidConfig("osd_count must be at least 1".into())
        );
    }

    #[test]
    fn try_build_rejects_zero_replicas() {
        let err = Cluster::builder().replicas(0).try_build().unwrap_err();
        assert_eq!(
            err,
            RadosError::InvalidConfig("replicas must be at least 1".into())
        );
    }

    #[test]
    fn try_build_rejects_zero_pg_count() {
        let err = Cluster::builder().pg_count(0).try_build().unwrap_err();
        assert_eq!(
            err,
            RadosError::InvalidConfig("pg_count must be at least 1".into())
        );
    }

    #[test]
    fn try_build_rejects_zero_shard_count() {
        let err = Cluster::builder().shard_count(0).try_build().unwrap_err();
        assert_eq!(
            err,
            RadosError::InvalidConfig("shard_count must be at least 1".into())
        );
    }

    #[test]
    fn try_build_rejects_zero_crypto_lanes() {
        let err = Cluster::builder().crypto_lanes(0).try_build().unwrap_err();
        assert_eq!(
            err,
            RadosError::InvalidConfig("crypto_lanes must be at least 1".into())
        );
    }

    #[test]
    fn try_build_rejects_replicas_exceeding_osds() {
        let err = Cluster::builder()
            .osd_count(2)
            .replicas(3)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(&err, RadosError::InvalidConfig(msg) if msg.contains("cannot exceed")),
            "unexpected error: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid cluster configuration")]
    fn build_panics_on_invalid_knobs() {
        let _ = Cluster::builder().shard_count(0).build();
    }

    #[test]
    fn reads_of_missing_objects_fail() {
        let c = cluster();
        assert_eq!(
            c.read("ghost", None, &[ReadOp::Stat]).unwrap_err(),
            RadosError::NoSuchObject("ghost".into())
        );
    }

    #[test]
    fn transaction_is_atomic_on_validation_failure() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, b"data".to_vec());
        tx.omap_set(vec![(Vec::new(), b"bad-key".to_vec())]); // invalid
        assert!(matches!(c.execute(tx), Err(RadosError::InvalidArgument(_))));
        assert!(
            !c.object_exists("obj"),
            "no partial state may survive a rejected transaction"
        );
    }

    #[test]
    fn omap_set_and_range() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1]);
        tx.omap_set(vec![
            (b"iv.0001".to_vec(), vec![0x11; 16]),
            (b"iv.0000".to_vec(), vec![0x22; 16]),
        ]);
        c.execute(tx).unwrap();
        let (results, _) = c
            .read(
                "obj",
                None,
                &[ReadOp::OmapGetRange {
                    start: b"iv.".to_vec(),
                    end: b"iv.\xff".to_vec(),
                }],
            )
            .unwrap();
        let entries = results[0].as_omap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, b"iv.0000");
    }

    #[test]
    fn snapshots_preserve_history() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, b"v1".to_vec());
        c.execute(tx).unwrap();
        let snap1 = c.create_snap();
        let mut tx = Transaction::new("obj");
        tx.write(0, b"v2".to_vec());
        c.execute(tx).unwrap();

        let (head, _) = c
            .read("obj", None, &[ReadOp::Read { offset: 0, len: 2 }])
            .unwrap();
        let (old, _) = c
            .read("obj", Some(snap1), &[ReadOp::Read { offset: 0, len: 2 }])
            .unwrap();
        assert_eq!(head[0].as_data(), b"v2");
        assert_eq!(old[0].as_data(), b"v1");
    }

    #[test]
    fn snapshot_before_birth_is_absent() {
        let c = cluster();
        let snap = c.create_snap();
        let mut tx = Transaction::new("newborn");
        tx.write(0, b"x".to_vec());
        c.execute(tx).unwrap();
        assert!(matches!(
            c.read("newborn", Some(snap), &[ReadOp::Stat]),
            Err(RadosError::NoSuchSnapshot { .. })
        ));
    }

    #[test]
    fn omap_survives_snapshots_with_cow() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1]);
        tx.omap_set(vec![(b"k".to_vec(), b"old".to_vec())]);
        c.execute(tx).unwrap();
        let snap = c.create_snap();
        let mut tx = Transaction::new("obj");
        tx.omap_set(vec![(b"k".to_vec(), b"new".to_vec())]);
        c.execute(tx).unwrap();

        let (head, _) = c
            .read("obj", None, &[ReadOp::OmapGetKeys(vec![b"k".to_vec()])])
            .unwrap();
        let (old, _) = c
            .read(
                "obj",
                Some(snap),
                &[ReadOp::OmapGetKeys(vec![b"k".to_vec()])],
            )
            .unwrap();
        assert_eq!(head[0].as_omap()[0].1, b"new");
        assert_eq!(old[0].as_omap()[0].1, b"old", "OMAP must be COW'd too");
    }

    #[test]
    fn scrub_detects_and_repair_fixes_divergence() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![0xAB; 1024]);
        c.execute(tx).unwrap();
        assert!(c.scrub().is_clean());

        c.damage_replica("obj", 1, 10).unwrap();
        let report = c.scrub();
        assert_eq!(report.divergent, vec!["obj".to_string()]);

        c.repair("obj").unwrap();
        assert!(c.scrub().is_clean());
    }

    #[test]
    fn damage_primary_is_rejected() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1]);
        c.execute(tx).unwrap();
        assert!(c.damage_replica("obj", 0, 0).is_err());
        assert!(c.damage_replica("obj", 9, 0).is_err());
    }

    #[test]
    fn delete_removes_everywhere() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1]);
        c.execute(tx).unwrap();
        assert!(c.object_exists("obj"));
        let mut tx = Transaction::new("obj");
        tx.delete();
        c.execute(tx).unwrap();
        assert!(!c.object_exists("obj"));
        assert_eq!(c.list_objects().len(), 0);
    }

    #[test]
    fn xattrs_round_trip() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![0]);
        tx.set_xattr("rbd.size", 4096u64.to_le_bytes().to_vec());
        c.execute(tx).unwrap();
        let (results, _) = c
            .read("obj", None, &[ReadOp::GetXattr("rbd.size".into())])
            .unwrap();
        assert_eq!(
            results[0],
            ReadResult::Xattr(Some(4096u64.to_le_bytes().to_vec()))
        );
        let (results, _) = c
            .read("obj", None, &[ReadOp::GetXattr("missing".into())])
            .unwrap();
        assert_eq!(results[0], ReadResult::Xattr(None));
    }

    #[test]
    fn discarded_payload_mode_keeps_sizes() {
        let c = Cluster::builder()
            .payload_mode(PayloadMode::Discarded)
            .build();
        let mut tx = Transaction::new("obj");
        tx.write(4096, vec![7; 4096]);
        c.execute(tx).unwrap();
        assert_eq!(c.stat("obj").unwrap().size, 8192);
        let (results, _) = c
            .read(
                "obj",
                None,
                &[ReadOp::Read {
                    offset: 4096,
                    len: 4096,
                }],
            )
            .unwrap();
        assert_eq!(results[0].as_data(), &vec![0u8; 4096][..], "payload gone");
    }

    #[test]
    fn closed_loop_runs_plans() {
        let c = cluster();
        let mut plans = Vec::new();
        for i in 0..64 {
            let mut tx = Transaction::new(format!("obj{i}"));
            tx.write(0, vec![0u8; 4096]);
            plans.push((c.execute(tx).unwrap(), 4096));
        }
        let stats = c.run_closed_loop(8, plans);
        assert_eq!(stats.ops, 64);
        assert!(stats.bandwidth_mb_s() > 0.0);
        let report = c.utilization_report();
        assert!(report.iter().any(|r| r.ops > 0));
    }

    #[test]
    fn replicas_actually_hold_copies() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, b"replicated".to_vec());
        c.execute(tx).unwrap();
        // All three OSDs hold the object (3-way replication on 3 OSDs).
        for osd in 0..3 {
            assert!(c.osd_holds(osd, "obj"), "osd {osd} missing the object");
        }
    }

    #[test]
    fn execute_batch_applies_all_and_fans_out() {
        let c = cluster();
        let txs: Vec<Transaction> = (0..4)
            .map(|i| {
                let mut tx = Transaction::new(format!("obj{i}"));
                tx.write(0, vec![i as u8; 4096]);
                tx
            })
            .collect();
        let plan = c.execute_batch(txs).unwrap();
        match &plan {
            Plan::Par(children) => assert_eq!(children.len(), 4),
            other => panic!("batch dispatch must be parallel, got {other:?}"),
        }
        for i in 0..4 {
            assert!(c.object_exists(&format!("obj{i}")));
        }
        let stats = c.exec_stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.transactions, 4);
        assert!(
            stats.shard_fanout_max >= 1,
            "fanout counter must have recorded the batch"
        );
    }

    #[test]
    fn multi_shard_batch_records_fanout() {
        // Force the threaded path so it is exercised on any host.
        let c = Cluster::builder().concurrent_apply(true).build();
        // Enough distinct objects that, with 8 shards over 128 PGs,
        // at least two shards are touched (deterministic placement).
        let txs: Vec<Transaction> = (0..16)
            .map(|i| {
                let mut tx = Transaction::new(format!("spread{i}"));
                tx.write(0, vec![1u8; 512]);
                tx
            })
            .collect();
        c.execute_batch(txs).unwrap();
        let stats = c.exec_stats();
        assert!(
            stats.shard_fanout_max >= 2,
            "16 distinct objects must fan out over >= 2 shards, got {}",
            stats.shard_fanout_max
        );
        assert!(stats.shard_concurrency_peak >= 1);
        assert!(stats.shard_concurrency_peak <= c.shard_count() as u64);
    }

    #[test]
    fn single_shard_cluster_still_serves_batches() {
        let c = Cluster::builder().shard_count(1).build();
        let txs: Vec<Transaction> = (0..4)
            .map(|i| {
                let mut tx = Transaction::new(format!("obj{i}"));
                tx.write(0, vec![i as u8; 1024]);
                tx
            })
            .collect();
        let plan = c.execute_batch(txs).unwrap();
        assert!(matches!(&plan, Plan::Par(children) if children.len() == 4));
        assert_eq!(c.exec_stats().shard_fanout_max, 1);
        for i in 0..4 {
            assert!(c.object_exists(&format!("obj{i}")));
        }
    }

    #[test]
    fn execute_batch_is_all_or_nothing_across_transactions() {
        let c = cluster();
        let mut good = Transaction::new("good");
        good.write(0, vec![1; 16]);
        let mut bad = Transaction::new("bad");
        bad.write(0, Vec::new()); // invalid: empty write
        assert!(matches!(
            c.execute_batch(vec![good, bad]),
            Err(RadosError::InvalidArgument(_))
        ));
        assert!(
            !c.object_exists("good"),
            "a bad transaction must reject the whole batch before any applies"
        );
        assert_eq!(c.exec_stats().transactions, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let c = cluster();
        assert_eq!(c.execute_batch(Vec::new()).unwrap(), Plan::Noop);
    }

    #[test]
    fn read_batch_zero_fills_missing_objects() {
        let c = cluster();
        let mut tx = Transaction::new("present");
        tx.write(0, b"here".to_vec());
        c.execute(tx).unwrap();
        let (results, plan) = c
            .read_batch(
                None,
                vec![
                    ObjectReads::new("present", vec![ReadOp::Read { offset: 0, len: 4 }]),
                    ObjectReads::new("ghost", vec![ReadOp::Read { offset: 0, len: 4 }]),
                ],
            )
            .unwrap();
        assert_eq!(results[0].as_ref().unwrap()[0].as_data(), b"here");
        assert!(results[1].is_none(), "missing object reads as a hole");
        assert!(plan.op_count() > 0);
        assert_eq!(c.exec_stats().read_ops, 2);
    }

    #[test]
    fn read_batch_charges_a_round_trip_per_miss() {
        let c = cluster();
        let mut tx = Transaction::new("present");
        tx.write(0, vec![1u8; 4096]);
        c.execute(tx).unwrap();
        let (_, plan) = c
            .read_batch(
                None,
                vec![
                    ObjectReads::new(
                        "present",
                        vec![ReadOp::Read {
                            offset: 0,
                            len: 4096,
                        }],
                    ),
                    ObjectReads::new(
                        "ghost-a",
                        vec![ReadOp::Read {
                            offset: 0,
                            len: 4096,
                        }],
                    ),
                    ObjectReads::new("ghost-b", vec![ReadOp::Stat]),
                ],
            )
            .unwrap();
        // One plan child per request, misses included.
        match &plan {
            Plan::Par(children) => {
                assert_eq!(children.len(), 3, "sparse misses must keep their cost slot")
            }
            other => panic!("expected parallel dispatch, got {other:?}"),
        }
        // The miss children still move request/response headers but no
        // disk bytes: total op bytes exceed a lone present read's.
        let (_, lone) = c
            .read_batch(
                None,
                vec![ObjectReads::new(
                    "present",
                    vec![ReadOp::Read {
                        offset: 0,
                        len: 4096,
                    }],
                )],
            )
            .unwrap();
        assert!(plan.total_op_bytes() > lone.total_op_bytes());
        // And a miss costs no disk op on any OSD.
        let handles = c.resources();
        let (_, miss_only) = c
            .read_batch(None, vec![ObjectReads::new("ghost-c", vec![ReadOp::Stat])])
            .unwrap();
        for disk in &handles.osd_disk {
            assert_eq!(
                miss_only.op_count_on(*disk),
                0,
                "a miss must not touch disk"
            );
        }
        assert!(miss_only.op_count() > 0, "a miss still makes a round trip");
    }

    #[test]
    fn zero_length_read_extent_charges_no_disk_block() {
        let c = cluster();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![7u8; 4096]);
        c.execute(tx).unwrap();
        let handles = c.resources();
        let (results, plan) = c
            .read("obj", None, &[ReadOp::Read { offset: 0, len: 0 }])
            .unwrap();
        assert!(results[0].as_data().is_empty());
        for disk in &handles.osd_disk {
            assert_eq!(
                plan.op_count_on(*disk),
                0,
                "an empty extent must not be charged a whole block"
            );
        }
    }

    #[test]
    fn batched_and_single_execution_leave_identical_state() {
        let build = |batched: bool| {
            let c = cluster();
            let txs: Vec<Transaction> = (0..3)
                .map(|i| {
                    let mut tx = Transaction::new(format!("obj{i}"));
                    tx.write(i * 512, vec![0xC0 + i as u8; 2048]);
                    tx.omap_set(vec![(vec![i as u8 + 1], vec![0xEE; 16])]);
                    tx
                })
                .collect();
            if batched {
                c.execute_batch(txs).unwrap();
            } else {
                for tx in txs {
                    c.execute(tx).unwrap();
                }
            }
            c
        };
        let (single, batched) = (build(false), build(true));
        for i in 0..3 {
            let name = format!("obj{i}");
            let ops = [
                ReadOp::Read {
                    offset: 0,
                    len: 4096,
                },
                ReadOp::OmapGetRange {
                    start: vec![],
                    end: vec![0xFF],
                },
            ];
            let (a, _) = single.read(&name, None, &ops).unwrap();
            let (b, _) = batched.read(&name, None, &ops).unwrap();
            assert_eq!(a, b, "object {name} diverged between paths");
        }
    }

    #[test]
    fn async_submissions_overlap_and_record_queue_depth() {
        let c = Cluster::builder().concurrent_apply(true).build();
        let mut tickets = Vec::new();
        for i in 0..8u8 {
            let mut tx = Transaction::new(format!("qd{i}"));
            tx.write(0, vec![i + 1; 2048]);
            tickets.push(c.submit_batch(vec![tx]).unwrap());
        }
        // All eight submissions are open before any is reaped:
        // deterministic, client-side-bracketed queue depth.
        assert_eq!(c.exec_stats().queue_depth_peak, 8);
        for ticket in tickets {
            let delta = ticket.stats_delta();
            assert_eq!(delta.transactions, 1);
            assert_eq!(delta.batches, 1);
            assert_eq!(delta.shard_fanout_max, 1);
            assert!(ticket.wait().unwrap().op_count() > 0);
        }
        for i in 0..8 {
            assert!(c.object_exists(&format!("qd{i}")));
        }
    }

    #[test]
    fn queued_ops_on_one_object_apply_in_submission_order() {
        let c = Cluster::builder().concurrent_apply(true).build();
        // 32 overlapping writes to one object, all in flight at once.
        let tickets: Vec<_> = (0..32u8)
            .map(|round| {
                let mut tx = Transaction::new("hot");
                tx.write(0, vec![round; 4096]);
                c.submit_batch(vec![tx]).unwrap()
            })
            .collect();
        // A read submitted after them rides the same shard FIFO, so it
        // must observe exactly the last write — while everything is
        // still in flight.
        let read = c.submit_read_batch(
            None,
            vec![ObjectReads::new(
                "hot",
                vec![ReadOp::Read {
                    offset: 0,
                    len: 4096,
                }],
            )],
        );
        let (results, _) = read.wait().unwrap();
        let data = results[0].as_ref().unwrap()[0].as_data();
        assert!(
            data.iter().all(|&b| b == 31),
            "a queued read must see every previously submitted write"
        );
        // Reaping after the read is fine; order of reaping is free.
        for ticket in tickets {
            let _ = ticket.wait();
        }
    }

    #[test]
    fn multi_shard_submission_registers_fanout_as_concurrency() {
        let c = Cluster::builder().concurrent_apply(true).build();
        let txs: Vec<Transaction> = (0..16)
            .map(|i| {
                let mut tx = Transaction::new(format!("spread{i}"));
                tx.write(0, vec![1u8; 512]);
                tx
            })
            .collect();
        let ticket = c.submit_batch(txs).unwrap();
        let fanout = ticket.stats_delta().shard_fanout_max;
        assert!(fanout >= 2, "16 objects must span >= 2 of 8 shards");
        let _ = ticket.wait();
        // Every touched shard is admitted before any job runs, so a
        // single submission's fanout registers as concurrency
        // deterministically — even on a single-core host.
        let stats = c.exec_stats();
        assert!(stats.shard_concurrency_peak >= fanout);
        assert!(stats.shard_concurrency_peak <= c.shard_count() as u64);
    }

    #[test]
    fn inline_mode_serves_submissions_synchronously() {
        let c = Cluster::builder().concurrent_apply(false).build();
        assert!(!c.workers_enabled());
        let mut tx = Transaction::new("inline");
        tx.write(0, vec![7u8; 1024]);
        let ticket = c.submit_batch(vec![tx]).unwrap();
        assert!(ticket.is_complete(), "inline submissions apply at submit");
        assert!(ticket.wait().unwrap().op_count() > 0);
        let read = c.submit_read_batch(
            None,
            vec![ObjectReads::new(
                "inline",
                vec![ReadOp::Read {
                    offset: 0,
                    len: 1024,
                }],
            )],
        );
        assert!(read.is_complete());
        let (results, _) = read.wait().unwrap();
        assert_eq!(results[0].as_ref().unwrap()[0].as_data(), &[7u8; 1024][..]);
    }

    #[test]
    fn abandoned_tickets_still_apply_and_release_depth() {
        let c = Cluster::builder().concurrent_apply(true).build();
        let mut tx = Transaction::new("fire-and-forget");
        tx.write(0, vec![1u8; 512]);
        let ticket = c.submit_batch(vec![tx]).unwrap();
        drop(ticket);
        // The write still lands (drain via a queued read).
        let (results, _) = c
            .read(
                "fire-and-forget",
                None,
                &[ReadOp::Read {
                    offset: 0,
                    len: 512,
                }],
            )
            .unwrap();
        assert_eq!(results[0].as_data(), &[1u8; 512][..]);
    }

    #[test]
    fn flush_drains_abandoned_submissions() {
        let c = Cluster::builder().concurrent_apply(true).build();
        for i in 0..16u8 {
            let mut tx = Transaction::new(format!("flush{i}"));
            tx.write(0, vec![i + 1; 1024]);
            drop(c.submit_batch(vec![tx]).unwrap());
        }
        c.flush();
        // Direct state inspection is safe after the barrier.
        assert_eq!(c.list_objects().len(), 16);
    }

    #[test]
    fn write_submissions_bump_touched_shard_epochs() {
        let c = cluster();
        let before: Vec<u64> = (0..c.shard_count()).map(|s| c.shard_write_seq(s)).collect();
        let mut tx = Transaction::new("epoch-obj");
        tx.write(0, vec![1u8; 512]);
        let shard = c.placement_shard("epoch-obj");
        c.execute(tx).unwrap();
        assert_eq!(
            c.shard_write_seq(shard),
            before[shard] + 1,
            "the touched shard's epoch advances exactly once per submission"
        );
        for (s, &seq) in before.iter().enumerate() {
            if s != shard {
                assert_eq!(c.shard_write_seq(s), seq, "untouched shard {s} moved");
            }
        }
        // Reads leave every epoch alone.
        c.read("epoch-obj", None, &[ReadOp::Stat]).unwrap();
        assert_eq!(c.shard_write_seq(shard), before[shard] + 1);
    }

    #[test]
    fn multi_shard_batch_bumps_each_touched_shard_once() {
        let c = cluster();
        let txs: Vec<Transaction> = (0..16)
            .map(|i| {
                let mut tx = Transaction::new(format!("epoch{i}"));
                tx.write(0, vec![1u8; 64]);
                tx
            })
            .collect();
        let mut expected = vec![0u64; c.shard_count()];
        for tx in &txs {
            expected[c.placement_shard(&tx.object)] = 1;
        }
        c.execute_batch(txs).unwrap();
        for (s, &bump) in expected.iter().enumerate() {
            assert_eq!(
                c.shard_write_seq(s),
                bump,
                "shard {s}: one bump per touched shard, none otherwise"
            );
        }
    }

    #[test]
    fn epoch_bumps_before_a_concurrent_submissions_jobs_apply() {
        // The contract client caches rely on: once a submission's
        // ticket exists, every touched shard's epoch has advanced —
        // even while the jobs are still queued behind workers.
        let c = Cluster::builder().concurrent_apply(true).build();
        let mut tx = Transaction::new("inflight");
        tx.write(0, vec![9u8; 1 << 20]);
        let shard = c.placement_shard("inflight");
        let ticket = c.submit_batch(vec![tx]).unwrap();
        assert_eq!(c.shard_write_seq(shard), 1);
        let _ = ticket.wait();
        assert_eq!(c.shard_write_seq(shard), 1, "apply itself adds nothing");
    }

    #[test]
    fn snapshots_bump_every_shard_epoch() {
        let c = cluster();
        let before: Vec<u64> = (0..c.shard_count()).map(|s| c.shard_write_seq(s)).collect();
        c.create_snap();
        for (s, &seq) in before.iter().enumerate() {
            assert_eq!(c.shard_write_seq(s), seq + 1, "shard {s}");
        }
    }

    #[test]
    fn meta_cache_counters_accumulate_via_the_hook() {
        let c = cluster();
        assert_eq!(c.meta_cache_bytes(), DEFAULT_META_CACHE_BYTES);
        c.record_meta_cache(3, 2, 1);
        c.record_meta_cache(0, 0, 0);
        let stats = c.exec_stats();
        assert_eq!(stats.meta_cache_hits, 3);
        assert_eq!(stats.meta_cache_misses, 2);
        assert_eq!(stats.meta_cache_invalidations, 1);
        let off = Cluster::builder().meta_cache_bytes(0).build();
        assert_eq!(off.meta_cache_bytes(), 0);
    }

    #[test]
    fn compare_xattr_gates_the_whole_transaction() {
        let c = cluster();
        let mut tx = Transaction::new("hdr");
        tx.compare_xattr("gen", None); // object absent: precondition holds
        tx.write(0, b"v1".to_vec());
        tx.set_xattr("gen", 1u64.to_le_bytes().to_vec());
        c.execute(tx).unwrap();

        // Stale writer: read gen 0 (absent), loses to the update above.
        let mut stale = Transaction::new("hdr");
        stale.compare_xattr("gen", None);
        stale.write(0, b"stale".to_vec());
        assert!(matches!(
            c.execute(stale),
            Err(RadosError::CompareFailed { .. })
        ));
        let (results, _) = c
            .read("hdr", None, &[ReadOp::Read { offset: 0, len: 2 }])
            .unwrap();
        assert_eq!(results[0].as_data(), b"v1", "failed CAS must apply nothing");

        // Fresh writer: expects gen 1, wins.
        let mut fresh = Transaction::new("hdr");
        fresh.compare_xattr("gen", Some(1u64.to_le_bytes().to_vec()));
        fresh.write(0, b"v2".to_vec());
        fresh.set_xattr("gen", 2u64.to_le_bytes().to_vec());
        c.execute(fresh).unwrap();
        let (results, _) = c
            .read("hdr", None, &[ReadOp::Read { offset: 0, len: 2 }])
            .unwrap();
        assert_eq!(results[0].as_data(), b"v2");
    }

    #[test]
    fn compare_xattr_failure_skips_only_its_transaction_in_a_batch() {
        let c = cluster();
        let mut guarded = Transaction::new("guarded");
        guarded.compare_xattr("v", Some(b"nope".to_vec()));
        guarded.write(0, vec![1; 16]);
        let mut plain = Transaction::new("plain");
        plain.write(0, vec![2; 16]);
        assert!(matches!(
            c.execute_batch(vec![guarded, plain]),
            Err(RadosError::CompareFailed { .. })
        ));
        assert!(!c.object_exists("guarded"), "guarded tx applied nothing");
        assert!(
            c.object_exists("plain"),
            "dynamic preconditions are per-transaction, not per-batch"
        );
    }

    #[test]
    fn compare_xattr_works_through_the_queued_path() {
        let c = Cluster::builder().concurrent_apply(true).build();
        let mut tx = Transaction::new("hdr");
        tx.compare_xattr("gen", None);
        tx.set_xattr("gen", b"1".to_vec());
        tx.write(0, b"x".to_vec());
        let ticket = c.submit_batch(vec![tx]).unwrap();
        ticket.wait().unwrap();
        let mut stale = Transaction::new("hdr");
        stale.compare_xattr("gen", None);
        stale.write(0, b"y".to_vec());
        let ticket = c.submit_batch(vec![stale]).unwrap();
        assert!(matches!(
            ticket.wait(),
            Err(RadosError::CompareFailed { .. })
        ));
    }

    #[test]
    fn snap_ids_are_monotonic() {
        let c = cluster();
        let a = c.create_snap();
        let b = c.create_snap();
        assert!(b > a);
        assert_eq!(c.snap_seq(), b);
    }
}
