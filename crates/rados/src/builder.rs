//! Configuring and building a [`Cluster`]: the builder's knobs, the
//! `VDISK_BACKEND` environment selection, and the root of a file-backed
//! store (`cluster.meta`: format-or-reopen, geometry check, snapshot
//! sequence).

use crate::backend::{BackendKind, ClusterMeta, FileStore, MemStore, MAX_OSDS};
use crate::cluster::Cluster;
use crate::fault::{FaultConfig, FaultPlane, RetryPolicy};
use crate::placement::PlacementMap;
use crate::queue::Shards;
use crate::shard::Shard;
use crate::state::{ControlPlane, StatCounters};
use crate::{RadosError, Result};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How object payload bytes are kept: there is one mode, and every
/// cluster stores every byte.
///
/// The type and [`ClusterBuilder::payload_mode`] stay only because the
/// wall-clock benchmark's rig pins `PayloadMode::Stored`; ROADMAP G
/// deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadMode {
    /// Store every byte.
    #[default]
    Stored,
}

/// Default client-side metadata cache budget: 4 MiB of sector
/// metadata (256 Ki cached IV entries at 16 bytes each — enough for
/// 1 GiB of hot data at a 4 KiB sector size).
pub const DEFAULT_META_CACHE_BYTES: u64 = 4 << 20;

/// Placement groups objects hash into (what `cluster.meta` records).
const PG_COUNT: u64 = 128;

/// Configures and builds a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    osd_count: usize,
    replicas: usize,
    shard_count: usize,
    concurrent_apply: Option<bool>,
    meta_cache_bytes: u64,
    crypto_lanes: usize,
    backend: BackendKind,
    /// True when the backend came from the `VDISK_BACKEND` environment
    /// override: the store directory is session scratch, removed when
    /// the last [`Cluster`] handle drops.
    scratch: bool,
    faults: Option<FaultConfig>,
    retry: RetryPolicy,
    /// Forces the worker count past [`worker_count`]'s rule, so the
    /// tests run every geometry on every host.
    #[cfg(test)]
    forced_workers: Option<usize>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        let (backend, scratch) = backend_from_env();
        ClusterBuilder {
            osd_count: 3,
            replicas: 3,
            shard_count: 8,
            concurrent_apply: None,
            meta_cache_bytes: DEFAULT_META_CACHE_BYTES,
            crypto_lanes: 1,
            backend,
            scratch,
            faults: None,
            retry: RetryPolicy::default(),
            #[cfg(test)]
            forced_workers: None,
        }
    }
}

/// The `VDISK_BACKEND` environment override: `file` (with an optional
/// `VDISK_BACKEND_DIR` base directory) makes every
/// default-constructed builder target a fresh scratch
/// [`BackendKind::File`] directory — how the existing test suites run unmodified against the
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
    /// Number of OSD nodes (default 3, as in the paper; at most 64).
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

    /// Number of state shards batches fan out over (default 8; must be
    /// at least 1 — validated at build). `1` reproduces the old
    /// single-lock behaviour.
    #[must_use]
    pub fn shard_count(mut self, n: usize) -> Self {
        self.shard_count = n;
        self
    }

    /// Whether submissions are served by worker threads, each draining
    /// one FIFO work queue; shard `s` is served by worker `s mod W`.
    /// Defaults to auto: workers on a multi-core host, inline on a
    /// single core (worker threads cannot overlap in wall-clock there,
    /// so the queue degenerates to synchronous execution with identical
    /// semantics). `true` forces workers — the hook tests use to
    /// exercise the queued path regardless of host; `false` forces
    /// inline application at submit time (`W = 0`).
    ///
    /// With workers on, `W` follows from the backend and the host, with
    /// no knob of its own (read it back via
    /// [`Cluster::worker_threads`]):
    ///
    /// - in memory, `W = min(shard_count, max(1, cores − 1))`: one core
    ///   is left for the submitting client, and an apply that never
    ///   blocks needs no more threads than there are cores to run them
    ///   — an idle worker per shard only adds a futex wake per submit;
    /// - on the file backend, `W = shard_count`: an apply blocks in
    ///   `fdatasync`, so IO concurrency needs one thread per shard.
    #[must_use]
    pub fn concurrent_apply(mut self, enabled: bool) -> Self {
        self.concurrent_apply = Some(enabled);
        self
    }

    /// Accepts the one [`PayloadMode`] and changes nothing: every
    /// cluster stores its payload bytes. It stays for callers that
    /// still set it; ROADMAP G deletes it.
    #[must_use]
    pub fn payload_mode(self, _mode: PayloadMode) -> Self {
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

    /// A recorded crypto-lane count (default 1, must be at least 1,
    /// validated at build), read back by [`Cluster::crypto_lanes`].
    /// Nothing reads the value: the encryption layer runs its cipher on
    /// the submitting thread, and a [`crate::cost::Testbed`] takes its
    /// crypto workers from its profile. It stays for callers that still
    /// set it; ROADMAP G(4) deletes it.
    #[must_use]
    pub fn crypto_lanes(mut self, lanes: usize) -> Self {
        self.crypto_lanes = lanes;
        self
    }

    /// Selects the storage backend (default: [`BackendKind::Memory`],
    /// or whatever the `VDISK_BACKEND` environment override picked —
    /// an explicit call here always wins over the environment).
    /// [`BackendKind::File`] makes every transaction commit durable
    /// (logged and `fsync`ed) under the given directory and reopens a
    /// directory formatted by an earlier cluster, provided the geometry
    /// (`osd_count`, `replicas`, `shard_count`, and the placement-group
    /// count `cluster.meta` records) matches.
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
    /// ever injected and [`crate::ExecStats::retries`] stays zero.
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

    /// Forces the worker count to `workers` (clamped to the shard
    /// count; `0` means inline), whatever the backend and host: how the
    /// tests run `W = 1` and `W = shard_count` on every machine.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn force_workers(mut self, workers: usize) -> Self {
        self.forced_workers = Some(workers);
        self
    }

    /// Builds the cluster, validating every knob first.
    ///
    /// # Errors
    ///
    /// - [`RadosError::InvalidConfig`] if `osd_count`, `replicas`,
    ///   `shard_count` or `crypto_lanes` is zero, if `osd_count` is
    ///   above 64 or `replicas > osd_count`, or if a file backend's
    ///   directory was formatted with a different geometry.
    /// - [`RadosError::Io`] if a file backend's directory cannot be
    ///   created, read, or written.
    pub fn try_build(self) -> Result<Cluster> {
        for (knob, value) in [
            ("osd_count", self.osd_count as u64),
            ("replicas", self.replicas as u64),
            ("shard_count", self.shard_count as u64),
            ("crypto_lanes", self.crypto_lanes as u64),
        ] {
            if value == 0 {
                return Err(RadosError::InvalidConfig(format!(
                    "{knob} must be at least 1"
                )));
            }
        }
        if self.osd_count > MAX_OSDS {
            return Err(RadosError::InvalidConfig(format!(
                "osd_count ({}) cannot exceed {MAX_OSDS}",
                self.osd_count
            )));
        }
        if self.replicas > self.osd_count {
            return Err(RadosError::InvalidConfig(format!(
                "replicas ({}) cannot exceed osd_count ({})",
                self.replicas, self.osd_count
            )));
        }

        let placement = PlacementMap::new(self.osd_count, self.replicas, PG_COUNT);

        // A file backend roots itself before the shards open: the meta
        // file decides whether this is a format or a reopen, and a
        // reopen must resume the snapshot sequence.
        let (durable, initial_snap_seq) = match &self.backend {
            BackendKind::Memory => (None, 0),
            BackendKind::File { dir } => {
                let geometry = ClusterMeta {
                    osd_count: self.osd_count,
                    replicas: self.replicas,
                    pg_count: PG_COUNT,
                    shard_count: self.shard_count,
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
        let shards = (0..self.shard_count)
            .map(|s| -> Result<Shard> {
                let (store, disk) = match &self.backend {
                    BackendKind::Memory => (MemStore::default(), None),
                    BackendKind::File { dir } => {
                        let (store, disk) = FileStore::open_faulted(
                            dir.join(format!("shard-{s}")),
                            self.osd_count,
                            s,
                            faults.clone(),
                        )
                        .map_err(|e| RadosError::Io(format!("open shard {s}: {e}")))?;
                        (store, Some(disk))
                    }
                };
                Ok(Shard::new(s, store, disk))
            })
            .collect::<Result<Vec<_>>>()?;
        let workers = worker_count(
            self.concurrent_apply,
            &self.backend,
            self.shard_count,
            std::thread::available_parallelism().map_or(1, usize::from),
        );
        #[cfg(test)]
        let workers = self
            .forced_workers
            .map_or(workers, |forced| forced.min(self.shard_count));
        let control = Arc::new(ControlPlane {
            placement,
            shard_count: self.shard_count,
            meta_cache_bytes: self.meta_cache_bytes,
            crypto_lanes: self.crypto_lanes,
            snap_seq: AtomicU64::new(initial_snap_seq),
            write_seqs: (0..self.shard_count).map(|_| AtomicU64::new(0)).collect(),
            faults,
            retry: self.retry,
            stats: StatCounters::default(),
        });
        let shards = Shards::start(&control, shards, workers)
            .map_err(|e| RadosError::Io(format!("spawn shard worker: {e}")))?;
        Ok(Cluster {
            control,
            shards: Arc::new(shards),
            durable,
        })
    }
}

/// The worker-thread count `W` a cluster starts with (see
/// [`ClusterBuilder::concurrent_apply`]): `0` (inline) when workers are
/// off — forced, or auto on a single core — otherwise one worker per
/// spare core in memory and one per shard on the file backend.
pub(crate) fn worker_count(
    concurrent_apply: Option<bool>,
    backend: &BackendKind,
    shards: usize,
    cores: usize,
) -> usize {
    let spare = cores.saturating_sub(1);
    if !concurrent_apply.unwrap_or(spare > 0) {
        return 0;
    }
    match backend {
        BackendKind::Memory => shards.min(spare.max(1)),
        BackendKind::File { .. } => shards,
    }
}

/// The root of a file-backed cluster: where `cluster.meta` lives, the
/// geometry it was opened with, and whether the directory is session
/// scratch (an environment-selected store removed with the last
/// cluster handle).
pub(crate) struct DurableRoot {
    root: PathBuf,
    geometry: ClusterMeta,
    scratch: bool,
}

impl DurableRoot {
    /// Durably rewrites `cluster.meta` with the given snapshot seq.
    pub(crate) fn persist(&self, snap_seq: u64) -> std::io::Result<()> {
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
