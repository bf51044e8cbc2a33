//! The rig a window measures: a cluster with every host-derived knob
//! pinned, an image, and (for the encrypted workloads) the formatted
//! disk on top. Also the one queue vocabulary the closed loop drives,
//! implemented for each layer's public queue.

use crate::host;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vdisk_core::runtime::ArbitratedQueue;
use vdisk_core::{EncryptedImage, EncryptedIoQueue, EncryptionConfig, TenantQueue};
use vdisk_rados::{
    ApplyTicket, BackendKind, Cluster, ObjectReads, PayloadMode, ReadOp, ReadTicket, RetryPolicy,
    Transaction,
};
use vdisk_rbd::{Completion, Image, IoOp, IoPayload, IoQueue, IoResult};

/// Object size of every image the benchmark creates (the RBD default).
pub const OBJECT_BYTES: u64 = 4 << 20;
/// OSDs and replicas of every cluster.
pub const REPLICAS: usize = 3;
/// State shards. The default; 2 shards spread 13 % run to run on this
/// class of host where 8 repeat within 0.6 %.
pub const SHARDS: usize = 8;
/// Encryption lanes. Pinned: the library default follows
/// `available_parallelism()`, which two runs need not agree on.
pub const LANES: usize = 2;
/// Passphrase of every encrypted image.
pub const PASSPHRASE: &[u8] = b"wallbench passphrase";
const IMAGE_NAME: &str = "wallbench";

/// A cluster with the pinned configuration. `workers` is
/// `concurrent_apply`: `false` only for the inline ladder rung.
///
/// # Errors
///
/// Fails if the cluster cannot be built, or if it came up without
/// shard workers when they were asked for: a run that would measure
/// inline apply aborts instead of reporting.
pub fn build_cluster(
    backend: BackendKind,
    meta_cache_bytes: Option<u64>,
    workers: bool,
    lanes: usize,
) -> Result<Cluster, String> {
    let mut builder = Cluster::builder()
        .osd_count(REPLICAS)
        .replicas(REPLICAS)
        .shard_count(SHARDS)
        .concurrent_apply(workers)
        .crypto_lanes(lanes)
        .payload_mode(PayloadMode::Stored)
        .retry_policy(RetryPolicy::default())
        .backend(backend);
    if let Some(bytes) = meta_cache_bytes {
        builder = builder.meta_cache_bytes(bytes);
    }
    let cluster = builder.try_build().map_err(|e| format!("cluster: {e}"))?;
    if cluster.workers_enabled() != workers {
        return Err(format!(
            "cluster came up with workers_enabled = {}, the benchmark pins {workers}",
            cluster.workers_enabled()
        ));
    }
    Ok(cluster)
}

/// A file store's directory under `wallbench/out/`, removed when the
/// guard drops: on success, on an oracle failure, and on a panic
/// unwinding through the window.
#[derive(Debug)]
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// Reserves a fresh `out/store-<pid>-<n>` path.
    ///
    /// # Errors
    ///
    /// Refuses tmpfs: there `fsync` is free and the durable-commit
    /// workload would measure nothing it is here for.
    pub fn new() -> Result<StoreDir, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let out = host::out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let fs = host::fs_type(&out);
        if fs == "tmpfs" || fs == "ramfs" {
            return Err(format!(
                "{} is on {fs}; the file workload needs a filesystem where fsync costs",
                out.display()
            ));
        }
        Ok(StoreDir(out.join(format!(
            "store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the regular files under the directory.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        let mut bytes = 0;
        let mut stack = vec![self.0.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
                match entry.metadata() {
                    Ok(m) if m.is_dir() => stack.push(entry.path()),
                    Ok(m) => bytes += m.len(),
                    Err(_) => {}
                }
            }
        }
        bytes
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The file store carries state between runs through the page
        // cache: back-to-back runs over a just-deleted store drifted
        // 1.44 -> 1.53 -> 1.65 MiB/s until teardown synced.
        host::sync_filesystem(&host::out_dir());
    }
}

/// Removes `out/store-<pid>-*` left behind by a process that no
/// longer exists (a killed run). Stores of live processes are left
/// alone.
pub fn remove_stale_stores() {
    for entry in std::fs::read_dir(host::out_dir())
        .into_iter()
        .flatten()
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let owner = name
            .strip_prefix("store-")
            .and_then(|rest| rest.split('-').next());
        if let Some(pid) = owner {
            if !Path::new("/proc").join(pid).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// What the rig's queue sits on.
pub enum Disk {
    /// A plain image: `vdisk_rbd::IoQueue`.
    Raw(Image),
    /// An encrypted image: `EncryptedIoQueue`.
    Enc(Box<EncryptedImage>),
}

/// How to build a rig.
#[derive(Debug, Clone)]
pub struct RigSpec {
    /// Image size in bytes, a whole number of objects.
    pub image_bytes: u64,
    /// `Some(config)` formats the image for encryption.
    pub encryption: Option<EncryptionConfig>,
    /// `None` keeps the library's default metadata-cache budget.
    pub meta_cache_bytes: Option<u64>,
    /// Back the cluster with a `FileStore`.
    pub file_backend: bool,
    /// `concurrent_apply`.
    pub workers: bool,
    /// `crypto_lanes`.
    pub lanes: usize,
}

impl RigSpec {
    /// A memory-backed rig with the pinned knobs.
    #[must_use]
    pub fn memory(image_bytes: u64, encryption: Option<EncryptionConfig>) -> RigSpec {
        RigSpec {
            image_bytes,
            encryption,
            meta_cache_bytes: None,
            file_backend: false,
            workers: true,
            lanes: LANES,
        }
    }
}

/// Cluster, image and disk. Fields drop in declaration order: the
/// disk and cluster (joining the shard workers) before the store
/// directory is removed.
pub struct Rig {
    /// The image or encrypted disk.
    pub disk: Disk,
    /// The cluster under it.
    pub cluster: Cluster,
    /// The file store's directory, when there is one.
    pub store: Option<StoreDir>,
    spec: RigSpec,
}

impl Rig {
    /// Builds the cluster, creates the image and formats it.
    ///
    /// # Errors
    ///
    /// Any error of the layers underneath, as text.
    pub fn build(spec: &RigSpec) -> Result<Rig, String> {
        let store = spec.file_backend.then(StoreDir::new).transpose()?;
        let cluster = Self::cluster(spec, store.as_ref())?;
        let image =
            Image::create(&cluster, IMAGE_NAME, spec.image_bytes).map_err(|e| e.to_string())?;
        let disk = match &spec.encryption {
            None => Disk::Raw(image),
            Some(config) => Disk::Enc(Box::new(
                EncryptedImage::format(image, config, PASSPHRASE).map_err(|e| e.to_string())?,
            )),
        };
        Ok(Rig {
            disk,
            cluster,
            store,
            spec: spec.clone(),
        })
    }

    fn cluster(spec: &RigSpec, store: Option<&StoreDir>) -> Result<Cluster, String> {
        let backend = store.map_or(BackendKind::Memory, |s| BackendKind::File {
            dir: s.path().to_path_buf(),
        });
        build_cluster(backend, spec.meta_cache_bytes, spec.workers, spec.lanes)
    }

    /// The durability step: flush, drop every handle, build a new
    /// cluster over the same directory and open the image with the
    /// passphrase. Nothing but the directory crosses. On a memory rig
    /// there is nothing to reopen from and the rig is returned as is.
    ///
    /// # Errors
    ///
    /// Any error of the layers underneath, as text.
    pub fn reopen(self) -> Result<Rig, String> {
        if self.store.is_none() {
            return Ok(self);
        }
        let Rig {
            disk,
            cluster,
            store,
            spec,
        } = self;
        cluster.flush();
        drop(disk);
        drop(cluster);
        let cluster = Self::cluster(&spec, store.as_ref())?;
        let image = Image::open(&cluster, IMAGE_NAME).map_err(|e| e.to_string())?;
        let disk = match &spec.encryption {
            None => Disk::Raw(image),
            Some(_) => Disk::Enc(Box::new(
                EncryptedImage::open(image, PASSPHRASE).map_err(|e| e.to_string())?,
            )),
        };
        Ok(Rig {
            disk,
            cluster,
            store,
            spec,
        })
    }

    /// Runs `f` over this rig's public queue.
    pub fn with_queue<T>(&mut self, f: impl FnOnce(&mut dyn Queue) -> T) -> T {
        match &mut self.disk {
            Disk::Raw(image) => f(&mut IoQueue::new(image)),
            Disk::Enc(disk) => f(&mut disk.io_queue()),
        }
    }

    /// Bytes stored across all replicas: `Cluster::stat` sizes times
    /// the replica count on memory, file sizes on disk.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.cluster.flush();
        match &self.store {
            Some(store) => store.disk_bytes(),
            None => {
                let logical: u64 = self
                    .cluster
                    .list_objects()
                    .iter()
                    .filter_map(|o| self.cluster.stat(o).ok())
                    .map(|s| s.size)
                    .sum();
                logical * REPLICAS as u64
            }
        }
    }
}

/// The queue surface the closed loop drives, identical at every layer
/// so one loop measures them all.
pub trait Queue {
    /// Submits one op.
    ///
    /// # Errors
    ///
    /// The layer's submit error, as text.
    fn submit(&mut self, op: IoOp) -> Result<Completion, String>;
    /// Blocks until any op completes, then reaps everything finished.
    ///
    /// # Errors
    ///
    /// The layer's reap error, as text.
    fn wait_any(&mut self) -> Result<Vec<IoResult>, String>;
    /// Reaps everything in flight.
    ///
    /// # Errors
    ///
    /// The layer's reap error, as text.
    fn fence(&mut self) -> Result<Vec<IoResult>, String>;
    /// Parks the reaper has performed (0 where the layer has no
    /// reactor of its own).
    fn idle_passes(&self) -> u64 {
        0
    }
}

impl Queue for IoQueue {
    fn submit(&mut self, op: IoOp) -> Result<Completion, String> {
        IoQueue::submit(self, op).map_err(|e| e.to_string())
    }
    fn wait_any(&mut self) -> Result<Vec<IoResult>, String> {
        IoQueue::wait_any(self).map_err(|e| e.to_string())
    }
    fn fence(&mut self) -> Result<Vec<IoResult>, String> {
        IoQueue::fence(self).map_err(|e| e.to_string())
    }
    fn idle_passes(&self) -> u64 {
        IoQueue::idle_passes(self)
    }
}

impl Queue for EncryptedIoQueue<'_> {
    fn submit(&mut self, op: IoOp) -> Result<Completion, String> {
        EncryptedIoQueue::submit(self, op).map_err(|e| e.to_string())
    }
    fn wait_any(&mut self) -> Result<Vec<IoResult>, String> {
        EncryptedIoQueue::wait_any(self).map_err(|e| e.to_string())
    }
    fn fence(&mut self) -> Result<Vec<IoResult>, String> {
        EncryptedIoQueue::fence(self).map_err(|e| e.to_string())
    }
    fn idle_passes(&self) -> u64 {
        EncryptedIoQueue::idle_passes(self)
    }
}

impl<Q: ArbitratedQueue> Queue for TenantQueue<Q>
where
    Q::Error: std::fmt::Display,
{
    fn submit(&mut self, op: IoOp) -> Result<Completion, String> {
        TenantQueue::submit(self, op).map_err(|e| e.to_string())
    }
    fn wait_any(&mut self) -> Result<Vec<IoResult>, String> {
        TenantQueue::wait_any(self).map_err(|e| e.to_string())
    }
    fn fence(&mut self) -> Result<Vec<IoResult>, String> {
        TenantQueue::fence(self).map_err(|e| e.to_string())
    }
}

enum Ticket {
    Write(ApplyTicket),
    Read(ReadTicket),
}

/// `Cluster::submit_batch` / `submit_read_batch` behind the queue
/// surface: the ladder's lowest rung. Image offsets map onto objects
/// as the striper would, under names of this adapter's own; tickets
/// are waited for oldest first.
pub struct RadosQueue {
    cluster: Cluster,
    next_id: u64,
    pending: VecDeque<(u64, Ticket)>,
}

impl RadosQueue {
    /// A queue over `cluster`.
    #[must_use]
    pub fn new(cluster: &Cluster) -> RadosQueue {
        RadosQueue {
            cluster: cluster.clone(),
            next_id: 0,
            pending: VecDeque::new(),
        }
    }

    fn locate(offset: u64) -> (String, u64) {
        (
            format!("wallbench.rados.{}", offset / OBJECT_BYTES),
            offset % OBJECT_BYTES,
        )
    }

    fn reap(&mut self, id: u64, ticket: Ticket) -> Result<IoResult, String> {
        let completion = Completion::from_id(id);
        match ticket {
            Ticket::Write(t) => {
                let stats = t.stats_delta();
                Ok(IoResult {
                    completion,
                    plan: t.wait().map_err(|e| e.to_string())?,
                    payload: IoPayload::None,
                    stats,
                })
            }
            Ticket::Read(t) => {
                let stats = t.stats_delta();
                let (mut slots, plan) = t.wait().map_err(|e| e.to_string())?;
                let data = slots
                    .pop()
                    .flatten()
                    .and_then(|mut results| results.pop())
                    .map(|r| r.as_data().to_vec())
                    .ok_or_else(|| format!("rados read {id} returned no data"))?;
                Ok(IoResult {
                    completion,
                    plan,
                    payload: IoPayload::Data(data),
                    stats,
                })
            }
        }
    }
}

impl Queue for RadosQueue {
    fn submit(&mut self, op: IoOp) -> Result<Completion, String> {
        let ticket = match op {
            IoOp::Write { offset, data } => {
                let (object, at) = Self::locate(offset);
                let mut tx = Transaction::new(object);
                tx.write(at, data);
                Ticket::Write(
                    self.cluster
                        .submit_batch(vec![tx])
                        .map_err(|e| e.to_string())?,
                )
            }
            IoOp::Read { offset, len } => {
                let (object, at) = Self::locate(offset);
                let reads = ObjectReads::new(object, vec![ReadOp::Read { offset: at, len }]);
                Ticket::Read(self.cluster.submit_read_batch(None, vec![reads]))
            }
            IoOp::Writev { .. } | IoOp::Readv { .. } => {
                return Err("the rados rung takes plain reads and writes".into())
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back((id, ticket));
        Ok(Completion::from_id(id))
    }

    fn wait_any(&mut self) -> Result<Vec<IoResult>, String> {
        match self.pending.pop_front() {
            Some((id, ticket)) => Ok(vec![self.reap(id, ticket)?]),
            None => Ok(Vec::new()),
        }
    }

    fn fence(&mut self) -> Result<Vec<IoResult>, String> {
        let mut done = Vec::with_capacity(self.pending.len());
        while let Some((id, ticket)) = self.pending.pop_front() {
            done.push(self.reap(id, ticket)?);
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_store_directory_is_removed_on_drop_and_on_panic() {
        let store = StoreDir::new().expect("out/ is not tmpfs");
        let path = store.path().to_path_buf();
        std::fs::create_dir_all(path.join("shard-0")).unwrap();
        std::fs::write(path.join("shard-0/object"), [1u8; 100]).unwrap();
        assert_eq!(store.disk_bytes(), 100);
        drop(store);
        assert!(!path.exists());

        let mut seen = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let store = StoreDir::new().unwrap();
            std::fs::create_dir_all(store.path()).unwrap();
            seen = Some(store.path().to_path_buf());
            panic!("oracle mismatch");
        }));
        assert!(unwound.is_err());
        assert!(!seen.expect("the closure ran").exists());
    }

    #[test]
    fn the_pinned_knobs_are_what_the_cluster_came_up_with() {
        for workers in [true, false] {
            let cluster = build_cluster(BackendKind::Memory, None, workers, LANES).unwrap();
            assert_eq!(cluster.workers_enabled(), workers);
            assert_eq!(cluster.shard_count(), SHARDS);
            assert_eq!(cluster.crypto_lanes(), LANES);
        }
    }
}
