//! Storage backends: the seam between the transaction/read engine and
//! wherever objects actually live.
//!
//! The paper's architecture puts virtual-disk encryption *above* the
//! object store, so nothing in the client stack may depend on how the
//! store keeps its bytes. This module enforces that: the shard engine
//! ([`crate::cluster::Cluster`]'s transaction applier, read path,
//! snapshot machinery, scrub/repair) talks only to the
//! [`ObjectStore`] trait, and two backends implement it:
//!
//! - [`MemStore`] — the original in-memory simulator state
//!   (per-OSD hash maps). Zero IO; the default, and what every figure
//!   harness pins for paper fidelity.
//! - [`FileStore`] — a durable host-filesystem store: per shard, one
//!   redo log plus one directory per OSD holding one file per object
//!   (data + xattrs + OMAP in a single codec blob — see
//!   `Object::encode`). A transaction is acknowledged once its record
//!   — one record for the whole acting set — is appended to the
//!   shard's log and `fsync`ed; checkpoints fold the log into the
//!   object files (patching payload bytes in place where nothing else
//!   changed) and truncate it. The whole cluster reopens from its
//!   directory across process restarts: load the files, replay the log.
//!   `file.rs` has the protocol in full.
//!
//! The engine drives a backend in three steps per transaction: mutate
//! the working state through [`apply_ops`] (the one mutation routine,
//! shared with log replay), then [`ObjectStore::commit`] — the
//! durability point. Mutations that are not transactions (injected
//! damage, repair) go through the plain accessors and
//! [`ObjectStore::persist`].
//!
//! The **cost model is backend-independent**: plans are built from
//! extent profiles and KV receipts, never from host-IO timing, so a
//! workload replayed against both backends produces identical
//! simulated costs — the property the backend-equivalence suite
//! asserts.

mod file;
mod log;
mod mem;

pub(crate) use file::{ClusterMeta, FileStore};
pub(crate) use mem::MemStore;

use crate::object::{ExtentProfile, Object};
use crate::placement::OsdId;
use crate::transaction::{AppliedTx, SnapContext, TxOp};
use crate::Result;
use std::path::PathBuf;
use vdisk_kv::WriteReceipt;

/// Which storage backend a cluster keeps its objects in. Selected via
/// [`crate::ClusterBuilder::backend`]; defaults to [`BackendKind::Memory`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// The in-memory simulator store: per-OSD hash maps, no host IO,
    /// state dies with the process. The default, and what the figure
    /// harnesses pin so paper-fidelity runs never depend on host disks.
    #[default]
    Memory,
    /// A durable store on the host filesystem rooted at `dir`: one
    /// subdirectory per shard holding a redo log and, per OSD, one file
    /// per object; every transaction is appended to the log and
    /// `fsync`ed before it is acknowledged. Building a cluster over an
    /// existing directory reopens its contents (geometry must match
    /// what the directory was formatted with).
    File {
        /// Root directory of the store. Created (with parents) if
        /// absent; reopened if it already holds a formatted cluster.
        dir: PathBuf,
    },
}

/// One shard's object storage: everything the engine needs from a
/// backend. `osd` indices are cluster-wide OSD numbers; a shard's
/// store only ever sees the objects whose placement lands in that
/// shard (the engine guarantees it, the store need not check).
///
/// Mutating accessors ([`ObjectStore::entry`], [`ObjectStore::get_mut`],
/// [`ObjectStore::insert`], [`ObjectStore::remove`]) update the
/// backend's working state only; [`ObjectStore::commit`] is the
/// durability point a transaction must hit before acknowledging, and
/// [`ObjectStore::persist`] the one for everything else.
pub(crate) trait ObjectStore: Send {
    /// The object `name` on OSD `osd`, if present.
    fn get(&self, osd: usize, name: &str) -> Option<&Object>;

    /// Mutable access to `name` on OSD `osd` (callers commit after).
    fn get_mut(&mut self, osd: usize, name: &str) -> Option<&mut Object>;

    /// Get-or-create: the object `name` on OSD `osd`, created with the
    /// given payload mode and snapshot context if absent.
    fn entry(
        &mut self,
        osd: usize,
        name: &str,
        store_payload: bool,
        snapc: SnapContext,
    ) -> &mut Object;

    /// Inserts (or replaces) `name` on OSD `osd`.
    fn insert(&mut self, osd: usize, name: &str, object: Object);

    /// Drops `name` from OSD `osd` (no-op if absent).
    fn remove(&mut self, osd: usize, name: &str);

    /// Whether OSD `osd` holds `name`.
    fn contains(&self, osd: usize, name: &str) -> bool;

    /// Every object name this store holds, sorted and deduplicated
    /// across OSDs.
    fn names(&self) -> Vec<String>;

    /// The per-transaction durability point: `tx` has just been
    /// applied to the working state of every OSD in its acting set and
    /// must be durable before it is acknowledged. In-memory backends
    /// acknowledge immediately; [`FileStore`] appends one redo record
    /// to the shard's log and syncs it.
    ///
    /// # Errors
    ///
    /// [`crate::RadosError::Io`] when the host filesystem fails; the
    /// in-memory state is already updated then (crash semantics: the
    /// acknowledged prefix is durable, this transaction is not).
    fn commit(&mut self, tx: &AppliedTx<'_>) -> Result<()>;

    /// Persists the current working state of `name` on the given OSDs
    /// after a mutation that was *not* a transaction (fault-injection
    /// damage, repair). An OSD that no longer holds the object
    /// persists the deletion. Durable on return.
    ///
    /// # Errors
    ///
    /// [`crate::RadosError::Io`] when the host filesystem fails.
    fn persist(&mut self, name: &str, osds: &[OsdId]) -> Result<()>;

    /// A whole-store durability point (see [`crate::Cluster::flush`]):
    /// [`FileStore`] checkpoints its log into the object files.
    ///
    /// # Errors
    ///
    /// [`crate::RadosError::Io`] when the host filesystem fails.
    fn flush(&mut self) -> Result<()>;
}

/// The physical work one applied op caused on one replica — what the
/// cost model charges for. Log replay has nobody to charge and drops
/// these.
pub(crate) enum OpEffect {
    /// A payload write of `len` bytes with this disk profile.
    Write {
        /// Bytes the op carried.
        len: u64,
        /// Blocks read (RMW) and written.
        profile: ExtentProfile,
    },
    /// An OMAP batch (set or remove).
    Omap(WriteReceipt),
}

/// Applies `tx`'s ops to the replica on OSD `osd` — **the** mutation
/// routine: the shard engine runs it per acting OSD when a transaction
/// applies, and [`FileStore`] runs it again, per logged record, when a
/// store reopens. One routine means a replayed record cannot drift
/// from what the live apply did.
///
/// Creates the object if absent, takes the copy-on-write clone the
/// snapshot context calls for, applies the ops in order, and removes
/// the object if any op was a [`TxOp::Delete`]. Preconditions
/// ([`TxOp::CompareXattr`]) are the caller's to check beforehand.
pub(crate) fn apply_ops<S: ObjectStore + ?Sized>(
    store: &mut S,
    osd: usize,
    store_payload: bool,
    tx: &AppliedTx<'_>,
    mut effect: impl FnMut(OpEffect),
) {
    let object = store.entry(osd, tx.object, store_payload, tx.snapc);
    object.prepare_write(tx.snapc);
    let mut deleted = false;
    for op in tx.ops {
        match op {
            TxOp::Write { offset, data } => effect(OpEffect::Write {
                len: data.len() as u64,
                profile: object.head.write(*offset, data),
            }),
            TxOp::Truncate(size) => object.head.truncate(*size),
            TxOp::OmapSet(entries) => {
                let batch = entries
                    .iter()
                    .map(|(k, v)| (k.clone(), Some(v.clone())))
                    .collect();
                effect(OpEffect::Omap(object.head.omap.write_batch(batch)));
            }
            TxOp::OmapRemove(keys) => {
                let batch = keys.iter().map(|k| (k.clone(), None)).collect();
                effect(OpEffect::Omap(object.head.omap.write_batch(batch)));
            }
            TxOp::SetXattr(name, value) => {
                object.head.xattrs.insert(name.clone(), value.clone());
            }
            TxOp::CompareXattr { .. } => {}
            TxOp::Delete => deleted = true,
        }
    }
    if deleted {
        store.remove(osd, tx.object);
    }
}
