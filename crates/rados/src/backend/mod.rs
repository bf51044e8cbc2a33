//! Where a shard's objects live: an in-memory mirror, plus an optional
//! redo-log durability half.
//!
//! The paper's architecture puts virtual-disk encryption *above* the
//! object store, so nothing in the client stack may depend on how the
//! store keeps its bytes. Every shard keeps its objects in one
//! [`MemStore`] — one hash map that serves every read, so read
//! behaviour and cost are the same whichever backend was selected. It
//! holds each object once, the agreed copy all its acting OSDs view; a
//! replica has a copy of its own only once it diverges (injected
//! damage, or replica files that disagree at open), so a transaction
//! applies once per distinct copy, not once per replica. A cluster
//! built over [`BackendKind::File`] gives each shard a [`FileStore`]
//! beside the mirror: one redo log plus one directory per OSD holding
//! one file per object (data + xattrs + OMAP in a single codec blob —
//! see `Object::encode`), three files for a three-way replicated
//! object whether or not their OSDs share a copy in memory. A
//! transaction is acknowledged once its record — one record for the
//! whole acting set — is written at the tail of the shard's log and
//! `fdatasync`ed; checkpoints fold the log into the object files
//! (patching payload bytes in place where nothing else changed) and
//! empty it, reusing the file in place at the size cap and truncating
//! it otherwise. The whole cluster reopens from its directory across
//! process restarts: load the files, replay the log. `file.rs` has the
//! protocol in full.
//!
//! There is no trait between the two: [`crate::shard::ShardState`] owns
//! the mirror and an `Option<FileStore>`. It mutates the mirror through
//! [`MemStore::apply_ops`] (the one mutation routine, shared with log
//! replay) and then calls its own `commit` — the durability point, a
//! no-op without a [`FileStore`]. Mutations that are not transactions
//! go through [`MemStore::diverge`] (injected damage) or
//! [`MemStore::repair`] and then `persist`; [`crate::Cluster::flush`]
//! reaches `flush`. The [`FileStore`] half never owns objects: every
//! call borrows the mirror it writes back from.
//!
//! **Receipts are backend-independent**: they record extent profiles
//! and KV receipts, never host-IO timing, so a workload replayed
//! against both backends produces identical receipts — the property
//! the backend-equivalence suite asserts.

mod file;
mod log;
mod mem;

pub(crate) use file::{ClusterMeta, FileStore};
pub(crate) use mem::{MemStore, MAX_OSDS};

use std::path::PathBuf;

/// Which storage backend a cluster keeps its objects in. Selected via
/// [`crate::ClusterBuilder::backend`]; defaults to [`BackendKind::Memory`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// The in-memory simulator store: one copy per object for all its
    /// replicas, no host IO, state dies with the process. The default,
    /// and what the figure harnesses pin so paper-fidelity runs never
    /// depend on host disks.
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
