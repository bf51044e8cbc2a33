//! A Ceph-RADOS-like replicated object store, functionally real and
//! temporally simulated.
//!
//! The paper modifies Ceph RBD's client-side encryption; every feature
//! its design leans on is implemented here:
//!
//! - **Objects** ([`object`]): byte-addressable sparse data (backed by
//!   4 KB physical blocks with read-modify-write on unaligned writes),
//!   per-object **OMAP** key-value metadata (a real mini-LSM from
//!   `vdisk-kv`, Ceph's RocksDB analog), and xattrs.
//! - **Placement** ([`placement`]): a deterministic CRUSH-like mapping
//!   of objects to a primary + replica set.
//! - **Transactions** ([`transaction`]): multi-op writes to one object
//!   applied atomically — the mechanism the paper uses to keep data and
//!   per-sector IVs consistent (sections 2.4 and 3.1).
//! - **Snapshots**: RADOS self-managed snapshots with per-object
//!   copy-on-write clones, so "overwritten data remains accessible"
//!   (§1) exactly as in the paper's threat model.
//! - **Submission queues** ([`Cluster::submit_batch`] /
//!   [`Cluster::submit_read_batch`]): FIFO work queues drained by
//!   [`Cluster::worker_threads`] workers, shard `s` always on worker
//!   `s mod W` (one per spare core in memory, one per shard on disk);
//!   submissions return tickets
//!   immediately so a client keeps many IOs in flight, with ops from
//!   different submissions interleaving on the shard workers while
//!   same-object ops keep submission order.
//! - **Replication**: writes go to the primary and fan out to replicas;
//!   scrub/repair utilities detect and fix divergence.
//! - **Receipts** ([`Receipt`]): every operation returns an unpriced
//!   record of the physical work it did — per replica, the blocks
//!   written and read-modify-written and the OMAP batches; per read,
//!   the blocks and OMAP lookups and the bytes returned.
//! - **Cost model** ([`cost`]): a [`Testbed`] prices receipts into
//!   `vdisk-sim` plans over the testbed's resources (client NIC,
//!   per-OSD links, OSD CPUs, NVMe arrays, the OMAP KV engine),
//!   calibrated to §3.2's hardware, after the fact — the IO path never
//!   builds a plan.
//!
//! # Example
//!
//! ```
//! use vdisk_rados::{Cluster, ReadOp, Transaction};
//!
//! # fn main() -> Result<(), vdisk_rados::RadosError> {
//! let cluster = Cluster::builder().build();
//! let mut tx = Transaction::new("greeting");
//! tx.write(0, b"hello".to_vec());
//! tx.omap_set(vec![(b"lang".to_vec(), b"en".to_vec())]);
//! cluster.execute(tx)?;
//!
//! let (results, _receipt) = cluster.read(
//!     "greeting",
//!     None,
//!     &[ReadOp::Read { offset: 0, len: 5 }],
//! )?;
//! assert_eq!(results[0].as_data(), b"hello");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod builder;
pub mod cluster;
mod codec;
pub mod cost;
pub mod fault;
mod maintenance;
pub mod object;
pub mod placement;
mod queue;
mod receipt;
mod shard;
mod state;
pub mod transaction;

pub use backend::BackendKind;
pub use cluster::{
    Cluster, ClusterBuilder, ExecStats, PayloadMode, ScrubReport, DEFAULT_META_CACHE_BYTES,
};
pub use cost::{ResourceHandles, Testbed, TestbedProfile};
pub use fault::{FaultConfig, FaultKind, FaultPlane, RetryPolicy};
pub use object::{ObjectStat, PHYS_BLOCK};
pub use placement::{OsdId, PlacementMap};
pub use queue::{ApplyTicket, Doorbell, ReadTicket, ShardHold, Ticket};
pub use receipt::{OpEffect, ReadEffect, ReadWork, Receipt, TxWork};
pub use transaction::{ObjectReads, ReadOp, ReadResult, SharedBuf, Transaction, TxOp};

use std::error::Error as StdError;
use std::fmt;

/// A RADOS self-managed snapshot id. Snapshot ids increase
/// monotonically; `SnapId(0)` means "no snapshot yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SnapId(pub u64);

impl fmt::Display for SnapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap{}", self.0)
    }
}

/// Errors surfaced by the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RadosError {
    /// The object does not exist (reads of absent objects).
    NoSuchObject(String),
    /// The object does not exist at the requested snapshot.
    NoSuchSnapshot {
        /// Object name.
        object: String,
        /// The snapshot that was requested.
        snap: SnapId,
    },
    /// A malformed operation (e.g. zero-length write, bad range).
    InvalidArgument(String),
    /// A [`TxOp::CompareXattr`] precondition did not hold: the object's
    /// current state differs from what the writer read. Nothing of the
    /// transaction has been applied; re-read and retry.
    CompareFailed {
        /// Object name.
        object: String,
        /// The xattr whose value diverged.
        xattr: String,
    },
    /// Scrub found replicas that disagree.
    ReplicaDivergence {
        /// Object name.
        object: String,
    },
    /// The cluster configuration is unbuildable: a knob is out of
    /// range, or a durable directory was formatted with a different
    /// geometry. Returned by [`ClusterBuilder::try_build`].
    InvalidConfig(String),
    /// A durable backend failed at the host-IO layer (create, write,
    /// fsync, rename, or decode of an on-disk object). Carries the
    /// rendered `std::io::Error`, kept as a string so the variant stays
    /// `Clone`/`Eq` like the rest of the enum.
    Io(String),
    /// An injected fault from the cluster's [`fault::FaultPlane`]
    /// surfaced to the client: a transient fault that exhausted the
    /// [`fault::RetryPolicy`] budget, a persistent fault (never
    /// retried), or an injected crash. Never produced on clusters
    /// built without a fault plane.
    Injected {
        /// The class of the injected fault.
        kind: fault::FaultKind,
        /// The state shard the faulted operation targeted.
        shard: usize,
    },
}

impl fmt::Display for RadosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadosError::NoSuchObject(name) => write!(f, "no such object: {name}"),
            RadosError::NoSuchSnapshot { object, snap } => {
                write!(f, "object {object} has no data at {snap}")
            }
            RadosError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            RadosError::CompareFailed { object, xattr } => {
                write!(
                    f,
                    "compare failed on {object} xattr {xattr}: concurrent update"
                )
            }
            RadosError::ReplicaDivergence { object } => {
                write!(f, "replica divergence detected on object {object}")
            }
            RadosError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RadosError::Io(msg) => write!(f, "io error: {msg}"),
            RadosError::Injected { kind, shard } => {
                write!(f, "injected {kind} fault on shard {shard}")
            }
        }
    }
}

impl RadosError {
    /// Whether replaying the failed submission may succeed. Only
    /// injected **transient** faults qualify: they are injected before
    /// the attempt touches any state, so a replay is idempotent.
    /// Everything else either already decided (`CompareFailed`,
    /// `NoSuchObject`, …) or cannot be replayed safely (host-IO errors
    /// may have partially applied).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RadosError::Injected {
                kind: fault::FaultKind::Transient,
                ..
            }
        )
    }
}

impl StdError for RadosError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RadosError>;
