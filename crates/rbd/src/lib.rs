//! The virtual-disk layer (Ceph RBD analog): an LBA-addressable block
//! device striped over 4 MB RADOS objects.
//!
//! libRBD "maps each LBA to a specific OSD node by breaking the LBA
//! space into objects (typically 4 MB in size)" (§2.4). This crate
//! reproduces that mapping plus image lifecycle (create/open/remove),
//! image-level snapshots, and the raw read/write path the encryption
//! layer in `vdisk-core` builds on.
//!
//! It also owns the stack's one submission-queue engine: [`Queue`],
//! generic over a [`QueueBackend`]. [`IoQueue`] is that engine over an
//! [`Image`] (the raw backend); `vdisk-core` supplies the encrypting
//! backend and gets every reap call, the completion doorbell and the
//! error-retention rule from here.
//!
//! # Example
//!
//! ```
//! use vdisk_rados::Cluster;
//! use vdisk_rbd::Image;
//!
//! # fn main() -> Result<(), vdisk_rbd::RbdError> {
//! let cluster = Cluster::builder().build();
//! let image = Image::create(&cluster, "vm-1", 64 << 20)?;
//! image.write_at(4096, b"boot data")?;
//! let mut buf = vec![0u8; 9];
//! image.read_at(4096, &mut buf)?;
//! assert_eq!(&buf, b"boot data");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod queue;
mod striping;

pub use image::{Image, ImageStat, SnapshotInfo};
pub use queue::{Completion, IoOp, IoPayload, IoQueue, IoResult, PendingOp, Queue, QueueBackend};
pub use striping::{ObjectExtent, Striper};

use std::error::Error as StdError;
use std::fmt;

/// Default object size: 4 MB, Ceph's default (§3.2).
pub const DEFAULT_OBJECT_SIZE: u64 = 4 << 20;

/// Errors surfaced by the image layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RbdError {
    /// Image already exists on create.
    ImageExists(String),
    /// Image not found on open.
    ImageNotFound(String),
    /// IO past the end of the image.
    OutOfBounds {
        /// Requested end offset.
        offset: u64,
        /// Image size.
        size: u64,
    },
    /// Snapshot name not found.
    SnapshotNotFound(String),
    /// Snapshot name already taken.
    SnapshotExists(String),
    /// An error bubbled up from the object store.
    Rados(vdisk_rados::RadosError),
}

impl fmt::Display for RbdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbdError::ImageExists(name) => write!(f, "image already exists: {name}"),
            RbdError::ImageNotFound(name) => write!(f, "image not found: {name}"),
            RbdError::OutOfBounds { offset, size } => {
                write!(f, "io reaches offset {offset} past image size {size}")
            }
            RbdError::SnapshotNotFound(name) => write!(f, "snapshot not found: {name}"),
            RbdError::SnapshotExists(name) => write!(f, "snapshot already exists: {name}"),
            RbdError::Rados(e) => write!(f, "rados: {e}"),
        }
    }
}

impl StdError for RbdError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            RbdError::Rados(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vdisk_rados::RadosError> for RbdError {
    fn from(e: vdisk_rados::RadosError) -> Self {
        RbdError::Rados(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RbdError>;
