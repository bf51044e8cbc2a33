//! **The paper's contribution**: virtual-disk block encryption with
//! per-sector metadata.
//!
//! Standard disk encryption (LUKS2 / dm-crypt / RBD encryption) is
//! length-preserving: AES-XTS with the LBA as the deterministic tweak,
//! no room for an IV or a MAC. The paper observes that a *virtual* disk
//! already owns a mapping layer and can piggyback per-sector metadata
//! on it, enabling a **fresh random IV per sector write** — semantic
//! security across overwrites and snapshots — and optionally integrity.
//!
//! This crate implements that design over the `vdisk-rbd`/`vdisk-rados`
//! stack:
//!
//! - [`EncryptionConfig`]: cipher (AES-XTS 128/256, AES-GCM, EME2
//!   wide-block, legacy CBC-ESSIV), IV scheme (LBA-derived baseline or
//!   random-persisted), and the paper's three metadata layouts
//!   ([`MetaLayout::Unaligned`], [`MetaLayout::ObjectEnd`],
//!   [`MetaLayout::Omap`] — Fig. 2a/2b/2c), plus the integrity (MAC)
//!   and snapshot-binding extensions (§2.2, footnote 3).
//! - [`luks`]: a LUKS2-style on-disk header with PBKDF2 keyslots,
//!   **versioned master keys (key epochs)**, a retired-key chain, and
//!   CASed generation-counter updates, stored as a cluster object —
//!   the substrate of the key-lifecycle API
//!   ([`EncryptedImage::rekey_begin`] online rekey via [`RekeyDriver`],
//!   [`EncryptedImage::rotate_passphrase`],
//!   [`EncryptedImage::secure_erase`] crypto-shredding).
//! - [`layout`]: [`layout::Placement`] owns every per-layout decision —
//!   where data and metadata live, how a write's metadata joins its
//!   transaction, which ops fetch an extent and how their results
//!   unpack, and whether metadata costs a fetch of its own. Built once
//!   per image; the IO path calls it and never matches on a layout.
//! - [`EncryptedImage`]: the client-side encrypting IO path — every
//!   data+metadata update rides a single atomic RADOS transaction, as
//!   in §3.1 — with a client-side **IV/metadata cache** that skips the
//!   per-sector metadata fetch on read hits. The cache fills at reap
//!   time, validated against per-shard write-submission epochs
//!   ([`vdisk_rados::Cluster::shard_write_seq`]) so queued overwrites
//!   and snapshots landing between a read's submit and reap can never
//!   leave stale entries; size or disable it with
//!   [`vdisk_rados::ClusterBuilder::meta_cache_bytes`]. The cache
//!   counts itself: each op's `IoResult::stats` carries its
//!   `ExecStats::{meta_cache_hits, meta_cache_misses,
//!   meta_cache_invalidations, meta_cache_write_fills}` deltas, and
//!   [`EncryptedImage::meta_cache_stats`] returns the image's totals.
//! - [`EncryptedIoQueue`]: the aio-style IO surface. One engine —
//!   [`vdisk_rbd::Queue`], which owns completion ids, every reap call,
//!   the doorbell and the error-retention rule — over two backends:
//!   the raw [`vdisk_rbd::Image`] in `vdisk-rbd`, and this crate's
//!   `&mut EncryptedImage` (encrypt on ingest, decrypt at reap). The
//!   synchronous `write`/`write_owned`/`read` are the same
//!   preparation and completion routines at depth 1.
//! - [`audit`]: the adversary's view — raw ciphertext observation and
//!   sub-block diffing — used to *demonstrate* the leaks the paper
//!   describes and their elimination.
//!
//! # Example
//!
//! ```
//! use vdisk_core::{EncryptedImage, EncryptionConfig, MetaLayout};
//! use vdisk_rados::Cluster;
//! use vdisk_rbd::Image;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::builder().build();
//! let image = Image::create(&cluster, "secure-vm", 16 << 20)?;
//! let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
//! let mut disk = EncryptedImage::format(image, &config, b"hunter2")?;
//! disk.write(0, b"top secret")?;
//! let mut buf = vec![0u8; 10];
//! disk.read(0, &mut buf)?;
//! assert_eq!(&buf, b"top secret");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
mod config;
mod encrypted_image;
mod keychain;
pub mod layout;
pub mod luks;
mod meta_cache;
mod queue;
mod rekey;
pub mod runtime;
mod sector;

pub use config::{Cipher, EncryptionConfig, MetaLayout, KEY_EPOCH_TAG_LEN};
pub use encrypted_image::EncryptedImage;
pub use luks::{RekeyState, WindowIntent};
pub use queue::EncryptedIoQueue;
pub use rekey::{
    RekeyDriver, RekeyProgress, DEFAULT_CHUNK_SECTORS, DEFAULT_PRESSURE_THRESHOLD,
    DEFAULT_QUEUE_DEPTH,
};
pub use runtime::{
    Runtime, RuntimeError, RuntimeSnapshot, TenantHandle, TenantId, TenantQueue, TenantSpec,
    TenantStats,
};
pub use sector::SectorState;
// The op/completion vocabulary is shared with the raw queue.
pub use vdisk_rbd::{Completion, IoOp, IoPayload, IoResult};

use std::error::Error as StdError;
use std::fmt;

/// Errors surfaced by the encryption layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum CryptError {
    /// No keyslot matched the passphrase.
    WrongPassphrase,
    /// All keyslots are occupied.
    NoFreeKeyslot,
    /// The on-disk header failed to parse or verify.
    HeaderCorrupt(String),
    /// A sector's MAC (or GCM tag) failed to verify.
    IntegrityViolation {
        /// The logical sector that failed.
        lba: u64,
    },
    /// Snapshot binding detected data from the "future" (replayed
    /// across snapshots).
    ReplayDetected {
        /// The logical sector that failed.
        lba: u64,
    },
    /// The configuration is internally inconsistent (e.g. AES-GCM
    /// without a metadata layout to store its nonce and tag).
    UnsupportedConfig(String),
    /// An online rekey is already migrating this image (or still has
    /// sectors to migrate, where completion was requested).
    RekeyInProgress,
    /// No online rekey is in flight.
    NoRekeyInProgress,
    /// A sector's metadata names a key epoch this handle holds no key
    /// for (corrupt epoch tag, or an image opened without its
    /// retired-key chain).
    UnknownKeyEpoch {
        /// The logical sector.
        lba: u64,
        /// The epoch the entry claims.
        epoch: u32,
    },
    /// A concurrent handle updated the encryption header between this
    /// handle's read and write (the generation CAS lost). The
    /// in-memory header view is stale; reopen the image and retry.
    HeaderContended,
    /// The multi-tenant runtime refused a driver's submission
    /// (admission denied at the tenant's backlog cap).
    RuntimeStalled(String),
    /// An error from the image layer.
    Rbd(vdisk_rbd::RbdError),
    /// An error from a cryptographic primitive.
    Crypto(vdisk_crypto::CryptoError),
    /// An internal invariant the IO path depends on failed to hold.
    /// Always a bug — reported as an error rather than a panic so a
    /// rekey driver or shard worker survives to surface it instead of
    /// poisoning queue state.
    Internal(String),
}

impl fmt::Display for CryptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptError::WrongPassphrase => write!(f, "no keyslot matches the passphrase"),
            CryptError::NoFreeKeyslot => write!(f, "all keyslots are in use"),
            CryptError::HeaderCorrupt(why) => write!(f, "encryption header corrupt: {why}"),
            CryptError::IntegrityViolation { lba } => {
                write!(f, "integrity violation at sector {lba}")
            }
            CryptError::ReplayDetected { lba } => {
                write!(f, "cross-snapshot replay detected at sector {lba}")
            }
            CryptError::UnsupportedConfig(why) => write!(f, "unsupported configuration: {why}"),
            CryptError::RekeyInProgress => write!(f, "an online rekey is in progress"),
            CryptError::NoRekeyInProgress => write!(f, "no online rekey is in progress"),
            CryptError::UnknownKeyEpoch { lba, epoch } => {
                write!(f, "sector {lba} names unknown key epoch {epoch}")
            }
            CryptError::HeaderContended => {
                write!(
                    f,
                    "encryption header updated concurrently; reopen and retry"
                )
            }
            CryptError::RuntimeStalled(why) => write!(f, "runtime stalled: {why}"),
            CryptError::Rbd(e) => write!(f, "image layer: {e}"),
            CryptError::Crypto(e) => write!(f, "crypto: {e}"),
            CryptError::Internal(why) => write!(f, "internal invariant violated: {why}"),
        }
    }
}

impl StdError for CryptError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CryptError::Rbd(e) => Some(e),
            CryptError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vdisk_rbd::RbdError> for CryptError {
    fn from(e: vdisk_rbd::RbdError) -> Self {
        CryptError::Rbd(e)
    }
}

impl From<vdisk_rados::RadosError> for CryptError {
    fn from(e: vdisk_rados::RadosError) -> Self {
        CryptError::Rbd(vdisk_rbd::RbdError::Rados(e))
    }
}

impl From<vdisk_crypto::CryptoError> for CryptError {
    fn from(e: vdisk_crypto::CryptoError) -> Self {
        CryptError::Crypto(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CryptError>;
