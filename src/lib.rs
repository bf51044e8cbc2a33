//! `vdisk` — umbrella crate for the HotStorage '22 reproduction
//! *"Rethinking Block Storage Encryption with Virtual Disks"*.
//!
//! This facade re-exports the whole stack so examples and downstream
//! users need a single dependency:
//!
//! - [`crypto`]: AES, XTS, GCM, EME2, SHA-256, HMAC, KDFs
//! - [`sim`]: the discrete-event cost simulator
//! - [`kv`]: the per-object ordered key-value store backing OMAP
//! - [`rados`]: the Ceph-like replicated object store
//! - [`rbd`]: the virtual-disk (RBD-like) layer
//! - [`core`]: the paper's contribution — per-sector-metadata encryption
//! - [`mod@bench`]: fio-like workloads and the paper's figure harnesses
//!
//! # Quickstart
//!
//! ```
//! use vdisk::core::{EncryptedImage, EncryptionConfig};
//! use vdisk::rados::Cluster;
//! use vdisk::rbd::Image;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::builder().build();
//! let image = Image::create(&cluster, "vm-disk", 64 << 20)?;
//! let config = EncryptionConfig::random_iv_object_end();
//! let mut disk = EncryptedImage::format(image, &config, b"passphrase")?;
//! disk.write(0, b"secret boot sector")?;
//! let mut buf = vec![0u8; 18];
//! disk.read(0, &mut buf)?;
//! assert_eq!(&buf, b"secret boot sector");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use vdisk_bench as bench;
pub use vdisk_core as core;
pub use vdisk_crypto as crypto;
pub use vdisk_kv as kv;
pub use vdisk_rados as rados;
pub use vdisk_rbd as rbd;
pub use vdisk_sim as sim;
