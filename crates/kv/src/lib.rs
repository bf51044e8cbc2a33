//! The per-object key-value store behind RADOS **OMAP** — the stand-in
//! for Ceph's RocksDB — and the cost model that prices its work.
//!
//! The paper's third IV-placement option stores per-sector IVs in OMAP
//! (§3.1, Fig. 2c) and finds that the approach wins at 4 KB IOs but
//! collapses as IO size grows, because the database pays a per-key cost
//! that the raw-object layouts do not (§3.3). That shape comes from
//! [`CostProfile`]'s per-op and per-key charges, so the store itself
//! only has to hold the entries and say what each operation did:
//!
//! - [`LsmStore`]: one ordered map per object. Every write returns a
//!   [`WriteReceipt`] (keys written, and the bytes its write-ahead-log
//!   record would take); every read a [`ReadReceipt`] (keys examined,
//!   bytes returned).
//! - [`CostProfile`]: a RocksDB-shaped cost model (per-op floor,
//!   per-key CPU) that turns receipts into simulated time. The RADOS
//!   layer carries the receipts, unpriced, in its own IO receipts; only
//!   its simulated testbed prices them.
//!
//! There is no memtable flush, sorted run or compaction. Each RADOS
//! object owns its own store, and an image rewrites the same per-sector
//! keys in place, so one object's OMAP stays as small as its key set:
//! a 4 MiB object holds 1024 sector entries, a few tens of KiB, far
//! below the 64 MiB write buffer at which RocksDB flushes by default.
//!
//! # Example
//!
//! ```
//! use vdisk_kv::LsmStore;
//!
//! let mut store = LsmStore::default();
//! store.put(b"0001".to_vec(), b"iv-bytes".to_vec());
//! let (value, receipt) = store.get(b"0001");
//! assert_eq!(value.as_deref(), Some(&b"iv-bytes"[..]));
//! assert_eq!(receipt.keys_examined, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod store;

pub use cost::CostProfile;
pub use store::{KvPairs, LsmConfig, LsmStore, ReadReceipt, WriteReceipt};
