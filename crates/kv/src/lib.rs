//! A miniature LSM-tree key-value store — the stand-in for RocksDB,
//! which backs Ceph's per-object **OMAP** metadata database.
//!
//! The paper's third IV-placement option stores per-sector IVs in OMAP
//! (§3.1, Fig. 2c) and finds that the approach wins at 4 KB IOs but
//! collapses as IO size grows, because the database pays a per-key cost
//! that the raw-object layouts do not (§3.3). To reproduce that shape
//! honestly, this crate implements a real (if small) LSM engine:
//!
//! - [`Memtable`]: an ordered in-memory write buffer with tombstones,
//! - [`WriteAheadLog`]: an append-only durability log with atomic
//!   batches and replay-based [`LsmStore::recover`],
//! - [`SortedRun`]: immutable sorted runs produced by flushes,
//! - compaction: full-merge when the run count exceeds a threshold,
//! - [`CostProfile`]: a RocksDB-shaped cost model (per-op floor,
//!   per-key CPU, per-byte WAL bandwidth) that converts op receipts
//!   into simulated time for `vdisk-sim`.
//!
//! Every operation returns a *receipt* describing the physical work it
//! caused (WAL bytes, keys touched, runs scanned, flush/compaction
//! bytes). The RADOS layer carries them, unpriced, in its own IO
//! receipts; only its simulated testbed prices them, each on its own,
//! with [`CostProfile`], into cost [`vdisk_sim::Plan`]s.
//!
//! # Example
//!
//! ```
//! use vdisk_kv::{LsmConfig, LsmStore};
//!
//! let mut store = LsmStore::new(LsmConfig::default());
//! store.put(b"0001".to_vec(), b"iv-bytes".to_vec());
//! let (value, receipt) = store.get(b"0001");
//! assert_eq!(value.as_deref(), Some(&b"iv-bytes"[..]));
//! assert!(receipt.keys_examined >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod memtable;
mod sst;
mod store;
mod wal;

pub use cost::CostProfile;
pub use memtable::Memtable;
pub use sst::SortedRun;
pub use store::{KvPairs, LsmConfig, LsmStats, LsmStore, ReadReceipt, WriteReceipt};
pub use wal::{WalBatch, WriteAheadLog};
