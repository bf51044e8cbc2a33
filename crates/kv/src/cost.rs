//! The RocksDB-shaped cost model: converts op receipts into simulated
//! time.
//!
//! The constants matter for the *shape* of the paper's Fig. 4: OMAP
//! cost is dominated by a per-key CPU charge, so writing 1024 IVs for
//! one 4 MB IO costs ~1000× the per-key charge while the raw-object
//! layouts pay a single near-sequential write. This is §3.3's "in the
//! OMAP solution, this calculation does not work" effect.

use crate::store::{ReadReceipt, WriteReceipt};
use vdisk_sim::SimDuration;

/// Cost constants for the KV engine, loosely calibrated to a RocksDB
/// instance on an NVMe-backed OSD (the paper's testbed runs Ceph's
/// default RocksDB-backed OMAP).
#[derive(Debug, Clone)]
pub struct CostProfile {
    /// Fixed cost of entering the DB for one operation (batch or read).
    pub per_op: SimDuration,
    /// CPU cost per key written (insert + comparator work).
    pub per_key_write: SimDuration,
    /// CPU cost per key examined on reads.
    pub per_key_read: SimDuration,
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile {
            per_op: SimDuration::from_micros(12),
            per_key_write: SimDuration::from_nanos(4_000),
            per_key_read: SimDuration::from_nanos(600),
        }
    }
}

impl CostProfile {
    /// Simulated service time of a write described by `receipt`.
    ///
    /// WAL bytes are *not* charged here: the storage layer accounts
    /// the WAL commit on the disk it shares with the data path (see
    /// `vdisk-rados`'s cost model); this is the CPU/engine time only.
    #[must_use]
    pub fn write_time(&self, receipt: &WriteReceipt) -> SimDuration {
        self.per_op + per_each(self.per_key_write, receipt.keys_written)
    }

    /// Simulated service time of a read described by `receipt`.
    #[must_use]
    pub fn read_time(&self, receipt: &ReadReceipt) -> SimDuration {
        self.per_op + per_each(self.per_key_read, receipt.keys_examined)
    }
}

fn per_each(unit: SimDuration, count: u64) -> SimDuration {
    SimDuration::from_nanos(unit.as_nanos() * count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cost_scales_with_keys() {
        let profile = CostProfile::default();
        let one_key = WriteReceipt {
            keys_written: 1,
            wal_bytes: 40,
        };
        let kilo_keys = WriteReceipt {
            keys_written: 1024,
            wal_bytes: 40 * 1024,
        };
        let t1 = profile.write_time(&one_key);
        let t1024 = profile.write_time(&kilo_keys);
        // The per-key term must dominate at high key counts: the 1024-
        // key batch costs far more than the per-op floor suggests.
        assert!(
            t1024.as_nanos() > 50 * t1.as_nanos() / 2,
            "t1={t1}, t1024={t1024}"
        );
        assert!(
            t1024.as_nanos() > 2_000_000,
            "1024-key batch above 2ms: {t1024}"
        );
    }

    #[test]
    fn read_cost_scales_with_scan_width() {
        let profile = CostProfile::default();
        let point = ReadReceipt {
            keys_examined: 2,
            bytes_returned: 16,
        };
        let scan = ReadReceipt {
            keys_examined: 1024,
            bytes_returned: 16 * 1024,
        };
        assert!(profile.read_time(&scan) > profile.read_time(&point));
    }
}
