//! Workloads and harnesses that regenerate the paper's evaluation
//! (§3.2–3.3): a fio-like closed-loop generator, the paper's testbed
//! and variant definitions, and the sweep/report code behind every
//! figure.
//!
//! | Paper artifact | Bench target |
//! |---|---|
//! | Fig. 3a (read bandwidth) | `cargo bench -p vdisk-bench --bench fig3a_read_bandwidth` |
//! | Fig. 3b (write bandwidth) | `cargo bench -p vdisk-bench --bench fig3b_write_bandwidth` |
//! | Fig. 4 (write overhead %) | `cargo bench -p vdisk-bench --bench fig4_write_overhead` |
//! | §3.3 sector-count table | `cargo bench -p vdisk-bench --bench table_sector_overhead` |
//! | extensions (MAC, GCM, EME2, QD, 512 B) | `cargo bench -p vdisk-bench --bench ablations` |
//!
//! Bandwidth numbers are **simulated time** (the cost model of
//! `vdisk-rados::TestbedProfile`, calibrated to the paper's 3-node
//! NVMe cluster); the encryption, layouts, OMAP and object store all do
//! their real work.
//!
//! # Example
//!
//! ```
//! use vdisk_bench::fio::{IoPattern, JobSpec};
//! use vdisk_bench::testbed;
//!
//! let mut disk = testbed::bench_disk(
//!     &vdisk_core::EncryptionConfig::luks2_baseline(), 8 << 20, 1);
//! let spec = JobSpec { pattern: IoPattern::RandWrite, io_size: 65536,
//!                      queue_depth: 8, ops: 16, seed: 7 };
//! let stats = vdisk_bench::fio::run_job(&mut disk, &spec).unwrap();
//! assert!(stats.bandwidth_mb_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod fio;
pub mod testbed;
