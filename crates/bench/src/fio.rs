//! A fio-like workload generator (the paper drives its evaluation with
//! fio randread/randwrite at QD 32, §3.3).
//!
//! Jobs drive the **real submission queue**
//! ([`vdisk_core::EncryptedIoQueue`]): up to `queue_depth` operations
//! are genuinely in flight against the cluster's shard workers while
//! further IOs are generated — actual cross-submission concurrency,
//! not a notional fan-out. The per-op receipts reaped from the
//! completions are then replayed in the calibrated closed-loop
//! simulator at the same depth, priced as the loop issues them, to
//! produce bandwidth numbers.

use crate::testbed;
use vdisk_core::{EncryptedImage, IoOp, Result, Runtime, TenantSpec, TenantStats};
use vdisk_crypto::rng::SeededRng;
use vdisk_rados::Receipt;
use vdisk_sim::ClosedLoopStats;

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPattern {
    /// Uniform random reads (fio `randread`).
    RandRead,
    /// Uniform random writes (fio `randwrite`).
    RandWrite,
    /// Sequential reads.
    SeqRead,
    /// Sequential writes.
    SeqWrite,
    /// Mixed random reads and writes (fio `randrw` with
    /// `rwmixread=read_pct`): each IO is independently a read with
    /// probability `read_pct`/100, at a uniformly random offset. The
    /// realistic-churn workload for the IV/metadata cache — reads fill
    /// it while interleaved overwrites keep invalidating.
    RandRw {
        /// Percentage of IOs that are reads (0–100).
        read_pct: u8,
    },
}

impl IoPattern {
    /// The paper-adjacent mixed workload: 70% reads / 30% writes.
    pub const RANDRW_70_30: IoPattern = IoPattern::RandRw { read_pct: 70 };

    /// True for the pure-write patterns (mixed patterns are neither).
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, IoPattern::RandWrite | IoPattern::SeqWrite)
    }
}

/// One fio-style job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Access pattern.
    pub pattern: IoPattern,
    /// Block size of each IO in bytes.
    pub io_size: u64,
    /// IOs kept in flight.
    pub queue_depth: usize,
    /// Total IOs to issue.
    pub ops: u64,
    /// RNG seed (offsets and payload).
    pub seed: u64,
}

/// The 70/30 randrw churn job at QD 8 — the workload the CI bench
/// gate's churn group measures.
pub const CHURN_70_30_QD8: JobSpec = JobSpec {
    pattern: IoPattern::RANDRW_70_30,
    io_size: 16 << 10,
    queue_depth: 8,
    ops: 96,
    seed: 37,
};

/// A job's IO stream: offsets, read/write choices and write payloads,
/// drawn from the job's seed.
struct OpGen {
    rng: SeededRng,
    /// fio-style payload pattern: a random head stamped on every
    /// write's owned buffer (the cost model is content-independent;
    /// encryption still runs on every byte).
    pattern: Vec<u8>,
    slots: u64,
    issued: u64,
}

impl OpGen {
    fn new(spec: &JobSpec, image_size: u64) -> OpGen {
        assert!(spec.io_size > 0, "io_size must be positive");
        assert!(spec.io_size <= image_size, "io_size exceeds image");
        let mut rng = SeededRng::new(spec.seed);
        let mut pattern = vec![0u8; spec.io_size as usize];
        let head = pattern.len().min(8192);
        rng.fill_bytes(&mut pattern[..head]);
        OpGen {
            rng,
            pattern,
            slots: image_size / spec.io_size,
            issued: 0,
        }
    }

    /// The next IO of `spec`.
    fn next_op(&mut self, spec: &JobSpec) -> IoOp {
        let offset = match spec.pattern {
            IoPattern::RandRead | IoPattern::RandWrite | IoPattern::RandRw { .. } => {
                self.rng.gen_below(self.slots) * spec.io_size
            }
            IoPattern::SeqRead | IoPattern::SeqWrite => (self.issued % self.slots) * spec.io_size,
        };
        let is_write = match spec.pattern {
            IoPattern::RandRw { read_pct } => {
                self.rng.gen_below(100) >= u64::from(read_pct.min(100))
            }
            pattern => pattern.is_write(),
        };
        self.issued += 1;
        if is_write {
            IoOp::Write {
                offset,
                data: self.pattern.clone(),
            }
        } else {
            IoOp::Read {
                offset,
                len: spec.io_size,
            }
        }
    }
}

/// Sizes each sweep point so small IOs see steady state while large
/// IOs stay within the software-crypto wall-clock budget.
#[must_use]
pub fn default_ops_for(io_size: u64) -> u64 {
    ((24 << 20) / io_size).clamp(40, 384)
}

/// Sequentially writes the whole image in object-size IOs so that every
/// sector exists — the paper measures "a full Ceph image" (§3.3), which
/// also makes every later write an overwrite (the interesting case for
/// read-modify-write costs).
///
/// # Errors
///
/// Propagates any IO-path error.
pub fn precondition(disk: &mut EncryptedImage) -> Result<()> {
    let chunk = disk.image().object_size();
    let size = disk.image().size();
    let mut rng = SeededRng::new(0xFEED);
    let mut buf = vec![0u8; chunk as usize];
    rng.fill_bytes(&mut buf[..4096]);
    let mut offset = 0;
    while offset < size {
        let len = chunk.min(size - offset) as usize;
        disk.write(offset, &buf[..len])?;
        offset += len as u64;
    }
    Ok(())
}

/// Runs one job through the real submission queue: keeps up to
/// `queue_depth` operations in flight on the cluster's shard workers
/// (every IO runs the full encrypt/layout path), reaps per-op receipts
/// from the completions, and finally replays them in a closed loop at
/// the same depth on the calibrated simulated hardware.
///
/// # Errors
///
/// Propagates any IO-path error.
///
/// # Panics
///
/// Panics if `io_size` is zero or larger than the image.
pub fn run_job(disk: &mut EncryptedImage, spec: &JobSpec) -> Result<ClosedLoopStats> {
    let receipts = job_receipts(disk, spec)?;
    let ops = receipts.iter().map(|receipt| (receipt, spec.io_size));
    Ok(testbed::simulated(disk.image().cluster()).run_closed_loop(spec.queue_depth.max(1), ops))
}

/// The IO half of [`run_job`]: drives the job through the real
/// submission queue and returns its receipts in completion-id order,
/// so one run can be priced on more than one testbed.
///
/// # Errors
///
/// Propagates any IO-path error.
///
/// # Panics
///
/// Panics if `io_size` is zero or larger than the image.
pub fn job_receipts(disk: &mut EncryptedImage, spec: &JobSpec) -> Result<Vec<Receipt>> {
    let mut gen = OpGen::new(spec, disk.image().size());
    let queue_depth = spec.queue_depth.max(1);

    // Completions may be reaped out of submission order; key receipts
    // by completion id so the closed-loop replay is deterministic.
    let mut done: Vec<(u64, Receipt)> = Vec::with_capacity(spec.ops as usize);
    let mut queue = disk.io_queue();
    for _ in 0..spec.ops {
        queue.submit(gen.next_op(spec))?;
        while queue.in_flight() >= queue_depth {
            for result in queue.wait()? {
                done.push((result.completion.id(), result.plan));
            }
        }
    }
    for result in queue.fence()? {
        done.push((result.completion.id(), result.plan));
    }
    drop(queue);

    done.sort_unstable_by_key(|(id, _)| *id);
    Ok(done.into_iter().map(|(_, receipt)| receipt).collect())
}

/// One tenant of a multi-tenant run: a fio job plus its QoS terms.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// The workload this tenant drives against its own image.
    pub spec: JobSpec,
    /// Fair-share weight under contention.
    pub weight: u32,
    /// Per-tenant in-flight cap.
    pub qd_cap: usize,
}

/// What one multi-tenant run produced.
#[derive(Debug)]
pub struct MultiTenantOutcome {
    /// Per-tenant completed ops at the stop point (`stop_after`
    /// reached, or full drain) — the fairness measurement.
    pub completed_at_stop: Vec<u64>,
    /// Final per-tenant runtime stats (after the full drain).
    pub tenants: Vec<TenantStats>,
    /// Closed-loop replay of every completed op's receipt at the
    /// runtime's inflight budget — the combined simulated metric.
    pub combined: ClosedLoopStats,
}

/// Drives `jobs[i]` against `disks[i]` — every image on the same
/// cluster — through one shared [`Runtime`]: per-tenant admission at
/// submit, weighted fair scheduling into the shared shard queues. The
/// driver round-robins non-blocking pumps, so on an inline-mode
/// cluster the whole dispatch trace is deterministic.
///
/// With `stop_after = Some(n)`, submission stops once `n` ops have
/// completed across all tenants and `completed_at_stop` snapshots the
/// per-tenant counts at that instant (the fairness measurement);
/// whatever is still queued or in flight then drains. With `None`,
/// every tenant runs its full `spec.ops`.
///
/// # Errors
///
/// Propagates any IO-path error; an admission denial surfaces as
/// [`vdisk_core::CryptError::RuntimeStalled`].
///
/// # Panics
///
/// Panics if `disks` and `jobs` differ in length, are empty, or a
/// job's `io_size` is zero or exceeds its image.
pub fn run_multi_tenant(
    disks: &mut [EncryptedImage],
    jobs: &[TenantJob],
    inflight_budget: usize,
    stop_after: Option<u64>,
) -> Result<MultiTenantOutcome> {
    assert_eq!(disks.len(), jobs.len(), "one job per disk");
    assert!(!jobs.is_empty(), "at least one tenant");

    let runtime = Runtime::new(inflight_budget);
    let mut handles = Vec::with_capacity(jobs.len());
    let mut queues = Vec::with_capacity(jobs.len());
    // Per tenant: its IO stream and its reaped (completion id, receipt)s.
    let mut gens: Vec<(OpGen, Vec<(u64, Receipt)>)> = Vec::with_capacity(jobs.len());
    for ((i, job), disk) in jobs.iter().enumerate().zip(disks.iter_mut()) {
        gens.push((
            OpGen::new(&job.spec, disk.image().size()),
            Vec::with_capacity(job.spec.ops as usize),
        ));
        let handle = runtime.register(
            TenantSpec::new(format!("tenant-{i}"))
                .weight(job.weight)
                .qd_cap(job.qd_cap)
                .backlog_cap(job.qd_cap.max(2) * 4),
        );
        queues.push(handle.attach(disk.io_queue()));
        handles.push(handle);
    }

    let mut total_completed = 0u64;
    let mut completed_at_stop: Option<Vec<u64>> = None;
    loop {
        let stopped = stop_after.is_some_and(|target| total_completed >= target);
        let mut all_drained = true;
        for ((queue, job), (gen, done)) in queues.iter_mut().zip(jobs).zip(&mut gens) {
            while !stopped && gen.issued < job.spec.ops && queue.backlog() < job.qd_cap.max(1) {
                queue.submit(gen.next_op(&job.spec))?;
            }
            for result in queue.poll()? {
                done.push((result.completion.id(), result.plan));
                total_completed += 1;
            }
            let issuing_done = stopped || gen.issued >= job.spec.ops;
            all_drained &= issuing_done && queue.backlog() == 0 && queue.in_flight() == 0;
        }
        if completed_at_stop.is_none() && stop_after.is_some_and(|t| total_completed >= t) {
            completed_at_stop = Some(gens.iter().map(|(_, done)| done.len() as u64).collect());
        }
        if all_drained {
            break;
        }
        std::thread::yield_now();
    }
    drop(queues);

    let completed_at_stop = completed_at_stop
        .unwrap_or_else(|| gens.iter().map(|(_, done)| done.len() as u64).collect());
    let tenants = handles.iter().map(|h| h.stats()).collect();
    // Tenant by tenant, each in completion-id order.
    let mut ops: Vec<(&Receipt, u64)> = Vec::new();
    for (job, (_, done)) in jobs.iter().zip(&mut gens) {
        done.sort_unstable_by_key(|(id, _)| *id);
        ops.extend(done.iter().map(|(_, receipt)| (receipt, job.spec.io_size)));
    }
    let combined = testbed::simulated(disks[0].image().cluster())
        .run_closed_loop(inflight_budget, ops.into_iter());
    Ok(MultiTenantOutcome {
        completed_at_stop,
        tenants,
        combined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;
    use vdisk_core::EncryptionConfig;

    fn small_disk(config: &EncryptionConfig) -> EncryptedImage {
        testbed::bench_disk(config, 16 << 20, 42)
    }

    #[test]
    fn default_ops_clamps() {
        assert_eq!(default_ops_for(4096), 384);
        assert_eq!(default_ops_for(4 << 20), 40);
    }

    #[test]
    fn precondition_creates_every_object() {
        let mut disk = small_disk(&EncryptionConfig::luks2_baseline());
        precondition(&mut disk).unwrap();
        assert_eq!(disk.image().stat().unwrap().objects_written, 4);
    }

    #[test]
    fn jobs_produce_positive_bandwidth() {
        let mut disk = small_disk(&EncryptionConfig::random_iv_object_end());
        precondition(&mut disk).unwrap();
        for pattern in [
            IoPattern::RandRead,
            IoPattern::RandWrite,
            IoPattern::SeqRead,
            IoPattern::SeqWrite,
        ] {
            let stats = run_job(
                &mut disk,
                &JobSpec {
                    pattern,
                    io_size: 64 << 10,
                    queue_depth: 8,
                    ops: 24,
                    seed: 1,
                },
            )
            .unwrap();
            assert!(stats.bandwidth_mb_s() > 0.0, "{pattern:?}");
            assert_eq!(stats.ops, 24);
        }
    }

    #[test]
    fn mixed_randrw_jobs_issue_both_kinds_and_produce_bandwidth() {
        // A small image so the 128-op mix genuinely revisits slots:
        // re-reads hit the cache, overwrites of cached slots purge it.
        let mut disk =
            testbed::cached_bench_disk(&EncryptionConfig::random_iv_object_end(), 4 << 20, 42);
        precondition(&mut disk).unwrap();
        let before = disk.image().cluster().exec_stats();
        let stats = run_job(
            &mut disk,
            &JobSpec {
                pattern: IoPattern::RANDRW_70_30,
                io_size: 16 << 10,
                queue_depth: 8,
                ops: 128,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(stats.ops, 128);
        assert!(stats.bandwidth_mb_s() > 0.0);
        let delta_tx = disk.image().cluster().exec_stats().transactions - before.transactions;
        assert!(delta_tx > 0, "the mix must contain writes");
        assert!(delta_tx < 128, "the mix must contain reads");
        // Churn exercises the invalidation path: overwrites landed on
        // sectors the reads had cached.
        let stats = disk.meta_cache_stats();
        assert!(stats.meta_cache_hits > 0, "re-read sectors must hit");
        assert!(stats.meta_cache_invalidations > 0, "overwrites must purge");
    }

    /// The acceptance bar for the cache: a read-heavy job on a cached
    /// disk must show hits and a measurably better simulated result
    /// than the identical job with the cache off.
    #[test]
    fn cached_randread_beats_uncached() {
        let spec = JobSpec {
            pattern: IoPattern::RandRead,
            io_size: 64 << 10,
            queue_depth: 8,
            ops: 48,
            seed: 11,
        };
        let config = EncryptionConfig::random_iv_object_end();
        let mut warm = testbed::cached_bench_disk(&config, 16 << 20, 3);
        precondition(&mut warm).unwrap();
        run_job(&mut warm, &spec).unwrap(); // warm the cache
        let cached = run_job(&mut warm, &spec).unwrap();
        assert!(
            warm.meta_cache_stats().meta_cache_hits > 0,
            "warmed rerun must hit"
        );
        let mut cold = testbed::uncached_bench_disk(&config, 16 << 20, 3);
        precondition(&mut cold).unwrap();
        run_job(&mut cold, &spec).unwrap();
        let uncached = run_job(&mut cold, &spec).unwrap();
        assert!(
            cached.bandwidth_mb_s() > uncached.bandwidth_mb_s(),
            "dropping the metadata round trip must show up in simulated bandwidth \
             ({:.1} MB/s cached vs {:.1} MB/s uncached)",
            cached.bandwidth_mb_s(),
            uncached.bandwidth_mb_s()
        );
    }

    /// The multi-tenant driver on an inline cluster: bit-identical
    /// across runs, weight-biased at the stop point, fully drained at
    /// the end.
    #[test]
    fn multi_tenant_run_is_deterministic_and_weight_biased() {
        let run = || {
            let mut disks = testbed::tenant_bench_disks(
                &EncryptionConfig::random_iv_object_end(),
                2,
                4 << 20,
                7,
            );
            for disk in &mut disks {
                precondition(disk).unwrap();
            }
            let jobs: Vec<TenantJob> = [(3u32, 91u64), (1, 92)]
                .iter()
                .map(|&(weight, seed)| TenantJob {
                    spec: JobSpec {
                        pattern: IoPattern::RANDRW_70_30,
                        io_size: 16 << 10,
                        queue_depth: 8,
                        ops: 96,
                        seed,
                    },
                    weight,
                    qd_cap: 8,
                })
                .collect();
            let outcome = run_multi_tenant(&mut disks, &jobs, 8, Some(96)).unwrap();
            let mut total = 0;
            for tenant in &outcome.tenants {
                // Issuance stops at the stop point; what was admitted
                // by then drains completely.
                assert_eq!(tenant.completed_ops, tenant.admitted_ops);
                assert_eq!(tenant.backlog_ops, 0);
                assert_eq!(tenant.in_flight_ops, 0);
                total += tenant.completed_ops;
            }
            assert!(total >= 96, "must reach the stop target: {total}");
            (outcome.completed_at_stop.clone(), outcome.combined.makespan)
        };
        let (counts, makespan) = run();
        assert_eq!(run(), (counts.clone(), makespan), "must be deterministic");
        assert!(
            counts[0] > counts[1],
            "the weight-3 tenant must lead at the stop point: {counts:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut disk = small_disk(&EncryptionConfig::random_iv_object_end());
            precondition(&mut disk).unwrap();
            run_job(
                &mut disk,
                &JobSpec {
                    pattern: IoPattern::RandWrite,
                    io_size: 32 << 10,
                    queue_depth: 8,
                    ops: 32,
                    seed: 9,
                },
            )
            .unwrap()
            .bandwidth_mb_s()
        };
        assert_eq!(run(), run());
    }
}
