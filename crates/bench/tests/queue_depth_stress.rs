//! Queue-depth stress over the real submission queue: a fio randwrite
//! job at QD ≥ 8 through [`vdisk_core::EncryptedIoQueue`], with the
//! cluster's per-shard workers forced on. Asserts the concurrency the
//! paper's bandwidth argument needs:
//!
//! - the client genuinely kept ≥ QD submissions open at once
//!   (`queue_depth_peak`, client-bracketed and therefore deterministic);
//! - ops from *different* submissions are in flight on distinct shard
//!   workers at the same instant (`shard_concurrency_peak >= 2`, with
//!   the overlap staged by holding two shards — deterministic on any
//!   host);
//! - the workload's data is correct (read-back verification).
//!
//! CI runs this under `--release` so the overlap is exercised with
//! optimizations on.

use vdisk_bench::fio::{self, IoPattern, JobSpec};
use vdisk_bench::testbed;
use vdisk_core::{EncryptionConfig, IoOp, IoPayload};

const IMAGE_SIZE: u64 = 64 << 20;
const QD: usize = 8;

#[test]
fn qd8_randwrite_keeps_submissions_in_flight_across_shards() {
    let mut disk =
        testbed::queued_bench_disk(&EncryptionConfig::random_iv_object_end(), IMAGE_SIZE, 5);
    fio::precondition(&mut disk).expect("precondition");
    let stats = fio::run_job(
        &mut disk,
        &JobSpec {
            pattern: IoPattern::RandWrite,
            io_size: 16 << 10,
            queue_depth: QD,
            ops: 512,
            seed: 9,
        },
    )
    .expect("randwrite job");
    assert_eq!(stats.ops, 512);
    assert!(stats.bandwidth_mb_s() > 0.0);

    let cluster = disk.image().cluster();
    let exec = cluster.exec_stats();
    assert!(
        exec.queue_depth_peak >= QD as u64,
        "a depth-{QD} job must keep at least {QD} submissions open, got {}",
        exec.queue_depth_peak
    );
    assert!(exec.shard_fanout_max >= 1);
    assert!(exec.shard_concurrency_peak >= 1);
    assert!(exec.shard_concurrency_peak <= cluster.shard_count() as u64);

    // Overlap across shard workers is staged, not left to the
    // scheduler: park two shards and queue one write behind each hold.
    // Two different submissions are then admitted on two shards at the
    // same instant, however many cores the host has.
    let cluster = cluster.clone();
    let object_size = disk.image().object_size();
    let shard_of = |object_no| cluster.placement_shard(&disk.image().object_name(object_no));
    let first = shard_of(0);
    let (other, second) = (1..IMAGE_SIZE / object_size)
        .map(|object_no| (object_no, shard_of(object_no)))
        .find(|&(_, shard)| shard != first)
        .expect("an image's objects spread over more than one shard");
    let holds = [cluster.hold_shard(first), cluster.hold_shard(second)];
    let mut queue = disk.io_queue();
    for offset in [0, other * object_size] {
        queue
            .submit(IoOp::Write {
                offset,
                data: vec![0x5A; 4096],
            })
            .expect("submit behind a hold");
    }
    let staged_peak = cluster.exec_stats().shard_concurrency_peak;
    drop(holds);
    queue.fence().expect("fence");
    assert!(
        staged_peak >= 2,
        "writes from two submissions held on two shards must both count as in flight, got peak {staged_peak}"
    );
}

#[test]
fn deep_encrypted_queue_round_trips_under_overlap() {
    let mut disk =
        testbed::queued_bench_disk(&EncryptionConfig::random_iv_object_end(), IMAGE_SIZE, 11);
    let mut queue = disk.io_queue();
    // 64 writes with distinct fills over 16 slots — heavy same-sector
    // overlap, all in flight together — then 16 reads, then a fence.
    for i in 0..64u64 {
        let slot = i % 16;
        queue
            .submit(IoOp::Write {
                offset: slot * (256 << 10),
                data: vec![(i + 1) as u8; 256 << 10],
            })
            .expect("submit write");
    }
    let mut read_ids = Vec::new();
    for slot in 0..16u64 {
        let completion = queue
            .submit(IoOp::Read {
                offset: slot * (256 << 10),
                len: 256 << 10,
            })
            .expect("submit read");
        read_ids.push((completion.id(), slot));
    }
    let results = queue.fence().expect("fence");
    assert_eq!(results.len(), 80);
    for result in results {
        if let IoPayload::Data(data) = result.payload {
            let slot = read_ids
                .iter()
                .find(|(id, _)| *id == result.completion.id())
                .expect("read id known")
                .1;
            // Slot s was last written by submission 48 + s (fill 49+s).
            let expected = (49 + slot) as u8;
            assert!(
                data.iter().all(|&b| b == expected),
                "slot {slot}: queued read must see the last queued write"
            );
        }
    }
    let exec = disk.image().cluster().exec_stats();
    assert!(exec.queue_depth_peak >= 80);
}

/// QD 32 at the bench gate's large-block size: every 256 KiB write
/// encrypts at submit while 96 submissions stay open, and the queued
/// reads that follow decrypt as each shard's data lands. The read-back
/// proves ciphertext, metadata, and epoch tags round-trip under real
/// overlap.
#[test]
fn qd32_large_block_round_trips() {
    const IO: u64 = 256 << 10;
    let mut disk =
        testbed::queued_bench_disk(&EncryptionConfig::random_iv_object_end(), IMAGE_SIZE, 11);
    let mut queue = disk.io_queue();
    // Two full QD-32 waves of writes over 32 distinct slots (the
    // second wave overwrites the first in flight), then reads.
    for wave in 0..2u64 {
        for slot in 0..32u64 {
            queue
                .submit(IoOp::Write {
                    offset: slot * IO,
                    data: vec![(wave * 32 + slot + 1) as u8; IO as usize],
                })
                .expect("submit write");
        }
    }
    let mut read_ids = Vec::new();
    for slot in 0..32u64 {
        let completion = queue
            .submit(IoOp::Read {
                offset: slot * IO,
                len: IO,
            })
            .expect("submit read");
        read_ids.push((completion.id(), slot));
    }
    let results = queue.fence().expect("fence");
    assert_eq!(results.len(), 96);
    let mut verified = 0;
    for result in results {
        if let IoPayload::Data(data) = result.payload {
            let slot = read_ids
                .iter()
                .find(|(id, _)| *id == result.completion.id())
                .expect("read id known")
                .1;
            let expected = (32 + slot + 1) as u8; // wave-2 fill
            assert!(
                data.iter().all(|&b| b == expected),
                "slot {slot}: large-block read must see the second-wave write"
            );
            verified += 1;
        }
    }
    assert_eq!(verified, 32);
    let exec = disk.image().cluster().exec_stats();
    assert!(
        exec.queue_depth_peak >= 96,
        "all 96 submissions must have been open at once, got {}",
        exec.queue_depth_peak
    );
}
