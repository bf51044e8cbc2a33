//! Many-images multi-tenant stress: a fleet of tenants with mixed
//! weights and workloads driving their own encrypted images on one
//! shared cluster through the client runtime's admission control and
//! weighted fair scheduler. Asserts the QoS acceptance bar:
//!
//! - 3:1 weights yield completed-op throughput within 2x of 3:1 at
//!   the contended stop point, and **no tenant starves**;
//! - tenants on separate threads sharing one runtime all complete
//!   with their data intact (cross-thread arbitration);
//! - a background rekey running as a weight-1 tenant completes while
//!   a weight-3 client tenant saturates the shared budget from its own
//!   thread; both images stay byte-exact and the client completes more
//!   bytes than the rekey.
//!
//! CI runs this under `--release` in the stress job, plus one small
//! fleet pass with `VDISK_BACKEND=file` (the suite builds default
//! clusters, so the backend selection applies).

use std::sync::atomic::{AtomicBool, Ordering};
use vdisk_bench::fio::{self, IoPattern, JobSpec, TenantJob};
use vdisk_bench::testbed;
use vdisk_core::{
    EncryptedImage, EncryptionConfig, IoOp, Runtime, TenantSpec, DEFAULT_QUEUE_DEPTH,
};
use vdisk_rados::Cluster;

fn fleet_on(cluster: &Cluster, n: usize, size: u64) -> Vec<EncryptedImage> {
    (0..n)
        .map(|i| {
            testbed::named_disk_on(
                cluster,
                &format!("img-{i}"),
                &EncryptionConfig::random_iv_object_end(),
                size,
                1000 + i as u64,
            )
        })
        .collect()
}

/// Twelve tenants (weights alternating 3 and 1) on an 8-shard cluster
/// with workers on: at the contended stop point the weight groups'
/// completed ops sit within 2x of 3:1, and every tenant made progress.
#[test]
fn mixed_weight_fleet_tracks_3_to_1_and_starves_nobody() {
    let cluster = Cluster::builder()
        .concurrent_apply(true)
        .shard_count(8)
        .build();
    let mut disks = fleet_on(&cluster, 12, 2 << 20);
    let jobs: Vec<TenantJob> = (0..12)
        .map(|i| TenantJob {
            spec: JobSpec {
                // Mixed workloads: the even tenants churn 70/30, the
                // odd ones are pure random writes.
                pattern: if i % 2 == 0 {
                    IoPattern::RANDRW_70_30
                } else {
                    IoPattern::RandWrite
                },
                io_size: 8 << 10,
                queue_depth: 4,
                ops: 400,
                seed: 300 + i as u64,
            },
            weight: if i % 2 == 0 { 3 } else { 1 },
            qd_cap: 4,
        })
        .collect();

    let outcome = fio::run_multi_tenant(&mut disks, &jobs, 8, Some(480)).expect("fleet run");

    let (mut heavy, mut light) = (0u64, 0u64);
    for (i, &count) in outcome.completed_at_stop.iter().enumerate() {
        assert!(count > 0, "tenant {i} starved at the stop point");
        if i % 2 == 0 {
            heavy += count;
        } else {
            light += count;
        }
    }
    let ratio = heavy as f64 / light as f64;
    assert!(
        (1.5..=6.0).contains(&ratio),
        "3:1 weights must land within 2x of 3:1, got {ratio:.2} ({heavy} vs {light})"
    );
}

/// Four tenants on their own threads, one shared runtime: every op
/// completes, and each tenant's bytes survive readback — arbitration
/// across real thread interleavings never loses or corrupts IO.
#[test]
fn threaded_tenants_share_one_runtime_without_loss() {
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let runtime = Runtime::new(4);
    const OPS: u64 = 48;
    const IO: u64 = 16 << 10;

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..4u64 {
            let cluster = cluster.clone();
            let handle = runtime.register(
                TenantSpec::new(format!("thread-{t}"))
                    .weight(if t == 0 { 3 } else { 1 })
                    .qd_cap(4)
                    .backlog_cap(16),
            );
            workers.push(scope.spawn(move || {
                let mut disk = testbed::named_disk_on(
                    &cluster,
                    &format!("threaded-{t}"),
                    &EncryptionConfig::random_iv_object_end(),
                    2 << 20,
                    70 + t,
                );
                let fill = 0x10 + t as u8;
                {
                    let mut queue = handle.attach(disk.io_queue());
                    for i in 0..OPS {
                        let offset = (i * IO) % (2 << 20);
                        queue
                            .submit_blocking(IoOp::Write {
                                offset,
                                data: vec![fill; IO as usize],
                            })
                            .expect("tenant submit");
                    }
                    let _ = queue.fence().expect("tenant fence");
                }
                let stats = handle.stats();
                assert_eq!(stats.completed_ops, OPS, "thread-{t} lost ops");
                assert_eq!(stats.backlog_ops, 0);
                assert_eq!(stats.in_flight_ops, 0);
                let mut buf = vec![0u8; IO as usize];
                disk.read(0, &mut buf).expect("readback");
                assert!(
                    buf.iter().all(|&b| b == fill),
                    "thread-{t} readback corrupt"
                );
            }));
        }
        for worker in workers {
            worker.join().expect("tenant thread");
        }
    });
    assert_eq!(runtime.in_flight(), 0);
}

/// Background rekey as a weight-1 tenant while a weight-3 client
/// tenant saturates the shared budget from its own thread: the
/// migration completes, both images read back byte-exact, and the
/// scheduler's weights alone keep the client ahead — it completes
/// more bytes than the rekey tenant.
#[test]
fn background_rekey_tenant_yields_under_client_saturation() {
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let image_size: u64 = 16 << 20;
    let mut disk = testbed::named_disk_on(
        &cluster,
        "rekey-under-load",
        &EncryptionConfig::random_iv_object_end(),
        image_size,
        77,
    );
    let pattern: Vec<u8> = (0..image_size).map(|i| (i % 239) as u8).collect();
    disk.write(0, &pattern).expect("pattern write");

    let runtime = Runtime::new(8);
    let rekey = runtime.register(TenantSpec::new("rekey").weight(1).qd_cap(8).backlog_cap(8));
    let client = runtime.register(
        TenantSpec::new("client")
            .weight(3)
            .qd_cap(8)
            .backlog_cap(16),
    );
    let (rekey_id, client_id) = (rekey.id(), client.id());
    let driver = disk
        .rekey_begin_with_iterations(b"bench-passphrase", b"bench-passphrase-2", 25)
        .expect("rekey begin")
        .with_chunk_sectors(4)
        .with_queue_depth(DEFAULT_QUEUE_DEPTH)
        .with_runtime_tenant(rekey);

    const IO: u64 = 16 << 10;
    const CLIENT_SIZE: u64 = 1 << 20;
    let rekey_done = AtomicBool::new(false);
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let saturator = scope.spawn(|| {
            let mut client_disk = testbed::named_disk_on(
                &cluster,
                "saturator",
                &EncryptionConfig::random_iv_object_end(),
                CLIENT_SIZE,
                78,
            );
            let mut expected = vec![0u8; CLIENT_SIZE as usize];
            {
                // Submits without waiting and reaps only every 16
                // submissions, so the client always holds a backlog or
                // its share of the budget while the rekey runs.
                let mut queue = client.attach(client_disk.io_queue());
                let mut i = 0u64;
                while i == 0 || !rekey_done.load(Ordering::Acquire) {
                    let offset = (i * IO) % CLIENT_SIZE;
                    let fill = (i % 251) as u8 + 1;
                    queue
                        .submit_blocking(IoOp::Write {
                            offset,
                            data: vec![fill; IO as usize],
                        })
                        .expect("client submit");
                    expected[offset as usize..(offset + IO) as usize].fill(fill);
                    if i % 16 == 15 {
                        queue.poll().expect("client poll");
                    }
                    if i == 0 {
                        started_tx.send(()).expect("start signal");
                    }
                    i += 1;
                }
                queue.fence().expect("client fence");
            }
            let mut readback = vec![0u8; CLIENT_SIZE as usize];
            client_disk.read(0, &mut readback).expect("client readback");
            assert!(readback == expected, "client image corrupted");
        });
        // The rekey starts only once the client is already saturating.
        started_rx.recv().expect("client started");
        driver.drive_to_completion(&mut disk).expect("completion");
        rekey_done.store(true, Ordering::Release);
        saturator.join().expect("client thread");
    });

    let mut readback = vec![0u8; image_size as usize];
    disk.read(0, &mut readback).expect("readback");
    assert!(readback == pattern, "migration corrupted data");
    let rekey_bytes = runtime.tenant_stats(rekey_id).completed_bytes;
    let client_bytes = runtime.tenant_stats(client_id).completed_bytes;
    // Every sector was read and rewritten through the rekey tenant.
    assert_eq!(rekey_bytes, 2 * image_size);
    assert!(
        client_bytes > rekey_bytes,
        "the weight-3 client completed {client_bytes} bytes, the weight-1 rekey {rekey_bytes}"
    );
    assert_eq!(runtime.in_flight(), 0);
}

/// A small fleet through the default cluster builder — the test the
/// CI stress job re-runs with `VDISK_BACKEND=file` to smoke the
/// multi-tenant path against the durable backend.
#[test]
fn smoke_small_fleet_on_selected_backend() {
    let cluster = Cluster::builder().build();
    let mut disks = fleet_on(&cluster, 3, 1 << 20);
    let jobs: Vec<TenantJob> = (0..3)
        .map(|i| TenantJob {
            spec: JobSpec {
                pattern: IoPattern::RANDRW_70_30,
                io_size: 8 << 10,
                queue_depth: 4,
                ops: 24,
                seed: 400 + i as u64,
            },
            weight: 1 + i as u32,
            qd_cap: 4,
        })
        .collect();
    let outcome = fio::run_multi_tenant(&mut disks, &jobs, 4, None).expect("smoke fleet");
    for (tenant, job) in outcome.tenants.iter().zip(&jobs) {
        assert_eq!(
            tenant.completed_ops, job.spec.ops,
            "{} lost ops",
            tenant.name
        );
    }
    assert!(outcome.combined.ops > 0);
}
