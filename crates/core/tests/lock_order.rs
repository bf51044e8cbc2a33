//! The lock order a tenant workload actually takes, as recorded by
//! `vdisk_rados::sync`'s run-time checker (debug builds only).
//!
//! Two encrypted tenants share a one-slot runtime, so completions of
//! one ring the other's doorbell under the runtime's lock. The graph
//! must contain that edge, `Runtime::inner -> Doorbell::state`, and
//! none of the orders a condvar wait or a helper that drops its guard
//! could be mistaken for: a condvar wait releases its lock, and a
//! submission's progress lock is left before its bell rings.

#![cfg(debug_assertions)]

use vdisk_core::{EncryptedImage, EncryptionConfig, IoOp, MetaLayout, Runtime, TenantSpec};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::sync::recorded_edges;
use vdisk_rados::Cluster;
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 4 << 20;
const OBJECT_SIZE: u64 = 1 << 20;
const SECTOR: u64 = 4096;

fn disk(cluster: &Cluster, name: &str, seed: u64) -> EncryptedImage {
    let image = Image::create_with_object_size(cluster, name, IMAGE_SIZE, OBJECT_SIZE).unwrap();
    EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"lock-order",
        Box::new(SeededIvSource::new(seed)),
    )
    .unwrap()
}

#[test]
fn a_tenant_workload_records_only_the_true_lock_order() {
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let mut disk_a = disk(&cluster, "a", 1);
    let mut disk_b = disk(&cluster, "b", 2);
    let runtime = Runtime::new(1);
    let tenant_a = runtime.register(TenantSpec::new("a"));
    let tenant_b = runtime.register(TenantSpec::new("b"));
    let mut a = tenant_a.attach(disk_a.io_queue());
    let mut b = tenant_b.attach(disk_b.io_queue());
    let write = |sector: u64| IoOp::Write {
        offset: sector * SECTOR,
        data: vec![sector as u8; SECTOR as usize],
    };

    for round in 0..8u64 {
        // `a` alone: its ops take the one slot in turn.
        for i in 0..4 {
            a.submit(write(round * 4 + i)).unwrap();
        }
        assert_eq!(a.fence().unwrap().len(), 4);
        // `a` holds the slot and `b` backlogs behind it, so reaping
        // `a`'s op rings `b`'s bell under the runtime's lock.
        a.submit(write(round)).unwrap();
        b.submit(IoOp::Read {
            offset: round * SECTOR,
            len: SECTOR,
        })
        .unwrap();
        assert_eq!(b.backlog(), 1);
        assert_eq!(a.fence().unwrap().len(), 1);
        assert_eq!(b.fence().unwrap().len(), 1);
    }
    drop((a, b));

    let edges = recorded_edges();
    println!("recorded lock order: {edges:?}");
    assert!(
        edges.contains(&("Runtime::inner", "Doorbell::state")),
        "{edges:?}"
    );
    for false_edge in [
        ("WorkerQueue::inner", "Progress::state"),
        ("Doorbell::state", "Progress::state"),
        ("Progress::state", "Doorbell::state"),
    ] {
        assert!(!edges.contains(&false_edge), "{false_edge:?} in {edges:?}");
    }
}
