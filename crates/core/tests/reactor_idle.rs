//! Idle-CPU regression test for the completion reactor: a reap call
//! blocked on a deliberately delayed shard must **park** on the queue
//! doorbell, not spin. The proof is observable and non-time-based:
//! [`EncryptedIoQueue::idle_passes`] counts park-and-wakeup cycles, so
//! a single delayed completion accounts for ~1 pass — a busy-wait
//! (the old bounded-spin loop) would rack up thousands.

use std::time::Duration;
use vdisk_core::{EncryptedImage, EncryptedIoQueue, EncryptionConfig, IoOp, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::Cluster;
use vdisk_rbd::Image;

#[test]
fn wait_parks_instead_of_spinning_on_a_delayed_shard() {
    // Workers forced on: holds are meaningless in inline mode.
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let image = Image::create(&cluster, "reactor-idle", 16 << 20).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"park",
        Box::new(SeededIvSource::new(17)),
    )
    .unwrap();

    // Park every shard worker *before* submitting, so the write's
    // completion is delayed until the holds release.
    let holds: Vec<_> = (0..cluster.shard_count())
        .map(|shard| cluster.hold_shard(shard))
        .collect();

    let mut queue: EncryptedIoQueue<'_> = disk.io_queue();
    queue
        .submit(IoOp::Write {
            offset: 0,
            data: vec![0xAB; 4096],
        })
        .unwrap();
    assert_eq!(queue.in_flight(), 1);

    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(holds);
    });
    let done = queue.wait().unwrap();
    releaser.join().unwrap();
    assert_eq!(done.len(), 1, "the delayed write must reap");
    assert_eq!(queue.in_flight(), 0);

    // The reactor parked once for the delayed completion (a couple of
    // passes at most if a wakeup races the hold release). Any spin
    // loop over a ~100 ms delay would count orders of magnitude more.
    let idle = queue.idle_passes();
    assert!(
        idle <= 3,
        "wait must park on the doorbell, not spin: {idle} idle passes"
    );

    drop(queue);
    let mut buf = vec![0u8; 4096];
    disk.read(0, &mut buf).unwrap();
    assert_eq!(buf, vec![0xAB; 4096]);
}

#[test]
fn fence_parks_across_multiple_delayed_ops() {
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let image = Image::create(&cluster, "reactor-fence", 16 << 20).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"park",
        Box::new(SeededIvSource::new(18)),
    )
    .unwrap();

    let holds: Vec<_> = (0..cluster.shard_count())
        .map(|shard| cluster.hold_shard(shard))
        .collect();
    let mut queue = disk.io_queue();
    for i in 0..4u64 {
        queue
            .submit(IoOp::Write {
                offset: i * 4096,
                data: vec![i as u8; 4096],
            })
            .unwrap();
    }
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        drop(holds);
    });
    let done = queue.fence().unwrap();
    releaser.join().unwrap();
    assert_eq!(done.len(), 4);

    // One park per still-delayed queue head at most: the bound is the
    // op count, not time × spin rate.
    let idle = queue.idle_passes();
    assert!(
        idle <= 8,
        "fence must park per delayed completion, not spin: {idle} idle passes"
    );
}

#[test]
fn a_multi_shard_read_parks_at_most_once() {
    // Doorbells ring once per submission (when its last shard lands),
    // not once per shard: a read fanned out over 4 held shards wakes
    // its reaper a single time, however the releases are staggered.
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let image =
        Image::create_with_object_size(&cluster, "reactor-read", 16 << 20, 1 << 20).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"park",
        Box::new(SeededIvSource::new(19)),
    )
    .unwrap();
    let len = 4 << 20;
    disk.write(0, &vec![0x5A; len]).unwrap();

    let holds: Vec<_> = (0..cluster.shard_count())
        .map(|shard| cluster.hold_shard(shard))
        .collect();
    let mut queue = disk.io_queue();
    queue
        .submit(IoOp::Read {
            offset: 0,
            len: len as u64,
        })
        .unwrap();
    let releaser = std::thread::spawn(move || {
        for hold in holds {
            std::thread::sleep(Duration::from_millis(10));
            drop(hold);
        }
    });
    let done = queue.wait_any().unwrap();
    releaser.join().unwrap();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].stats.shard_fanout_max, 4, "the read spans 4 shards");
    assert_eq!(done[0].payload.data(), &vec![0x5A; len][..]);
    let idle = queue.idle_passes();
    assert!(
        idle <= 1,
        "one ring per submission means one park: {idle} idle passes"
    );
}
