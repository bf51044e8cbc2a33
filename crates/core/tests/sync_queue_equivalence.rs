//! Property: the synchronous wrappers **are** the queue at depth 1.
//!
//! Twin images — same layout, same seeded IV source, each on its own
//! inline-apply cluster — run the same operation sequence: one through
//! `write`/`write_owned`/`read`, the other through
//! `io_queue().submit` + `fence`. Every op must return the same
//! [`Receipt`] — the whole record of its physical work, so the same
//! priced plan — and move the cluster's
//! [`ExecStats`](vdisk_rados::ExecStats) and the image's cache totals
//! (`EncryptedImage::meta_cache_stats`) identically, and at the end
//! every touched sector must hold the same
//! ciphertext and metadata and the images the same plaintext. This is
//! what lets `bench_gate` (which drives the queue) speak for the sync
//! API too.

use proptest::prelude::*;
use vdisk_core::{EncryptedImage, EncryptionConfig, IoOp, IoPayload, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{Cluster, Receipt};
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 4 << 20;
const OBJECT_SIZE: u64 = 1 << 20;
const SS: u64 = 4096;

#[derive(Debug, Clone)]
enum Action {
    /// `owned` picks `write_owned` over the borrowing `write`.
    Write {
        offset: u64,
        len: usize,
        fill: u8,
        owned: bool,
    },
    Read {
        offset: u64,
        len: usize,
    },
}

/// Offsets and lengths mixing sector-aligned values, unaligned ones
/// (the RMW path) and spans crossing the 1 MiB object boundary.
fn extent_strategy() -> impl Strategy<Value = (u64, usize)> {
    prop_oneof![
        // Sector-aligned, up to 40 sectors.
        (0u64..IMAGE_SIZE / SS, 1usize..40).prop_map(|(s, n)| (s * SS, n * SS as usize)),
        // Anywhere, any length.
        (0u64..IMAGE_SIZE, 1usize..70_000),
        // Straddling an object boundary, unaligned at both ends.
        (1u64..4, 1u64..9000, 1usize..9000).prop_map(|(object, before, after)| (
            object * OBJECT_SIZE - before,
            before as usize + after
        )),
    ]
    .prop_map(|(offset, len): (u64, usize)| (offset, len.min((IMAGE_SIZE - offset) as usize)))
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (extent_strategy(), any::<u8>(), any::<bool>()).prop_map(|((offset, len), fill, owned)| {
            Action::Write {
                offset,
                len,
                fill,
                owned,
            }
        }),
        extent_strategy().prop_map(|(offset, len)| Action::Read { offset, len }),
    ]
}

fn make_disk(config: &EncryptionConfig) -> EncryptedImage {
    let cluster = Cluster::builder().concurrent_apply(false).build();
    let image = Image::create_with_object_size(&cluster, "twin", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    EncryptedImage::format_with_iv_source(
        image,
        config,
        b"equivalence",
        Box::new(SeededIvSource::new(0x5EED)),
    )
    .unwrap()
}

/// Submits `op` alone and fences: the queue at depth 1.
fn queued(disk: &mut EncryptedImage, op: IoOp) -> (Receipt, IoPayload) {
    let mut queue = disk.io_queue();
    queue.submit(op).unwrap();
    let mut done = queue.fence().unwrap();
    assert_eq!(done.len(), 1);
    let result = done.pop().unwrap();
    (result.plan, result.payload)
}

fn run_case(config: &EncryptionConfig, actions: &[Action]) {
    let mut sync = make_disk(config);
    let mut aio = make_disk(config);
    let mut touched = std::collections::BTreeSet::new();

    for (step, action) in actions.iter().enumerate() {
        match *action {
            Action::Write {
                offset,
                len,
                fill,
                owned,
            } => {
                let data = vec![fill; len];
                let sync_receipt = if owned {
                    sync.write_owned(offset, data.clone()).unwrap()
                } else {
                    sync.write(offset, &data).unwrap()
                };
                let (aio_receipt, payload) = queued(&mut aio, IoOp::Write { offset, data });
                assert_eq!(payload, IoPayload::None);
                assert_eq!(
                    sync_receipt, aio_receipt,
                    "step {step}: {action:?} receipts differ"
                );
                touched.extend(offset / SS..(offset + len as u64).div_ceil(SS));
            }
            Action::Read { offset, len } => {
                let mut buf = vec![0u8; len];
                let sync_receipt = sync.read(offset, &mut buf).unwrap();
                let (aio_receipt, payload) = queued(
                    &mut aio,
                    IoOp::Read {
                        offset,
                        len: len as u64,
                    },
                );
                assert_eq!(
                    sync_receipt, aio_receipt,
                    "step {step}: {action:?} receipts differ"
                );
                assert_eq!(payload.data(), &buf[..], "step {step}: {action:?}");
            }
        }
        assert_eq!(
            sync.image().cluster().exec_stats(),
            aio.image().cluster().exec_stats(),
            "step {step}: {action:?} moved the cluster counters differently"
        );
        assert_eq!(
            sync.meta_cache_stats(),
            aio.meta_cache_stats(),
            "step {step}: {action:?} moved the cache totals differently"
        );
    }

    // Same bytes on disk: ciphertext and per-sector metadata.
    for &lba in &touched {
        assert_eq!(
            sync.observe_sector(lba, None).unwrap(),
            aio.observe_sector(lba, None).unwrap(),
            "sector {lba} stored differently"
        );
    }
    // Same plaintext.
    let mut a = vec![0u8; IMAGE_SIZE as usize];
    let mut b = vec![0u8; IMAGE_SIZE as usize];
    sync.read(0, &mut a).unwrap();
    aio.read(0, &mut b).unwrap();
    assert!(a == b, "final plaintext differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sync_wrappers_equal_the_queue_at_depth_one_baseline(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_case(&EncryptionConfig::luks2_baseline(), &actions);
    }

    #[test]
    fn sync_wrappers_equal_the_queue_at_depth_one_unaligned(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_case(&EncryptionConfig::random_iv(MetaLayout::Unaligned), &actions);
    }

    #[test]
    fn sync_wrappers_equal_the_queue_at_depth_one_object_end(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_case(&EncryptionConfig::random_iv(MetaLayout::ObjectEnd), &actions);
    }

    #[test]
    fn sync_wrappers_equal_the_queue_at_depth_one_omap(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_case(&EncryptionConfig::random_iv(MetaLayout::Omap), &actions);
    }
}
