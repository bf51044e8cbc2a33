//! The batched-pipeline contract:
//!
//! 1. a write spanning N objects issues exactly N transactions,
//!    dispatched in **one** batch: its receipt holds the N transactions
//!    and its priced plan is `Plan::par` over them (no sequential
//!    per-extent execution), and
//! 2. the batched path leaves **byte-identical** object contents (data
//!    and OMAP metadata) to a legacy-style per-sector write loop, for
//!    the baseline and all three metadata layouts.

use vdisk::bench::testbed;
use vdisk::core::{EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk::crypto::rng::{SeededIvSource, SeededRng};
use vdisk::rados::{Cluster, ReadOp};
use vdisk::rbd::Image;
use vdisk::sim::Plan;

const OBJECT: u64 = 4 << 20;

fn all_variants() -> Vec<EncryptionConfig> {
    vec![
        EncryptionConfig::luks2_baseline(),
        EncryptionConfig::random_iv(MetaLayout::Unaligned),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        EncryptionConfig::random_iv(MetaLayout::Omap),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac(),
        EncryptionConfig::random_iv(MetaLayout::Omap)
            .with_mac()
            .with_snapshot_binding(),
    ]
}

fn make_disk(config: &EncryptionConfig, seed: u64) -> (Cluster, EncryptedImage) {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "batch", 32 << 20).unwrap();
    let disk = EncryptedImage::format_with_iv_source(
        image,
        config,
        b"batch-pipeline",
        Box::new(SeededIvSource::new(seed)),
    )
    .unwrap();
    (cluster, disk)
}

#[test]
fn spanning_write_dispatches_n_transactions_in_one_parallel_batch() {
    for config in all_variants() {
        let (cluster, mut disk) = make_disk(&config, 7);
        // Spans objects 0..=3: the tail of object 0, all of 1 and 2,
        // and the head of object 3.
        let offset = OBJECT - 4096;
        let data = vec![0x5C_u8; (2 * OBJECT + 8192) as usize];
        let before = cluster.exec_stats();
        let receipt = disk.write(offset, &data).unwrap();
        let stats = cluster.exec_stats();

        assert_eq!(
            stats.transactions - before.transactions,
            4,
            "config {config:?}: one transaction per touched object"
        );
        assert_eq!(
            stats.batches - before.batches,
            1,
            "config {config:?}: all transactions ride one batch"
        );

        // The receipt: the whole aligned span encrypted, one record per
        // transaction.
        assert_eq!(receipt.crypto, data.len() as u64, "config {config:?}");
        assert_eq!(receipt.txs.len(), 4, "config {config:?}");
        // Plan shape: client-side crypto, then a parallel dispatch
        // stage with one child per transaction.
        let plan = testbed::simulated(&cluster).plan_of(&receipt);
        let Plan::Seq(stages) = &plan else {
            panic!("config {config:?}: expected crypto → dispatch, got {plan:?}");
        };
        let Some(Plan::Par(dispatch)) = stages.last() else {
            panic!(
                "config {config:?}: dispatch stage must be parallel, got {:?}",
                stages.last()
            );
        };
        assert_eq!(
            dispatch.len(),
            4,
            "config {config:?}: dispatch fans out over every transaction"
        );
    }
}

#[test]
fn single_object_write_is_still_one_batch() {
    let (cluster, mut disk) = make_disk(&EncryptionConfig::random_iv_object_end(), 9);
    let before = cluster.exec_stats();
    disk.write(8192, &vec![1u8; 4096]).unwrap();
    let stats = cluster.exec_stats();
    assert_eq!(stats.transactions - before.transactions, 1);
    assert_eq!(stats.batches - before.batches, 1);
}

/// An object's data bytes and OMAP entries.
type RawObject = (Vec<u8>, Vec<(Vec<u8>, Vec<u8>)>);

/// Reads one object's full raw state (data extent and OMAP entries)
/// for comparison across write paths.
fn raw_object_state(cluster: &Cluster, object: &str, footprint: u64) -> RawObject {
    let (results, _) = cluster
        .read(
            object,
            None,
            &[
                ReadOp::Read {
                    offset: 0,
                    len: footprint,
                },
                ReadOp::OmapGetRange {
                    start: Vec::new(),
                    end: vec![0xFF; 9],
                },
            ],
        )
        .unwrap();
    (results[0].as_data().to_vec(), results[1].as_omap().to_vec())
}

#[test]
fn batched_and_per_sector_paths_store_identical_bytes() {
    for config in all_variants() {
        // Same IV seed on both sides: the batched pipeline and a
        // legacy-style sector-by-sector loop must consume IVs in the
        // same order and therefore persist identical ciphertext,
        // metadata, and OMAP entries.
        let (batched_cluster, mut batched_disk) = make_disk(&config, 42);
        let (legacy_cluster, mut legacy_disk) = make_disk(&config, 42);

        let offset = OBJECT - 8192;
        let mut data = vec![0u8; (OBJECT + 16384) as usize];
        SeededRng::new(0xDA7A).fill_bytes(&mut data);

        batched_disk.write(offset, &data).unwrap();
        for (i, sector) in data.chunks(4096).enumerate() {
            legacy_disk.write(offset + i as u64 * 4096, sector).unwrap();
        }

        let footprint = batched_disk.placement().object_footprint();
        let mut objects = batched_cluster.list_objects();
        objects.retain(|o| o.starts_with("rbd_data."));
        assert_eq!(objects.len(), 3, "write spans three objects");
        assert_eq!(
            legacy_cluster.list_objects(),
            batched_cluster.list_objects()
        );

        for object in &objects {
            let batched = raw_object_state(&batched_cluster, object, footprint);
            let legacy = raw_object_state(&legacy_cluster, object, footprint);
            assert_eq!(
                batched, legacy,
                "config {config:?}: object {object} diverged between paths"
            );
        }

        // And the logical disk reads back the written data.
        let mut buf = vec![0u8; data.len()];
        batched_disk.read(offset, &mut buf).unwrap();
        assert_eq!(buf, data, "config {config:?}");
    }
}

#[test]
fn batched_reads_fan_out_like_batched_writes() {
    let (cluster, mut disk) = make_disk(&EncryptionConfig::random_iv_object_end(), 3);
    let offset = OBJECT - 4096;
    let data = vec![0xABu8; (OBJECT + 8192) as usize];
    disk.write(offset, &data).unwrap();

    let before = cluster.exec_stats();
    let mut buf = vec![0u8; data.len()];
    let receipt = disk.read(offset, &mut buf).unwrap();
    assert_eq!(buf, data);
    // Three objects fetched as three read ops in one vectored call.
    assert_eq!(cluster.exec_stats().read_ops - before.read_ops, 3);
    assert_eq!(receipt.reads.len(), 3);
    assert_eq!(receipt.crypto, data.len() as u64);
    let plan = testbed::simulated(&cluster).plan_of(&receipt);
    let Plan::Seq(stages) = &plan else {
        panic!("expected dispatch → crypto, got {plan:?}");
    };
    assert!(
        matches!(stages.first(), Some(Plan::Par(children)) if children.len() == 3),
        "read dispatch must be parallel over the three objects"
    );
}
