//! Golden oracle for physical placement: every metadata layout, run
//! through one fixed write program with seeded IVs, must leave exactly
//! these bytes in the store.
//!
//! `tests/layout_equivalence.rs` proves the layouts present the same
//! *logical* disk; this file pins where each layout puts the bytes.
//! Each digest is a SHA-256 over
//!
//! 1. every data object's bytes and full OMAP, at the head and at the
//!    program's snapshot;
//! 2. `observe_sector` for a few LBAs, one of them never written;
//! 3. the decrypted read-back of the whole image, at the head and at
//!    the snapshot.
//!
//! A refactor of the layout code must leave every digest unchanged.
//! A digest changes only with a deliberate on-disk format change, and
//! then the new value is pinned in the same change.

use vdisk_core::{Cipher, EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_crypto::mem::to_hex;
use vdisk_crypto::rng::SeededIvSource;
use vdisk_crypto::sha256::sha256;
use vdisk_rados::{Cluster, ReadOp, ReadResult, SnapId};
use vdisk_rbd::Image;

/// Small objects keep the digests cheap while the program still
/// crosses object boundaries.
const OBJECT: u64 = 64 << 10;
const IMAGE: u64 = 4 * OBJECT;

fn pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(31)
                .wrapping_add(seed.wrapping_mul(7))
        })
        .collect()
}

/// Appends `bytes` with its length, so adjacent fields cannot alias.
fn put(transcript: &mut Vec<u8>, bytes: &[u8]) {
    transcript.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    transcript.extend_from_slice(bytes);
}

/// Every data object's bytes and OMAP as of `snap` (`None` = head).
fn dump_objects(cluster: &Cluster, snap: Option<SnapId>, transcript: &mut Vec<u8>) {
    for object in cluster.list_objects() {
        if !object.starts_with("rbd_data.") {
            continue;
        }
        put(transcript, object.as_bytes());
        let meta_ops = [
            ReadOp::Stat,
            ReadOp::OmapGetRange {
                start: Vec::new(),
                end: vec![0xFF; 9],
            },
        ];
        let Ok((results, _)) = cluster.read(&object, snap, &meta_ops) else {
            // Born after the snapshot.
            put(transcript, b"absent");
            continue;
        };
        let ReadResult::Stat { size } = results[0] else {
            panic!("stat result expected");
        };
        let (data, _) = cluster
            .read(
                &object,
                snap,
                &[ReadOp::Read {
                    offset: 0,
                    len: size,
                }],
            )
            .unwrap();
        put(transcript, data[0].as_data());
        for (key, value) in results[1].as_omap() {
            put(transcript, key);
            put(transcript, value);
        }
    }
}

/// Runs the fixed program under `config` and returns its digest.
fn digest(config: &EncryptionConfig) -> String {
    let ss = u64::from(config.sector_size);
    let spo = OBJECT / ss;
    let cluster = Cluster::builder().build();
    let image = Image::create_with_object_size(&cluster, "golden", IMAGE, OBJECT).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        config,
        b"golden",
        Box::new(SeededIvSource::new(0x601D)),
    )
    .unwrap();

    disk.write(0, &pattern(1, 3 * ss)).unwrap();
    // Sub-sector: read-modify-write of sector 1.
    disk.write(ss + 37, &pattern(2, 100)).unwrap();
    // Unaligned at both ends and spanning objects 0 and 1.
    disk.write(OBJECT - ss - 5, &pattern(3, 2 * ss + 11))
        .unwrap();
    let snap = disk.snap_create("golden").unwrap();
    // Overwrites after the snapshot: aligned, then sub-sector across a
    // sector boundary.
    disk.write(0, &pattern(4, ss)).unwrap();
    disk.write(2 * ss - 10, &pattern(5, 20)).unwrap();
    // An object born after the snapshot.
    disk.write(2 * OBJECT + 3 * ss, &pattern(6, 2 * ss))
        .unwrap();

    let mut transcript = Vec::new();
    dump_objects(&cluster, None, &mut transcript);
    dump_objects(&cluster, Some(snap), &mut transcript);

    // Sector 8 of object 0 is never written.
    let unwritten = 8;
    let observed = [
        (0, None),
        (0, Some(snap)),
        (1, None),
        (2, None),
        (unwritten, None),
        (spo - 1, None),
        (spo, Some(snap)),
        (2 * spo + 3, None),
    ];
    for (lba, at) in observed {
        let obs = disk.observe_sector(lba, at).unwrap();
        assert_eq!(obs.lba, lba);
        transcript.extend_from_slice(&lba.to_le_bytes());
        put(&mut transcript, &obs.ciphertext);
        match &obs.meta {
            None => put(&mut transcript, b"no meta"),
            Some(meta) => put(&mut transcript, meta),
        }
        if lba == unwritten && config.layout == Some(MetaLayout::Omap) {
            assert_eq!(obs.meta, None, "a never-written OMAP sector has no entry");
        }
        if config.layout.is_none() {
            assert_eq!(obs.meta, None, "the baseline stores no metadata");
        }
    }

    let mut head = vec![0u8; IMAGE as usize];
    disk.read(0, &mut head).unwrap();
    put(&mut transcript, &head);
    let mut frozen = vec![0u8; IMAGE as usize];
    disk.read_at_snap(snap, 0, &mut frozen).unwrap();
    put(&mut transcript, &frozen);

    to_hex(&sha256(&transcript))
}

fn check(config: &EncryptionConfig, pinned: &str) {
    assert_eq!(digest(config), pinned, "physical placement changed");
}

#[test]
fn luks2_baseline_placement_is_pinned() {
    check(
        &EncryptionConfig::luks2_baseline(),
        "5d189608a0dae76d6dbc54ce9ca67bbfb38c75f120f03abb27f33c8215755a76",
    );
}

#[test]
fn unaligned_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::Unaligned),
        "1ebb4862079c93bcc33c2ee739f136241d7d7c00ededa2e9877f430fbaf0dea6",
    );
}

#[test]
fn object_end_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        "c2f62803e28c48f82c56103479643df84d04b81cf769a5e5387f0aeb2e85c253",
    );
}

#[test]
fn omap_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::Omap),
        "5f024bee25392ad084227e71ecc6428d342f68864842f6df4e1d544a2675a93d",
    );
}

#[test]
fn object_end_with_mac_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac(),
        "acb9056044921db6c77890bc16762d2bc9bfcdb1468f7b6f42a7e048e7e6376d",
    );
}

#[test]
fn omap_with_gcm_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::Omap).with_cipher(Cipher::Aes256Gcm),
        "dc18ac4df50694ca0472352ceb842d61468a63d143ae5868fa98bae2684f1889",
    );
}

#[test]
fn object_end_with_snapshot_binding_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_snapshot_binding(),
        "e6c83892397bf33919f82fc3b68ac40bb2b27a3ccb4bc233e76dc3669d3d15e6",
    );
}

#[test]
fn unaligned_512_byte_sector_placement_is_pinned() {
    check(
        &EncryptionConfig::random_iv(MetaLayout::Unaligned).with_sector_size(512),
        "e76fe4342ea0658429d703215d9bd00871c0495fd71479941df8b198a1935325",
    );
}
