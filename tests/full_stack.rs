//! Cross-crate integration tests: the full encrypt → stripe → replicate
//! → snapshot stack, exercised through the public facade.

use vdisk::core::{Cipher, CryptError, EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk::crypto::rng::SeededIvSource;
use vdisk::rados::{Cluster, Transaction};
use vdisk::rbd::Image;

fn make_disk(config: &EncryptionConfig, size: u64) -> (Cluster, EncryptedImage) {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "it", size).unwrap();
    let disk = EncryptedImage::format_with_iv_source(
        image,
        config,
        b"integration",
        Box::new(SeededIvSource::new(0xDEC0DE)),
    )
    .unwrap();
    (cluster, disk)
}

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
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_cipher(Cipher::Aes256Gcm),
        EncryptionConfig::luks2_baseline().with_cipher(Cipher::Eme2Aes256),
    ]
}

#[test]
fn every_variant_round_trips_across_object_boundaries() {
    for config in all_variants() {
        let (_c, mut disk) = make_disk(&config, 16 << 20);
        // Spans objects 0→1 with interior sectors.
        let offset = (4 << 20) - 8192;
        let data: Vec<u8> = (0..20480u32).map(|i| (i % 253) as u8).collect();
        disk.write(offset, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        disk.read(offset, &mut buf).unwrap();
        assert_eq!(buf, data, "config {config:?}");
    }
}

#[test]
fn every_variant_survives_reopen() {
    for config in all_variants() {
        let cluster = Cluster::builder().build();
        let image = Image::create(&cluster, "persist", 8 << 20).unwrap();
        let mut disk = EncryptedImage::format(image, &config, b"pw").unwrap();
        disk.write(4096, b"persisted across open").unwrap();
        drop(disk);

        let image = Image::open(&cluster, "persist").unwrap();
        let reopened = EncryptedImage::open(image, b"pw").unwrap();
        assert_eq!(reopened.config(), &config, "config {config:?}");
        let mut buf = vec![0u8; 21];
        reopened.read(4096, &mut buf).unwrap();
        assert_eq!(&buf, b"persisted across open", "config {config:?}");
    }
}

#[test]
fn unaligned_io_read_modify_write() {
    for config in [
        EncryptionConfig::luks2_baseline(),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        EncryptionConfig::random_iv(MetaLayout::Omap),
    ] {
        let (_c, mut disk) = make_disk(&config, 8 << 20);
        disk.write(0, &vec![0xAA; 8192]).unwrap();
        // 100 bytes straddling the sector-0/sector-1 boundary.
        disk.write(4050, &[0xBB; 100]).unwrap();
        let mut buf = vec![0u8; 8192];
        disk.read(0, &mut buf).unwrap();
        assert!(buf[..4050].iter().all(|&b| b == 0xAA));
        assert!(buf[4050..4150].iter().all(|&b| b == 0xBB));
        assert!(buf[4150..8192].iter().all(|&b| b == 0xAA));
        // Unaligned read of the straddling span.
        let mut small = vec![0u8; 100];
        disk.read(4050, &mut small).unwrap();
        assert!(small.iter().all(|&b| b == 0xBB));
    }
}

#[test]
fn snapshots_preserve_every_layout() {
    for layout in MetaLayout::ALL {
        let (_c, mut disk) = make_disk(&EncryptionConfig::random_iv(layout), 8 << 20);
        disk.write(0, b"generation-1").unwrap();
        let s1 = disk.snap_create("g1").unwrap();
        disk.write(0, b"generation-2").unwrap();
        let s2 = disk.snap_create("g2").unwrap();
        disk.write(0, b"generation-3").unwrap();

        let mut buf = vec![0u8; 12];
        disk.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"generation-3");
        disk.read_at_snap(s2, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"generation-2", "layout {layout}");
        disk.read_at_snap(s1, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"generation-1", "layout {layout}");
    }
}

#[test]
fn data_and_iv_stay_consistent_because_transactions_are_atomic() {
    // A transaction whose LAST op is invalid must leave neither the
    // data nor the OMAP IV behind — this is the consistency guarantee
    // the paper gets from RADOS transactions (§3.1).
    let cluster = Cluster::builder().build();
    let mut tx = Transaction::new("atomic-proof");
    tx.write(0, vec![0xCC; 4096]); // "ciphertext"
    tx.omap_set(vec![(b"iv.0".to_vec(), vec![0x11; 16])]); // "its IV"
    tx.omap_set(vec![(Vec::new(), vec![])]); // invalid: empty key
    assert!(cluster.execute(tx).is_err());
    assert!(
        !cluster.object_exists("atomic-proof"),
        "no torn data/IV state may exist"
    );
}

#[test]
fn replica_corruption_is_detected_and_repaired() {
    let (cluster, mut disk) = make_disk(&EncryptionConfig::random_iv_object_end(), 8 << 20);
    disk.write(0, &vec![0x5A; 4096]).unwrap();
    assert!(cluster.scrub().is_clean());
    let object = disk.image().object_name(0);
    cluster.damage_replica(&object, 2, 1000).unwrap();
    assert!(!cluster.scrub().is_clean());
    cluster.repair(&object).unwrap();
    assert!(cluster.scrub().is_clean());
    // Data still decrypts after repair.
    let mut buf = vec![0u8; 4096];
    disk.read(0, &mut buf).unwrap();
    assert_eq!(buf, vec![0x5A; 4096]);
}

#[test]
fn mac_catches_whole_stack_tampering() {
    let (cluster, mut disk) = make_disk(
        &EncryptionConfig::random_iv(MetaLayout::Omap).with_mac(),
        8 << 20,
    );
    disk.write(0, &vec![0x77; 4096]).unwrap();
    let object = disk.image().object_name(0);
    let mut tx = Transaction::new(object);
    tx.write(7, vec![0xFF]);
    cluster.execute(tx).unwrap();
    let mut buf = vec![0u8; 4096];
    assert!(matches!(
        disk.read(0, &mut buf),
        Err(CryptError::IntegrityViolation { lba: 0 })
    ));
}

#[test]
fn object_end_write_prices_one_data_and_one_meta_write_per_replica() {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "plans", 8 << 20).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv_object_end(),
        b"pw",
        Box::new(SeededIvSource::new(1)),
    )
    .unwrap();
    let write = disk.write(0, &vec![1; 16384]).unwrap();
    // 3 replicas × (1 full data write + 1 deferred meta write).
    let testbed = vdisk::bench::testbed::simulated(&cluster);
    let plan = testbed.plan_of(&write);
    let disk_ops: usize = testbed
        .handles()
        .osd_disk
        .iter()
        .map(|&r| plan.op_count_on(r))
        .sum();
    assert_eq!(disk_ops, 6);
}

#[test]
fn large_write_plans_do_not_depend_on_the_lane_knob_or_the_host() {
    // The simulated client has its own crypto workers: a 256 KiB write
    // prices to the same plan whatever lane count the cluster recorded,
    // and whatever cores the host running the simulation has.
    let builders = [
        Cluster::builder().crypto_lanes(1),
        Cluster::builder().crypto_lanes(4),
        Cluster::builder(),
    ];
    let plans = builders.map(|builder| {
        let cluster = builder.build();
        let image = Image::create(&cluster, "lanes", 8 << 20).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            &EncryptionConfig::random_iv_object_end(),
            b"pw",
            Box::new(SeededIvSource::new(3)),
        )
        .unwrap();
        let write = disk.write(0, &vec![7; 256 << 10]).unwrap();
        vdisk::bench::testbed::simulated(&cluster).plan_of(&write)
    });
    assert_eq!(plans[0], plans[1]);
    assert_eq!(plans[0], plans[2]);
}

#[test]
fn cross_lba_ciphertext_replay_decrypts_to_garbage() {
    // Move sector 0's (ciphertext, IV) to sector 1 via raw transactions;
    // the LBA binding in the tweak makes it decrypt to noise, not the
    // original plaintext (§2.2's replay-attack defence).
    let (cluster, mut disk) = make_disk(&EncryptionConfig::random_iv_object_end(), 8 << 20);
    let secret = vec![0xEE; 4096];
    disk.write(0, &secret).unwrap();
    let obs = disk.observe_sector(0, None).unwrap();
    let object = disk.image().object_name(0);
    let placement = disk.placement();
    let mut tx = Transaction::new(object);
    let (data_off, _) = placement.data_extent(1, 1);
    let (meta_off, _) = placement.meta_extent(1, 1).unwrap();
    tx.write(data_off, obs.ciphertext.clone());
    tx.write(meta_off, obs.meta.clone().unwrap());
    cluster.execute(tx).unwrap();

    let mut replayed = vec![0u8; 4096];
    disk.read(4096, &mut replayed).unwrap();
    assert_ne!(
        replayed, secret,
        "replayed sector must not reveal the original"
    );
    // The original is untouched.
    let mut original = vec![0u8; 4096];
    disk.read(0, &mut original).unwrap();
    assert_eq!(original, secret);
}

#[test]
fn multiple_images_share_a_cluster() {
    let cluster = Cluster::builder().build();
    let mut disks: Vec<EncryptedImage> = (0..3)
        .map(|i| {
            let image = Image::create(&cluster, &format!("tenant-{i}"), 8 << 20).unwrap();
            EncryptedImage::format(image, &EncryptionConfig::random_iv_object_end(), b"pw").unwrap()
        })
        .collect();
    for (i, disk) in disks.iter_mut().enumerate() {
        disk.write(0, format!("tenant {i} data").as_bytes())
            .unwrap();
    }
    for (i, disk) in disks.iter().enumerate() {
        let mut buf = vec![0u8; 13];
        disk.read(0, &mut buf).unwrap();
        assert_eq!(buf, format!("tenant {i} data").as_bytes());
    }
}

#[test]
fn add_passphrase_and_unlock_with_both() {
    let (cluster, mut disk) = make_disk(&EncryptionConfig::random_iv_object_end(), 8 << 20);
    disk.write(0, b"multi-user").unwrap();
    disk.add_passphrase(b"integration", b"backup-key").unwrap();
    drop(disk);
    for pass in [&b"integration"[..], &b"backup-key"[..]] {
        let image = Image::open(&cluster, "it").unwrap();
        let disk = EncryptedImage::open(image, pass).unwrap();
        let mut buf = vec![0u8; 10];
        disk.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"multi-user");
    }
}
