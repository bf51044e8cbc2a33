//! The key-lifecycle acceptance suite: online rekey under concurrent
//! queued IO, passphrase rotation, crypto-shredding, and concurrent
//! header updates.
//!
//! The acceptance bar (ISSUE 5): `rekey_begin` → drive-to-completion
//! on a written image changes **every** sector's ciphertext, the old
//! passphrase no longer unlocks, and data reads back byte-identical
//! throughout — with queued IO at QD ≥ 8 in flight between driver
//! steps, on every metadata layout (and the baseline, whose epochs
//! ride the driver's watermark instead of per-sector tags).

use proptest::prelude::*;
use vdisk_core::{
    CryptError, EncryptedImage, EncryptionConfig, IoOp, IoPayload, MetaLayout, RekeyDriver,
};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{Cluster, SnapId};
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 4 << 20;
const OBJECT_SIZE: u64 = 512 << 10;
const SECTOR: u64 = 4096;
const OLD_PASS: &[u8] = b"original passphrase";
const NEW_PASS: &[u8] = b"rotated passphrase";

fn all_configs() -> Vec<EncryptionConfig> {
    vec![
        EncryptionConfig::luks2_baseline(),
        EncryptionConfig::random_iv(MetaLayout::Unaligned),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        EncryptionConfig::random_iv(MetaLayout::Omap),
    ]
}

fn make_disk(config: &EncryptionConfig, seed: u64) -> (Cluster, EncryptedImage) {
    // Workers forced on: queued IO genuinely overlaps the driver's
    // migration windows on the shard workers, on any host.
    let cluster = Cluster::builder().concurrent_apply(true).build();
    let image = Image::create_with_object_size(&cluster, "rekey", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    let disk = EncryptedImage::format_with_iv_source(
        image,
        config,
        OLD_PASS,
        Box::new(SeededIvSource::new(seed)),
    )
    .unwrap();
    (cluster, disk)
}

/// Per-sector recognizable plaintext.
fn sector_pattern(sector: u64, tag: u8) -> Vec<u8> {
    let mut data = vec![tag; SECTOR as usize];
    data[..8].copy_from_slice(&sector.to_le_bytes());
    data
}

fn begin(disk: &mut EncryptedImage) -> RekeyDriver {
    disk.rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
        .unwrap()
        .with_chunk_sectors(64)
        .with_queue_depth(8)
}

/// The acceptance test proper, per config: write the whole image,
/// rekey it with queued IO (QD ≥ 8) interleaved between driver steps,
/// verify byte-identity throughout, then check that every sector's
/// ciphertext changed and only the new passphrase opens the image.
fn rekey_under_concurrent_queued_io(config: &EncryptionConfig) {
    let (cluster, mut disk) = make_disk(config, 0x5EED);
    let total_sectors = IMAGE_SIZE / SECTOR;

    // Precondition every sector and mirror the plaintext.
    let mut mirror = vec![0u8; IMAGE_SIZE as usize];
    for sector in 0..total_sectors {
        let data = sector_pattern(sector, 0x11);
        mirror[(sector * SECTOR) as usize..((sector + 1) * SECTOR) as usize].copy_from_slice(&data);
        disk.write(sector * SECTOR, &data).unwrap();
    }
    let before: Vec<Vec<u8>> = (0..total_sectors)
        .map(|lba| disk.observe_sector(lba, None).unwrap().ciphertext)
        .collect();

    let mut driver = begin(&mut disk);
    assert!(
        matches!(
            disk.rekey_begin(NEW_PASS, b"x"),
            Err(CryptError::RekeyInProgress)
        ),
        "a second rekey must be refused while one migrates"
    );

    // Interleave: one driver step, then a burst of queued IO held at
    // QD >= 8, repeating until the migration completes.
    let mut burst = 0u64;
    loop {
        let progress = driver.step(&mut disk).unwrap();

        let mut queue = disk.io_queue();
        let mut expected = Vec::new();
        for i in 0..5u64 {
            let sector = (burst * 7 + i * 131) % total_sectors;
            let data = sector_pattern(sector, 0x40 + (burst % 32) as u8);
            mirror[(sector * SECTOR) as usize..((sector + 1) * SECTOR) as usize]
                .copy_from_slice(&data);
            queue
                .submit(IoOp::Write {
                    offset: sector * SECTOR,
                    data,
                })
                .unwrap();
        }
        for i in 0..5u64 {
            let sector = (burst * 13 + i * 89) % total_sectors;
            let completion = queue
                .submit(IoOp::Read {
                    offset: sector * SECTOR,
                    len: SECTOR,
                })
                .unwrap();
            expected.push((completion, sector));
        }
        assert!(queue.in_flight() >= 8, "the burst must realize QD >= 8");
        let results = queue.fence().unwrap();
        for (completion, sector) in expected {
            let result = results
                .iter()
                .find(|r| r.completion == completion)
                .expect("read reaped");
            let IoPayload::Data(data) = &result.payload else {
                panic!("read payload");
            };
            // The queued read was submitted after the burst's queued
            // writes; its mirror expectation is the post-burst state.
            assert_eq!(
                data,
                &mirror[(sector * SECTOR) as usize..((sector + 1) * SECTOR) as usize],
                "mid-rekey queued read diverged (config {config:?})"
            );
        }
        drop(queue);
        burst += 1;
        if progress.is_complete() {
            break;
        }
    }
    assert!(burst >= 2, "the image must take several windows to migrate");
    driver.finish(&mut disk).unwrap();
    assert!(disk.rekey_status().is_none());

    // Byte-identity after completion.
    let mut after_plain = vec![0u8; IMAGE_SIZE as usize];
    disk.read(0, &mut after_plain).unwrap();
    assert_eq!(after_plain, mirror, "plaintext must survive the rekey");

    // Every sector's ciphertext changed — even sectors never touched
    // by the interleaved bursts, and even under the deterministic-IV
    // baseline (the key itself changed).
    for (lba, old) in before.iter().enumerate() {
        let now = disk.observe_sector(lba as u64, None).unwrap().ciphertext;
        assert_ne!(
            &now, old,
            "sector {lba} ciphertext unchanged by the rekey (config {config:?})"
        );
    }

    // The old passphrase is revoked; the new one opens and reads.
    drop(disk);
    let image = Image::open(&cluster, "rekey").unwrap();
    assert!(matches!(
        EncryptedImage::open(image.clone(), OLD_PASS),
        Err(CryptError::WrongPassphrase)
    ));
    let reopened = EncryptedImage::open(image, NEW_PASS).unwrap();
    let mut buf = vec![0u8; IMAGE_SIZE as usize];
    reopened.read(0, &mut buf).unwrap();
    assert_eq!(buf, mirror, "reopen under the new passphrase diverged");
}

#[test]
fn rekey_acceptance_baseline() {
    rekey_under_concurrent_queued_io(&EncryptionConfig::luks2_baseline());
}

#[test]
fn rekey_acceptance_unaligned() {
    rekey_under_concurrent_queued_io(&EncryptionConfig::random_iv(MetaLayout::Unaligned));
}

#[test]
fn rekey_acceptance_object_end() {
    rekey_under_concurrent_queued_io(&EncryptionConfig::random_iv(MetaLayout::ObjectEnd));
}

#[test]
fn rekey_acceptance_omap() {
    rekey_under_concurrent_queued_io(&EncryptionConfig::random_iv(MetaLayout::Omap));
}

/// Snapshots taken mid-rekey stay readable afterwards: tagged layouts
/// route by per-sector epoch tags, the baseline by the epoch map the
/// snapshot recorded at creation — and the retired key stays reachable
/// through the header's wrap chain, across a reopen.
#[test]
fn mid_rekey_snapshots_stay_readable_after_completion() {
    for config in all_configs() {
        let (cluster, mut disk) = make_disk(&config, 0xACE);
        let total_sectors = IMAGE_SIZE / SECTOR;
        for sector in 0..total_sectors {
            disk.write(sector * SECTOR, &sector_pattern(sector, 0x21))
                .unwrap();
        }
        let mut driver = begin(&mut disk);
        driver.step(&mut disk).unwrap();
        let frozen: Vec<u8> = (0..total_sectors)
            .flat_map(|s| sector_pattern(s, 0x21))
            .collect();
        let snap = disk.snap_create("mid-rekey").unwrap();
        // Overwrite some sectors after the snapshot, then finish.
        disk.write(0, &sector_pattern(0, 0x99)).unwrap();
        disk.write(
            (total_sectors - 1) * SECTOR,
            &sector_pattern(total_sectors - 1, 0x99),
        )
        .unwrap();
        while !driver.step(&mut disk).unwrap().is_complete() {}
        driver.finish(&mut disk).unwrap();

        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read_at_snap(snap, 0, &mut buf).unwrap();
        assert_eq!(buf, frozen, "snapshot diverged (config {config:?})");

        // Same through a fresh open under the new passphrase.
        drop(disk);
        let reopened =
            EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), NEW_PASS).unwrap();
        reopened.read_at_snap(snap, 0, &mut buf).unwrap();
        assert_eq!(buf, frozen, "snapshot diverged after reopen ({config:?})");
    }
}

/// An abandoned driver can be resumed from the persisted watermark by
/// a fresh handle opened with the new passphrase.
#[test]
fn rekey_resumes_from_the_persisted_watermark() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let (cluster, mut disk) = make_disk(&config, 0xC0DE);
    for sector in 0..IMAGE_SIZE / SECTOR {
        disk.write(sector * SECTOR, &sector_pattern(sector, 0x31))
            .unwrap();
    }
    let mut driver = begin(&mut disk);
    driver.step(&mut disk).unwrap();
    let done_so_far = disk.rekey_status().unwrap().watermark;
    assert!(done_so_far > 0);
    let _abandoned = driver;
    drop(disk);

    let mut reopened =
        EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), NEW_PASS).unwrap();
    assert_eq!(reopened.rekey_status().unwrap().watermark, done_so_far);
    let driver = reopened
        .rekey_resume()
        .expect("rekey still in flight")
        .with_chunk_sectors(64)
        .with_queue_depth(8);
    driver.drive_to_completion(&mut reopened).unwrap();
    assert!(reopened.rekey_status().is_none());
    let mut buf = vec![0u8; IMAGE_SIZE as usize];
    reopened.read(0, &mut buf).unwrap();
    for sector in 0..IMAGE_SIZE / SECTOR {
        assert_eq!(
            &buf[(sector * SECTOR) as usize..(sector * SECTOR) as usize + 8],
            &sector.to_le_bytes()
        );
    }
}

/// Passphrase rotation is a pure header update: no data IO, no key
/// change (ciphertexts untouched), old passphrase revoked.
#[test]
fn rotate_passphrase_is_cheap_and_revokes_the_old_one() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let (cluster, mut disk) = make_disk(&config, 0xF1A7);
    disk.write(0, &sector_pattern(0, 0x44)).unwrap();
    let before = disk.observe_sector(0, None).unwrap().ciphertext;
    let tx_before = cluster.exec_stats().transactions;

    assert_eq!(disk.rotate_passphrase(OLD_PASS, NEW_PASS).unwrap(), 1);

    let tx_delta = cluster.exec_stats().transactions - tx_before;
    assert_eq!(tx_delta, 1, "rotation is exactly one header transaction");
    assert_eq!(
        disk.observe_sector(0, None).unwrap().ciphertext,
        before,
        "rotation must not touch data"
    );
    assert!(matches!(
        disk.rotate_passphrase(OLD_PASS, b"x"),
        Err(CryptError::WrongPassphrase)
    ));
    drop(disk);
    let image = Image::open(&cluster, "rekey").unwrap();
    assert!(EncryptedImage::open(image.clone(), OLD_PASS).is_err());
    let reopened = EncryptedImage::open(image, NEW_PASS).unwrap();
    let mut buf = vec![0u8; SECTOR as usize];
    reopened.read(0, &mut buf).unwrap();
    assert_eq!(buf, sector_pattern(0, 0x44));
}

/// Crypto-shred: after `secure_erase`, every subsequent open fails
/// (the header — and with it every wrapped key — is gone), while the
/// undecryptable data objects may remain.
#[test]
fn secure_erase_makes_all_subsequent_opens_fail() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let (cluster, mut disk) = make_disk(&config, 0xDEAD);
    disk.write(0, &sector_pattern(0, 0x55)).unwrap();
    assert!(cluster.object_exists("rbd_header.rekey.luks"));

    disk.secure_erase().unwrap();

    assert!(
        !cluster.object_exists("rbd_header.rekey.luks"),
        "the crypt header object must be overwritten and deleted"
    );
    let image = Image::open(&cluster, "rekey").unwrap();
    for pass in [OLD_PASS, NEW_PASS, b"anything".as_slice()] {
        assert!(
            matches!(
                EncryptedImage::open(image.clone(), pass),
                Err(CryptError::HeaderCorrupt(_))
            ),
            "no passphrase may open a shredded image"
        );
    }
    // The ciphertext is still there — and now permanently noise.
    assert!(cluster.object_exists(&image.object_name(0)));
}

/// Two handles racing header updates: the loser gets
/// `HeaderContended` instead of silently clobbering the winner.
#[test]
fn concurrent_header_updates_contend_instead_of_tearing() {
    let config = EncryptionConfig::random_iv(MetaLayout::Omap);
    let (cluster, mut a) = make_disk(&config, 0xAB);
    let mut b = EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), OLD_PASS).unwrap();

    a.add_passphrase(OLD_PASS, b"second").unwrap();
    assert!(matches!(
        b.rotate_passphrase(OLD_PASS, b"third"),
        Err(CryptError::HeaderContended)
    ));
    // A fresh open sees the winner's update intact.
    let c = EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), b"second").unwrap();
    drop(c);
}

/// A `rekey_begin` that loses the header CAS must leave the handle
/// exactly as it was: still on the old epoch, still writing sectors
/// the store's recorded keys can decrypt. (Without the rollback, the
/// loser would keep encrypting under a key that exists only in its
/// RAM — permanently unreadable once the handle closes.)
#[test]
fn contended_rekey_begin_rolls_back_completely() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let (cluster, mut a) = make_disk(&config, 0xCAFE);
    a.write(0, &sector_pattern(0, 0x71)).unwrap();
    let mut b = EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), OLD_PASS).unwrap();

    a.add_passphrase(OLD_PASS, b"second").unwrap(); // bumps the generation
    assert!(matches!(
        b.rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25),
        Err(CryptError::HeaderContended)
    ));
    assert_eq!(b.current_key_epoch(), 0, "the loser must stay on epoch 0");
    assert!(b.rekey_status().is_none());

    // Writes through the losing handle stay readable by everyone.
    b.write(4096, &sector_pattern(1, 0x72)).unwrap();
    drop(a);
    drop(b);
    let reopened = EncryptedImage::open(Image::open(&cluster, "rekey").unwrap(), OLD_PASS).unwrap();
    let mut buf = vec![0u8; SECTOR as usize];
    reopened.read(4096, &mut buf).unwrap();
    assert_eq!(buf, sector_pattern(1, 0x72));
}

/// Removing an encrypted image leaves nothing behind — the regression
/// the `Image::remove` fix closes (the `.luks` sidecar used to leak).
#[test]
fn image_remove_deletes_the_crypt_header_too() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let (cluster, mut disk) = make_disk(&config, 0xBEE);
    disk.write(0, &sector_pattern(0, 0x66)).unwrap();
    drop(disk);
    Image::remove(&cluster, "rekey").unwrap();
    assert!(
        cluster.list_objects().is_empty(),
        "an encrypted image must remove its data, header, and crypt header"
    );
}

// ---------------------------------------------------------------------
// Property: any interleaving of queued reads/writes/snapshots with an
// in-flight RekeyDriver is byte-identical to a quiesced rekey followed
// by a sequential replay of the same operations.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Action {
    Write { offset: u64, len: usize, fill: u8 },
    Read { offset: u64, len: usize },
    Step,
    Snapshot,
    SnapRead { offset: u64, len: usize },
    Fence,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let span = (0u64..IMAGE_SIZE, 1usize..100_000);
    prop_oneof![
        (0u64..IMAGE_SIZE, 1usize..100_000, any::<u8>()).prop_map(|(offset, len, fill)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Write { offset, len, fill }
        }),
        span.clone().prop_map(|(offset, len)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Read { offset, len }
        }),
        Just(Action::Step),
        Just(Action::Step),
        Just(Action::Snapshot),
        span.prop_map(|(offset, len)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::SnapRead { offset, len }
        }),
        Just(Action::Fence),
    ]
}

fn run_interleaving(config: &EncryptionConfig, actions: &[Action], seed: u64) {
    let (_cluster, mut live) = make_disk(config, seed);
    // The reference: identical initial content, rekeyed while fully
    // quiesced, then the same ops replayed sequentially.
    let (_ref_cluster, mut quiesced) = make_disk(config, seed ^ 0x1234);

    let mut mirror = vec![0u8; IMAGE_SIZE as usize];
    for sector in 0..IMAGE_SIZE / SECTOR {
        let data = sector_pattern(sector, 0x10);
        mirror[(sector * SECTOR) as usize..((sector + 1) * SECTOR) as usize].copy_from_slice(&data);
        live.write(sector * SECTOR, &data).unwrap();
        quiesced.write(sector * SECTOR, &data).unwrap();
    }

    // Quiesced reference: migrate everything up front.
    begin(&mut quiesced)
        .drive_to_completion(&mut quiesced)
        .unwrap();

    // Live run: the driver steps interleave with queued IO. The queue
    // is re-opened around each driver step, so completion ids restart;
    // reads are keyed by a stable sequence number of our own.
    let mut driver = begin(&mut live);
    let mut snaps: Vec<(SnapId, Vec<u8>)> = Vec::new();
    let mut expected_reads: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut seen_reads: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next_seq = 0u64;
    let mut pending: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    let mut queue = live.io_queue();
    for (i, action) in actions.iter().enumerate() {
        match action {
            Action::Write { offset, len, fill } => {
                let data = vec![*fill; *len];
                mirror[*offset as usize..*offset as usize + len].copy_from_slice(&data);
                queue
                    .submit(IoOp::Write {
                        offset: *offset,
                        data,
                    })
                    .unwrap();
            }
            Action::Read { offset, len } => {
                let completion = queue
                    .submit(IoOp::Read {
                        offset: *offset,
                        len: *len as u64,
                    })
                    .unwrap();
                pending.insert(completion.id(), next_seq);
                expected_reads.push((
                    next_seq,
                    mirror[*offset as usize..*offset as usize + len].to_vec(),
                ));
                next_seq += 1;
            }
            Action::Step => {
                // The driver needs the disk; queued client ops keep
                // riding the shard FIFOs underneath regardless.
                for result in queue.fence().unwrap() {
                    if let IoPayload::Data(data) = result.payload {
                        let seq = pending.remove(&result.completion.id()).unwrap();
                        seen_reads.push((seq, data));
                    }
                }
                drop(queue);
                let progress = driver.progress(&live).unwrap();
                if !progress.is_complete() {
                    driver.step(&mut live).unwrap();
                }
                queue = live.io_queue();
            }
            Action::Snapshot => {
                let snap = queue.backend().snap_create(&format!("s{i}")).unwrap();
                snaps.push((snap, mirror.clone()));
            }
            Action::SnapRead { offset, len } => {
                let Some((snap, frozen)) = snaps.last() else {
                    continue;
                };
                let mut buf = vec![0u8; *len];
                queue
                    .backend()
                    .read_at_snap(*snap, *offset, &mut buf)
                    .unwrap();
                assert_eq!(
                    buf,
                    frozen[*offset as usize..*offset as usize + len],
                    "snapshot read diverged mid-rekey ({config:?})"
                );
            }
            Action::Fence => {
                for result in queue.fence().unwrap() {
                    if let IoPayload::Data(data) = result.payload {
                        let seq = pending.remove(&result.completion.id()).unwrap();
                        seen_reads.push((seq, data));
                    }
                }
            }
        }
    }
    for result in queue.fence().unwrap() {
        if let IoPayload::Data(data) = result.payload {
            let seq = pending.remove(&result.completion.id()).unwrap();
            seen_reads.push((seq, data));
        }
    }
    drop(queue);
    while !driver.step(&mut live).unwrap().is_complete() {}
    driver.finish(&mut live).unwrap();

    // Every queued read saw exactly its submission-point bytes.
    seen_reads.sort_by_key(|(id, _)| *id);
    assert_eq!(seen_reads.len(), expected_reads.len());
    for ((id_seen, data), (id_expected, expected)) in seen_reads.iter().zip(&expected_reads) {
        assert_eq!(id_seen, id_expected);
        assert_eq!(
            data, expected,
            "queued read {id_seen} diverged ({config:?})"
        );
    }

    // Quiesced reference: replay the same writes sequentially.
    for action in actions {
        if let Action::Write { offset, len, fill } = action {
            quiesced.write_owned(*offset, vec![*fill; *len]).unwrap();
        }
    }

    // Byte-identity: live interleaved run == mirror == quiesced
    // rekey + sequential replay.
    let mut from_live = vec![0u8; IMAGE_SIZE as usize];
    let mut from_quiesced = vec![0u8; IMAGE_SIZE as usize];
    live.read(0, &mut from_live).unwrap();
    quiesced.read(0, &mut from_quiesced).unwrap();
    assert_eq!(from_live, mirror, "live rekey run diverged ({config:?})");
    assert_eq!(
        from_quiesced, mirror,
        "quiesced reference diverged ({config:?})"
    );

    // And the mid-rekey snapshots still read their frozen state now
    // that the old epoch is retired.
    for (snap, frozen) in &snaps {
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        live.read_at_snap(*snap, 0, &mut buf).unwrap();
        assert_eq!(&buf, frozen, "snapshot diverged post-rekey ({config:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn interleaved_rekey_matches_quiesced_replay_baseline(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_interleaving(&EncryptionConfig::luks2_baseline(), &actions, 0xB0);
    }

    #[test]
    fn interleaved_rekey_matches_quiesced_replay_object_end(
        actions in proptest::collection::vec(action_strategy(), 4..14)
    ) {
        run_interleaving(
            &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            &actions,
            0x0E,
        );
    }

    #[test]
    fn interleaved_rekey_matches_quiesced_replay_omap(
        actions in proptest::collection::vec(action_strategy(), 4..12)
    ) {
        run_interleaving(&EncryptionConfig::random_iv(MetaLayout::Omap), &actions, 0x0A);
    }

    #[test]
    fn interleaved_rekey_matches_quiesced_replay_unaligned(
        actions in proptest::collection::vec(action_strategy(), 4..12)
    ) {
        run_interleaving(
            &EncryptionConfig::random_iv(MetaLayout::Unaligned),
            &actions,
            0x0B,
        );
    }
}
