//! Regression tests for the IO-path correctness sweep:
//!
//! 1. images whose size is not a sector multiple are rejected at
//!    format time (previously the unaligned tail RMW span rounded up
//!    past the image end and a legitimate in-bounds IO was refused);
//! 2. unaligned writes read-modify-write **only the partially-written
//!    boundary sectors**, never decrypting interior sectors that are
//!    about to be fully overwritten;
//! 3. out-of-bounds errors report the true requested end;
//! 4. a queued scatter read whose lengths overflow `u64` is refused at
//!    submit instead of wrapping past the bounds check;
//! 5. an object size that is not a whole number of sectors is an error
//!    at format and at open (it used to panic building the geometry).

use vdisk_core::{CryptError, EncryptedImage, EncryptionConfig, IoOp, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{Cluster, Receipt, Transaction};
use vdisk_rbd::{Image, RbdError};

const SS: u64 = 4096;

/// Bytes the client cipher processed for one IO: its own span plus its
/// boundary reads'.
fn crypto_bytes(receipt: &Receipt) -> u64 {
    receipt.crypto + receipt.rmw.iter().map(crypto_bytes).sum::<u64>()
}

fn make_disk(config: &EncryptionConfig, image_size: u64) -> (Cluster, EncryptedImage) {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "fixes", image_size).unwrap();
    let disk = EncryptedImage::format_with_iv_source(
        image,
        config,
        b"io-path-fixes",
        Box::new(SeededIvSource::new(17)),
    )
    .unwrap();
    (cluster, disk)
}

#[test]
fn non_sector_multiple_image_size_is_rejected_at_format() {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "ragged", (8 << 20) + 100).unwrap();
    let err = EncryptedImage::format(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"pw",
    )
    .unwrap_err();
    let CryptError::UnsupportedConfig(why) = err else {
        panic!("expected UnsupportedConfig, got {err:?}");
    };
    assert!(
        why.contains("not a multiple"),
        "error must say what is wrong: {why}"
    );
}

#[test]
fn unaligned_io_at_the_image_tail_round_trips() {
    // The case the old span arithmetic got wrong: an IO whose aligned
    // span ends exactly at the image end must be accepted.
    let size = 8 << 20;
    let (_cluster, mut disk) = make_disk(&EncryptionConfig::random_iv(MetaLayout::ObjectEnd), size);
    let payload = [0xABu8; 100];
    disk.write(size - 100, &payload).unwrap();
    let mut buf = [0u8; 100];
    disk.read(size - 100, &mut buf).unwrap();
    assert_eq!(buf, payload);
    // Spanning the last sector boundary unaligned works too.
    let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    disk.write(size - 5000, &payload).unwrap();
    let mut buf = vec![0u8; 5000];
    disk.read(size - 5000, &mut buf).unwrap();
    assert_eq!(buf, payload);
}

#[test]
fn rmw_reads_only_the_boundary_sectors() {
    let (_cluster, mut disk) =
        make_disk(&EncryptionConfig::random_iv(MetaLayout::ObjectEnd), 8 << 20);
    // Prefill eight sectors so the RMW has real data to preserve.
    disk.write(0, &vec![0x11u8; (8 * SS) as usize]).unwrap();

    // Overwrite sectors 1..=5, partial at both ends: head sector 1 and
    // tail sector 5 must be read back; interior sectors 2..=4 are
    // fully overwritten and must NOT be.
    let offset = SS + 16;
    let len = 4 * SS;
    let receipt = disk.write(offset, &vec![0x22u8; len as usize]).unwrap();

    // Client crypto work proves what got decrypted: 2 boundary sectors
    // read back + the 5-sector aligned span encrypted. The old
    // whole-span RMW decrypted all 5.
    assert_eq!(
        crypto_bytes(&receipt),
        2 * SS + 5 * SS,
        "RMW must decrypt exactly the two partially-written boundary sectors"
    );

    // And the splice is correct.
    let mut buf = vec![0u8; (8 * SS) as usize];
    disk.read(0, &mut buf).unwrap();
    let mut expected = vec![0x11u8; (8 * SS) as usize];
    expected[offset as usize..(offset + len) as usize].fill(0x22);
    assert_eq!(buf, expected);
}

#[test]
fn rmw_skips_interior_sectors_even_when_tampered() {
    // The sharpest observable consequence of boundary-only RMW: with
    // integrity on, corrupted ciphertext in a fully-overwritten
    // interior sector must not fail the write (the old code read and
    // MAC-checked the whole span).
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac();
    let (cluster, mut disk) = make_disk(&config, 8 << 20);
    disk.write(0, &vec![0x33u8; (8 * SS) as usize]).unwrap();

    // Corrupt sector 3's ciphertext directly in the object store.
    let object = disk.image().object_name(0);
    let (data_off, _) = disk.placement().data_extent(3, 1);
    let mut tx = Transaction::new(&object);
    tx.write(data_off, vec![0xFF; SS as usize]);
    cluster.execute(tx).unwrap();

    // Unaligned overwrite spanning sectors 1..=5: interior sector 3 is
    // fully replaced, so the tamper must not block the write...
    let offset = SS + 16;
    let len = 4 * SS;
    disk.write(offset, &vec![0x44u8; len as usize]).unwrap();

    // ...and afterwards the whole range reads clean again.
    let mut buf = vec![0u8; (8 * SS) as usize];
    disk.read(0, &mut buf).unwrap();
    let mut expected = vec![0x33u8; (8 * SS) as usize];
    expected[offset as usize..(offset + len) as usize].fill(0x44);
    assert_eq!(buf, expected);
}

#[test]
fn aligned_head_unaligned_tail_reads_one_boundary_sector() {
    let (_cluster, mut disk) =
        make_disk(&EncryptionConfig::random_iv(MetaLayout::ObjectEnd), 8 << 20);
    disk.write(0, &vec![0x55u8; (4 * SS) as usize]).unwrap();
    // Aligned start, tail ends mid-sector 2: only sector 2 is read.
    let receipt = disk
        .write(0, &vec![0x66u8; (2 * SS + 100) as usize])
        .unwrap();
    assert_eq!(crypto_bytes(&receipt), SS + 3 * SS);
    let mut buf = vec![0u8; (4 * SS) as usize];
    disk.read(0, &mut buf).unwrap();
    let mut expected = vec![0x55u8; (4 * SS) as usize];
    expected[..(2 * SS + 100) as usize].fill(0x66);
    assert_eq!(buf, expected);
}

#[test]
fn out_of_bounds_reports_the_true_requested_end() {
    let size = 8 << 20;
    let (_cluster, mut disk) = make_disk(&EncryptionConfig::luks2_baseline(), size);
    let err = disk.write(size - 100, &[0u8; 4096]).unwrap_err();
    let CryptError::Rbd(RbdError::OutOfBounds { offset, size: sz }) = err else {
        panic!("expected OutOfBounds, got {err:?}");
    };
    assert_eq!(offset, size - 100 + 4096, "must report offset + len");
    assert_eq!(sz, size);

    let mut buf = [0u8; 8];
    let err = disk.read(u64::MAX - 4, &mut buf).unwrap_err();
    let CryptError::Rbd(RbdError::OutOfBounds { offset, .. }) = err else {
        panic!("expected OutOfBounds, got {err:?}");
    };
    assert_eq!(offset, u64::MAX, "overflowing end saturates");
}

#[test]
fn queued_readv_lengths_that_overflow_u64_are_out_of_bounds() {
    // Regression: the u64 sum wrapped to 1, passed the bounds check
    // in release builds, and panicked inside fence().
    let (_cluster, mut disk) = make_disk(&EncryptionConfig::luks2_baseline(), 8 << 20);
    let mut queue = disk.io_queue();
    let err = queue
        .submit(IoOp::Readv {
            offset: 0,
            lens: vec![u64::MAX, 2],
        })
        .unwrap_err();
    assert!(
        matches!(err, CryptError::Rbd(RbdError::OutOfBounds { .. })),
        "expected OutOfBounds, got {err:?}"
    );
    assert_eq!(queue.in_flight(), 0, "nothing may stay queued");
    assert!(queue.fence().unwrap().is_empty());
}

#[test]
fn zero_length_io_is_a_noop_anywhere_in_bounds() {
    let size = 8 << 20;
    let (_cluster, mut disk) = make_disk(&EncryptionConfig::luks2_baseline(), size);
    assert_eq!(disk.write(size, &[]).unwrap(), Receipt::default());
    let mut empty = [0u8; 0];
    assert_eq!(disk.read(size, &mut empty).unwrap(), Receipt::default());
}

#[test]
fn object_size_not_a_sector_multiple_is_rejected_at_format() {
    // 6144-byte objects hold 1.5 sectors of 4096 bytes: formatting used
    // to panic building the geometry instead of returning an error.
    let cluster = Cluster::builder().build();
    let image = Image::create_with_object_size(&cluster, "odd", 8 * 6144, 6144).unwrap();
    let err = EncryptedImage::format(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"pw",
    )
    .unwrap_err();
    let CryptError::UnsupportedConfig(why) = err else {
        panic!("expected UnsupportedConfig, got {err:?}");
    };
    assert!(
        why.contains("whole number"),
        "error must say what is wrong: {why}"
    );

    // The same objects hold whole 512-byte sectors.
    let image = Image::create_with_object_size(&cluster, "odd-512", 8 * 6144, 6144).unwrap();
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_sector_size(512);
    let mut disk = EncryptedImage::format(image, &config, b"pw").unwrap();
    disk.write(6144 - 700, &[0x5A; 1400]).unwrap();
    let mut buf = vec![0u8; 1400];
    disk.read(6144 - 700, &mut buf).unwrap();
    assert_eq!(buf, vec![0x5A; 1400]);
}

#[test]
fn object_size_not_a_sector_multiple_is_rejected_at_open() {
    // `open` reads the object size back from the image header; a
    // mismatch with the encryption header is corruption, not a panic.
    let cluster = Cluster::builder().build();
    let image = Image::create_with_object_size(&cluster, "shrunk", 6 * 8192, 8192).unwrap();
    EncryptedImage::format(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"pw",
    )
    .unwrap();
    let mut tx = Transaction::new("rbd_header.shrunk");
    tx.set_xattr("rbd.object_size", 6144u64.to_le_bytes().to_vec());
    cluster.execute(tx).unwrap();

    let image = Image::open(&cluster, "shrunk").unwrap();
    let err = EncryptedImage::open(image, b"pw").unwrap_err();
    assert!(
        matches!(err, CryptError::HeaderCorrupt(_)),
        "expected HeaderCorrupt, got {err:?}"
    );
}
