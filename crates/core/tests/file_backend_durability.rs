//! Encrypted images on the durable file backend: a formatted image
//! survives dropping every handle and reopening the store directory
//! from scratch (header, keyslots, per-sector IV metadata and data all
//! intact), the bytes at rest never leak plaintext, and
//! `secure_erase` leaves the data objects on disk undecryptable — the
//! paper's crypto-shred story made literal: the files are still there,
//! the key is not.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vdisk_core::{CryptError, EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{BackendKind, Cluster};
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 1 << 20;
const OBJECT_SIZE: u64 = 256 << 10;
const SECTOR: usize = 4096;
const PASS: &[u8] = b"correct horse battery staple";
/// A recognizable plaintext pattern no encrypted byte stream should
/// reproduce (64 bytes make an accidental match astronomically
/// unlikely).
const MARKER: &[u8; 64] = b"PLAINTEXT-MARKER-0123456789-abcdefghijklmnopqrstuvwxyz-MARKER-!!";

/// A scratch directory inside the workspace's `target/` (tests must
/// not write outside the repository).
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/backend-scratch")
        .join(format!(
            "{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
}

fn file_cluster(dir: &Path) -> Cluster {
    Cluster::builder()
        .backend(BackendKind::File {
            dir: dir.to_path_buf(),
        })
        .build()
}

fn marker_sector() -> Vec<u8> {
    let mut data = vec![0u8; SECTOR];
    for chunk in data.chunks_mut(MARKER.len()) {
        chunk.copy_from_slice(&MARKER[..chunk.len()]);
    }
    data
}

/// Whether any regular file under `dir` contains `needle`.
fn any_file_contains(dir: &Path, needle: &[u8]) -> bool {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("store dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("object file readable");
                if bytes.windows(needle.len()).any(|w| w == needle) {
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn encrypted_image_reopens_from_disk_and_never_stores_plaintext() {
    let dir = scratch("crypt-reopen");
    {
        let cluster = file_cluster(&dir);
        let image =
            Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            &EncryptionConfig::random_iv(MetaLayout::Omap),
            PASS,
            Box::new(SeededIvSource::new(7)),
        )
        .unwrap();
        disk.write(0, &marker_sector()).unwrap();
        disk.write(IMAGE_SIZE - SECTOR as u64, &marker_sector())
            .unwrap();
        cluster.flush();
    }

    assert!(
        !any_file_contains(&dir, MARKER),
        "plaintext leaked into the on-disk object files"
    );

    // A brand-new process: nothing survives but the directory.
    let cluster = file_cluster(&dir);
    let image = Image::open(&cluster, "vm0").unwrap();
    let disk = EncryptedImage::open(image, PASS).unwrap();
    let mut buf = vec![0u8; SECTOR];
    disk.read(0, &mut buf).unwrap();
    assert_eq!(buf, marker_sector());
    disk.read(IMAGE_SIZE - SECTOR as u64, &mut buf).unwrap();
    assert_eq!(buf, marker_sector());

    let image = Image::open(&cluster, "vm0").unwrap();
    assert!(
        matches!(
            EncryptedImage::open(image, b"wrong passphrase"),
            Err(CryptError::WrongPassphrase)
        ),
        "keyslots must still gate the reopened image"
    );
}

#[test]
fn secure_erase_leaves_on_disk_objects_undecryptable() {
    let dir = scratch("crypt-shred");
    {
        let cluster = file_cluster(&dir);
        let image =
            Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            &EncryptionConfig::random_iv(MetaLayout::Omap),
            PASS,
            Box::new(SeededIvSource::new(11)),
        )
        .unwrap();
        disk.write(0, &marker_sector()).unwrap();
        cluster.flush();
        assert!(
            any_file_contains(&dir, b"VLUKS2"),
            "sanity: the header object (with its LUKS magic) is on disk before the shred"
        );

        disk.secure_erase().unwrap();
        cluster.flush();
    }

    // The ciphertext data objects are still on disk by design — the
    // key material is not, anywhere.
    let cluster = file_cluster(&dir);
    assert!(
        !cluster.list_objects().is_empty(),
        "crypto-shred keeps the (undecryptable) data objects"
    );
    assert!(
        !any_file_contains(&dir, b"VLUKS2"),
        "no header bytes may survive the shred on disk"
    );
    assert!(
        !any_file_contains(&dir, MARKER),
        "no plaintext may be recoverable from the shredded store"
    );
    let image = Image::open(&cluster, "vm0").unwrap();
    assert!(
        EncryptedImage::open(image, PASS).is_err(),
        "a shredded image must never open again, even with the right passphrase"
    );
}

/// The same shred with **no flush after it**: `secure_erase` must be
/// final on return. The header's earlier transactions (wrapped
/// keyslots, LUKS magic) went through the shard's redo log like any
/// other; a log that kept them until some later checkpoint would keep
/// the image recoverable from `shard.log` after the erase reported
/// success. The delete forces the checkpoint that empties it.
#[test]
fn secure_erase_without_a_flush_leaves_no_header_bytes_in_any_file() {
    let dir = scratch("crypt-shred-noflush");
    let cluster = file_cluster(&dir);
    let image = Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::Omap),
        PASS,
        Box::new(SeededIvSource::new(13)),
    )
    .unwrap();
    disk.write(0, &marker_sector()).unwrap();
    assert!(
        any_file_contains(&dir, b"VLUKS2"),
        "sanity: unflushed, the header's bytes are on disk — in the redo log"
    );

    disk.secure_erase().unwrap();
    // No flush, no drop: the cluster is still open, exactly as it was
    // when the erase returned.
    assert!(
        !any_file_contains(&dir, b"VLUKS2"),
        "header bytes outlived the shred (redo log included)"
    );
    assert!(
        !any_file_contains(&dir, MARKER),
        "no plaintext may be recoverable from the shredded store"
    );
}
