//! The durable file backend, end to end: format an encrypted virtual
//! disk on a `FileStore`-backed cluster, write through the normal IO
//! path, drop every handle — then reopen the same directory in a
//! *second* cluster, unlock the image with the passphrase, and read
//! the data back. The only thing that crosses the two halves is the
//! directory on disk.
//!
//! Run with: `cargo run --release --example file_backend`

use std::path::PathBuf;
use vdisk::core::{EncryptedImage, EncryptionConfig};
use vdisk::rados::{BackendKind, Cluster};
use vdisk::rbd::Image;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = PathBuf::from("target/file-backend-example");
    // Start from nothing, so the reopen below provably reads files.
    let _ = std::fs::remove_dir_all(&dir);

    let passphrase = b"correct horse battery staple";
    let snap;

    // ----- First life: format and write. --------------------------
    {
        let cluster = Cluster::builder()
            .backend(BackendKind::File { dir: dir.clone() })
            .build();
        let image = Image::create(&cluster, "vm-disk", 64 << 20)?;
        let config = EncryptionConfig::random_iv_object_end();
        let mut disk = EncryptedImage::format(image, &config, passphrase)?;

        // Every transaction commit appends one record to its shard's
        // redo log and fsyncs it; the flush below additionally
        // checkpoints the logs into the object files and syncs
        // directories and the meta file. Data and its per-sector IVs
        // ride the same record.
        disk.write(0, b"MBR: definitely not secret")?;
        disk.write(8 << 20, &vec![0xDB; 16384])?;

        snap = disk.snap_create("before-upgrade")?;
        disk.write(0, b"MBR: overwritten by upgrade!")?;

        cluster.flush();
        println!("formatted + wrote; store lives in {}", dir.display());
        // All handles drop here. No state survives in this process.
    }

    // ----- Second life: reopen the directory. ---------------------
    let cluster = Cluster::builder()
        .backend(BackendKind::File { dir: dir.clone() })
        .build();
    let image = Image::open(&cluster, "vm-disk")?;
    let disk = EncryptedImage::open(image, passphrase)?;

    let mut head = vec![0u8; 28];
    disk.read(0, &mut head)?;
    assert_eq!(&head, b"MBR: overwritten by upgrade!");
    println!("reopened read OK: {:?}", String::from_utf8_lossy(&head));

    // The pre-snapshot clone crossed the restart too — copy-on-write
    // history is part of the durable state.
    let mut old = vec![0u8; 26];
    disk.read_at_snap(snap, 0, &mut old)?;
    assert_eq!(&old, b"MBR: definitely not secret");
    println!("snapshot read OK: {:?}", String::from_utf8_lossy(&old));

    // What is actually on the host filesystem: one file per replica
    // of each object, under one directory per shard and OSD.
    let mut files = 0usize;
    let mut bytes = 0u64;
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files += 1;
                bytes += path.metadata()?.len();
            }
        }
    }
    println!("on disk: {files} files, {bytes} bytes — all ciphertext and metadata");

    let report = cluster.scrub();
    assert!(report.is_clean());
    println!(
        "scrub after reopen: {} objects clean",
        report.objects_checked
    );
    Ok(())
}
