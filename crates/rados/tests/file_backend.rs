//! Durability acceptance for the file backend: a formatted store
//! survives dropping the process's cluster handles and reopening the
//! same directory — data, OMAP, xattrs, snapshots (including the
//! snapshot *sequence*), and committed deletions all intact — while a
//! reopen with mismatched geometry is refused.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vdisk_rados::{BackendKind, Cluster, RadosError, ReadOp, SnapId, Transaction};

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

fn file_builder(dir: &Path) -> vdisk_rados::ClusterBuilder {
    Cluster::builder().backend(BackendKind::File {
        dir: dir.to_path_buf(),
    })
}

#[test]
fn full_state_survives_drop_and_reopen() {
    let dir = scratch("reopen");

    let snap = {
        let c = file_builder(&dir).build();
        let mut tx = Transaction::new("disk.0");
        tx.write(100, b"before snapshot".to_vec());
        tx.omap_set(vec![(b"iv.0".to_vec(), vec![0xAB; 16])]);
        tx.set_xattr("epoch", vec![7]);
        c.execute(tx).unwrap();

        let snap = c.create_snap();
        let mut tx = Transaction::new("disk.0");
        tx.write(100, b"after  snapshot".to_vec());
        c.execute(tx).unwrap();

        let mut tx = Transaction::new("doomed");
        tx.write(0, b"transient".to_vec());
        c.execute(tx).unwrap();
        let mut tx = Transaction::new("doomed");
        tx.delete();
        c.execute(tx).unwrap();

        c.flush();
        snap
        // Every handle drops here: the only copy of the state is now
        // the directory.
    };

    let c = file_builder(&dir).build();
    assert_eq!(
        c.snap_seq(),
        snap,
        "reopen must resume the snapshot sequence, not restart it"
    );
    assert_eq!(c.list_objects(), vec!["disk.0".to_string()]);
    assert!(!c.object_exists("doomed"), "committed delete must persist");

    let (results, _) = c
        .read(
            "disk.0",
            None,
            &[
                ReadOp::Read {
                    offset: 100,
                    len: 15,
                },
                ReadOp::OmapGetKeys(vec![b"iv.0".to_vec()]),
                ReadOp::GetXattr("epoch".into()),
            ],
        )
        .unwrap();
    assert_eq!(results[0].as_data(), b"after  snapshot");
    assert_eq!(results[1].as_omap(), &[(b"iv.0".to_vec(), vec![0xAB; 16])]);
    assert_eq!(results[2], vdisk_rados::ReadResult::Xattr(Some(vec![7])));

    // The pre-snapshot clone crossed the restart too.
    let (results, _) = c
        .read(
            "disk.0",
            Some(snap),
            &[ReadOp::Read {
                offset: 100,
                len: 15,
            }],
        )
        .unwrap();
    assert_eq!(results[0].as_data(), b"before snapshot");

    assert!(c.scrub().is_clean(), "replicas must agree after reopen");
}

#[test]
fn snapshots_taken_after_reopen_continue_the_sequence() {
    let dir = scratch("snapseq");
    let first = {
        let c = file_builder(&dir).build();
        c.create_snap()
        // create_snap persists the sequence on its own — no flush —
        // because clone visibility must never rewind.
    };
    let c = file_builder(&dir).build();
    let second = c.create_snap();
    assert_eq!(second, SnapId(first.0 + 1));
}

#[test]
fn reopen_with_different_geometry_is_refused() {
    let dir = scratch("geometry");
    {
        let c = file_builder(&dir).build();
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1]);
        c.execute(tx).unwrap();
        c.flush();
    }
    let err = file_builder(&dir).osd_count(5).replicas(5).try_build();
    assert!(
        matches!(&err, Err(RadosError::InvalidConfig(msg)) if msg.contains("geometry")),
        "unexpected result: {err:?}"
    );
}

#[test]
fn unflushed_commits_are_still_durable() {
    // The per-transaction log append (and its fsync) is the durability
    // point, not flush: a store dropped right after `execute` returns
    // must still reopen complete — the reopen replays the log. (`flush`
    // additionally checkpoints the log into the object files and syncs
    // directories and the meta file; acknowledgement never waits for
    // it.)
    let dir = scratch("noflush");
    {
        let c = file_builder(&dir).build();
        let mut tx = Transaction::new("obj");
        tx.write(0, b"committed".to_vec());
        c.execute(tx).unwrap();
    }
    let c = file_builder(&dir).build();
    let (results, _) = c
        .read("obj", None, &[ReadOp::Read { offset: 0, len: 9 }])
        .unwrap();
    assert_eq!(results[0].as_data(), b"committed");
}
