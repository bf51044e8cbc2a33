//! Backend equivalence: the durable file backend must be
//! observationally identical to the in-memory one. Identical queued
//! action sequences (writes, snapshots, deletes, reads at head and at
//! snapshots) driven through an in-memory cluster and a file-backed
//! cluster must produce byte-identical read results and identical
//! [`ExecStats`] op counts — durability is allowed to cost host IO,
//! never to change what the store *means*.
//!
//! The action stream also drops the file cluster at random points —
//! **without** flushing — and rebuilds it from its directory: whatever
//! the store acknowledged must come back from the redo log and the
//! object files alone, indistinguishable from the memory cluster that
//! never went away. Injected replica damage and its repair — the two
//! mutations that bypass transactions and reach the files through
//! `persist` instead of the log — are each followed by such a drop, so
//! the reopened directory must scrub exactly like the memory cluster.
//!
//! Both clusters run in inline mode (`concurrent_apply(false)`): the
//! comparison is of functional behaviour and deterministic counters,
//! not of worker-thread scheduling.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vdisk_rados::{
    BackendKind, Cluster, ExecStats, ObjectReads, ReadOp, ReadResult, SnapId, Transaction,
};

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

#[derive(Debug, Clone)]
enum Action {
    Write {
        obj: u8,
        offset: u64,
        fill: u8,
        len: u64,
    },
    OmapSet {
        obj: u8,
        key: u8,
        value: u8,
    },
    SetXattr {
        obj: u8,
        value: u8,
    },
    Snapshot,
    Delete {
        obj: u8,
    },
    ReadHead {
        obj: u8,
        offset: u64,
        len: u64,
    },
    ReadSnap {
        idx: u8,
        obj: u8,
    },
    /// Drop the file cluster unflushed and reopen its directory.
    Reopen,
    /// Corrupt one byte on replica 1, drop and reopen; repair, drop and
    /// reopen again.
    DamageRepair {
        obj: u8,
        offset: usize,
    },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..4, 0u64..8192, any::<u8>(), 1u64..2048).prop_map(|(obj, offset, fill, len)| {
            Action::Write {
                obj,
                offset,
                fill,
                len,
            }
        }),
        (0u8..4, any::<u8>(), any::<u8>()).prop_map(|(obj, key, value)| Action::OmapSet {
            obj,
            key,
            value
        }),
        (0u8..4, any::<u8>()).prop_map(|(obj, value)| Action::SetXattr { obj, value }),
        Just(Action::Snapshot),
        (0u8..4).prop_map(|obj| Action::Delete { obj }),
        (0u8..4, 0u64..8192, 1u64..2048).prop_map(|(obj, offset, len)| Action::ReadHead {
            obj,
            offset,
            len
        }),
        (any::<u8>(), 0u8..4).prop_map(|(idx, obj)| Action::ReadSnap { idx, obj }),
        Just(Action::Reopen),
        (0u8..4, 0usize..8192).prop_map(|(obj, offset)| Action::DamageRepair { obj, offset }),
    ]
}

fn obj_name(obj: u8) -> String {
    format!("obj{obj}")
}

/// Runs one batched read against both clusters and asserts the results
/// (data bytes, omap entries, xattrs, stat) are identical.
fn compare_read(mem: &Cluster, file: &Cluster, snap: Option<SnapId>, obj: u8, ops: Vec<ReadOp>) {
    let request = |c: &Cluster| -> Vec<Option<Vec<ReadResult>>> {
        let (results, _receipt) = c
            .read_batch(
                snap,
                vec![ObjectReads {
                    object: obj_name(obj),
                    ops: ops.clone(),
                }],
            )
            .expect("batched reads surface misses as None, not Err");
        results
    };
    assert_eq!(request(mem), request(file), "read divergence on obj{obj}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn file_backend_is_observationally_identical_to_memory(
        actions in proptest::collection::vec(arb_action(), 1..50)
    ) {
        let dir = scratch("equiv");
        let mem = Cluster::builder()
            .backend(BackendKind::Memory)
            .concurrent_apply(false)
            .build();
        let open_file = || Cluster::builder()
            .backend(BackendKind::File { dir: dir.clone() })
            .concurrent_apply(false)
            .build();
        let mut file = open_file();
        // Counters die with a cluster handle; carry them across reopens.
        let mut file_stats = ExecStats::default();
        let reopen = |file: Cluster, stats: &mut ExecStats| {
            stats.absorb(&file.exec_stats());
            // The old handle must be gone before its directory reopens.
            drop(file);
            open_file()
        };
        let mut snaps: Vec<(SnapId, SnapId)> = Vec::new();

        for action in actions {
            match action {
                Action::Write { obj, offset, fill, len } => {
                    let tx = || {
                        let mut tx = Transaction::new(obj_name(obj));
                        tx.write(offset, vec![fill; len as usize]);
                        tx
                    };
                    let r1 = mem.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                    let r2 = file.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                    prop_assert_eq!(r1, r2, "write receipts diverged");
                }
                Action::OmapSet { obj, key, value } => {
                    let tx = || {
                        let mut tx = Transaction::new(obj_name(obj));
                        tx.omap_set(vec![(vec![key], vec![value])]);
                        tx
                    };
                    mem.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                    file.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                }
                Action::SetXattr { obj, value } => {
                    let tx = || {
                        let mut tx = Transaction::new(obj_name(obj));
                        tx.set_xattr("tag", vec![value]);
                        tx
                    };
                    mem.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                    file.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                }
                Action::Snapshot => {
                    snaps.push((mem.create_snap(), file.create_snap()));
                }
                Action::Delete { obj } => {
                    // Deleting an absent object is a miss on both sides;
                    // only issue deletes both stores can apply.
                    if mem.object_exists(&obj_name(obj)) {
                        let tx = || {
                            let mut tx = Transaction::new(obj_name(obj));
                            tx.delete();
                            tx
                        };
                        mem.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                        file.submit_batch(vec![tx()]).unwrap().wait().unwrap();
                    }
                }
                Action::ReadHead { obj, offset, len } => {
                    compare_read(&mem, &file, None, obj, vec![
                        ReadOp::Read { offset, len },
                        ReadOp::OmapGetRange { start: vec![], end: vec![0xFF, 0xFF] },
                        ReadOp::GetXattr("tag".into()),
                        ReadOp::Stat,
                    ]);
                }
                Action::Reopen => file = reopen(file, &mut file_stats),
                Action::DamageRepair { obj, offset } => {
                    let name = obj_name(obj);
                    // Damaging an absent object is an error on both
                    // sides; only damage what both stores hold.
                    if !mem.object_exists(&name) {
                        continue;
                    }
                    mem.damage_replica(&name, 1, offset).unwrap();
                    file.damage_replica(&name, 1, offset).unwrap();
                    file = reopen(file, &mut file_stats);
                    prop_assert_eq!(
                        mem.scrub().divergent, file.scrub().divergent,
                        "persisted damage must survive a reopen exactly"
                    );
                    mem.repair(&name).unwrap();
                    file.repair(&name).unwrap();
                    file = reopen(file, &mut file_stats);
                    prop_assert!(mem.scrub().is_clean());
                    prop_assert!(file.scrub().is_clean(), "persisted repair must survive a reopen");
                }
                Action::ReadSnap { idx, obj } => {
                    if snaps.is_empty() {
                        continue;
                    }
                    let (s1, s2) = snaps[idx as usize % snaps.len()];
                    prop_assert_eq!(s1, s2, "snapshot ids diverged");
                    compare_read(&mem, &file, Some(s1), obj, vec![
                        ReadOp::Read { offset: 0, len: 4096 },
                    ]);
                }
            }
        }

        // The stores agree on the object set, replicas agree with each
        // other, and the op counters match exactly: the backends did
        // the same work, not merely similar work.
        prop_assert_eq!(mem.list_objects(), file.list_objects());
        prop_assert!(file.scrub().is_clean());
        file_stats.absorb(&file.exec_stats());
        prop_assert_eq!(mem.exec_stats(), file_stats, "ExecStats diverged between backends");
    }
}
