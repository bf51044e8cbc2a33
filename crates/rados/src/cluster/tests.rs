use super::geometry::{queued, GEOMETRIES};
use super::*;
use crate::cost::{Testbed, TestbedProfile};
use crate::receipt::ReadEffect;
use vdisk_sim::Plan;

fn cluster() -> Cluster {
    Cluster::builder().build()
}

/// The paper's testbed sized for `c`, to price its receipts.
fn testbed(c: &Cluster) -> Testbed {
    Testbed::new(TestbedProfile::default(), c.osd_count())
}

#[test]
fn write_then_read_round_trips() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(100, b"hello world".to_vec());
    c.execute(tx).unwrap();
    let (results, receipt) = c
        .read(
            "obj",
            None,
            &[ReadOp::Read {
                offset: 100,
                len: 11,
            }],
        )
        .unwrap();
    assert_eq!(results[0].as_data(), b"hello world");
    assert_eq!(receipt.reads.len(), 1);
    assert_eq!(receipt.reads[0].response_bytes, 11);
    assert_eq!(receipt.reads[0].effects, vec![ReadEffect::Blocks(4096)]);
}

#[test]
fn try_build_rejects_zero_osd_count() {
    let err = Cluster::builder().osd_count(0).try_build().unwrap_err();
    assert_eq!(
        err,
        RadosError::InvalidConfig("osd_count must be at least 1".into())
    );
}

#[test]
fn try_build_rejects_zero_replicas() {
    let err = Cluster::builder().replicas(0).try_build().unwrap_err();
    assert_eq!(
        err,
        RadosError::InvalidConfig("replicas must be at least 1".into())
    );
}

#[test]
fn try_build_rejects_zero_shard_count() {
    let err = Cluster::builder().shard_count(0).try_build().unwrap_err();
    assert_eq!(
        err,
        RadosError::InvalidConfig("shard_count must be at least 1".into())
    );
}

#[test]
fn try_build_rejects_zero_crypto_lanes() {
    let err = Cluster::builder().crypto_lanes(0).try_build().unwrap_err();
    assert_eq!(
        err,
        RadosError::InvalidConfig("crypto_lanes must be at least 1".into())
    );
}

#[test]
fn try_build_rejects_replicas_exceeding_osds() {
    let err = Cluster::builder()
        .osd_count(2)
        .replicas(3)
        .try_build()
        .unwrap_err();
    assert!(
        matches!(&err, RadosError::InvalidConfig(msg) if msg.contains("cannot exceed")),
        "unexpected error: {err}"
    );
}

#[test]
fn try_build_rejects_more_osds_than_a_replica_set_can_name() {
    let err = Cluster::builder().osd_count(65).try_build().unwrap_err();
    assert_eq!(
        err,
        RadosError::InvalidConfig("osd_count (65) cannot exceed 64".into())
    );
    let widest = Cluster::builder()
        .backend(crate::BackendKind::Memory)
        .osd_count(64)
        .try_build();
    assert!(widest.is_ok());
}

#[test]
#[should_panic(expected = "invalid cluster configuration")]
fn build_panics_on_invalid_knobs() {
    let _ = Cluster::builder().shard_count(0).build();
}

#[test]
fn reads_of_missing_objects_fail() {
    let c = cluster();
    assert_eq!(
        c.read("ghost", None, &[ReadOp::Stat]).unwrap_err(),
        RadosError::NoSuchObject("ghost".into())
    );
}

#[test]
fn transaction_is_atomic_on_validation_failure() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, b"data".to_vec());
    tx.omap_set(vec![(Vec::new(), b"bad-key".to_vec())]); // invalid
    assert!(matches!(c.execute(tx), Err(RadosError::InvalidArgument(_))));
    assert!(
        !c.object_exists("obj"),
        "no partial state may survive a rejected transaction"
    );
}

#[test]
fn omap_set_and_range() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![1]);
    tx.omap_set(vec![
        (b"iv.0001".to_vec(), vec![0x11; 16]),
        (b"iv.0000".to_vec(), vec![0x22; 16]),
    ]);
    c.execute(tx).unwrap();
    let (results, _) = c
        .read(
            "obj",
            None,
            &[ReadOp::OmapGetRange {
                start: b"iv.".to_vec(),
                end: b"iv.\xff".to_vec(),
            }],
        )
        .unwrap();
    let entries = results[0].as_omap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].0, b"iv.0000");
}

#[test]
fn snapshots_preserve_history() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, b"v1".to_vec());
    c.execute(tx).unwrap();
    let snap1 = c.create_snap();
    let mut tx = Transaction::new("obj");
    tx.write(0, b"v2".to_vec());
    c.execute(tx).unwrap();

    let (head, _) = c
        .read("obj", None, &[ReadOp::Read { offset: 0, len: 2 }])
        .unwrap();
    let (old, _) = c
        .read("obj", Some(snap1), &[ReadOp::Read { offset: 0, len: 2 }])
        .unwrap();
    assert_eq!(head[0].as_data(), b"v2");
    assert_eq!(old[0].as_data(), b"v1");
}

#[test]
fn snapshot_before_birth_is_absent() {
    let c = cluster();
    let snap = c.create_snap();
    let mut tx = Transaction::new("newborn");
    tx.write(0, b"x".to_vec());
    c.execute(tx).unwrap();
    assert!(matches!(
        c.read("newborn", Some(snap), &[ReadOp::Stat]),
        Err(RadosError::NoSuchSnapshot { .. })
    ));
}

#[test]
fn omap_survives_snapshots_with_cow() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![1]);
    tx.omap_set(vec![(b"k".to_vec(), b"old".to_vec())]);
    c.execute(tx).unwrap();
    let snap = c.create_snap();
    let mut tx = Transaction::new("obj");
    tx.omap_set(vec![(b"k".to_vec(), b"new".to_vec())]);
    c.execute(tx).unwrap();

    let (head, _) = c
        .read("obj", None, &[ReadOp::OmapGetKeys(vec![b"k".to_vec()])])
        .unwrap();
    let (old, _) = c
        .read(
            "obj",
            Some(snap),
            &[ReadOp::OmapGetKeys(vec![b"k".to_vec()])],
        )
        .unwrap();
    assert_eq!(head[0].as_omap()[0].1, b"new");
    assert_eq!(old[0].as_omap()[0].1, b"old", "OMAP must be COW'd too");
}

#[test]
fn scrub_detects_and_repair_fixes_divergence() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![0xAB; 1024]);
    c.execute(tx).unwrap();
    assert!(c.scrub().is_clean());

    c.damage_replica("obj", 1, 10).unwrap();
    let report = c.scrub();
    assert_eq!(report.divergent, vec!["obj".to_string()]);

    c.repair("obj").unwrap();
    assert!(c.scrub().is_clean());
}

#[test]
fn damage_primary_is_rejected() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![1]);
    c.execute(tx).unwrap();
    assert!(c.damage_replica("obj", 0, 0).is_err());
    assert!(c.damage_replica("obj", 9, 0).is_err());
}

#[test]
fn delete_removes_everywhere() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![1]);
    c.execute(tx).unwrap();
    assert!(c.object_exists("obj"));
    let mut tx = Transaction::new("obj");
    tx.delete();
    c.execute(tx).unwrap();
    assert!(!c.object_exists("obj"));
    assert_eq!(c.list_objects().len(), 0);
}

#[test]
fn xattrs_round_trip() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![0]);
    tx.set_xattr("rbd.size", 4096u64.to_le_bytes().to_vec());
    c.execute(tx).unwrap();
    let (results, _) = c
        .read("obj", None, &[ReadOp::GetXattr("rbd.size".into())])
        .unwrap();
    assert_eq!(
        results[0],
        ReadResult::Xattr(Some(4096u64.to_le_bytes().to_vec()))
    );
    let (results, _) = c
        .read("obj", None, &[ReadOp::GetXattr("missing".into())])
        .unwrap();
    assert_eq!(results[0], ReadResult::Xattr(None));
}

#[test]
fn a_write_past_the_end_stats_its_end() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(4096, vec![7; 4096]);
    c.execute(tx).unwrap();
    assert_eq!(c.stat("obj").unwrap().size, 8192);
    let (results, _) = c
        .read(
            "obj",
            None,
            &[ReadOp::Read {
                offset: 0,
                len: 8192,
            }],
        )
        .unwrap();
    let mut expected = vec![0u8; 4096];
    expected.extend_from_slice(&[7; 4096]);
    assert_eq!(
        results[0].as_data(),
        &expected[..],
        "the gap reads as zeros"
    );
}

#[test]
fn closed_loop_runs_plans() {
    let c = cluster();
    let mut receipts = Vec::new();
    for i in 0..64 {
        let mut tx = Transaction::new(format!("obj{i}"));
        tx.write(0, vec![0u8; 4096]);
        receipts.push(c.execute(tx).unwrap());
    }
    let stats = testbed(&c).run_closed_loop(8, receipts.iter().map(|r| (r, 4096)));
    assert_eq!(stats.ops, 64);
    assert!(stats.bandwidth_mb_s() > 0.0);
}

#[test]
fn replicas_actually_hold_copies() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, b"replicated".to_vec());
    c.execute(tx).unwrap();
    // All three OSDs hold the object (3-way replication on 3 OSDs).
    for osd in 0..3 {
        assert!(c.osd_holds(osd, "obj"), "osd {osd} missing the object");
    }
}

#[test]
fn execute_batch_applies_all_and_fans_out() {
    let c = cluster();
    let txs: Vec<Transaction> = (0..4)
        .map(|i| {
            let mut tx = Transaction::new(format!("obj{i}"));
            tx.write(0, vec![i as u8; 4096]);
            tx
        })
        .collect();
    let receipt = c.execute_batch(txs).unwrap();
    assert_eq!(receipt.txs.len(), 4, "one record per transaction");
    match testbed(&c).plan_of(&receipt) {
        Plan::Par(children) => assert_eq!(children.len(), 4),
        other => panic!("batch dispatch must be parallel, got {other:?}"),
    }
    for i in 0..4 {
        assert!(c.object_exists(&format!("obj{i}")));
    }
    let stats = c.exec_stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.transactions, 4);
    assert!(
        stats.shard_fanout_max >= 1,
        "fanout counter must have recorded the batch"
    );
}

#[test]
fn multi_shard_batch_records_fanout() {
    // Force the threaded path so it is exercised on any host.
    let c = Cluster::builder().concurrent_apply(true).build();
    // Enough distinct objects that, with 8 shards over 128 PGs,
    // at least two shards are touched (deterministic placement).
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new(format!("spread{i}"));
            tx.write(0, vec![1u8; 512]);
            tx
        })
        .collect();
    c.execute_batch(txs).unwrap();
    let stats = c.exec_stats();
    assert!(
        stats.shard_fanout_max >= 2,
        "16 distinct objects must fan out over >= 2 shards, got {}",
        stats.shard_fanout_max
    );
    assert!(stats.shard_concurrency_peak >= 1);
    assert!(stats.shard_concurrency_peak <= c.shard_count() as u64);
}

#[test]
fn single_shard_cluster_still_serves_batches() {
    let c = Cluster::builder().shard_count(1).build();
    let txs: Vec<Transaction> = (0..4)
        .map(|i| {
            let mut tx = Transaction::new(format!("obj{i}"));
            tx.write(0, vec![i as u8; 1024]);
            tx
        })
        .collect();
    let receipt = c.execute_batch(txs).unwrap();
    assert_eq!(receipt.txs.len(), 4);
    assert!(matches!(testbed(&c).plan_of(&receipt), Plan::Par(children) if children.len() == 4));
    assert_eq!(c.exec_stats().shard_fanout_max, 1);
    for i in 0..4 {
        assert!(c.object_exists(&format!("obj{i}")));
    }
}

#[test]
fn execute_batch_is_all_or_nothing_across_transactions() {
    let c = cluster();
    let mut good = Transaction::new("good");
    good.write(0, vec![1; 16]);
    let mut bad = Transaction::new("bad");
    bad.write(0, Vec::new()); // invalid: empty write
    assert!(matches!(
        c.execute_batch(vec![good, bad]),
        Err(RadosError::InvalidArgument(_))
    ));
    assert!(
        !c.object_exists("good"),
        "a bad transaction must reject the whole batch before any applies"
    );
    assert_eq!(c.exec_stats().transactions, 0);
}

#[test]
fn empty_batch_is_a_noop() {
    let c = cluster();
    assert_eq!(c.execute_batch(Vec::new()).unwrap(), Receipt::default());
}

#[test]
fn read_batch_zero_fills_missing_objects() {
    let c = cluster();
    let mut tx = Transaction::new("present");
    tx.write(0, b"here".to_vec());
    c.execute(tx).unwrap();
    let (results, receipt) = c
        .read_batch(
            None,
            vec![
                ObjectReads::new("present", vec![ReadOp::Read { offset: 0, len: 4 }]),
                ObjectReads::new("ghost", vec![ReadOp::Read { offset: 0, len: 4 }]),
            ],
        )
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap()[0].as_data(), b"here");
    assert!(results[1].is_none(), "missing object reads as a hole");
    assert_eq!(
        receipt.reads.len(),
        2,
        "one record per request, misses included"
    );
    assert_eq!(c.exec_stats().read_ops, 2);
}

#[test]
fn read_batch_charges_a_round_trip_per_miss() {
    let c = cluster();
    let mut tx = Transaction::new("present");
    tx.write(0, vec![1u8; 4096]);
    c.execute(tx).unwrap();
    let testbed = testbed(&c);
    let (_, receipt) = c
        .read_batch(
            None,
            vec![
                ObjectReads::new(
                    "present",
                    vec![ReadOp::Read {
                        offset: 0,
                        len: 4096,
                    }],
                ),
                ObjectReads::new(
                    "ghost-a",
                    vec![ReadOp::Read {
                        offset: 0,
                        len: 4096,
                    }],
                ),
                ObjectReads::new("ghost-b", vec![ReadOp::Stat]),
            ],
        )
        .unwrap();
    // One record per request, misses included; a miss did nothing on
    // its primary but the round trip.
    assert_eq!(receipt.reads.len(), 3);
    for miss in &receipt.reads[1..] {
        assert!(miss.effects.is_empty() && miss.response_bytes == 0);
    }
    let plan = testbed.plan_of(&receipt);
    match &plan {
        Plan::Par(children) => {
            assert_eq!(children.len(), 3, "sparse misses must keep their cost slot")
        }
        other => panic!("expected parallel dispatch, got {other:?}"),
    }
    // The miss children still move request/response headers but no
    // disk bytes: total op bytes exceed a lone present read's.
    let (_, lone) = c
        .read_batch(
            None,
            vec![ObjectReads::new(
                "present",
                vec![ReadOp::Read {
                    offset: 0,
                    len: 4096,
                }],
            )],
        )
        .unwrap();
    assert!(plan.total_op_bytes() > testbed.plan_of(&lone).total_op_bytes());
    // And a miss costs no disk op on any OSD.
    let (_, miss_only) = c
        .read_batch(None, vec![ObjectReads::new("ghost-c", vec![ReadOp::Stat])])
        .unwrap();
    let miss_only = testbed.plan_of(&miss_only);
    for disk in &testbed.handles().osd_disk {
        assert_eq!(
            miss_only.op_count_on(*disk),
            0,
            "a miss must not touch disk"
        );
    }
    assert!(miss_only.op_count() > 0, "a miss still makes a round trip");
}

#[test]
fn zero_length_read_extent_charges_no_disk_block() {
    let c = cluster();
    let mut tx = Transaction::new("obj");
    tx.write(0, vec![7u8; 4096]);
    c.execute(tx).unwrap();
    let (results, receipt) = c
        .read("obj", None, &[ReadOp::Read { offset: 0, len: 0 }])
        .unwrap();
    assert!(results[0].as_data().is_empty());
    assert!(receipt.reads[0].effects.is_empty());
    let testbed = testbed(&c);
    let plan = testbed.plan_of(&receipt);
    for disk in &testbed.handles().osd_disk {
        assert_eq!(
            plan.op_count_on(*disk),
            0,
            "an empty extent must not be charged a whole block"
        );
    }
}

#[test]
fn batched_and_single_execution_leave_identical_state() {
    let build = |batched: bool| {
        let c = cluster();
        let txs: Vec<Transaction> = (0..3)
            .map(|i| {
                let mut tx = Transaction::new(format!("obj{i}"));
                tx.write(i * 512, vec![0xC0 + i as u8; 2048]);
                tx.omap_set(vec![(vec![i as u8 + 1], vec![0xEE; 16])]);
                tx
            })
            .collect();
        if batched {
            c.execute_batch(txs).unwrap();
        } else {
            for tx in txs {
                c.execute(tx).unwrap();
            }
        }
        c
    };
    let (single, batched) = (build(false), build(true));
    for i in 0..3 {
        let name = format!("obj{i}");
        let ops = [
            ReadOp::Read {
                offset: 0,
                len: 4096,
            },
            ReadOp::OmapGetRange {
                start: vec![],
                end: vec![0xFF],
            },
        ];
        let (a, _) = single.read(&name, None, &ops).unwrap();
        let (b, _) = batched.read(&name, None, &ops).unwrap();
        assert_eq!(a, b, "object {name} diverged between paths");
    }
}

#[test]
fn async_submissions_overlap_and_record_queue_depth() {
    let c = Cluster::builder().concurrent_apply(true).build();
    let mut tickets = Vec::new();
    for i in 0..8u8 {
        let mut tx = Transaction::new(format!("qd{i}"));
        tx.write(0, vec![i + 1; 2048]);
        tickets.push(c.submit_batch(vec![tx]).unwrap());
    }
    // All eight submissions are open before any is reaped:
    // deterministic, client-side-bracketed queue depth.
    assert_eq!(c.exec_stats().queue_depth_peak, 8);
    for ticket in tickets {
        let delta = ticket.stats_delta();
        assert_eq!(delta.transactions, 1);
        assert_eq!(delta.batches, 1);
        assert_eq!(delta.shard_fanout_max, 1);
        assert_eq!(ticket.wait().unwrap().txs.len(), 1);
    }
    for i in 0..8 {
        assert!(c.object_exists(&format!("qd{i}")));
    }
}

#[test]
fn queued_ops_on_one_object_apply_in_submission_order() {
    for workers in GEOMETRIES {
        let c = queued(workers);
        // 32 overlapping writes to each of 16 objects (over several
        // shards), all in flight at once.
        let objects: Vec<String> = (0..16).map(|i| format!("hot{i}")).collect();
        let tickets: Vec<_> = (0..32u8)
            .flat_map(|round| objects.iter().map(move |o| (o, round)))
            .map(|(object, round)| {
                let mut tx = Transaction::new(object.as_str());
                tx.write(0, vec![round; 4096]);
                c.submit_batch(vec![tx]).unwrap()
            })
            .collect();
        // A read submitted after them rides the same shard FIFO, so it
        // must observe exactly the last write — while everything is
        // still in flight.
        for object in &objects {
            let read = c.submit_read_batch(
                None,
                vec![ObjectReads::new(
                    object.as_str(),
                    vec![ReadOp::Read {
                        offset: 0,
                        len: 4096,
                    }],
                )],
            );
            let (results, _) = read.wait().unwrap();
            let data = results[0].as_ref().unwrap()[0].as_data();
            assert!(
                data.iter().all(|&b| b == 31),
                "W = {workers}: a queued read must see every previously submitted write"
            );
        }
        // Reaping after the read is fine; order of reaping is free.
        for ticket in tickets {
            let _ = ticket.wait();
        }
    }
}

#[test]
fn multi_shard_submission_registers_fanout_as_concurrency() {
    let c = Cluster::builder().concurrent_apply(true).build();
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new(format!("spread{i}"));
            tx.write(0, vec![1u8; 512]);
            tx
        })
        .collect();
    let ticket = c.submit_batch(txs).unwrap();
    let fanout = ticket.stats_delta().shard_fanout_max;
    assert!(fanout >= 2, "16 objects must span >= 2 of 8 shards");
    let _ = ticket.wait();
    // Every touched shard is admitted before any job runs, so a
    // single submission's fanout registers as concurrency
    // deterministically — even on a single-core host.
    let stats = c.exec_stats();
    assert!(stats.shard_concurrency_peak >= fanout);
    assert!(stats.shard_concurrency_peak <= c.shard_count() as u64);
}

#[test]
fn inline_mode_serves_submissions_synchronously() {
    let c = Cluster::builder().concurrent_apply(false).build();
    assert!(!c.workers_enabled());
    let mut tx = Transaction::new("inline");
    tx.write(0, vec![7u8; 1024]);
    let ticket = c.submit_batch(vec![tx]).unwrap();
    assert!(ticket.is_complete(), "inline submissions apply at submit");
    assert_eq!(ticket.wait().unwrap().txs.len(), 1);
    let read = c.submit_read_batch(
        None,
        vec![ObjectReads::new(
            "inline",
            vec![ReadOp::Read {
                offset: 0,
                len: 1024,
            }],
        )],
    );
    assert!(read.is_complete());
    let (results, _) = read.wait().unwrap();
    assert_eq!(results[0].as_ref().unwrap()[0].as_data(), &[7u8; 1024][..]);
}

#[test]
fn abandoned_tickets_still_apply_and_release_depth() {
    let c = Cluster::builder().concurrent_apply(true).build();
    let mut tx = Transaction::new("fire-and-forget");
    tx.write(0, vec![1u8; 512]);
    let ticket = c.submit_batch(vec![tx]).unwrap();
    drop(ticket);
    // The write still lands (drain via a queued read).
    let (results, _) = c
        .read(
            "fire-and-forget",
            None,
            &[ReadOp::Read {
                offset: 0,
                len: 512,
            }],
        )
        .unwrap();
    assert_eq!(results[0].as_data(), &[1u8; 512][..]);
}

#[test]
fn flush_drains_abandoned_submissions() {
    for workers in GEOMETRIES {
        let c = queued(workers);
        for i in 0..16u8 {
            let mut tx = Transaction::new(format!("flush{i}"));
            tx.write(0, vec![i + 1; 1024]);
            drop(c.submit_batch(vec![tx]).unwrap());
        }
        c.flush();
        // Direct state inspection is safe after the barrier.
        assert_eq!(c.list_objects().len(), 16, "W = {workers}");
        for i in 0..16u8 {
            assert_eq!(c.stat(&format!("flush{i}")).unwrap().size, 1024);
        }
    }
}

#[test]
fn write_submissions_bump_touched_shard_epochs() {
    let c = cluster();
    let before: Vec<u64> = (0..c.shard_count()).map(|s| c.shard_write_seq(s)).collect();
    let mut tx = Transaction::new("epoch-obj");
    tx.write(0, vec![1u8; 512]);
    let shard = c.placement_shard("epoch-obj");
    c.execute(tx).unwrap();
    assert_eq!(
        c.shard_write_seq(shard),
        before[shard] + 1,
        "the touched shard's epoch advances exactly once per submission"
    );
    for (s, &seq) in before.iter().enumerate() {
        if s != shard {
            assert_eq!(c.shard_write_seq(s), seq, "untouched shard {s} moved");
        }
    }
    // Reads leave every epoch alone.
    c.read("epoch-obj", None, &[ReadOp::Stat]).unwrap();
    assert_eq!(c.shard_write_seq(shard), before[shard] + 1);
}

#[test]
fn multi_shard_batch_bumps_each_touched_shard_once() {
    let c = cluster();
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new(format!("epoch{i}"));
            tx.write(0, vec![1u8; 64]);
            tx
        })
        .collect();
    let mut expected = vec![0u64; c.shard_count()];
    for tx in &txs {
        expected[c.placement_shard(&tx.object)] = 1;
    }
    c.execute_batch(txs).unwrap();
    for (s, &bump) in expected.iter().enumerate() {
        assert_eq!(
            c.shard_write_seq(s),
            bump,
            "shard {s}: one bump per touched shard, none otherwise"
        );
    }
}

#[test]
fn epoch_bumps_before_a_concurrent_submissions_jobs_apply() {
    // The contract client caches rely on: once a submission's
    // ticket exists, every touched shard's epoch has advanced —
    // even while the jobs are still queued behind workers.
    let c = Cluster::builder().concurrent_apply(true).build();
    let mut tx = Transaction::new("inflight");
    tx.write(0, vec![9u8; 1 << 20]);
    let shard = c.placement_shard("inflight");
    let ticket = c.submit_batch(vec![tx]).unwrap();
    assert_eq!(c.shard_write_seq(shard), 1);
    let _ = ticket.wait();
    assert_eq!(c.shard_write_seq(shard), 1, "apply itself adds nothing");
}

#[test]
fn snapshots_bump_every_shard_epoch() {
    let c = cluster();
    let before: Vec<u64> = (0..c.shard_count()).map(|s| c.shard_write_seq(s)).collect();
    c.create_snap();
    for (s, &seq) in before.iter().enumerate() {
        assert_eq!(c.shard_write_seq(s), seq + 1, "shard {s}");
    }
}

#[test]
fn meta_cache_bytes_forwards_the_builder_budget() {
    let c = cluster();
    assert_eq!(c.meta_cache_bytes(), DEFAULT_META_CACHE_BYTES);
    let off = Cluster::builder().meta_cache_bytes(0).build();
    assert_eq!(off.meta_cache_bytes(), 0);
}

#[test]
fn compare_xattr_gates_the_whole_transaction() {
    let c = cluster();
    let mut tx = Transaction::new("hdr");
    tx.compare_xattr("gen", None); // object absent: precondition holds
    tx.write(0, b"v1".to_vec());
    tx.set_xattr("gen", 1u64.to_le_bytes().to_vec());
    c.execute(tx).unwrap();

    // Stale writer: read gen 0 (absent), loses to the update above.
    let mut stale = Transaction::new("hdr");
    stale.compare_xattr("gen", None);
    stale.write(0, b"stale".to_vec());
    assert!(matches!(
        c.execute(stale),
        Err(RadosError::CompareFailed { .. })
    ));
    let (results, _) = c
        .read("hdr", None, &[ReadOp::Read { offset: 0, len: 2 }])
        .unwrap();
    assert_eq!(results[0].as_data(), b"v1", "failed CAS must apply nothing");

    // Fresh writer: expects gen 1, wins.
    let mut fresh = Transaction::new("hdr");
    fresh.compare_xattr("gen", Some(1u64.to_le_bytes().to_vec()));
    fresh.write(0, b"v2".to_vec());
    fresh.set_xattr("gen", 2u64.to_le_bytes().to_vec());
    c.execute(fresh).unwrap();
    let (results, _) = c
        .read("hdr", None, &[ReadOp::Read { offset: 0, len: 2 }])
        .unwrap();
    assert_eq!(results[0].as_data(), b"v2");
}

#[test]
fn compare_xattr_failure_skips_only_its_transaction_in_a_batch() {
    let c = cluster();
    let mut guarded = Transaction::new("guarded");
    guarded.compare_xattr("v", Some(b"nope".to_vec()));
    guarded.write(0, vec![1; 16]);
    let mut plain = Transaction::new("plain");
    plain.write(0, vec![2; 16]);
    assert!(matches!(
        c.execute_batch(vec![guarded, plain]),
        Err(RadosError::CompareFailed { .. })
    ));
    assert!(!c.object_exists("guarded"), "guarded tx applied nothing");
    assert!(
        c.object_exists("plain"),
        "dynamic preconditions are per-transaction, not per-batch"
    );
}

#[test]
fn compare_xattr_works_through_the_queued_path() {
    let c = Cluster::builder().concurrent_apply(true).build();
    let mut tx = Transaction::new("hdr");
    tx.compare_xattr("gen", None);
    tx.set_xattr("gen", b"1".to_vec());
    tx.write(0, b"x".to_vec());
    let ticket = c.submit_batch(vec![tx]).unwrap();
    ticket.wait().unwrap();
    let mut stale = Transaction::new("hdr");
    stale.compare_xattr("gen", None);
    stale.write(0, b"y".to_vec());
    let ticket = c.submit_batch(vec![stale]).unwrap();
    assert!(matches!(
        ticket.wait(),
        Err(RadosError::CompareFailed { .. })
    ));
}

#[test]
fn snap_ids_are_monotonic() {
    let c = cluster();
    let a = c.create_snap();
    let b = c.create_snap();
    assert!(b > a);
    assert_eq!(c.snap_seq(), b);
}
