//! Concurrency stress over the sharded cluster: many client threads,
//! each acting as one "image", hammer `execute_batch`/`read_batch` on
//! one shared cluster. Asserts, loom-free:
//!
//! - `ExecStats` totals are exact under contention (no lost updates);
//! - the final object state is byte-identical to a sequential replay
//!   of the same per-thread operation streams;
//! - a malformed transaction in a batch spanning many shards leaves
//!   every shard untouched (batch-level all-or-nothing);
//! - replicas stay consistent (scrub is clean after the storm).
//!
//! CI runs this under `--release` so the concurrent path is exercised
//! with optimizations on.

use vdisk_rados::{Cluster, ObjectReads, RadosError, ReadOp, Transaction};

const THREADS: usize = 8;
const BATCHES_PER_THREAD: usize = 16;
const OBJS_PER_BATCH: usize = 6;
/// Objects per thread; smaller than the write count so later batches
/// overwrite earlier objects (exercising RMW and COW paths too).
const OBJS_PER_THREAD: usize = 24;

fn object_name(thread: usize, batch: usize, slot: usize) -> String {
    let obj = (batch * OBJS_PER_BATCH + slot) % OBJS_PER_THREAD;
    format!("img{thread}.obj{obj:04}")
}

fn payload(thread: usize, batch: usize, slot: usize) -> Vec<u8> {
    let fill = (thread * 31 + batch * 7 + slot + 1) as u8;
    vec![fill; 1024 * (1 + slot % 4)]
}

fn batch_txs(thread: usize, batch: usize) -> Vec<Transaction> {
    (0..OBJS_PER_BATCH)
        .map(|slot| {
            let mut tx = Transaction::new(object_name(thread, batch, slot));
            tx.write((slot as u64) * 512, payload(thread, batch, slot));
            tx.omap_set(vec![(
                format!("seq.{batch:04}").into_bytes(),
                vec![slot as u8; 8],
            )]);
            tx
        })
        .collect()
}

fn read_requests(thread: usize, batch: usize) -> Vec<ObjectReads> {
    (0..OBJS_PER_BATCH)
        .map(|slot| {
            ObjectReads::new(
                object_name(thread, batch, slot),
                vec![ReadOp::Read {
                    offset: 0,
                    len: 16384,
                }],
            )
        })
        .collect()
}

fn build_cluster() -> Cluster {
    Cluster::builder()
        .osd_count(5)
        .replicas(3)
        .shard_count(8)
        // Force scoped-thread application so the concurrent path is
        // exercised even on single-core CI hosts.
        .concurrent_apply(true)
        .build()
}

/// Runs every thread's operation stream on `cluster`, concurrently or
/// sequentially. Threads only ever touch their own objects, so the
/// final state is schedule-independent and must match across modes.
fn run_streams(cluster: &Cluster, concurrent: bool) {
    let work = |thread: usize| {
        for batch in 0..BATCHES_PER_THREAD {
            cluster.execute_batch(batch_txs(thread, batch)).unwrap();
            let (results, receipt) = cluster
                .read_batch(None, read_requests(thread, batch))
                .unwrap();
            assert_eq!(results.len(), OBJS_PER_BATCH);
            for (slot, result) in results.iter().enumerate() {
                let data = result.as_ref().expect("just-written object exists")[0].as_data();
                let expected = payload(thread, batch, slot);
                let off = slot * 512;
                assert_eq!(
                    &data[off..off + expected.len()],
                    &expected[..],
                    "thread {thread} batch {batch} slot {slot} read back wrong bytes"
                );
            }
            // One record per request even if some were misses.
            assert_eq!(receipt.reads.len(), OBJS_PER_BATCH);
        }
    };
    if concurrent {
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                s.spawn(move || work(thread));
            }
        });
    } else {
        for thread in 0..THREADS {
            work(thread);
        }
    }
}

#[test]
fn concurrent_batches_keep_exact_stats_and_sequential_byte_identity() {
    let concurrent = build_cluster();
    let sequential = build_cluster();
    run_streams(&concurrent, true);
    run_streams(&sequential, false);

    // Counter exactness: every transaction, batch and read op counted
    // once, with no lost updates under contention.
    let c = concurrent.exec_stats();
    let s = sequential.exec_stats();
    let expected_batches = (THREADS * BATCHES_PER_THREAD) as u64;
    let expected_txs = expected_batches * OBJS_PER_BATCH as u64;
    assert_eq!(c.transactions, expected_txs);
    assert_eq!(c.batches, expected_batches);
    assert_eq!(c.read_ops, expected_txs);
    assert_eq!(
        (s.transactions, s.batches, s.read_ops),
        (c.transactions, c.batches, c.read_ops)
    );

    // The shard-parallelism counters observed the fan-out.
    assert!(
        c.shard_fanout_max >= 2,
        "six distinct objects per batch must span >= 2 of 8 shards"
    );
    assert!(c.shard_concurrency_peak >= 1);
    assert!(c.shard_concurrency_peak <= concurrent.shard_count() as u64);

    // Byte-identity with the sequential replay: same object
    // directory, same data, same OMAP, on every object.
    let names = concurrent.list_objects();
    assert_eq!(names, sequential.list_objects());
    assert_eq!(names.len(), THREADS * OBJS_PER_THREAD);
    for name in &names {
        let ops = [
            ReadOp::Read {
                offset: 0,
                len: 16384,
            },
            ReadOp::OmapGetRange {
                start: Vec::new(),
                end: vec![0xFF; 12],
            },
            ReadOp::Stat,
        ];
        let (a, _) = concurrent.read(name, None, &ops).unwrap();
        let (b, _) = sequential.read(name, None, &ops).unwrap();
        assert_eq!(a, b, "object {name} diverged from the sequential replay");
    }

    // Replication survived the storm.
    let report = concurrent.scrub();
    assert!(report.is_clean(), "divergent: {:?}", report.divergent);
    assert_eq!(report.objects_checked, names.len());
}

#[test]
fn malformed_tx_in_a_multi_shard_batch_applies_nothing() {
    let cluster = build_cluster();
    // 16 distinct objects spread over many shards, plus one bad tx.
    let mut txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new(format!("atomic{i}"));
            tx.write(0, vec![0x5A; 2048]);
            tx
        })
        .collect();
    let mut bad = Transaction::new("atomic-bad");
    bad.write(0, Vec::new()); // invalid: empty write
    txs.insert(7, bad);

    assert!(matches!(
        cluster.execute_batch(txs),
        Err(RadosError::InvalidArgument(_))
    ));
    assert!(
        cluster.list_objects().is_empty(),
        "no shard may apply anything from a rejected batch"
    );
    let stats = cluster.exec_stats();
    assert_eq!(stats.transactions, 0);
    assert_eq!(stats.batches, 0);
}

#[test]
fn concurrent_writers_on_disjoint_objects_never_corrupt_each_other() {
    // A tighter interleaving check: two threads ping-pong batches over
    // objects that share shards, with reads racing writes.
    let cluster = build_cluster();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let cluster = cluster.clone();
            s.spawn(move || {
                for round in 0..32usize {
                    let name = format!("pp{t}");
                    let fill = (t * 64 + round + 1) as u8;
                    let mut tx = Transaction::new(&name);
                    tx.write(0, vec![fill; 8192]);
                    cluster.execute_batch(vec![tx]).unwrap();
                    let (results, _) = cluster
                        .read_batch(
                            None,
                            vec![ObjectReads::new(
                                &name,
                                vec![ReadOp::Read {
                                    offset: 0,
                                    len: 8192,
                                }],
                            )],
                        )
                        .unwrap();
                    let data = results[0].as_ref().unwrap()[0].as_data();
                    // Own object: nobody else writes it, so the read
                    // must see exactly this round's fill.
                    assert!(
                        data.iter().all(|&b| b == fill),
                        "thread {t} round {round}: torn read"
                    );
                }
            });
        }
    });
    assert!(cluster.scrub().is_clean());
}

/// The asynchronous half of the storm: every thread keeps a queue of
/// in-flight submissions (writes *and* reads) at depth 8 instead of
/// waiting on each — cross-batch concurrency on the shard work queues.
/// The per-shard FIFO ordering rule must make the final state
/// byte-identical to a sequential replay of the same streams, and the
/// realized client queue depth must register deterministically.
#[test]
fn async_submission_storm_matches_sequential_replay() {
    const DEPTH: usize = 8;

    let run_async = |cluster: &Cluster| {
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let cluster = cluster.clone();
                s.spawn(move || {
                    let mut write_tickets = Vec::new();
                    let mut read_tickets = Vec::new();
                    for batch in 0..BATCHES_PER_THREAD {
                        write_tickets.push(cluster.submit_batch(batch_txs(thread, batch)).unwrap());
                        // The read of this batch is submitted while the
                        // write (and up to DEPTH predecessors) is still
                        // in flight; FIFO per shard makes it exact.
                        read_tickets.push((
                            batch,
                            cluster.submit_read_batch(None, read_requests(thread, batch)),
                        ));
                        if write_tickets.len() >= DEPTH {
                            let receipt = write_tickets.remove(0).wait().unwrap();
                            assert_eq!(receipt.txs.len(), OBJS_PER_BATCH);
                        }
                        if read_tickets.len() >= DEPTH {
                            let (batch, ticket) = read_tickets.remove(0);
                            verify_read(thread, batch, ticket);
                        }
                    }
                    for ticket in write_tickets {
                        let _ = ticket.wait();
                    }
                    for (batch, ticket) in read_tickets {
                        verify_read(thread, batch, ticket);
                    }
                });
            }
        });
    };

    let concurrent = build_cluster();
    run_async(&concurrent);
    let sequential = build_cluster();
    run_streams(&sequential, false);

    // Exact counters under async contention: every submission counted
    // once, and the client-side queue depth registered.
    let c = concurrent.exec_stats();
    let expected_batches = (THREADS * BATCHES_PER_THREAD) as u64;
    assert_eq!(c.batches, expected_batches);
    assert_eq!(c.transactions, expected_batches * OBJS_PER_BATCH as u64);
    assert_eq!(c.read_ops, expected_batches * OBJS_PER_BATCH as u64);
    assert!(
        c.queue_depth_peak >= DEPTH as u64,
        "a depth-{DEPTH} submission loop must register at least that depth, got {}",
        c.queue_depth_peak
    );
    // Each batch spans several shards, all admitted before any applies,
    // so multi-shard concurrency registers deterministically; genuine
    // cross-submission wall-clock overlap needs a second core.
    assert!(c.shard_concurrency_peak >= 2);
    assert!(c.shard_concurrency_peak <= concurrent.shard_count() as u64);

    // Byte-identity with the sequential replay, on every object.
    let names = concurrent.list_objects();
    assert_eq!(names, sequential.list_objects());
    for name in &names {
        let ops = [
            ReadOp::Read {
                offset: 0,
                len: 16384,
            },
            ReadOp::OmapGetRange {
                start: Vec::new(),
                end: vec![0xFF; 12],
            },
            ReadOp::Stat,
        ];
        let (a, _) = concurrent.read(name, None, &ops).unwrap();
        let (b, _) = sequential.read(name, None, &ops).unwrap();
        assert_eq!(a, b, "object {name} diverged from the sequential replay");
    }
    assert!(concurrent.scrub().is_clean());
}

/// A read ticket submitted immediately after its batch's write must
/// see exactly that batch's bytes, even reaped depth-8 later.
fn verify_read(thread: usize, batch: usize, ticket: vdisk_rados::ReadTicket) {
    let (results, receipt) = ticket.wait().unwrap();
    assert_eq!(results.len(), OBJS_PER_BATCH);
    assert_eq!(receipt.reads.len(), OBJS_PER_BATCH);
    for (slot, result) in results.iter().enumerate() {
        let data = result.as_ref().expect("just-written object exists")[0].as_data();
        let expected = payload(thread, batch, slot);
        let off = slot * 512;
        assert_eq!(
            &data[off..off + expected.len()],
            &expected[..],
            "thread {thread} batch {batch} slot {slot} read back wrong bytes"
        );
    }
}
