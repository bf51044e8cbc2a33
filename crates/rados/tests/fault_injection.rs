//! The fault plane under test: seeded transient/persistent/delay
//! injection, the in-worker retry layer (bounded, visible in stats),
//! and the durable backend's torn-commit crash point.
//!
//! CI's fault matrix runs this suite across backends and seeds:
//! `VDISK_BACKEND=memory|file` selects the store and
//! `VDISK_FAULT_SEED` reseeds every cluster's fault stream, so each
//! matrix cell exercises a different deterministic schedule.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vdisk_rados::{
    BackendKind, Cluster, FaultConfig, FaultKind, ObjectReads, RadosError, ReadOp, ReadResult,
    RetryPolicy, SnapId, Transaction,
};

/// The matrix seed: every cluster in this suite derives its fault
/// stream from it, so one env var re-rolls the whole schedule.
fn matrix_seed() -> u64 {
    std::env::var("VDISK_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA_17)
}

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

fn write_tx(object: &str, fill: u8) -> Transaction {
    let mut tx = Transaction::new(object.to_string());
    tx.write(0, vec![fill; 4096]);
    tx
}

/// Transient faults at a high rate are absorbed by the retry layer:
/// every op still succeeds, and the injections and replays are both
/// visible — in the plane's counters and in `ExecStats::retries`.
#[test]
fn transient_faults_are_retried_and_visible_in_stats() {
    let cluster = Cluster::builder()
        .fault_plane(FaultConfig::new(matrix_seed()).transient_rate(0.4))
        .build();
    for i in 0..64 {
        cluster
            .execute(write_tx(&format!("obj-{i}"), i as u8))
            .unwrap();
    }
    for i in 0..64 {
        let (results, _) = cluster
            .read(
                &format!("obj-{i}"),
                None,
                &[ReadOp::Read {
                    offset: 0,
                    len: 4096,
                }],
            )
            .unwrap();
        assert_eq!(
            results[0].as_data()[0],
            i as u8,
            "retried IO must replay intact"
        );
    }
    let plane = cluster.fault_plane().expect("plane configured");
    assert!(plane.injected_transients() > 0, "a 40% rate must fire");
    assert!(
        cluster.exec_stats().retries >= plane.injected_transients(),
        "every absorbed transient is at least one recorded retry"
    );
}

/// Per-ticket stats carry the retries their own op absorbed, whichever
/// kind of ticket it is: submitted writes and reads against a high
/// transient rate replay in the worker and report those replays in
/// their `stats_delta`.
#[test]
fn ticket_stats_count_their_own_retries() {
    let cluster = Cluster::builder()
        .fault_plane(
            FaultConfig::new(matrix_seed())
                .transient_rate(0.9)
                .max_consecutive(3),
        )
        .build();
    let (mut write_retries, mut read_retries) = (0, 0);
    for i in 0..16 {
        let object = format!("hot-{i}");
        let ticket = cluster
            .submit_batch(vec![write_tx(&object, i as u8)])
            .unwrap();
        while !ticket.is_complete() {
            std::thread::yield_now();
        }
        write_retries += ticket.stats_delta().retries;
        ticket.wait().unwrap();

        let ops = vec![ReadOp::Read {
            offset: 0,
            len: 4096,
        }];
        let ticket = cluster.submit_read_batch(None, vec![ObjectReads::new(object, ops)]);
        while !ticket.is_complete() {
            std::thread::yield_now();
        }
        read_retries += ticket.stats_delta().retries;
        let (results, _) = ticket.wait().unwrap();
        assert_eq!(results[0].as_ref().unwrap()[0].as_data()[0], i as u8);
    }
    assert!(
        write_retries > 0 && read_retries > 0,
        "a 90% transient rate must replay at least one of 16 submissions of each kind \
         (writes {write_retries}, reads {read_retries})"
    );
    assert_eq!(
        cluster.exec_stats().retries,
        write_retries + read_retries,
        "the cluster-wide counter is the sum of the tickets'"
    );
}

/// A persistent fault is not retried: it surfaces immediately as a
/// typed, non-retryable error naming the faulted shard.
#[test]
fn persistent_faults_surface_without_retries() {
    let cluster = Cluster::builder()
        .fault_plane(FaultConfig::new(matrix_seed()).fail_objects("poison", FaultKind::Persistent))
        .build();
    let err = cluster.execute(write_tx("poison-pill", 1)).unwrap_err();
    match &err {
        RadosError::Injected { kind, .. } => assert_eq!(*kind, FaultKind::Persistent),
        other => panic!("expected an injected fault, got {other}"),
    }
    assert!(!err.is_retryable());
    assert_eq!(
        cluster.exec_stats().retries,
        0,
        "persistent faults must not burn retry budget"
    );
    // Unmatched objects are untouched.
    cluster.execute(write_tx("healthy", 2)).unwrap();
}

/// `RetryPolicy::none` turns even transient faults into surfaced
/// errors — the knob callers use to see every injection.
#[test]
fn retry_policy_none_surfaces_transients() {
    let cluster = Cluster::builder()
        .fault_plane(FaultConfig::new(matrix_seed()).fail_objects("victim", FaultKind::Transient))
        .retry_policy(RetryPolicy::none())
        .build();
    let err = cluster.execute(write_tx("victim-0", 1)).unwrap_err();
    assert!(
        matches!(
            err,
            RadosError::Injected {
                kind: FaultKind::Transient,
                ..
            }
        ),
        "got {err}"
    );
    assert!(err.is_retryable(), "transients stay typed as retryable");
}

/// A bounded budget exhausts against an always-faulting object: the
/// op fails with the transient error after exactly budget replays.
#[test]
fn retry_budget_exhaustion_fails_the_op() {
    let cluster = Cluster::builder()
        .fault_plane(FaultConfig::new(matrix_seed()).fail_objects("cursed", FaultKind::Transient))
        .retry_policy(
            RetryPolicy::default()
                .max_retries(3)
                .backoff(Duration::ZERO, Duration::ZERO),
        )
        .build();
    let err = cluster.execute(write_tx("cursed-obj", 1)).unwrap_err();
    assert!(matches!(
        err,
        RadosError::Injected {
            kind: FaultKind::Transient,
            ..
        }
    ));
    assert_eq!(
        cluster.exec_stats().retries,
        3,
        "exactly the budget's replays are recorded"
    );
}

/// Delay injection slows completions without failing them.
#[test]
fn delays_are_injected_and_counted() {
    let cluster = Cluster::builder()
        .fault_plane(FaultConfig::new(matrix_seed()).delay(1.0, Duration::from_micros(50)))
        .build();
    for i in 0..8 {
        cluster
            .execute(write_tx(&format!("slow-{i}"), i as u8))
            .unwrap();
    }
    let plane = cluster.fault_plane().unwrap();
    assert!(plane.injected_delays() >= 8, "rate 1.0 delays every job");
}

/// The same seed yields the same injection schedule: fault decisions
/// are a pure function of (seed, shard, draw index), independent of
/// wall-clock or thread timing.
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let run = |seed: u64| -> (u64, Vec<bool>) {
        let cluster = Cluster::builder()
            .shard_count(1)
            .fault_plane(FaultConfig::new(seed).transient_rate(0.5))
            .retry_policy(RetryPolicy::none())
            .build();
        let outcomes: Vec<bool> = (0..32)
            .map(|i| cluster.execute(write_tx(&format!("d-{i}"), 0)).is_ok())
            .collect();
        (
            cluster.fault_plane().unwrap().injected_transients(),
            outcomes,
        )
    };
    let seed = matrix_seed();
    assert_eq!(run(seed), run(seed), "same seed, same schedule");
    assert_ne!(
        run(seed).1,
        run(seed ^ 0xDEAD_BEEF).1,
        "different seeds must diverge (astronomically unlikely to collide)"
    );
}

/// The durable backend's torn-commit crash: the crash point sits in
/// the middle of the transaction's log append, so the shard's redo log
/// is left with the acknowledged records plus half of the one that
/// died — exactly what a kill -9 inside that `write` leaves. A
/// reopened cluster sees the acknowledged prefix and nothing of the
/// torn record.
#[test]
fn file_backend_crash_leaves_torn_commit_and_recovers_prior_state() {
    let dir = scratch("crash-commit");
    {
        let cluster = Cluster::builder()
            .backend(BackendKind::File { dir: dir.clone() })
            .fault_plane(FaultConfig::new(matrix_seed()).crash_at_commit(1))
            .build();
        cluster.execute(write_tx("obj", 0xAA)).unwrap(); // commit point #0 lands
        let err = cluster.execute(write_tx("obj", 0xBB)).unwrap_err(); // #1 crashes
        assert!(
            matches!(
                err,
                RadosError::Injected {
                    kind: FaultKind::Crash,
                    ..
                }
            ),
            "got {err}"
        );
        assert!(cluster.fault_plane().unwrap().crashed());
        // The latch holds: everything after the crash fails fast.
        assert!(cluster.execute(write_tx("other", 1)).is_err());
        cluster.flush();
    }
    // Evidence of the tear on disk: one whole record and half of the
    // next (a record of a 4 KiB write is a little over 4 KiB).
    let log_bytes: u64 = walk(&dir)
        .into_iter()
        .filter(|p| p.file_name().is_some_and(|n| n == "shard.log"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(
        (4096 + 2048..2 * 4096).contains(&log_bytes),
        "the crashed append must leave half a record behind, log holds {log_bytes} bytes"
    );
    let cluster = Cluster::builder()
        .backend(BackendKind::File { dir: dir.clone() })
        .build();
    let (results, _) = cluster
        .read(
            "obj",
            None,
            &[ReadOp::Read {
                offset: 0,
                len: 4096,
            }],
        )
        .unwrap();
    assert_eq!(
        results[0].as_data()[0],
        0xAA,
        "recovery must surface the last acknowledged commit, not the torn one"
    );
    assert!(
        cluster.scrub().is_clean(),
        "one record covers every replica"
    );
    assert!(
        walk(&dir).into_iter().all(|p| {
            p.file_name().is_some_and(|n| n != "shard.log")
                || std::fs::metadata(&p).unwrap().len() == 0
        }),
        "recovery checkpoints: the torn tail is gone and the logs are empty"
    );
}

/// What a client can observe of a cluster: every object's payload,
/// OMAP, xattr and size at the head, and its payload at each snapshot.
type Observation = Vec<(String, Vec<Option<Vec<ReadResult>>>)>;

fn observe(cluster: &Cluster, snaps: &[SnapId]) -> Observation {
    let ops = vec![
        ReadOp::Stat,
        ReadOp::Read {
            offset: 0,
            len: 1 << 20,
        },
        ReadOp::OmapGetRange {
            start: vec![],
            end: vec![0xFF, 0xFF],
        },
        ReadOp::GetXattr("tag".into()),
    ];
    (0..SWEEP_OBJECTS)
        .map(|obj| {
            let name = format!("sweep.{obj}");
            let views = std::iter::once(None)
                .chain(snaps.iter().copied().map(Some))
                .map(|snap| {
                    let request = vec![ObjectReads::new(name.clone(), ops.clone())];
                    let (mut results, _) = cluster.read_batch(snap, request).unwrap();
                    results.pop().unwrap()
                })
                .collect();
            (name, views)
        })
        .collect()
}

const SWEEP_OBJECTS: u64 = 4;

/// One step of the crash sweep's workload.
#[derive(Debug, Clone)]
enum Step {
    Tx(Transaction),
    Snapshot,
}

/// A seeded mixed workload: in-range overwrites, growth, OMAP and
/// xattr updates, truncates, one snapshot mid-way, one delete (and a
/// later re-creation), and enough bulk to carry a shard's log past its
/// checkpoint threshold more than once — so the sweep crosses every
/// kind of commit point: appends to a fresh and to a recycled log,
/// both checkpoint branches, and the log's reset.
fn sweep_workload(seed: u64) -> Vec<Step> {
    let mut state = seed;
    let mut next = move |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut steps = Vec::new();
    for obj in 0..SWEEP_OBJECTS {
        let mut tx = Transaction::new(format!("sweep.{obj}"));
        tx.write(0, vec![obj as u8; 64 << 10]);
        steps.push(Step::Tx(tx));
    }
    for i in 0..40u64 {
        if i == 18 {
            steps.push(Step::Snapshot);
        }
        let mut tx = Transaction::new(format!("sweep.{}", next(SWEEP_OBJECTS)));
        match if i == 26 { 5 } else { next(5) } {
            0 | 1 => {
                tx.write(next(15) * 4096, vec![i as u8; 4096]);
                tx.write((60 << 10) + next(64) * 16, vec![!i as u8; 16]);
            }
            2 => {
                tx.write(
                    (64 << 10) + next(8) * 4096,
                    vec![i as u8; 1 + next(4096) as usize],
                );
            }
            3 => {
                tx.omap_set(vec![(vec![next(4) as u8], vec![i as u8; 16])]);
                tx.set_xattr("tag", vec![i as u8]);
            }
            4 => {
                tx.truncate((32 << 10) + next(64 << 10));
                tx.omap_remove(vec![vec![next(4) as u8]]);
            }
            _ => {
                tx.delete();
            }
        }
        steps.push(Step::Tx(tx));
    }
    // Bulk: 512 KiB writes to one object. The first few carry its
    // shard's log past the 2 MiB cap, which recycles the log; the rest
    // take it round again, so every later append lands on a recycled
    // log, lined up over whole stale frames of the same length.
    for i in 0..12u64 {
        let mut tx = Transaction::new("sweep.0");
        tx.write(0, vec![0xB0 + i as u8; 512 << 10]);
        steps.push(Step::Tx(tx));
    }
    steps
}

/// Runs `steps` until one fails; returns how many succeeded and the
/// snapshots taken.
fn drive(cluster: &Cluster, steps: &[Step]) -> (usize, Vec<SnapId>) {
    let mut snaps = Vec::new();
    for (done, step) in steps.iter().enumerate() {
        match step {
            Step::Snapshot => snaps.push(cluster.create_snap()),
            Step::Tx(tx) => {
                if cluster.execute(tx.clone()).is_err() {
                    return (done, snaps);
                }
            }
        }
    }
    (steps.len(), snaps)
}

/// Crash at **every** commit point of the mixed workload — each log
/// append, each whole-object rewrite inside a checkpoint, each
/// "files patched, log not yet emptied" — then reopen the directory
/// and compare what a client sees with an in-memory cluster that ran
/// exactly the acknowledged prefix. The transaction in flight at the
/// crash may have reached the log whole (a crash inside the checkpoint
/// that follows its append) and then survives; nothing else may differ,
/// and every replica must agree.
#[test]
fn file_backend_crash_at_every_commit_point_reopens_to_the_acknowledged_prefix() {
    let steps = sweep_workload(matrix_seed());
    let build = |dir: &std::path::Path, crash_at: Option<u64>| {
        let mut builder = Cluster::builder()
            .backend(BackendKind::File {
                dir: dir.to_path_buf(),
            })
            .shard_count(2);
        if let Some(n) = crash_at {
            builder = builder.fault_plane(FaultConfig::new(matrix_seed()).crash_at_commit(n));
        }
        builder.build()
    };
    let model = |prefix: &[Step]| {
        let mem = Cluster::builder()
            .backend(BackendKind::Memory)
            .shard_count(2)
            .build();
        let (_, snaps) = drive(&mem, prefix);
        observe(&mem, &snaps)
    };

    // A run that never crashes counts the commit points there are.
    let total = {
        let dir = scratch("crash-sweep-count");
        let cluster = build(&dir, Some(u64::MAX));
        assert_eq!(drive(&cluster, &steps).0, steps.len());
        cluster.flush();
        let total = cluster.fault_plane().unwrap().commit_points();
        let snaps = (1..=cluster.snap_seq().0).map(SnapId).collect::<Vec<_>>();
        assert_eq!(observe(&cluster, &snaps), model(&steps));
        total
    };
    let txs = steps.iter().filter(|s| matches!(s, Step::Tx(_))).count() as u64;
    assert!(
        total > txs + 4,
        "{total} commit points for {txs} transactions: checkpoints must add theirs"
    );

    for crash_at in 0..total {
        let dir = scratch("crash-sweep");
        let acked = {
            let cluster = build(&dir, Some(crash_at));
            let (acked, _) = drive(&cluster, &steps);
            cluster.flush(); // crashes too, or is a no-op once crashed
            assert!(
                cluster.fault_plane().unwrap().crashed(),
                "ordinal {crash_at}"
            );
            acked
        };
        let cluster = build(&dir, None);
        let snaps = (1..=cluster.snap_seq().0).map(SnapId).collect::<Vec<_>>();
        let seen = observe(&cluster, &snaps);
        let in_flight = (acked + 1).min(steps.len());
        assert!(
            seen == model(&steps[..acked]) || seen == model(&steps[..in_flight]),
            "crash at commit point {crash_at}: reopened state is neither the {acked} \
             acknowledged steps nor those plus the one in flight"
        );
        assert!(
            cluster.scrub().is_clean(),
            "ordinal {crash_at}: replicas diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out
}
