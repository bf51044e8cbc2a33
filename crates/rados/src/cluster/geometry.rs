//! The worker geometry: how many threads serve the shard queues, and
//! proof that the count changes nothing a client can observe. The
//! queued-path tests here and the FIFO and flush tests in `tests.rs`
//! run at `W = 1` (every shard on one worker) and at
//! `W = shard_count` (one worker per shard), whatever the host.

use super::*;
use crate::backend::BackendKind;
use crate::builder::worker_count;
use crate::fault::FaultConfig;
use crate::queue::tests::Probe;
use crate::transaction::ReadOp;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const SHARDS: usize = 8;

/// The two geometries every queued-path test runs at.
pub(super) const GEOMETRIES: [usize; 2] = [1, SHARDS];

/// A queued cluster on the default backend with exactly `workers`
/// worker threads.
pub(super) fn queued(workers: usize) -> Cluster {
    geometry(Cluster::builder(), workers)
}

fn geometry(builder: ClusterBuilder, workers: usize) -> Cluster {
    let c = builder
        .shard_count(SHARDS)
        .concurrent_apply(true)
        .force_workers(workers)
        .build();
    assert_eq!(c.worker_threads(), workers);
    c
}

fn write(c: &Cluster, object: &str, fill: u8) -> ApplyTicket {
    let mut tx = Transaction::new(object);
    tx.write(0, vec![fill; 512]);
    c.submit_batch(vec![tx]).unwrap()
}

fn head(c: &Cluster, object: &str) -> Vec<u8> {
    let (results, _) = c
        .read(
            object,
            None,
            &[ReadOp::Read {
                offset: 0,
                len: 512,
            }],
        )
        .unwrap();
    results[0].as_data().to_vec()
}

/// Two object names on different shards (`a` on shard 0).
fn two_shards(c: &Cluster) -> (String, String) {
    let on = |shard: usize| {
        (0..)
            .map(|i| format!("geo{i}"))
            .find(|name| c.placement_shard(name) == shard)
            .unwrap()
    };
    (on(0), on(1))
}

#[test]
fn the_worker_count_rule() {
    let memory = BackendKind::Memory;
    let file = BackendKind::File {
        dir: "unused".into(),
    };
    for cores in [1, 2, 3, 4, 5, 16] {
        for shards in [1, 3, 8] {
            let spare = (cores - 1).max(1);
            assert_eq!(
                worker_count(Some(true), &memory, shards, cores),
                shards.min(spare),
                "memory: one worker per spare core ({cores} cores, {shards} shards)"
            );
            assert_eq!(worker_count(Some(true), &file, shards, cores), shards);
            for backend in [&memory, &file] {
                assert_eq!(worker_count(Some(false), backend, shards, cores), 0);
                // Auto: inline on a single core, forced-on otherwise.
                let auto = if cores == 1 {
                    0
                } else {
                    worker_count(Some(true), backend, shards, cores)
                };
                assert_eq!(worker_count(None, backend, shards, cores), auto);
            }
        }
    }
}

#[test]
fn a_built_cluster_follows_the_rule() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let memory = Cluster::builder()
        .backend(BackendKind::Memory)
        .shard_count(SHARDS)
        .concurrent_apply(true)
        .build();
    assert_eq!(memory.worker_threads(), SHARDS.min((cores - 1).max(1)));
    assert!(memory.workers_enabled());
    let inline = Cluster::builder()
        .backend(BackendKind::Memory)
        .concurrent_apply(false)
        .build();
    assert_eq!(inline.worker_threads(), 0);
    assert!(!inline.workers_enabled());

    let dir = std::env::temp_dir().join(format!("vdisk-geometry-{}", std::process::id()));
    let file = Cluster::builder()
        .backend(BackendKind::File { dir: dir.clone() })
        .shard_count(SHARDS)
        .concurrent_apply(true)
        .build();
    assert_eq!(
        file.worker_threads(),
        SHARDS,
        "one worker per shard on disk"
    );
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The name of the thread that serves a job for `object`'s shard.
fn served_by(c: &Cluster, object: &str) -> Option<String> {
    let mut ticket = c.submit::<Probe>(vec![object.to_string()], false, false, false);
    ticket.reap().pop().unwrap().unwrap()
}

#[test]
fn shard_s_is_served_by_the_worker_named_s_mod_w() {
    for workers in [1, 3, SHARDS] {
        let c = queued(workers);
        for shard in 0..SHARDS {
            let object = (0..)
                .map(|i| format!("probe{i}"))
                .find(|name| c.placement_shard(name) == shard)
                .unwrap();
            assert_eq!(
                served_by(&c, &object).as_deref(),
                Some(format!("vdisk-worker-{}", shard % workers).as_str()),
                "W = {workers}, shard {shard}"
            );
        }
    }
    let inline = queued(0);
    assert_eq!(
        served_by(&inline, "probe"),
        std::thread::current().name().map(String::from),
        "inline mode serves on the submitting thread"
    );
}

#[test]
fn a_hold_stalls_exactly_the_shards_of_its_worker() {
    for workers in GEOMETRIES {
        let c = queued(workers);
        let (a, b) = two_shards(&c);
        let hold = c.hold_shard(c.placement_shard(&a));
        let held = write(&c, &a, 1);
        let neighbour = write(&c, &b, 2);
        if workers == 1 {
            // Shards 0 and 1 share the one worker: both wait.
            std::thread::sleep(Duration::from_millis(20));
            assert!(!held.is_complete());
            assert!(
                !neighbour.is_complete(),
                "W = 1: the hold stalls every shard"
            );
        } else {
            // Shard 1 has a worker of its own.
            neighbour.wait().unwrap();
            assert!(!held.is_complete(), "W = {workers}: the held shard waits");
        }
        drop(hold);
        held.wait().unwrap();
        assert_eq!(head(&c, &a), [1; 512]);
        assert_eq!(head(&c, &b), [2; 512]);
    }
}

#[test]
fn a_panicking_job_poisons_its_ticket_and_the_worker_survives() {
    for workers in GEOMETRIES {
        let c = queued(workers);
        let (a, b) = two_shards(&c);
        let mut boom = c.submit::<Probe>(vec![a.clone()], true, false, false);
        let reaped = catch_unwind(AssertUnwindSafe(|| boom.reap()));
        let panic = reaped.expect_err("a poisoned ticket panics its reaper");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"shard worker panicked"));
        // The worker that served the panic goes on serving the held
        // shard and every other shard it owns.
        write(&c, &a, 3).wait().unwrap();
        write(&c, &b, 4).wait().unwrap();
        assert_eq!(head(&c, &a), [3; 512], "W = {workers}");
        assert_eq!(head(&c, &b), [4; 512], "W = {workers}");
    }
}

#[test]
fn injected_delays_slow_but_never_reorder_at_every_geometry() {
    for workers in GEOMETRIES {
        let c = geometry(
            Cluster::builder()
                .fault_plane(FaultConfig::new(7).delay(1.0, Duration::from_micros(50))),
            workers,
        );
        let tickets: Vec<_> = (0..4u8)
            .flat_map(|round| (0..8).map(move |i| (i, round)))
            .map(|(i, round)| write(&c, &format!("slow{i}"), round))
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        for i in 0..8 {
            assert_eq!(head(&c, &format!("slow{i}")), [3; 512], "W = {workers}");
        }
        let plane = c.fault_plane().unwrap();
        assert!(plane.injected_delays() >= 32, "rate 1.0 delays every job");
    }
}

#[test]
fn wakes_are_counted_only_on_the_queued_path() {
    let inline = Cluster::builder().concurrent_apply(false).build();
    write(&inline, "w", 1).wait().unwrap();
    assert_eq!(
        inline.exec_stats().worker_wakes,
        0,
        "inline mode has no worker"
    );

    let c = queued(1);
    let park = || {
        while !c.shards.worker_parked(0) {
            std::thread::yield_now();
        }
    };
    park();
    write(&c, "w", 1).wait().unwrap();
    assert_eq!(
        c.exec_stats().worker_wakes,
        1,
        "a push onto a parked worker wakes it"
    );
    park();
    let hold = c.hold_shard(0);
    assert_eq!(c.exec_stats().worker_wakes, 2);
    // The worker sits on the hold: pushes behind it wake nobody.
    let tickets: Vec<_> = (0..8).map(|i| write(&c, &format!("w{i}"), 2)).collect();
    assert_eq!(
        c.exec_stats().worker_wakes,
        2,
        "a busy worker needs no wake"
    );
    drop(hold);
    for ticket in tickets {
        ticket.wait().unwrap();
    }
}

// ---- The differential property ---------------------------------------

const OBJECTS: [&str; 10] = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"];

#[derive(Debug, Clone)]
enum TxShape {
    Write {
        offset: u64,
        len: u64,
        fill: u8,
    },
    OmapSet(u8),
    Truncate(u64),
    SetXattr(u8),
    /// Applies only if the xattr holds this value at apply time, so the
    /// outcome depends on the order writes reach the object.
    CompareXattr(u8),
    Delete,
}

#[derive(Debug, Clone)]
enum ReadShape {
    Data { offset: u64, len: u64 },
    Omap,
    Xattr,
    Stat,
}

#[derive(Debug, Clone)]
enum Step {
    Write(Vec<(usize, TxShape)>),
    Read {
        snap: Option<usize>,
        requests: Vec<(usize, ReadShape)>,
    },
    /// Reaps the in-flight ticket at this index (modulo how many are
    /// in flight).
    Wait(usize),
    Snapshot,
}

fn tx_shape() -> impl Strategy<Value = TxShape> {
    prop_oneof![
        (0u64..6000, 1u64..3000, any::<u8>()).prop_map(|(offset, len, fill)| TxShape::Write {
            offset,
            len,
            fill
        }),
        (0u64..6000, 1u64..3000, any::<u8>()).prop_map(|(offset, len, fill)| TxShape::Write {
            offset,
            len,
            fill
        }),
        (0u8..4).prop_map(TxShape::OmapSet),
        (0u64..8000).prop_map(TxShape::Truncate),
        (0u8..3).prop_map(TxShape::SetXattr),
        (0u8..3).prop_map(TxShape::CompareXattr),
        Just(TxShape::Delete),
    ]
}

fn read_shape() -> impl Strategy<Value = ReadShape> {
    prop_oneof![
        (0u64..8000, 0u64..4000).prop_map(|(offset, len)| ReadShape::Data { offset, len }),
        Just(ReadShape::Omap),
        Just(ReadShape::Xattr),
        Just(ReadShape::Stat),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec((0usize..10, tx_shape()), 1..5).prop_map(Step::Write),
        proptest::collection::vec((0usize..10, tx_shape()), 1..5).prop_map(Step::Write),
        (
            proptest::option::of(0usize..4),
            proptest::collection::vec((0usize..10, read_shape()), 1..5)
        )
            .prop_map(|(snap, requests)| Step::Read { snap, requests }),
        (0usize..64).prop_map(Step::Wait),
        (0usize..64).prop_map(Step::Wait),
        Just(Step::Snapshot),
    ]
}

fn transaction(object: usize, shape: &TxShape) -> Transaction {
    let mut tx = Transaction::new(OBJECTS[object]);
    match shape {
        TxShape::Write { offset, len, fill } => tx.write(*offset, vec![*fill; *len as usize]),
        TxShape::OmapSet(key) => tx.omap_set(vec![(vec![b'k', *key], vec![*key; 9])]),
        TxShape::Truncate(size) => tx.truncate(*size),
        TxShape::SetXattr(value) => tx.set_xattr("tag", vec![*value]),
        TxShape::CompareXattr(value) => tx
            .compare_xattr("tag", Some(vec![*value]))
            .set_xattr("tag", vec![value.wrapping_add(1) % 3]),
        TxShape::Delete => tx.delete(),
    };
    tx
}

fn request(object: usize, shape: &ReadShape) -> ObjectReads {
    let op = match shape {
        ReadShape::Data { offset, len } => ReadOp::Read {
            offset: *offset,
            len: *len,
        },
        ReadShape::Omap => ReadOp::OmapGetRange {
            start: Vec::new(),
            end: vec![0xFF],
        },
        ReadShape::Xattr => ReadOp::GetXattr("tag".into()),
        ReadShape::Stat => ReadOp::Stat,
    };
    ObjectReads::new(OBJECTS[object], vec![op])
}

enum InFlight {
    Write(usize, ApplyTicket),
    Read(usize, ReadTicket),
}

/// What one submission came back with, by submission index.
#[derive(Debug, PartialEq)]
enum Outcome {
    Write(Result<Receipt>),
    Read(Result<(Vec<Option<Vec<ReadResult>>>, Receipt)>),
}

impl InFlight {
    fn reap(self, outcomes: &mut [Option<Outcome>]) {
        let (index, outcome) = match self {
            InFlight::Write(i, ticket) => (i, Outcome::Write(ticket.wait())),
            InFlight::Read(i, ticket) => (i, Outcome::Read(ticket.wait())),
        };
        outcomes[index] = Some(outcome);
    }
}

/// Everything a client can observe of one run: each submission's
/// outcome, the final state of every object, and the deterministic
/// counters.
type Observed = (Vec<Option<Outcome>>, Vec<Outcome>, [u64; 5]);

fn run(c: &Cluster, steps: &[Step]) -> Observed {
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut outcomes: Vec<Option<Outcome>> = Vec::new();
    let mut snaps: Vec<SnapId> = Vec::new();
    for step in steps {
        match step {
            Step::Write(batch) => {
                let txs = batch.iter().map(|(o, s)| transaction(*o, s)).collect();
                in_flight.push(InFlight::Write(
                    outcomes.len(),
                    c.submit_batch(txs).unwrap(),
                ));
                outcomes.push(None);
            }
            Step::Read { snap, requests } => {
                let snap = snap.and_then(|i| snaps.get(i % snaps.len().max(1)).copied());
                let requests = requests.iter().map(|(o, s)| request(*o, s)).collect();
                in_flight.push(InFlight::Read(
                    outcomes.len(),
                    c.submit_read_batch(snap, requests),
                ));
                outcomes.push(None);
            }
            Step::Wait(i) => {
                if !in_flight.is_empty() {
                    let i = i % in_flight.len();
                    in_flight.swap_remove(i).reap(&mut outcomes);
                }
            }
            Step::Snapshot => snaps.push(c.create_snap()),
        }
    }
    // The rest in reverse submission order.
    while let Some(ticket) = in_flight.pop() {
        ticket.reap(&mut outcomes);
    }
    let state = (0..OBJECTS.len())
        .map(|o| {
            let full = [
                ReadShape::Data {
                    offset: 0,
                    len: 12_000,
                },
                ReadShape::Omap,
                ReadShape::Xattr,
                ReadShape::Stat,
            ];
            Outcome::Read(c.read_batch(None, full.iter().map(|s| request(o, s)).collect()))
        })
        .collect();
    let stats = c.exec_stats();
    let counters = [
        stats.transactions,
        stats.batches,
        stats.read_ops,
        stats.shard_fanout_max,
        stats.queue_depth_peak,
    ];
    (outcomes, state, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 32 } else { 512 }
    ))]

    /// The spine property: the worker count is unobservable. Random
    /// interleavings of write and read submissions, reaped in random
    /// order, give identical results, receipts, final objects and
    /// counters inline, on one worker and on one worker per shard.
    #[test]
    fn results_do_not_depend_on_the_worker_count(
        steps in proptest::collection::vec(step(), 1..48)
    ) {
        let inline = Cluster::builder()
            .shard_count(SHARDS)
            .concurrent_apply(false)
            .build();
        let reference = run(&inline, &steps);
        for workers in GEOMETRIES {
            let observed = run(&queued(workers), &steps);
            prop_assert_eq!(&observed.0, &reference.0, "W = {}: outcomes", workers);
            prop_assert_eq!(&observed.1, &reference.1, "W = {}: final state", workers);
            prop_assert_eq!(observed.2, reference.2, "W = {}: counters", workers);
        }
    }
}
