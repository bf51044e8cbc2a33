//! Multi-tenant runtime properties over the full encryption pipeline.
//!
//! 1. **Replay equivalence survives arbitration**: any interleaving
//!    admitted through a [`TenantQueue`] — whatever the inflight
//!    budget, QD cap, or weight — is byte-identical to replaying the
//!    same operations sequentially (the invariant proven for the raw
//!    queue in `queue_properties.rs`, extended to runtime-scheduled
//!    dispatch).
//! 2. **Fairness**: two tenants with weights `w1:w2` driving identical
//!    randwrite loads complete ops within a 2x band of `w1:w2`.
//! 3. **No starvation**: a QD-64 hog cannot delay a QD-1 tenant's
//!    single op beyond a fixed bound of interleaved completions.
//! 4. **Rekey yields**: the rekey driver's window shrinks (fewer
//!    submissions) when sampled client pressure spikes and recovers
//!    when the cluster goes quiet; run as a runtime tenant it
//!    completes with data intact.

use proptest::prelude::*;
use vdisk_core::runtime::ArbitratedQueue;
use vdisk_core::{
    CryptError, EncryptedImage, EncryptionConfig, IoOp, IoPayload, MetaLayout, RateLimit, Runtime,
    RuntimeError, TenantSpec,
};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::Cluster;
use vdisk_rbd::{Image, RbdError};

const IMAGE_SIZE: u64 = 4 << 20;
const OBJECT_SIZE: u64 = 1 << 20;
const SECTOR: u64 = 4096;

fn workers_on() -> Cluster {
    // Workers forced on so arbitration races real completions.
    Cluster::builder().concurrent_apply(true).build()
}

fn encrypted_disk(cluster: &Cluster, name: &str, seed: u64) -> EncryptedImage {
    let image = Image::create_with_object_size(cluster, name, IMAGE_SIZE, OBJECT_SIZE).unwrap();
    EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        b"property",
        Box::new(SeededIvSource::new(seed)),
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// 1. Replay equivalence through the runtime
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Action {
    Write { offset: u64, len: usize, fill: u8 },
    Read { offset: u64, len: usize },
    Fence,
    Poll,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..IMAGE_SIZE, 1usize..150_000, any::<u8>()).prop_map(|(offset, len, fill)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Write { offset, len, fill }
        }),
        (0u64..IMAGE_SIZE, 1usize..150_000).prop_map(|(offset, len)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Read { offset, len }
        }),
        Just(Action::Fence),
        Just(Action::Poll),
    ]
}

fn reap(results: Vec<vdisk_core::IoResult>, seen: &mut Vec<(u64, Vec<u8>)>) {
    for result in results {
        if let IoPayload::Data(data) = result.payload {
            seen.push((result.completion.id(), data));
        }
    }
}

/// `queue_properties::drive`, rerouted through a [`TenantQueue`]: the
/// runtime arbitrates every dispatch, yet queued reads still see the
/// mirror at their submission point and the final image matches the
/// mirror byte for byte.
fn drive_arbitrated(actions: &[Action], budget: usize, qd_cap: usize, weight: u32) {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "prop", 0xF00D);
    let runtime = Runtime::new(budget);
    let tenant = runtime.register(
        TenantSpec::new("prop")
            .weight(weight)
            .qd_cap(qd_cap)
            .backlog_cap(1024),
    );
    let mut queue = tenant.attach(disk.io_queue());

    let mut mirror = vec![0u8; IMAGE_SIZE as usize];
    let mut expected_reads: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut seen_reads: Vec<(u64, Vec<u8>)> = Vec::new();

    for action in actions {
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
                expected_reads.push((
                    completion.id(),
                    mirror[*offset as usize..*offset as usize + len].to_vec(),
                ));
            }
            Action::Fence => reap(queue.fence().unwrap(), &mut seen_reads),
            Action::Poll => reap(queue.poll().unwrap(), &mut seen_reads),
        }
    }
    reap(queue.fence().unwrap(), &mut seen_reads);

    seen_reads.sort_by_key(|(id, _)| *id);
    assert_eq!(seen_reads.len(), expected_reads.len());
    for ((id_seen, data), (id_expected, expected)) in seen_reads.iter().zip(&expected_reads) {
        assert_eq!(id_seen, id_expected);
        assert_eq!(data, expected, "arbitrated read {id_seen} diverged");
    }

    drop(queue);
    let mut final_state = vec![0u8; IMAGE_SIZE as usize];
    disk.read(0, &mut final_state).unwrap();
    assert_eq!(final_state, mirror);
}

// ---------------------------------------------------------------------
// 2. Fairness band
// ---------------------------------------------------------------------

/// Drives two tenants with identical randwrite loads on one shared
/// cluster until `target` ops complete in total; returns per-tenant
/// completed-op counts.
fn race_two_tenants(w1: u32, w2: u32, offsets: &[u64], target: u64) -> (u64, u64) {
    let cluster = workers_on();
    let mut disk1 = encrypted_disk(&cluster, "tenant-1", 1);
    let mut disk2 = encrypted_disk(&cluster, "tenant-2", 2);

    // A scarce inflight budget keeps the tenants in permanent
    // contention — fairness is only observable under contention.
    let runtime = Runtime::new(4);
    let t1 = runtime.register(TenantSpec::new("t1").weight(w1).qd_cap(8).backlog_cap(64));
    let t2 = runtime.register(TenantSpec::new("t2").weight(w2).qd_cap(8).backlog_cap(64));
    let mut q1 = t1.attach(disk1.io_queue());
    let mut q2 = t2.attach(disk2.io_queue());

    let mut submitted = [0usize; 2];
    let mut done = [0u64; 2];
    while done[0] + done[1] < target {
        // Keep both backlogs topped up so neither tenant ever goes
        // idle: every grant is contested.
        for (i, q) in [&mut q1, &mut q2].into_iter().enumerate() {
            while q.backlog() < 8 {
                let offset = offsets[submitted[i] % offsets.len()] * SECTOR;
                submitted[i] += 1;
                q.submit(IoOp::Write {
                    offset,
                    data: vec![i as u8 + 1; SECTOR as usize],
                })
                .unwrap();
            }
        }
        done[0] += q1.poll().unwrap().len() as u64;
        done[1] += q2.poll().unwrap().len() as u64;
        std::thread::yield_now();
    }
    (done[0], done[1])
}

// ---------------------------------------------------------------------
// Proptests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant: arbitration never changes IO semantics. Budget, QD
    /// cap and weight vary; results must match sequential replay.
    #[test]
    fn arbitrated_interleavings_match_sequential_replay(
        actions in proptest::collection::vec(action_strategy(), 4..14),
        budget in 1usize..=6,
        qd_cap in 1usize..=8,
        weight in 1u32..=4,
    ) {
        drive_arbitrated(&actions, budget, qd_cap, weight);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two tenants, identical loads: completed ops stay within a 2x
    /// band of the configured weight ratio.
    #[test]
    fn completed_ops_track_weights_within_a_2x_band(
        w1 in 1u32..=4,
        w2 in 1u32..=4,
        offsets in proptest::collection::vec(0u64..(IMAGE_SIZE / SECTOR), 64..128),
    ) {
        let (d1, d2) = race_two_tenants(w1, w2, &offsets, 240);
        prop_assert!(d1 > 0 && d2 > 0, "a tenant starved outright: {d1} vs {d2}");
        let ratio = d1 as f64 / d2 as f64;
        let ideal = f64::from(w1) / f64::from(w2);
        prop_assert!(
            ratio >= ideal / 2.0 && ratio <= ideal * 2.0,
            "weights {w1}:{w2} (ideal {ideal:.2}) but completed {d1}:{d2} (ratio {ratio:.2})"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Starvation bound
// ---------------------------------------------------------------------

/// A QD-64 hog with a deep backlog cannot delay a QD-1 tenant's
/// single op beyond a bounded number of its own completions.
#[test]
fn qd1_tenant_is_not_starved_by_a_qd64_hog() {
    let cluster = workers_on();
    let mut hog_disk = encrypted_disk(&cluster, "hog", 3);
    let mut victim_disk = encrypted_disk(&cluster, "victim", 4);

    let runtime = Runtime::new(8);
    let hog = runtime.register(TenantSpec::new("hog").weight(1).qd_cap(64).backlog_cap(256));
    let victim = runtime.register(TenantSpec::new("victim").weight(1).qd_cap(1).backlog_cap(4));
    let mut hog_q = hog.attach(hog_disk.io_queue());
    let mut victim_q = victim.attach(victim_disk.io_queue());

    // The hog may complete at most this many ops between a victim
    // submit and its completion: its in-flight window (≤ budget 8)
    // can drain ahead on the shard FIFOs, plus its fair share while
    // the victim's op is in flight, plus scheduling slack. What it
    // must never do is burn its 256-deep backlog first.
    const BOUND: u64 = 32;
    const ROUNDS: usize = 24;

    let mut hog_submitted = 0u64;
    let mut hog_done = 0u64;
    for round in 0..ROUNDS {
        while hog_q.backlog() < 64 {
            let offset = (hog_submitted * 8 % (IMAGE_SIZE / SECTOR)) * SECTOR;
            hog_submitted += 1;
            hog_q
                .submit(IoOp::Write {
                    offset,
                    data: vec![0xA0; SECTOR as usize],
                })
                .unwrap();
        }
        let wanted = victim_q
            .submit(IoOp::Write {
                offset: (round as u64 % 16) * SECTOR,
                data: vec![0x77; SECTOR as usize],
            })
            .unwrap();
        let hog_before = hog_done;
        loop {
            hog_done += hog_q.poll().unwrap().len() as u64;
            let results = victim_q.poll().unwrap();
            let landed = results.iter().any(|r| r.completion.id() == wanted.id());
            if landed {
                break;
            }
            std::thread::yield_now();
        }
        let interleaved = hog_done - hog_before;
        assert!(
            interleaved <= BOUND,
            "round {round}: hog completed {interleaved} ops while the victim's \
             single op waited (bound {BOUND})"
        );
    }
    drop(victim_q);
    let _ = hog_q.fence().unwrap();
}

// ---------------------------------------------------------------------
// Admission control and rate limits at the API surface
// ---------------------------------------------------------------------

/// Past the backlog cap `submit` refuses with the observed depth, and
/// the rejection shows up in the tenant's stats.
#[test]
fn admission_denies_past_the_backlog_cap() {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "cap", 5);
    let runtime = Runtime::new(1);
    let tenant = runtime.register(TenantSpec::new("cap").qd_cap(1).backlog_cap(2));
    let id = tenant.id();
    let mut queue = tenant.attach(disk.io_queue());

    // Op 1 dispatches (budget 1), ops 2 and 3 fill the backlog; op 4
    // must bounce. No polling in between, so nothing drains.
    for _ in 0..3 {
        queue
            .submit(IoOp::Write {
                offset: 0,
                data: vec![1; SECTOR as usize],
            })
            .unwrap();
    }
    let denied = queue.submit(IoOp::Write {
        offset: 0,
        data: vec![2; SECTOR as usize],
    });
    match denied {
        Err(RuntimeError::AdmissionDenied {
            tenant,
            backlog,
            cap,
        }) => {
            assert_eq!(tenant, id);
            assert_eq!((backlog, cap), (2, 2));
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }

    let results = queue.fence().unwrap();
    assert_eq!(results.len(), 3, "admitted ops all complete");
    let stats = runtime.tenant_stats(id);
    assert_eq!(stats.admitted_ops, 3);
    assert_eq!(stats.rejected_ops, 1);
    assert_eq!(stats.completed_ops, 3);
}

/// A dispatch failure mid-grant must refund the rest of the grant:
/// the granted-but-undispatched ops return to the arbiter's backlog
/// mirror instead of counting in flight forever (which would leak the
/// shared budget across every tenant and deadlock later fences).
#[test]
fn dispatch_failure_mid_grant_refunds_the_undispatched_remainder() {
    // Inline application keeps grant timing deterministic.
    let cluster = Cluster::builder().concurrent_apply(false).build();
    let image = Image::create(&cluster, "abort", 1 << 20).unwrap();
    let runtime = Runtime::new(4);
    let tenant = runtime.register(TenantSpec::new("abort").qd_cap(8).backlog_cap(16));
    let mut queue = tenant.attach(vdisk_rbd::IoQueue::new(&image));

    // Fill the whole budget with valid ops…
    for i in 0..4u64 {
        queue
            .submit(IoOp::Write {
                offset: i * SECTOR,
                data: vec![1; SECTOR as usize],
            })
            .unwrap();
    }
    // …then queue a poisoned op (out of bounds at dispatch) with two
    // valid ops behind it. No free slots, so all three stay queued.
    queue
        .submit(IoOp::Write {
            offset: 2 << 20,
            data: vec![2; SECTOR as usize],
        })
        .unwrap();
    for _ in 0..2 {
        queue
            .submit(IoOp::Write {
                offset: 0,
                data: vec![3; SECTOR as usize],
            })
            .unwrap();
    }
    assert_eq!(queue.backlog(), 3);

    // Reap the first four; the next pump claims all three queued ops
    // in one grant and the poisoned dispatch aborts it.
    assert_eq!(queue.poll().unwrap().len(), 4);
    match queue.poll() {
        Err(RuntimeError::Queue(_)) => {}
        other => panic!("expected the poisoned dispatch to fail, got {other:?}"),
    }

    // The two undispatched grants must be refunded, not leaked.
    assert_eq!(
        runtime.in_flight(),
        0,
        "aborted grants leaked shared budget"
    );
    let stats = tenant.stats();
    assert_eq!(stats.in_flight_ops, 0);
    assert_eq!(stats.backlog_ops, 2);
    assert_eq!(queue.backlog(), 2);

    // And they still dispatch and complete: no deadlock, no loss.
    let results = queue.fence().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(tenant.stats().completed_ops, 6);
}

/// When `submit` queues an op and its pump then fails dispatching an
/// *earlier* queued op, the error return un-admits the fresh op: the
/// caller never received its token, so leaving it admitted would
/// later complete an op nobody can match.
#[test]
fn submit_error_for_an_earlier_op_unadmits_the_fresh_op() {
    let cluster = Cluster::builder().concurrent_apply(false).build();
    let image = Image::create(&cluster, "unadmit", 1 << 20).unwrap();
    let runtime = Runtime::new(4);
    let tenant = runtime.register(TenantSpec::new("unadmit").qd_cap(8).backlog_cap(16));
    let mut queue = tenant.attach(vdisk_rbd::IoQueue::new(&image));

    for i in 0..4u64 {
        queue
            .submit(IoOp::Write {
                offset: i * SECTOR,
                data: vec![1; SECTOR as usize],
            })
            .unwrap();
    }
    // The poisoned op queues behind the full budget…
    queue
        .submit(IoOp::Write {
            offset: 2 << 20,
            data: vec![2; SECTOR as usize],
        })
        .unwrap();
    assert_eq!(queue.poll().unwrap().len(), 4);

    // …so this submit's pump dispatches it first and hits its error.
    let err = queue.submit(IoOp::Write {
        offset: 0,
        data: vec![3; SECTOR as usize],
    });
    assert!(
        matches!(err, Err(RuntimeError::Queue(_))),
        "expected the earlier op's dispatch error, got {err:?}"
    );

    // The fresh op must be gone as if never admitted.
    assert_eq!(queue.backlog(), 0);
    assert_eq!(tenant.stats().backlog_ops, 0);
    assert_eq!(runtime.in_flight(), 0);

    // A retry is admitted cleanly and its token matches its result.
    let token = queue
        .submit(IoOp::Write {
            offset: 0,
            data: vec![4; SECTOR as usize],
        })
        .unwrap();
    let results = queue.fence().unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].completion.id(), token.id());
    assert_eq!(tenant.stats().completed_ops, 5);
}

/// Regression: a scatter read whose lengths overflow `u64` used to
/// panic in the tenant queue's cost computation ("attempt to add with
/// overflow"; a 1-byte cost in release builds) — one layer above the
/// inner queues, which already refuse it with a typed error. The cost
/// is only a scheduling weight: it saturates, the dispatch reports
/// `OutOfBounds`, and every slot is refunded.
#[test]
fn tenant_readv_lengths_that_overflow_u64_are_out_of_bounds() {
    fn check<Q: ArbitratedQueue>(
        kind: &str,
        runtime: &Runtime,
        inner: Q,
        is_out_of_bounds: fn(&Q::Error) -> bool,
    ) where
        Q::Error: std::fmt::Debug,
    {
        let tenant = runtime.register(TenantSpec::new(kind));
        let mut queue = tenant.attach(inner);
        let err = queue.submit(IoOp::Readv {
            offset: 0,
            lens: vec![u64::MAX, 2],
        });
        let Err(RuntimeError::Queue(e)) = err else {
            panic!("{kind}: expected a typed dispatch error, got {err:?}");
        };
        assert!(is_out_of_bounds(&e), "{kind}: got {e:?}");
        assert_eq!(runtime.in_flight(), 0, "{kind}: the slot must be refunded");
        assert_eq!(tenant.stats().backlog_ops, 0, "{kind}");
        assert_eq!(queue.backlog(), 0, "{kind}");

        // The tenant's next valid op completes.
        let token = queue
            .submit(IoOp::Readv {
                offset: 0,
                lens: vec![SECTOR, SECTOR],
            })
            .unwrap();
        let results = queue.fence().unwrap();
        assert_eq!(results.len(), 1, "{kind}");
        assert_eq!(results[0].completion.id(), token.id(), "{kind}");
        assert_eq!(results[0].payload.segments().len(), 2, "{kind}");
        assert_eq!(runtime.in_flight(), 0, "{kind}");
    }

    let cluster = Cluster::builder().concurrent_apply(false).build();
    let runtime = Runtime::new(4);
    let image = Image::create(&cluster, "overflow-raw", 1 << 20).unwrap();
    check("raw", &runtime, vdisk_rbd::IoQueue::new(&image), |e| {
        matches!(e, RbdError::OutOfBounds { .. })
    });
    let mut disk = encrypted_disk(&cluster, "overflow-enc", 7);
    check("encrypted", &runtime, disk.io_queue(), |e| {
        matches!(e, CryptError::Rbd(RbdError::OutOfBounds { .. }))
    });
}

/// A zero-rate bucket grants its burst and then starves: waiting on
/// work that can never dispatch is an error, not a hang.
#[test]
fn zero_rate_bucket_starves_deterministically() {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "rate", 6);
    let runtime = Runtime::new(4);
    let tenant = runtime.register(TenantSpec::new("rate").rate_limit(RateLimit {
        bytes_per_sec: 0,
        burst_bytes: SECTOR,
    }));
    let id = tenant.id();
    let mut queue = tenant.attach(disk.io_queue());

    // First sector-sized write fits the burst exactly.
    queue
        .submit(IoOp::Write {
            offset: 0,
            data: vec![3; SECTOR as usize],
        })
        .unwrap();
    let first = queue.wait_any().unwrap();
    assert_eq!(first.len(), 1);

    // The second can never earn tokens.
    queue
        .submit(IoOp::Write {
            offset: SECTOR,
            data: vec![4; SECTOR as usize],
        })
        .unwrap();
    match queue.wait_any() {
        Err(RuntimeError::Starved { tenant }) => assert_eq!(tenant, id),
        other => panic!("expected Starved, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// 4. Rekey pressure backoff and tenant-mode completion
// ---------------------------------------------------------------------

const OLD_PASS: &[u8] = b"property";
const NEW_PASS: &[u8] = b"rotated";

/// The driver's window halves when the sampled client queue-depth
/// peak crosses the threshold — fewer submissions per window, the
/// measurable "rekey yields" signal — and doubles back once quiet.
#[test]
fn rekey_driver_yields_under_client_pressure_and_recovers() {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "rekey", 7);
    let pattern: Vec<u8> = (0..IMAGE_SIZE).map(|i| (i % 251) as u8).collect();
    disk.write(0, &pattern).unwrap();

    let mut driver = disk
        .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
        .unwrap()
        .with_chunk_sectors(4)
        .with_queue_depth(8)
        .with_pressure_threshold(4);

    // Settle the pressure window: formatting and the pattern write
    // are not client load the driver should react to.
    let _ = cluster.take_queue_depth_window_peak();

    // Quiet step: full window (4 sectors × depth 8 = 32).
    let before = driver.progress(&disk).unwrap().migrated_sectors;
    let after = driver.step(&mut disk).unwrap().migrated_sectors;
    assert!(driver.last_pressure() <= 4, "quiet cluster sampled as busy");
    assert_eq!(driver.effective_queue_depth(), 8);
    assert_eq!(after - before, 32);

    // A client bursts 16 queued writes on another image of the same
    // cluster. Each holds its submission-depth bracket until reaped,
    // so the window peak deterministically records the full burst.
    let noise = Image::create(&cluster, "noise", 1 << 20).unwrap();
    let mut noise_q = vdisk_rbd::IoQueue::new(&noise);
    for i in 0..16u64 {
        noise_q
            .submit(IoOp::Write {
                offset: i * SECTOR,
                data: vec![0xBB; SECTOR as usize],
            })
            .unwrap();
    }
    let drained = noise_q.fence().unwrap();
    assert_eq!(drained.len(), 16);

    // Pressured step: the driver sees the spike and halves its window.
    let before = driver.progress(&disk).unwrap().migrated_sectors;
    let after = driver.step(&mut disk).unwrap().migrated_sectors;
    assert!(
        driver.last_pressure() >= 16,
        "burst peak not observed: {}",
        driver.last_pressure()
    );
    assert_eq!(driver.effective_queue_depth(), 4);
    assert_eq!(after - before, 16, "window submissions did not drop");

    // Quiet again: the window doubles back to the configured depth.
    // The driver discards its own window's contribution to the peak,
    // so its own 4-deep window never reads as client pressure.
    let before = after;
    let after = driver.step(&mut disk).unwrap().migrated_sectors;
    assert_eq!(driver.effective_queue_depth(), 8);
    assert_eq!(after - before, 32);

    // Migrated data stays intact along the way.
    let mut readback = vec![0u8; 64 * SECTOR as usize];
    disk.read(0, &mut readback).unwrap();
    assert_eq!(readback[..], pattern[..64 * SECTOR as usize]);
}

/// Client-tenant pressure that lands while a rekey window is open is
/// wiped from the shared cluster window by the driver's own
/// post-window reset; the runtime's per-tenant demand peaks must
/// carry it into the next sample anyway.
#[test]
fn tenant_rekey_sees_client_bursts_hidden_by_its_own_window_reset() {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "rekey-press", 9);
    let pattern: Vec<u8> = (0..IMAGE_SIZE).map(|i| (i % 233) as u8).collect();
    disk.write(0, &pattern).unwrap();

    let runtime = Runtime::new(16);
    let rekey_tenant =
        runtime.register(TenantSpec::new("rekey").weight(1).qd_cap(8).backlog_cap(16));
    let client_tenant = runtime.register(
        TenantSpec::new("client")
            .weight(3)
            .qd_cap(8)
            .backlog_cap(16),
    );

    let mut driver = disk
        .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
        .unwrap()
        .with_chunk_sectors(4)
        .with_queue_depth(8)
        .with_pressure_threshold(4)
        .with_runtime_tenant(rekey_tenant);

    // Settle the cluster window: setup traffic is not client load.
    let _ = cluster.take_queue_depth_window_peak();

    // Quiet step: the full configured window.
    let before = driver.progress(&disk).unwrap().migrated_sectors;
    let after = driver.step(&mut disk).unwrap().migrated_sectors;
    assert!(
        driver.last_pressure() <= 4,
        "quiet runtime sampled as busy: {}",
        driver.last_pressure()
    );
    assert_eq!(after - before, 32);

    // A client tenant bursts eight queued writes on another image and
    // fully drains them…
    let mut client_disk = encrypted_disk(&cluster, "client-press", 10);
    let mut client_q = client_tenant.attach(client_disk.io_queue());
    for i in 0..8u64 {
        client_q
            .submit(IoOp::Write {
                offset: i * SECTOR,
                data: vec![0xCC; SECTOR as usize],
            })
            .unwrap();
    }
    assert_eq!(client_q.fence().unwrap().len(), 8);

    // …and the cluster-wide window is then reset, exactly as the tail
    // of a rekey window does — the burst is gone from that signal.
    let _ = cluster.take_queue_depth_window_peak();

    // The next step must still see the burst through the runtime's
    // per-tenant demand peaks and halve its window.
    let before = after;
    let after = driver.step(&mut disk).unwrap().migrated_sectors;
    assert!(
        driver.last_pressure() >= 8,
        "client-tenant burst lost to the window reset: {}",
        driver.last_pressure()
    );
    assert_eq!(driver.effective_queue_depth(), 4);
    assert_eq!(after - before, 16);

    // Data stays intact through the pressured window.
    let mut readback = vec![0u8; 48 * SECTOR as usize];
    disk.read(0, &mut readback).unwrap();
    assert_eq!(readback[..], pattern[..48 * SECTOR as usize]);
}

/// Rekey as an ordinary low-weight runtime tenant: drives to
/// completion through the arbitrated queue, leaves every byte intact,
/// and its traffic shows up in the tenant's stats rollup.
#[test]
fn rekey_as_runtime_tenant_completes_with_data_intact() {
    let cluster = workers_on();
    let mut disk = encrypted_disk(&cluster, "rekey-tenant", 8);
    let pattern: Vec<u8> = (0..IMAGE_SIZE).map(|i| (i % 241) as u8).collect();
    disk.write(0, &pattern).unwrap();

    let runtime = Runtime::new(8);
    let tenant = runtime.register(TenantSpec::new("rekey").weight(1).qd_cap(4).backlog_cap(8));
    let id = tenant.id();

    let driver = disk
        .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
        .unwrap()
        .with_chunk_sectors(8)
        .with_queue_depth(4)
        .with_runtime_tenant(tenant);
    driver.drive_to_completion(&mut disk).unwrap();

    let stats = runtime.tenant_stats(id);
    assert!(
        stats.completed_ops > 0,
        "rekey traffic missing from tenant stats"
    );
    assert_eq!(stats.backlog_ops, 0);
    assert_eq!(stats.in_flight_ops, 0);

    let mut readback = vec![0u8; IMAGE_SIZE as usize];
    disk.read(0, &mut readback).unwrap();
    assert_eq!(readback, pattern);

    // The new passphrase opens the image; the old one is gone.
    drop(disk);
    let image = Image::open(&cluster, "rekey-tenant").unwrap();
    let reopened = EncryptedImage::open(image, NEW_PASS).unwrap();
    let mut buf = vec![0u8; SECTOR as usize];
    reopened.read(0, &mut buf).unwrap();
    assert_eq!(buf[..], pattern[..SECTOR as usize]);
}
