//! Crash-recovery and retry proofs over the encryption pipeline
//! (ISSUE 9): an online rekey killed at **any** injected commit point
//! and then reopened + resumed is byte-identical to a clean run; a
//! transient-fault storm is absorbed by the retry layer without a
//! single byte diverging; a window that fails mid-flight recovers
//! through the persisted intent + marker protocol; and a tenant whose
//! op exhausts its retry budget gets its arbiter slot and backlog
//! fully refunded (the PR-8 leak, now a typed failure path).
//!
//! CI's fault matrix runs this suite with `VDISK_BACKEND=memory|file`
//! and several `VDISK_FAULT_SEED`s; tests that build default clusters
//! inherit the matrix backend, while the crash tests pin the file
//! backend (a crash without durability has nothing to recover).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vdisk_core::{
    CryptError, EncryptedImage, EncryptionConfig, IoOp, MetaLayout, Runtime, TenantSpec,
};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{BackendKind, Cluster, FaultConfig, FaultKind, RetryPolicy};
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 1 << 20;
const OBJECT_SIZE: u64 = 256 << 10;
const SECTOR: u64 = 4096;
const OLD_PASS: &[u8] = b"before the rotation";
const NEW_PASS: &[u8] = b"after the rotation";

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

/// Bounded-retry counter for chaos tests: panics if a blindly retried
/// op never lands (the schedule would have to be pathological).
fn bump(attempts: &mut u32, what: &str) {
    *attempts += 1;
    assert!(*attempts < 10_000, "{what} made no progress");
}

/// Recognizable per-sector plaintext.
fn pattern() -> Vec<u8> {
    let mut data = vec![0u8; IMAGE_SIZE as usize];
    for sector in 0..IMAGE_SIZE / SECTOR {
        let s = (sector * SECTOR) as usize;
        data[s..s + SECTOR as usize].fill(0x20 + (sector % 200) as u8);
        data[s..s + 8].copy_from_slice(&sector.to_le_bytes());
    }
    data
}

/// One replica, so a checkpoint rewrites each dirty object once and
/// the commit-point count stays small enough to sweep exhaustively.
fn file_cluster(dir: &Path, faults: Option<FaultConfig>) -> Cluster {
    let mut builder = Cluster::builder()
        .backend(BackendKind::File {
            dir: dir.to_path_buf(),
        })
        .replicas(1);
    if let Some(config) = faults {
        builder = builder.fault_plane(config);
    }
    builder.build()
}

/// The crash-at-any-point scenario: precondition fault-free, rekey
/// under a cluster that dies at commit point `n`, then reopen the
/// store directory from scratch, resume the rekey, and demand byte
/// identity with the preconditioned image. Exercised for every `n`
/// a full rekey can reach, so the crash lands on the intent persist,
/// each chunk rewrite, the watermark advance, `rekey_begin` and
/// `finish` alike.
fn crash_resume_is_byte_identical(
    config: &EncryptionConfig,
    crash_at: u64,
    chunk_sectors: u64,
    depth: usize,
) {
    let dir = scratch("crash-rekey");
    let mirror = pattern();

    // Phase 1 (fault-free): format and fill the image durably.
    {
        let cluster = file_cluster(&dir, None);
        let image =
            Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            config,
            OLD_PASS,
            Box::new(SeededIvSource::new(9)),
        )
        .unwrap();
        disk.write(0, &mirror).unwrap();
        cluster.flush();
    }

    // Phase 2: rekey until the injected crash kills the process-model
    // (or to completion, when `crash_at` is beyond the run's commits).
    let crashed = {
        let cluster = file_cluster(&dir, Some(FaultConfig::new(1).crash_at_commit(crash_at)));
        let image = Image::open(&cluster, "vm0").unwrap();
        let mut disk =
            EncryptedImage::open_with_iv_source(image, OLD_PASS, Box::new(SeededIvSource::new(10)))
                .unwrap();
        let outcome = disk
            .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
            .map(|driver| {
                driver
                    .with_chunk_sectors(chunk_sectors)
                    .with_queue_depth(depth)
            })
            .and_then(|driver| driver.drive_to_completion(&mut disk));
        cluster.flush(); // no-op once crashed; durable otherwise
        outcome.is_err()
    };

    // Phase 3 (fault-free reopen): nothing survives but the directory.
    let cluster = file_cluster(&dir, None);
    let image = Image::open(&cluster, "vm0").unwrap();
    let mut disk = match EncryptedImage::open_with_iv_source(
        image,
        NEW_PASS,
        Box::new(SeededIvSource::new(11)),
    ) {
        Ok(disk) => disk,
        // The crash predates `rekey_begin`'s durable header update:
        // the store never heard of the new passphrase.
        Err(_) => EncryptedImage::open_with_iv_source(
            Image::open(&cluster, "vm0").unwrap(),
            OLD_PASS,
            Box::new(SeededIvSource::new(11)),
        )
        .unwrap(),
    };
    if let Some(driver) = disk.rekey_resume() {
        driver
            .with_chunk_sectors(chunk_sectors)
            .with_queue_depth(depth)
            .drive_to_completion(&mut disk)
            .unwrap();
    }
    assert!(
        disk.rekey_status().is_none() || !crashed,
        "a resumed rekey must run to completion"
    );

    let mut after = vec![0u8; IMAGE_SIZE as usize];
    disk.read(0, &mut after).unwrap();
    assert_eq!(
        after, mirror,
        "crash at commit {crash_at} diverged from the clean run ({config:?})"
    );
}

/// Every commit point a full rekey reaches, exhaustively: 26 log
/// appends cover `rekey_begin`, four windows' intent + chunk + water-
/// mark commits, and `finish`, and the closing flush's checkpoint adds
/// 9 more (a rewrite per dirty object, then the log truncation) — 35
/// in all; larger ordinals prove the no-crash path through the same
/// harness.
#[test]
fn rekey_crash_at_every_commit_point_resumes_byte_identical() {
    let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    for crash_at in 0..40 {
        crash_resume_is_byte_identical(&config, crash_at, 16, 4);
    }
}

/// The baseline layout has no per-sector epoch tags — recovery leans
/// entirely on the watermark + intent + marker protocol. (Only rekey
/// traffic runs during the faulted phase: a torn *client* write is
/// ambiguous on any storage system, tagged or not.)
#[test]
fn baseline_rekey_crash_recovery_without_sector_tags() {
    let config = EncryptionConfig::luks2_baseline();
    for crash_at in [0, 3, 7, 11, 15, 19, 23, 27, 31, 34] {
        crash_resume_is_byte_identical(&config, crash_at, 16, 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (layout, crash point, chunking) triples widen the
    /// exhaustive sweep: different chunk sizes move every commit
    /// boundary, so the crash lands between different protocol steps.
    #[test]
    fn rekey_crash_recovery_property(
        crash_at in 0u64..64,
        layout in 0usize..3,
        chunk in prop_oneof![Just(8u64), Just(16u64), Just(32u64)],
        depth in 2usize..5,
    ) {
        let config = match layout {
            0 => EncryptionConfig::luks2_baseline(),
            1 => EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            _ => EncryptionConfig::random_iv(MetaLayout::Omap),
        };
        crash_resume_is_byte_identical(&config, crash_at, chunk, depth);
    }
}

/// A transient-fault storm (40% of jobs fail on first attempt) is
/// absorbed entirely by the in-worker retry layer: the whole
/// write → rekey → read lifecycle completes with zero divergence, and
/// the absorbed replays are visible in `ExecStats::retries`. Runs on
/// the matrix backend (`VDISK_BACKEND`).
#[test]
fn rekey_under_transient_storm_is_byte_identical() {
    let cluster = Cluster::builder()
        .concurrent_apply(true)
        .fault_plane(FaultConfig::new(matrix_seed()).transient_rate(0.4))
        .build();
    let image = Image::create_with_object_size(&cluster, "storm", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        OLD_PASS,
        Box::new(SeededIvSource::new(21)),
    )
    .unwrap();
    let mirror = pattern();
    disk.write(0, &mirror).unwrap();

    let driver = disk
        .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
        .unwrap()
        .with_chunk_sectors(16)
        .with_queue_depth(4);
    driver.drive_to_completion(&mut disk).unwrap();

    let mut after = vec![0u8; IMAGE_SIZE as usize];
    disk.read(0, &mut after).unwrap();
    assert_eq!(after, mirror, "retried IO must be byte-transparent");
    assert!(
        cluster.exec_stats().retries > 0,
        "a 40% transient rate must exercise the retry layer"
    );
}

/// Windows that fail mid-flight (retries disabled, so every injected
/// transient surfaces) recover through the persisted intent: the
/// driver is simply stepped until it completes, each failed window
/// rolling back and each retried step re-proving the window's chunks
/// before migrating on. Byte identity at the end is the proof that
/// rollback + marker recovery compose.
#[test]
fn failed_windows_recover_through_the_intent_protocol() {
    let cluster = Cluster::builder()
        .concurrent_apply(true)
        .fault_plane(FaultConfig::new(matrix_seed()).transient_rate(0.15))
        .retry_policy(RetryPolicy::none())
        .build();
    // With retries off, even setup ops surface injections. They are
    // safe to retry blindly: faults are drawn *before* a transaction
    // applies, so a failed call is a call that changed nothing.
    let mut attempts = 0u32;
    let image = loop {
        match Image::create_with_object_size(&cluster, "flaky", IMAGE_SIZE, OBJECT_SIZE) {
            Ok(image) => break image,
            Err(_) => bump(&mut attempts, "image create"),
        }
    };
    let mut disk = loop {
        match EncryptedImage::format_with_iv_source(
            image.clone(),
            &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            OLD_PASS,
            Box::new(SeededIvSource::new(31)),
        ) {
            Ok(disk) => break disk,
            Err(_) => bump(&mut attempts, "format"),
        }
    };
    let mirror = pattern();
    // Preconditioning: the full-image write is idempotent; retry it
    // until every extent lands.
    while disk.write(0, &mirror).is_err() {
        bump(&mut attempts, "preconditioning");
    }

    let mut driver = loop {
        match disk.rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25) {
            Ok(driver) => break driver.with_chunk_sectors(16).with_queue_depth(4),
            Err(_) => {
                attempts += 1;
                assert!(attempts < 10_000, "rekey_begin made no progress");
            }
        }
    };
    let mut failures = 0u64;
    loop {
        match driver.step(&mut disk) {
            Ok(progress) if progress.is_complete() => break,
            Ok(_) => {}
            Err(_) => {
                failures += 1;
                assert!(failures < 10_000, "rekey made no progress");
            }
        }
    }
    let mut finisher = Some(driver);
    while let Some(d) = finisher.take() {
        if d.finish(&mut disk).is_err() {
            failures += 1;
            assert!(failures < 10_000, "finish made no progress");
            finisher = disk.rekey_resume();
        }
    }
    assert!(disk.rekey_status().is_none());

    let mut after = vec![0u8; IMAGE_SIZE as usize];
    loop {
        if disk.read(0, &mut after).is_ok() {
            break;
        }
    }
    assert_eq!(after, mirror, "window rollback + recovery diverged");
    assert!(
        cluster.fault_plane().unwrap().injected_transients() > 0,
        "the schedule must actually inject"
    );
}

/// The PR-8 refund regression, deterministic: a tenant whose op
/// exhausts the retry budget must get its arbiter slot and backlog
/// space back — with a shared inflight budget of one, a healthy
/// tenant's IO can only complete if the failed tenant's grant was
/// refunded.
#[test]
fn retry_exhaustion_refunds_the_tenant_grant() {
    let cluster = Cluster::builder()
        .fault_plane(
            FaultConfig::new(matrix_seed()).fail_objects("rbd_data.victim", FaultKind::Transient),
        )
        .retry_policy(
            RetryPolicy::default()
                .max_retries(2)
                .backoff(Duration::ZERO, Duration::ZERO),
        )
        .build();
    let image =
        Image::create_with_object_size(&cluster, "victim", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    let mut victim_disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        OLD_PASS,
        Box::new(SeededIvSource::new(41)),
    )
    .unwrap();
    let image =
        Image::create_with_object_size(&cluster, "healthy", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    let mut healthy_disk = EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        OLD_PASS,
        Box::new(SeededIvSource::new(42)),
    )
    .unwrap();

    // One shared inflight slot: a leaked grant wedges the runtime.
    let runtime = Runtime::new(1);
    let victim = runtime.register(TenantSpec::new("victim").qd_cap(4).backlog_cap(16));
    let healthy = runtime.register(TenantSpec::new("healthy").qd_cap(4).backlog_cap(16));

    for round in 0u64..4 {
        // The victim's write dispatches (taking the only slot), burns
        // its retry budget against the always-faulting object, and
        // surfaces the injected error at reap.
        {
            let mut queue = victim.attach(victim_disk.io_queue());
            queue
                .submit(IoOp::Write {
                    offset: 0,
                    data: vec![round as u8; SECTOR as usize],
                })
                .unwrap();
            let err = queue.fence().expect_err("the faulted op must surface");
            let text = err.to_string();
            assert!(text.contains("injected"), "unexpected error: {text}");
        }
        let stats = victim.stats();
        assert_eq!(stats.failed_ops, round + 1, "each round fails exactly once");
        assert_eq!(runtime.in_flight(), 0, "the failed op must leave in-flight");

        // The healthy tenant can only run if the slot was refunded.
        let mut queue = healthy.attach(healthy_disk.io_queue());
        queue
            .submit(IoOp::Write {
                offset: round * SECTOR,
                data: vec![0x5A; SECTOR as usize],
            })
            .unwrap();
        queue.fence().unwrap();
        drop(queue);
        assert_eq!(healthy.stats().completed_ops, round + 1);
        assert_eq!(healthy.stats().failed_ops, 0);
    }
    assert_eq!(
        runtime.snapshot().tenants.len(),
        2,
        "both tenants stay registered after repeated failures"
    );
}

/// A baseline snapshot's key epochs are the crypt header's clone at
/// the snapshot, so `snap_create` is one rbd transaction: a crash at
/// any of its commit points leaves either no snapshot or one that
/// reads byte-exact — even after the head is overwritten and rekeyed
/// away from the epoch the snapshot froze under (the baseline has no
/// MAC, so a wrong key would decrypt to garbage with `Ok`).
#[test]
fn baseline_snapshot_crash_at_every_commit_point_reads_exact() {
    let config = EncryptionConfig::luks2_baseline();
    let mirror = pattern();
    let overwrite: Vec<u8> = mirror.iter().map(|b| b ^ 0x5A).collect();
    for crash_at in 0..8 {
        let dir = scratch("crash-snap");
        {
            let cluster = file_cluster(&dir, None);
            let image =
                Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
            let mut disk = EncryptedImage::format_with_iv_source(
                image,
                &config,
                OLD_PASS,
                Box::new(SeededIvSource::new(51)),
            )
            .unwrap();
            disk.write(0, &mirror).unwrap();
            cluster.flush();
        }
        {
            let cluster = file_cluster(&dir, Some(FaultConfig::new(1).crash_at_commit(crash_at)));
            let disk =
                EncryptedImage::open(Image::open(&cluster, "vm0").unwrap(), OLD_PASS).unwrap();
            let _ = disk.snap_create("frozen");
            cluster.flush(); // no-op once crashed; durable otherwise
        }

        let cluster = file_cluster(&dir, None);
        let image = Image::open(&cluster, "vm0").unwrap();
        let Some(snap) = image.snap_id("frozen").unwrap() else {
            continue; // the crash tore the snapshot's only transaction
        };
        let mut disk =
            EncryptedImage::open_with_iv_source(image, OLD_PASS, Box::new(SeededIvSource::new(52)))
                .unwrap();
        disk.write(0, &overwrite).unwrap();
        disk.rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
            .unwrap()
            .with_chunk_sectors(16)
            .drive_to_completion(&mut disk)
            .unwrap();
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read_at_snap(snap, 0, &mut buf).unwrap();
        assert!(
            buf == mirror,
            "crash at commit {crash_at}: the snapshot read the wrong key epochs"
        );
        disk.read(0, &mut buf).unwrap();
        assert!(
            buf == overwrite,
            "crash at commit {crash_at}: head diverged"
        );
    }
}

/// Formats and fills `config`'s image on a file store in `dir`, then
/// crashes a rekey in the middle of its first window (commit 0 is
/// `rekey_begin`, 1 the window intent, 2 the first chunk's rewrite)
/// and reopens the store under the new passphrase: the window's
/// intent is outstanding and one of its chunks landed under the new
/// key.
fn reopen_after_mid_window_crash(dir: &Path, config: &EncryptionConfig) -> EncryptedImage {
    {
        let cluster = file_cluster(dir, None);
        let image =
            Image::create_with_object_size(&cluster, "vm0", IMAGE_SIZE, OBJECT_SIZE).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            config,
            OLD_PASS,
            Box::new(SeededIvSource::new(61)),
        )
        .unwrap();
        disk.write(0, &pattern()).unwrap();
        cluster.flush();
    }
    {
        let cluster = file_cluster(dir, Some(FaultConfig::new(1).crash_at_commit(3)));
        let mut disk =
            EncryptedImage::open(Image::open(&cluster, "vm0").unwrap(), OLD_PASS).unwrap();
        let mut driver = disk
            .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
            .unwrap()
            .with_chunk_sectors(16)
            .with_queue_depth(4);
        assert!(driver.step(&mut disk).is_err(), "the window must crash");
    }
    let cluster = file_cluster(dir, None);
    let disk = EncryptedImage::open_with_iv_source(
        Image::open(&cluster, "vm0").unwrap(),
        NEW_PASS,
        Box::new(SeededIvSource::new(62)),
    )
    .unwrap();
    assert!(
        disk.rekey_status().and_then(|s| s.intent).is_some(),
        "the crashed window's intent must be outstanding"
    );
    disk
}

/// While a rekey window's intent is outstanding the stored watermark
/// may not be what the data obeys, so the baseline — whose snapshots
/// read their key epochs from the crypt header's clone — refuses to
/// snapshot until the next step recovers the window. Tagged layouts
/// route every sector by its entry and snapshot regardless. Either
/// way the snapshot, taken mid-rekey, reads byte-exact after the
/// rekey finishes and the head is overwritten.
#[test]
fn baseline_snapshot_waits_for_the_window_in_doubt() {
    let mirror = pattern();
    let overwrite: Vec<u8> = mirror.iter().map(|b| b ^ 0xA5).collect();
    for (config, refuses) in [
        (EncryptionConfig::luks2_baseline(), true),
        (EncryptionConfig::random_iv(MetaLayout::ObjectEnd), false),
    ] {
        let dir = scratch("snap-in-doubt");
        let mut disk = reopen_after_mid_window_crash(&dir, &config);
        let mut driver = disk
            .rekey_resume()
            .expect("rekey in flight")
            .with_chunk_sectors(16)
            .with_queue_depth(4);
        if refuses {
            assert!(matches!(
                disk.snap_create("mid-rekey"),
                Err(CryptError::RekeyInProgress)
            ));
            // The next step recovers the window and clears the intent.
            assert!(!driver.step(&mut disk).unwrap().is_complete());
            assert!(disk.rekey_status().and_then(|s| s.intent).is_none());
        }
        // One rbd transaction, and no write to the crypt header.
        let before = disk.image().cluster().exec_stats().transactions;
        let snap = disk.snap_create("mid-rekey").unwrap();
        assert_eq!(disk.image().cluster().exec_stats().transactions - before, 1);
        disk.write(0, &overwrite).unwrap();
        driver.drive_to_completion(&mut disk).unwrap();
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read_at_snap(snap, 0, &mut buf).unwrap();
        assert!(buf == mirror, "{config:?}: the mid-rekey snapshot diverged");
        disk.read(0, &mut buf).unwrap();
        assert!(buf == overwrite, "{config:?}: head diverged");
    }
}

/// Retries `op` until it returns anything but an injected store error
/// (a call that failed that way changed nothing).
fn until_not_injected<T>(
    attempts: &mut u32,
    what: &str,
    mut op: impl FnMut() -> Result<T, CryptError>,
) -> Result<T, CryptError> {
    loop {
        match op() {
            Err(e) if e.to_string().contains("injected") => bump(attempts, what),
            outcome => return outcome,
        }
    }
}

/// One storm run of [`failed_windows_under_a_storm_leave_nothing_ambiguous`].
fn storm_rekey_keeps_every_step_exact(config: &EncryptionConfig, seed: u64) {
    let baseline = config.layout.is_none();
    let cluster = Cluster::builder()
        .concurrent_apply(true)
        .fault_plane(FaultConfig::new(seed).transient_rate(0.15))
        .retry_policy(RetryPolicy::none())
        .build();
    let mut attempts = 0u32;
    let image = loop {
        match Image::create_with_object_size(&cluster, "storm", IMAGE_SIZE, OBJECT_SIZE) {
            Ok(image) => break image,
            Err(_) => bump(&mut attempts, "image create"),
        }
    };
    let mut disk = until_not_injected(&mut attempts, "format", || {
        EncryptedImage::format_with_iv_source(
            image.clone(),
            config,
            OLD_PASS,
            Box::new(SeededIvSource::new(70 + seed)),
        )
    })
    .unwrap();
    let mut mirror = pattern();
    until_not_injected(&mut attempts, "preconditioning", || disk.write(0, &mirror)).unwrap();
    let mut driver = until_not_injected(&mut attempts, "rekey_begin", || {
        disk.rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
    })
    .unwrap()
    .with_chunk_sectors(16)
    .with_queue_depth(4);

    let mut buf = vec![0u8; IMAGE_SIZE as usize];
    for step in 0u64.. {
        assert!(step < 10_000, "seed {seed}: rekey made no progress");
        let done = matches!(driver.step(&mut disk), Ok(progress) if progress.is_complete());
        let what = format!("{config:?}, seed {seed}, step {step}");

        // The live handle's rekey state is the stored one. (An
        // injected fault in `Image::open` reads as a missing image.)
        let fresh = loop {
            match Image::open(&cluster, "storm").map(|image| EncryptedImage::open(image, NEW_PASS))
            {
                Ok(Ok(fresh)) => break fresh,
                _ => bump(&mut attempts, "open"),
            }
        };
        assert_eq!(fresh.rekey_status(), disk.rekey_status(), "{what}: status");
        drop(fresh);

        // A read is exact, or refused on the baseline only.
        match until_not_injected(&mut attempts, "read", || disk.read(0, &mut buf)) {
            Ok(_) => assert!(buf == mirror, "{what}: a full-image read diverged"),
            Err(CryptError::RekeyInProgress) => {
                assert!(baseline, "{what}: a tagged layout refused a read");
            }
            Err(e) => panic!("{what}: read failed: {e}"),
        }

        // A write that returns Ok is a write that landed.
        let offset = (step * 7 + seed) % (IMAGE_SIZE / (16 << 10)) * (16 << 10);
        let data = vec![0x80 | (step as u8 & 0x7F); 16 << 10];
        if disk.write(offset, &data).is_ok() {
            mirror[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
        }
        if done {
            break;
        }
    }
    let mut finisher = Some(driver);
    while let Some(d) = finisher.take() {
        if d.finish(&mut disk).is_err() {
            bump(&mut attempts, "finish");
            finisher = disk.rekey_resume();
        }
    }
    until_not_injected(&mut attempts, "final read", || disk.read(0, &mut buf)).unwrap();
    assert!(buf == mirror, "{config:?}, seed {seed}: the image diverged");
}

/// Windows that fail under a transient storm (retries off) leave
/// nothing ambiguous: after every step, `Ok` or `Err`, a freshly
/// opened handle sees the live handle's rekey state, a full-image
/// read is byte-exact (or, on the baseline, refused while a window is
/// in doubt), and a client write that returns `Ok` landed — so the
/// finished image equals the mirror of every accepted write.
#[test]
fn failed_windows_under_a_storm_leave_nothing_ambiguous() {
    for config in [
        EncryptionConfig::luks2_baseline(),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
    ] {
        for seed in 1..=4 {
            storm_rekey_keeps_every_step_exact(&config, seed);
        }
    }
}

/// A window left in doubt by a crash: on the baseline, head reads and
/// writes overlapping it are refused until a step recovers it, while
/// IO past it runs normally; tagged layouts read and write it as
/// usual. The recovering step migrates the three unproven chunks
/// through the rekey tenant — one read and one write each — and the
/// image reads exact once the rekey finishes.
#[test]
fn a_window_in_doubt_is_refused_on_the_baseline_until_recovered() {
    for config in [
        EncryptionConfig::luks2_baseline(),
        EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
    ] {
        let baseline = config.layout.is_none();
        let dir = scratch("window-in-doubt");
        let mut disk = reopen_after_mid_window_crash(&dir, &config);
        let mut mirror = pattern();
        let intent = disk.rekey_status().and_then(|s| s.intent).unwrap();
        let (start, end) = (
            (intent.start * SECTOR) as usize,
            (intent.end * SECTOR) as usize,
        );

        let mut sector = vec![0u8; SECTOR as usize];
        let read = disk.read(start as u64, &mut sector);
        let data = vec![0xE7; 4 * SECTOR as usize];
        let write = disk.write(start as u64, &data);
        if baseline {
            assert!(matches!(read, Err(CryptError::RekeyInProgress)), "{read:?}");
            assert!(
                matches!(write, Err(CryptError::RekeyInProgress)),
                "{write:?}"
            );
        } else {
            read.unwrap();
            assert!(sector[..] == mirror[start..start + sector.len()]);
            write.unwrap();
            mirror[start..start + data.len()].copy_from_slice(&data);
        }
        disk.read(end as u64, &mut sector).unwrap();
        assert!(sector[..] == mirror[end..end + sector.len()], "{config:?}");

        let runtime = Runtime::new(8);
        let tenant = runtime.register(TenantSpec::new("rekey").qd_cap(4).backlog_cap(16));
        let mut driver = disk
            .rekey_resume()
            .expect("rekey in flight")
            .with_chunk_sectors(16)
            .with_queue_depth(4)
            .with_runtime_tenant(tenant.clone());
        driver.step(&mut disk).unwrap();
        assert!(disk.rekey_status().and_then(|s| s.intent).is_none());
        assert_eq!(
            tenant.stats().completed_ops,
            6,
            "{config:?}: recovery must be admitted"
        );
        driver.drive_to_completion(&mut disk).unwrap();
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read(0, &mut buf).unwrap();
        assert!(buf == mirror, "{config:?}: the image diverged");
    }
}
