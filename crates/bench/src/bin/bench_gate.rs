//! The CI bench-regression gate: runs a quick, fully deterministic
//! subset of the benchmark surface (the batched write path,
//! read-heavy cache-on/cache-off fio jobs, and the mixed randrw churn
//! job), records the **simulated** median ns/op per group to
//! `BENCH_results.json`, and fails if any group regresses more than
//! 15% against the checked-in `BENCH_baseline.json`.
//!
//! Simulated time — not wall clock — is the gated metric on purpose:
//! every group runs seeded workloads against inline-mode clusters
//! ([`testbed::cached_bench_disk`]), so the numbers are bit-identical
//! across hosts and the 15% tolerance catches real cost-model or
//! IO-path regressions instead of CI-runner noise. The gate also
//! asserts the cache's reason to exist: the cache-on read job must
//! beat its cache-off twin and must actually register hits.
//!
//! One exception: groups prefixed `filestore-` (wall-clock smoke on
//! the durable file backend) or `faulty-` (randwrite under a low
//! transient-fault rate, retries absorbed with real backoff sleeps)
//! appear in the results artifact but are never gated and never
//! enter the baseline.
//!
//! Usage (CI runs the default; run it locally the same way):
//!
//! ```text
//! cargo run --release -p vdisk-bench --bin bench_gate
//!     [--baseline PATH]   # default BENCH_baseline.json
//!     [--results PATH]    # default BENCH_results.json
//!     [--update-baseline] # rewrite the baseline instead of comparing
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;
use vdisk_bench::fio::{self, IoPattern, JobSpec};
use vdisk_bench::testbed;
use vdisk_core::{EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_rados::{Testbed, TestbedProfile};
use vdisk_sim::ClosedLoopStats;

/// Regression tolerance: a group failing `result > baseline * 1.15`
/// fails the gate.
const TOLERANCE: f64 = 0.15;

/// Groups with these prefixes are **smoke** rows: wall clock leaks
/// into them (the file backend's real fsync traffic; the fault
/// plane's real backoff sleeps), so they are written to the results
/// artifact for visibility but never compared against the baseline
/// and never written into it — host IO latency is exactly the
/// CI-runner noise the simulated gate exists to avoid.
const SMOKE_PREFIXES: [&str; 2] = ["filestore-", "faulty-"];

/// Whether `group` is a reported-only smoke row (see [`SMOKE_PREFIXES`]).
fn is_smoke(group: &str) -> bool {
    SMOKE_PREFIXES.iter().any(|p| group.starts_with(p))
}

const BASELINE_DEFAULT: &str = "BENCH_baseline.json";
const RESULTS_DEFAULT: &str = "BENCH_results.json";

const IMAGE: u64 = 8 << 20;

fn ns_per_op(stats: &ClosedLoopStats) -> f64 {
    stats.makespan.as_secs_f64() * 1e9 / stats.ops as f64
}

/// Runs one job; returns unrounded simulated ns/op (rounded only when
/// recorded, so comparisons keep full precision).
fn job(disk: &mut EncryptedImage, spec: &JobSpec) -> f64 {
    ns_per_op(&fio::run_job(disk, spec).expect("gate job"))
}

fn record(results: &mut BTreeMap<String, u64>, group: String, ns: f64) {
    results.insert(group, ns.round() as u64);
}

/// The acceptance check for the cache, asserted on the priced plan
/// where it cannot be diluted by whatever resource happens to bound
/// the closed loop. With write-through fills, even the **first** read
/// after a write is warm: it must issue strictly fewer store ops and
/// move strictly fewer op bytes than the same read on an uncached
/// twin.
fn assert_plan_drops_meta_round_trip(label: &str, config: &EncryptionConfig) {
    let mut cached = testbed::cached_bench_disk(config, 1 << 20, 13);
    cached
        .write(0, &vec![0xA5u8; 64 << 10])
        .expect("seed write");
    let mut buf = vec![0u8; 64 << 10];
    let warm = testbed::simulated(cached.image().cluster())
        .plan_of(&cached.read(0, &mut buf).expect("warm read"));
    assert!(
        cached.meta_cache_stats().meta_cache_write_fills > 0,
        "{label}: the seed write must fill its own entries"
    );
    let mut uncached = testbed::uncached_bench_disk(config, 1 << 20, 13);
    uncached
        .write(0, &vec![0xA5u8; 64 << 10])
        .expect("seed write");
    let cold = testbed::simulated(uncached.image().cluster())
        .plan_of(&uncached.read(0, &mut buf).expect("cold read"));
    assert!(
        warm.op_count() < cold.op_count() && warm.total_op_bytes() < cold.total_op_bytes(),
        "{label}: a cache hit must drop the metadata op from the plan \
         ({} -> {} ops)",
        cold.op_count(),
        warm.op_count()
    );
}

/// Runs every gated group. Returns `(group → simulated ns/op)`.
fn run_groups() -> BTreeMap<String, u64> {
    let mut results = BTreeMap::new();
    let object_end = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
    let omap = EncryptionConfig::random_iv(MetaLayout::Omap);

    // The batched write path per layout.
    let write_spec = JobSpec {
        pattern: IoPattern::RandWrite,
        io_size: 64 << 10,
        queue_depth: 8,
        ops: 48,
        seed: 17,
    };
    for (label, config) in [
        ("luks2", EncryptionConfig::luks2_baseline()),
        ("object-end", object_end.clone()),
        ("omap", omap.clone()),
    ] {
        let mut disk = testbed::uncached_bench_disk(&config, IMAGE, 7);
        fio::precondition(&mut disk).expect("precondition");
        let ns = job(&mut disk, &write_spec);
        record(&mut results, format!("randwrite-qd8-64k/{label}"), ns);
    }

    // The cache groups: identical read-heavy job, cache on vs off, at
    // the paper's worst-case 4 KiB IO size — where the metadata fetch
    // is a whole extra physical access per data block (§3.3). The
    // cache-on disk measures a warmed second run — the steady state
    // the cache exists for (the seeded offset sequence repeats, so
    // the rerun hits on every slot the warmup touched).
    let read_spec = JobSpec {
        pattern: IoPattern::RandRead,
        io_size: 4 << 10,
        queue_depth: 32,
        ops: 384,
        seed: 11,
    };
    for (label, config) in [("object-end", &object_end), ("omap", &omap)] {
        // The round trip's disappearance is asserted on the plan
        // itself (robust); the makespan comparison below is kept
        // non-strict because whichever resource bounds the closed
        // loop can legitimately absorb the parallel meta fetch.
        assert_plan_drops_meta_round_trip(label, config);

        let mut disk = testbed::uncached_bench_disk(config, IMAGE, 3);
        fio::precondition(&mut disk).expect("precondition");
        job(&mut disk, &read_spec); // same warmup schedule as cache-on
        let off = job(&mut disk, &read_spec);
        record(
            &mut results,
            format!("randread-qd32-4k/{label}/cache-off"),
            off,
        );

        let mut disk = testbed::cached_bench_disk(config, IMAGE, 3);
        fio::precondition(&mut disk).expect("precondition");
        job(&mut disk, &read_spec); // warm the cache
        let on = job(&mut disk, &read_spec);
        record(
            &mut results,
            format!("randread-qd32-4k/{label}/cache-on"),
            on,
        );

        let hits = disk.meta_cache_stats().meta_cache_hits;
        assert!(hits > 0, "{label}: warmed read job must register hits");
        assert!(
            on <= off,
            "{label}: cache-on ({on} ns/op) must never lose to cache-off ({off} ns/op)"
        );
        println!("  [{label}] cache-on {on:.0} ns/op vs cache-off {off:.0} ns/op ({hits} hits)");
    }

    // Large-block parallel-crypto group: 256 KiB random writes at the
    // paper's QD 32, cache on. The job runs once; its receipts are
    // priced on the paper's client, whose 4 crypto workers split each
    // write's encryption, and on a serial twin with one worker (the
    // old single-threaded pipeline). Both sides are recorded and
    // gated, and the multi-core scaling the split exists for is
    // asserted outright — in simulated time, so the check is
    // host-independent. A larger image than the small-IO groups (64
    // objects) on a 12-OSD map lets the dispatch fan out; client-side
    // crypto then bounds the serial pipeline, which is exactly the
    // bottleneck the workers remove.
    let qd32_image: u64 = 256 << 20;
    let qd32_spec = JobSpec {
        pattern: IoPattern::RandWrite,
        io_size: 256 << 10,
        queue_depth: 32,
        ops: 64,
        seed: 23,
    };
    for (label, config) in [
        ("luks2", EncryptionConfig::luks2_baseline()),
        ("object-end", object_end.clone()),
    ] {
        let mut disk = testbed::wide_cached_bench_disk(&config, qd32_image, 19);
        fio::precondition(&mut disk).expect("precondition");
        let receipts = fio::job_receipts(&mut disk, &qd32_spec).expect("gate job");
        let osds = disk.image().cluster().osd_count();
        let price = |crypto_servers| {
            let profile = TestbedProfile {
                crypto_servers,
                ..TestbedProfile::default()
            };
            let ops = receipts.iter().map(|receipt| (receipt, qd32_spec.io_size));
            ns_per_op(&Testbed::new(profile, osds).run_closed_loop(qd32_spec.queue_depth, ops))
        };
        let serial_ns = price(1);
        let wide_ns = price(TestbedProfile::default().crypto_servers);
        let scaling = serial_ns / wide_ns;
        assert!(
            scaling > 1.3,
            "{label}: parallel crypto must scale >1.3x over the serial \
             baseline at 256 KiB / QD 32, got {scaling:.2}x \
             ({serial_ns:.0} -> {wide_ns:.0} ns/op)"
        );
        println!("  [{label}] 256k qd32: serial {serial_ns:.0} ns/op, 4 lanes {wide_ns:.0} ns/op ({scaling:.2}x)");
        record(
            &mut results,
            format!("randwrite-qd32-256k/{label}/serial"),
            serial_ns,
        );
        record(
            &mut results,
            format!("randwrite-qd32-256k/{label}/lanes4"),
            wide_ns,
        );
    }

    // Mixed 70/30 churn at QD 8: the invalidation path under load.
    let mut disk = testbed::cached_bench_disk(&object_end, IMAGE, 41);
    fio::precondition(&mut disk).expect("precondition");
    let ns = job(&mut disk, &fio::CHURN_70_30_QD8);
    record(
        &mut results,
        "randrw70-qd8-16k/object-end/cache-on".to_string(),
        ns,
    );

    // Rekey churn: the same 70/30 mix while a background online rekey
    // drains the image between job slices — the key-lifecycle hot
    // path, regression-gated from day one. Deterministic: inline-mode
    // cluster, seeded offsets, fixed driver window; the metric is the
    // client IO's simulated ns/op under migration pressure (driver
    // IO contends for the same shards and churns the cache).
    let mut disk = testbed::cached_bench_disk(&object_end, IMAGE, 29);
    fio::precondition(&mut disk).expect("precondition");
    let mut driver = disk
        .rekey_begin_with_iterations(b"bench-passphrase", b"bench-passphrase-2", 25)
        .expect("rekey begin")
        .with_chunk_sectors(32)
        .with_queue_depth(8);
    let mut total_ns = 0.0;
    let mut total_ops = 0u64;
    let mut slice = 0u64;
    loop {
        let progress = driver.step(&mut disk).expect("rekey step");
        let spec = JobSpec {
            pattern: IoPattern::RANDRW_70_30,
            io_size: 16 << 10,
            queue_depth: 8,
            ops: 24,
            seed: 100 + slice,
        };
        let stats = fio::run_job(&mut disk, &spec).expect("churn slice");
        total_ns += stats.makespan.as_secs_f64() * 1e9;
        total_ops += stats.ops;
        slice += 1;
        if progress.is_complete() {
            break;
        }
    }
    driver.finish(&mut disk).expect("rekey finish");
    assert!(slice >= 4, "the migration must span several windows");
    record(
        &mut results,
        "rekey-churn-qd8-16k/object-end/cache-on".to_string(),
        total_ns / total_ops as f64,
    );

    // Multi-tenant QoS group: four tenants with mixed weights (3:1:1:1)
    // driving the 70/30 churn mix against their own images on ONE
    // shared cluster, arbitrated by the client runtime's weighted fair
    // scheduler at a shared inflight budget of 8. Inline apply plus
    // the single-threaded round-robin driver make the whole dispatch
    // trace — and therefore the combined simulated ns/op — identical
    // across hosts. Gated: a scheduler regression that serializes
    // dispatch or loses admission slots shows up here directly.
    let mut disks = testbed::tenant_bench_disks(&object_end, 4, IMAGE, 53);
    for disk in &mut disks {
        fio::precondition(disk).expect("precondition");
    }
    let tenant_jobs: Vec<fio::TenantJob> = [3u32, 1, 1, 1]
        .iter()
        .enumerate()
        .map(|(i, &weight)| fio::TenantJob {
            spec: JobSpec {
                pattern: IoPattern::RANDRW_70_30,
                io_size: 16 << 10,
                queue_depth: 8,
                ops: 48,
                seed: 200 + i as u64,
            },
            weight,
            qd_cap: 8,
        })
        .collect();
    let outcome =
        fio::run_multi_tenant(&mut disks, &tenant_jobs, 8, None).expect("multi-tenant gate job");
    for (tenant, job) in outcome.tenants.iter().zip(&tenant_jobs) {
        assert_eq!(
            tenant.completed_ops, job.spec.ops,
            "{}: every admitted op must complete",
            tenant.name
        );
    }
    record(
        &mut results,
        "multitenant-randrw-qd8-16k/object-end/cache-on".to_string(),
        ns_per_op(&outcome.combined),
    );

    // FileStore smoke: the same 16 KiB random-write spec driven
    // against the durable backend, measured in **wall clock** (the
    // metric that actually contains the fsyncs). Reported only — see
    // [`SMOKE_PREFIXES`].
    let scratch = std::path::PathBuf::from("target/backend-scratch")
        .join(format!("bench-gate-{}", std::process::id()));
    let mut disk = testbed::filestore_bench_disk(&object_end, IMAGE, 17, scratch.clone());
    fio::precondition(&mut disk).expect("precondition");
    let spec = JobSpec {
        pattern: IoPattern::RandWrite,
        io_size: 16 << 10,
        queue_depth: 8,
        ops: 48,
        seed: 17,
    };
    let wall = std::time::Instant::now();
    let stats = fio::run_job(&mut disk, &spec).expect("filestore smoke job");
    let wall_ns = wall.elapsed().as_secs_f64() * 1e9 / stats.ops as f64;
    println!("  [filestore] randwrite qd8 16k: {wall_ns:.0} wall ns/op (smoke, not gated)");
    record(
        &mut results,
        "filestore-randwrite-qd8-16k/object-end/wall".to_string(),
        wall_ns,
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&scratch);

    // Fault-plane smoke: the randwrite spec above again, on
    // a cluster injecting transient shard errors at a low 2% rate.
    // The retry layer must absorb every injection — the job completes
    // and the row shows what transparent replay costs. Reported only
    // (the backoff between replays is a real wall-clock sleep); the
    // replays themselves are asserted, so the row can't silently
    // measure a fault-free run.
    let mut disk = testbed::faulty_bench_disk(&object_end, IMAGE, 7, 0.02);
    fio::precondition(&mut disk).expect("precondition under faults");
    let ns = job(&mut disk, &write_spec);
    let stats = disk.image().cluster().exec_stats();
    assert!(
        stats.retries > 0,
        "a 2% transient rate across the job must force at least one replay"
    );
    println!(
        "  [faulty] randwrite qd8 64k @ 2% transients: {ns:.0} ns/op, {} retries (smoke, not gated)",
        stats.retries
    );
    record(
        &mut results,
        "faulty-randwrite-qd8-64k/object-end/transient-2pct".to_string(),
        ns,
    );

    results
}

/// Serializes a flat `group → ns/op` map as pretty-printed JSON
/// (sorted keys, so the artifact diffs cleanly).
fn to_json(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in map.iter().enumerate() {
        let comma = if i + 1 == map.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat JSON this tool writes: `"key": integer` pairs. Not
/// a general JSON parser — just the inverse of [`to_json`].
fn from_json(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let end = rest.find('"').ok_or("unterminated key")?;
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let colon = rest.find(':').ok_or("missing ':' after key")?;
        rest = rest[colon + 1..].trim_start();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return Err(format!("no integer value for key {key:?}"));
        }
        rest = &rest[digits.len()..];
        let value = digits
            .parse()
            .map_err(|e| format!("bad value for {key:?}: {e}"))?;
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

/// Compares results against the baseline; prints one line per group.
/// Returns whether the gate passes.
fn compare(results: &BTreeMap<String, u64>, baseline: &BTreeMap<String, u64>) -> bool {
    let mut pass = true;
    println!(
        "\n{:<44} {:>12} {:>12} {:>8}",
        "group", "baseline", "result", "delta"
    );
    for (group, &base) in baseline {
        if is_smoke(group) {
            // A stale baseline may carry a smoke row; never gate on it.
            continue;
        }
        match results.get(group) {
            None => {
                println!("{group:<44} {base:>12} {:>12} MISSING", "-");
                pass = false;
            }
            Some(&got) => {
                let delta = got as f64 / base as f64 - 1.0;
                let regressed = delta > TOLERANCE;
                let mark = if regressed { "FAIL" } else { "ok" };
                println!(
                    "{group:<44} {base:>12} {got:>12} {:>+7.1}% {mark}",
                    delta * 100.0
                );
                pass &= !regressed;
            }
        }
    }
    for group in results.keys() {
        if is_smoke(group) {
            continue;
        }
        if !baseline.contains_key(group) {
            println!(
                "{group:<44} {:>12} {:>12} NEW (update the baseline)",
                "-", results[group]
            );
        }
    }
    pass
}

fn main() -> ExitCode {
    let mut baseline_path = BASELINE_DEFAULT.to_string();
    let mut results_path = RESULTS_DEFAULT.to_string();
    let mut update_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline takes a path"),
            "--results" => results_path = args.next().expect("--results takes a path"),
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    println!("bench gate: running deterministic simulated groups...");
    let results = run_groups();
    std::fs::write(&results_path, to_json(&results)).expect("write results");
    println!("wrote {} ({} groups)", results_path, results.len());

    if update_baseline {
        let gated: BTreeMap<String, u64> = results
            .iter()
            .filter(|(k, _)| !is_smoke(k))
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        std::fs::write(&baseline_path, to_json(&gated)).expect("write baseline");
        println!("baseline updated: {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "cannot read baseline {baseline_path}: {e}\n\
                 (run with --update-baseline to create it)"
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match from_json(&baseline_text) {
        Ok(map) => map,
        Err(e) => {
            eprintln!("malformed baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    if compare(&results, &baseline) {
        println!("\nbench gate: PASS (tolerance {:.0}%)", TOLERANCE * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench gate: FAIL — a group regressed or went missing");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut map = BTreeMap::new();
        map.insert("a/b".to_string(), 123u64);
        map.insert("c".to_string(), 0u64);
        assert_eq!(from_json(&to_json(&map)).unwrap(), map);
        assert!(from_json("{\"x\": }").is_err());
        assert!(from_json("{\"x").is_err());
    }

    #[test]
    fn smoke_groups_are_never_gated() {
        assert!(is_smoke("filestore-x") && is_smoke("faulty-x"));
        assert!(!is_smoke("randwrite-qd8-64k/luks2"));
        let base: BTreeMap<String, u64> = [("filestore-x".to_string(), 100u64)].into();
        // A smoke row is ignored wherever it appears: regressed,
        // missing from the results, or absent from the baseline.
        assert!(compare(
            &[("filestore-x".to_string(), 10_000u64)].into(),
            &base
        ));
        assert!(compare(&BTreeMap::new(), &base));
        assert!(compare(
            &[("filestore-x".to_string(), 1u64)].into(),
            &BTreeMap::new()
        ));
    }

    #[test]
    fn compare_applies_the_tolerance() {
        let base: BTreeMap<String, u64> = [("g".to_string(), 100u64)].into();
        assert!(compare(&[("g".to_string(), 114u64)].into(), &base));
        assert!(!compare(&[("g".to_string(), 116u64)].into(), &base));
        // Improvements always pass; missing groups fail.
        assert!(compare(&[("g".to_string(), 10u64)].into(), &base));
        assert!(!compare(&BTreeMap::new(), &base));
    }
}
