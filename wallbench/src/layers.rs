//! Per-layer numbers measured from outside: the QD 1 layer ladder and
//! the single-thread microbenchmarks. Each calls one layer's public
//! functions directly; a layer's self time is its rung minus the rung
//! below. None of these is bounded; they say where an end-to-end
//! change came from.

use crate::rig::{self, Queue, RadosQueue, Rig, RigSpec, LANES, OBJECT_BYTES, PASSPHRASE};
use crate::stats::median;
use crate::trace::NoTrace;
use crate::workload::{drive, prefill, Generator, Until};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vdisk_core::batch::IoBatch;
use vdisk_core::layout::Geometry;
use vdisk_core::luks::DEFAULT_ITERATIONS;
use vdisk_core::{EncryptedImage, EncryptionConfig, MetaLayout, Runtime, TenantSpec};
use vdisk_crypto::gcm::AesGcm;
use vdisk_crypto::hmac::hmac_sha256;
use vdisk_crypto::kdf::pbkdf2_hmac_sha256;
use vdisk_crypto::rng::{IvSource, OsIvSource, SeededRng};
use vdisk_crypto::xts::XtsCipher;
use vdisk_kv::{LsmConfig, LsmStore};
use vdisk_rados::{BackendKind, Transaction};
use vdisk_rbd::{Image, Striper};

const MIB: f64 = (1 << 20) as f64;
const SECTOR: usize = 4096;

/// How long each per-layer measurement runs. The program has one,
/// [`Budget::ISSUE`]; the fields are public so that the crate's tests
/// can walk the same code in a second.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// A ladder rung stops after this many ops ...
    pub rung_ops: u64,
    /// ... or this long, whichever comes first.
    pub rung_seconds: f64,
    /// Length of one microbenchmark sample.
    pub micro_seconds: f64,
    /// Samples per microbenchmark; the median is reported.
    pub micro_reps: usize,
    /// Image size of the ladder's rigs.
    pub ladder_image_bytes: u64,
    /// Image size of the rekey measurement.
    pub rekey_image_bytes: u64,
}

impl Budget {
    /// At least 20000 ops or 2 s per rung; five samples of a second
    /// per microbenchmark.
    pub const ISSUE: Budget = Budget {
        rung_ops: 20_000,
        rung_seconds: 2.0,
        micro_seconds: 1.0,
        micro_reps: 5,
        ladder_image_bytes: 16 << 20,
        rekey_image_bytes: 16 << 20,
    };
}

/// `(name, value, unit)` in the order measured.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The value of the metric called `name`, `NaN` if it is not there.
#[must_use]
pub fn value(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(f64::NAN, |(_, v, _)| *v)
}

/// Median QD 1 latency of 4 KiB ops (`read_pct` of them reads) on `q`,
/// every read checked against the oracle the rig was prefilled from.
/// `expect_hits` says whether every read must (or must not) be served
/// from the IV cache.
fn rung(
    q: &mut dyn Queue,
    oracle: &mut [u8],
    read_pct: u64,
    expect_hits: Option<bool>,
    budget: &Budget,
    seed: u64,
) -> Result<f64, String> {
    let mut gen = Generator::new(
        SeededRng::new(seed),
        oracle.len() as u64,
        SECTOR as u64,
        read_pct,
    );
    let until = Until {
        ops: Some(budget.rung_ops),
        time: Some(Duration::from_secs_f64(budget.rung_seconds)),
        at_least: 0,
    };
    // A short untimed lead-in so the first timed op meets warm
    // workers and a warm cache.
    drive(q, &mut gen, oracle, 1, Until::ops(256), &mut NoTrace)?;
    let seg = drive(q, &mut gen, oracle, 1, until, &mut NoTrace)?;
    if seg.mismatches > 0 {
        return Err(format!(
            "{} ladder reads disagreed with the oracle",
            seg.mismatches
        ));
    }
    // The two read rungs of the encrypted queue are told apart by the
    // IV cache; hold them to their names.
    match expect_hits {
        Some(true) if seg.stats.meta_cache_hits != seg.ops => {
            Err("the cache-hit rung missed the IV cache".into())
        }
        Some(false) if seg.stats.meta_cache_hits != 0 => {
            Err("the cache-miss rung hit the IV cache".into())
        }
        _ => Ok(seg.lat.p50_us),
    }
}

fn random_bytes(len: u64, seed: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    SeededRng::new(seed).fill_bytes(&mut bytes);
    bytes
}

fn prefilled(spec: &RigSpec, oracle: &[u8]) -> Result<Rig, String> {
    let mut rig = Rig::build(spec)?;
    rig.with_queue(|q| prefill(q, oracle))?;
    Ok(rig)
}

/// The layer ladder: the same 4 KiB op at QD 1, entering one layer
/// lower each time, on identically built rigs.
///
/// # Errors
///
/// Any layer error or oracle mismatch.
pub fn ladder(
    budget: &Budget,
    seed: u64,
    xts_enc_mibs: f64,
    xts_dec_mibs: f64,
) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let mut oracle = random_bytes(budget.ladder_image_bytes, seed);
    let image_bytes = budget.ladder_image_bytes;
    let encrypted =
        |layout| RigSpec::memory(image_bytes, Some(EncryptionConfig::random_iv(layout)));

    // Top rungs: the encrypted queue, bare and under a tenant. The
    // default cache holds every entry of the image after the prefill's
    // write-through fills, so these reads all hit.
    let mut rig = prefilled(&encrypted(MetaLayout::ObjectEnd), &oracle)?;
    let core_write = rig.with_queue(|q| rung(q, &mut oracle, 0, None, budget, seed))?;
    let core_read_hit = rig.with_queue(|q| rung(q, &mut oracle, 100, Some(true), budget, seed))?;
    let runtime_write = {
        let runtime = Runtime::new(1);
        let tenant = runtime.register(TenantSpec::new("ladder"));
        let rig::Disk::Enc(disk) = &mut rig.disk else {
            return Err("the ladder's top rig is encrypted".into());
        };
        let mut q = tenant.attach(disk.io_queue());
        rung(&mut q, &mut oracle, 0, None, budget, seed)?
    };
    drop(rig);

    // The same rig without a metadata cache: every read fetches its IV.
    let mut spec = encrypted(MetaLayout::ObjectEnd);
    spec.meta_cache_bytes = Some(0);
    let mut rig = prefilled(&spec, &oracle)?;
    let core_read_miss =
        rig.with_queue(|q| rung(q, &mut oracle, 100, Some(false), budget, seed))?;
    drop(rig);

    // The OMAP layout's write path (per-sector KV entries).
    let mut rig = prefilled(&encrypted(MetaLayout::Omap), &oracle)?;
    let core_write_omap = rig.with_queue(|q| rung(q, &mut oracle, 0, None, budget, seed))?;
    drop(rig);

    // One layer down: the raw image queue.
    let mut rig = prefilled(&RigSpec::memory(image_bytes, None), &oracle)?;
    let rbd_write = rig.with_queue(|q| rung(q, &mut oracle, 0, None, budget, seed))?;
    let rbd_read = rig.with_queue(|q| rung(q, &mut oracle, 100, None, budget, seed))?;
    drop(rig);

    // Bottom: the cluster itself, with shard workers and inline.
    let rados = |workers: bool, read_pct: u64, oracle: &mut Vec<u8>| -> Result<f64, String> {
        let cluster = rig::build_cluster(BackendKind::Memory, None, workers, LANES)?;
        let mut q = RadosQueue::new(&cluster);
        prefill(&mut q, oracle)?;
        rung(&mut q, oracle, read_pct, None, budget, seed)
    };
    let rados_tx = rados(true, 0, &mut oracle)?;
    let rados_read = rados(true, 100, &mut oracle)?;
    let rados_inline = rados(false, 0, &mut oracle)?;

    let enc_us = SECTOR as f64 / MIB / xts_enc_mibs * 1e6;
    let dec_us = SECTOR as f64 / MIB / xts_dec_mibs * 1e6;
    for (name, v) in [
        ("runtime.write_qd1_4k_us", runtime_write),
        ("core.write_qd1_4k_us", core_write),
        ("core.read_qd1_4k_hit_us", core_read_hit),
        ("core.read_qd1_4k_miss_us", core_read_miss),
        ("core.write_qd1_4k_omap_us", core_write_omap),
        ("rbd.write_qd1_4k_us", rbd_write),
        ("rbd.read_qd1_4k_us", rbd_read),
        ("rados.tx_qd1_4k_us", rados_tx),
        ("rados.read_qd1_4k_us", rados_read),
        ("rados.tx_inline_4k_us", rados_inline),
        ("rados.handoff_us", rados_tx - rados_inline),
        ("runtime.self_write_4k_us", runtime_write - core_write),
        ("core.self_write_4k_us", core_write - rbd_write - enc_us),
        ("core.self_read_4k_us", core_read_hit - rbd_read - dec_us),
        ("rbd.self_write_4k_us", rbd_write - rados_tx),
        ("rbd.self_read_4k_us", rbd_read - rados_read),
    ] {
        m.push((name, v, "us"));
    }
    Ok(m)
}

/// Seconds per call of `f`: the median over the budget's samples of
/// (sample time / calls in the sample).
fn per_call(budget: &Budget, mut f: impl FnMut()) -> f64 {
    let sample = Duration::from_secs_f64(budget.micro_seconds);
    let samples: Vec<f64> = (0..budget.micro_reps)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                f();
                calls += 1;
                let elapsed = start.elapsed();
                if elapsed >= sample {
                    break elapsed.as_secs_f64() / calls as f64;
                }
            }
        })
        .collect();
    median(&samples)
}

/// [`per_call`] for a call that can fail: the first error wins.
fn try_per_call(budget: &Budget, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut failed = None;
    let seconds = per_call(budget, || {
        if let Err(e) = f() {
            failed.get_or_insert(e);
        }
    });
    failed.map_or(Ok(seconds), Err)
}

/// Median over the budget's samples of one timed call each; `f`
/// returns the time of the part that counts.
fn per_sample(
    budget: &Budget,
    mut f: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<f64, String> {
    let samples = (0..budget.micro_reps)
        .map(|i| f(i).map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples))
}

fn sector_mibs(seconds_per_sector: f64) -> f64 {
    SECTOR as f64 / MIB / seconds_per_sector
}

/// The two cipher microbenchmarks every traced run takes: the base of
/// the efficiency ratios and of the ladder's self times.
#[must_use]
pub fn xts_micro(budget: &Budget) -> Metrics {
    let mut sector = vec![0x5Au8; SECTOR];
    let tweak = XtsCipher::tweak_from_sector_number(7);
    let xts = XtsCipher::new(&[0x11; 64]).expect("64-byte key is AES-256-XTS");
    let enc = per_call(budget, || {
        xts.encrypt_sector(&tweak, black_box(&mut sector))
            .expect("whole sector");
    });
    let dec = per_call(budget, || {
        xts.decrypt_sector(&tweak, black_box(&mut sector))
            .expect("whole sector");
    });
    vec![
        ("crypto.xts_enc_4k_mibs", sector_mibs(enc), "MiB/s"),
        ("crypto.xts_dec_4k_mibs", sector_mibs(dec), "MiB/s"),
    ]
}

/// MiB/s of 1 MiB `write_owned` calls on an encrypted image with
/// `lanes` encryption lanes.
fn write_1m_mibs(budget: &Budget, lanes: usize) -> Result<f64, String> {
    let image_bytes = 16 << 20;
    let mut spec = RigSpec::memory(image_bytes, Some(EncryptionConfig::random_iv_object_end()));
    spec.lanes = lanes;
    let mut rig = Rig::build(&spec)?;
    let rig::Disk::Enc(disk) = &mut rig.disk else {
        return Err("encrypted rig expected".into());
    };
    let mut at = 0u64;
    let seconds = try_per_call(budget, || {
        let offset = at;
        at = (at + (1 << 20)) % image_bytes;
        disk.write_owned(offset, vec![0xA5u8; 1 << 20])
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    Ok(1.0 / seconds)
}

/// The other single-thread microbenchmarks.
///
/// # Errors
///
/// Any layer error.
pub fn micro(budget: &Budget, seed: u64) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();

    // The authenticated modes, off on these workloads; tracked for item B.
    let mut sector = vec![0x5Au8; SECTOR];
    let gcm = AesGcm::new(&[0x22; 32]).expect("32-byte key is AES-256-GCM");
    let gcm_enc = per_call(budget, || {
        black_box(gcm.encrypt(&[3u8; 12], &[], black_box(&mut sector)));
    });
    m.push(("crypto.gcm_enc_4k_mibs", sector_mibs(gcm_enc), "MiB/s"));
    let hmac = per_call(budget, || {
        black_box(hmac_sha256(&[4u8; 32], black_box(&sector)));
    });
    m.push(("crypto.hmac_4k_mibs", sector_mibs(hmac), "MiB/s"));

    let mut ivs = OsIvSource::new();
    let iv = per_call(budget, || {
        black_box(ivs.next_iv16());
    });
    m.push(("crypto.iv_draw_ns", iv * 1e9, "ns"));
    let kdf = per_call(budget, || {
        black_box(pbkdf2_hmac_sha256(
            PASSPHRASE,
            &[9u8; 32],
            DEFAULT_ITERATIONS,
            32,
        ));
    });
    m.push(("crypto.pbkdf2_ms", kdf * 1e3, "ms"));

    let striper = Striper::new(OBJECT_BYTES);
    let geometry = Geometry::new(OBJECT_BYTES, SECTOR as u64, 20);
    let mut rng = SeededRng::new(seed);
    let mut offset = || rng.gen_below(16384) * SECTOR as u64;
    let plan = per_call(budget, || {
        black_box(IoBatch::plan(
            striper,
            &geometry,
            black_box(offset()),
            SECTOR as u64,
        ));
    });
    m.push(("core.plan_4k_ns", plan * 1e9, "ns"));
    let map = per_call(budget, || {
        black_box(striper.map(black_box(offset()), SECTOR as u64));
    });
    m.push(("rbd.stripe_map_ns", map * 1e9, "ns"));

    // Format and open: one image each per sample on one cluster.
    let cluster = rig::build_cluster(BackendKind::Memory, None, true, LANES)?;
    let config = EncryptionConfig::random_iv_object_end();
    let format = per_sample(budget, |i| {
        let image =
            Image::create(&cluster, &format!("fmt-{i}"), 16 << 20).map_err(|e| e.to_string())?;
        let start = Instant::now();
        EncryptedImage::format(image, &config, PASSPHRASE).map_err(|e| e.to_string())?;
        Ok(start.elapsed())
    })?;
    m.push(("core.format_ms", format * 1e3, "ms"));
    let open = per_sample(budget, |i| {
        let image = Image::open(&cluster, &format!("fmt-{i}")).map_err(|e| e.to_string())?;
        let start = Instant::now();
        EncryptedImage::open(image, PASSPHRASE).map_err(|e| e.to_string())?;
        Ok(start.elapsed())
    })?;
    m.push(("core.open_ms", open * 1e3, "ms"));
    drop(cluster);

    // Large writes: the only place the encryption lanes run.
    let two = write_1m_mibs(budget, LANES)?;
    let one = write_1m_mibs(budget, 1)?;
    m.push(("core.write_1m_mibs", two, "MiB/s"));
    m.push(("core.lanes_speedup_1m", two / one, "x"));

    // The KV store under the OMAP layout.
    let mut kv = LsmStore::new(LsmConfig::default());
    let key = |i: u64| format!("sector.{i:012}").into_bytes();
    for i in 0..4096 {
        kv.put(key(i), vec![0xEE; 20]);
    }
    let mut i = 0u64;
    let put = per_call(budget, || {
        i = (i + 1) % 4096;
        black_box(kv.put(key(i), vec![0xEF; 20]));
    });
    let get = per_call(budget, || {
        i = (i + 1) % 4096;
        black_box(kv.get(&key(i)));
    });
    let range = per_call(budget, || {
        i = (i + 256) % 3840;
        black_box(kv.range(&key(i), &key(i + 256)));
    });
    m.push(("kv.put_us", put * 1e6, "us"));
    m.push(("kv.get_us", get * 1e6, "us"));
    m.push(("kv.range_256_us", range * 1e6, "us"));

    // Online rekey of a prefilled image, start to finish.
    let oracle = random_bytes(budget.rekey_image_bytes, seed);
    let spec = RigSpec::memory(budget.rekey_image_bytes, Some(config.clone()));
    let rekey = per_sample(budget, |i| {
        let mut rig = prefilled(&spec, &oracle)?;
        let rig::Disk::Enc(disk) = &mut rig.disk else {
            return Err("encrypted rig expected".into());
        };
        let start = Instant::now();
        let driver = disk
            .rekey_begin(PASSPHRASE, format!("next-{i}").as_bytes())
            .map_err(|e| e.to_string())?;
        driver
            .drive_to_completion(disk)
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed())
    })?;
    m.push((
        "core.rekey_mibs",
        budget.rekey_image_bytes as f64 / MIB / rekey,
        "MiB/s",
    ));

    // The store's apply path alone: 1 MiB transactions, no cipher.
    let cluster = rig::build_cluster(BackendKind::Memory, None, true, LANES)?;
    let mut n = 0u64;
    let apply = try_per_call(budget, || {
        n += 1;
        let mut tx = Transaction::new(format!("apply.{}", n % 8));
        tx.write((n / 8 % 4) << 20, vec![0x77u8; 1 << 20]);
        cluster
            .execute_batch(vec![tx])
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    m.push(("rados.apply_1m_mibs", 1.0 / apply, "MiB/s"));
    drop(cluster);

    // The durable commit behind `file-randwrite-16k`: one 16 KiB
    // write into a full 4 MiB object, 3 replicas, on the file store.
    let store = rig::StoreDir::new()?;
    let cluster = rig::build_cluster(
        BackendKind::File {
            dir: store.path().to_path_buf(),
        },
        None,
        true,
        LANES,
    )?;
    let mut tx = Transaction::new("commit.0");
    tx.write(0, vec![0x33u8; OBJECT_BYTES as usize]);
    cluster.execute(tx).map_err(|e| e.to_string())?;
    let mut rng = SeededRng::new(seed);
    let commit = try_per_call(budget, || {
        let mut tx = Transaction::new("commit.0");
        tx.write(rng.gen_below(256) * 16384, vec![0x44u8; 16384]);
        cluster.execute(tx).map(drop).map_err(|e| e.to_string())
    })?;
    m.push(("rados.file.commit_16k_us", commit * 1e6, "us"));
    drop(cluster);
    drop(store);
    Ok(m)
}

/// The per-layer numbers that do not depend on a workload: the ladder
/// (its self times take the ciphers' speed from `xts`) and the
/// microbenchmarks.
///
/// # Errors
///
/// Any layer error or oracle mismatch.
pub fn workload_independent(budget: &Budget, seed: u64, xts: &Metrics) -> Result<Metrics, String> {
    let enc = value(xts, "crypto.xts_enc_4k_mibs");
    let dec = value(xts, "crypto.xts_dec_4k_mibs");
    let mut m = ladder(budget, seed, enc, dec)?;
    m.extend(micro(budget, seed)?);
    Ok(m)
}
