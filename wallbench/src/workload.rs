//! The workloads, the plaintext oracle, and the one closed loop that
//! drives every queue: one client thread, a fixed queue depth, the
//! next op submitted only when a slot frees (callers of a virtual
//! disk each wait for their reply, so a closed loop is the honest
//! model).

use crate::host::{self, IoCounters};
use crate::rig::{Disk, Queue, Rig, RigSpec, OBJECT_BYTES};
use crate::stats::{median, percentile_sorted, samples_beyond};
use crate::trace::{NoTrace, Recorder, Span, Tracer};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vdisk_core::EncryptionConfig;
use vdisk_crypto::rng::SeededRng;
use vdisk_rados::{ExecStats, Transaction};
use vdisk_rbd::{IoOp, IoPayload};

const MIB: f64 = (1 << 20) as f64;

/// One workload: a traffic shape and the rig it runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name the command line and `BENCHMARK.json` use.
    pub name: &'static str,
    /// Why the workload is in the set.
    pub why: &'static str,
    /// Bytes per op.
    pub io_bytes: u64,
    /// Ops kept in flight.
    pub qd: usize,
    /// Share of reads, in percent.
    pub read_pct: u64,
    /// Encrypted (`random_iv_object_end`) or a raw `IoQueue`.
    pub encrypted: bool,
    /// `FileStore` under `wallbench/out/` or `MemStore`.
    pub file_backend: bool,
    /// Size the metadata cache to a quarter of the image's sectors,
    /// so the working set is four times the cache.
    pub quarter_cache: bool,
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Ops through the timed path before timing starts. A count, not
    /// a duration, so set-up time is seconds of program work and any
    /// work a change moves into set-up lands on top of it.
    pub warmup_ops: u64,
}

/// The four workloads. Names are final.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "enc-randwrite-4k",
        why: "4 KiB random encrypted overwrites at QD 32 in memory: the paper's worst case for per-sector metadata; encrypt on the submit thread bounds it",
        io_bytes: 4096,
        qd: 32,
        read_pct: 0,
        encrypted: true,
        file_backend: false,
        quarter_cache: false,
        image_bytes: 64 << 20,
        warmup_ops: 16384,
    },
    Workload {
        name: "enc-randread-4k",
        why: "4 KiB random encrypted reads at QD 32 with the IV cache a quarter of the working set: decrypt at reap plus the separate metadata fetch on 3 of 4 reads",
        io_bytes: 4096,
        qd: 32,
        read_pct: 100,
        encrypted: true,
        file_backend: false,
        quarter_cache: true,
        image_bytes: 64 << 20,
        warmup_ops: 16384,
    },
    Workload {
        name: "raw-randrw-4k",
        why: "4 KiB random 70/30 read/write on the raw image queue, no cipher: striping, shard hand-off, apply and reap do all the work; the control cipher changes must not move",
        io_bytes: 4096,
        qd: 32,
        read_pct: 70,
        encrypted: false,
        file_backend: false,
        quarter_cache: false,
        image_bytes: 64 << 20,
        warmup_ops: 262_144,
    },
    Workload {
        name: "file-randwrite-16k",
        why: "16 KiB random encrypted overwrites at QD 8 on the durable file backend, then reopen from disk and read back: whole-object rewrite plus fsyncs dominate",
        io_bytes: 16384,
        qd: 8,
        read_pct: 0,
        encrypted: true,
        file_backend: true,
        quarter_cache: false,
        image_bytes: 32 << 20,
        warmup_ops: 128,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of everything a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Images are no larger than this.
    pub image_cap: u64,
    /// Measured windows per run, after the discarded window 0.
    pub windows: usize,
    /// Length of each window's timed segment.
    pub window_seconds: f64,
    /// A timed segment also runs until it has submitted this many
    /// ops, however slow the host: 200 put ten samples beyond the
    /// window's p95.
    pub window_min_ops: u64,
    /// Warm-up counts are divided by this (1 for a real run).
    pub warmup_div: u64,
}

/// Measured windows of a real run.
pub const WINDOWS: usize = 6;
/// Seconds a real run measures in all (`run_seconds` in
/// `BENCHMARK.json`): six timed segments of two and a half seconds.
pub const RUN_SECONDS: f64 = 15.0;
/// Timed ops every window of a real run holds at the least, so that
/// ten lie beyond its p95.
pub const WINDOW_MIN_OPS: u64 = 200;

impl Scale {
    /// A real run measuring for `seconds` in total, split evenly over
    /// the windows.
    #[must_use]
    pub fn full(seconds: f64) -> Scale {
        Scale {
            image_cap: u64::MAX,
            windows: WINDOWS,
            window_seconds: seconds / WINDOWS as f64,
            window_min_ops: WINDOW_MIN_OPS,
            warmup_div: 1,
        }
    }

    /// The integration test's pass: one window of half a second on an
    /// 8 MiB image.
    #[must_use]
    pub fn smoke() -> Scale {
        Scale {
            image_cap: 8 << 20,
            windows: 1,
            window_seconds: 0.5,
            window_min_ops: 0,
            warmup_div: 64,
        }
    }

    /// Window 0 runs the whole window at smoke size and is thrown
    /// away: it takes the process's first-use costs (thread spawn,
    /// allocator growth, the entropy device, cold code) out of
    /// window 1 for half a second instead of a full window's five.
    #[must_use]
    pub fn discarded(&self) -> Scale {
        let smoke = Scale::smoke();
        Scale {
            image_cap: self.image_cap.min(smoke.image_cap),
            windows: self.windows,
            window_seconds: self.window_seconds.min(smoke.window_seconds / 2.0),
            window_min_ops: smoke.window_min_ops,
            warmup_div: self.warmup_div.max(smoke.warmup_div),
        }
    }
}

impl Workload {
    /// The image size at `scale`.
    #[must_use]
    pub fn image_bytes(&self, scale: &Scale) -> u64 {
        self.image_bytes.min(scale.image_cap)
    }

    /// The rig this workload runs on at `scale`.
    #[must_use]
    pub fn rig_spec(&self, scale: &Scale) -> RigSpec {
        let image_bytes = self.image_bytes(scale);
        let encryption = self.encrypted.then(EncryptionConfig::random_iv_object_end);
        let meta_cache_bytes = match (&encryption, self.quarter_cache) {
            (Some(config), true) => {
                let sectors = image_bytes / u64::from(config.sector_size);
                Some(sectors / 4 * u64::from(config.meta_entry_len()))
            }
            _ => None,
        };
        RigSpec {
            meta_cache_bytes,
            file_backend: self.file_backend,
            ..RigSpec::memory(image_bytes, encryption)
        }
    }
}

/// Draws the op stream. A slot is one `io_bytes`-aligned block of the
/// image; the generator never keeps two ops in flight on one slot, so
/// a read's expected bytes are the oracle's at reap.
pub struct Generator {
    rng: SeededRng,
    io_bytes: u64,
    read_pct: u64,
    busy: Vec<bool>,
}

impl Generator {
    /// A generator over an image of `image_bytes`.
    #[must_use]
    pub fn new(rng: SeededRng, image_bytes: u64, io_bytes: u64, read_pct: u64) -> Generator {
        Generator {
            rng,
            io_bytes,
            read_pct,
            busy: vec![false; (image_bytes / io_bytes) as usize],
        }
    }

    /// The next op. A write's payload is drawn here and recorded in
    /// the oracle at once: nothing else is in flight on its slot.
    fn next(&mut self, oracle: &mut [u8]) -> (usize, IoOp) {
        let slot = loop {
            let slot = self.rng.gen_below(self.busy.len() as u64) as usize;
            if !self.busy[slot] {
                break slot;
            }
        };
        self.busy[slot] = true;
        let offset = slot as u64 * self.io_bytes;
        let read =
            self.read_pct == 100 || (self.read_pct > 0 && self.rng.gen_below(100) < self.read_pct);
        if read {
            return (
                slot,
                IoOp::Read {
                    offset,
                    len: self.io_bytes,
                },
            );
        }
        let mut data = vec![0u8; self.io_bytes as usize];
        self.rng.fill_bytes(&mut data);
        oracle[offset as usize..][..data.len()].copy_from_slice(&data);
        (slot, IoOp::Write { offset, data })
    }
}

/// When a segment stops submitting: after `ops` ops or `time`,
/// whichever comes first, but not before `at_least` ops. Everything
/// in flight is then reaped.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    /// Stop after this many ops.
    pub ops: Option<u64>,
    /// Stop after this long.
    pub time: Option<Duration>,
    /// Keep going until this many ops were submitted.
    pub at_least: u64,
}

impl Until {
    /// A fixed count of ops.
    #[must_use]
    pub fn ops(n: u64) -> Until {
        Until {
            ops: Some(n),
            time: None,
            at_least: 0,
        }
    }

    /// A fixed time, stretched until `at_least` ops were submitted.
    #[must_use]
    pub fn seconds(s: f64, at_least: u64) -> Until {
        Until {
            ops: None,
            time: Some(Duration::from_secs_f64(s)),
            at_least,
        }
    }
}

/// The latency percentiles of a segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// Samples.
    pub samples: usize,
    /// Samples beyond the 95th percentile.
    pub beyond_p95: usize,
}

impl Latency {
    /// Percentiles of per-op latencies in microseconds.
    fn of(mut lat_us: Vec<f64>) -> Latency {
        lat_us.sort_by(f64::total_cmp);
        Latency {
            p50_us: percentile_sorted(&lat_us, 0.50),
            p95_us: percentile_sorted(&lat_us, 0.95),
            samples: lat_us.len(),
            beyond_p95: samples_beyond(lat_us.len(), 0.95),
        }
    }
}

/// What one segment of the closed loop did.
#[derive(Debug, Default)]
pub struct Segment {
    /// First submit to last reap.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the segment.
    pub cpu_s: f64,
    /// Ops acknowledged.
    pub ops: u64,
    /// Of those, writes.
    pub writes: u64,
    /// Payload bytes acknowledged.
    pub bytes: u64,
    /// Submit-to-reap latency over every op.
    pub lat: Latency,
    /// Reads whose payload differed from the oracle.
    pub mismatches: u64,
    /// Sum of the per-op `ExecStats` deltas the completions carried.
    pub stats: ExecStats,
    /// Parks of the queue's reaper.
    pub idle_passes: u64,
    /// Bytes this process passed to write syscalls.
    pub wchar: u64,
    /// Write syscalls this process made.
    pub syscw: u64,
}

struct Inflight {
    slot: usize,
    read: bool,
    at: Instant,
}

/// Runs one closed-loop segment at queue depth `qd` and checks every
/// read against the oracle.
///
/// # Errors
///
/// The first failed submit or reap: a failed or refused op fails the
/// run.
pub fn drive<R: Recorder>(
    q: &mut dyn Queue,
    gen: &mut Generator,
    oracle: &mut [u8],
    qd: usize,
    until: Until,
    rec: &mut R,
) -> Result<Segment, String> {
    let mut seg = Segment::default();
    let mut inflight: HashMap<u64, Inflight> = HashMap::with_capacity(qd * 2);
    let mut lat_us = Vec::new();
    let io0 = IoCounters::now();
    let idle0 = q.idle_passes();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    rec.open_segment(start);
    let mut submitted = 0u64;
    loop {
        let open = submitted < until.at_least
            || (until.ops.is_none_or(|n| submitted < n)
                && until.time.is_none_or(|t| start.elapsed() < t));
        if !open && inflight.is_empty() {
            break;
        }
        while open
            && inflight.len() < qd
            && (submitted < until.at_least || until.ops.is_none_or(|n| submitted < n))
        {
            let (slot, op) = gen.next(oracle);
            let read = matches!(op, IoOp::Read { .. });
            let at = Instant::now();
            let id = q.submit(op)?.id();
            if R::ON {
                rec.span("submit", at, Instant::now(), Some(id));
            }
            inflight.insert(id, Inflight { slot, read, at });
            submitted += 1;
        }
        let waiting = R::ON.then(Instant::now);
        let done = q.wait_any()?;
        let now = Instant::now();
        if let Some(since) = waiting {
            rec.span("wait", since, now, None);
        }
        for result in done {
            let id = result.completion.id();
            let op = inflight
                .remove(&id)
                .ok_or_else(|| format!("completion {id} was never submitted"))?;
            lat_us.push((now - op.at).as_secs_f64() * 1e6);
            seg.stats.absorb(&result.stats);
            seg.ops += 1;
            seg.bytes += gen.io_bytes;
            gen.busy[op.slot] = false;
            if op.read {
                let checking = R::ON.then(Instant::now);
                let at = op.slot * gen.io_bytes as usize;
                let expected = &oracle[at..at + gen.io_bytes as usize];
                if !matches!(&result.payload, IoPayload::Data(d) if d == expected) {
                    seg.mismatches += 1;
                }
                if let Some(since) = checking {
                    rec.span("verify", since, Instant::now(), Some(id));
                }
            } else {
                seg.writes += 1;
            }
        }
    }
    let end = Instant::now();
    rec.close_segment(end);
    seg.lat = Latency::of(lat_us);
    seg.wall_s = (end - start).as_secs_f64();
    seg.cpu_s = host::cpu_seconds() - cpu0;
    seg.idle_passes = q.idle_passes() - idle0;
    let io1 = IoCounters::now();
    seg.wchar = io1.wchar - io0.wchar;
    seg.syscw = io1.syscw - io0.syscw;
    Ok(seg)
}

/// Writes the whole oracle to the disk in object-sized chunks.
///
/// # Errors
///
/// The first failed submit or reap.
pub fn prefill(q: &mut dyn Queue, oracle: &[u8]) -> Result<(), String> {
    for (i, chunk) in oracle.chunks(OBJECT_BYTES as usize).enumerate() {
        q.submit(IoOp::Write {
            offset: i as u64 * OBJECT_BYTES,
            data: chunk.to_vec(),
        })?;
        if i % 2 == 1 {
            q.fence()?;
        }
    }
    q.fence().map(drop)
}

/// Reads `ranges` back and counts those that differ from the oracle.
///
/// # Errors
///
/// The first failed submit or reap.
pub fn verify(
    q: &mut dyn Queue,
    oracle: &[u8],
    ranges: impl Iterator<Item = (u64, u64)>,
) -> Result<u64, String> {
    let mut mismatches = 0;
    let mut pending: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut check = |q: &mut dyn Queue, pending: &mut HashMap<u64, (u64, u64)>| {
        for result in q.fence()? {
            let (offset, len) = pending
                .remove(&result.completion.id())
                .ok_or("unknown completion in read-back")?;
            let expected = &oracle[offset as usize..(offset + len) as usize];
            if !matches!(&result.payload, IoPayload::Data(d) if d == expected) {
                mismatches += 1;
            }
        }
        Ok::<(), String>(())
    };
    for (offset, len) in ranges {
        let id = q.submit(IoOp::Read { offset, len })?.id();
        pending.insert(id, (offset, len));
        if pending.len() == 2 {
            check(q, &mut pending)?;
        }
    }
    check(q, &mut pending)?;
    Ok(mismatches)
}

/// Chunk of the whole-image read-back. Small, and read two at a
/// time, so the read-back's buffers stay below the rig's own peak and
/// `rss_peak_mib` is the program's footprint, not the checker's.
pub const READBACK_CHUNK: u64 = 256 << 10;

/// Every `chunk`-sized range of an image.
pub fn whole_image(image_bytes: u64, chunk: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..image_bytes / chunk).map(move |i| (i * chunk, chunk))
}

/// A deliberate fault, for the harness's own tests: each must turn
/// the run into a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Flip one byte of the oracle before the final read-back.
    OracleByte,
    /// Make the store lose a sector: overwrite its stored bytes with
    /// zeros underneath the image before the final read-back.
    LostSector,
}

/// What kind of window to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Window 0: run at smoke size and thrown away.
    Discarded,
    /// Tracing off: the end-to-end numbers.
    Plain,
    /// Tracing on, plus a QD 1 segment on the same rig.
    Traced,
}

/// What one window measured.
#[derive(Debug)]
pub struct Window {
    /// The kind it ran as.
    pub kind: WindowKind,
    /// Rig construction until the first timed op.
    pub setup_s: f64,
    /// The timed deep-queue segment.
    pub seg: Segment,
    /// The QD 1 segment (traced windows only).
    pub qd1: Option<Segment>,
    /// Ranges of the read-back that differed from the oracle.
    pub readback_mismatches: u64,
    /// Whether the read-back covered the whole image.
    pub readback_full: bool,
    /// Flush, drop, new cluster, open: the file workload's reopen.
    pub reopen_s: f64,
    /// Bytes stored across all replicas after the window.
    pub stored_bytes: u64,
    /// Bytes of the store's files on disk (0 on the memory backend).
    pub disk_bytes: u64,
    /// `VmHWM` when the window ended, restarted when it began.
    pub rss_peak_mib: f64,
    /// The cluster's counters and high-water marks when the timed
    /// segments ended.
    pub cluster_stats: ExecStats,
    /// The spans (traced windows only).
    pub spans: Vec<Span>,
}

impl Window {
    /// Payload MiB acknowledged per second of the timed segment.
    #[must_use]
    pub fn mibs(&self) -> f64 {
        self.seg.bytes as f64 / MIB / self.seg.wall_s
    }

    /// Process CPU milliseconds per payload MiB acknowledged.
    #[must_use]
    pub fn cpu_ms_per_mib(&self) -> f64 {
        self.seg.cpu_s * 1e3 / (self.seg.bytes as f64 / MIB)
    }

    /// Any byte that disagreed with the oracle.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.seg.mismatches
            + self.readback_mismatches
            + self.qd1.as_ref().map_or(0, |s| s.mismatches)
    }
}

fn window_rng(seed: u64, window: usize) -> SeededRng {
    SeededRng::new(seed.rotate_left(20) ^ window as u64)
}

/// Runs one window: fresh rig, prefill of every sector, fixed-count
/// warm-up, timed segment, read-back. The rig is dropped before this
/// returns, so the next window starts from nothing.
///
/// # Errors
///
/// Any failed op or layer error; the store directory is removed on
/// this path too.
pub fn run_window(
    w: &Workload,
    scale: &Scale,
    seed: u64,
    index: usize,
    kind: WindowKind,
    last: bool,
    sabotage: Option<Sabotage>,
) -> Result<Window, String> {
    // Each window reports its own peak: the previous rig is dropped
    // and its pages handed back, and the kernel's watermark restarts
    // here. The run's figure is the median of these, not the one
    // maximum over the run, which moved with how many whole-object
    // rewrites happened to overlap once.
    host::reset_rss_peak();
    let mut rng = window_rng(seed, index);
    let image_bytes = w.image_bytes(scale);
    let mut oracle = vec![0u8; image_bytes as usize];
    rng.fill_bytes(&mut oracle);

    let begun = Instant::now();
    let mut rig = Rig::build(&w.rig_spec(scale))?;
    rig.with_queue(|q| prefill(q, &oracle))?;
    // The file workload runs on a store it has just reopened, so
    // set-up also holds one reopen from disk.
    let reopening = Instant::now();
    rig = rig.reopen()?;
    let reopen_s = reopening.elapsed().as_secs_f64();
    let mut gen = Generator::new(rng, image_bytes, w.io_bytes, w.read_pct);
    let warmup = Until::ops((w.warmup_ops / scale.warmup_div).max(w.qd as u64));
    rig.with_queue(|q| drive(q, &mut gen, &mut oracle, w.qd, warmup, &mut NoTrace))?;
    let setup_s = begun.elapsed().as_secs_f64();

    let timed = Until::seconds(scale.window_seconds, scale.window_min_ops);
    let mut tracer = Tracer::default();
    let seg = rig.with_queue(|q| match kind {
        WindowKind::Traced => drive(q, &mut gen, &mut oracle, w.qd, timed, &mut tracer),
        _ => drive(q, &mut gen, &mut oracle, w.qd, timed, &mut NoTrace),
    })?;
    let qd1 = match kind {
        WindowKind::Traced => {
            let until = Until::seconds(scale.window_seconds / 4.0, 0);
            Some(rig.with_queue(|q| drive(q, &mut gen, &mut oracle, 1, until, &mut NoTrace))?)
        }
        _ => None,
    };

    let cluster_stats = rig.cluster.exec_stats();

    match sabotage.filter(|_| last) {
        Some(Sabotage::OracleByte) => oracle[image_bytes as usize / 2] ^= 0x01,
        Some(Sabotage::LostSector) => {
            let object = match &rig.disk {
                Disk::Raw(image) => image.object_name(0),
                Disk::Enc(disk) => disk.image().object_name(0),
            };
            let mut tx = Transaction::new(object);
            tx.write(0, vec![0u8; 4096]);
            rig.cluster.execute(tx).map_err(|e| e.to_string())?;
        }
        None => {}
    }

    // Durability is part of the number: every acknowledged write must
    // be readable by a new cluster from the directory alone.
    rig = rig.reopen()?;
    let readback_mismatches = if last {
        rig.with_queue(|q| verify(q, &oracle, whole_image(image_bytes, READBACK_CHUNK)))?
    } else {
        let slots = image_bytes / w.io_bytes;
        let sample: Vec<(u64, u64)> = (0..256)
            .map(|_| (gen.rng.gen_below(slots) * w.io_bytes, w.io_bytes))
            .collect();
        rig.with_queue(|q| verify(q, &oracle, sample.into_iter()))?
    };
    let stored_bytes = rig.stored_bytes();
    let disk_bytes = rig.store.as_ref().map_or(0, |_| stored_bytes);
    Ok(Window {
        kind,
        setup_s,
        seg,
        qd1,
        readback_mismatches,
        readback_full: last,
        reopen_s,
        stored_bytes,
        disk_bytes,
        rss_peak_mib: host::rss_peak_mib(),
        cluster_stats,
        spans: tracer.spans,
    })
}

/// A run: the windows of one workload at one seed.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub workload: &'static Workload,
    /// The scale it ran at.
    pub scale: Scale,
    /// The seed.
    pub seed: u64,
    /// The measured windows (window 0 is not kept).
    pub windows: Vec<Window>,
    /// Ops submitted, warm-up and read-back not counted.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// The error that stopped the run, if one did.
    pub error: Option<String>,
}

impl Run {
    /// Whether every byte agreed with the oracle and no op failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.error.is_none()
            && self.failed == 0
            && !self.windows.is_empty()
            && self.windows.iter().all(|w| w.mismatches() == 0)
    }

    /// The median over the windows of `kind` of a per-window value.
    #[must_use]
    pub fn median_of(&self, kind: WindowKind, f: impl Fn(&Window) -> f64) -> f64 {
        let values: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.kind == kind)
            .map(f)
            .collect();
        median(&values)
    }

    /// `space_amp`: bytes stored across all replicas after the last
    /// window per byte of image.
    #[must_use]
    pub fn space_amp(&self) -> f64 {
        self.windows.last().map_or(f64::NAN, |w| {
            w.stored_bytes as f64 / self.workload.image_bytes(&self.scale) as f64
        })
    }
}

/// Runs the windows in `kinds` (after the discarded window 0) and
/// gathers them. An error stops the run and is kept in it.
#[must_use]
pub fn run(
    w: &'static Workload,
    scale: Scale,
    seed: u64,
    kinds: &[WindowKind],
    sabotage: Option<Sabotage>,
) -> Run {
    let mut run = Run {
        workload: w,
        scale,
        seed,
        windows: Vec::with_capacity(kinds.len()),
        attempted: 0,
        failed: 0,
        error: None,
    };
    if w.file_backend {
        // The store's filesystem starts every run with nothing of the
        // previous run's left to write back.
        let _ = std::fs::create_dir_all(host::out_dir());
        host::sync_filesystem(&host::out_dir());
    }
    let all = std::iter::once(WindowKind::Discarded).chain(kinds.iter().copied());
    for (index, kind) in all.enumerate() {
        let scale = match kind {
            WindowKind::Discarded => scale.discarded(),
            _ => scale,
        };
        let outcome = run_window(w, &scale, seed, index, kind, index == kinds.len(), sabotage);
        host::release_freed_memory();
        match outcome {
            Ok(window) => {
                if kind != WindowKind::Discarded {
                    run.attempted += window.seg.ops + window.qd1.as_ref().map_or(0, |s| s.ops);
                    run.windows.push(window);
                }
            }
            Err(e) => {
                run.attempted += 1;
                run.failed += 1;
                run.error = Some(format!("window {index}: {e}"));
                break;
            }
        }
    }
    run
}
