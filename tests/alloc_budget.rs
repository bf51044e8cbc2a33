//! Heap allocations per 4 KiB operation, pinned as a budget.
//!
//! Allocations per op are a host-independent cost: on a fixed op
//! sequence the count is exact and does not drift with the machine.
//! Each row runs `OPS` 4 KiB operations at seeded random sector-aligned
//! offsets over a fully written image, after `WARMUP` unmeasured ones,
//! and counts every allocation the process makes meanwhile, the shard
//! worker's included. Every cluster is pinned to the in-memory backend
//! with one shard served by one worker thread, whatever the host's core
//! count or `VDISK_BACKEND`, and the worker's FIFO is grown beforehand,
//! so no count depends on how far the submitter got ahead of it. A
//! `realloc` counts as one allocation of its new size. Every row is
//! measured twice, on fresh clusters, and the two counts must be
//! identical.
//!
//! The ceilings are per-op literals that only go down: a change that
//! lowers a count lowers its ceiling with it, and one that raises a
//! count fails here.
//!
//! The counting allocator below is this test binary's own; it changes
//! nothing for any other crate or test. All rows run inside the one
//! `#[test]`, so no other test's allocations reach the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vdisk::core::{EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk::crypto::rng::SeededIvSource;
use vdisk::rados::{BackendKind, Cluster};
use vdisk::rbd::{Image, IoOp, IoQueue, Queue, QueueBackend};

/// The system allocator, plus a count of the allocations it makes and
/// the bytes they request.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SECTOR: u64 = 4096;
/// Four 4 MiB objects.
const IMAGE_SIZE: u64 = 16 << 20;
const WARMUP: usize = 64;
const OPS: usize = 512;
/// Ops in flight per queued round; each round is reaped by a fence.
const QD: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Target {
    Raw,
    Encrypted(MetaLayout),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// One op at a time through `Image::{write_at, read_at}` or
    /// `EncryptedImage::{write, read}`.
    Call,
    /// `QD` ops in flight on one queue, reaped by a fence.
    Queued,
}

use Kind::{Read, Write};
use Via::{Call, Queued};

const RAW: Target = Target::Raw;
const OBJECT_END: Target = Target::Encrypted(MetaLayout::ObjectEnd);
const OMAP: Target = Target::Encrypted(MetaLayout::Omap);
const UNALIGNED: Target = Target::Encrypted(MetaLayout::Unaligned);

/// One budget row: what runs, and its ceilings per op.
struct Row {
    target: Target,
    kind: Kind,
    via: Via,
    allocs_per_op: u64,
    bytes_per_op: u64,
}

/// The budget. Lower a literal when a change lowers its count; never
/// raise one.
const BUDGET: [Row; 10] = [
    row(RAW, Write, Call, 16, 5_672),
    row(RAW, Read, Call, 16, 5_344),
    row(OBJECT_END, Write, Call, 21, 5_992),
    row(OBJECT_END, Read, Call, 19, 5_444),
    row(OMAP, Write, Call, 27, 6_144),
    row(OMAP, Read, Call, 19, 5_444),
    row(UNALIGNED, Write, Call, 20, 9_768),
    row(UNALIGNED, Read, Call, 19, 5_464),
    row(OBJECT_END, Write, Queued, 20, 2_210),
    row(OBJECT_END, Read, Queued, 21, 9_871),
];

const fn row(target: Target, kind: Kind, via: Via, allocs_per_op: u64, bytes_per_op: u64) -> Row {
    Row {
        target,
        kind,
        via,
        allocs_per_op,
        bytes_per_op,
    }
}

/// Allocations and requested bytes over one row's measured ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Count {
    allocs: u64,
    bytes: u64,
}

/// Counts what `work` allocates.
fn counted(work: impl FnOnce()) -> Count {
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    work();
    Count {
        allocs: ALLOCS.load(Ordering::SeqCst) - allocs,
        bytes: BYTES.load(Ordering::SeqCst) - bytes,
    }
}

/// `n` 4 KiB ops of `kind` at sector-aligned offsets from a fixed
/// xorshift sequence. Write payloads are allocated here, before any
/// count starts, so the caller's buffers are not charged to the stack.
fn ops(kind: Kind, n: usize) -> Vec<IoOp> {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let offset = (x % (IMAGE_SIZE / SECTOR)) * SECTOR;
            match kind {
                Kind::Write => IoOp::Write {
                    offset,
                    data: vec![0x3C; SECTOR as usize],
                },
                Kind::Read => IoOp::Read {
                    offset,
                    len: SECTOR,
                },
            }
        })
        .collect()
}

/// Runs a row's `WARMUP` ops and then its `OPS` counted ones on a
/// fresh, fully written image.
fn measure(row: &Row) -> Count {
    let cluster = Cluster::builder()
        .backend(BackendKind::Memory)
        .concurrent_apply(true)
        .shard_count(1)
        .build();
    assert_eq!(cluster.worker_threads(), 1);
    let image = Image::create(&cluster, "budget", IMAGE_SIZE).unwrap();
    deepen_worker_fifos(&cluster, &image);
    let fill = vec![0xA5; 1 << 20];
    let mut warm = ops(row.kind, WARMUP + OPS);
    let counted_ops = warm.split_off(WARMUP);
    match row.target {
        Target::Raw => {
            for offset in (0..IMAGE_SIZE).step_by(fill.len()) {
                image.write_at(offset, &fill).unwrap();
            }
            let mut disk = &image;
            run(&mut disk, row.via, warm);
            counted(|| run(&mut disk, row.via, counted_ops))
        }
        Target::Encrypted(layout) => {
            let mut disk = EncryptedImage::format_with_iv_source(
                image,
                &EncryptionConfig::random_iv(layout),
                b"budget",
                Box::new(SeededIvSource::new(7)),
            )
            .unwrap();
            for offset in (0..IMAGE_SIZE).step_by(fill.len()) {
                disk.write(offset, &fill).unwrap();
            }
            let mut disk = &mut disk;
            run(&mut disk, row.via, warm);
            counted(|| run(&mut disk, row.via, counted_ops))
        }
    }
}

/// Grows every worker's job FIFO past anything `QD` ops can fill.
///
/// A FIFO grows the first time the submitter gets that far ahead of
/// its worker, which depends on scheduling: if that first happened
/// while counting, the count would measure the host's load, not the
/// op. So `DEEP` reads of the image's objects are queued while every
/// shard is held, and only then released.
fn deepen_worker_fifos(cluster: &Cluster, image: &Image) {
    const DEEP: usize = 256;
    let holds: Vec<_> = (0..cluster.shard_count())
        .map(|shard| cluster.hold_shard(shard))
        .collect();
    let mut queue = IoQueue::new(image);
    for op in ops(Kind::Read, DEEP) {
        queue.submit(op).unwrap();
    }
    drop(holds);
    queue.fence().unwrap();
}

fn run(disk: &mut impl Disk, via: Via, ops: Vec<IoOp>) {
    match via {
        Call => ops.into_iter().for_each(|op| disk.sync(op)),
        Queued => disk.queued(ops),
    }
}

/// The two images a row drives.
trait Disk {
    /// Runs one op through the synchronous calls.
    fn sync(&mut self, op: IoOp);
    /// Runs `ops` on one queue, fencing after every `QD` of them.
    fn queued(&mut self, ops: Vec<IoOp>);
}

impl Disk for &Image {
    fn sync(&mut self, op: IoOp) {
        let mut buf = [0; SECTOR as usize];
        match op {
            IoOp::Write { offset, data } => self.write_at(offset, &data).map(drop),
            IoOp::Read { offset, .. } => self.read_at(offset, &mut buf).map(drop),
            _ => panic!("the budget runs single writes and reads"),
        }
        .unwrap();
    }

    fn queued(&mut self, ops: Vec<IoOp>) {
        fenced(IoQueue::new(self), ops);
    }
}

impl Disk for &mut EncryptedImage {
    fn sync(&mut self, op: IoOp) {
        let mut buf = [0; SECTOR as usize];
        match op {
            IoOp::Write { offset, data } => self.write(offset, &data).map(drop),
            IoOp::Read { offset, .. } => self.read(offset, &mut buf).map(drop),
            _ => panic!("the budget runs single writes and reads"),
        }
        .unwrap();
    }

    fn queued(&mut self, ops: Vec<IoOp>) {
        fenced(self.io_queue(), ops);
    }
}

fn fenced<B: QueueBackend>(mut queue: Queue<B>, ops: Vec<IoOp>)
where
    B::Error: std::fmt::Debug,
{
    for (i, op) in ops.into_iter().enumerate() {
        queue.submit(op).unwrap();
        if (i + 1) % QD == 0 {
            queue.fence().unwrap();
        }
    }
    queue.fence().unwrap();
}

#[test]
fn four_kib_ops_stay_within_their_allocation_budget() {
    let mut over = Vec::new();
    for row in &BUDGET {
        let name = format!("{:?} {:?} {:?}", row.target, row.via, row.kind);
        let first = measure(row);
        let second = measure(row);
        assert_eq!(
            first, second,
            "{name}: two runs of the same ops allocated differently"
        );
        println!(
            "{name:<36} {:>6.2} allocs/op {:>8.1} B/op",
            first.allocs as f64 / OPS as f64,
            first.bytes as f64 / OPS as f64
        );
        if first.allocs > row.allocs_per_op * OPS as u64
            || first.bytes > row.bytes_per_op * OPS as u64
        {
            over.push(format!(
                "{name}: {} allocs, {} B over {OPS} ops; ceiling {} allocs, {} B per op",
                first.allocs, first.bytes, row.allocs_per_op, row.bytes_per_op
            ));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}
