//! The aio-style submission-queue IO API (librbd/io_uring-shaped).
//!
//! One engine, [`Queue`], generic over a small [`QueueBackend`] (put
//! an op in flight → pending state; finalize a completed pending state
//! → [`IoResult`]) and statically dispatched. This crate provides the
//! raw backend: an [`IoQueue`] is a `Queue` over the [`Image`] itself.
//! The encrypting backend lives in `vdisk-core`, whose
//! `EncryptedIoQueue` is the same engine over `&mut EncryptedImage`.
//!
//! A queue accepts **owned-buffer** operations: [`IoOp::Write`] hands
//! its `Vec<u8>` straight down the stack (each touched object's
//! transaction receives a slice view of the submitted allocation — no
//! request copy), [`IoOp::Read`] returns its payload in the
//! completion. Submissions return immediately with a [`Completion`]
//! token; results are reaped with [`Queue::poll`] (non-blocking),
//! [`Queue::wait`] / [`Queue::wait_any`] (block for at least one
//! completion) or [`Queue::fence`] (full barrier).
//!
//! Keeping many operations in flight is the point: the paper's
//! bandwidth argument (fio at queue depth 32, §3.3) depends on the
//! client overlapping IOs against the distributed store, and the
//! cluster's per-shard work queues let ops from different submissions
//! interleave on the shard workers.
//!
//! **Ordering**: operations touching the same object are applied in
//! submission order (per-shard FIFO, single consumer); operations on
//! disjoint objects may complete in any order. A
//! [`fence`](Queue::fence) orders everything before it against
//! everything after it.
//!
//! # Example
//!
//! ```
//! use vdisk_rados::Cluster;
//! use vdisk_rbd::{Image, IoOp, IoQueue};
//!
//! # fn main() -> Result<(), vdisk_rbd::RbdError> {
//! let cluster = Cluster::builder().build();
//! let image = Image::create(&cluster, "vm-aio", 64 << 20)?;
//! let mut queue = IoQueue::new(&image);
//!
//! queue.submit(IoOp::Write { offset: 0, data: b"hello".to_vec() })?;
//! let read = queue.submit(IoOp::Read { offset: 0, len: 5 })?;
//! let done = queue.fence()?; // barrier: both ops complete
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[1].completion, read);
//! assert_eq!(done[1].payload.data(), b"hello");
//! # Ok(())
//! # }
//! ```

use crate::image::Image;
use crate::striping::ObjectExtent;
use crate::{RbdError, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use vdisk_rados::{ApplyTicket, Doorbell, ExecStats, ReadTicket, Receipt};

/// One submitted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// Write an owned buffer at `offset` (zero-copy: transactions
    /// receive slice views of this allocation).
    Write {
        /// Byte offset within the image.
        offset: u64,
        /// The buffer to write; ownership moves into the submission.
        data: Vec<u8>,
    },
    /// Gather-write: the buffers are written back to back starting at
    /// `offset`, each handed down zero-copy.
    Writev {
        /// Byte offset within the image.
        offset: u64,
        /// Buffers written consecutively.
        buffers: Vec<Vec<u8>>,
    },
    /// Read `len` bytes at `offset`; the completion carries the
    /// payload.
    Read {
        /// Byte offset within the image.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Scatter-read: reads `lens.iter().sum()` contiguous bytes at
    /// `offset` and returns them as one segment per requested length.
    Readv {
        /// Byte offset within the image.
        offset: u64,
        /// Segment lengths, read consecutively.
        lens: Vec<u64>,
    },
}

/// Token identifying a submitted operation; returned again in its
/// [`IoResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completion(u64);

impl Completion {
    /// The submission's sequence number (monotonic per queue).
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }

    /// Builds a token from a sequence number — for wrappers that
    /// allot their own ids and rewrite the wrapped queue's tokens
    /// (`vdisk_core::TenantQueue`) and for test harnesses; tokens
    /// carry no authority.
    #[must_use]
    pub fn from_id(id: u64) -> Completion {
        Completion(id)
    }
}

/// Payload carried by a completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoPayload {
    /// Writes complete without payload.
    None,
    /// A [`IoOp::Read`]'s bytes.
    Data(Vec<u8>),
    /// A [`IoOp::Readv`]'s segments, one per requested length.
    Segments(Vec<Vec<u8>>),
}

impl IoPayload {
    /// Unwraps a read payload.
    ///
    /// # Panics
    ///
    /// Panics if the completion carries no single data payload.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        match self {
            IoPayload::Data(d) => d,
            // vdisk-lint: allow(hot-path-panic) reason="documented panicking accessor; callers match the payload kind to the op they submitted"
            other => panic!("expected data payload, got {other:?}"),
        }
    }

    /// Splits a completed contiguous read into one segment per
    /// requested length (a scatter read's payload); other payloads
    /// pass through.
    fn into_segments(self, lens: &[u64]) -> IoPayload {
        let IoPayload::Data(data) = self else {
            return self;
        };
        let mut segments = Vec::with_capacity(lens.len());
        let mut cursor = 0usize;
        for &len in lens {
            // vdisk-lint: allow(hot-path-index) reason="the engine read exactly lens.iter().sum() bytes for this op; a shorter payload is a backend bug"
            segments.push(data[cursor..cursor + len as usize].to_vec());
            cursor += len as usize;
        }
        IoPayload::Segments(segments)
    }

    /// Unwraps scatter-read segments.
    ///
    /// # Panics
    ///
    /// Panics if the completion carries no segments.
    #[must_use]
    pub fn segments(&self) -> &[Vec<u8>] {
        match self {
            IoPayload::Segments(s) => s,
            // vdisk-lint: allow(hot-path-panic) reason="documented panicking accessor; callers match the payload kind to the op they submitted"
            other => panic!("expected segments payload, got {other:?}"),
        }
    }
}

/// One reaped completion: the op's receipt, its payload (for reads),
/// and the exact [`ExecStats`] delta it contributed.
#[derive(Debug)]
pub struct IoResult {
    /// The token returned at submission.
    pub completion: Completion,
    /// The IO's receipt, the record the synchronous API returns. (The
    /// field keeps the name it had when completions carried priced
    /// plans; [`vdisk_rados::Testbed::plan_of`] prices it.)
    pub plan: Receipt,
    /// Read payload, if any.
    pub payload: IoPayload,
    /// Exact per-op operation counts (transactions, batches, read ops,
    /// this submission's shard fanout). Cluster-wide high-water marks
    /// are not per-op quantities and stay zero here.
    pub stats: ExecStats,
}

/// Per-op pending state of a [`QueueBackend`]: at submission the
/// engine subscribes the op's completion signal to the queue's
/// [`Doorbell`], so the shard worker that lands its last part rings
/// the reaper.
pub trait PendingOp {
    /// Subscribes the op's completion signal to `bell`.
    fn subscribe(&self, bell: &Arc<Doorbell>);

    /// True once every part of the op has landed: `finalize` will not
    /// block. Completion is one bit — there is no partial progress to
    /// act on.
    fn is_complete(&self) -> bool;
}

/// What a [`Queue`] drives: how one op is put in flight and how its
/// completed pending state becomes an [`IoResult`]. Everything else —
/// completion ids, the reap surface, parking, error retention, scatter
/// reads — is the engine's. Two backends exist: [`Image`] (the raw
/// [`IoQueue`]) and `&mut EncryptedImage` in `vdisk-core` (its
/// `EncryptedIoQueue`).
pub trait QueueBackend {
    /// What the backend keeps per op between submit and reap.
    type Pending: PendingOp;
    /// The backend's error type.
    type Error: From<RbdError>;

    /// Name of the image behind the queue (for `Debug`).
    fn name(&self) -> &str;

    /// Size in bytes of the image behind the queue.
    fn size(&self) -> u64;

    /// Puts an owned-buffer write in flight.
    ///
    /// # Errors
    ///
    /// Out-of-bounds and other synchronous submit errors; nothing is
    /// in flight then.
    fn queue_write(
        &mut self,
        offset: u64,
        data: Vec<u8>,
    ) -> std::result::Result<Self::Pending, Self::Error>;

    /// Puts a gather-write in flight: `buffers` back to back at
    /// `offset`.
    ///
    /// # Errors
    ///
    /// As [`QueueBackend::queue_write`].
    fn queue_writev(
        &mut self,
        offset: u64,
        buffers: Vec<Vec<u8>>,
    ) -> std::result::Result<Self::Pending, Self::Error>;

    /// Puts a contiguous read in flight. Scatter reads arrive here as
    /// one read of their total length; the engine splits the payload.
    ///
    /// # Errors
    ///
    /// As [`QueueBackend::queue_write`].
    fn queue_read(
        &mut self,
        offset: u64,
        len: u64,
    ) -> std::result::Result<Self::Pending, Self::Error>;

    /// Turns a completed pending state into its result; all of an
    /// op's client-side completion work (assembly, decryption) happens
    /// here. A read returns [`IoPayload::Data`].
    ///
    /// # Errors
    ///
    /// Store or decryption errors of the completed op, which is
    /// consumed with them.
    fn finalize(
        &self,
        completion: Completion,
        pending: Self::Pending,
    ) -> std::result::Result<IoResult, Self::Error>;
}

/// One op in flight: its completion id, the backend's pending state,
/// and — for a scatter read — the segment lengths to split the payload
/// into at reap.
struct InFlight<P> {
    id: u64,
    state: P,
    split: Option<Vec<u64>>,
}

/// The aio-style submission queue: owned buffers, many IOs in flight,
/// completions reaped by `poll`/`wait`/`wait_any`/`fence`. One engine,
/// statically dispatched over its [`QueueBackend`]: completion-id
/// allotment, scatter-read lowering, the reap walk order, the parked
/// (zero-spin) blocking protocol, and the error-retention rule (a
/// failed finalize consumes exactly one op; completions already
/// finalized stay staged and are delivered by the next reap call) live
/// here and nowhere else.
///
/// **Completion model**: every submitted op subscribes the queue's
/// [`Doorbell`] (see [`PendingOp`]); shard workers ring it once per
/// submission, when its last part lands. A reap walks the pending ops
/// and finalizes those that are complete. A blocking reap snapshots
/// the bell's generation before it walks and, if nothing was complete,
/// parks in [`Doorbell::wait_past`]. Rings after the snapshot bump the
/// generation, so completions can never be slept through, and an idle
/// wait burns no CPU.
pub struct Queue<B: QueueBackend> {
    backend: B,
    pending: VecDeque<InFlight<B::Pending>>,
    /// Finalized results not yet delivered (see the error-retention
    /// rule above).
    completed: Vec<IoResult>,
    next_id: u64,
    /// Every pending op is subscribed at submit time, and shard
    /// workers ring it as each submission completes.
    bell: Arc<Doorbell>,
    /// Times a blocking reap found nothing finished and parked — the
    /// observable proof that waiting is event-driven, not a spin (a
    /// busy-wait implementation would count thousands of passes per
    /// delayed completion; parking counts one per wakeup).
    idle_passes: u64,
    /// Completion ids of ops consumed by a reap error and not yet
    /// collected via [`Queue::take_failed`].
    failed: Vec<u64>,
}

/// The raw queue: a [`Queue`] whose backend is the [`Image`] itself.
pub type IoQueue = Queue<Image>;

impl Queue<Image> {
    /// Opens a queue over `image` (cheap: the image handle is shared).
    #[must_use]
    pub fn new(image: &Image) -> IoQueue {
        Queue::over(image.clone())
    }
}

impl<B: QueueBackend> Queue<B> {
    /// Opens a queue over `backend`.
    #[must_use]
    pub fn over(backend: B) -> Queue<B> {
        Queue {
            backend,
            pending: VecDeque::new(),
            completed: Vec::new(),
            next_id: 0,
            bell: Doorbell::new(),
            idle_passes: 0,
            failed: Vec::new(),
        }
    }

    /// What this queue drives (the [`Image`] of an [`IoQueue`]).
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Operations submitted and not yet reaped.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// How many times a blocking reap (`wait`/`wait_any`/`fence`)
    /// parked on the queue's doorbell because nothing had finished
    /// yet. One count per park-and-wakeup — never per loop iteration —
    /// so it stays ~0 unless completions are genuinely outpaced, even
    /// while a wait blocks for a long time.
    #[must_use]
    pub fn idle_passes(&self) -> u64 {
        self.idle_passes
    }

    /// The queue's completion doorbell. Shard workers ring it as
    /// submissions complete; runtimes layered above (the multi-tenant
    /// arbiter in `vdisk-core`) ring it to wake a reaper parked here
    /// when a scheduling decision — not a completion — changes what
    /// the owning thread should do next.
    #[must_use]
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.bell)
    }

    /// Drains the completion ids of operations consumed by reap errors
    /// since the last call (each failed reap consumes exactly one op).
    /// Runtimes that account per-op budget use this to refund exactly
    /// the ops that died.
    pub fn take_failed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.failed)
    }

    /// Submits one operation; returns its completion token
    /// immediately, with the work in flight on the shard queues.
    ///
    /// # Errors
    ///
    /// [`RbdError::OutOfBounds`] (in the backend's error type) if the
    /// op exceeds the image — including a scatter read whose lengths
    /// overflow `u64` — plus the backend's own submit errors; nothing
    /// stays queued then.
    pub fn submit(&mut self, op: IoOp) -> std::result::Result<Completion, B::Error> {
        let (state, split) = match op {
            IoOp::Write { offset, data } => (self.backend.queue_write(offset, data)?, None),
            IoOp::Writev { offset, buffers } => (self.backend.queue_writev(offset, buffers)?, None),
            IoOp::Read { offset, len } => (self.backend.queue_read(offset, len)?, None),
            IoOp::Readv { offset, lens } => {
                // A sum past u64 exceeds any image: report it the way
                // an overflowing end offset is.
                let len = lens
                    .iter()
                    .try_fold(0u64, |sum, &len| sum.checked_add(len))
                    .ok_or(RbdError::OutOfBounds {
                        offset: u64::MAX,
                        size: self.backend.size(),
                    })?;
                (self.backend.queue_read(offset, len)?, Some(lens))
            }
        };
        state.subscribe(&self.bell);
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back(InFlight { id, state, split });
        Ok(Completion(id))
    }

    /// Reaps every already-finished operation without blocking, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Propagates the first finalize error (store errors, and for an
    /// encrypting backend decryption errors, of a completed op). The
    /// failed op is consumed with the error; completions already
    /// finalized (in this pass or an earlier failed one) are retained
    /// and delivered by the next reap call.
    pub fn poll(&mut self) -> std::result::Result<Vec<IoResult>, B::Error> {
        self.walk()?;
        Ok(std::mem::take(&mut self.completed))
    }

    /// Blocks until at least one operation completes (the oldest
    /// outstanding one), then reaps everything finished. Returns an
    /// empty vector when nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`Queue::poll`].
    pub fn wait(&mut self) -> std::result::Result<Vec<IoResult>, B::Error> {
        self.park_until_front_completes();
        self.poll()
    }

    /// Blocks until **any** in-flight operation has completed — the
    /// first available one, not the oldest — then reaps everything
    /// finished. Where [`Queue::wait`] parks on the head of the FIFO
    /// (head-of-line blocking when a slow op leads faster ones), this
    /// reaps completions out of submission order as soon as they land
    /// — the primitive a pipelined driver needs to keep its window
    /// full at high queue depth. Returns an empty vector when nothing
    /// is in flight.
    ///
    /// **One walk per doorbell generation**: `finalize` does real work
    /// (an encrypted read decrypts there), so ops can land while a walk
    /// is busy. Returning without them would leave each waiting a whole
    /// extra driver cycle; re-walking unconditionally would take every
    /// pending op's completion lock again for nothing. So the walk
    /// repeats exactly when the bell rang during a walk that finalized
    /// something.
    ///
    /// # Errors
    ///
    /// As [`Queue::poll`].
    pub fn wait_any(&mut self) -> std::result::Result<Vec<IoResult>, B::Error> {
        while !self.pending.is_empty() {
            let seen = self.bell.generation();
            let finalized = self.walk()?;
            if finalized > 0 && self.bell.generation() != seen {
                continue;
            }
            if !self.completed.is_empty() {
                break;
            }
            self.idle_passes += 1;
            self.bell.wait_past(seen);
        }
        Ok(std::mem::take(&mut self.completed))
    }

    /// Full barrier: blocks (parking, never spinning) until **every**
    /// submitted operation has completed and returns their results in
    /// submission order. Everything submitted afterwards is ordered
    /// after everything reaped here.
    ///
    /// # Errors
    ///
    /// As [`Queue::poll`].
    pub fn fence(&mut self) -> std::result::Result<Vec<IoResult>, B::Error> {
        loop {
            self.park_until_front_completes();
            let Some(op) = self.pending.pop_front() else {
                return Ok(std::mem::take(&mut self.completed));
            };
            self.finalize_one(op)?;
        }
    }

    /// One pass over the pending ops in submission order, finalizing
    /// (and staging) each one that is complete. Returns how many it
    /// finalized.
    fn walk(&mut self) -> std::result::Result<usize, B::Error> {
        let mut finalized = 0;
        let mut i = 0;
        while let Some(op) = self.pending.get(i) {
            if !op.state.is_complete() {
                i += 1;
                continue;
            }
            let Some(op) = self.pending.remove(i) else {
                break;
            };
            self.finalize_one(op)?;
            finalized += 1;
        }
        Ok(finalized)
    }

    /// Finalizes one op removed from `pending`: its result is staged
    /// (a scatter read's payload split into its segments first), or
    /// its id recorded as failed and the error propagated.
    fn finalize_one(&mut self, op: InFlight<B::Pending>) -> std::result::Result<(), B::Error> {
        match self.backend.finalize(Completion(op.id), op.state) {
            Ok(mut result) => {
                if let Some(lens) = op.split {
                    result.payload = result.payload.into_segments(&lens);
                }
                self.completed.push(result);
                Ok(())
            }
            Err(e) => {
                self.failed.push(op.id);
                Err(e)
            }
        }
    }

    /// The parked blocking protocol on the FIFO head: snapshot the
    /// bell, check the head, park past the snapshot if it is still in
    /// flight. Returns at once when idle.
    fn park_until_front_completes(&mut self) {
        loop {
            let seen = self.bell.generation();
            match self.pending.front() {
                Some(op) if !op.state.is_complete() => {
                    self.idle_passes += 1;
                    self.bell.wait_past(seen);
                }
                _ => return,
            }
        }
    }
}

impl<B: QueueBackend> std::fmt::Debug for Queue<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Queue({}, {} in flight)",
            self.backend.name(),
            self.pending.len()
        )
    }
}

/// Pending state of the raw backend.
pub enum ImagePending {
    /// A write's batch ticket.
    Write(ApplyTicket),
    /// A read's ticket, with what reassembling its payload needs.
    Read {
        /// The vectored read's ticket.
        ticket: ReadTicket,
        /// Where each object extent lands in the payload.
        extents: Vec<ObjectExtent>,
        /// Payload length.
        len: u64,
    },
}

impl PendingOp for ImagePending {
    fn subscribe(&self, bell: &Arc<Doorbell>) {
        match self {
            ImagePending::Write(ticket) => ticket.subscribe(bell),
            ImagePending::Read { ticket, .. } => ticket.subscribe(bell),
        }
    }

    fn is_complete(&self) -> bool {
        match self {
            ImagePending::Write(ticket) => ticket.is_complete(),
            ImagePending::Read { ticket, .. } => ticket.is_complete(),
        }
    }
}

/// The raw backend: striping, shard hand-off and reassembly, no
/// cipher.
impl QueueBackend for Image {
    type Pending = ImagePending;
    type Error = RbdError;

    fn name(&self) -> &str {
        Image::name(self)
    }

    fn size(&self) -> u64 {
        Image::size(self)
    }

    fn queue_write(&mut self, offset: u64, data: Vec<u8>) -> Result<ImagePending> {
        Ok(ImagePending::Write(self.submit_write(offset, data)?))
    }

    /// One batch whose transactions view slices of every source
    /// buffer in place — an object spanning two buffers gets two write
    /// ops in its (single, atomic) transaction.
    fn queue_writev(&mut self, offset: u64, buffers: Vec<Vec<u8>>) -> Result<ImagePending> {
        let txs = self.write_txs(offset, buffers)?;
        Ok(ImagePending::Write(self.cluster().submit_batch(txs)?))
    }

    fn queue_read(&mut self, offset: u64, len: u64) -> Result<ImagePending> {
        let (ticket, extents) = self.submit_read(None, offset, len)?;
        Ok(ImagePending::Read {
            ticket,
            extents,
            len,
        })
    }

    fn finalize(&self, completion: Completion, pending: ImagePending) -> Result<IoResult> {
        match pending {
            ImagePending::Write(ticket) => {
                let stats = ticket.stats_delta();
                Ok(IoResult {
                    completion,
                    plan: ticket.wait()?,
                    payload: IoPayload::None,
                    stats,
                })
            }
            ImagePending::Read {
                ticket,
                extents,
                len,
            } => {
                let stats = ticket.stats_delta();
                let (results, receipt) = ticket.wait()?;
                let mut buf = vec![0u8; len as usize];
                Image::assemble_read(&extents, &results, &mut buf);
                Ok(IoResult {
                    completion,
                    plan: receipt,
                    payload: IoPayload::Data(buf),
                    stats,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use vdisk_rados::Cluster;

    fn queue() -> IoQueue {
        let cluster = Cluster::builder().concurrent_apply(true).build();
        let image = Image::create(&cluster, "aio", 64 << 20).unwrap();
        IoQueue::new(&image)
    }

    #[test]
    fn write_then_read_round_trips_through_the_queue() {
        let mut q = queue();
        let w = q
            .submit(IoOp::Write {
                offset: 4096,
                data: vec![0xAB; 8192],
            })
            .unwrap();
        let r = q
            .submit(IoOp::Read {
                offset: 4096,
                len: 8192,
            })
            .unwrap();
        assert_eq!(q.in_flight(), 2);
        let done = q.fence().unwrap();
        assert_eq!(q.in_flight(), 0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].completion, w);
        assert_eq!(done[0].payload, IoPayload::None);
        assert_eq!(done[0].plan.txs.len(), 1);
        assert_eq!(done[1].plan.reads.len(), 1);
        assert_eq!(done[0].stats.transactions, 1);
        assert_eq!(done[1].completion, r);
        assert_eq!(done[1].payload.data(), &[0xAB; 8192][..]);
        assert_eq!(done[1].stats.read_ops, 1);
    }

    #[test]
    fn deep_queue_of_overlapping_writes_applies_in_order() {
        let mut q = queue();
        for round in 0..24u8 {
            q.submit(IoOp::Write {
                offset: 0,
                data: vec![round; 4096],
            })
            .unwrap();
        }
        let r = q.submit(IoOp::Read {
            offset: 0,
            len: 4096,
        });
        let done = q.fence().unwrap();
        assert_eq!(done.last().unwrap().completion, r.unwrap());
        assert!(
            done.last().unwrap().payload.data().iter().all(|&b| b == 23),
            "the queued read must observe the last queued write"
        );
    }

    #[test]
    fn writev_is_zero_copy_per_buffer_and_readv_splits() {
        let mut q = queue();
        // Spans the object 0 / object 1 boundary of a 4 MB object.
        let offset = (4 << 20) - 4096;
        q.submit(IoOp::Writev {
            offset,
            buffers: vec![vec![1u8; 4096], vec![2u8; 8192]],
        })
        .unwrap();
        q.submit(IoOp::Readv {
            offset,
            lens: vec![4096, 4096, 4096],
        })
        .unwrap();
        let done = q.fence().unwrap();
        let segments = done[1].payload.segments();
        assert_eq!(segments.len(), 3);
        assert!(segments[0].iter().all(|&b| b == 1));
        assert!(segments[1].iter().all(|&b| b == 2));
        assert!(segments[2].iter().all(|&b| b == 2));
        // The gather touched two objects: one batch, two transactions.
        assert_eq!(done[0].stats.transactions, 2);
        assert_eq!(done[0].stats.batches, 1);
    }

    #[test]
    fn poll_reaps_only_completed_ops() {
        let mut q = queue();
        q.submit(IoOp::Write {
            offset: 0,
            data: vec![7; 512],
        })
        .unwrap();
        // poll never blocks (it may reap zero ops); wait parks until
        // the op finishes — no spinning anywhere.
        let mut reaped = q.poll().unwrap();
        reaped.extend(q.wait().unwrap());
        assert_eq!(reaped.len(), 1);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn wait_any_reaps_available_completions_without_head_of_line_blocking() {
        let mut q = queue();
        // A large multi-object write at the queue head followed by many
        // small disjoint ops: wait_any must keep returning whatever has
        // finished, never insisting on the oldest op first.
        q.submit(IoOp::Write {
            offset: 0,
            data: vec![0x11; 16 << 20],
        })
        .unwrap();
        for i in 0..8u64 {
            q.submit(IoOp::Write {
                offset: (i + 4) * (4 << 20),
                data: vec![0x22; 4096],
            })
            .unwrap();
        }
        let mut reaped = 0;
        while q.in_flight() > 0 {
            let results = q.wait_any().unwrap();
            assert!(
                !results.is_empty(),
                "wait_any must block until something completes"
            );
            reaped += results.len();
        }
        assert_eq!(reaped, 9);
        assert_eq!(q.wait_any().unwrap().len(), 0, "idle queue returns empty");
    }

    /// A scripted backend with no cluster behind it: each submitted op
    /// takes the next [`FakeOp`] off the script as its pending state.
    #[derive(Default)]
    struct FakeBackend {
        script: VecDeque<FakeOp>,
        finalize_calls: std::cell::Cell<usize>,
    }

    #[derive(Default)]
    struct FakeOp {
        done: Arc<AtomicBool>,
        /// Another op that completes (and rings) during this op's
        /// finalize.
        lands_during_finalize: Option<Arc<AtomicBool>>,
        /// Finalize fails with `SnapshotNotFound(this)`.
        fails: Option<&'static str>,
        /// Read payload returned by finalize.
        data: Option<Vec<u8>>,
        bell: std::sync::OnceLock<Arc<Doorbell>>,
    }

    impl FakeOp {
        fn complete() -> FakeOp {
            FakeOp {
                done: Arc::new(AtomicBool::new(true)),
                ..FakeOp::default()
            }
        }
    }

    impl PendingOp for FakeOp {
        fn subscribe(&self, bell: &Arc<Doorbell>) {
            assert!(self.bell.set(Arc::clone(bell)).is_ok(), "subscribed once");
        }
        fn is_complete(&self) -> bool {
            self.done.load(Ordering::SeqCst)
        }
    }

    impl FakeBackend {
        fn next(&mut self) -> Result<FakeOp> {
            Ok(self.script.pop_front().expect("script covers every submit"))
        }
    }

    impl QueueBackend for FakeBackend {
        type Pending = FakeOp;
        type Error = RbdError;

        fn name(&self) -> &str {
            "fake"
        }
        fn size(&self) -> u64 {
            1 << 20
        }
        fn queue_write(&mut self, _: u64, _: Vec<u8>) -> Result<FakeOp> {
            self.next()
        }
        fn queue_writev(&mut self, _: u64, _: Vec<Vec<u8>>) -> Result<FakeOp> {
            self.next()
        }
        fn queue_read(&mut self, _: u64, _: u64) -> Result<FakeOp> {
            self.next()
        }
        fn finalize(&self, completion: Completion, op: FakeOp) -> Result<IoResult> {
            self.finalize_calls.set(self.finalize_calls.get() + 1);
            if let Some(other) = op.lands_during_finalize {
                other.store(true, Ordering::SeqCst);
                op.bell.get().expect("subscribed at submit").ring();
            }
            if let Some(name) = op.fails {
                return Err(RbdError::SnapshotNotFound(name.into()));
            }
            Ok(IoResult {
                completion,
                plan: Receipt::default(),
                payload: op.data.map_or(IoPayload::None, IoPayload::Data),
                stats: ExecStats::default(),
            })
        }
    }

    fn fake_queue(script: impl IntoIterator<Item = FakeOp>) -> Queue<FakeBackend> {
        Queue::over(FakeBackend {
            script: script.into_iter().collect(),
            ..FakeBackend::default()
        })
    }

    fn write_op() -> IoOp {
        IoOp::Write {
            offset: 0,
            data: Vec::new(),
        }
    }

    #[test]
    fn wait_any_returns_ops_that_land_during_a_finalize() {
        // Pins the one-walk-per-generation rule without a timer: B
        // leads A in submission order and is still in flight when the
        // walk passes it; A's finalize (standing in for a decrypt)
        // takes long enough for B to land and ring the bell. A single
        // walk would return A alone and leave B waiting a whole driver
        // cycle — the re-walk on a moved generation returns both.
        let b_done = Arc::new(AtomicBool::new(false));
        let mut q = fake_queue([
            FakeOp {
                done: Arc::clone(&b_done),
                ..FakeOp::default()
            },
            FakeOp {
                lands_during_finalize: Some(b_done),
                ..FakeOp::complete()
            },
        ]);
        let b = q.submit(write_op()).unwrap();
        let a = q.submit(write_op()).unwrap();
        let done = q.wait_any().unwrap();
        let ids: Vec<Completion> = done.iter().map(|r| r.completion).collect();
        assert_eq!(ids, vec![a, b], "one wait_any call must return both ops");
        assert_eq!(q.backend().finalize_calls.get(), 2);
        assert_eq!(q.idle_passes(), 0, "nothing here ever parks");
    }

    #[test]
    fn a_failed_finalize_consumes_one_op_and_keeps_the_rest_staged() {
        // The error-retention rule, for every reap call: ops A, B, C
        // are all complete and B's finalize fails. The failing call
        // consumes exactly B (reported by take_failed); A, finalized
        // before it, stays staged and is delivered — with C — by the
        // next reap call.
        type Reap = fn(&mut Queue<FakeBackend>) -> Result<Vec<IoResult>>;
        let reaps: [(&str, Reap); 4] = [
            ("poll", Queue::poll),
            ("wait", Queue::wait),
            ("wait_any", Queue::wait_any),
            ("fence", Queue::fence),
        ];
        for (name, reap) in reaps {
            let mut q = fake_queue([
                FakeOp::complete(),
                FakeOp {
                    fails: Some("b"),
                    ..FakeOp::complete()
                },
                FakeOp::complete(),
            ]);
            let a = q.submit(write_op()).unwrap();
            let b = q.submit(write_op()).unwrap();
            let c = q.submit(write_op()).unwrap();
            assert_eq!(
                reap(&mut q).unwrap_err(),
                RbdError::SnapshotNotFound("b".into()),
                "{name}"
            );
            assert_eq!(q.in_flight(), 1, "{name}: only C is still pending");
            assert_eq!(q.take_failed(), vec![b.id()], "{name}");
            assert!(q.take_failed().is_empty(), "{name}: take_failed drains");
            let ids: Vec<Completion> = reap(&mut q).unwrap().iter().map(|r| r.completion).collect();
            assert_eq!(ids, vec![a, c], "{name}: staged A is delivered with C");
            assert_eq!(q.in_flight(), 0, "{name}");
        }
    }

    #[test]
    fn scatter_reads_are_lowered_and_split_by_the_engine() {
        // The backend sees one contiguous read and returns one buffer;
        // the segments are the engine's.
        let mut q = fake_queue([FakeOp {
            data: Some(vec![1, 2, 3, 4, 5, 6]),
            ..FakeOp::complete()
        }]);
        q.submit(IoOp::Readv {
            offset: 0,
            lens: vec![1, 0, 3, 2],
        })
        .unwrap();
        let done = q.fence().unwrap();
        assert_eq!(
            done[0].payload,
            IoPayload::Segments(vec![vec![1], vec![], vec![2, 3, 4], vec![5, 6]])
        );

        // A sum past u64 never reaches the backend (the script is
        // empty: a backend call would panic) and queues nothing.
        let err = q
            .submit(IoOp::Readv {
                offset: 0,
                lens: vec![u64::MAX, 2],
            })
            .unwrap_err();
        assert_eq!(
            err,
            RbdError::OutOfBounds {
                offset: u64::MAX,
                size: 1 << 20
            }
        );
        assert_eq!(q.in_flight(), 0);
        assert_eq!(format!("{q:?}"), "Queue(fake, 0 in flight)");
    }

    #[test]
    fn out_of_bounds_submission_fails_synchronously() {
        let mut q = queue();
        let size = q.backend().size();
        assert!(q
            .submit(IoOp::Write {
                offset: size,
                data: vec![0; 1],
            })
            .is_err());
        assert!(q
            .submit(IoOp::Readv {
                offset: size - 4096,
                lens: vec![4096, 1],
            })
            .is_err());
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn readv_lengths_that_overflow_u64_are_out_of_bounds() {
        // Regression: the u64 sum wrapped to 1, passed the bounds
        // check in release builds, and panicked at reap.
        let mut q = queue();
        let err = q
            .submit(IoOp::Readv {
                offset: 0,
                lens: vec![u64::MAX, 2],
            })
            .unwrap_err();
        assert!(matches!(err, crate::RbdError::OutOfBounds { .. }), "{err}");
        assert_eq!(q.in_flight(), 0, "nothing may stay queued");
        assert!(q.fence().unwrap().is_empty());
    }

    #[test]
    fn remove_flushes_in_flight_queued_writes() {
        let cluster = Cluster::builder().concurrent_apply(true).build();
        let image = Image::create(&cluster, "rm-race", 64 << 20).unwrap();
        let mut q = IoQueue::new(&image);
        for i in 0..16u64 {
            q.submit(IoOp::Write {
                offset: i * (4 << 20),
                data: vec![1; 4096],
            })
            .unwrap();
        }
        // Fire-and-forget: drop the queue without reaping, then remove
        // the image while writes may still sit on the shard queues.
        drop(q);
        Image::remove(&cluster, "rm-race").unwrap();
        assert!(
            cluster.list_objects().is_empty(),
            "remove must not orphan data objects of in-flight writes"
        );
    }

    #[test]
    fn consecutive_objects_fan_out_over_consecutive_shards() {
        // Shard-aware striping: a write over N consecutive objects must
        // deterministically span min(N, shard_count) shards.
        let cluster = Cluster::builder().concurrent_apply(true).build();
        let image = Image::create_with_object_size(&cluster, "striped", 8 << 20, 1 << 20).unwrap();
        let mut q = IoQueue::new(&image);
        q.submit(IoOp::Write {
            offset: 0,
            data: vec![0x11; 8 << 20],
        })
        .unwrap();
        let done = q.fence().unwrap();
        assert_eq!(done[0].stats.transactions, 8);
        assert_eq!(
            done[0].stats.shard_fanout_max,
            cluster.shard_count() as u64,
            "8 consecutive objects must cover all 8 shards deterministically"
        );
    }
}
