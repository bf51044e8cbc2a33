//! The aio-style submission-queue IO API (librbd/io_uring-shaped).
//!
//! An [`IoQueue`] wraps an [`Image`] and accepts **owned-buffer**
//! operations: [`IoOp::Write`] hands its `Vec<u8>` straight down the
//! stack (each touched object's transaction receives a slice view of
//! the submitted allocation — no request copy), [`IoOp::Read`] returns
//! its payload in the completion. Submissions return immediately with
//! a [`Completion`] token; results are reaped with [`IoQueue::poll`]
//! (non-blocking), [`IoQueue::wait`] (blocks for at least one
//! completion) or [`IoQueue::fence`] (full barrier).
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
//! [`fence`](IoQueue::fence) orders everything before it against
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
use crate::Result;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vdisk_rados::{ApplyTicket, Doorbell, ExecStats, ReadTicket, SharedBuf, Transaction};
use vdisk_sim::Plan;

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

/// Total bytes of a scatter read over an image of `size` bytes. A sum
/// that overflows `u64` exceeds any image, so it is reported the way
/// an overflowing end offset is; shared with the encrypted queue in
/// `vdisk-core`.
///
/// # Errors
///
/// Returns [`crate::RbdError::OutOfBounds`] on overflow.
#[doc(hidden)]
pub fn readv_len(lens: &[u64], size: u64) -> Result<u64> {
    lens.iter()
        .try_fold(0u64, |sum, &len| sum.checked_add(len))
        .ok_or(crate::RbdError::OutOfBounds {
            offset: u64::MAX,
            size,
        })
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

    /// Builds a token from a sequence number — for queue
    /// implementations layering over this one (e.g. the encrypted
    /// queue in `vdisk-core`); tokens carry no authority.
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

    /// Packs a completed contiguous read: the whole buffer for a
    /// plain read, or one segment per requested length for a scatter
    /// read. Shared by this queue and the encrypted queue in
    /// `vdisk-core` so the split logic lives in one place.
    ///
    /// # Panics
    ///
    /// Panics if the segment lengths exceed the buffer.
    #[must_use]
    pub fn from_read(data: Vec<u8>, split: Option<Vec<u64>>) -> IoPayload {
        match split {
            None => IoPayload::Data(data),
            Some(lens) => {
                let mut segments = Vec::with_capacity(lens.len());
                let mut cursor = 0usize;
                for len in lens {
                    // vdisk-lint: allow(hot-path-index) reason="documented panicking packer: segment lengths exceeding the buffer are a caller bug"
                    segments.push(data[cursor..cursor + len as usize].to_vec());
                    cursor += len as usize;
                }
                IoPayload::Segments(segments)
            }
        }
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

/// One reaped completion: the op's cost plan, its payload (for reads),
/// and the exact [`ExecStats`] delta it contributed.
#[derive(Debug)]
pub struct IoResult {
    /// The token returned at submission.
    pub completion: Completion,
    /// The IO's cost plan (same shape the synchronous API returns).
    pub plan: Plan,
    /// Read payload, if any.
    pub payload: IoPayload,
    /// Exact per-op operation counts (transactions, batches, read ops,
    /// this submission's shard fanout). Cluster-wide high-water marks
    /// are not per-op quantities and stay zero here.
    pub stats: ExecStats,
}

/// Per-op pending state usable with [`ReapQueue`]: at submission the
/// engine subscribes the op's completion signal to the queue's
/// [`Doorbell`], so the shard worker that lands its last part rings
/// the reaper.
#[doc(hidden)]
pub trait PendingOp {
    /// Subscribes the op's completion signal to `bell`.
    fn subscribe(&self, bell: &Arc<Doorbell>);

    /// True once every part of the op has landed: `finalize` will not
    /// block. Completion is one bit — there is no partial progress to
    /// act on.
    fn is_complete(&self) -> bool;
}

/// The submission-tracking/reap engine shared by this queue and the
/// encrypted queue in `vdisk-core`, generic over the per-op pending
/// state: completion-id allotment, the poll/wait/fence walk order, the
/// parked (zero-spin) blocking protocol, and the error-retention rule
/// (a failed finalize consumes exactly one op; completions already
/// finalized stay staged and are delivered by the next reap call) live
/// in exactly one place.
///
/// **Completion model**: every pushed op subscribes the queue's
/// [`Doorbell`] (see [`PendingOp`]); shard workers ring it once per
/// submission, when its last part lands. A reap walks the pending ops
/// and finalizes those that are complete — all of an op's client-side
/// work (assembly, decryption) happens in `finalize`. A blocking reap
/// snapshots the bell's generation before it walks and, if nothing was
/// complete, parks in [`Doorbell::wait_past`]. Rings after the snapshot
/// bump the generation, so completions can never be slept through, and
/// an idle wait burns no CPU.
#[doc(hidden)]
pub struct ReapQueue<P> {
    pending: VecDeque<(u64, P)>,
    /// Finalized results not yet delivered (see the module docs on
    /// reap errors).
    completed: Vec<IoResult>,
    next_id: u64,
    /// The queue's doorbell: every pending op is subscribed at push
    /// time, and shard workers ring it as each submission completes.
    bell: Arc<Doorbell>,
    /// Times a blocking reap found nothing finished and parked — the
    /// observable proof that waiting is event-driven, not a spin (a
    /// busy-wait implementation would count thousands of passes per
    /// delayed completion; parking counts one per wakeup).
    idle_passes: u64,
    /// Completion ids of ops consumed by a reap error and not yet
    /// collected via [`ReapQueue::take_failed`]. Runtimes layered
    /// above (the multi-tenant arbiter in `vdisk-core`) account
    /// in-flight budget per op, so they need to know exactly which
    /// ops died with an error to refund their slots.
    failed: Vec<u64>,
}

impl<P> Default for ReapQueue<P> {
    fn default() -> Self {
        ReapQueue {
            pending: VecDeque::new(),
            completed: Vec::new(),
            next_id: 0,
            bell: Doorbell::new(),
            idle_passes: 0,
            failed: Vec::new(),
        }
    }
}

impl<P: PendingOp> ReapQueue<P> {
    /// Tracks a newly submitted op, subscribing it to the queue's
    /// doorbell and returning its completion token.
    pub fn push(&mut self, state: P) -> Completion {
        state.subscribe(&self.bell);
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back((id, state));
        Completion(id)
    }

    /// Ops submitted and not yet reaped.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// How many times a blocking reap (`wait`/`wait_any`/`fence`)
    /// found nothing finished and parked on the doorbell. Stays ~0
    /// for completions that land before the reap; increments once per
    /// park-and-wakeup, never per spin iteration.
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

    /// Drains the completion ids of ops consumed by reap errors since
    /// the last call (each reap error consumes exactly one op — see
    /// the error-retention rule in the type docs). A runtime that
    /// accounts per-op budget calls this after a failed reap to refund
    /// exactly the ops that died.
    pub fn take_failed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.failed)
    }

    /// Reaps every complete op without blocking, in submission order.
    ///
    /// # Errors
    ///
    /// Propagates the first finalize error; that op is consumed with
    /// it, while completions already finalized stay staged for the
    /// next reap call.
    pub fn poll<E>(
        &mut self,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<Vec<IoResult>, E> {
        self.walk(finalize)?;
        Ok(std::mem::take(&mut self.completed))
    }

    /// Parks until the oldest outstanding op completes, then reaps it
    /// and everything else complete. Empty when idle.
    ///
    /// # Errors
    ///
    /// As [`ReapQueue::poll`].
    pub fn wait<E>(
        &mut self,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<Vec<IoResult>, E> {
        self.park_until_front_completes();
        self.poll(finalize)
    }

    /// Parks until **any** outstanding op is complete — not
    /// necessarily the oldest — then reaps everything complete. Where
    /// [`ReapQueue::wait`] parks on the head of the FIFO (head-of-line
    /// blocking when a slow op leads faster ones), this reaps
    /// completions out of submission order as soon as they land — the
    /// primitive a pipelined driver needs to keep its window full at
    /// high queue depth. Empty when idle.
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
    /// As [`ReapQueue::poll`].
    pub fn wait_any<E>(
        &mut self,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<Vec<IoResult>, E> {
        while !self.pending.is_empty() {
            let seen = self.bell.generation();
            let finalized = self.walk(finalize)?;
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

    /// Finalizes every outstanding op in submission order — the full
    /// barrier — parking (never spinning) while ops are still in
    /// flight.
    ///
    /// # Errors
    ///
    /// As [`ReapQueue::poll`].
    pub fn fence<E>(
        &mut self,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<Vec<IoResult>, E> {
        loop {
            self.park_until_front_completes();
            let Some((id, state)) = self.pending.pop_front() else {
                return Ok(std::mem::take(&mut self.completed));
            };
            self.finalize_one(id, state, finalize)?;
        }
    }

    /// One pass over the pending ops in submission order, finalizing
    /// (and staging) each one that is complete. Returns how many it
    /// finalized.
    fn walk<E>(
        &mut self,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<usize, E> {
        let mut finalized = 0;
        let mut i = 0;
        while let Some((_, state)) = self.pending.get(i) {
            if !state.is_complete() {
                i += 1;
                continue;
            }
            let Some((id, state)) = self.pending.remove(i) else {
                break;
            };
            self.finalize_one(id, state, finalize)?;
            finalized += 1;
        }
        Ok(finalized)
    }

    /// Finalizes one op removed from `pending`: its result is staged,
    /// or its id recorded as failed and the error propagated.
    fn finalize_one<E>(
        &mut self,
        id: u64,
        state: P,
        finalize: &mut impl FnMut(Completion, P) -> std::result::Result<IoResult, E>,
    ) -> std::result::Result<(), E> {
        match finalize(Completion(id), state) {
            Ok(result) => {
                self.completed.push(result);
                Ok(())
            }
            Err(e) => {
                self.failed.push(id);
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
                Some((_, state)) if !state.is_complete() => {
                    self.idle_passes += 1;
                    self.bell.wait_past(seen);
                }
                _ => return,
            }
        }
    }
}

enum PendingState {
    Write(ApplyTicket),
    Read {
        ticket: ReadTicket,
        extents: Vec<ObjectExtent>,
        len: u64,
        /// `Some` for scatter reads: the requested segment lengths.
        split: Option<Vec<u64>>,
    },
}

impl PendingOp for PendingState {
    fn subscribe(&self, bell: &Arc<Doorbell>) {
        match self {
            PendingState::Write(ticket) => ticket.subscribe(bell),
            PendingState::Read { ticket, .. } => ticket.subscribe(bell),
        }
    }

    fn is_complete(&self) -> bool {
        match self {
            PendingState::Write(ticket) => ticket.is_complete(),
            PendingState::Read { ticket, .. } => ticket.is_complete(),
        }
    }
}

/// An aio-style submission queue over one [`Image`]: owned buffers,
/// many IOs in flight, completions reaped by `poll`/`wait`/`fence`.
pub struct IoQueue {
    image: Image,
    reap: ReapQueue<PendingState>,
}

impl IoQueue {
    /// Opens a queue over `image` (cheap: the image handle is shared).
    #[must_use]
    pub fn new(image: &Image) -> IoQueue {
        IoQueue {
            image: image.clone(),
            reap: ReapQueue::default(),
        }
    }

    /// The image this queue drives.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Operations submitted and not yet reaped.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.reap.in_flight()
    }

    /// How many times a blocking reap (`wait`/`wait_any`/`fence`)
    /// parked on the queue's doorbell because nothing had finished
    /// yet. One count per park-and-wakeup — never per loop iteration —
    /// so it stays ~0 unless completions are genuinely outpaced, even
    /// while a wait blocks for a long time.
    #[must_use]
    pub fn idle_passes(&self) -> u64 {
        self.reap.idle_passes()
    }

    /// The queue's completion doorbell: shard workers ring it as
    /// submissions complete, and runtimes layered above ring it when a
    /// scheduling change should wake a parked owner.
    #[must_use]
    pub fn doorbell(&self) -> Arc<Doorbell> {
        self.reap.doorbell()
    }

    /// Drains the completion ids of operations consumed by reap errors
    /// since the last call (each failed reap consumes exactly one op).
    /// Runtimes that account per-op budget use this to refund exactly
    /// the ops that died.
    pub fn take_failed(&mut self) -> Vec<u64> {
        self.reap.take_failed()
    }

    /// Submits one operation; returns its completion token
    /// immediately, with the work in flight on the shard queues.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RbdError::OutOfBounds`] if the op exceeds the
    /// image; nothing has been submitted then.
    pub fn submit(&mut self, op: IoOp) -> Result<Completion> {
        let state = match op {
            IoOp::Write { offset, data } => {
                PendingState::Write(self.image.submit_write(offset, data)?)
            }
            IoOp::Writev { offset, buffers } => {
                PendingState::Write(self.submit_writev(offset, buffers)?)
            }
            IoOp::Read { offset, len } => {
                let (ticket, extents) = self.image.submit_read(None, offset, len)?;
                PendingState::Read {
                    ticket,
                    extents,
                    len,
                    split: None,
                }
            }
            IoOp::Readv { offset, lens } => {
                let len = readv_len(&lens, self.image.size())?;
                let (ticket, extents) = self.image.submit_read(None, offset, len)?;
                PendingState::Read {
                    ticket,
                    extents,
                    len,
                    split: Some(lens),
                }
            }
        };
        Ok(self.reap.push(state))
    }

    /// Gather-write: one batch whose transactions view slices of every
    /// source buffer in place — an object spanning two buffers gets
    /// two write ops in its (single, atomic) transaction.
    fn submit_writev(&self, offset: u64, buffers: Vec<Vec<u8>>) -> Result<ApplyTicket> {
        let total: u64 = buffers.iter().map(|b| b.len() as u64).sum();
        self.image.check_bounds(offset, total)?;
        let striper = self.image.striper();
        let mut writes: BTreeMap<u64, Vec<(u64, SharedBuf)>> = BTreeMap::new();
        let mut cursor = offset;
        for buffer in buffers {
            let shared = SharedBuf::from_vec(buffer);
            for extent in striper.map(cursor, shared.len() as u64) {
                writes.entry(extent.object_no).or_default().push((
                    extent.offset,
                    shared.slice(
                        extent.buf_offset as usize..(extent.buf_offset + extent.len) as usize,
                    ),
                ));
            }
            cursor += shared.len() as u64;
        }
        let txs: Vec<Transaction> = writes
            .into_iter()
            .map(|(object_no, ops)| {
                let mut tx = Transaction::new(self.image.object_name(object_no));
                for (object_offset, slice) in ops {
                    tx.write(object_offset, slice);
                }
                tx
            })
            .collect();
        Ok(self.image.cluster().submit_batch(txs)?)
    }

    /// Reaps every already-finished operation without blocking, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Propagates store errors surfaced by completed reads. The failed
    /// op's result is consumed with the error; completions already
    /// finalized (in this pass or an earlier failed one) are retained
    /// and delivered by the next reap call.
    pub fn poll(&mut self) -> Result<Vec<IoResult>> {
        self.reap.poll(&mut Self::finalize)
    }

    /// Blocks until at least one operation completes (the oldest
    /// outstanding one), then reaps everything finished. Returns an
    /// empty vector when nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`IoQueue::poll`].
    pub fn wait(&mut self) -> Result<Vec<IoResult>> {
        self.reap.wait(&mut Self::finalize)
    }

    /// Blocks until **any** in-flight operation has completed — the
    /// first available one, not the oldest — then reaps everything
    /// finished. Avoids the head-of-line blocking of
    /// [`IoQueue::wait`]: a slow multi-object op at the queue head no
    /// longer delays reaping faster ops behind it, so a driver can
    /// resubmit and keep the pipeline full. Returns an empty vector
    /// when nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`IoQueue::poll`].
    pub fn wait_any(&mut self) -> Result<Vec<IoResult>> {
        self.reap.wait_any(&mut Self::finalize)
    }

    /// Full barrier: blocks until **every** submitted operation has
    /// completed and returns their results in submission order.
    /// Everything submitted afterwards is ordered after everything
    /// reaped here.
    ///
    /// # Errors
    ///
    /// As [`IoQueue::poll`].
    pub fn fence(&mut self) -> Result<Vec<IoResult>> {
        self.reap.fence(&mut Self::finalize)
    }

    fn finalize(completion: Completion, state: PendingState) -> Result<IoResult> {
        match state {
            PendingState::Write(ticket) => {
                let stats = ticket.stats_delta();
                Ok(IoResult {
                    completion,
                    plan: ticket.wait()?,
                    payload: IoPayload::None,
                    stats,
                })
            }
            PendingState::Read {
                ticket,
                extents,
                len,
                split,
            } => {
                let stats = ticket.stats_delta();
                let (results, plan) = ticket.wait()?;
                let mut buf = vec![0u8; len as usize];
                Image::assemble_read(&extents, &results, &mut buf);
                let payload = IoPayload::from_read(buf, split);
                Ok(IoResult {
                    completion,
                    plan,
                    payload,
                    stats,
                })
            }
        }
    }
}

impl std::fmt::Debug for IoQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IoQueue({}, {} in flight)",
            self.image.name(),
            self.reap.in_flight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(done[0].plan.op_count() > 0);
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

    #[test]
    fn wait_any_returns_ops_that_land_during_a_finalize() {
        // Pins the one-walk-per-generation rule without a timer: B
        // leads A in submission order and is still in flight when the
        // walk passes it; A's finalize (standing in for a decrypt)
        // takes long enough for B to land and ring the bell. A single
        // walk would return A alone and leave B waiting a whole driver
        // cycle — the re-walk on a moved generation returns both.
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Fake {
            done: Arc<AtomicBool>,
            /// Completed (and rung) during this op's finalize.
            lands_during_finalize: Option<Arc<AtomicBool>>,
        }
        impl PendingOp for Fake {
            fn subscribe(&self, _bell: &Arc<Doorbell>) {}
            fn is_complete(&self) -> bool {
                self.done.load(Ordering::SeqCst)
            }
        }
        let mut q: ReapQueue<Fake> = ReapQueue::default();
        let bell = q.doorbell();
        let b_done = Arc::new(AtomicBool::new(false));
        let b = q.push(Fake {
            done: Arc::clone(&b_done),
            lands_during_finalize: None,
        });
        let a = q.push(Fake {
            done: Arc::new(AtomicBool::new(true)),
            lands_during_finalize: Some(b_done),
        });
        let mut finalize_calls = 0;
        let done = q
            .wait_any::<()>(&mut |completion, op| {
                finalize_calls += 1;
                if let Some(other) = op.lands_during_finalize {
                    other.store(true, Ordering::SeqCst);
                    bell.ring();
                }
                Ok(IoResult {
                    completion,
                    plan: Plan::seq([]),
                    payload: IoPayload::None,
                    stats: ExecStats::default(),
                })
            })
            .unwrap();
        let ids: Vec<Completion> = done.iter().map(|r| r.completion).collect();
        assert_eq!(ids, vec![a, b], "one wait_any call must return both ops");
        assert_eq!(finalize_calls, 2);
        assert_eq!(q.idle_passes(), 0, "nothing here ever parks");
    }

    #[test]
    fn out_of_bounds_submission_fails_synchronously() {
        let mut q = queue();
        let size = q.image().size();
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
