//! The encrypted aio-style submission queue: the paper's IO surface
//! driven the way fio drives a block device — owned buffers, many IOs
//! in flight, completions reaped out of band.
//!
//! [`EncryptedIoQueue`] mirrors the raw [`vdisk_rbd::IoQueue`] but
//! runs the full encryption pipeline: a submitted write is encrypted
//! **on ingest, in place in the submitted buffer** (zero-copy down to
//! the object transactions), then dispatched to the cluster's
//! per-shard work queues; a read decrypts client-side at reap time.
//! Ops from different submissions interleave on the shard workers —
//! the cross-batch concurrency the paper's queue-depth bandwidth
//! argument (fio at QD 32, §3.3) relies on — while per-shard FIFO
//! ordering keeps overlapping same-sector ops in submission order.
//!
//! Unaligned writes read-modify-write their partially-covered boundary
//! sectors *synchronously at submit* (the read rides the same shard
//! FIFOs, so it observes every previously queued write); the aligned
//! span then dispatches asynchronously like any other write.
//!
//! # Example
//!
//! ```
//! use vdisk_core::{EncryptedImage, EncryptionConfig, IoOp, MetaLayout};
//! use vdisk_rados::Cluster;
//! use vdisk_rbd::Image;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::builder().build();
//! let image = Image::create(&cluster, "secure-aio", 16 << 20)?;
//! let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
//! let mut disk = EncryptedImage::format(image, &config, b"hunter2")?;
//!
//! let mut queue = disk.io_queue();
//! queue.submit(IoOp::Write { offset: 0, data: b"top secret".to_vec() })?;
//! let read = queue.submit(IoOp::Read { offset: 0, len: 10 })?;
//! let done = queue.fence()?;
//! assert_eq!(done[1].completion, read);
//! assert_eq!(done[1].payload.data(), b"top secret");
//! # Ok(())
//! # }
//! ```

use crate::encrypted_image::{EncryptedImage, ReadSpan, SubmittedWrite};
use crate::{CryptError, Result};
use std::sync::Arc;
use vdisk_rados::{Doorbell, ReadTicket};
use vdisk_rbd::queue_engine::{readv_len, PendingOp, ReapQueue};
use vdisk_rbd::{Completion, IoOp, IoPayload, IoResult};
use vdisk_sim::Plan;

enum PendingState {
    Write(SubmittedWrite),
    Read {
        ticket: ReadTicket,
        /// Span plan of the aligned span: extents, per-extent metadata
        /// sourcing (cache hit vs fetch), for decryption — and cache
        /// fills — at reap.
        span: ReadSpan,
        /// The originally requested range (a sub-range of the span for
        /// unaligned requests).
        offset: u64,
        len: u64,
        /// `Some` for scatter reads: the requested segment lengths.
        split: Option<Vec<u64>>,
    },
}

impl PendingOp for PendingState {
    fn subscribe(&self, bell: &Arc<Doorbell>) {
        match self {
            PendingState::Write(write) => write.ticket.subscribe(bell),
            PendingState::Read { ticket, .. } => ticket.subscribe(bell),
        }
    }

    fn is_complete(&self) -> bool {
        match self {
            PendingState::Write(write) => write.ticket.is_complete(),
            PendingState::Read { ticket, .. } => ticket.is_complete(),
        }
    }
}

/// An aio-style submission queue over an [`EncryptedImage`]: owned
/// buffers, encrypt-on-ingest, many IOs in flight, completions reaped
/// by `poll`/`wait`/`fence`. Borrows the image mutably for its
/// lifetime — encryption state (the IV source) advances at submit
/// time.
pub struct EncryptedIoQueue<'d> {
    disk: &'d mut EncryptedImage,
    /// The shared submission-tracking/reap engine (see
    /// `vdisk_rbd::queue_engine::ReapQueue` for the error-retention
    /// semantics).
    reap: ReapQueue<PendingState>,
}

impl EncryptedImage {
    /// Opens a submission queue over this disk.
    pub fn io_queue(&mut self) -> EncryptedIoQueue<'_> {
        EncryptedIoQueue {
            disk: self,
            reap: ReapQueue::default(),
        }
    }
}

impl<'d> EncryptedIoQueue<'d> {
    /// The disk this queue drives.
    #[must_use]
    pub fn disk(&self) -> &EncryptedImage {
        self.disk
    }

    /// Mutable access to the disk for crate-internal drivers (the
    /// rekey driver advances the watermark between its read and write
    /// phases while the queue is open).
    pub(crate) fn disk_mut(&mut self) -> &mut EncryptedImage {
        self.disk
    }

    /// Operations submitted and not yet reaped.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.reap.in_flight()
    }

    /// The queue's completion doorbell: shard workers ring it as
    /// submissions complete, and the multi-tenant runtime rings it when
    /// a scheduling change should wake a parked owner.
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

    /// Submits one operation; returns its completion token with the
    /// work in flight on the shard queues. Writes encrypt on ingest in
    /// the submitted buffer; gather-writes coalesce their buffers into
    /// one owned span first (the one copy scatter input inherently
    /// costs here, since encryption mutates a contiguous run).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptError::Rbd`] for out-of-bounds ops, plus
    /// decryption errors if an unaligned write reads back tampered
    /// boundary sectors; nothing stays queued on error.
    pub fn submit(&mut self, op: IoOp) -> Result<Completion> {
        let state = match op {
            IoOp::Write { offset, data } => {
                PendingState::Write(self.disk.submit_write_owned(offset, data)?)
            }
            IoOp::Writev { offset, buffers } => {
                let mut gathered = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
                for buffer in buffers {
                    gathered.extend_from_slice(&buffer);
                }
                PendingState::Write(self.disk.submit_write_owned(offset, gathered)?)
            }
            IoOp::Read { offset, len } => {
                let (ticket, span) = self.disk.submit_read_span(None, offset, len)?;
                PendingState::Read {
                    ticket,
                    span,
                    offset,
                    len,
                    split: None,
                }
            }
            IoOp::Readv { offset, lens } => {
                let len = readv_len(&lens, self.disk.image().size())?;
                let (ticket, span) = self.disk.submit_read_span(None, offset, len)?;
                PendingState::Read {
                    ticket,
                    span,
                    offset,
                    len,
                    split: Some(lens),
                }
            }
        };
        Ok(self.reap.push(state))
    }

    /// Park-and-wakeup cycles this queue's reap calls have performed:
    /// each increment is one doorbell wait with no completed work to
    /// drain. Stays near zero under load (completions arrive before
    /// the reaper parks twice) — and proves the waits park rather than
    /// spin when a completion is deliberately delayed.
    #[must_use]
    pub fn idle_passes(&self) -> u64 {
        self.reap.idle_passes()
    }

    /// Reaps every already-finished operation without blocking, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Surfaces decryption errors ([`crate::CryptError::IntegrityViolation`],
    /// [`crate::CryptError::ReplayDetected`]) and store errors from
    /// completed reads. The failed op's result is consumed with the
    /// error; completions already finalized are retained and delivered
    /// by the next reap call.
    pub fn poll(&mut self) -> Result<Vec<IoResult>> {
        let disk: &EncryptedImage = self.disk;
        self.reap
            .poll(&mut |completion, state| finalize(disk, completion, state))
    }

    /// Blocks until at least one operation completes (the oldest
    /// outstanding one), then reaps everything finished. Returns an
    /// empty vector when nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`EncryptedIoQueue::poll`].
    pub fn wait(&mut self) -> Result<Vec<IoResult>> {
        let disk: &EncryptedImage = self.disk;
        self.reap
            .wait(&mut |completion, state| finalize(disk, completion, state))
    }

    /// Blocks until **any** in-flight operation has completed — the
    /// first available, not the oldest — then reaps everything
    /// finished. The high-QD reap primitive: a slow op at the queue
    /// head no longer stalls the completions behind it, which is what
    /// lets [`crate::RekeyDriver`] keep its migration window full
    /// while client IO shares the queue. Returns an empty vector when
    /// nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`EncryptedIoQueue::poll`].
    pub fn wait_any(&mut self) -> Result<Vec<IoResult>> {
        let disk: &EncryptedImage = self.disk;
        self.reap
            .wait_any(&mut |completion, state| finalize(disk, completion, state))
    }

    /// Full barrier: blocks until **every** submitted operation has
    /// completed and returns their results in submission order.
    /// Everything submitted afterwards is ordered after everything
    /// reaped here.
    ///
    /// # Errors
    ///
    /// As [`EncryptedIoQueue::poll`].
    pub fn fence(&mut self) -> Result<Vec<IoResult>> {
        let disk: &EncryptedImage = self.disk;
        self.reap
            .fence(&mut |completion, state| finalize(disk, completion, state))
    }
}

/// Finalizes one completed op: reaps its ticket, decrypts read spans,
/// and assembles the result.
fn finalize(
    disk: &EncryptedImage,
    completion: Completion,
    state: PendingState,
) -> std::result::Result<IoResult, CryptError> {
    match state {
        PendingState::Write(write) => {
            let mut stats = write.ticket.stats_delta();
            stats.meta_cache_invalidations = write.invalidated;
            // Boundary RMW reads of an unaligned write consulted the
            // cache at submit; their deltas belong to this op so
            // per-op stats sum to the cluster-wide counters.
            stats.meta_cache_hits = write.rmw_hits;
            stats.meta_cache_misses = write.rmw_misses;
            let dispatch = write.ticket.wait().map_err(vdisk_rbd::RbdError::from)?;
            // Write-through fill: the entries this write persisted
            // enter the cache now (reap time), unless a later write or
            // snapshot was submitted to the extent's shard meanwhile.
            stats.meta_cache_write_fills = disk.apply_write_fills(&write.fills);
            Ok(IoResult {
                completion,
                plan: Plan::seq([write.rmw.unwrap_or(Plan::Noop), write.crypto, dispatch]),
                payload: IoPayload::None,
                stats,
            })
        }
        PendingState::Read {
            ticket,
            span,
            offset,
            len,
            split,
        } => {
            let mut stats = ticket.stats_delta();
            stats.meta_cache_hits = span.hits;
            stats.meta_cache_misses = span.misses;
            let (results, dispatch) = ticket.wait().map_err(vdisk_rbd::RbdError::from)?;
            let mut buf = vec![0u8; span.batch.len as usize];
            disk.complete_read_span(&span, &results, None, &mut buf)?;
            let start = (offset - span.batch.offset) as usize;
            let data = if start == 0 && len == span.batch.len {
                buf
            } else {
                // vdisk-lint: allow(hot-path-index) reason="the batch was built to cover [offset, offset+len); the range is within its buffer by construction"
                buf[start..start + len as usize].to_vec()
            };
            let payload = IoPayload::from_read(data, split);
            let crypto = if span.batch.len == 0 {
                Plan::Noop
            } else {
                disk.image().cluster().crypto_plan(span.batch.len)
            };
            Ok(IoResult {
                completion,
                plan: Plan::seq([dispatch, crypto]),
                payload,
                stats,
            })
        }
    }
}

impl std::fmt::Debug for EncryptedIoQueue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EncryptedIoQueue({}, {} in flight)",
            self.disk.image().name(),
            self.reap.in_flight()
        )
    }
}
