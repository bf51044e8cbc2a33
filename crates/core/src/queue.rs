//! The encrypted aio-style submission queue: the paper's IO surface
//! driven the way fio drives a block device — owned buffers, many IOs
//! in flight, completions reaped out of band.
//!
//! [`EncryptedIoQueue`] is the [`vdisk_rbd::Queue`] engine — the one
//! the raw [`vdisk_rbd::IoQueue`] runs on — over this module's
//! encrypting backend, which is all this file holds: how an op is put
//! in flight and how its completion becomes a result. It
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

use crate::encrypted_image::{EncryptedImage, PreparedWrite, ReadSpan};
use crate::{CryptError, Result};
use std::sync::Arc;
use vdisk_rados::{ApplyTicket, Doorbell, ReadTicket};
use vdisk_rbd::{Completion, IoPayload, IoResult, PendingOp, Queue, QueueBackend};

/// Pending state of the encrypting backend.
pub enum PendingState {
    /// A write: its batch ticket plus what completing it needs.
    Write(ApplyTicket, PreparedWrite),
    /// A read, decrypted at reap.
    Read {
        /// The span submission's ticket.
        ticket: ReadTicket,
        /// Span plan of the aligned span: extents and per-extent
        /// metadata sourcing (cache hit vs fetch), for decryption —
        /// and cache fills — at reap.
        span: ReadSpan,
        /// The originally requested range (a sub-range of the span for
        /// unaligned requests).
        offset: u64,
        /// Requested length in bytes.
        len: u64,
    },
}

impl PendingOp for PendingState {
    fn subscribe(&self, bell: &Arc<Doorbell>) {
        match self {
            PendingState::Write(ticket, _) => ticket.subscribe(bell),
            PendingState::Read { ticket, .. } => ticket.subscribe(bell),
        }
    }

    fn is_complete(&self) -> bool {
        match self {
            PendingState::Write(ticket, _) => ticket.is_complete(),
            PendingState::Read { ticket, .. } => ticket.is_complete(),
        }
    }
}

/// An aio-style submission queue over an [`EncryptedImage`]: the
/// [`vdisk_rbd::Queue`] engine (`submit`/`poll`/`wait`/`wait_any`/
/// `fence`, see there) over the encrypting backend — owned buffers,
/// encrypt-on-ingest, decrypt-at-reap, many IOs in flight. Borrows the
/// image mutably for its lifetime — encryption state (the IV source)
/// advances at submit time; [`Queue::backend`] reaches the image while
/// the queue is open.
///
/// Reap calls surface decryption errors
/// ([`CryptError::IntegrityViolation`], [`CryptError::ReplayDetected`])
/// and store errors of completed ops under the engine's
/// error-retention rule.
pub type EncryptedIoQueue<'d> = Queue<&'d mut EncryptedImage>;

impl EncryptedImage {
    /// Opens a submission queue over this disk.
    pub fn io_queue(&mut self) -> EncryptedIoQueue<'_> {
        Queue::over(self)
    }
}

/// The encrypting backend. Writes encrypt on ingest in the submitted
/// buffer — an unaligned one first reads back its boundary sectors,
/// so a tampered boundary fails the submit with a decryption error;
/// reads decrypt at reap.
impl QueueBackend for &mut EncryptedImage {
    type Pending = PendingState;
    type Error = CryptError;

    fn name(&self) -> &str {
        self.image().name()
    }

    fn size(&self) -> u64 {
        self.image().size()
    }

    fn queue_write(&mut self, offset: u64, data: Vec<u8>) -> Result<PendingState> {
        let (ticket, write) = self.submit_write(offset, data)?;
        Ok(PendingState::Write(ticket, write))
    }

    /// Coalesces the buffers into one owned span first (the one copy
    /// scatter input inherently costs here, since encryption mutates a
    /// contiguous run).
    fn queue_writev(&mut self, offset: u64, buffers: Vec<Vec<u8>>) -> Result<PendingState> {
        self.queue_write(offset, buffers.concat())
    }

    fn queue_read(&mut self, offset: u64, len: u64) -> Result<PendingState> {
        let (ticket, span) = self.submit_read_span(None, offset, len)?;
        Ok(PendingState::Read {
            ticket,
            span,
            offset,
            len,
        })
    }

    fn finalize(&self, completion: Completion, pending: PendingState) -> Result<IoResult> {
        match pending {
            PendingState::Write(ticket, write) => {
                let stats = ticket.stats_delta();
                let dispatch = ticket.wait()?;
                let (receipt, stats) = self.complete_write(write, dispatch, stats);
                Ok(IoResult {
                    completion,
                    plan: receipt,
                    payload: IoPayload::None,
                    stats,
                })
            }
            PendingState::Read {
                ticket,
                span,
                offset,
                len,
            } => {
                let mut stats = ticket.stats_delta();
                stats.meta_cache_hits = span.hits;
                stats.meta_cache_misses = span.misses;
                let (results, dispatch) = ticket.wait()?;
                let mut data = vec![0u8; len as usize];
                let receipt =
                    self.complete_read(&span, &results, dispatch, None, offset, &mut data)?;
                Ok(IoResult {
                    completion,
                    plan: receipt,
                    payload: IoPayload::Data(data),
                    stats,
                })
            }
        }
    }
}
