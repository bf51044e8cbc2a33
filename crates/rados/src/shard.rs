//! One shard of cluster state: the objects whose placement group lands
//! in this shard, each held once for its whole acting set, behind its
//! own lock, with the admission counter of the work queued for it.
//!
//! A shard owns no thread and no queue: its jobs ride the FIFO of the
//! worker that serves it (worker `s mod W`, see [`crate::queue`]), so
//! one worker may serve several shards. Each shard still has exactly
//! one consumer, which is what keeps per-shard order.
//!
//! An object's whole acting set (primary and replicas) lives in one
//! shard — placement is a pure function of the object name, so the
//! shard key is too. That makes per-object transactions and reads
//! single-shard operations, and lets [`crate::Cluster::execute_batch`]
//! apply disjoint shard groups genuinely concurrently.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

use crate::backend::{FileStore, MemStore};
use crate::object::PHYS_BLOCK;
use crate::receipt::{ReadEffect, ReadWork, TxWork};
use crate::state::ControlPlane;
use crate::state::StatCounters;
use crate::sync::{LockClass, OrderedMutex};
use crate::transaction::{AppliedTx, ReadOp, ReadResult, Transaction, TxOp};
use crate::{RadosError, Result, SnapId};

/// A shard: one lock over one placement-disjoint slice of the object
/// space and the admission counter of its queued work.
pub(crate) struct Shard {
    /// This shard's position in the cluster's shard table — the key
    /// fault schedules, write epochs and injected errors name it by.
    pub(crate) index: usize,
    /// The shard's objects. A panic while holding the lock only poisons
    /// functional state, so the lock recovers rather than propagates.
    pub(crate) state: OrderedMutex<ShardState>,
    /// Jobs admitted to this shard (enqueued or applying) and not yet
    /// complete. The 0↔1 transitions drive the cluster-wide
    /// shard-concurrency high-water mark; the global update happens
    /// *under this lock* so one shard's enter/exit strictly alternate
    /// — which is what makes `shard_concurrency_peak <= shard_count` a
    /// structural invariant rather than a race-prone approximation.
    pending: OrderedMutex<Pending>,
}

/// A shard's count of admitted, unfinished jobs.
struct Pending(usize);

impl LockClass for Pending {
    const NAME: &'static str = "Shard::pending";
}

impl Shard {
    pub(crate) fn new(index: usize, store: MemStore, disk: Option<FileStore>) -> Self {
        Shard {
            index,
            state: OrderedMutex::new(ShardState { store, disk }),
            pending: OrderedMutex::new(Pending(0)),
        }
    }

    /// Records a job admitted to this shard, bumping the cluster-wide
    /// busy-shard counter on the idle→busy transition. Returns whether
    /// the shard was idle (no enqueued or running job) — the
    /// linearization point for the sync wrappers' inline fast path.
    pub(crate) fn job_admitted(&self, stats: &StatCounters) -> bool {
        let mut pending = self.pending.lock();
        pending.0 += 1;
        let was_idle = pending.0 == 1;
        if was_idle {
            stats.enter_shard_apply();
        }
        was_idle
    }

    /// Records a job finished on this shard, dropping the busy-shard
    /// counter on the busy→idle transition.
    pub(crate) fn job_done(&self, stats: &StatCounters) {
        let mut pending = self.pending.lock();
        pending.0 -= 1;
        if pending.0 == 0 {
            stats.exit_shard_apply();
        }
    }
}

/// The objects of one shard: the in-memory mirror every read is served
/// from and, on a file-backed cluster, the redo log and object files
/// that make it durable (see [`crate::backend`]).
pub struct ShardState {
    /// This shard's objects, one copy each unless a replica diverged.
    pub(crate) store: MemStore,
    /// `Some` on a file-backed cluster.
    disk: Option<FileStore>,
}

impl LockClass for ShardState {
    const NAME: &'static str = "Shard::state";
}

impl ShardState {
    /// Runs `f` against the durability half and the mirror it writes
    /// back from. Without a durability half there is nothing to do:
    /// memory *is* the acknowledged state.
    pub(crate) fn durably(
        &mut self,
        f: impl FnOnce(&mut FileStore, &MemStore) -> Result<()>,
    ) -> Result<()> {
        match &mut self.disk {
            Some(disk) => f(disk, &self.store),
            None => Ok(()),
        }
    }

    /// Applies one already-validated transaction on every replica and
    /// records what it did. `snap_seq` is the snapshot sequence
    /// captured once at batch entry, so every transaction of a batch
    /// sees one consistent snapshot context.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::CompareFailed`] if a
    /// [`TxOp::CompareXattr`] precondition does not hold; the check
    /// runs against the primary **before** any replica mutates, so a
    /// failed transaction leaves no trace (single-object
    /// all-or-nothing extends to dynamic preconditions).
    pub(crate) fn apply_tx(
        &mut self,
        cp: &ControlPlane,
        snap_seq: SnapId,
        tx: &Transaction,
    ) -> Result<TxWork> {
        let acting = cp.placement.acting_set(&tx.object);

        // Evaluate every precondition before any mutation — replicas
        // are identical, so the primary's view decides.
        for op in &tx.ops {
            if let TxOp::CompareXattr { name, expected } = op {
                let actual = acting
                    .first()
                    .and_then(|primary| self.store.get(primary.0, &tx.object))
                    .and_then(|o| o.head.xattrs.get(name));
                if actual != expected.as_ref() {
                    return Err(RadosError::CompareFailed {
                        object: tx.object.clone(),
                        xattr: name.clone(),
                    });
                }
            }
        }

        let applied = AppliedTx {
            object: &tx.object,
            snap_seq,
            acting: &acting,
            ops: &tx.ops,
        };
        let mut effects = Vec::with_capacity(acting.len() * tx.ops.len());
        self.store.apply_ops(&applied, &mut effects);
        // The durability point: a file-backed shard logs and syncs the
        // transaction before it is acknowledged.
        self.durably(|disk, mirror| disk.commit(mirror, &applied))?;

        Ok(TxWork {
            acting,
            payload_bytes: tx.payload_bytes(),
            effects,
        })
    }

    /// Serves one object's read operations from the primary replica
    /// and records what they did.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the object does not
    /// exist, or [`RadosError::NoSuchSnapshot`] if it did not exist yet
    /// at the requested snapshot.
    pub(crate) fn read_one(
        &self,
        cp: &ControlPlane,
        object: &str,
        snap: Option<SnapId>,
        ops: &[ReadOp],
    ) -> Result<(Vec<ReadResult>, ReadWork)> {
        let primary = cp.placement.primary(object);
        let obj = self
            .store
            .get(primary.0, object)
            .ok_or_else(|| RadosError::NoSuchObject(object.to_string()))?;
        let content = obj
            .content_at(snap)
            .ok_or_else(|| RadosError::NoSuchSnapshot {
                object: object.to_string(),
                snap: snap.unwrap_or_default(),
            })?;

        let mut results = Vec::with_capacity(ops.len());
        let mut work = ReadWork {
            primary,
            response_bytes: 0,
            effects: Vec::new(),
        };
        for op in ops {
            match op {
                ReadOp::Read { offset, len } => {
                    let data = content.read(*offset, *len);
                    // Physical read: whole blocks covering the extent.
                    // A zero-length extent touches no block at all.
                    if *len > 0 {
                        let start_block = offset / PHYS_BLOCK;
                        let end_block = (offset + len).div_ceil(PHYS_BLOCK);
                        work.effects
                            .push(ReadEffect::Blocks((end_block - start_block) * PHYS_BLOCK));
                    }
                    work.response_bytes += *len;
                    results.push(ReadResult::Data(data));
                }
                ReadOp::OmapGetRange { start, end } => {
                    let (entries, receipt) = content.omap.range(start, end);
                    work.effects.push(ReadEffect::Omap(receipt));
                    work.response_bytes += receipt.bytes_returned;
                    results.push(ReadResult::OmapEntries(entries));
                }
                ReadOp::OmapGetKeys(keys) => {
                    let mut entries = Vec::new();
                    for key in keys {
                        let (value, receipt) = content.omap.get(key);
                        work.effects.push(ReadEffect::Omap(receipt));
                        if let Some(value) = value {
                            work.response_bytes += (key.len() + value.len()) as u64;
                            entries.push((key.clone(), value));
                        }
                    }
                    results.push(ReadResult::OmapEntries(entries));
                }
                ReadOp::GetXattr(name) => {
                    let value = content.xattrs.get(name).cloned();
                    work.response_bytes += value.as_ref().map_or(0, Vec::len) as u64;
                    results.push(ReadResult::Xattr(value));
                }
                ReadOp::Stat => {
                    results.push(ReadResult::Stat {
                        size: content.size(),
                    });
                }
            }
        }
        Ok((results, work))
    }
}
