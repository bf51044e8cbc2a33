//! The in-memory mirror: one shard's objects, per OSD, in plain hash
//! maps. It is the working state of every cluster — reads are served
//! from it on either backend — and the whole state of an in-memory one.

use crate::object::Object;
use crate::receipt::OpEffect;
use crate::transaction::{AppliedTx, TxOp};
use std::collections::HashMap;

/// One shard's objects kept per OSD. `osd` indices are cluster-wide OSD
/// numbers; a shard's store only ever sees the objects whose placement
/// lands in that shard (the engine guarantees it, the store need not
/// check).
#[derive(Debug)]
pub(crate) struct MemStore {
    /// `osds[i]` holds this shard's objects stored on OSD `i`.
    osds: Vec<HashMap<String, Object>>,
}

impl MemStore {
    pub(crate) fn new(osd_count: usize) -> Self {
        MemStore {
            osds: (0..osd_count).map(|_| HashMap::new()).collect(),
        }
    }

    /// The object `name` on OSD `osd`, if present.
    pub(crate) fn get(&self, osd: usize, name: &str) -> Option<&Object> {
        self.osds[osd].get(name)
    }

    /// Mutable access to `name` on OSD `osd` (callers persist after).
    pub(crate) fn get_mut(&mut self, osd: usize, name: &str) -> Option<&mut Object> {
        self.osds[osd].get_mut(name)
    }

    /// Inserts (or replaces) `name` on OSD `osd`.
    pub(crate) fn insert(&mut self, osd: usize, name: &str, object: Object) {
        self.osds[osd].insert(name.to_string(), object);
    }

    /// Every object name this store holds, sorted and deduplicated
    /// across OSDs.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.osds.iter().flat_map(|m| m.keys().cloned()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Applies `tx`'s ops to the replica on OSD `osd` — **the**
    /// mutation routine: the shard engine runs it per acting OSD when a
    /// transaction applies, and the file backend runs it again, per
    /// logged record, when a store reopens. One routine means a
    /// replayed record cannot drift from what the live apply did.
    /// `effect` hears what each op did physically — the live apply
    /// records it in the transaction's receipt; replay drops it.
    ///
    /// Creates the object if absent, takes the copy-on-write clone the
    /// snapshot context calls for, applies the ops in order, and
    /// removes the object if any op was a [`TxOp::Delete`].
    /// Preconditions ([`TxOp::CompareXattr`]) are the caller's to check
    /// beforehand.
    pub(crate) fn apply_ops(
        &mut self,
        osd: usize,
        store_payload: bool,
        tx: &AppliedTx<'_>,
        mut effect: impl FnMut(OpEffect),
    ) {
        let object = self.osds[osd]
            .entry(tx.object.to_string())
            .or_insert_with(|| Object::new(store_payload, tx.snap_seq));
        object.prepare_write(tx.snap_seq);
        let mut deleted = false;
        for op in tx.ops {
            match op {
                TxOp::Write { offset, data } => effect(OpEffect::Write {
                    len: data.len() as u64,
                    profile: object.head.write(*offset, data),
                }),
                TxOp::Truncate(size) => object.head.truncate(*size),
                TxOp::OmapSet(entries) => {
                    let batch = entries
                        .iter()
                        .map(|(k, v)| (k.clone(), Some(v.clone())))
                        .collect();
                    effect(OpEffect::Omap(object.head.omap.write_batch(batch)));
                }
                TxOp::OmapRemove(keys) => {
                    let batch = keys.iter().map(|k| (k.clone(), None)).collect();
                    effect(OpEffect::Omap(object.head.omap.write_batch(batch)));
                }
                TxOp::SetXattr(name, value) => {
                    object.head.xattrs.insert(name.clone(), value.clone());
                }
                TxOp::CompareXattr { .. } => {}
                TxOp::Delete => deleted = true,
            }
        }
        if deleted {
            self.osds[osd].remove(tx.object);
        }
    }
}
