//! The in-memory mirror: one shard's objects, each held once. It is
//! the working state of every cluster — reads are served from it on
//! either backend — and the whole state of an in-memory one.
//!
//! Replicas share one copy. An object's acting OSDs all view the one
//! agreed copy, so a transaction applies once however many replicas
//! there are, and the store costs one image, not `replicas` images. A
//! replica holds a copy of its own only once it differs from the
//! agreed one: after injected damage, or when a store reopens from
//! replica files that disagree. A transaction then applies once more
//! to each such copy, and [`MemStore::repair`] drops them again.

use crate::object::Object;
use crate::placement::OsdId;
use crate::receipt::OpEffect;
use crate::transaction::{AppliedTx, TxOp};
use std::collections::HashMap;

/// The most OSDs a cluster may have: an [`OsdSet`] has one bit per OSD.
pub(crate) const MAX_OSDS: usize = 64;

/// A set of OSD numbers below [`MAX_OSDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct OsdSet(u64);

impl OsdSet {
    pub(crate) fn one(osd: usize) -> Self {
        debug_assert!(osd < MAX_OSDS, "OSD {osd} beyond the set's {MAX_OSDS} bits");
        OsdSet(1 << osd)
    }

    fn of(osds: &[OsdId]) -> Self {
        osds.iter()
            .fold(OsdSet::default(), |set, osd| set.with(osd.0))
    }

    pub(crate) fn with(self, osd: usize) -> Self {
        OsdSet(self.0 | OsdSet::one(osd).0)
    }

    fn contains(self, osd: usize) -> bool {
        osd < MAX_OSDS && self.0 & (1 << osd) != 0
    }

    fn union(self, other: OsdSet) -> Self {
        OsdSet(self.0 | other.0)
    }

    fn and(self, other: OsdSet) -> Self {
        OsdSet(self.0 & other.0)
    }

    fn minus(self, other: OsdSet) -> Self {
        OsdSet(self.0 & !other.0)
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One version of an object and the OSDs whose view it is.
#[derive(Debug, Clone)]
struct ObjectCopy {
    osds: OsdSet,
    object: Object,
}

/// One shard's objects. `osd` arguments are cluster-wide OSD numbers; a
/// shard's store only ever sees the objects whose placement lands in
/// that shard (the engine guarantees it, the store need not check).
#[derive(Debug, Default)]
pub(crate) struct MemStore {
    /// Each object's distinct copies: normally one, the agreed copy.
    /// Their OSD sets are disjoint and never empty, and an OSD in none
    /// of them holds no such object.
    objects: HashMap<String, Vec<ObjectCopy>>,
}

impl MemStore {
    /// The object `name` as OSD `osd` holds it, if it does.
    pub(crate) fn get(&self, osd: usize, name: &str) -> Option<&Object> {
        self.objects
            .get(name)?
            .iter()
            .find(|copy| copy.osds.contains(osd))
            .map(|copy| &copy.object)
    }

    /// OSD `osd`'s view of `name`, first split off into a copy of its
    /// own if other OSDs share it, so that a change through it (injected
    /// damage) reaches that one replica. Callers persist after.
    pub(crate) fn diverge(&mut self, osd: usize, name: &str) -> Option<&mut Object> {
        let copies = self.objects.get_mut(name)?;
        let mut index = copies.iter().position(|copy| copy.osds.contains(osd))?;
        let own = OsdSet::one(osd);
        if copies[index].osds != own {
            copies[index].osds = copies[index].osds.minus(own);
            let object = copies[index].object.clone();
            copies.push(ObjectCopy { osds: own, object });
            index = copies.len() - 1;
        }
        copies.get_mut(index).map(|copy| &mut copy.object)
    }

    /// Makes `object` the view of every OSD in `osds`, replacing what
    /// they held of `name` — how an opening store loads replica files.
    pub(crate) fn insert(&mut self, name: &str, osds: OsdSet, object: Object) {
        debug_assert!(!osds.is_empty(), "a copy nobody views");
        let copies = self.objects.entry(name.to_string()).or_default();
        drop_views(copies, osds);
        copies.push(ObjectCopy { osds, object });
    }

    /// Repairs `name` from OSD `from`'s copy: every OSD in `to` views
    /// that copy afterwards, and copies no OSD views any more are
    /// dropped. No byte is copied. `false` when `from` holds no such
    /// object.
    pub(crate) fn repair(&mut self, name: &str, from: usize, to: &[OsdId]) -> bool {
        let Some(copies) = self.objects.get_mut(name) else {
            return false;
        };
        let Some(source) = copies.iter().position(|copy| copy.osds.contains(from)) else {
            return false;
        };
        let to = OsdSet::of(to);
        copies[source].osds = copies[source].osds.union(to);
        for (i, copy) in copies.iter_mut().enumerate() {
            if i != source {
                copy.osds = copy.osds.minus(to);
            }
        }
        copies.retain(|copy| !copy.osds.is_empty());
        true
    }

    /// Every object name this store holds, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.objects.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// How many distinct copies of `name` the store holds.
    #[cfg(test)]
    pub(crate) fn copies(&self, name: &str) -> usize {
        self.objects.get(name).map_or(0, Vec::len)
    }

    /// Applies `tx`'s ops to every OSD of its acting set — **the**
    /// mutation routine: the shard engine runs it when a transaction
    /// applies, and the file backend runs it again, per logged record,
    /// when a store reopens. One routine means a replayed record cannot
    /// drift from what the live apply did.
    ///
    /// Pushes onto `effects` what each op did physically on each acting
    /// OSD, grouped by OSD in acting order — the live apply records
    /// them in the transaction's receipt; replay drops them. The ops run
    /// once per distinct copy the acting OSDs view (once, unless a
    /// replica diverged); an OSD sharing a copy an earlier one in the
    /// acting set views repeats that OSD's effects.
    ///
    /// On each copy: creates the object if absent, takes the
    /// copy-on-write clone the snapshot context calls for, applies the
    /// ops in order, and removes the object if any op was a
    /// [`TxOp::Delete`]. OSDs outside the acting set keep what they
    /// viewed. Preconditions ([`TxOp::CompareXattr`]) are the caller's
    /// to check beforehand.
    pub(crate) fn apply_ops(&mut self, tx: &AppliedTx<'_>, effects: &mut Vec<(OsdId, OpEffect)>) {
        // Looked up by `&str` first: an overwrite allocates no name.
        if let Some(copies) = self.objects.get_mut(tx.object) {
            apply_to(copies, tx, effects);
            if copies.is_empty() {
                self.objects.remove(tx.object);
            }
        } else {
            let mut copies = Vec::new();
            apply_to(&mut copies, tx, effects);
            if !copies.is_empty() {
                self.objects.insert(tx.object.to_string(), copies);
            }
        }
    }
}

/// Removes `osds` from every copy's view, dropping copies no OSD views.
fn drop_views(copies: &mut Vec<ObjectCopy>, osds: OsdSet) {
    for copy in copies.iter_mut() {
        copy.osds = copy.osds.minus(osds);
    }
    copies.retain(|copy| !copy.osds.is_empty());
}

/// [`MemStore::apply_ops`] on one object's copies.
fn apply_to(
    copies: &mut Vec<ObjectCopy>,
    tx: &AppliedTx<'_>,
    effects: &mut Vec<(OsdId, OpEffect)>,
) {
    let acting = OsdSet::of(tx.acting);
    // OSDs outside the acting set that share a copy with it keep that
    // version as a copy of their own.
    for i in 0..copies.len() {
        let outside = copies[i].osds.minus(acting);
        if !outside.is_empty() && outside != copies[i].osds {
            copies[i].osds = copies[i].osds.and(acting);
            let object = copies[i].object.clone();
            copies.push(ObjectCopy {
                osds: outside,
                object,
            });
        }
    }
    // Acting OSDs that hold no copy start from one new object together.
    let held = copies
        .iter()
        .fold(OsdSet::default(), |held, copy| held.union(copy.osds));
    let absent = acting.minus(held);
    if !absent.is_empty() {
        copies.push(ObjectCopy {
            osds: absent,
            object: Object::new(tx.snap_seq),
        });
    }

    let base = effects.len();
    let mut per_osd = 0;
    for (i, &osd) in tx.acting.iter().enumerate() {
        let Some(copy) = copies.iter_mut().find(|copy| copy.osds.contains(osd.0)) else {
            continue;
        };
        match tx.acting[..i]
            .iter()
            .position(|earlier| copy.osds.contains(earlier.0))
        {
            Some(earlier) => {
                let from = base + earlier * per_osd;
                let start = effects.len();
                effects.extend_from_within(from..from + per_osd);
                for (tagged, _) in &mut effects[start..] {
                    *tagged = osd;
                }
            }
            None => {
                let start = effects.len();
                apply(&mut copy.object, tx, |effect| effects.push((osd, effect)));
                // Every op's effect count is fixed, so each OSD's run
                // of effects has the same length.
                per_osd = effects.len() - start;
            }
        }
    }
    if tx.ops.iter().any(|op| matches!(op, TxOp::Delete)) {
        drop_views(copies, acting);
    }
}

/// Runs `tx`'s ops on one copy (a delete is the caller's to carry out).
fn apply(object: &mut Object, tx: &AppliedTx<'_>, mut effect: impl FnMut(OpEffect)) {
    object.prepare_write(tx.snap_seq);
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
            TxOp::CompareXattr { .. } | TxOp::Delete => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementMap;
    use crate::transaction::Transaction;
    use crate::SnapId;
    use proptest::prelude::*;

    /// The store as it was before replicas shared a copy: a full object
    /// per OSD, and every transaction applied once per acting OSD. The
    /// shared store must be indistinguishable from it. Both run one op
    /// loop, [`apply`]; what this oracle checks is where the copies live
    /// and which of them each transaction reaches.
    struct PerOsdStore {
        osds: Vec<HashMap<String, Object>>,
    }

    impl PerOsdStore {
        fn new(osd_count: usize) -> Self {
            PerOsdStore {
                osds: (0..osd_count).map(|_| HashMap::new()).collect(),
            }
        }

        fn get(&self, osd: usize, name: &str) -> Option<&Object> {
            self.osds[osd].get(name)
        }

        fn names(&self) -> Vec<String> {
            let mut names: Vec<String> = self.osds.iter().flat_map(|m| m.keys().cloned()).collect();
            names.sort_unstable();
            names.dedup();
            names
        }

        fn apply_ops(&mut self, osd: usize, tx: &AppliedTx<'_>, effect: impl FnMut(OpEffect)) {
            let object = self.osds[osd]
                .entry(tx.object.to_string())
                .or_insert_with(|| Object::new(tx.snap_seq));
            apply(object, tx, effect);
            if tx.ops.iter().any(|op| matches!(op, TxOp::Delete)) {
                self.osds[osd].remove(tx.object);
            }
        }
    }

    const OSDS: usize = 5;
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    #[derive(Debug, Clone)]
    enum OpShape {
        Write { offset: u64, len: u64, fill: u8 },
        Truncate(u64),
        OmapSet(u8),
        OmapRemove(u8),
        SetXattr(u8),
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A transaction on an object; `acting` picks its acting set.
        Apply {
            object: usize,
            acting: u64,
            ops: Vec<OpShape>,
        },
        Snapshot,
        Delete {
            object: usize,
            acting: u64,
        },
        /// Corrupts one byte of one OSD's view.
        Damage {
            object: usize,
            osd: usize,
            offset: usize,
        },
        /// Re-replicates the primary's view over the placement's replicas.
        Repair(usize),
        /// Applies an earlier transaction again, as log replay does.
        Replay(usize),
        /// Loads one OSD's view onto a set of OSDs, as an opening store
        /// loads replica files.
        Load {
            object: usize,
            from: usize,
            to: u8,
        },
    }

    fn op_shape() -> impl Strategy<Value = OpShape> {
        prop_oneof![
            (0u64..6000, 1u64..3000, any::<u8>()).prop_map(|(offset, len, fill)| OpShape::Write {
                offset,
                len,
                fill
            }),
            (0u64..6000, 1u64..3000, any::<u8>()).prop_map(|(offset, len, fill)| OpShape::Write {
                offset,
                len,
                fill
            }),
            (0u64..8000).prop_map(OpShape::Truncate),
            (0u8..4).prop_map(OpShape::OmapSet),
            (0u8..4).prop_map(OpShape::OmapRemove),
            (0u8..3).prop_map(OpShape::SetXattr),
        ]
    }

    fn apply_step() -> impl Strategy<Value = Step> {
        (
            0usize..NAMES.len(),
            any::<u64>(),
            proptest::collection::vec(op_shape(), 1..4),
        )
            .prop_map(|(object, acting, ops)| Step::Apply {
                object,
                acting,
                ops,
            })
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            apply_step(),
            apply_step(),
            apply_step(),
            Just(Step::Snapshot),
            (0usize..NAMES.len(), any::<u64>())
                .prop_map(|(object, acting)| Step::Delete { object, acting }),
            (0usize..NAMES.len(), 0usize..OSDS, 0usize..6000).prop_map(|(object, osd, offset)| {
                Step::Damage {
                    object,
                    osd,
                    offset,
                }
            }),
            (0usize..NAMES.len()).prop_map(Step::Repair),
            (0usize..64).prop_map(Step::Replay),
            (0usize..NAMES.len(), 0usize..OSDS, 1u8..32)
                .prop_map(|(object, from, to)| Step::Load { object, from, to }),
        ]
    }

    /// The acting set a transaction on `object` runs with: usually the
    /// placement's, otherwise an arbitrary ordered subset of the OSDs,
    /// so sets that only partly overlap a stored copy's OSDs occur.
    fn acting_set(placement: &PlacementMap, object: usize, draw: u64) -> Vec<OsdId> {
        if !draw.is_multiple_of(3) {
            return placement.acting_set(NAMES[object]);
        }
        let mut osds: Vec<OsdId> = (0..OSDS).map(OsdId).collect();
        let mut x = draw;
        for i in (1..OSDS).rev() {
            x = crate::fault::splitmix64(x);
            osds.swap(i, (x % (i as u64 + 1)) as usize);
        }
        osds.truncate(1 + (draw >> 32) as usize % OSDS);
        osds
    }

    fn transaction(object: usize, ops: &[OpShape]) -> Transaction {
        let mut tx = Transaction::new(NAMES[object]);
        for op in ops {
            match op {
                OpShape::Write { offset, len, fill } => {
                    tx.write(*offset, vec![*fill; *len as usize])
                }
                OpShape::Truncate(size) => tx.truncate(*size),
                OpShape::OmapSet(key) => tx.omap_set(vec![(vec![b'k', *key], vec![*key; 9])]),
                OpShape::OmapRemove(key) => tx.omap_remove(vec![vec![b'k', *key]]),
                OpShape::SetXattr(value) => tx.set_xattr("tag", vec![*value]),
            };
        }
        tx
    }

    /// Applies one transaction to both stores; the effects must agree.
    fn apply_both(shared: &mut MemStore, reference: &mut PerOsdStore, tx: &AppliedTx<'_>) {
        let mut ours = Vec::new();
        shared.apply_ops(tx, &mut ours);
        let mut theirs = Vec::new();
        for &osd in tx.acting {
            reference.apply_ops(osd.0, tx, |effect| theirs.push((osd, effect)));
        }
        prop_assert_eq!(ours, theirs, "effects of {:?}", tx.ops);
    }

    /// Every `(osd, name)` must encode identically in both stores.
    fn assert_same(shared: &MemStore, reference: &PerOsdStore, step: &Step) {
        prop_assert_eq!(shared.names(), reference.names(), "names after {:?}", step);
        for name in NAMES {
            for osd in 0..OSDS {
                let ours = shared.get(osd, name).map(Object::encode);
                let theirs = reference.get(osd, name).map(Object::encode);
                prop_assert!(ours == theirs, "OSD {} of {} after {:?}", osd, name, step);
            }
        }
    }

    fn run(steps: &[Step]) {
        let placement = PlacementMap::new(OSDS, 3, 16);
        let mut shared = MemStore::default();
        let mut reference = PerOsdStore::new(OSDS);
        let mut seq = SnapId(0);
        let mut applied: Vec<(Transaction, SnapId, Vec<OsdId>)> = Vec::new();
        for step in steps {
            match step {
                Step::Apply {
                    object,
                    acting,
                    ops,
                } => {
                    let tx = transaction(*object, ops);
                    applied.push((tx, seq, acting_set(&placement, *object, *acting)));
                }
                Step::Delete { object, acting } => {
                    let mut tx = Transaction::new(NAMES[*object]);
                    tx.delete();
                    applied.push((tx, seq, acting_set(&placement, *object, *acting)));
                }
                Step::Replay(i) if !applied.is_empty() => {
                    let again = applied[i % applied.len()].clone();
                    applied.push(again);
                }
                Step::Replay(_) => {}
                Step::Snapshot => seq = SnapId(seq.0 + 1),
                Step::Damage {
                    object,
                    osd,
                    offset,
                } => {
                    let name = NAMES[*object];
                    let ours = shared.diverge(*osd, name);
                    prop_assert_eq!(ours.is_some(), reference.get(*osd, name).is_some());
                    if let Some(obj) = ours {
                        obj.head.poke(*offset, 0xFF);
                    }
                    if let Some(obj) = reference.osds[*osd].get_mut(name) {
                        obj.head.poke(*offset, 0xFF);
                    }
                }
                Step::Repair(object) => {
                    let name = NAMES[*object];
                    let acting = placement.acting_set(name);
                    let (primary, replicas) = acting.split_first().unwrap();
                    let source = reference.get(primary.0, name).cloned();
                    prop_assert_eq!(shared.repair(name, primary.0, replicas), source.is_some());
                    if let Some(source) = source {
                        for osd in replicas {
                            reference.osds[osd.0].insert(name.to_string(), source.clone());
                        }
                    }
                }
                Step::Load { object, from, to } => {
                    let name = NAMES[*object];
                    if let Some(source) = reference.get(*from, name).cloned() {
                        let mut osds = OsdSet::default();
                        for osd in (0..OSDS).filter(|osd| to & (1 << osd) != 0) {
                            osds = osds.with(osd);
                            reference.osds[osd].insert(name.to_string(), source.clone());
                        }
                        shared.insert(name, osds, source);
                    }
                }
            }
            if matches!(
                step,
                Step::Apply { .. } | Step::Delete { .. } | Step::Replay(_)
            ) {
                if let Some((tx, seq, acting)) = applied.last() {
                    let tx = AppliedTx {
                        object: &tx.object,
                        snap_seq: *seq,
                        acting,
                        ops: &tx.ops,
                    };
                    apply_both(&mut shared, &mut reference, &tx);
                }
            }
            assert_same(&shared, &reference, step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 512 }
        ))]

        /// Sharing copies is unobservable: random sequences of
        /// transactions, snapshots, deletes, damage, repairs, replayed
        /// records and loaded replica files leave every OSD's view of
        /// every object byte-identical to the per-OSD store's, with
        /// identical effects.
        #[test]
        fn shared_copies_match_the_per_osd_store(
            steps in proptest::collection::vec(step(), 1..48)
        ) {
            run(&steps);
        }
    }

    fn write(name: &str, data: &[u8]) -> Transaction {
        let mut tx = Transaction::new(name);
        tx.write(0, data.to_vec());
        tx
    }

    #[test]
    fn replicas_hold_one_copy_until_one_diverges() {
        let acting = [OsdId(2), OsdId(0), OsdId(1)];
        let mut store = MemStore::default();
        let tx = write("obj", &[7; 64]);
        let applied = AppliedTx {
            object: &tx.object,
            snap_seq: SnapId(0),
            acting: &acting,
            ops: &tx.ops,
        };
        let mut effects = Vec::new();
        store.apply_ops(&applied, &mut effects);
        assert_eq!(store.copies("obj"), 1);
        let osds: Vec<OsdId> = effects.iter().map(|(osd, _)| *osd).collect();
        assert_eq!(osds, acting, "one effect per acting OSD, in acting order");

        store.diverge(1, "obj").unwrap().head.poke(0, 0xFF);
        assert_eq!(store.copies("obj"), 2);
        assert_eq!(store.get(1, "obj").unwrap().head.read(0, 1), vec![0xFF]);
        assert_eq!(store.get(0, "obj").unwrap().head.read(0, 1), vec![7]);
        assert!(
            store.get(3, "obj").is_none(),
            "an OSD outside the set holds nothing"
        );

        assert!(store.repair("obj", 2, &acting[1..]));
        assert_eq!(store.copies("obj"), 1, "repair drops the diverged copy");
        assert_eq!(store.get(1, "obj").unwrap().head.read(0, 1), vec![7]);
        assert!(!store.repair("absent", 2, &acting[1..]));
    }
}
