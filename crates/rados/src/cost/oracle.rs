//! The oracle for receipt pricing: the inline cost path receipts
//! replaced, kept verbatim. There the shard charged each applied op into
//! its OSD's [`OsdWork`] while it held the lock (`charge`) and built the
//! transaction's or read's plan on the spot (`write_plan`,
//! `read_plan`); a read of an absent object cost `read_plan` with no
//! work.
//!
//! The differential property drives twin clusters through one random
//! program: one twin through the public API, whose receipts
//! [`Testbed::plan_of`] prices, the other through the inline path
//! below, and asserts every IO's plan is identical.

use super::{ResourceHandles, Testbed, TestbedProfile};
use crate::backend::BackendKind;
use crate::cluster::Cluster;
use crate::object::PHYS_BLOCK;
use crate::placement::OsdId;
use crate::receipt::OpEffect;
use crate::transaction::{AppliedTx, ObjectReads, ReadOp, Transaction};
use crate::SnapId;
use proptest::prelude::*;
use vdisk_sim::{Plan, SimDuration};

/// Physical work one OSD performs for a transaction or read.
#[derive(Debug, Clone, Default)]
struct OsdWork {
    /// Read ops forced by read-modify-write, as (ops, total bytes).
    rmw_reads: (u64, u64),
    /// Bytes of each full-path disk write op.
    disk_writes: Vec<u64>,
    /// Bytes of each deferred (journaled) small write op.
    deferred_writes: Vec<u64>,
    /// Bytes of each disk read op (read path).
    disk_reads: Vec<u64>,
    /// Time the OMAP engine is busy for this op.
    kv_time: SimDuration,
    /// OMAP WAL bytes committed (charged to the disk).
    kv_wal_bytes: u64,
}

impl OsdWork {
    fn disk_plan(&self, handles: &ResourceHandles, profile: &TestbedProfile, osd: OsdId) -> Plan {
        let disk = handles.osd_disk[osd.0];
        let kv_res = handles.osd_kv[osd.0];

        let mut rmw = Vec::new();
        let (rmw_ops, rmw_bytes) = self.rmw_reads;
        if let Some(per) = rmw_bytes.checked_div(rmw_ops) {
            for _ in 0..rmw_ops {
                rmw.push(Plan::busy(disk, profile.disk_read_time(per)));
            }
        }
        let reads = Plan::par(
            self.disk_reads
                .iter()
                .map(|&bytes| Plan::busy(disk, profile.disk_read_time(bytes))),
        );
        let writes = Plan::seq(
            self.disk_writes
                .iter()
                .map(|&bytes| Plan::busy(disk, profile.disk_write_time(bytes)))
                .chain(
                    self.deferred_writes
                        .iter()
                        .map(|&bytes| Plan::busy(disk, profile.disk_deferred_time(bytes))),
                ),
        );
        let kv = if self.kv_time == SimDuration::ZERO && self.kv_wal_bytes == 0 {
            Plan::Noop
        } else {
            // The KV engine works while its WAL commit rides the disk.
            Plan::par([
                Plan::busy(kv_res, self.kv_time),
                Plan::busy(disk, profile.kv_wal_time(self.kv_wal_bytes)),
            ])
        };
        // RMW reads gate the writes; the KV engine and plain reads run
        // beside the data path.
        Plan::par([Plan::seq([Plan::par(rmw), writes]), reads, kv])
    }
}

/// Builds the cost plan of a replicated write.
///
/// Shape: client NIC → primary link → primary CPU → in parallel
/// {primary disk work; for each replica: link → CPU → disk work} →
/// ack.
fn write_plan(
    handles: &ResourceHandles,
    profile: &TestbedProfile,
    payload_bytes: u64,
    acting: &[OsdId],
    work: &[OsdWork],
) -> Plan {
    assert_eq!(acting.len(), work.len(), "one work item per acting OSD");
    let msg = payload_bytes + profile.msg_header_bytes;
    let primary = acting[0];

    let mut fanout: Vec<Plan> = Vec::with_capacity(acting.len());
    fanout.push(work[0].disk_plan(handles, profile, primary));
    for (osd, w) in acting.iter().zip(work.iter()).skip(1) {
        fanout.push(Plan::seq([
            Plan::op(handles.osd_link[osd.0], msg),
            Plan::op(handles.osd_cpu[osd.0], 0),
            w.disk_plan(handles, profile, *osd),
        ]));
    }

    Plan::seq([
        Plan::op(handles.client_nic_tx, msg),
        Plan::op(handles.osd_link[primary.0], msg),
        Plan::op(handles.osd_cpu[primary.0], 0),
        Plan::par(fanout),
        Plan::delay(profile.ack_delay),
    ])
}

/// Builds the cost plan of a read served by the primary.
fn read_plan(
    handles: &ResourceHandles,
    profile: &TestbedProfile,
    primary: OsdId,
    response_bytes: u64,
    work: &OsdWork,
) -> Plan {
    let req = profile.msg_header_bytes;
    let resp = response_bytes + profile.msg_header_bytes;
    Plan::seq([
        Plan::op(handles.client_nic_tx, req),
        Plan::op(handles.osd_link[primary.0], req),
        Plan::op(handles.osd_cpu[primary.0], 0),
        work.disk_plan(handles, profile, primary),
        Plan::op(handles.osd_link[primary.0], resp),
        Plan::op(handles.client_nic_rx, resp),
    ])
}

/// Folds the physical work of one applied op into its OSD's cost-model
/// input.
fn charge(testbed: &Testbed, work: &mut OsdWork, effect: OpEffect) {
    match effect {
        OpEffect::Write { len, profile } => {
            if len <= testbed.profile.deferred_write_threshold {
                // Small overwrite: the deferred/journal path absorbs it
                // without a foreground RMW.
                work.deferred_writes.push(profile.write_bytes);
            } else {
                work.rmw_reads.0 += profile.rmw_read_ops;
                work.rmw_reads.1 += profile.rmw_read_bytes;
                work.disk_writes.push(profile.write_bytes);
            }
        }
        OpEffect::Omap(receipt) => {
            work.kv_time += testbed.kv.write_time(&receipt);
            work.kv_wal_bytes += receipt.wal_bytes;
        }
    }
}

/// Applies `tx` on every replica the way the shard did before receipts,
/// charging as it goes, and returns its plan. (The programs below never
/// carry a precondition, and the twins are in-memory, so neither the
/// compare step nor the durable commit appears.)
fn apply_inline(cluster: &Cluster, testbed: &Testbed, tx: &Transaction) -> Plan {
    let cp = &cluster.control;
    let acting = cp.placement.acting_set(&tx.object);
    let applied = AppliedTx {
        object: &tx.object,
        snap_seq: cluster.snap_seq(),
        acting: &acting,
        ops: &tx.ops,
    };
    let mut effects = Vec::new();
    cluster
        .shard_for(&tx.object)
        .lock()
        .store
        .apply_ops(&applied, &mut effects);
    let work: Vec<OsdWork> = acting
        .iter()
        .map(|osd| {
            let mut osd_work = OsdWork::default();
            for &(_, effect) in effects.iter().filter(|(on, _)| on == osd) {
                charge(testbed, &mut osd_work, effect);
            }
            osd_work
        })
        .collect();
    write_plan(
        &testbed.handles,
        &testbed.profile,
        tx.payload_bytes(),
        &acting,
        &work,
    )
}

/// Serves `request` the way the shard did before receipts and returns
/// its plan; an object absent (now or at `snap`) costs the round trip.
fn read_inline(
    cluster: &Cluster,
    testbed: &Testbed,
    snap: Option<SnapId>,
    request: &ObjectReads,
) -> Plan {
    let (handles, profile) = (&testbed.handles, &testbed.profile);
    let primary = cluster.control.placement.primary(&request.object);
    let state = cluster.shard_for(&request.object).lock();
    let Some(content) = state
        .store
        .get(primary.0, &request.object)
        .and_then(|obj| obj.content_at(snap))
    else {
        return read_plan(handles, profile, primary, 0, &OsdWork::default());
    };
    let mut work = OsdWork::default();
    let mut response_bytes = 0u64;
    for op in &request.ops {
        match op {
            ReadOp::Read { offset, len } => {
                if *len > 0 {
                    let start_block = offset / PHYS_BLOCK;
                    let end_block = (offset + len).div_ceil(PHYS_BLOCK);
                    work.disk_reads.push((end_block - start_block) * PHYS_BLOCK);
                }
                response_bytes += *len;
            }
            ReadOp::OmapGetRange { start, end } => {
                let (_, receipt) = content.omap.range(start, end);
                work.kv_time += testbed.kv.read_time(&receipt);
                response_bytes += receipt.bytes_returned;
            }
            ReadOp::OmapGetKeys(keys) => {
                for key in keys {
                    let (value, receipt) = content.omap.get(key);
                    work.kv_time += testbed.kv.read_time(&receipt);
                    if let Some(value) = value {
                        response_bytes += (key.len() + value.len()) as u64;
                    }
                }
            }
            ReadOp::GetXattr(name) => {
                response_bytes += content.xattrs.get(name).map_or(0, Vec::len) as u64;
            }
            ReadOp::Stat => {}
        }
    }
    read_plan(handles, profile, primary, response_bytes, &work)
}

/// Objects the programs write; reads also address `ghost`, which no
/// program ever creates.
const OBJECTS: [&str; 4] = ["obj0", "obj1", "obj2", "ghost"];

#[derive(Debug, Clone)]
enum TxShape {
    Write {
        offset: u64,
        len: u64,
        fill: u8,
    },
    /// Several writes in one transaction, as the object-end layout
    /// issues its data and metadata extents: full-path and deferred
    /// writes in either order.
    Writes(Vec<(u64, u64)>),
    OmapSet(Vec<u8>),
    OmapRemove(Vec<u8>),
    Truncate(u64),
    SetXattr(u8),
    /// A data write and its per-sector OMAP entry in one transaction,
    /// the shape the OMAP layout issues.
    WriteWithOmap {
        offset: u64,
        len: u64,
        key: u8,
    },
    Delete,
}

#[derive(Debug, Clone)]
enum ReadShape {
    Data { offset: u64, len: u64 },
    OmapRange,
    OmapKeys(Vec<u8>),
    Xattr,
    Stat,
}

#[derive(Debug, Clone)]
enum Action {
    /// One batch, one transaction per entry.
    Write(Vec<(usize, TxShape)>),
    /// One batched read at the head (`None`) or at a snapshot taken
    /// earlier (by index, modulo how many exist).
    Read {
        snap: Option<usize>,
        requests: Vec<(usize, ReadShape)>,
    },
    Snapshot,
}

/// Offsets and lengths crowding the deferred-write threshold (2 KiB)
/// and the 4 KiB physical block, plus anything up to a few blocks.
fn extent() -> impl Strategy<Value = (u64, u64)> {
    let offset = prop_oneof![
        Just(0u64),
        4090u64..4100,
        (0u64..4).prop_map(|block| block * PHYS_BLOCK),
        0u64..20_000,
    ];
    let len = prop_oneof![
        2040u64..2060,
        4090u64..4100,
        Just(PHYS_BLOCK),
        1u64..64,
        1u64..14_000,
    ];
    (offset, len)
}

fn keys() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..12, 1..5)
}

fn tx_shape() -> impl Strategy<Value = TxShape> {
    prop_oneof![
        (extent(), any::<u8>()).prop_map(|((offset, len), fill)| TxShape::Write {
            offset,
            len,
            fill
        }),
        proptest::collection::vec(extent(), 2..4).prop_map(TxShape::Writes),
        keys().prop_map(TxShape::OmapSet),
        keys().prop_map(TxShape::OmapRemove),
        (0u64..20_000).prop_map(TxShape::Truncate),
        any::<u8>().prop_map(TxShape::SetXattr),
        (extent(), 0u8..12).prop_map(|((offset, len), key)| TxShape::WriteWithOmap {
            offset,
            len,
            key
        }),
        Just(TxShape::Delete),
    ]
}

fn read_shape() -> impl Strategy<Value = ReadShape> {
    prop_oneof![
        extent().prop_map(|(offset, len)| ReadShape::Data { offset, len }),
        (0u64..20_000).prop_map(|offset| ReadShape::Data { offset, len: 0 }),
        Just(ReadShape::OmapRange),
        keys().prop_map(ReadShape::OmapKeys),
        Just(ReadShape::Xattr),
        Just(ReadShape::Stat),
    ]
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        proptest::collection::vec((0usize..3, tx_shape()), 1..4).prop_map(Action::Write),
        proptest::collection::vec((0usize..3, tx_shape()), 1..4).prop_map(Action::Write),
        (
            proptest::option::of(0usize..8),
            proptest::collection::vec((0usize..4, read_shape()), 1..4)
        )
            .prop_map(|(snap, requests)| Action::Read { snap, requests }),
        Just(Action::Snapshot),
    ]
}

fn omap_key(key: u8) -> Vec<u8> {
    vec![b'k', key]
}

fn transaction(object: usize, shape: &TxShape) -> Transaction {
    let mut tx = Transaction::new(OBJECTS[object]);
    match shape {
        TxShape::Write { offset, len, fill } => tx.write(*offset, vec![*fill; *len as usize]),
        TxShape::Writes(extents) => extents.iter().fold(&mut tx, |tx, &(offset, len)| {
            tx.write(offset, vec![len as u8; len as usize])
        }),
        TxShape::OmapSet(keys) => tx.omap_set(
            keys.iter()
                .map(|&key| (omap_key(key), vec![key; 20]))
                .collect(),
        ),
        TxShape::OmapRemove(keys) => {
            tx.omap_remove(keys.iter().map(|&key| omap_key(key)).collect())
        }
        TxShape::Truncate(size) => tx.truncate(*size),
        TxShape::SetXattr(value) => tx.set_xattr("tag", vec![*value; 3]),
        TxShape::WriteWithOmap { offset, len, key } => tx
            .write(*offset, vec![*key; *len as usize])
            .omap_set(vec![(omap_key(*key), vec![*key; 20])]),
        TxShape::Delete => tx.delete(),
    };
    tx
}

fn request(object: usize, shape: &ReadShape) -> ObjectReads {
    let op = match shape {
        ReadShape::Data { offset, len } => ReadOp::Read {
            offset: *offset,
            len: *len,
        },
        ReadShape::OmapRange => ReadOp::OmapGetRange {
            start: Vec::new(),
            end: vec![0xFF],
        },
        ReadShape::OmapKeys(keys) => {
            ReadOp::OmapGetKeys(keys.iter().map(|&key| omap_key(key)).collect())
        }
        ReadShape::Xattr => ReadOp::GetXattr("tag".into()),
        ReadShape::Stat => ReadOp::Stat,
    };
    ObjectReads::new(OBJECTS[object], vec![op])
}

/// Runs `actions` on twin clusters and asserts every IO's priced
/// receipt equals its inline plan.
fn run_program(osds: usize, replicas: usize, actions: &[Action]) {
    let twin = || {
        Cluster::builder()
            .osd_count(osds)
            .replicas(replicas)
            .shard_count(2)
            .concurrent_apply(false)
            .backend(BackendKind::Memory)
            .build()
    };
    let (priced, inline) = (twin(), twin());
    let testbed = Testbed::new(TestbedProfile::default(), osds);
    let mut snaps: Vec<SnapId> = Vec::new();
    for (step, action) in actions.iter().enumerate() {
        match action {
            Action::Write(batch) => {
                let txs: Vec<Transaction> = batch
                    .iter()
                    .map(|(object, shape)| transaction(*object, shape))
                    .collect();
                let expected = Plan::par(txs.iter().map(|tx| apply_inline(&inline, &testbed, tx)));
                let receipt = match txs.len() {
                    1 => priced.execute(txs.into_iter().next().expect("one transaction")),
                    _ => priced.execute_batch(txs),
                }
                .expect("programs issue valid transactions");
                assert_eq!(
                    testbed.plan_of(&receipt),
                    expected,
                    "step {step}: {action:?}"
                );
            }
            Action::Read { snap, requests } => {
                let snap = snap.and_then(|i| snaps.get(i % snaps.len().max(1)).copied());
                let requests: Vec<ObjectReads> = requests
                    .iter()
                    .map(|(object, shape)| request(*object, shape))
                    .collect();
                let expected = Plan::par(
                    requests
                        .iter()
                        .map(|r| read_inline(&inline, &testbed, snap, r)),
                );
                let (_, receipt) = priced.read_batch(snap, requests).expect("reads");
                assert_eq!(
                    testbed.plan_of(&receipt),
                    expected,
                    "step {step}: {action:?}"
                );
            }
            Action::Snapshot => {
                let snap = priced.create_snap();
                assert_eq!(inline.create_snap(), snap);
                snaps.push(snap);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 2048 }
    ))]

    #[test]
    fn receipts_price_to_the_inline_plans(
        osds in 3usize..5,
        replicas in 1usize..4,
        actions in proptest::collection::vec(action(), 1..40)
    ) {
        run_program(osds, replicas, &actions);
    }
}
