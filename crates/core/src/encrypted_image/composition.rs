//! The encryption layer's part of a receipt, pinned against the inline
//! composition receipts replaced. A write's plan was its boundary-sector
//! reads (each a read's plan), then the encryption of the aligned span
//! split over the crypto lanes, then the dispatch; a read's was the
//! dispatch, then one decryption of the aligned span. The oracle
//! rebuilds that from the request alone — the aligned span, the
//! boundary sectors, the lane rule — with the crypto-plan builders as
//! they were, prices only the store's part of the receipt (pinned by
//! `vdisk-rados`' own oracle), and asserts the result equals what
//! [`Testbed::plan_of`] makes of the whole receipt. The lane count is
//! the testbed's crypto worker count, so the oracle also pins how
//! [`Testbed::plan_of`] splits a large write's cipher over them.

use crate::{EncryptedImage, EncryptionConfig, IoOp, MetaLayout, RekeyDriver};
use proptest::prelude::*;
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{
    BackendKind, Cluster, Receipt, ResourceHandles, SnapId, Testbed, TestbedProfile,
    DEFAULT_META_CACHE_BYTES,
};
use vdisk_rbd::Image;
use vdisk_sim::Plan;

const SS: u64 = 4096;
const OBJECT: u64 = 1 << 20;
const IMAGE: u64 = 4 * OBJECT;
/// Writes at least this large split their encryption over the lanes.
const PARALLEL_MIN: u64 = 128 << 10;

/// A plan occupying the client crypto workers for `bytes` of work.
fn crypto_plan(handles: &ResourceHandles, bytes: u64) -> Plan {
    Plan::op(handles.client_crypto, bytes)
}

/// `bytes` of crypto work split over `lanes` near-equal parallel
/// chunks; one op at one lane, or when the split would produce empty
/// chunks.
fn crypto_plan_parallel(handles: &ResourceHandles, bytes: u64, lanes: usize) -> Plan {
    if lanes <= 1 || bytes < lanes as u64 {
        return crypto_plan(handles, bytes);
    }
    let lanes = lanes as u64;
    let chunk = bytes / lanes;
    let remainder = bytes % lanes;
    Plan::par((0..lanes).map(|lane| {
        let extra = u64::from(lane < remainder);
        Plan::op(handles.client_crypto, chunk + extra)
    }))
}

/// The store's part of `receipt`, priced.
fn dispatch(testbed: &Testbed, receipt: &Receipt) -> Plan {
    testbed.plan_of(&Receipt {
        txs: receipt.txs.clone(),
        reads: receipt.reads.clone(),
        ..Receipt::default()
    })
}

/// The sector-aligned span covering `[offset, offset + len)`; empty for
/// an empty request.
fn aligned(offset: u64, len: u64) -> (u64, u64) {
    if len == 0 {
        return (offset, offset);
    }
    let start = offset / SS * SS;
    let end = (offset + len).div_ceil(SS) * SS;
    (start, end)
}

/// The inline plan of a read of `len` bytes whose store part is in
/// `receipt`.
fn read_oracle(testbed: &Testbed, receipt: &Receipt, offset: u64, len: u64) -> Plan {
    let (start, end) = aligned(offset, len);
    let crypto = if end == start {
        Plan::Noop
    } else {
        crypto_plan(testbed.handles(), end - start)
    };
    Plan::seq([dispatch(testbed, receipt), crypto])
}

/// The inline plan of a write of `len` bytes at `offset` on a client
/// with `lanes` crypto lanes.
fn write_oracle(testbed: &Testbed, receipt: &Receipt, offset: u64, len: u64, lanes: usize) -> Plan {
    let (start, end) = aligned(offset, len);
    let head = !offset.is_multiple_of(SS);
    let tail = !(offset + len).is_multiple_of(SS);
    // Only the partially written boundary sectors are read back; one
    // sector when both ends fall in it.
    let boundary: Vec<u64> = if len == 0 || !(head || tail) {
        Vec::new()
    } else if end - start == SS {
        vec![start]
    } else {
        [(head, start), (tail, end - SS)]
            .into_iter()
            .filter_map(|(partial, sector)| partial.then_some(sector))
            .collect()
    };
    assert_eq!(receipt.rmw.len(), boundary.len(), "boundary reads");
    let rmw = receipt
        .rmw
        .iter()
        .zip(&boundary)
        .map(|(read, &sector)| read_oracle(testbed, read, sector, SS));
    let bytes = end - start;
    let lanes = if lanes > 1 && bytes >= PARALLEL_MIN {
        lanes
    } else {
        1
    };
    let crypto = if bytes == 0 {
        Plan::Noop
    } else {
        crypto_plan_parallel(testbed.handles(), bytes, lanes)
    };
    Plan::seq([Plan::par(rmw), crypto, dispatch(testbed, receipt)])
}

#[derive(Debug, Clone)]
enum Action {
    /// `queued` goes through the queue at depth 1 instead of the sync
    /// call.
    Write {
        offset: u64,
        len: u64,
        fill: u8,
        queued: bool,
    },
    /// At the head, or at an earlier snapshot (by index, modulo how
    /// many exist).
    Read {
        offset: u64,
        len: u64,
        snap: Option<usize>,
        queued: bool,
    },
    Snapshot,
    /// Begins an online rekey, migrates its next window, or finishes
    /// it.
    Rekey,
}

/// Aligned, unaligned, object-spanning, past the parallel-crypto
/// threshold, and empty extents.
fn extent() -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        (0u64..IMAGE / SS, 1u64..40).prop_map(|(s, n)| (s * SS, n * SS)),
        (0u64..IMAGE, 1u64..70_000),
        (1u64..4, 1u64..9000, 1u64..9000)
            .prop_map(|(object, before, after)| (object * OBJECT - before, before + after)),
        (0u64..IMAGE / SS, 32u64..80).prop_map(|(s, n)| (s * SS, n * SS)),
        (0u64..IMAGE, 120_000u64..330_000),
        (0u64..IMAGE).prop_map(|offset| (offset, 0u64)),
    ]
    .prop_map(|(offset, len): (u64, u64)| (offset, len.min(IMAGE - offset)))
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (extent(), any::<u8>(), any::<bool>()).prop_map(|((offset, len), fill, queued)| {
            Action::Write {
                offset,
                len,
                fill,
                queued,
            }
        }),
        (extent(), proptest::option::of(0usize..4), any::<bool>()).prop_map(
            |((offset, len), snap, queued)| Action::Read {
                offset,
                len,
                snap,
                queued,
            }
        ),
        Just(Action::Snapshot),
        Just(Action::Rekey),
    ]
}

fn config(layout: usize) -> EncryptionConfig {
    match layout {
        0 => EncryptionConfig::luks2_baseline(),
        1 => EncryptionConfig::random_iv(MetaLayout::Unaligned),
        2 => EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        _ => EncryptionConfig::random_iv(MetaLayout::Omap),
    }
}

/// Submits `op` alone and fences: the queue at depth 1.
fn queued(disk: &mut EncryptedImage, op: IoOp) -> Receipt {
    let mut queue = disk.io_queue();
    queue.submit(op).expect("submit");
    let mut done = queue.fence().expect("fence");
    done.pop().expect("one completion").plan
}

fn run_program(layout: usize, cache: bool, lanes: usize, actions: &[Action]) {
    let cluster = Cluster::builder()
        .concurrent_apply(false)
        .backend(BackendKind::Memory)
        .meta_cache_bytes(if cache { DEFAULT_META_CACHE_BYTES } else { 0 })
        .build();
    let image = Image::create_with_object_size(&cluster, "composition", IMAGE, OBJECT).unwrap();
    let mut disk = EncryptedImage::format_with_iv_source(
        image,
        &config(layout),
        b"pass-0",
        Box::new(SeededIvSource::new(0xC0)),
    )
    .unwrap();
    let profile = TestbedProfile {
        crypto_servers: lanes,
        ..TestbedProfile::default()
    };
    let testbed = Testbed::new(profile, cluster.osd_count());
    let mut snaps: Vec<SnapId> = Vec::new();
    let mut rekey: Option<RekeyDriver> = None;
    let mut passphrase = 0u32;
    for (step, action) in actions.iter().enumerate() {
        match *action {
            Action::Write {
                offset,
                len,
                fill,
                queued: q,
            } => {
                let data = vec![fill; len as usize];
                let receipt = if q {
                    queued(&mut disk, IoOp::Write { offset, data })
                } else {
                    disk.write(offset, &data).unwrap()
                };
                let expected = write_oracle(&testbed, &receipt, offset, len, lanes);
                assert_eq!(
                    testbed.plan_of(&receipt),
                    expected,
                    "step {step}: {action:?}"
                );
            }
            Action::Read {
                offset,
                len,
                snap,
                queued: q,
            } => {
                let snap = snap.and_then(|i| snaps.get(i % snaps.len().max(1)).copied());
                let mut buf = vec![0u8; len as usize];
                let receipt = match snap {
                    Some(snap) => disk.read_at_snap(snap, offset, &mut buf).unwrap(),
                    None if q => queued(&mut disk, IoOp::Read { offset, len }),
                    None => disk.read(offset, &mut buf).unwrap(),
                };
                let expected = read_oracle(&testbed, &receipt, offset, len);
                assert_eq!(
                    testbed.plan_of(&receipt),
                    expected,
                    "step {step}: {action:?}"
                );
            }
            Action::Snapshot => snaps.push(disk.snap_create(&format!("s{step}")).unwrap()),
            Action::Rekey => match rekey.take() {
                None => {
                    let (old, new) = (
                        format!("pass-{passphrase}"),
                        format!("pass-{}", passphrase + 1),
                    );
                    let driver = disk
                        .rekey_begin_with_iterations(old.as_bytes(), new.as_bytes(), 1)
                        .unwrap()
                        .with_chunk_sectors(64)
                        .with_queue_depth(2);
                    passphrase += 1;
                    rekey = Some(driver);
                }
                Some(mut driver) => {
                    if driver.step(&mut disk).unwrap().is_complete() {
                        driver.finish(&mut disk).unwrap();
                    } else {
                        rekey = Some(driver);
                    }
                }
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 16 } else { 256 }
    ))]

    #[test]
    fn receipts_price_to_the_inline_composition(
        layout in 0usize..4,
        cache in any::<bool>(),
        lanes in prop_oneof![Just(1usize), Just(3usize)],
        actions in proptest::collection::vec(action(), 1..16)
    ) {
        run_program(layout, cache, lanes, &actions);
    }
}
