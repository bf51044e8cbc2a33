//! Properties of the client-side IV/metadata cache under the
//! submission-queue API: any interleaving of queued overwrites,
//! snapshots, and cached reads through [`EncryptedIoQueue`] — with
//! fences and polls at arbitrary points — is **byte-identical** to a
//! sequential replay of the same operations on a disk with the cache
//! disabled. No interleaving may ever serve stale IV/metadata: a stale
//! IV would decrypt an overwritten sector to garbage, so byte-identity
//! *is* the staleness check.
//!
//! On top of identity, the cache's accounting must balance: every
//! head-read sector is classified as exactly one hit or miss, every
//! resident entry traces back to a missed fetch, and a full overwrite
//! at the end invalidates — and counts — every resident sector.

use proptest::prelude::*;
use vdisk_core::{EncryptedImage, EncryptionConfig, IoOp, IoPayload, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{Cluster, SnapId};
use vdisk_rbd::Image;

const IMAGE_SIZE: u64 = 4 << 20;
const OBJECT_SIZE: u64 = 1 << 20;
const SECTOR: u64 = 4096;

#[derive(Debug, Clone)]
enum Action {
    Write { offset: u64, len: usize, fill: u8 },
    Read { offset: u64, len: usize },
    Snapshot,
    SnapRead { offset: u64, len: usize },
    Fence,
    Poll,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let span = (0u64..IMAGE_SIZE, 1usize..150_000);
    prop_oneof![
        (0u64..IMAGE_SIZE, 1usize..150_000, any::<u8>()).prop_map(|(offset, len, fill)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Write { offset, len, fill }
        }),
        span.clone().prop_map(|(offset, len)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::Read { offset, len }
        }),
        Just(Action::Snapshot),
        span.prop_map(|(offset, len)| {
            let len = len.min((IMAGE_SIZE - offset) as usize);
            Action::SnapRead { offset, len }
        }),
        Just(Action::Fence),
        Just(Action::Poll),
    ]
}

fn make_disk(layout: MetaLayout, cache: bool, seed: u64) -> EncryptedImage {
    // Workers forced on so reaps genuinely race applies on any host;
    // the cache must stay coherent under every timing.
    let builder = Cluster::builder().concurrent_apply(true);
    let cluster = if cache {
        builder.build()
    } else {
        builder.meta_cache_bytes(0).build()
    };
    let image = Image::create_with_object_size(&cluster, "prop", IMAGE_SIZE, OBJECT_SIZE).unwrap();
    EncryptedImage::format_with_iv_source(
        image,
        &EncryptionConfig::random_iv(layout),
        b"property",
        Box::new(SeededIvSource::new(seed)),
    )
    .unwrap()
}

/// Sectors of the aligned span a head read of `[offset, offset+len)`
/// covers — the unit `meta_cache_hits`/`meta_cache_misses` count in.
fn span_sectors(offset: u64, len: usize) -> u64 {
    (offset + len as u64).div_ceil(SECTOR) - offset / SECTOR
}

/// Boundary sectors an unaligned write reads (and therefore classifies
/// as cache hits/misses) before dispatch; 0 for aligned writes.
fn rmw_sectors(offset: u64, len: usize) -> u64 {
    let end = offset + len as u64;
    if offset.is_multiple_of(SECTOR) && end.is_multiple_of(SECTOR) {
        return 0;
    }
    let first = offset / SECTOR;
    let last = (end - 1) / SECTOR;
    if first == last {
        1
    } else {
        u64::from(!offset.is_multiple_of(SECTOR)) + u64::from(!end.is_multiple_of(SECTOR))
    }
}

fn reap(results: Vec<vdisk_core::IoResult>, seen: &mut Vec<(u64, Vec<u8>)>) {
    for result in results {
        if let IoPayload::Data(data) = result.payload {
            seen.push((result.completion.id(), data));
        }
    }
}

fn run_case(layout: MetaLayout, actions: &[Action]) {
    let mut cached = make_disk(layout, true, 0xF00D);
    let mut plain = make_disk(layout, false, 0xBEEF);
    assert!(cached.meta_cache_capacity_sectors() as u64 > IMAGE_SIZE / SECTOR);

    // Model: an in-memory mirror updated in submission order, plus the
    // mirror as of each snapshot (a snapshot covers every write
    // *submitted* before it — submission order, not apply order).
    let mut mirror = vec![0u8; IMAGE_SIZE as usize];
    let mut snaps: Vec<(SnapId, SnapId, Vec<u8>)> = Vec::new();
    let mut expected_reads: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut seen_reads: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut cacheable_sectors = 0u64;

    let mut queue = cached.io_queue();
    for (i, action) in actions.iter().enumerate() {
        match action {
            Action::Write { offset, len, fill } => {
                let data = vec![*fill; *len];
                mirror[*offset as usize..*offset as usize + len].copy_from_slice(&data);
                cacheable_sectors += rmw_sectors(*offset, *len);
                queue
                    .submit(IoOp::Write {
                        offset: *offset,
                        data: data.clone(),
                    })
                    .unwrap();
                plain.write_owned(*offset, data).unwrap();
            }
            Action::Read { offset, len } => {
                let completion = queue
                    .submit(IoOp::Read {
                        offset: *offset,
                        len: *len as u64,
                    })
                    .unwrap();
                expected_reads.push((
                    completion.id(),
                    mirror[*offset as usize..*offset as usize + len].to_vec(),
                ));
                cacheable_sectors += span_sectors(*offset, *len);
            }
            Action::Snapshot => {
                let name = format!("s{i}");
                let id_cached = queue.backend().snap_create(&name).unwrap();
                let id_plain = plain.snap_create(&name).unwrap();
                snaps.push((id_cached, id_plain, mirror.clone()));
            }
            Action::SnapRead { offset, len } => {
                let Some((id_cached, id_plain, at_snap)) = snaps.last() else {
                    continue;
                };
                // Synchronous snapshot reads ride the same shard FIFOs,
                // so they order after every queued write — and bypass
                // the cache in both directions.
                let mut a = vec![0u8; *len];
                let mut b = vec![0u8; *len];
                queue
                    .backend()
                    .read_at_snap(*id_cached, *offset, &mut a)
                    .unwrap();
                plain.read_at_snap(*id_plain, *offset, &mut b).unwrap();
                let expected = &at_snap[*offset as usize..*offset as usize + len];
                assert_eq!(a, expected, "cached disk snapshot read diverged");
                assert_eq!(b, expected, "plain disk snapshot read diverged");
            }
            Action::Fence => reap(queue.fence().unwrap(), &mut seen_reads),
            Action::Poll => reap(queue.poll().unwrap(), &mut seen_reads),
        }
    }
    reap(queue.fence().unwrap(), &mut seen_reads);
    drop(queue);

    // Every queued read decrypted exactly the model bytes at its
    // submission point — whatever writes, snapshots, fills, and
    // invalidations were in flight around it.
    seen_reads.sort_by_key(|(id, _)| *id);
    assert_eq!(seen_reads.len(), expected_reads.len());
    for ((id_seen, data), (id_expected, expected)) in seen_reads.iter().zip(&expected_reads) {
        assert_eq!(id_seen, id_expected);
        assert_eq!(data, expected, "queued cached read {id_seen} diverged");
    }

    // Final plaintext state: cached interleaved run == cache-off
    // sequential replay == model, byte for byte.
    let mut from_cached = vec![0u8; IMAGE_SIZE as usize];
    let mut from_plain = vec![0u8; IMAGE_SIZE as usize];
    cached.read(0, &mut from_cached).unwrap();
    plain.read(0, &mut from_plain).unwrap();
    assert_eq!(from_cached, mirror, "cached disk final state diverged");
    assert_eq!(from_plain, mirror, "plain disk final state diverged");
    cacheable_sectors += IMAGE_SIZE / SECTOR; // the verification read

    // Accounting balances: every head-read sector is exactly one hit
    // or miss; every resident or invalidated entry traces to a missed
    // fetch or a write-through fill (the capacity exceeds the image,
    // so eviction never hides one).
    let stats = cached.meta_cache_stats();
    assert_eq!(
        stats.meta_cache_hits + stats.meta_cache_misses,
        cacheable_sectors,
        "hit/miss accounting must cover every cacheable sector exactly once"
    );
    let resident = cached.meta_cache_resident_sectors() as u64;
    assert!(
        resident + stats.meta_cache_invalidations
            <= stats.meta_cache_misses + stats.meta_cache_write_fills,
        "cache entries from nowhere: resident {resident} + invalidated {} > misses {} + fills {}",
        stats.meta_cache_invalidations,
        stats.meta_cache_misses,
        stats.meta_cache_write_fills
    );

    // A full overwrite must invalidate — and account — every resident
    // cached sector, exactly once; completing, it write-through fills
    // the whole image's fresh entries.
    let inv_before = stats.meta_cache_invalidations;
    cached
        .write_owned(0, vec![0xEE; IMAGE_SIZE as usize])
        .unwrap();
    let stats = cached.meta_cache_stats();
    assert_eq!(
        stats.meta_cache_invalidations - inv_before,
        resident,
        "every overwritten cached sector is accounted"
    );
    assert_eq!(
        cached.meta_cache_resident_sectors() as u64,
        IMAGE_SIZE / SECTOR,
        "the overwrite's own entries enter the cache at its completion"
    );
}

/// The per-op contract: summing the `meta_cache_*` deltas over every
/// reaped `IoResult` reconciles exactly with the image's own totals
/// (`EncryptedImage::meta_cache_stats`) — including the
/// boundary-sector RMW reads a queued unaligned write performs at
/// submit.
#[test]
fn per_op_deltas_reconcile_with_image_totals() {
    let mut disk = make_disk(MetaLayout::ObjectEnd, true, 0xACC7);
    let mut queue = disk.io_queue();
    let (mut hits, mut misses, mut invalidations, mut fills) = (0u64, 0u64, 0u64, 0u64);
    let mut tally = |results: Vec<vdisk_core::IoResult>| {
        for r in results {
            hits += r.stats.meta_cache_hits;
            misses += r.stats.meta_cache_misses;
            invalidations += r.stats.meta_cache_invalidations;
            fills += r.stats.meta_cache_write_fills;
        }
    };
    // Seed four sectors, cache them, then: an unaligned overwrite
    // whose boundary sector is cached (an RMW hit + an invalidation),
    // a re-read (partly re-fetching), and an aligned overwrite.
    queue
        .submit(IoOp::Write {
            offset: 0,
            data: vec![1; 16384],
        })
        .unwrap();
    queue
        .submit(IoOp::Read {
            offset: 0,
            len: 16384,
        })
        .unwrap();
    tally(queue.fence().unwrap());
    queue
        .submit(IoOp::Write {
            offset: 100,
            data: vec![2; 1000],
        })
        .unwrap();
    queue
        .submit(IoOp::Read {
            offset: 0,
            len: 16384,
        })
        .unwrap();
    queue
        .submit(IoOp::Write {
            offset: 4096,
            data: vec![3; 8192],
        })
        .unwrap();
    tally(queue.fence().unwrap());
    drop(queue);

    let stats = disk.meta_cache_stats();
    assert!(hits > 0, "the RMW boundary read must have hit the cache");
    assert!(invalidations > 0);
    assert!(
        fills > 0,
        "queued writes must report their write-through fills"
    );
    assert_eq!(
        (hits, misses, invalidations, fills),
        (
            stats.meta_cache_hits,
            stats.meta_cache_misses,
            stats.meta_cache_invalidations,
            stats.meta_cache_write_fills
        ),
        "per-op IoResult deltas must sum to the image totals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_interleavings_match_uncached_sequential_replay_object_end(
        actions in proptest::collection::vec(action_strategy(), 4..16)
    ) {
        run_case(MetaLayout::ObjectEnd, &actions);
    }

    #[test]
    fn cached_interleavings_match_uncached_sequential_replay_omap(
        actions in proptest::collection::vec(action_strategy(), 4..12)
    ) {
        run_case(MetaLayout::Omap, &actions);
    }
}
