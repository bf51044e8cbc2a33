//! The client-side IV/metadata cache: skip the per-sector metadata
//! round trip on read-heavy workloads.
//!
//! The paper's cost argument (§3.3) is that storing per-sector IVs
//! costs extra physical accesses on **every** read: the object-end
//! layout adds a second read extent per object, OMAP adds a key-value
//! range lookup. Both are pure overhead for data that changes only on
//! writes — exactly what a client-side read cache amortizes away. The
//! cache holds the raw persisted metadata entries (IV ‖ optional MAC ‖
//! optional snapshot-binding sequence), keyed by logical sector
//! number, for the **head** of one [`crate::EncryptedImage`].
//!
//! # Correctness under the submission-queue API
//!
//! Completions are reaped out of band, so the cache is filled **at
//! reap time** with entries fetched at some earlier submit time. The
//! window in between is the hazard: a queued overwrite (or a snapshot)
//! landing inside it would make the fetched entries stale before they
//! ever enter the cache. Two rules close the hazard, both keyed by
//! submission order rather than wall clock:
//!
//! 1. **Invalidate on write submit**: when a write is submitted, every
//!    cached entry it overwrites is dropped immediately (counted in
//!    `ExecStats::meta_cache_invalidations`), and
//!    [`vdisk_rados::Cluster`] advances the touched shards'
//!    write-submission epochs before any of the write can apply.
//! 2. **Validate fills against the epoch**: a read captures its
//!    extents' shard epochs *before* submitting; at reap, an extent's
//!    fetched metadata enters the cache only if its shard epoch is
//!    unchanged (and the cache generation didn't change — snapshots
//!    bump it). Per-shard FIFO means an unchanged epoch proves no
//!    overwrite was even *submitted* to that shard in the window.
//!
//! Cache **hits** need no epoch check: ops on one image's queue are
//! serialized by the `&mut` borrow, so an entry present at submit
//! reflects every write submitted before this read — and per-shard
//! FIFO orders the read's data fetch before any later write.
//!
//! The cache counts itself: every hit, miss, invalidation and
//! write-through fill adds to running totals kept under its lock,
//! which [`crate::EncryptedImage::meta_cache_stats`] returns. The
//! store below keeps no cache counters.
//!
//! Eviction is CLOCK (second chance): one referenced bit per resident
//! sector, a hand that sweeps on insert. Hot IV entries of a
//! read-heavy working set survive scans of cold ranges at a fraction
//! of LRU's bookkeeping.
//!
//! The cache is enabled only for layouts whose metadata costs a
//! separate fetch ([`crate::MetaLayout::ObjectEnd`] and
//! [`crate::MetaLayout::Omap`]); the baseline has no metadata and the
//! unaligned layout interleaves it into the data extent, so there is
//! no round trip to save. Size it (or disable it with `0`) via
//! [`vdisk_rados::ClusterBuilder::meta_cache_bytes`].

use std::collections::HashMap;
use vdisk_rados::sync::{LockClass, OrderedGuard, OrderedMutex};
use vdisk_rados::ExecStats;

/// One resident sector's entry.
struct Slot {
    /// Logical sector number (image-absolute).
    lba: u64,
    /// Raw persisted metadata entry (`entry_len` bytes).
    meta: Box<[u8]>,
    /// CLOCK second-chance bit: set on hit, cleared by the sweeping
    /// hand; a slot is evicted only after a full sweep without a hit.
    referenced: bool,
}

struct CacheInner {
    /// lba → index into `slots`.
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// CLOCK hand: next slot the eviction sweep inspects.
    hand: usize,
    /// Bumped by [`MetaCache::invalidate_all`] (snapshots): fills
    /// captured before the wipe are rejected.
    generation: u64,
    /// Running totals since the cache was built; only the four
    /// `meta_cache_*` fields move.
    totals: ExecStats,
}

impl LockClass for CacheInner {
    const NAME: &'static str = "MetaCache::inner";
}

/// A read-only, sector-granular cache of persisted IV/metadata entries
/// for one encrypted image (see the [module docs](self) for the
/// invalidation contract).
pub(crate) struct MetaCache {
    /// `None` when disabled (zero budget, or a layout with no separate
    /// metadata round trip).
    inner: Option<OrderedMutex<CacheInner>>,
    entry_len: usize,
    capacity: usize,
}

impl MetaCache {
    /// Builds a cache of up to `budget_bytes / entry_len` sectors.
    /// Disabled (every call a no-op) unless `separate_meta_io` holds,
    /// `entry_len > 0`, and the budget fits at least one entry.
    pub(crate) fn new(budget_bytes: u64, entry_len: usize, separate_meta_io: bool) -> MetaCache {
        let capacity = if separate_meta_io && entry_len > 0 {
            usize::try_from(budget_bytes / entry_len as u64).unwrap_or(usize::MAX)
        } else {
            0
        };
        MetaCache {
            inner: (capacity > 0).then(|| {
                OrderedMutex::new(CacheInner {
                    map: HashMap::new(),
                    slots: Vec::new(),
                    hand: 0,
                    generation: 0,
                    totals: ExecStats::default(),
                })
            }),
            entry_len,
            capacity,
        }
    }

    /// Whether lookups can ever hit.
    pub(crate) fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resident sector capacity (0 when disabled).
    pub(crate) fn capacity_sectors(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> Option<OrderedGuard<'_, CacheInner>> {
        self.inner.as_ref().map(|m| m.lock())
    }

    /// The current generation; captured at read submit and re-checked
    /// by [`MetaCache::fill`] so fills never span an
    /// [`MetaCache::invalidate_all`].
    pub(crate) fn generation(&self) -> u64 {
        self.lock().map_or(0, |inner| inner.generation)
    }

    /// Sectors currently resident (observability and tests).
    pub(crate) fn resident_sectors(&self) -> usize {
        self.lock().map_or(0, |inner| inner.map.len())
    }

    /// The hit, miss, invalidation and write-fill totals since the
    /// cache was built (all 0 when disabled); every other field is 0.
    pub(crate) fn stats(&self) -> ExecStats {
        self.lock()
            .map_or_else(ExecStats::default, |inner| inner.totals)
    }

    /// Looks up a whole extent (`count` sectors from `base_lba`):
    /// returns the packed metadata run — the exact shape
    /// `SectorCodec::decrypt_sectors` takes — only if **every** sector
    /// is resident, counting the extent's sectors as hits. Partial hits
    /// return `None` and count as misses: the extent's metadata is
    /// fetched in one store op either way, so a partial hit saves
    /// nothing.
    pub(crate) fn lookup_extent(&self, base_lba: u64, count: u64) -> Option<Vec<u8>> {
        let mut inner = self.lock()?;
        // Residency first, side effects second: a partial hit saves
        // nothing, so it must neither refresh CLOCK bits (that would
        // make cold, never-served extents outlive genuinely hit
        // sectors) nor pack entries it is about to discard.
        if (base_lba..base_lba + count).any(|lba| !inner.map.contains_key(&lba)) {
            inner.totals.meta_cache_misses += count;
            return None;
        }
        inner.totals.meta_cache_hits += count;
        let mut packed = Vec::with_capacity(count as usize * self.entry_len);
        for lba in base_lba..base_lba + count {
            let slot_idx = inner.map[&lba];
            let slot = &mut inner.slots[slot_idx];
            slot.referenced = true;
            packed.extend_from_slice(&slot.meta);
        }
        Some(packed)
    }

    /// Fills `count = metas.len() / entry_len` sectors from `base_lba`
    /// with their entries — called at reap time, for both read fills
    /// and write-through fills. The fill is abandoned wholesale if
    /// `expected_generation` is stale (an
    /// [`MetaCache::invalidate_all`] landed since the op was
    /// submitted); the caller has already checked the shard epoch.
    /// Returns the number of entries installed (0 when abandoned or
    /// disabled).
    pub(crate) fn fill(&self, base_lba: u64, metas: &[u8], expected_generation: u64) -> u64 {
        let Some(mut inner) = self.lock() else {
            return 0;
        };
        if inner.generation != expected_generation {
            return 0;
        }
        debug_assert_eq!(metas.len() % self.entry_len, 0, "whole entries only");
        let mut installed = 0;
        for (i, entry) in metas.chunks_exact(self.entry_len).enumerate() {
            inner.insert(base_lba + i as u64, entry, self.capacity);
            installed += 1;
        }
        installed
    }

    /// Counts `fills` entries a write installed through
    /// [`MetaCache::fill`] at its reap (write-through fills); read
    /// fills are not counted.
    pub(crate) fn count_write_fills(&self, fills: u64) {
        if let Some(mut inner) = self.lock() {
            inner.totals.meta_cache_write_fills += fills;
        }
    }

    /// Drops every cached entry in `[base_lba, base_lba + count)` —
    /// the write-submit hook. Returns how many sectors were actually
    /// resident (the `meta_cache_invalidations` delta).
    pub(crate) fn invalidate_range(&self, base_lba: u64, count: u64) -> u64 {
        let Some(mut inner) = self.lock() else {
            return 0;
        };
        let mut removed = 0;
        for lba in base_lba..base_lba + count {
            if inner.remove(lba) {
                removed += 1;
            }
        }
        inner.totals.meta_cache_invalidations += removed;
        removed
    }

    /// Drops everything and bumps the generation (the snapshot hook),
    /// abandoning any in-flight fills. Returns the sectors dropped.
    pub(crate) fn invalidate_all(&self) -> u64 {
        let Some(mut inner) = self.lock() else {
            return 0;
        };
        let removed = inner.map.len() as u64;
        inner.map.clear();
        inner.slots.clear();
        inner.hand = 0;
        inner.generation += 1;
        inner.totals.meta_cache_invalidations += removed;
        removed
    }
}

impl CacheInner {
    /// Inserts (or refreshes) one sector's entry, evicting via CLOCK
    /// when at capacity.
    fn insert(&mut self, lba: u64, entry: &[u8], capacity: usize) {
        if let Some(&slot_idx) = self.map.get(&lba) {
            let slot = &mut self.slots[slot_idx];
            slot.meta.copy_from_slice(entry);
            slot.referenced = true;
            return;
        }
        if self.slots.len() < capacity {
            self.map.insert(lba, self.slots.len());
            self.slots.push(Slot {
                lba,
                meta: entry.into(),
                referenced: false,
            });
            return;
        }
        // CLOCK sweep: give referenced slots a second chance, take the
        // first unreferenced one. Bounded: after one full sweep every
        // bit is clear, so the second pass always stops.
        let victim = loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[idx];
            if slot.referenced {
                slot.referenced = false;
            } else {
                break idx;
            }
        };
        self.map.remove(&self.slots[victim].lba);
        self.map.insert(lba, victim);
        let slot = &mut self.slots[victim];
        slot.lba = lba;
        slot.meta.copy_from_slice(entry);
        slot.referenced = false;
    }

    /// Removes one sector if resident. The vacated slot is filled by
    /// swapping in the last slot (O(1), keeps `slots` dense for the
    /// CLOCK sweep).
    fn remove(&mut self, lba: u64) -> bool {
        let Some(slot_idx) = self.map.remove(&lba) else {
            return false;
        };
        let last = self.slots.len() - 1;
        if slot_idx != last {
            self.slots.swap(slot_idx, last);
            let moved_lba = self.slots[slot_idx].lba;
            self.map.insert(moved_lba, slot_idx);
        }
        self.slots.pop();
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_sectors: u64) -> MetaCache {
        MetaCache::new(capacity_sectors * 16, 16, true)
    }

    fn entry(tag: u8) -> Vec<u8> {
        vec![tag; 16]
    }

    #[test]
    fn disabled_configurations_never_hit() {
        for c in [
            MetaCache::new(0, 16, true),     // zero budget
            MetaCache::new(4096, 0, true),   // no metadata at all
            MetaCache::new(4096, 16, false), // metadata rides the data extent
            MetaCache::new(8, 16, true),     // budget below one entry
        ] {
            assert!(!c.enabled());
            assert_eq!(c.capacity_sectors(), 0);
            c.fill(0, &entry(1), 0);
            assert_eq!(c.lookup_extent(0, 1), None);
            assert_eq!(c.invalidate_range(0, 10), 0);
            assert_eq!(c.invalidate_all(), 0);
        }
    }

    #[test]
    fn fill_then_lookup_round_trips_packed_runs() {
        let c = cache(8);
        let mut run = Vec::new();
        for tag in 0..4u8 {
            run.extend_from_slice(&entry(tag));
        }
        c.fill(100, &run, c.generation());
        assert_eq!(c.resident_sectors(), 4);
        assert_eq!(c.lookup_extent(100, 4).as_deref(), Some(&run[..]));
        // Partial coverage misses wholesale.
        assert_eq!(c.lookup_extent(99, 2), None);
        assert_eq!(c.lookup_extent(103, 2), None);
        // Sub-extents hit.
        assert_eq!(c.lookup_extent(101, 2).as_deref(), Some(&run[16..48]));
    }

    #[test]
    fn invalidate_range_counts_only_resident_sectors() {
        let c = cache(8);
        c.fill(10, &[entry(1), entry(2)].concat(), 0);
        // [5, 15) covers both resident sectors plus eight absent ones.
        assert_eq!(c.invalidate_range(5, 10), 2);
        assert_eq!(c.invalidate_range(5, 10), 0, "already gone");
        assert_eq!(c.lookup_extent(10, 1), None);
    }

    #[test]
    fn stale_generation_fills_are_abandoned() {
        let c = cache(8);
        let g = c.generation();
        assert_eq!(c.invalidate_all(), 0);
        c.fill(0, &entry(7), g); // captured before the wipe
        assert_eq!(c.resident_sectors(), 0, "stale fill must be dropped");
        c.fill(0, &entry(7), c.generation());
        assert_eq!(c.resident_sectors(), 1);
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_slots() {
        let c = cache(4);
        for lba in 0..4u64 {
            c.fill(lba, &entry(lba as u8), 0);
        }
        // Touch 0..3; sector 3 is the only unreferenced slot.
        assert!(c.lookup_extent(0, 3).is_some());
        c.fill(10, &entry(10), 0);
        assert_eq!(c.lookup_extent(3, 1), None, "cold slot evicted");
        for lba in [0u64, 1, 2, 10] {
            assert!(c.lookup_extent(lba, 1).is_some(), "hot sector {lba} kept");
        }
    }

    #[test]
    fn partial_lookups_have_no_side_effects() {
        let c = cache(2);
        c.fill(0, &[entry(0), entry(1)].concat(), 0);
        // Partial miss over [1, 3): sector 1 must NOT gain a second
        // chance from a lookup that served nothing.
        assert_eq!(c.lookup_extent(1, 2), None);
        assert!(c.lookup_extent(0, 1).is_some(), "reference sector 0 only");
        c.fill(9, &entry(9), 0);
        assert!(c.lookup_extent(0, 1).is_some(), "hit sector survives");
        assert_eq!(c.lookup_extent(1, 1), None, "cold sector evicted");
    }

    #[test]
    fn eviction_terminates_when_everything_is_referenced() {
        let c = cache(3);
        for lba in 0..3u64 {
            c.fill(lba, &entry(lba as u8), 0);
        }
        assert!(c.lookup_extent(0, 3).is_some(), "reference every slot");
        // All bits set: the sweep clears one full lap, then evicts.
        c.fill(50, &entry(50), 0);
        assert_eq!(c.resident_sectors(), 3);
        assert!(c.lookup_extent(50, 1).is_some());
    }

    #[test]
    fn refill_refreshes_in_place() {
        let c = cache(2);
        c.fill(5, &entry(1), 0);
        c.fill(5, &entry(2), 0);
        assert_eq!(c.resident_sectors(), 1);
        assert_eq!(c.lookup_extent(5, 1).as_deref(), Some(&entry(2)[..]));
    }

    #[test]
    fn remove_keeps_the_ring_dense() {
        let c = cache(4);
        for lba in 0..4u64 {
            c.fill(lba, &entry(lba as u8), 0);
        }
        assert_eq!(c.invalidate_range(1, 1), 1);
        assert_eq!(c.resident_sectors(), 3);
        // Survivors still resolve through the swapped slot.
        for lba in [0u64, 2, 3] {
            assert_eq!(
                c.lookup_extent(lba, 1).as_deref(),
                Some(&entry(lba as u8)[..])
            );
        }
        // And the ring still inserts/evicts correctly after the swap.
        c.fill(20, &entry(20), 0);
        c.fill(21, &entry(21), 0);
        assert_eq!(c.resident_sectors(), 4);
    }
}
