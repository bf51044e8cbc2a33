//! CRUSH-like deterministic placement: object name → placement group →
//! ordered set of OSDs (primary first).
//!
//! Real Ceph uses CRUSH with straw2 buckets; we reproduce its two
//! essential properties — determinism (any client computes the same
//! mapping with no directory lookup) and uniformity (objects spread
//! evenly over PGs and OSDs).

/// Identifies an OSD (index into the cluster's OSD list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OsdId(pub usize);

/// The placement function.
#[derive(Debug, Clone)]
pub struct PlacementMap {
    osd_count: usize,
    replicas: usize,
    pg_count: u64,
}

fn stable_hash(parts: &[&[u8]]) -> u64 {
    // FNV-1a: stable across processes and platforms (unlike
    // `DefaultHasher`, whose keys are unspecified).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator to avoid ambiguity between part boundaries.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl PlacementMap {
    /// Creates a placement map.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or exceeds `osd_count`, or if
    /// `pg_count` is zero.
    #[must_use]
    pub fn new(osd_count: usize, replicas: usize, pg_count: u64) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        assert!(
            replicas <= osd_count,
            "cannot place {replicas} replicas on {osd_count} OSDs"
        );
        assert!(pg_count >= 1, "need at least one placement group");
        PlacementMap {
            osd_count,
            replicas,
            pg_count,
        }
    }

    /// Placement group of an object.
    #[must_use]
    pub fn pg_of(&self, object: &str) -> u64 {
        stable_hash(&[object.as_bytes()]) % self.pg_count
    }

    /// The acting set for an object: `replicas` distinct OSDs, primary
    /// first. Straw2-style: every OSD draws a hash lot per PG; the
    /// highest lots win.
    #[must_use]
    pub fn acting_set(&self, object: &str) -> Vec<OsdId> {
        let mut lots: Vec<(u64, usize)> = self.lots(object).collect();
        lots.sort_unstable_by(|a, b| b.cmp(a));
        lots.truncate(self.replicas);
        lots.into_iter().map(|(_, osd)| OsdId(osd)).collect()
    }

    /// The primary OSD for an object: the first of its acting set,
    /// found without building the set.
    #[must_use]
    pub fn primary(&self, object: &str) -> OsdId {
        self.lots(object)
            .max()
            .map_or(OsdId(0), |(_, osd)| OsdId(osd))
    }

    /// Every OSD's `(lot, osd)` draw for an object's PG. The pairs are
    /// distinct (the OSDs are), so ordering them is total.
    fn lots(&self, object: &str) -> impl Iterator<Item = (u64, usize)> {
        let pg = self.pg_of(object).to_le_bytes();
        (0..self.osd_count).map(move |osd| (stable_hash(&[&pg, &osd.to_le_bytes()]), osd))
    }

    /// The state shard an object belongs to, for a cluster split into
    /// `shard_count` shards. Derived from the placement group so that
    /// an object's entire acting set (primary and replicas) lands in
    /// one shard and the mapping stays deterministic across clients.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    #[must_use]
    pub fn shard_of(&self, object: &str, shard_count: usize) -> usize {
        assert!(shard_count >= 1, "need at least one shard");
        (self.pg_of(object) % shard_count as u64) as usize
    }

    /// Number of replicas per object.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of OSDs.
    #[must_use]
    pub fn osd_count(&self) -> usize {
        self.osd_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic() {
        let p = PlacementMap::new(3, 3, 128);
        for name in ["a", "rbd_data.x.0000000000000001", "zzz"] {
            assert_eq!(p.acting_set(name), p.acting_set(name));
        }
    }

    #[test]
    fn acting_set_is_distinct_and_sized() {
        let p = PlacementMap::new(5, 3, 128);
        for i in 0..200 {
            let set = p.acting_set(&format!("obj{i}"));
            assert_eq!(set.len(), 3);
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate OSD in acting set");
        }
    }

    #[test]
    fn three_osds_three_replicas_uses_everyone() {
        let p = PlacementMap::new(3, 3, 64);
        let set = p.acting_set("whatever");
        let mut osds: Vec<usize> = set.iter().map(|o| o.0).collect();
        osds.sort_unstable();
        assert_eq!(osds, vec![0, 1, 2]);
    }

    #[test]
    fn primary_is_the_first_of_the_acting_set() {
        for osds in 1..=8 {
            for replicas in 1..=osds {
                let p = PlacementMap::new(osds, replicas, 128);
                for i in 0..500 {
                    let name = format!("rbd_data.img.{i:016x}");
                    assert_eq!(
                        p.primary(&name),
                        p.acting_set(&name)[0],
                        "{osds}/{replicas} {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn primaries_are_balanced() {
        let p = PlacementMap::new(3, 3, 256);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for i in 0..3000 {
            let primary = p.primary(&format!("rbd_data.img.{i:016x}"));
            *counts.entry(primary.0).or_default() += 1;
        }
        for osd in 0..3 {
            let share = counts[&osd] as f64 / 3000.0;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.08,
                "osd {osd} got {share:.2} of primaries"
            );
        }
    }

    #[test]
    fn pg_distribution_is_wide() {
        let p = PlacementMap::new(3, 3, 128);
        let mut pgs = std::collections::HashSet::new();
        for i in 0..1000 {
            pgs.insert(p.pg_of(&format!("o{i}")));
        }
        assert!(pgs.len() > 100, "only {} PGs used", pgs.len());
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_replicas_rejected() {
        let _ = PlacementMap::new(2, 3, 8);
    }

    #[test]
    fn shards_are_deterministic_and_wide() {
        let p = PlacementMap::new(3, 3, 128);
        let mut shards = std::collections::HashSet::new();
        for i in 0..200 {
            let name = format!("rbd_data.img.{i:016x}");
            let shard = p.shard_of(&name, 8);
            assert_eq!(shard, p.shard_of(&name, 8), "shard mapping must be stable");
            assert!(shard < 8);
            shards.insert(shard);
        }
        assert_eq!(shards.len(), 8, "200 objects must use every shard");
        // One shard degenerates to the unsharded cluster.
        assert_eq!(p.shard_of("anything", 1), 0);
    }

    #[test]
    fn stable_hash_separates_parts() {
        // ("ab", "c") must differ from ("a", "bc").
        assert_ne!(stable_hash(&[b"ab", b"c"]), stable_hash(&[b"a", b"bc"]));
    }
}
