//! Replica maintenance: deep scrub, injected replica damage, and
//! primary-authoritative repair.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::missing_panics_doc)]

use crate::cluster::Cluster;
use crate::{RadosError, Result};

/// Scrub outcome: objects whose replicas disagree.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Objects checked.
    pub objects_checked: usize,
    /// Names of divergent objects.
    pub divergent: Vec<String>,
}

impl ScrubReport {
    /// True when every replica of every object agrees.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty()
    }
}

impl Cluster {
    /// Verifies that all replicas of all objects agree (like Ceph's
    /// deep scrub).
    #[must_use]
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for shard in self.shards.iter() {
            let guard = shard.state.lock();
            for name in guard.store.names() {
                report.objects_checked += 1;
                let acting = self.control.placement.acting_set(&name);
                let prints: Vec<Option<u64>> = acting
                    .iter()
                    .map(|osd| guard.store.get(osd.0, &name).map(|o| o.head.fingerprint()))
                    .collect();
                let Some(first) = prints.first() else {
                    continue;
                };
                if prints.iter().any(|p| p != first) {
                    report.divergent.push(name);
                }
            }
        }
        report.divergent.sort_unstable();
        report
    }

    /// Fault injection: silently corrupts one byte on a **non-primary**
    /// replica (as a failing disk or torn replication would). Scrub
    /// must detect it; [`Cluster::repair`] must fix it.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::InvalidArgument`] if `replica_index` is 0
    /// (the primary) or out of range, or [`RadosError::NoSuchObject`]
    /// if that replica holds no such object.
    pub fn damage_replica(&self, object: &str, replica_index: usize, offset: usize) -> Result<()> {
        let acting = self.control.placement.acting_set(object);
        let Some(&osd) = acting.get(replica_index).filter(|_| replica_index > 0) else {
            return Err(RadosError::InvalidArgument(format!(
                "replica_index {replica_index} out of range (1..{})",
                acting.len()
            )));
        };
        let mut shard = self.shard_for(object).state.lock();
        let obj = shard
            .store
            .diverge(osd.0, object)
            .ok_or_else(|| RadosError::NoSuchObject(object.to_string()))?;
        obj.head.poke(offset, 0xFF);
        // Make the corruption durable too, so a reopened cluster still
        // sees (and can scrub) the damaged replica.
        shard.durably(|disk, mirror| disk.persist(mirror, object, std::slice::from_ref(&osd)))
    }

    /// Repairs an object by re-replicating the primary's copy (Ceph's
    /// `pg repair` policy: the primary is authoritative). In memory the
    /// replicas go back to sharing the primary's copy, and the copies
    /// they had diverged to are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RadosError::NoSuchObject`] if the primary holds no
    /// such object.
    pub fn repair(&self, object: &str) -> Result<()> {
        let acting = self.control.placement.acting_set(object);
        let missing = || RadosError::NoSuchObject(object.to_string());
        let (primary, replicas) = acting.split_first().ok_or_else(missing)?;
        let mut shard = self.shard_for(object).state.lock();
        if !shard.store.repair(object, primary.0, replicas) {
            return Err(missing());
        }
        shard.durably(|disk, mirror| disk.persist(mirror, object, replicas))
    }
}
