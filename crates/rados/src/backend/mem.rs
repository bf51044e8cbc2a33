//! The in-memory backend: the original simulator state, unchanged —
//! per-OSD hash maps with no durability and no host IO.

use super::ObjectStore;
use crate::object::Object;
use crate::placement::OsdId;
use crate::transaction::{AppliedTx, SnapContext};
use crate::Result;
use std::collections::HashMap;

/// One shard's objects kept per OSD in plain hash maps, exactly as the
/// engine kept them before the backend seam existed. Commit, persist
/// and flush are free: memory *is* the acknowledged state.
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
}

impl ObjectStore for MemStore {
    fn get(&self, osd: usize, name: &str) -> Option<&Object> {
        self.osds[osd].get(name)
    }

    fn get_mut(&mut self, osd: usize, name: &str) -> Option<&mut Object> {
        self.osds[osd].get_mut(name)
    }

    fn entry(
        &mut self,
        osd: usize,
        name: &str,
        store_payload: bool,
        snapc: SnapContext,
    ) -> &mut Object {
        self.osds[osd]
            .entry(name.to_string())
            .or_insert_with(|| Object::new(store_payload, snapc))
    }

    fn insert(&mut self, osd: usize, name: &str, object: Object) {
        self.osds[osd].insert(name.to_string(), object);
    }

    fn remove(&mut self, osd: usize, name: &str) {
        self.osds[osd].remove(name);
    }

    fn contains(&self, osd: usize, name: &str) -> bool {
        self.osds[osd].contains_key(name)
    }

    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.osds.iter().flat_map(|m| m.keys().cloned()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    fn commit(&mut self, _tx: &AppliedTx<'_>) -> Result<()> {
        Ok(())
    }

    fn persist(&mut self, _name: &str, _osds: &[OsdId]) -> Result<()> {
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}
