//! The OMAP store: one ordered map, with work receipts for the cost
//! model.

use std::collections::BTreeMap;
use std::ops::Bound;

/// Key-value pairs returned by range queries.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Configuration of an [`LsmStore`]. It has no knobs: see the
/// [crate docs](crate) for why a per-object store never needs one.
/// It stays, with [`LsmStore::new`], because the wall-clock
/// benchmark's kv rungs name both; [`LsmStore::default`] is the same
/// store.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsmConfig;

/// Physical work caused by a write operation — the input to the
/// cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Keys inserted/deleted by this op.
    pub keys_written: u64,
    /// Bytes the op's write-ahead-log record takes: a 16-byte batch
    /// header plus, per entry, an 8-byte length prefix and the key and
    /// value bytes (a delete carries its key only).
    pub wal_bytes: u64,
}

/// Physical work caused by a read operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadReceipt {
    /// Keys examined.
    pub keys_examined: u64,
    /// Bytes returned: the value of a point read, keys and values of a
    /// range.
    pub bytes_returned: u64,
}

/// One object's OMAP. See the [crate docs](crate) for the role it
/// plays in the reproduction.
#[derive(Debug, Default, Clone)]
pub struct LsmStore {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl LsmStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new(_config: LsmConfig) -> Self {
        Self::default()
    }

    /// Inserts one key/value pair, replacing any older value.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> WriteReceipt {
        self.write_batch(vec![(key, Some(value))])
    }

    /// Applies a batch of writes in order (RocksDB `WriteBatch`
    /// semantics: one log record, priced once); `None` deletes.
    pub fn write_batch(&mut self, entries: Vec<(Vec<u8>, Option<Vec<u8>>)>) -> WriteReceipt {
        let mut receipt = WriteReceipt {
            keys_written: entries.len() as u64,
            wal_bytes: 16,
        };
        for (key, value) in entries {
            receipt.wal_bytes += 8 + (key.len() + value.as_ref().map_or(0, Vec::len)) as u64;
            match value {
                Some(value) => self.entries.insert(key, value),
                None => self.entries.remove(&key),
            };
        }
        receipt
    }

    /// Point lookup.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> (Option<Vec<u8>>, ReadReceipt) {
        let value = self.entries.get(key).cloned();
        let receipt = ReadReceipt {
            keys_examined: 1,
            bytes_returned: value.as_ref().map_or(0, Vec::len) as u64,
        };
        (value, receipt)
    }

    /// Returns every entry with a key in `[start, end)`, in key order.
    /// A range with `start >= end` is empty: the bounds arrive in a
    /// client's read op, and `BTreeMap::range` panics on inverted ones.
    #[must_use]
    pub fn range(&self, start: &[u8], end: &[u8]) -> (KvPairs, ReadReceipt) {
        if start >= end {
            return (KvPairs::new(), ReadReceipt::default());
        }
        let out: KvPairs = self
            .entries
            .range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let receipt = ReadReceipt {
            keys_examined: out.len() as u64,
            bytes_returned: out.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum(),
        };
        (out, receipt)
    }

    /// Every entry in key order, with **no** work receipt. This is the
    /// serialization and scrub surface of the object store, not a
    /// modeled read: it must not perturb the cost model.
    #[must_use]
    pub fn entries(&self) -> KvPairs {
        self.entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = LsmStore::default();
        s.put(b"k".to_vec(), b"v".to_vec());
        assert_eq!(s.get(b"k").0.as_deref(), Some(&b"v"[..]));
        assert_eq!(s.get(b"missing").0, None);
    }

    #[test]
    fn put_get_delete() {
        let mut s = LsmStore::default();
        s.put(b"a".to_vec(), b"1".to_vec());
        assert_eq!(s.get(b"a").0.as_deref(), Some(&b"1"[..]));
        s.write_batch(vec![(b"a".to_vec(), None)]);
        assert_eq!(s.get(b"a").0, None);
        assert_eq!(s.get(b"b").0, None, "absent key is None");
        assert!(s.entries().is_empty(), "a delete leaves nothing behind");
    }

    /// A delete hides every earlier write of its key, and later writes of
    /// other keys do not bring it back.
    #[test]
    fn delete_shadows_older_runs() {
        let mut s = LsmStore::default();
        s.put(b"k".to_vec(), b"v1".to_vec());
        s.put(b"k".to_vec(), b"v2".to_vec());
        s.write_batch(vec![(b"k".to_vec(), None)]);
        assert_eq!(s.get(b"k").0, None);
        s.put(b"j".to_vec(), b"x".to_vec());
        assert_eq!(s.get(b"k").0, None, "the delete still shadows");
        assert_eq!(s.range(b"a", b"z").0, vec![(b"j".to_vec(), b"x".to_vec())]);
    }

    #[test]
    fn range_is_sorted_and_half_open() {
        let mut s = LsmStore::default();
        for k in [b"d", b"a", b"c", b"b"] {
            s.put(k.to_vec(), k.to_vec());
        }
        let keys: Vec<Vec<u8>> = s.range(b"a", b"c").0.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
        for (start, end) in [(b"c", b"c"), (b"c", b"a")] {
            assert_eq!(s.range(start, end), (Vec::new(), ReadReceipt::default()));
        }
    }

    #[test]
    fn range_merges_all_layers_newest_wins() {
        let mut s = LsmStore::default();
        s.put(b"a".to_vec(), b"old".to_vec());
        s.put(b"b".to_vec(), b"1".to_vec());
        s.put(b"a".to_vec(), b"new".to_vec());
        s.put(b"c".to_vec(), b"2".to_vec());
        s.write_batch(vec![(b"b".to_vec(), None)]);
        let (entries, receipt) = s.range(b"a", b"z");
        assert_eq!(
            entries,
            vec![
                (b"a".to_vec(), b"new".to_vec()),
                (b"c".to_vec(), b"2".to_vec()),
            ]
        );
        assert_eq!(receipt.keys_examined, 2);
        assert_eq!(receipt.bytes_returned, 1 + 3 + 1 + 1);
    }

    #[test]
    fn entries_dumps_all_layers_without_receipts() {
        let mut s = LsmStore::default();
        s.put(b"a".to_vec(), b"old".to_vec());
        s.put(b"b".to_vec(), b"1".to_vec());
        s.put(b"a".to_vec(), b"new".to_vec());
        s.write_batch(vec![(b"b".to_vec(), None)]);
        // A key past any fixed-length range bound must still dump.
        s.put(vec![0xFF; 24], b"edge".to_vec());
        assert_eq!(
            s.entries(),
            vec![
                (b"a".to_vec(), b"new".to_vec()),
                (vec![0xFF; 24], b"edge".to_vec()),
            ]
        );
    }

    #[test]
    fn write_batch_is_atomic_in_wal() {
        let mut s = LsmStore::default();
        let receipt = s.write_batch(vec![
            (b"x".to_vec(), Some(b"1".to_vec())),
            (b"y".to_vec(), Some(b"2".to_vec())),
            (b"z".to_vec(), None),
        ]);
        assert_eq!(receipt.keys_written, 3);
        // One record: one 16-byte header for the whole batch.
        assert_eq!(receipt.wal_bytes, 16 + (8 + 2) * 2 + (8 + 1));
        assert_eq!(s.get(b"y").0.as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn receipts_count_work() {
        let mut s = LsmStore::default();
        let w = s.put(b"key1".to_vec(), vec![0; 16]);
        assert_eq!(w.keys_written, 1);
        assert_eq!(w.wal_bytes, 16 + 8 + 4 + 16);
        let w = s.write_batch(vec![(b"key1".to_vec(), None)]);
        assert_eq!(w.wal_bytes, 16 + 8 + 4, "a delete logs its key only");
        s.put(b"key1".to_vec(), vec![0; 16]);
        let (_, r) = s.get(b"key1");
        assert_eq!((r.keys_examined, r.bytes_returned), (1, 16));
        let (_, r) = s.get(b"absent");
        assert_eq!((r.keys_examined, r.bytes_returned), (1, 0));
    }
}
