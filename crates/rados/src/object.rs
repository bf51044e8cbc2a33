//! Objects: sparse byte data over 4 KB physical blocks, OMAP metadata,
//! xattrs, and snapshot clones.

use crate::codec::{put_bytes, Cursor};
use crate::SnapId;
use std::collections::BTreeMap;
use vdisk_kv::{LsmConfig, LsmStore};

/// The physical block size of the simulated NVMe backend. Writes that
/// are not aligned to this granularity trigger read-modify-write, the
/// effect that penalizes the paper's *unaligned* IV layout (§3.3).
pub const PHYS_BLOCK: u64 = 4096;

/// `stat()` output for an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStat {
    /// Logical size in bytes (highest written offset + 1).
    pub size: u64,
    /// Number of snapshot clones held.
    pub clones: usize,
}

/// Disk work implied by one extent access, in physical terms: which
/// blocks must be read first (RMW) and which are written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentProfile {
    /// Bytes that must be read before the write can be applied
    /// (partial first/last blocks of an overwrite).
    pub rmw_read_bytes: u64,
    /// Read ops issued for the RMW portion (0, 1 or 2).
    pub rmw_read_ops: u64,
    /// Bytes physically written (extent rounded out to block bounds).
    pub write_bytes: u64,
}

/// One version of an object's content: data, OMAP and xattrs.
#[derive(Debug, Clone)]
pub(crate) struct ObjectContent {
    /// Payload bytes; empty and ignored when `store_payload` is false.
    data: Vec<u8>,
    /// Logical size (tracked even when the payload is discarded).
    size: u64,
    /// Per-object key-value metadata (Ceph's OMAP, RocksDB-backed).
    pub(crate) omap: LsmStore,
    /// Extended attributes.
    pub(crate) xattrs: BTreeMap<String, Vec<u8>>,
    store_payload: bool,
}

impl ObjectContent {
    pub(crate) fn new(store_payload: bool) -> Self {
        ObjectContent {
            data: Vec::new(),
            size: 0,
            omap: LsmStore::new(LsmConfig::default()),
            xattrs: BTreeMap::new(),
            store_payload,
        }
    }

    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// Applies a write and returns the physical-disk profile it incurs.
    pub(crate) fn write(&mut self, offset: u64, data: &[u8]) -> ExtentProfile {
        let profile = self.write_profile(offset, data.len() as u64);
        let end = offset + data.len() as u64;
        if self.store_payload {
            if self.data.len() < end as usize {
                self.data.resize(end as usize, 0);
            }
            self.data[offset as usize..end as usize].copy_from_slice(data);
        }
        self.size = self.size.max(end);
        profile
    }

    /// The disk work a write of `len` bytes at `offset` would cause,
    /// given the object's current size (partial blocks past EOF need no
    /// read).
    pub(crate) fn write_profile(&self, offset: u64, len: u64) -> ExtentProfile {
        if len == 0 {
            return ExtentProfile::default();
        }
        let start_block = offset / PHYS_BLOCK;
        let end_block = (offset + len).div_ceil(PHYS_BLOCK);
        let write_bytes = (end_block - start_block) * PHYS_BLOCK;

        let mut rmw_read_ops = 0u64;
        let mut rmw_read_bytes = 0u64;
        let head_partial = !offset.is_multiple_of(PHYS_BLOCK);
        let tail_partial = !(offset + len).is_multiple_of(PHYS_BLOCK);
        let head_exists = head_partial && start_block * PHYS_BLOCK < self.size;
        // The tail block only needs a read if it exists and is not the
        // same block as an already-read head.
        let tail_exists = tail_partial
            && (end_block - 1) * PHYS_BLOCK < self.size
            && (end_block - 1) != start_block;
        if head_exists {
            rmw_read_ops += 1;
            rmw_read_bytes += PHYS_BLOCK;
        }
        if tail_exists {
            rmw_read_ops += 1;
            rmw_read_bytes += PHYS_BLOCK;
        } else if tail_partial && !head_exists && (end_block - 1) == start_block {
            // Single partial block that already exists.
            if start_block * PHYS_BLOCK < self.size && !head_partial {
                rmw_read_ops += 1;
                rmw_read_bytes += PHYS_BLOCK;
            }
        }
        ExtentProfile {
            rmw_read_bytes,
            rmw_read_ops,
            write_bytes,
        }
    }

    /// Reads `len` bytes at `offset`, zero-filling unwritten space.
    pub(crate) fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        if self.store_payload && offset < self.data.len() as u64 {
            let available = (self.data.len() as u64 - offset).min(len) as usize;
            out[..available]
                .copy_from_slice(&self.data[offset as usize..offset as usize + available]);
        }
        out
    }

    /// The stored payload bytes (empty when the payload is discarded).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.data
    }

    pub(crate) fn truncate(&mut self, size: u64) {
        if self.store_payload {
            self.data.resize(size as usize, 0);
        }
        self.size = size;
    }

    /// Fingerprint for scrubbing (replicas must agree).
    pub(crate) fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.size.hash(&mut h);
        self.data.hash(&mut h);
        for (k, v) in &self.xattrs {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        let (entries, _) = self.omap.range(&[], &[0xFF; 16]);
        entries.hash(&mut h);
        h.finish()
    }

    /// Fault-injection hook: silently corrupts one byte (no-op when
    /// the payload is discarded or out of range).
    pub(crate) fn poke(&mut self, offset: usize, byte: u8) {
        if self.store_payload && offset < self.data.len() {
            self.data[offset] = byte;
        }
    }

    /// Serializes this content version for a durable backend: payload,
    /// logical size, xattrs, and the OMAP's live entries (the LSM's
    /// internal layering is an in-memory cost-model artifact, not
    /// durable state).
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_header(out);
        self.encode_body(out);
    }

    /// The fixed-size start of an encoded content version: payload
    /// flag, logical size, payload length.
    fn encode_header(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.store_payload));
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
    }

    /// Everything after [`ObjectContent::encode_header`]: the payload
    /// bytes themselves, then xattrs and OMAP entries.
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&(self.xattrs.len() as u32).to_le_bytes());
        for (k, v) in &self.xattrs {
            put_bytes(out, k.as_bytes());
            put_bytes(out, v);
        }
        let omap = self.omap.entries();
        out.extend_from_slice(&(omap.len() as u32).to_le_bytes());
        for (k, v) in omap {
            put_bytes(out, &k);
            put_bytes(out, &v);
        }
    }

    /// Rebuilds a content version from [`ObjectContent::encode`] bytes.
    /// The OMAP is replayed as one batch into a fresh LSM, so reads see
    /// identical entries (internal run layout may differ — deliberately
    /// not durable state).
    fn decode(r: &mut Cursor<'_>) -> Option<Self> {
        let store_payload = r.u8()? != 0;
        let size = r.u64()?;
        let data = r.bytes()?;
        let mut content = ObjectContent::new(store_payload);
        content.size = size;
        content.data = data;
        for _ in 0..r.u32()? {
            let k = String::from_utf8(r.bytes()?).ok()?;
            let v = r.bytes()?;
            content.xattrs.insert(k, v);
        }
        let omap_entries = r.u32()?;
        let mut batch = Vec::with_capacity(omap_entries as usize);
        for _ in 0..omap_entries {
            let k = r.bytes()?;
            let v = r.bytes()?;
            batch.push((k, Some(v)));
        }
        if !batch.is_empty() {
            content.omap.write_batch(batch);
        }
        Some(content)
    }
}

/// Magic + version framing the durable object codec
/// ([`Object::encode`] / [`Object::decode`]).
const OBJECT_MAGIC: &[u8; 4] = b"VDOB";
const OBJECT_VERSION: u32 = 1;

/// An object with its head version and snapshot clones.
#[derive(Debug, Clone)]
pub(crate) struct Object {
    pub(crate) head: ObjectContent,
    /// The snapshot seq this object has last been cloned for.
    snap_seq: u64,
    /// `(upper_snap_seq, content)` pairs, ascending by seq. A clone
    /// serves reads for any snapshot id in
    /// `(previous_upper, upper_snap_seq]`.
    clones: Vec<(u64, ObjectContent)>,
    /// Snapshot seq at creation: reads at snaps older than this see
    /// "no object".
    born_at: u64,
}

impl Object {
    pub(crate) fn new(store_payload: bool, seq: SnapId) -> Self {
        Object {
            head: ObjectContent::new(store_payload),
            snap_seq: seq.0,
            clones: Vec::new(),
            born_at: seq.0,
        }
    }

    /// Copy-on-write: called before any mutation. If snapshots were
    /// taken since the last clone, preserve the current head.
    /// Returns the bytes cloned (0 if no clone was needed).
    pub(crate) fn prepare_write(&mut self, seq: SnapId) -> u64 {
        if seq.0 > self.snap_seq {
            let cloned_bytes = self.head.size();
            self.clones.push((seq.0, self.head.clone()));
            self.snap_seq = seq.0;
            cloned_bytes
        } else {
            0
        }
    }

    /// Resolves the content visible at a snapshot (or the head).
    ///
    /// Returns `None` when the object did not exist at that snapshot.
    pub(crate) fn content_at(&self, snap: Option<SnapId>) -> Option<&ObjectContent> {
        match snap {
            None => Some(&self.head),
            Some(snap) => {
                // Snapshots taken at or before creation time predate
                // this object.
                if snap.0 <= self.born_at {
                    return None;
                }
                // First clone whose upper bound covers this snap.
                for (upper, content) in &self.clones {
                    if *upper >= snap.0 {
                        return Some(content);
                    }
                }
                // No clone: head has not been written since the snap.
                Some(&self.head)
            }
        }
    }

    pub(crate) fn stat(&self) -> ObjectStat {
        ObjectStat {
            size: self.head.size(),
            clones: self.clones.len(),
        }
    }

    /// Length of [`Object::encode_prefix`]: the head's payload sits at
    /// this fixed offset of every encoded object.
    pub(crate) const PAYLOAD_OFFSET: usize = 4 + 4 + 8 + 8 + 1 + 8 + 8;

    /// The first [`Object::PAYLOAD_OFFSET`] bytes of [`Object::encode`]:
    /// framing, lineage seqs, and the head's payload flag, logical size
    /// and payload length. Two versions of an object with equal
    /// prefixes and untouched xattrs, OMAP and clones differ only in
    /// payload bytes — which is what lets a checkpoint patch those in
    /// place instead of rewriting the file.
    pub(crate) fn encode_prefix(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(OBJECT_MAGIC);
        out.extend_from_slice(&OBJECT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.snap_seq.to_le_bytes());
        out.extend_from_slice(&self.born_at.to_le_bytes());
        self.head.encode_header(out);
    }

    /// Serializes the whole object — head, snapshot clones, and
    /// lineage seqs — with magic/version framing, for durable backends.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.head.size() as usize);
        self.encode_prefix(&mut out);
        self.head.encode_body(&mut out);
        out.extend_from_slice(&(self.clones.len() as u32).to_le_bytes());
        for (upper, content) in &self.clones {
            out.extend_from_slice(&upper.to_le_bytes());
            content.encode(&mut out);
        }
        out
    }

    /// Rebuilds an object from [`Object::encode`] bytes. `None` on any
    /// framing mismatch or truncation (a torn or foreign file).
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Cursor::new(bytes);
        if r.take(OBJECT_MAGIC.len())? != OBJECT_MAGIC || r.u32()? != OBJECT_VERSION {
            return None;
        }
        let snap_seq = r.u64()?;
        let born_at = r.u64()?;
        let head = ObjectContent::decode(&mut r)?;
        let clone_count = r.u32()?;
        let mut clones = Vec::with_capacity(clone_count as usize);
        for _ in 0..clone_count {
            let upper = r.u64()?;
            clones.push((upper, ObjectContent::decode(&mut r)?));
        }
        Some(Object {
            head,
            snap_seq,
            clones,
            born_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapc(seq: u64) -> SnapId {
        SnapId(seq)
    }

    #[test]
    fn read_zero_fills_sparse_objects() {
        let mut c = ObjectContent::new(true);
        c.write(10, b"abc");
        assert_eq!(c.read(0, 14), b"\0\0\0\0\0\0\0\0\0\0abc\0");
        assert_eq!(c.size(), 13);
    }

    #[test]
    fn discarded_payload_tracks_size_only() {
        let mut c = ObjectContent::new(false);
        c.write(0, b"hello");
        assert_eq!(c.size(), 5);
        assert_eq!(c.read(0, 5), vec![0; 5], "payload discarded");
    }

    #[test]
    fn aligned_write_needs_no_rmw() {
        let mut c = ObjectContent::new(true);
        let p = c.write(0, &[7u8; 8192]);
        assert_eq!(p.rmw_read_ops, 0);
        assert_eq!(p.write_bytes, 8192);
    }

    #[test]
    fn unaligned_overwrite_needs_rmw() {
        let mut c = ObjectContent::new(true);
        c.write(0, &vec![1u8; 16384]); // pre-existing data
                                       // Overwrite 4112 bytes at offset 4112: partial head and tail.
                                       // [4112, 8224) spans physical blocks 1 and 2, both partially.
        let p = c.write_profile(4112, 4112);
        assert_eq!(p.rmw_read_ops, 2, "head and tail blocks both partial");
        assert_eq!(p.rmw_read_bytes, 2 * PHYS_BLOCK);
        assert_eq!(p.write_bytes, 2 * PHYS_BLOCK);
    }

    #[test]
    fn unaligned_append_past_eof_needs_no_read() {
        let c = ObjectContent::new(true);
        let p = c.write_profile(100, 50);
        assert_eq!(p.rmw_read_ops, 0, "nothing on disk to preserve");
        assert_eq!(p.write_bytes, PHYS_BLOCK);
    }

    #[test]
    fn small_overwrite_inside_existing_block() {
        let mut c = ObjectContent::new(true);
        c.write(0, &[9u8; 4096]);
        let p = c.write_profile(128, 16);
        assert_eq!(p.rmw_read_ops, 1, "one partial block to read back");
        assert_eq!(p.write_bytes, PHYS_BLOCK);
    }

    #[test]
    fn snapshots_cow_and_resolve() {
        let mut obj = Object::new(true, snapc(0));
        obj.head.write(0, b"version-1");
        // Snapshot 1 taken; next write must clone.
        let cloned = obj.prepare_write(snapc(1));
        assert_eq!(cloned, 9);
        obj.head.write(0, b"version-2");
        // Snapshot 2; another write clones again.
        obj.prepare_write(snapc(2));
        obj.head.write(0, b"version-3");

        assert_eq!(obj.content_at(None).unwrap().read(0, 9), b"version-3");
        assert_eq!(
            obj.content_at(Some(SnapId(1))).unwrap().read(0, 9),
            b"version-1"
        );
        assert_eq!(
            obj.content_at(Some(SnapId(2))).unwrap().read(0, 9),
            b"version-2"
        );
    }

    #[test]
    fn multiple_snaps_between_writes_share_one_clone() {
        let mut obj = Object::new(true, snapc(0));
        obj.head.write(0, b"v1");
        // Snaps 1, 2, 3 all taken before the next write.
        obj.prepare_write(snapc(3));
        obj.head.write(0, b"v2");
        for s in 1..=3 {
            assert_eq!(
                obj.content_at(Some(SnapId(s))).unwrap().read(0, 2),
                b"v1",
                "snap {s}"
            );
        }
        assert_eq!(obj.stat().clones, 1);
    }

    #[test]
    fn snapshot_after_last_write_reads_head() {
        let mut obj = Object::new(true, snapc(0));
        obj.head.write(0, b"data");
        // Snap 5 taken, but no write after it: head is the snapshot.
        assert_eq!(obj.content_at(Some(SnapId(5))).unwrap().read(0, 4), b"data");
    }

    #[test]
    fn object_born_after_snapshot_is_absent_there() {
        let obj = Object::new(true, snapc(3));
        assert!(obj.content_at(Some(SnapId(2))).is_none());
        assert!(
            obj.content_at(Some(SnapId(3))).is_none(),
            "snap 3 predates creation"
        );
        assert!(obj.content_at(Some(SnapId(4))).is_some());
    }

    #[test]
    fn no_cow_without_new_snapshot() {
        let mut obj = Object::new(true, snapc(0));
        obj.head.write(0, b"a");
        assert_eq!(obj.prepare_write(snapc(0)), 0);
        obj.head.write(0, b"b");
        assert_eq!(obj.stat().clones, 0);
    }

    #[test]
    fn fingerprint_reflects_every_facet() {
        let mut a = ObjectContent::new(true);
        let mut b = ObjectContent::new(true);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.write(0, b"x");
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.write(0, b"x");
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.omap.put(b"k".to_vec(), b"v".to_vec());
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.omap.put(b"k".to_vec(), b"v".to_vec());
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.xattrs.insert("attr".into(), vec![1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn codec_roundtrips_every_facet() {
        let mut obj = Object::new(true, snapc(2));
        obj.head.write(0, b"version-1");
        obj.head.omap.put(b"iv:0".to_vec(), vec![7; 16]);
        obj.head.omap.put(vec![0xFF; 24], b"edge".to_vec());
        obj.head.xattrs.insert("fmt".into(), vec![1, 2, 3]);
        obj.prepare_write(snapc(5));
        obj.head.write(4, b"ion-2-xx");
        obj.head.truncate(12);

        let back = Object::decode(&obj.encode()).expect("roundtrip");
        assert_eq!(back.snap_seq, obj.snap_seq);
        assert_eq!(back.born_at, obj.born_at);
        assert_eq!(back.stat(), obj.stat());
        assert_eq!(back.head.read(0, 12), obj.head.read(0, 12));
        assert_eq!(back.head.xattrs, obj.head.xattrs);
        assert_eq!(back.head.omap.entries(), obj.head.omap.entries());
        assert_eq!(
            back.content_at(Some(SnapId(3))).unwrap().read(0, 9),
            b"version-1",
            "clone content survives the roundtrip"
        );
        assert_eq!(back.head.fingerprint(), obj.head.fingerprint());
    }

    #[test]
    fn payload_sits_at_the_fixed_offset_after_the_prefix() {
        let mut obj = Object::new(true, snapc(3));
        obj.head.write(5, b"payload bytes");
        obj.head.xattrs.insert("x".into(), vec![1]);
        let encoded = obj.encode();
        let mut prefix = Vec::new();
        obj.encode_prefix(&mut prefix);
        assert_eq!(prefix.len(), Object::PAYLOAD_OFFSET);
        assert_eq!(encoded[..Object::PAYLOAD_OFFSET], prefix[..]);
        let payload = obj.head.payload();
        assert_eq!(&encoded[Object::PAYLOAD_OFFSET..][..payload.len()], payload);
    }

    #[test]
    fn codec_roundtrips_discarded_payload() {
        let mut obj = Object::new(false, snapc(0));
        obj.head.write(0, &[1u8; 4096]);
        let back = Object::decode(&obj.encode()).expect("roundtrip");
        assert_eq!(back.head.size(), 4096);
        assert_eq!(back.head.read(0, 8), vec![0; 8], "payload stays discarded");
    }

    #[test]
    fn codec_rejects_garbage_and_truncation() {
        assert!(Object::decode(b"").is_none());
        assert!(Object::decode(b"not an object file").is_none());
        let good = Object::new(true, snapc(0)).encode();
        assert!(Object::decode(&good[..good.len() - 1]).is_none());
        let mut wrong_version = good;
        wrong_version[4] = 0xEE;
        assert!(Object::decode(&wrong_version).is_none());
    }

    #[test]
    fn truncate_shrinks() {
        let mut c = ObjectContent::new(true);
        c.write(0, &[1u8; 100]);
        c.truncate(10);
        assert_eq!(c.size(), 10);
        assert_eq!(c.read(0, 20), {
            let mut v = vec![1u8; 10];
            v.extend_from_slice(&[0u8; 10]);
            v
        });
    }
}
