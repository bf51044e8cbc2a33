//! Write transactions and read operations.
//!
//! A [`Transaction`] bundles mutations to **one object** and is applied
//! atomically on every replica — the RADOS property the paper relies on
//! to keep a sector and its IV consistent ("the Ceph RADOS protocol
//! \[supports\] atomically writing multiple IOs", §3.1).

use crate::codec::{put_bytes, Cursor};
use crate::placement::OsdId;
use crate::{RadosError, Result, SnapId};
use std::ops::Range;
use std::sync::Arc;

/// A cheaply-cloneable view into a shared owned byte buffer.
///
/// The zero-copy currency of the write path: a client encrypts (or
/// assembles) a whole request in **one** `Vec<u8>`, wraps it once, and
/// hands each object's transaction a *slice view* of the same
/// allocation — no per-extent copies, no full-request clone. A plain
/// `Vec<u8>` converts with `into()` (wrapping the allocation, not
/// copying it), so single-buffer callers keep their old call shape.
///
/// # Example
///
/// ```
/// use vdisk_rados::SharedBuf;
/// let buf: SharedBuf = vec![1u8, 2, 3, 4].into();
/// let tail = buf.slice(2..4);
/// assert_eq!(&*tail, &[3, 4]);
/// // Both views share one allocation.
/// assert_eq!(buf.as_slice()[2..].as_ptr(), tail.as_slice().as_ptr());
/// ```
#[derive(Clone)]
pub struct SharedBuf {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl SharedBuf {
    /// Wraps a whole owned buffer (no copy: the allocation is shared).
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        let end = buf.len();
        SharedBuf {
            buf: Arc::new(buf),
            start: 0,
            end,
        }
    }

    /// A sub-view of this view (indices are relative to this view).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds this view.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> SharedBuf {
        assert!(
            range.start <= range.end && self.start + range.end <= self.end,
            "slice {range:?} exceeds view of {} bytes",
            self.len()
        );
        SharedBuf {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Length of the view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl std::ops::Deref for SharedBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for SharedBuf {
    fn from(buf: Vec<u8>) -> Self {
        SharedBuf::from_vec(buf)
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBuf({} bytes)", self.len())
    }
}

impl PartialEq for SharedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBuf {}

/// One mutation within a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOp {
    /// Write `data` at byte `offset` of the object.
    Write {
        /// Byte offset within the object.
        offset: u64,
        /// Bytes to write — a view into a (possibly shared) owned
        /// buffer, so striped writes hand each object a slice of one
        /// request allocation instead of a copy.
        data: SharedBuf,
    },
    /// Truncate the object to `size` bytes.
    Truncate(u64),
    /// Insert/overwrite OMAP entries.
    OmapSet(Vec<(Vec<u8>, Vec<u8>)>),
    /// Remove OMAP keys.
    OmapRemove(Vec<Vec<u8>>),
    /// Set an xattr.
    SetXattr(String, Vec<u8>),
    /// Precondition: fail the whole transaction (before any of its ops
    /// applies) unless the object's xattr `name` currently equals
    /// `expected` (`None` = the xattr — or the whole object — must be
    /// absent). The compare-and-swap primitive for single-object
    /// control metadata: a client that read version N updates with
    /// `CompareXattr(version == N) + Write + SetXattr(version = N+1)`,
    /// and a concurrent update loses cleanly with
    /// [`crate::RadosError::CompareFailed`] instead of silently
    /// clobbering — how `vdisk-core` keeps encryption-header updates
    /// atomic across handles.
    CompareXattr {
        /// Xattr name to check.
        name: String,
        /// Required current value (`None` = must be absent).
        expected: Option<Vec<u8>>,
    },
    /// Remove the whole object.
    Delete,
}

/// An atomic multi-op write to a single object.
///
/// # Example
///
/// ```
/// use vdisk_rados::Transaction;
/// let mut tx = Transaction::new("rbd_data.disk0.000000000000002a");
/// tx.write(0, vec![0xAB; 4096]);            // the encrypted sector
/// tx.omap_set(vec![(b"iv.0".to_vec(), vec![0x11; 16])]); // its IV
/// assert_eq!(tx.ops.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Target object name.
    pub object: String,
    /// Mutations, applied in order, atomically.
    pub ops: Vec<TxOp>,
}

impl Transaction {
    /// Starts an empty transaction against `object`.
    #[must_use]
    pub fn new(object: impl Into<String>) -> Self {
        Transaction {
            object: object.into(),
            ops: Vec::new(),
        }
    }

    /// Adds a data write. Accepts an owned `Vec<u8>` (wrapped without
    /// copying) or a [`SharedBuf`] slice of a shared request buffer.
    pub fn write(&mut self, offset: u64, data: impl Into<SharedBuf>) -> &mut Self {
        self.ops.push(TxOp::Write {
            offset,
            data: data.into(),
        });
        self
    }

    /// Adds a truncate.
    pub fn truncate(&mut self, size: u64) -> &mut Self {
        self.ops.push(TxOp::Truncate(size));
        self
    }

    /// Adds OMAP insertions.
    pub fn omap_set(&mut self, entries: Vec<(Vec<u8>, Vec<u8>)>) -> &mut Self {
        self.ops.push(TxOp::OmapSet(entries));
        self
    }

    /// Adds OMAP removals.
    pub fn omap_remove(&mut self, keys: Vec<Vec<u8>>) -> &mut Self {
        self.ops.push(TxOp::OmapRemove(keys));
        self
    }

    /// Adds an xattr write.
    pub fn set_xattr(&mut self, name: impl Into<String>, value: Vec<u8>) -> &mut Self {
        self.ops.push(TxOp::SetXattr(name.into(), value));
        self
    }

    /// Adds an xattr compare precondition (see [`TxOp::CompareXattr`]):
    /// the transaction applies only if the xattr currently holds
    /// `expected` (`None` = must be absent).
    pub fn compare_xattr(
        &mut self,
        name: impl Into<String>,
        expected: Option<Vec<u8>>,
    ) -> &mut Self {
        self.ops.push(TxOp::CompareXattr {
            name: name.into(),
            expected,
        });
        self
    }

    /// Adds object deletion.
    pub fn delete(&mut self) -> &mut Self {
        self.ops.push(TxOp::Delete);
        self
    }

    /// Total payload bytes carried by this transaction (data + omap),
    /// used for network cost accounting.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TxOp::Write { data, .. } => data.len() as u64,
                TxOp::OmapSet(entries) => entries
                    .iter()
                    .map(|(k, v)| (k.len() + v.len()) as u64)
                    .sum(),
                TxOp::OmapRemove(keys) => keys.iter().map(|k| k.len() as u64).sum(),
                TxOp::SetXattr(name, value) => (name.len() + value.len()) as u64,
                TxOp::CompareXattr { name, expected } => {
                    (name.len() + expected.as_ref().map_or(0, Vec::len)) as u64
                }
                TxOp::Truncate(_) | TxOp::Delete => 0,
            })
            .sum()
    }

    /// Checks the transaction without touching any replica, so a
    /// submission can reject malformed input before **any** mutation
    /// (all-or-nothing).
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |what: &str| Err(RadosError::InvalidArgument(what.into()));
        if self.object.is_empty() {
            return invalid("empty object name");
        }
        for op in &self.ops {
            match op {
                TxOp::OmapSet(entries) => {
                    if entries.iter().any(|(k, _)| k.is_empty()) {
                        return invalid("empty omap key");
                    }
                }
                TxOp::OmapRemove(keys) => {
                    if keys.iter().any(Vec::is_empty) {
                        return invalid("empty omap key");
                    }
                }
                TxOp::Write { data, .. } => {
                    if data.is_empty() {
                        return invalid("empty write");
                    }
                }
                TxOp::CompareXattr { name, .. } => {
                    if name.is_empty() {
                        return invalid("empty xattr name");
                    }
                }
                TxOp::Truncate(_) | TxOp::SetXattr(..) | TxOp::Delete => {}
            }
        }
        Ok(())
    }
}

/// A transaction as the shard engine hands it to the backend's commit:
/// already applied to the working state, snapshot context resolved,
/// acting set computed. Durable backends log it — see
/// [`AppliedTx::encode`] for the record format.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppliedTx<'a> {
    pub(crate) object: &'a str,
    /// The snapshot sequence the writer saw: an object whose last
    /// copy-on-write is older clones itself before mutating.
    pub(crate) snap_seq: SnapId,
    pub(crate) acting: &'a [OsdId],
    /// The transaction's ops as submitted. [`TxOp::CompareXattr`]
    /// preconditions are decided before anything applies and change
    /// nothing, so the codec leaves them out.
    pub(crate) ops: &'a [TxOp],
}

/// An [`AppliedTx`] decoded from a log record, owning its parts.
#[derive(Debug, PartialEq)]
pub(crate) struct TxRecord {
    pub(crate) object: String,
    pub(crate) snap_seq: SnapId,
    pub(crate) acting: Vec<OsdId>,
    pub(crate) ops: Vec<TxOp>,
}

const OP_WRITE: u8 = 1;
const OP_TRUNCATE: u8 = 2;
const OP_OMAP_SET: u8 = 3;
const OP_OMAP_REMOVE: u8 = 4;
const OP_SET_XATTR: u8 = 5;
const OP_DELETE: u8 = 6;

impl AppliedTx<'_> {
    /// Appends this transaction's redo record to `out`:
    ///
    /// ```text
    /// object name   u64 length + bytes
    /// snap seq      u64
    /// acting set    u32 count, then one u32 OSD index each
    /// ops           u32 count, then per op a u8 tag and its fields
    ///               (offsets/sizes u64, byte strings u64 length + bytes,
    ///               key/entry lists u32 count)
    /// ```
    ///
    /// All integers little-endian. Framing (length, checksum) is the
    /// log's business, not the record's.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.object.as_bytes());
        out.extend_from_slice(&self.snap_seq.0.to_le_bytes());
        out.extend_from_slice(&(self.acting.len() as u32).to_le_bytes());
        for osd in self.acting {
            out.extend_from_slice(&(osd.0 as u32).to_le_bytes());
        }
        let logged = self
            .ops
            .iter()
            .filter(|op| !matches!(op, TxOp::CompareXattr { .. }));
        out.extend_from_slice(&(logged.clone().count() as u32).to_le_bytes());
        for op in logged {
            match op {
                TxOp::Write { offset, data } => {
                    out.push(OP_WRITE);
                    out.extend_from_slice(&offset.to_le_bytes());
                    put_bytes(out, data);
                }
                TxOp::Truncate(size) => {
                    out.push(OP_TRUNCATE);
                    out.extend_from_slice(&size.to_le_bytes());
                }
                TxOp::OmapSet(entries) => {
                    out.push(OP_OMAP_SET);
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for (k, v) in entries {
                        put_bytes(out, k);
                        put_bytes(out, v);
                    }
                }
                TxOp::OmapRemove(keys) => {
                    out.push(OP_OMAP_REMOVE);
                    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                    for k in keys {
                        put_bytes(out, k);
                    }
                }
                TxOp::SetXattr(name, value) => {
                    out.push(OP_SET_XATTR);
                    put_bytes(out, name.as_bytes());
                    put_bytes(out, value);
                }
                TxOp::Delete => out.push(OP_DELETE),
                TxOp::CompareXattr { .. } => {}
            }
        }
    }
}

impl TxRecord {
    pub(crate) fn as_applied(&self) -> AppliedTx<'_> {
        AppliedTx {
            object: &self.object,
            snap_seq: self.snap_seq,
            acting: &self.acting,
            ops: &self.ops,
        }
    }

    /// Rebuilds a transaction from [`AppliedTx::encode`] bytes; `None`
    /// on truncation, an unknown op tag, or trailing bytes.
    pub(crate) fn decode(bytes: &[u8]) -> Option<TxRecord> {
        let mut r = Cursor::new(bytes);
        let object = String::from_utf8(r.bytes()?).ok()?;
        let snap_seq = SnapId(r.u64()?);
        let acting = (0..r.u32()?)
            .map(|_| Some(OsdId(r.u32()? as usize)))
            .collect::<Option<Vec<_>>>()?;
        let op_count = r.u32()?;
        let mut ops = Vec::new();
        for _ in 0..op_count {
            ops.push(match r.u8()? {
                OP_WRITE => TxOp::Write {
                    offset: r.u64()?,
                    data: r.bytes()?.into(),
                },
                OP_TRUNCATE => TxOp::Truncate(r.u64()?),
                OP_OMAP_SET => TxOp::OmapSet(
                    (0..r.u32()?)
                        .map(|_| Some((r.bytes()?, r.bytes()?)))
                        .collect::<Option<_>>()?,
                ),
                OP_OMAP_REMOVE => {
                    TxOp::OmapRemove((0..r.u32()?).map(|_| r.bytes()).collect::<Option<_>>()?)
                }
                OP_SET_XATTR => TxOp::SetXattr(String::from_utf8(r.bytes()?).ok()?, r.bytes()?),
                OP_DELETE => TxOp::Delete,
                _ => return None,
            });
        }
        r.is_empty().then_some(TxRecord {
            object,
            snap_seq,
            acting,
            ops,
        })
    }
}

/// One object's worth of read operations inside a vectored read (see
/// `Cluster::read_batch`): the read-side analog of a [`Transaction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectReads {
    /// Target object name.
    pub object: String,
    /// Operations to execute against it, in order.
    pub ops: Vec<ReadOp>,
}

impl ObjectReads {
    /// Builds a read request against `object`.
    #[must_use]
    pub fn new(object: impl Into<String>, ops: Vec<ReadOp>) -> Self {
        ObjectReads {
            object: object.into(),
            ops,
        }
    }
}

/// One read operation against an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// Read `len` bytes at `offset` (zero-filled past EOF).
    Read {
        /// Byte offset within the object.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Fetch OMAP entries with keys in `[start, end)`.
    OmapGetRange {
        /// Inclusive lower key bound.
        start: Vec<u8>,
        /// Exclusive upper key bound.
        end: Vec<u8>,
    },
    /// Fetch specific OMAP keys (absent keys are omitted).
    OmapGetKeys(Vec<Vec<u8>>),
    /// Fetch one xattr.
    GetXattr(String),
    /// Object metadata.
    Stat,
}

/// The result of one [`ReadOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResult {
    /// Data bytes from a [`ReadOp::Read`].
    Data(Vec<u8>),
    /// OMAP entries, sorted by key.
    OmapEntries(Vec<(Vec<u8>, Vec<u8>)>),
    /// Xattr value, if present.
    Xattr(Option<Vec<u8>>),
    /// Stat result.
    Stat {
        /// Logical object size.
        size: u64,
    },
}

impl ReadResult {
    /// Unwraps a data result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Data`.
    #[must_use]
    pub fn as_data(&self) -> &[u8] {
        match self {
            ReadResult::Data(d) => d,
            other => panic!("expected Data result, got {other:?}"),
        }
    }

    /// Unwraps an OMAP result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `OmapEntries`.
    #[must_use]
    pub fn as_omap(&self) -> &[(Vec<u8>, Vec<u8>)] {
        match self {
            ReadResult::OmapEntries(e) => e,
            other => panic!("expected OmapEntries result, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![1, 2, 3])
            .omap_set(vec![(b"k".to_vec(), b"v".to_vec())])
            .set_xattr("a", vec![9])
            .truncate(100);
        assert_eq!(tx.ops.len(), 4);
        assert_eq!(tx.object, "obj");
    }

    #[test]
    fn payload_bytes_counts_data_and_metadata() {
        let mut tx = Transaction::new("obj");
        tx.write(0, vec![0; 100]);
        tx.omap_set(vec![(vec![0; 8], vec![0; 16])]);
        tx.set_xattr("ab", vec![0; 10]);
        assert_eq!(tx.payload_bytes(), 100 + 24 + 12);
    }

    #[test]
    fn shared_buf_views_are_zero_copy() {
        let v = vec![9u8; 8192];
        let ptr = v.as_ptr();
        let buf = SharedBuf::from_vec(v);
        assert_eq!(buf.as_slice().as_ptr(), ptr, "wrapping must not copy");
        let tail = buf.slice(4096..8192);
        assert_eq!(
            tail.as_slice().as_ptr(),
            buf.as_slice()[4096..].as_ptr(),
            "a slice view shares the parent allocation"
        );
        assert_eq!(tail.len(), 4096);

        // A Vec handed to Transaction::write keeps its allocation too.
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let mut tx = Transaction::new("obj");
        tx.write(0, v);
        match &tx.ops[0] {
            TxOp::Write { data, .. } => assert_eq!(data.as_slice().as_ptr(), ptr),
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds view")]
    fn shared_buf_slice_bounds_checked() {
        let buf = SharedBuf::from_vec(vec![0u8; 4]);
        let _ = buf.slice(2..8);
    }

    #[test]
    fn record_codec_roundtrips_every_op_and_drops_preconditions() {
        let mut tx = Transaction::new("rbd_data.img.0000000000000001");
        tx.compare_xattr("version", Some(vec![1]))
            .write(4096, vec![0xAB; 100])
            .truncate(8192)
            .omap_set(vec![(b"iv.0".to_vec(), vec![7; 16]), (vec![0xFF], vec![])])
            .omap_remove(vec![b"iv.9".to_vec()])
            .set_xattr("version", vec![2])
            .delete();
        let acting = [OsdId(2), OsdId(0), OsdId(1)];
        let applied = AppliedTx {
            object: &tx.object,
            snap_seq: SnapId(7),
            acting: &acting,
            ops: &tx.ops,
        };
        let mut bytes = Vec::new();
        applied.encode(&mut bytes);
        let record = TxRecord::decode(&bytes).expect("roundtrip");
        assert_eq!(record.object, tx.object);
        assert_eq!(record.snap_seq, SnapId(7));
        assert_eq!(record.acting, acting);
        assert_eq!(record.ops, tx.ops[1..], "everything but the precondition");

        for cut in 0..bytes.len() {
            assert!(TxRecord::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        bytes.push(0);
        assert!(TxRecord::decode(&bytes).is_none(), "trailing bytes");
    }

    #[test]
    fn read_result_accessors() {
        assert_eq!(ReadResult::Data(vec![1]).as_data(), &[1]);
        let omap = ReadResult::OmapEntries(vec![(vec![1], vec![2])]);
        assert_eq!(omap.as_omap(), &[(vec![1], vec![2])]);
    }

    #[test]
    #[should_panic(expected = "expected Data")]
    fn wrong_accessor_panics() {
        let _ = ReadResult::Stat { size: 0 }.as_data();
    }
}
