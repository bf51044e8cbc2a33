//! Image lifecycle and the raw (unencrypted) IO path.

use crate::striping::{ObjectExtent, Striper};
use crate::{RbdError, Result, DEFAULT_OBJECT_SIZE};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use vdisk_rados::{
    ApplyTicket, Cluster, ObjectReads, ReadOp, ReadTicket, Receipt, SharedBuf, SnapId, Transaction,
};

/// `stat()` output for an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageStat {
    /// Logical image size in bytes.
    pub size: u64,
    /// Object size used for striping.
    pub object_size: u64,
    /// Number of data objects that exist (sparse images have fewer
    /// than `size / object_size`).
    pub objects_written: usize,
}

/// A named image snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// User-facing snapshot name.
    pub name: String,
    /// Underlying RADOS snapshot id.
    pub id: SnapId,
}

/// An open virtual-disk image.
///
/// Cloning is cheap (the cluster handle is shared).
#[derive(Debug, Clone)]
pub struct Image {
    cluster: Cluster,
    name: String,
    size: u64,
    striper: Striper,
    /// Memoized shard-aware object names: a pure function of the image
    /// name, object number and cluster placement config, so the salt
    /// search runs once per object, not once per IO extent.
    object_names: Arc<Mutex<HashMap<u64, String>>>,
}

impl Image {
    fn header_object(name: &str) -> String {
        format!("rbd_header.{name}")
    }

    /// The RADOS object holding stripe `object_no` of this image.
    ///
    /// Names are **shard-aware**: generation is biased (by a salt
    /// suffix chosen deterministically from the cluster's placement
    /// function) so that consecutive objects of one image land on
    /// consecutive state shards. Pure hashing spreads objects only in
    /// expectation; striping them round-robin makes small queued IOs
    /// over neighbouring objects fan out over the maximum number of
    /// shard workers deterministically.
    #[must_use]
    pub fn object_name(&self, object_no: u64) -> String {
        let mut cache = self
            .object_names
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(name) = cache.get(&object_no) {
            return name.clone();
        }
        let name = self.compute_object_name(object_no);
        cache.insert(object_no, name.clone());
        name
    }

    fn compute_object_name(&self, object_no: u64) -> String {
        let plain = format!("rbd_data.{}.{object_no:016x}", self.name);
        let shards = self.cluster.shard_count();
        if shards <= 1 {
            return plain;
        }
        let target = (object_no % shards as u64) as usize;
        if self.cluster.placement_shard(&plain) == target {
            return plain;
        }
        // Expected tries ≈ shard count; 64 attempts miss with
        // probability (1 - 1/shards)^64 — negligible for any sane
        // shard count. The fallback keeps the name valid regardless.
        for salt in 0u32..64 {
            let candidate = format!("{plain}.{salt:02x}");
            if self.cluster.placement_shard(&candidate) == target {
                return candidate;
            }
        }
        plain
    }

    /// Creates an image with the default 4 MB object size.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::ImageExists`] if the name is taken.
    pub fn create(cluster: &Cluster, name: &str, size: u64) -> Result<Image> {
        Self::create_with_object_size(cluster, name, size, DEFAULT_OBJECT_SIZE)
    }

    /// Creates an image with an explicit object size.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::ImageExists`] if the name is taken, or
    /// [`RbdError::Rados`] on malformed parameters.
    pub fn create_with_object_size(
        cluster: &Cluster,
        name: &str,
        size: u64,
        object_size: u64,
    ) -> Result<Image> {
        let header = Self::header_object(name);
        if cluster.object_exists(&header) {
            return Err(RbdError::ImageExists(name.to_string()));
        }
        let mut tx = Transaction::new(header);
        tx.set_xattr("rbd.size", size.to_le_bytes().to_vec());
        tx.set_xattr("rbd.object_size", object_size.to_le_bytes().to_vec());
        cluster.execute(tx)?;
        Ok(Image {
            cluster: cluster.clone(),
            name: name.to_string(),
            size,
            striper: Striper::new(object_size),
            object_names: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Opens an existing image.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::ImageNotFound`] if it does not exist.
    pub fn open(cluster: &Cluster, name: &str) -> Result<Image> {
        let header = Self::header_object(name);
        let (results, _) = cluster
            .read(
                &header,
                None,
                &[
                    ReadOp::GetXattr("rbd.size".into()),
                    ReadOp::GetXattr("rbd.object_size".into()),
                ],
            )
            .map_err(|_| RbdError::ImageNotFound(name.to_string()))?;
        let parse_u64 = |r: &vdisk_rados::ReadResult| -> Option<u64> {
            match r {
                vdisk_rados::ReadResult::Xattr(Some(bytes)) if bytes.len() == 8 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(bytes);
                    Some(u64::from_le_bytes(b))
                }
                _ => None,
            }
        };
        let size = parse_u64(&results[0]).ok_or_else(|| RbdError::ImageNotFound(name.into()))?;
        let object_size =
            parse_u64(&results[1]).ok_or_else(|| RbdError::ImageNotFound(name.into()))?;
        Ok(Image {
            cluster: cluster.clone(),
            name: name.to_string(),
            size,
            striper: Striper::new(object_size),
            object_names: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Deletes an image: its data objects, its header, and any
    /// sidecar objects layered crates store next to the header
    /// (`rbd_header.<name>.<suffix>`, e.g. the `.luks` encryption
    /// header) — an encrypted image removed here no longer strands its
    /// crypt header in the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::ImageNotFound`] if it does not exist.
    pub fn remove(cluster: &Cluster, name: &str) -> Result<()> {
        // Drain the shard work queues first: an in-flight queued write
        // could otherwise create a data object after the listing below
        // and survive the removal.
        cluster.flush();
        let header = Self::header_object(name);
        if !cluster.object_exists(&header) {
            return Err(RbdError::ImageNotFound(name.to_string()));
        }
        let data_prefix = format!("rbd_data.{name}.");
        let sidecar_prefix = format!("{header}.");
        for object in cluster.list_objects() {
            if object.starts_with(&data_prefix)
                || object.starts_with(&sidecar_prefix)
                || object == header
            {
                let mut tx = Transaction::new(object);
                tx.delete();
                cluster.execute(tx)?;
            }
        }
        Ok(())
    }

    /// The image name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Object size used for striping.
    #[must_use]
    pub fn object_size(&self) -> u64 {
        self.striper.object_size()
    }

    /// The striping calculator.
    #[must_use]
    pub fn striper(&self) -> Striper {
        self.striper
    }

    /// The underlying cluster handle.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Image metadata.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::Rados`] if the header vanished.
    pub fn stat(&self) -> Result<ImageStat> {
        let prefix = format!("rbd_data.{}.", self.name);
        let objects_written = self
            .cluster
            .list_objects()
            .iter()
            .filter(|o| o.starts_with(&prefix))
            .count();
        Ok(ImageStat {
            size: self.size,
            object_size: self.striper.object_size(),
            objects_written,
        })
    }

    pub(crate) fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        let end = offset.checked_add(len).ok_or(RbdError::OutOfBounds {
            offset: u64::MAX,
            size: self.size,
        })?;
        if end > self.size {
            return Err(RbdError::OutOfBounds {
                offset: end,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Writes raw bytes (no encryption) and returns the IO's receipt:
    /// a borrowing convenience wrapper that copies `data` once
    /// into an owned buffer and delegates to [`Image::write_owned`].
    /// Hot paths that can hand over the buffer should prefer
    /// `write_owned` (zero-copy) or a [`crate::IoQueue`].
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::OutOfBounds`] if the write exceeds the image.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<Receipt> {
        self.write_owned(offset, data.to_vec())
    }

    /// Writes an owned buffer and returns the IO's receipt —
    /// submit-then-wait over the cluster's shard work queues (idle
    /// shards are served inline). The request is striped up front and
    /// every touched object's transaction receives a **slice view of
    /// the submitted buffer** (one shared allocation, zero copies),
    /// dispatched as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::OutOfBounds`] if the write exceeds the image.
    pub fn write_owned(&self, offset: u64, data: Vec<u8>) -> Result<Receipt> {
        if data.is_empty() {
            self.check_bounds(offset, 0)?;
            return Ok(Receipt::default());
        }
        let txs = self.write_txs(offset, data)?;
        Ok(self.cluster.execute_batch(txs)?)
    }

    /// Submits an owned-buffer write to the shard work queues and
    /// returns its ticket without waiting — the raw asynchronous write
    /// primitive behind [`crate::IoQueue`].
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::OutOfBounds`] if the write exceeds the image.
    pub fn submit_write(&self, offset: u64, data: Vec<u8>) -> Result<ApplyTicket> {
        let txs = self.write_txs(offset, data)?;
        Ok(self.cluster.submit_batch(txs)?)
    }

    /// Builds the striped transactions of an owned-buffer write: one
    /// per touched object, each holding a slice view of the one shared
    /// request allocation.
    fn write_txs(&self, offset: u64, data: Vec<u8>) -> Result<Vec<Transaction>> {
        self.check_bounds(offset, data.len() as u64)?;
        let shared = SharedBuf::from_vec(data);
        Ok(self
            .striper
            .map(offset, shared.len() as u64)
            .into_iter()
            .map(|extent| {
                let mut tx = Transaction::new(self.object_name(extent.object_no));
                tx.write(
                    extent.offset,
                    shared.slice(
                        extent.buf_offset as usize..(extent.buf_offset + extent.len) as usize,
                    ),
                );
                tx
            })
            .collect())
    }

    /// Reads raw bytes from the image head into `buf`; unwritten space
    /// reads as zeros. Returns the IO's receipt.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::OutOfBounds`] if the read exceeds the image.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<Receipt> {
        self.read_common(None, offset, buf)
    }

    /// Reads raw bytes as of a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::OutOfBounds`] if the read exceeds the image.
    pub fn read_at_snap(&self, snap: SnapId, offset: u64, buf: &mut [u8]) -> Result<Receipt> {
        self.read_common(Some(snap), offset, buf)
    }

    fn read_common(&self, snap: Option<SnapId>, offset: u64, buf: &mut [u8]) -> Result<Receipt> {
        let (requests, extents) = self.read_requests(offset, buf.len() as u64)?;
        let (results, receipt) = self.cluster.read_batch(snap, requests)?;
        Self::assemble_read(&extents, &results, buf);
        Ok(receipt)
    }

    /// Submits a vectored read of `[offset, offset + len)` and returns
    /// its ticket plus the extent map needed to reassemble the payload
    /// (see [`Image::assemble_read`]) — the raw asynchronous read
    /// primitive behind [`crate::IoQueue`]. The whole request is
    /// mapped up front; every extent rides one batched submission.
    pub(crate) fn submit_read(
        &self,
        snap: Option<SnapId>,
        offset: u64,
        len: u64,
    ) -> Result<(ReadTicket, Vec<ObjectExtent>)> {
        let (requests, extents) = self.read_requests(offset, len)?;
        Ok((self.cluster.submit_read_batch(snap, requests), extents))
    }

    /// Maps a read onto its per-object requests and extent plan.
    #[allow(clippy::type_complexity)]
    fn read_requests(
        &self,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<ObjectReads>, Vec<ObjectExtent>)> {
        self.check_bounds(offset, len)?;
        let extents = self.striper.map(offset, len);
        let requests: Vec<ObjectReads> = extents
            .iter()
            .map(|extent| {
                ObjectReads::new(
                    self.object_name(extent.object_no),
                    vec![ReadOp::Read {
                        offset: extent.offset,
                        len: extent.len,
                    }],
                )
            })
            .collect();
        Ok((requests, extents))
    }

    /// Scatters one completed read submission's per-extent results
    /// into the request buffer, zero-filling sparse holes (absent
    /// objects answer from the OSD index without disk IO).
    pub(crate) fn assemble_read(
        extents: &[ObjectExtent],
        results: &[Option<Vec<vdisk_rados::ReadResult>>],
        buf: &mut [u8],
    ) {
        for (extent, result) in extents.iter().zip(results) {
            let out =
                &mut buf[extent.buf_offset as usize..(extent.buf_offset + extent.len) as usize];
            match result {
                Some(results) => out.copy_from_slice(results[0].as_data()),
                None => out.fill(0),
            }
        }
    }

    /// Takes a named image snapshot. All data objects written after
    /// this point copy-on-write their pre-snapshot contents.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::SnapshotExists`] if the name is taken.
    pub fn snap_create(&self, snap_name: &str) -> Result<SnapId> {
        if self.snap_id(snap_name)?.is_some() {
            return Err(RbdError::SnapshotExists(snap_name.to_string()));
        }
        let id = self.cluster.create_snap();
        let mut tx = Transaction::new(Self::header_object(&self.name));
        tx.omap_set(vec![(
            format!("snap.{snap_name}").into_bytes(),
            id.0.to_le_bytes().to_vec(),
        )]);
        self.cluster.execute(tx)?;
        Ok(id)
    }

    /// Looks up a snapshot id by name.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::Rados`] if the header read fails.
    pub fn snap_id(&self, snap_name: &str) -> Result<Option<SnapId>> {
        let key = format!("snap.{snap_name}").into_bytes();
        let (results, _) = self.cluster.read(
            &Self::header_object(&self.name),
            None,
            &[ReadOp::OmapGetKeys(vec![key])],
        )?;
        let entries = results[0].as_omap();
        Ok(entries.first().map(|(_, v)| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&v[..8]);
            SnapId(u64::from_le_bytes(b))
        }))
    }

    /// Lists snapshots (sorted by name).
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::Rados`] if the header read fails.
    pub fn snapshots(&self) -> Result<Vec<SnapshotInfo>> {
        let (results, _) = self.cluster.read(
            &Self::header_object(&self.name),
            None,
            &[ReadOp::OmapGetRange {
                start: b"snap.".to_vec(),
                end: b"snap.\xff".to_vec(),
            }],
        )?;
        Ok(results[0]
            .as_omap()
            .iter()
            .map(|(k, v)| {
                let name = String::from_utf8_lossy(&k[b"snap.".len()..]).into_owned();
                let mut b = [0u8; 8];
                b.copy_from_slice(&v[..8]);
                SnapshotInfo {
                    name,
                    id: SnapId(u64::from_le_bytes(b)),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Cluster, Image) {
        let cluster = Cluster::builder().build();
        let image = Image::create(&cluster, "test", 64 << 20).unwrap();
        (cluster, image)
    }

    #[test]
    fn create_open_round_trip() {
        let (cluster, image) = setup();
        assert_eq!(image.size(), 64 << 20);
        let reopened = Image::open(&cluster, "test").unwrap();
        assert_eq!(reopened.size(), 64 << 20);
        assert_eq!(reopened.object_size(), DEFAULT_OBJECT_SIZE);
    }

    #[test]
    fn create_twice_fails() {
        let (cluster, _image) = setup();
        assert_eq!(
            Image::create(&cluster, "test", 1 << 20).unwrap_err(),
            RbdError::ImageExists("test".into())
        );
    }

    #[test]
    fn open_missing_fails() {
        let cluster = Cluster::builder().build();
        assert_eq!(
            Image::open(&cluster, "ghost").unwrap_err(),
            RbdError::ImageNotFound("ghost".into())
        );
    }

    #[test]
    fn write_read_round_trip_across_objects() {
        let (_cluster, image) = setup();
        // Spans the object 0 / object 1 boundary.
        let offset = DEFAULT_OBJECT_SIZE - 2048;
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        image.write_at(offset, &data).unwrap();
        let mut buf = vec![0u8; 8192];
        let receipt = image.read_at(offset, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(receipt.reads.len(), 2, "one read per object");
        assert_eq!(image.stat().unwrap().objects_written, 2);
    }

    #[test]
    fn unwritten_space_reads_zero() {
        let (_cluster, image) = setup();
        image.write_at(0, b"x").unwrap();
        let mut buf = vec![0xAAu8; 4096];
        image.read_at(8 << 20, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 4096]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_cluster, image) = setup();
        let size = image.size();
        assert!(matches!(
            image.write_at(size - 1, &[0, 0]),
            Err(RbdError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            image.read_at(size - 1, &mut buf),
            Err(RbdError::OutOfBounds { .. })
        ));
        // Exactly at the end is fine.
        image.write_at(size - 2, &[1, 2]).unwrap();
    }

    #[test]
    fn empty_writes_are_noops() {
        let (cluster, image) = setup();
        let before = cluster.exec_stats();
        assert_eq!(image.write_at(0, &[]).unwrap(), Receipt::default());
        assert_eq!(
            image.write_owned(10, Vec::new()).unwrap(),
            Receipt::default()
        );
        assert_eq!(
            cluster.exec_stats(),
            before,
            "an empty write must not reach the cluster"
        );
        // But bounds still apply.
        assert!(image.write_owned(image.size() + 1, Vec::new()).is_err());
    }

    #[test]
    fn snapshots_freeze_data() {
        let (_cluster, image) = setup();
        image.write_at(0, b"before").unwrap();
        let snap = image.snap_create("s1").unwrap();
        image.write_at(0, b"after!").unwrap();

        let mut head = vec![0u8; 6];
        image.read_at(0, &mut head).unwrap();
        assert_eq!(&head, b"after!");

        let mut old = vec![0u8; 6];
        image.read_at_snap(snap, 0, &mut old).unwrap();
        assert_eq!(&old, b"before");
    }

    #[test]
    fn snapshot_names_resolve() {
        let (_cluster, image) = setup();
        image.write_at(0, b"x").unwrap();
        let s1 = image.snap_create("alpha").unwrap();
        let s2 = image.snap_create("beta").unwrap();
        assert_eq!(image.snap_id("alpha").unwrap(), Some(s1));
        assert_eq!(image.snap_id("missing").unwrap(), None);
        let all = image.snapshots().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "alpha");
        assert_eq!(all[1].id, s2);
    }

    #[test]
    fn duplicate_snapshot_name_rejected() {
        let (_cluster, image) = setup();
        image.snap_create("s").unwrap();
        assert_eq!(
            image.snap_create("s").unwrap_err(),
            RbdError::SnapshotExists("s".into())
        );
    }

    #[test]
    fn remove_deletes_everything() {
        let (cluster, image) = setup();
        image.write_at(0, &[1u8; 4096]).unwrap();
        image.write_at(20 << 20, &[2u8; 4096]).unwrap();
        Image::remove(&cluster, "test").unwrap();
        assert!(cluster.list_objects().is_empty());
        assert!(Image::open(&cluster, "test").is_err());
        assert!(Image::remove(&cluster, "test").is_err());
    }

    #[test]
    fn remove_deletes_sidecar_headers() {
        // Regression: the encryption layer stores its LUKS-style header
        // as `rbd_header.<name>.luks`; remove used to match only the
        // data prefix and the rbd header, stranding the crypt header.
        let (cluster, image) = setup();
        image.write_at(0, &[1u8; 512]).unwrap();
        let mut tx = Transaction::new("rbd_header.test.luks");
        tx.write(0, vec![7u8; 64]);
        cluster.execute(tx).unwrap();
        Image::remove(&cluster, "test").unwrap();
        assert!(
            cluster.list_objects().is_empty(),
            "sidecar headers must not be stranded"
        );
    }

    #[test]
    fn sparse_stat_counts_objects() {
        let (_cluster, image) = setup();
        assert_eq!(image.stat().unwrap().objects_written, 0);
        image.write_at(0, &[0u8; 16]).unwrap();
        image.write_at(33 << 20, &[0u8; 16]).unwrap();
        assert_eq!(image.stat().unwrap().objects_written, 2);
    }

    #[test]
    fn snapshot_of_unwritten_object_reads_zero() {
        let (_cluster, image) = setup();
        image.write_at(0, b"first").unwrap();
        let snap = image.snap_create("s").unwrap();
        // Object 2 written only after the snapshot.
        image.write_at(8 << 20, b"later").unwrap();
        let mut buf = vec![0xFFu8; 5];
        image.read_at_snap(snap, 8 << 20, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 5]);
    }
}
