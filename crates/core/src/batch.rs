//! Vectored IO planning: one up-front mapping of a sector-aligned
//! request onto the objects it touches.
//!
//! Both halves of the encrypted IO path share this plan. The write
//! path encrypts the whole request into one contiguous buffer and
//! emits one transaction per [`SectorExtent`], dispatched as a single
//! batch (`Cluster::execute_batch`, one receipt record per
//! transaction); the read path
//! issues one vectored `read_batch` over the same extents and
//! decrypts each one in place in the destination buffer.

use vdisk_rbd::Striper;

use crate::layout::Geometry;

/// One object's slice of a sector-aligned request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectorExtent {
    /// Object index within the image.
    pub object_no: u64,
    /// First touched sector *within the object*.
    pub first_sector: u64,
    /// Number of touched sectors.
    pub sector_count: u64,
    /// Logical (image-absolute) sector number of the first sector —
    /// the value bound into tweaks, MACs and AADs.
    pub base_lba: u64,
    /// Start of this extent's bytes within the request buffer.
    pub buf_start: usize,
    /// End (exclusive) of this extent's bytes within the request
    /// buffer.
    pub buf_end: usize,
}

impl SectorExtent {
    /// Bytes of request payload covered by this extent.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.buf_end - self.buf_start
    }
}

/// The full extent plan of one sector-aligned request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoBatch {
    /// Byte offset of the request within the image.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u64,
    /// Object extents, ascending by object number, jointly
    /// partitioning `[0, len)` of the request buffer.
    pub extents: Vec<SectorExtent>,
}

impl IoBatch {
    /// Maps a sector-aligned request onto object extents.
    ///
    /// # Panics
    ///
    /// Panics if `offset` or `len` is not sector-aligned (callers
    /// align first; unaligned IO goes through read-modify-write).
    #[must_use]
    pub fn plan(striper: Striper, geometry: &Geometry, offset: u64, len: u64) -> IoBatch {
        let ss = geometry.sector_size;
        assert!(
            offset.is_multiple_of(ss) && len.is_multiple_of(ss),
            "IoBatch requires sector-aligned requests"
        );
        let spo = geometry.sectors_per_object;
        let extents = striper
            .map(offset, len)
            .into_iter()
            .map(|extent| {
                let first_sector = extent.offset / ss;
                SectorExtent {
                    object_no: extent.object_no,
                    first_sector,
                    sector_count: extent.len / ss,
                    base_lba: extent.object_no * spo + first_sector,
                    buf_start: extent.buf_offset as usize,
                    buf_end: (extent.buf_offset + extent.len) as usize,
                }
            })
            .collect();
        IoBatch {
            offset,
            len,
            extents,
        }
    }

    /// Number of objects (and therefore transactions or read
    /// requests) the request fans out to.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.extents.len()
    }

    /// Total sectors in the request.
    #[must_use]
    pub fn sector_count(&self) -> u64 {
        self.extents.iter().map(|e| e.sector_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB4: u64 = 4 << 20;

    fn geo() -> Geometry {
        Geometry::new(MB4, 4096, 16)
    }

    #[test]
    fn single_object_plan() {
        let batch = IoBatch::plan(Striper::new(MB4), &geo(), 8192, 12288);
        assert_eq!(batch.object_count(), 1);
        assert_eq!(batch.sector_count(), 3);
        let e = &batch.extents[0];
        assert_eq!(e.object_no, 0);
        assert_eq!(e.first_sector, 2);
        assert_eq!(e.base_lba, 2);
        assert_eq!((e.buf_start, e.buf_end), (0, 12288));
    }

    #[test]
    fn spanning_plan_partitions_the_buffer() {
        let batch = IoBatch::plan(Striper::new(MB4), &geo(), MB4 - 8192, 3 * MB4);
        assert_eq!(batch.object_count(), 4);
        assert_eq!(batch.sector_count(), 3 * 1024);
        // Extents tile the buffer with no gaps.
        let mut cursor = 0usize;
        for e in &batch.extents {
            assert_eq!(e.buf_start, cursor);
            cursor = e.buf_end;
            assert_eq!(e.byte_len() as u64, e.sector_count * 4096);
        }
        assert_eq!(cursor as u64, batch.len);
        // LBAs are image-absolute: object 1 starts at sector 1024.
        assert_eq!(batch.extents[0].base_lba, 1022);
        assert_eq!(batch.extents[1].base_lba, 1024);
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn unaligned_requests_rejected() {
        let _ = IoBatch::plan(Striper::new(MB4), &geo(), 100, 4096);
    }
}
