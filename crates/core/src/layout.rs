//! Where an encrypted image's bytes live. [`Placement`] owns every
//! per-layout decision: the paper's three metadata placements (Fig. 2)
//! and the length-preserving LUKS2 baseline.
//!
//! All four keep the *logical* geometry identical (an object holds
//! `object_size / sector_size` sectors); they differ only in where the
//! ciphertext and the per-sector metadata physically live:
//!
//! - **Baseline** (LUKS2): sector k occupies `[k·ss, (k+1)·ss)`; no
//!   metadata is stored.
//! - **Unaligned** (Fig. 2a): sector k occupies
//!   `[k·(ss+me), k·(ss+me)+ss)` and its metadata follows immediately.
//!   One contiguous extent per IO, but almost every sector straddles a
//!   physical 4 KB boundary → read-modify-write on writes.
//! - **Object end** (Fig. 2b): sector k's data stays at `k·ss` (fully
//!   aligned); its metadata lives at `spo·ss + k·me`, batched with its
//!   neighbors at the object tail.
//! - **OMAP** (Fig. 2c): data stays at `k·ss`; metadata is the value of
//!   key `big_endian(k)` in the object's key-value database.
//!
//! An image builds its placement once, when it is formatted or opened.
//! The write path asks it how an extent's ciphertext and packed
//! metadata run join the extent's transaction
//! ([`Placement::write_extent`]); the read path asks which ops fetch an
//! extent ([`Placement::read_ops`]) and how their results unpack
//! ([`Placement::unpack`]); the IV cache asks whether metadata costs a
//! fetch of its own ([`Placement::fetches_meta_separately`]). The IO
//! path itself never matches on a layout.

use crate::config::{EncryptionConfig, MetaLayout};
use crate::{CryptError, Result};
use std::borrow::Cow;
use vdisk_rados::{ReadOp, ReadResult, SharedBuf, Transaction};

/// Geometry of one encrypted object: sector size, metadata entry size,
/// sectors per object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Encryption sector size in bytes.
    pub sector_size: u64,
    /// Metadata entry size per sector in bytes (0 for the baseline).
    pub meta_entry: u64,
    /// Sectors per object.
    pub sectors_per_object: u64,
}

impl Geometry {
    /// Builds the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is not a multiple of `sector_size`.
    #[must_use]
    pub fn new(object_size: u64, sector_size: u64, meta_entry: u64) -> Self {
        assert!(
            object_size.is_multiple_of(sector_size),
            "object size must be a whole number of sectors"
        );
        Geometry {
            sector_size,
            meta_entry,
            sectors_per_object: object_size / sector_size,
        }
    }

    /// Interleaves a contiguous ciphertext run and its packed metadata
    /// run into the unaligned layout's single on-disk extent — used by
    /// the batched write path (one output allocation, none per
    /// sector).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with the geometry.
    #[must_use]
    pub fn interleave_unaligned_run(&self, sectors: &[u8], metas: &[u8]) -> Vec<u8> {
        let ss = self.sector_size as usize;
        let me = self.meta_entry as usize;
        assert_eq!(sectors.len() % ss, 0, "whole sectors only");
        let count = sectors.len() / ss;
        assert_eq!(metas.len(), count * me, "one meta entry per sector");
        let mut out = Vec::with_capacity(count * (ss + me));
        for i in 0..count {
            out.extend_from_slice(&sectors[i * ss..(i + 1) * ss]);
            out.extend_from_slice(&metas[i * me..(i + 1) * me]);
        }
        out
    }

    /// Splits an unaligned-layout extent into `out` (the contiguous
    /// ciphertext run, decrypted in place by the caller) and the
    /// packed metadata run it returns — the flat-buffer inverse of
    /// [`Geometry::interleave_unaligned_run`].
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of strides or `out` does
    /// not match its data size.
    #[must_use]
    pub fn deinterleave_unaligned_run(&self, buf: &[u8], out: &mut [u8]) -> Vec<u8> {
        let ss = self.sector_size as usize;
        let me = self.meta_entry as usize;
        let stride = ss + me;
        assert_eq!(buf.len() % stride, 0, "buffer must be whole strides");
        let count = buf.len() / stride;
        assert_eq!(out.len(), count * ss, "output must hold every sector");
        let mut metas = Vec::with_capacity(count * me);
        for (chunk, sector_out) in buf.chunks_exact(stride).zip(out.chunks_exact_mut(ss)) {
            sector_out.copy_from_slice(&chunk[..ss]);
            metas.extend_from_slice(&chunk[ss..]);
        }
        metas
    }

    /// The object-end layout's metadata extent of sectors
    /// `[first, first+count)`: past the data region, `me` bytes each.
    fn tail_meta_extent(&self, first: u64, count: u64) -> (u64, u64) {
        let base = self.sectors_per_object * self.sector_size;
        (base + first * self.meta_entry, count * self.meta_entry)
    }
}

/// OMAP key for a sector's metadata (big-endian, so range queries
/// iterate sectors in order).
fn omap_key(sector_in_object: u64) -> Vec<u8> {
    sector_in_object.to_be_bytes().to_vec()
}

/// Inverse of [`omap_key`].
fn sector_from_omap_key(key: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(key.try_into().ok()?))
}

/// Where an image's ciphertext and per-sector metadata live: one
/// variant per layout, each holding the object [`Geometry`]. Every
/// per-layout decision of the IO path is one method here (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The length-preserving LUKS2 baseline: no metadata.
    Baseline(Geometry),
    /// Each sector's metadata right after its data (Fig. 2a).
    Unaligned(Geometry),
    /// All metadata of an object after its data region (Fig. 2b).
    ObjectEnd(Geometry),
    /// Metadata in the object's key-value database (Fig. 2c).
    Omap(Geometry),
}

impl Placement {
    /// Places `geometry` under `layout` (`None` is the baseline).
    #[must_use]
    pub fn new(layout: Option<MetaLayout>, geometry: Geometry) -> Placement {
        match layout {
            None => Placement::Baseline(geometry),
            Some(MetaLayout::Unaligned) => Placement::Unaligned(geometry),
            Some(MetaLayout::ObjectEnd) => Placement::ObjectEnd(geometry),
            Some(MetaLayout::Omap) => Placement::Omap(geometry),
        }
    }

    /// The placement of an image with `object_size`-byte objects under
    /// a validated `config`, or why its objects cannot hold whole
    /// sectors.
    pub(crate) fn for_image(
        config: &EncryptionConfig,
        object_size: u64,
    ) -> std::result::Result<Placement, String> {
        let ss = u64::from(config.sector_size);
        if object_size < ss || !object_size.is_multiple_of(ss) {
            return Err(format!(
                "object size {object_size} is not a whole number of {ss}-byte sectors"
            ));
        }
        let geometry = Geometry::new(object_size, ss, u64::from(config.meta_entry_len()));
        Ok(Placement::new(config.layout, geometry))
    }

    /// The object geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        match *self {
            Placement::Baseline(g)
            | Placement::Unaligned(g)
            | Placement::ObjectEnd(g)
            | Placement::Omap(g) => g,
        }
    }

    /// Whether each sector stores a metadata entry — and with it the
    /// key-epoch tag that routes it during a rekey. Every layout does;
    /// the baseline cannot.
    #[must_use]
    pub fn stores_meta(&self) -> bool {
        !matches!(self, Placement::Baseline(_))
    }

    /// Whether metadata costs a fetch of its own beside the data: a
    /// second extent at the object end, a range lookup in the OMAP.
    /// Only then can the client-side IV cache save a round trip; the
    /// unaligned layout reads its metadata inside the data extent.
    #[must_use]
    pub fn fetches_meta_separately(&self) -> bool {
        matches!(self, Placement::ObjectEnd(_) | Placement::Omap(_))
    }

    /// Physical extent of the *data* of sectors `[first, first+count)`:
    /// `(offset, len)` within the object.
    ///
    /// # Panics
    ///
    /// Panics if the sector range exceeds the object.
    #[must_use]
    pub fn data_extent(&self, first: u64, count: u64) -> (u64, u64) {
        let g = self.geometry();
        assert!(
            first + count <= g.sectors_per_object,
            "sector range beyond object"
        );
        let stride = match self {
            Placement::Unaligned(_) => g.sector_size + g.meta_entry,
            _ => g.sector_size,
        };
        (first * stride, count * stride)
    }

    /// Physical extent of the *metadata* of sectors
    /// `[first, first+count)`; `None` unless the layout stores it in an
    /// extent of its own (object end).
    #[must_use]
    pub fn meta_extent(&self, first: u64, count: u64) -> Option<(u64, u64)> {
        match self {
            Placement::ObjectEnd(g) => Some(g.tail_meta_extent(first, count)),
            _ => None,
        }
    }

    /// Physical bytes occupied by a full object (the paper: unaligned
    /// and object-end objects grow slightly beyond 4 MB; OMAP metadata
    /// lives in the key-value store, not the object).
    #[must_use]
    pub fn object_footprint(&self) -> u64 {
        let g = self.geometry();
        let data = g.sectors_per_object * g.sector_size;
        match self {
            Placement::Unaligned(_) | Placement::ObjectEnd(_) => {
                data + g.sectors_per_object * g.meta_entry
            }
            Placement::Baseline(_) | Placement::Omap(_) => data,
        }
    }

    /// Adds one extent to its object's transaction: the ciphertext of
    /// sectors `[first, ..)` and their packed metadata run. The
    /// transaction takes views of both buffers, except where the layout
    /// needs new bytes: the unaligned layout interleaves the two runs,
    /// and OMAP stores one key-value pair per sector.
    pub fn write_extent(
        &self,
        tx: &mut Transaction,
        first: u64,
        sectors: SharedBuf,
        metas: SharedBuf,
    ) {
        let g = self.geometry();
        let count = sectors.len() as u64 / g.sector_size;
        let (offset, _) = self.data_extent(first, count);
        match self {
            Placement::Baseline(_) => {
                tx.write(offset, sectors);
            }
            Placement::Unaligned(_) => {
                tx.write(offset, g.interleave_unaligned_run(&sectors, &metas));
            }
            Placement::ObjectEnd(_) => {
                tx.write(offset, sectors);
                tx.write(g.tail_meta_extent(first, count).0, metas);
            }
            Placement::Omap(_) => {
                tx.write(offset, sectors);
                let me = g.meta_entry as usize;
                let entries = metas
                    .chunks_exact(me)
                    .zip(first..)
                    .map(|(meta, sector)| (omap_key(sector), meta.to_vec()))
                    .collect();
                tx.omap_set(entries);
            }
        }
    }

    /// The read ops fetching the ciphertext of sectors
    /// `[first, first+count)` and, `with_meta`, their metadata. The
    /// unaligned layout's data extent carries the metadata either way.
    #[must_use]
    pub fn read_ops(&self, first: u64, count: u64, with_meta: bool) -> Vec<ReadOp> {
        let (offset, len) = self.data_extent(first, count);
        let data = ReadOp::Read { offset, len };
        match self {
            Placement::ObjectEnd(g) if with_meta => {
                let (offset, len) = g.tail_meta_extent(first, count);
                vec![data, ReadOp::Read { offset, len }]
            }
            Placement::Omap(_) if with_meta => vec![
                data,
                ReadOp::OmapGetRange {
                    start: omap_key(first),
                    end: omap_key(first + count),
                },
            ],
            _ => vec![data],
        }
    }

    /// Unpacks the results of [`Placement::read_ops`] for sectors
    /// `[first, ..)`: the ciphertext into `dest` (which holds exactly
    /// those sectors), and the packed metadata run, returned. `None`
    /// when the results carry no stored entry: the baseline stores
    /// none, the ops left the metadata out, or an OMAP range held no
    /// key (OMAP keys absent inside a range stay all-zero, which the
    /// codec reads as "never written").
    ///
    /// # Errors
    ///
    /// [`CryptError::HeaderCorrupt`] if an OMAP value is not one
    /// metadata entry long.
    pub fn unpack<'r>(
        &self,
        first: u64,
        results: &'r [ReadResult],
        dest: &mut [u8],
    ) -> Result<Option<Cow<'r, [u8]>>> {
        let data = results[0].as_data();
        if let Placement::Unaligned(g) = self {
            return Ok(Some(Cow::Owned(g.deinterleave_unaligned_run(data, dest))));
        }
        dest.copy_from_slice(data);
        match (self, results.get(1)) {
            (Placement::ObjectEnd(_), Some(meta)) => Ok(Some(Cow::Borrowed(meta.as_data()))),
            (Placement::Omap(g), Some(meta)) => {
                let count = dest.len() as u64 / g.sector_size;
                Ok(pack_omap_metas(g, first, count, meta.as_omap())?.map(Cow::Owned))
            }
            _ => Ok(None),
        }
    }
}

/// Packs one extent's fetched OMAP entries into a contiguous run in
/// sector order; `None` when the range held no key at all.
fn pack_omap_metas(
    g: &Geometry,
    first: u64,
    count: u64,
    entries: &[(Vec<u8>, Vec<u8>)],
) -> Result<Option<Vec<u8>>> {
    if entries.is_empty() {
        return Ok(None);
    }
    let me = g.meta_entry as usize;
    let mut metas = vec![0u8; count as usize * me];
    for (key, value) in entries {
        let Some(sector) = sector_from_omap_key(key) else {
            continue;
        };
        if sector < first || sector >= first + count {
            continue;
        }
        if value.len() != me {
            return Err(CryptError::HeaderCorrupt(format!(
                "metadata entry is {} bytes, expected {me}",
                value.len()
            )));
        }
        let idx = (sector - first) as usize;
        metas[idx * me..(idx + 1) * me].copy_from_slice(value);
    }
    Ok(Some(metas))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB4: u64 = 4 << 20;

    fn geo() -> Geometry {
        Geometry::new(MB4, 4096, 16)
    }

    fn placed(layout: Option<MetaLayout>) -> Placement {
        Placement::new(layout, geo())
    }

    #[test]
    fn sectors_per_object_default() {
        assert_eq!(geo().sectors_per_object, 1024);
        assert_eq!(Geometry::new(MB4, 512, 16).sectors_per_object, 8192);
    }

    #[test]
    fn baseline_data_extent_is_identity() {
        let p = placed(None);
        assert_eq!(p.data_extent(0, 1), (0, 4096));
        assert_eq!(p.data_extent(10, 4), (40960, 16384));
        assert_eq!(p.meta_extent(0, 1), None);
    }

    #[test]
    fn unaligned_stride_is_ss_plus_me() {
        let p = placed(Some(MetaLayout::Unaligned));
        // The paper's example: each IV stored at the end of its block.
        assert_eq!(p.data_extent(0, 1), (0, 4112));
        assert_eq!(p.data_extent(3, 2), (3 * 4112, 2 * 4112));
        // Sector 1's start (4112) is NOT 4 KB aligned — the RMW source.
        assert_ne!(4112 % 4096, 0);
    }

    #[test]
    fn object_end_batches_meta_at_tail() {
        let p = placed(Some(MetaLayout::ObjectEnd));
        assert_eq!(p.data_extent(5, 3), (5 * 4096, 3 * 4096));
        assert_eq!(p.meta_extent(5, 3), Some((MB4 + 5 * 16, 48)));
    }

    #[test]
    fn omap_keys_order_like_sectors() {
        let k5 = omap_key(5);
        let k100 = omap_key(100);
        assert!(k5 < k100, "BE keys must sort numerically");
        assert_eq!(sector_from_omap_key(&k5), Some(5));
        assert_eq!(sector_from_omap_key(b"short"), None);
    }

    #[test]
    fn interleave_run_round_trip() {
        let g = geo();
        let sectors: Vec<u8> = (0..3u8).flat_map(|i| vec![i; 4096]).collect();
        let metas: Vec<u8> = (0..3u8).flat_map(|i| vec![0xA0 + i; 16]).collect();
        let buf = g.interleave_unaligned_run(&sectors, &metas);
        assert_eq!(buf.len(), 3 * 4112);
        // Sector k's metadata sits immediately after its data.
        assert_eq!(buf[4096], 0xA0);
        assert_eq!(buf[4112 + 4096], 0xA1);
        let mut out = vec![0u8; sectors.len()];
        let parsed_metas = g.deinterleave_unaligned_run(&buf, &mut out);
        assert_eq!(out, sectors);
        assert_eq!(parsed_metas, metas);
    }

    #[test]
    fn footprints_match_paper_description() {
        assert_eq!(placed(None).object_footprint(), MB4);
        assert_eq!(
            placed(Some(MetaLayout::ObjectEnd)).object_footprint(),
            MB4 + 1024 * 16
        );
        assert_eq!(
            placed(Some(MetaLayout::Unaligned)).object_footprint(),
            MB4 + 1024 * 16
        );
        assert_eq!(placed(Some(MetaLayout::Omap)).object_footprint(), MB4);
    }

    #[test]
    fn whole_object_unaligned_write_is_block_aligned() {
        // §3.3 subtlety: a full-object unaligned write starts at offset
        // 0 and its length (1024 × 4112) is a multiple of 4096, so the
        // *large-IO* unaligned overhead shrinks — matching the paper's
        // converging curves.
        let (off, len) = placed(Some(MetaLayout::Unaligned)).data_extent(0, 1024);
        assert_eq!(off, 0);
        assert_eq!(len % 4096, 0);
    }

    #[test]
    #[should_panic(expected = "beyond object")]
    fn data_extent_bounds_checked() {
        let _ = placed(None).data_extent(1020, 10);
    }
}
