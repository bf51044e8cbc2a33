//! The client-side encrypting IO path over an RBD image.

use crate::audit::SectorObservation;
use crate::batch::IoBatch;
use crate::config::EncryptionConfig;
use crate::keychain::{EpochMap, KeyChain};
use crate::layout::{Geometry, Placement};
use crate::luks::RekeyState;
use crate::meta_cache::MetaCache;
use crate::rekey::RekeyDriver;
use crate::{CryptError, Result};
use std::borrow::Cow;
use vdisk_crypto::rng::{IvSource, OsIvSource};
use vdisk_rados::{
    ApplyTicket, ExecStats, ObjectReads, ReadResult, ReadTicket, Receipt, SharedBuf, SnapId,
    Transaction,
};
use vdisk_rbd::{Image, RbdError};

/// An encrypted virtual disk: every write encrypts client-side and
/// persists per-sector metadata (when configured) in the same atomic
/// RADOS transaction as the data; every read fetches data + metadata
/// and decrypts client-side — unless the sector's metadata is resident
/// in the image's client-side IV/metadata cache, in which case the
/// metadata round trip is skipped entirely (size the cache with
/// [`vdisk_rados::ClusterBuilder::meta_cache_bytes`]; see the crate
/// docs for the invalidation contract).
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct EncryptedImage {
    image: Image,
    /// The key lifecycle: header, per-epoch codecs, snapshot epoch
    /// maps, armed rekey markers, and master keys mid-rekey only.
    keys: KeyChain,
    iv_source: Box<dyn IvSource>,
    placement: Placement,
    /// Client-side cache of persisted per-sector metadata entries for
    /// head reads. Interior-mutable: reads fill and hit it through
    /// `&self`, writes invalidate through `&mut self`.
    meta_cache: MetaCache,
}

impl std::fmt::Debug for EncryptedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedImage")
            .field("image", &self.image.name())
            .field("config", self.keys.config())
            .finish_non_exhaustive()
    }
}

/// A write between preparation and completion: what
/// [`EncryptedImage::prepare_write`] hands — past the dispatch of the
/// transactions it built — to [`EncryptedImage::complete_write`].
/// (`pub` because the queue backend's pending state holds one; the
/// type is not exported.)
pub struct PreparedWrite {
    /// Client-side encryption work as the receipt records it: the
    /// bytes encrypted.
    crypto: u64,
    /// Boundary-sector reads of an unaligned write (already performed
    /// at prepare time); their cache hits/misses belong to this op so
    /// per-op `IoResult` deltas reconcile with the cluster-wide
    /// counters.
    rmw: RmwReads,
    /// Cached IV/metadata sectors this write invalidated.
    invalidated: u64,
    /// Write-through cache fills: the metadata entries this write
    /// persists, installable at completion if the extent's shard
    /// epoch is unchanged (see [`EncryptedImage::apply_write_fills`]).
    fills: Vec<WriteFill>,
}

/// One extent's write-through cache fill, captured at submit: the
/// entries the write persisted plus the validity token (shard
/// write-submission epoch taken **after** this write's own submission
/// bump, cache generation at submit). At reap, an unchanged epoch
/// proves no later overwrite or snapshot was submitted for the shard,
/// so the entries are current and may enter the cache — the same rule
/// read fills follow.
struct WriteFill {
    base_lba: u64,
    metas: SharedBuf,
    shard: usize,
    epoch: u64,
    generation: u64,
}

/// How one extent of a read span obtains its per-sector metadata.
enum ExtentMeta {
    /// Every sector's entry was resident in the IV/metadata cache at
    /// submit: the metadata op was skipped and these packed bytes
    /// decrypt the extent at reap.
    Cached(Vec<u8>),
    /// The metadata (if the layout stores any) is fetched from the
    /// store with the data. `fill` is `Some((shard, epoch))` when the
    /// fetched entries are eligible to enter the cache at reap — a
    /// head read with the cache enabled — carrying the extent's shard
    /// index and its write-submission epoch captured **before** the
    /// read was submitted. The fill happens only if the epoch is
    /// unchanged at reap (see [`vdisk_rados::Cluster::shard_write_seq`]).
    Fetched { fill: Option<(usize, u64)> },
}

/// Accumulates an unaligned write's boundary-sector reads: their
/// receipts and the cache hit/miss deltas they recorded.
#[derive(Default)]
struct RmwReads {
    receipts: Vec<Receipt>,
    hits: u64,
    misses: u64,
}

impl RmwReads {
    fn read(&mut self, disk: &EncryptedImage, offset: u64, buf: &mut [u8]) -> Result<()> {
        let (receipt, hits, misses) = disk.read_common(None, offset, buf)?;
        self.receipts.push(receipt);
        self.hits += hits;
        self.misses += misses;
        Ok(())
    }
}

/// A read's aligned-span plan: the extent mapping plus the per-extent
/// metadata sourcing and cache accounting decided at submit time.
/// (`pub` because the queue backend's pending state holds one; the
/// type is not exported.)
pub struct ReadSpan {
    batch: IoBatch,
    /// Parallel to `batch.extents`.
    meta: Vec<ExtentMeta>,
    /// IV/metadata cache generation at submit; fills re-validate
    /// against it so they never span a snapshot's wholesale
    /// invalidation.
    generation: u64,
    /// Key-epoch map captured at submit from `KeyChain::epochs` (the
    /// baseline layout's only epoch source; tagged layouts route by
    /// entry). Per-shard FIFO pins the fetched data to the same
    /// submission point, so the captured map matches the fetched
    /// ciphertext even if the rekey driver publishes a window before
    /// the read is reaped.
    epochs: EpochMap,
    /// Sectors whose metadata round trip the cache absorbed.
    pub(crate) hits: u64,
    /// Sectors that had to fetch metadata despite the cache.
    pub(crate) misses: u64,
}

impl EncryptedImage {
    /// Formats an image for encryption: generates a master key, writes
    /// the LUKS-style header, and returns the opened device. IVs come
    /// from the OS CSPRNG.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::UnsupportedConfig`] for invalid configs or
    /// [`CryptError::Rbd`] on store failures.
    pub fn format(
        image: Image,
        config: &EncryptionConfig,
        passphrase: &[u8],
    ) -> Result<EncryptedImage> {
        Self::format_with_iv_source(image, config, passphrase, Box::new(OsIvSource::new()))
    }

    /// Formats with an explicit IV source (seeded for reproducible
    /// tests and benchmarks).
    ///
    /// # Errors
    ///
    /// As [`EncryptedImage::format`].
    pub fn format_with_iv_source(
        image: Image,
        config: &EncryptionConfig,
        passphrase: &[u8],
        mut iv_source: Box<dyn IvSource>,
    ) -> Result<EncryptedImage> {
        config.validate()?;
        let placement = Placement::for_image(config, image.object_size())
            .map_err(CryptError::UnsupportedConfig)?;
        Self::check_sector_multiple(&image, u64::from(config.sector_size))?;
        let keys = KeyChain::format(&image, config, passphrase, iv_source.as_mut())?;
        let meta_cache = Self::build_meta_cache(&image, placement);
        Ok(EncryptedImage {
            image,
            keys,
            iv_source,
            placement,
            meta_cache,
        })
    }

    /// Opens an encrypted image with a passphrase.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if no keyslot of the
    /// current epoch matches, [`CryptError::RekeyInProgress`] if one
    /// does but, mid-rekey, none of the retiring epoch does, or
    /// [`CryptError::HeaderCorrupt`] if the header fails to parse.
    pub fn open(image: Image, passphrase: &[u8]) -> Result<EncryptedImage> {
        Self::open_with_iv_source(image, passphrase, Box::new(OsIvSource::new()))
    }

    /// Opens with an explicit IV source.
    ///
    /// # Errors
    ///
    /// As [`EncryptedImage::open`].
    pub fn open_with_iv_source(
        image: Image,
        passphrase: &[u8],
        iv_source: Box<dyn IvSource>,
    ) -> Result<EncryptedImage> {
        let keys = KeyChain::open(&image, passphrase)?;
        let placement = Placement::for_image(keys.config(), image.object_size())
            .map_err(CryptError::HeaderCorrupt)?;
        Self::check_sector_multiple(&image, u64::from(keys.config().sector_size))?;
        let meta_cache = Self::build_meta_cache(&image, placement);
        Ok(EncryptedImage {
            image,
            keys,
            iv_source,
            placement,
            meta_cache,
        })
    }

    /// Builds the image's IV/metadata cache from the cluster's budget.
    /// Only layouts whose metadata costs a **separate** fetch benefit
    /// ([`Placement::fetches_meta_separately`]); elsewhere the cache
    /// stays disabled (no round trip to save).
    fn build_meta_cache(image: &Image, placement: Placement) -> MetaCache {
        MetaCache::new(
            image.cluster().meta_cache_bytes(),
            placement.geometry().meta_entry as usize,
            placement.fetches_meta_separately(),
        )
    }

    /// Adds a new passphrase (authorized by an existing one) and
    /// persists the updated header. Mid-rekey the new passphrase is
    /// bound to both epochs of the migration, like `rekey_begin`'s, so
    /// it opens the image as fully as the passphrase that authorized it.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if `existing` unlocks no
    /// keyslot, [`CryptError::NoFreeKeyslot`] when all 8 slots are
    /// taken, or [`CryptError::HeaderContended`] if another handle
    /// updated the header concurrently.
    pub fn add_passphrase(&mut self, existing: &[u8], new: &[u8]) -> Result<usize> {
        self.keys
            .add_passphrase(existing, new, self.iv_source.as_mut())
    }

    /// Rotates a passphrase: every keyslot `existing` unlocks is
    /// re-wrapped under `new` in place — a pure header update (one
    /// small CASed write), no data IO, no key change. Returns the
    /// number of slots rotated.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if `existing` unlocks
    /// nothing, or [`CryptError::HeaderContended`] on a concurrent
    /// header update.
    pub fn rotate_passphrase(&mut self, existing: &[u8], new: &[u8]) -> Result<usize> {
        self.keys
            .rotate_passphrase(existing, new, self.iv_source.as_mut())
    }

    /// Starts an **online rekey**: installs a fresh master key as the
    /// next key epoch (authorized by `existing`, unlocked by
    /// `new_pass` from here on), persists the updated header, and
    /// returns the [`RekeyDriver`] that migrates every sector's
    /// ciphertext to the new key — through the image's own
    /// [`crate::EncryptedIoQueue`], at a bounded queue depth, while
    /// reads and writes keep flowing:
    ///
    /// - layouts with per-sector metadata stamp each sector's epoch
    ///   into its stored entry, so mixed-epoch states are self-routing;
    /// - the baseline layout uses the driver's sequential watermark
    ///   (sectors below it are new-epoch);
    /// - the old passphrase stops unlocking immediately; `new_pass`
    ///   bridges both epochs until the migration completes.
    ///
    /// Drive it with [`RekeyDriver::step`] (interleaving your own IO
    /// between steps) or [`RekeyDriver::drive_to_completion`].
    ///
    /// # Errors
    ///
    /// [`CryptError::RekeyInProgress`] if a rekey is already
    /// migrating, [`CryptError::WrongPassphrase`] if `existing` does
    /// not unlock the current epoch, [`CryptError::HeaderContended`]
    /// on a concurrent header update.
    pub fn rekey_begin(&mut self, existing: &[u8], new_pass: &[u8]) -> Result<RekeyDriver> {
        self.rekey_begin_with_iterations(existing, new_pass, crate::luks::DEFAULT_ITERATIONS)
    }

    /// [`EncryptedImage::rekey_begin`] with an explicit PBKDF2 cost
    /// for the new keyslots (tests and benchmarks).
    ///
    /// # Errors
    ///
    /// As [`EncryptedImage::rekey_begin`].
    pub fn rekey_begin_with_iterations(
        &mut self,
        existing: &[u8],
        new_pass: &[u8],
        iterations: u32,
    ) -> Result<RekeyDriver> {
        // A lost CAS leaves this handle exactly as it was: a contended
        // handle must not encrypt new writes under an epoch the store
        // never recorded — permanently unreadable once it closes.
        let (from, to) =
            self.keys
                .begin_rekey(existing, new_pass, iterations, self.iv_source.as_mut())?;
        Ok(RekeyDriver::new(from, to))
    }

    /// Resumes driving an already-started rekey (e.g. after reopening
    /// an image another handle left mid-migration); `None` when no
    /// rekey is in flight.
    #[must_use]
    pub fn rekey_resume(&self) -> Option<RekeyDriver> {
        self.keys
            .rekey()
            .map(|state| RekeyDriver::new(state.from, state.to))
    }

    /// The in-flight rekey state (epochs and watermark), if any.
    #[must_use]
    pub fn rekey_status(&self) -> Option<RekeyState> {
        self.keys.rekey()
    }

    /// The key lifecycle's state, for the rekey driver.
    pub(crate) fn keys_mut(&mut self) -> &mut KeyChain {
        &mut self.keys
    }

    /// **Crypto-shreds** the image: zeroizes every keyslot, epoch
    /// digest, and retired-key wrap in memory (see [`crate::luks`]),
    /// overwrites the stored header object with zeros, and deletes
    /// it — one atomic transaction. The data
    /// objects are left in place *by design*: without any wrapped
    /// master key they are undecryptable noise, which is the paper's
    /// secure-deletion story (destroy the key, not the data). Every
    /// subsequent [`EncryptedImage::open`] fails; handles already
    /// open retain their in-memory keys until dropped (zeroized then).
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::Rbd`] on store failures; the in-memory
    /// key material is shredded regardless.
    pub fn secure_erase(mut self) -> Result<()> {
        // `self` drops after: the codecs' subkeys zeroize themselves.
        self.keys.erase()
    }

    /// The underlying image.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The encryption configuration in force.
    #[must_use]
    pub fn config(&self) -> &EncryptionConfig {
        self.keys.config()
    }

    /// The object geometry in force.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.placement.geometry()
    }

    /// Where this image's ciphertext and metadata live.
    #[must_use]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Encryption sector size in bytes.
    #[must_use]
    pub fn sector_size(&self) -> u64 {
        self.geometry().sector_size
    }

    /// Logical sectors in the image.
    #[must_use]
    pub fn total_sectors(&self) -> u64 {
        self.image.size() / self.sector_size()
    }

    /// The key epoch new head writes encrypt under.
    #[must_use]
    pub fn current_key_epoch(&self) -> u32 {
        self.keys.current_epoch()
    }

    /// Takes an image snapshot (see [`Image::snap_create`]) and drops
    /// the whole IV/metadata cache: the snapshot also bumps every
    /// shard's write-submission epoch, so cache fills whose
    /// submit→reap window spans the snapshot are abandoned too.
    ///
    /// On the baseline layout the snapshot's key epochs are the crypt
    /// header's clone at the snapshot, so the stored header must be
    /// the one the data obeys. It is, except while a rekey window's
    /// intent is outstanding (a failed or crashed window, or a failed
    /// watermark publish): its chunks are in doubt, some perhaps
    /// already under the new key above the watermark, and head reads
    /// and writes overlapping them are refused alike. The next
    /// [`RekeyDriver::step`] recovers the window and clears the intent.
    ///
    /// # Errors
    ///
    /// As [`Image::snap_create`]; on the baseline layout
    /// [`CryptError::RekeyInProgress`] while a window intent is
    /// outstanding.
    pub fn snap_create(&self, name: &str) -> Result<SnapId> {
        let window_in_doubt = self.keys.rekey().is_some_and(|s| s.intent.is_some());
        if window_in_doubt && !self.placement.stores_meta() {
            return Err(CryptError::RekeyInProgress);
        }
        let snap = self.image.snap_create(name)?;
        self.meta_cache.invalidate_all();
        Ok(snap)
    }

    /// Sectors of IV/metadata currently resident in this image's
    /// client-side cache. Always 0 when the cache is disabled
    /// ([`vdisk_rados::ClusterBuilder::meta_cache_bytes`] set to 0) or
    /// the layout has no separately-fetched metadata.
    #[must_use]
    pub fn meta_cache_resident_sectors(&self) -> usize {
        self.meta_cache.resident_sectors()
    }

    /// Capacity of the IV/metadata cache in sectors (0 = disabled).
    #[must_use]
    pub fn meta_cache_capacity_sectors(&self) -> usize {
        self.meta_cache.capacity_sectors()
    }

    /// This image's IV/metadata cache totals since it was opened: the
    /// sums of the per-op `meta_cache_*` deltas its reads and writes
    /// return, plus the invalidations of [`EncryptedImage::snap_create`].
    /// Only the four `meta_cache_*` fields are set; every other field
    /// is 0 (the store's own counters are
    /// [`vdisk_rados::Cluster::exec_stats`], which leaves these four 0).
    #[must_use]
    pub fn meta_cache_stats(&self) -> ExecStats {
        self.meta_cache.stats()
    }

    /// Encryption operates on whole sectors, so an image whose size is
    /// not a sector multiple would leave an un-encryptable tail — and
    /// unaligned tail IOs would round their RMW span past the image
    /// end. Rejected up front with a clear error instead.
    fn check_sector_multiple(image: &Image, sector_size: u64) -> Result<()> {
        if image.size().is_multiple_of(sector_size) {
            Ok(())
        } else {
            Err(CryptError::UnsupportedConfig(format!(
                "image size {} is not a multiple of the {sector_size}-byte sector size",
                image.size()
            )))
        }
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        match offset.checked_add(len) {
            Some(end) if end <= self.image.size() => Ok(()),
            // Report the true requested end; an offset+len overflow
            // (necessarily out of bounds) reports the saturated end.
            end => Err(CryptError::Rbd(RbdError::OutOfBounds {
                offset: end.unwrap_or(u64::MAX),
                size: self.image.size(),
            })),
        }
    }

    /// Encrypts and writes `data` at byte `offset`; returns the IO's
    /// receipt. The borrowing convenience wrapper: an aligned
    /// request copies `data` once into the owned zero-copy path; an
    /// unaligned one splices it straight into the RMW span (no extra
    /// copy). Hot paths that can hand over their buffer should call
    /// [`EncryptedImage::write_owned`] or drive an
    /// [`crate::EncryptedIoQueue`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::Rbd`] for out-of-bounds IO or store
    /// failures, and decryption errors if an unaligned write has to
    /// read back tampered boundary sectors.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<Receipt> {
        self.write_sync(offset, Cow::Borrowed(data))
    }

    /// Encrypt-on-ingest owned-buffer write: ciphertext is produced
    /// **in place in the submitted buffer** and every touched object's
    /// transaction receives a slice view of that one allocation — an
    /// aligned write performs zero full-request copies end to end.
    /// Writes not aligned to the sector size perform client-side
    /// read-modify-write of **only the partially-written boundary
    /// sectors** — interior sectors are fully overwritten and never
    /// read back or decrypted.
    ///
    /// # Errors
    ///
    /// As [`EncryptedImage::write`].
    pub fn write_owned(&mut self, offset: u64, data: Vec<u8>) -> Result<Receipt> {
        self.write_sync(offset, Cow::Owned(data))
    }

    /// The synchronous write: the queue's write at depth 1, with
    /// [`vdisk_rados::Cluster::execute_batch`] (idle shards served
    /// inline, then waited for) where the queue backend calls
    /// `submit_batch` and waits at reap.
    fn write_sync(&mut self, offset: u64, data: Cow<'_, [u8]>) -> Result<Receipt> {
        let (txs, write) = self.prepare_write(offset, data)?;
        let dispatch = self.image.cluster().execute_batch(txs)?;
        Ok(self.complete_write(write, dispatch, ExecStats::default()).0)
    }

    /// The write primitive behind [`crate::EncryptedIoQueue`]:
    /// prepares the write, submits its batch to the shard work queues
    /// and returns without waiting.
    pub(crate) fn submit_write(
        &mut self,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(ApplyTicket, PreparedWrite)> {
        let (txs, write) = self.prepare_write(offset, Cow::Owned(data))?;
        Ok((self.image.cluster().submit_batch(txs)?, write))
    }

    /// Everything a write does before its transactions dispatch — the
    /// one write-preparation path, shared by the sync wrappers and the
    /// queue: bounds check; read-modify-write the partially-covered
    /// boundary sectors of an unaligned request (synchronously — the
    /// reads ride the same shard FIFOs, so they observe every
    /// previously queued write); encrypt
    /// ([`EncryptedImage::encrypt_batch`]); take and stamp the rekey
    /// migration-proof marker armed for the encrypted span, if any;
    /// capture the write-through fills' shard epochs.
    fn prepare_write(
        &mut self,
        offset: u64,
        data: Cow<'_, [u8]>,
    ) -> Result<(Vec<Transaction>, PreparedWrite)> {
        self.check_bounds(offset, data.len() as u64)?;
        let (aligned_off, owned, rmw) =
            if data.is_empty() || self.is_sector_aligned(offset, data.len() as u64) {
                (offset, data.into_owned(), RmwReads::default())
            } else {
                self.rmw_span(offset, &data)?
            };
        let (mut txs, len, invalidated, fills) = self.encrypt_batch(aligned_off, owned)?;
        if let Some(marker) = self.keys.take_marker(aligned_off, len as u64) {
            // Rekey migration proof: ride the chunk's own transaction
            // (the driver clamps chunks to one object, so `txs` is a
            // single atomic commit of ciphertext + marker).
            if let Some(tx) = txs.first_mut() {
                tx.set_xattr(marker, vec![1]);
            }
        }
        let fills = self.capture_fill_epochs(fills);
        Ok((
            txs,
            PreparedWrite {
                crypto: len as u64,
                rmw,
                invalidated,
                fills,
            },
        ))
    }

    /// Everything a write does once its batch has applied — the one
    /// write-completion path: install the write-through fills (the
    /// completion is the reap point, whichever caller waited), fold
    /// the op's cache accounting into `stats` (the ticket's delta for
    /// a queued write), and add the boundary reads and the encryption
    /// to `dispatch`'s receipt.
    pub(crate) fn complete_write(
        &self,
        write: PreparedWrite,
        dispatch: Receipt,
        mut stats: ExecStats,
    ) -> (Receipt, ExecStats) {
        stats.meta_cache_invalidations = write.invalidated;
        stats.meta_cache_hits = write.rmw.hits;
        stats.meta_cache_misses = write.rmw.misses;
        stats.meta_cache_write_fills = self.apply_write_fills(&write.fills);
        let receipt = Receipt {
            crypto: write.crypto,
            rmw: write.rmw.receipts,
            ..dispatch
        };
        (receipt, stats)
    }

    fn is_sector_aligned(&self, offset: u64, len: u64) -> bool {
        let ss = self.sector_size();
        offset.is_multiple_of(ss) && len.is_multiple_of(ss)
    }

    /// Client-side RMW for an unaligned write: fetches only the
    /// boundary sectors the write partially covers, splices the new
    /// bytes over them, and returns the aligned span to write (plus
    /// the boundary reads' receipts and cache accounting).
    /// (`check_sector_multiple` guarantees the span cannot round past
    /// the image end.)
    fn rmw_span(&mut self, offset: u64, data: &[u8]) -> Result<(u64, Vec<u8>, RmwReads)> {
        let ss = self.sector_size();
        let first_sector = offset / ss;
        let end = offset + data.len() as u64;
        let end_sector = end.div_ceil(ss);
        let aligned_off = first_sector * ss;
        let aligned_len = ((end_sector - first_sector) * ss) as usize;
        let mut span = vec![0u8; aligned_len];
        let head_len = (offset - aligned_off) as usize;
        let tail_partial = !end.is_multiple_of(ss);
        let mut rmw = RmwReads::default();
        if end_sector - first_sector == 1 {
            // Single sector, partial at one or both ends.
            rmw.read(self, aligned_off, &mut span[..ss as usize])?;
        } else {
            if head_len > 0 {
                rmw.read(self, aligned_off, &mut span[..ss as usize])?;
            }
            if tail_partial {
                let tail_off = (end_sector - 1) * ss;
                rmw.read(self, tail_off, &mut span[aligned_len - ss as usize..])?;
            }
        }
        span[head_len..head_len + data.len()].copy_from_slice(data);
        Ok((aligned_off, span, rmw))
    }

    /// Stamps each pending fill with the shard write-submission epoch
    /// it expects to observe at reap: the value read **immediately
    /// before this write submits, plus one** (the submission itself
    /// advances every touched shard exactly once). Seeing exactly that
    /// value at reap proves no other write or snapshot was submitted
    /// to the shard between this write's submission and its reap —
    /// any concurrent submission, whether it slipped in before or
    /// after ours, leaves the epoch past the expectation and the fill
    /// conservatively yields.
    fn capture_fill_epochs(&self, fills: Vec<(u64, SharedBuf, usize)>) -> Vec<WriteFill> {
        let generation = self.meta_cache.generation();
        fills
            .into_iter()
            .map(|(base_lba, metas, shard)| WriteFill {
                base_lba,
                metas,
                shard,
                epoch: self.image.cluster().shard_write_seq(shard) + 1,
                generation,
            })
            .collect()
    }

    /// Installs a completed write's metadata entries into the
    /// IV/metadata cache (write-through fill): each extent fills only
    /// if its shard's write-submission epoch is unchanged since this
    /// write submitted — per-shard FIFO then proves no later overwrite
    /// or snapshot intervened — and the cache generation still
    /// matches. The first read after a write then hits without ever
    /// paying a miss.
    fn apply_write_fills(&self, fills: &[WriteFill]) -> u64 {
        let mut filled = 0;
        for fill in fills {
            if self.image.cluster().shard_write_seq(fill.shard) != fill.epoch {
                continue;
            }
            filled += self
                .meta_cache
                .fill(fill.base_lba, &fill.metas, fill.generation);
        }
        if filled > 0 {
            self.meta_cache.count_write_fills(filled);
        }
        filled
    }

    /// The zero-copy encrypt-on-ingest pipeline. The striper maps the
    /// whole request up front ([`IoBatch`]), the codec encrypts it
    /// **in place in the submitted buffer** (plus one packed metadata
    /// run — no per-sector allocations), and each object extent's
    /// transaction is built from **slice views** of those two
    /// allocations: no full-request clone, no per-extent copies (see
    /// [`Placement::write_extent`] for the layouts that copy).
    /// This is also the write path's cache hook: every cached
    /// IV/metadata entry the write overwrites is invalidated here, at
    /// submit time — before the write's transactions can dispatch, so
    /// no later read can hit a stale entry. Returns the transactions,
    /// the request length, and the invalidated-sector count.
    #[allow(clippy::type_complexity)]
    fn encrypt_batch(
        &mut self,
        offset: u64,
        mut data: Vec<u8>,
    ) -> Result<(Vec<Transaction>, usize, u64, Vec<(u64, SharedBuf, usize)>)> {
        let geometry = self.geometry();
        let ss = geometry.sector_size as usize;
        let me = geometry.meta_entry as usize;
        let write_seq = self.image.cluster().snap_seq().0;
        let len = data.len();
        let epochs = self.keys.epochs(None, offset, len as u64, true)?;
        if len == 0 {
            return Ok((Vec::new(), 0, 0, Vec::new()));
        }
        let batch = IoBatch::plan(self.image.striper(), &geometry, offset, len as u64);
        let mut invalidated = 0;
        for extent in &batch.extents {
            invalidated += self
                .meta_cache
                .invalidate_range(extent.base_lba, extent.sector_count);
        }

        // Encrypt the whole request in the submitted buffer: one
        // metadata run packed in sector order alongside. The epoch map
        // picks the key per sector (tagged layouts always write the
        // current epoch; the baseline splits at the rekey watermark).
        // The span is one contiguous LBA run (extents abut), encrypted
        // on the submitting thread whatever its size.
        let mut metas = Vec::with_capacity(batch.sector_count() as usize * me);
        self.keys.codecs().encrypt_sectors(
            offset / geometry.sector_size,
            write_seq,
            &mut data,
            &mut metas,
            self.iv_source.as_mut(),
            epochs,
        )?;
        let cipher = SharedBuf::from_vec(data);
        let metas = SharedBuf::from_vec(metas);
        // Write-through fill candidates: this write knows exactly the
        // entries it is persisting; remember them (plus their shard,
        // for the reap-time epoch check) so they can enter the cache
        // when the write completes.
        let fillable = self.meta_cache.enabled();

        // One transaction per object extent, built from buffer views.
        let mut txs = Vec::with_capacity(batch.object_count());
        let mut fills = Vec::new();
        for extent in &batch.extents {
            let sectors = cipher.slice(extent.buf_start..extent.buf_end);
            let meta_start = extent.buf_start / ss * me;
            let extent_metas =
                metas.slice(meta_start..meta_start + extent.sector_count as usize * me);
            let object = self.image.object_name(extent.object_no);
            if fillable {
                fills.push((
                    extent.base_lba,
                    extent_metas.clone(),
                    self.image.cluster().placement_shard(&object),
                ));
            }

            let mut tx = Transaction::new(object);
            self.placement
                .write_extent(&mut tx, extent.first_sector, sectors, extent_metas);
            txs.push(tx);
        }
        Ok((txs, len, invalidated, fills))
    }

    /// Reads and decrypts into `buf` from the image head. Sectors
    /// whose IV/metadata is resident in the client-side cache skip the
    /// metadata half of the store round trip (visible in the returned
    /// [`Receipt`] and in `ExecStats::meta_cache_hits`).
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::IntegrityViolation`] /
    /// [`CryptError::ReplayDetected`] per the configuration, or
    /// [`CryptError::Rbd`] for out-of-bounds IO.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<Receipt> {
        Ok(self.read_common(None, offset, buf)?.0)
    }

    /// Reads and decrypts as of a snapshot.
    ///
    /// # Errors
    ///
    /// As [`EncryptedImage::read`].
    pub fn read_at_snap(&self, snap: SnapId, offset: u64, buf: &mut [u8]) -> Result<Receipt> {
        Ok(self.read_common(Some(snap), offset, buf)?.0)
    }

    /// The batched read pipeline. The striper maps the whole (sector-
    /// aligned) span up front ([`IoBatch`]), every extent's
    /// data+metadata ops go out in one vectored submission, and each
    /// extent decrypts **in place in the destination buffer** (no
    /// per-sector allocations). The queue's read at depth 1: submit
    /// ([`EncryptedImage::span_requests`]), wait, then
    /// [`EncryptedImage::complete_read`]. Returns the receipt plus
    /// the cache hit/miss deltas, so callers embedding this read in a
    /// larger op (the unaligned-write RMW) can account it.
    fn read_common(
        &self,
        snap: Option<SnapId>,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(Receipt, u64, u64)> {
        let (requests, span) = self.span_requests(snap, offset, buf.len() as u64)?;
        let (results, dispatch) = self.image.cluster().read_batch(snap, requests)?;
        let receipt =
            self.complete_read(&span, &results, dispatch, snap.map(|s| s.0), offset, buf)?;
        Ok((receipt, span.hits, span.misses))
    }

    /// Everything a read does once its span submission has landed —
    /// the one read-completion path, shared by the sync wrappers and
    /// the queue: decrypt the span ([`EncryptedImage::complete_read_span`])
    /// so that `out` receives the requested range starting at byte
    /// `offset`, and add the decryption to `dispatch`'s receipt. A
    /// sector-aligned request decrypts in place in
    /// `out`; an unaligned one decrypts its aligned span and slices
    /// (`check_sector_multiple` guarantees the span cannot round past
    /// the image end).
    pub(crate) fn complete_read(
        &self,
        span: &ReadSpan,
        results: &[Option<Vec<ReadResult>>],
        dispatch: Receipt,
        seq_limit: Option<u64>,
        offset: u64,
        out: &mut [u8],
    ) -> Result<Receipt> {
        if span.batch.offset == offset && span.batch.len == out.len() as u64 {
            self.complete_read_span(span, results, seq_limit, out)?;
        } else {
            let mut aligned = vec![0u8; span.batch.len as usize];
            self.complete_read_span(span, results, seq_limit, &mut aligned)?;
            let start = (offset - span.batch.offset) as usize;
            let requested = aligned.get(start..start + out.len()).ok_or_else(|| {
                CryptError::Internal("read span does not cover the requested range".into())
            })?;
            out.copy_from_slice(requested);
        }
        // The span decrypts on the reaping thread; an empty read
        // decrypted nothing.
        Ok(Receipt {
            crypto: span.batch.len,
            ..dispatch
        })
    }

    /// The asynchronous read primitive behind
    /// [`crate::EncryptedIoQueue`]: maps the request's aligned span,
    /// submits every extent's data (and, on cache misses, metadata)
    /// reads to the shard work queues, and returns the ticket plus the
    /// span plan needed to decrypt — and fill the IV/metadata cache —
    /// at completion ([`EncryptedImage::complete_read_span`]).
    pub(crate) fn submit_read_span(
        &self,
        snap: Option<SnapId>,
        offset: u64,
        len: u64,
    ) -> Result<(ReadTicket, ReadSpan)> {
        let (requests, span) = self.span_requests(snap, offset, len)?;
        Ok((self.image.cluster().submit_read_batch(snap, requests), span))
    }

    /// Maps a read's sector-aligned span onto its per-object requests
    /// and span plan. This is where the IV/metadata cache is
    /// consulted: a head-read extent whose sectors are all resident
    /// skips its metadata op entirely — the round-trip saving the
    /// cache exists for — while a miss captures the extent's shard
    /// write-submission epoch so the fetched entries can be filled at
    /// reap time if (and only if) no overwrite or snapshot was
    /// submitted in between. Snapshot reads bypass the cache in both
    /// directions: entries describe the head, not the snapshot.
    fn span_requests(
        &self,
        snap: Option<SnapId>,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<ObjectReads>, ReadSpan)> {
        self.check_bounds(offset, len)?;
        // Capture the epoch map governing the data this read will
        // fetch: per-shard FIFO orders the fetch after every write
        // submitted before now and before any submitted later, so the
        // submit-time map is exactly right at reap, whatever the rekey
        // publishes in between.
        let epochs = self.keys.epochs(snap, offset, len, false)?;
        if len == 0 {
            // Match the synchronous path's no-op: no sector is fetched
            // or decrypted.
            return Ok((
                Vec::new(),
                ReadSpan {
                    batch: IoBatch {
                        offset,
                        len: 0,
                        extents: Vec::new(),
                    },
                    meta: Vec::new(),
                    generation: 0,
                    epochs,
                    hits: 0,
                    misses: 0,
                },
            ));
        }
        let geometry = self.geometry();
        let ss = geometry.sector_size;
        let first_sector = offset / ss;
        let end_sector = (offset + len).div_ceil(ss);
        let batch = IoBatch::plan(
            self.image.striper(),
            &geometry,
            first_sector * ss,
            (end_sector - first_sector) * ss,
        );
        let cacheable = snap.is_none() && self.meta_cache.enabled();
        let mut meta = Vec::with_capacity(batch.extents.len());
        let mut hits = 0;
        let mut misses = 0;
        let requests: Vec<ObjectReads> = batch
            .extents
            .iter()
            .map(|extent| {
                let object = self.image.object_name(extent.object_no);
                let cached = cacheable
                    .then(|| {
                        self.meta_cache
                            .lookup_extent(extent.base_lba, extent.sector_count)
                    })
                    .flatten();
                let source = if let Some(packed) = cached {
                    hits += extent.sector_count;
                    ExtentMeta::Cached(packed)
                } else {
                    let fill = cacheable.then(|| {
                        let shard = self.image.cluster().placement_shard(&object);
                        (shard, self.image.cluster().shard_write_seq(shard))
                    });
                    if cacheable {
                        misses += extent.sector_count;
                    }
                    ExtentMeta::Fetched { fill }
                };
                let ops = self.placement.read_ops(
                    extent.first_sector,
                    extent.sector_count,
                    matches!(source, ExtentMeta::Fetched { .. }),
                );
                meta.push(source);
                ObjectReads::new(object, ops)
            })
            .collect();
        Ok((
            requests,
            ReadSpan {
                batch,
                meta,
                generation: self.meta_cache.generation(),
                epochs,
                hits,
                misses,
            },
        ))
    }

    /// Decrypts one completed span submission into `out` (which must
    /// cover exactly the span's bytes): each extent in place in its
    /// slice of the destination, sparse holes (objects absent, or born
    /// after the snapshot) zero-filled. Extents that fetched their
    /// metadata fill the IV/metadata cache here — at reap time — after
    /// a successful decrypt, provided their shard's write-submission
    /// epoch (captured at submit) and the cache generation are both
    /// unchanged: per-shard FIFO then guarantees no overwrite or
    /// snapshot was even submitted inside the submit→reap window.
    fn complete_read_span(
        &self,
        span: &ReadSpan,
        results: &[Option<Vec<ReadResult>>],
        seq_limit: Option<u64>,
        out: &mut [u8],
    ) -> Result<()> {
        let me = self.geometry().meta_entry as usize;
        for (idx, result) in results.iter().enumerate() {
            let extent = &span.batch.extents[idx];
            let dest = &mut out[extent.buf_start..extent.buf_end];
            let Some(results) = result else {
                dest.fill(0);
                continue;
            };
            let fetched = self.placement.unpack(extent.first_sector, results, dest)?;
            let (packed, fill) = match &span.meta[idx] {
                ExtentMeta::Cached(packed) => (Cow::Borrowed(packed.as_slice()), None),
                // No stored entry decrypts as never written.
                ExtentMeta::Fetched { fill } => (
                    fetched
                        .unwrap_or_else(|| Cow::Owned(vec![0; extent.sector_count as usize * me])),
                    *fill,
                ),
            };
            self.keys.codecs().decrypt_sectors(
                extent.base_lba,
                seq_limit,
                dest,
                &packed,
                span.epochs,
            )?;
            if let Some((shard, epoch)) = fill {
                if self.image.cluster().shard_write_seq(shard) == epoch {
                    self.meta_cache
                        .fill(extent.base_lba, &packed, span.generation);
                }
            }
        }
        Ok(())
    }

    /// The adversary's view of one sector: raw ciphertext and raw
    /// metadata entry, **without** decryption. Used by the audit
    /// tooling and the security examples.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::Rbd`] if the sector's object is absent.
    pub fn observe_sector(&self, lba: u64, snap: Option<SnapId>) -> Result<SectorObservation> {
        let geometry = self.geometry();
        let spo = geometry.sectors_per_object;
        let object = self.image.object_name(lba / spo);
        let k = lba % spo;
        let ops = self.placement.read_ops(k, 1, true);
        let (results, _) = self.image.cluster().read(&object, snap, &ops)?;
        let mut ciphertext = vec![0u8; geometry.sector_size as usize];
        let meta = self
            .placement
            .unpack(k, &results, &mut ciphertext)?
            .map(Cow::into_owned);
        Ok(SectorObservation {
            lba,
            ciphertext,
            meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaLayout;
    use vdisk_crypto::rng::SeededIvSource;
    use vdisk_rados::{Cluster, Testbed, TestbedProfile, TxOp};

    fn zc_disk(config: &EncryptionConfig) -> EncryptedImage {
        let cluster = Cluster::builder().build();
        let image = Image::create(&cluster, "zc", 16 << 20).unwrap();
        EncryptedImage::format_with_iv_source(
            image,
            config,
            b"zero-copy",
            Box::new(SeededIvSource::new(7)),
        )
        .unwrap()
    }

    fn write_ptr(tx: &Transaction, op_idx: usize) -> *const u8 {
        match &tx.ops[op_idx] {
            TxOp::Write { data, .. } => data.as_slice().as_ptr(),
            other => panic!("expected write op, got {other:?}"),
        }
    }

    /// The acceptance bar for the owned-buffer path: an aligned
    /// `write_owned` produces its ciphertext *in the submitted buffer*
    /// and hands transactions slice views of it — asserted by pointer
    /// identity against the caller's allocation.
    #[test]
    fn aligned_owned_write_is_zero_copy_into_transactions() {
        for config in [
            EncryptionConfig::luks2_baseline(),
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            EncryptionConfig::random_iv(MetaLayout::Omap),
        ] {
            let mut disk = zc_disk(&config);
            let data = vec![0x42u8; 64 << 10];
            let base = data.as_ptr();
            let (txs, len, _, _) = disk.encrypt_batch(0, data).unwrap();
            assert_eq!(len, 64 << 10);
            assert_eq!(txs.len(), 1, "single object");
            assert_eq!(
                write_ptr(&txs[0], 0),
                base,
                "config {config:?}: ciphertext must live in the submitted buffer"
            );
        }
    }

    /// A write spanning objects splits into slice views of ONE shared
    /// allocation — no per-extent copies — and the object-end layout's
    /// metadata extents are slice views of one packed metadata run.
    #[test]
    fn spanning_owned_write_shares_one_allocation() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let mut disk = zc_disk(&config);
        let object = disk.image().object_size();
        let me = disk.geometry().meta_entry as usize;
        let offset = object - 8192;
        let data = vec![0x5Au8; 16384];
        let base = data.as_ptr();
        let (txs, _, _, _) = disk.encrypt_batch(offset, data).unwrap();
        assert_eq!(txs.len(), 2, "write spans two objects");

        // Data slices: extent 0 at the buffer head, extent 1 exactly
        // 8192 bytes in — same allocation, no copies.
        assert_eq!(write_ptr(&txs[0], 0), base);
        assert_eq!(write_ptr(&txs[1], 0), base.wrapping_add(8192));

        // Metadata slices: one packed run, extent 1's entries directly
        // after extent 0's (2 sectors × entry length).
        let meta0 = write_ptr(&txs[0], 1);
        let meta1 = write_ptr(&txs[1], 1);
        assert_eq!(meta1, meta0.wrapping_add(2 * me));
    }

    /// A write fills the cache with the entries it just persisted
    /// (write-through), so even the **first** read of freshly written
    /// sectors skips the metadata op and costs strictly less than on
    /// an uncached twin — the paper's "metadata round trip" measurably
    /// gone from the receipt, and from its plan, without ever paying a
    /// cold miss.
    #[test]
    fn write_through_fills_make_first_reads_hit_and_drop_the_meta_round_trip() {
        for config in [
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            EncryptionConfig::random_iv(MetaLayout::Omap),
        ] {
            let mut disk = zc_disk(&config);
            disk.write(0, &vec![0x5Au8; 64 << 10]).unwrap();
            let stats = disk.meta_cache_stats();
            assert_eq!(
                stats.meta_cache_write_fills, 16,
                "{config:?}: the write installs its own entries"
            );
            assert_eq!(
                disk.meta_cache_resident_sectors(),
                16,
                "{config:?}: resident before any read"
            );

            let mut buf = vec![0u8; 64 << 10];
            let warm = disk.read(0, &mut buf).unwrap();
            assert_eq!(buf, vec![0x5Au8; 64 << 10]);
            let stats = disk.meta_cache_stats();
            assert_eq!(
                stats.meta_cache_hits, 16,
                "{config:?}: the first read hits write-filled entries"
            );
            assert_eq!(stats.meta_cache_misses, 0, "{config:?}: no miss was paid");

            // The round trip really is gone: the uncached twin's read
            // issues more ops and moves more bytes.
            let cluster = Cluster::builder().meta_cache_bytes(0).build();
            let image = Image::create(&cluster, "zc-off", 16 << 20).unwrap();
            let mut uncached = EncryptedImage::format_with_iv_source(
                image,
                &config,
                b"zero-copy",
                Box::new(SeededIvSource::new(7)),
            )
            .unwrap();
            uncached.write(0, &vec![0x5Au8; 64 << 10]).unwrap();
            let cold = uncached.read(0, &mut buf).unwrap();
            assert!(
                warm.reads[0].effects.len() < cold.reads[0].effects.len(),
                "{config:?}: a hit reads no metadata"
            );
            let testbed = Testbed::new(TestbedProfile::default(), cluster.osd_count());
            let (warm, cold) = (testbed.plan_of(&warm), testbed.plan_of(&cold));
            assert!(
                warm.op_count() < cold.op_count(),
                "{config:?}: cache hit must drop ops ({} -> {})",
                cold.op_count(),
                warm.op_count()
            );
            assert!(warm.total_op_bytes() < cold.total_op_bytes(), "{config:?}");
        }
    }

    #[test]
    fn overwrites_invalidate_exactly_the_cached_sectors_they_touch() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let mut disk = zc_disk(&config);
        disk.write(0, &vec![1u8; 32 << 10]).unwrap(); // write-fills 8 sectors
        assert_eq!(disk.meta_cache_resident_sectors(), 8);
        let mut buf = vec![0u8; 32 << 10];
        disk.read(0, &mut buf).unwrap(); // pure hits

        // Overwrite sectors 5..9: 3 of them resident (plus sector 8,
        // absent) — invalidated at submit, then write-through refilled
        // with the fresh entries at completion.
        disk.write(5 * 4096, &vec![2u8; 4 * 4096]).unwrap();
        let stats = disk.meta_cache_stats();
        assert_eq!(
            stats.meta_cache_invalidations, 3,
            "every overwritten cached sector is accounted, absent ones are not"
        );
        assert_eq!(
            disk.meta_cache_resident_sectors(),
            9,
            "8 original - 3 invalidated + 4 write-through refills"
        );

        // The next read decrypts the fresh entries correctly.
        disk.read(0, &mut buf).unwrap();
        assert_eq!(&buf[..5 * 4096], &vec![1u8; 5 * 4096][..]);
        assert_eq!(&buf[5 * 4096..], &vec![2u8; 3 * 4096][..]);
    }

    #[test]
    fn snapshots_wipe_the_cache_and_snapshot_reads_bypass_it() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let mut disk = zc_disk(&config);
        disk.write(0, &vec![7u8; 16 << 10]).unwrap();
        let mut buf = vec![0u8; 16 << 10];
        disk.read(0, &mut buf).unwrap();
        assert_eq!(disk.meta_cache_resident_sectors(), 4);

        let snap = disk.snap_create("s1").unwrap();
        assert_eq!(disk.meta_cache_resident_sectors(), 0, "snapshot wipes");
        assert_eq!(disk.meta_cache_stats().meta_cache_invalidations, 4);

        disk.write(0, &vec![8u8; 16 << 10]).unwrap();
        disk.read(0, &mut buf).unwrap(); // refill from the new head
        let hits_before = disk.meta_cache_stats().meta_cache_hits;
        disk.read_at_snap(snap, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 16 << 10], "snapshot content preserved");
        assert_eq!(
            disk.meta_cache_stats().meta_cache_hits,
            hits_before,
            "snapshot reads must not consult head-state cache entries"
        );
    }

    #[test]
    fn disabled_or_inline_layouts_never_cache() {
        // Layouts with no separate metadata round trip: cache is off.
        for config in [
            EncryptionConfig::luks2_baseline(),
            EncryptionConfig::random_iv(MetaLayout::Unaligned),
        ] {
            let mut disk = zc_disk(&config);
            assert_eq!(disk.meta_cache_capacity_sectors(), 0, "{config:?}");
            disk.write(0, &vec![1u8; 8192]).unwrap();
            let mut buf = vec![0u8; 8192];
            disk.read(0, &mut buf).unwrap();
            disk.read(0, &mut buf).unwrap();
            let stats = disk.meta_cache_stats();
            assert_eq!(stats.meta_cache_hits + stats.meta_cache_misses, 0);
        }
        // Explicitly disabled via the builder knob.
        let cluster = Cluster::builder().meta_cache_bytes(0).build();
        let image = Image::create(&cluster, "nocache", 16 << 20).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            &EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
            b"zero-copy",
            Box::new(SeededIvSource::new(7)),
        )
        .unwrap();
        assert_eq!(disk.meta_cache_capacity_sectors(), 0);
        disk.write(0, &vec![1u8; 8192]).unwrap();
        let mut buf = vec![0u8; 8192];
        disk.read(0, &mut buf).unwrap();
        disk.read(0, &mut buf).unwrap();
        let stats = disk.meta_cache_stats();
        assert_eq!(stats.meta_cache_hits + stats.meta_cache_misses, 0);
    }

    #[test]
    fn owned_and_borrowing_writes_store_identical_bytes() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let mut a = zc_disk(&config);
        let mut b = zc_disk(&config);
        let payload: Vec<u8> = (0..32768u32).map(|i| (i % 253) as u8).collect();
        // Unaligned on purpose: both paths share the RMW logic.
        a.write(4000, &payload).unwrap();
        b.write_owned(4000, payload.clone()).unwrap();
        let mut ra = vec![0u8; payload.len()];
        let mut rb = vec![0u8; payload.len()];
        a.read(4000, &mut ra).unwrap();
        b.read(4000, &mut rb).unwrap();
        assert_eq!(ra, payload);
        assert_eq!(ra, rb);
    }
}

#[cfg(test)]
mod composition;
