//! The client-side encrypting IO path over an RBD image.

use crate::audit::SectorObservation;
use crate::batch::IoBatch;
use crate::config::EncryptionConfig;
use crate::keychain::{EpochMap, KeyChain};
use crate::layout::{Geometry, Placement};
use crate::luks::{LuksHeader, RekeyState, WindowIntent};
use crate::meta_cache::MetaCache;
use crate::rekey::RekeyDriver;
use crate::sector::SectorCodec;
use crate::{CryptError, Result};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};
use vdisk_crypto::mem::SecretBytes;
use vdisk_crypto::rng::{IvSource, OsIvSource};
use vdisk_rados::{
    ApplyTicket, ExecStats, ObjectReads, RadosError, ReadOp, ReadResult, ReadTicket, Receipt,
    SharedBuf, SnapId, Transaction,
};
use vdisk_rbd::{Image, RbdError};

/// Xattr on the crypt-header object carrying the header generation —
/// the CAS token serializing concurrent header updates.
const GEN_XATTR: &str = "luks.gen";

/// OMAP key prefix (on the crypt-header object) recording each
/// snapshot's epoch map — how baseline-layout snapshot reads know
/// which sectors carried which key epoch when the snapshot froze.
const SNAP_EPOCH_PREFIX: &str = "snapepoch.";

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
    header: LuksHeader,
    /// Every loaded key epoch's codec (current, the retiring epoch of
    /// an in-flight rekey, and retired epochs for snapshot reads).
    chain: KeyChain,
    /// Master keys by epoch — needed to wrap the outgoing key into the
    /// retired chain at rekey completion. Zeroized on drop.
    masters: BTreeMap<u32, SecretBytes>,
    iv_source: Box<dyn IvSource>,
    placement: Placement,
    /// Client-side cache of persisted per-sector metadata entries for
    /// head reads. Interior-mutable: reads fill and hit it through
    /// `&self`, writes invalidate through `&mut self`.
    meta_cache: MetaCache,
    /// Baseline-layout snapshots' epoch maps (snap id → map at
    /// creation), mirrored from the crypt-header object's OMAP.
    /// Interior-mutable: `snap_create` records through `&self`.
    snap_epochs: Mutex<BTreeMap<u64, EpochMap>>,
    /// Rekey-migration proof markers armed by [`crate::RekeyDriver`]:
    /// the next write matching `(offset, len)` stamps the named xattr
    /// onto its (single) transaction, so the chunk's data and its
    /// migrated-proof land atomically. Keyed by the submitted request
    /// shape because the tenant runtime may defer a driver write into
    /// its backlog — arming at actual submission time, not driver
    /// dispatch time, keeps the marker glued to the right write.
    armed_markers: HashMap<(u64, usize), String>,
}

impl std::fmt::Debug for EncryptedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedImage")
            .field("image", &self.image.name())
            .field("config", self.header.config())
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
    /// Key-epoch map captured at submit (the baseline layout's only
    /// epoch source; tagged layouts route by entry). Per-shard FIFO
    /// pins the fetched data to the same submission point, so the
    /// captured map matches the fetched ciphertext even while the
    /// rekey driver advances the watermark in between.
    epochs: EpochMap,
    /// Sectors whose metadata round trip the cache absorbed.
    pub(crate) hits: u64,
    /// Sectors that had to fetch metadata despite the cache.
    pub(crate) misses: u64,
}

impl EncryptedImage {
    fn crypt_header_object(image_name: &str) -> String {
        format!("rbd_header.{image_name}.luks")
    }

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
        let (mut header, master) = LuksHeader::format(config, passphrase, iv_source.as_mut())?;
        let codec = SectorCodec::new(config, &master, 0)?;
        let meta_cache = Self::build_meta_cache(&image, placement);

        // First persist: the generation xattr must not exist yet, so
        // two concurrent formats cannot both win.
        let generation = header.bump_generation();
        let mut tx = Transaction::new(Self::crypt_header_object(image.name()));
        tx.compare_xattr(GEN_XATTR, None);
        let bytes = header.encode();
        let len = bytes.len() as u64;
        tx.write(0, bytes);
        tx.truncate(len);
        tx.set_xattr(GEN_XATTR, generation.to_le_bytes().to_vec());
        image
            .cluster()
            .execute(tx)
            .map_err(Self::map_header_contention)?;

        let mut masters = BTreeMap::new();
        masters.insert(0, master);
        Ok(EncryptedImage {
            image,
            header,
            chain: KeyChain::new(0, codec),
            masters,
            iv_source,
            placement,
            meta_cache,
            snap_epochs: Mutex::new(BTreeMap::new()),
            armed_markers: HashMap::new(),
        })
    }

    /// Opens an encrypted image with a passphrase.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if no keyslot matches,
    /// or [`CryptError::HeaderCorrupt`] if the header fails to parse.
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
        let header_object = Self::crypt_header_object(image.name());
        let cluster = image.cluster().clone();
        let stat = cluster
            .stat(&header_object)
            .map_err(|_| CryptError::HeaderCorrupt("missing encryption header".into()))?;
        let (results, _) = cluster.read(
            &header_object,
            None,
            &[
                ReadOp::Read {
                    offset: 0,
                    len: stat.size,
                },
                ReadOp::OmapGetRange {
                    start: SNAP_EPOCH_PREFIX.as_bytes().to_vec(),
                    end: format!("{SNAP_EPOCH_PREFIX}\u{ff}").into_bytes(),
                },
            ],
        )?;
        let header = LuksHeader::decode(results[0].as_data())?;
        let config = header.config().clone();
        let placement = Placement::for_image(&config, image.object_size())
            .map_err(CryptError::HeaderCorrupt)?;
        Self::check_sector_multiple(&image, u64::from(config.sector_size))?;

        // Unlock every epoch this passphrase reaches: the current one
        // (mandatory), the retiring one mid-rekey (through the bridge
        // slot), and every retired epoch through the wrap chain.
        let unlocked = header.unlock_all(passphrase);
        let current = header.current_epoch();
        let current_master = unlocked
            .iter()
            .find_map(|(epoch, master)| (*epoch == current).then(|| master.clone()))
            .ok_or(CryptError::WrongPassphrase)?;
        let mut masters: BTreeMap<u32, SecretBytes> = unlocked.into_iter().collect();
        for (epoch, master) in header.unwrap_retired(&current_master) {
            masters.entry(epoch).or_insert(master);
        }
        if let Some(state) = header.rekey() {
            if !masters.contains_key(&state.from) {
                return Err(CryptError::HeaderCorrupt(
                    "rekey in flight but the retiring epoch is locked".into(),
                ));
            }
        }

        let mut chain: Option<KeyChain> = None;
        for (&epoch, master) in &masters {
            let codec = SectorCodec::new(&config, master, epoch)?;
            match chain.as_mut() {
                None => chain = Some(KeyChain::new(epoch, codec)),
                Some(chain) => chain.install(epoch, codec),
            }
        }
        let mut chain = chain.expect("current epoch always unlocked");
        chain.set_current(current);

        let snap_epochs = results[1]
            .as_omap()
            .iter()
            .filter_map(|(key, value)| {
                let snap = std::str::from_utf8(&key[SNAP_EPOCH_PREFIX.len()..])
                    .ok()?
                    .parse()
                    .ok()?;
                Some((snap, decode_epoch_map(value)?))
            })
            .collect();

        let meta_cache = Self::build_meta_cache(&image, placement);
        Ok(EncryptedImage {
            image,
            header,
            chain,
            masters,
            iv_source,
            placement,
            meta_cache,
            snap_epochs: Mutex::new(snap_epochs),
            armed_markers: HashMap::new(),
        })
    }

    /// Persists the in-memory header, CASed on the generation it last
    /// read: concurrent updates from other handles lose with
    /// [`CryptError::HeaderContended`] instead of tearing the header.
    /// On success the in-memory generation has advanced; on contention
    /// this handle's header view is stale — reopen the image.
    fn persist_header(&mut self) -> Result<()> {
        let old = self.header.generation();
        let new = self.header.bump_generation();
        let mut tx = Transaction::new(Self::crypt_header_object(self.image.name()));
        tx.compare_xattr(GEN_XATTR, Some(old.to_le_bytes().to_vec()));
        let bytes = self.header.encode();
        let len = bytes.len() as u64;
        tx.write(0, bytes);
        tx.truncate(len);
        tx.set_xattr(GEN_XATTR, new.to_le_bytes().to_vec());
        self.image
            .cluster()
            .execute(tx)
            .map_err(Self::map_header_contention)?;
        Ok(())
    }

    fn map_header_contention(e: RadosError) -> CryptError {
        match e {
            RadosError::CompareFailed { .. } => CryptError::HeaderContended,
            other => other.into(),
        }
    }

    /// Persists the header; on failure restores `saved`, so the
    /// in-memory view never drifts ahead of the store on a lost CAS.
    fn persist_header_or_restore(&mut self, saved: LuksHeader) -> Result<()> {
        match self.persist_header() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.header = saved;
                Err(e)
            }
        }
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
    /// persists the updated header.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if `existing` unlocks no
    /// keyslot, [`CryptError::NoFreeKeyslot`] when all 8 slots are
    /// taken, or [`CryptError::HeaderContended`] if another handle
    /// updated the header concurrently.
    pub fn add_passphrase(&mut self, existing: &[u8], new: &[u8]) -> Result<usize> {
        let saved = self.header.clone();
        let master = self.header.unlock(existing)?;
        let idx = self
            .header
            .add_keyslot(new, &master, self.iv_source.as_mut())?;
        self.persist_header_or_restore(saved)?;
        Ok(idx)
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
        let saved = self.header.clone();
        let rotated = self
            .header
            .rotate_passphrase(existing, new, self.iv_source.as_mut())?;
        self.persist_header_or_restore(saved)?;
        Ok(rotated.len())
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
        // Stage everything against a saved header so a lost CAS leaves
        // this handle exactly as it was: without the rollback, a
        // contended handle would keep encrypting new writes under an
        // epoch the store never recorded — permanently unreadable the
        // moment this handle closes.
        let saved = self.header.clone();
        let old_epoch = self.chain.current();
        let (from_master, to_master) =
            self.header
                .begin_rekey(existing, new_pass, iterations, self.iv_source.as_mut())?;
        let state = self.header.rekey().expect("just begun");
        let config = self.config().clone();
        let codec = SectorCodec::new(&config, &to_master, state.to)?;
        self.chain.install(state.to, codec);
        self.chain.set_current(state.to);
        self.masters.insert(state.from, from_master);
        self.masters.insert(state.to, to_master);
        if let Err(e) = self.persist_header() {
            self.header = saved;
            self.chain.set_current(old_epoch);
            self.chain.uninstall(state.to);
            self.masters.remove(&state.to);
            return Err(e);
        }
        Ok(RekeyDriver::new(state.from, state.to))
    }

    /// Resumes driving an already-started rekey (e.g. after reopening
    /// an image another handle left mid-migration); `None` when no
    /// rekey is in flight.
    #[must_use]
    pub fn rekey_resume(&self) -> Option<RekeyDriver> {
        self.header
            .rekey()
            .map(|state| RekeyDriver::new(state.from, state.to))
    }

    /// The in-flight rekey state (epochs and watermark), if any.
    #[must_use]
    pub fn rekey_status(&self) -> Option<RekeyState> {
        self.header.rekey()
    }

    /// Completes a rekey once the driver has migrated every sector:
    /// retires the old epoch's master key into the header's wrap chain
    /// (snapshot reads still reach it through the new passphrase),
    /// drops the bridge keyslots, and persists the header. Called by
    /// [`RekeyDriver::finish`].
    pub(crate) fn rekey_finish(&mut self, from: u32, to: u32) -> Result<()> {
        let state = self.header.rekey().ok_or(CryptError::NoRekeyInProgress)?;
        if state.from != from || state.to != to {
            return Err(CryptError::UnsupportedConfig(
                "rekey driver does not match the in-flight rekey".into(),
            ));
        }
        if state.watermark < self.total_sectors() {
            return Err(CryptError::RekeyInProgress);
        }
        let from_master = self.masters[&from].clone();
        let to_master = self.masters[&to].clone();
        let saved = self.header.clone();
        self.header.finish_rekey(&from_master, &to_master)?;
        self.persist_header_or_restore(saved)
    }

    /// **Crypto-shreds** the image: zeroizes every keyslot, epoch
    /// digest, and retired-key wrap in memory
    /// ([`LuksHeader::shred`]), overwrites the stored header object
    /// with zeros, and deletes it — one atomic transaction. The data
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
        let object = Self::crypt_header_object(self.image.name());
        let stat = self.image.cluster().stat(&object)?;
        self.header.shred();
        let mut tx = Transaction::new(object);
        // Overwrite-then-delete: the scrub pass models clearing the
        // physical extents before dropping the object, so even the
        // (already key-less) wrapped blobs are gone from the store.
        tx.write(0, vec![0u8; stat.size as usize]);
        tx.delete();
        self.image.cluster().execute(tx)?;
        // `self` drops here: SecretBytes masters zeroize themselves.
        Ok(())
    }

    /// The underlying image.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The encryption configuration in force.
    #[must_use]
    pub fn config(&self) -> &EncryptionConfig {
        self.header.config()
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
        self.header.current_epoch()
    }

    /// The head's epoch map right now: current epoch, plus the
    /// watermark split while a rekey is migrating.
    pub(crate) fn head_epoch_map(&self) -> EpochMap {
        EpochMap {
            current: self.header.current_epoch(),
            pending: self.header.rekey().map(|s| (s.from, s.watermark)),
        }
    }

    /// Driver-only: advances the in-memory rekey watermark so the
    /// window the driver is rewriting encrypts under the new epoch.
    /// Persist with [`EncryptedImage::persist_rekey_watermark`] after
    /// the window's writes complete.
    pub(crate) fn advance_rekey_boundary(&mut self, watermark: u64) {
        self.header.set_rekey_watermark(watermark);
    }

    /// Driver-only: rolls the in-memory watermark back to `watermark`
    /// (the last fully-migrated prefix) after a window failed
    /// mid-flight, so a retried step re-migrates the window instead of
    /// skipping it.
    pub(crate) fn rollback_rekey_boundary(&mut self, watermark: u64) {
        self.header.rollback_rekey_watermark(watermark);
    }

    /// Driver-only: persists the advanced watermark (CASed like every
    /// header update). A persisted window intent is cleared in the
    /// *same* header update: the watermark covering the window is the
    /// proof the window landed, so the two must move atomically. On
    /// failure the in-memory header (watermark *and* intent) is
    /// restored, so a retried or resumed rekey still sees the
    /// uncommitted window as in doubt.
    pub(crate) fn persist_rekey_watermark(&mut self) -> Result<()> {
        let saved = self.header.clone();
        if self.header.rekey().is_some_and(|s| s.intent.is_some()) {
            self.header.clear_rekey_intent();
        }
        self.persist_header_or_restore(saved)
    }

    /// The crashed (persisted-but-uncleared) rekey window intent, if
    /// any: evidence that a prior handle started migrating this window
    /// but never proved it complete. [`crate::RekeyDriver`] recovers
    /// it chunk by chunk before migrating anything new.
    pub(crate) fn rekey_window_intent(&self) -> Option<WindowIntent> {
        self.header.rekey().and_then(|state| state.intent)
    }

    /// Driver-only: durably records the window the driver is *about*
    /// to migrate, before any chunk of it is rewritten. Crash-safety
    /// contract: once this persists, a reopened image either finds the
    /// watermark advanced past the window (it landed) or finds this
    /// intent and re-proves each chunk individually.
    pub(crate) fn persist_rekey_intent(&mut self, intent: WindowIntent) -> Result<()> {
        let saved = self.header.clone();
        self.header.set_rekey_intent(intent);
        self.persist_header_or_restore(saved)
    }

    fn rekey_marker_name(to: u32, chunk_offset: u64) -> String {
        format!("rekey.mark.{to}.{chunk_offset}")
    }

    /// Driver-only: arms a migration-proof marker for the chunk write
    /// the driver is about to submit at `(offset, len)`. When that
    /// exact write — queued or synchronous — reaches
    /// [`EncryptedImage::prepare_write`] it stamps the marker xattr
    /// into the same transaction as the chunk data — the driver clamps
    /// chunks to object boundaries, so the
    /// chunk is one transaction and marker + ciphertext commit (or
    /// tear) together. The marker name is epoch-keyed, so stale
    /// markers from an earlier rekey can never vouch for this one.
    pub(crate) fn arm_rekey_marker(&mut self, offset: u64, len: usize) {
        let to = self
            .header
            .rekey()
            .expect("rekey markers are only armed mid-rekey")
            .to;
        self.armed_markers
            .insert((offset, len), Self::rekey_marker_name(to, offset));
    }

    /// Driver-only: drops every armed-but-unconsumed marker after a
    /// window fails mid-flight. Without this, a later *client* write
    /// that happens to match an armed `(offset, len)` would get
    /// stamped as migration proof for data it never migrated.
    pub(crate) fn clear_rekey_markers(&mut self) {
        self.armed_markers.clear();
    }

    /// Whether the chunk starting at byte `chunk_offset` carries the
    /// migration-proof marker for epoch `to` — i.e. whether its
    /// rewrite under the new key durably landed before a crash. A
    /// missing object proves nothing landed there (`false`), which is
    /// still safe: re-migration is idempotent.
    pub(crate) fn rekey_chunk_proven(&self, to: u32, chunk_offset: u64) -> Result<bool> {
        let object = self
            .image
            .object_name(chunk_offset / self.image.object_size());
        let marker = Self::rekey_marker_name(to, chunk_offset);
        match self
            .image
            .cluster()
            .read(&object, None, &[ReadOp::GetXattr(marker)])
        {
            Ok((results, _)) => Ok(matches!(&results[0], ReadResult::Xattr(Some(_)))),
            Err(RadosError::NoSuchObject(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// The epoch map governing a snapshot's ciphertext (recorded at
    /// [`EncryptedImage::snap_create`]); falls back to the head map
    /// for snapshots taken outside this API.
    fn snap_epoch_map(&self, snap: SnapId) -> EpochMap {
        let recorded = self
            .snap_epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&snap.0)
            .copied();
        recorded.unwrap_or_else(|| self.head_epoch_map())
    }

    /// Takes an image snapshot (see [`Image::snap_create`]) and drops
    /// the whole IV/metadata cache: the snapshot also bumps every
    /// shard's write-submission epoch, so cache fills whose
    /// submit→reap window spans the snapshot are abandoned too.
    ///
    /// # Errors
    ///
    /// As [`Image::snap_create`].
    pub fn snap_create(&self, name: &str) -> Result<SnapId> {
        let snap = self.image.snap_create(name)?;
        self.meta_cache.invalidate_all();
        if !self.placement.stores_meta() {
            // The baseline layout has no per-sector epoch tags, so a
            // snapshot must remember which sectors carried which key
            // when it froze (the head's map keeps moving as rekeys
            // migrate). Persisted next to the header, mirrored in
            // memory.
            let map = self.head_epoch_map();
            let mut tx = Transaction::new(Self::crypt_header_object(self.image.name()));
            tx.omap_set(vec![(
                format!("{SNAP_EPOCH_PREFIX}{}", snap.0).into_bytes(),
                encode_epoch_map(map),
            )]);
            self.image.cluster().execute(tx)?;
            self.snap_epochs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(snap.0, map);
        }
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
    /// queue: bounds check; take the rekey migration-proof marker armed
    /// for this `(offset, len)`, if any; read-modify-write the
    /// partially-covered boundary sectors of an unaligned request
    /// (synchronously — the reads ride the same shard FIFOs, so they
    /// observe every previously queued write); encrypt
    /// ([`EncryptedImage::encrypt_batch`]); stamp the marker; capture
    /// the write-through fills' shard epochs.
    fn prepare_write(
        &mut self,
        offset: u64,
        data: Cow<'_, [u8]>,
    ) -> Result<(Vec<Transaction>, PreparedWrite)> {
        self.check_bounds(offset, data.len() as u64)?;
        let armed_marker = self.armed_markers.remove(&(offset, data.len()));
        let (aligned_off, owned, rmw) =
            if data.is_empty() || self.is_sector_aligned(offset, data.len() as u64) {
                (offset, data.into_owned(), RmwReads::default())
            } else {
                self.rmw_span(offset, &data)?
            };
        let (mut txs, len, invalidated, fills) = self.encrypt_batch(aligned_off, owned)?;
        if let Some(marker) = armed_marker {
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
        let epochs = self.head_epoch_map();
        let len = data.len();
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
        self.chain.encrypt_sectors(
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
        // submit-time map (head, or the snapshot's frozen map) is
        // exactly right at reap — however far the rekey watermark has
        // moved in between.
        let epochs = match snap {
            None => self.head_epoch_map(),
            Some(snap) => self.snap_epoch_map(snap),
        };
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
            self.chain
                .decrypt_sectors(extent.base_lba, seq_limit, dest, &packed, span.epochs)?;
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

impl Drop for EncryptedImage {
    fn drop(&mut self) {
        // Defense in depth: the master keys (SecretBytes) wipe
        // themselves, and the header's wrapped blobs are zeroized too
        // so no passphrase-derivable material lingers on the heap.
        self.header.shred();
    }
}

/// Wire form of an [`EpochMap`] (the `snapepoch.*` OMAP values):
/// `current u32 ‖ pending flag u8 ‖ from u32 ‖ watermark u64`, LE.
fn encode_epoch_map(map: EpochMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&map.current.to_le_bytes());
    match map.pending {
        None => out.extend_from_slice(&[0u8; 13]),
        Some((from, watermark)) => {
            out.push(1);
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&watermark.to_le_bytes());
        }
    }
    out
}

fn decode_epoch_map(bytes: &[u8]) -> Option<EpochMap> {
    if bytes.len() != 17 {
        return None;
    }
    let current = u32::from_le_bytes(bytes[..4].try_into().ok()?);
    let pending = match bytes[4] {
        0 => None,
        _ => Some((
            u32::from_le_bytes(bytes[5..9].try_into().ok()?),
            u64::from_le_bytes(bytes[9..17].try_into().ok()?),
        )),
    };
    Some(EpochMap { current, pending })
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
