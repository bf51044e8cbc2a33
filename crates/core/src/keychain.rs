//! The key chain: the one owner of an image's key-lifecycle state —
//! the encryption header, every key epoch's sector codec, the rekey
//! driver's armed migration markers and, only while a rekey is in
//! flight, its master-key pair.
//!
//! An image's master key is versioned by **key epochs** (see
//! [`crate::luks`]): epoch 0 is the format-time key, every online
//! rekey installs the next. While a rekey migrates the image — and
//! forever after, for snapshots frozen under old keys — sectors
//! encrypted under different epochs coexist, so every decrypt must
//! first answer "which key?":
//!
//! - **Layouts with per-sector metadata** stamp the epoch into the
//!   stored entry (the trailing
//!   [`crate::config::KEY_EPOCH_TAG_LEN`]-byte tag) — exactly the
//!   paper's point that virtual-disk encryption can piggyback extra
//!   per-sector state on the mapping layer. The entry routes itself.
//! - **The baseline layout** stores nothing, so it cannot tag sectors.
//!   Instead the rekey driver migrates the image strictly in LBA order
//!   and publishes a **watermark**: sectors below it are on the new
//!   epoch, sectors at or above still carry the old one. An
//!   [`EpochMap`] snapshots that rule at submit time, which — combined
//!   with the store's per-shard FIFO ordering — pins the right key to
//!   the right bytes even with IO and rekey in flight concurrently. A
//!   snapshot's map is the header *as of the snapshot*: snapshots are
//!   cluster-wide, so the crypt-header object's clone at the snapshot
//!   holds the epoch and watermark the snapshot froze under
//!   ([`KeyChain::snap_map`]).
//!
//! Every header change goes through [`KeyChain::commit`]: it stages
//! the change on a copy, persists the copy CASed on the `luks.gen`
//! xattr, and only then adopts it and installs whatever keys the change
//! brings — a lost CAS leaves the chain exactly as it was.
//!
//! **Key residency.** The codecs hold the derived subkeys of every
//! epoch this handle can reach (the current one, the retiring one
//! mid-rekey, and every retired one snapshots may need). Master keys
//! are held only while a rekey is in flight — its `(from, to)` pair,
//! which the finish needs to wrap the outgoing key under its successor
//! — and are wiped when the finish persists. An idle handle holds none.

use crate::config::{EncryptionConfig, KEY_EPOCH_TAG_LEN};
use crate::luks::{LuksHeader, RekeyState, WindowIntent, DEFAULT_ITERATIONS};
use crate::sector::SectorCodec;
#[cfg(test)]
use crate::sector::SectorState;
use crate::{CryptError, Result};
use std::collections::{BTreeMap, HashMap};
use vdisk_crypto::mem::SecretBytes;
use vdisk_crypto::rng::IvSource;
use vdisk_rados::{Cluster, RadosError, ReadOp, ReadResult, SnapId, Transaction};
use vdisk_rbd::Image;

/// Xattr on the crypt-header object carrying the header generation —
/// the CAS token serializing concurrent header updates.
const GEN_XATTR: &str = "luks.gen";

/// Which key epoch governs each sector — captured at **submit** time,
/// so a queued IO decrypts (or encrypted) with the epochs that were
/// true when the store pinned its data version (per-shard FIFO makes
/// submission order the apply order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochMap {
    /// The epoch newly-written (and already-migrated) sectors use.
    pub(crate) current: u32,
    /// An in-flight rekey, if any: `(previous epoch, watermark)` —
    /// sectors at or above the watermark (in sectors) still carry the
    /// previous epoch. Only consulted for the baseline layout; tagged
    /// layouts route by entry.
    pub(crate) pending: Option<(u32, u64)>,
}

impl EpochMap {
    /// A map with every sector on one epoch.
    pub(crate) fn uniform(epoch: u32) -> EpochMap {
        EpochMap {
            current: epoch,
            pending: None,
        }
    }

    /// The map `header` states: its current epoch, plus the watermark
    /// split while a rekey is migrating.
    fn of(header: &LuksHeader) -> EpochMap {
        EpochMap {
            current: header.current_epoch(),
            pending: header.rekey().map(|s| (s.from, s.watermark)),
        }
    }

    /// The epoch governing logical sector `lba` under this map.
    pub(crate) fn epoch_at(&self, lba: u64) -> u32 {
        match self.pending {
            Some((from, watermark)) if lba >= watermark => from,
            _ => self.current,
        }
    }
}

/// An in-flight rekey's `(from, to)` master keys.
type MasterPair = (SecretBytes, SecretBytes);

/// What a committed header change brings into use.
enum KeyChange {
    /// Keyslots, the watermark or the window intent only.
    None,
    /// A rekey began: the new (now current) epoch's codec, and the
    /// master keys its finish will need.
    Begin(SectorCodec, MasterPair),
    /// The rekey finished: its master keys are no longer needed.
    Finish,
}

/// See the [module docs](self).
pub(crate) struct KeyChain {
    header: LuksHeader,
    codecs: Codecs,
    /// `None` when no rekey is in flight.
    rekey_pair: Option<MasterPair>,
    /// Migration-proof markers armed by [`crate::RekeyDriver`], keyed
    /// by chunk `(offset, len)`: the chunk's read and rewrite route as
    /// a driver chunk, and the rewrite stamps the named xattr onto its
    /// (single) transaction, so the chunk's data and its proof land
    /// atomically. Keyed by request shape because the tenant runtime
    /// may defer the driver's IO into its backlog: the key is checked
    /// when the IO actually dispatches.
    armed_markers: HashMap<(u64, u64), String>,
    cluster: Cluster,
    /// The crypt-header object.
    object: String,
}

impl KeyChain {
    fn header_object(image: &Image) -> String {
        format!("rbd_header.{}.luks", image.name())
    }

    /// Generates epoch 0's master key, persists a fresh header for
    /// `image` and returns the chain holding its codec (and no master
    /// key).
    pub(crate) fn format(
        image: &Image,
        config: &EncryptionConfig,
        passphrase: &[u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<KeyChain> {
        let (header, master) = LuksHeader::format(config, passphrase, iv_source)?;
        let codec = SectorCodec::new(config, &master, 0)?;
        let mut chain = KeyChain {
            header,
            codecs: Codecs(BTreeMap::from([(0, codec)])),
            rekey_pair: None,
            armed_markers: HashMap::new(),
            cluster: image.cluster().clone(),
            object: Self::header_object(image),
        };
        // The fresh header is generation 0, so this first commit
        // requires the generation xattr to be absent: two concurrent
        // formats cannot both win.
        chain.commit(|_, _| Ok(((), KeyChange::None)))?;
        Ok(chain)
    }

    /// Reads `image`'s header and unlocks every epoch `passphrase`
    /// reaches: the current one (mandatory), the retiring one
    /// mid-rekey (through the bridge slot), and every retired epoch
    /// through the wrap chain. Each gets a codec; only an in-flight
    /// rekey's pair of master keys stays resident.
    ///
    /// # Errors
    ///
    /// [`CryptError::WrongPassphrase`] if `passphrase` does not unlock
    /// the current epoch; [`CryptError::RekeyInProgress`] if it does
    /// but, mid-rekey, does not also unlock the retiring one (a slot
    /// bound to the new epoch alone — such a handle could neither read
    /// the unmigrated half nor finish).
    pub(crate) fn open(image: &Image, passphrase: &[u8]) -> Result<KeyChain> {
        let object = Self::header_object(image);
        let cluster = image.cluster().clone();
        let stat = cluster
            .stat(&object)
            .map_err(|_| CryptError::HeaderCorrupt("missing encryption header".into()))?;
        let header = Self::read_header(&cluster, &object, None, stat.size)?;

        let mut masters: BTreeMap<u32, SecretBytes> =
            header.unlock_all(passphrase).into_iter().collect();
        let current = masters
            .get(&header.current_epoch())
            .ok_or(CryptError::WrongPassphrase)?;
        for (epoch, master) in header.unwrap_retired(current) {
            masters.entry(epoch).or_insert(master);
        }
        let mut codecs = BTreeMap::new();
        for (&epoch, master) in &masters {
            codecs.insert(epoch, SectorCodec::new(header.config(), master, epoch)?);
        }
        let rekey_pair = match header.rekey() {
            None => None,
            Some(state) => Some(
                masters
                    .remove(&state.from)
                    .zip(masters.remove(&state.to))
                    .ok_or(CryptError::RekeyInProgress)?,
            ),
        };
        // Every other master key is wiped as `masters` drops: the
        // codecs keep what decrypting needs.
        Ok(KeyChain {
            header,
            codecs: Codecs(codecs),
            rekey_pair,
            armed_markers: HashMap::new(),
            cluster,
            object,
        })
    }

    /// Reads and decodes the `len`-byte header stored on `object` —
    /// the head's, or its clone as of `snap`.
    fn read_header(
        cluster: &Cluster,
        object: &str,
        snap: Option<SnapId>,
        len: u64,
    ) -> Result<LuksHeader> {
        let (results, _) = cluster.read(object, snap, &[ReadOp::Read { offset: 0, len }])?;
        LuksHeader::decode(results[0].as_data())
    }

    /// The one header-update path: stages a change on a copy of the
    /// header, persists the copy CASed on the generation this handle
    /// last persisted (or read), and only then adopts it and installs
    /// the keys the change brings. On any failure — the staging
    /// itself, or a lost CAS ([`CryptError::HeaderContended`]) — the
    /// header, codecs and master keys are exactly as they were, so a
    /// contended handle never writes under an epoch the store never
    /// recorded.
    fn commit<T>(
        &mut self,
        stage: impl FnOnce(&mut LuksHeader, Option<&MasterPair>) -> Result<(T, KeyChange)>,
    ) -> Result<T> {
        let mut staged = self.header.clone();
        let (out, change) = stage(&mut staged, self.rekey_pair.as_ref())?;
        let old = staged.generation();
        let new = staged.bump_generation();
        let mut tx = Transaction::new(self.object.clone());
        // Generation 0 was never persisted: the xattr must be absent.
        tx.compare_xattr(GEN_XATTR, (old > 0).then(|| old.to_le_bytes().to_vec()));
        let bytes = staged.encode();
        let len = bytes.len() as u64;
        tx.write(0, bytes);
        tx.truncate(len);
        tx.set_xattr(GEN_XATTR, new.to_le_bytes().to_vec());
        self.cluster.execute(tx).map_err(|e| match e {
            RadosError::CompareFailed { .. } => CryptError::HeaderContended,
            other => other.into(),
        })?;
        self.header = staged;
        match change {
            KeyChange::None => {}
            KeyChange::Begin(codec, pair) => {
                self.codecs.0.insert(self.header.current_epoch(), codec);
                self.rekey_pair = Some(pair);
            }
            KeyChange::Finish => self.rekey_pair = None,
        }
        Ok(out)
    }

    /// The encryption configuration the header carries.
    pub(crate) fn config(&self) -> &EncryptionConfig {
        self.header.config()
    }

    /// The in-flight rekey, if any.
    pub(crate) fn rekey(&self) -> Option<RekeyState> {
        self.header.rekey()
    }

    /// Every reachable epoch's codec.
    pub(crate) fn codecs(&self) -> &Codecs {
        &self.codecs
    }

    /// The key epoch new head writes encrypt under.
    pub(crate) fn current_epoch(&self) -> u32 {
        self.header.current_epoch()
    }

    /// The epoch map an IO of `len` bytes at byte `offset` runs under
    /// — of the head, or of `snap` — and the one place that decides
    /// it. Tagged layouts always get the head's map: their entries
    /// route themselves, so they never refuse. On the baseline:
    ///
    /// - a snapshot's map is the header as of the snapshot
    ///   ([`KeyChain::snap_map`]);
    /// - a rekey driver chunk (an armed `(offset, len)`, see
    ///   [`KeyChain::arm_marker`]) reads under the retiring epoch and
    ///   its rewrite encrypts under the new one;
    /// - any other head IO overlapping an outstanding window intent
    ///   is refused: the window's chunks are in doubt, some already
    ///   under the new key above the watermark, until the next
    ///   [`crate::RekeyDriver::step`] recovers it;
    /// - everything else splits at the watermark, which is the stored
    ///   one ([`KeyChain::publish_watermark`] is the only way it
    ///   moves).
    ///
    /// # Errors
    ///
    /// [`CryptError::RekeyInProgress`] for baseline head IO in a
    /// window in doubt; as [`KeyChain::snap_map`] for a baseline
    /// snapshot.
    pub(crate) fn epochs(
        &self,
        snap: Option<SnapId>,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Result<EpochMap> {
        let tagged = || self.codecs.meta_entry_len() > 0;
        if let Some(snap) = snap.filter(|_| !tagged()) {
            return self.snap_map(snap);
        }
        let map = EpochMap::of(&self.header);
        let rekey = self.header.rekey().filter(|_| !tagged());
        let Some((state, intent)) = rekey.and_then(|s| s.intent.map(|i| (s, i))) else {
            return Ok(map);
        };
        if self.armed_markers.contains_key(&(offset, len)) {
            return Ok(EpochMap::uniform(if write { state.to } else { state.from }));
        }
        let ss = u64::from(self.header.config().sector_size);
        if offset / ss < intent.end && intent.start < (offset + len).div_ceil(ss) {
            return Err(CryptError::RekeyInProgress);
        }
        Ok(map)
    }

    /// The epoch map governing a baseline snapshot's ciphertext: the
    /// header as of `snap`. Snapshots are cluster-wide, so the
    /// crypt-header object's clone at `snap` holds the epoch and
    /// watermark the snapshot froze under — the same fact the data
    /// objects' clones froze with, taken in the same instant. Only the
    /// baseline needs it: tagged entries route themselves.
    ///
    /// Exact because the head's data obeys the stored header whenever
    /// a snapshot can be taken: the handle's watermark is the stored
    /// one, and `snap_create` refuses the baseline while a window
    /// intent is outstanding, the one state in which chunks above the
    /// watermark may already carry the new key.
    ///
    /// # Errors
    ///
    /// A store error, or [`CryptError::HeaderCorrupt`] if the clone
    /// does not decode.
    fn snap_map(&self, snap: SnapId) -> Result<EpochMap> {
        let (stat, _) = self
            .cluster
            .read(&self.object, Some(snap), &[ReadOp::Stat])?;
        let len = match stat.first() {
            Some(&ReadResult::Stat { size }) => size,
            _ => 0,
        };
        let header = Self::read_header(&self.cluster, &self.object, Some(snap), len)?;
        Ok(EpochMap::of(&header))
    }

    /// Adds a passphrase (authorized by `existing`) for the current
    /// epoch; returns its keyslot. Mid-rekey it also takes a bridge
    /// slot for the retiring epoch, as `rekey_begin` binds the new
    /// passphrase, so it opens the image fully (`finish` drops the
    /// bridge).
    pub(crate) fn add_passphrase(
        &mut self,
        existing: &[u8],
        new: &[u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<usize> {
        self.commit(|header, pair| {
            let master = header.unlock(existing)?;
            let slot = header.add_keyslot(new, &master, iv_source)?;
            // The chain holds the pair exactly while a rekey is in flight.
            if let Some((state, (from_master, _))) = header.rekey().zip(pair) {
                header.add_keyslot_with_iterations(
                    new,
                    state.from,
                    from_master,
                    DEFAULT_ITERATIONS,
                    iv_source,
                )?;
            }
            Ok((slot, KeyChange::None))
        })
    }

    /// Re-wraps every keyslot `existing` unlocks under `new`; returns
    /// how many.
    pub(crate) fn rotate_passphrase(
        &mut self,
        existing: &[u8],
        new: &[u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<usize> {
        self.commit(|header, _| {
            let rotated = header.rotate_passphrase(existing, new, iv_source)?;
            Ok((rotated.len(), KeyChange::None))
        })
    }

    /// Starts a rekey: installs the next epoch (its codec becomes the
    /// write epoch's once the header persists) and holds the
    /// `(from, to)` master keys until the finish. Returns the pair of
    /// epochs.
    pub(crate) fn begin_rekey(
        &mut self,
        existing: &[u8],
        new_pass: &[u8],
        iterations: u32,
        iv_source: &mut dyn IvSource,
    ) -> Result<(u32, u32)> {
        self.commit(|header, _| {
            let from = header.current_epoch();
            let pair = header.begin_rekey(existing, new_pass, iterations, iv_source)?;
            let to = header.current_epoch();
            let codec = SectorCodec::new(header.config(), &pair.1, to)?;
            Ok(((from, to), KeyChange::Begin(codec, pair)))
        })
    }

    /// Completes the in-flight rekey (the driver has migrated every
    /// sector): retires the old master key into the header's wrap
    /// chain (snapshot reads keep its codec), drops the bridge
    /// keyslots, and — once that persists — wipes the pair.
    pub(crate) fn finish_rekey(&mut self) -> Result<()> {
        self.commit(|header, pair| {
            let (from, to) = pair.ok_or(CryptError::NoRekeyInProgress)?;
            header.finish_rekey(from, to)?;
            Ok(((), KeyChange::Finish))
        })
    }

    /// Driver-only: drops every armed-but-unconsumed marker after a
    /// failed window, so a later *client* write matching an armed
    /// `(offset, len)` is neither routed as a driver chunk nor stamped
    /// as migration proof for data it never migrated.
    pub(crate) fn disarm(&mut self) {
        self.armed_markers.clear();
    }

    /// Driver-only: durably records the window the driver is *about*
    /// to migrate, before any chunk of it is rewritten. Crash-safety
    /// contract: once this persists, a reopened image either finds the
    /// watermark advanced past the window (it landed) or finds this
    /// intent and re-proves each chunk individually.
    pub(crate) fn record_intent(&mut self, intent: WindowIntent) -> Result<()> {
        self.commit(|header, _| {
            header.set_rekey_intent(intent);
            Ok(((), KeyChange::None))
        })
    }

    /// Driver-only: publishes a migrated window — the watermark moves
    /// to `end` and the window intent clears in one staged commit, so
    /// "intent gone" and "watermark past the window" are one fact.
    /// This is the only way the watermark moves, so the handle's
    /// watermark is always the stored one: on failure neither changes,
    /// and the window stays in doubt until a step recovers it.
    pub(crate) fn publish_watermark(&mut self, end: u64) -> Result<()> {
        self.commit(|header, _| {
            header.set_rekey_watermark(end);
            header.clear_rekey_intent();
            Ok(((), KeyChange::None))
        })
    }

    /// Driver-only: arms migration-proof marker `name` for the chunk
    /// at `(offset, len)`, before its read is submitted: the chunk's
    /// IO then routes as a driver chunk ([`KeyChain::epochs`]) and its
    /// rewrite takes the marker ([`KeyChain::take_marker`]).
    pub(crate) fn arm_marker(&mut self, offset: u64, len: u64, name: String) {
        self.armed_markers.insert((offset, len), name);
    }

    /// The marker armed for a write of `(offset, len)`, if any — taken,
    /// so it stamps exactly one write.
    pub(crate) fn take_marker(&mut self, offset: u64, len: u64) -> Option<String> {
        self.armed_markers.remove(&(offset, len))
    }

    /// Crypto-shreds the header: zeroizes every keyslot, epoch digest
    /// and retired-key wrap in memory, then overwrites the stored
    /// header object with zeros and deletes it in one transaction.
    pub(crate) fn erase(&mut self) -> Result<()> {
        let stat = self.cluster.stat(&self.object)?;
        self.header.shred();
        let mut tx = Transaction::new(self.object.clone());
        // Overwrite-then-delete: the scrub pass models clearing the
        // physical extents before dropping the object, so even the
        // (already key-less) wrapped blobs are gone from the store.
        tx.write(0, vec![0u8; stat.size as usize]);
        tx.delete();
        self.cluster.execute(tx)?;
        Ok(())
    }

    /// Master keys this chain holds: the in-flight rekey's pair, or
    /// none.
    #[cfg(test)]
    pub(crate) fn master_keys_held(&self) -> usize {
        self.rekey_pair.as_ref().map_or(0, |_| 2)
    }
}

/// Every reachable key epoch's [`SectorCodec`]: the decrypt side
/// routes each sector to the epoch that encrypted it, the encrypt side
/// stamps the epoch chosen by the caller's [`EpochMap`].
pub(crate) struct Codecs(BTreeMap<u32, SectorCodec>);

impl Codecs {
    fn codec(&self, epoch: u32, lba: u64) -> Result<&SectorCodec> {
        self.0
            .get(&epoch)
            .ok_or(CryptError::UnknownKeyEpoch { lba, epoch })
    }

    fn any(&self) -> &SectorCodec {
        self.0
            .values()
            .next()
            .expect("a chain holds at least one codec")
    }

    /// Metadata entry length in bytes (uniform across epochs).
    fn meta_entry_len(&self) -> usize {
        self.any().meta_entry_len()
    }

    /// Encrypts a contiguous run of sectors in place, appending each
    /// sector's metadata entry (epoch-tagged) to `metas`. `epochs`
    /// picks the key per sector: tagged layouts (those storing an
    /// entry) always encrypt under `epochs.current`; the baseline
    /// splits at the rekey watermark so sectors the driver has not
    /// reached yet stay readable under the watermark rule.
    pub(crate) fn encrypt_sectors(
        &self,
        base_lba: u64,
        write_seq: u64,
        data: &mut [u8],
        metas: &mut Vec<u8>,
        iv_source: &mut dyn IvSource,
        epochs: EpochMap,
    ) -> Result<()> {
        let ss = self.any().sector_size();
        let me = self.meta_entry_len();
        debug_assert_eq!(data.len() % ss, 0, "whole sectors only");
        metas.reserve(data.len() / ss * me);
        for (i, sector) in data.chunks_exact_mut(ss).enumerate() {
            let lba = base_lba + i as u64;
            let epoch = if me > 0 {
                epochs.current
            } else {
                epochs.epoch_at(lba)
            };
            self.codec(epoch, lba)?
                .encrypt_into(lba, write_seq, sector, metas, iv_source)?;
        }
        Ok(())
    }

    /// Decrypts a contiguous run of sectors in place. Tagged layouts
    /// route each sector by the epoch tag closing its stored entry
    /// (an unwritten all-zero entry by `epochs.current`: any codec
    /// zero-fills it); the baseline (empty `metas`) routes by `epochs`
    /// — the map captured when the read was submitted.
    ///
    /// # Errors
    ///
    /// [`CryptError::UnknownKeyEpoch`] if an entry names an epoch this
    /// chain holds no key for (a corrupt tag, or an image opened
    /// without its retired-key chain), plus everything
    /// `SectorCodec::decrypt` reports.
    pub(crate) fn decrypt_sectors(
        &self,
        base_lba: u64,
        read_seq_limit: Option<u64>,
        data: &mut [u8],
        metas: &[u8],
        epochs: EpochMap,
    ) -> Result<()> {
        let ss = self.any().sector_size();
        let me = self.meta_entry_len();
        debug_assert_eq!(data.len() % ss, 0, "whole sectors only");
        let count = data.len() / ss;
        if me > 0 && metas.len() != count * me {
            return Err(CryptError::HeaderCorrupt(format!(
                "metadata run is {} bytes, expected {}",
                metas.len(),
                count * me
            )));
        }
        for (i, sector) in data.chunks_exact_mut(ss).enumerate() {
            let lba = base_lba + i as u64;
            let meta = &metas[i * me..(i + 1) * me];
            let epoch = if me > 0 {
                entry_epoch(meta).unwrap_or(epochs.current)
            } else {
                epochs.epoch_at(lba)
            };
            self.codec(epoch, lba)?
                .decrypt(lba, read_seq_limit, sector, meta)?;
        }
        Ok(())
    }

    /// Decrypts one sector (the single-sector convenience used by
    /// tests); see [`Codecs::decrypt_sectors`].
    #[cfg(test)]
    pub(crate) fn decrypt_one(
        &self,
        lba: u64,
        read_seq_limit: Option<u64>,
        data: &mut [u8],
        meta: &[u8],
        epochs: EpochMap,
    ) -> Result<SectorState> {
        let epoch = if meta.is_empty() {
            epochs.epoch_at(lba)
        } else {
            entry_epoch(meta).unwrap_or(epochs.current)
        };
        self.codec(epoch, lba)?
            .decrypt(lba, read_seq_limit, data, meta)
    }
}

/// The epoch tag closing a stored entry, or `None` for the all-zero
/// "never written" entry (which carries no meaningful tag — the codec
/// zero-fills regardless of epoch, so any loaded codec may serve it).
fn entry_epoch(entry: &[u8]) -> Option<u32> {
    if entry.iter().all(|&b| b == 0) {
        return None;
    }
    let tag_at = entry.len() - KEY_EPOCH_TAG_LEN as usize;
    let mut tag = [0u8; 4];
    tag.copy_from_slice(&entry[tag_at..]);
    Some(u32::from_le_bytes(tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaLayout;
    use crate::{EncryptedImage, RekeyDriver};
    use vdisk_crypto::rng::SeededIvSource;

    fn codecs_for(config: &EncryptionConfig, epochs: &[u32]) -> Codecs {
        Codecs(
            epochs
                .iter()
                .map(|&epoch| {
                    let master = SecretBytes::from(vec![0x10 + epoch as u8; 64]);
                    (epoch, SectorCodec::new(config, &master, epoch).unwrap())
                })
                .collect(),
        )
    }

    #[test]
    fn epoch_map_splits_at_the_watermark() {
        let map = EpochMap {
            current: 3,
            pending: Some((2, 100)),
        };
        assert_eq!(map.epoch_at(0), 3);
        assert_eq!(map.epoch_at(99), 3);
        assert_eq!(map.epoch_at(100), 2);
        assert_eq!(map.epoch_at(u64::MAX), 2);
        assert_eq!(EpochMap::uniform(7).epoch_at(50), 7);
    }

    #[test]
    fn tagged_entries_route_to_their_epoch() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let codecs = codecs_for(&config, &[0, 1]);
        let mut rng = SeededIvSource::new(3);
        let ss = config.sector_size as usize;

        // Encrypt one sector under epoch 0, another under epoch 1.
        let mut old = vec![0xAA; ss];
        let mut metas = Vec::new();
        codecs
            .encrypt_sectors(7, 0, &mut old, &mut metas, &mut rng, EpochMap::uniform(0))
            .unwrap();
        let mut new = vec![0xBB; ss];
        codecs
            .encrypt_sectors(8, 0, &mut new, &mut metas, &mut rng, EpochMap::uniform(1))
            .unwrap();
        assert_eq!(entry_epoch(&metas[..codecs.meta_entry_len()]), Some(0));
        assert_eq!(entry_epoch(&metas[codecs.meta_entry_len()..]), Some(1));

        // One mixed-epoch run decrypts sector-by-sector to the right key.
        let mut run = [old, new].concat();
        codecs
            .decrypt_sectors(7, None, &mut run, &metas, EpochMap::uniform(1))
            .unwrap();
        assert_eq!(&run[..ss], &vec![0xAA; ss][..]);
        assert_eq!(&run[ss..], &vec![0xBB; ss][..]);
    }

    #[test]
    fn missing_epoch_is_a_clear_error() {
        let config = EncryptionConfig::random_iv(MetaLayout::Omap);
        let full = codecs_for(&config, &[0, 1]);
        let short = codecs_for(&config, &[1]);
        let mut rng = SeededIvSource::new(4);
        let ss = config.sector_size as usize;
        let mut data = vec![0x55; ss];
        let mut metas = Vec::new();
        full.encrypt_sectors(3, 0, &mut data, &mut metas, &mut rng, EpochMap::uniform(0))
            .unwrap();
        assert!(matches!(
            short.decrypt_sectors(3, None, &mut data, &metas, EpochMap::uniform(1)),
            Err(CryptError::UnknownKeyEpoch { lba: 3, epoch: 0 })
        ));
    }

    #[test]
    fn baseline_routes_by_the_captured_map() {
        let config = EncryptionConfig::luks2_baseline();
        let codecs = codecs_for(&config, &[0, 1]);
        let mut rng = SeededIvSource::new(5);
        let ss = config.sector_size as usize;
        // Sector 4 encrypted under epoch 1 (below watermark 5), sector
        // 5 under epoch 0 — the mid-rekey split.
        let map = EpochMap {
            current: 1,
            pending: Some((0, 5)),
        };
        let mut run = vec![0x77; 2 * ss];
        let mut metas = Vec::new();
        codecs
            .encrypt_sectors(4, 0, &mut run, &mut metas, &mut rng, map)
            .unwrap();
        assert!(metas.is_empty(), "baseline stores no metadata");
        codecs.decrypt_sectors(4, None, &mut run, &[], map).unwrap();
        assert_eq!(run, vec![0x77; 2 * ss]);

        // Decrypting with the wrong map (uniform new epoch) garbles the
        // not-yet-migrated sector but not the migrated one.
        let mut reencrypted = vec![0x77; 2 * ss];
        let mut metas = Vec::new();
        codecs
            .encrypt_sectors(4, 0, &mut reencrypted, &mut metas, &mut rng, map)
            .unwrap();
        codecs
            .decrypt_sectors(4, None, &mut reencrypted, &[], EpochMap::uniform(1))
            .unwrap();
        assert_eq!(&reencrypted[..ss], &vec![0x77; ss][..]);
        assert_ne!(&reencrypted[ss..], &vec![0x77; ss][..]);
    }

    #[test]
    fn all_zero_entries_decrypt_as_unwritten_without_a_key() {
        // An unwritten sector's all-zero entry has no meaningful epoch
        // tag; it must zero-fill even if its "tag" (0) were unknown.
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let codecs = codecs_for(&config, &[2]);
        let me = codecs.meta_entry_len();
        let ss = config.sector_size as usize;
        let mut data = vec![0xFF; ss];
        assert_eq!(
            codecs
                .decrypt_one(0, None, &mut data, &vec![0u8; me], EpochMap::uniform(2))
                .unwrap(),
            SectorState::Unwritten
        );
        assert_eq!(data, vec![0u8; ss]);
    }

    // ------------------------------------------------- key residency

    const OLD_PASS: &[u8] = b"old passphrase";
    const NEW_PASS: &[u8] = b"new passphrase";
    const IMAGE_SIZE: u64 = 1 << 20;
    const OBJECT_SIZE: u64 = 256 << 10;

    fn pattern(tag: u8) -> Vec<u8> {
        (0..IMAGE_SIZE).map(|i| (i % 251) as u8 ^ tag).collect()
    }

    fn format(cluster: &vdisk_rados::Cluster, config: &EncryptionConfig) -> EncryptedImage {
        let image =
            Image::create_with_object_size(cluster, "keys", IMAGE_SIZE, OBJECT_SIZE).unwrap();
        EncryptedImage::format_with_iv_source(
            image,
            config,
            OLD_PASS,
            Box::new(SeededIvSource::new(11)),
        )
        .unwrap()
    }

    fn reopen(cluster: &vdisk_rados::Cluster, passphrase: &[u8]) -> EncryptedImage {
        EncryptedImage::open(Image::open(cluster, "keys").unwrap(), passphrase).unwrap()
    }

    fn migrate(disk: &mut EncryptedImage, driver: &mut RekeyDriver) {
        while !driver.step(disk).unwrap().is_complete() {}
    }

    /// A handle holds master keys only while a rekey is in flight: none
    /// after `format` or an idle `open`, the `(from, to)` pair from
    /// `rekey_begin` — and again after a mid-rekey reopen — until
    /// `finish` wipes it. The retired epoch's codec outlives its master
    /// key, so a snapshot frozen under it still reads.
    #[test]
    fn master_keys_are_resident_only_mid_rekey() {
        for config in [
            EncryptionConfig::luks2_baseline(),
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        ] {
            let cluster = vdisk_rados::Cluster::builder().build();
            let mut disk = format(&cluster, &config);
            assert_eq!(disk.keys_mut().master_keys_held(), 0, "{config:?}: format");
            let frozen = pattern(0x3C);
            disk.write(0, &frozen).unwrap();
            let snap = disk.snap_create("epoch-0").unwrap();
            disk.write(0, &pattern(0x5A)).unwrap();
            drop(disk);

            let mut disk = reopen(&cluster, OLD_PASS);
            assert_eq!(
                disk.keys_mut().master_keys_held(),
                0,
                "{config:?}: idle open"
            );
            let mut driver = disk
                .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
                .unwrap()
                .with_chunk_sectors(8);
            assert_eq!(disk.keys_mut().master_keys_held(), 2, "{config:?}: begin");
            assert!(!driver.step(&mut disk).unwrap().is_complete());
            drop(disk);

            let mut disk = reopen(&cluster, NEW_PASS);
            let mut driver = disk.rekey_resume().expect("rekey in flight");
            assert_eq!(disk.keys_mut().master_keys_held(), 2, "{config:?}: resume");
            migrate(&mut disk, &mut driver);
            driver.finish(&mut disk).unwrap();
            assert_eq!(disk.keys_mut().master_keys_held(), 0, "{config:?}: finish");

            let mut buf = vec![0u8; IMAGE_SIZE as usize];
            disk.read_at_snap(snap, 0, &mut buf).unwrap();
            assert!(buf == frozen, "{config:?}: retired-epoch snapshot diverged");
            disk.read(0, &mut buf).unwrap();
            assert!(buf == pattern(0x5A), "{config:?}: head diverged");
        }
    }

    /// A `finish` that loses the header CAS keeps the rekey in flight
    /// and its master keys resident — the pair is wiped only once the
    /// retirement persists — so a reopened handle can still finish,
    /// and the retired epoch's snapshot still reads.
    #[test]
    fn contended_finish_keeps_the_rekey_and_its_keys() {
        let config = EncryptionConfig::random_iv(MetaLayout::ObjectEnd);
        let cluster = vdisk_rados::Cluster::builder().build();
        let mut disk = format(&cluster, &config);
        let frozen = pattern(0x71);
        disk.write(0, &frozen).unwrap();
        let snap = disk.snap_create("epoch-0").unwrap();
        let mut driver = disk
            .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
            .unwrap();
        migrate(&mut disk, &mut driver);

        // Another handle's header update bumps the generation.
        let mut other = reopen(&cluster, NEW_PASS);
        other.add_passphrase(NEW_PASS, b"third").unwrap();
        drop(other);

        assert!(matches!(
            driver.finish(&mut disk),
            Err(CryptError::HeaderContended)
        ));
        assert!(
            disk.rekey_status().is_some(),
            "the loser's rekey is still in flight"
        );
        assert_eq!(
            disk.keys_mut().master_keys_held(),
            2,
            "the loser keeps its pair"
        );
        drop(disk);

        let mut disk = reopen(&cluster, NEW_PASS);
        let driver = disk.rekey_resume().expect("rekey still in flight");
        driver.finish(&mut disk).unwrap();
        assert!(disk.rekey_status().is_none());
        assert_eq!(disk.keys_mut().master_keys_held(), 0);
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read_at_snap(snap, 0, &mut buf).unwrap();
        assert!(buf == frozen, "retired-epoch snapshot diverged");
    }

    // ------------------------------------------- passphrases mid-rekey

    const PRE_PASS: &[u8] = b"added before the rekey";
    const MID_PASS: &[u8] = b"added mid-rekey";
    const PARTIAL_PASS: &[u8] = b"bound to the new epoch alone";

    /// What `open` returns for each probed passphrase, by name.
    fn open_outcomes(cluster: &vdisk_rados::Cluster) -> Vec<(&'static str, &'static str)> {
        [
            ("old", OLD_PASS),
            ("new", NEW_PASS),
            ("pre", PRE_PASS),
            ("mid", MID_PASS),
            ("partial", PARTIAL_PASS),
        ]
        .into_iter()
        .map(|(name, passphrase)| {
            let outcome =
                match EncryptedImage::open(Image::open(cluster, "keys").unwrap(), passphrase) {
                    Ok(_) => "opens",
                    Err(CryptError::WrongPassphrase) => "wrong passphrase",
                    Err(CryptError::RekeyInProgress) => "rekey in progress",
                    Err(e) => panic!("{name}: unexpected open error: {e}"),
                };
            (name, outcome)
        })
        .collect()
    }

    /// A passphrase that opens an image opens it fully: one added
    /// mid-rekey is bound to both epochs of the migration, so its
    /// handle reads both halves and can finish. `open` reports a
    /// passphrase that unlocks the new epoch but not the retiring one
    /// (what an earlier `add_passphrase` left mid-rekey) as
    /// `RekeyInProgress`, never as a corrupt header; once the rekey
    /// finishes it opens like any other.
    #[test]
    fn every_passphrase_that_opens_opens_fully() {
        let cluster = vdisk_rados::Cluster::builder().build();
        let mut disk = format(&cluster, &EncryptionConfig::luks2_baseline());
        let data = pattern(0x42);
        disk.write(0, &data).unwrap();
        disk.add_passphrase(OLD_PASS, PRE_PASS).unwrap();
        let mut stages = vec![("idle", open_outcomes(&cluster))];

        let mut driver = disk
            .rekey_begin_with_iterations(OLD_PASS, NEW_PASS, 25)
            .unwrap()
            .with_chunk_sectors(8);
        assert!(!driver.step(&mut disk).unwrap().is_complete());
        disk.add_passphrase(NEW_PASS, MID_PASS).unwrap();
        disk.keys_mut()
            .commit(|header, _| {
                let master = header.unlock(NEW_PASS)?;
                header.add_keyslot(PARTIAL_PASS, &master, &mut SeededIvSource::new(12))?;
                Ok(((), KeyChange::None))
            })
            .unwrap();
        stages.push(("mid-rekey", open_outcomes(&cluster)));
        drop(disk);

        // The passphrase added mid-rekey reads both halves and drives
        // the migration on.
        let mut disk = reopen(&cluster, MID_PASS);
        assert_eq!(disk.keys_mut().master_keys_held(), 2);
        let mut buf = vec![0u8; IMAGE_SIZE as usize];
        disk.read(0, &mut buf).unwrap();
        assert!(buf == data, "a mid-rekey passphrase must read both epochs");
        let mut driver = disk.rekey_resume().expect("rekey in flight");
        assert!(!driver.step(&mut disk).unwrap().is_complete());
        stages.push(("reopened mid-rekey", open_outcomes(&cluster)));

        migrate(&mut disk, &mut driver);
        driver.finish(&mut disk).unwrap();
        disk.read(0, &mut buf).unwrap();
        assert!(buf == data, "head diverged");
        stages.push(("finished", open_outcomes(&cluster)));

        let mid_rekey = vec![
            ("old", "wrong passphrase"),
            ("new", "opens"),
            ("pre", "wrong passphrase"),
            ("mid", "opens"),
            ("partial", "rekey in progress"),
        ];
        assert_eq!(
            stages,
            vec![
                (
                    "idle",
                    vec![
                        ("old", "opens"),
                        ("new", "wrong passphrase"),
                        ("pre", "opens"),
                        ("mid", "wrong passphrase"),
                        ("partial", "wrong passphrase"),
                    ]
                ),
                ("mid-rekey", mid_rekey.clone()),
                ("reopened mid-rekey", mid_rekey),
                (
                    "finished",
                    vec![
                        ("old", "wrong passphrase"),
                        ("new", "opens"),
                        ("pre", "wrong passphrase"),
                        ("mid", "opens"),
                        ("partial", "opens"),
                    ]
                ),
            ]
        );
    }
}
