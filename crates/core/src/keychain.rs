//! The key chain: per-epoch sector codecs and the epoch-routing rules
//! of the key-lifecycle subsystem.
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
//!   the right bytes even with IO and rekey in flight concurrently.

use crate::config::KEY_EPOCH_TAG_LEN;
use crate::sector::SectorCodec;
#[cfg(test)]
use crate::sector::SectorState;
use crate::{CryptError, Result};
use std::collections::BTreeMap;
use vdisk_crypto::rng::IvSource;

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
    /// A map with every sector on one epoch (no rekey in flight).
    #[cfg(test)]
    pub(crate) fn uniform(epoch: u32) -> EpochMap {
        EpochMap {
            current: epoch,
            pending: None,
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

/// Every key epoch's [`SectorCodec`], plus the current write epoch:
/// the decrypt side routes each sector to the epoch that encrypted it,
/// the encrypt side stamps the epoch chosen by the caller's
/// [`EpochMap`].
pub(crate) struct KeyChain {
    codecs: BTreeMap<u32, SectorCodec>,
    current: u32,
}

impl std::fmt::Debug for KeyChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The installed epochs and the write epoch are the routing
        // state worth printing; the codecs hold live subkeys.
        f.debug_struct("KeyChain")
            .field("epochs", &self.codecs.keys().collect::<Vec<_>>())
            .field("current", &self.current)
            .finish()
    }
}

impl KeyChain {
    /// A chain holding one epoch's codec, as the write epoch.
    pub(crate) fn new(epoch: u32, codec: SectorCodec) -> KeyChain {
        let mut codecs = BTreeMap::new();
        codecs.insert(epoch, codec);
        KeyChain {
            codecs,
            current: epoch,
        }
    }

    /// Installs (or replaces) an epoch's codec.
    pub(crate) fn install(&mut self, epoch: u32, codec: SectorCodec) {
        self.codecs.insert(epoch, codec);
    }

    /// Removes an epoch's codec (rollback of a failed install; must
    /// not be the current write epoch).
    pub(crate) fn uninstall(&mut self, epoch: u32) {
        assert_ne!(epoch, self.current, "cannot uninstall the write epoch");
        self.codecs.remove(&epoch);
    }

    /// The current write epoch.
    pub(crate) fn current(&self) -> u32 {
        self.current
    }

    /// Switches the write epoch (the codec must be installed).
    pub(crate) fn set_current(&mut self, epoch: u32) {
        assert!(self.codecs.contains_key(&epoch), "unknown write epoch");
        self.current = epoch;
    }

    fn codec(&self, epoch: u32, lba: u64) -> Result<&SectorCodec> {
        self.codecs
            .get(&epoch)
            .ok_or(CryptError::UnknownKeyEpoch { lba, epoch })
    }

    /// Metadata entry length in bytes (uniform across epochs).
    pub(crate) fn meta_entry_len(&self) -> usize {
        self.codecs
            .values()
            .next()
            .expect("chain is never empty")
            .meta_entry_len()
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
        let ss = sector_size(self);
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
    /// route each sector by the epoch tag closing its stored entry;
    /// the baseline (empty `metas`) routes by `epochs` — the map
    /// captured when the read was submitted.
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
        let ss = sector_size(self);
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
                entry_epoch(meta).unwrap_or(self.current)
            } else {
                epochs.epoch_at(lba)
            };
            self.codec(epoch, lba)?
                .decrypt(lba, read_seq_limit, sector, meta)?;
        }
        Ok(())
    }

    /// Decrypts one sector (the single-sector convenience used by
    /// tests); see [`KeyChain::decrypt_sectors`].
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
            entry_epoch(meta).unwrap_or(self.current)
        };
        self.codec(epoch, lba)?
            .decrypt(lba, read_seq_limit, data, meta)
    }
}

fn sector_size(chain: &KeyChain) -> usize {
    chain
        .codecs
        .values()
        .next()
        .expect("chain is never empty")
        .sector_size()
}

/// The epoch tag closing a stored entry, or `None` for the all-zero
/// "never written" entry (which carries no meaningful tag — the codec
/// zero-fills regardless of epoch, so any loaded codec may serve it).
pub(crate) fn entry_epoch(entry: &[u8]) -> Option<u32> {
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
    use crate::config::{EncryptionConfig, MetaLayout};
    use vdisk_crypto::mem::SecretBytes;
    use vdisk_crypto::rng::SeededIvSource;

    fn chain_with(config: &EncryptionConfig, epochs: &[u32]) -> KeyChain {
        let mut chain: Option<KeyChain> = None;
        for &epoch in epochs {
            let master = SecretBytes::from(vec![0x10 + epoch as u8; 64]);
            let codec = SectorCodec::new(config, &master, epoch).unwrap();
            match chain.as_mut() {
                None => chain = Some(KeyChain::new(epoch, codec)),
                Some(chain) => chain.install(epoch, codec),
            }
        }
        chain.unwrap()
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
        let mut chain = chain_with(&config, &[0, 1]);
        let mut rng = SeededIvSource::new(3);
        let ss = config.sector_size as usize;

        // Encrypt one sector under epoch 0, another under epoch 1.
        let mut old = vec![0xAA; ss];
        let mut metas = Vec::new();
        chain
            .encrypt_sectors(7, 0, &mut old, &mut metas, &mut rng, EpochMap::uniform(0))
            .unwrap();
        chain.set_current(1);
        let mut new = vec![0xBB; ss];
        chain
            .encrypt_sectors(8, 0, &mut new, &mut metas, &mut rng, EpochMap::uniform(1))
            .unwrap();
        assert_eq!(entry_epoch(&metas[..chain.meta_entry_len()]), Some(0));
        assert_eq!(entry_epoch(&metas[chain.meta_entry_len()..]), Some(1));

        // One mixed-epoch run decrypts sector-by-sector to the right key.
        let mut run = [old, new].concat();
        chain
            .decrypt_sectors(7, None, &mut run, &metas, EpochMap::uniform(1))
            .unwrap();
        assert_eq!(&run[..ss], &vec![0xAA; ss][..]);
        assert_eq!(&run[ss..], &vec![0xBB; ss][..]);
    }

    #[test]
    fn missing_epoch_is_a_clear_error() {
        let config = EncryptionConfig::random_iv(MetaLayout::Omap);
        let full = chain_with(&config, &[0, 1]);
        let short = chain_with(&config, &[1]);
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
        let mut chain = chain_with(&config, &[0, 1]);
        let mut rng = SeededIvSource::new(5);
        let ss = config.sector_size as usize;
        // Sector 4 encrypted under epoch 1 (below watermark 5), sector
        // 5 under epoch 0 — the mid-rekey split.
        let map = EpochMap {
            current: 1,
            pending: Some((0, 5)),
        };
        chain.set_current(1);
        let mut run = vec![0x77; 2 * ss];
        let mut metas = Vec::new();
        chain
            .encrypt_sectors(4, 0, &mut run, &mut metas, &mut rng, map)
            .unwrap();
        assert!(metas.is_empty(), "baseline stores no metadata");
        chain.decrypt_sectors(4, None, &mut run, &[], map).unwrap();
        assert_eq!(run, vec![0x77; 2 * ss]);

        // Decrypting with the wrong map (uniform new epoch) garbles the
        // not-yet-migrated sector but not the migrated one.
        let mut reencrypted = vec![0x77; 2 * ss];
        let mut metas = Vec::new();
        chain
            .encrypt_sectors(4, 0, &mut reencrypted, &mut metas, &mut rng, map)
            .unwrap();
        chain
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
        let chain = chain_with(&config, &[2]);
        let me = chain.meta_entry_len();
        let ss = config.sector_size as usize;
        let mut data = vec![0xFF; ss];
        assert_eq!(
            chain
                .decrypt_one(0, None, &mut data, &vec![0u8; me], EpochMap::uniform(2))
                .unwrap(),
            SectorState::Unwritten
        );
        assert_eq!(data, vec![0u8; ss]);
    }
}
