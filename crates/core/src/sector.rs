//! The per-sector codec: tweak construction, encryption, metadata
//! entry packing, and verified decryption.

use crate::config::{Cipher, EncryptionConfig, KEY_EPOCH_TAG_LEN};
use crate::{CryptError, Result};
use vdisk_crypto::eme2::Eme2;
use vdisk_crypto::gcm::AesGcm;
use vdisk_crypto::hmac::HmacSha256;
use vdisk_crypto::kdf::{hkdf_expand, hkdf_extract};
use vdisk_crypto::mem::{ct_eq, zeroize, SecretBytes};
use vdisk_crypto::rng::IvSource;
use vdisk_crypto::xts::XtsCipher;

/// Whether a sector had ever been written (decided from its metadata;
/// only meaningful for layouts that store metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorState {
    /// The sector carries real data.
    Written,
    /// Never written: the buffer has been zero-filled.
    Unwritten,
}

#[derive(Debug)]
enum CipherInstance {
    Xts(XtsCipher),
    Gcm(AesGcm),
    Eme2(Eme2),
}

/// Encrypts/decrypts one sector and packs/unpacks its metadata entry,
/// under the subkeys of **one key epoch** (see [`crate::luks`]): the
/// epoch is stamped into every entry it writes and asserted on every
/// entry it reads. Epoch routing lives in `KeyChain`.
pub(crate) struct SectorCodec {
    config: EncryptionConfig,
    instance: CipherInstance,
    /// The per-sector MAC subkey; `Some` exactly when the config MACs.
    mac_key: Option<SecretBytes>,
    /// The key epoch these subkeys belong to.
    epoch: u32,
}

impl std::fmt::Debug for SectorCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectorCodec")
            .field("cipher", &self.config.cipher)
            .field("epoch", &self.epoch)
            .field("mac", &self.mac_key.is_some())
            .finish()
    }
}

impl SectorCodec {
    /// Builds the codec of key epoch `epoch` from its master key.
    ///
    /// One HKDF-SHA256 extract, then one expand per subkey the config
    /// uses: the cipher's data key and, only when it MACs, the MAC key.
    /// The salt, info strings and lengths are part of the on-disk
    /// format: changing one makes every existing image unreadable.
    pub(crate) fn new(config: &EncryptionConfig, master: &SecretBytes, epoch: u32) -> Result<Self> {
        config.validate()?;
        let mut prk = hkdf_extract(b"vdisk-subkeys", master.expose());
        let expand = |info: &[u8], len| hkdf_expand(&prk, info, len);
        let instance = match config.cipher {
            Cipher::Aes256Xts => {
                XtsCipher::new(expand(b"xts-data", 64).expose()).map(CipherInstance::Xts)
            }
            Cipher::Aes256Gcm => {
                AesGcm::new(expand(b"gcm-data", 32).expose()).map(CipherInstance::Gcm)
            }
            Cipher::Eme2Aes256 => {
                Eme2::new(expand(b"eme2-data", 32).expose()).map(CipherInstance::Eme2)
            }
        };
        let mac_key = config.mac.then(|| expand(b"sector-mac", 32));
        zeroize(&mut prk);
        Ok(SectorCodec {
            config: config.clone(),
            instance: instance?,
            mac_key,
            epoch,
        })
    }

    pub(crate) fn meta_entry_len(&self) -> usize {
        self.config.meta_entry_len() as usize
    }

    /// Sector size in bytes.
    pub(crate) fn sector_size(&self) -> usize {
        self.config.sector_size as usize
    }

    /// Builds the XTS/EME2 tweak: random IV (if any) XOR LBA binding
    /// XOR snapshot binding. The LBA lives in bytes 0..8, the write
    /// sequence in bytes 8..16, so a (ciphertext, IV) pair replayed at
    /// another LBA or claimed for another epoch decrypts to noise.
    fn tweak(&self, lba: u64, iv: Option<&[u8; 16]>, seq: u64) -> [u8; 16] {
        let mut tweak = match iv {
            Some(iv) => *iv,
            None => [0u8; 16],
        };
        for (t, b) in tweak.iter_mut().zip(lba.to_le_bytes()) {
            *t ^= b;
        }
        if self.config.snapshot_binding {
            for (t, b) in tweak[8..].iter_mut().zip(seq.to_le_bytes()) {
                *t ^= b;
            }
        }
        tweak
    }

    /// Encrypts `data` (one full sector) in place; returns the
    /// metadata entry to persist (empty for the baseline).
    ///
    /// `write_seq` is the cluster snapshot sequence at write time.
    #[cfg(test)]
    pub(crate) fn encrypt(
        &self,
        lba: u64,
        write_seq: u64,
        data: &mut [u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<Vec<u8>> {
        let mut entry = Vec::with_capacity(self.meta_entry_len());
        self.encrypt_into(lba, write_seq, data, &mut entry, iv_source)?;
        Ok(entry)
    }

    /// Encrypts `data` (one full sector) in place, appending the
    /// metadata entry to persist (nothing for the baseline) onto
    /// `entry` — the allocation-free core of the codec.
    ///
    /// `write_seq` is the cluster snapshot sequence at write time.
    pub(crate) fn encrypt_into(
        &self,
        lba: u64,
        write_seq: u64,
        data: &mut [u8],
        entry: &mut Vec<u8>,
        iv_source: &mut dyn IvSource,
    ) -> Result<()> {
        debug_assert_eq!(data.len() as u32, self.config.sector_size);
        let entry_start = entry.len();
        match &self.instance {
            CipherInstance::Xts(xts) => {
                let iv = self.random_iv(iv_source);
                let tweak = self.tweak(lba, iv.as_ref(), write_seq);
                xts.encrypt_sector(&tweak, data)?;
                if let Some(iv) = iv {
                    entry.extend_from_slice(&iv);
                }
                if let Some(key) = &self.mac_key {
                    entry.extend_from_slice(&self.mac(key, lba, write_seq, iv.as_ref(), data));
                }
            }
            CipherInstance::Eme2(eme) => {
                let iv = self.random_iv(iv_source);
                let tweak = self.tweak(lba, iv.as_ref(), write_seq);
                eme.encrypt_sector(&tweak, data)?;
                if let Some(iv) = iv {
                    entry.extend_from_slice(&iv);
                }
                if let Some(key) = &self.mac_key {
                    entry.extend_from_slice(&self.mac(key, lba, write_seq, iv.as_ref(), data));
                }
            }
            CipherInstance::Gcm(gcm) => {
                let mut nonce = [0u8; 12];
                iv_source.fill(&mut nonce);
                let aad = self.gcm_aad(lba, write_seq);
                let tag = gcm.encrypt(&nonce, &aad, data);
                entry.extend_from_slice(&nonce);
                entry.extend_from_slice(&[0u8; 4]); // pad nonce to 16
                entry.extend_from_slice(&tag);
            }
        }
        if self.config.snapshot_binding {
            entry.extend_from_slice(&write_seq.to_le_bytes());
        }
        if self.config.layout.is_some() {
            // The key-epoch tag closes every stored entry, so reads
            // route the sector to the right master key during (and
            // after) an online rekey.
            entry.extend_from_slice(&self.epoch.to_le_bytes());
        }
        debug_assert_eq!(entry.len() - entry_start, self.meta_entry_len());
        Ok(())
    }

    /// Decrypts `data` in place using the persisted metadata entry.
    ///
    /// `read_seq_limit` is `Some(snap)` when reading from a snapshot:
    /// with snapshot binding enabled, entries claiming a later write
    /// sequence are replays.
    ///
    /// # Errors
    ///
    /// [`CryptError::IntegrityViolation`] on MAC/tag mismatch,
    /// [`CryptError::ReplayDetected`] on snapshot-binding violations,
    /// [`CryptError::HeaderCorrupt`] on malformed entries.
    pub(crate) fn decrypt(
        &self,
        lba: u64,
        read_seq_limit: Option<u64>,
        data: &mut [u8],
        meta: &[u8],
    ) -> Result<SectorState> {
        debug_assert_eq!(data.len() as u32, self.config.sector_size);
        let expected = self.meta_entry_len();
        let (entry, seq) = if expected == 0 {
            // Baseline: nothing stored, so no IV, no MAC and sequence
            // 0 — the arms below decrypt deterministically. Decided
            // ahead of the all-zero check, which the empty entry would
            // pass: baseline sectors are never zero-filled.
            (meta, 0)
        } else {
            if meta.len() != expected {
                return Err(CryptError::HeaderCorrupt(format!(
                    "metadata entry is {} bytes, expected {expected}",
                    meta.len()
                )));
            }
            // All-zero entry ⇔ never written (a real random IV is zero
            // with probability 2^-128).
            if meta.iter().all(|&b| b == 0) {
                data.fill(0);
                return Ok(SectorState::Unwritten);
            }

            // Strip the key-epoch tag; `KeyChain` already routed this
            // entry to the codec of its epoch.
            let (meta, tag) = meta.split_at(meta.len() - KEY_EPOCH_TAG_LEN as usize);
            debug_assert_eq!(
                u32::from_le_bytes(tag.try_into().expect("4-byte epoch tag")),
                self.epoch,
                "entry routed to the wrong epoch's codec"
            );

            if self.config.snapshot_binding {
                let (body, seq_bytes) = meta.split_at(meta.len() - 8);
                let mut b = [0u8; 8];
                b.copy_from_slice(seq_bytes);
                let seq = u64::from_le_bytes(b);
                if read_seq_limit.is_some_and(|limit| seq > limit) {
                    return Err(CryptError::ReplayDetected { lba });
                }
                (body, seq)
            } else {
                (meta, 0)
            }
        };

        match &self.instance {
            CipherInstance::Xts(xts) => {
                let (iv, rest) = self.split_iv(entry);
                if let Some(key) = &self.mac_key {
                    self.verify_mac(key, lba, seq, iv.as_ref(), data, rest)?;
                }
                let tweak = self.tweak(lba, iv.as_ref(), seq);
                xts.decrypt_sector(&tweak, data)?;
            }
            CipherInstance::Eme2(eme) => {
                let (iv, rest) = self.split_iv(entry);
                if let Some(key) = &self.mac_key {
                    self.verify_mac(key, lba, seq, iv.as_ref(), data, rest)?;
                }
                let tweak = self.tweak(lba, iv.as_ref(), seq);
                eme.decrypt_sector(&tweak, data)?;
            }
            CipherInstance::Gcm(gcm) => {
                let (Some(nonce), Some(tag)) = (entry.get(..12), entry.get(16..32)) else {
                    return Err(CryptError::HeaderCorrupt(
                        "GCM entry shorter than its nonce and tag".into(),
                    ));
                };
                let aad = self.gcm_aad(lba, seq);
                gcm.decrypt(nonce, &aad, data, tag)
                    .map_err(|_| CryptError::IntegrityViolation { lba })?;
            }
        }
        Ok(SectorState::Written)
    }

    fn random_iv(&self, iv_source: &mut dyn IvSource) -> Option<[u8; 16]> {
        if self.config.random_iv {
            Some(iv_source.next_iv16())
        } else {
            None
        }
    }

    fn split_iv<'a>(&self, entry: &'a [u8]) -> (Option<[u8; 16]>, &'a [u8]) {
        if self.config.random_iv {
            let mut iv = [0u8; 16];
            iv.copy_from_slice(&entry[..16]);
            (Some(iv), &entry[16..])
        } else {
            (None, entry)
        }
    }

    fn mac(
        &self,
        key: &SecretBytes,
        lba: u64,
        seq: u64,
        iv: Option<&[u8; 16]>,
        ciphertext: &[u8],
    ) -> [u8; 16] {
        let mut mac = HmacSha256::new(key.expose());
        mac.update(ciphertext);
        mac.update(&lba.to_le_bytes());
        if self.config.snapshot_binding {
            mac.update(&seq.to_le_bytes());
        }
        if let Some(iv) = iv {
            mac.update(iv);
        }
        let full = mac.finalize();
        let mut out = [0u8; 16];
        out.copy_from_slice(&full[..16]);
        out
    }

    fn verify_mac(
        &self,
        key: &SecretBytes,
        lba: u64,
        seq: u64,
        iv: Option<&[u8; 16]>,
        ciphertext: &[u8],
        stored: &[u8],
    ) -> Result<()> {
        let expected = self.mac(key, lba, seq, iv, ciphertext);
        if !ct_eq(&expected, stored) {
            return Err(CryptError::IntegrityViolation { lba });
        }
        Ok(())
    }

    fn gcm_aad(&self, lba: u64, seq: u64) -> Vec<u8> {
        let mut aad = lba.to_le_bytes().to_vec();
        if self.config.snapshot_binding {
            aad.extend_from_slice(&seq.to_le_bytes());
        }
        aad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaLayout;
    use vdisk_crypto::rng::SeededIvSource;

    fn codec(config: EncryptionConfig) -> SectorCodec {
        let master = SecretBytes::from(vec![0x5A; 64]);
        SectorCodec::new(&config, &master, 0).unwrap()
    }

    fn sector(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn baseline_round_trip_no_meta() {
        let c = codec(EncryptionConfig::luks2_baseline());
        let mut rng = SeededIvSource::new(1);
        let mut data = sector(7);
        let entry = c.encrypt(42, 0, &mut data, &mut rng).unwrap();
        assert!(entry.is_empty());
        assert_ne!(data, sector(7));
        assert_eq!(
            c.decrypt(42, None, &mut data, &[]).unwrap(),
            SectorState::Written
        );
        assert_eq!(data, sector(7));
    }

    #[test]
    fn baseline_is_deterministic_random_iv_is_not() {
        let base = codec(EncryptionConfig::luks2_baseline());
        let mut rng = SeededIvSource::new(2);
        let mut a = sector(9);
        let mut b = sector(9);
        base.encrypt(5, 0, &mut a, &mut rng).unwrap();
        base.encrypt(5, 0, &mut b, &mut rng).unwrap();
        assert_eq!(a, b, "LUKS2 baseline: same LBA+data ⇒ same ciphertext");

        let rand = codec(EncryptionConfig::random_iv(MetaLayout::ObjectEnd));
        let mut a = sector(9);
        let mut b = sector(9);
        rand.encrypt(5, 0, &mut a, &mut rng).unwrap();
        rand.encrypt(5, 0, &mut b, &mut rng).unwrap();
        assert_ne!(a, b, "random IV: overwrite leak is gone");
    }

    #[test]
    fn random_iv_round_trip() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::Omap));
        let mut rng = SeededIvSource::new(3);
        let mut data = sector(0xAB);
        let entry = c.encrypt(100, 0, &mut data, &mut rng).unwrap();
        assert_eq!(entry.len(), 16 + KEY_EPOCH_TAG_LEN as usize);
        assert_eq!(
            c.decrypt(100, None, &mut data, &entry).unwrap(),
            SectorState::Written
        );
        assert_eq!(data, sector(0xAB));
    }

    #[test]
    fn lba_binding_blocks_cross_lba_replay() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::ObjectEnd));
        let mut rng = SeededIvSource::new(4);
        let mut data = sector(0x11);
        let entry = c.encrypt(7, 0, &mut data, &mut rng).unwrap();
        // Replay ciphertext+IV at another LBA: decrypts to garbage,
        // not the original plaintext.
        let mut replayed = data.clone();
        c.decrypt(8, None, &mut replayed, &entry).unwrap();
        assert_ne!(replayed, sector(0x11));
        // Honest read still works.
        c.decrypt(7, None, &mut data, &entry).unwrap();
        assert_eq!(data, sector(0x11));
    }

    #[test]
    fn all_zero_meta_means_unwritten() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::ObjectEnd));
        let mut data = sector(0xFF); // garbage from disk
        let state = c.decrypt(0, None, &mut data, &[0u8; 20]).unwrap();
        assert_eq!(state, SectorState::Unwritten);
        assert_eq!(data, sector(0), "buffer zeroed for unwritten sector");
    }

    #[test]
    fn mac_detects_tampering() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac());
        let mut rng = SeededIvSource::new(5);
        let mut data = sector(0x22);
        let entry = c.encrypt(3, 0, &mut data, &mut rng).unwrap();
        assert_eq!(entry.len(), 32 + KEY_EPOCH_TAG_LEN as usize);
        data[100] ^= 1;
        assert!(matches!(
            c.decrypt(3, None, &mut data, &entry),
            Err(CryptError::IntegrityViolation { lba: 3 })
        ));
    }

    #[test]
    fn mac_detects_meta_tampering() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::Omap).with_mac());
        let mut rng = SeededIvSource::new(6);
        let mut data = sector(0x33);
        let mut entry = c.encrypt(3, 0, &mut data, &mut rng).unwrap();
        entry[0] ^= 0x80; // corrupt the IV
        assert!(c.decrypt(3, None, &mut data, &entry).is_err());
    }

    #[test]
    fn gcm_round_trip_and_tamper() {
        let cfg = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_cipher(Cipher::Aes256Gcm);
        let c = codec(cfg);
        let mut rng = SeededIvSource::new(7);
        let mut data = sector(0x44);
        let entry = c.encrypt(9, 0, &mut data, &mut rng).unwrap();
        assert_eq!(entry.len(), 32 + KEY_EPOCH_TAG_LEN as usize);
        let mut ok = data.clone();
        assert_eq!(
            c.decrypt(9, None, &mut ok, &entry).unwrap(),
            SectorState::Written
        );
        assert_eq!(ok, sector(0x44));
        // Tamper: tag failure.
        data[0] ^= 1;
        assert!(matches!(
            c.decrypt(9, None, &mut data, &entry),
            Err(CryptError::IntegrityViolation { lba: 9 })
        ));
    }

    #[test]
    fn gcm_lba_binding_via_aad() {
        let cfg = EncryptionConfig::random_iv(MetaLayout::Omap).with_cipher(Cipher::Aes256Gcm);
        let c = codec(cfg);
        let mut rng = SeededIvSource::new(8);
        let mut data = sector(0x55);
        let entry = c.encrypt(1, 0, &mut data, &mut rng).unwrap();
        assert!(c.decrypt(2, None, &mut data, &entry).is_err(), "wrong LBA");
    }

    #[test]
    fn snapshot_binding_rejects_future_writes() {
        let cfg = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_snapshot_binding();
        let c = codec(cfg);
        let mut rng = SeededIvSource::new(9);
        let mut data = sector(0x66);
        // Written at snapshot epoch 5.
        let entry = c.encrypt(4, 5, &mut data, &mut rng).unwrap();
        assert_eq!(entry.len(), 24 + KEY_EPOCH_TAG_LEN as usize);
        // Reading snapshot 3 must reject data written at epoch 5.
        assert!(matches!(
            c.decrypt(4, Some(3), &mut data.clone(), &entry),
            Err(CryptError::ReplayDetected { lba: 4 })
        ));
        // Reading snapshot 5 or the head accepts it.
        let mut ok = data.clone();
        c.decrypt(4, Some(5), &mut ok, &entry).unwrap();
        assert_eq!(ok, sector(0x66));
        let mut ok = data;
        c.decrypt(4, None, &mut ok, &entry).unwrap();
        assert_eq!(ok, sector(0x66));
    }

    #[test]
    fn eme2_wide_block_round_trip() {
        let cfg =
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_cipher(Cipher::Eme2Aes256);
        let c = codec(cfg);
        let mut rng = SeededIvSource::new(10);
        let mut data = sector(0x77);
        let entry = c.encrypt(11, 0, &mut data, &mut rng).unwrap();
        c.decrypt(11, None, &mut data, &entry).unwrap();
        assert_eq!(data, sector(0x77));
    }

    /// The subkey `SectorCodec::new` must derive for `info`: computed
    /// here independently, so a change to the derivation shows.
    fn subkey(master: &SecretBytes, info: &[u8], len: usize) -> SecretBytes {
        hkdf_expand(&hkdf_extract(b"vdisk-subkeys", master.expose()), info, len)
    }

    #[test]
    fn subkeys_are_deterministic_and_distinct() {
        let master = SecretBytes::from(vec![0x42; 64]);
        let cfg = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac();
        let a = SectorCodec::new(&cfg, &master, 0).unwrap();
        let b = SectorCodec::new(&cfg, &master, 0).unwrap();
        let (mut x, mut y) = (sector(0x99), sector(0x99));
        let ex = a
            .encrypt(6, 0, &mut x, &mut SeededIvSource::new(12))
            .unwrap();
        let ey = b
            .encrypt(6, 0, &mut y, &mut SeededIvSource::new(12))
            .unwrap();
        assert_eq!((&x, &ex), (&y, &ey), "same master key, same ciphertext");

        // The codec encrypts under the `xts-data` subkey and MACs
        // under `sector-mac`, which differs from every data key.
        let data_key = subkey(&master, b"xts-data", 64);
        let tweak = a.tweak(6, Some(ex[..16].try_into().unwrap()), 0);
        let mut expected = sector(0x99);
        XtsCipher::new(data_key.expose())
            .unwrap()
            .encrypt_sector(&tweak, &mut expected)
            .unwrap();
        assert_eq!(x, expected);
        let mac_key = a.mac_key.as_ref().expect("a MACing config holds its key");
        assert_eq!(
            mac_key.expose(),
            subkey(&master, b"sector-mac", 32).expose()
        );
        for cipher_key in [
            data_key,
            subkey(&master, b"gcm-data", 32),
            subkey(&master, b"eme2-data", 32),
        ] {
            assert!(cipher_key
                .expose()
                .chunks(32)
                .all(|k| k != mac_key.expose()));
        }
    }

    #[test]
    fn a_config_without_mac_holds_no_mac_key() {
        for cfg in [
            EncryptionConfig::luks2_baseline(),
            EncryptionConfig::random_iv(MetaLayout::Omap),
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_cipher(Cipher::Aes256Gcm),
            EncryptionConfig::luks2_baseline().with_cipher(Cipher::Eme2Aes256),
        ] {
            assert!(codec(cfg).mac_key.is_none());
        }
        let macced = codec(EncryptionConfig::random_iv(MetaLayout::Unaligned).with_mac());
        assert_eq!(macced.mac_key.map(|k| k.len()), Some(32));
    }

    #[test]
    fn wrong_meta_length_rejected() {
        let c = codec(EncryptionConfig::random_iv(MetaLayout::ObjectEnd));
        let mut data = sector(1);
        assert!(matches!(
            c.decrypt(0, None, &mut data, &[0u8; 15]),
            Err(CryptError::HeaderCorrupt(_))
        ));
    }
}
