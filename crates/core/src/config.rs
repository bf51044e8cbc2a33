//! Encryption configuration: ciphers, IV schemes and metadata layouts.

use crate::{CryptError, Result};

/// Bytes of the key-epoch tag appended to every persisted metadata
/// entry (little-endian `u32`). The tag names the key epoch a sector
/// was encrypted under, so reads select the right master key while an
/// online rekey is migrating the image — and after it completes,
/// snapshot reads still reach retired epochs. The baseline layout
/// stores no metadata at all; it tracks epochs with the rekey
/// watermark instead (see `EncryptedImage::rekey_begin`).
pub const KEY_EPOCH_TAG_LEN: u32 = 4;

/// Where per-sector metadata lives — the paper's three alternatives
/// (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaLayout {
    /// Each IV is stored immediately after its sector (Fig. 2a). Data
    /// becomes unaligned to physical sectors; cheap to address, costly
    /// to write (read-modify-write).
    Unaligned,
    /// All IVs of an object are batched after the data region, at the
    /// object end (Fig. 2b). Keeps data aligned; the paper's winner.
    ObjectEnd,
    /// IVs live in the per-object key-value database (OMAP / RocksDB,
    /// Fig. 2c). Wins at 4 KB, collapses at large IO sizes.
    Omap,
}

impl MetaLayout {
    /// All three layouts, in the paper's presentation order.
    pub const ALL: [MetaLayout; 3] = [
        MetaLayout::Unaligned,
        MetaLayout::ObjectEnd,
        MetaLayout::Omap,
    ];

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetaLayout::Unaligned => "Unaligned",
            MetaLayout::ObjectEnd => "Object end",
            MetaLayout::Omap => "OMAP",
        }
    }

    pub(crate) fn to_wire(self) -> u8 {
        match self {
            MetaLayout::Unaligned => 1,
            MetaLayout::ObjectEnd => 2,
            MetaLayout::Omap => 3,
        }
    }

    pub(crate) fn from_wire(b: u8) -> Option<Option<MetaLayout>> {
        match b {
            0 => Some(None),
            1 => Some(Some(MetaLayout::Unaligned)),
            2 => Some(Some(MetaLayout::ObjectEnd)),
            3 => Some(Some(MetaLayout::Omap)),
            _ => None,
        }
    }
}

impl std::fmt::Display for MetaLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The sector cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cipher {
    /// AES-256-XTS (two 256-bit keys) — the LUKS2 default.
    #[default]
    Aes256Xts,
    /// AES-256-GCM: authenticated encryption. Requires a metadata
    /// layout with a random IV (nonce reuse breaks GCM, §2.1).
    Aes256Gcm,
    /// EME2-style wide-block AES-256 (§2.2's mitigation).
    Eme2Aes256,
}

impl Cipher {
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            Cipher::Aes256Xts => 2,
            Cipher::Aes256Gcm => 3,
            Cipher::Eme2Aes256 => 4,
        }
    }

    pub(crate) fn from_wire(b: u8) -> Option<Cipher> {
        match b {
            2 => Some(Cipher::Aes256Xts),
            3 => Some(Cipher::Aes256Gcm),
            4 => Some(Cipher::Eme2Aes256),
            _ => None,
        }
    }

    /// Human-readable name (LUKS-style spec string).
    #[must_use]
    pub fn spec(self) -> &'static str {
        match self {
            Cipher::Aes256Xts => "aes-xts-plain64-256",
            Cipher::Aes256Gcm => "aes-gcm-random-256",
            Cipher::Eme2Aes256 => "aes-eme2-256",
        }
    }
}

/// Complete encryption configuration of an image.
///
/// Use the constructors; then [`EncryptionConfig::validate`] enforces
/// the cross-field rules (GCM needs metadata with random IVs, integrity
/// needs metadata space, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptionConfig {
    /// Sector cipher.
    pub cipher: Cipher,
    /// Metadata placement; `None` = length-preserving baseline (LUKS2).
    pub layout: Option<MetaLayout>,
    /// Fresh random IV per sector write (the paper's proposal). When
    /// false with a layout present, the LBA tweak is still used and the
    /// metadata region carries only MACs.
    pub random_iv: bool,
    /// Append a truncated HMAC-SHA256 per sector (§2.2's
    /// authentication option).
    pub mac: bool,
    /// Bind each sector's write-time snapshot sequence into the tweak
    /// and store it, blocking cross-snapshot replay (footnote 3).
    pub snapshot_binding: bool,
    /// Encryption sector size. The paper evaluates 4096 (LUKS2);
    /// 512 reproduces the LUKS1 comparison (footnote 4).
    pub sector_size: u32,
}

impl Default for EncryptionConfig {
    fn default() -> Self {
        EncryptionConfig::luks2_baseline()
    }
}

impl EncryptionConfig {
    /// The paper's baseline: AES-256-XTS, LBA-derived deterministic
    /// IVs, no stored metadata (Ceph RBD's LUKS2 encryption).
    #[must_use]
    pub fn luks2_baseline() -> Self {
        EncryptionConfig {
            cipher: Cipher::Aes256Xts,
            layout: None,
            random_iv: false,
            mac: false,
            snapshot_binding: false,
            sector_size: 4096,
        }
    }

    /// The paper's proposal: AES-256-XTS with a fresh random IV
    /// persisted in the given layout.
    #[must_use]
    pub fn random_iv(layout: MetaLayout) -> Self {
        EncryptionConfig {
            cipher: Cipher::Aes256Xts,
            layout: Some(layout),
            random_iv: true,
            mac: false,
            snapshot_binding: false,
            sector_size: 4096,
        }
    }

    /// Shorthand for the paper's best-performing variant.
    #[must_use]
    pub fn random_iv_object_end() -> Self {
        Self::random_iv(MetaLayout::ObjectEnd)
    }

    /// Adds the per-sector MAC extension.
    #[must_use]
    pub fn with_mac(mut self) -> Self {
        self.mac = true;
        self
    }

    /// Adds the snapshot-binding extension (footnote 3).
    #[must_use]
    pub fn with_snapshot_binding(mut self) -> Self {
        self.snapshot_binding = true;
        self
    }

    /// Selects a different cipher.
    #[must_use]
    pub fn with_cipher(mut self, cipher: Cipher) -> Self {
        self.cipher = cipher;
        self
    }

    /// Selects a sector size (512 or 4096).
    #[must_use]
    pub fn with_sector_size(mut self, sector_size: u32) -> Self {
        self.sector_size = sector_size;
        self
    }

    /// Bytes of metadata stored per sector. Every layout entry ends
    /// with the 4-byte key-epoch tag ([`KEY_EPOCH_TAG_LEN`]) naming
    /// the master-key epoch the sector was encrypted under.
    ///
    /// - XTS/EME2 random IV: 16 (+16 with MAC, +8 with snapshot
    ///   binding) + 4;
    /// - GCM: 12-byte nonce + 16-byte tag, padded to 32 (+8 binding)
    ///   + 4;
    /// - deterministic IV with MAC: 16 (+8 binding) + 4;
    /// - baseline: 0 (epochs tracked by the rekey watermark instead).
    #[must_use]
    pub fn meta_entry_len(&self) -> u32 {
        if self.layout.is_none() {
            return 0;
        }
        let mut len = 0;
        match self.cipher {
            Cipher::Aes256Gcm => len += 32,
            _ => {
                if self.random_iv {
                    len += 16;
                }
                if self.mac {
                    len += 16;
                }
            }
        }
        if self.snapshot_binding {
            len += 8;
        }
        len + KEY_EPOCH_TAG_LEN
    }

    /// Checks cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::UnsupportedConfig`] describing the first
    /// violated rule.
    pub fn validate(&self) -> Result<()> {
        if self.sector_size != 512 && self.sector_size != 4096 {
            return Err(CryptError::UnsupportedConfig(format!(
                "sector size {} (only 512 and 4096 are supported)",
                self.sector_size
            )));
        }
        if self.cipher == Cipher::Aes256Gcm {
            if self.layout.is_none() || !self.random_iv {
                return Err(CryptError::UnsupportedConfig(
                    "AES-GCM requires a metadata layout with random IVs \
                     (nonce reuse is catastrophic, §2.1)"
                        .into(),
                ));
            }
            if self.mac {
                return Err(CryptError::UnsupportedConfig(
                    "AES-GCM already authenticates; drop the extra MAC".into(),
                ));
            }
        }
        if self.random_iv && self.layout.is_none() {
            return Err(CryptError::UnsupportedConfig(
                "a random IV must be persisted: pick a metadata layout".into(),
            ));
        }
        if self.mac && self.layout.is_none() {
            return Err(CryptError::UnsupportedConfig(
                "a MAC needs metadata space: pick a metadata layout".into(),
            ));
        }
        if self.snapshot_binding && self.layout.is_none() {
            return Err(CryptError::UnsupportedConfig(
                "snapshot binding needs metadata space: pick a layout".into(),
            ));
        }
        if self.layout.is_some() && self.meta_entry_len() == KEY_EPOCH_TAG_LEN {
            return Err(CryptError::UnsupportedConfig(
                "a metadata layout without anything to store; enable \
                 random_iv and/or mac, or drop the layout"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Display label matching the paper's figure legends.
    #[must_use]
    pub fn label(&self) -> String {
        match self.layout {
            None => "LUKS2".to_string(),
            Some(layout) => layout.label().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_metadata() {
        let c = EncryptionConfig::luks2_baseline();
        c.validate().unwrap();
        assert_eq!(c.meta_entry_len(), 0);
        assert_eq!(c.label(), "LUKS2");
    }

    #[test]
    fn random_iv_variants_validate() {
        for layout in MetaLayout::ALL {
            let c = EncryptionConfig::random_iv(layout);
            c.validate().unwrap();
            assert_eq!(c.meta_entry_len(), 16 + KEY_EPOCH_TAG_LEN);
            assert_eq!(c.label(), layout.label());
        }
    }

    #[test]
    fn mac_and_binding_extend_the_entry() {
        let c = EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_mac();
        c.validate().unwrap();
        assert_eq!(c.meta_entry_len(), 32 + KEY_EPOCH_TAG_LEN);
        let c = c.with_snapshot_binding();
        c.validate().unwrap();
        assert_eq!(c.meta_entry_len(), 40 + KEY_EPOCH_TAG_LEN);
    }

    #[test]
    fn gcm_entry_is_32_bytes_plus_epoch_tag() {
        let c = EncryptionConfig::random_iv(MetaLayout::Omap).with_cipher(Cipher::Aes256Gcm);
        c.validate().unwrap();
        assert_eq!(c.meta_entry_len(), 32 + KEY_EPOCH_TAG_LEN);
    }

    #[test]
    fn gcm_without_metadata_rejected() {
        let c = EncryptionConfig::luks2_baseline().with_cipher(Cipher::Aes256Gcm);
        assert!(matches!(
            c.validate(),
            Err(CryptError::UnsupportedConfig(_))
        ));
    }

    #[test]
    fn random_iv_without_layout_rejected() {
        let mut c = EncryptionConfig::luks2_baseline();
        c.random_iv = true;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mac_only_layout_is_legal() {
        // Deterministic IV + MAC: authentication without random IVs,
        // the "authentication alone" option of §2.2.
        let mut c = EncryptionConfig::luks2_baseline();
        c.layout = Some(MetaLayout::ObjectEnd);
        c.mac = true;
        c.validate().unwrap();
        assert_eq!(c.meta_entry_len(), 16 + KEY_EPOCH_TAG_LEN);
    }

    #[test]
    fn empty_layout_rejected() {
        let mut c = EncryptionConfig::luks2_baseline();
        c.layout = Some(MetaLayout::Omap);
        assert!(c.validate().is_err(), "layout with nothing to store");
    }

    #[test]
    fn bad_sector_size_rejected() {
        let c = EncryptionConfig::luks2_baseline().with_sector_size(1024);
        assert!(c.validate().is_err());
        EncryptionConfig::luks2_baseline()
            .with_sector_size(512)
            .validate()
            .unwrap();
    }

    #[test]
    fn wire_round_trips() {
        for cipher in [Cipher::Aes256Xts, Cipher::Aes256Gcm, Cipher::Eme2Aes256] {
            assert_eq!(Cipher::from_wire(cipher.to_wire()), Some(cipher));
        }
        for retired in [0, 1, 5] {
            assert_eq!(Cipher::from_wire(retired), None);
        }
        for layout in MetaLayout::ALL {
            assert_eq!(MetaLayout::from_wire(layout.to_wire()), Some(Some(layout)));
        }
        assert_eq!(MetaLayout::from_wire(0), Some(None));
        assert_eq!(MetaLayout::from_wire(9), None);
    }
}
