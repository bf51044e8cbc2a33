//! AES-XTS (IEEE 1619 / NIST SP 800-38E): the narrow-block tweakable
//! mode that virtually all disk encryption uses today, including
//! ciphertext stealing for sector sizes that are not multiples of 16.
//!
//! XTS is exactly the mode whose security compromise motivates the
//! paper: it is deterministic given (key, tweak), and it is
//! *narrow-block* — a change confined to one 16-byte sub-block of the
//! plaintext changes only the corresponding sub-block of the
//! ciphertext (see [`XtsCipher::encrypt_sector`] and the sub-block
//! locality tests below, which demonstrate the leak of §2.1).

use crate::aes::{Aes, WIDE_BLOCKS};
use crate::gf128::xts_double;
use crate::{CryptoError, Result};

/// An XTS cipher instance: two independent AES keys (K1 for data,
/// K2 for the tweak).
///
/// # Example
///
/// ```
/// use vdisk_crypto::xts::XtsCipher;
/// # fn main() -> Result<(), vdisk_crypto::CryptoError> {
/// // AES-128-XTS (32-byte key) or AES-256-XTS (64-byte key).
/// let xts = XtsCipher::new(&[0u8; 32])?;
/// let mut sector = vec![7u8; 512];
/// xts.encrypt_sector(&XtsCipher::tweak_from_sector_number(42), &mut sector)?;
/// # Ok(())
/// # }
/// ```
pub struct XtsCipher {
    data_cipher: Aes,
    tweak_cipher: Aes,
}

impl std::fmt::Debug for XtsCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key size only; `Aes` prints no key material.
        f.debug_tuple("XtsCipher").field(&self.data_cipher).finish()
    }
}

impl XtsCipher {
    /// Creates an XTS instance from a combined key: 32 bytes for
    /// AES-128-XTS or 64 bytes for AES-256-XTS (K1 || K2).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self> {
        Self::with_aes(key, Aes::new)
    }

    /// [`XtsCipher::new`] with both halves keyed by `aes`, so the
    /// tests can pin a backend.
    fn with_aes(key: &[u8], aes: fn(&[u8]) -> Result<Aes>) -> Result<Self> {
        if key.len() != 32 && key.len() != 64 {
            return Err(CryptoError::InvalidKeyLength { got: key.len() });
        }
        let half = key.len() / 2;
        Ok(XtsCipher {
            data_cipher: aes(&key[..half])?,
            tweak_cipher: aes(&key[half..])?,
        })
    }

    /// Builds the canonical LBA-derived tweak: the 64-bit sector number
    /// in little-endian, zero-padded to 16 bytes (the LUKS2 / dm-crypt
    /// "plain64" convention).
    #[must_use]
    pub fn tweak_from_sector_number(sector: u64) -> [u8; 16] {
        let mut tweak = [0u8; 16];
        tweak[..8].copy_from_slice(&sector.to_le_bytes());
        tweak
    }

    /// Encrypts one sector in place under the given 16-byte tweak.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] if the sector is
    /// shorter than one cipher block (16 bytes). Lengths that are not a
    /// multiple of 16 are handled with ciphertext stealing.
    pub fn encrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        self.process_sector::<false>(tweak, data)
    }

    /// Decrypts one sector in place under the given 16-byte tweak.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] if the sector is
    /// shorter than one cipher block.
    pub fn decrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        self.process_sector::<true>(tweak, data)
    }

    fn process_sector<const DECRYPT: bool>(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        if data.len() < 16 {
            return Err(CryptoError::InvalidDataLength { got: data.len() });
        }
        // T_0 = AES_enc(K2, tweak); T_{j+1} = T_j * alpha.
        let mut t = u128::from_le_bytes(self.tweak_cipher.encrypt_block_copy(tweak));

        // A partial last block takes the full block before it into the
        // stealing step; everything ahead of that is independent blocks.
        let tail = data.len() % 16;
        let stolen = if tail == 0 { 0 } else { 16 + tail };
        let (body, steal) = data.split_at_mut(data.len() - stolen);

        let mut tweaks = [0u128; WIDE_BLOCKS];
        for pass in body.chunks_mut(16 * WIDE_BLOCKS) {
            for slot in &mut tweaks[..pass.len() / 16] {
                *slot = t;
                t = xts_double(t);
            }
            self.data_cipher
                .crypt_blocks::<DECRYPT>(pass, |i| tweaks[i]);
        }
        if tail == 0 {
            return Ok(());
        }

        // Ciphertext stealing. Encrypting: CC = Enc(T_{m-1}, P_{m-1});
        // C_m = the first `tail` bytes of CC, and the last full block
        // is Enc(T_m, P_m || rest of CC). Decrypting is the same walk
        // with the two tweaks exchanged.
        let t_next = xts_double(t);
        let (t_first, t_second) = if DECRYPT { (t_next, t) } else { (t, t_next) };
        let (full, partial) = steal.split_at_mut(16);
        self.data_cipher.crypt_blocks::<DECRYPT>(full, |_| t_first);
        for (f, p) in full.iter_mut().zip(partial) {
            std::mem::swap(f, p);
        }
        self.data_cipher.crypt_blocks::<DECRYPT>(full, |_| t_second);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{BACKENDS, DIFFERENTIAL_CASES};
    use crate::mem::{from_hex, to_hex};
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    /// IEEE 1619 Vector 1: all-zero keys, zero tweak, 32 zero bytes.
    #[test]
    fn ieee1619_vector_1() {
        for (name, aes) in BACKENDS {
            let xts = XtsCipher::with_aes(&[0u8; 32], aes).unwrap();
            let tweak = [0u8; 16];
            let mut data = vec![0u8; 32];
            xts.encrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(
                to_hex(&data),
                "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
                "{name}"
            );
            xts.decrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(data, vec![0u8; 32], "{name}");
        }
    }

    /// IEEE 1619 Vector 2: repeated 0x11/0x22 keys, tweak 0x33...,
    /// 32 bytes of 0x44.
    #[test]
    fn ieee1619_vector_2() {
        let mut key = Vec::new();
        key.extend_from_slice(&[0x11u8; 16]);
        key.extend_from_slice(&[0x22u8; 16]);
        let mut tweak = [0u8; 16];
        tweak[..8].copy_from_slice(&0x3333333333u64.to_le_bytes());
        for (name, aes) in BACKENDS {
            let xts = XtsCipher::with_aes(&key, aes).unwrap();
            let mut data = vec![0x44u8; 32];
            xts.encrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(
                to_hex(&data),
                "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
                "{name}"
            );
            xts.decrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(data, vec![0x44u8; 32], "{name}");
        }
    }

    #[test]
    fn rejects_invalid_keys_and_lengths() {
        assert!(XtsCipher::new(&[0u8; 16]).is_err());
        assert!(XtsCipher::new(&[0u8; 48]).is_err());
        let xts = XtsCipher::new(&[0u8; 64]).unwrap();
        let mut short = [0u8; 15];
        assert_eq!(
            xts.encrypt_sector(&[0u8; 16], &mut short).unwrap_err(),
            CryptoError::InvalidDataLength { got: 15 }
        );
    }

    #[test]
    fn round_trip_all_tail_lengths() {
        let xts = XtsCipher::new(&[5u8; 64]).unwrap();
        let tweak = XtsCipher::tweak_from_sector_number(99);
        for len in 16..=80 {
            let mut data: Vec<u8> = (0..len as u8).collect();
            let orig = data.clone();
            xts.encrypt_sector(&tweak, &mut data).unwrap();
            assert_ne!(data, orig, "len {len} unchanged by encryption");
            xts.decrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(data, orig, "len {len} failed round trip");
        }
    }

    /// Demonstrates the paper's §2.1 point: XTS is *narrow-block*.
    /// Changing one sub-block of plaintext changes exactly that
    /// sub-block of ciphertext, so an adversary can locate overwrites
    /// at 16-byte granularity.
    #[test]
    fn narrow_block_locality_leak() {
        let xts = XtsCipher::new(&[1u8; 64]).unwrap();
        let tweak = XtsCipher::tweak_from_sector_number(7);
        let mut a = vec![0xAAu8; 4096];
        let mut b = a.clone();
        // Flip one bit inside sub-block 100.
        b[100 * 16 + 3] ^= 0x01;
        xts.encrypt_sector(&tweak, &mut a).unwrap();
        xts.encrypt_sector(&tweak, &mut b).unwrap();
        for block in 0..256 {
            let ca = &a[block * 16..block * 16 + 16];
            let cb = &b[block * 16..block * 16 + 16];
            if block == 100 {
                assert_ne!(ca, cb, "modified sub-block must differ");
            } else {
                assert_eq!(ca, cb, "untouched sub-block {block} leaked a change");
            }
        }
    }

    /// Mix-and-match attack from §2.1: sub-blocks from two ciphertexts
    /// written under the same tweak can be spliced into a ciphertext
    /// that decrypts cleanly to a plaintext that was never written.
    #[test]
    fn mix_and_match_splice_decrypts_cleanly() {
        let xts = XtsCipher::new(&[9u8; 64]).unwrap();
        let tweak = XtsCipher::tweak_from_sector_number(1234);
        let mut v1 = vec![0x11u8; 4096];
        let mut v2 = vec![0x22u8; 4096];
        xts.encrypt_sector(&tweak, &mut v1).unwrap();
        xts.encrypt_sector(&tweak, &mut v2).unwrap();
        // Adversary splices: first half from v1, second half from v2.
        let mut franken: Vec<u8> = Vec::new();
        franken.extend_from_slice(&v1[..2048]);
        franken.extend_from_slice(&v2[2048..]);
        xts.decrypt_sector(&tweak, &mut franken).unwrap();
        // The spliced ciphertext decrypts to a valid-looking plaintext
        // combining both versions — undetectable without a MAC.
        assert_eq!(&franken[..2048], &vec![0x11u8; 2048][..]);
        assert_eq!(&franken[2048..], &vec![0x22u8; 2048][..]);
    }

    /// Different tweaks produce unrelated ciphertexts for equal data.
    #[test]
    fn tweak_separates_sectors() {
        let xts = XtsCipher::new(&[2u8; 32]).unwrap();
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        xts.encrypt_sector(&XtsCipher::tweak_from_sector_number(0), &mut a)
            .unwrap();
        xts.encrypt_sector(&XtsCipher::tweak_from_sector_number(1), &mut b)
            .unwrap();
        assert_ne!(a, b);
    }

    /// Determinism: same key, tweak and plaintext — identical
    /// ciphertext. This is the overwrite leak that random IVs remove.
    #[test]
    fn deterministic_under_fixed_tweak() {
        let xts = XtsCipher::new(&[3u8; 64]).unwrap();
        let tweak = XtsCipher::tweak_from_sector_number(55);
        let mut a = vec![0x77u8; 4096];
        let mut b = vec![0x77u8; 4096];
        xts.encrypt_sector(&tweak, &mut a).unwrap();
        xts.encrypt_sector(&tweak, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tweak_helper_is_little_endian() {
        let t = XtsCipher::tweak_from_sector_number(0x0102030405060708);
        assert_eq!(&t[..8], &[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(&t[8..], &[0; 8]);
        let _ = from_hex("00"); // keep helper linked in this module
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES))]

        /// Whole sectors on both backends against the byte-wise
        /// reference: every stealing-tail length around the first
        /// blocks, one 512-byte and one 4 KiB sector, and a 4 KiB
        /// sector with a stolen tail.
        #[test]
        fn both_backends_match_reference_xts(
            key in any::<[u8; 64]>(),
            aes256 in any::<bool>(),
            tweak in any::<[u8; 16]>(),
            seed in any::<u64>(),
            tail in 1usize..16,
        ) {
            let key = &key[..if aes256 { 64 } else { 32 }];
            let theirs = crate::reference::XtsCipher::new(key);
            let backends = BACKENDS.map(|(name, aes)| (name, XtsCipher::with_aes(key, aes).unwrap()));
            for len in (16..=80).chain([512, 4096, 4096 + tail]) {
                let mut data = vec![0u8; len];
                SeededRng::new(seed ^ len as u64).fill_bytes(&mut data);
                let (mut encrypted, mut decrypted) = (data.clone(), data.clone());
                theirs.encrypt_sector(&tweak, &mut encrypted);
                theirs.decrypt_sector(&tweak, &mut decrypted);
                for (name, ours) in &backends {
                    let mut got = data.clone();
                    ours.encrypt_sector(&tweak, &mut got).unwrap();
                    prop_assert_eq!(&got, &encrypted, "{} encrypt, {} bytes", name, len);
                    let mut got = data.clone();
                    ours.decrypt_sector(&tweak, &mut got).unwrap();
                    prop_assert_eq!(&got, &decrypted, "{} decrypt, {} bytes", name, len);
                }
            }
        }
    }
}
