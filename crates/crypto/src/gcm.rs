//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! The paper (§3.1) notes that once per-sector metadata exists, an
//! *authenticated* cipher such as AES-GCM becomes usable for disk
//! encryption — but **only** with a true nonce, because GCM fails
//! catastrophically under nonce reuse (§2.1). The random persisted IV
//! this repository implements is exactly such a nonce.

use crate::aes::Aes;
use crate::ctr::{ctr_xor, increment_counter};
use crate::gf128::ghash_mul;
use crate::mem::{ct_eq, zeroize};
use crate::{CryptoError, Result};

/// GCM tag length in bytes (full 128-bit tags only).
pub const TAG_LEN: usize = 16;
/// The recommended nonce length (96 bits).
pub const NONCE_LEN: usize = 12;

/// An AES-GCM instance.
///
/// # Example
///
/// ```
/// use vdisk_crypto::gcm::AesGcm;
/// # fn main() -> Result<(), vdisk_crypto::CryptoError> {
/// let gcm = AesGcm::new(&[0u8; 32])?;
/// let nonce = [1u8; 12];
/// let mut sector = vec![9u8; 4096];
/// let tag = gcm.encrypt(&nonce, b"lba=77", &mut sector);
/// gcm.decrypt(&nonce, b"lba=77", &mut sector, &tag)?;
/// assert_eq!(sector, vec![9u8; 4096]);
/// # Ok(())
/// # }
/// ```
pub struct AesGcm {
    aes: Aes,
    h: [u8; 16],
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key size only; `Aes` prints no key material.
        f.debug_tuple("AesGcm").field(&self.aes).finish()
    }
}

impl Drop for AesGcm {
    fn drop(&mut self) {
        zeroize(&mut self.h);
    }
}

impl AesGcm {
    /// Creates a GCM instance from a 16- or 32-byte AES key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self> {
        let aes = Aes::new(key)?;
        let h = aes.encrypt_block_copy(&[0u8; 16]);
        Ok(AesGcm { aes, h })
    }

    /// Encrypts `data` in place and returns the 16-byte tag.
    ///
    /// `aad` is authenticated but not encrypted; the disk encryptor puts
    /// the LBA (and snapshot generation) there to prevent replay.
    ///
    /// # Panics
    ///
    /// Panics if `nonce` is empty (all other lengths are accepted; 12
    /// bytes takes the fast path, others are hashed per the spec).
    #[must_use]
    pub fn encrypt(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        assert!(!nonce.is_empty(), "GCM nonce must not be empty");
        let j0 = self.derive_j0(nonce);
        let mut counter = j0;
        increment_counter(&mut counter);
        ctr_xor(&self.aes, &counter, data);
        self.compute_tag(&j0, aad, data)
    }

    /// Verifies the tag and decrypts `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify; in that case `data` is left **unmodified** (ciphertext).
    pub fn decrypt(&self, nonce: &[u8], aad: &[u8], data: &mut [u8], tag: &[u8]) -> Result<()> {
        assert!(!nonce.is_empty(), "GCM nonce must not be empty");
        let j0 = self.derive_j0(nonce);
        let expected = self.compute_tag(&j0, aad, data);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut counter = j0;
        increment_counter(&mut counter);
        ctr_xor(&self.aes, &counter, data);
        Ok(())
    }

    fn derive_j0(&self, nonce: &[u8]) -> [u8; 16] {
        if nonce.len() == NONCE_LEN {
            let mut j0 = [0u8; 16];
            j0[..12].copy_from_slice(nonce);
            j0[15] = 1;
            j0
        } else {
            // J0 = GHASH(IV || pad || [0]^64 || len(IV) in bits)
            let mut ghash = Ghash::new(&self.h);
            ghash.update_padded(nonce);
            let mut len_block = [0u8; 16];
            len_block[8..].copy_from_slice(&((nonce.len() as u64) * 8).to_be_bytes());
            ghash.update_block(&len_block);
            ghash.finalize()
        }
    }

    fn compute_tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut ghash = Ghash::new(&self.h);
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        ghash.update_block(&len_block);
        let s = ghash.finalize();
        let e_j0 = self.aes.encrypt_block_copy(j0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ e_j0[i];
        }
        tag
    }
}

/// Incremental GHASH state.
struct Ghash {
    h: [u8; 16],
    y: [u8; 16],
}

impl Ghash {
    fn new(h: &[u8; 16]) -> Self {
        Ghash {
            h: *h,
            y: [0u8; 16],
        }
    }

    fn update_block(&mut self, block: &[u8; 16]) {
        for (y, b) in self.y.iter_mut().zip(block) {
            *y ^= b;
        }
        self.y = ghash_mul(&self.y, &self.h);
    }

    /// Absorbs `data`, zero-padding the final partial block.
    fn update_padded(&mut self, data: &[u8]) {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            self.update_block(&block);
        }
    }

    fn finalize(self) -> [u8; 16] {
        self.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::to_hex;

    /// NIST GCM test case 1: zero key, zero nonce, empty everything.
    #[test]
    fn nist_test_case_1_empty() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let mut data = [];
        let tag = gcm.encrypt(&[0u8; 12], &[], &mut data);
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    /// NIST GCM test case 2: tag over a single zero block.
    #[test]
    fn nist_test_case_2_tag() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let mut data = [0u8; 16];
        let tag = gcm.encrypt(&[0u8; 12], &[], &mut data);
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
        // Round-trip through decrypt must succeed and restore zeros.
        gcm.decrypt(&[0u8; 12], &[], &mut data, &tag).unwrap();
        assert_eq!(data, [0u8; 16]);
    }

    #[test]
    fn tamper_detection_ciphertext() {
        let gcm = AesGcm::new(&[4u8; 32]).unwrap();
        let nonce = [9u8; 12];
        let mut data = vec![0x5Au8; 100];
        let tag = gcm.encrypt(&nonce, b"aad", &mut data);
        data[50] ^= 1;
        let snapshot = data.clone();
        let err = gcm.decrypt(&nonce, b"aad", &mut data, &tag).unwrap_err();
        assert_eq!(err, CryptoError::AuthenticationFailed);
        // Failed decryption must not touch the buffer.
        assert_eq!(data, snapshot);
    }

    #[test]
    fn tamper_detection_aad_and_tag() {
        let gcm = AesGcm::new(&[4u8; 16]).unwrap();
        let nonce = [1u8; 12];
        let mut data = vec![1u8; 32];
        let tag = gcm.encrypt(&nonce, b"lba=5", &mut data);
        assert!(gcm.decrypt(&nonce, b"lba=6", &mut data, &tag).is_err());
        let mut bad_tag = tag;
        bad_tag[0] ^= 0x80;
        assert!(gcm.decrypt(&nonce, b"lba=5", &mut data, &bad_tag).is_err());
        assert!(gcm.decrypt(&nonce, b"lba=5", &mut data, &tag).is_ok());
    }

    #[test]
    fn replay_to_other_lba_fails_via_aad() {
        // The disk layer binds the LBA in the AAD; moving a sector's
        // (ciphertext, nonce, tag) to another LBA must fail closed.
        let gcm = AesGcm::new(&[7u8; 32]).unwrap();
        let nonce = [3u8; 12];
        let mut sector = vec![0xEEu8; 4096];
        let tag = gcm.encrypt(&nonce, &77u64.to_le_bytes(), &mut sector);
        assert!(gcm
            .decrypt(&nonce, &78u64.to_le_bytes(), &mut sector, &tag)
            .is_err());
    }

    #[test]
    fn non_96_bit_nonces_accepted() {
        let gcm = AesGcm::new(&[2u8; 16]).unwrap();
        for nonce_len in [1usize, 8, 13, 16, 32] {
            let nonce = vec![0xCD; nonce_len];
            let mut data = vec![0x11u8; 40];
            let tag = gcm.encrypt(&nonce, &[], &mut data);
            gcm.decrypt(&nonce, &[], &mut data, &tag).unwrap();
            assert_eq!(data, vec![0x11u8; 40], "nonce_len {nonce_len}");
        }
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let gcm = AesGcm::new(&[8u8; 32]).unwrap();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        let _ = gcm.encrypt(&[1u8; 12], &[], &mut a);
        let _ = gcm.encrypt(&[2u8; 12], &[], &mut b);
        assert_ne!(a, b);
    }

    /// The §2.1 warning: nonce reuse in GCM leaks the XOR of the
    /// plaintexts. This test *demonstrates* the leak to justify why the
    /// random-IV scheme must never reuse a persisted nonce.
    #[test]
    fn nonce_reuse_leaks_plaintext_xor() {
        let gcm = AesGcm::new(&[6u8; 16]).unwrap();
        let nonce = [0xAB; 12];
        let p1 = vec![0x0Fu8; 48];
        let p2: Vec<u8> = (0..48u8).collect();
        let mut c1 = p1.clone();
        let mut c2 = p2.clone();
        let _ = gcm.encrypt(&nonce, &[], &mut c1);
        let _ = gcm.encrypt(&nonce, &[], &mut c2);
        for i in 0..48 {
            assert_eq!(c1[i] ^ c2[i], p1[i] ^ p2[i]);
        }
    }
}
