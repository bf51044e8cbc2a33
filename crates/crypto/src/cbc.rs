//! AES-CBC with ESSIV (the historical dm-crypt disk-encryption mode).
//!
//! The paper's footnote 1 recalls that AES-CBC was the widely used disk
//! cipher before XTS, retired after practical attacks (watermarking,
//! malleability). We implement it as a comparison baseline: CBC with an
//! ESSIV sector IV — `IV = AES_{SHA256(K)}(sector_number)` — which hides
//! sector numbers but remains deterministic across overwrites.

use crate::aes::{Aes, WIDE_BLOCKS};
use crate::mem::xor_in_place;
use crate::sha256::sha256;
use crate::{CryptoError, Result};

/// AES-CBC-ESSIV sector cipher.
///
/// # Example
///
/// ```
/// use vdisk_crypto::cbc::CbcEssiv;
/// # fn main() -> Result<(), vdisk_crypto::CryptoError> {
/// let cbc = CbcEssiv::new(&[1u8; 32])?;
/// let mut sector = vec![0u8; 512];
/// cbc.encrypt_sector(3, &mut sector)?;
/// cbc.decrypt_sector(3, &mut sector)?;
/// assert_eq!(sector, vec![0u8; 512]);
/// # Ok(())
/// # }
/// ```
pub struct CbcEssiv {
    data_cipher: Aes,
    essiv_cipher: Aes,
}

impl std::fmt::Debug for CbcEssiv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key size only; `Aes` prints no key material.
        f.debug_tuple("CbcEssiv").field(&self.data_cipher).finish()
    }
}

impl CbcEssiv {
    /// Creates the cipher from a 16- or 32-byte data key. The ESSIV key
    /// is `SHA256(key)` as in dm-crypt's `essiv:sha256`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self> {
        let data_cipher = Aes::new(key)?;
        let essiv_key = sha256(key);
        let essiv_cipher = Aes::new(&essiv_key)?;
        Ok(CbcEssiv {
            data_cipher,
            essiv_cipher,
        })
    }

    /// Computes the ESSIV IV for a sector number.
    #[must_use]
    pub fn essiv(&self, sector: u64) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&sector.to_le_bytes());
        self.essiv_cipher.encrypt_block_copy(&block)
    }

    /// Encrypts a sector in place (length must be a multiple of 16).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] if the length is zero
    /// or not a multiple of the block size.
    pub fn encrypt_sector(&self, sector: u64, data: &mut [u8]) -> Result<()> {
        if data.is_empty() || !data.len().is_multiple_of(16) {
            return Err(CryptoError::InvalidDataLength { got: data.len() });
        }
        // Each block's input is the previous ciphertext block: a serial
        // chain, one block at a time.
        let mut prev = self.essiv(sector);
        for chunk in data.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().expect("chunks_exact_mut(16)");
            xor_in_place(block, &prev);
            self.data_cipher.encrypt_block(block);
            prev = *block;
        }
        Ok(())
    }

    /// Decrypts a sector in place (length must be a multiple of 16).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] if the length is zero
    /// or not a multiple of the block size.
    pub fn decrypt_sector(&self, sector: u64, data: &mut [u8]) -> Result<()> {
        if data.is_empty() || !data.len().is_multiple_of(16) {
            return Err(CryptoError::InvalidDataLength { got: data.len() });
        }
        // P_j = Dec(C_j) ^ C_{j-1}: the block decryptions are
        // independent, so they go through in wide passes; only the
        // ciphertext each pass overwrites has to be kept for the XOR.
        let mut prev = self.essiv(sector);
        let mut ciphertext = [0u8; 16 * WIDE_BLOCKS];
        for pass in data.chunks_mut(16 * WIDE_BLOCKS) {
            let ciphertext = &mut ciphertext[..pass.len()];
            ciphertext.copy_from_slice(pass);
            self.data_cipher.decrypt_blocks(pass);
            let (first, rest) = pass.split_at_mut(16);
            xor_in_place(first, &prev);
            xor_in_place(rest, &ciphertext[..rest.len()]);
            prev.copy_from_slice(&ciphertext[rest.len()..]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let cbc = CbcEssiv::new(&[7u8; 16]).unwrap();
        let mut data: Vec<u8> = (0..128u8).collect();
        let orig = data.clone();
        cbc.encrypt_sector(42, &mut data).unwrap();
        assert_ne!(data, orig);
        cbc.decrypt_sector(42, &mut data).unwrap();
        assert_eq!(data, orig);
    }

    #[test]
    fn wrong_sector_number_garbles() {
        let cbc = CbcEssiv::new(&[7u8; 32]).unwrap();
        let mut data = vec![0u8; 64];
        cbc.encrypt_sector(1, &mut data).unwrap();
        cbc.decrypt_sector(2, &mut data).unwrap();
        assert_ne!(data, vec![0u8; 64]);
    }

    #[test]
    fn essiv_varies_by_sector_and_hides_lba() {
        let cbc = CbcEssiv::new(&[1u8; 32]).unwrap();
        let iv0 = cbc.essiv(0);
        let iv1 = cbc.essiv(1);
        assert_ne!(iv0, iv1);
        // ESSIV must not be the raw sector number.
        let mut raw = [0u8; 16];
        raw[..8].copy_from_slice(&1u64.to_le_bytes());
        assert_ne!(iv1, raw);
    }

    #[test]
    fn rejects_unaligned_lengths() {
        let cbc = CbcEssiv::new(&[0u8; 16]).unwrap();
        for len in [0usize, 1, 15, 17, 100] {
            let mut data = vec![0u8; len];
            assert!(cbc.encrypt_sector(0, &mut data).is_err(), "len {len}");
            let mut data = vec![0u8; len];
            assert!(cbc.decrypt_sector(0, &mut data).is_err(), "len {len}");
        }
    }

    /// The classic CBC leak the paper mentions: a prefix-equal plaintext
    /// produces a prefix-equal ciphertext up to the first difference —
    /// an adversary can locate the first changed block.
    #[test]
    fn cbc_prefix_equality_leak() {
        let cbc = CbcEssiv::new(&[9u8; 32]).unwrap();
        let mut a = vec![0x33u8; 128];
        let mut b = vec![0x33u8; 128];
        b[64] ^= 1; // first difference in block 4
        cbc.encrypt_sector(10, &mut a).unwrap();
        cbc.encrypt_sector(10, &mut b).unwrap();
        assert_eq!(&a[..64], &b[..64], "prefix blocks must match (the leak)");
        assert_ne!(&a[64..80], &b[64..80]);
    }

    #[test]
    fn deterministic_across_overwrites() {
        let cbc = CbcEssiv::new(&[9u8; 16]).unwrap();
        let mut a = vec![0xCCu8; 64];
        let mut b = vec![0xCCu8; 64];
        cbc.encrypt_sector(5, &mut a).unwrap();
        cbc.encrypt_sector(5, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
