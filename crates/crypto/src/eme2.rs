//! EME\*-style **wide-block** tweakable encryption.
//!
//! §2.2 of the paper discusses wide-block ciphers (IEEE 1619.2:
//! XCB-AES, EME2-AES) as a partial mitigation: every plaintext bit
//! influences every ciphertext bit of the sector, so the sub-block
//! granularity attacks of XTS disappear — but the cipher remains
//! deterministic, so exact-overwrite detection is still possible.
//!
//! This module implements the ECB-Mix-ECB construction of Halevi's
//! EME\* (INDOCRYPT '04), the basis of IEEE 1619.2 EME2-AES:
//!
//! 1. whiten each block with `2^j · L` and encrypt (ECB pass 1),
//! 2. mix everything through a masked middle block (`MP → MC`),
//! 3. re-whiten with `2^j · M` masks, encrypt again (ECB pass 2).
//!
//! **Validation caveat** (recorded in DESIGN.md / EXPERIMENTS.md): the
//! IEEE 1619.2 test vectors are not freely available, so this
//! implementation is validated by structural properties — exact
//! invertibility for all sizes, full-sector avalanche in both
//! directions, tweak separation — rather than interoperability vectors.
//! All properties the paper relies on hold.

use crate::aes::Aes;
use crate::gf128::{be_double, xor_block, Block};
use crate::mem::{xor_in_place, zeroize};
use crate::{CryptoError, Result};

/// A wide-block cipher over whole sectors (multiples of 16 bytes,
/// between 32 bytes and 64 KiB).
///
/// # Example
///
/// ```
/// use vdisk_crypto::eme2::Eme2;
/// # fn main() -> Result<(), vdisk_crypto::CryptoError> {
/// let eme = Eme2::new(&[3u8; 32])?;
/// let mut sector = vec![0u8; 4096];
/// let tweak = [5u8; 16];
/// eme.encrypt_sector(&tweak, &mut sector)?;
/// eme.decrypt_sector(&tweak, &mut sector)?;
/// assert_eq!(sector, vec![0u8; 4096]);
/// # Ok(())
/// # }
/// ```
pub struct Eme2 {
    aes: Aes,
    /// L = 2 · AES_K(0^128): the ECB whitening mask seed.
    l: Block,
}

impl std::fmt::Debug for Eme2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key size only; `Aes` prints no key material.
        f.debug_tuple("Eme2").field(&self.aes).finish()
    }
}

impl Drop for Eme2 {
    fn drop(&mut self) {
        zeroize(&mut self.l);
    }
}

/// Maximum sector size accepted (64 KiB = 4096 blocks).
pub const MAX_SECTOR: usize = 65536;

impl Eme2 {
    /// Creates a wide-block cipher from a 16- or 32-byte AES key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self> {
        let aes = Aes::new(key)?;
        let mut l = aes.encrypt_block_copy(&[0u8; 16]);
        be_double(&mut l);
        Ok(Eme2 { aes, l })
    }

    /// Encrypts a sector in place under a 16-byte tweak.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] unless
    /// `32 <= data.len() <= 65536` and `data.len() % 16 == 0`.
    pub fn encrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        self.process_sector::<false>(tweak, data)
    }

    /// Decrypts a sector in place under a 16-byte tweak.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidDataLength`] for unsupported sizes.
    pub fn decrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        self.process_sector::<true>(tweak, data)
    }

    /// ECB-Mix-ECB. Decryption is the same walk with `D` for `E`: the
    /// construction is an involution up to the direction of the block
    /// cipher. Both ECB layers are batch calls over the whole sector;
    /// only the middle block is a single-block call.
    fn process_sector<const DECRYPT: bool>(&self, tweak: &[u8; 16], data: &mut [u8]) -> Result<()> {
        self.check_len(data.len())?;
        let t_star = self.hash_tweak(tweak);

        // Pass 1: PPP_j = E(P_j xor 2^j L)
        self.whiten(data);
        self.ecb::<DECRYPT>(data);

        // Mixing: MP = PPP_1 xor SP xor T*, MC = E(MP), M = MP xor MC.
        let (head, rest) = data.split_at_mut(16);
        let head: &mut [u8; 16] = head.try_into().expect("split at 16 bytes");
        let mp = xor_block(&xor_block(head, &xor_of_blocks(rest)), &t_star);
        let mut mc = mp;
        if DECRYPT {
            self.aes.decrypt_block(&mut mc);
        } else {
            self.aes.encrypt_block(&mut mc);
        }

        // CCC_j = PPP_j xor 2^{j-1} M (j >= 2, so the first applied
        // mask is 2M; starting at M itself would make the j=2 delta
        // cancel against the mixing block for 2-block messages).
        let mut mmask = xor_block(&mp, &mc);
        for block in rest.chunks_exact_mut(16) {
            be_double(&mut mmask);
            xor_in_place(block, &mmask);
        }
        *head = xor_block(&xor_block(&mc, &xor_of_blocks(rest)), &t_star);

        // Pass 2: C_j = E(CCC_j) xor 2^j L
        self.ecb::<DECRYPT>(data);
        self.whiten(data);
        Ok(())
    }

    /// XORs `2^j L` into block `j`.
    fn whiten(&self, data: &mut [u8]) {
        let mut mask = self.l;
        for block in data.chunks_exact_mut(16) {
            xor_in_place(block, &mask);
            be_double(&mut mask);
        }
    }

    fn ecb<const DECRYPT: bool>(&self, data: &mut [u8]) {
        if DECRYPT {
            self.aes.decrypt_blocks(data);
        } else {
            self.aes.encrypt_blocks(data);
        }
    }

    fn hash_tweak(&self, tweak: &[u8; 16]) -> Block {
        // T* = E_K(T) — a PRF of the tweak, independent of the masks.
        self.aes.encrypt_block_copy(tweak)
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if !(32..=MAX_SECTOR).contains(&len) || !len.is_multiple_of(16) {
            return Err(CryptoError::InvalidDataLength { got: len });
        }
        Ok(())
    }
}

/// The XOR of all 16-byte blocks of `data`.
fn xor_of_blocks(data: &[u8]) -> Block {
    let mut sum = [0u8; 16];
    for block in data.chunks_exact(16) {
        xor_in_place(&mut sum, block);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_sizes() {
        let eme = Eme2::new(&[8u8; 32]).unwrap();
        let tweak = [1u8; 16];
        for len in [32usize, 48, 512, 4096] {
            let mut data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let orig = data.clone();
            eme.encrypt_sector(&tweak, &mut data).unwrap();
            assert_ne!(data, orig);
            eme.decrypt_sector(&tweak, &mut data).unwrap();
            assert_eq!(data, orig, "len {len}");
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        let eme = Eme2::new(&[0u8; 16]).unwrap();
        for len in [0usize, 16, 17, 33, MAX_SECTOR + 16] {
            let mut data = vec![0u8; len];
            assert!(
                eme.encrypt_sector(&[0u8; 16], &mut data).is_err(),
                "len {len}"
            );
        }
    }

    /// The property that distinguishes wide-block from XTS: flipping
    /// ONE plaintext bit changes EVERY 16-byte block of the ciphertext.
    #[test]
    fn full_sector_avalanche_encrypt() {
        let eme = Eme2::new(&[5u8; 32]).unwrap();
        let tweak = [9u8; 16];
        let mut a = vec![0x61u8; 4096];
        let mut b = a.clone();
        b[1234] ^= 0x40;
        eme.encrypt_sector(&tweak, &mut a).unwrap();
        eme.encrypt_sector(&tweak, &mut b).unwrap();
        for block in 0..256 {
            assert_ne!(
                &a[block * 16..block * 16 + 16],
                &b[block * 16..block * 16 + 16],
                "ciphertext block {block} unchanged — not wide-block"
            );
        }
    }

    /// Dual avalanche: flipping one ciphertext bit garbles every
    /// plaintext block (so splicing attacks produce garbage, unlike XTS).
    #[test]
    fn full_sector_avalanche_decrypt() {
        let eme = Eme2::new(&[5u8; 32]).unwrap();
        let tweak = [2u8; 16];
        let mut data = vec![0x13u8; 512];
        eme.encrypt_sector(&tweak, &mut data).unwrap();
        let mut tampered = data.clone();
        tampered[100] ^= 0x01;
        eme.decrypt_sector(&tweak, &mut data).unwrap();
        eme.decrypt_sector(&tweak, &mut tampered).unwrap();
        for block in 0..32 {
            assert_ne!(
                &data[block * 16..block * 16 + 16],
                &tampered[block * 16..block * 16 + 16],
                "plaintext block {block} survived ciphertext tampering"
            );
        }
    }

    #[test]
    fn tweak_separation() {
        let eme = Eme2::new(&[1u8; 16]).unwrap();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        eme.encrypt_sector(&[0u8; 16], &mut a).unwrap();
        eme.encrypt_sector(&[1u8; 16], &mut b).unwrap();
        assert_ne!(a, b);
    }

    /// Wide-block is still deterministic: exact overwrite of identical
    /// data is detectable (the residual leak the paper notes in §2.2).
    #[test]
    fn still_deterministic() {
        let eme = Eme2::new(&[1u8; 32]).unwrap();
        let mut a = vec![0x42u8; 128];
        let mut b = vec![0x42u8; 128];
        eme.encrypt_sector(&[7u8; 16], &mut a).unwrap();
        eme.encrypt_sector(&[7u8; 16], &mut b).unwrap();
        assert_eq!(a, b);
    }
}
