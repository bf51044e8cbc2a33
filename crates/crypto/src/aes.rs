//! The AES block cipher (FIPS 197), key sizes 128 and 256 bits,
//! bitsliced and constant-time by construction.
//!
//! There is one S-box: a Boolean circuit (`aes/circuit.rs`) evaluated on
//! words of independent one-bit lanes. No table is indexed, and no
//! index or branch anywhere depends on key or data bytes, so the
//! cipher has no cache-timing channel to harden; decryption runs the
//! same circuit between two linear maps and costs what encryption
//! costs. Two layouts feed it:
//!
//! - **wide** (`aes/wide.rs`): 128 bit planes whose lanes are whole
//!   blocks, a pass of 64·k at a time — [`Aes::encrypt_blocks`] /
//!   [`Aes::decrypt_blocks`], and through them a whole XTS sector, the
//!   GCM keystream, CBC decryption and EME2's ECB layers;
//! - **packed** (`aes/packed.rs`): eight planes whose lanes are the 16
//!   bytes of one block — [`Aes::encrypt_block`] /
//!   [`Aes::decrypt_block`], for callers that are serial by nature (a
//!   tweak block, a CBC encryption chain) and for the key schedule.
//!
//! The byte-at-a-time table implementation this replaced lives on as
//! the test oracle (`src/reference.rs`). On the 2-core x86-64 host,
//! `wallbench trace` reads `crypto.xts_enc_4k_mibs` 202.9 and
//! `crypto.xts_dec_4k_mibs` 201.5 for AES-256-XTS over 4 KiB sectors
//! (the table cipher, same session: 50.5 / 26.8).

mod circuit;
mod packed;
mod wide;

use crate::mem::{xor_in_place, zeroize};
use crate::{CryptoError, Result};
use packed::RoundKey;

/// Blocks one wide pass holds. Callers that batch (XTS tweaks, CTR
/// counters) size their scratch to it.
pub(crate) const WIDE_BLOCKS: usize = wide::BLOCKS;

/// At or below this many blocks the packed path, one block at a time,
/// is cheaper than a mostly empty wide pass.
const PACKED_MAX_BLOCKS: usize = 12;

/// The S-box's affine constant, folded into round keys 1..=Nr so the
/// circuit needs no NOT gates (see [`circuit`]).
const AFFINE: u8 = 0x63;

/// Longest schedule: AES-256's 14 rounds + 1.
const MAX_ROUND_KEYS: usize = 15;

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Number of rounds (Nr).
    #[must_use]
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes256 => 14,
        }
    }
}

/// An AES key schedule ready to encrypt and decrypt 16-byte blocks.
///
/// # Example
///
/// ```
/// use vdisk_crypto::aes::Aes;
///
/// # fn main() -> Result<(), vdisk_crypto::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let mut block = *b"0123456789abcdef";
/// let original = block;
/// aes.encrypt_block(&mut block);
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// # Ok(())
/// # }
/// ```
pub struct Aes {
    /// Round keys in the packed path's plane form, keys 1..=Nr XORed
    /// with [`AFFINE`]; entries past Nr stay zero.
    round_keys: [RoundKey; MAX_ROUND_KEYS],
    size: KeySize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes({:?})", self.size)
    }
}

impl Drop for Aes {
    fn drop(&mut self) {
        zeroize(self.round_keys.as_flattened_mut());
    }
}

/// FIPS 197 SubWord through the circuit (the packed layout with four
/// lanes in use): the key schedule indexes no table either.
fn sub_word(word: [u8; 4]) -> [u8; 4] {
    let mut block = [0u8; 16];
    block[..4].copy_from_slice(&word);
    let mut out = packed::unpack(&circuit::sub(packed::pack(&block)));
    let word = std::array::from_fn(|i| out[i] ^ AFFINE);
    zeroize(&mut block);
    zeroize(&mut out);
    word
}

impl Aes {
    /// Builds a key schedule from a 16- or 32-byte key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for any other length
    /// (including 24 bytes: AES-192 is deliberately unsupported, as no
    /// disk-encryption stack uses it).
    pub fn new(key: &[u8]) -> Result<Self> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            32 => KeySize::Aes256,
            got => return Err(CryptoError::InvalidKeyLength { got }),
        };
        let nk = key.len() / 4; // words in key
        let total_words = 4 * (size.rounds() + 1);

        let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(chunk);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord + SubWord + Rcon
                temp = sub_word([temp[1], temp[2], temp[3], temp[0]]);
                temp[0] ^= rcon;
                rcon = (rcon << 1) ^ ((rcon >> 7) * 0x1b);
            } else if nk > 6 && i % nk == 4 {
                // AES-256 extra SubWord
                temp = sub_word(temp);
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        // Filled in place, so no second copy of the schedule is left
        // behind in this frame.
        let mut aes = Aes {
            round_keys: [[0u8; 16]; MAX_ROUND_KEYS],
            size,
        };
        let words = &w.as_flattened()[..4 * total_words];
        for (r, (stored, bytes)) in aes
            .round_keys
            .iter_mut()
            .zip(words.chunks_exact(16))
            .enumerate()
        {
            let fold = if r == 0 { 0 } else { AFFINE };
            let mut rk: [u8; 16] = std::array::from_fn(|i| bytes[i] ^ fold);
            *stored = packed::to_round_key(&packed::pack(&rk));
            zeroize(&mut rk);
        }
        zeroize(w.as_flattened_mut());
        Ok(aes)
    }

    fn keys(&self) -> &[RoundKey] {
        &self.round_keys[..=self.size.rounds()]
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        packed::encrypt(self.keys(), block);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        packed::decrypt(self.keys(), block);
    }

    /// Convenience: encrypts a copy of `block` and returns it.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Convenience: decrypts a copy of `block` and returns it.
    #[must_use]
    pub fn decrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.decrypt_block(&mut out);
        out
    }

    /// Encrypts any number of whole 16-byte blocks in place, each
    /// independently (ECB), a wide pass at a time.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn encrypt_blocks(&self, data: &mut [u8]) {
        self.crypt_blocks::<false>(data, |_| 0);
    }

    /// Decrypts any number of whole 16-byte blocks in place; the
    /// inverse of [`Aes::encrypt_blocks`], at the same cost.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn decrypt_blocks(&self, data: &mut [u8]) {
        self.crypt_blocks::<true>(data, |_| 0);
    }

    /// The batch engine behind the two calls above and XTS: block `i`
    /// becomes `E(block ^ mask(i)) ^ mask(i)` (or `D`), the whitening
    /// riding on the transposes in and out of the wide layout. Which
    /// layout a run of blocks takes depends on its length alone.
    pub(crate) fn crypt_blocks<const DECRYPT: bool>(
        &self,
        data: &mut [u8],
        mask: impl Fn(usize) -> u128 + Copy,
    ) {
        assert!(data.len().is_multiple_of(16), "whole 16-byte blocks only");
        let keys = self.keys();
        for (pass, run) in data.chunks_mut(16 * WIDE_BLOCKS).enumerate() {
            let mask = |i: usize| mask(pass * WIDE_BLOCKS + i);
            if run.len() > 16 * PACKED_MAX_BLOCKS {
                wide::crypt::<DECRYPT>(keys, run, mask);
                continue;
            }
            for (i, block) in run.chunks_exact_mut(16).enumerate() {
                let block: &mut [u8; 16] = block.try_into().expect("chunks_exact_mut(16)");
                let whitening = mask(i).to_le_bytes();
                xor_in_place(block, &whitening);
                if DECRYPT {
                    packed::decrypt(keys, block);
                } else {
                    packed::encrypt(keys, block);
                }
                xor_in_place(block, &whitening);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::from_hex;
    use crate::reference::{gmul, inv_mix_columns, inv_shift_rows, mix_columns, shift_rows, SBOX};

    fn block(hex: &str) -> [u8; 16] {
        let v = from_hex(hex).unwrap();
        let mut b = [0u8; 16];
        b.copy_from_slice(&v);
        b
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    #[test]
    fn fips197_aes128_kat() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f").unwrap();
        let aes = Aes::new(&key).unwrap();
        let mut b = block("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut b);
        assert_eq!(b, block("00112233445566778899aabbccddeeff"));
    }

    /// FIPS-197 Appendix C.3: AES-256 known-answer test.
    #[test]
    fn fips197_aes256_kat() {
        let key =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f").unwrap();
        let aes = Aes::new(&key).unwrap();
        let mut b = block("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut b);
        assert_eq!(b, block("00112233445566778899aabbccddeeff"));
    }

    /// NIST SP 800-38A F.1.1 first block (AES-128-ECB).
    #[test]
    fn sp800_38a_ecb_first_block() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let aes = Aes::new(&key).unwrap();
        let mut b = block("6bc1bee22e409f96e93d7e117393172a");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn rejects_bad_key_lengths() {
        for len in [0usize, 8, 15, 17, 24, 31, 33, 64] {
            let key = vec![0u8; len];
            assert_eq!(
                Aes::new(&key).unwrap_err(),
                CryptoError::InvalidKeyLength { got: len },
                "length {len} should be rejected"
            );
        }
    }

    #[test]
    fn round_trip_many_blocks() {
        let aes = Aes::new(&[7u8; 32]).unwrap();
        for i in 0..64u8 {
            let mut b = [i; 16];
            b[0] = i.wrapping_mul(37);
            let orig = b;
            aes.encrypt_block(&mut b);
            assert_ne!(b, orig, "encryption must change the block");
            aes.decrypt_block(&mut b);
            assert_eq!(b, orig);
        }
    }

    #[test]
    fn shift_rows_inverts() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_inverts() {
        let mut s: [u8; 16] = core::array::from_fn(|i| (i * 13 + 1) as u8);
        let orig = s;
        mix_columns(&mut s);
        assert_ne!(s, orig);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &b in SBOX.iter() {
            assert!(!seen[b as usize], "duplicate S-box entry {b:#x}");
            seen[b as usize] = true;
        }
    }

    #[test]
    fn gmul_matches_known_products() {
        // {53} * {CA} = {01} in GF(2^8) (they are inverses).
        assert_eq!(gmul(0x53, 0xca), 0x01);
        assert_eq!(gmul(0x02, 0x80), 0x1b);
        assert_eq!(gmul(1, 0xab), 0xab);
    }

    #[test]
    fn debug_hides_keys() {
        let aes = Aes::new(&[0xEE; 16]).unwrap();
        assert_eq!(format!("{aes:?}"), "Aes(Aes128)");
    }

    #[test]
    #[should_panic(expected = "whole 16-byte blocks only")]
    fn batch_calls_reject_partial_blocks() {
        Aes::new(&[0u8; 16]).unwrap().encrypt_blocks(&mut [0u8; 17]);
    }
}
