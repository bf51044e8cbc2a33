//! The AES block cipher (FIPS 197), key sizes 128 and 256 bits.
//!
//! Portable byte-oriented implementation: the state is kept in the
//! FIPS column-major layout (`state[4*c + r]` = row r, column c, which
//! coincides with the natural byte order of the 16-byte block), and the
//! round transforms operate on bytes. The inverse S-box is derived from
//! the forward S-box at first use, so only one table is hand-written
//! (and it is validated by the FIPS-197 known-answer tests below).

use crate::{CryptoError, Result};
use std::sync::OnceLock;

/// The AES S-box (FIPS 197 figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

fn inv_sbox() -> &'static [u8; 256] {
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in AES's GF(2^8).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

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
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    size: KeySize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes({:?})", self.size)
    }
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
        let nr = size.rounds();
        let total_words = 4 * (nr + 1);

        let mut w = vec![[0u8; 4]; total_words];
        for (i, chunk) in key.chunks(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord + SubWord + Rcon
                temp = [
                    SBOX[temp[1] as usize] ^ rcon,
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                    SBOX[temp[0] as usize],
                ];
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                // AES-256 extra SubWord
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        let mut round_keys = Vec::with_capacity(nr + 1);
        for r in 0..=nr {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            round_keys.push(rk);
        }
        Ok(Aes { round_keys, size })
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        add_round_key(block, &self.round_keys[0]);
        for r in 1..nr {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[nr]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        add_round_key(block, &self.round_keys[nr]);
        for r in (1..nr).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
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
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

// State layout: state[4*c + r] is row r, column c. Row r consists of
// indices r, r+4, r+8, r+12. ShiftRows rotates row r left by r.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let (s0, s1, s2, s3) = (col[0], col[1], col[2], col[3]);
        let t = s0 ^ s1 ^ s2 ^ s3;
        col[0] = s0 ^ t ^ xtime(s0 ^ s1);
        col[1] = s1 ^ t ^ xtime(s1 ^ s2);
        col[2] = s2 ^ t ^ xtime(s2 ^ s3);
        col[3] = s3 ^ t ^ xtime(s3 ^ s0);
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let (s0, s1, s2, s3) = (col[0], col[1], col[2], col[3]);
        col[0] = gmul(s0, 14) ^ gmul(s1, 11) ^ gmul(s2, 13) ^ gmul(s3, 9);
        col[1] = gmul(s0, 9) ^ gmul(s1, 14) ^ gmul(s2, 11) ^ gmul(s3, 13);
        col[2] = gmul(s0, 13) ^ gmul(s1, 9) ^ gmul(s2, 14) ^ gmul(s3, 11);
        col[3] = gmul(s0, 11) ^ gmul(s1, 13) ^ gmul(s2, 9) ^ gmul(s3, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::from_hex;

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
}
