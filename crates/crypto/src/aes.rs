//! The AES block cipher (FIPS 197), key sizes 128 and 256 bits, on
//! one of two backends, each constant-time by construction.
//!
//! - **AES-NI** (`aes/ni.rs`, x86-64 only): the `aesenc` / `aesdec`
//!   instructions, eight blocks interleaved per step. [`Aes::new`]
//!   takes it whenever the CPU reports the `aes` feature; the check
//!   runs once per key, never per call, and there is no other switch.
//!   It is the one module of the workspace allowed `unsafe`.
//! - **Bitsliced** (everywhere else, and the in-crate reference the
//!   AES-NI path is tested against): one S-box, a Boolean circuit
//!   (`aes/circuit.rs`) evaluated on words of independent one-bit
//!   lanes. No table is indexed, and no index or branch depends on key
//!   or data bytes; decryption runs the same circuit between two
//!   linear maps and costs what encryption costs. Two layouts feed it:
//!   **wide** (`aes/wide.rs`), 128 bit planes whose lanes are whole
//!   blocks, for runs of blocks, and **packed** (`aes/packed.rs`),
//!   eight planes whose lanes are the 16 bytes of one block, for
//!   single blocks and the key schedule.
//!
//! Every mode reaches the cipher through the same three calls —
//! [`Aes::encrypt_block`], [`Aes::decrypt_block`] and the batch engine
//! behind [`Aes::encrypt_blocks`] / [`Aes::decrypt_blocks`] and a
//! whole XTS sector — so no mode knows which backend runs. Either way
//! the key schedule is expanded through the S-box circuit, with no
//! table.
//!
//! The byte-at-a-time table implementation lives on as the test
//! oracle (`src/reference.rs`). On the 2-core x86-64 host,
//! `wallbench trace` reads `crypto.xts_enc_4k_mibs` /
//! `crypto.xts_dec_4k_mibs` for AES-256-XTS over 4 KiB sectors of
//! 3 441 / 3 789 on AES-NI, against 160 / 143 for the bitsliced cipher
//! in the same session.

mod circuit;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;
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

/// The S-box's affine constant, folded into the bitsliced round keys
/// 1..=Nr so the circuit needs no NOT gates (see [`circuit`]).
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

/// The round keys of whichever backend this key runs on, boxed and
/// filled in place, so moving an [`Aes`] copies no key material.
enum Schedule {
    /// Standard round keys plus `aesimc` decryption keys; only built
    /// on a CPU with AES-NI.
    #[cfg(target_arch = "x86_64")]
    Ni(Box<ni::NiSchedule>),
    /// Round keys in the packed path's plane form, keys 1..=Nr XORed
    /// with [`AFFINE`]; entries past Nr stay zero.
    Bitsliced(Box<[RoundKey; MAX_ROUND_KEYS]>),
}

impl Schedule {
    /// The hardware schedule when this CPU has AES-NI, else the
    /// bitsliced one.
    fn detect(words: &[u8]) -> Schedule {
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = ni::NiSchedule::new(words) {
            return Schedule::Ni(keys);
        }
        Schedule::bitsliced(words)
    }

    fn bitsliced(words: &[u8]) -> Schedule {
        let mut round_keys = Box::new([[0u8; 16]; MAX_ROUND_KEYS]);
        for (r, (stored, bytes)) in round_keys
            .iter_mut()
            .zip(words.chunks_exact(16))
            .enumerate()
        {
            let fold = if r == 0 { 0 } else { AFFINE };
            let mut rk: [u8; 16] = std::array::from_fn(|i| bytes[i] ^ fold);
            *stored = packed::to_round_key(&packed::pack(&rk));
            zeroize(&mut rk);
        }
        Schedule::Bitsliced(round_keys)
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
    schedule: Schedule,
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
        match &mut self.schedule {
            #[cfg(target_arch = "x86_64")]
            Schedule::Ni(keys) => keys.wipe(),
            Schedule::Bitsliced(keys) => zeroize(keys.as_flattened_mut()),
        }
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
    /// Builds a key schedule from a 16- or 32-byte key, for AES-NI
    /// when this CPU has it and for the bitsliced cipher otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for any other length
    /// (including 24 bytes: AES-192 is deliberately unsupported, as no
    /// disk-encryption stack uses it).
    pub fn new(key: &[u8]) -> Result<Self> {
        Self::with_schedule(key, Schedule::detect)
    }

    /// [`Aes::new`] on the bitsliced backend whatever the CPU, so the
    /// tests cover both backends on every host.
    #[cfg(test)]
    pub(crate) fn bitsliced(key: &[u8]) -> Result<Self> {
        Self::with_schedule(key, Schedule::bitsliced)
    }

    /// Whether this key runs on AES-NI.
    #[cfg(test)]
    pub(crate) fn is_ni(&self) -> bool {
        !matches!(self.schedule, Schedule::Bitsliced(_))
    }

    /// Expands the FIPS-197 word schedule and hands its `16 · (Nr + 1)`
    /// bytes to `build`.
    fn with_schedule(key: &[u8], build: impl FnOnce(&[u8]) -> Schedule) -> Result<Self> {
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

        let aes = Aes {
            schedule: build(&w.as_flattened()[..4 * total_words]),
            size,
        };
        zeroize(w.as_flattened_mut());
        Ok(aes)
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match &self.schedule {
            #[cfg(target_arch = "x86_64")]
            Schedule::Ni(keys) => keys.crypt_block::<false>(block),
            Schedule::Bitsliced(keys) => packed::encrypt(&keys[..=self.size.rounds()], block),
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match &self.schedule {
            #[cfg(target_arch = "x86_64")]
            Schedule::Ni(keys) => keys.crypt_block::<true>(block),
            Schedule::Bitsliced(keys) => packed::decrypt(&keys[..=self.size.rounds()], block),
        }
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
    /// independently (ECB), a batch at a time.
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
    /// becomes `E(block ^ mask(i)) ^ mask(i)` (or `D`). On the
    /// bitsliced backend the whitening rides on the transposes in and
    /// out of the wide layout, and which layout a run of blocks takes
    /// depends on its length alone.
    pub(crate) fn crypt_blocks<const DECRYPT: bool>(
        &self,
        data: &mut [u8],
        mask: impl Fn(usize) -> u128 + Copy,
    ) {
        assert!(data.len().is_multiple_of(16), "whole 16-byte blocks only");
        let keys = match &self.schedule {
            #[cfg(target_arch = "x86_64")]
            Schedule::Ni(keys) => return keys.crypt_blocks::<DECRYPT>(data, mask),
            Schedule::Bitsliced(keys) => &keys[..=self.size.rounds()],
        };
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
pub(crate) type Constructor = fn(&[u8]) -> Result<Aes>;

/// Each backend's constructor with its name: the one [`Aes::new`]
/// picks on this host, and the bitsliced one forced. The KATs and the
/// differential tests run on both.
#[cfg(test)]
pub(crate) const BACKENDS: [(&str, Constructor); 2] =
    [("detected", Aes::new), ("bitsliced", Aes::bitsliced)];

/// Cases per in-crate differential property: a smoke count in the dev
/// profile, the real count under `--release` (CI's `stress` job).
#[cfg(test)]
pub(crate) const DIFFERENTIAL_CASES: u32 = if cfg!(debug_assertions) { 32 } else { 512 };

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::from_hex;
    use crate::reference::{gmul, inv_mix_columns, inv_shift_rows, mix_columns, shift_rows, SBOX};
    use crate::rng::SeededRng;
    use proptest::prelude::*;

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
        for (name, new) in BACKENDS {
            let aes = new(&key).unwrap();
            let mut b = block("00112233445566778899aabbccddeeff");
            aes.encrypt_block(&mut b);
            assert_eq!(b, block("69c4e0d86a7b0430d8cdb78070b4c55a"), "{name}");
            aes.decrypt_block(&mut b);
            assert_eq!(b, block("00112233445566778899aabbccddeeff"), "{name}");
        }
    }

    /// FIPS-197 Appendix C.3: AES-256 known-answer test.
    #[test]
    fn fips197_aes256_kat() {
        let key =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f").unwrap();
        for (name, new) in BACKENDS {
            let aes = new(&key).unwrap();
            let mut b = block("00112233445566778899aabbccddeeff");
            aes.encrypt_block(&mut b);
            assert_eq!(b, block("8ea2b7ca516745bfeafc49904b496089"), "{name}");
            aes.decrypt_block(&mut b);
            assert_eq!(b, block("00112233445566778899aabbccddeeff"), "{name}");
        }
    }

    /// NIST SP 800-38A F.1.1 first block (AES-128-ECB).
    #[test]
    fn sp800_38a_ecb_first_block() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        for (name, new) in BACKENDS {
            let aes = new(&key).unwrap();
            let mut b = block("6bc1bee22e409f96e93d7e117393172a");
            aes.encrypt_block(&mut b);
            assert_eq!(b, block("3ad77bb40d7a3660a89ecaf32466ef97"), "{name}");
            let mut batch = [b; 3].concat();
            aes.decrypt_blocks(&mut batch);
            assert_eq!(
                batch,
                [block("6bc1bee22e409f96e93d7e117393172a"); 3].concat(),
                "{name}"
            );
        }
    }

    /// `Aes::new` takes AES-NI exactly when the CPU reports it, so a
    /// detection bug cannot fall back to the bitsliced cipher unseen;
    /// the test constructor never does.
    #[test]
    fn new_picks_ni_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has_ni = std::arch::is_x86_feature_detected!("aes");
        #[cfg(not(target_arch = "x86_64"))]
        let has_ni = false;
        for len in [16, 32] {
            let key = vec![0x5a; len];
            assert_eq!(Aes::new(&key).unwrap().is_ni(), has_ni, "{len}-byte key");
            assert!(!Aes::bitsliced(&key).unwrap().is_ni(), "{len}-byte key");
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES))]

        /// The single-block calls of both backends, both key sizes,
        /// both directions, against the table cipher.
        #[test]
        fn both_backends_match_reference_block_calls(
            key in any::<[u8; 32]>(),
            aes256 in any::<bool>(),
            block in any::<[u8; 16]>(),
        ) {
            let key = &key[..if aes256 { 32 } else { 16 }];
            let theirs = crate::reference::Aes::new(key);
            let (mut encrypted, mut decrypted) = (block, block);
            theirs.encrypt_block(&mut encrypted);
            theirs.decrypt_block(&mut decrypted);
            for (name, new) in BACKENDS {
                let ours = new(key).unwrap();
                prop_assert_eq!(ours.encrypt_block_copy(&block), encrypted, "{} encrypt", name);
                prop_assert_eq!(ours.decrypt_block_copy(&block), decrypted, "{} decrypt", name);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES / 16))]

        /// The batch calls of both backends at every block count from
        /// one to one past two wide passes: every interleaved group and
        /// remainder on AES-NI, every packed run, short and full wide
        /// pass on the bitsliced cipher.
        #[test]
        fn both_backends_match_reference_batch_calls_at_every_count(
            key in any::<[u8; 32]>(),
            aes256 in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let key = &key[..if aes256 { 32 } else { 16 }];
            let theirs = crate::reference::Aes::new(key);
            let backends = BACKENDS.map(|(name, new)| (name, new(key).unwrap()));
            for count in 1..=2 * WIDE_BLOCKS + 1 {
                let mut data = vec![0u8; 16 * count];
                SeededRng::new(seed ^ count as u64).fill_bytes(&mut data);
                let (mut encrypted, mut decrypted) = (data.clone(), data.clone());
                for (e, d) in encrypted.as_chunks_mut::<16>().0.iter_mut().zip(decrypted.as_chunks_mut::<16>().0) {
                    theirs.encrypt_block(e);
                    theirs.decrypt_block(d);
                }
                for (name, ours) in &backends {
                    let mut got = data.clone();
                    ours.encrypt_blocks(&mut got);
                    prop_assert_eq!(&got, &encrypted, "{} encrypt_blocks, {} blocks", name, count);
                    let mut got = data.clone();
                    ours.decrypt_blocks(&mut got);
                    prop_assert_eq!(&got, &decrypted, "{} decrypt_blocks, {} blocks", name, count);
                }
            }
        }
    }
}
