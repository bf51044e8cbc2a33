//! The AES-NI backend: [`super::Aes`]'s three entry points on the
//! `aesenc` / `aesdec` instructions of the x86-64 CPUs that have them.
//!
//! This is the one module of the workspace that uses `unsafe`, for two
//! things only:
//!
//! - calling the `#[target_feature(enable = "aes,sse2")]` kernels. A
//!   [`NiSchedule`] exists only if [`NiSchedule::new`] saw AES-NI on
//!   this CPU, so holding one is the proof every such call cites;
//! - unaligned 16-byte loads and stores (`_mm_loadu_si128` /
//!   `_mm_storeu_si128`) through `&[u8; 16]` / `&mut [u8; 16]`, so the
//!   type carries the bounds.
//!
//! The instructions take the same time whatever the key and data, and
//! the kernels branch and index on lengths and round counters only.
//! The key schedule is not derived here: `Aes::new` expands it with
//! the S-box circuit and hands over the FIPS-197 round keys; the
//! decryption keys come from them through `aesimc`.

#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

use super::MAX_ROUND_KEYS;
use crate::mem::zeroize;
use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks in flight per step: an `aesenc` takes several cycles to
/// finish, but the unit accepts a new one every cycle or two, so eight
/// independent blocks keep it busy.
const LANES: usize = 8;

/// Round keys as the instructions take them, kept as bytes so
/// [`zeroize`] can wipe them; entries past Nr stay zero.
type RoundKeys = [[u8; 16]; MAX_ROUND_KEYS];

/// An AES key schedule for the AES-NI kernels.
pub(crate) struct NiSchedule {
    /// The FIPS-197 round keys 0..=Nr.
    enc: RoundKeys,
    /// The Equivalent Inverse Cipher's keys (FIPS 197 §5.3.5):
    /// `enc[Nr]`, `InvMixColumns(enc[Nr - 1])`, …, `enc[0]`.
    dec: RoundKeys,
    rounds: usize,
}

impl NiSchedule {
    /// Takes the FIPS-197 schedule as `16 · (Nr + 1)` bytes. Returns
    /// `None` when this CPU has no AES-NI; this is the only way to
    /// make a `NiSchedule`.
    pub(super) fn new(schedule: &[u8]) -> Option<Box<Self>> {
        if !std::arch::is_x86_feature_detected!("aes") {
            return None;
        }
        let (round_keys, _) = schedule.as_chunks::<16>();
        let mut keys = Box::new(NiSchedule {
            enc: [[0; 16]; MAX_ROUND_KEYS],
            dec: [[0; 16]; MAX_ROUND_KEYS],
            rounds: round_keys.len() - 1,
        });
        keys.enc[..round_keys.len()].copy_from_slice(round_keys);
        let NiSchedule { enc, dec, rounds } = &mut *keys;
        // SAFETY: AES-NI was detected just above.
        unsafe { invert(enc, *rounds, dec) };
        Some(keys)
    }

    /// Encrypts (with `DECRYPT`, decrypts) one block in place.
    pub(super) fn crypt_block<const DECRYPT: bool>(&self, block: &mut [u8; 16]) {
        // SAFETY: `self` exists, so `new` saw AES-NI on this CPU.
        unsafe { crypt_one::<DECRYPT>(self.keys::<DECRYPT>(), self.rounds, block) }
    }

    /// Block `i` of `data` (whole blocks only) becomes
    /// `E(block ^ mask(i)) ^ mask(i)`, or `D`, eight blocks per step.
    pub(super) fn crypt_blocks<const DECRYPT: bool>(
        &self,
        data: &mut [u8],
        mask: impl Fn(usize) -> u128,
    ) {
        let (blocks, _) = data.as_chunks_mut::<16>();
        // SAFETY: `self` exists, so `new` saw AES-NI on this CPU.
        unsafe { crypt_many::<DECRYPT>(self.keys::<DECRYPT>(), self.rounds, blocks, mask) }
    }

    /// Overwrites both schedules with zeros.
    pub(super) fn wipe(&mut self) {
        zeroize(self.enc.as_flattened_mut());
        zeroize(self.dec.as_flattened_mut());
    }

    fn keys<const DECRYPT: bool>(&self) -> &RoundKeys {
        if DECRYPT {
            &self.dec
        } else {
            &self.enc
        }
    }
}

#[inline(always)]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, `_mm_loadu_si128` needs no
    // alignment, and SSE2 is part of x86-64.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(block: &mut [u8; 16], x: __m128i) {
    // SAFETY: `block` is 16 writable bytes, `_mm_storeu_si128` needs no
    // alignment, and SSE2 is part of x86-64.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), x) }
}

/// A mask in the byte order `load` gives (little-endian).
#[inline]
#[target_feature(enable = "sse2")]
fn from_u128(x: u128) -> __m128i {
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn round<const DECRYPT: bool>(x: __m128i, key: __m128i) -> __m128i {
    if DECRYPT {
        _mm_aesdec_si128(x, key)
    } else {
        _mm_aesenc_si128(x, key)
    }
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn last_round<const DECRYPT: bool>(x: __m128i, key: __m128i) -> __m128i {
    if DECRYPT {
        _mm_aesdeclast_si128(x, key)
    } else {
        _mm_aesenclast_si128(x, key)
    }
}

/// The decryption schedule: the encryption keys in reverse order, the
/// inner ones through InvMixColumns. Needs AES-NI.
#[target_feature(enable = "aes,sse2")]
fn invert(enc: &RoundKeys, rounds: usize, dec: &mut RoundKeys) {
    for (r, out) in dec[..=rounds].iter_mut().enumerate() {
        let key = load(&enc[rounds - r]);
        let inner = r != 0 && r != rounds;
        store(out, if inner { _mm_aesimc_si128(key) } else { key });
    }
}

/// One block through `rounds` rounds. Needs AES-NI.
#[target_feature(enable = "aes,sse2")]
fn crypt_one<const DECRYPT: bool>(keys: &RoundKeys, rounds: usize, block: &mut [u8; 16]) {
    let mut x = _mm_xor_si128(load(block), load(&keys[0]));
    for key in &keys[1..rounds] {
        x = round::<DECRYPT>(x, load(key));
    }
    store(block, last_round::<DECRYPT>(x, load(&keys[rounds])));
}

/// Whole blocks with their masks, [`LANES`] interleaved per step and
/// any remainder one at a time. Needs AES-NI.
#[target_feature(enable = "aes,sse2")]
fn crypt_many<const DECRYPT: bool>(
    keys: &RoundKeys,
    rounds: usize,
    blocks: &mut [[u8; 16]],
    mask: impl Fn(usize) -> u128,
) {
    let rk: [__m128i; MAX_ROUND_KEYS] = std::array::from_fn(|r| load(&keys[r]));
    let (first, middle, last) = (rk[0], &rk[1..rounds], rk[rounds]);
    let count = blocks.len();
    let mut groups = blocks.chunks_exact_mut(LANES);
    for (g, group) in groups.by_ref().enumerate() {
        let masks: [__m128i; LANES] = std::array::from_fn(|i| from_u128(mask(LANES * g + i)));
        let mut s: [__m128i; LANES] =
            std::array::from_fn(|i| _mm_xor_si128(load(&group[i]), _mm_xor_si128(masks[i], first)));
        for &key in middle {
            for x in &mut s {
                *x = round::<DECRYPT>(*x, key);
            }
        }
        for ((block, x), m) in group.iter_mut().zip(s).zip(masks) {
            store(block, _mm_xor_si128(last_round::<DECRYPT>(x, last), m));
        }
    }
    let tail = groups.into_remainder();
    let base = count - tail.len();
    for (i, block) in tail.iter_mut().enumerate() {
        let m = from_u128(mask(base + i));
        let mut x = _mm_xor_si128(load(block), _mm_xor_si128(m, first));
        for &key in middle {
            x = round::<DECRYPT>(x, key);
        }
        store(block, _mm_xor_si128(last_round::<DECRYPT>(x, last), m));
    }
}
