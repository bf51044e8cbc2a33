//! Many blocks through the S-box circuit at once: 128 bit planes, one
//! per bit of the AES state, whose lanes are *independent blocks*.
//!
//! Plane `8p + b` holds bit `b` of state byte `p` (`p = 4c + r`) of
//! every block, so a gate on a plane is that gate on [`BLOCKS`] blocks.
//! In this layout ShiftRows moves no data — the rounds keep count of
//! how many row rotations have happened and *rename* byte positions
//! accordingly ([`at`]) — MixColumns and InvMixColumns are XORs
//! between planes, and AddRoundKey XORs an all-zeros or all-ones word
//! computed arithmetically from the round-key bit. Nothing here looks
//! anything up, indexes or branches on key, tweak or data: every index
//! and loop bound derives from a length or a round counter, and
//! decryption runs the same circuit as encryption.
//!
//! Blocks enter and leave through 64×64 bit-matrix transposes; the
//! per-block whitening mask of the calling mode (the XTS tweak) is
//! XORed in on the way, so a mode costs no extra pass over the data.

use super::circuit::{inv_sub, sub};
use super::packed::{key_bit, RoundKey};
use std::ops::{BitAnd, BitXor};

/// Words per plane. Two: 128 bits is what a vector register holds on
/// every target's baseline (SSE2, NEON), so the ~30 values the S-box
/// circuit keeps live stay in registers. Four-word planes, one pass per
/// 4 KiB sector, spill them: a SubBytes pass over 4 KiB measured
/// 0.82 µs against 2 × 0.33 µs on the SSE2 host.
const WORDS: usize = 2;

/// Blocks per pass: the lanes of a plane.
pub(crate) const BLOCKS: usize = 64 * WORDS;

/// One bit plane: [`BLOCKS`] one-bit lanes.
#[derive(Clone, Copy)]
struct Lanes([u64; WORDS]);

impl BitXor for Lanes {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        Lanes(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl BitAnd for Lanes {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        Lanes(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

/// One state byte of every block: its eight bit planes.
type Byte = [Lanes; 8];

/// The AES state of [`BLOCKS`] blocks.
type State = [Lanes; 128];

/// Where state byte (row `r`, column `c`) is stored after `shifts`
/// ShiftRows (mod 4; an InvShiftRows counts as three): row `r` has
/// rotated `shifts · r` columns, so the byte sits in that column's
/// old place.
#[inline(always)]
fn at(r: usize, c: usize, shifts: usize) -> usize {
    4 * ((c + shifts * r) & 3) + r
}

/// Transposes a 64×64 bit matrix (`a[i]` bit `k` ↔ `a[k]` bit `i`) by
/// swapping ever smaller off-diagonal blocks.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        for base in (0..64).step_by(2 * j) {
            for k in base..base + j {
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Reads whole blocks, XORs `mask(i)` into block `i`, and transposes
/// them into planes. Lanes past the last block are zero.
fn load(data: &[u8], mask: impl Fn(usize) -> u128) -> State {
    let mut st = [Lanes([0u64; WORDS]); 128];
    for (w, group) in data.chunks(64 * 16).enumerate() {
        let mut lo = [0u64; 64];
        let mut hi = [0u64; 64];
        for (i, block) in group.chunks_exact(16).enumerate() {
            let block: [u8; 16] = block.try_into().expect("chunks_exact(16)");
            let x = u128::from_le_bytes(block) ^ mask(64 * w + i);
            lo[i] = x as u64;
            hi[i] = (x >> 64) as u64;
        }
        transpose64(&mut lo);
        transpose64(&mut hi);
        for k in 0..64 {
            st[k].0[w] = lo[k];
            st[64 + k].0[w] = hi[k];
        }
    }
    st
}

/// The inverse of [`load`] for a state that has seen `shifts`
/// ShiftRows: transposes back, XORs the masks again, writes as many
/// blocks as `data` holds.
fn store(st: &State, shifts: usize, data: &mut [u8], mask: impl Fn(usize) -> u128) {
    for (w, group) in data.chunks_mut(64 * 16).enumerate() {
        let mut lo = [0u64; 64];
        let mut hi = [0u64; 64];
        for c in 0..4 {
            for r in 0..4 {
                let from = 8 * at(r, c, shifts);
                let to = 8 * (4 * (c & 1) + r);
                let half = if c < 2 { &mut lo } else { &mut hi };
                for b in 0..8 {
                    half[to + b] = st[from + b].0[w];
                }
            }
        }
        transpose64(&mut lo);
        transpose64(&mut hi);
        for (i, block) in group.chunks_exact_mut(16).enumerate() {
            let x = (u128::from(lo[i]) | (u128::from(hi[i]) << 64)) ^ mask(64 * w + i);
            block.copy_from_slice(&x.to_le_bytes());
        }
    }
}

/// The round-key byte for state byte `lane`, spread over every block:
/// plane `b` is all ones where the key bit is set, made arithmetically
/// — the bit is never a condition or an index.
#[inline(always)]
fn key_byte(key: &RoundKey, lane: usize) -> Byte {
    std::array::from_fn(|b| Lanes([0u64.wrapping_sub(u64::from(key_bit(key, lane, b))); WORDS]))
}

#[inline(always)]
fn xor(a: &Byte, b: &Byte) -> Byte {
    std::array::from_fn(|i| a[i] ^ b[i])
}

#[inline(always)]
fn byte_at(st: &State, place: usize) -> Byte {
    std::array::from_fn(|b| st[place + b])
}

/// XORs the round key into every block.
fn add_round_key(st: &mut State, key: &RoundKey, shifts: usize) {
    for c in 0..4 {
        for r in 0..4 {
            let place = 8 * at(r, c, shifts);
            let keyed = xor(&byte_at(st, place), &key_byte(key, 4 * c + r));
            st[place..place + 8].copy_from_slice(&keyed);
        }
    }
}

fn sub_bytes<const INVERSE: bool>(st: &mut State) {
    for byte in st.chunks_exact_mut(8) {
        let x: Byte = (&*byte).try_into().expect("chunks_exact(8)");
        byte.copy_from_slice(&if INVERSE { inv_sub(x) } else { sub(x) });
    }
}

/// Multiplies every lane's byte by `x` in GF(2^8).
#[inline(always)]
fn xtime(a: &Byte) -> Byte {
    let [a0, a1, a2, a3, a4, a5, a6, a7] = *a;
    [a7, a0 ^ a7, a1, a2 ^ a7, a3 ^ a7, a4, a5, a6]
}

/// `s ^= 4·(s ^ s')` and `s' ^= 4·(s ^ s')` for the state bytes at
/// `p` and `q`: multiplying a column by `(5, 0, 4, 0)`, one row pair
/// at a time, turns MixColumns into InvMixColumns.
#[inline(always)]
fn premultiply(st: &mut State, p: usize, q: usize) {
    let [u0, u1, u2, u3, u4, u5, u6, u7] = xor(&byte_at(st, p), &byte_at(st, q));
    // 4·u: two doublings, reduced by x^8 = x^4 + x^3 + x + 1.
    let u67 = u6 ^ u7;
    let u4x = [u6, u67, u0 ^ u7, u1 ^ u6, u2 ^ u67, u3 ^ u7, u4, u5];
    for (b, &w) in u4x.iter().enumerate() {
        st[p + b] = st[p + b] ^ w;
        st[q + b] = st[q + b] ^ w;
    }
}

/// MixColumns (InvMixColumns when `INVERSE`) on each column in place:
/// `out[r] = 2·(s[r] ^ s[r+1]) ^ s[r+1] ^ s[r+2] ^ s[r+3]`.
fn mix_columns<const INVERSE: bool>(st: &mut State, shifts: usize) {
    for c in 0..4 {
        let [p0, p1, p2, p3]: [usize; 4] = std::array::from_fn(|r| 8 * at(r, c, shifts));
        if INVERSE {
            premultiply(st, p0, p2);
            premultiply(st, p1, p3);
        }
        let (s0, s1, s2, s3) = (
            byte_at(st, p0),
            byte_at(st, p1),
            byte_at(st, p2),
            byte_at(st, p3),
        );
        let (t0, t1, t2, t3) = (xor(&s0, &s1), xor(&s1, &s2), xor(&s2, &s3), xor(&s3, &s0));
        let (d0, d1, d2, d3) = (xtime(&t0), xtime(&t1), xtime(&t2), xtime(&t3));
        for b in 0..8 {
            st[p0 + b] = d0[b] ^ s1[b] ^ t2[b];
            st[p1 + b] = d1[b] ^ s2[b] ^ t3[b];
            st[p2 + b] = d2[b] ^ s3[b] ^ t0[b];
            st[p3 + b] = d3[b] ^ s0[b] ^ t1[b];
        }
    }
}

/// Encrypts (or, with `DECRYPT`, decrypts) up to [`BLOCKS`] whole
/// blocks of `data` in place under a plane-form schedule, with
/// `mask(i)` XORed into block `i` before and after the cipher.
pub(crate) fn crypt<const DECRYPT: bool>(
    keys: &[RoundKey],
    data: &mut [u8],
    mask: impl Fn(usize) -> u128 + Copy,
) {
    assert!(data.len().is_multiple_of(16) && data.len() <= 16 * BLOCKS);
    let (first, rest) = keys.split_first().expect("schedule has Nr + 1 >= 11 keys");
    let (last, middle) = rest.split_last().expect("schedule has Nr + 1 >= 11 keys");
    let mut st = load(data, mask);
    let mut shifts = 0;
    if DECRYPT {
        add_round_key(&mut st, last, shifts);
        for k in middle.iter().rev() {
            shifts = (shifts + 3) & 3;
            sub_bytes::<true>(&mut st);
            add_round_key(&mut st, k, shifts);
            mix_columns::<true>(&mut st, shifts);
        }
        shifts = (shifts + 3) & 3;
        sub_bytes::<true>(&mut st);
        add_round_key(&mut st, first, shifts);
    } else {
        add_round_key(&mut st, first, shifts);
        for k in middle {
            sub_bytes::<false>(&mut st);
            shifts = (shifts + 1) & 3;
            mix_columns::<false>(&mut st, shifts);
            add_round_key(&mut st, k, shifts);
        }
        sub_bytes::<false>(&mut st);
        shifts = (shifts + 1) & 3;
        add_round_key(&mut st, last, shifts);
    }
    store(&st, shifts, data, mask);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_is_the_bit_matrix_transpose() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let rows: [u64; 64] = std::array::from_fn(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        });
        let mut t = rows;
        transpose64(&mut t);
        for (i, row) in rows.iter().enumerate() {
            for (k, column) in t.iter().enumerate() {
                assert_eq!((row >> k) & 1, (column >> i) & 1, "row {i} bit {k}");
            }
        }
    }

    /// Plane `8p + b`, lane `i` is bit `b` of byte `p` of block `i`
    /// after the mask; `store` undoes `load`, including for a short
    /// run whose upper lanes stay zero.
    #[test]
    fn load_lays_out_planes_and_store_inverts_it() {
        for blocks in [BLOCKS, 70, 3] {
            let data: Vec<u8> = (0..16 * blocks).map(|i| (i * 31 + i / 7) as u8).collect();
            let mask =
                |i: usize| (i as u128).wrapping_mul(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978);
            let st = load(&data, mask);
            for i in 0..BLOCKS {
                let block: [u8; 16] = if i < blocks {
                    let block: [u8; 16] = data[16 * i..16 * i + 16].try_into().unwrap();
                    (u128::from_le_bytes(block) ^ mask(i)).to_le_bytes()
                } else {
                    [0; 16]
                };
                for (p, byte) in block.iter().enumerate() {
                    for b in 0..8 {
                        let bit = (st[8 * p + b].0[i / 64] >> (i % 64)) & 1;
                        assert_eq!(bit, u64::from(byte >> b & 1), "block {i} byte {p} bit {b}");
                    }
                }
            }
            let mut back = vec![0u8; data.len()];
            store(&st, 0, &mut back, mask);
            assert_eq!(back, data);
        }
    }
}
