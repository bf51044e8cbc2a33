//! One block through the S-box circuit: eight `u16` planes whose
//! lanes are the block's 16 bytes (lane `4c + r` = row `r`, column
//! `c`, the FIPS byte order).
//!
//! This is the path every *serial* caller takes — the XTS tweak
//! block and stealing tail, GCM's `H` and `E(J0)`, EME2's middle
//! block — and what the key schedule's SubWord runs on. ShiftRows and
//! the MixColumns row rotations are shifts and masks on lane positions
//! here; only the S-box is shared with the wide path.

use super::circuit::{inv_sub, sub};

/// A block as eight bit planes of 16 byte lanes.
pub(crate) type Planes = [u16; 8];

/// A round key in plane form, kept as bytes so [`crate::mem::zeroize`]
/// can wipe it: plane `b` is the little-endian `u16` at bytes
/// `2b, 2b + 1`.
pub(crate) type RoundKey = [u8; 16];

/// Planes to the stored round-key form.
#[inline(always)]
pub(crate) fn to_round_key(p: &Planes) -> RoundKey {
    let mut k = [0u8; 16];
    for (pair, plane) in k.chunks_exact_mut(2).zip(p) {
        pair.copy_from_slice(&plane.to_le_bytes());
    }
    k
}

/// Bit `bit` of the key byte in lane `lane`, as 0 or 1.
#[inline(always)]
pub(crate) fn key_bit(k: &RoundKey, lane: usize, bit: usize) -> u8 {
    (k[2 * bit + (lane >> 3)] >> (lane & 7)) & 1
}

/// Transposes the 8×8 bit matrix held in a `u64` (byte `i` = row `i`).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^ t ^ (t << 28)
}

/// Bytes to planes.
#[inline(always)]
pub(crate) fn pack(block: &[u8; 16]) -> Planes {
    let x = u128::from_le_bytes(*block);
    let lo = transpose8(x as u64).to_le_bytes();
    let hi = transpose8((x >> 64) as u64).to_le_bytes();
    std::array::from_fn(|b| u16::from_le_bytes([lo[b], hi[b]]))
}

/// Planes to bytes.
#[inline(always)]
pub(crate) fn unpack(p: &Planes) -> [u8; 16] {
    let lo = u64::from_le_bytes(p.map(|plane| plane as u8));
    let hi = u64::from_le_bytes(p.map(|plane| (plane >> 8) as u8));
    let x = u128::from(transpose8(lo)) | (u128::from(transpose8(hi)) << 64);
    x.to_le_bytes()
}

#[inline(always)]
fn xor(s: &mut Planes, k: &Planes) {
    for (s, k) in s.iter_mut().zip(k) {
        *s ^= k;
    }
}

#[inline(always)]
fn add_round_key(s: &mut Planes, k: &RoundKey) {
    for (s, pair) in s.iter_mut().zip(k.chunks_exact(2)) {
        *s ^= u16::from_le_bytes([pair[0], pair[1]]);
    }
}

/// Row `r` lives in lanes `r, r+4, r+8, r+12`; rotating it left by
/// `r` columns is a rotation of the plane by `4r` confined to them.
#[inline(always)]
fn shift_rows(s: &mut Planes) {
    for x in s {
        *x = (*x & 0x1111)
            | (x.rotate_right(4) & 0x2222)
            | (x.rotate_right(8) & 0x4444)
            | (x.rotate_right(12) & 0x8888);
    }
}

#[inline(always)]
fn inv_shift_rows(s: &mut Planes) {
    for x in s {
        *x = (*x & 0x1111)
            | (x.rotate_left(4) & 0x2222)
            | (x.rotate_left(8) & 0x4444)
            | (x.rotate_left(12) & 0x8888);
    }
}

/// Brings row `r + 1` of every column to row `r`.
#[inline(always)]
fn rows_up(x: u16) -> u16 {
    ((x >> 1) & 0x7777) | ((x << 3) & 0x8888)
}

/// Brings row `r + 2` of every column to row `r`.
#[inline(always)]
fn rows_up2(x: u16) -> u16 {
    ((x >> 2) & 0x3333) | ((x << 2) & 0xcccc)
}

/// Multiplies every lane's byte by `x` in GF(2^8).
#[inline(always)]
fn xtime(a: &Planes) -> Planes {
    let [a0, a1, a2, a3, a4, a5, a6, a7] = *a;
    [a7, a0 ^ a7, a1, a2 ^ a7, a3 ^ a7, a4, a5, a6]
}

/// `out[r] = 2·(s[r] ^ s[r+1]) ^ s[r+1] ^ s[r+2] ^ s[r+3]`.
#[inline(always)]
fn mix_columns(s: &mut Planes) {
    let up = s.map(rows_up);
    let t: Planes = std::array::from_fn(|b| s[b] ^ up[b]);
    let doubled = xtime(&t);
    for b in 0..8 {
        s[b] = doubled[b] ^ up[b] ^ rows_up2(t[b]);
    }
}

/// InvMixColumns = MixColumns after multiplying the column by
/// `(5, 0, 4, 0)`: `s[r] ^= 4·(s[r] ^ s[r+2])`.
#[inline(always)]
fn inv_mix_columns(s: &mut Planes) {
    let u: Planes = std::array::from_fn(|b| s[b] ^ rows_up2(s[b]));
    xor(s, &xtime(&xtime(&u)));
    mix_columns(s);
}

/// Encrypts one block under a plane-form schedule (`keys.len()` is
/// `Nr + 1`; keys 1.. carry the folded `0x63`).
pub(crate) fn encrypt(keys: &[RoundKey], block: &mut [u8; 16]) {
    let (first, rest) = keys.split_first().expect("schedule has Nr + 1 >= 11 keys");
    let (last, middle) = rest.split_last().expect("schedule has Nr + 1 >= 11 keys");
    let mut s = pack(block);
    add_round_key(&mut s, first);
    for k in middle {
        s = sub(s);
        shift_rows(&mut s);
        mix_columns(&mut s);
        add_round_key(&mut s, k);
    }
    s = sub(s);
    shift_rows(&mut s);
    add_round_key(&mut s, last);
    *block = unpack(&s);
}

/// Decrypts one block under the same schedule.
pub(crate) fn decrypt(keys: &[RoundKey], block: &mut [u8; 16]) {
    let (first, rest) = keys.split_first().expect("schedule has Nr + 1 >= 11 keys");
    let (last, middle) = rest.split_last().expect("schedule has Nr + 1 >= 11 keys");
    let mut s = pack(block);
    add_round_key(&mut s, last);
    for k in middle.iter().rev() {
        inv_shift_rows(&mut s);
        s = inv_sub(s);
        add_round_key(&mut s, k);
        inv_mix_columns(&mut s);
    }
    inv_shift_rows(&mut s);
    s = inv_sub(s);
    add_round_key(&mut s, first);
    *block = unpack(&s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_puts_bit_b_of_byte_i_in_lane_i_of_plane_b() {
        let block: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(0x9d) ^ 0x3a);
        let planes = pack(&block);
        for (b, plane) in planes.iter().enumerate() {
            for (i, byte) in block.iter().enumerate() {
                assert_eq!(
                    (plane >> i) & 1,
                    u16::from(byte >> b & 1),
                    "byte {i} bit {b}"
                );
            }
        }
        assert_eq!(unpack(&planes), block);
    }

    #[test]
    fn round_key_form_round_trips_and_key_bit_reads_it() {
        let key: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(0x4f) ^ 0xc1);
        let stored = to_round_key(&pack(&key));
        for (lane, byte) in key.iter().enumerate() {
            for bit in 0..8 {
                assert_eq!(key_bit(&stored, lane, bit), byte >> bit & 1);
            }
        }
    }

    /// The lane-position forms of the linear layer against the
    /// byte-wise reference round functions.
    #[test]
    fn linear_layers_match_the_reference() {
        use crate::reference;
        let block: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(0x6b) ^ 0x17);
        type Pair = (fn(&mut Planes), fn(&mut [u8; 16]));
        let pairs: [Pair; 4] = [
            (shift_rows, reference::shift_rows),
            (inv_shift_rows, reference::inv_shift_rows),
            (mix_columns, reference::mix_columns),
            (inv_mix_columns, reference::inv_mix_columns),
        ];
        for (ours, theirs) in pairs {
            let mut planes = pack(&block);
            let mut bytes = block;
            ours(&mut planes);
            theirs(&mut bytes);
            assert_eq!(unpack(&planes), bytes);
        }
    }
}
