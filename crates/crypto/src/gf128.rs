//! Arithmetic in GF(2^128), in the three bit/byte conventions used by
//! the modes in this crate.
//!
//! Three different standards, three different conventions:
//!
//! - **XTS** (IEEE 1619): the 16-byte tweak is a little-endian 128-bit
//!   value; multiplying by the primitive element α is a left shift with
//!   the reduction polynomial x^128 + x^7 + x^2 + x + 1 feeding back
//!   into the *lowest* byte ([`xts_mul_alpha`]).
//! - **GCM** (NIST SP 800-38D): bits within bytes are *reflected*;
//!   multiplication is defined MSB-first with the reduction constant
//!   `0xE1` at the *top* byte ([`ghash_mul`]).
//! - **EME / EME2** (IEEE 1619.2 family): blocks are big-endian 128-bit
//!   values; "multiply by 2" shifts left with `0x87` feeding back into
//!   the *lowest* byte when the top bit overflows ([`be_double`]).

/// A 16-byte GF(2^128) element in raw byte form.
pub type Block = [u8; 16];

/// Multiplies an XTS tweak by the primitive element α (x), in place.
///
/// This is the per-block tweak update of IEEE 1619: interpret the
/// 16 bytes as a little-endian 128-bit integer, shift left by one, and
/// on carry XOR `0x87` into byte 0.
///
/// # Example
///
/// ```
/// use vdisk_crypto::gf128::xts_mul_alpha;
/// let mut t = [0u8; 16];
/// t[0] = 0x80;
/// xts_mul_alpha(&mut t);
/// assert_eq!(t[1], 0x01); // the bit carried into the next byte
/// ```
pub fn xts_mul_alpha(tweak: &mut Block) {
    *tweak = xts_double(u128::from_le_bytes(*tweak)).to_le_bytes();
}

/// The same doubling on the tweak as a little-endian `u128`, without
/// a branch on the carried-out bit: the reduction constant is ANDed
/// with an all-ones or all-zeros word made from it.
#[inline]
#[must_use]
pub fn xts_double(t: u128) -> u128 {
    (t << 1) ^ (0x87 & 0u128.wrapping_sub(t >> 127))
}

/// GHASH multiplication `x * y` in GCM's reflected-bit convention.
///
/// Bit i of the specification maps to bit `7 - (i % 8)` of byte `i / 8`.
/// This is the straightforward (slow, constant-time-ish) bitwise
/// algorithm from SP 800-38D §6.3; GCM performance is not the point of
/// this reproduction.
#[must_use]
pub fn ghash_mul(x: &Block, y: &Block) -> Block {
    let mut z = [0u8; 16];
    let mut v = *y;
    for i in 0..128 {
        let xi = (x[i / 8] >> (7 - (i % 8))) & 1;
        if xi == 1 {
            for (zb, vb) in z.iter_mut().zip(v.iter()) {
                *zb ^= vb;
            }
        }
        // v = v >> 1 (in reflected convention), reduce with R = 0xE1...
        let lsb = v[15] & 1;
        for j in (1..16).rev() {
            v[j] = (v[j] >> 1) | ((v[j - 1] & 1) << 7);
        }
        v[0] >>= 1;
        if lsb == 1 {
            v[0] ^= 0xe1;
        }
    }
    z
}

/// Doubles a big-endian GF(2^128) element (EME convention), in place.
///
/// Interpret the 16 bytes as a big-endian 128-bit integer, shift left by
/// one, and on carry XOR `0x87` into the lowest (last) byte — without a
/// branch on the carried-out bit, like [`xts_double`].
pub fn be_double(block: &mut Block) {
    let x = u128::from_be_bytes(*block);
    *block = ((x << 1) ^ (0x87 & 0u128.wrapping_sub(x >> 127))).to_be_bytes();
}

/// XORs two blocks, returning the result.
#[must_use]
pub fn xor_block(a: &Block, b: &Block) -> Block {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xts_alpha_shifts_left_le() {
        let mut t = [0u8; 16];
        t[0] = 1;
        xts_mul_alpha(&mut t);
        assert_eq!(t[0], 2);
        // 64 doublings move the bit to byte 8.
        for _ in 0..63 {
            xts_mul_alpha(&mut t);
        }
        assert_eq!(t[8], 1);
        assert!(t.iter().enumerate().all(|(i, &b)| b == 0 || i == 8));
    }

    #[test]
    fn xts_alpha_reduces_on_overflow() {
        let mut t = [0u8; 16];
        t[15] = 0x80; // top bit of the 128-bit LE value
        xts_mul_alpha(&mut t);
        // Shift overflows; result is the reduction polynomial.
        let mut expected = [0u8; 16];
        expected[0] = 0x87;
        assert_eq!(t, expected);
    }

    /// The branch-free `u128` step against the byte-wise doubling it
    /// replaced, chained so every carry pattern of a long run occurs.
    #[test]
    fn xts_double_matches_bytewise_reference_over_a_long_chain() {
        let mut bytes = [0u8; 16];
        crate::rng::SeededRng::new(0x1619).fill_bytes(&mut bytes);
        let mut word = u128::from_le_bytes(bytes);
        for step in 0..10_000 {
            crate::reference::xts_mul_alpha(&mut bytes);
            word = xts_double(word);
            assert_eq!(word.to_le_bytes(), bytes, "diverged at doubling {step}");
        }
    }

    #[test]
    fn ghash_identity_element() {
        // In GCM's reflected convention the multiplicative identity is
        // the block with only the first (reflected) bit set: 0x80 00...
        let mut one = [0u8; 16];
        one[0] = 0x80;
        let x = [0x3Bu8; 16];
        assert_eq!(ghash_mul(&x, &one), x);
        assert_eq!(ghash_mul(&one, &x), x);
    }

    #[test]
    fn ghash_zero_annihilates() {
        let zero = [0u8; 16];
        let x = [0x77u8; 16];
        assert_eq!(ghash_mul(&x, &zero), zero);
        assert_eq!(ghash_mul(&zero, &x), zero);
    }

    #[test]
    fn ghash_commutes() {
        let a = {
            let mut t = [0u8; 16];
            t[3] = 0x12;
            t[9] = 0xF0;
            t
        };
        let b = {
            let mut t = [0u8; 16];
            t[0] = 0x01;
            t[15] = 0x80;
            t
        };
        assert_eq!(ghash_mul(&a, &b), ghash_mul(&b, &a));
    }

    #[test]
    fn ghash_distributes_over_xor() {
        let a = [0x13u8; 16];
        let b = {
            let mut t = [0u8; 16];
            t[5] = 0x44;
            t
        };
        let c = {
            let mut t = [0u8; 16];
            t[11] = 0x0F;
            t
        };
        let left = ghash_mul(&xor_block(&a, &b), &c);
        let right = xor_block(&ghash_mul(&a, &c), &ghash_mul(&b, &c));
        assert_eq!(left, right);
    }

    #[test]
    fn be_double_shifts_and_reduces() {
        let mut b = [0u8; 16];
        b[15] = 0x01;
        be_double(&mut b);
        assert_eq!(b[15], 0x02);

        let mut b = [0u8; 16];
        b[0] = 0x80;
        be_double(&mut b);
        let mut expected = [0u8; 16];
        expected[15] = 0x87;
        assert_eq!(b, expected);
    }

    /// The branch-free doubling against the byte-wise one it replaced,
    /// chained so every carry pattern of a long run occurs.
    #[test]
    fn be_double_matches_bytewise_reference_over_a_long_chain() {
        let mut reference = [0u8; 16];
        crate::rng::SeededRng::new(0xe2e2).fill_bytes(&mut reference);
        let mut ours = reference;
        for step in 0..10_000 {
            crate::reference::be_double(&mut reference);
            be_double(&mut ours);
            assert_eq!(ours, reference, "diverged at doubling {step}");
        }
    }

    #[test]
    fn be_double_is_linear() {
        let a = [0x5Au8; 16];
        let b = [0xC3u8; 16];
        let mut da = a;
        be_double(&mut da);
        let mut db = b;
        be_double(&mut db);
        let mut dab = xor_block(&a, &b);
        be_double(&mut dab);
        assert_eq!(dab, xor_block(&da, &db));
    }
}
