//! The AES S-box as a Boolean circuit over words of independent bit
//! lanes.
//!
//! A *plane* is a word whose bit `i` belongs to lane `i`; a byte per
//! lane is eight planes, `x[b]` holding bit `b` (LSB = 0) of every
//! lane's byte. The circuit is the 113-gate straight-line program of
//! Boyar and Peralta ("A new combinational logic minimization
//! technique with applications to cryptology", 2009): a linear top
//! layer, the GF(2^8) inversion in a GF(2^4) tower (the only
//! non-linear part, 32 ANDs), a linear bottom layer. It contains no
//! lookup, index or branch, so what it costs cannot depend on the
//! bytes it substitutes.
//!
//! Both directions run the *same* non-linear [`middle`]. With
//! `S(x) = M·inv(x) ^ 0x63` for the affine matrix `M`, and the forward
//! layers `U` (top) and `B` (bottom) satisfying `M·inv(x) = B·F(U·x)`,
//! the inverse is `S^-1(y) = M^-1·B·F(U·M^-1·(y ^ 0x63))`: other
//! linear layers around one inversion.
//!
//! Both functions leave out the affine constant: [`sub`] computes
//! `S(x) ^ 0x63`, and [`inv_sub`] expects `y ^ 0x63` and returns
//! `S^-1(y)`. The key schedule folds the constant into round keys
//! 1..=Nr (see [`super::Aes`]), which removes every NOT from the
//! round function.

use std::ops::{BitAnd, BitXor};

/// A word of independent one-bit lanes.
pub(crate) trait Word: Copy + BitXor<Output = Self> + BitAnd<Output = Self> {}

impl<T: Copy + BitXor<Output = T> + BitAnd<Output = T>> Word for T {}

/// `S(x) ^ 0x63` on every lane.
#[inline(always)]
pub(crate) fn sub<W: Word>(x: [W; 8]) -> [W; 8] {
    bottom(middle(top(x)))
}

/// `S^-1(y)` on every lane, given `y ^ 0x63`.
#[inline(always)]
pub(crate) fn inv_sub<W: Word>(y: [W; 8]) -> [W; 8] {
    inv_bottom(middle(inv_top(y)))
}

/// `U`: the 22 linear forms of the input the inversion consumes.
#[inline(always)]
fn top<W: Word>(x: [W; 8]) -> [W; 22] {
    // Boyar–Peralta number their wires from the high bit down.
    let [x7, x6, x5, x4, x3, x2, x1, x0] = x;
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;
    [
        x7, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19,
        y20, y21,
    ]
}

/// `F`: inversion in GF(2^8) through GF(2^4), as 18 products whose
/// XOR combinations are the bits of the inverse.
#[inline(always)]
fn middle<W: Word>(y: [W; 22]) -> [W; 18] {
    let [x7, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19, y20, y21] =
        y;
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;
    [
        z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17,
    ]
}

/// `B`, without the four XNORs that would add `0x63`.
#[inline(always)]
fn bottom<W: Word>(z: [W; 18]) -> [W; 8] {
    let [z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17] = z;
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ t62;
    let s7 = t48 ^ t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ s3;
    let s2 = t55 ^ t67;
    [s7, s6, s5, s4, s3, s2, s1, s0]
}

/// `U·M^-1` as a straight-line program: 29 XORs found by a
/// cancellation-free greedy search (Paar) over the matrix product,
/// against 23 + 13 for applying `M^-1` and `U` one after the other.
#[inline(always)]
fn inv_top<W: Word>(y: [W; 8]) -> [W; 22] {
    let [y0, y1, y2, y3, y4, y5, y6, y7] = y;
    let a0 = y4 ^ y6;
    let a1 = y0 ^ y1;
    let a2 = y3 ^ y4;
    let a3 = y3 ^ y6;
    let a4 = a0 ^ a1;
    let a5 = y2 ^ y7;
    let a6 = y6 ^ y7;
    let a7 = y5 ^ a0;
    let a8 = a1 ^ a3;
    let a9 = y7 ^ a0;
    let a10 = y1 ^ a3;
    let a11 = y7 ^ a3;
    let a12 = y3 ^ a9;
    let a13 = y5 ^ a4;
    let a14 = y5 ^ a2;
    let a15 = y0 ^ a7;
    let a16 = y5 ^ a10;
    let a17 = a1 ^ a6;
    let a18 = y0 ^ y3;
    let a19 = y1 ^ a2;
    let a20 = y2 ^ a19;
    let a21 = y0 ^ a11;
    let a22 = y5 ^ a5;
    let a23 = a5 ^ a8;
    let a24 = y0 ^ a2;
    let a25 = y4 ^ y7;
    let a26 = a4 ^ a5;
    let a27 = a1 ^ a2;
    let a28 = y2 ^ a7;
    [
        a22, a24, a8, a25, a4, a0, a9, a13, a6, a2, a21, a26, a17, a27, a12, a28, a16, a20, a14,
        a18, a23, a15,
    ]
}

/// `M^-1·B`, found the same way: 35 XORs against 30 + 13.
#[inline(always)]
fn inv_bottom<W: Word>(z: [W; 18]) -> [W; 8] {
    let [z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17] = z;
    let b0 = z6 ^ z15;
    let b1 = z13 ^ b0;
    let b2 = z12 ^ z16;
    let b3 = b1 ^ b2;
    let b4 = z1 ^ z8;
    let b5 = z3 ^ z4;
    let b6 = z2 ^ z10;
    let b7 = b4 ^ b5;
    let b8 = z11 ^ z17;
    let b9 = z0 ^ z5;
    let b10 = b6 ^ b7;
    let b11 = z4 ^ b9;
    let b12 = z8 ^ b3;
    let b13 = z14 ^ b10;
    let b14 = b3 ^ b5;
    let b15 = z17 ^ b1;
    let b16 = z11 ^ b0;
    let b17 = z5 ^ b12;
    let b18 = b1 ^ b8;
    let b19 = b11 ^ b18;
    let b20 = z7 ^ z12;
    let b21 = b4 ^ b11;
    let b22 = b13 ^ b16;
    let b23 = z0 ^ z2;
    let b24 = b19 ^ b20;
    let b25 = b2 ^ b22;
    let b26 = z3 ^ b17;
    let b27 = b6 ^ b24;
    let b28 = z9 ^ b8;
    let b29 = b3 ^ b21;
    let b30 = z9 ^ b15;
    let b31 = z15 ^ b28;
    let b32 = b12 ^ b23;
    let b33 = b13 ^ b30;
    let b34 = z7 ^ b14;
    [b31, b34, b29, b27, b32, b25, b33, b26]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{inv_sbox, SBOX};

    /// Bit planes of the 64 byte values `64·chunk ..`, one per lane.
    fn planes_of(values: impl Fn(usize) -> u8) -> [u64; 8] {
        std::array::from_fn(|b| (0..64).fold(0, |p, i| p | (u64::from(values(i) >> b & 1) << i)))
    }

    fn lane(planes: &[u64; 8], i: usize) -> u8 {
        (0..8).fold(0, |v, b| v | (((planes[b] >> i) & 1) as u8) << b)
    }

    /// Every one of the 256 inputs, both directions, against the table.
    #[test]
    fn circuit_matches_the_table_on_all_256_inputs() {
        for chunk in 0..4 {
            let value = |i: usize| (64 * chunk + i) as u8;
            let forward = sub(planes_of(value));
            let inverse = inv_sub(planes_of(|i| value(i) ^ 0x63));
            for i in 0..64 {
                let v = value(i);
                assert_eq!(lane(&forward, i) ^ 0x63, SBOX[v as usize], "S({v:#04x})");
                assert_eq!(lane(&inverse, i), inv_sbox()[v as usize], "S^-1({v:#04x})");
            }
        }
    }
}
