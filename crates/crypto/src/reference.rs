//! The oracle: the byte-at-a-time, table-driven AES, the byte-wise XTS
//! and the branching GF(2^128) doublings this crate shipped before the
//! constant-time kernels (bitsliced and AES-NI), kept under
//! `cfg(test)` so every fast path is pinned to the slow one it
//! replaced (`tests/proptests.rs` includes this file by path).
//!
//! It indexes tables by secret bytes and branches on them — which is
//! why it no longer ships — and it knows nothing of the rest of the
//! crate: bad key lengths simply panic.

// Two test crates compile this file and each uses a part of it.
#![allow(dead_code)]

use std::sync::OnceLock;

/// The AES S-box (FIPS 197 figure 7).
pub const SBOX: [u8; 256] = [
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

pub fn inv_sbox() -> &'static [u8; 256] {
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
pub fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in AES's GF(2^8).
#[inline]
pub fn gmul(mut a: u8, mut b: u8) -> u8 {
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

/// The reference AES key schedule (FIPS 197 round keys, as bytes).
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    /// Expands a 16- or 32-byte key; panics on any other length.
    pub fn new(key: &[u8]) -> Self {
        let nk = key.len() / 4; // words in key
        let nr = match key.len() {
            16 => 10,
            32 => 14,
            got => panic!("reference AES takes 16 or 32 key bytes, got {got}"),
        };
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
        Aes { round_keys }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.round_keys.len() - 1;
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
        let nr = self.round_keys.len() - 1;
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
}

#[inline]
pub fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
pub fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
pub fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

// State layout: state[4*c + r] is row r, column c. Row r consists of
// indices r, r+4, r+8, r+12. ShiftRows rotates row r left by r.
#[inline]
pub fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
pub fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

#[inline]
pub fn mix_columns(state: &mut [u8; 16]) {
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
pub fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let (s0, s1, s2, s3) = (col[0], col[1], col[2], col[3]);
        col[0] = gmul(s0, 14) ^ gmul(s1, 11) ^ gmul(s2, 13) ^ gmul(s3, 9);
        col[1] = gmul(s0, 9) ^ gmul(s1, 14) ^ gmul(s2, 11) ^ gmul(s3, 13);
        col[2] = gmul(s0, 13) ^ gmul(s1, 9) ^ gmul(s2, 14) ^ gmul(s3, 11);
        col[3] = gmul(s0, 11) ^ gmul(s1, 13) ^ gmul(s2, 9) ^ gmul(s3, 14);
    }
}

/// The byte-wise XTS tweak doubling (IEEE 1619): shift the
/// little-endian 128-bit value left by one, on carry XOR `0x87` into
/// byte 0.
pub fn xts_mul_alpha(tweak: &mut [u8; 16]) {
    let mut carry = 0u8;
    for byte in tweak.iter_mut() {
        let next_carry = *byte >> 7;
        *byte = (*byte << 1) | carry;
        carry = next_carry;
    }
    if carry != 0 {
        tweak[0] ^= 0x87;
    }
}

/// The byte-wise EME2 doubling: shift the big-endian 128-bit value
/// left by one, on carry XOR `0x87` into the last byte.
pub fn be_double(block: &mut [u8; 16]) {
    let carry = block[0] >> 7;
    for i in 0..15 {
        block[i] = (block[i] << 1) | (block[i + 1] >> 7);
    }
    block[15] <<= 1;
    if carry != 0 {
        block[15] ^= 0x87;
    }
}

/// The reference XTS: two reference AES keys, one block at a time.
pub struct XtsCipher {
    data_cipher: Aes,
    tweak_cipher: Aes,
}

impl XtsCipher {
    /// K1 || K2, 32 or 64 bytes; panics on any other length.
    pub fn new(key: &[u8]) -> Self {
        let half = key.len() / 2;
        XtsCipher {
            data_cipher: Aes::new(&key[..half]),
            tweak_cipher: Aes::new(&key[half..]),
        }
    }

    /// Encrypts one sector in place; panics below 16 bytes.
    pub fn encrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) {
        self.process_sector(tweak, data, Direction::Encrypt)
    }

    /// Decrypts one sector in place; panics below 16 bytes.
    pub fn decrypt_sector(&self, tweak: &[u8; 16], data: &mut [u8]) {
        self.process_sector(tweak, data, Direction::Decrypt)
    }

    fn process_sector(&self, tweak: &[u8; 16], data: &mut [u8], dir: Direction) {
        assert!(data.len() >= 16, "reference XTS needs one whole block");
        // T_0 = AES_enc(K2, tweak); T_{j+1} = T_j * alpha.
        let mut t = *tweak;
        self.tweak_cipher.encrypt_block(&mut t);

        let full_blocks = data.len() / 16;
        let tail = data.len() % 16;

        if tail == 0 {
            for j in 0..full_blocks {
                self.xts_block(&t, &mut data[16 * j..16 * j + 16], dir);
                xts_mul_alpha(&mut t);
            }
            return;
        }

        // Ciphertext stealing: process all but the last full block
        // normally, then swap-and-steal across the final partial block.
        for j in 0..full_blocks - 1 {
            self.xts_block(&t, &mut data[16 * j..16 * j + 16], dir);
            xts_mul_alpha(&mut t);
        }
        let t_second_last = t;
        let mut t_last = t;
        xts_mul_alpha(&mut t_last);

        let last_full_start = 16 * (full_blocks - 1);
        let partial_start = 16 * full_blocks;

        match dir {
            Direction::Encrypt => {
                // CC = Enc(T_{m-1}, P_{m-1})
                let mut cc = [0u8; 16];
                cc.copy_from_slice(&data[last_full_start..last_full_start + 16]);
                self.xts_block_owned(&t_second_last, &mut cc, dir);
                // C_m (partial) = first `tail` bytes of CC;
                // final full block = Enc(T_m, P_m || tail of CC).
                let mut last = [0u8; 16];
                last[..tail].copy_from_slice(&data[partial_start..]);
                last[tail..].copy_from_slice(&cc[tail..]);
                self.xts_block_owned(&t_last, &mut last, dir);
                data[last_full_start..last_full_start + 16].copy_from_slice(&last);
                data[partial_start..].copy_from_slice(&cc[..tail]);
            }
            Direction::Decrypt => {
                // PP = Dec(T_m, C_{m-1})
                let mut pp = [0u8; 16];
                pp.copy_from_slice(&data[last_full_start..last_full_start + 16]);
                self.xts_block_owned(&t_last, &mut pp, dir);
                // P_m (partial) = first `tail` bytes of PP;
                // final full block = Dec(T_{m-1}, C_m || tail of PP).
                let mut last = [0u8; 16];
                last[..tail].copy_from_slice(&data[partial_start..]);
                last[tail..].copy_from_slice(&pp[tail..]);
                self.xts_block_owned(&t_second_last, &mut last, dir);
                data[last_full_start..last_full_start + 16].copy_from_slice(&last);
                data[partial_start..].copy_from_slice(&pp[..tail]);
            }
        }
    }

    #[inline]
    fn xts_block(&self, t: &[u8; 16], block: &mut [u8], dir: Direction) {
        let mut b = [0u8; 16];
        b.copy_from_slice(block);
        self.xts_block_owned(t, &mut b, dir);
        block.copy_from_slice(&b);
    }

    #[inline]
    fn xts_block_owned(&self, t: &[u8; 16], block: &mut [u8; 16], dir: Direction) {
        for i in 0..16 {
            block[i] ^= t[i];
        }
        match dir {
            Direction::Encrypt => self.data_cipher.encrypt_block(block),
            Direction::Decrypt => self.data_cipher.decrypt_block(block),
        }
        for i in 0..16 {
            block[i] ^= t[i];
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Encrypt,
    Decrypt,
}
