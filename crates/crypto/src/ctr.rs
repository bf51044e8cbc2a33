//! AES-CTR keystream generation (NIST SP 800-38A), the confidentiality
//! half of GCM.

use crate::aes::{Aes, WIDE_BLOCKS};

/// Applies the CTR keystream generated from `initial_counter` to `data`
/// in place (encryption and decryption are the same operation).
///
/// The counter is the full 16-byte block; only the final 32 bits are
/// incremented (big-endian, wrapping), exactly as GCM requires. The
/// keystream is produced a wide pass of counter blocks at a time.
pub fn ctr_xor(aes: &Aes, initial_counter: &[u8; 16], data: &mut [u8]) {
    let mut counter = *initial_counter;
    let mut keystream = [0u8; 16 * WIDE_BLOCKS];
    for pass in data.chunks_mut(16 * WIDE_BLOCKS) {
        let keystream = &mut keystream[..16 * pass.len().div_ceil(16)];
        for block in keystream.chunks_exact_mut(16) {
            block.copy_from_slice(&counter);
            increment_counter(&mut counter);
        }
        aes.encrypt_blocks(keystream);
        for (d, k) in pass.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
    }
}

/// Increments the final 32 bits of the counter block (big-endian).
pub fn increment_counter(counter: &mut [u8; 16]) {
    let mut word = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
    word = word.wrapping_add(1);
    counter[12..16].copy_from_slice(&word.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::from_hex;

    #[test]
    fn ctr_round_trips() {
        let aes = Aes::new(&[9u8; 32]).unwrap();
        let counter = [1u8; 16];
        let mut data: Vec<u8> = (0..100).collect();
        let orig = data.clone();
        ctr_xor(&aes, &counter, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&aes, &counter, &mut data);
        assert_eq!(data, orig);
    }

    /// NIST SP 800-38A F.5.1 (AES-128-CTR).
    #[test]
    fn sp800_38a_f51() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let mut counter = [0u8; 16];
        counter.copy_from_slice(&from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").unwrap());
        for (name, new) in crate::aes::BACKENDS {
            let aes = new(&key).unwrap();
            let mut data = from_hex("6bc1bee22e409f96e93d7e117393172a").unwrap();
            ctr_xor(&aes, &counter, &mut data);
            assert_eq!(
                data,
                from_hex("874d6191b620e3261bef6864990db6ce").unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn counter_wraps_only_low_32_bits() {
        let mut c = [0xffu8; 16];
        increment_counter(&mut c);
        // Low 32 bits wrap to zero; the rest must be untouched.
        assert_eq!(&c[..12], &[0xff; 12]);
        assert_eq!(&c[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn keystream_differs_per_block() {
        let aes = Aes::new(&[3u8; 16]).unwrap();
        let mut data = vec![0u8; 48];
        ctr_xor(&aes, &[0u8; 16], &mut data);
        assert_ne!(&data[0..16], &data[16..32]);
        assert_ne!(&data[16..32], &data[32..48]);
    }
}
