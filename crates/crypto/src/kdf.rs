//! Key derivation: PBKDF2-HMAC-SHA256 (RFC 8018) and HKDF-SHA256
//! (RFC 5869).
//!
//! PBKDF2 backs the LUKS2-style passphrase keyslots of the encryption
//! header (`vdisk-core::luks`); HKDF derives independent subkeys (data
//! key, MAC key) from one master key.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::mem::SecretBytes;
use crate::sha256::DIGEST_LEN;

/// Derives `out_len` bytes from a passphrase and salt with
/// PBKDF2-HMAC-SHA256.
///
/// `iterations` must be at least 1. Real LUKS2 uses a memory-hard KDF
/// (argon2id) by default but still supports PBKDF2; we implement PBKDF2
/// because it is fully specified by primitives we already have.
///
/// # Panics
///
/// Panics if `iterations == 0` or `out_len == 0`.
#[must_use]
pub fn pbkdf2_hmac_sha256(
    passphrase: &[u8],
    salt: &[u8],
    iterations: u32,
    out_len: usize,
) -> SecretBytes {
    assert!(iterations >= 1, "pbkdf2 requires at least one iteration");
    assert!(out_len >= 1, "pbkdf2 output length must be positive");
    let mut out = Vec::with_capacity(out_len);
    let mut block_index = 1u32;
    while out.len() < out_len {
        // U1 = PRF(P, S || INT(i))
        let mut mac = HmacSha256::new(passphrase);
        mac.update(salt);
        mac.update(&block_index.to_be_bytes());
        let mut u = mac.finalize();
        let mut t = u;
        for _ in 1..iterations {
            u = hmac_sha256(passphrase, &u);
            for (tb, ub) in t.iter_mut().zip(u.iter()) {
                *tb ^= ub;
            }
        }
        let take = (out_len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&t[..take]);
        block_index += 1;
    }
    SecretBytes::new(out)
}

/// HKDF-SHA256 extract step: `PRK = HMAC(salt, ikm)`.
#[must_use]
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-SHA256 expand step.
///
/// # Panics
///
/// Panics if `out_len > 255 * 32` (the RFC 5869 limit) or `out_len == 0`.
#[must_use]
pub fn hkdf_expand(prk: &[u8], info: &[u8], out_len: usize) -> SecretBytes {
    assert!(out_len >= 1, "hkdf output length must be positive");
    assert!(out_len <= 255 * DIGEST_LEN, "hkdf output too long");
    let mut out = Vec::with_capacity(out_len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut mac = HmacSha256::new(prk);
        mac.update(&previous);
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (out_len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        previous = block.to_vec();
        counter = counter.saturating_add(1);
    }
    SecretBytes::new(out)
}

/// Convenience: extract-then-expand in one call.
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> SecretBytes {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, out_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{from_hex, to_hex};

    /// RFC 7914 §11 / well-known PBKDF2-HMAC-SHA256 vector.
    #[test]
    fn pbkdf2_one_iteration() {
        let dk = pbkdf2_hmac_sha256(b"password", b"salt", 1, 32);
        assert_eq!(
            to_hex(&dk),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"
        );
    }

    #[test]
    fn pbkdf2_4096_iterations() {
        let dk = pbkdf2_hmac_sha256(b"password", b"salt", 4096, 32);
        assert_eq!(
            to_hex(&dk),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"
        );
    }

    #[test]
    fn pbkdf2_multi_block_output() {
        // 40 bytes forces two PRF blocks.
        let dk = pbkdf2_hmac_sha256(
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            40,
        );
        assert_eq!(
            to_hex(&dk),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1c635518c7dac47e9"
        );
    }

    /// RFC 5869 test case 1.
    #[test]
    fn hkdf_rfc5869_case_1() {
        let ikm = [0x0b; 22];
        let salt = from_hex("000102030405060708090a0b0c").unwrap();
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            to_hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// RFC 5869 test case 3 (empty salt and info).
    #[test]
    fn hkdf_rfc5869_case_3() {
        let ikm = [0x0b; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            to_hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_subkeys_are_independent() {
        let master = [7u8; 32];
        let a = hkdf(b"vdisk", &master, b"data-key", 32);
        let b = hkdf(b"vdisk", &master, b"mac-key", 32);
        assert_ne!(a.expose(), b.expose());
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn pbkdf2_zero_iterations_panics() {
        let _ = pbkdf2_hmac_sha256(b"p", b"s", 0, 16);
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn hkdf_too_long_panics() {
        let _ = hkdf_expand(&[0; 32], b"", 255 * 32 + 1);
    }
}
