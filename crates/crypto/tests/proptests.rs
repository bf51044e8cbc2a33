//! Property-based tests over the crypto primitives: round-trip
//! identities, diffusion/locality contracts, tamper detection — and
//! the differential properties that pin the bitsliced AES and the
//! whole-sector XTS to the byte-at-a-time implementation they
//! replaced (`src/reference.rs`, compiled into this test by path).

use proptest::prelude::*;
use vdisk_crypto::aes::Aes;
use vdisk_crypto::eme2::Eme2;
use vdisk_crypto::gcm::AesGcm;
use vdisk_crypto::hmac::hmac_sha256;
use vdisk_crypto::mem::{from_hex, to_hex};
use vdisk_crypto::sha256::{sha256, Sha256};
use vdisk_crypto::xts::XtsCipher;

#[path = "../src/reference.rs"]
mod reference;

/// Cases per differential property: a smoke count in the dev profile
/// (`cargo test`), the real count under `--release` (CI's `stress`
/// job runs this file that way).
const DIFFERENTIAL_CASES: u32 = if cfg!(debug_assertions) { 32 } else { 512 };

/// Deterministic filler for buffers too large to draw byte by byte.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = vdisk_crypto::rng::SeededRng::new(seed);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

fn arb_key16() -> impl Strategy<Value = [u8; 16]> {
    any::<[u8; 16]>()
}

fn arb_key32() -> impl Strategy<Value = [u8; 32]> {
    any::<[u8; 32]>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aes_round_trip(key in arb_key32(), block in any::<[u8; 16]>()) {
        let aes = Aes::new(&key).unwrap();
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn aes_is_a_permutation(key in arb_key16(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let aes = Aes::new(&key).unwrap();
        prop_assert_ne!(aes.encrypt_block_copy(&a), aes.encrypt_block_copy(&b));
    }

    #[test]
    fn xts_round_trip_arbitrary_lengths(
        key in arb_key32(),
        tweak in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 16..600),
    ) {
        let xts = XtsCipher::new(&key).unwrap();
        let mut buf = data.clone();
        xts.encrypt_sector(&tweak, &mut buf).unwrap();
        prop_assert_ne!(&buf, &data);
        xts.decrypt_sector(&tweak, &mut buf).unwrap();
        prop_assert_eq!(buf, data);
    }

    /// XTS narrow-block contract: a change inside one aligned 16-byte
    /// sub-block never propagates to other sub-blocks (for full-block
    /// sector sizes). This is the leak the paper builds on.
    #[test]
    fn xts_subblock_locality(
        key in arb_key32(),
        tweak in any::<[u8; 16]>(),
        block_idx in 0usize..8,
        bit in 0usize..128,
        base in any::<[u8; 16]>(),
    ) {
        let xts = XtsCipher::new(&key).unwrap();
        let mut a = vec![0u8; 8 * 16];
        for chunk in a.chunks_mut(16) {
            chunk.copy_from_slice(&base);
        }
        let mut b = a.clone();
        b[block_idx * 16 + bit / 8] ^= 1 << (bit % 8);
        xts.encrypt_sector(&tweak, &mut a).unwrap();
        xts.encrypt_sector(&tweak, &mut b).unwrap();
        for j in 0..8 {
            if j == block_idx {
                prop_assert_ne!(&a[j*16..j*16+16], &b[j*16..j*16+16]);
            } else {
                prop_assert_eq!(&a[j*16..j*16+16], &b[j*16..j*16+16]);
            }
        }
    }

    /// EME2 wide-block contract: any single-bit change diffuses into
    /// every ciphertext sub-block.
    #[test]
    fn eme2_wide_block_diffusion(
        key in arb_key32(),
        tweak in any::<[u8; 16]>(),
        byte_idx in 0usize..256,
        blocks in 2usize..16,
    ) {
        let eme = Eme2::new(&key).unwrap();
        let len = blocks * 16;
        let byte_idx = byte_idx % len;
        let mut a = vec![0xA5u8; len];
        let mut b = a.clone();
        b[byte_idx] ^= 0x10;
        eme.encrypt_sector(&tweak, &mut a).unwrap();
        eme.encrypt_sector(&tweak, &mut b).unwrap();
        for j in 0..blocks {
            prop_assert_ne!(&a[j*16..j*16+16], &b[j*16..j*16+16]);
        }
    }

    #[test]
    fn eme2_round_trip(
        key in arb_key16(),
        tweak in any::<[u8; 16]>(),
        blocks in 2usize..32,
        seed in any::<u8>(),
    ) {
        let eme = Eme2::new(&key).unwrap();
        let data: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(seed)).collect();
        let mut buf = data.clone();
        eme.encrypt_sector(&tweak, &mut buf).unwrap();
        eme.decrypt_sector(&tweak, &mut buf).unwrap();
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn gcm_round_trip_and_tamper(
        key in arb_key32(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        data in proptest::collection::vec(any::<u8>(), 0..300),
        flip in any::<(u16, u8)>(),
    ) {
        let gcm = AesGcm::new(&key).unwrap();
        let mut buf = data.clone();
        let tag = gcm.encrypt(&nonce, &aad, &mut buf);
        // Honest decryption succeeds.
        let mut ok = buf.clone();
        gcm.decrypt(&nonce, &aad, &mut ok, &tag).unwrap();
        prop_assert_eq!(&ok, &data);
        // Any single-bit tamper is caught.
        if !buf.is_empty() {
            let idx = (flip.0 as usize) % buf.len();
            let bit = 1u8 << (flip.1 % 8);
            let mut bad = buf.clone();
            bad[idx] ^= bit;
            prop_assert!(gcm.decrypt(&nonce, &aad, &mut bad, &tag).is_err());
        }
    }

    #[test]
    fn sha256_incremental_any_split(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split_seed in any::<u16>(),
    ) {
        let split = if data.is_empty() { 0 } else { (split_seed as usize) % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinct_keys_distinct_tags(
        k1 in proptest::collection::vec(any::<u8>(), 1..64),
        k2 in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..100)) {
        prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    /// Cross-mode sanity: XTS and EME2 under the same AES key never
    /// produce the same ciphertext for the same sector (they are
    /// different permutations).
    #[test]
    fn modes_are_distinct(key in arb_key32(), tweak in any::<[u8; 16]>()) {
        let mut xts_key = [0u8; 64];
        xts_key[..32].copy_from_slice(&key);
        xts_key[32..].copy_from_slice(&key);
        let xts = XtsCipher::new(&xts_key).unwrap();
        let eme = Eme2::new(&key).unwrap();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        xts.encrypt_sector(&tweak, &mut a).unwrap();
        eme.encrypt_sector(&tweak, &mut b).unwrap();
        prop_assert_ne!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES))]

    /// The packed single-block path, both key sizes, both directions.
    #[test]
    fn aes_block_calls_match_reference(
        key in arb_key32(),
        aes256 in any::<bool>(),
        block in any::<[u8; 16]>(),
    ) {
        let key = &key[..if aes256 { 32 } else { 16 }];
        let ours = Aes::new(key).unwrap();
        let theirs = reference::Aes::new(key);
        let (mut a, mut b) = (block, block);
        ours.encrypt_block(&mut a);
        theirs.encrypt_block(&mut b);
        prop_assert_eq!(a, b);
        let (mut a, mut b) = (block, block);
        ours.decrypt_block(&mut a);
        theirs.decrypt_block(&mut b);
        prop_assert_eq!(a, b);
    }

    /// Whole sectors: every stealing-tail length around the first
    /// blocks, the packed/wide boundary, one 512-byte and one 4 KiB
    /// sector, and a 4 KiB sector with a stolen tail.
    #[test]
    fn xts_matches_reference(
        key in any::<[u8; 64]>(),
        aes256 in any::<bool>(),
        tweak in any::<[u8; 16]>(),
        seed in any::<u64>(),
        tail in 1usize..16,
    ) {
        let key = &key[..if aes256 { 64 } else { 32 }];
        let ours = XtsCipher::new(key).unwrap();
        let theirs = reference::XtsCipher::new(key);
        for len in (16..=80).chain([512, 4096, 4096 + tail]) {
            let data = fill(seed ^ len as u64, len);
            let (mut a, mut b) = (data.clone(), data.clone());
            ours.encrypt_sector(&tweak, &mut a).unwrap();
            theirs.encrypt_sector(&tweak, &mut b);
            prop_assert_eq!(&a, &b, "encrypt, {} bytes", len);
            let (mut a, mut b) = (data.clone(), data);
            ours.decrypt_sector(&tweak, &mut a).unwrap();
            theirs.decrypt_sector(&tweak, &mut b);
            prop_assert_eq!(&a, &b, "decrypt, {} bytes", len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES / 16))]

    /// The batch calls at every block count from one block to one past
    /// two wide passes: packed runs, short wide passes, full passes and
    /// every ragged remainder.
    #[test]
    fn aes_batch_calls_match_reference_at_every_count(
        key in arb_key32(),
        aes256 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let key = &key[..if aes256 { 32 } else { 16 }];
        let ours = Aes::new(key).unwrap();
        let theirs = reference::Aes::new(key);
        for count in 1..=257usize {
            let data = fill(seed ^ count as u64, 16 * count);
            let mut expected = data.clone();
            for block in expected.chunks_exact_mut(16) {
                theirs.encrypt_block(block.try_into().unwrap());
            }
            let mut got = data.clone();
            ours.encrypt_blocks(&mut got);
            prop_assert_eq!(&got, &expected, "encrypt_blocks, {} blocks", count);

            let mut expected = data.clone();
            for block in expected.chunks_exact_mut(16) {
                theirs.decrypt_block(block.try_into().unwrap());
            }
            let mut got = data;
            ours.decrypt_blocks(&mut got);
            prop_assert_eq!(&got, &expected, "decrypt_blocks, {} blocks", count);
        }
    }
}
