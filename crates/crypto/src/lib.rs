//! From-scratch cryptographic primitives for block-storage encryption.
//!
//! This crate implements every primitive the paper *"Rethinking Block
//! Storage Encryption with Virtual Disks"* (HotStorage '22) depends on,
//! with no external crypto dependencies:
//!
//! - [`aes`]: the AES-128 / AES-256 block cipher (FIPS 197) on AES-NI
//!   where the CPU has it and bitsliced everywhere else, constant-time
//!   either way,
//! - [`xts`]: the XTS tweakable mode used by LUKS2 / dm-crypt / BitLocker
//!   (IEEE 1619, NIST SP 800-38E), including ciphertext stealing,
//! - [`gcm`]: AES-GCM authenticated encryption (NIST SP 800-38D) for the
//!   paper's "alternative cipher" discussion (§3.1),
//! - [`eme2`]: an EME\*-style **wide-block** cipher, the mitigation the
//!   paper discusses in §2.2 (IEEE 1619.2 family),
//! - [`sha256`] / [`hmac`] / [`kdf`]: hashing, MACs and key derivation
//!   (PBKDF2 for LUKS-style passphrase slots, HKDF for subkeys),
//! - [`gf128`]: arithmetic in GF(2^128) shared by XTS, GCM and EME2,
//! - [`rng`]: IV sources (OS randomness or seeded, for reproducibility),
//! - [`mem`]: constant-time comparison, zeroizing key containers, hex.
//!
//! # Example
//!
//! Encrypt one 4 KB sector the way a virtual-disk encryptor would:
//!
//! ```
//! use vdisk_crypto::xts::XtsCipher;
//!
//! # fn main() -> Result<(), vdisk_crypto::CryptoError> {
//! let key = [0x42u8; 64]; // AES-256-XTS: two 256-bit keys
//! let xts = XtsCipher::new(&key)?;
//! let tweak = [7u8; 16]; // per-sector tweak (LBA-derived or random)
//! let mut sector = vec![0u8; 4096];
//! xts.encrypt_sector(&tweak, &mut sector)?;
//! xts.decrypt_sector(&tweak, &mut sector)?;
//! assert_eq!(sector, vec![0u8; 4096]);
//! # Ok(())
//! # }
//! ```
//!
//! # Security note
//!
//! The AES core runs in data-independent time on both backends
//! ([`aes`]): the AES-NI instructions take the same time whatever the
//! key and data, and the bitsliced cipher looks up, indexes and
//! branches on nothing derived from key, tweak or data bytes. The key
//! schedule is expanded through the S-box circuit on either backend,
//! with no table, and XTS's tweak chain and EME2's doubling are
//! branch-free. What is **not** constant-time is GHASH
//! ([`gf128::ghash_mul`] branches on the bits of its operand), so
//! [`gcm`] still has a timing channel on `H`. Key wiping
//! ([`mem::zeroize`], the `Drop` of every cipher type) is best-effort:
//! plain writes kept observable with `std::hint::black_box`, not
//! volatile ones. `unsafe` is denied crate-wide and allowed in exactly
//! one module, the AES-NI backend (`aes/ni.rs`), where every block
//! carries its `SAFETY` argument.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod eme2;
pub mod gcm;
pub mod gf128;
pub mod hmac;
pub mod kdf;
pub mod mem;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod sha256;
pub mod xts;

use std::error::Error as StdError;
use std::fmt;

/// Errors returned by the primitives in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A key had a length not supported by the algorithm.
    InvalidKeyLength {
        /// The length that was supplied, in bytes.
        got: usize,
    },
    /// A data buffer had a length the mode cannot process
    /// (e.g. an XTS sector shorter than one cipher block).
    InvalidDataLength {
        /// The length that was supplied, in bytes.
        got: usize,
    },
    /// An IV/nonce had an unsupported length.
    InvalidIvLength {
        /// The length that was supplied, in bytes.
        got: usize,
    },
    /// Authenticated decryption failed: the tag did not verify.
    ///
    /// The plaintext output buffer must be discarded.
    AuthenticationFailed,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { got } => {
                write!(f, "invalid key length: {got} bytes")
            }
            CryptoError::InvalidDataLength { got } => {
                write!(f, "invalid data length: {got} bytes")
            }
            CryptoError::InvalidIvLength { got } => {
                write!(f, "invalid IV length: {got} bytes")
            }
            CryptoError::AuthenticationFailed => {
                write!(f, "authentication failed: ciphertext or tag corrupted")
            }
        }
    }
}

impl StdError for CryptoError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;
