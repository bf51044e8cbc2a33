//! A LUKS2-style encryption header with a full key lifecycle:
//! passphrase keyslots, **versioned master keys (key epochs)**, online
//! rekey state, and crypto-shredding.
//!
//! RBD client-side encryption "follows the LUKS standard" (§2.4); this
//! is a simplified but faithful analog, extended the way LUKS2's
//! online reencryption extends the base format:
//!
//! - **Epochs**: each rekey generates a fresh 64-byte master key; the
//!   header carries one digest record per *active* epoch (one
//!   normally, two while a rekey migrates the image) so unlocking can
//!   verify candidates per epoch.
//! - **Keyslots**: up to 8, each binding a passphrase to one epoch's
//!   master key (XOR-wrapped under a PBKDF2-HMAC-SHA256 stream with a
//!   per-slot salt — PBKDF2 is LUKS2's supported fallback KDF and
//!   needs no new primitives).
//! - **Retired chain**: when a rekey completes, the outgoing master
//!   key is not destroyed — snapshots frozen under it must stay
//!   readable — but re-wrapped under its successor
//!   (`master_e XOR HKDF(master_{e+1})`), forming a linear chain the
//!   current passphrase unlocks end to end. Destroying the header
//!   (see [`LuksHeader::shred`]) therefore crypto-shreds every epoch
//!   at once: the paper's secure-deletion story.
//! - **Rekey state**: the `(from, to, watermark)` triple an in-flight
//!   rekey persists, so concurrent opens (and resumed drivers) agree
//!   on which sectors carry which key — per-sector epoch tags cover
//!   the tagged layouts, the watermark covers the baseline.
//! - **Generation counter**: every persisted update bumps it, and the
//!   writer CASes on the previous value (via the store's
//!   `CompareXattr`), so two handles can never interleave
//!   read-modify-write header updates into a torn result.

use crate::config::{Cipher, EncryptionConfig, MetaLayout};
use crate::{CryptError, Result};
use std::fmt;
use vdisk_crypto::kdf::{hkdf_expand, hkdf_extract, pbkdf2_hmac_sha256};
use vdisk_crypto::mem::{ct_eq, xor_in_place, zeroize, SecretBytes};
use vdisk_crypto::rng::IvSource;

/// Header magic ("VLUKS2" + version byte + NUL). Version 2 added key
/// epochs, the retired-key chain, rekey state, and the generation
/// counter.
pub const MAGIC: [u8; 8] = *b"VLUKS2\x02\x00";
/// Number of keyslots, as in LUKS.
pub const KEYSLOTS: usize = 8;
/// Master key length: 64 bytes covers AES-256-XTS's two keys.
pub const MASTER_KEY_LEN: usize = 64;
/// PBKDF2 iteration count for new keyslots. Real deployments measure
/// the host; tests override through
/// [`LuksHeader::add_keyslot_with_iterations`].
pub const DEFAULT_ITERATIONS: u32 = 2000;

const SLOT_SIZE: usize = 1 + 4 + 4 + 32 + MASTER_KEY_LEN;
const EPOCH_SIZE: usize = 4 + 16 + 32;
const RETIRED_SIZE: usize = 4 + MASTER_KEY_LEN;
const FIXED_HEAD: usize = 8 + 1 + 1 + 1 + 4 + 8 + 4 + 1 + 4 + 4 + 8;

/// One passphrase keyslot, wrapping one epoch's master key.
// Clone is load-bearing: header snapshots (rollback on failed rekey
// commits) clone the whole slot table, and the wrap stays wrapped.
// vdisk-lint: allow(secret-derive) reason="Clone copies only KEK-wrapped key material; rollback snapshots depend on it"
#[derive(Clone, PartialEq, Eq)]
struct Keyslot {
    active: bool,
    /// The key epoch this slot's passphrase unlocks.
    epoch: u32,
    iterations: u32,
    salt: [u8; 32],
    wrapped: [u8; MASTER_KEY_LEN],
}

impl fmt::Debug for Keyslot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keyslot")
            .field("active", &self.active)
            .field("epoch", &self.epoch)
            .field("iterations", &self.iterations)
            .field("salt", &"(32 bytes)")
            .field("wrapped", &format_args!("({MASTER_KEY_LEN} bytes)"))
            .finish()
    }
}

impl Keyslot {
    fn empty() -> Self {
        Keyslot {
            active: false,
            epoch: 0,
            iterations: 0,
            salt: [0; 32],
            wrapped: [0; MASTER_KEY_LEN],
        }
    }
}

/// One active epoch's verification record.
// vdisk-lint: allow(secret-derive) reason="Clone copies a salted one-way digest, not the key; header snapshots need it"
#[derive(Clone, PartialEq, Eq)]
struct EpochRecord {
    epoch: u32,
    digest_salt: [u8; 16],
    mk_digest: [u8; 32],
}

impl fmt::Debug for EpochRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochRecord")
            .field("epoch", &self.epoch)
            .field("digest_salt", &"(16 bytes)")
            .field("mk_digest", &"(32 bytes)")
            .finish()
    }
}

/// One retired epoch's master key, wrapped under its successor
/// (epoch `e` is always wrapped under epoch `e + 1`).
// vdisk-lint: allow(secret-derive) reason="Clone copies only chain-wrapped key material; header snapshots need it"
#[derive(Clone, PartialEq, Eq)]
struct RetiredKey {
    epoch: u32,
    wrapped: [u8; MASTER_KEY_LEN],
}

impl fmt::Debug for RetiredKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetiredKey")
            .field("epoch", &self.epoch)
            .field("wrapped", &format_args!("({MASTER_KEY_LEN} bytes)"))
            .finish()
    }
}

/// The persisted record of a rekey window the driver had in flight
/// when the header was last written: sectors `[start, end)` were being
/// rewritten in `chunk_sectors`-sized chunks. While an intent is
/// present the window's migration state on disk is unknown — some
/// chunks may have been rewritten under the new epoch, some not. Each
/// chunk's rewrite transaction stamps a proof marker on its object
/// atomically, so a restarted driver can interrogate the store chunk
/// by chunk and re-migrate exactly the unproven ones (see
/// `RekeyDriver` in `rekey.rs`). Cleared in the same header update
/// that advances the watermark past `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowIntent {
    /// First sector of the window (equals the persisted watermark).
    pub start: u64,
    /// One past the window's last sector.
    pub end: u64,
    /// The chunk granularity the window was migrated (and its proof
    /// markers stamped) at.
    pub chunk_sectors: u64,
}

/// The persisted state of an in-flight online rekey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RekeyState {
    /// The epoch being retired.
    pub from: u32,
    /// The epoch taking over (always `from + 1`).
    pub to: u32,
    /// Sectors `< watermark` have been re-encrypted under `to`;
    /// sectors `>= watermark` still carry `from`. Advanced only by the
    /// rekey driver, strictly monotonically.
    pub watermark: u64,
    /// The window the driver was migrating when the header was last
    /// persisted, if it had one in flight — the crash-recovery record.
    pub intent: Option<WindowIntent>,
}

/// The parsed encryption header.
// Clone backs the copy-modify-persist update pattern and rollback
// snapshots; every secret it copies is wrapped or digested.
// vdisk-lint: allow(secret-derive) reason="Clone is the header update/rollback mechanism; all embedded key material is wrapped"
#[derive(Clone, PartialEq, Eq)]
pub struct LuksHeader {
    config: EncryptionConfig,
    generation: u64,
    current_epoch: u32,
    rekey: Option<RekeyState>,
    epochs: Vec<EpochRecord>,
    retired: Vec<RetiredKey>,
    slots: Vec<Keyslot>,
}

impl Drop for LuksHeader {
    fn drop(&mut self) {
        // Every copy wipes its wrapped blobs — the live header, a
        // staged update that lost its CAS, a replaced one — so no
        // passphrase-derivable material lingers on the heap.
        self.shred();
    }
}

impl fmt::Debug for LuksHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Slot/epoch/retired entries redact their own key fields; the
        // counts alone are what header debugging actually needs.
        f.debug_struct("LuksHeader")
            .field("generation", &self.generation)
            .field("current_epoch", &self.current_epoch)
            .field("rekey", &self.rekey)
            .field("epochs", &self.epochs.len())
            .field("retired", &self.retired.len())
            .field(
                "active_slots",
                &self.slots.iter().filter(|s| s.active).count(),
            )
            .finish()
    }
}

fn wrap_stream(passphrase: &[u8], salt: &[u8], iterations: u32) -> SecretBytes {
    let kek = pbkdf2_hmac_sha256(passphrase, salt, iterations, 32);
    hkdf_expand(kek.expose(), b"vdisk-luks-wrap", MASTER_KEY_LEN)
}

fn digest_of(master: &[u8], digest_salt: &[u8; 16]) -> [u8; 32] {
    vdisk_crypto::hmac::hmac_sha256(digest_salt, master)
}

/// The XOR stream wrapping a retired epoch's master key under its
/// successor's: `HKDF(successor, "vdisk-retire-<epoch>")`.
fn retire_stream(successor: &SecretBytes, epoch: u32) -> SecretBytes {
    let prk = hkdf_extract(b"vdisk-retire", successor.expose());
    let mut info = *b"retire-epoch-\0\0\0\0";
    info[13..17].copy_from_slice(&epoch.to_le_bytes());
    hkdf_expand(&prk, &info, MASTER_KEY_LEN)
}

fn xor_wrap(master: &SecretBytes, stream: &SecretBytes) -> [u8; MASTER_KEY_LEN] {
    let mut wrapped = [0u8; MASTER_KEY_LEN];
    wrapped.copy_from_slice(master.expose());
    xor_in_place(&mut wrapped, stream.expose());
    wrapped
}

impl LuksHeader {
    /// Creates a header for a fresh master key (epoch 0), with the
    /// passphrase in keyslot 0.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::UnsupportedConfig`] if `config` fails
    /// validation.
    pub fn format(
        config: &EncryptionConfig,
        passphrase: &[u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<(LuksHeader, SecretBytes)> {
        config.validate()?;
        let mut header = LuksHeader {
            config: config.clone(),
            generation: 0,
            current_epoch: 0,
            rekey: None,
            epochs: Vec::new(),
            retired: Vec::new(),
            slots: (0..KEYSLOTS).map(|_| Keyslot::empty()).collect(),
        };
        let master = header.install_epoch(0, iv_source);
        header.add_keyslot_with_iterations(
            passphrase,
            0,
            &master,
            DEFAULT_ITERATIONS,
            iv_source,
        )?;
        Ok((header, master))
    }

    /// Generates a fresh master key and registers its epoch record.
    fn install_epoch(&mut self, epoch: u32, iv_source: &mut dyn IvSource) -> SecretBytes {
        let mut master = SecretBytes::zeroed(MASTER_KEY_LEN);
        iv_source.fill(master.expose_mut());
        let mut digest_salt = [0u8; 16];
        iv_source.fill(&mut digest_salt);
        self.epochs.push(EpochRecord {
            epoch,
            digest_salt,
            mk_digest: digest_of(master.expose(), &digest_salt),
        });
        master
    }

    /// The configuration carried by this header.
    #[must_use]
    pub fn config(&self) -> &EncryptionConfig {
        &self.config
    }

    /// The header generation (bumped by every persisted update; the
    /// CAS token of the optimistic-concurrency scheme).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the generation; returns the new value.
    pub fn bump_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// The epoch new writes encrypt under.
    #[must_use]
    pub fn current_epoch(&self) -> u32 {
        self.current_epoch
    }

    /// The in-flight rekey, if one is migrating the image.
    #[must_use]
    pub fn rekey(&self) -> Option<RekeyState> {
        self.rekey
    }

    /// Advances the rekey watermark (driver-only; strictly monotonic).
    ///
    /// # Panics
    ///
    /// Panics if no rekey is in flight or the watermark would regress.
    pub fn set_rekey_watermark(&mut self, watermark: u64) {
        let state = self.rekey.as_mut().expect("no rekey in flight");
        assert!(watermark >= state.watermark, "watermark may only advance");
        state.watermark = watermark;
    }

    /// Records a window the driver is about to migrate (see
    /// [`WindowIntent`]); persisted before any of the window's
    /// rewrites are submitted.
    ///
    /// # Panics
    ///
    /// Panics if no rekey is in flight.
    pub(crate) fn set_rekey_intent(&mut self, intent: WindowIntent) {
        let state = self.rekey.as_mut().expect("no rekey in flight");
        state.intent = Some(intent);
    }

    /// Clears the window-intent record (the window's watermark advance
    /// is being persisted in the same update, proving it landed).
    ///
    /// # Panics
    ///
    /// Panics if no rekey is in flight.
    pub(crate) fn clear_rekey_intent(&mut self) {
        let state = self.rekey.as_mut().expect("no rekey in flight");
        state.intent = None;
    }

    /// Number of active keyslots.
    #[must_use]
    pub fn active_keyslots(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// Epochs retired into the wrap chain (oldest first).
    #[must_use]
    pub fn retired_epochs(&self) -> Vec<u32> {
        self.retired.iter().map(|r| r.epoch).collect()
    }

    /// Adds a passphrase for the **current** epoch to the first free
    /// keyslot; returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::NoFreeKeyslot`] when all 8 are taken.
    pub fn add_keyslot(
        &mut self,
        passphrase: &[u8],
        master: &SecretBytes,
        iv_source: &mut dyn IvSource,
    ) -> Result<usize> {
        self.add_keyslot_with_iterations(
            passphrase,
            self.current_epoch,
            master,
            DEFAULT_ITERATIONS,
            iv_source,
        )
    }

    /// Adds a passphrase for `epoch` with an explicit PBKDF2 cost.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::NoFreeKeyslot`] when all 8 are taken.
    pub fn add_keyslot_with_iterations(
        &mut self,
        passphrase: &[u8],
        epoch: u32,
        master: &SecretBytes,
        iterations: u32,
        iv_source: &mut dyn IvSource,
    ) -> Result<usize> {
        let idx = self
            .slots
            .iter()
            .position(|s| !s.active)
            .ok_or(CryptError::NoFreeKeyslot)?;
        let mut salt = [0u8; 32];
        iv_source.fill(&mut salt);
        let stream = wrap_stream(passphrase, &salt, iterations);
        self.slots[idx] = Keyslot {
            active: true,
            epoch,
            iterations,
            salt,
            wrapped: xor_wrap(master, &stream),
        };
        Ok(idx)
    }

    /// Deactivates a keyslot (revoking its passphrase), zeroizing the
    /// slot's wrapped key material.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::UnsupportedConfig`] for an out-of-range
    /// index.
    pub fn remove_keyslot(&mut self, index: usize) -> Result<()> {
        let slot = self
            .slots
            .get_mut(index)
            .ok_or_else(|| CryptError::UnsupportedConfig(format!("keyslot {index}")))?;
        zeroize(&mut slot.wrapped);
        zeroize(&mut slot.salt);
        *slot = Keyslot::empty();
        Ok(())
    }

    /// Unwraps one slot with `passphrase` and verifies the candidate
    /// against the slot's epoch digest.
    fn try_slot(&self, idx: usize, passphrase: &[u8]) -> Option<SecretBytes> {
        let slot = &self.slots[idx];
        if !slot.active {
            return None;
        }
        let record = self.epochs.iter().find(|e| e.epoch == slot.epoch)?;
        let stream = wrap_stream(passphrase, &slot.salt, slot.iterations);
        let mut candidate = SecretBytes::from(slot.wrapped.as_slice());
        xor_in_place(candidate.expose_mut(), stream.expose());
        let digest = digest_of(candidate.expose(), &record.digest_salt);
        ct_eq(&digest, &record.mk_digest).then_some(candidate)
    }

    /// Tries the passphrase against every active keyslot and returns
    /// the **current** epoch's master key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if no slot of the
    /// current epoch unlocks — including for passphrases that only
    /// unlock a retiring epoch mid-rekey (revoked at `rekey_begin`).
    pub fn unlock(&self, passphrase: &[u8]) -> Result<SecretBytes> {
        self.unlock_all(passphrase)
            .into_iter()
            .find_map(|(epoch, master)| (epoch == self.current_epoch).then_some(master))
            .ok_or(CryptError::WrongPassphrase)
    }

    /// Tries the passphrase against every active keyslot; returns every
    /// `(epoch, master)` it unlocks (at most one entry per epoch).
    #[must_use]
    pub fn unlock_all(&self, passphrase: &[u8]) -> Vec<(u32, SecretBytes)> {
        let mut unlocked: Vec<(u32, SecretBytes)> = Vec::new();
        for idx in 0..self.slots.len() {
            if unlocked.iter().any(|(e, _)| *e == self.slots[idx].epoch) {
                continue;
            }
            if let Some(master) = self.try_slot(idx, passphrase) {
                unlocked.push((self.slots[idx].epoch, master));
            }
        }
        unlocked
    }

    /// Re-wraps every keyslot `existing` unlocks under `new` (fresh
    /// salt, same epoch) — passphrase rotation without touching any
    /// data or master key. Returns the rotated slot indices.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::WrongPassphrase`] if `existing` unlocks no
    /// slot.
    pub fn rotate_passphrase(
        &mut self,
        existing: &[u8],
        new: &[u8],
        iv_source: &mut dyn IvSource,
    ) -> Result<Vec<usize>> {
        let mut rotated = Vec::new();
        for idx in 0..self.slots.len() {
            let Some(master) = self.try_slot(idx, existing) else {
                continue;
            };
            let mut salt = [0u8; 32];
            iv_source.fill(&mut salt);
            let iterations = self.slots[idx].iterations;
            let stream = wrap_stream(new, &salt, iterations);
            let slot = &mut self.slots[idx];
            slot.salt = salt;
            slot.wrapped = xor_wrap(&master, &stream);
            rotated.push(idx);
        }
        if rotated.is_empty() {
            return Err(CryptError::WrongPassphrase);
        }
        Ok(rotated)
    }

    /// Starts an online rekey: installs epoch `current + 1` with a
    /// fresh master key, revokes **every** existing keyslot (the old
    /// passphrases stop unlocking immediately), and binds `new_pass`
    /// to both the new epoch and — through a bridge slot — the
    /// retiring one, so a fresh open mid-rekey can read both halves of
    /// the image. Returns `(retiring master, new master)`.
    ///
    /// # Errors
    ///
    /// - [`CryptError::RekeyInProgress`] if one is already migrating;
    /// - [`CryptError::WrongPassphrase`] if `existing` does not unlock
    ///   the current epoch.
    pub fn begin_rekey(
        &mut self,
        existing: &[u8],
        new_pass: &[u8],
        iterations: u32,
        iv_source: &mut dyn IvSource,
    ) -> Result<(SecretBytes, SecretBytes)> {
        if self.rekey.is_some() {
            return Err(CryptError::RekeyInProgress);
        }
        let from = self.current_epoch;
        let from_master = self.unlock(existing)?;
        let to = from + 1;
        let to_master = self.install_epoch(to, iv_source);
        for idx in 0..self.slots.len() {
            self.remove_keyslot(idx)?;
        }
        self.add_keyslot_with_iterations(new_pass, to, &to_master, iterations, iv_source)?;
        // The bridge: the new passphrase also unlocks the retiring
        // epoch until the migration retires it into the wrap chain.
        self.add_keyslot_with_iterations(new_pass, from, &from_master, iterations, iv_source)?;
        self.current_epoch = to;
        self.rekey = Some(RekeyState {
            from,
            to,
            watermark: 0,
            intent: None,
        });
        Ok((from_master, to_master))
    }

    /// Completes a rekey: moves the retiring master key into the
    /// retired chain (wrapped under its successor), drops its epoch
    /// record and bridge slots, and clears the rekey state. After
    /// this, only the new passphrase unlocks anything — yet snapshot
    /// reads still reach the old epoch through the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::NoRekeyInProgress`] if no rekey is active.
    pub fn finish_rekey(
        &mut self,
        from_master: &SecretBytes,
        to_master: &SecretBytes,
    ) -> Result<()> {
        if self.retired.len() >= u8::MAX as usize {
            // The wire format length-prefixes the chain with a u8;
            // refuse the 256th retirement cleanly instead of panicking
            // in `encode` mid-update.
            return Err(CryptError::UnsupportedConfig(
                "retired-key chain is full (255 completed rekeys)".into(),
            ));
        }
        let state = self.rekey.take().ok_or(CryptError::NoRekeyInProgress)?;
        let stream = retire_stream(to_master, state.from);
        self.retired.push(RetiredKey {
            epoch: state.from,
            wrapped: xor_wrap(from_master, &stream),
        });
        self.retired.sort_by_key(|r| r.epoch);
        self.epochs.retain(|e| e.epoch != state.from);
        for idx in 0..self.slots.len() {
            if self.slots[idx].active && self.slots[idx].epoch == state.from {
                self.remove_keyslot(idx)?;
            }
        }
        Ok(())
    }

    /// Unwraps the retired chain starting from the current epoch's
    /// master key: epoch `e` is wrapped under `e + 1`, so the chain
    /// unwinds newest-to-oldest. Returns `(epoch, master)` pairs for
    /// every retired epoch reachable from `current_master`.
    #[must_use]
    pub fn unwrap_retired(&self, current_master: &SecretBytes) -> Vec<(u32, SecretBytes)> {
        let mut out: Vec<(u32, SecretBytes)> = Vec::new();
        let mut successors: Vec<(u32, SecretBytes)> =
            vec![(self.current_epoch, current_master.clone())];
        for retired in self.retired.iter().rev() {
            let Some((_, successor)) = successors.iter().find(|(e, _)| *e == retired.epoch + 1)
            else {
                continue;
            };
            let stream = retire_stream(successor, retired.epoch);
            let mut master = SecretBytes::from(retired.wrapped.as_slice());
            xor_in_place(master.expose_mut(), stream.expose());
            successors.push((retired.epoch, master.clone()));
            out.push((retired.epoch, master));
        }
        out.reverse();
        out
    }

    /// Crypto-shreds the header in memory: every keyslot, epoch
    /// digest, and retired-chain wrap is zeroized
    /// ([`vdisk_crypto::mem::zeroize`]), leaving nothing that could
    /// recover any epoch's master key. Pair with overwriting and
    /// deleting the stored header object (see
    /// `EncryptedImage::secure_erase`) — data objects then hold only
    /// undecryptable ciphertext, which *is* the deletion.
    pub fn shred(&mut self) {
        for slot in &mut self.slots {
            zeroize(&mut slot.wrapped);
            zeroize(&mut slot.salt);
            slot.iterations = 0;
            slot.epoch = 0;
            slot.active = false;
        }
        for record in &mut self.epochs {
            zeroize(&mut record.mk_digest);
            zeroize(&mut record.digest_salt);
        }
        for retired in &mut self.retired {
            zeroize(&mut retired.wrapped);
        }
        self.epochs.clear();
        self.retired.clear();
        self.rekey = None;
    }

    /// Serializes the header to its on-disk byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            FIXED_HEAD
                + self.epochs.len() * EPOCH_SIZE
                + self.retired.len() * RETIRED_SIZE
                + KEYSLOTS * SLOT_SIZE,
        );
        out.extend_from_slice(&MAGIC);
        out.push(self.config.cipher.to_wire());
        out.push(self.config.layout.map_or(0, MetaLayout::to_wire));
        let mut flags = 0u8;
        if self.config.random_iv {
            flags |= 1;
        }
        if self.config.mac {
            flags |= 2;
        }
        if self.config.snapshot_binding {
            flags |= 4;
        }
        out.push(flags);
        out.extend_from_slice(&self.config.sector_size.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.current_epoch.to_le_bytes());
        match self.rekey {
            None => {
                out.push(0);
                out.extend_from_slice(&[0u8; 16]);
            }
            Some(state) => {
                // Flag 2 appends the 24-byte window-intent record after
                // the fixed rekey triple; flag-0/1 layouts are
                // unchanged, so headers without an in-flight window
                // stay readable by older decoders.
                out.push(if state.intent.is_some() { 2 } else { 1 });
                out.extend_from_slice(&state.from.to_le_bytes());
                out.extend_from_slice(&state.to.to_le_bytes());
                out.extend_from_slice(&state.watermark.to_le_bytes());
                if let Some(intent) = state.intent {
                    out.extend_from_slice(&intent.start.to_le_bytes());
                    out.extend_from_slice(&intent.end.to_le_bytes());
                    out.extend_from_slice(&intent.chunk_sectors.to_le_bytes());
                }
            }
        }
        out.push(u8::try_from(self.epochs.len()).expect("few epochs"));
        for record in &self.epochs {
            out.extend_from_slice(&record.epoch.to_le_bytes());
            out.extend_from_slice(&record.digest_salt);
            out.extend_from_slice(&record.mk_digest);
        }
        out.push(u8::try_from(self.retired.len()).expect("few retired"));
        for retired in &self.retired {
            out.extend_from_slice(&retired.epoch.to_le_bytes());
            out.extend_from_slice(&retired.wrapped);
        }
        for slot in &self.slots {
            out.push(u8::from(slot.active));
            out.extend_from_slice(&slot.epoch.to_le_bytes());
            out.extend_from_slice(&slot.iterations.to_le_bytes());
            out.extend_from_slice(&slot.salt);
            out.extend_from_slice(&slot.wrapped);
        }
        out
    }

    /// Parses a header from disk. Trailing bytes beyond the encoded
    /// length are ignored (a shrinking header may leave a stale tail
    /// until the truncate in the same transaction lands).
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::HeaderCorrupt`] on truncation, bad magic,
    /// or unknown field values.
    pub fn decode(bytes: &[u8]) -> Result<LuksHeader> {
        let corrupt = |why: &str| CryptError::HeaderCorrupt(why.to_string());
        let mut cursor = Cursor { bytes, at: 0 };
        if cursor.take(8)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let cipher = Cipher::from_wire(cursor.u8()?).ok_or_else(|| corrupt("unknown cipher"))?;
        let layout =
            MetaLayout::from_wire(cursor.u8()?).ok_or_else(|| corrupt("unknown layout"))?;
        let flags = cursor.u8()?;
        let sector_size = cursor.u32()?;
        let generation = cursor.u64()?;
        let current_epoch = cursor.u32()?;
        let rekey = match cursor.u8()? {
            0 => {
                cursor.take(16)?;
                None
            }
            flag @ (1 | 2) => {
                let from = cursor.u32()?;
                let to = cursor.u32()?;
                let watermark = cursor.u64()?;
                let intent = if flag == 2 {
                    Some(WindowIntent {
                        start: cursor.u64()?,
                        end: cursor.u64()?,
                        chunk_sectors: cursor.u64()?,
                    })
                } else {
                    None
                };
                Some(RekeyState {
                    from,
                    to,
                    watermark,
                    intent,
                })
            }
            _ => return Err(corrupt("bad rekey flag")),
        };

        let config = EncryptionConfig {
            cipher,
            layout,
            random_iv: flags & 1 != 0,
            mac: flags & 2 != 0,
            snapshot_binding: flags & 4 != 0,
            sector_size,
        };
        config
            .validate()
            .map_err(|e| CryptError::HeaderCorrupt(format!("invalid config: {e}")))?;

        let epoch_count = cursor.u8()? as usize;
        let mut epochs = Vec::with_capacity(epoch_count);
        for _ in 0..epoch_count {
            let epoch = cursor.u32()?;
            let mut digest_salt = [0u8; 16];
            digest_salt.copy_from_slice(cursor.take(16)?);
            let mut mk_digest = [0u8; 32];
            mk_digest.copy_from_slice(cursor.take(32)?);
            epochs.push(EpochRecord {
                epoch,
                digest_salt,
                mk_digest,
            });
        }
        let retired_count = cursor.u8()? as usize;
        let mut retired = Vec::with_capacity(retired_count);
        for _ in 0..retired_count {
            let epoch = cursor.u32()?;
            let mut wrapped = [0u8; MASTER_KEY_LEN];
            wrapped.copy_from_slice(cursor.take(MASTER_KEY_LEN)?);
            retired.push(RetiredKey { epoch, wrapped });
        }
        let mut slots = Vec::with_capacity(KEYSLOTS);
        for _ in 0..KEYSLOTS {
            let active = match cursor.u8()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("bad keyslot flag")),
            };
            let epoch = cursor.u32()?;
            let iterations = cursor.u32()?;
            let mut salt = [0u8; 32];
            salt.copy_from_slice(cursor.take(32)?);
            let mut wrapped = [0u8; MASTER_KEY_LEN];
            wrapped.copy_from_slice(cursor.take(MASTER_KEY_LEN)?);
            slots.push(Keyslot {
                active,
                epoch,
                iterations,
                salt,
                wrapped,
            });
        }
        if epochs.iter().all(|e| e.epoch != current_epoch) {
            return Err(corrupt("current epoch has no record"));
        }
        Ok(LuksHeader {
            config,
            generation,
            current_epoch,
            rekey,
            epochs,
            retired,
            slots,
        })
    }
}

/// A bounds-checked byte cursor for [`LuksHeader::decode`].
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(CryptError::HeaderCorrupt("truncated".into()));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdisk_crypto::rng::SeededIvSource;

    fn format_default() -> (LuksHeader, SecretBytes) {
        let mut rng = SeededIvSource::new(7);
        LuksHeader::format(
            &EncryptionConfig::random_iv_object_end(),
            b"correct horse",
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn format_unlock_round_trip() {
        let (header, master) = format_default();
        let unlocked = header.unlock(b"correct horse").unwrap();
        assert_eq!(unlocked.expose(), master.expose());
        assert!(matches!(
            header.unlock(b"battery staple"),
            Err(CryptError::WrongPassphrase)
        ));
        assert_eq!(header.current_epoch(), 0);
        assert!(header.rekey().is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let (header, _master) = format_default();
        let bytes = header.encode();
        let decoded = LuksHeader::decode(&bytes).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(decoded.config(), header.config());
        // Trailing garbage (a stale tail before its truncate lands) is
        // ignored.
        let mut padded = bytes;
        padded.extend_from_slice(&[0xEE; 32]);
        assert_eq!(LuksHeader::decode(&padded).unwrap(), header);
    }

    #[test]
    fn decode_rejects_corruption() {
        let (header, _) = format_default();
        let bytes = header.encode();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            LuksHeader::decode(&bad_magic),
            Err(CryptError::HeaderCorrupt(_))
        ));

        assert!(matches!(
            LuksHeader::decode(&bytes[..bytes.len() - 1]),
            Err(CryptError::HeaderCorrupt(_))
        ));

        let mut bad_cipher = bytes.clone();
        bad_cipher[8] = 0xEE;
        assert!(LuksHeader::decode(&bad_cipher).is_err());
    }

    /// Codes 1 (AES-128-XTS) and 5 (CBC-ESSIV) named ciphers this
    /// format no longer carries: a header naming one is corrupt.
    #[test]
    fn decode_rejects_retired_cipher_codes() {
        let (header, _) = format_default();
        let bytes = header.encode();
        assert_eq!(&bytes[..8], &MAGIC, "the cipher byte follows the magic");
        for code in [1, 5] {
            let mut retired = bytes.clone();
            retired[8] = code;
            assert!(
                matches!(
                    LuksHeader::decode(&retired),
                    Err(CryptError::HeaderCorrupt(_))
                ),
                "cipher code {code}"
            );
        }
    }

    #[test]
    fn tampered_wrapped_key_fails_digest() {
        let (header, _) = format_default();
        let mut bytes = header.encode();
        // Flip a byte inside keyslot 0's wrapped key region (the slots
        // are the encoding's tail: KEYSLOTS slots of SLOT_SIZE bytes,
        // wrapped key last).
        let offset = bytes.len() - KEYSLOTS * SLOT_SIZE + SLOT_SIZE - 5;
        bytes[offset] ^= 0x01;
        let tampered = LuksHeader::decode(&bytes).unwrap();
        assert!(matches!(
            tampered.unlock(b"correct horse"),
            Err(CryptError::WrongPassphrase)
        ));
    }

    #[test]
    fn multiple_keyslots() {
        let (mut header, master) = format_default();
        let mut rng = SeededIvSource::new(8);
        let idx = header
            .add_keyslot_with_iterations(b"second pass", 0, &master, 100, &mut rng)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(header.active_keyslots(), 2);
        assert_eq!(
            header.unlock(b"second pass").unwrap().expose(),
            master.expose()
        );
        header.remove_keyslot(0).unwrap();
        assert!(header.unlock(b"correct horse").is_err());
        assert!(header.unlock(b"second pass").is_ok());
    }

    #[test]
    fn keyslots_exhaust() {
        let (mut header, master) = format_default();
        let mut rng = SeededIvSource::new(9);
        for _ in 1..KEYSLOTS {
            header
                .add_keyslot_with_iterations(b"p", 0, &master, 10, &mut rng)
                .unwrap();
        }
        assert!(matches!(
            header.add_keyslot_with_iterations(b"p", 0, &master, 10, &mut rng),
            Err(CryptError::NoFreeKeyslot)
        ));
    }

    #[test]
    fn rotate_passphrase_rewraps_in_place() {
        let (mut header, master) = format_default();
        let mut rng = SeededIvSource::new(12);
        let rotated = header
            .rotate_passphrase(b"correct horse", b"fresh steed", &mut rng)
            .unwrap();
        assert_eq!(rotated, vec![0]);
        assert_eq!(header.active_keyslots(), 1, "rotation adds no slot");
        assert!(header.unlock(b"correct horse").is_err());
        assert_eq!(
            header.unlock(b"fresh steed").unwrap().expose(),
            master.expose()
        );
        assert!(matches!(
            header.rotate_passphrase(b"wrong", b"x", &mut rng),
            Err(CryptError::WrongPassphrase)
        ));
    }

    #[test]
    fn rekey_lifecycle_epochs_slots_and_chain() {
        let (mut header, master0) = format_default();
        let mut rng = SeededIvSource::new(13);
        let (from_master, to_master) = header
            .begin_rekey(b"correct horse", b"new pass", 50, &mut rng)
            .unwrap();
        assert_eq!(from_master.expose(), master0.expose());
        assert_eq!(header.current_epoch(), 1);
        assert_eq!(
            header.rekey(),
            Some(RekeyState {
                from: 0,
                to: 1,
                watermark: 0,
                intent: None,
            })
        );
        // Old passphrase is revoked immediately; the new one unlocks
        // both epochs through the bridge slot.
        assert!(header.unlock(b"correct horse").is_err());
        let unlocked = header.unlock_all(b"new pass");
        assert_eq!(unlocked.len(), 2);
        assert!(matches!(
            header.begin_rekey(b"new pass", b"x", 50, &mut rng),
            Err(CryptError::RekeyInProgress)
        ));

        header.set_rekey_watermark(1024);
        header.finish_rekey(&from_master, &to_master).unwrap();
        assert!(header.rekey().is_none());
        assert_eq!(header.retired_epochs(), vec![0]);
        // Only the new epoch remains unlockable directly...
        let unlocked = header.unlock_all(b"new pass");
        assert_eq!(unlocked.len(), 1);
        assert_eq!(unlocked[0].0, 1);
        // ...but the retired chain recovers epoch 0 from it.
        let retired = header.unwrap_retired(&unlocked[0].1);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].0, 0);
        assert_eq!(retired[0].1.expose(), master0.expose());
        assert!(matches!(
            header.finish_rekey(&from_master, &to_master),
            Err(CryptError::NoRekeyInProgress)
        ));

        // Round-trips through the wire form, chain included.
        let decoded = LuksHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
    }

    #[test]
    fn window_intent_roundtrips_and_clears() {
        let (mut header, _master) = format_default();
        let mut rng = SeededIvSource::new(21);
        header
            .begin_rekey(b"correct horse", b"new pass", 50, &mut rng)
            .unwrap();
        header.set_rekey_intent(WindowIntent {
            start: 128,
            end: 256,
            chunk_sectors: 16,
        });
        // A header persisted mid-window round-trips the intent.
        let decoded = LuksHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(
            decoded.rekey().and_then(|s| s.intent),
            Some(WindowIntent {
                start: 128,
                end: 256,
                chunk_sectors: 16,
            })
        );
        // The watermark advance and the intent clear are one update.
        header.set_rekey_watermark(256);
        header.clear_rekey_intent();
        let decoded = LuksHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded.rekey().map(|s| s.watermark), Some(256));
        assert_eq!(decoded.rekey().and_then(|s| s.intent), None);
    }

    #[test]
    fn retired_chain_unwinds_across_multiple_rekeys() {
        let (mut header, master0) = format_default();
        let mut rng = SeededIvSource::new(14);
        let (m0, m1) = header
            .begin_rekey(b"correct horse", b"p1", 50, &mut rng)
            .unwrap();
        header.finish_rekey(&m0, &m1).unwrap();
        let (m1b, m2) = header.begin_rekey(b"p1", b"p2", 50, &mut rng).unwrap();
        assert_eq!(m1b.expose(), m1.expose());
        header.finish_rekey(&m1b, &m2).unwrap();

        assert_eq!(header.current_epoch(), 2);
        assert_eq!(header.retired_epochs(), vec![0, 1]);
        let retired = header.unwrap_retired(&m2);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].0, 0);
        assert_eq!(retired[0].1.expose(), master0.expose());
        assert_eq!(retired[1].0, 1);
        assert_eq!(retired[1].1.expose(), m1.expose());
    }

    #[test]
    fn shred_zeroizes_every_secret_bearing_field() {
        let (mut header, master) = format_default();
        let mut rng = SeededIvSource::new(15);
        let (m0, m1) = header
            .begin_rekey(b"correct horse", b"p1", 50, &mut rng)
            .unwrap();
        header.finish_rekey(&m0, &m1).unwrap();
        drop(master);

        header.shred();
        assert_eq!(header.active_keyslots(), 0);
        assert!(header.retired_epochs().is_empty());
        assert!(header.unlock_all(b"p1").is_empty());
        // The encoded form carries no key material: beyond the fixed
        // head, every byte region that held wraps/salts/digests is
        // zero.
        let bytes = header.encode();
        assert!(
            bytes[FIXED_HEAD..].iter().all(|&b| b == 0),
            "shredded header must encode to all-zero key regions"
        );
    }

    #[test]
    fn header_carries_config_faithfully() {
        let mut rng = SeededIvSource::new(10);
        let config = EncryptionConfig::random_iv(MetaLayout::Omap)
            .with_mac()
            .with_snapshot_binding();
        let (header, _) = LuksHeader::format(&config, b"p", &mut rng).unwrap();
        let decoded = LuksHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded.config(), &config);
        assert_eq!(decoded.config().meta_entry_len(), 44);
    }
}
