//! The online rekey driver: migrates every sector of an
//! [`EncryptedImage`] from one key epoch to the next, through the
//! image's own [`crate::EncryptedIoQueue`] under a
//! [`crate::TenantQueue`] (the caller's runtime tenant, or a private
//! runtime sized to the window), while client IO keeps flowing between
//! steps.
//!
//! One [`RekeyDriver::step`] processes a bounded **window** of the
//! image (`queue_depth × chunk_sectors` sectors past the watermark):
//!
//! 1. every chunk's migration-proof marker is armed and its read
//!    submitted up front — an armed chunk reads under the retiring
//!    epoch and its rewrite encrypts under the new one, so the
//!    watermark need not move mid-window;
//! 2. completions are reaped with [`crate::TenantQueue::wait_any`]
//!    — whichever chunk's read lands first is immediately resubmitted
//!    as a write, keeping the pipeline full instead of head-of-line
//!    blocking on the window's slowest chunk;
//! 3. once the window is quiet, the watermark is published (a CASed
//!    header update): the handle's watermark moves only here, so it is
//!    always the stored one.
//!
//! The window's depth adapts to client load: it halves (down to one
//! chunk) while the client pressure sampled before a step exceeds
//! [`DEFAULT_PRESSURE_THRESHOLD`] open submissions, and doubles back
//! toward the configured depth once the samples are quiet. Tenant
//! queue errors reach the caller as [`CryptError`]s through its
//! `From<RuntimeError<CryptError>>` conversion.
//!
//! Between steps the driver owns nothing: the caller is free to run
//! arbitrary queued IO against the image — reads and writes select
//! keys by sector epoch (entry tags, or the watermark for the
//! baseline), so any interleaving stays byte-exact. That is the
//! paper's thesis applied to key management: because the virtual-disk
//! layer owns per-sector metadata, key rotation becomes an online
//! background activity instead of a device-level outage.
//!
//! # Crash recovery
//!
//! Two CASed header updates bracket every window: a **window intent**
//! (`[start, end)` plus the chunk size) persists *before* any chunk is
//! rewritten, and the watermark publish that *clears* it persists only
//! after the window is quiet — one atomic header update, so "intent
//! gone" and "watermark past the window" are the same fact. Each
//! chunk is clamped to one object and its rewrite transaction carries
//! an epoch-keyed **migration-proof marker** xattr, committed (or torn)
//! atomically with the chunk's ciphertext. A step that finds an
//! uncleared intent — left by this handle's failed window, or by a
//! crashed handle this one reopened after — recovers the window
//! before any new work, through the same pipeline: it migrates the
//! intent's chunks whose marker did not commit, then publishes. A
//! marked chunk provably landed and is skipped; an unmarked one still
//! holds the old epoch's ciphertext, so re-migrating it is idempotent.
//! Recovery IO goes through the tenant's admission control like any
//! window's, and a crash during recovery leaves strictly more markers.
//!
//! While a window's intent is outstanding, the baseline layout — which
//! cannot tag sectors — refuses every head read and write overlapping
//! the window with [`CryptError::RekeyInProgress`] (the driver's own
//! armed chunks excepted): chunks that already landed under the new
//! key sit above the watermark, and nothing records which. The next
//! [`RekeyDriver::step`] recovers the window and lifts the refusal.
//! [`EncryptedImage::snap_create`] refuses the baseline in that state
//! too, so no snapshot inherits it. Tagged layouts never refuse:
//! their entries route by epoch.

use crate::encrypted_image::EncryptedImage;
use crate::luks::WindowIntent;
use crate::runtime::{Runtime, TenantHandle, TenantSpec};
use crate::{CryptError, IoOp, IoPayload, Result};
use std::collections::HashMap;
use vdisk_rados::{RadosError, ReadOp, ReadResult};

/// Default sectors per migration chunk (64 KiB at 4 KiB sectors).
pub const DEFAULT_CHUNK_SECTORS: u64 = 16;
/// Default chunks in flight per step.
pub const DEFAULT_QUEUE_DEPTH: usize = 8;
/// Client-pressure threshold: a sampled queue-depth peak above this
/// many open submissions makes the driver halve its window.
/// Synchronous wrappers hold one open submission each, so this ignores
/// light sync traffic and reacts to genuinely queued client IO.
pub const DEFAULT_PRESSURE_THRESHOLD: u64 = 4;

/// Progress of an in-flight rekey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RekeyProgress {
    /// The epoch being retired.
    pub from: u32,
    /// The epoch taking over.
    pub to: u32,
    /// Sectors migrated so far (the watermark).
    pub migrated_sectors: u64,
    /// Total sectors in the image.
    pub total_sectors: u64,
}

impl RekeyProgress {
    /// Whether every sector has been migrated.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.migrated_sectors >= self.total_sectors
    }
}

/// Drives one online rekey to completion (see
/// [`EncryptedImage::rekey_begin`], which documents the migration
/// protocol).
#[derive(Debug)]
pub struct RekeyDriver {
    from: u32,
    to: u32,
    chunk_sectors: u64,
    queue_depth: usize,
    /// Queue depth the next window will actually use: halved while
    /// sampled client pressure exceeds the threshold, doubled back
    /// toward `queue_depth` when pressure subsides.
    effective_depth: usize,
    /// Client queue-depth peak sampled before the last window.
    last_pressure: u64,
    /// When set, window IO flows through this tenant of a
    /// multi-tenant [`crate::runtime::Runtime`] — background rekey
    /// becomes an ordinary (typically low-weight) tenant competing
    /// under weighted fair scheduling instead of a special case.
    tenant: Option<TenantHandle>,
}

impl RekeyDriver {
    pub(crate) fn new(from: u32, to: u32) -> RekeyDriver {
        RekeyDriver {
            from,
            to,
            chunk_sectors: DEFAULT_CHUNK_SECTORS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            effective_depth: DEFAULT_QUEUE_DEPTH,
            last_pressure: 0,
            tenant: None,
        }
    }

    /// Overrides the migration chunk size in sectors.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is 0.
    #[must_use]
    pub fn with_chunk_sectors(mut self, sectors: u64) -> Self {
        // vdisk-lint: allow(hot-path-panic) reason="documented panic on caller input, at driver setup: a zero chunk would never advance the watermark"
        assert!(sectors > 0, "chunk must cover at least one sector");
        self.chunk_sectors = sectors;
        self
    }

    /// Overrides how many chunks each step keeps in flight.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        // vdisk-lint: allow(hot-path-panic) reason="documented panic on caller input, at driver setup: a zero-depth window would never migrate a chunk"
        assert!(depth > 0, "queue depth must be at least 1");
        self.queue_depth = depth;
        self.effective_depth = depth;
        self
    }

    /// Routes every window's reads and rewrites through `tenant` —
    /// registered on a [`crate::runtime::Runtime`] shared with client
    /// tenants, typically at low weight, so the fair scheduler damps
    /// the rekey exactly like any other tenant.
    #[must_use]
    pub fn with_runtime_tenant(mut self, tenant: TenantHandle) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// The queue depth the next window will use: `queue_depth` when
    /// the cluster was quiet, smaller (down to 1) while sampled client
    /// pressure exceeds [`DEFAULT_PRESSURE_THRESHOLD`]. The observable
    /// signal that the rekey yields: window submissions drop with it.
    #[must_use]
    pub fn effective_queue_depth(&self) -> usize {
        self.effective_depth
    }

    /// The client queue-depth peak sampled before the last window.
    #[must_use]
    pub fn last_pressure(&self) -> u64 {
        self.last_pressure
    }

    /// The epoch pair this driver migrates.
    #[must_use]
    pub fn epochs(&self) -> (u32, u32) {
        (self.from, self.to)
    }

    /// Current progress against `disk`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptError::NoRekeyInProgress`] if the image carries
    /// no (or a different) in-flight rekey.
    pub fn progress(&self, disk: &EncryptedImage) -> Result<RekeyProgress> {
        let state = disk.rekey_status().ok_or(CryptError::NoRekeyInProgress)?;
        if state.from != self.from || state.to != self.to {
            return Err(CryptError::NoRekeyInProgress);
        }
        Ok(RekeyProgress {
            from: self.from,
            to: self.to,
            migrated_sectors: state.watermark,
            total_sectors: disk.total_sectors(),
        })
    }

    /// Whether the migration has covered the whole image.
    ///
    /// # Errors
    ///
    /// As [`RekeyDriver::progress`].
    pub fn is_complete(&self, disk: &EncryptedImage) -> Result<bool> {
        Ok(self.progress(disk)?.is_complete())
    }

    /// Migrates one window (up to `effective_queue_depth ×
    /// chunk_sectors` sectors past the watermark) and publishes the
    /// watermark past it — or, if a window's intent is outstanding,
    /// recovers that window instead: it migrates the chunks whose
    /// migration-proof marker did not commit, through the same
    /// pipeline. Returns the new progress; a no-op once complete.
    ///
    /// Before each window the driver samples the cluster's
    /// queue-depth peak since its previous step
    /// ([`vdisk_rados::Cluster::take_queue_depth_window_peak`]); in
    /// tenant mode it additionally samples the runtime's per-tenant
    /// demand peaks excluding its own tenant
    /// ([`crate::runtime::Runtime::take_demand_peak_excluding`]), a
    /// signal that keeps client-tenant bursts landing *during* a
    /// window visible even though the shared cluster window is reset
    /// after each window. A peak above [`DEFAULT_PRESSURE_THRESHOLD`]
    /// means client IO was queuing — the window halves (down to one
    /// chunk); quiet samples double it back toward the configured depth.
    /// Background rekey thereby yields to foreground tenants instead
    /// of competing at full depth.
    ///
    /// # Errors
    ///
    /// [`CryptError::NoRekeyInProgress`] if the image carries no
    /// matching rekey, plus any IO-path error (the watermark stays
    /// put then, and the window's intent stays outstanding for the
    /// next step to recover).
    pub fn step(&mut self, disk: &mut EncryptedImage) -> Result<RekeyProgress> {
        let progress = self.progress(disk)?;
        if progress.is_complete() {
            return Ok(progress);
        }
        // A persisted-but-uncleared window intent means a prior attempt
        // (this handle's failed window, or a crashed handle this one
        // reopened after) started rewriting the window without proving
        // it landed. Recover it — migrate only the chunks whose
        // migration-proof marker did not commit — before any new work.
        let (intent, recovering) = match disk.rekey_status().and_then(|state| state.intent) {
            Some(intent) => (intent, true),
            None => (self.open_window(disk, progress)?, false),
        };
        let mut chunks = Vec::new();
        for chunk in Self::chunks(disk, intent) {
            if !recovering || !self.chunk_proven(disk, chunk.0)? {
                chunks.push(chunk);
            }
        }
        // A failed window leaves its intent persisted and the
        // watermark where it was, so a retried step recovers the
        // window through the proof markers instead of skipping it.
        if let Err(e) = self.migrate_window(disk, chunks) {
            disk.keys_mut().disarm();
            return Err(e);
        }
        // Our own window's submissions must not read as "pressure" in
        // the next step's sample.
        let _ = disk.image().cluster().take_queue_depth_window_peak();
        // Publishing the watermark clears the intent in the same
        // header update.
        disk.keys_mut().publish_watermark(intent.end)?;
        self.progress(disk)
    }

    /// Sizes the next window from the client pressure observed since
    /// the previous step and durably records its intent before any of
    /// it is touched: from here until the watermark publish clears
    /// it, every chunk of the window is "in doubt" and a crash
    /// recovers it through the marker protocol.
    fn open_window(
        &mut self,
        disk: &mut EncryptedImage,
        progress: RekeyProgress,
    ) -> Result<WindowIntent> {
        // The shared cluster window is reset after every window
        // (above) so the driver's own submissions never read as
        // pressure — at the cost of discarding client bursts that
        // landed *during* a window. In tenant mode the runtime's
        // per-tenant demand peaks restore that signal: they never
        // include this driver's own tenant, so they survive the reset
        // and keep mid-window foreground bursts visible to the
        // backoff.
        let cluster_peak = disk.image().cluster().take_queue_depth_window_peak();
        self.last_pressure = match &self.tenant {
            Some(tenant) => {
                cluster_peak.max(tenant.runtime().take_demand_peak_excluding(tenant.id()))
            }
            None => cluster_peak,
        };
        self.effective_depth = if self.last_pressure > DEFAULT_PRESSURE_THRESHOLD {
            (self.effective_depth / 2).max(1)
        } else {
            (self.effective_depth * 2).min(self.queue_depth)
        };
        let start = progress.migrated_sectors;
        let intent = WindowIntent {
            start,
            end: (start + self.chunk_sectors * self.effective_depth as u64)
                .min(progress.total_sectors),
            chunk_sectors: self.chunk_sectors,
        };
        disk.keys_mut().record_intent(intent)?;
        Ok(intent)
    }

    /// Sectors the chunk at `chunk` may cover: the configured size,
    /// clamped to the window end **and to the object boundary** — a
    /// chunk confined to one object is one transaction, so its
    /// ciphertext and its migration-proof marker commit atomically.
    fn chunk_span(chunk_sectors: u64, spo: u64, chunk: u64, end: u64) -> u64 {
        chunk_sectors.min(end - chunk).min(spo - (chunk % spo))
    }

    /// The migration-proof marker of the chunk at byte `offset`: an
    /// xattr the chunk's rewrite stamps onto its own transaction (see
    /// the crash-recovery notes in the [module docs](self)). Keyed by
    /// the target epoch, so stale markers from an earlier rekey never
    /// vouch for this one.
    fn marker(&self, offset: u64) -> String {
        format!("rekey.mark.{}.{offset}", self.to)
    }

    /// Whether the chunk at byte `offset` carries its migration-proof
    /// marker — whether its rewrite under the new key durably landed
    /// before a crash. A missing object proves nothing landed there
    /// (`false`), which is still safe: re-migration is idempotent.
    fn chunk_proven(&self, disk: &EncryptedImage, offset: u64) -> Result<bool> {
        let image = disk.image();
        let object = image.object_name(offset / image.object_size());
        let probe = [ReadOp::GetXattr(self.marker(offset))];
        match image.cluster().read(&object, None, &probe) {
            Ok((results, _)) => Ok(matches!(results.first(), Some(ReadResult::Xattr(Some(_))))),
            Err(RadosError::NoSuchObject(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// `intent`'s chunks as byte `(offset, len)` pairs, in order.
    fn chunks(disk: &EncryptedImage, intent: WindowIntent) -> Vec<(u64, u64)> {
        let ss = disk.sector_size();
        let spo = disk.geometry().sectors_per_object;
        let mut chunks = Vec::new();
        let mut chunk = intent.start;
        while chunk < intent.end {
            let sectors = Self::chunk_span(intent.chunk_sectors, spo, chunk, intent.end);
            chunks.push((chunk * ss, sectors * ss));
            chunk += sectors;
        }
        chunks
    }

    /// Phases 1–2 of one [`RekeyDriver::step`] window (or of its
    /// recovery), always through a [`crate::TenantQueue`]: submissions
    /// pass admission control and dispatch only as the fair scheduler
    /// grants slots, so a low-weight rekey tenant is damped exactly
    /// like any other tenant while client queues are busy. With no
    /// tenant configured the driver registers on a private runtime
    /// sized to the window — every grant is immediate, and the
    /// pipeline below is still the only one.
    fn migrate_window(&self, disk: &mut EncryptedImage, chunks: Vec<(u64, u64)>) -> Result<()> {
        // Arm every chunk before its read is submitted: the chunk then
        // reads under the retiring epoch wherever the arbiter defers
        // it, and its rewrite takes the marker and encrypts under the
        // new one.
        for &(offset, len) in &chunks {
            disk.keys_mut().arm_marker(offset, len, self.marker(offset));
        }
        let tenant = self.tenant.clone().unwrap_or_else(|| {
            let depth = chunks.len().max(1);
            Runtime::new(depth).register(TenantSpec::new("rekey").qd_cap(depth).backlog_cap(depth))
        });
        let mut queue = tenant.attach(disk.io_queue());
        // Phase 1: queue every chunk's read, blocking (and reaping)
        // at the tenant's backlog cap rather than failing.
        let mut chunk_offsets: HashMap<u64, u64> = HashMap::new();
        for (offset, len) in chunks {
            let completion = queue.submit_blocking(IoOp::Read { offset, len })?;
            chunk_offsets.insert(completion.id(), offset);
        }
        // Phase 2: pipeline — whichever read lands first is rewritten
        // first; writes drain alongside the remaining reads, paced by
        // the scheduler's grants.
        while !chunk_offsets.is_empty() || queue.backlog() > 0 || queue.in_flight() > 0 {
            for result in queue.wait_any()? {
                let Some(offset) = chunk_offsets.remove(&result.completion.id()) else {
                    continue; // a rewrite completing
                };
                let IoPayload::Data(plaintext) = result.payload else {
                    return Err(CryptError::Internal(
                        "chunk read completed without a data payload".into(),
                    ));
                };
                queue.submit_blocking(IoOp::Write {
                    offset,
                    data: plaintext,
                })?;
            }
        }
        Ok(())
    }

    /// Runs [`RekeyDriver::step`] until the whole image is migrated,
    /// then [`RekeyDriver::finish`]es.
    ///
    /// # Errors
    ///
    /// As [`RekeyDriver::step`] and [`RekeyDriver::finish`].
    pub fn drive_to_completion(mut self, disk: &mut EncryptedImage) -> Result<()> {
        while !self.step(disk)?.is_complete() {}
        self.finish(disk)
    }

    /// Completes the rekey: retires the old epoch's key into the
    /// header's wrap chain and clears the rekey state (see
    /// [`EncryptedImage::rekey_begin`]). After this the old passphrase
    /// unlocks nothing and head reads never touch the old key again.
    ///
    /// # Errors
    ///
    /// [`CryptError::RekeyInProgress`] if sectors remain unmigrated,
    /// [`CryptError::NoRekeyInProgress`] as [`RekeyDriver::progress`],
    /// [`CryptError::HeaderContended`] on a concurrent header update
    /// (the rekey stays in flight; reopen the image and finish there).
    pub fn finish(self, disk: &mut EncryptedImage) -> Result<()> {
        if !self.is_complete(disk)? {
            return Err(CryptError::RekeyInProgress);
        }
        disk.keys_mut().finish_rekey()
    }
}
