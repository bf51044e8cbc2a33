//! The durable host-filesystem backend.
//!
//! Layout, rooted at the directory passed to
//! [`crate::backend::BackendKind::File`]:
//!
//! ```text
//! <root>/cluster.meta            geometry + snapshot seq (key=value)
//! <root>/shard-<s>/shard.log     the shard's redo log (see `log.rs`)
//! <root>/shard-<s>/osd-<o>/      one dir per (shard, OSD)
//!     <escaped-name>.obj         one codec blob per object
//! ```
//!
//! Three tiers hold a shard's state: the in-memory [`MemStore`] mirror
//! its [`crate::shard::ShardState`] owns, which serves every read (so
//! read behavior and cost stay bit-identical to an in-memory cluster),
//! the **redo log** that makes transactions durable, and the **object
//! files** that checkpoints fold the log into. [`FileStore`] is the
//! last two: it owns no objects, and every call that writes files
//! borrows the mirror to copy from. The files alone are the state
//! whenever the log is empty — which is how [`crate::Cluster::flush`]
//! leaves the directory.
//!
//! # Commit: one positional write, one sync
//!
//! A transaction has been applied to the mirror on every OSD of its
//! acting set when [`FileStore::commit`] runs. Commit frames one
//! record — object name, resolved snapshot seq, acting set, the ops
//! ([`crate::transaction::AppliedTx::encode`]) behind a length, a
//! CRC-32 and the log's generation — writes it at the log's tail and
//! `fdatasync`s. **That sync returning is the acknowledgement point.**
//! One record covers all replicas, so a crash can no longer leave some
//! replicas a transaction ahead of others, and a sector and its IV
//! reach the disk in one checksummed unit: all of the transaction
//! survives or none of it. Once the log has been recycled (below), the
//! tail lies inside the file, so the sync flushes the record's data
//! blocks and no filesystem metadata.
//!
//! # Checkpoint: fold the log into the files, then empty it
//!
//! A checkpoint writes every object the log touched back to its
//! replica files and then empties the log. It runs synchronously, in
//! whichever thread holds the shard (no background thread), at exactly
//! four points:
//!
//! 1. after the append that carries the log to [`LOG_CAP`] bytes —
//!    the steady state, and the only checkpoint that **recycles** the
//!    log: with no IO of its own, it restarts appends at offset 0
//!    under a fresh, unpredictable generation, keeping the file's
//!    blocks (see `log.rs`);
//! 2. on [`crate::Cluster::flush`];
//! 3. inside [`FileStore::persist`] — a mutation that bypassed the
//!    log (`damage_replica`, `repair`) is made durable by checkpointing
//!    with the named replicas marked for rewrite;
//! 4. after any record containing [`TxOp::Delete`]. Nothing needs this
//!    for correctness. It is there because deletion is how
//!    `secure_erase` crypto-shreds an image: the header object's
//!    earlier records (wrapped keyslots) would otherwise sit readable
//!    in `shard.log` until some later checkpoint. With it, a delete is
//!    as final on return as the `unlink` it replaced.
//!
//! The last three, and open, **truncate** the log to zero bytes,
//! recycled or not: no stale frame outlives a flush, a shred or a
//! process, and after a flush the directory holds object files and
//! empty logs only.
//!
//! Always *after* the append, never before: only then does the mirror
//! equal the logged state, and a checkpoint must not write bytes of a
//! transaction the log does not hold.
//!
//! Each dirty replica file takes one of two branches. **In place:** if
//! every logged op on the object was a payload write, and the file's
//! fixed-size prefix (framing, snapshot lineage, payload length — see
//! [`Object::encode_prefix`]) still equals the mirror's, then nothing
//! but payload bytes inside the existing length changed — no growth, no
//! copy-on-write clone (it would have advanced the snapshot seq in the
//! prefix), no xattr or OMAP change — and the logged extents are
//! `pwrite`n from the replica's mirror copy at
//! [`Object::PAYLOAD_OFFSET`] and `fdatasync`ed. **Rewrite:** anything
//! else re-encodes the object through [`write_durable`] (temp file,
//! `fsync`, rename, directory `fsync`); replica files whose OSDs share
//! one copy in the mirror take the bytes of one encoding. The in-place
//! branch is what keeps write amplification near 1 + replicas whatever
//! the number of objects per shard; rewriting every dirty object would
//! multiply it by objects × object size ÷ log cap.
//!
//! A torn in-place patch is harmless: the log is emptied only after
//! every file is synced, so a crash mid-checkpoint replays the same
//! writes over the half-patched file.
//!
//! # Open: load, replay, checkpoint
//!
//! Open removes stray `*.tmp` files (a crash between temp write and
//! rename) and loads every object file into the mirror. An object's
//! replica files that hold equal bytes load as one copy their OSDs
//! share, as a live transaction leaves them; a file that differs (a
//! damaged replica) loads as its OSD's own copy. Open then replays the
//! log's intact records, each once, through [`MemStore::apply_ops`] —
//! the same routine that applied them live — and checkpoints. A short
//! or bad-checksum tail is a transaction that was never acknowledged,
//! and frames of another generation behind it are stale; the log cuts
//! both off.
//!
//! Replay may run over files that already contain some or all of the
//! logged changes (the crash hit mid-checkpoint, after some renames or
//! patches). That is safe because records are **idempotent redo**:
//! every op is an absolute assignment — these bytes at this offset,
//! this length, this value for this key, this object gone — so
//! applying the whole sequence again, in order, over any state the
//! sequence itself produced ends in the same final state. The one
//! state-dependent step, the copy-on-write clone, fires only when a
//! record's snapshot seq exceeds the object's own, and taking the
//! clone raises the object's seq to match; over a file that already
//! holds the clone it cannot fire again.

use super::log::ShardLog;
use super::mem::OsdSet;
use super::MemStore;
use crate::fault::{FaultKind, FaultPlane};
use crate::object::Object;
use crate::placement::OsdId;
use crate::transaction::{AppliedTx, TxOp, TxRecord};
use crate::{RadosError, Result};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Suffix of every object file.
const OBJ_SUFFIX: &str = ".obj";

/// Log size at which the committing thread checkpoints. Smaller means
/// more frequent, shorter stalls and less to replay at open; larger
/// amortizes the per-file sync over more transactions. 2 MiB is ~128
/// 16 KiB writes: the stall stays in the tens of milliseconds, and a
/// client that manages only 15 MiB/s over 8 shards still drives every
/// shard through two full cycles per 2.5 s measurement window, so a
/// throughput figure always contains steady-state checkpoint cost.
const LOG_CAP: u64 = 2 << 20;

/// How a checkpoint empties the log once the files hold everything.
#[derive(Debug, Clone, Copy)]
enum Reset {
    /// Reuse the file in place under a fresh generation.
    Recycle,
    /// Cut the file to zero bytes, stale frames included.
    Truncate,
}

/// What the log holds for one object beyond what its files hold.
#[derive(Debug)]
struct Dirty {
    /// OSDs whose file is behind.
    osds: Vec<usize>,
    change: Change,
}

/// How far an object's files are behind.
#[derive(Debug)]
enum Change {
    /// Only these payload byte ranges `[start, end)` were written:
    /// candidates for patching in place.
    Extents(Vec<(u64, u64)>),
    /// Something else may have changed: the files must be re-encoded.
    Rewrite,
}

/// Host-IO tallies, exact by construction (the store is the only
/// writer): what the geometry-independence test bounds.
#[derive(Debug, Default, Clone, Copy)]
struct IoCount {
    /// Bytes handed to write calls: log frames, patches, rewrites.
    write_bytes: u64,
    /// `fsync`/`fdatasync` calls, files and directories.
    syncs: u64,
    /// Replica files a checkpoint patched in place.
    patched: u64,
    /// Replica files a checkpoint re-encoded whole.
    rewritten: u64,
    /// Checkpoints that wrote something.
    checkpoints: u64,
    /// Checkpoints that recycled the log instead of truncating it.
    recycled: u64,
}

/// One shard's durability half: a redo log for commits, one file per
/// (OSD, object) for checkpoints. The objects themselves live in the
/// shard's [`MemStore`] mirror, which every writing call borrows.
#[derive(Debug)]
pub(crate) struct FileStore {
    /// This shard's directory (holds `shard.log` and one `osd-<o>`
    /// subdir per OSD).
    dir: PathBuf,
    osd_count: usize,
    log: ShardLog,
    /// Objects the log is ahead of the files on, by name (ordered, so
    /// checkpoints write — and injected crashes land — reproducibly).
    dirty: BTreeMap<String, Dirty>,
    io: IoCount,
    /// This shard's index in the cluster (reported in injected errors).
    shard: usize,
    /// The cluster's fault plane, when one is installed: commits and
    /// checkpoints crash at the configured point, and everything fails
    /// fast afterwards.
    faults: Option<Arc<FaultPlane>>,
    /// Off for the oracle: every checkpoint truncates the log.
    #[cfg(test)]
    recycles: bool,
}

impl FileStore {
    /// Opens (or creates) the store for one shard at `dir`: loads
    /// every object file into a fresh mirror, replays the redo log
    /// over it, and checkpoints, so the store starts with an empty log;
    /// returns the mirror beside it. Recovery itself never consults
    /// the fault plane; commits and checkpoints after it do.
    pub(crate) fn open_faulted(
        dir: PathBuf,
        osd_count: usize,
        shard: usize,
        faults: Option<Arc<FaultPlane>>,
    ) -> io::Result<(MemStore, Self)> {
        // Every replica file, by object name.
        let mut files: BTreeMap<String, Vec<(usize, PathBuf)>> = BTreeMap::new();
        for osd in 0..osd_count {
            let osd_dir = dir.join(format!("osd-{osd}"));
            fs::create_dir_all(&osd_dir)?;
            let mut strays = false;
            for entry in fs::read_dir(&osd_dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "tmp") {
                    // A crash between temp write and rename: the
                    // rename never happened, so the copy is garbage.
                    fs::remove_file(&path)?;
                    strays = true;
                    continue;
                }
                if let Some(name) = object_name_of(&path) {
                    files.entry(name).or_default().push((osd, path));
                }
            }
            if strays {
                sync_dir(&osd_dir)?;
            }
        }
        let mut mem = MemStore::default();
        for (name, replicas) in files {
            // Replica files with equal bytes load as one shared copy; a
            // file that differs loads as its OSD's own.
            let mut copies: Vec<(OsdSet, PathBuf, Vec<u8>)> = Vec::new();
            for (osd, path) in replicas {
                let bytes = fs::read(&path)?;
                match copies.iter_mut().find(|(_, _, loaded)| *loaded == bytes) {
                    Some((osds, _, _)) => *osds = osds.with(osd),
                    None => copies.push((OsdSet::one(osd), path, bytes)),
                }
            }
            for (osds, path, bytes) in copies {
                let object = Object::decode(&bytes)
                    .ok_or_else(|| corrupt(format!("object file {}", path.display())))?;
                mem.insert(&name, osds, object);
            }
        }
        let (log, records) = ShardLog::open(&dir.join("shard.log"))?;
        // The log may be new, and so may this directory: an append is
        // only as durable as the directory entries leading to it.
        sync_dir(&dir)?;
        if let Some(root) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            sync_dir(root)?;
        }
        let mut store = FileStore {
            dir,
            osd_count,
            log,
            dirty: BTreeMap::new(),
            io: IoCount::default(),
            shard,
            faults: None,
            #[cfg(test)]
            recycles: true,
        };
        let mut effects = Vec::new();
        for (i, payload) in records.iter().enumerate() {
            let record = TxRecord::decode(payload)
                .filter(|r| r.acting.iter().all(|osd| osd.0 < osd_count))
                .ok_or_else(|| corrupt(format!("redo record {i} of shard {shard}")))?;
            let tx = record.as_applied();
            mem.apply_ops(&tx, &mut effects);
            effects.clear();
            store.note(&tx);
        }
        store
            .checkpoint(&mem, Reset::Truncate)
            .map_err(|e| io::Error::other(format!("recovery of shard {shard}: {e}")))?;
        store.faults = faults;
        Ok((mem, store))
    }

    fn object_path(&self, osd: usize, name: &str) -> PathBuf {
        self.dir
            .join(format!("osd-{osd}"))
            .join(format!("{}{OBJ_SUFFIX}", escape_name(name)))
    }

    fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| p.crashed())
    }

    fn crash_error(&self) -> RadosError {
        RadosError::Injected {
            kind: FaultKind::Crash,
            shard: self.shard,
        }
    }

    /// The dirty entry for `name`, with `osds` added to it.
    fn dirty(&mut self, name: &str, osds: &[OsdId]) -> &mut Dirty {
        let dirty = self.dirty.entry(name.to_string()).or_insert(Dirty {
            osds: Vec::new(),
            change: Change::Extents(Vec::new()),
        });
        for osd in osds {
            if !dirty.osds.contains(&osd.0) {
                dirty.osds.push(osd.0);
            }
        }
        dirty
    }

    /// Records that the log now holds `tx` and the files do not.
    fn note(&mut self, tx: &AppliedTx<'_>) {
        let dirty = self.dirty(tx.object, tx.acting);
        for op in tx.ops {
            match (op, &mut dirty.change) {
                (TxOp::Write { offset, data }, Change::Extents(extents)) => {
                    extents.push((*offset, offset.saturating_add(data.len() as u64)));
                }
                (TxOp::Write { .. } | TxOp::CompareXattr { .. }, _) => {}
                _ => dirty.change = Change::Rewrite,
            }
        }
    }

    /// Folds the log into the object files — copied from `mem`, which
    /// holds everything the log does — and empties it as `reset` says
    /// (see the [module docs](self)). A no-op when the log file is
    /// empty and nothing is marked dirty; a recycled log with no
    /// records still holds stale frames, and a truncating checkpoint
    /// cuts them off.
    fn checkpoint(&mut self, mem: &MemStore, reset: Reset) -> Result<()> {
        if self.dirty.is_empty() && self.log.file_len() == 0 {
            return Ok(());
        }
        let dirty = std::mem::take(&mut self.dirty);
        match self.write_back(mem, &dirty, reset) {
            Ok(true) => {
                self.io.checkpoints += 1;
                Ok(())
            }
            Ok(false) => Err(self.crash_error()),
            Err(e) => {
                // The log still holds every record: a later checkpoint
                // can do all of this again.
                self.dirty = dirty;
                Err(RadosError::Io(format!("checkpoint: {e}")))
            }
        }
    }

    /// The body of a checkpoint. `Ok(false)` means the fault plane
    /// crashed it: either inside a rewrite (temp file synced, rename
    /// never issued) or at the end — every file written and synced,
    /// the log not yet emptied.
    fn write_back(
        &mut self,
        mem: &MemStore,
        dirty: &BTreeMap<String, Dirty>,
        reset: Reset,
    ) -> io::Result<bool> {
        let faults = self.faults.clone();
        for (name, entry) in dirty {
            let patch = match &entry.change {
                Change::Extents(extents) => Some(merged(extents)),
                Change::Rewrite => None,
            };
            // Replica files that share one copy get the same bytes: the
            // copy is encoded once.
            let mut encoded: Option<(&Object, Vec<u8>)> = None;
            for &osd in &entry.osds {
                let path = self.object_path(osd, name);
                let Some(object) = mem.get(osd, name) else {
                    self.io.syncs += u64::from(remove_durable(&path)?);
                    continue;
                };
                if let Some(extents) = &patch {
                    if patch_in_place(&path, object, extents, &mut self.io)? {
                        continue;
                    }
                }
                let bytes = match &encoded {
                    Some((copy, bytes)) if std::ptr::eq(*copy, object) => bytes,
                    _ => &encoded.insert((object, object.encode())).1,
                };
                self.io.write_bytes += bytes.len() as u64;
                self.io.syncs += 2;
                self.io.rewritten += 1;
                if !write_durable(&path, bytes, faults.as_deref())? {
                    return Ok(false);
                }
            }
        }
        if faults.as_deref().is_some_and(FaultPlane::commit_crashes) {
            return Ok(false);
        }
        match reset {
            Reset::Recycle => {
                self.log.recycle();
                self.io.recycled += 1;
            }
            Reset::Truncate => {
                self.log.clear()?;
                self.io.syncs += 1;
            }
        }
        Ok(true)
    }
}

impl FileStore {
    /// The per-transaction durability point: `tx` has just been applied
    /// to `mem` on every OSD of its acting set and must be durable
    /// before it is acknowledged — one redo record appended to the
    /// shard's log and synced.
    ///
    /// # Errors
    ///
    /// [`RadosError::Io`] when the host filesystem fails; the mirror is
    /// already updated then (crash semantics: the acknowledged prefix
    /// is durable, this transaction is not).
    pub(crate) fn commit(&mut self, mem: &MemStore, tx: &AppliedTx<'_>) -> Result<()> {
        // A crashed cluster writes nothing more — the process is dead;
        // fail fast before touching any file.
        if self.crashed() {
            return Err(self.crash_error());
        }
        // Built afresh and dropped before any checkpoint: a record can
        // be as large as an object, and so can a checkpoint's encoding.
        let frame = self
            .log
            .frame(|out| tx.encode(out))
            .map_err(|e| RadosError::Io(format!("commit of {}: {e}", tx.object)))?;
        if self
            .faults
            .as_deref()
            .is_some_and(FaultPlane::commit_crashes)
        {
            // This append is the one that dies: half the frame reaches
            // the file, the sync and the acknowledgement never happen.
            let _ = self.log.append_torn(&frame);
            return Err(self.crash_error());
        }
        let appended = self.log.append(&frame);
        self.io.write_bytes += frame.len() as u64;
        self.io.syncs += 1;
        drop(frame);
        if let Err(e) = appended {
            // The record is in the mirror but not in the log. Its object
            // is rewritten whole next time: patching only the extents of
            // its neighbours could put part of it on disk.
            self.dirty(tx.object, tx.acting).change = Change::Rewrite;
            return Err(RadosError::Io(format!("commit of {}: {e}", tx.object)));
        }
        self.note(tx);
        // A delete truncates: no byte of a shredded object may outlive
        // it, not even as a stale frame.
        if tx.ops.iter().any(|op| matches!(op, TxOp::Delete)) {
            self.checkpoint(mem, Reset::Truncate)?;
        } else if self.log.len() >= LOG_CAP {
            self.checkpoint(mem, self.steady_reset())?;
        }
        Ok(())
    }

    /// How a checkpoint at [`LOG_CAP`] empties the log.
    fn steady_reset(&self) -> Reset {
        #[cfg(test)]
        if !self.recycles {
            return Reset::Truncate;
        }
        Reset::Recycle
    }

    /// Persists `mem`'s current copy of `name` on the given OSDs after
    /// a mutation that was *not* a transaction (fault-injection damage,
    /// repair). An OSD that no longer holds the object persists the
    /// deletion. Durable on return.
    ///
    /// # Errors
    ///
    /// [`RadosError::Io`] when the host filesystem fails.
    pub(crate) fn persist(&mut self, mem: &MemStore, name: &str, osds: &[OsdId]) -> Result<()> {
        if self.crashed() {
            return Err(self.crash_error());
        }
        self.dirty(name, osds).change = Change::Rewrite;
        self.checkpoint(mem, Reset::Truncate)
    }

    /// The whole-shard durability point behind [`crate::Cluster::flush`]:
    /// checkpoints the log into the object files and truncates it.
    ///
    /// # Errors
    ///
    /// [`RadosError::Io`] when the host filesystem fails.
    pub(crate) fn flush(&mut self, mem: &MemStore) -> Result<()> {
        // A crashed cluster has nothing left to promise; flushing it is
        // a no-op so teardown paths never panic on an injected crash.
        if self.crashed() {
            return Ok(());
        }
        if let Err(e) = self.checkpoint(mem, Reset::Truncate) {
            // Crashed mid-flush is crashed all the same.
            return if self.crashed() { Ok(()) } else { Err(e) };
        }
        // Checkpoints fsync file data and the directory entries they
        // change; the flush barrier re-syncs the directory tree so even
        // metadata of empty/untouched OSD dirs is on disk.
        for osd in 0..self.osd_count {
            sync_dir(&self.dir.join(format!("osd-{osd}")))
                .map_err(|e| RadosError::Io(format!("flush: {e}")))?;
        }
        Ok(())
    }
}

fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt {what}"))
}

/// `extents` sorted, with overlapping and touching ranges coalesced.
fn merged(extents: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = extents.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (start, end) in sorted {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// The checkpoint's in-place branch: writes `extents` of `object`'s
/// payload into the replica file at `path` and syncs it. `Ok(false)` —
/// nothing written — when the file is missing or its prefix differs
/// from the object's (the object is new, grew, shrank or was cloned
/// since the file was written), or an extent lies outside the payload:
/// the caller re-encodes the object instead.
fn patch_in_place(
    path: &Path,
    object: &Object,
    extents: &[(u64, u64)],
    io: &mut IoCount,
) -> io::Result<bool> {
    let file = match fs::OpenOptions::new().read(true).write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let mut on_disk = [0u8; Object::PAYLOAD_OFFSET];
    match file.read_exact_at(&mut on_disk, 0) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let mut prefix = Vec::with_capacity(Object::PAYLOAD_OFFSET);
    object.encode_prefix(&mut prefix);
    let payload = object.head.payload();
    if on_disk[..] != prefix[..] || extents.iter().any(|&(_, end)| end > payload.len() as u64) {
        return Ok(false);
    }
    for &(start, end) in extents {
        let bytes = &payload[start as usize..end as usize];
        file.write_all_at(bytes, Object::PAYLOAD_OFFSET as u64 + start)?;
        io.write_bytes += bytes.len() as u64;
    }
    file.sync_data()?;
    io.syncs += 1;
    io.patched += 1;
    Ok(true)
}

/// The object name an on-disk path encodes, or `None` for non-object
/// files (temp files, strays).
fn object_name_of(path: &Path) -> Option<String> {
    let file = path.file_name()?.to_str()?;
    let escaped = file.strip_suffix(OBJ_SUFFIX)?;
    unescape_name(escaped)
}

/// Escapes an object name into a safe file name: ASCII alphanumerics
/// plus `._-` pass through, everything else becomes `%XX`.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Inverse of [`escape_name`]; `None` for malformed escapes.
fn unescape_name(escaped: &str) -> Option<String> {
    let bytes = escaped.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = escaped.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Writes `bytes` to `path` atomically and durably: temp file in the
/// same directory, `fsync`, rename over the target, `fsync` the
/// directory. A fault plane, when given, is consulted between the temp
/// file's `fsync` and the rename: if this commit is its crash point the
/// write stops there — `Ok(false)`, the synced `.tmp` left behind.
/// `Ok(true)` means the new version is in place.
pub(crate) fn write_durable(
    path: &Path,
    bytes: &[u8],
    faults: Option<&FaultPlane>,
) -> io::Result<bool> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path without a parent dir"))?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if faults.is_some_and(FaultPlane::commit_crashes) {
        return Ok(false);
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)?;
    Ok(true)
}

/// Unlinks `path` durably (`fsync` of the directory) and says whether
/// there was anything to unlink; an absent file is fine — the deletion
/// is already durable then.
fn remove_durable(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => sync_dir(path.parent().expect("object paths have a parent")).map(|()| true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// The durable cluster-wide facts of a file-backed store: the geometry
/// the directory was formatted with (a reopen must match it — placement
/// is a pure function of the geometry, so a mismatch would scatter
/// objects) and the snapshot sequence (clone visibility is defined by
/// seqs, so it must survive restarts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClusterMeta {
    pub(crate) osd_count: usize,
    pub(crate) replicas: usize,
    pub(crate) pg_count: u64,
    pub(crate) shard_count: usize,
    pub(crate) snap_seq: u64,
}

const META_MAGIC: &str = "vdisk-cluster v1";

impl ClusterMeta {
    fn path(root: &Path) -> PathBuf {
        root.join("cluster.meta")
    }

    /// Loads the meta file under `root`; `Ok(None)` when the directory
    /// holds no formatted cluster yet.
    pub(crate) fn load(root: &Path) -> io::Result<Option<ClusterMeta>> {
        let text = match fs::read_to_string(Self::path(root)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::parse(&text)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed cluster.meta"))
            .map(Some)
    }

    /// Durably writes the meta file under `root`.
    pub(crate) fn store(&self, root: &Path) -> io::Result<()> {
        write_durable(Self::path(root).as_path(), self.render().as_bytes(), None).map(drop)
    }

    /// The meta file's text. Its `payload=stored` line is the only
    /// value the line ever takes; it stays so the format does not
    /// change.
    fn render(&self) -> String {
        format!(
            "{META_MAGIC}\nosd_count={}\nreplicas={}\npg_count={}\nshard_count={}\n\
             payload=stored\nsnap_seq={}\n",
            self.osd_count, self.replicas, self.pg_count, self.shard_count, self.snap_seq
        )
    }

    /// Parses [`ClusterMeta::render`] text; `None` when it is malformed
    /// or names a payload mode other than `stored`.
    fn parse(text: &str) -> Option<ClusterMeta> {
        let mut lines = text.lines();
        if lines.next()? != META_MAGIC {
            return None;
        }
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            fields.insert(key, value);
        }
        if *fields.get("payload")? != "stored" {
            return None;
        }
        Some(ClusterMeta {
            osd_count: fields.get("osd_count")?.parse().ok()?,
            replicas: fields.get("replicas")?.parse().ok()?,
            pg_count: fields.get("pg_count")?.parse().ok()?,
            shard_count: fields.get("shard_count")?.parse().ok()?,
            snap_seq: fields.get("snap_seq")?.parse().ok()?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use crate::SnapId;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch dir inside the workspace `target/` directory
    /// (tests must not write outside the repository).
    pub(crate) fn scratch(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/backend-scratch")
            .join(format!(
                "{label}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    const ACTING: [OsdId; 3] = [OsdId(0), OsdId(1), OsdId(2)];

    /// A shard's two halves, as `ShardState` holds them.
    struct Store {
        mem: MemStore,
        disk: FileStore,
    }

    impl Store {
        fn flush(&mut self) {
            self.disk.flush(&self.mem).unwrap();
        }
    }

    fn open(dir: &Path) -> Store {
        let (mem, disk) =
            FileStore::open_faulted(dir.to_path_buf(), ACTING.len(), 0, None).unwrap();
        Store { mem, disk }
    }

    /// What the shard engine does with a transaction: apply it on
    /// every acting OSD, then commit.
    fn run(store: &mut Store, seq: u64, tx: &Transaction) {
        let applied = AppliedTx {
            object: &tx.object,
            snap_seq: SnapId(seq),
            acting: &ACTING,
            ops: &tx.ops,
        };
        store.mem.apply_ops(&applied, &mut Vec::new());
        store.disk.commit(&store.mem, &applied).unwrap();
    }

    fn write_tx(name: &str, offset: u64, data: Vec<u8>) -> Transaction {
        let mut tx = Transaction::new(name);
        tx.write(offset, data);
        tx
    }

    /// Every replica of every object, encoded: the store's whole state.
    fn image(store: &Store) -> Vec<(usize, String, Vec<u8>)> {
        let mut out = Vec::new();
        for name in store.mem.names() {
            for osd in 0..ACTING.len() {
                if let Some(object) = store.mem.get(osd, &name) {
                    out.push((osd, name.clone(), object.encode()));
                }
            }
        }
        out
    }

    /// The same, read from the object files alone.
    fn files(store: &Store) -> Vec<(usize, String, Vec<u8>)> {
        let mut out = Vec::new();
        for osd in 0..ACTING.len() {
            for entry in fs::read_dir(store.disk.dir.join(format!("osd-{osd}"))).unwrap() {
                let path = entry.unwrap().path();
                let name = object_name_of(&path).expect("only object files after a checkpoint");
                out.push((osd, name, fs::read(&path).unwrap()));
            }
        }
        out.sort();
        out
    }

    fn log_len(dir: &Path) -> u64 {
        fs::metadata(dir.join("shard.log")).unwrap().len()
    }

    #[test]
    fn name_escaping_roundtrips() {
        for name in [
            "rbd_data.img.0000000000000003",
            "weird/name with spaces",
            "per%cent",
            "uni\u{00e9}code",
            ".obj",
        ] {
            let escaped = escape_name(name);
            assert!(
                escaped
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"._-%".contains(&b)),
                "{escaped} has unsafe bytes"
            );
            assert_eq!(unescape_name(&escaped).as_deref(), Some(name));
        }
        assert_eq!(unescape_name("bad%zz"), None);
        assert_eq!(unescape_name("trunc%2"), None);
    }

    /// A workload touching every kind of op and both checkpoint
    /// branches: creation, in-range overwrites, growth, OMAP and xattr
    /// changes, a copy-on-write clone, a truncate.
    fn mixed_workload(store: &mut Store) {
        run(store, 0, &write_tx("a/b c", 0, vec![1; 8192]));
        run(store, 0, &write_tx("other", 0, vec![2; 4096]));
        store.flush();
        run(store, 0, &write_tx("a/b c", 100, vec![3; 50]));
        run(store, 0, &write_tx("a/b c", 8000, vec![4; 1000]));
        let mut tx = Transaction::new("a/b c");
        tx.omap_set(vec![(b"iv".to_vec(), vec![9; 16])])
            .set_xattr("gen", vec![1]);
        run(store, 0, &tx);
        run(store, 2, &write_tx("a/b c", 0, vec![5; 10]));
        run(store, 2, &write_tx("other", 10, vec![6; 20]));
        let mut tx = Transaction::new("other");
        tx.truncate(2048).omap_remove(vec![b"absent".to_vec()]);
        run(store, 2, &tx);
    }

    #[test]
    fn commit_then_reopen_restores_objects() {
        let dir = scratch("reopen");
        let live = {
            let mut store = open(&dir);
            mixed_workload(&mut store);
            assert!(log_len(&dir) > 0, "commits go to the log");
            store.flush();
            assert_eq!(log_len(&dir), 0, "a flush empties the log");
            let mut mirror = image(&store);
            mirror.sort();
            assert_eq!(files(&store), mirror, "and leaves the files current");
            image(&store)
        };
        assert_eq!(image(&open(&dir)), live);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn drop_without_flush_reopens_identical_to_the_live_mirror() {
        let dir = scratch("replay");
        let live = {
            let mut store = open(&dir);
            mixed_workload(&mut store);
            image(&store)
            // Dropped here: no flush, the tail of the workload exists
            // only in the log.
        };
        assert!(log_len(&dir) > 0);
        let store = open(&dir);
        assert_eq!(image(&store), live, "replay must rebuild the mirror");
        assert_eq!(log_len(&dir), 0, "open checkpoints what it replayed");
        let mut mirror = image(&store);
        mirror.sort();
        assert_eq!(files(&store), mirror);
        let clone = store.mem.get(0, "a/b c").unwrap();
        assert_eq!(
            clone.content_at(Some(SnapId(1))).unwrap().read(0, 4),
            vec![1; 4],
            "the pre-snapshot clone is replayed too"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_over_already_checkpointed_files_changes_nothing() {
        // The crash that leaves this behind: every file written and
        // synced, the log not yet truncated.
        let dir = scratch("redo");
        let (live, log) = {
            let mut store = open(&dir);
            mixed_workload(&mut store);
            let log = fs::read(dir.join("shard.log")).unwrap();
            store.flush();
            (image(&store), log)
        };
        fs::write(dir.join("shard.log"), log).unwrap();
        let store = open(&dir);
        assert_eq!(image(&store), live, "redo records must be idempotent");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn committed_delete_survives_reopen() {
        let dir = scratch("delete");
        {
            let mut store = open(&dir);
            run(&mut store, 0, &write_tx("gone", 0, b"secret".to_vec()));
            run(&mut store, 0, &write_tx("kept", 0, b"x".to_vec()));
            let mut tx = Transaction::new("gone");
            tx.delete();
            run(&mut store, 0, &tx);
            assert_eq!(log_len(&dir), 0, "nothing of a deleted object stays logged");
            assert!(files(&store).iter().all(|(_, name, _)| name == "kept"));
        }
        let store = open(&dir);
        assert!(store.mem.get(0, "gone").is_none());
        assert_eq!(store.mem.names(), vec!["kept".to_string()]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn persist_makes_an_unlogged_mutation_durable() {
        let dir = scratch("persist");
        {
            let mut store = open(&dir);
            run(&mut store, 0, &write_tx("obj", 0, vec![7; 64]));
            store.mem.diverge(2, "obj").unwrap().head.poke(3, 0xFF);
            store.disk.persist(&store.mem, "obj", &[OsdId(2)]).unwrap();
            assert_eq!(log_len(&dir), 0);
        }
        let store = open(&dir);
        assert_eq!(store.mem.get(2, "obj").unwrap().head.read(3, 1), vec![0xFF]);
        assert_eq!(store.mem.get(0, "obj").unwrap().head.read(3, 1), vec![7]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn open_shares_equal_replica_files_and_keeps_a_differing_one_apart() {
        let dir = scratch("share");
        {
            let mut store = open(&dir);
            run(&mut store, 0, &write_tx("clean", 0, vec![1; 64]));
            run(&mut store, 0, &write_tx("damaged", 0, vec![2; 64]));
            store.mem.diverge(1, "damaged").unwrap().head.poke(0, 0xFF);
            store
                .disk
                .persist(&store.mem, "damaged", &[OsdId(1)])
                .unwrap();
            store.flush();
        }
        let mut store = open(&dir);
        assert_eq!(store.mem.copies("clean"), 1, "three equal files, one copy");
        assert_eq!(store.mem.copies("damaged"), 2);
        assert_eq!(
            store.mem.get(1, "damaged").unwrap().head.read(0, 1),
            vec![0xFF]
        );
        // A transaction applies to the shared copy and to the diverged one.
        run(&mut store, 0, &write_tx("damaged", 8, vec![3; 8]));
        assert_eq!(store.mem.copies("damaged"), 2);
        for osd in 0..ACTING.len() {
            assert_eq!(
                store.mem.get(osd, "damaged").unwrap().head.read(8, 1),
                vec![3]
            );
        }
        let mut mirror = image(&store);
        drop(store);
        let store = open(&dir);
        mirror.sort();
        assert_eq!(
            files(&store),
            mirror,
            "one encoding serves every file sharing it"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_object_file_fails_open() {
        let dir = scratch("corrupt");
        fs::create_dir_all(dir.join("osd-0")).unwrap();
        fs::write(dir.join("osd-0/bad.obj"), b"not a codec blob").unwrap();
        let err = FileStore::open_faulted(dir.clone(), 1, 0, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_record_naming_an_unknown_osd_fails_open() {
        let dir = scratch("bad-osd");
        {
            let mut store = open(&dir);
            run(&mut store, 0, &write_tx("obj", 0, vec![1]));
        }
        let err = FileStore::open_faulted(dir.clone(), 2, 0, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stray_temp_files_are_ignored_on_open() {
        let dir = scratch("stray");
        fs::create_dir_all(dir.join("osd-0")).unwrap();
        // A crash between temp-write and rename leaves a .tmp behind.
        fs::write(dir.join("osd-0/torn.tmp"), b"half a write").unwrap();
        let (mem, _disk) = FileStore::open_faulted(dir.clone(), 1, 0, None).unwrap();
        assert!(mem.names().is_empty());
        assert!(
            !dir.join("osd-0/torn.tmp").exists(),
            "open must not leave the dead copy on disk to be counted forever"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// Write amplification must not depend on how many objects share a
    /// shard. 16 objects, uniform random 16 KiB overwrites: a
    /// checkpoint that re-encoded every dirty object would write
    /// 16 objects × 3 replicas × 1 MiB per 2 MiB of log (amplification
    /// ~25); patching in place writes each logged byte once per replica.
    #[test]
    fn write_amplification_is_independent_of_objects_per_shard() {
        const OBJECTS: u64 = 16;
        const OBJECT_BYTES: u64 = 1 << 20;
        const IO: u64 = 16 << 10;
        const OPS: u64 = 1024;
        let dir = scratch("geometry");
        let mut store = open(&dir);
        for obj in 0..OBJECTS {
            let fill = vec![obj as u8; OBJECT_BYTES as usize];
            run(&mut store, 0, &write_tx(&format!("obj.{obj}"), 0, fill));
        }
        store.flush();
        let before = store.disk.io;

        for op in 0..OPS {
            let draw = crate::fault::splitmix64(op);
            let obj = draw % OBJECTS;
            let offset = (draw >> 32) % (OBJECT_BYTES / IO) * IO;
            let data = vec![op as u8; IO as usize];
            run(
                &mut store,
                0,
                &write_tx(&format!("obj.{obj}"), offset, data),
            );
        }
        let steady = store.disk.io;
        store.flush();
        let io = store.disk.io;
        assert_eq!(log_len(&dir), 0, "a flush truncates a recycled log");

        assert_eq!(
            io.rewritten, before.rewritten,
            "in-range overwrites must never re-encode an object"
        );
        let recycled = steady.recycled - before.recycled;
        assert_eq!(
            recycled,
            steady.checkpoints - before.checkpoints,
            "every checkpoint the log cap triggers recycles the log"
        );
        assert!(recycled >= OPS * IO / LOG_CAP, "only {recycled} recycles");
        let cycles = io.checkpoints - before.checkpoints;
        assert!(cycles >= OPS * IO / LOG_CAP, "only {cycles} checkpoints");
        assert!(io.patched - before.patched >= cycles * ACTING.len() as u64);
        let amp = (io.write_bytes - before.write_bytes) as f64 / (OPS * IO) as f64;
        assert!(amp <= 5.0, "write amplification {amp:.2}");
        let syncs = (io.syncs - before.syncs) as f64 / OPS as f64;
        assert!(syncs <= 2.0, "{syncs:.2} syncs per op");

        let mut mirror = image(&store);
        mirror.sort();
        assert_eq!(files(&store), mirror, "patched files equal re-encoded ones");
        fs::remove_dir_all(dir).unwrap();
    }

    /// Recycling the log must be invisible. One seeded commit sequence
    /// crosses several [`LOG_CAP`] cycles, with a drop without flush and
    /// a reopen at seeded points and right after some recycles, through
    /// a store that recycles and through one that truncates at every
    /// checkpoint. At every reopen both logs replay the same records —
    /// except right after a recycle, where the recycled log still
    /// replays the generation its files already hold — and both stores
    /// always hold the same mirror and the same object files.
    #[test]
    fn recycling_the_log_matches_truncating_it() {
        const OBJECTS: u64 = 6;
        const OPS: u64 = 400;
        let dirs = [scratch("recycle"), scratch("truncate")];
        let reopen = || {
            dirs.each_ref().map(|dir| {
                let mut store = open(dir);
                store.disk.recycles = dir == &dirs[0];
                store
            })
        };
        let logged = |dir: &Path| {
            let bytes = fs::read(dir.join("shard.log")).unwrap();
            let (_, records, _) = crate::backend::log::replay(&bytes);
            records.into_iter().map(<[u8]>::to_vec).collect::<Vec<_>>()
        };
        let mut stores = reopen();
        let (mut recycled, mut stale_reopens, mut fresh_reopens) = (0, 0, 0);
        for op in 0..OPS {
            let draw = crate::fault::splitmix64(op ^ 0x5EED);
            let name = format!("obj.{}", draw % OBJECTS);
            let mut tx = Transaction::new(&name);
            match (draw >> 8) % 256 {
                0 => {
                    tx.delete();
                }
                1..=3 => {
                    tx.truncate((draw >> 16) % (256 << 10));
                }
                4..=7 => {
                    tx.omap_set(vec![(vec![op as u8 % 4], vec![op as u8; 16])])
                        .set_xattr("tag", vec![op as u8]);
                }
                // Equal-sized records: a new generation's frames line
                // up with the stale ones they overwrite.
                _ => {
                    tx.write((draw >> 16) % (256 << 10), vec![op as u8; 96 << 10]);
                }
            }
            let before = stores[0].disk.io.recycled;
            for store in &mut stores {
                run(store, 0, &tx);
            }
            if tx.ops.iter().any(|op| matches!(op, TxOp::Delete)) {
                assert_eq!(log_len(&dirs[0]), 0, "op {op}: a delete truncates");
            }
            let just_recycled = stores[0].disk.io.recycled > before;
            if (draw >> 52).is_multiple_of(48) || (just_recycled && (draw >> 40) & 1 == 0) {
                recycled += stores[0].disk.io.recycled;
                assert_eq!(stores[1].disk.io.recycled, 0);
                let log = &stores[0].disk.log;
                stale_reopens += u32::from(log.file_len() > log.len());
                drop(stores);
                let (ours, oracle) = (logged(&dirs[0]), logged(&dirs[1]));
                if just_recycled {
                    fresh_reopens += 1;
                    assert!(oracle.is_empty() && !ours.is_empty(), "op {op}");
                } else {
                    assert!(
                        ours == oracle,
                        "op {op}: the recycled log replays {} records, the truncated one {}",
                        ours.len(),
                        oracle.len()
                    );
                }
                stores = reopen();
                assert_eq!(image(&stores[0]), image(&stores[1]), "op {op}: reopen");
                assert_eq!(files(&stores[0]), files(&stores[1]), "op {op}: files");
            }
        }
        recycled += stores[0].disk.io.recycled;
        assert!(recycled >= 3, "only {recycled} recycles");
        assert!(
            stale_reopens >= 2 && fresh_reopens >= 1,
            "only {stale_reopens} reopens over stale frames, {fresh_reopens} right after a recycle"
        );
        for store in &mut stores {
            store.flush();
        }
        assert_eq!(image(&stores[0]), image(&stores[1]));
        assert_eq!(files(&stores[0]), files(&stores[1]));
        for dir in dirs {
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn extents_merge_when_they_touch_or_overlap() {
        assert_eq!(
            merged(&[(10, 20), (0, 5), (20, 30), (4, 6), (40, 41)]),
            vec![(0, 6), (10, 30), (40, 41)]
        );
        assert!(merged(&[]).is_empty());
    }

    #[test]
    fn cluster_meta_roundtrips_and_rejects_garbage() {
        let dir = scratch("meta");
        assert_eq!(ClusterMeta::load(&dir).unwrap(), None);
        let meta = ClusterMeta {
            osd_count: 3,
            replicas: 3,
            pg_count: 128,
            shard_count: 8,
            snap_seq: 42,
        };
        meta.store(&dir).unwrap();
        assert_eq!(ClusterMeta::load(&dir).unwrap(), Some(meta));
        fs::write(dir.join("cluster.meta"), "something else\n").unwrap();
        assert!(ClusterMeta::load(&dir).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    /// The text a freshly formatted default store writes, byte for byte:
    /// directories formatted by earlier builds must keep reopening.
    const FORMATTED_META: &str = "vdisk-cluster v1\nosd_count=3\nreplicas=3\npg_count=128\n\
                                  shard_count=8\npayload=stored\nsnap_seq=0\n";

    #[test]
    fn a_fresh_store_writes_the_golden_cluster_meta() {
        let dir = scratch("meta-golden");
        let cluster = crate::Cluster::builder()
            .backend(crate::BackendKind::File { dir: dir.clone() })
            .build();
        drop(cluster);
        assert_eq!(
            fs::read_to_string(dir.join("cluster.meta")).unwrap(),
            FORMATTED_META
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cluster_meta_rejects_any_payload_mode_but_stored() {
        assert!(ClusterMeta::parse(FORMATTED_META).is_some());
        for line in ["payload=discarded\n", "payload=\n", ""] {
            let text = FORMATTED_META.replace("payload=stored\n", line);
            assert_eq!(ClusterMeta::parse(&text), None, "{line:?}");
        }
    }
}
