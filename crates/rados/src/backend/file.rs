//! The durable host-filesystem backend.
//!
//! Layout, rooted at the directory passed to
//! [`crate::backend::BackendKind::File`]:
//!
//! ```text
//! <root>/cluster.meta            geometry + snapshot seq (key=value)
//! <root>/shard-<s>/osd-<o>/      one dir per (shard, OSD)
//!     <escaped-name>.obj         one codec blob per object
//! ```
//!
//! Durability protocol: every object write goes to a temp file in the
//! same directory, is `fsync`ed, renamed over the final name, and the
//! directory is `fsync`ed — so a crash anywhere leaves either the old
//! or the new complete version, never a torn file. Deletes unlink and
//! `fsync` the directory. [`ClusterMeta`] updates use the same
//! write-sync-rename dance.
//!
//! The store is **write-through**: reads are served from an in-memory
//! [`MemStore`] mirror (keeping read behavior and cost bit-identical
//! to the simulator backend); the files only matter at commit time and
//! when a cluster reopens the directory.

use super::{MemStore, ObjectStore};
use crate::cluster::PayloadMode;
use crate::fault::{FaultKind, FaultPlane};
use crate::object::Object;
use crate::placement::OsdId;
use crate::transaction::SnapContext;
use crate::{RadosError, Result};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Suffix of every object file.
const OBJ_SUFFIX: &str = ".obj";

/// One shard's durable object store: an in-memory mirror for reads
/// plus one file per (OSD, object) for durability.
#[derive(Debug)]
pub(crate) struct FileStore {
    /// This shard's directory (holds one `osd-<o>` subdir per OSD).
    dir: PathBuf,
    osd_count: usize,
    mem: MemStore,
    /// This shard's index in the cluster (reported in injected errors).
    shard: usize,
    /// The cluster's fault plane, when one is installed: commits crash
    /// at the configured point, and everything fails fast afterwards.
    faults: Option<Arc<FaultPlane>>,
}

impl FileStore {
    /// Opens (or creates) the store for one shard at `dir`, loading
    /// every object file already present into the in-memory mirror.
    /// When a [`FaultPlane`] is installed, durable commits consult it
    /// for the injected crash point.
    pub(crate) fn open_faulted(
        dir: PathBuf,
        osd_count: usize,
        shard: usize,
        faults: Option<Arc<FaultPlane>>,
    ) -> io::Result<Self> {
        let mut mem = MemStore::new(osd_count);
        for osd in 0..osd_count {
            let osd_dir = dir.join(format!("osd-{osd}"));
            fs::create_dir_all(&osd_dir)?;
            for entry in fs::read_dir(&osd_dir)? {
                let path = entry?.path();
                let Some(name) = object_name_of(&path) else {
                    continue;
                };
                let bytes = fs::read(&path)?;
                let object = Object::decode(&bytes).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt object file {}", path.display()),
                    )
                })?;
                mem.insert(osd, &name, object);
            }
        }
        Ok(FileStore {
            dir,
            osd_count,
            mem,
            shard,
            faults,
        })
    }

    fn object_path(&self, osd: usize, name: &str) -> PathBuf {
        self.dir
            .join(format!("osd-{osd}"))
            .join(format!("{}{OBJ_SUFFIX}", escape_name(name)))
    }

    fn crash_error(&self) -> RadosError {
        RadosError::Injected {
            kind: FaultKind::Crash,
            shard: self.shard,
        }
    }

    /// One replica's durable write, with the fault plane's crash point
    /// threaded through [`write_durable`]: when the plane decides this
    /// commit is the one that dies, the rename never happens and the
    /// torn `.tmp` stays on disk, exactly what a host crash between
    /// those two syscalls leaves.
    fn commit_write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match write_durable(path, bytes, self.faults.as_deref()) {
            Ok(true) => Ok(()),
            Ok(false) => Err(self.crash_error()),
            Err(e) => Err(RadosError::Io(format!("commit write: {e}"))),
        }
    }
}

impl ObjectStore for FileStore {
    fn get(&self, osd: usize, name: &str) -> Option<&Object> {
        self.mem.get(osd, name)
    }

    fn get_mut(&mut self, osd: usize, name: &str) -> Option<&mut Object> {
        self.mem.get_mut(osd, name)
    }

    fn entry(
        &mut self,
        osd: usize,
        name: &str,
        store_payload: bool,
        snapc: SnapContext,
    ) -> &mut Object {
        self.mem.entry(osd, name, store_payload, snapc)
    }

    fn insert(&mut self, osd: usize, name: &str, object: Object) {
        self.mem.insert(osd, name, object);
    }

    fn remove(&mut self, osd: usize, name: &str) {
        self.mem.remove(osd, name);
    }

    fn contains(&self, osd: usize, name: &str) -> bool {
        self.mem.contains(osd, name)
    }

    fn names(&self) -> Vec<String> {
        self.mem.names()
    }

    fn commit(&mut self, name: &str, acting: &[OsdId]) -> Result<()> {
        // A crashed cluster writes nothing more — the process is dead;
        // fail fast before touching any file.
        if self.faults.as_ref().is_some_and(|p| p.crashed()) {
            return Err(self.crash_error());
        }
        for osd in acting {
            let path = self.object_path(osd.0, name);
            match self.mem.get(osd.0, name) {
                Some(object) => self.commit_write(&path, &object.encode())?,
                None => remove_durable(&path)
                    .map_err(|e| RadosError::Io(format!("commit of {name}: {e}")))?,
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        // A crashed cluster has nothing left to promise; flushing it is
        // a no-op so teardown paths never panic on an injected crash.
        if self.faults.as_ref().is_some_and(|p| p.crashed()) {
            return Ok(());
        }
        // Commits already fsync file data and directory entries; the
        // flush barrier re-syncs the directory tree so even metadata
        // of empty/untouched OSD dirs is on disk.
        for osd in 0..self.osd_count {
            sync_dir(&self.dir.join(format!("osd-{osd}")))
                .map_err(|e| RadosError::Io(format!("flush: {e}")))?;
        }
        Ok(())
    }
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

/// Unlinks `path` durably (`fsync` of the directory); absent files are
/// fine — the deletion is already durable then.
fn remove_durable(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => sync_dir(path.parent().expect("object paths have a parent")),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
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
    pub(crate) payload: PayloadMode,
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

    fn render(&self) -> String {
        let payload = match self.payload {
            PayloadMode::Stored => "stored",
            PayloadMode::Discarded => "discarded",
        };
        format!(
            "{META_MAGIC}\nosd_count={}\nreplicas={}\npg_count={}\nshard_count={}\n\
             payload={payload}\nsnap_seq={}\n",
            self.osd_count, self.replicas, self.pg_count, self.shard_count, self.snap_seq
        )
    }

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
        Some(ClusterMeta {
            osd_count: fields.get("osd_count")?.parse().ok()?,
            replicas: fields.get("replicas")?.parse().ok()?,
            pg_count: fields.get("pg_count")?.parse().ok()?,
            shard_count: fields.get("shard_count")?.parse().ok()?,
            payload: match *fields.get("payload")? {
                "stored" => PayloadMode::Stored,
                "discarded" => PayloadMode::Discarded,
                _ => return None,
            },
            snap_seq: fields.get("snap_seq")?.parse().ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapId;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch dir inside the workspace `target/` directory
    /// (tests must not write outside the repository).
    fn scratch(label: &str) -> PathBuf {
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

    fn snapc(seq: u64) -> SnapContext {
        SnapContext { seq: SnapId(seq) }
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

    #[test]
    fn commit_then_reopen_restores_objects() {
        let dir = scratch("reopen");
        let acting = [OsdId(0), OsdId(1)];
        {
            let mut store = FileStore::open_faulted(dir.clone(), 2, 0, None).unwrap();
            for osd in &acting {
                let obj = store.entry(osd.0, "a/b c", true, snapc(0));
                obj.head.write(0, b"payload");
                obj.head.omap.put(b"iv".to_vec(), vec![9; 16]);
                obj.head.xattrs.insert("gen".into(), vec![1]);
            }
            store.commit("a/b c", &acting).unwrap();
            store.flush().unwrap();
        }
        let store = FileStore::open_faulted(dir.clone(), 2, 0, None).unwrap();
        for osd in &acting {
            let obj = store.get(osd.0, "a/b c").expect("object survives reopen");
            assert_eq!(obj.head.read(0, 7), b"payload");
            assert_eq!(obj.head.omap.get(b"iv").0, Some(vec![9; 16]));
            assert_eq!(obj.head.xattrs.get("gen"), Some(&vec![1u8]));
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn committed_delete_survives_reopen() {
        let dir = scratch("delete");
        let acting = [OsdId(0)];
        {
            let mut store = FileStore::open_faulted(dir.clone(), 1, 0, None).unwrap();
            store.entry(0, "gone", true, snapc(0)).head.write(0, b"x");
            store.commit("gone", &acting).unwrap();
            store.remove(0, "gone");
            store.commit("gone", &acting).unwrap();
        }
        let store = FileStore::open_faulted(dir.clone(), 1, 0, None).unwrap();
        assert!(!store.contains(0, "gone"));
        assert!(store.names().is_empty());
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
    fn stray_temp_files_are_ignored_on_open() {
        let dir = scratch("stray");
        fs::create_dir_all(dir.join("osd-0")).unwrap();
        // A crash between temp-write and rename leaves a .tmp behind.
        fs::write(dir.join("osd-0/torn.tmp"), b"half a write").unwrap();
        let store = FileStore::open_faulted(dir.clone(), 1, 0, None).unwrap();
        assert!(store.names().is_empty());
        fs::remove_dir_all(dir).unwrap();
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
            payload: PayloadMode::Discarded,
            snap_seq: 42,
        };
        meta.store(&dir).unwrap();
        assert_eq!(ClusterMeta::load(&dir).unwrap(), Some(meta));
        fs::write(dir.join("cluster.meta"), "something else\n").unwrap();
        assert!(ClusterMeta::load(&dir).is_err());
        fs::remove_dir_all(dir).unwrap();
    }
}
