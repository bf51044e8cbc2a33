//! The shard redo log: one append-only file of framed, checksummed
//! records.
//!
//! ```text
//! frame := payload length  u32 LE   (never 0)
//!          crc32(payload)  u32 LE
//!          payload
//! ```
//!
//! An append is durable once [`ShardLog::append`] returns (`write` +
//! `fdatasync`). A crash mid-append leaves a short or garbled last
//! frame; [`ShardLog::open`] keeps every frame up to the first one
//! whose length or checksum does not hold and cuts the rest off. The
//! log is emptied by truncation ([`ShardLog::clear`]), never reused in
//! place, so no stale frame can follow a fresh one. A zero length is
//! refused because a run of zero bytes — what a filesystem may leave
//! where a file grew but its data never landed — would otherwise read
//! as an endless series of valid empty frames.

use crate::codec::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Bytes of framing in front of every payload.
const HEADER: usize = 8;

#[derive(Debug)]
pub(crate) struct ShardLog {
    file: File,
    /// Bytes of intact frames in the file.
    len: u64,
    /// A failed append left bytes behind that could not be cut off
    /// again; appending after them would hide every later record from
    /// replay, so the log refuses.
    broken: bool,
}

impl ShardLog {
    /// Opens the log at `path`, creating it if absent, and returns it
    /// with the payload of every intact frame, oldest first. A torn
    /// tail is truncated away (durably) before this returns.
    pub(crate) fn open(path: &Path) -> io::Result<(ShardLog, Vec<Vec<u8>>)> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let bytes = std::fs::read(path)?;
        let mut payloads = Vec::new();
        let mut rest = &bytes[..];
        while let Some((payload, after)) = split_frame(rest) {
            payloads.push(payload.to_vec());
            rest = after;
        }
        let len = (bytes.len() - rest.len()) as u64;
        if !rest.is_empty() {
            file.set_len(len)?;
            file.sync_all()?;
        }
        Ok((
            ShardLog {
                file,
                len,
                broken: false,
            },
            payloads,
        ))
    }

    /// Bytes of records the log holds.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Builds one frame: `fill` appends the payload, the framing goes
    /// in front.
    pub(crate) fn frame(fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; HEADER];
        fill(&mut buf);
        let (header, payload) = buf.split_at_mut(HEADER);
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len > 0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unframeable record"))?;
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(buf)
    }

    /// Appends one frame and syncs it: durable on `Ok`.
    pub(crate) fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("redo log has an unremovable torn tail"));
        }
        let written = self
            .file
            .write_all(frame)
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => self.len += frame.len() as u64,
            // Part of the frame may be in the file; the next record
            // must not land behind it.
            Err(_) => self.broken = self.file.set_len(self.len).is_err(),
        }
        written
    }

    /// Fault injection: the process dies halfway through appending
    /// `frame`. The half-written tail stays in the file.
    pub(crate) fn append_torn(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(&frame[..frame.len() / 2])
    }

    /// Empties the log, durably.
    pub(crate) fn clear(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.len = 0;
        Ok(())
    }
}

/// Splits the first intact frame off `bytes`: its payload and what
/// follows. `None` when `bytes` is empty or starts with a short, empty
/// or bad-checksum frame.
fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (header, body) = bytes.split_at_checked(HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().ok()?);
    if len == 0 {
        return None;
    }
    let (payload, after) = body.split_at_checked(len)?;
    (crc32(payload) == crc).then_some((payload, after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::file::tests::scratch;

    fn frame_of(payload: &[u8]) -> Vec<u8> {
        ShardLog::frame(|out| out.extend_from_slice(payload)).unwrap()
    }

    #[test]
    fn appended_records_come_back_in_order() {
        let path = scratch("log-order").join("shard.log");
        {
            let (mut log, old) = ShardLog::open(&path).unwrap();
            assert!(old.is_empty());
            log.append(&frame_of(b"first")).unwrap();
            log.append(&frame_of(b"second record")).unwrap();
            assert_eq!(log.len(), std::fs::metadata(&path).unwrap().len());
        }
        let (mut log, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"first".to_vec(), b"second record".to_vec()]);
        log.clear().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        log.append(&frame_of(b"third")).unwrap();
        drop(log);
        let (_, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"third".to_vec()], "appends restart at offset 0");
    }

    #[test]
    fn a_tail_torn_at_any_byte_is_discarded_and_cut_off() {
        let path = scratch("log-torn").join("shard.log");
        let first = frame_of(b"kept");
        let last = frame_of(b"the record the crash interrupted");
        for cut in 0..last.len() {
            let mut bytes = first.clone();
            bytes.extend_from_slice(&last[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let (_, old) = ShardLog::open(&path).unwrap();
            assert_eq!(old, vec![b"kept".to_vec()], "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first.len() as u64,
                "cut at {cut}: the torn tail must be gone from the file"
            );
        }
    }

    #[test]
    fn flipped_bits_and_zero_runs_end_the_log() {
        let path = scratch("log-garbage").join("shard.log");
        let mut bytes = frame_of(b"good");
        let good = bytes.len();
        bytes.extend_from_slice(&frame_of(b"about to be damaged"));
        bytes.extend_from_slice(&frame_of(b"unreachable behind the damage"));
        bytes[good + HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"good".to_vec()]);

        std::fs::write(&path, [0u8; 64]).unwrap();
        let (log, old) = ShardLog::open(&path).unwrap();
        assert!(old.is_empty(), "zeros are not empty frames");
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn an_injected_tear_leaves_half_a_frame() {
        let path = scratch("log-inject").join("shard.log");
        let (mut log, _) = ShardLog::open(&path).unwrap();
        log.append(&frame_of(b"acknowledged")).unwrap();
        let acked = log.len();
        log.append_torn(&frame_of(b"never acknowledged")).unwrap();
        drop(log);
        assert!(std::fs::metadata(&path).unwrap().len() > acked);
        let (log, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"acknowledged".to_vec()]);
        assert_eq!(log.len(), acked);
    }
}
