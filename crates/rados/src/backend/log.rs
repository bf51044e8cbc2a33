//! The shard redo log: one file of framed, checksummed records,
//! appended at a tail offset and reused in place.
//!
//! ```text
//! frame := payload length        u32 LE   (never 0)
//!          crc32(gen ‖ payload)  u32 LE
//!          gen                   u64 LE   (the log's generation)
//!          payload
//! ```
//!
//! An append is durable once [`ShardLog::append`] returns (positional
//! `write` at the tail + `fdatasync`). A crash mid-append leaves a
//! short or garbled last frame; [`ShardLog::open`] keeps every frame up
//! to the first one whose length, checksum or generation does not hold
//! and cuts the rest off.
//!
//! The log is emptied one of two ways. [`ShardLog::clear`] truncates
//! the file to zero bytes. [`ShardLog::recycle`] does no IO: it draws a
//! new generation and restarts appends at offset 0, so later appends
//! overwrite blocks the file already has and their `fdatasync` flushes
//! data without growing the file (no filesystem journal commit). Behind
//! the tail of a recycled log lie the stale frames of earlier
//! generations, whole and checksum-valid — and so may be any frame a
//! client wrote into a record's payload, since payloads are logged
//! verbatim and a CRC has no key.
//!
//! **Invariant:** a frame is replayed only if it carries the first
//! frame's generation, and every generation is 64 bits drawn from the
//! OS-seeded keys of [`RandomState`] — on open when the log is empty
//! and at every recycle, each differing from the one before. Nothing
//! is persisted: opening a log cuts it back to its intact frames and
//! continues their generation, and every truncation removes all stale
//! bytes, so stale frames exist only within one process lifetime,
//! between two truncations. A stale frame, honest or planted, that
//! starts exactly at the tail therefore ends replay unless it guessed a
//! generation no one outside the process can see.
//!
//! A recycle that no append has followed yet leaves the previous
//! generation's frames intact at offset 0. Replaying them is harmless:
//! a checkpoint recycles only after the object files hold every record,
//! the same state as a crash between a checkpoint's last sync and its
//! reset.
//!
//! A zero length is refused because a run of zero bytes — what a
//! filesystem may leave where a file grew but its data never landed —
//! would otherwise read as an endless series of valid empty frames.

use crate::codec::crc32;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, RandomState};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Bytes of framing in front of every payload.
const HEADER: usize = 16;

#[derive(Debug)]
pub(crate) struct ShardLog {
    file: File,
    /// Bytes of intact frames of the current generation: the tail.
    len: u64,
    /// Where the file ends: `len`, or beyond it while stale frames of
    /// an earlier generation follow the tail.
    end: u64,
    /// The generation written into every frame.
    gen: u64,
    /// A failed append or truncation left the file in a state that
    /// could not be restored; appending could hide every later record
    /// from replay, so the log refuses until a truncation succeeds.
    broken: bool,
}

impl ShardLog {
    /// Opens the log at `path`, creating it if absent, and returns it
    /// with the payload of every intact frame, oldest first. A torn or
    /// stale tail is truncated away (durably) before this returns.
    pub(crate) fn open(path: &Path) -> io::Result<(ShardLog, Vec<Vec<u8>>)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let bytes = std::fs::read(path)?;
        let (gen, payloads, len) = replay(&bytes);
        let len = len as u64;
        if len < bytes.len() as u64 {
            file.set_len(len)?;
            file.sync_all()?;
        }
        let payloads = payloads.into_iter().map(<[u8]>::to_vec).collect();
        Ok((
            ShardLog {
                file,
                len,
                end: len,
                gen: gen.unwrap_or_else(unpredictable),
                broken: false,
            },
            payloads,
        ))
    }

    /// Bytes of records the log holds.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Bytes in the file, stale frames included: 0 only when the log
    /// holds nothing at all.
    pub(crate) fn file_len(&self) -> u64 {
        self.end
    }

    /// Builds one frame of the current generation: `fill` appends the
    /// payload, the framing goes in front.
    pub(crate) fn frame(&self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
        frame(self.gen, fill)
    }

    /// Appends one frame at the tail and syncs it: durable on `Ok`.
    pub(crate) fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("redo log has an unremovable tail"));
        }
        let written = self
            .file
            .write_all_at(frame, self.len)
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => {
                self.len += frame.len() as u64;
                self.end = self.end.max(self.len);
            }
            // Part of the frame may be in the file; the next record
            // must not land behind it. Cutting back also drops any
            // stale tail.
            Err(_) => match self.file.set_len(self.len) {
                Ok(()) => self.end = self.len,
                Err(_) => self.broken = true,
            },
        }
        written
    }

    /// Fault injection: the process dies halfway through appending
    /// `frame`. The half-written tail stays in the file.
    pub(crate) fn append_torn(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all_at(&frame[..frame.len() / 2], self.len)
    }

    /// Empties the log by truncating the file to zero bytes, durably.
    pub(crate) fn clear(&mut self) -> io::Result<()> {
        // Until the truncation is known to have happened the file may
        // or may not still hold frames behind offset 0.
        self.broken = true;
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.len = 0;
        self.end = 0;
        self.broken = false;
        Ok(())
    }

    /// Empties the log in place: restarts appends at offset 0 under a
    /// fresh generation and leaves the file as it is, stale frames and
    /// all (see the [module docs](self)). Does no IO; the first append
    /// after it is what overwrites the old frames.
    pub(crate) fn recycle(&mut self) {
        let mut next = unpredictable();
        while next == self.gen {
            next = unpredictable();
        }
        self.gen = next;
        self.len = 0;
    }

    /// The generation new frames are written under.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.gen
    }
}

/// 64 bits no one outside the process can predict: the hash of nothing
/// under a fresh [`RandomState`], whose keys the OS seeds.
fn unpredictable() -> u64 {
    RandomState::new().hash_one(())
}

/// One frame of generation `gen` around the payload `fill` appends.
/// The checksum covers `gen` and the payload as one slice, in place.
fn frame(gen: u64, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; HEADER];
    buf[8..].copy_from_slice(&gen.to_le_bytes());
    fill(&mut buf);
    let len = u32::try_from(buf.len() - HEADER)
        .ok()
        .filter(|&len| len > 0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unframeable record"))?;
    let crc = crc32(&buf[8..]);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// The intact frames at the start of `bytes`: their generation (`None`
/// when there are none), their payloads, oldest first, and how many
/// bytes they span. Replay stops at the first frame that is short,
/// empty, fails its checksum or belongs to another generation than the
/// first.
pub(crate) fn replay(bytes: &[u8]) -> (Option<u64>, Vec<&[u8]>, usize) {
    let mut gen = None;
    let mut payloads = Vec::new();
    let mut rest = bytes;
    while let Some((frame_gen, payload, after)) = split_frame(rest) {
        if *gen.get_or_insert(frame_gen) != frame_gen {
            break;
        }
        payloads.push(payload);
        rest = after;
    }
    (gen, payloads, bytes.len() - rest.len())
}

/// Splits the first checksum-valid frame off `bytes`: its generation,
/// its payload and what follows. `None` when `bytes` is empty or starts
/// with a short, empty or bad-checksum frame.
fn split_frame(bytes: &[u8]) -> Option<(u64, &[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    if len == 0 {
        return None;
    }
    // The checksum covers everything from the generation on.
    let (covered, after) = bytes
        .get(8..)?
        .split_at_checked(len.checked_add(HEADER - 8)?)?;
    if crc32(covered) != crc {
        return None;
    }
    let (gen, payload) = covered.split_at(HEADER - 8);
    Some((u64::from_le_bytes(gen.try_into().ok()?), payload, after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::file::tests::scratch;

    fn frame_of(gen: u64, payload: &[u8]) -> Vec<u8> {
        frame(gen, |out| out.extend_from_slice(payload)).unwrap()
    }

    fn append(log: &mut ShardLog, payload: &[u8]) {
        let frame = log.frame(|out| out.extend_from_slice(payload)).unwrap();
        log.append(&frame).unwrap();
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn appended_records_come_back_in_order() {
        let path = scratch("log-order").join("shard.log");
        {
            let (mut log, old) = ShardLog::open(&path).unwrap();
            assert!(old.is_empty());
            append(&mut log, b"first");
            append(&mut log, b"second record");
            assert_eq!(log.len(), file_len(&path));
        }
        let (mut log, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"first".to_vec(), b"second record".to_vec()]);
        log.clear().unwrap();
        assert_eq!(file_len(&path), 0);
        append(&mut log, b"third");
        drop(log);
        let (_, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"third".to_vec()], "appends restart at offset 0");
    }

    #[test]
    fn a_recycled_log_overwrites_in_place_and_replays_only_its_generation() {
        let path = scratch("log-recycle").join("shard.log");
        let (mut log, _) = ShardLog::open(&path).unwrap();
        let records: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 100]).collect();
        for record in &records {
            append(&mut log, record);
        }
        let (full, old) = (file_len(&path), log.generation());
        log.recycle();
        assert_eq!((log.len(), log.file_len()), (0, full));
        assert_ne!(log.generation(), old);
        drop(log);
        let (mut log, replayed) = ShardLog::open(&path).unwrap();
        assert_eq!(
            replayed, records,
            "with nothing appended since, the old generation replays whole"
        );
        assert_eq!(log.generation(), old);

        log.clear().unwrap();
        for record in &records {
            append(&mut log, record);
        }
        log.recycle();
        let new = log.generation();
        // Same length: whole stale frames line up behind the tail.
        append(&mut log, &[9; 100]);
        assert_eq!(
            file_len(&path),
            full,
            "appends overwrite, the file never grows"
        );
        drop(log);
        let (log, replayed) = ShardLog::open(&path).unwrap();
        assert_eq!(replayed, vec![vec![9; 100]]);
        assert_eq!(
            log.generation(),
            new,
            "open continues the replayed generation"
        );
        assert_eq!(file_len(&path), log.len());
    }

    /// Payloads are logged verbatim and a CRC has no key, so a client
    /// can fill a write with back-to-back copies of a valid frame that
    /// carries any record and any generation it guesses. After a
    /// recycle the tail lands exactly on one copy; replay must stop
    /// there, whatever a counter would have made the next generation.
    #[test]
    fn a_frame_planted_in_a_stale_payload_is_not_replayed() {
        let path = scratch("log-planted").join("shard.log");
        for pick in 0..5 {
            let (mut log, _) = ShardLog::open(&path).unwrap();
            log.clear().unwrap();
            let gen = log.generation();
            let guess = [gen, gen.wrapping_add(1), gen.wrapping_add(2), 0, 1][pick];
            let planted = frame_of(guess, b"delete another tenant's object");
            append(&mut log, &planted.repeat(8));
            log.recycle();
            // One record as long as a planted frame ends where the
            // second copy begins.
            append(&mut log, &vec![0x11; planted.len()]);
            let tail = log.len() as usize;
            drop(log);
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes[tail..tail + planted.len()], planted[..]);
            let (log, replayed) = ShardLog::open(&path).unwrap();
            assert_eq!(
                replayed,
                vec![vec![0x11; planted.len()]],
                "generation {guess:#x} was replayed from a stale payload"
            );
            assert_eq!(log.len(), tail as u64);
        }
    }

    /// The case only the generation check catches: a complete,
    /// checksum-valid frame of the previous generation starts exactly
    /// at the tail, lined up by records of the same length.
    #[test]
    fn a_whole_stale_frame_at_the_tail_is_not_replayed() {
        let path = scratch("log-stale").join("shard.log");
        let mut bytes = frame_of(7, b"record 0 (new)");
        for payload in [b"record 1 (old)", b"record 2 (old)"] {
            bytes.extend_from_slice(&frame_of(6, payload));
        }
        assert_eq!(bytes.len(), 3 * frame_of(7, b"record 0 (new)").len());
        std::fs::write(&path, &bytes).unwrap();
        let (log, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"record 0 (new)".to_vec()]);
        assert_eq!(log.len(), file_len(&path), "the stale frames are cut off");
        assert_eq!(log.generation(), 7);
    }

    #[test]
    fn a_tail_torn_at_any_byte_is_discarded_and_cut_off() {
        let path = scratch("log-torn").join("shard.log");
        let first = frame_of(0, b"kept");
        let last = frame_of(0, b"the record the crash interrupted");
        for cut in 0..last.len() {
            let mut bytes = first.clone();
            bytes.extend_from_slice(&last[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let (_, old) = ShardLog::open(&path).unwrap();
            assert_eq!(old, vec![b"kept".to_vec()], "cut at {cut}");
            assert_eq!(
                file_len(&path),
                first.len() as u64,
                "cut at {cut}: the torn tail must be gone from the file"
            );
        }

        // A recycled log: the new frame tears over stale frames of the
        // previous generation, once lined up with a stale frame and
        // once in the middle of one.
        let stale: Vec<u8> = (0..4u8).flat_map(|i| frame_of(4, &[i; 40])).collect();
        for kept in [&[0xAA; 40][..], b"kept, shorter"] {
            let first = frame_of(5, kept);
            let last = frame_of(5, &[0x55; 40]);
            for cut in 0..last.len() {
                let mut bytes = stale.clone();
                bytes[..first.len()].copy_from_slice(&first);
                bytes[first.len()..first.len() + cut].copy_from_slice(&last[..cut]);
                std::fs::write(&path, &bytes).unwrap();
                let (_, old) = ShardLog::open(&path).unwrap();
                assert_eq!(old, vec![kept.to_vec()], "recycled, cut at {cut}");
                assert_eq!(
                    file_len(&path),
                    first.len() as u64,
                    "recycled, cut at {cut}: the torn and stale tail must be gone"
                );
            }
        }
    }

    #[test]
    fn flipped_bits_and_zero_runs_end_the_log() {
        let path = scratch("log-garbage").join("shard.log");
        let mut bytes = frame_of(0, b"good");
        let good = bytes.len();
        bytes.extend_from_slice(&frame_of(0, b"about to be damaged"));
        bytes.extend_from_slice(&frame_of(0, b"unreachable behind the damage"));
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
        append(&mut log, b"acknowledged");
        let acked = log.len();
        let frame = log
            .frame(|out| out.extend_from_slice(b"never acknowledged"))
            .unwrap();
        log.append_torn(&frame).unwrap();
        drop(log);
        assert!(file_len(&path) > acked);
        let (log, old) = ShardLog::open(&path).unwrap();
        assert_eq!(old, vec![b"acknowledged".to_vec()]);
        assert_eq!(log.len(), acked);
    }
}
