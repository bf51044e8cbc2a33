//! IV sources.
//!
//! The core of the paper is "use a fresh **random** IV per sector
//! write". The source of that randomness is abstracted so that
//! production code uses the OS CSPRNG while tests and the reproducible
//! benchmark harness use a seeded generator.

use std::io::Read;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic PRNG (xoshiro256++) used wherever the stack
/// needs *reproducible* randomness: seeded IV sources, workload
/// generators, test data. Statistically strong, never secure.
#[derive(Debug, Clone)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed (expanded via
    /// splitmix64, the reference seeding procedure).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SeededRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates a generator from a full 256-bit state (must not be all
    /// zero; a zero state is nudged onto a fixed odd constant).
    #[must_use]
    pub fn from_state(mut state: [u64; 4]) -> Self {
        if state == [0u64; 4] {
            state[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SeededRng { s: state }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below(0)");
        self.next_u64() % n
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let r = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&r[..chunk.len()]);
        }
    }
}

/// A source of initialization vectors.
///
/// Implementations must produce bytes that are unpredictable (for
/// production sources) or at minimum non-repeating with overwhelming
/// probability across the lifetime of a disk.
pub trait IvSource: Send {
    /// Fills `buf` with fresh IV bytes.
    fn fill(&mut self, buf: &mut [u8]);

    /// Convenience: returns a fresh 16-byte IV.
    fn next_iv16(&mut self) -> [u8; 16] {
        let mut iv = [0u8; 16];
        self.fill(&mut iv);
        iv
    }

    /// Convenience: returns a fresh 12-byte GCM nonce.
    fn next_nonce12(&mut self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        self.fill(&mut nonce);
        nonce
    }
}

/// IVs from the operating system entropy pool (`/dev/urandom`).
///
/// The device is opened once and entropy is read in buffered blocks,
/// so the per-sector cost on the write hot path is a slice copy, not
/// a syscall. On platforms without `/dev/urandom` a degraded
/// process-local generator takes over — see [`OsIvSource::fill`].
#[derive(Debug)]
pub struct OsIvSource {
    urandom: Option<std::fs::File>,
    pool: [u8; 1024],
    // Unconsumed entropy lives at pool[cursor..]; cursor == len means
    // empty.
    cursor: usize,
}

impl Default for OsIvSource {
    fn default() -> Self {
        Self::new()
    }
}

impl OsIvSource {
    /// Creates a source; the entropy device is opened lazily on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        OsIvSource {
            urandom: None,
            pool: [0u8; 1024],
            cursor: 1024,
        }
    }

    /// Refills the pool from `/dev/urandom`; false if unavailable.
    fn refill(&mut self) -> bool {
        if self.urandom.is_none() {
            self.urandom = std::fs::File::open("/dev/urandom").ok();
        }
        let Some(file) = self.urandom.as_mut() else {
            return false;
        };
        match file.read_exact(&mut self.pool) {
            Ok(()) => {
                self.cursor = 0;
                true
            }
            Err(_) => {
                self.urandom = None;
                false
            }
        }
    }

    /// Fallback for platforms without `/dev/urandom`: a process-local
    /// generator whose 256-bit state hashes the clock, a monotonic
    /// counter, and ASLR address entropy. Unpredictability is
    /// **degraded** relative to a real OS CSPRNG; uniqueness of the
    /// IV stream (the property whose loss actually breaks XTS/GCM) is
    /// preserved by the counter even across clock steps.
    fn fallback_fill(buf: &mut [u8]) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| {
                u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
            });
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let stack_addr = std::ptr::from_ref(&nanos) as usize as u64;
        let heap_probe = Box::new(0u8);
        let heap_addr = std::ptr::from_ref::<u8>(&heap_probe) as usize as u64;
        let mut seed_material = Vec::with_capacity(32);
        seed_material.extend_from_slice(&nanos.to_le_bytes());
        seed_material.extend_from_slice(&unique.to_le_bytes());
        seed_material.extend_from_slice(&stack_addr.to_le_bytes());
        seed_material.extend_from_slice(&heap_addr.to_le_bytes());
        let digest = crate::sha256::sha256(&seed_material);
        let mut state = [0u64; 4];
        for (word, chunk) in state.iter_mut().zip(digest.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            *word = u64::from_le_bytes(b);
        }
        SeededRng::from_state(state).fill_bytes(buf);
    }
}

impl IvSource for OsIvSource {
    fn fill(&mut self, buf: &mut [u8]) {
        let mut out = buf;
        while !out.is_empty() {
            if self.cursor == self.pool.len() && !self.refill() {
                Self::fallback_fill(out);
                return;
            }
            let take = out.len().min(self.pool.len() - self.cursor);
            let (head, rest) = out.split_at_mut(take);
            head.copy_from_slice(&self.pool[self.cursor..self.cursor + take]);
            // Entropy is never reused: wipe what was handed out.
            self.pool[self.cursor..self.cursor + take].fill(0);
            self.cursor += take;
            out = rest;
        }
    }
}

/// Deterministic IVs from a seeded PRNG — for tests and reproducible
/// benchmark runs only. Statistically random, never secure.
#[derive(Debug, Clone)]
pub struct SeededIvSource {
    rng: SeededRng,
}

impl SeededIvSource {
    /// Creates a source from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededIvSource {
            rng: SeededRng::new(seed),
        }
    }
}

impl IvSource for SeededIvSource {
    fn fill(&mut self, buf: &mut [u8]) {
        self.rng.fill_bytes(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeded_source_is_reproducible() {
        let mut a = SeededIvSource::new(42);
        let mut b = SeededIvSource::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_iv16(), b.next_iv16());
        }
        let mut c = SeededIvSource::new(43);
        assert_ne!(SeededIvSource::new(42).next_iv16(), c.next_iv16());
    }

    #[test]
    fn ivs_do_not_visibly_repeat() {
        let mut src = SeededIvSource::new(7);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(src.next_iv16()), "128-bit IV repeated");
        }
    }

    #[test]
    fn os_source_produces_nonzero_output() {
        let mut src = OsIvSource::new();
        let a = src.next_iv16();
        let b = src.next_iv16();
        assert_ne!(a, b);
        assert_ne!(a, [0u8; 16]);
    }

    #[test]
    fn os_source_spans_pool_refills() {
        // Draws larger and smaller than the internal pool must both
        // produce fresh bytes (no reuse across the refill boundary).
        let mut src = OsIvSource::new();
        let mut big = vec![0u8; 3000];
        src.fill(&mut big);
        assert!(big.iter().any(|&b| b != 0));
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(src.next_iv16()), "IV repeated across refills");
        }
    }

    #[test]
    fn fallback_fill_is_unique_per_call() {
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        OsIvSource::fallback_fill(&mut a);
        OsIvSource::fallback_fill(&mut b);
        assert_ne!(a, b, "monotonic counter must separate the streams");
        assert_ne!(a, [0u8; 16]);
    }

    #[test]
    fn from_state_rejects_the_all_zero_state() {
        let mut rng = SeededRng::from_state([0; 4]);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn nonce12_is_12_bytes_of_entropy() {
        let mut src = SeededIvSource::new(9);
        let n = src.next_nonce12();
        assert_eq!(n.len(), 12);
        assert_ne!(n, [0u8; 12]);
    }
}
