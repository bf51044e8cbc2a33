//! Deterministic fault injection and the retry policy that answers it.
//!
//! A [`FaultPlane`] is configured on [`crate::ClusterBuilder`] from a
//! [`FaultConfig`] and threaded to every shard worker and (on the
//! durable backend) into the commit path. All decisions are pure
//! functions of the seed and per-shard decision counters, so a given
//! configuration injects the same faults at the same points on every
//! run — the property the CI fault matrix relies on to make failures
//! reproducible from a seed.
//!
//! Three fault classes exist:
//!
//! - **Transient** errors ([`FaultKind::Transient`]): injected before a
//!   job's transaction applies or read serves, so replaying the attempt
//!   is idempotent. The shard workers retry these in place under the
//!   cluster's [`RetryPolicy`]; only exhaustion surfaces to the client.
//! - **Persistent** errors ([`FaultKind::Persistent`]): never retried,
//!   surfaced immediately — the "this disk is gone" class.
//! - **Crashes** ([`FaultKind::Crash`]): the Nth durable commit point
//!   stops the world mid-way — half a record appended to a shard's redo
//!   log, a checkpoint's temp file written but never renamed, or every
//!   object file patched but the log not yet truncated. Every
//!   subsequent operation on the crashed cluster fails fast, modelling
//!   a dead process; recovery is reopening the directory with a fresh
//!   cluster.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The class of an injected fault (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Goes away on retry; the shard workers replay the attempt.
    Transient,
    /// Never goes away; surfaces immediately as a typed error.
    Persistent,
    /// The cluster has crashed (possibly mid-commit); everything fails.
    Crash,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Persistent => write!(f, "persistent"),
            FaultKind::Crash => write!(f, "crash"),
        }
    }
}

/// Configures a [`FaultPlane`] (see
/// [`crate::ClusterBuilder::fault_plane`]). The default injects
/// nothing; switch individual faults on with the builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    seed: u64,
    transient_rate: f64,
    max_consecutive: u32,
    delay_rate: f64,
    delay: Duration,
    crash_at_commit: Option<u64>,
    fail_objects: Option<(String, FaultKind)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::new(0)
    }
}

impl FaultConfig {
    /// A plane that injects nothing yet, seeded for determinism.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            max_consecutive: 2,
            delay_rate: 0.0,
            delay: Duration::from_micros(200),
            crash_at_commit: None,
            fail_objects: None,
        }
    }

    /// Probability (0..=1) that any single apply/read **attempt**
    /// draws a transient error. Retried attempts draw again, so a
    /// retry can fail again — up to [`FaultConfig::max_consecutive`]
    /// times in a row per shard.
    #[must_use]
    pub fn transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Cap on consecutive transient injections per shard (default 2).
    /// Keeping this below the retry budget guarantees rate-injected
    /// transients never surface to clients — they exist to exercise
    /// the replay path, not to fail runs probabilistically.
    #[must_use]
    pub fn max_consecutive(mut self, n: u32) -> Self {
        self.max_consecutive = n;
        self
    }

    /// Probability (0..=1) that a shard worker sleeps for `delay`
    /// before serving a job — a delayed completion. The sleep stalls
    /// the worker's whole FIFO, so every shard sharing that worker
    /// waits behind it (see [`crate::Cluster::worker_threads`]);
    /// per-shard FIFO is preserved, so delays reorder nothing. They
    /// exercise the reactor's parking paths.
    #[must_use]
    pub fn delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Crash the cluster at its `n`th durable commit point (0-based,
    /// cluster-wide, counted in the order the store reaches them), and
    /// fail every later operation fast with [`FaultKind::Crash`]. The
    /// file backend has three kinds of commit point, each dying at its
    /// honest tear:
    ///
    /// - a transaction's **log append** — half the record is written,
    ///   never synced, never acknowledged;
    /// - inside a checkpoint, each **whole-object rewrite** — the temp
    ///   file is written and synced but never renamed;
    /// - the **end of a checkpoint** — every object file is patched and
    ///   synced, the log not yet truncated.
    ///
    /// [`FaultPlane::commit_points`] reports how many a run passed, so
    /// a sweep can visit every one. Only meaningful on the file backend
    /// — the in-memory store has no commit point to tear.
    #[must_use]
    pub fn crash_at_commit(mut self, n: u64) -> Self {
        self.crash_at_commit = Some(n);
        self
    }

    /// Dooms every apply/read whose object name contains `substring`
    /// to draw `kind` on each attempt. With [`FaultKind::Transient`]
    /// this exhausts the retry budget deterministically (the
    /// exhaustion-surfacing path); with [`FaultKind::Persistent`] it
    /// fails immediately.
    #[must_use]
    pub fn fail_objects(mut self, substring: impl Into<String>, kind: FaultKind) -> Self {
        self.fail_objects = Some((substring.into(), kind));
        self
    }
}

/// How submissions that drew a retryable fault are replayed (see
/// [`crate::ClusterBuilder::retry_policy`]). Retries happen **in the
/// shard worker, before the transaction applies**, so a replayed
/// attempt is idempotent by construction: nothing of the failed
/// attempt ever touched an object, and per-shard FIFO order is
/// untouched because the job never leaves the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_retries: u32,
    backoff: Duration,
    backoff_cap: Duration,
}

impl Default for RetryPolicy {
    /// Four replays with 50 µs exponential backoff, capped at 2 ms.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No replays: every injected fault surfaces to the client.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// Maximum replays per attempt (default 4).
    #[must_use]
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// First-retry backoff (default 50 µs), doubled per retry up to
    /// `cap` (default 2 ms).
    #[must_use]
    pub fn backoff(mut self, initial: Duration, cap: Duration) -> Self {
        self.backoff = initial;
        self.backoff_cap = cap;
        self
    }

    /// The replay budget.
    #[must_use]
    pub fn budget(&self) -> u32 {
        self.max_retries
    }

    /// The sleep before retry number `attempt` (1-based): exponential
    /// doubling from the initial backoff, capped.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.backoff * factor).min(self.backoff_cap)
    }
}

/// The installed fault plane: the seeded decision engine plus its
/// observability counters. One per cluster, shared by every shard
/// worker and (file backend) every shard store.
#[derive(Debug)]
pub struct FaultPlane {
    config: FaultConfig,
    /// Per-shard decision counters: each apply/read attempt and each
    /// job-delay decision consumes one draw, so a shard's fault
    /// sequence is a deterministic function of (seed, shard, attempt
    /// ordinal) regardless of cross-shard scheduling.
    draws: Vec<AtomicU64>,
    /// Per-shard consecutive-transient counters backing
    /// [`FaultConfig::max_consecutive`].
    streak: Vec<AtomicU64>,
    /// Cluster-wide commit-point ordinal (file backend only).
    commits: AtomicU64,
    crashed: AtomicBool,
    transients: AtomicU64,
    delays: AtomicU64,
}

impl FaultPlane {
    pub(crate) fn new(config: FaultConfig, shard_count: usize) -> Self {
        FaultPlane {
            config,
            draws: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            streak: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            commits: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            transients: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// True once an injected crash has latched: the cluster is "dead"
    /// and every subsequent operation fails fast.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Transient faults injected so far (each forces one replay or, on
    /// budget exhaustion, one surfaced error).
    #[must_use]
    pub fn injected_transients(&self) -> u64 {
        self.transients.load(Ordering::Relaxed)
    }

    /// Durable commit points the file backend has reached so far (see
    /// [`FaultConfig::crash_at_commit`] for what counts as one). Only
    /// counted while a crash ordinal is configured.
    #[must_use]
    pub fn commit_points(&self) -> u64 {
        self.commits.load(Ordering::Acquire)
    }

    /// Delayed completions injected so far.
    #[must_use]
    pub fn injected_delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// One seeded pseudo-random draw for `shard`.
    fn draw(&self, shard: usize) -> u64 {
        let n = self.draws[shard].fetch_add(1, Ordering::Relaxed);
        splitmix64(
            self.config
                .seed
                .wrapping_add((shard as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(n.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        )
    }

    fn draw_hits(&self, shard: usize, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        // Map the draw onto [0, 1): bit-exact and branch-free, so the
        // decision stream is identical across hosts.
        let unit = (self.draw(shard) >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// The fault (if any) governing one apply/read attempt on `shard`
    /// against `object`. Called **before** the attempt touches any
    /// state, so an injected failure is replayable.
    pub(crate) fn fault_for(&self, shard: usize, object: &str) -> Option<FaultKind> {
        if self.crashed() {
            return Some(FaultKind::Crash);
        }
        if let Some((substring, kind)) = &self.config.fail_objects {
            if object.contains(substring.as_str()) {
                if *kind == FaultKind::Transient {
                    self.transients.fetch_add(1, Ordering::Relaxed);
                }
                return Some(*kind);
            }
        }
        if self.draw_hits(shard, self.config.transient_rate) {
            // Cap the streak so rate-injected transients never outlast
            // the retry budget (see FaultConfig::max_consecutive).
            let streak = self.streak[shard].fetch_add(1, Ordering::Relaxed);
            if streak < u64::from(self.config.max_consecutive) {
                self.transients.fetch_add(1, Ordering::Relaxed);
                return Some(FaultKind::Transient);
            }
        }
        self.streak[shard].store(0, Ordering::Relaxed);
        None
    }

    /// The sleep (if any) a shard worker serves before its next job —
    /// an injected delayed completion.
    pub(crate) fn job_delay(&self, shard: usize) -> Option<Duration> {
        if self.crashed() {
            return None;
        }
        if self.draw_hits(shard, self.config.delay_rate) {
            self.delays.fetch_add(1, Ordering::Relaxed);
            return Some(self.config.delay);
        }
        None
    }

    /// Called by the durable backend at each commit point (see
    /// [`FaultConfig::crash_at_commit`]), just before the step that
    /// would complete it. Returns `true` when this is the configured
    /// crash point: the caller must stop there, leaving the tear on
    /// disk, and fail; the crash latches for every later operation.
    pub(crate) fn commit_crashes(&self) -> bool {
        let Some(at) = self.config.crash_at_commit else {
            return false;
        };
        if self.crashed() {
            return true;
        }
        let n = self.commits.fetch_add(1, Ordering::AcqRel);
        if n == at {
            self.crashed.store(true, Ordering::Release);
            return true;
        }
        false
    }
}

/// `splitmix64`: the classic 64-bit finalizer — tiny, stateless, and
/// well-distributed, which is all a deterministic decision stream
/// needs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_deterministic() {
        let a = FaultPlane::new(FaultConfig::new(42).transient_rate(0.3), 4);
        let b = FaultPlane::new(FaultConfig::new(42).transient_rate(0.3), 4);
        for shard in 0..4 {
            for _ in 0..64 {
                assert_eq!(a.fault_for(shard, "obj"), b.fault_for(shard, "obj"));
            }
        }
        assert_eq!(a.injected_transients(), b.injected_transients());
        assert!(
            a.injected_transients() > 0,
            "a 30% rate must fire in 256 draws"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlane::new(FaultConfig::new(1).transient_rate(0.5), 1);
        let b = FaultPlane::new(FaultConfig::new(2).transient_rate(0.5), 1);
        let stream_a: Vec<_> = (0..64).map(|_| a.fault_for(0, "o")).collect();
        let stream_b: Vec<_> = (0..64).map(|_| b.fault_for(0, "o")).collect();
        assert_ne!(stream_a, stream_b);
    }

    #[test]
    fn streak_is_capped() {
        let plane = FaultPlane::new(
            FaultConfig::new(7).transient_rate(1.0).max_consecutive(2),
            1,
        );
        let stream: Vec<bool> = (0..12).map(|_| plane.fault_for(0, "o").is_some()).collect();
        // Rate 1.0 would fail forever; the cap forces a pass after
        // every `max_consecutive` injections.
        assert_eq!(
            stream,
            vec![true, true, false, true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn doomed_objects_always_fail_and_others_never() {
        let plane = FaultPlane::new(
            FaultConfig::new(0).fail_objects("victim", FaultKind::Persistent),
            2,
        );
        for _ in 0..32 {
            assert_eq!(
                plane.fault_for(0, "rbd_data.victim.0000"),
                Some(FaultKind::Persistent)
            );
            assert_eq!(plane.fault_for(1, "rbd_data.other.0000"), None);
        }
    }

    #[test]
    fn crash_latches_at_the_configured_commit() {
        let plane = FaultPlane::new(FaultConfig::new(0).crash_at_commit(2), 1);
        assert!(!plane.commit_crashes());
        assert!(!plane.commit_crashes());
        assert!(plane.commit_crashes(), "commit #2 (0-based) crashes");
        assert!(plane.crashed());
        assert!(plane.commit_crashes(), "latched: everything after fails");
        assert_eq!(
            plane.fault_for(0, "any"),
            Some(FaultKind::Crash),
            "applies fail fast once crashed"
        );
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(1), Duration::from_micros(50));
        assert_eq!(p.backoff_for(2), Duration::from_micros(100));
        assert_eq!(p.backoff_for(3), Duration::from_micros(200));
        assert_eq!(p.backoff_for(16), Duration::from_millis(2), "capped");
        assert_eq!(RetryPolicy::none().budget(), 0);
    }
}
