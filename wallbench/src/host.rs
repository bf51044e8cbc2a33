//! What the benchmark reads from and does to the host: process CPU
//! time, peak RSS and IO counters from `/proc`, the filesystem under
//! the file store, `syncfs`, and the identity of the toolchain and
//! commit. Linux only, like the file backend's fsync semantics.

use crate::json::{obj, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own output directory, `wallbench/out/`.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// User + system CPU seconds of this process, all threads
/// (`/proc/self/stat` fields 14 and 15, in clock ticks).
#[must_use]
pub fn cpu_seconds() -> f64 {
    // Linux has fixed USER_HZ at 100 for every architecture Rust
    // supports; `sysconf(_SC_CLK_TCK)` would need libc.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the kernel's peak-RSS watermark at the current RSS
/// (`echo 5 > /proc/self/clear_refs`), so each window reports its own
/// peak. Where the kernel refuses, the watermark stays process-wide.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cumulative IO counters of this process (`/proc/self/io`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Bytes passed to write-family syscalls.
    pub wchar: u64,
    /// Write-family syscalls issued.
    pub syscw: u64,
}

impl IoCounters {
    /// Reads the counters now. Zero where `/proc/self/io` is absent.
    #[must_use]
    pub fn now() -> IoCounters {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            io.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        IoCounters {
            wchar: field("wchar:"),
            syscw: field("syscw:"),
        }
    }
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (the longest mount point that prefixes the
/// canonical path wins).
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let canonical = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "36 35 98:0 /root /mount/point opts ... - fstype source superopts"
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            canonical
                .starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

extern "C" {
    fn syncfs(fd: i32) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the kernel. Called after
/// a window's rig is dropped: without it what glibc keeps of one
/// window's 250 MiB is reused unevenly by the next, and `rss_peak_mib`
/// moved 7 % run to run on what the allocator remembered rather than
/// on what the program holds.
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator already holds as free; it is safe to call at any
    // time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Flushes the filesystem holding `dir` to its device, so the
/// writeback of one window's (or one run's) deleted store is not
/// charged to the next.
pub fn sync_filesystem(dir: &Path) {
    use std::os::fd::AsRawFd;
    if let Ok(handle) = std::fs::File::open(dir) {
        // SAFETY: `syncfs` takes a file descriptor by value and touches
        // no memory of this process; `handle` keeps the descriptor open
        // for the duration of the call. An error return (it can only be
        // EBADF or EIO) leaves nothing to undo and is ignored: the call
        // is environment hygiene, not a durability promise.
        let _ = unsafe { syncfs(handle.as_raw_fd()) };
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The facts two runs must share to measure the same program,
/// recorded in every output file. Asked of the host once per process.
#[must_use]
pub fn environment() -> Value {
    static ENVIRONMENT: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
    ENVIRONMENT.get_or_init(probe_environment).clone()
}

fn probe_environment() -> Value {
    obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("store_fs", Value::from(fs_type(&out_dir()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        // Burn CPU until the 10 ms tick counter moves.
        let start = std::time::Instant::now();
        while cpu_seconds() == 0.0 && start.elapsed().as_secs() < 5 {
            std::hint::black_box((0..100_000u64).fold(0, u64::wrapping_add));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(rss_peak_mib() > 1.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
