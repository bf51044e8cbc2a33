//! The per-layer metrics by name: which way is better, where each is
//! printed, and, written down before measuring, which end-to-end
//! metric on which workload it should move. `nothing` marks a metric
//! tracked for a roadmap item that must not be claimed on these
//! workloads. `BENCHMARK.json` lists the `Run` entries (its format has
//! no field for the rest); a test holds the two together.

use Better::{Higher, Lower};
use Printed::{Run, Trace};

/// Which direction is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A lower value is better.
    Lower,
    /// A higher value is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// Which command prints the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Printed {
    /// Every `run --trace 1` (and `wallbench trace`): measured on the
    /// workload's own traced run.
    Run,
    /// `wallbench trace` only: the layer ladder and the
    /// microbenchmarks, which do not depend on a workload and take
    /// two minutes.
    Trace,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// The metric's name.
    pub name: &'static str,
    /// Which direction is the better one.
    pub better: Better,
    /// Which command prints it.
    pub printed: Printed,
    /// `workload: metric metric; workload: metric`, or `nothing`.
    pub moves: &'static str,
}

const fn layer(name: &'static str, better: Better, printed: Printed, moves: &'static str) -> Layer {
    Layer {
        name,
        better,
        printed,
        moves,
    }
}

/// Every per-layer metric, in the order printed.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    // The traced run: spans around every call into the queue, and counts at the same boundaries.
    layer("client.submit_us_p50", Lower, Run, "enc-randwrite-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("client.wait_us_p50", Lower, Run, "enc-randread-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("core.submit_share", Lower, Run, "enc-randwrite-4k: mibs"),
    layer("core.reap_share", Lower, Run, "enc-randread-4k: mibs"),
    layer("client.harness_share", Lower, Run, "nothing"),
    layer("client.idle_passes_per_op", Lower, Run, "raw-randrw-4k: lat_p50_us"),
    layer("client.lat_qd1_p50_us", Lower, Run, "nothing"),
    layer("client.lat_qd1_p95_us", Lower, Run, "nothing"),
    layer("rados.tx_per_op", Lower, Run, "raw-randrw-4k: cpu_ms_per_mib; file-randwrite-16k: mibs lat_p50_us"),
    layer("rados.read_ops_per_op", Lower, Run, "enc-randread-4k: mibs lat_p50_us"),
    layer("rados.shard_concurrency_peak", Higher, Run, "raw-randrw-4k: mibs"),
    layer("rados.queue_depth_peak", Higher, Run, "nothing"),
    layer("rados.retries", Lower, Run, "nothing"),
    layer("core.meta_cache.hit_ratio", Higher, Run, "enc-randread-4k: mibs lat_p50_us"),
    layer("core.meta_cache.invalidations_per_write", Lower, Run, "enc-randwrite-4k: cpu_ms_per_mib"),
    layer("core.meta_cache.write_fills_per_write", Higher, Run, "enc-randwrite-4k: cpu_ms_per_mib"),
    layer("rados.file.write_amp", Lower, Run, "file-randwrite-16k: mibs lat_p50_us lat_p95_us cpu_ms_per_mib"),
    layer("rados.file.syscw_per_op", Lower, Run, "file-randwrite-16k: mibs cpu_ms_per_mib"),
    layer("rados.file.reopen_s", Lower, Run, "file-randwrite-16k: setup_s"),
    layer("rados.file.disk_bytes", Lower, Run, "file-randwrite-16k: space_amp"),
    layer("trace.overhead_share", Lower, Run, "raw-randrw-4k: mibs"),
    // The two ciphers behind the efficiency ratios, and the ratios: the workload's MiB/s over the bare cipher's.
    layer("crypto.xts_enc_4k_mibs", Higher, Run, "enc-randwrite-4k: mibs lat_p50_us lat_p95_us cpu_ms_per_mib setup_s; enc-randread-4k: setup_s; file-randwrite-16k: mibs setup_s"),
    layer("crypto.xts_dec_4k_mibs", Higher, Run, "enc-randread-4k: mibs lat_p50_us lat_p95_us cpu_ms_per_mib setup_s"),
    layer("core.cipher_efficiency", Higher, Run, "enc-randwrite-4k: mibs"),
    layer("core.decipher_efficiency", Higher, Run, "enc-randread-4k: mibs"),
    // The layer ladder: the same 4 KiB op at QD 1, entering one layer lower each time.
    layer("runtime.write_qd1_4k_us", Lower, Trace, "nothing"),
    layer("core.write_qd1_4k_us", Lower, Trace, "enc-randwrite-4k: cpu_ms_per_mib"),
    layer("core.read_qd1_4k_hit_us", Lower, Trace, "enc-randread-4k: cpu_ms_per_mib"),
    layer("core.read_qd1_4k_miss_us", Lower, Trace, "enc-randread-4k: mibs lat_p50_us"),
    layer("core.write_qd1_4k_omap_us", Lower, Trace, "nothing"),
    layer("rbd.write_qd1_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us"),
    layer("rbd.read_qd1_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us"),
    layer("rados.tx_qd1_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("rados.read_qd1_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("rados.tx_inline_4k_us", Lower, Trace, "raw-randrw-4k: cpu_ms_per_mib"),
    layer("rados.handoff_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("runtime.self_write_4k_us", Lower, Trace, "nothing"),
    layer("core.self_write_4k_us", Lower, Trace, "enc-randwrite-4k: mibs cpu_ms_per_mib"),
    layer("core.self_read_4k_us", Lower, Trace, "enc-randread-4k: mibs cpu_ms_per_mib"),
    layer("rbd.self_write_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us cpu_ms_per_mib"),
    layer("rbd.self_read_4k_us", Lower, Trace, "raw-randrw-4k: mibs lat_p50_us cpu_ms_per_mib"),
    // The microbenchmarks.
    layer("crypto.gcm_enc_4k_mibs", Higher, Trace, "nothing"),
    layer("crypto.hmac_4k_mibs", Higher, Trace, "nothing"),
    layer("crypto.iv_draw_ns", Lower, Trace, "enc-randwrite-4k: cpu_ms_per_mib"),
    layer("crypto.pbkdf2_ms", Lower, Trace, "enc-randwrite-4k: setup_s; enc-randread-4k: setup_s; file-randwrite-16k: setup_s"),
    layer("core.plan_4k_ns", Lower, Trace, "enc-randwrite-4k: cpu_ms_per_mib; enc-randread-4k: cpu_ms_per_mib"),
    layer("rbd.stripe_map_ns", Lower, Trace, "raw-randrw-4k: cpu_ms_per_mib"),
    layer("core.format_ms", Lower, Trace, "enc-randwrite-4k: setup_s; enc-randread-4k: setup_s; file-randwrite-16k: setup_s"),
    layer("core.open_ms", Lower, Trace, "file-randwrite-16k: setup_s"),
    layer("core.write_1m_mibs", Higher, Trace, "enc-randwrite-4k: setup_s; enc-randread-4k: setup_s; file-randwrite-16k: setup_s"),
    layer("core.lanes_speedup_1m", Higher, Trace, "enc-randwrite-4k: setup_s; enc-randread-4k: setup_s"),
    layer("kv.put_us", Lower, Trace, "nothing"),
    layer("kv.get_us", Lower, Trace, "nothing"),
    layer("kv.range_256_us", Lower, Trace, "nothing"),
    layer("core.rekey_mibs", Higher, Trace, "nothing"),
    layer("rados.apply_1m_mibs", Higher, Trace, "raw-randrw-4k: setup_s"),
    layer("rados.file.commit_16k_us", Lower, Trace, "file-randwrite-16k: mibs lat_p50_us lat_p95_us"),
];

/// The entry called `name`.
#[must_use]
pub fn layer_named(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

impl Layer {
    /// `moves` taken apart: each workload with the end-to-end metrics
    /// named for it. Empty for `nothing`.
    #[must_use]
    pub fn moves(&self) -> Vec<(&'static str, Vec<&'static str>)> {
        if self.moves == "nothing" {
            return Vec::new();
        }
        self.moves
            .split("; ")
            .map(|part| part.split_once(": ").unwrap_or((part, "")))
            .map(|(workload, metrics)| (workload, metrics.split(' ').collect()))
            .collect()
    }
}
