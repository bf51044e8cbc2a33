//! From runs to numbers: the seven end-to-end metrics and their
//! bounds, the per-layer metrics of a traced run, the result files
//! under `out/`, and the markdown that `wallbench report` renders
//! from them.

use crate::catalog;
use crate::host;
use crate::json::{obj, Value};
use crate::layers::{value, Metrics};
use crate::rig::{LANES, OBJECT_BYTES, REPLICAS, SHARDS};
use crate::stats::median;
use crate::trace::{durations_us, self_time_ns, total_ns};
use crate::workload::{Run, Window, WindowKind, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;

/// An end-to-end metric: what a user of the disk would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// The share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports all of them,
/// measured with tracing off. `BENCHMARK.json` repeats this table and
/// a test holds the two together.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "mibs",
        unit: "MiB/s",
        lower_is_better: false,
        bound: 0.2,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_mib",
        unit: "ms/MiB",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "space_amp",
        unit: "B/B",
        lower_is_better: true,
        bound: 0.001,
    },
    EndToEnd {
        name: "rss_peak_mib",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

/// The end-to-end metrics of a run, each timing the median over the
/// windows of that window's value.
#[must_use]
pub fn end_to_end(run: &Run) -> Metrics {
    let plain = |f: fn(&Window) -> f64| run.median_of(WindowKind::Plain, f);
    vec![
        ("mibs", plain(Window::mibs), "MiB/s"),
        ("lat_p50_us", plain(|w| w.seg.lat.p50_us), "us"),
        ("lat_p95_us", plain(|w| w.seg.lat.p95_us), "us"),
        ("cpu_ms_per_mib", plain(Window::cpu_ms_per_mib), "ms/MiB"),
        ("space_amp", run.space_amp(), "B/B"),
        ("rss_peak_mib", plain(|w| w.rss_peak_mib), "MiB"),
        ("setup_s", plain(|w| w.setup_s), "s"),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run: spans around every call
/// into the queue, and counts taken at the same boundaries.
#[must_use]
pub fn traced(run: &Run) -> Metrics {
    let traced = |f: &dyn Fn(&Window) -> f64| run.median_of(WindowKind::Traced, f);
    let every = |f: &dyn Fn(&Window) -> f64| {
        let values: Vec<f64> = run.windows.iter().map(f).collect();
        median(&values)
    };
    // The segment span is the first a traced window records.
    let share = |w: &Window, name: &str| {
        total_ns(&w.spans, 0, name) as f64 / w.spans[0].duration_ns() as f64
    };
    let qd1 = |w: &Window| w.qd1.as_ref().map(|s| s.lat);
    let plain_mibs = run.median_of(WindowKind::Plain, Window::mibs);
    let traced_mibs = run.median_of(WindowKind::Traced, Window::mibs);
    vec![
        (
            "client.submit_us_p50",
            traced(&|w| median(&durations_us(&w.spans, "submit"))),
            "us",
        ),
        (
            "client.wait_us_p50",
            traced(&|w| median(&durations_us(&w.spans, "wait"))),
            "us",
        ),
        (
            "core.submit_share",
            traced(&|w| share(w, "submit")),
            "share",
        ),
        ("core.reap_share", traced(&|w| share(w, "wait")), "share"),
        (
            "client.harness_share",
            traced(&|w| self_time_ns(&w.spans, 0) as f64 / w.spans[0].duration_ns() as f64),
            "share",
        ),
        (
            "client.idle_passes_per_op",
            every(&|w| ratio(w.seg.idle_passes, w.seg.ops)),
            "1/op",
        ),
        (
            "client.lat_qd1_p50_us",
            traced(&|w| qd1(w).map_or(f64::NAN, |l| l.p50_us)),
            "us",
        ),
        (
            "client.lat_qd1_p95_us",
            traced(&|w| qd1(w).map_or(f64::NAN, |l| l.p95_us)),
            "us",
        ),
        (
            "rados.tx_per_op",
            every(&|w| ratio(w.seg.stats.transactions, w.seg.ops)),
            "1/op",
        ),
        (
            "rados.read_ops_per_op",
            every(&|w| ratio(w.seg.stats.read_ops, w.seg.ops)),
            "1/op",
        ),
        (
            "rados.shard_concurrency_peak",
            every(&|w| w.cluster_stats.shard_concurrency_peak as f64),
            "count",
        ),
        (
            "rados.queue_depth_peak",
            every(&|w| w.cluster_stats.queue_depth_peak as f64),
            "count",
        ),
        (
            "rados.retries",
            every(&|w| w.cluster_stats.retries as f64),
            "count",
        ),
        (
            "core.meta_cache.hit_ratio",
            every(&|w| {
                let s = &w.seg.stats;
                ratio(s.meta_cache_hits, s.meta_cache_hits + s.meta_cache_misses)
            }),
            "share",
        ),
        (
            "core.meta_cache.invalidations_per_write",
            every(&|w| ratio(w.seg.stats.meta_cache_invalidations, w.seg.writes)),
            "1/op",
        ),
        (
            "core.meta_cache.write_fills_per_write",
            every(&|w| ratio(w.seg.stats.meta_cache_write_fills, w.seg.writes)),
            "1/op",
        ),
        (
            "rados.file.write_amp",
            every(&|w| ratio(w.seg.wchar, w.seg.bytes)),
            "B/B",
        ),
        (
            "rados.file.syscw_per_op",
            every(&|w| ratio(w.seg.syscw, w.seg.ops)),
            "1/op",
        ),
        ("rados.file.reopen_s", every(&|w| w.reopen_s), "s"),
        (
            "rados.file.disk_bytes",
            every(&|w| w.disk_bytes as f64),
            "B",
        ),
        (
            "trace.overhead_share",
            (plain_mibs - traced_mibs) / plain_mibs,
            "share",
        ),
    ]
}

/// Everything a workload's traced run prints: the traced windows'
/// metrics, the two cipher microbenchmarks, and the efficiency ratios
/// with those as base: the workload's untraced MiB/s over the bare
/// cipher's. `core.cipher_efficiency` on `enc-randwrite-4k` and
/// `core.decipher_efficiency` on `enc-randread-4k` are the ROADMAP's
/// host-independent gate ratios.
#[must_use]
pub fn per_layer(run: &Run, xts: &Metrics) -> Metrics {
    let mibs = run.median_of(WindowKind::Plain, Window::mibs);
    let mut metrics = traced(run);
    metrics.extend(xts.iter().copied());
    for (name, cipher) in [
        ("core.cipher_efficiency", "crypto.xts_enc_4k_mibs"),
        ("core.decipher_efficiency", "crypto.xts_dec_4k_mibs"),
    ] {
        metrics.push((name, mibs / value(xts, cipher), "ratio"));
    }
    metrics
}

/// What `lat_p95_us` rests on: the fewest timed ops any window held
/// and how many of those lie beyond its p95.
#[must_use]
pub fn latency_samples(run: &Run) -> String {
    let fewest = run
        .windows
        .iter()
        .map(|w| w.seg.lat)
        .min_by_key(|lat| lat.samples);
    fewest.map_or_else(String::new, |lat| {
        format!(
            "lat_p95_us: every window holds at least {} timed ops, {} beyond its p95",
            lat.samples, lat.beyond_p95
        )
    })
}

fn metrics_json(metrics: &Metrics) -> Value {
    obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            obj([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
        )
    }))
}

/// The last line of a benchmark run's standard output.
#[must_use]
pub fn contract_line(run: &Run, metrics: &Metrics) -> String {
    obj([
        ("correct", Value::from(run.correct())),
        ("attempted", Value::from(run.attempted.max(1))),
        ("failed", Value::from(run.failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .encode()
}

/// The pinned configuration, echoed in every result file.
#[must_use]
pub fn config_json(run: &Run) -> Value {
    let w = run.workload;
    let spec = w.rig_spec(&run.scale);
    obj([
        ("client_threads", Value::from(1u64)),
        ("loop", Value::from("closed")),
        ("queue_depth", Value::from(w.qd)),
        ("io_bytes", Value::from(w.io_bytes)),
        ("read_pct", Value::from(w.read_pct)),
        ("image_bytes", Value::from(spec.image_bytes)),
        ("object_bytes", Value::from(OBJECT_BYTES)),
        (
            "warmup_ops",
            Value::from(w.warmup_ops / run.scale.warmup_div),
        ),
        ("windows", Value::from(run.scale.windows)),
        ("window_seconds", Value::from(run.scale.window_seconds)),
        (
            "backend",
            Value::from(if w.file_backend { "file" } else { "memory" }),
        ),
        (
            "encryption",
            spec.encryption
                .as_ref()
                .map_or(Value::Null, |c| Value::from(c.label())),
        ),
        (
            "meta_cache_bytes",
            spec.meta_cache_bytes
                .map_or(Value::from("default"), Value::from),
        ),
        ("workers_enabled", Value::from(true)),
        ("crypto_lanes", Value::from(LANES)),
        ("shard_count", Value::from(SHARDS)),
        ("osds", Value::from(REPLICAS)),
        ("replicas", Value::from(REPLICAS)),
        ("payload_mode", Value::from("Stored")),
        ("retry_policy", Value::from("default")),
        ("fault_plane", Value::Null),
        ("iv_source", Value::from("OsIvSource")),
    ])
}

fn window_json(w: &Window) -> Value {
    let lat = w.seg.lat;
    obj([
        ("kind", Value::from(format!("{:?}", w.kind))),
        ("setup_s", Value::from(w.setup_s)),
        ("wall_s", Value::from(w.seg.wall_s)),
        ("ops", Value::from(w.seg.ops)),
        ("mibs", Value::from(w.mibs())),
        ("lat_p50_us", Value::from(lat.p50_us)),
        ("lat_p95_us", Value::from(lat.p95_us)),
        ("lat_samples", Value::from(lat.samples)),
        ("lat_samples_beyond_p95", Value::from(lat.beyond_p95)),
        ("cpu_ms_per_mib", Value::from(w.cpu_ms_per_mib())),
        ("rss_peak_mib", Value::from(w.rss_peak_mib)),
        ("oracle_mismatches", Value::from(w.mismatches())),
        (
            "readback",
            Value::from(if w.readback_full {
                "whole image"
            } else {
                "256 blocks"
            }),
        ),
        ("stored_bytes", Value::from(w.stored_bytes)),
    ])
}

/// Everything about one run: environment, configuration, metrics and
/// the windows behind them.
#[must_use]
pub fn run_json(run: &Run, metrics: &Metrics) -> Value {
    obj([
        ("workload", Value::from(run.workload.name)),
        ("why", Value::from(run.workload.why)),
        ("seed", Value::from(run.seed)),
        ("correct", Value::from(run.correct())),
        ("attempted", Value::from(run.attempted)),
        ("failed", Value::from(run.failed)),
        ("error", run.error.clone().map_or(Value::Null, Value::from)),
        ("environment", host::environment()),
        ("config", config_json(run)),
        ("metrics", metrics_json(metrics)),
        ("lat_p95_rests_on", Value::from(latency_samples(run))),
        (
            "windows",
            Value::Arr(run.windows.iter().map(window_json).collect()),
        ),
    ])
}

/// Writes `value` to `out/<name>`.
///
/// # Errors
///
/// The IO error, as text.
pub fn write_out(name: &str, value: &Value) -> Result<PathBuf, String> {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, value.encode() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn read_out(name: &str) -> Option<Value> {
    let text = std::fs::read_to_string(host::out_dir().join(name)).ok()?;
    Value::parse(&text).ok()
}

/// One A/A comparison: a metric of a workload measured twice.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The workload.
    pub workload: &'static str,
    /// The metric.
    pub metric: EndToEnd,
    /// The first set's value.
    pub a: f64,
    /// The second set's value.
    pub b: f64,
}

impl Pair {
    /// How far apart the two are, as a share of the first.
    #[must_use]
    pub fn difference(&self) -> f64 {
        ((self.b - self.a) / self.a).abs()
    }

    /// Whether the two sets agree within the metric's bound.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.difference() <= self.metric.bound
    }
}

/// Pairs up the end-to-end metrics of two runs of one workload.
#[must_use]
pub fn pairs(workload: &'static str, a: &Metrics, b: &Metrics) -> Vec<Pair> {
    END_TO_END
        .iter()
        .filter_map(|metric| {
            let (a, b) = (value(a, metric.name), value(b, metric.name));
            (a.is_finite() && b.is_finite()).then_some(Pair {
                workload,
                metric: *metric,
                a,
                b,
            })
        })
        .collect()
}

/// The A/A table, one row per workload and metric.
#[must_use]
pub fn aa_table(pairs: &[Pair]) -> String {
    let mut out = String::from(
        "| workload | metric | unit | set A | set B | difference | bound | |\n|---|---|---|---|---|---|---|---|\n",
    );
    for p in pairs {
        writeln!(
            out,
            "| {} | {} | {} | {:.4} | {:.4} | {:.2} % | {:.1} % | {} |",
            p.workload,
            p.metric.name,
            p.metric.unit,
            p.a,
            p.b,
            p.difference() * 100.0,
            p.metric.bound * 100.0,
            if p.agrees() { "AGREE" } else { "DISAGREE" }
        )
        .expect("write to String");
    }
    out
}

/// The A/A result file.
#[must_use]
pub fn aa_json(pairs: &[Pair]) -> Value {
    obj([
        ("environment", host::environment()),
        ("agree", Value::from(pairs.iter().all(Pair::agrees))),
        (
            "pairs",
            Value::Arr(
                pairs
                    .iter()
                    .map(|p| {
                        obj([
                            ("workload", Value::from(p.workload)),
                            ("metric", Value::from(p.metric.name)),
                            ("unit", Value::from(p.metric.unit)),
                            ("a", Value::from(p.a)),
                            ("b", Value::from(p.b)),
                            ("difference", Value::from(p.difference())),
                            ("bound", Value::from(p.metric.bound)),
                            ("agree", Value::from(p.agrees())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One row per metric; per-layer rows also say what the metric
/// should move.
fn metric_rows(out: &mut String, metrics: &Value, per_layer: bool) {
    out.push_str(if per_layer {
        "| metric | value | unit | should move |\n|---|---|---|---|\n"
    } else {
        "| metric | value | unit |\n|---|---|---|\n"
    });
    for (name, m) in metrics.members() {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        write!(out, "| `{name}` | {value:.4} | {unit} |").expect("write to String");
        if per_layer {
            let moves = catalog::layer_named(name).map_or("", |l| l.moves);
            write!(out, " {moves} |").expect("write to String");
        }
        out.push('\n');
    }
    out.push('\n');
}

/// Renders the last results under `out/` as markdown: one table per
/// workload, then the layer ladder and microbenchmarks.
#[must_use]
pub fn markdown() -> String {
    let mut out = String::from("# wallbench report\n\n");
    let mut environment = None;
    for w in &WORKLOADS {
        let run = read_out(&format!("run-{}.json", w.name));
        let layers = read_out(&format!("layers-{}.json", w.name));
        if run.is_none() && layers.is_none() {
            continue;
        }
        writeln!(out, "## `{}`\n\n{}\n", w.name, w.why).expect("write to String");
        if let Some(run) = &run {
            environment = environment.or_else(|| run.get("environment").cloned());
            let seed = run.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let correct = run.get("correct") == Some(&Value::Bool(true));
            writeln!(
                out,
                "End to end, tracing off (seed {seed}, outputs {}):\n",
                if correct { "correct" } else { "INCORRECT" }
            )
            .expect("write to String");
            metric_rows(&mut out, run.get("metrics").unwrap_or(&Value::Null), false);
            if let Some(samples) = run.get("lat_p95_rests_on").and_then(Value::as_str) {
                writeln!(out, "{samples}\n").expect("write to String");
            }
        }
        if let Some(layers) = &layers {
            out.push_str("Per layer, from the traced run:\n\n");
            metric_rows(
                &mut out,
                layers.get("metrics").unwrap_or(&Value::Null),
                true,
            );
        }
    }
    if let Some(layers) = read_out("layers.json") {
        environment = environment.or_else(|| layers.get("environment").cloned());
        out.push_str("## Layer ladder and microbenchmarks\n\n");
        metric_rows(
            &mut out,
            layers.get("metrics").unwrap_or(&Value::Null),
            true,
        );
    }
    match environment {
        Some(env) => writeln!(out, "Environment: `{}`", env.encode()).expect("write to String"),
        None => out.push_str("No results under `wallbench/out/` yet: run `wallbench trace` or a benchmark run first.\n"),
    }
    out
}

/// The per-layer result file of a workload.
#[must_use]
pub fn layers_json(run: Option<&Run>, metrics: &Metrics) -> Value {
    let mut pairs = vec![("environment".to_string(), host::environment())];
    if let Some(run) = run {
        pairs.push(("workload".into(), Value::from(run.workload.name)));
        pairs.push(("seed".into(), Value::from(run.seed)));
        pairs.push(("config".into(), config_json(run)));
    }
    pairs.push(("metrics".into(), metrics_json(metrics)));
    Value::Obj(pairs)
}
