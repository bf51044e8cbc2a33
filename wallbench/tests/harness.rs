//! The harness's own checks: the smoke pass of every workload, the
//! two deliberate faults that must fail a run, and the agreement of
//! `BENCHMARK.json` with what the program prints.

use std::process::Command;
use wallbench::catalog::{Printed, PER_LAYER};
use wallbench::json::Value;
use wallbench::layers::{self, Budget};
use wallbench::report::{self, END_TO_END};
use wallbench::workload::{self, Sabotage, Scale, WindowKind, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(doc: &Value, key: &str) -> Vec<Value> {
    match doc.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Runs the built binary and returns (exit ok, last line of stdout).
fn wallbench(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args(args)
        .output()
        .expect("spawn wallbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let line = Value::parse(last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), line)
}

#[test]
fn smoke_pass_of_all_four_workloads() {
    for w in &WORKLOADS {
        let run = workload::run(w, Scale::smoke(), 7, &[WindowKind::Plain], None);
        assert!(run.correct(), "{}: {:?}", w.name, run.error);
        assert_eq!(run.failed, 0);
        assert!(run.attempted >= w.qd as u64);
        let window = &run.windows[0];
        assert!(
            window.readback_full,
            "the last window reads the whole image back"
        );
        for (name, value, _) in report::end_to_end(&run) {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value} must be measured and non-zero",
                w.name
            );
        }
    }
}

#[test]
fn a_window_too_slow_for_its_time_still_holds_its_minimum_of_ops() {
    // A segment of a hundredth of a second on the file store would
    // hold one queue's worth of ops; the minimum stretches it.
    let scale = Scale {
        window_seconds: 0.01,
        window_min_ops: 200,
        ..Scale::smoke()
    };
    let file = workload::workload("file-randwrite-16k").unwrap();
    let run = workload::run(file, scale, 11, &[WindowKind::Plain], None);
    assert!(run.correct(), "{:?}", run.error);
    let lat = run.windows[0].seg.lat;
    assert!(lat.samples >= 200, "{} timed ops", lat.samples);
    assert!(lat.beyond_p95 >= 10);
    assert!(report::latency_samples(&run).contains(&lat.samples.to_string()));
}

#[test]
fn a_perturbed_oracle_byte_fails_the_run() {
    for w in &WORKLOADS {
        let run = workload::run(
            w,
            Scale::smoke(),
            7,
            &[WindowKind::Plain],
            Some(Sabotage::OracleByte),
        );
        assert!(run.error.is_none(), "{}: {:?}", w.name, run.error);
        assert!(
            !run.correct(),
            "{}: a flipped oracle byte went unnoticed",
            w.name
        );
    }
}

#[test]
fn a_sector_the_store_lost_fails_the_run() {
    for w in &WORKLOADS {
        let run = workload::run(
            w,
            Scale::smoke(),
            7,
            &[WindowKind::Plain],
            Some(Sabotage::LostSector),
        );
        assert!(!run.correct(), "{}: a lost sector went unnoticed", w.name);
    }
}

#[test]
fn an_incorrect_run_exits_non_zero_and_says_so() {
    for fault in ["oracle", "store"] {
        let (ok, line) = wallbench(&[
            "run",
            "--workload",
            "raw-randrw-4k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
            "--sabotage",
            fault,
        ]);
        assert!(!ok, "--sabotage {fault} must exit non-zero");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }
    let (ok, line) = wallbench(&[
        "run",
        "--workload",
        "raw-randrw-4k",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn benchmark_json_names_what_the_code_measures() {
    let doc = benchmark_json();
    let names: Vec<String> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));
    for w in entries(&doc, "workloads") {
        let why = text(&w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let declared = entries(&doc, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (entry, metric) in declared.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        let better = if metric.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(text(entry, "better"), better, "{}", metric.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
        assert!(
            metric.bound <= 0.25,
            "{}: the driver caps bounds at a quarter",
            metric.name
        );
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(wallbench::workload::RUN_SECONDS)
    );
    // per_layer is the catalog's `Run` entries, in order.
    let declared: Vec<(String, String)> = entries(&doc, "per_layer")
        .iter()
        .map(|e| (text(e, "name").to_string(), text(e, "better").to_string()))
        .collect();
    let catalogued: Vec<(String, String)> = PER_LAYER
        .iter()
        .filter(|l| l.printed == Printed::Run)
        .map(|l| (l.name.to_string(), l.better.as_str().to_string()))
        .collect();
    assert_eq!(declared, catalogued);
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    for layer in PER_LAYER {
        assert!(is_metric_name(layer.name), "{}", layer.name);
        let moves = layer.moves();
        assert_eq!(moves.is_empty(), layer.moves == "nothing", "{}", layer.name);
        for (workload, metrics) in moves {
            assert!(
                workload::workload(workload).is_some(),
                "{}: no workload called {workload}",
                layer.name
            );
            for metric in metrics {
                assert!(
                    END_TO_END.iter().any(|m| m.name == metric),
                    "{}: no end-to-end metric called {metric}",
                    layer.name
                );
            }
        }
    }
}

#[test]
fn the_ladder_and_microbenchmarks_print_what_the_catalog_lists() {
    // The program's one budget takes two minutes; these numbers walk
    // the same code in seconds and are not measurements.
    let tiny = Budget {
        rung_ops: 300,
        rung_seconds: 0.05,
        micro_seconds: 0.01,
        micro_reps: 1,
        ladder_image_bytes: 8 << 20,
        rekey_image_bytes: 4 << 20,
    };
    let xts = layers::xts_micro(&tiny);
    let metrics = layers::workload_independent(&tiny, 3, &xts).expect("every layer answers");
    let printed: Vec<&str> = metrics.iter().map(|(name, _, _)| *name).collect();
    let catalogued: Vec<&str> = PER_LAYER
        .iter()
        .filter(|l| l.printed == Printed::Trace)
        .map(|l| l.name)
        .collect();
    assert_eq!(printed, catalogued);
    for (name, value, _) in metrics.iter().chain(&xts) {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_metric_name_round_trips_through_the_emitter() {
    let doc = benchmark_json();
    for key in ["end_to_end", "per_layer"] {
        for entry in entries(&doc, key) {
            let name = text(&entry, "name");
            assert!(is_metric_name(name), "{name}");
            let unit = text(&entry, "unit");
            assert!(unit.len() <= 16, "{unit}");
            let line = wallbench::json::obj([(
                name,
                wallbench::json::obj([("value", Value::from(1.25)), ("unit", Value::from(unit))]),
            )]);
            let back = Value::parse(&line.encode()).expect("emitted JSON parses");
            assert_eq!(back, line);
            assert_eq!(back.members()[0].0, name);
        }
    }
}

#[test]
fn a_traced_run_prints_exactly_the_per_layer_metrics_declared() {
    let (ok, line) = wallbench(&[
        "run",
        "--workload",
        "file-randwrite-16k",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert!(ok);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let doc = benchmark_json();
    let mut declared: Vec<(String, String)> = entries(&doc, "per_layer")
        .iter()
        .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
        .collect();
    let metrics = line.get("metrics").expect("metrics");
    let mut printed: Vec<(String, String)> = metrics
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no numeric value: {m:?}"
            );
            (name.clone(), text(m, "unit").to_string())
        })
        .collect();
    declared.sort();
    printed.sort();
    assert_eq!(printed, declared);
    // The file workload really wrote files, and the trace is on disk.
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert!(value("rados.file.write_amp") > 1.0);
    assert!(value("rados.file.disk_bytes") > 0.0);
    let trace =
        std::fs::read_to_string(wallbench::host::out_dir().join("trace-file-randwrite-16k.json"))
            .expect("trace file written");
    let trace = Value::parse(&trace).expect("trace parses");
    assert!(trace.get("spans_recorded").and_then(Value::as_f64).unwrap() > 3.0);
}
