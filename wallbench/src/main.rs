//! `wallbench run | aa | trace | report`. See `wallbench/README.md`.

use std::process::ExitCode;
use wallbench::catalog;
use wallbench::layers::{self, Budget, Metrics};
use wallbench::report;
use wallbench::rig;
use wallbench::trace;
use wallbench::workload::{self, Run, Sabotage, Scale, WindowKind, WORKLOADS};

const USAGE: &str = "usage:
  wallbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--sabotage oracle|store]
      one benchmark run; the last line of standard output is the result object
  wallbench aa [--seed <n>] [--seconds <s>]
      the full set twice, alternating order; exits non-zero if the two disagree
  wallbench trace [--seed <n>] [--seconds <s>]
      every per-layer metric: traced runs of all workloads, the layer ladder, the microbenchmarks
  wallbench report
      renders the last results under wallbench/out/ as markdown
workloads: enc-randwrite-4k enc-randread-4k raw-randrw-4k file-randwrite-16k";

/// Spans written per trace file; the rest are counted only.
const TRACE_FILE_SPANS: usize = 50_000;

/// The windows of a traced run: tracing off and on by turns, so that
/// `trace.overhead_share` compares neighbours.
const TRACED_RUN: [WindowKind; 4] = [
    WindowKind::Plain,
    WindowKind::Traced,
    WindowKind::Plain,
    WindowKind::Traced,
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sabotage: Option<Sabotage>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: workload::RUN_SECONDS,
        trace: false,
        smoke: false,
        sabotage: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--sabotage" => {
                parsed.sabotage = Some(match value()?.as_str() {
                    "oracle" => Sabotage::OracleByte,
                    "store" => Sabotage::LostSector,
                    other => return Err(format!("--sabotage takes oracle or store, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Every metric by name with its unit; a per-layer metric also with
/// the end-to-end metrics it should move.
fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, value, unit) in metrics {
        match catalog::layer_named(name) {
            Some(layer) => println!("  {name:<44} {value:>16.4} {unit:<8} moves {}", layer.moves),
            None => println!("  {name:<44} {value:>16.4} {unit}"),
        }
    }
}

/// Writes a traced run's spans (of its last traced window) and its
/// per-layer metrics under `out/`.
fn save_traced(run: &Run, metrics: &Metrics) -> Result<(), String> {
    let name = run.workload.name;
    if let Some(w) = run
        .windows
        .iter()
        .rev()
        .find(|w| w.kind == WindowKind::Traced)
    {
        let spans = trace::to_json(&w.spans, TRACE_FILE_SPANS);
        report::write_out(&format!("trace-{name}.json"), &spans)?;
    }
    let layers = report::layers_json(Some(run), metrics);
    report::write_out(&format!("layers-{name}.json"), &layers).map(drop)
}

/// One benchmark run under the driver's contract.
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let w = workload::workload(name).ok_or_else(|| format!("no workload called {name}"))?;
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let (run, metrics) = if args.trace {
        let run = workload::run(w, scale, args.seed, &TRACED_RUN, args.sabotage);
        let mut metrics = Vec::new();
        if run.error.is_none() {
            metrics = report::per_layer(&run, &layers::xts_micro(&Budget::ISSUE));
            save_traced(&run, &metrics)?;
        }
        (run, metrics)
    } else {
        let kinds = vec![WindowKind::Plain; scale.windows];
        let run = workload::run(w, scale, args.seed, &kinds, args.sabotage);
        let metrics = report::end_to_end(&run);
        report::write_out(
            &format!("run-{}.json", w.name),
            &report::run_json(&run, &metrics),
        )?;
        (run, metrics)
    };
    if let Some(e) = &run.error {
        eprintln!("wallbench: {e}");
    }
    print_metrics(&format!("{} (seed {})", w.name, args.seed), &metrics);
    println!("  {}", report::latency_samples(&run));
    println!("{}", report::contract_line(&run, &metrics));
    Ok(if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The full set twice in one invocation, the second in reverse order.
fn aa(args: &Args) -> Result<ExitCode, String> {
    let scale = Scale::full(args.seconds);
    let kinds = vec![WindowKind::Plain; scale.windows];
    let mut sets: [Vec<Metrics>; 2] = [Vec::new(), Vec::new()];
    for (set, results) in sets.iter_mut().enumerate() {
        let mut order: Vec<_> = WORKLOADS.iter().collect();
        if set == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!("aa: set {} {}", ["A", "B"][set], w.name);
            let run = workload::run(w, scale, args.seed, &kinds, None);
            if !run.correct() {
                return Err(format!("{}: run incorrect: {:?}", w.name, run.error));
            }
            let metrics = report::end_to_end(&run);
            report::write_out(
                &format!("run-{}.json", w.name),
                &report::run_json(&run, &metrics),
            )?;
            results.push(metrics);
        }
    }
    sets[1].reverse();
    let pairs: Vec<_> = WORKLOADS
        .iter()
        .zip(sets[0].iter().zip(&sets[1]))
        .flat_map(|(w, (a, b))| report::pairs(w.name, a, b))
        .collect();
    print!("{}", report::aa_table(&pairs));
    report::write_out("aa.json", &report::aa_json(&pairs))?;
    Ok(if pairs.iter().all(report::Pair::agrees) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every per-layer metric by name.
fn trace_all(args: &Args) -> Result<ExitCode, String> {
    let scale = Scale::full(args.seconds);
    let mut correct = true;
    let xts = layers::xts_micro(&Budget::ISSUE);
    for w in &WORKLOADS {
        let run = workload::run(w, scale, args.seed, &TRACED_RUN, None);
        if let Some(e) = &run.error {
            return Err(format!("{}: {e}", w.name));
        }
        correct &= run.correct();
        let metrics = report::per_layer(&run, &xts);
        print_metrics(
            &format!("{} (traced run, seed {})", w.name, args.seed),
            &metrics,
        );
        save_traced(&run, &metrics)?;
    }
    let metrics = layers::workload_independent(&Budget::ISSUE, args.seed, &xts)?;
    print_metrics("layer ladder and microbenchmarks", &metrics);
    report::write_out("layers.json", &report::layers_json(None, &metrics))?;
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Two runs must measure the same program: nothing inherited from
    // the caller may choose a backend, and nothing left by a killed
    // run may sit in the store's directory.
    std::env::remove_var("VDISK_BACKEND");
    std::env::remove_var("VDISK_BACKEND_DIR");
    rig::remove_stale_stores();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((command, rest)) => parse(rest).and_then(|args| match command.as_str() {
            "run" => run(&args),
            "aa" => aa(&args),
            "trace" => trace_all(&args),
            "report" => {
                print!("{}", report::markdown());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command {other}\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    // Every rig is dropped by now: no store directory outlives the
    // process on any path that returns here, and a panic unwinds
    // through the same guards.
    outcome.unwrap_or_else(|e| {
        eprintln!("wallbench: {e}");
        ExitCode::from(2)
    })
}
