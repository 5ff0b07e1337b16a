//! Benchmark of the Macro-3D flows and their DSE service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! A failed output check prints `"correct": false` and exits 1. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod stats;
mod sweeps;
mod trace;

use macro3d_json::Json;
use stats::Metrics;
use std::path::Path;
use std::process::ExitCode;
use sweeps::{Env, Kind};
use trace::Recorder;

/// The preset tile seed of `TileConfig`, the default workload seed.
const DEFAULT_SEED: u64 = 0x3d1c5;
const DEFAULT_SECONDS: f64 = 10.0;
/// Scratch space inside the checkout: per-round cache directories
/// (removed after each round) and the traced run's span files.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <sweep_cold|sweep_reuse> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for {flag}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value '{value}' for {flag}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = match workload.as_str() {
        "sweep_cold" => Kind::Cold,
        "sweep_reuse" => Kind::Reuse,
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(Args {
        kind,
        workload,
        seed,
        seconds,
        trace,
    })
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    problems: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let cpus = macro3d_par::available_threads();
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        cpus,
        work_dir,
    };
    let mut metrics = Metrics::default();
    if !args.trace {
        let outcome = sweeps::run(args.kind, &env, &Recorder::new(false))?;
        outcome.end_to_end(&mut metrics);
        let problems = outcome.check(args.kind, &env)?;
        return Ok(Report {
            attempted: outcome.attempted(),
            failed: outcome.failed(),
            metrics,
            problems,
        });
    }

    // traced run: the same phase untraced, then with spans, so the
    // difference is the tracing overhead; then the layer replays
    let plain = sweeps::run(args.kind, &env, &Recorder::new(false))?;
    let rec = Recorder::new(true);
    let traced = sweeps::run(args.kind, &env, &rec)?;
    let mut problems = traced.check(args.kind, &env)?;
    traced.dse_layer(&mut metrics);
    metrics.push("trace.run_s", traced.run_s(), "s");
    metrics.push("trace.overhead_s", traced.run_s() - plain.run_s(), "s");
    problems.extend(layers::measure(
        &rec,
        &traced.replay_specs(),
        cpus,
        &mut metrics,
    )?);
    for (layer, secs) in rec.self_time_by_layer() {
        metrics.push(format!("self_s.{layer}"), secs, "s");
    }
    let path = work_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Report {
        attempted: traced.attempted(),
        failed: traced.failed(),
        metrics,
        problems,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let mut metrics = Json::obj();
    for m in &report.metrics.0 {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        metrics = metrics.field(
            m.name.clone(),
            Json::obj()
                .field("value", Json::from_f64(m.value))
                .field("unit", Json::str(m.unit)),
        );
    }
    let line = Json::obj()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::from_u64(report.attempted))
        .field("failed", Json::from_u64(report.failed))
        .field("metrics", metrics);
    println!("{}", line.emit());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
