//! The HERMES benchmark: runs one workload against the public API of
//! `hermes-rt`, `hermes-serve` and `hermes-workloads`, checks every
//! output, and prints its metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```sh
//! hermes-perfbench --workload finegrain --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1`
//! runs the workload half untraced and half with spans recorded around
//! every call into a layer, probes the deque and injector, and prints
//! the per-layer metrics; the spans are written to `--trace-dir`.

mod common;
mod finegrain;
mod pbbs;
mod probes;
mod serve_burst;
mod stats;
mod trace;

use common::{RunResult, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["pbbs", "finegrain", "serve-burst"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hermes-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_path = args
        .trace_dir
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let mut result: RunResult = match args.workload.as_str() {
        "pbbs" => pbbs::run(seed, seconds, traced, &trace_path),
        "finegrain" => finegrain::run(seed, seconds, traced, &trace_path),
        _ => serve_burst::run(seed, seconds, traced, &trace_path),
    };
    if traced {
        probes::run(&mut result.metrics);
        println!("spans written to {}", trace_path.display());
    }
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let value = result.metrics.get(name).unwrap_or(0.0);
        println!(
            "{:<28} {value:>14.6} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    for v in &result.violations {
        println!("VIOLATION: {v}");
    }
    let correct = result.violations.is_empty() && result.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted,
        result.failed,
        result.metrics.json(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
