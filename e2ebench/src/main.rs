//! End-to-end benchmark of the shipped NeurFill workloads.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_8x8|serve_seq_8x8|batch_16x16|chip_C120 --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks the outputs, and prints every metric by name
//! with its unit. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The run record (seed, input sizes, workers, `nproc`, metrics) is
//! appended to `.e2ebench/runs.jsonl`; traced runs also write their
//! spans and the program's telemetry there. A failed output check makes
//! the run exit 1.

mod batch;
mod chip;
mod common;
mod metrics;
mod replay;
mod serve;

use common::{nproc, Tracer, WORKERS, WORK_DIR};
use metrics::{Outcome, END_TO_END, PER_LAYER, UNGATED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2ebench --workload serve_8x8|serve_seq_8x8|batch_16x16|chip_C120 --seed N --seconds S --trace 0|1";

/// Command-line arguments of one run.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn artifact(args: &RunArgs, kind: &str) -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("{kind}-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Saves the program's own telemetry snapshot of a traced run.
pub fn write_flow_metrics(args: &RunArgs, jsonl: &str) -> Result<(), String> {
    let path = artifact(args, "telemetry");
    std::fs::write(&path, jsonl).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Prints the metrics and the result line, appends the run record, and
/// picks the exit code.
fn finish(args: &RunArgs, tracer: &Tracer, mut out: Outcome) -> Result<bool, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name).copied() {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.check(false, || format!("metric {name} is {v}"));
                0.0
            }
            // Per-layer metrics of layers this workload does not run.
            None if args.trace => 0.0,
            None => {
                out.check(false, || format!("metric {name} was not measured"));
                0.0
            }
        };
        values.push((name, value, unit));
    }

    let mut info = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.to_string()),
        ("workers", WORKERS.to_string()),
        ("nproc", nproc().to_string()),
    ];
    info.extend(out.info.iter().map(|(k, v)| (*k, json_string(v))));
    println!(
        "{}",
        info.iter().map(|(k, v)| format!("{k} {}", v.trim_matches('"'))).collect::<Vec<_>>().join("  ")
    );
    for (name, value, unit) in &values {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if !args.trace {
        for &(name, unit) in UNGATED {
            if let Some(value) = out.metrics.get(name) {
                println!("  {name:<28} {value:>16.6} {unit} (not gated)");
                info.push((name, value.to_string()));
            }
        }
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} operations)",
        "failed_frac", failed_frac, out.failed, out.attempted
    );
    for failure in &out.check_failures {
        eprintln!("check failed: {failure}");
    }
    if args.trace {
        let path = artifact(args, "trace");
        tracer.write(&path)?;
        println!("spans written to {}", path.display());
    }

    let correct = out.check_failures.is_empty();
    let metrics = values
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    let record = format!(
        "{{{}, \"result\": {result}}}\n",
        info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ")
    );
    let runs = PathBuf::from(WORK_DIR).join("runs.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()))
        .map_err(|e| format!("appending {}: {e}", runs.display()))?;
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("e2ebench: creating {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "serve_8x8" => serve::run(&args, &tracer, serve::Mode::Open),
        "serve_seq_8x8" => serve::run(&args, &tracer, serve::Mode::Seq),
        "batch_16x16" => batch::run(&args, &tracer),
        "chip_C120" => chip::run(&args, &tracer),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome.and_then(|out| finish(&args, &tracer, out)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
