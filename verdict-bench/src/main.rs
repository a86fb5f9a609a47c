//! Layered end-to-end verdict benchmark for `iwa`.
//!
//! ```text
//! cargo run --release --manifest-path verdict-bench/Cargo.toml -- \
//!     --workload <rendezvous_scale|waitgraph_scale|serve_replay|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the seven end-to-end metrics; `--trace 1` replays
//! every input layer by layer and prints one row per input plus the
//! per-layer metrics. The last stdout line is the result object. A
//! correctness-gate or manifest violation exits with code 1 and prints no
//! result. `--write-manifest` regenerates `manifest.tsv` on stdout.
//! See `README.md` next to this file for the workloads and metrics.

mod engine_wl;
mod inputs;
mod layers;
mod serve_wl;
mod stats;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one run reports. A run that breaks the correctness gate reports
/// nothing, so every reported outcome is correct.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// A scratch directory inside the checkout holding one run's input files;
/// removed when dropped.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    fn create(workload: &str, seed: u64, inputs: &[inputs::Input]) -> Result<WorkDir, String> {
        let path = inputs::repo_root()
            .join(".bench_work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let dir = WorkDir { path };
        for (i, input) in inputs.iter().enumerate() {
            let file = dir.path.join(input.file_name(i));
            std::fs::write(&file, &input.source).map_err(|e| format!("{}: {e}", file.display()))?;
        }
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once the last run's directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-manifest" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run_workload(workload: &str, args: &Args) -> Result<Outcome, String> {
    let slots = inputs::slots(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let inputs = inputs::realise(&slots, args.seed)?;
    let nodes = inputs
        .iter()
        .map(|i| inputs::model_nodes(i.lang, &i.source).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<Vec<_>, _>>()?;
    inputs::check_manifest(workload, &inputs, &nodes)?;
    eprintln!(
        "{workload}: seed {}, {} inputs, {} model nodes",
        args.seed,
        inputs.len(),
        nodes.iter().sum::<usize>()
    );
    match (workload, args.trace) {
        ("serve_replay", false) => serve_wl::run(&inputs, args.seed, args.seconds),
        ("serve_replay", true) => serve_wl::run_traced(&inputs, args.seed, args.seconds),
        (_, false) => engine_wl::run(
            &WorkDir::create(workload, args.seed, &inputs)?,
            &inputs,
            args.seconds,
        ),
        (_, true) => engine_wl::run_traced(
            &WorkDir::create(workload, args.seed, &inputs)?,
            &inputs,
            args.seconds,
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match inputs::write_manifest() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        inputs::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for workload in &workloads {
        match run_workload(workload, &args) {
            Ok(outcome) => {
                if workloads.len() > 1 {
                    println!(
                        "{{\"workload\": \"{workload}\", \"result\": {}}}",
                        outcome.to_json()
                    );
                }
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let total = if outcomes.len() == 1 {
        outcomes.pop().expect("one outcome")
    } else {
        let mut metrics = Metrics::default();
        for (workload, o) in workloads.iter().zip(&outcomes) {
            for (name, value, unit) in &o.metrics.0 {
                metrics.put(&format!("{workload}/{name}"), *value, unit);
            }
        }
        Outcome {
            attempted: outcomes.iter().map(|o| o.attempted).sum(),
            failed: outcomes.iter().map(|o| o.failed).sum(),
            metrics,
        }
    };
    println!("{}", total.to_json());
    ExitCode::SUCCESS
}
