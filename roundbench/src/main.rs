//! Round profile: times real FL rounds through the SDFLMQ stack and
//! attributes them to layers.
//!
//! ```text
//! cargo run --release --manifest-path roundbench/Cargo.toml -- \
//!     --workload round-dense --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the recorded spans under `.roundbench_out/`).
//! `--workload all` runs every workload in its own process. The last line
//! of standard output is the JSON result; the exit code is non-zero when a
//! correctness check failed. Workloads and metrics are described in
//! `METRICS.md`.

mod check;
mod fl;
mod procfs;
mod report;
mod rng;
mod stats;
mod tcp;
mod trace;

use report::Outcome;
use std::process::ExitCode;

/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "round-dense",
    "round-train-int8",
    "swarm-control",
    "broker-tcp",
];

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The percentile reported as a workload's latency tail: its own `wanted`
/// tail, lowered when the run has too few samples for ten to lie beyond
/// it (the percentile used is recorded with the metrics).
pub fn tail_for(wanted: f64, samples: usize) -> f64 {
    let ladder = [50.0, 75.0, 90.0, 99.0, 99.9];
    let allowed: Vec<f64> = ladder.into_iter().filter(|&p| p <= wanted).collect();
    stats::tail_percentile(samples, &allowed).unwrap_or(50.0)
}

/// Where traced runs write their spans (inside the working directory).
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".roundbench_out")
}

fn run_one(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    out.info_str("workload", &args.workload);
    out.info("seed", args.seed);
    out.info("seconds", args.seconds);
    out.info("trace", u8::from(args.trace));
    out.info(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match fl::FlSpec::by_name(&args.workload) {
        Some(spec) => fl::run(&spec, args, &mut out),
        None => tcp::run(args, &mut out),
    }
    out
}

/// Runs every workload as a child process of this binary, so no workload
/// inherits another's threads or heap, and summarizes them.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut failed = 0u64;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("roundbench: workload {workload} failed");
            failed += 1;
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{}}}}",
        failed == 0,
        WORKLOADS.len()
    );
    failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}");
            eprintln!(
                "usage: roundbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        let out = run_one(&args);
        print!("{}", out.table(&args.workload, args.trace));
        println!("{}", out.result_json(args.trace));
        out.correct(args.trace)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
