//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <naive-check|long-horizon|certify|serve-repeat> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, timed with tracing
//! off; with `--trace 1` they are the per-layer ones from a traced run.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod calib;
mod check;
mod deck;
mod runner;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use deck::Workload;

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::ServeRepeat => serve::run(&args, process_start),
        _ => runner::run(&args, process_start),
    };
    match result {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
