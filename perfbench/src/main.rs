//! The repository benchmark: runs one named workload of the STwig matcher
//! in this process and prints its metrics.
//!
//! ```text
//! stwig-perfbench --workload <zipf-warm|cold-stream|churn> --seed <n>
//!                 --seconds <s> --trace <0|1> [--quick] [--corrupt-row]
//!                 [--streaming]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The run exits
//! non-zero when any answer is wrong. `--quick` shrinks every input to a
//! few thousand vertices (a self-check that finishes in seconds);
//! `--corrupt-row` slips one corrupted row into the checker and so must make
//! the run fail. `--streaming` gives `zipf-warm` requests a per-request
//! first-k override, so they take the streaming executor instead of the
//! materialized one (a comparison, not a workload). See README.md.

mod check;
mod common;
mod report;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: stwig-perfbench --workload <zipf-warm|cold-stream|churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick] [--corrupt-row] [--streaming]";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub corrupt_row: bool,
    pub streaming: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
            corrupt_row: false,
            streaming: false,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--quick" => out.quick = true,
                "--corrupt-row" => out.corrupt_row = true,
                "--streaming" => out.streaming = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(out.seconds > 0.0 && out.seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".into());
        }
        Ok(out)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload: {} seed={} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace, args.quick
    );
    let probe_start = report::speed_probe_ms();
    let result = match args.workload.as_str() {
        "zipf-warm" => workloads::zipf_warm(&args),
        "cold-stream" => workloads::cold_stream(&args),
        "churn" => workloads::churn(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe_end = report::speed_probe_ms();
    println!(
        "machine_probe_ms: start={probe_start:.2} end={probe_end:.2} (fixed CPU loop; not a metric)"
    );
    println!("threads: {}", report::thread_count());
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
