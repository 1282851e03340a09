//! End-to-end and per-layer benchmark of the farm, fuzz and prover
//! paths.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload on inputs generated from the seed, checks every
//! output, and prints one JSON result as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer table with `--trace 1`. See
//! `README.md` beside this crate for the workloads and the metric map.

mod farm_churn;
mod fuzz_campaign;
mod host;
mod mutant_prove;
mod report;
mod sim_layers;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::{RunOutput, END_TO_END, PER_LAYER};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["farm-churn", "fuzz-campaign", "mutant-prove"];

/// Fewest passes an untraced run makes, so that a median across
/// passes can drop one pass disturbed by host noise.
const MIN_PASSES: usize = 3;

/// Whether an untraced run has measured long enough: `--seconds` have
/// passed and it has made at least [`MIN_PASSES`] passes.
pub fn enough(args: &Args, started: Instant, passes: usize) -> bool {
    passes >= MIN_PASSES && started.elapsed().as_secs_f64() >= args.seconds
}

/// One invocation's settings.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_u64(&value).ok_or("--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Decimal or `0x`-prefixed hexadecimal.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {{\"host\": {}, \"seed\": {}}}",
        host::fingerprint_json(),
        args.seed
    );
    let mut out: RunOutput = match args.workload.as_str() {
        "farm-churn" => farm_churn::run(&args),
        "fuzz-campaign" => fuzz_campaign::run(&args),
        _ => mutant_prove::run(&args),
    };
    if args.trace {
        sim_layers::measure(args.seed, &mut out);
    } else {
        match host::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.problem("peak RSS is unavailable: no /proc/self/status".to_string()),
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    for line in &out.problems {
        println!("problem: {line}");
    }
    println!("elapsed: {:.2} s", started.elapsed().as_secs_f64());
    let table: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    println!("{}", out.result_json(table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload mutant-prove --seed 0x2a --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mutant-prove", 42, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload farm-churn").is_err());
        assert!(args("--workload farm-churn --seed 1 --trace 2").is_err());
        assert!(args("--workload farm-churn --seed 1 --seconds -3").is_err());
        assert!(args("--workload farm-churn --seed").is_err());
    }
}
