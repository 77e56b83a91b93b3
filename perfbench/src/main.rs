//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]`
//!
//! Prints the run's shape, host fingerprint and every metric with its unit,
//! then, as the last line, one JSON object with the listed metrics.  Exits
//! non-zero when any verdict, conservation, zero-stall or determinism check
//! fails.

use perfbench::metrics::{host_fingerprint, result_json};
use perfbench::schedule::Workload;
use perfbench::{run, RunConfig};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut commit = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pump-loops|fib-calls|search-churn> --seed <n> \
                 --seconds <s> --trace <0|1> [--commit <id>]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} clients=1 window={} transport={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        workload.window(),
        if workload.networked() { "loopback-event-loop" } else { "in-process" },
    );
    println!("# host {} commit={}", host_fingerprint(), args.commit);

    let mut report = run(workload, args.seed, RunConfig::measured(args.seconds), args.traced);
    for metric in &report.metrics.0 {
        if !metric.value.is_finite() {
            report.violations.push(format!("{} is not a finite number", metric.name));
        }
        println!("{:<40} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for violation in &report.violations {
        println!("# VIOLATION {violation}");
        eprintln!("perfbench: {violation}");
    }
    let correct = report.violations.is_empty();
    println!("{}", result_json(correct, report.attempted, report.failed, &report.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
