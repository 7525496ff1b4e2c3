//! `pipebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload of the F-Box pipeline benchmark and prints a table of
//! its metrics, the machine record, and, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. Exits 1 when any output check fails, 2 on bad
//! arguments.

use pipebench::session::{self, Config, Metric, Workload};
use pipebench::{alloc, layers, machine};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: pipebench --workload <taskrabbit-audit|google-scaled|refresh-mixed> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::TaskrabbitAudit,
        seed: fbox_repro::calibrate::SEED,
        seconds: 25,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Pins the environment the program reads, so it cannot change the work:
/// all cores, no injected faults, no program-side tracing or telemetry,
/// no cube cache.
fn pin_environment() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("FBOX_THREADS", threads.to_string());
    for var in ["FBOX_FAULTS", "FBOX_TRACE", "FBOX_TELEMETRY", "FBOX_CUBE"] {
        std::env::remove_var(var);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let name = args.workload.name();
    let work_dir = root.join("work").join(format!("{name}-{}", std::process::id()));
    let cfg =
        Config { workload: args.workload, seed: args.seed, seconds: args.seconds as f64, work_dir };
    let calibration = machine::calibration_ns(5);

    let (outcome, metrics): (session::Outcome, Vec<(&str, &str, f64)>) = if args.trace {
        let spans = root.join("out").join(format!("spans-{name}-{}.jsonl", args.seed));
        let (outcome, metrics) = layers::traced_run(&cfg, calibration, Some(&spans));
        println!("# spans written to {}", spans.display());
        (outcome, metrics)
    } else {
        let mut outcome = session::run(&cfg);
        outcome.metrics.push(Metric {
            name: "rss_peak_mb",
            unit: "MB",
            value: machine::rss_peak_mb(),
        });
        let metrics = outcome.metrics.iter().map(|m| (m.name, m.unit, m.value)).collect();
        (outcome, metrics)
    };
    // The run's own directory is gone; drop `work/` too unless another
    // run is using it.
    let _ = std::fs::remove_dir(root.join("work"));

    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# workload {name}, seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (metric, unit, value) in &metrics {
        println!("{metric:<48} {value:>16.6} {unit}");
    }
    if !args.trace {
        println!("{:<48} {failed_share:>16.6} ratio", "failed_share");
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "# machine {}",
        machine::record(name, args.seed, args.seconds, args.trace, calibration)
    );

    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        println!("# FAILED: a metric is not a finite number");
    }
    let correct = outcome.failed == 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed + u64::from(!finite),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
