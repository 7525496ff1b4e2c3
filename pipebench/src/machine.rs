//! The machine and settings a result was measured on, and a fixed
//! integer kernel timed in the same run so figures can be compared
//! across machines.

use std::process::Command;
use std::time::Instant;

/// One command's first output line, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed integer kernel (xorshift and accumulate), its median time in
/// ns over `runs` runs. It allocates nothing and touches no program code.
pub fn calibration_ns(runs: u64) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|round| {
            let start = Instant::now();
            let mut x: u64 = 0x2545_F491_4F6C_DD1D ^ round;
            let mut acc: u64 = 0;
            for _ in 0..(1u32 << 22) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x >> 3);
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut times)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The machine and settings record printed with every result.
pub fn record(workload: &str, seed: u64, seconds: u64, traced: bool, calibration: f64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("nproc", json_str(&command_line("nproc", &[]))),
        ("available_parallelism", parallelism.to_string()),
        ("fbox_threads", json_str(&std::env::var("FBOX_THREADS").unwrap_or_default())),
        ("git_revision", json_str(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", json_str(&command_line("rustc", &["-V"]))),
        ("cpu_model", json_str(&cpu_model())),
        ("calibration_ns", format!("{calibration:.0}")),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}
