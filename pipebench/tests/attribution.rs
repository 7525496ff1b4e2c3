//! Attribution self-test: a slowdown injected into the benchmark's own
//! wrapper around one layer call must move that layer's metric and the
//! end-to-end metric of the workload that depends on it, and leave a
//! workload that does not call it within its bound.
//!
//! Run with `cargo test --release --manifest-path pipebench/Cargo.toml`
//! (about six minutes on two cores; a debug build is much slower).

use pipebench::calls::inject_slowdown;
use pipebench::layers::Probe;
use pipebench::session::{self, Config, Workload};
use std::path::PathBuf;

const SLOWDOWN: f64 = 1.6;
const KENDALL: &str = "core.fbox.from_search.kendall";

/// The benchmark's own settings for `workload`, with no time budget: the
/// session runs its minimum number of rounds.
fn config(workload: Workload, tag: &str) -> Config {
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("attribution-{tag}-{}", std::process::id()));
    Config { workload, seed: fbox_repro::calibrate::SEED, seconds: 0.0, work_dir }
}

fn build_s(cfg: &Config) -> f64 {
    let out = session::run(cfg);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    out.metrics.iter().find(|m| m.name == "build_s").expect("build_s is reported").value
}

/// The `build_s` bound fixed in the repository's `BENCHMARK.json`.
fn build_bound() -> f64 {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let at = text.find("\"name\": \"build_s\"").expect("build_s is listed");
    let rest = &text[at..];
    let value = &rest[rest.find("\"bound\":").expect("build_s has a bound") + 8..];
    let end = value.find('}').expect("bound ends the entry");
    value[..end].trim().parse().expect("bound is a number")
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

#[test]
fn kendall_slowdown_moves_kendall_metrics_only() {
    let google = config(Workload::GoogleScaled, "google");
    let market = config(Workload::TaskrabbitAudit, "market");

    // Base/slowed pairs, back to back, so a slow spell of a shared machine
    // hits both sides of a pair alike; the median ratio counts.
    let (mut google_ratio, mut market_ratio) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (google_base, market_base) = (build_s(&google), build_s(&market));
        inject_slowdown(Some((KENDALL, SLOWDOWN)));
        let (google_slow, market_slow) = (build_s(&google), build_s(&market));
        inject_slowdown(None);
        google_ratio.push(google_slow / google_base);
        market_ratio.push(market_slow / market_base);
    }
    let probe = Probe::new(&google).expect("probe set-up");
    let mut failures = Vec::new();
    let kernels_base = probe.kernels(&mut failures);
    inject_slowdown(Some((KENDALL, SLOWDOWN)));
    let kernels_slow = probe.kernels(&mut failures);
    inject_slowdown(None);
    let _ = std::fs::remove_dir_all(&google.work_dir);
    assert!(failures.is_empty(), "{failures:?}");

    // Kendall is most of a google-scaled build, so build_s grows by about
    // 0.6 x that share; the layer metric by about 1.6x.
    let kendall = kernels_slow[2].1.ns_per_group_cell / kernels_base[2].1.ns_per_group_cell;
    assert!(kendall > 1.4, "kendall ns_per_group_cell moved only {kendall:.3}x");
    let google_ratio = median(google_ratio);
    assert!(google_ratio > 1.25, "google build_s moved only {google_ratio:.3}x");

    // TaskRabbit never calls the Kendall build.
    let market_ratio = median(market_ratio);
    assert!(
        (market_ratio - 1.0).abs() < build_bound(),
        "taskrabbit build_s moved {market_ratio:.3}x with Kendall slowed"
    );
    for (i, name) in [(0, "emd"), (1, "exposure")] {
        let r = kernels_slow[i].1.ns_per_group_cell / kernels_base[i].1.ns_per_group_cell;
        assert!(r < 1.3, "{name} ns_per_group_cell moved {r:.3}x with Kendall slowed");
    }
}
