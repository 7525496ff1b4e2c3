//! The traced run: per-layer metrics.
//!
//! The session runs twice in one process, first untraced and then with
//! spans recorded around every layer call; the ratio of the two gives the
//! tracing overhead. Probes then measure what the session's spans cannot
//! separate: cube kernels at 1 and N threads (cube time is `FBox::from_*`
//! minus `IndexSet::build` on the same cube), the same top-k mix sent
//! directly to each algorithm, live bytes per cell, and log appends.

use crate::calls::{self, Algo};
use crate::queries::{self, Platform};
use crate::rng::Rng;
use crate::session::{self, Config, Inputs, Outcome, Workload};
use crate::stats::{median, quantile};
use crate::{alloc, trace};
use fbox_core::observations::{MarketObservations, SearchObservations};
use fbox_core::{FBox, MarketMeasure, SearchMeasure, Universe};
use fbox_mitigate::Intervention;
use fbox_resilience::StoragePlan;
use fbox_search::{ExtensionRunner, StudyDesign};
use fbox_store::CubeSnapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("marketplace.crawl.ns_per_cell", "ns"),
    ("marketplace.crawl.cells", "count"),
    ("marketplace.crawl.useful_share", "ratio"),
    ("search.study.ns_per_request", "ns"),
    ("search.study.requests", "count"),
    ("core.cube.emd.ns_per_group_cell", "ns"),
    ("core.cube.exposure.ns_per_group_cell", "ns"),
    ("core.cube.kendall.ns_per_group_cell", "ns"),
    ("core.cube.jaccard.ns_per_group_cell", "ns"),
    ("core.cube.emd.scaling_x", "x"),
    ("core.cube.exposure.scaling_x", "x"),
    ("core.cube.kendall.scaling_x", "x"),
    ("core.cube.jaccard.scaling_x", "x"),
    ("core.cube.cells_computed", "count"),
    ("core.cube.cells_empty", "count"),
    ("core.cube.cells_unobserved", "count"),
    ("core.cube.live_bytes_per_cell", "B"),
    ("core.index.live_bytes_per_cell", "B"),
    ("core.index.ns_per_list", "ns"),
    ("core.topk.cells_per_call", "count"),
    ("core.topk.ns_per_cell", "ns"),
    ("core.topk.indexed_share", "ratio"),
    ("core.algo.ta.cells_per_call", "count"),
    ("core.algo.ta.ns_per_call", "ns"),
    ("core.algo.nra.cells_per_call", "count"),
    ("core.algo.nra.ns_per_call", "ns"),
    ("core.algo.naive.cells_per_call", "count"),
    ("core.algo.naive.ns_per_call", "ns"),
    ("core.compare.ns_per_call", "ns"),
    ("core.compare.rows_per_call", "count"),
    ("mitigate.rerank.market.fa-star-ir.ns_per_list", "ns"),
    ("mitigate.rerank.market.det-greedy.ns_per_list", "ns"),
    ("mitigate.rerank.market.det-cons.ns_per_list", "ns"),
    ("mitigate.rerank.market.det-relaxed.ns_per_list", "ns"),
    ("mitigate.rerank.market.exposure-opt.ns_per_list", "ns"),
    ("mitigate.rerank.search.fa-star-ir.ns_per_list", "ns"),
    ("mitigate.rerank.search.det-greedy.ns_per_list", "ns"),
    ("mitigate.rerank.search.det-cons.ns_per_list", "ns"),
    ("mitigate.rerank.search.det-relaxed.ns_per_list", "ns"),
    ("mitigate.rerank.search.exposure-opt.ns_per_list", "ns"),
    ("mitigate.remeasure.ns_per_group_cell", "ns"),
    ("mitigate.ndcg_loss_max", "ratio"),
    ("store.ingest.ns_per_cell", "ns"),
    ("store.publish.ns_per_cube_cell", "ns"),
    ("store.latest.wait_ns_p99", "ns"),
    ("store.log.append.ns_per_record", "ns"),
    ("store.log.bytes_per_cell", "B"),
    ("store.log.replay.ns_per_record", "ns"),
    ("store.snapshot.save_ms", "ms"),
    ("store.snapshot.load_ms", "ms"),
    ("store.snapshot.bytes_per_cell", "B"),
    ("store.snapshot.live_bytes_per_cell", "B"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.uncovered_share", "ratio"),
    ("bench.calibration_ns", "ns"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Kernel cost of one measure, from the thread-scaling probe.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Cube time per group cell at 1 thread, ns.
    pub ns_per_group_cell: f64,
    /// Cube time at 1 thread / cube time at N threads.
    pub scaling_x: f64,
    /// `IndexSet::build` on the cube at N threads, ns.
    pub index_ns: f64,
    /// Posting lists the index holds.
    pub lists: f64,
}

/// Inputs of the probes: the workload's own observations where it has
/// them, else the paper-scale inputs of the mitigation sweep.
pub struct Probe {
    cfg: Config,
    /// The set-up the probes start from.
    pub inputs: Inputs,
    scaled: Option<(Universe, SearchObservations)>,
}

impl Probe {
    /// Sets up the probes' inputs for `cfg`'s workload.
    pub fn new(cfg: &Config) -> std::io::Result<Self> {
        let inputs = session::setup(cfg)?;
        let scaled = (cfg.workload == Workload::GoogleScaled).then(|| {
            let design = StudyDesign {
                participants_per_group: session::GOOGLE_PARTICIPANTS,
                seed: cfg.seed,
            };
            let (u, o, _) =
                calls::study(&design, &session::engine(cfg.seed), &ExtensionRunner::default());
            (u, o)
        });
        Ok(Self { cfg: cfg.clone(), inputs, scaled })
    }

    /// The market observations the probes build from.
    pub fn market(&self) -> (&Universe, &MarketObservations) {
        let obs = match self.cfg.workload {
            Workload::RefreshMixed => &self.inputs.recrawl_obs,
            _ => &self.inputs.market_obs,
        };
        (&self.inputs.market_universe, obs)
    }

    /// The search observations the probes build from.
    pub fn search(&self) -> (&Universe, &SearchObservations) {
        match &self.scaled {
            Some((u, o)) => (u, o),
            None => (&self.inputs.search_universe, &self.inputs.search_obs),
        }
    }

    /// Every measure's kernel cost and thread scaling, in the order emd,
    /// exposure, kendall, jaccard. A cube that differs between 1 and N
    /// threads is reported in `failures`.
    pub fn kernels(&self, failures: &mut Vec<String>) -> [(&'static str, Kernel); 4] {
        let threads = fbox_par::max_threads();
        let ((mu, mobs), (su, sobs)) = (self.market(), self.search());
        let mgc = mu.n_groups() * mobs.n_cells();
        let sgc = su.n_groups() * sobs.n_cells();
        [
            (
                "emd",
                kernel(threads, mgc, failures, "emd", || {
                    calls::from_market(mu, mobs, MarketMeasure::emd())
                }),
            ),
            (
                "exposure",
                kernel(threads, mgc, failures, "exposure", || {
                    calls::from_market(mu, mobs, MarketMeasure::exposure())
                }),
            ),
            (
                "kendall",
                kernel(threads, sgc, failures, "kendall", || {
                    calls::from_search(su, sobs, SearchMeasure::kendall())
                }),
            ),
            (
                "jaccard",
                kernel(threads, sgc, failures, "jaccard", || {
                    calls::from_search(su, sobs, SearchMeasure::JaccardDistance)
                }),
            ),
        ]
    }
}

/// Builds with `build` at 1 and at `threads` workers, times
/// `IndexSet::build` on the result at each of the two worker counts (it
/// runs in parallel too), and checks the two cubes are bit-identical.
/// Cube time at a worker count is the build's time minus the index's at
/// the same count. At least three rounds, and more (up to 31) until the
/// 1-thread builds add up to a second, so cheap kernels are timed often
/// enough for their medians to settle.
fn kernel(
    threads: usize,
    group_cells: usize,
    failures: &mut Vec<String>,
    name: &str,
    build: impl Fn() -> FBox,
) -> Kernel {
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let (mut index_one, mut index_many) = (Vec::new(), Vec::new());
    let mut lists = 0.0;
    while one.len() < 3 || (one.iter().sum::<f64>() < 1e9 && one.len() < 31) {
        let start = Instant::now();
        let a = fbox_par::with_threads(1, &build);
        one.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        let b = fbox_par::with_threads(threads, &build);
        many.push(start.elapsed().as_nanos() as f64);
        for (n, times) in [(1, &mut index_one), (threads, &mut index_many)] {
            let start = Instant::now();
            std::hint::black_box(fbox_par::with_threads(n, || calls::index_build(a.cube())));
            times.push(start.elapsed().as_nanos() as f64);
        }
        if a.cube().raw_data().iter().map(|v| v.map(f64::to_bits)).ne(b
            .cube()
            .raw_data()
            .iter()
            .map(|v| v.map(f64::to_bits)))
        {
            failures.push(format!("{name}: cube at {threads} threads differs from 1 thread"));
        }
        let u = a.universe();
        let (g, q, l) = (u.n_groups() as f64, u.n_queries() as f64, u.n_locations() as f64);
        lists = q * l + g * l + g * q;
    }
    let (t1, tn) = (median(&mut one), median(&mut many));
    let (idx1, idxn) = (median(&mut index_one), median(&mut index_many));
    Kernel {
        ns_per_group_cell: ratio(t1 - idx1, group_cells as f64),
        scaling_x: ratio(t1 - idx1, tn - idxn),
        index_ns: idxn,
        lists,
    }
}

/// Runs the session untraced and traced, then the probes; returns the
/// traced outcome (with probe failures added) and the per-layer values.
pub fn traced_run(
    cfg: &Config,
    calibration_ns: f64,
    spans_out: Option<&Path>,
) -> (Outcome, Vec<(&'static str, &'static str, f64)>) {
    let untraced = session::run(cfg);
    trace::set_workload(
        session::Workload::ALL.iter().position(|w| *w == cfg.workload).unwrap_or(0) as u32,
    );
    trace::enable(true);
    let main_thread = trace::thread_id();
    let mut out = session::run(cfg);
    let (spans, counts) = trace::drain();
    trace::enable(false);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    out.failures.extend(untraced.failures.iter().cloned());
    if let Some(path) = spans_out {
        if let Err(e) = trace::write_jsonl(&spans, path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    let totals = trace::self_times(&spans);
    let mut by_self: Vec<_> = totals.iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "# {:<46} {:>9} {:>12} {:>12}",
        "span (traced session)", "calls", "total ms", "self ms"
    );
    for (name, t) in by_self {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!("# {name:<46} {:>9} {:>12.3} {:>12.3}", t.calls, ms(t.total_ns), ms(t.self_ns));
    }
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let f = &out.facts;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    let crawl = t("marketplace.crawl");
    v.insert(
        "marketplace.crawl.ns_per_cell",
        ratio(crawl.total_ns as f64, c("marketplace.crawl.cells")),
    );
    v.insert("marketplace.crawl.cells", f.crawl_cells as f64);
    v.insert("marketplace.crawl.useful_share", ratio(f.crawl_cells as f64, f.crawl_grid as f64));
    let study = t("search.study");
    v.insert(
        "search.study.ns_per_request",
        ratio(study.total_ns as f64, c("search.study.requests")),
    );
    v.insert("search.study.requests", f.study_requests as f64);

    // Probes: the workload's own observations where it has them, else the
    // paper-scale inputs of the mitigation sweep.
    let mut failures = Vec::new();
    let probe_cfg = Config { work_dir: cfg.work_dir.join("probe"), ..cfg.clone() };
    match Probe::new(&probe_cfg) {
        Ok(probe) => {
            let inp = &probe.inputs;
            let ((mu, mobs), (su, sobs)) = (probe.market(), probe.search());
            let kernels = probe.kernels(&mut failures);
            for (name, k) in &kernels {
                v.insert(
                    metric(format!("core.cube.{name}.ns_per_group_cell")),
                    k.ns_per_group_cell,
                );
                v.insert(metric(format!("core.cube.{name}.scaling_x")), k.scaling_x);
            }
            let primary = match cfg.workload {
                Workload::GoogleScaled => &kernels[2].1,
                _ => &kernels[0].1,
            };
            v.insert("core.index.ns_per_list", ratio(primary.index_ns, primary.lists));

            // Live bytes per cell of the workload's first cube and its index.
            let fb = match cfg.workload {
                Workload::GoogleScaled => {
                    FBox::from_search(su.clone(), sobs, SearchMeasure::kendall())
                }
                _ => FBox::from_market(mu.clone(), mobs, MarketMeasure::emd()),
            };
            let cells = fb.cube().raw_data().len() as f64;
            let mut snapshot = CubeSnapshot::new(fb.universe().clone());
            snapshot.insert_cube("cube", fb.cube().clone());
            let bytes = snapshot.to_bytes();
            alloc::enable(true);
            let (cube, cube_bytes) = alloc::retained_by(|| fb.cube().clone());
            let (index, index_bytes) = alloc::retained_by(|| fbox_core::IndexSet::build(&cube));
            let (loaded, snapshot_bytes) = alloc::retained_by(|| CubeSnapshot::from_bytes(&bytes));
            alloc::enable(false);
            if loaded.is_err() {
                failures.push("snapshot bytes did not decode".into());
            }
            drop((cube, index, loaded));
            v.insert("core.cube.live_bytes_per_cell", ratio(cube_bytes as f64, cells));
            v.insert("core.index.live_bytes_per_cell", ratio(index_bytes as f64, cells));
            v.insert("store.snapshot.live_bytes_per_cell", ratio(snapshot_bytes as f64, cells));

            // The query mix's top-k questions, sent to each algorithm.
            let mut rng = Rng::new(cfg.seed, 0x51);
            let market_mix =
                queries::generate(&inp.market_universe, Platform::Market, &mut rng, session::MIX);
            let search_mix =
                queries::generate(&inp.search_universe, Platform::Search, &mut rng, session::MIX);
            let mix = match cfg.workload {
                Workload::GoogleScaled => &search_mix,
                _ => &market_mix,
            };
            for (algo, name) in [(Algo::Ta, "ta"), (Algo::Nra, "nra"), (Algo::Naive, "naive")] {
                let (mut ns, mut cells_scanned, mut n) = (0.0, 0.0, 0.0);
                for q in &mix.top_k {
                    if let queries::Query::TopK { dim, k, order, restrict } = q {
                        let start = Instant::now();
                        let r = calls::algo_top_k(&fb, algo, *dim, *k, *order, restrict);
                        ns += start.elapsed().as_nanos() as f64;
                        cells_scanned += r.stats.cells_scanned as f64;
                        n += 1.0;
                        let want = queries::oracle(&fb, q);
                        if !queries::agrees(q, &queries::Answer::TopK(r.entries), &want) {
                            failures.push(format!("{name} disagrees with naive_top_k"));
                        }
                    }
                }
                v.insert(
                    metric(format!("core.algo.{name}.cells_per_call")),
                    ratio(cells_scanned, n),
                );
                v.insert(metric(format!("core.algo.{name}.ns_per_call")), ratio(ns, n));
            }

            // Appends: the re-crawl's records into a fresh log.
            let log = probe_cfg.work_dir.join("append.log");
            let source = probe_cfg.work_dir.join("recrawl.log");
            match (
                calls::segment_open(&source, StoragePlan::none()),
                calls::segment_open(&log, StoragePlan::none()),
            ) {
                (Ok((_, payloads, _)), Ok((mut fresh, _, _))) => {
                    let start = Instant::now();
                    for p in &payloads {
                        if let Err(e) = fresh.append(p) {
                            failures.push(format!("log append failed: {e}"));
                        }
                    }
                    v.insert(
                        "store.log.append.ns_per_record",
                        ratio(start.elapsed().as_nanos() as f64, payloads.len() as f64),
                    );
                }
                _ => failures.push("could not open the probe logs".into()),
            }
        }
        Err(e) => failures.push(format!("probe set-up failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    let cube = out.facts.cube_cells;
    v.insert("core.cube.cells_computed", cube[0] as f64);
    v.insert("core.cube.cells_empty", cube[1] as f64);
    v.insert("core.cube.cells_unobserved", cube[2] as f64);
    let topk = t("core.fbox.top_k");
    v.insert("core.topk.cells_per_call", ratio(c("core.topk.cells"), topk.calls as f64));
    v.insert("core.topk.ns_per_cell", ratio(topk.total_ns as f64, c("core.topk.cells")));
    v.insert("core.topk.indexed_share", ratio(c("core.topk.indexed_calls"), topk.calls as f64));
    // Single-entity comparisons (`FBox::compare`) and set comparisons.
    let (pair, sets) = (t("core.fbox.compare"), t("core.algo.compare_sets"));
    let (cmp_ns, cmp_calls) =
        ((pair.total_ns + sets.total_ns) as f64, (pair.calls + sets.calls) as f64);
    v.insert("core.compare.ns_per_call", ratio(cmp_ns, cmp_calls));
    v.insert("core.compare.rows_per_call", ratio(c("core.compare.rows"), cmp_calls));
    for &(span, lists) in &f.rerank_lists {
        let r = t(span);
        v.insert(
            metric(format!("{span}.ns_per_list")),
            ratio(r.total_ns as f64, r.calls as f64 * lists as f64),
        );
    }
    let remeasure = t("mitigate.remeasure");
    let sweeps = remeasure.calls as f64 / (4 * Intervention::ALL.len()) as f64;
    v.insert(
        "mitigate.remeasure.ns_per_group_cell",
        ratio(remeasure.total_ns as f64, sweeps * f.remeasure_group_cells as f64),
    );
    v.insert("mitigate.ndcg_loss_max", f.ndcg_loss_max);
    let ingest = t("store.ingest_market");
    v.insert("store.ingest.ns_per_cell", ratio(ingest.total_ns as f64, ingest.calls as f64));
    let publish = t("store.publish");
    v.insert(
        "store.publish.ns_per_cube_cell",
        ratio(publish.total_ns as f64, publish.calls as f64 * f.store_cube_cells as f64),
    );
    v.insert("store.latest.wait_ns_p99", quantile(&mut f.latest_wait_ns.clone(), 0.99));
    v.insert("store.log.bytes_per_cell", ratio(f.log_bytes as f64, f.log_records as f64));
    let open = t("store.segment.open");
    v.insert(
        "store.log.replay.ns_per_record",
        ratio(open.total_ns as f64, open.calls as f64 * f.log_records as f64),
    );
    let save = t("store.snapshot.save");
    v.insert("store.snapshot.save_ms", ratio(save.total_ns as f64, save.calls as f64) / 1e6);
    let load = t("store.snapshot.load");
    v.insert("store.snapshot.load_ms", ratio(load.total_ns as f64, load.calls as f64) / 1e6);
    v.insert(
        "store.snapshot.bytes_per_cell",
        ratio(f.snapshot_bytes as f64, f.store_cube_cells as f64),
    );
    let traced_units: f64 = f.unit_s.iter().sum();
    let untraced_units: f64 = untraced.facts.unit_s.iter().sum();
    v.insert("bench.trace_overhead_share", ratio(traced_units, untraced_units) - 1.0);
    v.insert(
        "bench.uncovered_share",
        trace::uncovered_share(&spans, main_thread, out.window_ns.0, out.window_ns.1),
    );
    v.insert("bench.calibration_ns", calibration_ns);

    out.attempted += 1;
    if !failures.is_empty() {
        out.failed += 1;
        out.failures.extend(failures);
    }
    let metrics = METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = v.get(name).copied().unwrap_or(f64::NAN);
            (name, unit, value)
        })
        .collect();
    (out, metrics)
}

/// The entry of [`METRICS`] named `name`.
fn metric(name: String) -> &'static str {
    METRICS.iter().find(|(n, _)| *n == name).map(|(n, _)| *n).expect("metric is listed in METRICS")
}
