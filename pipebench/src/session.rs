//! The workloads and the auditor session each of them runs.
//!
//! A session sets up its inputs, then runs rounds until `--seconds` have
//! passed (and at least [`MIN_ROUNDS`] rounds). One round is:
//! one more set-up (timed, then discarded), builds (acquire observations,
//! build both measures' F-Boxes), one pass of the query mix (closed loop,
//! one client), one mitigation sweep (re-rank and re-measure), one
//! refresh pass (ingest the re-crawl in batches and publish), and
//! recoveries (from the segment log and a cube snapshot). Interleaving
//! the phases spreads every metric's samples over the whole run, so a
//! slow spell of the machine shifts all of them a little instead of one
//! of them a lot. The workload chooses the inputs of the build and the
//! queries, and every metric is measured on every workload. All outputs
//! are checked outside the timed calls.

use crate::calls;
use crate::queries::{self, Answer, Mix, Platform};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace;
use fbox_core::algo::{RankOrder, Restriction};
use fbox_core::observations::{MarketObservations, MarketRanking, SearchObservations};
use fbox_core::{Dimension, FBox, LocationId, MarketMeasure, QueryId, SearchMeasure, Universe};
use fbox_marketplace::{Marketplace, Population, ScoringModel};
use fbox_mitigate::{Intervention, RerankConfig};
use fbox_repro::calibrate;
use fbox_resilience::StoragePlan;
use fbox_search::{ExtensionRunner, NoiseModel, SearchEngine, StudyDesign};
use fbox_store::{CubeSnapshot, EpochSnapshot, EpochStore};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells per refresh batch.
pub const BATCH_CELLS: usize = 16;
/// At least this many top-k questions, and as many comparisons, in each
/// platform's mix.
pub const MIX: usize = 1024;
/// Google participants per group on `google-scaled` (the paper: 3).
pub const GOOGLE_PARTICIPANTS: usize = 12;
/// Rounds a session runs even when its seconds have passed.
pub const MIN_ROUNDS: usize = 3;
/// Query calls between two steps of a round. The first calls of a gap
/// run on caches a build step has just flushed; at 1,024 calls they are
/// well under 1% of the samples, so p99 measures the mix's own tail (at
/// 256 it measured those cold calls, and moved with the machine's memory
/// traffic).
pub const CALLS_PER_GAP: usize = 1024;
/// Snapshot cube name of the store's measure.
const STORE_CUBE: &str = "market:exposure";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TaskRabbit at paper scale: crawl, EMD and exposure cubes, queries
    /// on an incomplete cube.
    TaskrabbitAudit,
    /// The Google study at 4x the paper's participants: Kendall and
    /// Jaccard cubes, queries on a complete cube.
    GoogleScaled,
    /// A durable re-crawl and its cubes; during the refresh one reader
    /// thread queries the latest epoch.
    RefreshMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::TaskrabbitAudit, Workload::GoogleScaled, Workload::RefreshMixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TaskrabbitAudit => "taskrabbit-audit",
            Workload::GoogleScaled => "google-scaled",
            Workload::RefreshMixed => "refresh-mixed",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds per round: one on `google-scaled`, whose build is the
    /// longest, four elsewhere.
    pub fn builds_per_round(self) -> usize {
        if self == Workload::GoogleScaled {
            1
        } else {
            4
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Rounds start until this much time has passed.
    pub seconds: f64,
    /// Directory for the segment logs and snapshots of this run.
    pub work_dir: PathBuf,
}

/// An end-to-end metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything a session measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errored, returned `None` where the oracle
    /// has an answer, or failed their output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Exact counts and facts the traced run reports per layer.
    pub facts: Facts,
    /// Start and end of the rounds (trace clock, ns).
    pub window_ns: (u64, u64),
}

/// Counts the per-layer metrics are normalized by.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// Pages the workload's crawl retrieved.
    pub crawl_cells: u64,
    /// Grid cells the crawl tried (queries x cities).
    pub crawl_grid: u64,
    /// Search requests of the workload's study (else of the paper-scale
    /// study the sweep re-ranks).
    pub study_requests: u64,
    /// Cells of the workload's first cube: computed, empty (observed
    /// cell, no value), unobserved.
    pub cube_cells: [u64; 3],
    /// Lists each re-ranking call re-orders: `(span name, lists)`.
    pub rerank_lists: Vec<(&'static str, u64)>,
    /// Group cells re-measured per sweep.
    pub remeasure_group_cells: u64,
    /// Largest NDCG loss any intervention paid.
    pub ndcg_loss_max: f64,
    /// Cells of the store's cube (groups x queries x locations).
    pub store_cube_cells: u64,
    /// Records in the durable log.
    pub log_records: u64,
    /// Bytes of the durable log.
    pub log_bytes: u64,
    /// Bytes of the saved snapshot.
    pub snapshot_bytes: u64,
    /// Time a reader waited in `latest()`, ns per call.
    pub latest_wait_ns: Vec<f64>,
    /// Build, sweep, refresh pass and recovery times (s), for the
    /// trace-overhead comparison.
    pub unit_s: Vec<f64>,
}

/// The simulators and observations every phase starts from.
pub struct Inputs {
    market: Marketplace,
    recrawl_market: Marketplace,
    engine: SearchEngine,
    /// Paper-scale TaskRabbit universe and crawl.
    pub market_universe: Universe,
    /// Paper-scale TaskRabbit crawl observations.
    pub market_obs: MarketObservations,
    /// The crawl with the platform's scores attached (mitigation input).
    pub scored_obs: MarketObservations,
    /// Paper-scale Google universe.
    pub search_universe: Universe,
    /// Paper-scale Google study observations.
    pub search_obs: SearchObservations,
    crawl_pages: u64,
    study_requests: u64,
    store_seed: FBox,
    /// The re-crawl (seed + 1) the refresh phase streams.
    pub recrawl_obs: MarketObservations,
    stream: Vec<(QueryId, LocationId, Option<MarketRanking>)>,
    log_path: PathBuf,
    log_records: u64,
}

fn marketplace(seed: u64) -> Marketplace {
    Marketplace::new(
        Population::paper(seed),
        ScoringModel::default(),
        calibrate::taskrabbit_bias(),
        seed,
    )
}

/// The calibrated Google search engine for `seed`.
pub fn engine(seed: u64) -> SearchEngine {
    SearchEngine::new(calibrate::google_personalization(), NoiseModel::default(), seed)
}

fn remove_log(path: &Path) {
    for p in [path.to_path_buf(), sidecar(path, ".gen")] {
        let _ = std::fs::remove_file(p);
    }
}

fn sidecar(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(ext);
    s.into()
}

/// From the seed to the inputs being ready: simulators, the paper-scale
/// crawl and study the mitigation sweep re-ranks, the initial store cube,
/// and the durable re-crawl the refresh phase streams.
pub fn setup(cfg: &Config) -> std::io::Result<Inputs> {
    let seed = cfg.seed;
    let market = marketplace(seed);
    let recrawl_market = marketplace(seed.wrapping_add(1));
    let engine = engine(seed);
    let (market_universe, market_obs, crawl) = calls::crawl(&market);
    let scored_obs = calls::attach_scores(&market, &market_universe, &market_obs);
    let design = StudyDesign { participants_per_group: 3, seed };
    let (search_universe, search_obs, study) =
        calls::study(&design, &engine, &ExtensionRunner::default());
    let store_seed = calls::from_market(&market_universe, &market_obs, MarketMeasure::exposure());

    std::fs::create_dir_all(&cfg.work_dir)?;
    let log_path = cfg.work_dir.join("recrawl.log");
    remove_log(&log_path);
    let durable = calls::crawl_durable(&recrawl_market, &log_path, StoragePlan::none())?;
    let recrawl_obs = durable.run.observations;
    let mut keys: Vec<(u32, u32)> =
        market_obs.cells().chain(recrawl_obs.cells()).map(|((q, l), _)| (q.0, l.0)).collect();
    keys.sort_unstable();
    keys.dedup();
    let stream = keys
        .into_iter()
        .map(|(q, l)| {
            let (q, l) = (QueryId(q), LocationId(l));
            (q, l, recrawl_obs.get(q, l).cloned())
        })
        .collect();
    Ok(Inputs {
        market,
        recrawl_market,
        engine,
        market_universe,
        market_obs,
        scored_obs,
        search_universe,
        search_obs,
        crawl_pages: crawl.n_queries as u64,
        study_requests: study.n_requests_lower_bound as u64,
        store_seed,
        recrawl_obs,
        stream,
        log_path,
        log_records: durable.appended as u64,
    })
}

/// Per-step wall times of a unit of several steps. A unit's time is the
/// sum of its steps' medians: each step's slow outliers are dropped
/// separately.
#[derive(Debug, Default)]
struct Steps {
    times: BTreeMap<&'static str, Vec<f64>>,
}

impl Steps {
    /// Runs `f` as step `name`, recording its wall time.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.times.entry(name).or_default().push(seconds_since(start));
        out
    }

    /// Sum over steps of each step's median time.
    fn total(&self) -> f64 {
        self.times.values().map(|v| median(&mut v.clone())).sum()
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn cube_bits(fb: &FBox) -> Vec<u64> {
    fb.cube().raw_data().iter().map(|v| v.map_or(u64::MAX, f64::to_bits)).collect()
}

fn cube_mean(fb: &FBox) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (_, _, _, v) in fb.cube().cells() {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Counts operations and failed checks into an [`Outcome`].
struct Checks<'a> {
    out: &'a mut Outcome,
}

impl Checks<'_> {
    fn attempt(&mut self, n: u64) {
        self.out.attempted += n;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.out.failed += 1;
            self.out.failures.push(what());
        }
    }
}

/// What one build produced: both measures' F-Boxes, the pages the crawl
/// retrieved and the requests the study issued (0 where there is none).
struct Built {
    fboxes: Vec<FBox>,
    crawl_cells: u64,
    study_requests: u64,
}

/// The workload's build, timed per step: acquisition, then each measure.
fn build(cfg: &Config, inp: &Inputs, steps: &mut Steps) -> std::io::Result<Built> {
    Ok(match cfg.workload {
        Workload::TaskrabbitAudit => {
            let (u, obs, stats) = steps.time("acquire", || calls::crawl(&inp.market));
            let emd = steps.time("emd", || calls::from_market(&u, &obs, MarketMeasure::emd()));
            let exposure =
                steps.time("exposure", || calls::from_market(&u, &obs, MarketMeasure::exposure()));
            Built {
                fboxes: vec![emd, exposure],
                crawl_cells: stats.n_queries as u64,
                study_requests: 0,
            }
        }
        Workload::GoogleScaled => {
            let design =
                StudyDesign { participants_per_group: GOOGLE_PARTICIPANTS, seed: cfg.seed };
            let (u, obs, stats) = steps.time("acquire", || {
                calls::study(&design, &inp.engine, &ExtensionRunner::default())
            });
            let kendall =
                steps.time("kendall", || calls::from_search(&u, &obs, SearchMeasure::kendall()));
            let jaccard = steps
                .time("jaccard", || calls::from_search(&u, &obs, SearchMeasure::JaccardDistance));
            Built {
                fboxes: vec![kendall, jaccard],
                crawl_cells: 0,
                study_requests: stats.n_requests_lower_bound as u64,
            }
        }
        Workload::RefreshMixed => {
            let path = cfg.work_dir.join("build.log");
            remove_log(&path);
            let durable = steps.time("acquire", || {
                calls::crawl_durable(&inp.recrawl_market, &path, StoragePlan::none())
            })?;
            let run = durable.run;
            let (u, obs) = (&run.universe, &run.observations);
            let emd = steps.time("emd", || calls::from_market(u, obs, MarketMeasure::emd()));
            let exposure =
                steps.time("exposure", || calls::from_market(u, obs, MarketMeasure::exposure()));
            Built {
                fboxes: vec![emd, exposure],
                crawl_cells: run.stats.n_queries as u64,
                study_requests: 0,
            }
        }
    })
}

/// Closed-loop query client: asks target `t` the questions of `mixes[t]`,
/// the targets in turn and top-k and comparison questions alternately,
/// checking each answer against its oracle (computed once per target
/// and question, outside the timing).
struct Client<'a> {
    mixes: Vec<&'a Mix>,
    oracle: HashMap<(usize, bool, usize), Answer>,
    topk_ns: Vec<f64>,
    compare_ns: Vec<f64>,
    next: usize,
}

impl<'a> Client<'a> {
    fn new(mixes: Vec<&'a Mix>) -> Self {
        Self { mixes, oracle: HashMap::new(), topk_ns: Vec::new(), compare_ns: Vec::new(), next: 0 }
    }

    /// Forgets the oracle answers (the targets changed).
    fn reset_oracle(&mut self) {
        self.oracle.clear();
    }

    /// Asks the next question, recording the call's time; returns the
    /// question's key and the answer.
    fn ask(&mut self, targets: &[&FBox]) -> ((usize, bool, usize), Answer) {
        let t = self.next % targets.len();
        let turn = self.next / targets.len();
        self.next += 1;
        let top_k = turn.is_multiple_of(2);
        let list = if top_k { &self.mixes[t].top_k } else { &self.mixes[t].compare };
        let i = (turn / 2) % list.len();
        let (answer, ns) = queries::ask(targets[t], &list[i]);
        if top_k {
            self.topk_ns.push(ns as f64);
        } else {
            self.compare_ns.push(ns as f64);
        }
        ((t, top_k, i), answer)
    }

    /// Whether `answer` to the question keyed `key` agrees with its oracle.
    fn check(&mut self, targets: &[&FBox], key: (usize, bool, usize), answer: &Answer) -> bool {
        let (t, top_k, i) = key;
        let mix = self.mixes[t];
        let q = if top_k { &mix.top_k[i] } else { &mix.compare[i] };
        let want = self.oracle.entry(key).or_insert_with(|| queries::oracle(targets[t], q));
        queries::agrees(q, answer, want)
    }

    /// One call, checked at once; returns whether it agreed.
    fn step(&mut self, targets: &[&FBox]) -> bool {
        let (key, answer) = self.ask(targets);
        self.check(targets, key, &answer)
    }

    /// Computes every question's oracle answer for `targets` now, so no
    /// oracle scan runs between two timed calls and cools the caches the
    /// next call reads.
    fn prefill(&mut self, targets: &[&FBox]) {
        for (t, target) in targets.iter().enumerate() {
            let mix = self.mixes[t];
            for (top_k, list) in [(true, &mix.top_k), (false, &mix.compare)] {
                for (i, q) in list.iter().enumerate() {
                    self.oracle.entry((t, top_k, i)).or_insert_with(|| queries::oracle(target, q));
                }
            }
        }
    }
}

/// Everything the mitigation sweep produced that the checks need.
struct Sweep {
    /// `(measure, intervention, post mean)` per re-measured cube.
    means: Vec<(&'static str, Intervention, f64)>,
    ndcg_loss_max: f64,
    /// `(re-ranking span name, lists re-ordered)` per call.
    lists: Vec<(&'static str, u64)>,
}

/// One full sweep: every intervention on both platforms, each re-ranking
/// re-measured under both of its platform's measures. Each (platform,
/// intervention) is one step; `between` runs after each step.
fn sweep(
    inp: &Inputs,
    config: &RerankConfig,
    steps: &mut Steps,
    between: &mut dyn FnMut(),
) -> Sweep {
    let mut means = Vec::new();
    let mut ndcg_loss_max = f64::NEG_INFINITY;
    let mut lists = Vec::new();
    let (mu, gu) = (&inp.market_universe, &inp.search_universe);
    for i in Intervention::ALL {
        let name = calls::rerank_name("market", i);
        steps.time(name, || {
            let r = calls::rerank_market(mu, &inp.scored_obs, i, config);
            ndcg_loss_max = ndcg_loss_max.max(r.stats.ndcg_loss());
            lists.push((name, r.stats.lists as u64));
            for (label, m) in
                [("emd", MarketMeasure::emd()), ("exposure", MarketMeasure::exposure())]
            {
                let fb = trace::span("mitigate.remeasure", || {
                    calls::from_market(mu, &r.observations, m)
                });
                means.push((label, i, cube_mean(&fb)));
            }
        });
        between();
        let name = calls::rerank_name("search", i);
        steps.time(name, || {
            let r = calls::rerank_search(gu, &inp.search_obs, i, config);
            ndcg_loss_max = ndcg_loss_max.max(r.stats.ndcg_loss());
            lists.push((name, r.stats.lists as u64));
            for (label, m) in
                [("kendall", SearchMeasure::kendall()), ("jaccard", SearchMeasure::JaccardDistance)]
            {
                let fb = trace::span("mitigate.remeasure", || {
                    calls::from_search(gu, &r.observations, m)
                });
                means.push((label, i, cube_mean(&fb)));
            }
        });
        between();
    }
    Sweep { means, ndcg_loss_max, lists }
}

/// Pre-intervention mean of each measure over the sweep's inputs.
fn pre_means(inp: &Inputs) -> HashMap<&'static str, f64> {
    let (mu, gu) = (&inp.market_universe, &inp.search_universe);
    let market = |m| cube_mean(&FBox::from_market(mu.clone(), &inp.scored_obs, m));
    let search = |m| cube_mean(&FBox::from_search(gu.clone(), &inp.search_obs, m));
    HashMap::from([
        ("emd", market(MarketMeasure::emd())),
        ("exposure", market(MarketMeasure::exposure())),
        ("kendall", search(SearchMeasure::kendall())),
        ("jaccard", search(SearchMeasure::JaccardDistance)),
    ])
}

/// What the refresh passes measured.
#[derive(Default)]
struct RefreshStats {
    /// Batch times (s).
    batches: Vec<f64>,
    /// Times `latest()` took (ns).
    waits: Vec<f64>,
    /// Reader calls made.
    calls: u64,
    /// Reader answers, or publications, that were wrong.
    bad: u64,
}

/// One refresh pass over a fresh store seeded with the initial cube:
/// every streamed cell ingested in [`BATCH_CELLS`]-cell batches, each
/// batch followed by `publish`. The pass advances in slices, so its
/// batches are spread over the round.
struct Refresh<'a> {
    inp: &'a Inputs,
    store: EpochStore,
    next: usize,
}

impl<'a> Refresh<'a> {
    fn new(inp: &'a Inputs) -> Self {
        Self { inp, store: EpochStore::with_fbox(inp.store_seed.clone()), next: 0 }
    }

    /// Batches in a whole pass.
    fn len(&self) -> usize {
        self.inp.stream.len().div_ceil(BATCH_CELLS)
    }

    /// The last published epoch.
    fn latest(&self) -> Arc<EpochSnapshot> {
        self.store.latest()
    }

    /// Runs up to `n` more batches. With `reader`, one thread runs the
    /// query mix against `latest()` meanwhile; without, the writer reads
    /// `latest()` once per batch and checks it is the epoch just
    /// published.
    fn advance(&mut self, n: usize, reader: Option<&mut Client<'_>>, stats: &mut RefreshStats) {
        let end = (self.next + n).min(self.len());
        let chunks = &self.inp.stream[(self.next * BATCH_CELLS).min(self.inp.stream.len())..];
        let count = end - self.next;
        self.next = end;
        if count == 0 {
            return;
        }
        let store = &self.store;
        let done = AtomicBool::new(false);
        let with_reader = reader.is_some();
        std::thread::scope(|s| {
            let reader_thread = reader.map(|client| {
                let done = &done;
                s.spawn(move || {
                    let (mut waits, mut bad, mut calls) = (Vec::new(), 0u64, 0u64);
                    let mut epoch = u64::MAX;
                    while !done.load(Ordering::Acquire) {
                        let start = Instant::now();
                        let snap = calls::latest(store);
                        waits.push(start.elapsed().as_nanos() as f64);
                        if snap.epoch() != epoch {
                            epoch = snap.epoch();
                            client.reset_oracle();
                        }
                        calls += 1;
                        if !client.step(&[snap.fbox()]) {
                            bad += 1;
                        }
                    }
                    (waits, bad, calls)
                })
            });
            for chunk in chunks.chunks(BATCH_CELLS).take(count) {
                let start = Instant::now();
                for (q, l, ranking) in chunk {
                    calls::ingest_market(
                        store,
                        *q,
                        *l,
                        ranking.as_ref(),
                        MarketMeasure::exposure(),
                    );
                }
                let published = calls::publish(store);
                stats.batches.push(seconds_since(start));
                if !with_reader {
                    let start = Instant::now();
                    let latest = calls::latest(store);
                    stats.waits.push(start.elapsed().as_nanos() as f64);
                    stats.bad += u64::from(latest.epoch() != published.epoch());
                }
            }
            done.store(true, Ordering::Release);
            if let Some(h) = reader_thread {
                let (waits, bad, calls) = h.join().expect("reader thread panicked");
                stats.waits.extend(waits);
                stats.bad += bad;
                stats.calls += calls;
            }
        });
    }
}

/// Runs the session: set-up, rounds, checks and metrics.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(cfg, &mut out) {
        out.attempted += 1;
        out.failed += 1;
        out.failures.push(format!("I/O error: {e}"));
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

fn run_inner(cfg: &Config, out: &mut Outcome) -> std::io::Result<()> {
    let start = Instant::now();
    let inp = setup(cfg)?;
    let mut setup_s = vec![seconds_since(start)];
    let mut facts = Facts {
        crawl_cells: inp.crawl_pages,
        crawl_grid: (inp.market_universe.n_queries() * inp.market_universe.n_locations()) as u64,
        study_requests: inp.study_requests,
        store_cube_cells: (inp.market_universe.n_groups()
            * inp.market_universe.n_queries()
            * inp.market_universe.n_locations()) as u64,
        log_records: inp.log_records,
        log_bytes: std::fs::metadata(&inp.log_path).map_or(0, |m| m.len()),
        ..Facts::default()
    };
    let mut ck = Checks { out: &mut *out };

    // Untimed preparation: the query mixes, a warm-up build whose
    // F-Boxes the queries run against, and the durable state the
    // recoveries start from (the batch build over the re-crawl, which
    // every refresh pass must end bit-equal to, saved and loaded back).
    let mut rng = Rng::new(cfg.seed, 0x51);
    let market_mix = queries::generate(&inp.market_universe, Platform::Market, &mut rng, MIX);
    let search_mix = queries::generate(&inp.search_universe, Platform::Search, &mut rng, MIX);
    let warm = build(cfg, &inp, &mut Steps::default())?;
    let first_bits: Vec<Vec<u64>> = warm.fboxes.iter().map(cube_bits).collect();
    let reader = cfg.workload == Workload::RefreshMixed;
    let mut client = Client::new(
        warm.fboxes
            .iter()
            .map(|fb| {
                if fb.universe().n_locations() == inp.market_universe.n_locations() {
                    &market_mix
                } else {
                    &search_mix
                }
            })
            .collect(),
    );
    let mut reader_client = Client::new(vec![&market_mix]);
    let batch =
        FBox::from_market(inp.market_universe.clone(), &inp.recrawl_obs, MarketMeasure::exposure());
    let batch_bits = cube_bits(&batch);
    let snap_path = cfg.work_dir.join("store.fbxs");
    let mut snap = CubeSnapshot::new(batch.universe().clone());
    snap.insert_cube(STORE_CUBE, batch.cube().clone());
    calls::snapshot_save(&snap, &snap_path)?;
    facts.snapshot_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());
    let loaded = calls::snapshot_load(&snap_path)?;
    ck.attempt(1);
    ck.check(
        loaded.cube(STORE_CUBE).map(|c| c.raw_data()) == Some(batch.cube().raw_data()),
        || "snapshot did not load back bit-equal".into(),
    );
    let probe = Restriction::none();
    let want = batch.top_k(Dimension::Group, 3, RankOrder::MostUnfair, &probe).entries;
    let config = RerankConfig::default();

    let (mut build_steps, mut sweep_steps) = (Steps::default(), Steps::default());
    let mut recover_s = Vec::new();
    let mut refresh_stats = RefreshStats::default();
    let mut first_sweep: Option<Sweep> = None;
    let mut io_error: Option<std::io::Error> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let window_start = trace::now_ns();
    let mut rounds = 0usize;
    let mut latest = warm;
    let mut newest = None;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        // Queries run against the previous round's last build (the warm-up
        // build in the first round), so over a run they see several
        // allocations of the same cubes, not one.
        let targets: Vec<&FBox> = latest.fboxes.iter().collect();
        client.reset_oracle();
        if !reader {
            client.prefill(&targets);
        }

        // Between two steps of the round: one recovery, a slice of the
        // query mix and a slice of the refresh pass, so all three are
        // sampled all through the run.
        let mut refresh = Refresh::new(&inp);
        let slice =
            refresh.len().div_ceil(cfg.workload.builds_per_round() + 2 * Intervention::ALL.len());
        let mut gap = |ck: &mut Checks<'_>| {
            let start = Instant::now();
            match recover(&inp.log_path, &snap_path, &probe) {
                Ok(r) => {
                    recover_s.push(seconds_since(start));
                    ck.attempt(1);
                    ck.check(
                        r.records == inp.log_records
                            && r.answer == want
                            && cube_bits(&r.fbox) == batch_bits,
                        || "recovered store differs from the one before the restart".into(),
                    );
                }
                Err(e) => io_error = Some(e),
            }
            if !reader {
                for _ in 0..CALLS_PER_GAP {
                    ck.attempt(1);
                    if !client.step(&targets) {
                        ck.check(false, || "a query answer disagreed with its oracle".into());
                    }
                }
            }
            let reader_client = reader.then_some(&mut reader_client);
            refresh.advance(slice, reader_client, &mut refresh_stats);
        };

        if rounds > 1 {
            let start = Instant::now();
            drop(setup(cfg)?);
            setup_s.push(seconds_since(start));
        }
        for _ in 0..cfg.workload.builds_per_round() {
            let b = build(cfg, &inp, &mut build_steps)?;
            let bits: Vec<Vec<u64>> = b.fboxes.iter().map(cube_bits).collect();
            ck.attempt(1);
            ck.check(bits == first_bits, || "builds are not deterministic".into());
            newest = Some(b);
            gap(&mut ck);
        }

        let s = sweep(&inp, &config, &mut sweep_steps, &mut || gap(&mut ck));
        ck.attempt(1);
        match &first_sweep {
            Some(first) => ck.check(
                s.means.iter().map(|m| m.2.to_bits()).eq(first.means.iter().map(|m| m.2.to_bits())),
                || "mitigation sweeps are not deterministic".into(),
            ),
            None => first_sweep = Some(s),
        }

        gap(&mut ck);
        latest = newest.take().expect("a build ran");
        let rest = refresh.len();
        refresh.advance(rest, reader.then_some(&mut reader_client), &mut refresh_stats);
        ck.check(cube_bits(refresh.latest().fbox()) == batch_bits, || {
            "final epoch differs from a batch build over the re-crawl".into()
        });
        if let Some(e) = io_error.take() {
            return Err(e);
        }
    }
    let window_end = trace::now_ns();
    ck.attempt(setup_s.len() as u64 + refresh_stats.batches.len() as u64 + refresh_stats.calls);
    for _ in 0..refresh_stats.bad {
        ck.check(false, || "a refresh-phase answer or publication was wrong".into());
    }
    let batch_s = refresh_stats.batches;
    facts.latest_wait_ns = refresh_stats.waits;

    // Checks on the sweep's outputs.
    let sweep = first_sweep.expect("a sweep ran");
    let pre = pre_means(&inp);
    for &(measure, i, post) in &sweep.means {
        if measure == "emd" {
            ck.check(post == pre["emd"], || format!("{i}: EMD moved by {}", post - pre["emd"]));
        }
        if i == Intervention::ExposureOptimal && (measure == "exposure" || measure == "kendall") {
            ck.check(post < pre[measure], || {
                format!("exposure-opt did not lower {measure}: {} -> {post}", pre[measure])
            });
        }
    }

    let first = &latest.fboxes[0];
    if latest.crawl_cells > 0 {
        facts.crawl_cells = latest.crawl_cells;
    }
    if latest.study_requests > 0 {
        facts.study_requests = latest.study_requests;
    }
    let computed = first.cube().cells().count() as u64;
    let groups = first.universe().n_groups() as u64;
    let observed = groups
        * match cfg.workload {
            Workload::TaskrabbitAudit => inp.market_obs.n_cells() as u64,
            Workload::GoogleScaled => {
                (first.universe().n_queries() * first.universe().n_locations()) as u64
            }
            Workload::RefreshMixed => inp.recrawl_obs.n_cells() as u64,
        };
    let total = first.cube().raw_data().len() as u64;
    facts.cube_cells = [computed, observed - computed, total - observed];
    facts.rerank_lists = sweep.lists.clone();
    facts.ndcg_loss_max = sweep.ndcg_loss_max;
    facts.remeasure_group_cells = 2
        * Intervention::ALL.len() as u64
        * (inp.market_universe.n_groups() as u64 * inp.scored_obs.n_cells() as u64
            + inp.search_universe.n_groups() as u64 * inp.search_obs.n_cells() as u64);

    let queries = if reader { reader_client } else { client };
    let (mut topk, mut cmp) = (queries.topk_ns, queries.compare_ns);
    let mut batch_ms: Vec<f64> = batch_s.iter().map(|s| s * 1e3).collect();
    let units = [
        build_steps.total(),
        sweep_steps.total(),
        median(&mut batch_s.clone()) * inp.stream.len().div_ceil(BATCH_CELLS) as f64,
        median(&mut recover_s),
    ];
    facts.unit_s = units.to_vec();
    out.metrics = vec![
        Metric { name: "setup_s", unit: "s", value: median(&mut setup_s) },
        Metric { name: "build_s", unit: "s", value: units[0] },
        Metric { name: "topk_p50_us", unit: "us", value: quantile(&mut topk, 0.50) / 1e3 },
        Metric { name: "topk_p99_us", unit: "us", value: quantile(&mut topk, 0.99) / 1e3 },
        Metric { name: "compare_p50_us", unit: "us", value: quantile(&mut cmp, 0.50) / 1e3 },
        Metric { name: "compare_p99_us", unit: "us", value: quantile(&mut cmp, 0.99) / 1e3 },
        Metric { name: "mitigate_s", unit: "s", value: units[1] },
        Metric { name: "refresh_p50_ms", unit: "ms", value: quantile(&mut batch_ms, 0.50) },
        Metric { name: "refresh_p95_ms", unit: "ms", value: quantile(&mut batch_ms, 0.95) },
        Metric { name: "recover_s", unit: "s", value: units[3] },
    ];
    eprintln!(
        "{rounds} rounds: {} top-k, {} compare, {} refresh batches, {} recoveries",
        topk.len(),
        cmp.len(),
        batch_ms.len(),
        recover_s.len()
    );
    out.facts = facts;
    out.window_ns = (window_start, window_end);
    Ok(())
}

/// Cold recovery: replay the segment log, load the snapshot, rebuild the
/// F-Box from its cube and answer one top-k.
fn recover(log_path: &Path, snap_path: &Path, probe: &Restriction) -> std::io::Result<Recovered> {
    let (log, payloads, _) = calls::segment_open(log_path, StoragePlan::none())?;
    drop(log);
    let mut records = 0u64;
    for p in &payloads {
        fbox_store::record::decode_crawl(p)?;
        records += 1;
    }
    let snap = calls::snapshot_load(snap_path)?;
    let cube = snap.cube(STORE_CUBE).cloned().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "snapshot lacks the store cube")
    })?;
    let fb = calls::from_cube(snap.universe().clone(), cube);
    let answer = fb.top_k(Dimension::Group, 3, RankOrder::MostUnfair, probe).entries;
    Ok(Recovered { fbox: fb, records, answer })
}

/// What a recovery rebuilt: the F-Box, the log records it replayed, and
/// its answer to the probe question.
struct Recovered {
    fbox: FBox,
    records: u64,
    answer: Vec<(u32, f64)>,
}
