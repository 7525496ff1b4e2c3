//! The benchmark's wrappers around each public call into the program.
//!
//! Every layer call the sessions make goes through one of these, so the
//! traced run records one span per call, named after the crate the call
//! belongs to. [`inject_slowdown`] lets the benchmark's own tests stretch
//! one wrapper's wall time to check that a slower layer moves the metrics
//! it should, and only those.

use crate::trace;
use fbox_core::algo::{self, ComparisonOutcome, Entity, RankOrder, Restriction, TopKResult};
use fbox_core::observations::{MarketObservations, MarketRanking, SearchObservations};
use fbox_core::{Dimension, FBox, IndexSet, LocationId, MarketMeasure, QueryId, SearchMeasure};
use fbox_core::{UnfairnessCube, Universe};
use fbox_marketplace::{CrawlRun, CrawlStats, Marketplace};
use fbox_mitigate::{Intervention, MarketRerank, RerankConfig, SearchRerank};
use fbox_resilience::{Resilience, StoragePlan};
use fbox_search::{ExtensionRunner, SearchEngine, StudyDesign, StudyStats};
use fbox_store::{CubeSnapshot, EpochSnapshot, EpochStore, ReplayStats, SegmentLog};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static INJECTING: AtomicBool = AtomicBool::new(false);
static INJECTED: Mutex<Option<(&'static str, f64)>> = Mutex::new(None);

/// Makes every call through the wrapper named `name` take `factor` times
/// its own wall time (the extra time is slept after the call returns).
/// `None` removes the slowdown. For the benchmark's attribution tests.
pub fn inject_slowdown(slow: Option<(&'static str, f64)>) {
    *INJECTED.lock().expect("slowdown table poisoned") = slow;
    INJECTING.store(slow.is_some(), Ordering::Relaxed);
}

fn layer<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    trace::span(name, || {
        if !INJECTING.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let slow = *INJECTED.lock().expect("slowdown table poisoned");
        if let Some((target, factor)) = slow {
            if target == name && factor > 1.0 {
                std::thread::sleep(start.elapsed().mul_f64(factor - 1.0));
            }
        }
        out
    })
}

/// Span name of a market cube build.
pub fn market_build_name(measure: MarketMeasure) -> &'static str {
    match measure.label() {
        "emd" => "core.fbox.from_market.emd",
        _ => "core.fbox.from_market.exposure",
    }
}

/// Span name of a search cube build.
pub fn search_build_name(measure: SearchMeasure) -> &'static str {
    match measure.label() {
        "jaccard" => "core.fbox.from_search.jaccard",
        _ => "core.fbox.from_search.kendall",
    }
}

/// Metric label of an intervention.
pub fn intervention_label(i: Intervention) -> &'static str {
    match i {
        Intervention::FaStarIr => "fa-star-ir",
        Intervention::DetGreedy => "det-greedy",
        Intervention::DetCons => "det-cons",
        Intervention::DetRelaxed => "det-relaxed",
        Intervention::ExposureOptimal => "exposure-opt",
    }
}

/// Span name of a re-ranking call on `platform` (`market` or `search`).
pub fn rerank_name(platform: &str, i: Intervention) -> &'static str {
    match (platform, i) {
        ("market", Intervention::FaStarIr) => "mitigate.rerank.market.fa-star-ir",
        ("market", Intervention::DetGreedy) => "mitigate.rerank.market.det-greedy",
        ("market", Intervention::DetCons) => "mitigate.rerank.market.det-cons",
        ("market", Intervention::DetRelaxed) => "mitigate.rerank.market.det-relaxed",
        ("market", Intervention::ExposureOptimal) => "mitigate.rerank.market.exposure-opt",
        (_, Intervention::FaStarIr) => "mitigate.rerank.search.fa-star-ir",
        (_, Intervention::DetGreedy) => "mitigate.rerank.search.det-greedy",
        (_, Intervention::DetCons) => "mitigate.rerank.search.det-cons",
        (_, Intervention::DetRelaxed) => "mitigate.rerank.search.det-relaxed",
        (_, Intervention::ExposureOptimal) => "mitigate.rerank.search.exposure-opt",
    }
}

/// `marketplace::crawl`.
pub fn crawl(m: &Marketplace) -> (Universe, MarketObservations, CrawlStats) {
    let r = layer("marketplace.crawl", || fbox_marketplace::crawl(m));
    trace::count("marketplace.crawl.cells", r.2.n_queries as u64);
    r
}

/// `marketplace::attach_platform_scores`.
pub fn attach_scores(
    m: &Marketplace,
    u: &Universe,
    obs: &MarketObservations,
) -> MarketObservations {
    layer("marketplace.attach_scores", || fbox_marketplace::attach_platform_scores(m, u, obs))
}

/// `search::run_study`.
pub fn study(
    design: &StudyDesign,
    engine: &SearchEngine,
    runner: &ExtensionRunner,
) -> (Universe, SearchObservations, StudyStats) {
    let r = layer("search.study", || fbox_search::run_study(design, engine, runner));
    trace::count("search.study.requests", r.2.n_requests_lower_bound as u64);
    r
}

/// `FBox::from_market`.
pub fn from_market(u: &Universe, obs: &MarketObservations, measure: MarketMeasure) -> FBox {
    layer(market_build_name(measure), || FBox::from_market(u.clone(), obs, measure))
}

/// `FBox::from_search`.
pub fn from_search(u: &Universe, obs: &SearchObservations, measure: SearchMeasure) -> FBox {
    layer(search_build_name(measure), || FBox::from_search(u.clone(), obs, measure))
}

/// `FBox::from_cube`.
pub fn from_cube(u: Universe, cube: UnfairnessCube) -> FBox {
    layer("core.fbox.from_cube", || FBox::from_cube(u, cube))
}

/// `IndexSet::build`.
pub fn index_build(cube: &UnfairnessCube) -> IndexSet {
    layer("core.index.build", || IndexSet::build(cube))
}

/// `FBox::top_k`.
pub fn top_k(
    fb: &FBox,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    let r = layer("core.fbox.top_k", || fb.top_k(dim, k, order, restrict));
    trace::count("core.topk.cells", r.stats.cells_scanned);
    trace::count("core.topk.indexed_calls", u64::from(r.stats.sorted_accesses > 0));
    r
}

/// `FBox::compare`.
pub fn compare(
    fb: &FBox,
    r1: Entity,
    r2: Entity,
    breakdown: Dimension,
    subset: Option<&[u32]>,
    restrict: &Restriction,
) -> Option<ComparisonOutcome> {
    let r = layer("core.fbox.compare", || fb.compare(r1, r2, breakdown, subset, restrict));
    trace::count("core.compare.rows", r.as_ref().map_or(0, |o| o.rows.len() as u64));
    r
}

/// `algo::compare_sets` over the F-Box's indices: the paper's group-set
/// comparisons (Males vs Females), which `FBox` has no method for.
pub fn compare_sets(
    fb: &FBox,
    dim: Dimension,
    set1: &[u32],
    set2: &[u32],
    breakdown: Dimension,
    subset: Option<&[u32]>,
    restrict: &Restriction,
) -> Option<ComparisonOutcome> {
    let r = layer("core.algo.compare_sets", || {
        algo::compare_sets(fb.indices(), dim, set1, set2, breakdown, subset, restrict)
    });
    trace::count("core.compare.rows", r.as_ref().map_or(0, |o| o.rows.len() as u64));
    r
}

/// Which top-k algorithm [`algo_top_k`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `algo::top_k` (Algorithm 1, TA).
    Ta,
    /// `algo::nra_top_k`.
    Nra,
    /// `algo::naive_top_k`.
    Naive,
}

/// `algo::{top_k, nra_top_k, naive_top_k}`.
pub fn algo_top_k(
    fb: &FBox,
    which: Algo,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    match which {
        Algo::Ta => layer("core.algo.ta", || algo::top_k(fb.indices(), dim, k, order, restrict)),
        Algo::Nra => {
            layer("core.algo.nra", || algo::nra_top_k(fb.indices(), dim, k, order, restrict))
        }
        Algo::Naive => {
            layer("core.algo.naive", || algo::naive_top_k(fb.cube(), dim, k, order, restrict))
        }
    }
}

/// `rerank_market`.
pub fn rerank_market(
    u: &Universe,
    obs: &MarketObservations,
    i: Intervention,
    config: &RerankConfig,
) -> MarketRerank {
    layer(rerank_name("market", i), || fbox_mitigate::rerank_market(u, obs, i, config))
}

/// `rerank_search`.
pub fn rerank_search(
    u: &Universe,
    obs: &SearchObservations,
    i: Intervention,
    config: &RerankConfig,
) -> SearchRerank {
    layer(rerank_name("search", i), || fbox_mitigate::rerank_search(u, obs, i, config))
}

/// `EpochStore::ingest_market`.
pub fn ingest_market(
    store: &EpochStore,
    q: QueryId,
    l: LocationId,
    ranking: Option<&MarketRanking>,
    measure: MarketMeasure,
) {
    layer("store.ingest_market", || store.ingest_market(q, l, ranking, measure));
}

/// `EpochStore::publish`.
pub fn publish(store: &EpochStore) -> Arc<EpochSnapshot> {
    layer("store.publish", || store.publish())
}

/// `EpochStore::latest`.
pub fn latest(store: &EpochStore) -> Arc<EpochSnapshot> {
    layer("store.latest", || store.latest())
}

/// `crawl_durable_with_plan` under `plan`, with resilience off.
pub fn crawl_durable(
    m: &Marketplace,
    path: &Path,
    plan: StoragePlan,
) -> io::Result<fbox_store::Durable<CrawlRun>> {
    layer("store.crawl_durable", || {
        fbox_store::crawl_durable_with_plan(m, &Resilience::none(), path, plan)
    })
}

/// `SegmentLog::open` under `plan`.
pub fn segment_open(
    path: &Path,
    plan: StoragePlan,
) -> io::Result<(SegmentLog, Vec<Vec<u8>>, ReplayStats)> {
    layer("store.segment.open", || SegmentLog::open_with_plan(path, plan))
}

/// `SegmentLog::append`.
pub fn segment_append(log: &mut SegmentLog, payload: &[u8]) -> io::Result<fbox_store::Append> {
    layer("store.segment.append", || log.append(payload))
}

/// `CubeSnapshot::save`.
pub fn snapshot_save(snap: &CubeSnapshot, path: &Path) -> io::Result<()> {
    layer("store.snapshot.save", || snap.save(path))
}

/// `CubeSnapshot::load`.
pub fn snapshot_load(path: &Path) -> io::Result<CubeSnapshot> {
    layer("store.snapshot.load", || CubeSnapshot::load(path))
}
