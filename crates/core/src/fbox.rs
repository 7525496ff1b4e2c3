//! The F-Box: the end-to-end pipeline of the paper's Figure 6/9 —
//! observations in, unfairness answers out.
//!
//! An [`FBox`] owns a [`Universe`] and an [`IndexSet`]: the
//! [`UnfairnessCube`] computed from a platform's observations together
//! with the three index families pre-built over it, and
//! exposes the two problems of §4: [quantification](FBox::top_k) and
//! [comparison](FBox::compare).

use crate::algo::{self, RankOrder, Restriction, TopKResult};
use crate::cube::UnfairnessCube;
use crate::index::{Dimension, IndexSet};
use crate::model::{GroupId, LocationId, QueryId, Universe};
use crate::observations::{MarketObservations, MarketRanking, SearchObservations, UserList};
use crate::unfairness::{
    market_cell_unfairness, search_cell_unfairness, MarketCellEval, MarketMeasure, MeasureContext,
    SearchCellEval, SearchMeasure,
};

/// The assembled fairness framework for one study.
#[derive(Debug, Clone)]
pub struct FBox {
    universe: Universe,
    indices: IndexSet,
}

impl FBox {
    /// Builds the F-Box from search-engine observations (Google-style:
    /// per-user ranked lists), computing `d⟨g,q,l⟩` by Eq. 1 for every
    /// registered group at every observed `(q, l)` cell.
    ///
    /// The `(q, l)` cells are partitioned across [`fbox_par`] workers
    /// (`FBOX_THREADS`, default: available parallelism); each worker
    /// evaluates all groups of its cells through a shared-work
    /// [`SearchCellEval`] and the per-worker shards are merged in
    /// deterministic cell order, so the cube is byte-identical to
    /// [`from_search_serial`](Self::from_search_serial) at any thread
    /// count.
    pub fn from_search(
        universe: Universe,
        observations: &SearchObservations,
        measure: SearchMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span!("fbox.from_search");
        let _trace = fbox_trace::span("fbox.from_search");
        // Telemetry is armed once, before the fan-out, and shared by
        // reference: a `FBOX_TELEMETRY` toggle mid-build cannot leave some
        // shards counted and others not.
        let cells = CellTelemetry::new("search", measure.label());
        let mut cell_data: Vec<((QueryId, LocationId), &[UserList])> =
            observations.cells().collect();
        cell_data.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
        let cube = {
            let ctx = MeasureContext::new(&universe);
            let shards = fbox_par::par_map(&cell_data, |&((q, l), lists)| {
                let _cell = cell_span(q, l, "search", measure.label());
                let mut eval = SearchCellEval::new(&ctx, lists, measure);
                evaluate_cell_groups(&ctx, &cells, |g| eval.group(g))
            });
            merge_shards(&universe, &cell_data, shards)
        };
        cells.finish_cube(&cube);
        Self::from_cube(universe, cube)
    }

    /// Reference implementation of [`from_search`](Self::from_search): the
    /// serial per-`(cell, group)` double loop over
    /// [`search_cell_unfairness`], with no cross-group work sharing. Kept
    /// as the correctness oracle the parallel build is tested bit-for-bit
    /// against, and as the baseline of `fbox-bench`'s `BENCH_parallel`
    /// comparison.
    pub fn from_search_serial(
        universe: Universe,
        observations: &SearchObservations,
        measure: SearchMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span!("fbox.from_search");
        let _trace = fbox_trace::span("fbox.from_search");
        let cells = CellTelemetry::new("search", measure.label());
        let mut cube = UnfairnessCube::empty(&universe);
        for ((q, l), lists) in observations.cells() {
            let _cell = cell_span(q, l, "search", measure.label());
            for g in universe.group_ids() {
                let start = cells.start();
                let v = search_cell_unfairness(&universe, lists, g, measure);
                cells.finish(start, v.is_some());
                cube.set_opt(g, q, l, v);
            }
        }
        cells.finish_cube(&cube);
        Self::from_cube(universe, cube)
    }

    /// Builds the F-Box from marketplace observations (TaskRabbit-style:
    /// ranked workers), computing `d⟨g,q,l⟩` by Eq. 2 (EMD) or §3.3.2
    /// (exposure) for every registered group at every observed cell.
    ///
    /// Parallel like [`from_search`](Self::from_search): cells are
    /// sharded across `FBOX_THREADS` workers (each using a shared-work
    /// [`MarketCellEval`]) and merged deterministically, byte-identical
    /// to [`from_market_serial`](Self::from_market_serial).
    pub fn from_market(
        universe: Universe,
        observations: &MarketObservations,
        measure: MarketMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span!("fbox.from_market");
        let _trace = fbox_trace::span("fbox.from_market");
        let cells = CellTelemetry::new("market", measure.label());
        let mut cell_data: Vec<((QueryId, LocationId), &MarketRanking)> =
            observations.cells().collect();
        cell_data.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
        let cube = {
            let ctx = MeasureContext::new(&universe);
            let shards = fbox_par::par_map(&cell_data, |&((q, l), ranking)| {
                let _cell = cell_span(q, l, "market", measure.label());
                let mut eval = MarketCellEval::new(&ctx, ranking, measure);
                evaluate_cell_groups(&ctx, &cells, |g| eval.group(g))
            });
            merge_shards(&universe, &cell_data, shards)
        };
        cells.finish_cube(&cube);
        Self::from_cube(universe, cube)
    }

    /// Reference implementation of [`from_market`](Self::from_market) —
    /// see [`from_search_serial`](Self::from_search_serial).
    pub fn from_market_serial(
        universe: Universe,
        observations: &MarketObservations,
        measure: MarketMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span!("fbox.from_market");
        let _trace = fbox_trace::span("fbox.from_market");
        let cells = CellTelemetry::new("market", measure.label());
        let mut cube = UnfairnessCube::empty(&universe);
        for ((q, l), ranking) in observations.cells() {
            let _cell = cell_span(q, l, "market", measure.label());
            for g in universe.group_ids() {
                let start = cells.start();
                let v = market_cell_unfairness(&universe, ranking, g, measure);
                cells.finish(start, v.is_some());
                cube.set_opt(g, q, l, v);
            }
        }
        cells.finish_cube(&cube);
        Self::from_cube(universe, cube)
    }

    /// Builds the F-Box from a pre-computed cube (e.g. deserialized from a
    /// previous run, or produced by a custom measure). The cube moves into
    /// the index, uncopied.
    ///
    /// # Panics
    ///
    /// Panics if the cube's dimensions do not match the universe's.
    pub fn from_cube(universe: Universe, cube: UnfairnessCube) -> Self {
        assert_eq!(cube.n_groups(), universe.n_groups(), "cube/universe group count mismatch");
        assert_eq!(cube.n_queries(), universe.n_queries(), "cube/universe query count mismatch");
        assert_eq!(
            cube.n_locations(),
            universe.n_locations(),
            "cube/universe location count mismatch"
        );
        Self { universe, indices: IndexSet::from_cube(cube) }
    }

    /// An F-Box over an empty cube: the starting point of incremental
    /// ingestion (`fbox-store`), where cells arrive one at a time through
    /// [`update_market_cell`](Self::update_market_cell) /
    /// [`update_search_cell`](Self::update_search_cell).
    pub fn empty(universe: Universe) -> Self {
        let cube = UnfairnessCube::empty(&universe);
        Self::from_cube(universe, cube)
    }

    /// Re-derives cell `(q, l)` from a marketplace ranking (or clears it
    /// with `None`) and delta-updates the affected cube slots and index
    /// entries in place.
    ///
    /// This is the incremental counterpart of
    /// [`from_market`](Self::from_market): because each cell's measures
    /// depend only on that cell's observations, and
    /// [`IndexSet::update_cell`] reproduces the total list order exactly,
    /// streaming cells through this method yields an F-Box bit-identical
    /// to a from-scratch build over the same observations — in any arrival
    /// order, at any `FBOX_THREADS`.
    pub fn update_market_cell(
        &mut self,
        q: QueryId,
        l: LocationId,
        ranking: Option<&MarketRanking>,
        measure: MarketMeasure,
    ) {
        let _cell = cell_span(q, l, "market", measure.label());
        let universe = &self.universe;
        self.indices.update_cell(q, l, |g| {
            ranking.and_then(|r| market_cell_unfairness(universe, r, g, measure))
        });
    }

    /// Re-derives cell `(q, l)` from search-engine user lists (an empty
    /// slice clears it) and delta-updates cube and indices in place — the
    /// incremental counterpart of [`from_search`](Self::from_search); see
    /// [`update_market_cell`](Self::update_market_cell).
    pub fn update_search_cell(
        &mut self,
        q: QueryId,
        l: LocationId,
        lists: &[UserList],
        measure: SearchMeasure,
    ) {
        let _cell = cell_span(q, l, "search", measure.label());
        let universe = &self.universe;
        self.indices.update_cell(q, l, |g| {
            if lists.is_empty() {
                None
            } else {
                search_cell_unfairness(universe, lists, g, measure)
            }
        });
    }

    /// The study universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The unfairness cube (owned by the indices).
    pub fn cube(&self) -> &UnfairnessCube {
        self.indices.cube()
    }

    /// The pre-built indices.
    pub fn indices(&self) -> &IndexSet {
        &self.indices
    }

    /// One cell: `d⟨g,q,l⟩`.
    pub fn unfairness(&self, g: GroupId, q: QueryId, l: LocationId) -> Option<f64> {
        self.cube().get(g, q, l)
    }

    /// Problem 1 over any dimension. Uses the threshold algorithm when the
    /// cube is complete and the naive scan otherwise. (The TA and NRA both
    /// handle incomplete cubes directly these days with subset-average
    /// bounds; the naive scan is kept here because on the sparse tail of a
    /// degraded cube its single pass is the cheaper plan, and it pins this
    /// method's historical output bytes.)
    pub fn top_k(
        &self,
        dim: Dimension,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> TopKResult {
        let _span = fbox_telemetry::span!("fbox.top_k");
        if self.indices.is_complete() {
            algo::top_k(&self.indices, dim, k, order, restrict)
        } else {
            algo::naive_top_k(self.cube(), dim, k, order, restrict)
        }
    }

    /// Group-fairness instance: the `k` most/least unfair groups, with
    /// resolved names.
    pub fn top_k_groups(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Group, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.group_name(GroupId(id)), v))
            .collect()
    }

    /// Query-fairness instance: the `k` most/least unfair queries, with
    /// resolved names.
    pub fn top_k_queries(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Query, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.query(QueryId(id)).name.clone(), v))
            .collect()
    }

    /// Location-fairness instance: the `k` most/least unfair locations,
    /// with resolved names.
    pub fn top_k_locations(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Location, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.location(LocationId(id)).name.clone(), v))
            .collect()
    }

    /// Problem 2: fairness comparison. See [`algo::compare`].
    pub fn compare(
        &self,
        r1: algo::Entity,
        r2: algo::Entity,
        breakdown: Dimension,
        breakdown_subset: Option<&[u32]>,
        restrict: &Restriction,
    ) -> Option<algo::ComparisonOutcome> {
        algo::compare(&self.indices, r1, r2, breakdown, breakdown_subset, restrict)
    }

    /// Resolves a breakdown entity id to a display name.
    pub fn entity_name(&self, dim: Dimension, id: u32) -> String {
        match dim {
            Dimension::Group => self.universe.group_name(GroupId(id)),
            Dimension::Query => self.universe.query(QueryId(id)).name.clone(),
            Dimension::Location => self.universe.location(LocationId(id)).name.clone(),
        }
    }
}

/// Opens the per-cell trace span of the cube build loops. Inside the
/// parallel builds it runs under the worker's `par.task` span, so the
/// trace tree reads build → task → cell regardless of thread count.
fn cell_span(
    q: QueryId,
    l: LocationId,
    platform: &'static str,
    measure_label: &str,
) -> fbox_trace::SpanGuard {
    fbox_trace::span_args("cube.cell", |a| {
        a.u64("q", u64::from(q.0));
        a.u64("l", u64::from(l.0));
        a.str("platform", platform);
        a.str("measure", measure_label);
    })
}

/// Evaluates every group of one `(q, l)` cell through a shared-work
/// evaluator, with per-group telemetry, returning the cell's values in
/// group-id order. Runs inside a [`fbox_par`] worker.
fn evaluate_cell_groups(
    ctx: &MeasureContext<'_>,
    cells: &CellTelemetry,
    mut eval_group: impl FnMut(GroupId) -> Option<f64>,
) -> Vec<Option<f64>> {
    ctx.universe()
        .group_ids()
        .map(|g| {
            let start = cells.start();
            let v = eval_group(g);
            cells.finish(start, v.is_some());
            v
        })
        .collect()
}

/// Merges per-cell value shards (one `Vec<Option<f64>>` per cell, group-id
/// order, aligned with `cell_data`) into a fresh cube. Each `(g, q, l)`
/// slot is written exactly once, so the result is independent of the order
/// workers produced the shards in.
fn merge_shards<T>(
    universe: &Universe,
    cell_data: &[((QueryId, LocationId), T)],
    shards: Vec<Vec<Option<f64>>>,
) -> UnfairnessCube {
    let mut cube = UnfairnessCube::empty(universe);
    for (&((q, l), _), shard) in cell_data.iter().zip(shards) {
        for (g, v) in universe.group_ids().zip(shard) {
            cube.set_opt(g, q, l, v);
        }
    }
    cube
}

/// Per-cell instrumentation for the cube build loops: counts computed vs
/// empty cells into `cube.cells_computed` / `cube.cells_empty`, times each
/// measure evaluation into `measure.<platform>.<label>`, and reports cells
/// never visited (unobserved (q, l) pairs) into `cube.cells_unobserved`.
/// Inert — no clock reads, no atomics — while telemetry is disabled.
///
/// `Sync`: one instance is constructed before the parallel fan-out and
/// shared by reference across the build workers, so the visited counter is
/// an [`AtomicU64`](std::sync::atomic::AtomicU64).
struct CellTelemetry {
    active: Option<CellTelemetryInner>,
}

struct CellTelemetryInner {
    computed: fbox_telemetry::Counter,
    empty: fbox_telemetry::Counter,
    unobserved: fbox_telemetry::Counter,
    timings: fbox_telemetry::Histogram,
    visited: std::sync::atomic::AtomicU64,
}

impl CellTelemetry {
    fn new(platform: &str, measure_label: &str) -> Self {
        let t = fbox_telemetry::global();
        if !t.enabled() {
            return Self { active: None };
        }
        Self {
            active: Some(CellTelemetryInner {
                computed: t.counter("cube.cells_computed"),
                empty: t.counter("cube.cells_empty"),
                unobserved: t.counter("cube.cells_unobserved"),
                timings: t.histogram(&format!("measure.{platform}.{measure_label}")),
                visited: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    fn start(&self) -> Option<fbox_telemetry::HistogramTimer> {
        self.active.as_ref().map(|inner| inner.timings.timer())
    }

    #[inline]
    fn finish(&self, timer: Option<fbox_telemetry::HistogramTimer>, computed: bool) {
        let (Some(inner), Some(timer)) = (self.active.as_ref(), timer) else {
            return;
        };
        timer.observe();
        if computed {
            inner.computed.inc();
        } else {
            inner.empty.inc();
        }
        inner.visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn finish_cube(&self, cube: &UnfairnessCube) {
        if let Some(inner) = self.active.as_ref() {
            let total = (cube.n_groups() * cube.n_queries() * cube.n_locations()) as u64;
            let visited = inner.visited.load(std::sync::atomic::Ordering::Acquire);
            inner.unobserved.add(total.saturating_sub(visited));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_toy;
    use crate::unfairness::MarketMeasure;

    fn toy_fbox() -> FBox {
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q, l, ranking);
        FBox::from_market(universe, &obs, MarketMeasure::exposure())
    }

    #[test]
    fn build_from_market_toy() {
        let fb = toy_fbox();
        let bf = fb.universe().group_id_by_text("gender=Female & ethnicity=Black").unwrap();
        let d = fb.unfairness(bf, QueryId(0), LocationId(0)).expect("black females have a value");
        assert!((d - 0.04).abs() < 0.005, "Figure 5 value, got {d}");
    }

    #[test]
    fn top_k_falls_back_to_naive_on_incomplete() {
        // The plan shows in the stats: TA makes sorted accesses, the naive
        // scan only random ones.
        let sorted_accesses = |fb: &FBox| {
            let r = fb.top_k(Dimension::Group, 3, RankOrder::MostUnfair, &Restriction::none());
            assert_eq!(r.entries.len(), 3);
            r.stats.sorted_accesses
        };
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q0 = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let q1 = universe.add_query("Yard Work", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q0, l, ranking.clone());
        obs.insert(q1, l, ranking);
        let measure = MarketMeasure::exposure();
        let mut fb = FBox::from_market(universe, &obs, measure);
        assert!(fb.cube().is_complete());
        assert!(sorted_accesses(&fb) > 0);

        // A hole poked through `from_cube`...
        let mut cube = fb.cube().clone();
        cube.set_opt(GroupId(0), q0, l, None);
        let holed = FBox::from_cube(fb.universe().clone(), cube);
        assert_eq!(sorted_accesses(&holed), 0);

        // ...and one cleared, then refilled, incrementally.
        fb.update_market_cell(q1, l, None, measure);
        assert!(!fb.indices().is_complete());
        assert_eq!(sorted_accesses(&fb), 0);
        fb.update_market_cell(q1, l, obs.get(q1, l), measure);
        assert!(fb.indices().is_complete());
        assert!(sorted_accesses(&fb) > 0);
    }

    #[test]
    fn named_accessors_resolve() {
        let fb = toy_fbox();
        assert_eq!(fb.entity_name(Dimension::Query, 0), "Home Cleaning");
        assert_eq!(fb.entity_name(Dimension::Location, 0), "San Francisco, CA");
        let locations = fb.top_k_locations(1, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(locations[0].0, "San Francisco, CA");
    }

    #[test]
    fn incremental_market_cells_match_batch_build() {
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q0 = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let q1 = universe.add_query("Yard Work", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q0, l, ranking.clone());
        obs.insert(q1, l, ranking);
        let batch = FBox::from_market(universe.clone(), &obs, MarketMeasure::exposure());

        let mut inc = FBox::empty(universe);
        // Arrival order deliberately differs from grid order.
        for (q, l) in [(q1, l), (q0, l)] {
            inc.update_market_cell(q, l, obs.get(q, l), MarketMeasure::exposure());
        }
        let a: Vec<Option<u64>> =
            inc.cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();
        let b: Vec<Option<u64>> =
            batch.cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();
        assert_eq!(a, b, "incremental cube must be bit-equal to the batch build");
        assert_eq!(inc.indices().is_complete(), batch.indices().is_complete());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_cube_checks_dims() {
        let fb = toy_fbox();
        let wrong = UnfairnessCube::with_dims(1, 1, 1);
        FBox::from_cube(fb.universe().clone(), wrong);
    }
}
