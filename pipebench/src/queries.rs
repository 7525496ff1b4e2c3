//! The auditor's query mix and its oracles.
//!
//! The questions are the ones the repository's reproduction of the paper
//! asks (`crates/repro/src/experiments`): the quantification rankings of
//! §5.2 (Tables 8–11 and the narrative extremes) and of the §6 hypothesis
//! transfer, and the comparisons of Tables 12–21. Their shapes are kept;
//! the entities the paper names (a
//! city, a category, two queries, two cities, two sets of groups) are
//! drawn from the seed. Every answer is checked outside the timed call:
//! top-k against `naive_top_k` over the same cube, comparisons against a
//! direct recomputation from cube cells.

use crate::calls;
use crate::rng::Rng;
use fbox_core::algo::{naive_top_k, ComparisonOutcome, Entity, RankOrder, Restriction};
use fbox_core::{Dimension, FBox, GroupId, LocationId, QueryId, UnfairnessCube, Universe};
use std::collections::HashSet;
use std::time::Instant;

/// One question.
#[derive(Debug, Clone)]
pub enum Query {
    /// Problem 1: the `k` most or least unfair entities of `dim`.
    TopK {
        /// Ranked dimension.
        dim: Dimension,
        /// Answer size.
        k: usize,
        /// Most or least unfair first.
        order: RankOrder,
        /// Optional subsets of the dimensions.
        restrict: Restriction,
    },
    /// Problem 2: the entities `r1` versus the entities `r2` of `dim`,
    /// broken down by `breakdown`. One entity a side is `FBox::compare`;
    /// more are pooled, as `algo::compare_sets` does.
    Compare {
        /// Compared dimension.
        dim: Dimension,
        /// First side.
        r1: Vec<u32>,
        /// Second side, disjoint from the first.
        r2: Vec<u32>,
        /// Breakdown dimension.
        breakdown: Dimension,
        /// Optional subset of breakdown entities.
        subset: Option<Vec<u32>>,
    },
}

/// An answer, comparable against its oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Ranked `(entity, value)` pairs.
    TopK(Vec<(u32, f64)>),
    /// The comparison outcome, `None` when either side has no cells.
    Compare(Option<ComparisonOutcome>),
}

/// Which platform's questions a mix asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// TaskRabbit (`taskrabbit_quant.rs`, `taskrabbit_compare.rs`).
    Market,
    /// Google job search (`google_quant.rs`, `google_compare.rs`).
    Search,
}

/// One platform's questions, asked of each of its F-Boxes.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Top-k questions.
    pub top_k: Vec<Query>,
    /// Comparisons.
    pub compare: Vec<Query>,
}

const DIMS: [Dimension; 3] = [Dimension::Group, Dimension::Query, Dimension::Location];

fn dim_len(u: &Universe, dim: Dimension) -> usize {
    match dim {
        Dimension::Group => u.n_groups(),
        Dimension::Query => u.n_queries(),
        Dimension::Location => u.n_locations(),
    }
}

fn entity(dim: Dimension, id: u32) -> Entity {
    match dim {
        Dimension::Group => Entity::Group(GroupId(id)),
        Dimension::Query => Entity::Query(QueryId(id)),
        Dimension::Location => Entity::Location(LocationId(id)),
    }
}

/// The universe's query categories, in order of first appearance.
fn categories(u: &Universe) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for q in u.query_ids() {
        if let Some(c) = &u.query(q).category {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
    }
    out
}

fn category_queries(u: &Universe, category: &str) -> Vec<u32> {
    u.queries_in_category(category).iter().map(|q| q.0).collect()
}

fn top_k(dim: Dimension, k: usize, order: RankOrder, restrict: Restriction) -> Query {
    Query::TopK { dim, k, order, restrict }
}

/// `util::category_ranking`'s question for one category, optionally in
/// one city (`location_job_extremes`).
fn category_ranking(u: &Universe, category: &str, city: Option<u32>) -> Query {
    let qs = category_queries(u, category);
    let restrict = Restriction {
        queries: Some(qs.clone()),
        locations: city.map(|l| vec![l]),
        ..Default::default()
    };
    top_k(Dimension::Query, qs.len(), RankOrder::MostUnfair, restrict)
}

/// One pass over a platform's quantification questions, with the paper's
/// named entities drawn from `rng`.
///
/// TaskRabbit (`taskrabbit_quant.rs`): all groups ranked (Table 8); each
/// category's queries ranked (Table 9); the ten most and ten least unfair
/// cities (Tables 10–11); for two categories, the fairest city and the
/// three unfairest (paper: Handyman, Run Errands); for three cities,
/// each category's queries ranked in that city (paper: Birmingham,
/// Detroit, Nashville). Google (`google_quant.rs`): all groups and all
/// locations ranked, and each category's queries ranked.
///
/// Both, §6 (`hypotheses.rs`): extremes found on TaskRabbit are checked
/// on Google. Finding them ranks TaskRabbit's groups once more and each
/// category the platforms share; checking the three group and two
/// category hypotheses ranks Google's groups three times and its
/// categories twice.
fn quantification(u: &Universe, platform: Platform, rng: &mut Rng) -> Vec<Query> {
    let cats = categories(u);
    let groups =
        || top_k(Dimension::Group, u.n_groups(), RankOrder::MostUnfair, Restriction::none());
    let mut out = vec![groups()];
    if platform == Platform::Search {
        out.push(top_k(
            Dimension::Location,
            u.n_locations(),
            RankOrder::MostUnfair,
            Restriction::none(),
        ));
    }
    out.extend(cats.iter().map(|c| category_ranking(u, c, None)));
    if platform == Platform::Market {
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            out.push(top_k(Dimension::Location, 10, order, Restriction::none()));
        }
        for c in rng.subset(cats.len(), 2) {
            let restrict = Restriction {
                queries: Some(category_queries(u, &cats[c as usize])),
                ..Default::default()
            };
            out.push(top_k(Dimension::Location, 1, RankOrder::LeastUnfair, restrict.clone()));
            out.push(top_k(Dimension::Location, 3, RankOrder::MostUnfair, restrict));
        }
        for l in rng.subset(u.n_locations(), 3) {
            out.extend(cats.iter().map(|c| category_ranking(u, c, Some(l))));
        }
    }
    let shared: Vec<&String> =
        cats.iter().filter(|c| fbox_search::QUERIES.iter().any(|&(_, g)| g == *c)).collect();
    let (group_rankings, category_rankings) = match platform {
        Platform::Market => (1, 1),
        Platform::Search => (3, 2),
    };
    for _ in 0..group_rankings {
        out.push(groups());
    }
    for _ in 0..category_rankings {
        out.extend(shared.iter().map(|c| category_ranking(u, c, None)));
    }
    out
}

/// The full groups (one value for every attribute) whose value of
/// attribute `attr` is `value`.
fn full_groups_with(u: &Universe, attr: u16, value: u16) -> Vec<u32> {
    let arity = u.schema().attributes().len();
    u.group_ids()
        .filter(|&g| {
            let label = u.group(g);
            label.arity() == arity
                && label.value_of(fbox_core::model::AttrId(attr))
                    == Some(fbox_core::model::ValueId(value))
        })
        .map(|g| g.0)
        .collect()
}

/// The single-attribute groups of the attribute named `name`.
fn single_groups_of(u: &Universe, name: &str) -> Vec<u32> {
    let schema = u.schema();
    u.group_ids()
        .filter(|&g| {
            let p = u.group(g).predicates();
            p.len() == 1 && schema.attribute(p[0].0).name() == name
        })
        .map(|g| g.0)
        .collect()
}

/// One pass over the paper's three comparison shapes (Tables 12–21 ask
/// each of them of each platform), with the named entities drawn from
/// `rng`:
/// - two sets of full groups, split on one attribute, broken down by
///   location (Tables 12, 16, 17: Males vs Females);
/// - two queries broken down by the ethnicity groups (Tables 13, 14, 18,
///   19: Lawn Mowing vs Event Decorating, run errand vs general cleaning);
/// - two cities broken down by one category's queries (Tables 15, 20, 21:
///   San Francisco vs Chicago, Boston vs Bristol, over General Cleaning).
fn comparisons(u: &Universe, rng: &mut Rng) -> Vec<Query> {
    let attrs = u.schema().attributes();
    let a = rng.below(attrs.len());
    let v = rng.subset(attrs[a].values().len(), 2);
    let sets = Query::Compare {
        dim: Dimension::Group,
        r1: full_groups_with(u, a as u16, v[0] as u16),
        r2: full_groups_with(u, a as u16, v[1] as u16),
        breakdown: Dimension::Location,
        subset: None,
    };
    let q = rng.subset(u.n_queries(), 2);
    let queries = Query::Compare {
        dim: Dimension::Query,
        r1: vec![q[0]],
        r2: vec![q[1]],
        breakdown: Dimension::Group,
        subset: Some(single_groups_of(u, "ethnicity")),
    };
    let cats = categories(u);
    let l = rng.subset(u.n_locations(), 2);
    let c = rng.below(cats.len());
    let cities = Query::Compare {
        dim: Dimension::Location,
        r1: vec![l[0]],
        r2: vec![l[1]],
        breakdown: Dimension::Query,
        subset: Some(category_queries(u, &cats[c])),
    };
    vec![sets, queries, cities]
}

/// At least `n` top-k questions and `n` comparisons of `platform` over
/// `u`: whole passes over the platform's questions, each pass with fresh
/// entities from `rng`. The shapes thus keep the proportions in which the
/// reproduction asks them; only the entities change with the seed.
pub fn generate(u: &Universe, platform: Platform, rng: &mut Rng, n: usize) -> Mix {
    let mut mix = Mix { top_k: Vec::new(), compare: Vec::new() };
    while mix.top_k.len() < n {
        mix.top_k.extend(quantification(u, platform, rng));
    }
    while mix.compare.len() < n {
        mix.compare.extend(comparisons(u, rng));
    }
    mix
}

/// Asks `q` through the F-Box's public API; returns the answer and the
/// call's wall time in ns.
pub fn ask(fb: &FBox, q: &Query) -> (Answer, u64) {
    let none = Restriction::none();
    let start = Instant::now();
    let answer = match q {
        Query::TopK { dim, k, order, restrict } => {
            Answer::TopK(calls::top_k(fb, *dim, *k, *order, restrict).entries)
        }
        Query::Compare { dim, r1, r2, breakdown, subset } => {
            Answer::Compare(if r1.len() == 1 && r2.len() == 1 {
                calls::compare(
                    fb,
                    entity(*dim, r1[0]),
                    entity(*dim, r2[0]),
                    *breakdown,
                    subset.as_deref(),
                    &none,
                )
            } else {
                calls::compare_sets(fb, *dim, r1, r2, *breakdown, subset.as_deref(), &none)
            })
        }
    };
    (answer, start.elapsed().as_nanos() as u64)
}

/// The oracle answer for `q` over `fb`'s cube: for top-k, the naive scan's
/// ranking of every entity of the dimension (which [`agrees`] cuts at
/// `k`), so tied entities past the cut-off are known too.
pub fn oracle(fb: &FBox, q: &Query) -> Answer {
    match q {
        Query::TopK { dim, order, restrict, .. } => {
            let all = dim_len(fb.universe(), *dim);
            Answer::TopK(naive_top_k(fb.cube(), *dim, all, *order, restrict).entries)
        }
        Query::Compare { dim, r1, r2, breakdown, subset } => Answer::Compare(compare_from_cells(
            fb.cube(),
            *dim,
            r1,
            r2,
            *breakdown,
            subset.as_deref(),
        )),
    }
}

fn cell(
    cube: &UnfairnessCube,
    cmp: Dimension,
    c: u32,
    bd: Dimension,
    b: u32,
    a: u32,
) -> Option<f64> {
    use Dimension::*;
    let (g, q, l) = match (cmp, bd) {
        (Group, Query) => (c, b, a),
        (Group, Location) => (c, a, b),
        (Query, Group) => (b, c, a),
        (Query, Location) => (a, c, b),
        (Location, Group) => (b, a, c),
        (Location, Query) => (a, b, c),
        _ => unreachable!("breakdown differs from the compared dimension"),
    };
    cube.get(GroupId(g), QueryId(q), LocationId(l))
}

/// Comparison recomputed directly from cube cells: per breakdown entity,
/// each side's mean over its entities and the remaining dimension, and
/// the overall means.
fn compare_from_cells(
    cube: &UnfairnessCube,
    cmp: Dimension,
    r1: &[u32],
    r2: &[u32],
    breakdown: Dimension,
    subset: Option<&[u32]>,
) -> Option<ComparisonOutcome> {
    let len = |d: Dimension| match d {
        Dimension::Group => cube.n_groups(),
        Dimension::Query => cube.n_queries(),
        Dimension::Location => cube.n_locations(),
    };
    let agg = DIMS.into_iter().find(|&d| d != cmp && d != breakdown)?;
    let b_ids: Vec<u32> =
        subset.map_or_else(|| (0..len(breakdown) as u32).collect(), <[u32]>::to_vec);
    let side = |set: &[u32], b: u32, a: u32, s: &mut f64, c: &mut usize| {
        for &r in set {
            if let Some(v) = cell(cube, cmp, r, breakdown, b, a) {
                *s += v;
                *c += 1;
            }
        }
    };
    let mut rows = Vec::new();
    let (mut sum1, mut n1, mut sum2, mut n2) = (0.0, 0usize, 0.0, 0usize);
    for &b in &b_ids {
        let (mut s1, mut c1, mut s2, mut c2) = (0.0, 0usize, 0.0, 0usize);
        for a in 0..len(agg) as u32 {
            side(r1, b, a, &mut s1, &mut c1);
            side(r2, b, a, &mut s2, &mut c2);
        }
        sum1 += s1;
        n1 += c1;
        sum2 += s2;
        n2 += c2;
        if c1 > 0 && c2 > 0 {
            rows.push(fbox_core::algo::BreakdownRow {
                entity: b,
                d1: s1 / c1 as f64,
                d2: s2 / c2 as f64,
                reversed: false,
            });
        }
    }
    if n1 == 0 || n2 == 0 {
        return None;
    }
    let (overall1, overall2) = (sum1 / n1 as f64, sum2 / n2 as f64);
    let overall = overall1.total_cmp(&overall2);
    for row in &mut rows {
        row.reversed = row.d1.total_cmp(&row.d2) != overall;
    }
    Some(ComparisonOutcome { overall1, overall2, rows })
}

/// Whether `got`, the answer to `q`, agrees with the oracle's `want`.
///
/// A top-k answer must have `min(k, ranked)` entries; the value at each
/// position must match the oracle's value there to 1e-9 (the algorithms
/// sum in different orders); every returned entity must hold that value
/// in the oracle's full ranking, and no entity may appear twice. So
/// within a group of tied values, including one cut by `k`, any member
/// may stand for another, but no other entity may. Comparisons must be
/// bit-equal: both sum the same cells in the same order.
pub fn agrees(q: &Query, got: &Answer, want: &Answer) -> bool {
    match (q, got, want) {
        (Query::TopK { k, .. }, Answer::TopK(g), Answer::TopK(full)) => {
            let tie = |a: f64, b: f64| (a - b).abs() < 1e-9;
            let holds = |id: u32, v: f64| full.iter().any(|&(e, t)| e == id && tie(t, v));
            let mut seen = HashSet::new();
            g.len() == (*k).min(full.len())
                && g.iter()
                    .zip(full)
                    .all(|(&(id, v), &(_, w))| tie(v, w) && holds(id, v) && seen.insert(id))
        }
        (Query::Compare { .. }, Answer::Compare(g), Answer::Compare(w)) => g == w,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_may_swap_ids_but_values_must_match() {
        let q = top_k(Dimension::Group, 3, RankOrder::MostUnfair, Restriction::none());
        let want = Answer::TopK(vec![(3, 0.5), (1, 0.4), (2, 0.2), (0, 0.2), (4, 0.1)]);
        let ok = |got: Vec<(u32, f64)>| agrees(&q, &Answer::TopK(got), &want);
        assert!(ok(vec![(3, 0.5), (1, 0.4), (2, 0.2)]));
        // Entity 0 ties entity 2 at the cut-off and is outside the answer.
        assert!(ok(vec![(3, 0.5), (1, 0.4), (0, 0.2)]));
        // A wrong id with the value the oracle has at that position.
        assert!(!ok(vec![(3, 0.5), (0, 0.4), (2, 0.2)]));
        assert!(!ok(vec![(3, 0.5), (1, 0.4), (4, 0.2)]));
        // Tied values, but the same id twice.
        let tied = Answer::TopK(vec![(3, 0.5), (1, 0.2), (2, 0.2)]);
        assert!(!agrees(&q, &Answer::TopK(vec![(3, 0.5), (1, 0.2), (1, 0.2)]), &tied));
        assert!(agrees(&q, &Answer::TopK(vec![(3, 0.5), (2, 0.2), (1, 0.2)]), &tied));
        // Wrong value, or too few entries.
        assert!(!ok(vec![(3, 0.5), (1, 0.41), (2, 0.2)]));
        assert!(!ok(vec![(3, 0.5), (1, 0.4)]));
    }

    #[test]
    fn mixes_keep_the_reproductions_shapes() {
        let u = fbox_search::google_universe();
        let mix = generate(&u, Platform::Search, &mut Rng::new(7, 0x51), 64);
        let n_cats = categories(&u).len();
        // A pass: all groups, all locations, each category's queries, and
        // the §6 checks: groups three times, every category twice.
        assert_eq!(mix.top_k.len() % (5 + 3 * n_cats), 0);
        let shape = |q: &Query| match q {
            Query::Compare { dim, r1, breakdown, .. } => (*dim, r1.len() > 1, *breakdown),
            Query::TopK { .. } => unreachable!("a comparison"),
        };
        for pass in mix.compare.chunks(3) {
            assert_eq!(shape(&pass[0]), (Dimension::Group, true, Dimension::Location));
            assert_eq!(shape(&pass[1]), (Dimension::Query, false, Dimension::Group));
            assert_eq!(shape(&pass[2]), (Dimension::Location, false, Dimension::Query));
        }
    }
}
