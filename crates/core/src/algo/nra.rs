//! No-Random-Access (NRA) top-k — the second classic algorithm of Fagin,
//! Lotem & Naor's "Optimal aggregation algorithms for middleware" (the
//! paper's reference \[10\]).
//!
//! Where the Threshold Algorithm completes every newly seen entity with
//! random accesses, NRA uses *only* sorted accesses and maintains, per
//! seen entity, a lower and an upper bound on its aggregate:
//!
//! - lower bound: seen values, with the *minimum possible* (0) substituted
//!   for unseen lists;
//! - upper bound: seen values, with each unseen list's *current cursor
//!   value* substituted (values below the cursor can't exceed it).
//!
//! The algorithm stops when k entities' lower bounds are no smaller than
//! every other entity's upper bound. NRA matters when random access is
//! expensive or unavailable (e.g. the inverted indices are streamed); the
//! trade-off is bookkeeping per seen entity.
//!
//! This implementation ranks by *descending* aggregate (most unfair). For
//! the least-unfair variant, walk the lists ascending and swap the bound
//! roles — [`nra_top_k`] handles both through [`RankOrder`].

use super::{topk::RankOrder, OrdF64, Restriction, TopKResult, TopKStats};
use crate::index::{Dimension, IndexSet};
use std::collections::BTreeMap;

/// Per-entity bookkeeping: which lists have reported it and the partial
/// sum of reported values.
struct Partial {
    sum: f64,
    seen: Vec<bool>,
    n_seen: usize,
}

/// NRA top-k over the pre-built indices: same contract as
/// [`top_k`](super::top_k) (ties by ascending entity id), but the search
/// phase issues only sorted accesses (direct reads appear only in the
/// final completion of the winning entities).
///
/// On an *incomplete* cube (degraded crawls) the aggregate is the average
/// over *present* cells, matching [`naive_top_k`](super::naive_top_k);
/// see [`nra_top_k_partial`] for the adapted bounds.
pub fn nra_top_k(
    indices: &IndexSet,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    if !indices.is_complete() {
        return nra_top_k_partial(indices, dim, k, order, restrict);
    }
    let _span = fbox_telemetry::span!("algo.nra");
    let _trace = fbox_trace::span("algo.nra");
    let mut stats = TopKStats::default();

    let (da, db) = dim.others();
    let ents_a = restrict.resolve(da, indices.dim_len(da));
    let ents_b = restrict.resolve(db, indices.dim_len(db));
    let mut pairs = Vec::with_capacity(ents_a.len() * ents_b.len());
    for &a in &ents_a {
        for &b in &ents_b {
            pairs.push((a, b));
        }
    }
    let candidates: Option<Vec<bool>> = restrict.subset(dim).map(|ids| {
        let mut mask = vec![false; indices.dim_len(dim)];
        for &id in ids {
            mask[id as usize] = true;
        }
        mask
    });
    let is_candidate = |e: u32| candidates.as_ref().is_none_or(|m| m[e as usize]);

    if k == 0 || pairs.is_empty() {
        stats.publish("nra");
        return TopKResult { entries: Vec::new(), stats };
    }

    // `sign` maps values into a space where bigger is always better.
    let sign = match order {
        RankOrder::MostUnfair => 1.0,
        RankOrder::LeastUnfair => -1.0,
    };
    let n_lists = pairs.len();
    let mut cursors = vec![0usize; n_lists];
    // Current cursor value per list, in sign space (bound for unseen
    // positions of that list).
    let mut frontier = vec![f64::INFINITY; n_lists];
    let mut partials: BTreeMap<u32, Partial> = BTreeMap::new();

    loop {
        stats.rounds += 1;
        let mut progressed = false;
        for (li, &pair) in pairs.iter().enumerate() {
            let list = indices.list_for(dim, pair);
            let accessed = match order {
                RankOrder::MostUnfair => list.sorted_desc(cursors[li]),
                RankOrder::LeastUnfair => list.sorted_asc(cursors[li]),
            };
            let Some((e, v)) = accessed else {
                frontier[li] = f64::NEG_INFINITY; // list exhausted
                                                  // No access happened: leave `sorted_accesses` alone so
                                                  // `cells_scanned == sorted + random` holds.
                continue;
            };
            stats.sorted_accesses += 1;
            cursors[li] += 1;
            stats.cells_scanned += 1;
            frontier[li] = sign * v;
            progressed = true;
            if !is_candidate(e) {
                continue;
            }
            let p = partials.entry(e).or_insert_with(|| Partial {
                sum: 0.0,
                seen: vec![false; n_lists],
                n_seen: 0,
            });
            if !p.seen[li] {
                p.seen[li] = true;
                p.n_seen += 1;
                p.sum += sign * v;
            }
        }

        // Bounds per seen entity (in sign space, averaged at the end).
        // Upper bound: seen sum + frontier of each unseen list.
        // Lower bound: seen sum + worst possible for unseen lists. In sign
        // space values lie in [-1, 1] (unfairness is in [0, 1]); for
        // MostUnfair the floor is 0, for LeastUnfair it is -1 (i.e. the
        // true value 1).
        let floor = match order {
            RankOrder::MostUnfair => 0.0,
            RankOrder::LeastUnfair => -1.0,
        };
        // The k best lower bounds among seen entities…
        let mut lowers: Vec<(u32, f64)> = partials
            .iter()
            .map(|(&e, p)| {
                let missing = (n_lists - p.n_seen) as f64;
                (e, p.sum + missing * floor)
            })
            .collect();
        lowers.sort_by(|a, b| OrdF64(b.1).cmp(&OrdF64(a.1)).then(a.0.cmp(&b.0)));
        let have_k = lowers.len() >= k;

        if have_k {
            let kth_lower = lowers[k - 1].1;
            fbox_trace::instant_args("nra.threshold", |a| {
                a.u64("round", stats.rounds);
                a.f64("kth_lower", sign * kth_lower);
            });
            let topk_ids: Vec<u32> = lowers[..k].iter().map(|&(e, _)| e).collect();
            // …must dominate every other entity's upper bound, including
            // entirely unseen entities (whose upper bound is the sum of
            // all frontiers).
            let mut all_dominated = true;
            for (&e, p) in &partials {
                if topk_ids.contains(&e) {
                    continue;
                }
                let mut upper = p.sum;
                for (li, &f) in frontier.iter().enumerate() {
                    if !p.seen[li] {
                        upper += if f.is_finite() { f } else { floor };
                    }
                }
                if upper > kth_lower {
                    all_dominated = false;
                    break;
                }
            }
            if all_dominated {
                let unseen_upper: f64 =
                    frontier.iter().map(|&f| if f.is_finite() { f } else { floor }).sum();
                // Unseen entities can't exist once every list has reported
                // everything, but mid-run they bound at the frontier sum.
                let any_unseen_possible =
                    partials.len() < candidate_count(indices, dim, &candidates);
                if !any_unseen_possible || unseen_upper <= kth_lower {
                    // Finished: the top-k set is fixed. NRA's bounds fix
                    // the *set*; the exact aggregates come from the now-
                    // complete partial sums (entities in the set may still
                    // have unseen lists only if their lower bound already
                    // dominates — finish them by draining their rows).
                    let mut entries: Vec<(u32, f64)> = topk_ids
                        .iter()
                        .map(|&e| {
                            let p = &partials[&e];
                            let exact = if p.n_seen == n_lists {
                                p.sum
                            } else {
                                // Drain: NRA semantics return bounds; for
                                // a friendlier API we finish the entity
                                // with sorted-order-independent reads of
                                // its remaining lists (accounted as sorted
                                // accesses — a final scan).
                                let mut sum = p.sum;
                                for (li, &pair) in pairs.iter().enumerate() {
                                    if !p.seen[li] {
                                        let v = indices
                                            .random_access(dim, pair, e)
                                            .expect("complete index");
                                        stats.random_accesses += 1;
                                        stats.cells_scanned += 1;
                                        sum += sign * v;
                                    }
                                }
                                sum
                            };
                            (e, sign * exact / n_lists as f64)
                        })
                        .collect();
                    entries.sort_by(|a, b| {
                        OrdF64(sign * b.1).cmp(&OrdF64(sign * a.1)).then(a.0.cmp(&b.0))
                    });
                    fbox_trace::instant_args("nra.early_termination", |a| {
                        a.u64("round", stats.rounds);
                    });
                    stats.publish("nra");
                    return TopKResult { entries, stats };
                }
            }
        }

        if !progressed {
            // Lists exhausted: everything is fully seen; emit directly.
            let mut entries: Vec<(u32, f64)> = partials
                .iter()
                .map(|(&e, p)| {
                    debug_assert_eq!(p.n_seen, n_lists);
                    (e, sign * p.sum / n_lists as f64)
                })
                .collect();
            entries.sort_by(|a, b| OrdF64(sign * b.1).cmp(&OrdF64(sign * a.1)).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            stats.publish("nra");
            return TopKResult { entries, stats };
        }
    }
}

/// NRA over an incomplete cube. An entity's aggregate is the average over
/// its *present* cells, so entities no longer share a common divisor and
/// all bounds live in **average** space:
///
/// - an exhausted list that never reported an entity proves the entity has
///   *no cell* there (sorted access walks whole lists), so it drops out of
///   that entity's bound entirely;
/// - lower bound: the subset average is monotone as floor-valued cells are
///   added, so the minimum is either "absent from every unresolved list"
///   (`s/n`) or "present everywhere at the floor"
///   (`(s + |R|·floor) / (n + |R|)`), whichever is smaller;
/// - upper bound: water-fill — include unresolved lists in descending
///   frontier order while the frontier exceeds the running average (adding
///   a value raises an average exactly when the value is above it);
/// - an entirely unseen entity's upper bound is the maximum frontier over
///   non-exhausted lists (a subset average never exceeds the subset's
///   largest possible element); once every list exhausts, unseen entities
///   have no cells at all and are omitted — the naive scan's rule.
fn nra_top_k_partial(
    indices: &IndexSet,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    let _span = fbox_telemetry::span!("algo.nra");
    let _trace = fbox_trace::span("algo.nra");
    let mut stats = TopKStats::default();

    let (da, db) = dim.others();
    let ents_a = restrict.resolve(da, indices.dim_len(da));
    let ents_b = restrict.resolve(db, indices.dim_len(db));
    let mut pairs = Vec::with_capacity(ents_a.len() * ents_b.len());
    for &a in &ents_a {
        for &b in &ents_b {
            pairs.push((a, b));
        }
    }
    let candidates: Option<Vec<bool>> = restrict.subset(dim).map(|ids| {
        let mut mask = vec![false; indices.dim_len(dim)];
        for &id in ids {
            mask[id as usize] = true;
        }
        mask
    });
    let is_candidate = |e: u32| candidates.as_ref().is_none_or(|m| m[e as usize]);

    if k == 0 || pairs.is_empty() {
        stats.publish("nra");
        return TopKResult { entries: Vec::new(), stats };
    }

    let sign = match order {
        RankOrder::MostUnfair => 1.0,
        RankOrder::LeastUnfair => -1.0,
    };
    // Worst possible sign-space value of a present cell (unfairness lies
    // in [0, 1]).
    let floor = match order {
        RankOrder::MostUnfair => 0.0,
        RankOrder::LeastUnfair => -1.0,
    };
    let n_lists = pairs.len();
    let mut cursors = vec![0usize; n_lists];
    let mut frontier = vec![f64::INFINITY; n_lists];
    let mut exhausted = vec![false; n_lists];
    let mut partials: BTreeMap<u32, Partial> = BTreeMap::new();

    // The best subset average `e` could still reach, given the lists that
    // might yet contain it.
    let upper_bound = |p: &Partial, frontier: &[f64], exhausted: &[bool]| -> f64 {
        let mut unresolved: Vec<f64> = (0..n_lists)
            .filter(|&li| !p.seen[li] && !exhausted[li])
            .map(|li| frontier[li])
            .collect();
        unresolved.sort_by_key(|&f| std::cmp::Reverse(OrdF64(f)));
        let mut avg = p.sum / p.n_seen as f64;
        let mut n = p.n_seen as f64;
        for f in unresolved {
            if f > avg {
                avg = (avg * n + f) / (n + 1.0);
                n += 1.0;
            } else {
                break;
            }
        }
        avg
    };
    let lower_bound = |p: &Partial, exhausted: &[bool]| -> f64 {
        let unresolved = (0..n_lists).filter(|&li| !p.seen[li] && !exhausted[li]).count();
        let base = p.sum / p.n_seen as f64;
        let all_floor = (p.sum + unresolved as f64 * floor) / (p.n_seen + unresolved) as f64;
        base.min(all_floor)
    };

    loop {
        stats.rounds += 1;
        let mut progressed = false;
        for (li, &pair) in pairs.iter().enumerate() {
            if exhausted[li] {
                continue;
            }
            let list = indices.list_for(dim, pair);
            let accessed = match order {
                RankOrder::MostUnfair => list.sorted_desc(cursors[li]),
                RankOrder::LeastUnfair => list.sorted_asc(cursors[li]),
            };
            let Some((e, v)) = accessed else {
                exhausted[li] = true;
                frontier[li] = f64::NEG_INFINITY;
                continue;
            };
            stats.sorted_accesses += 1;
            cursors[li] += 1;
            stats.cells_scanned += 1;
            frontier[li] = sign * v;
            progressed = true;
            if !is_candidate(e) {
                continue;
            }
            let p = partials.entry(e).or_insert_with(|| Partial {
                sum: 0.0,
                seen: vec![false; n_lists],
                n_seen: 0,
            });
            if !p.seen[li] {
                p.seen[li] = true;
                p.n_seen += 1;
                p.sum += sign * v;
            }
        }

        let mut lowers: Vec<(u32, f64)> =
            partials.iter().map(|(&e, p)| (e, lower_bound(p, &exhausted))).collect();
        lowers.sort_by(|a, b| OrdF64(b.1).cmp(&OrdF64(a.1)).then(a.0.cmp(&b.0)));

        if lowers.len() >= k {
            let kth_lower = lowers[k - 1].1;
            fbox_trace::instant_args("nra.threshold", |a| {
                a.u64("round", stats.rounds);
                a.f64("kth_lower", sign * kth_lower);
            });
            let topk_ids: Vec<u32> = lowers[..k].iter().map(|&(e, _)| e).collect();
            let mut all_dominated = true;
            for (&e, p) in &partials {
                if topk_ids.contains(&e) {
                    continue;
                }
                if upper_bound(p, &frontier, &exhausted) > kth_lower {
                    all_dominated = false;
                    break;
                }
            }
            if all_dominated {
                let unseen_upper = frontier
                    .iter()
                    .filter(|f| f.is_finite())
                    .fold(f64::NEG_INFINITY, |m, &f| m.max(f));
                let any_unseen_possible = partials.len()
                    < candidate_count(indices, dim, &candidates)
                    && !exhausted.iter().all(|&x| x);
                if !any_unseen_possible || unseen_upper <= kth_lower {
                    // The set is fixed; finish each winner with direct
                    // reads of the lists that might still hold it.
                    let mut entries: Vec<(u32, f64)> = topk_ids
                        .iter()
                        .map(|&e| {
                            let p = &partials[&e];
                            let mut sum = p.sum;
                            let mut present = p.n_seen;
                            for (li, &pair) in pairs.iter().enumerate() {
                                if p.seen[li] || exhausted[li] {
                                    continue;
                                }
                                stats.random_accesses += 1;
                                stats.cells_scanned += 1;
                                if let Some(v) = indices.random_access(dim, pair, e) {
                                    sum += sign * v;
                                    present += 1;
                                }
                            }
                            (e, sign * sum / present as f64)
                        })
                        .collect();
                    entries.sort_by(|a, b| {
                        OrdF64(sign * b.1).cmp(&OrdF64(sign * a.1)).then(a.0.cmp(&b.0))
                    });
                    fbox_trace::instant_args("nra.early_termination", |a| {
                        a.u64("round", stats.rounds);
                    });
                    stats.publish("nra");
                    return TopKResult { entries, stats };
                }
            }
        }

        if !progressed {
            // Every list exhausted: each seen entity's present cells have
            // all been reported.
            let mut entries: Vec<(u32, f64)> =
                partials.iter().map(|(&e, p)| (e, sign * p.sum / p.n_seen as f64)).collect();
            entries.sort_by(|a, b| OrdF64(sign * b.1).cmp(&OrdF64(sign * a.1)).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            stats.publish("nra");
            return TopKResult { entries, stats };
        }
    }
}

fn candidate_count(indices: &IndexSet, dim: Dimension, mask: &Option<Vec<bool>>) -> usize {
    match mask {
        Some(m) => m.iter().filter(|&&b| b).count(),
        None => indices.dim_len(dim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::naive_top_k;
    use crate::cube::UnfairnessCube;
    use crate::model::{GroupId, LocationId, QueryId};

    fn cube(ng: usize) -> UnfairnessCube {
        let mut c = UnfairnessCube::with_dims(ng, 3, 3);
        let mut state = 0x9E37_79B9u64;
        for g in 0..ng as u32 {
            for q in 0..3u32 {
                for l in 0..3u32 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let v = (state >> 11) as f64 / (1u64 << 53) as f64;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        c
    }

    #[test]
    fn nra_matches_naive_both_orders() {
        let c = cube(40);
        let idx = crate::index::IndexSet::build(&c);
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            for k in [1usize, 5, 40] {
                let nra = nra_top_k(&idx, Dimension::Group, k, order, &Restriction::none());
                let nv = naive_top_k(&c, Dimension::Group, k, order, &Restriction::none());
                assert_eq!(nra.entries.len(), nv.entries.len(), "{order:?} k={k}");
                for (a, b) in nra.entries.iter().zip(&nv.entries) {
                    assert!((a.1 - b.1).abs() < 1e-9, "{order:?} k={k}: {a:?} vs {b:?}");
                }
            }
        }
    }

    /// Regression: same counter bug as TA — a sorted access past the end
    /// of an exhausted list must not count. NRA makes no random accesses,
    /// so after a run to exhaustion (k > dim_len) `sorted_accesses` must
    /// equal exactly `cells_scanned`: lists × entities.
    #[test]
    fn exhausted_lists_do_not_inflate_access_counters() {
        let c = cube(4);
        let idx = crate::index::IndexSet::build(&c);
        let r = nra_top_k(&idx, Dimension::Group, 10, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries.len(), 4);
        // 9 (q, l) lists × 4 groups, each cell read exactly once.
        assert_eq!(r.stats.sorted_accesses, 9 * 4);
        assert_eq!(r.stats.random_accesses, 0);
        assert_eq!(r.stats.cells_scanned, r.stats.sorted_accesses + r.stats.random_accesses);
    }

    #[test]
    fn nra_works_on_other_dimensions() {
        let c = cube(10);
        let idx = crate::index::IndexSet::build(&c);
        for dim in [Dimension::Query, Dimension::Location] {
            let nra = nra_top_k(&idx, dim, 2, RankOrder::MostUnfair, &Restriction::none());
            let nv = naive_top_k(&c, dim, 2, RankOrder::MostUnfair, &Restriction::none());
            let nra_vals: Vec<f64> = nra.entries.iter().map(|e| e.1).collect();
            let nv_vals: Vec<f64> = nv.entries.iter().map(|e| e.1).collect();
            for (a, b) in nra_vals.iter().zip(&nv_vals) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn nra_respects_restrictions() {
        let c = cube(20);
        let idx = crate::index::IndexSet::build(&c);
        let restrict =
            Restriction { groups: Some(vec![2, 5, 9]), queries: Some(vec![0, 2]), locations: None };
        let nra = nra_top_k(&idx, Dimension::Group, 2, RankOrder::MostUnfair, &restrict);
        let nv = naive_top_k(&c, Dimension::Group, 2, RankOrder::MostUnfair, &restrict);
        assert_eq!(nra.entries.len(), 2);
        for (a, b) in nra.entries.iter().zip(&nv.entries) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn nra_prefers_sorted_accesses() {
        // On a skewed cube NRA should finish without touching most rows;
        // random accesses only appear in the final top-k completion.
        let mut c = UnfairnessCube::with_dims(500, 2, 2);
        for g in 0..500u32 {
            let v = if g == 7 { 0.95 } else { 0.2 + (g as f64 % 83.0) / 1000.0 };
            for q in 0..2u32 {
                for l in 0..2u32 {
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        let idx = crate::index::IndexSet::build(&c);
        let r = nra_top_k(&idx, Dimension::Group, 1, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries[0].0, 7);
        assert!(
            r.stats.random_accesses <= 4,
            "only the winner may be completed by direct reads, got {}",
            r.stats.random_accesses
        );
        assert!(r.stats.sorted_accesses < 500, "early termination expected");
    }

    #[test]
    fn nra_k_zero_and_empty() {
        let c = cube(5);
        let idx = crate::index::IndexSet::build(&c);
        let r = nra_top_k(&idx, Dimension::Group, 0, RankOrder::MostUnfair, &Restriction::none());
        assert!(r.entries.is_empty());
    }

    #[test]
    fn nra_partial_matches_naive() {
        // Knock out a pseudo-random ~20% of cells, including one group's
        // entire row (it must be omitted, not returned as 0).
        let mut c = cube(30);
        let mut state = 0xD1CE_5EEDu64;
        for g in 0..30u32 {
            for q in 0..3u32 {
                for l in 0..3u32 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if g == 11 || state.is_multiple_of(5) {
                        c.set_opt(GroupId(g), QueryId(q), LocationId(l), None);
                    }
                }
            }
        }
        let idx = crate::index::IndexSet::build(&c);
        assert!(!idx.is_complete());
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            for k in [1usize, 5, 30] {
                let nra = nra_top_k(&idx, Dimension::Group, k, order, &Restriction::none());
                let nv = naive_top_k(&c, Dimension::Group, k, order, &Restriction::none());
                assert_eq!(nra.entries.len(), nv.entries.len(), "{order:?} k={k}");
                assert!(nra.entries.iter().all(|&(e, _)| e != 11), "missing row omitted");
                for (a, b) in nra.entries.iter().zip(&nv.entries) {
                    assert!((a.1 - b.1).abs() < 1e-9, "{order:?} k={k}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn nra_partial_handles_fully_missing_list() {
        // Query 1 never returns: two of the nine lists are empty and must
        // exhaust immediately without wedging the bound arithmetic.
        let mut c = cube(12);
        for g in 0..12u32 {
            for l in 0..3u32 {
                c.set_opt(GroupId(g), QueryId(1), LocationId(l), None);
            }
        }
        let idx = crate::index::IndexSet::build(&c);
        let nra =
            nra_top_k(&idx, Dimension::Group, 12, RankOrder::MostUnfair, &Restriction::none());
        let nv = naive_top_k(&c, Dimension::Group, 12, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(nra.entries.len(), 12);
        for (a, b) in nra.entries.iter().zip(&nv.entries) {
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }
}
