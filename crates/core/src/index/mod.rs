//! The three index families of Table 5: group-based `I(q,l)`, query-based
//! `I(g,l)`, and location-based `I(g,q)` inverted indices, pre-computed
//! from the unfairness cube for fast top-k processing.

mod posting;

pub use posting::PostingList;

use crate::cube::UnfairnessCube;
use crate::model::{GroupId, LocationId, QueryId};
use serde::{Deserialize, Serialize};

/// One of the three dimensions of the unfairness cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// Demographic groups.
    Group,
    /// Job-related queries.
    Query,
    /// Geographic locations.
    Location,
}

impl Dimension {
    /// The other two dimensions, in canonical (Group, Query, Location)
    /// order.
    pub fn others(self) -> (Dimension, Dimension) {
        match self {
            Dimension::Group => (Dimension::Query, Dimension::Location),
            Dimension::Query => (Dimension::Group, Dimension::Location),
            Dimension::Location => (Dimension::Group, Dimension::Query),
        }
    }
}

/// All three index families over one unfairness cube, and the cube itself.
///
/// For each pair of the *other* two dimensions there is one
/// [`PostingList`] ranking the indexed dimension's entities by descending
/// unfairness: the sorted access. Random access reads the cube, which the
/// set owns, so every cell value is stored once. Building is
/// O(cells · log) once; every subsequent top-k query runs Fagin-style on
/// the pre-sorted lists.
#[derive(Debug, Clone)]
pub struct IndexSet {
    cube: UnfairnessCube,
    /// `I(q,l)` — groups ranked; indexed by `q * n_locations + l`.
    group_lists: Vec<PostingList>,
    /// `I(g,l)` — queries ranked; indexed by `g * n_locations + l`.
    query_lists: Vec<PostingList>,
    /// `I(g,q)` — locations ranked; indexed by `g * n_queries + q`.
    location_lists: Vec<PostingList>,
    /// Present `(g,q,l)` values, maintained incrementally by
    /// [`Self::update_cell`] so completeness stays O(1).
    n_present: usize,
}

/// Pairs `(a, b)` with `a < na`, `b < nb`, in `a`-major order — the slot
/// order of one posting-list family.
fn pair_grid(na: usize, nb: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(na * nb);
    debug_assert!(
        na <= u32::MAX as usize && nb <= u32::MAX as usize,
        "dimension sizes must fit the u32 id space"
    );
    for a in 0..na as u32 {
        for b in 0..nb as u32 {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Builds one posting-list family: the lists are chunked across
/// [`fbox_par`] workers and re-flattened in slot order, so the family is
/// identical to the serial build at any thread count.
fn build_family<I: IntoIterator<Item = Option<f64>>>(
    family: &'static str,
    pairs: &[(u32, u32)],
    values_for: impl Fn(u32, u32) -> I + Sync,
) -> Vec<PostingList> {
    let _trace = fbox_trace::span_args("index.family", |a| {
        a.str("family", family);
        a.u64("lists", pairs.len() as u64);
    });
    // ~64 lists per unit of work: one sort each, cheap enough to batch.
    let chunks = fbox_par::par_chunks(pairs, 64, |chunk| {
        chunk.iter().map(|&(a, b)| PostingList::from_values(values_for(a, b))).collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

impl IndexSet {
    /// Builds all three families over a copy of `cube`. Each family's
    /// posting lists are built in parallel across `FBOX_THREADS` workers
    /// (deterministic: every list lands in its canonical slot regardless
    /// of thread count).
    pub fn build(cube: &UnfairnessCube) -> Self {
        Self::from_cube(cube.clone())
    }

    /// [`Self::build`], taking ownership of the cube instead of copying it.
    pub(crate) fn from_cube(cube: UnfairnessCube) -> Self {
        let _span = fbox_telemetry::span!("index.build");
        let _trace = fbox_trace::span("index.build");
        let (ng, nq, nl) = (cube.n_groups(), cube.n_queries(), cube.n_locations());
        let c = &cube;

        let group_lists = build_family("group", &pair_grid(nq, nl), |q, l| {
            (0..ng as u32).map(move |g| c.get(GroupId(g), QueryId(q), LocationId(l)))
        });
        let query_lists = build_family("query", &pair_grid(ng, nl), |g, l| {
            (0..nq as u32).map(move |q| c.get(GroupId(g), QueryId(q), LocationId(l)))
        });
        let location_lists = build_family("location", &pair_grid(ng, nq), |g, q| {
            (0..nl as u32).map(move |l| c.get(GroupId(g), QueryId(q), LocationId(l)))
        });

        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("index.builds").inc();
            t.counter("index.lists_built")
                .add((group_lists.len() + query_lists.len() + location_lists.len()) as u64);
        }

        let n_present = group_lists.iter().map(PostingList::len).sum();
        Self { cube, group_lists, query_lists, location_lists, n_present }
    }

    /// Writes cell `(q,l)` — `value_of(g)` becomes `d⟨g,q,l⟩` for every
    /// group — into the cube and delta-updates every index entry it
    /// touches, leaving the set bit-identical to [`Self::build`] over the
    /// updated cube. One cell touches exactly one group list (all
    /// `n_groups` entries of `I(q,l)`) plus, per group, entry `q` of
    /// `I(g,l)` and entry `l` of `I(g,q)` — cost proportional to the dirty
    /// cell's fan-out, never to the cube.
    ///
    /// Bit-equality holds because [`PostingList::update`] reproduces the
    /// total (value desc, id asc) order exactly, and because cube cells
    /// are independent: re-deriving one cell never moves entries owned by
    /// another.
    ///
    /// Panics on an id out of range, or (as [`UnfairnessCube::set_opt`]
    /// does) on a value outside `[0, 1]`.
    pub fn update_cell(
        &mut self,
        q: QueryId,
        l: LocationId,
        mut value_of: impl FnMut(GroupId) -> Option<f64>,
    ) {
        let (nq, nl) = (self.cube.n_queries(), self.cube.n_locations());
        let (qi, li) = (q.0 as usize, l.0 as usize);
        for g in 0..self.cube.n_groups() as u32 {
            let old = self.cube.get(GroupId(g), q, l);
            let new = value_of(GroupId(g));
            self.cube.set_opt(GroupId(g), q, l, new);
            self.n_present =
                self.n_present + usize::from(new.is_some()) - usize::from(old.is_some());
            self.group_lists[qi * nl + li].update(g, old, new);
            self.query_lists[g as usize * nl + li].update(q.0, old, new);
            self.location_lists[g as usize * nq + qi].update(l.0, old, new);
        }
    }

    /// The indexed cube: the one copy of every cell value.
    pub fn cube(&self) -> &UnfairnessCube {
        &self.cube
    }

    /// Whether every cube cell is present. O(1): kept up to date by
    /// [`Self::update_cell`].
    pub fn is_complete(&self) -> bool {
        self.n_present == self.cube.raw_data().len()
    }

    /// Size of the indexed dimension.
    pub fn dim_len(&self, dim: Dimension) -> usize {
        match dim {
            Dimension::Group => self.cube.n_groups(),
            Dimension::Query => self.cube.n_queries(),
            Dimension::Location => self.cube.n_locations(),
        }
    }

    /// `I(q,l)`: groups ranked by unfairness for one query/location pair.
    pub fn group_list(&self, q: QueryId, l: LocationId) -> &PostingList {
        &self.group_lists[q.0 as usize * self.cube.n_locations() + l.0 as usize]
    }

    /// `I(g,l)`: queries ranked for one group/location pair.
    pub fn query_list(&self, g: GroupId, l: LocationId) -> &PostingList {
        &self.query_lists[g.0 as usize * self.cube.n_locations() + l.0 as usize]
    }

    /// `I(g,q)`: locations ranked for one group/query pair.
    pub fn location_list(&self, g: GroupId, q: QueryId) -> &PostingList {
        &self.location_lists[g.0 as usize * self.cube.n_queries() + q.0 as usize]
    }

    /// The posting list ranking dimension `dim` for one pair of entities of
    /// the other two dimensions, given in canonical (Group, Query,
    /// Location) order of the *remaining* dimensions:
    ///
    /// - `dim = Group` → `pair = (query, location)`
    /// - `dim = Query` → `pair = (group, location)`
    /// - `dim = Location` → `pair = (group, query)`
    pub fn list_for(&self, dim: Dimension, pair: (u32, u32)) -> &PostingList {
        match dim {
            Dimension::Group => self.group_list(QueryId(pair.0), LocationId(pair.1)),
            Dimension::Query => self.query_list(GroupId(pair.0), LocationId(pair.1)),
            Dimension::Location => self.location_list(GroupId(pair.0), QueryId(pair.1)),
        }
    }

    /// Random access: entity `e`'s value in the list
    /// [`list_for(dim, pair)`](Self::list_for), read from the cube; `None`
    /// if the cell is missing. On the threshold algorithms' inner loop, so
    /// one offset and one slice bounds check: callers pass range-checked
    /// ids (query and location ranges are re-checked in debug builds).
    pub fn random_access(&self, dim: Dimension, pair: (u32, u32), e: u32) -> Option<f64> {
        let (g, q, l) = match dim {
            Dimension::Group => (e, pair.0, pair.1),
            Dimension::Query => (pair.0, e, pair.1),
            Dimension::Location => (pair.0, pair.1, e),
        };
        let (q, l, nq, nl) =
            (q as usize, l as usize, self.cube.n_queries(), self.cube.n_locations());
        debug_assert!(q < nq && l < nl, "cell ⟨{g}, {q}, {l}⟩ outside the cube");
        self.cube.raw_data()[(g as usize * nq + q) * nl + l]
    }

    /// `d⟨g,q,l⟩` through [`Self::random_access`] on the group family.
    pub fn value(&self, g: GroupId, q: QueryId, l: LocationId) -> Option<f64> {
        self.random_access(Dimension::Group, (q.0, l.0), g.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cube() -> UnfairnessCube {
        // 2 groups × 2 queries × 2 locations with distinct values.
        let mut c = UnfairnessCube::with_dims(2, 2, 2);
        let mut v = 0.0;
        for g in 0..2u32 {
            for q in 0..2u32 {
                for l in 0..2u32 {
                    v += 0.1;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        c
    }

    /// Random access through all three families, and through `value`,
    /// reads exactly the cube's cells (missing cells included).
    fn assert_random_access_matches_cube(idx: &IndexSet) {
        let cube = idx.cube();
        for g in 0..cube.n_groups() as u32 {
            for q in 0..cube.n_queries() as u32 {
                for l in 0..cube.n_locations() as u32 {
                    let expected = cube.get(GroupId(g), QueryId(q), LocationId(l));
                    assert_eq!(idx.random_access(Dimension::Group, (q, l), g), expected);
                    assert_eq!(idx.random_access(Dimension::Query, (g, l), q), expected);
                    assert_eq!(idx.random_access(Dimension::Location, (g, q), l), expected);
                    assert_eq!(idx.value(GroupId(g), QueryId(q), LocationId(l)), expected);
                }
            }
        }
    }

    #[test]
    fn three_families_agree_with_cube() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        assert!(idx.is_complete());
        assert_eq!(idx.cube().raw_data(), cube.raw_data());
        assert_random_access_matches_cube(&idx);
    }

    #[test]
    fn sorted_access_descends() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        for q in 0..2u32 {
            for l in 0..2u32 {
                let list = idx.group_list(QueryId(q), LocationId(l));
                let (_, top) = list.sorted_desc(0).unwrap();
                let (_, bottom) = list.sorted_desc(1).unwrap();
                assert!(top >= bottom);
            }
        }
    }

    #[test]
    fn incomplete_cube_flagged() {
        let mut c = UnfairnessCube::with_dims(1, 1, 2);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.5);
        let idx = IndexSet::build(&c);
        assert!(!idx.is_complete());
        assert_eq!(idx.group_list(QueryId(0), LocationId(1)).len(), 0);
        assert_eq!(idx.random_access(Dimension::Location, (0, 0), 0), Some(0.5));
        assert_eq!(idx.random_access(Dimension::Location, (0, 0), 1), None);
    }

    fn assert_index_eq(a: &IndexSet, b: &IndexSet) {
        assert_eq!(a.n_present, b.n_present);
        for (fa, fb) in [
            (&a.group_lists, &b.group_lists),
            (&a.query_lists, &b.query_lists),
            (&a.location_lists, &b.location_lists),
        ] {
            assert_eq!(fa.len(), fb.len());
            for (la, lb) in fa.iter().zip(fb.iter()) {
                assert_eq!(la.entries(), lb.entries());
            }
        }
    }

    #[test]
    fn update_cell_matches_full_rebuild() {
        let mut idx = IndexSet::build(&UnfairnessCube::with_dims(3, 2, 2));
        assert!(!idx.is_complete());

        // After every step the index must be bit-identical to a full
        // rebuild over its own cube, serve the cube's values through all
        // three families, and agree with the cube's completeness scan.
        let check = |idx: &IndexSet| {
            assert_index_eq(idx, &IndexSet::build(idx.cube()));
            assert_random_access_matches_cube(idx);
            assert_eq!(idx.is_complete(), idx.cube().is_complete());
        };

        // Stream cells in, delta-updating after each.
        let mut v = 0.0;
        for q in 0..2u32 {
            for l in 0..2u32 {
                let base = v;
                idx.update_cell(QueryId(q), LocationId(l), |g| {
                    Some(base + 0.05 * f64::from(g.0 + 1))
                });
                v += 0.15;
                check(&idx);
            }
        }
        assert!(idx.is_complete());

        // Re-deriving a cell with changed values (a later epoch revises
        // it) must also match.
        idx.update_cell(QueryId(0), LocationId(1), |g| Some(if g.0 == 1 { 0.99 } else { 0.5 }));
        check(&idx);
        assert_eq!(idx.value(GroupId(1), QueryId(0), LocationId(1)), Some(0.99));
        assert_eq!(idx.group_list(QueryId(0), LocationId(1)).sorted_desc(0), Some((1, 0.99)));

        // Clear one group of a cell, then a whole cell, back to missing...
        idx.update_cell(QueryId(1), LocationId(0), |g| (g.0 != 2).then_some(0.25));
        check(&idx);
        assert!(!idx.is_complete());
        idx.update_cell(QueryId(0), LocationId(0), |_| None);
        check(&idx);
        assert_eq!(idx.group_list(QueryId(0), LocationId(0)).len(), 0);

        // ...and refill both.
        idx.update_cell(QueryId(0), LocationId(0), |g| Some(0.1 * f64::from(g.0)));
        check(&idx);
        assert!(!idx.is_complete());
        idx.update_cell(QueryId(1), LocationId(0), |_| Some(0.7));
        check(&idx);
        assert!(idx.is_complete());
    }

    #[test]
    fn list_for_dispatches() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        assert!(std::ptr::eq(
            idx.list_for(Dimension::Group, (1, 0)),
            idx.group_list(QueryId(1), LocationId(0))
        ));
        assert!(std::ptr::eq(
            idx.list_for(Dimension::Query, (1, 0)),
            idx.query_list(GroupId(1), LocationId(0))
        ));
        assert!(std::ptr::eq(
            idx.list_for(Dimension::Location, (0, 1)),
            idx.location_list(GroupId(0), QueryId(1))
        ));
        assert_eq!(
            idx.list_for(Dimension::Query, (1, 0)).sorted_desc(0),
            Some((1, cube.get(GroupId(1), QueryId(1), LocationId(0)).unwrap()))
        );
    }
}
