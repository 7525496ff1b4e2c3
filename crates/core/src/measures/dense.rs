//! Result lists re-encoded over dense item ids, shared by the Kendall
//! `K^(p)` and Jaccard kernels.
//!
//! Both list distances of Eq. 1 only ever ask two questions of an item:
//! *is it in the other list?* and *at which position?* Interning every
//! item once to a dense `u32` id in `0..m` and giving each list a rank
//! row — `rank[id]` = the item's first position, or [`ABSENT`] — turns
//! both questions into one array load. A search cell interns all of its
//! participants' lists together, so every pairwise distance of the cell
//! reads the same rows; the generic entry points
//! ([`kendall::top_k_distance`](super::kendall::top_k_distance),
//! [`jaccard::index`](super::jaccard::index)) intern just their two
//! arguments.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Rank-row sentinel: the item is not in the list.
pub(crate) const ABSENT: u32 = u32::MAX;

/// Longest list the encoding accepts (2³¹ − 1 items). Every case count of
/// two lists is at most `C(|A| + |B|, 2) < 2⁶³`, so the kernels' `u64`
/// counters cannot overflow, and positions stay clear of [`ABSENT`].
pub(crate) const MAX_LIST_LEN: usize = (1 << 31) - 1;

/// A set of lists over one dense item space `0..m`.
#[derive(Debug)]
pub(crate) struct DenseLists {
    /// Number of distinct items across all lists.
    m: usize,
    /// Every list's item ids in rank order, concatenated.
    items: Vec<u32>,
    /// `items[starts[i]..starts[i + 1]]` is list `i`.
    starts: Vec<usize>,
    /// Row-major `n × m` rank rows.
    ranks: Vec<u32>,
    /// Per list: the number of distinct items.
    distinct: Vec<u32>,
    /// Per list: whether some item occurs more than once.
    duplicated: Vec<bool>,
}

/// One list of a [`DenseLists`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// Item ids in rank order (duplicates kept).
    pub(crate) items: &'a [u32],
    /// `rank[id]`: the first position of `id` in the list, or [`ABSENT`].
    pub(crate) rank: &'a [u32],
    /// Number of distinct items.
    pub(crate) distinct: u32,
    /// Whether some item occurs more than once.
    pub(crate) duplicated: bool,
}

impl DenseLists {
    /// Encodes `lists`, interning items through a `HashMap`.
    ///
    /// # Panics
    ///
    /// Panics if a list is longer than [`MAX_LIST_LEN`].
    #[must_use]
    pub(crate) fn hashed<'t, T: Hash + Eq + 't>(lists: impl IntoIterator<Item = &'t [T]>) -> Self {
        let mut ids: HashMap<&T, usize> = HashMap::new();
        Self::new(lists, |x| {
            let next = ids.len();
            *ids.entry(x).or_insert(next)
        })
    }

    /// Encodes `lists`, interning items through a `BTreeMap`.
    ///
    /// # Panics
    ///
    /// Panics if a list is longer than [`MAX_LIST_LEN`].
    #[must_use]
    pub(crate) fn ordered<'t, T: Ord + 't>(lists: impl IntoIterator<Item = &'t [T]>) -> Self {
        let mut ids: BTreeMap<&T, usize> = BTreeMap::new();
        Self::new(lists, |x| {
            let next = ids.len();
            *ids.entry(x).or_insert(next)
        })
    }

    /// Encodes `lists`, mapping each item to its dense id with `intern`,
    /// which hands out ids `0, 1, 2, …` in first-seen order.
    fn new<'t, T: 't>(
        lists: impl IntoIterator<Item = &'t [T]>,
        mut intern: impl FnMut(&'t T) -> usize,
    ) -> Self {
        let mut items = Vec::new();
        let mut starts = vec![0];
        let mut n = 0;
        for list in lists {
            let len = list.len();
            assert!(len <= MAX_LIST_LEN, "list of {len} items exceeds the dense encoding");
            for item in list {
                let id: usize = intern(item);
                assert!(id < ABSENT as usize, "dense id space exhausted");
                items.push(id as u32);
            }
            starts.push(items.len());
            n += 1;
        }
        let m = items.iter().max().map_or(0, |&id| id as usize + 1);
        let mut ranks = vec![ABSENT; n * m];
        let mut distinct = Vec::with_capacity(n);
        let mut duplicated = Vec::with_capacity(n);
        for i in 0..n {
            let row = &mut ranks[i * m..(i + 1) * m];
            let (mut count, mut dup) = (0u32, false);
            for (pos, &id) in (0u32..).zip(&items[starts[i]..starts[i + 1]]) {
                let slot = &mut row[id as usize];
                if *slot == ABSENT {
                    *slot = pos;
                    count += 1;
                } else {
                    dup = true;
                }
            }
            distinct.push(count);
            duplicated.push(dup);
        }
        Self { m, items, starts, ranks, distinct, duplicated }
    }

    /// Number of lists.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.distinct.len()
    }

    /// List `i`.
    #[must_use]
    pub(crate) fn row(&self, i: usize) -> Row<'_> {
        Row {
            items: &self.items[self.starts[i]..self.starts[i + 1]],
            rank: &self.ranks[i * self.m..(i + 1) * self.m],
            distinct: self.distinct[i],
            duplicated: self.duplicated[i],
        }
    }
}
