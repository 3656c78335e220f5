//! The [`FrequentItemsets`] result container.

use std::collections::HashMap;

/// An itemset: a sorted, duplicate-free vector of item ids.
pub type Itemset = Vec<u32>;

/// All frequent itemsets mined from one database, with absolute support
/// counts, each held once in lexicographic order. An itemset's position
/// in that order is its *rank* ([`rank`](Self::rank) looks it up,
/// [`ranked`](Self::ranked) resolves it), so ranks order as itemsets do.
///
/// Every miner in this crate produces a `FrequentItemsets`; two runs over
/// the same database with the same threshold must produce equal values
/// regardless of the algorithm (enforced by the cross-algorithm tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemsets {
    /// Every itemset with its count, in lexicographic order.
    ranked: Vec<(Itemset, usize)>,
    /// Itemset → rank.
    index: HashMap<Itemset, u32>,
    /// Number of transactions in the mined database.
    n_transactions: usize,
}

impl FrequentItemsets {
    /// Assembles the container from per-level `(itemset, count)` lists.
    ///
    /// Any input is brought to one canonical form: the level an itemset
    /// is filed under is ignored (its own length decides), empty
    /// itemsets are dropped, and an itemset listed more than once keeps
    /// the count given last, levels read in order.
    pub fn from_levels(levels: Vec<Vec<(Itemset, usize)>>, n_transactions: usize) -> Self {
        // Reversed, then sorted stably, so of an itemset's copies the one
        // given last comes first, and `dedup_by` keeps it.
        let mut ranked: Vec<(Itemset, usize)> = levels
            .into_iter()
            .flatten()
            .rev()
            .filter(|(items, _)| !items.is_empty())
            .collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0));
        ranked.dedup_by(|a, b| a.0 == b.0);
        let index = ranked
            .iter()
            .enumerate()
            .map(|(rank, (items, _))| {
                debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "itemsets sorted");
                (items.clone(), rank as u32)
            })
            .collect();
        Self {
            ranked,
            index,
            n_transactions,
        }
    }

    /// Number of transactions in the mined database.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// The largest frequent itemset size (0 when nothing is frequent).
    pub fn max_len(&self) -> usize {
        self.ranked.iter().map(|(i, _)| i.len()).max().unwrap_or(0)
    }

    /// Total number of frequent itemsets.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether no itemset is frequent.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The rank of `itemset`, or `None` if not frequent.
    pub fn rank(&self, itemset: &[u32]) -> Option<u32> {
        self.index.get(itemset).copied()
    }

    /// The itemset of rank `rank` (below [`len`](Self::len)) and its
    /// absolute support count.
    pub fn ranked(&self, rank: u32) -> (&Itemset, usize) {
        let (items, count) = &self.ranked[rank as usize];
        (items, *count)
    }

    /// The frequent k-itemsets with their counts, in lexicographic order.
    pub fn level(&self, k: usize) -> impl Iterator<Item = (&Itemset, usize)> {
        self.ranked
            .iter()
            .filter(move |(items, _)| items.len() == k)
            .map(|(items, count)| (items, *count))
    }

    /// Number of frequent k-itemsets.
    pub fn level_len(&self, k: usize) -> usize {
        self.level(k).count()
    }

    /// Absolute support count of `itemset`, or `None` if not frequent.
    pub fn support_count(&self, itemset: &[u32]) -> Option<usize> {
        self.rank(itemset).map(|rank| self.ranked(rank).1)
    }

    /// Relative support of `itemset`, or `None` if not frequent.
    pub fn support(&self, itemset: &[u32]) -> Option<f64> {
        self.support_count(itemset)
            .map(|c| c as f64 / self.n_transactions.max(1) as f64)
    }

    /// Frequent single items ordered by descending support (ties by
    /// ascending item id) — the degraded-recommendation vocabulary a
    /// server falls back to when rule scanning trips its deadline.
    pub fn singletons_by_support(&self) -> Vec<(u32, usize)> {
        let mut out: Vec<(u32, usize)> = self
            .level(1)
            .map(|(items, count)| (items[0], count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates all `(itemset, count)` pairs, smallest itemsets first,
    /// each size in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, usize)> {
        (1..=self.max_len()).flat_map(move |k| self.level(k))
    }

    /// Checks downward closure: every proper subset of every frequent
    /// itemset is itself present with at least the superset's support.
    /// Used by the property tests, and by rule generation to learn that
    /// growing a consequent cannot raise its rule's confidence.
    pub fn verify_downward_closure(&self) -> bool {
        let mut subset = Vec::new();
        self.ranked.iter().all(|(items, count)| {
            items.len() < 2
                || (0..items.len()).all(|skip| {
                    subset.clear();
                    subset.extend_from_slice(&items[..skip]);
                    subset.extend_from_slice(&items[skip + 1..]);
                    self.support_count(&subset).is_some_and(|sub| sub >= *count)
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FrequentItemsets {
        FrequentItemsets::from_levels(
            vec![
                vec![(vec![1], 2), (vec![2], 3), (vec![3], 3), (vec![5], 3)],
                vec![
                    (vec![1, 3], 2),
                    (vec![2, 3], 2),
                    (vec![2, 5], 3),
                    (vec![3, 5], 2),
                ],
                vec![(vec![2, 3, 5], 2)],
            ],
            4,
        )
    }

    #[test]
    fn shape_accessors() {
        let f = sample();
        assert_eq!(f.max_len(), 3);
        assert_eq!(f.len(), 9);
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.level_len(4), 0);
        assert_eq!(f.level(0).count(), 0);
        assert!(!f.is_empty());
    }

    #[test]
    fn support_lookup() {
        let f = sample();
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support(&[2, 5]), Some(0.75));
        assert_eq!(f.support_count(&[1, 2]), None);
    }

    #[test]
    fn trailing_empty_levels_trimmed() {
        let f = FrequentItemsets::from_levels(vec![vec![(vec![0], 1)], vec![], vec![]], 3);
        assert_eq!(f.max_len(), 1);
    }

    #[test]
    fn downward_closure_detects_violations() {
        assert!(sample().verify_downward_closure());
        let bad = FrequentItemsets::from_levels(
            vec![vec![(vec![1], 5)], vec![(vec![1, 2], 3)]], // {2} missing
            10,
        );
        assert!(!bad.verify_downward_closure());
        let bad_count = FrequentItemsets::from_levels(
            vec![
                vec![(vec![1], 2), (vec![2], 5)],
                vec![(vec![1, 2], 3)], // supp({1,2}) > supp({1})
            ],
            10,
        );
        assert!(!bad_count.verify_downward_closure());
    }

    #[test]
    fn iter_orders_small_to_large() {
        let sizes: Vec<usize> = sample().iter().map(|(i, _)| i.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Hand-built input as it may come: unsorted levels, itemsets filed
    /// at the wrong size, an empty itemset, and duplicates within a level
    /// and across levels.
    fn malformed() -> FrequentItemsets {
        FrequentItemsets::from_levels(
            vec![
                vec![(vec![3], 4), (vec![1, 2], 2), (vec![], 9), (vec![1], 5)],
                vec![(vec![2], 6), (vec![1, 3], 3), (vec![1], 7)],
                vec![],
                vec![(vec![1, 2, 3], 1), (vec![1, 2], 8), (vec![3], 2)],
            ],
            10,
        )
    }

    #[test]
    fn from_levels_brings_malformed_input_to_canonical_form() {
        let f = malformed();
        let level = |k| f.level(k).map(|(i, c)| (i.clone(), c)).collect::<Vec<_>>();
        // Filed by length, each level lexicographic, the last count kept.
        assert_eq!(level(1), [(vec![1], 7), (vec![2], 6), (vec![3], 2)]);
        assert_eq!(level(2), [(vec![1, 2], 8), (vec![1, 3], 3)]);
        assert_eq!(level(3), [(vec![1, 2, 3], 1)]);
        assert_eq!(level(0), []);
        assert_eq!(level(4), []);
        // Size-major, then lexicographic.
        let all: Vec<_> = f.iter().map(|(i, c)| (i.clone(), c)).collect();
        assert_eq!(all, [level(1), level(2), level(3)].concat());
        assert_eq!((f.len(), f.max_len()), (6, 3));
        assert_eq!(f.support_count(&[]), None);
    }

    #[test]
    fn ranks_are_positions_in_slice_order() {
        for f in [sample(), malformed()] {
            let mut sorted: Vec<&[u32]> = f.iter().map(|(i, _)| i.as_slice()).collect();
            sorted.sort_unstable();
            for (position, &items) in sorted.iter().enumerate() {
                let rank = f.rank(items).expect("every itemset is ranked");
                assert_eq!(rank as usize, position);
                let (ranked, count) = f.ranked(rank);
                assert_eq!(ranked.as_slice(), items);
                assert_eq!(f.support_count(items), Some(count));
            }
        }
    }

    #[test]
    fn empty_result() {
        let f = FrequentItemsets::from_levels(vec![], 0);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(f.verify_downward_closure());
    }
}
