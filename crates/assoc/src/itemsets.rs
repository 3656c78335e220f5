//! The [`FrequentItemsets`] result container.

use std::collections::HashMap;

/// An itemset: a sorted, duplicate-free vector of item ids.
pub type Itemset = Vec<u32>;

/// All frequent itemsets mined from one database, organized by size
/// ("level" in the level-wise algorithms), with absolute support counts.
///
/// Every miner in this crate produces a `FrequentItemsets`; two runs over
/// the same database with the same threshold must produce equal values
/// regardless of the algorithm (enforced by the cross-algorithm tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemsets {
    /// `levels[k-1]` holds the frequent k-itemsets, lexicographically
    /// sorted, paired with their absolute support counts.
    levels: Vec<Vec<(Itemset, usize)>>,
    /// Itemset → support index for O(1) lookup.
    index: HashMap<Itemset, usize>,
    /// Number of transactions in the mined database.
    n_transactions: usize,
}

impl FrequentItemsets {
    /// Assembles the container from per-level `(itemset, count)` lists.
    ///
    /// Levels are sorted internally; empty trailing levels are trimmed.
    pub fn from_levels(mut levels: Vec<Vec<(Itemset, usize)>>, n_transactions: usize) -> Self {
        while levels.last().is_some_and(Vec::is_empty) {
            levels.pop();
        }
        let mut index = HashMap::new();
        for level in &mut levels {
            level.sort();
            for (items, count) in level.iter() {
                debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "itemsets sorted");
                index.insert(items.clone(), *count);
            }
        }
        Self {
            levels,
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
        self.levels.len()
    }

    /// Total number of frequent itemsets across all levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether no itemset is frequent.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The frequent k-itemsets (sorted), or an empty slice.
    pub fn level(&self, k: usize) -> &[(Itemset, usize)] {
        if k == 0 || k > self.levels.len() {
            &[]
        } else {
            &self.levels[k - 1]
        }
    }

    /// Number of frequent k-itemsets.
    pub fn level_len(&self, k: usize) -> usize {
        self.level(k).len()
    }

    /// Absolute support count of `itemset`, or `None` if not frequent.
    pub fn support_count(&self, itemset: &[u32]) -> Option<usize> {
        self.index.get(itemset).copied()
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
            .iter()
            .filter_map(|(items, count)| items.first().map(|&item| (item, *count)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates all `(itemset, count)` pairs, smallest itemsets first.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, usize)> {
        self.levels
            .iter()
            .flat_map(|l| l.iter().map(|(i, c)| (i, *c)))
    }

    /// Checks downward closure: every proper subset of every frequent
    /// itemset is itself present with at least the superset's support.
    /// Used by the property tests, and by rule generation to learn that
    /// growing a consequent cannot raise its rule's confidence.
    pub fn verify_downward_closure(&self) -> bool {
        let mut subset = Vec::new();
        self.iter().all(|(items, count)| {
            items.len() < 2
                || (0..items.len()).all(|skip| {
                    subset.clear();
                    subset.extend_from_slice(&items[..skip]);
                    subset.extend_from_slice(&items[skip + 1..]);
                    self.support_count(&subset).is_some_and(|sub| sub >= count)
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
        assert_eq!(f.level(0), &[]);
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

    #[test]
    fn empty_result() {
        let f = FrequentItemsets::from_levels(vec![], 0);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(f.verify_downward_closure());
    }
}
