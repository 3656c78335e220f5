//! The Apriori algorithm (Agrawal & Srikant, VLDB 1994).

use crate::candidate::apriori_gen;
use crate::count;
use crate::hash_tree::HashTree;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::transactions::is_subset_sorted;
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::Parallelism;
use std::time::Instant;

/// How candidate supports are counted in passes ≥ 3 (pass 2 always
/// uses the dense triangular pair array, per the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountingStrategy {
    /// Hash-tree subset counting (the paper's data structure).
    HashTree {
        /// Hash buckets per interior node.
        fanout: usize,
        /// Candidates per leaf before splitting.
        leaf_capacity: usize,
    },
    /// Check every candidate against every transaction — the naive
    /// baseline, kept for the ablation benchmark.
    Linear,
}

impl Default for CountingStrategy {
    fn default() -> Self {
        CountingStrategy::HashTree {
            fanout: 8,
            leaf_capacity: 16,
        }
    }
}

/// Level-wise frequent-itemset miner with `apriori-gen` candidate
/// generation.
///
/// Pass 1 counts single items with a dense array; each later pass `k`
/// generates candidates from the frequent `(k-1)`-itemsets, counts them
/// in one database scan, and keeps those meeting the threshold.
#[derive(Debug, Clone)]
pub struct Apriori {
    min_support: MinSupport,
    counting: CountingStrategy,
    max_len: Option<usize>,
    pair_array: bool,
    parallelism: Parallelism,
}

impl Apriori {
    /// Creates a miner with the default (hash tree) counting strategy.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            counting: CountingStrategy::default(),
            max_len: None,
            pair_array: true,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how support counting is spread across threads (Count
    /// Distribution: each thread counts a shard of the database into a
    /// private counter array; shard counters merge by summation, so the
    /// result is identical for every [`Parallelism`] setting).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the counting strategy.
    pub fn with_counting(mut self, counting: CountingStrategy) -> Self {
        self.counting = counting;
        self
    }

    /// Enables/disables the dense triangular array for pass 2 (on by
    /// default). Disabling routes the pair pass through the configured
    /// [`CountingStrategy`] — only useful for the ablation benchmark,
    /// which quantifies how much the array matters.
    pub fn with_pair_array(mut self, pair_array: bool) -> Self {
        self.pair_array = pair_array;
        self
    }

    /// Stops after mining itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Counts `candidates` over the database with the configured strategy.
    fn count_candidates(
        &self,
        db: &TransactionDb,
        candidates: Vec<Itemset>,
        k: usize,
        min_count: usize,
        guard: &Guard,
    ) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
        match self.counting {
            CountingStrategy::HashTree {
                fanout,
                leaf_capacity,
            } => count::hash_tree_pass(
                self.parallelism,
                db,
                HashTree::build(candidates, k, fanout, leaf_capacity),
                k,
                min_count,
                guard,
                "apriori",
            ),
            CountingStrategy::Linear => {
                let counts = count::sharded(
                    self.parallelism,
                    db,
                    guard,
                    || vec![0usize; candidates.len()],
                    |counts, txn| {
                        if txn.len() < k {
                            return;
                        }
                        for (cand, count) in candidates.iter().zip(counts) {
                            if is_subset_sorted(cand, txn) {
                                *count += 1;
                            }
                        }
                    },
                    count::merge_counts,
                )?;
                let mut counted: Vec<(Itemset, usize)> = candidates
                    .into_iter()
                    .zip(counts)
                    .filter(|&(_, c)| c >= min_count)
                    .collect();
                counted.sort();
                Ok(counted)
            }
        }
    }
}

impl ItemsetMiner for Apriori {
    fn name(&self) -> &'static str {
        match self.counting {
            CountingStrategy::HashTree { .. } => "apriori",
            CountingStrategy::Linear => "apriori-linear",
        }
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let obs = guard.obs();
        if obs.enabled() {
            // Reference point for every *_mem_bytes comparison: the raw
            // transaction buffers (the paper's "size of the database").
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }

        // Each pass is all-or-nothing under the guard: work units
        // (candidates) are admitted before counting starts, and a trip
        // mid-pass discards that pass entirely, so `levels` only ever
        // holds fully counted passes — keeping truncated results
        // downward closed and a subset of the ungoverned run.
        'mine: {
            // Pass 1: every item is a candidate.
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let counts = {
                let _pass = obs.span("assoc.apriori.pass1");
                count::item_counts_sharded(self.parallelism, db, guard)
            };
            let Ok(counts) = counts else {
                break 'mine;
            };
            let l1 = count::frequent_items(&counts, min_count);
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            let mut k = 1usize;
            loop {
                if self.max_len.is_some_and(|m| k >= m) {
                    break;
                }
                if levels[k - 1].len() < 2 {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.apriori.pass{}", k + 1));
                let pass: Result<(Vec<(Itemset, usize)>, usize), TruncationReason> = if k == 1
                    && self.pair_array
                {
                    // Dense triangular-array counting for the pair pass.
                    // The candidate count is known analytically, so the
                    // work is admitted *before* the array is even
                    // allocated.
                    let m = levels[0].len();
                    let n_pairs = m * (m - 1) / 2;
                    guard
                        .try_work(n_pairs as u64)
                        .and_then(|()| {
                            count::frequent_pairs(
                                self.parallelism,
                                db,
                                &levels[0],
                                min_count,
                                guard,
                            )
                        })
                        .map(|frequent| (frequent, n_pairs))
                } else {
                    let prev: Vec<Itemset> = levels[k - 1].iter().map(|(i, _)| i.clone()).collect();
                    let candidates = if k == 1 {
                        crate::candidate::gen_pairs(&prev.iter().map(|i| i[0]).collect::<Vec<_>>())
                    } else {
                        apriori_gen(&prev)
                    };
                    let n = candidates.len();
                    guard
                        .try_work(n as u64)
                        .and_then(|()| {
                            self.count_candidates(db, candidates, k + 1, min_count, guard)
                        })
                        .map(|frequent| (frequent, n))
                };
                drop(pass_span);
                let Ok((frequent, n_candidates)) = pass else {
                    break 'mine;
                };
                if n_candidates == 0 {
                    break;
                }
                stats.push(k + 1, n_candidates, frequent.len(), t0.elapsed());
                let done = frequent.is_empty();
                levels.push(frequent);
                k += 1;
                if done {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "apriori");
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn mines_the_paper_example() {
        let result = Apriori::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        // L1 = {1},{2},{3},{5}; item 4 infrequent.
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.support_count(&[4]), None);
        // L2 = {13},{23},{25},{35}.
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.support_count(&[1, 3]), Some(2));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1, 2]), None);
        // L3 = {235}.
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert_eq!(f.max_len(), 3);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn stats_track_candidates_per_pass() {
        let result = Apriori::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let s = &result.stats;
        assert!(s.n_passes() >= 3);
        // Pass 2 candidates: C(4,2) = 6 pairs.
        assert_eq!(s.passes[1].candidates, 6);
        assert_eq!(s.passes[1].frequent, 4);
        // Pass 3: only {2,3,5} survives apriori-gen.
        assert_eq!(s.passes[2].candidates, 1);
        assert_eq!(s.passes[2].frequent, 1);
    }

    #[test]
    fn linear_and_hashtree_agree() {
        let db = paper_db();
        let a = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        let b = Apriori::new(MinSupport::Count(2))
            .with_counting(CountingStrategy::Linear)
            .mine(&db)
            .unwrap();
        assert_eq!(a.itemsets, b.itemsets);
    }

    #[test]
    fn max_len_caps_mining() {
        let result = Apriori::new(MinSupport::Count(2))
            .with_max_len(2)
            .mine(&paper_db())
            .unwrap();
        assert_eq!(result.itemsets.max_len(), 2);
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let result = Apriori::new(MinSupport::Count(5))
            .mine(&paper_db())
            .unwrap();
        assert!(result.itemsets.is_empty());
    }

    #[test]
    fn fraction_threshold() {
        // 0.75 of 4 = 3 transactions.
        let result = Apriori::new(MinSupport::Fraction(0.75))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.support_count(&[2]), Some(3));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1]), None);
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new(vec![]);
        let result = Apriori::new(MinSupport::Count(1)).mine(&db).unwrap();
        assert!(result.itemsets.is_empty());
    }

    #[test]
    fn singleton_transactions() {
        let db = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
        let result = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        assert_eq!(result.itemsets.len(), 1);
        assert_eq!(result.itemsets.support_count(&[0]), Some(2));
    }
}
