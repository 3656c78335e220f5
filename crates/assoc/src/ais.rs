//! The AIS algorithm (Agrawal, Imielinski & Swami, SIGMOD 1993) — the
//! pre-Apriori miner used as the baseline in the VLDB-'94 evaluation.
//!
//! AIS is level-wise too, but it has no separate candidate-generation
//! step: during pass `k`, every frequent `(k-1)`-itemset found inside a
//! transaction is extended *on the fly* with each larger item of that
//! transaction, and the extension's count is bumped in a hash table.
//! Because extensions are generated per transaction rather than once
//! from `L_{k-1} ⋈ L_{k-1}`, AIS counts far more distinct candidates
//! than Apriori — the effect experiments E1–E2 reproduce.

use crate::count::{self, POLL_STRIDE};
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::transactions::is_subset_sorted;
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};
use std::collections::HashMap;
use std::time::Instant;

/// Frequent-itemset miner with on-the-fly candidate extension.
#[derive(Debug, Clone)]
pub struct Ais {
    min_support: MinSupport,
    max_len: Option<usize>,
}

impl Ais {
    /// Creates a miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            max_len: None,
        }
    }

    /// Stops after mining itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }
}

impl ItemsetMiner for Ais {
    fn name(&self) -> &'static str {
        "ais"
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
        // A trip anywhere inside a pass discards that pass (see the
        // trait docs); only fully counted passes reach `levels`.
        'mine: {
            // Pass 1: dense item counting (identical to Apriori's pass 1).
            let pass1_span = obs.span("assoc.ais.pass1");
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let Ok(counts) = count::item_counts(db, guard) else {
                break 'mine;
            };
            let l1 = count::frequent_items(&counts, min_count);
            drop(pass1_span);
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            let mut k = 1usize;
            loop {
                if self.max_len.is_some_and(|m| m <= k) {
                    break;
                }
                let prev = &levels[k - 1];
                if prev.is_empty() {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.ais.pass{}", k + 1));
                // Extend every frequent (k-1)-itemset found in each
                // transaction with each later transaction item. AIS only
                // discovers its candidates *during* the scan, so work is
                // charged incrementally: after each transaction, the
                // candidates it introduced are admitted against the
                // budget, bounding the overshoot of a work cap by one
                // transaction's extensions.
                let mut candidate_counts: HashMap<Itemset, usize> = HashMap::new();
                let mut charged = 0u64;
                for (t, txn) in db.iter().enumerate() {
                    if t.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                        break 'mine;
                    }
                    if txn.len() < k + 1 {
                        continue;
                    }
                    for (seed, _) in prev.iter() {
                        if !is_subset_sorted(seed, txn) {
                            continue;
                        }
                        let Some(&max_item) = seed.last() else {
                            continue;
                        };
                        let from = txn.partition_point(|&i| i <= max_item);
                        for &ext in &txn[from..] {
                            let mut cand: Itemset = Vec::with_capacity(seed.len() + 1);
                            cand.extend_from_slice(seed);
                            cand.push(ext);
                            *candidate_counts.entry(cand).or_insert(0) += 1;
                        }
                    }
                    let delta = candidate_counts.len() as u64 - charged;
                    if delta > 0 {
                        if guard.try_work(delta).is_err() {
                            break 'mine;
                        }
                        charged += delta;
                    }
                }
                let n_candidates = candidate_counts.len();
                if n_candidates == 0 {
                    break;
                }
                let mut lk: Vec<(Itemset, usize)> = candidate_counts
                    .into_iter()
                    .filter(|&(_, c)| c >= min_count)
                    .collect();
                lk.sort();
                drop(pass_span);
                stats.push(k + 1, n_candidates, lk.len(), t0.elapsed());
                let done = lk.is_empty();
                levels.push(lk);
                k += 1;
                if done {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "ais");
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Apriori, AprioriTid};

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn matches_paper_example() {
        let f = Ais::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap()
            .itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
    }

    #[test]
    fn all_three_miners_agree() {
        let db = paper_db();
        for min in 1..=3 {
            let a = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
            let t = AprioriTid::new(MinSupport::Count(min)).mine(&db).unwrap();
            let s = Ais::new(MinSupport::Count(min)).mine(&db).unwrap();
            assert_eq!(a.itemsets, t.itemsets, "min {min}");
            assert_eq!(a.itemsets, s.itemsets, "min {min}");
        }
    }

    #[test]
    fn ais_counts_more_candidates_than_apriori() {
        // The defining inefficiency: AIS extends per transaction, so its
        // pass-2 candidate set includes pairs Apriori never generates
        // (extensions of frequent items with infrequent items).
        let db = TransactionDb::new(vec![
            vec![0, 1, 7],
            vec![0, 1, 8],
            vec![0, 1, 9],
            vec![0, 1],
        ]);
        let a = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        let s = Ais::new(MinSupport::Count(2)).mine(&db).unwrap();
        assert_eq!(a.itemsets, s.itemsets);
        let a_pass2 = a.stats.passes[1].candidates;
        let s_pass2 = s.stats.passes[1].candidates;
        assert!(
            s_pass2 > a_pass2,
            "AIS candidates {s_pass2} should exceed Apriori's {a_pass2}"
        );
    }

    #[test]
    fn max_len_and_empty_db() {
        let r = Ais::new(MinSupport::Count(2))
            .with_max_len(1)
            .mine(&paper_db())
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 1);
        let empty = TransactionDb::new(vec![]);
        assert!(Ais::new(MinSupport::Count(1))
            .mine(&empty)
            .unwrap()
            .itemsets
            .is_empty());
    }
}
