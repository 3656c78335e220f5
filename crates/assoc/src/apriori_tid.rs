//! The AprioriTid algorithm (Agrawal & Srikant, VLDB 1994).
//!
//! AprioriTid generates candidates exactly like Apriori but, after pass
//! 1, never rescans the raw database: it maintains `C̄_k`, a per-
//! transaction list of the candidate ids the transaction contains. A
//! size-`k+1` candidate is contained in a transaction iff both of its
//! size-`k` generators are in the transaction's list, so each pass is a
//! join over the (shrinking) `C̄` representation. Transactions whose
//! lists empty out are dropped entirely — the behaviour that makes the
//! algorithm fast in late passes and memory-hungry in pass 2.

use crate::candidate::{apriori_gen, gen_pairs};
use crate::count;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};
use dm_obs::HeapSize;
use std::time::Instant;

/// Frequent-itemset miner using the candidate-id list representation.
#[derive(Debug, Clone)]
pub struct AprioriTid {
    min_support: MinSupport,
    max_len: Option<usize>,
}

impl AprioriTid {
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

impl ItemsetMiner for AprioriTid {
    fn name(&self) -> &'static str {
        "apriori-tid"
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
            // The VLDB'94 comparison point: C̄_k is "large" or "small"
            // relative to the raw transaction buffers.
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }

        // A trip anywhere inside a pass discards that pass; `levels`
        // only ever holds fully joined passes (see the trait docs).
        'mine: {
            // ---- Pass 1: dense item counting + initial C̄_1. ----
            let pass1_span = obs.span("assoc.apriori_tid.pass1");
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let Ok(counts) = count::item_counts(db, guard) else {
                break 'mine;
            };
            let l1 = count::frequent_items(&counts, min_count);
            // Dense id per frequent item.
            let mut item_id = vec![u32::MAX; db.n_items() as usize];
            for (id, (items, _)) in l1.iter().enumerate() {
                item_id[items[0] as usize] = id as u32;
            }
            // C̄_1: per transaction, the (sorted) ids of its frequent items.
            let mut tidlists: Vec<Vec<u32>> = db
                .iter()
                .map(|txn| {
                    txn.iter()
                        .map(|&i| item_id[i as usize])
                        .filter(|&id| id != u32::MAX)
                        .collect::<Vec<u32>>()
                })
                .filter(|ids: &Vec<u32>| !ids.is_empty())
                .collect();
            if obs.enabled() {
                let ck = tidlists.heap_bytes() as f64;
                obs.gauge_max("assoc.apriori_tid.pass1.ck_mem_bytes", ck);
                obs.gauge_max("assoc.mem.ck_bytes", ck);
            }
            drop(pass1_span);
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            // ---- Passes k ≥ 2 over the C̄ representation. ----
            let mut k = 1usize;
            loop {
                if self.max_len.is_some_and(|m| k >= m) {
                    break;
                }
                let prev = &levels[k - 1];
                if prev.len() < 2 {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.apriori_tid.pass{}", k + 1));
                let prev_sets: Vec<Itemset> = prev.iter().map(|(i, _)| i.clone()).collect();
                let candidates = if k == 1 {
                    gen_pairs(&prev_sets.iter().map(|i| i[0]).collect::<Vec<_>>())
                } else {
                    apriori_gen(&prev_sets)
                };
                if candidates.is_empty() {
                    break;
                }
                let n_candidates = candidates.len();
                if guard.try_work(n_candidates as u64).is_err() {
                    break 'mine;
                }

                let Ok((lk, next)) = count::tid_join(
                    &prev_sets,
                    candidates,
                    &tidlists,
                    k + 1,
                    min_count,
                    guard,
                    "apriori_tid",
                ) else {
                    break 'mine;
                };
                tidlists = next;

                drop(pass_span);
                stats.push(k + 1, n_candidates, lk.len(), t0.elapsed());
                let done = lk.is_empty();
                levels.push(lk);
                k += 1;
                if done || tidlists.is_empty() {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "apriori_tid");
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apriori;

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
        let result = AprioriTid::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn agrees_with_apriori_on_paper_db() {
        let db = paper_db();
        for min in 1..=4 {
            let a = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
            let b = AprioriTid::new(MinSupport::Count(min)).mine(&db).unwrap();
            assert_eq!(a.itemsets, b.itemsets, "min_count {min}");
        }
    }

    #[test]
    fn candidate_counts_match_apriori() {
        // The candidate sets are identical by construction; the per-pass
        // stats must agree on candidate and frequent counts.
        let db = paper_db();
        let a = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        let b = AprioriTid::new(MinSupport::Count(2)).mine(&db).unwrap();
        for (pa, pb) in a.stats.passes.iter().zip(&b.stats.passes) {
            assert_eq!(pa.candidates, pb.candidates, "pass {}", pa.pass);
            assert_eq!(pa.frequent, pb.frequent, "pass {}", pa.pass);
        }
    }

    #[test]
    fn empty_and_degenerate_databases() {
        let empty = TransactionDb::new(vec![]);
        assert!(AprioriTid::new(MinSupport::Count(1))
            .mine(&empty)
            .unwrap()
            .itemsets
            .is_empty());
        let singles = TransactionDb::new(vec![vec![0], vec![1]]);
        let r = AprioriTid::new(MinSupport::Count(1))
            .mine(&singles)
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 1);
    }

    #[test]
    fn max_len_respected() {
        let r = AprioriTid::new(MinSupport::Count(2))
            .with_max_len(2)
            .mine(&paper_db())
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 2);
    }
}
