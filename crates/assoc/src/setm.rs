//! SETM (Houtsma & Swami, ICDE 1995) — the set-oriented, SQL-style
//! miner used as the second baseline in the VLDB-'94 evaluation.
//!
//! SETM represents each pass relationally: `bar_k` is the multiset of
//! `(tid, k-itemset)` *occurrence* records. Pass `k` joins `bar_{k-1}`
//! with the transaction items (extending each occurrence by every larger
//! item of its transaction), aggregates occurrences by itemset to get
//! supports, and filters both the frequent set and the occurrence
//! relation. Because every occurrence is materialized — with no
//! `apriori-gen` pruning — SETM's intermediate relations dwarf the
//! database at low supports, which is exactly the failure mode the
//! paper's comparison (and experiment E1) exhibits.

use crate::count::{self, POLL_STRIDE};
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};
use std::collections::HashMap;
use std::time::Instant;

/// Set-oriented miner over `(tid, itemset)` occurrence relations.
#[derive(Debug, Clone)]
pub struct Setm {
    min_support: MinSupport,
    max_len: Option<usize>,
}

impl Setm {
    /// Creates a SETM miner.
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

impl ItemsetMiner for Setm {
    fn name(&self) -> &'static str {
        "setm"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();

        // SETM's occurrence relation is the workspace's worst blow-up
        // mode (no candidate pruning at all), so governance matters most
        // here: a trip inside a pass discards it, keeping only fully
        // aggregated passes.
        let obs = guard.obs();
        'mine: {
            // Pass 1: count items; bar_1 = frequent item occurrences.
            let pass1_span = obs.span("assoc.setm.pass1");
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let Ok(counts) = count::item_counts(db, guard) else {
                break 'mine;
            };
            let l1 = count::frequent_items(&counts, min_count);
            let frequent_item = {
                let mut f = vec![false; db.n_items() as usize];
                for (items, _) in &l1 {
                    f[items[0] as usize] = true;
                }
                f
            };
            // Occurrence relation: (tid, itemset).
            let mut bar: Vec<(u32, Itemset)> = Vec::new();
            for (tid, txn) in db.iter().enumerate() {
                for &item in txn {
                    if frequent_item[item as usize] {
                        bar.push((tid as u32, vec![item]));
                    }
                }
            }
            drop(pass1_span);
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            let mut k = 1usize;
            while !levels[k - 1].is_empty() && self.max_len.is_none_or(|m| k < m) {
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.setm.pass{}", k + 1));
                // Join + aggregate fused: extend each occurrence with
                // every larger item of its transaction (relational
                // semantics — no candidate pruning) while counting
                // supports, so each *distinct* candidate is admitted
                // against the budget the moment it first appears — before
                // the occurrence relation can run away.
                let mut extended: Vec<(u32, Itemset)> = Vec::new();
                let mut support: HashMap<Itemset, usize> = HashMap::new();
                for (r, (tid, itemset)) in bar.iter().enumerate() {
                    if r.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                        break 'mine;
                    }
                    let txn = db.transaction(*tid as usize);
                    let Some(&max_item) = itemset.last() else {
                        continue;
                    };
                    let from = txn.partition_point(|&i| i <= max_item);
                    for &item in &txn[from..] {
                        let mut cand = itemset.clone();
                        cand.push(item);
                        match support.entry(cand.clone()) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                if guard.try_work(1).is_err() {
                                    break 'mine;
                                }
                                e.insert(1);
                            }
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                *e.get_mut() += 1;
                            }
                        }
                        extended.push((*tid, cand));
                    }
                }
                if extended.is_empty() {
                    break;
                }
                let n_candidates = support.len();
                let mut lk: Vec<(Itemset, usize)> = support
                    .iter()
                    .filter(|&(_, &c)| c >= min_count)
                    .map(|(items, &c)| (items.clone(), c))
                    .collect();
                lk.sort();
                // Filter the occurrence relation down to frequent itemsets.
                let keep: std::collections::HashSet<&[u32]> =
                    lk.iter().map(|(i, _)| i.as_slice()).collect();
                let bar_next: Vec<(u32, Itemset)> = extended
                    .iter()
                    .filter(|(_, itemset)| keep.contains(itemset.as_slice()))
                    .cloned()
                    .collect();
                drop(extended);
                bar = bar_next;
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

        stats.record_to(guard.obs(), "setm");
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
    fn matches_apriori_on_paper_db() {
        let db = paper_db();
        for min in 1..=4 {
            let a = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
            let s = Setm::new(MinSupport::Count(min)).mine(&db).unwrap();
            assert_eq!(a.itemsets, s.itemsets, "min {min}");
        }
    }

    #[test]
    fn occurrence_relation_counts_match_reference() {
        let db = paper_db();
        let r = Setm::new(MinSupport::Count(2)).mine(&db).unwrap();
        for (itemset, count) in r.itemsets.iter() {
            assert_eq!(count, db.support_count(itemset));
        }
    }

    #[test]
    fn max_len_and_degenerate_inputs() {
        let db = paper_db();
        let r = Setm::new(MinSupport::Count(2))
            .with_max_len(1)
            .mine(&db)
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 1);
        let empty = TransactionDb::new(vec![]);
        assert!(Setm::new(MinSupport::Count(1))
            .mine(&empty)
            .unwrap()
            .itemsets
            .is_empty());
    }

    #[test]
    fn agrees_on_synthetic_workload() {
        use dm_synth::{QuestConfig, QuestGenerator};
        let db = QuestGenerator::new(QuestConfig::standard(6.0, 2.0, 600), 9)
            .unwrap()
            .generate(10);
        let a = Apriori::new(MinSupport::Fraction(0.02)).mine(&db).unwrap();
        let s = Setm::new(MinSupport::Fraction(0.02)).mine(&db).unwrap();
        assert_eq!(a.itemsets, s.itemsets);
    }
}
