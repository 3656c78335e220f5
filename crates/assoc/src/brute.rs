//! Exhaustive reference miner used as the correctness oracle.

use crate::count::POLL_STRIDE;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};
use std::time::Instant;

/// Upper bound on the item universe accepted by [`BruteForce`]; beyond
/// this the 2^N subset enumeration is infeasible and certainly a bug in
/// the caller.
pub const MAX_BRUTE_ITEMS: u32 = 20;

/// Enumerates *every* subset of the item universe and counts its support
/// with a full database scan. Exponential — only usable on tiny
/// universes, which is exactly its role: the oracle the property tests
/// compare the real miners against.
#[derive(Debug, Clone)]
pub struct BruteForce {
    min_support: MinSupport,
    max_len: Option<usize>,
}

impl BruteForce {
    /// Creates a reference miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            max_len: None,
        }
    }

    /// Stops after itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }
}

impl ItemsetMiner for BruteForce {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let n = db.n_items();
        if n > MAX_BRUTE_ITEMS {
            return Err(DataError::InvalidParameter(format!(
                "brute-force mining over {n} items would enumerate 2^{n} subsets \
                 (limit {MAX_BRUTE_ITEMS})"
            )));
        }
        let t0 = Instant::now();
        // Brute force is a single enumeration "pass" over all sizes.
        let pass_span = guard.obs().span("assoc.brute.pass1");
        let max_len = self.max_len.unwrap_or(n as usize).min(n as usize);
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let mut candidates_total = 0usize;
        // Enumerate subsets size-major (Gosper's hack walks the masks of
        // each popcount in order) so a budget trip discards at most the
        // level in flight and the surviving levels stay downward closed.
        'mine: for size in 1..=max_len {
            let level_candidates = binomial(n as u64, size as u64);
            if guard.try_work(level_candidates).is_err() {
                break 'mine;
            }
            let mut level: Vec<(Itemset, usize)> = Vec::new();
            let mut mask: u32 = (1u32 << size) - 1;
            let limit: u32 = 1u32 << n;
            let mut visited = 0usize;
            while mask < limit {
                if visited.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                    break 'mine;
                }
                visited += 1;
                candidates_total += 1;
                let itemset: Itemset = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                let count = db.support_count(&itemset);
                if count >= min_count {
                    level.push((itemset, count));
                }
                // Gosper's hack: next mask with the same popcount.
                let c = mask & mask.wrapping_neg();
                let r = mask + c;
                if r >= limit || c == 0 {
                    break;
                }
                mask = (((r ^ mask) >> 2) / c) | r;
            }
            let done = level.is_empty();
            levels.push(level);
            if done {
                break;
            }
        }
        drop(pass_span);
        let itemsets = FrequentItemsets::from_levels(levels, db.len());
        let mut stats = MiningStats::default();
        stats.push(1, candidates_total, itemsets.len(), t0.elapsed());
        stats.record_to(guard.obs(), "brute");
        Ok(guard.outcome(MiningResult { itemsets, stats }))
    }
}

/// `C(n, k)` without overflow for the tiny universes brute force allows.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
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
    fn matches_paper_example() {
        let f = BruteForce::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap()
            .itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn rejects_large_universes() {
        let db = TransactionDb::new(vec![vec![0, 25]]);
        assert!(BruteForce::new(MinSupport::Count(1)).mine(&db).is_err());
    }

    #[test]
    fn max_len_cap() {
        let f = BruteForce::new(MinSupport::Count(2))
            .with_max_len(1)
            .mine(&paper_db())
            .unwrap()
            .itemsets;
        assert_eq!(f.max_len(), 1);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::new(vec![]);
        let f = BruteForce::new(MinSupport::Count(1))
            .mine(&db)
            .unwrap()
            .itemsets;
        assert!(f.is_empty());
    }
}
