//! # dm-assoc
//!
//! Association-rule mining in the style of Agrawal & Srikant, *"Fast
//! Algorithms for Mining Association Rules"* (VLDB 1994): frequent-itemset
//! discovery followed by confidence-filtered rule generation.
//!
//! ## Miners
//!
//! * [`Apriori`] — the level-wise algorithm with `apriori-gen` candidate
//!   generation and (optionally) hash-tree subset counting.
//! * [`AprioriTid`] — the variant that re-represents the database as
//!   candidate-id lists after the first pass, shrinking the data scanned
//!   in later passes.
//! * [`AprioriHybrid`] — the paper's headline algorithm: Apriori for the
//!   early passes, switching to the TID representation once it fits.
//! * [`Ais`] — the earlier Agrawal–Imielinski–Swami miner that generates
//!   candidates on the fly during each pass; one of the paper's two
//!   baselines.
//! * [`Setm`] — the set-oriented (SQL-style) miner of Houtsma & Swami;
//!   the paper's other baseline.
//! * [`BruteForce`] — an exhaustive reference miner over small item
//!   universes, used as the correctness oracle by the test suite.
//!
//! All miners implement [`ItemsetMiner`] and produce identical
//! [`FrequentItemsets`] (a property the test suite enforces), differing
//! only in the work they do — captured per pass in [`MiningStats`].
//!
//! ## Rules
//!
//! [`RuleGenerator`] runs `ap-genrules` over the mined itemsets and emits
//! [`Rule`]s with support, confidence and lift.
//!
//! ```
//! use dm_dataset::TransactionDb;
//! use dm_assoc::{Apriori, ItemsetMiner, MinSupport, RuleGenerator};
//!
//! let db = TransactionDb::new(vec![
//!     vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5],
//! ]);
//! let result = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
//! assert_eq!(result.itemsets.support_count(&[2, 3, 5]), Some(2));
//!
//! let rules = RuleGenerator::new(0.9).generate(&result.itemsets).unwrap();
//! assert!(rules.iter().all(|r| r.confidence >= 0.9));
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
pub mod ais;
pub mod apriori;
pub mod apriori_tid;
pub mod brute;
pub mod candidate;
mod count;
pub mod eclat;
pub mod fp_growth;
pub mod hash_tree;
pub mod hybrid;
pub mod itemsets;
pub mod method;
pub mod rules;
pub mod setm;
pub mod stats;

pub use ais::Ais;
pub use apriori::{Apriori, CountingStrategy};
pub use apriori_tid::AprioriTid;
pub use brute::BruteForce;
pub use eclat::Eclat;
pub use fp_growth::FpGrowth;
pub use hash_tree::HashTree;
pub use hybrid::AprioriHybrid;
pub use itemsets::{FrequentItemsets, Itemset};
pub use method::{mine, mine_governed, Method};
pub use rules::{Rule, RuleGenerator};
pub use setm::Setm;
pub use stats::{MiningStats, PassStats};

use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};

/// Minimum-support threshold, either relative or absolute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSupport {
    /// Fraction of transactions in `(0, 1]`.
    Fraction(f64),
    /// Absolute transaction count (≥ 1).
    Count(usize),
}

impl MinSupport {
    /// Resolves the threshold to an absolute count for `db`.
    pub fn resolve(self, db: &TransactionDb) -> Result<usize, DataError> {
        match self {
            MinSupport::Fraction(f) => {
                if !(f > 0.0 && f <= 1.0) {
                    return Err(DataError::InvalidParameter(format!(
                        "support fraction {f} not in (0, 1]"
                    )));
                }
                Ok(db.min_support_count(f))
            }
            MinSupport::Count(c) => {
                if c == 0 {
                    return Err(DataError::InvalidParameter(
                        "support count must be >= 1".into(),
                    ));
                }
                Ok(c)
            }
        }
    }
}

/// The output of a mining run: the frequent itemsets plus per-pass work
/// statistics.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All frequent itemsets with their support counts.
    pub itemsets: FrequentItemsets,
    /// Per-pass candidate/frequent counts and timings.
    pub stats: MiningStats,
}

/// A frequent-itemset mining algorithm.
///
/// Every miner is *governed*: [`ItemsetMiner::mine_governed`] runs under a
/// [`Guard`] and degrades gracefully when a budget trips or the run is
/// cancelled, returning everything confirmed through the last completed
/// pass. The guard's work unit for all miners is **one candidate itemset
/// admitted to counting**, so `Budget::with_max_work(10_000)` caps the
/// candidate explosion at 10k candidates regardless of algorithm.
/// [`ItemsetMiner::mine`] is the ungoverned entry point: it delegates to
/// `mine_governed` with [`Guard::unlimited`], whose result is bit-identical
/// (the equivalence tests enforce this).
pub trait ItemsetMiner {
    /// A short human-readable algorithm name (for experiment tables).
    fn name(&self) -> &'static str;

    /// Mines all frequent itemsets of `db` under the miner's threshold.
    fn mine(&self, db: &TransactionDb) -> Result<MiningResult, DataError> {
        Ok(self.mine_governed(db, &Guard::unlimited())?.result)
    }

    /// Mines under `guard`, returning the best valid partial result when
    /// truncated: all itemsets confirmed through the last *completed*
    /// pass, which keeps the result downward closed and a subset of the
    /// ungoverned run's.
    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_support_resolution() {
        let db = TransactionDb::new(vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(MinSupport::Fraction(0.5).resolve(&db).unwrap(), 2);
        assert_eq!(MinSupport::Count(3).resolve(&db).unwrap(), 3);
        assert!(MinSupport::Fraction(0.0).resolve(&db).is_err());
        assert!(MinSupport::Fraction(1.5).resolve(&db).is_err());
        assert!(MinSupport::Count(0).resolve(&db).is_err());
    }
}
