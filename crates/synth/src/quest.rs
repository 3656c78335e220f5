//! The IBM Quest synthetic market-basket generator.
//!
//! Reimplements the synthetic-data procedure of Agrawal & Srikant,
//! *"Fast Algorithms for Mining Association Rules"* (VLDB 1994), §4.1,
//! from its published description:
//!
//! 1. Draw `n_patterns` *maximal potentially large itemsets* L. Pattern
//!    lengths are Poisson with mean `avg_pattern_len`; a fraction of each
//!    pattern's items (exponentially distributed with mean
//!    `correlation`) is reused from the previous pattern, the rest are
//!    picked uniformly. Each pattern gets an exponentially distributed
//!    weight (normalized to sum 1) and a *corruption level* drawn from
//!    N(`corruption_mean`, `corruption_sd`) clamped to `[0, 1]`.
//! 2. Each transaction draws a Poisson length with mean `avg_txn_len`,
//!    then is filled by repeatedly picking weighted patterns. Before
//!    insertion a pattern is corrupted: items are dropped while a uniform
//!    variate is below the pattern's corruption level. A pattern that
//!    overflows the remaining budget is inserted anyway in half the
//!    cases and discarded otherwise (moved to the next transaction in
//!    the original; discarding preserves the same length statistics).
//!
//! The resulting databases reproduce the skewed support distribution
//! that drives the relative performance of AIS / Apriori / AprioriTid.

use crate::distributions::{exponential, normal, poisson, WeightedTable};
use dm_dataset::{DataError, TransactionDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the Quest generator, named after the paper
/// (`T|T|.I|I|.D|D|` datasets).
#[derive(Debug, Clone)]
pub struct QuestConfig {
    /// `|D|` — number of transactions.
    pub n_transactions: usize,
    /// `|T|` — average transaction length (Poisson mean).
    pub avg_txn_len: f64,
    /// `|I|` — average size of the maximal potentially large itemsets.
    pub avg_pattern_len: f64,
    /// `|L|` — number of maximal potentially large itemsets.
    pub n_patterns: usize,
    /// `N` — number of distinct items.
    pub n_items: u32,
    /// Mean fraction of a pattern reused from its predecessor (paper: 0.25).
    pub correlation: f64,
    /// Mean corruption level (paper: 0.5).
    pub corruption_mean: f64,
    /// Corruption level standard deviation (paper: 0.1).
    pub corruption_sd: f64,
}

impl QuestConfig {
    /// The paper's standard configuration `T<t>.I<i>.D<d>` with `N = 1000`
    /// items and `|L| = 2000` patterns.
    pub fn standard(avg_txn_len: f64, avg_pattern_len: f64, n_transactions: usize) -> Self {
        Self {
            n_transactions,
            avg_txn_len,
            avg_pattern_len,
            n_patterns: 2000,
            n_items: 1000,
            correlation: 0.25,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
        }
    }

    /// The conventional dataset name, e.g. `T10.I4.D100K`.
    pub fn name(&self) -> String {
        let d = self.n_transactions;
        let d_str = if d.is_multiple_of(1000) {
            format!("{}K", d / 1000)
        } else {
            d.to_string()
        };
        format!(
            "T{}.I{}.D{}",
            self.avg_txn_len as u64, self.avg_pattern_len as u64, d_str
        )
    }

    fn validate(&self) -> Result<(), DataError> {
        if self.n_items == 0 {
            return Err(DataError::InvalidParameter("n_items must be > 0".into()));
        }
        if self.avg_txn_len <= 0.0 || self.avg_pattern_len <= 0.0 {
            return Err(DataError::InvalidParameter(
                "average lengths must be positive".into(),
            ));
        }
        if self.n_patterns == 0 {
            return Err(DataError::InvalidParameter("n_patterns must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.correlation) {
            return Err(DataError::InvalidParameter(
                "correlation must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// One maximal potentially large itemset with its corruption level (its
/// sampling weight lives in the generator's [`WeightedTable`]).
#[derive(Debug, Clone)]
struct Pattern {
    items: Vec<u32>,
    corruption: f64,
}

/// The Quest generator: holds the pattern table and emits transaction
/// databases.
#[derive(Debug, Clone)]
pub struct QuestGenerator {
    config: QuestConfig,
    patterns: Vec<Pattern>,
    /// The pattern weights (normalized to sum 1), for O(log |L|) picks.
    picks: WeightedTable,
}

impl QuestGenerator {
    /// Builds the pattern table for `config` with the given seed.
    pub fn new(config: QuestConfig, seed: u64) -> Result<Self, DataError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut patterns: Vec<Pattern> = Vec::with_capacity(config.n_patterns);
        let mut weights: Vec<f64> = Vec::with_capacity(config.n_patterns);
        let mut weight_sum = 0.0;
        for p in 0..config.n_patterns {
            let len = (poisson(&mut rng, config.avg_pattern_len).max(1) as usize)
                .min(config.n_items as usize);
            let mut items: Vec<u32> = Vec::with_capacity(len);
            // Reuse a prefix of the previous pattern's items.
            if p > 0 && config.correlation > 0.0 {
                let frac = exponential(&mut rng, config.correlation).min(1.0);
                let prev = &patterns[p - 1].items;
                let n_reuse = ((frac * len as f64).round() as usize).min(prev.len());
                items.extend_from_slice(&prev[..n_reuse]);
            }
            while items.len() < len {
                let item = rng.gen_range(0..config.n_items);
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            items.sort_unstable();
            items.dedup();
            let weight = exponential(&mut rng, 1.0);
            weight_sum += weight;
            weights.push(weight);
            let corruption =
                normal(&mut rng, config.corruption_mean, config.corruption_sd).clamp(0.0, 1.0);
            patterns.push(Pattern { items, corruption });
        }
        for w in &mut weights {
            *w /= weight_sum;
        }
        Ok(Self {
            config,
            patterns,
            picks: WeightedTable::new(weights),
        })
    }

    /// The generator's configuration.
    pub fn config(&self) -> &QuestConfig {
        &self.config
    }

    /// Generates the transaction database with the given seed
    /// (independent of the pattern-table seed).
    pub fn generate(&self, seed: u64) -> TransactionDb {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut txns = Vec::with_capacity(self.config.n_transactions);
        for _ in 0..self.config.n_transactions {
            txns.push(self.draw_transaction(&mut rng));
        }
        TransactionDb::with_universe(txns, self.config.n_items)
            .unwrap_or_else(|e| panic!("generator never emits out-of-universe items: {e}"))
    }

    /// Draws one raw transaction (items unsorted, duplicates possible —
    /// `TransactionDb` canonicalizes). Shared between batch [`generate`]
    /// and the unbounded [`crate::stream::TxnStream`], so both consume
    /// the RNG identically.
    ///
    /// [`generate`]: QuestGenerator::generate
    pub(crate) fn draw_transaction(&self, rng: &mut StdRng) -> Vec<u32> {
        let budget = (poisson(rng, self.config.avg_txn_len).max(1) as usize)
            .min(self.config.n_items as usize);
        let mut txn: Vec<u32> = Vec::with_capacity(budget + 4);
        // Guard against pathological configs where corruption ~ 1.0
        // could starve progress.
        let mut attempts = 0usize;
        while txn.len() < budget && attempts < budget * 8 + 16 {
            attempts += 1;
            let pat = &self.patterns[self.picks.sample(rng)];
            // Corrupt: drop items while u < corruption level.
            let mut kept: Vec<u32> = pat.items.clone();
            while !kept.is_empty() && rng.gen::<f64>() < pat.corruption {
                let drop_at = rng.gen_range(0..kept.len());
                kept.swap_remove(drop_at);
            }
            if kept.is_empty() {
                continue;
            }
            if txn.len() + kept.len() > budget && rng.gen::<bool>() {
                // Overflowing pattern discarded half the time.
                continue;
            }
            txn.extend_from_slice(&kept);
        }
        txn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> QuestConfig {
        QuestConfig {
            n_transactions: 500,
            avg_txn_len: 10.0,
            avg_pattern_len: 4.0,
            n_patterns: 50,
            n_items: 100,
            correlation: 0.25,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
        }
    }

    #[test]
    fn config_name() {
        assert_eq!(
            QuestConfig::standard(10.0, 4.0, 100_000).name(),
            "T10.I4.D100K"
        );
        assert_eq!(QuestConfig::standard(5.0, 2.0, 1234).name(), "T5.I2.D1234");
    }

    #[test]
    fn generates_requested_shape() {
        let g = QuestGenerator::new(small(), 7).unwrap();
        let db = g.generate(11);
        assert_eq!(db.len(), 500);
        assert_eq!(db.n_items(), 100);
        // Mean transaction length in the right ballpark (corruption and
        // dedup shrink it below the Poisson mean).
        let m = db.mean_len();
        assert!(m > 3.0 && m < 14.0, "mean len {m}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = QuestGenerator::new(small(), 3).unwrap().generate(5);
        let b = QuestGenerator::new(small(), 3).unwrap().generate(5);
        assert_eq!(a, b);
        let c = QuestGenerator::new(small(), 3).unwrap().generate(6);
        assert_ne!(a, c);
    }

    #[test]
    fn different_pattern_seed_changes_output() {
        let a = QuestGenerator::new(small(), 1).unwrap().generate(5);
        let b = QuestGenerator::new(small(), 2).unwrap().generate(5);
        assert_ne!(a, b);
    }

    #[test]
    fn produces_skewed_supports() {
        // The point of the generator: some itemsets are much more frequent
        // than the uniform baseline.
        let g = QuestGenerator::new(small(), 42).unwrap();
        let db = g.generate(43);
        let mut max_support = 0usize;
        for item in 0..100u32 {
            max_support = max_support.max(db.support_count(&[item]));
        }
        // Uniform items over 500 txns of ~8 items would each appear ~40
        // times; the weighted patterns concentrate far more.
        assert!(max_support > 80, "max item support {max_support}");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = small();
        c.n_items = 0;
        assert!(QuestGenerator::new(c, 0).is_err());
        let mut c = small();
        c.avg_txn_len = 0.0;
        assert!(QuestGenerator::new(c, 0).is_err());
        let mut c = small();
        c.correlation = 1.5;
        assert!(QuestGenerator::new(c, 0).is_err());
        let mut c = small();
        c.n_patterns = 0;
        assert!(QuestGenerator::new(c, 0).is_err());
    }

    #[test]
    fn transactions_respect_universe() {
        let g = QuestGenerator::new(small(), 9).unwrap();
        let db = g.generate(10);
        for t in db.iter() {
            assert!(t.iter().all(|&i| i < 100));
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted dedup");
        }
    }
}
