//! Unbounded seeded stream generators for `dm-stream`.
//!
//! The batch generators in this crate emit a whole dataset at once;
//! streaming engines instead want an endless, deterministic source they
//! can pull one record at a time. Both iterators here are infinite
//! (`next` never returns `None`) — take as many records as the
//! experiment needs, and the same seed always yields the same sequence,
//! so prefix-equivalence tests can replay a stream exactly.

use crate::distributions::{normal, WeightedTable};
use crate::{GaussianMixture, QuestGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An infinite stream of labelled points drawn from a Gaussian mixture.
///
/// Unlike [`GaussianMixture::generate`], which emits per-component
/// blocks, the stream interleaves: each draw first picks a component
/// (weighted by its configured `count`, plus the noise weight), then
/// samples it — the arrival order a live feed would actually have.
#[derive(Debug, Clone)]
pub struct PointStream {
    mixture: GaussianMixture,
    picks: WeightedTable,
    rng: StdRng,
}

impl PointStream {
    /// A stream over `mixture`'s components, seeded independently of
    /// any batch generation.
    ///
    /// # Panics
    /// Panics if the mixture has no points to draw: every component
    /// count and the noise count are zero.
    pub fn new(mixture: GaussianMixture, seed: u64) -> Self {
        let mut weights: Vec<f64> = mixture
            .components()
            .iter()
            .map(|c| c.count as f64)
            .collect();
        let (noise_count, _) = mixture.noise_config();
        if noise_count > 0 {
            weights.push(noise_count as f64);
        }
        Self {
            mixture,
            picks: WeightedTable::new(weights),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Dimensionality of emitted points.
    pub fn dims(&self) -> usize {
        self.mixture.dims()
    }
}

impl Iterator for PointStream {
    /// `(point, ground-truth label)`; noise is labelled `k`.
    type Item = (Vec<f64>, u32);

    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.picks.sample(&mut self.rng);
        let comps = self.mixture.components();
        if idx < comps.len() {
            let comp = &comps[idx];
            let p = comp
                .center
                .iter()
                .map(|&mu| normal(&mut self.rng, mu, comp.std))
                .collect();
            Some((p, idx as u32))
        } else {
            // Noise component: uniform over the mixture's noise extent.
            let (_, extent) = self.mixture.noise_config();
            let d = self.mixture.dims();
            let p = (0..d)
                .map(|_| self.rng.gen_range(-extent..=extent))
                .collect();
            Some((p, comps.len() as u32))
        }
    }
}

/// An infinite stream of market-basket transactions drawn from a Quest
/// pattern table.
///
/// Each emitted transaction is canonical (sorted, deduplicated), ready
/// for the incremental frequent-itemset engine.
#[derive(Debug, Clone)]
pub struct TxnStream {
    generator: QuestGenerator,
    rng: StdRng,
}

impl TxnStream {
    /// A stream over `generator`'s pattern table, seeded independently
    /// of the pattern-table seed.
    pub fn new(generator: QuestGenerator, seed: u64) -> Self {
        Self {
            generator,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The item universe size.
    pub fn n_items(&self) -> u32 {
        self.generator.config().n_items
    }
}

impl Iterator for TxnStream {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut txn = self.generator.draw_transaction(&mut self.rng);
        txn.sort_unstable();
        txn.dedup();
        Some(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuestConfig;

    fn quest() -> QuestGenerator {
        QuestGenerator::new(
            QuestConfig {
                n_transactions: 1,
                avg_txn_len: 8.0,
                avg_pattern_len: 4.0,
                n_patterns: 30,
                n_items: 60,
                correlation: 0.25,
                corruption_mean: 0.5,
                corruption_sd: 0.1,
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn point_stream_is_deterministic_and_labelled() {
        let gm = GaussianMixture::well_separated(3, 2, 100, 8.0).unwrap();
        let a: Vec<_> = PointStream::new(gm.clone(), 9).take(200).collect();
        let b: Vec<_> = PointStream::new(gm.clone(), 9).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<_> = PointStream::new(gm, 10).take(200).collect();
        assert_ne!(a, c);
        assert!(a.iter().all(|(p, l)| p.len() == 2 && *l < 3));
        // All three components show up in a couple hundred draws.
        for label in 0..3u32 {
            assert!(a.iter().any(|(_, l)| *l == label), "label {label} missing");
        }
    }

    #[test]
    fn txn_stream_is_deterministic_and_canonical() {
        let a: Vec<_> = TxnStream::new(quest(), 3).take(300).collect();
        let b: Vec<_> = TxnStream::new(quest(), 3).take(300).collect();
        assert_eq!(a, b);
        for t in &a {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            assert!(t.iter().all(|&i| i < 60), "inside the universe");
        }
        assert!(a.iter().any(|t| !t.is_empty()));
    }

    #[test]
    fn txn_stream_matches_batch_distribution() {
        // The stream and the batch generator share draw_transaction, so
        // the same (pattern seed, data seed) yields the same raw rows.
        let g = quest();
        let batch = g.generate(5);
        let streamed: Vec<_> = TxnStream::new(g, 5).take(1).collect();
        assert_eq!(batch.transaction(0), streamed[0].as_slice());
    }
}
