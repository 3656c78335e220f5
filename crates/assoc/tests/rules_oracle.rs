//! `RuleGenerator::generate` against a straightforward reference copy
//! of `ap-genrules`: one antecedent `Vec` per consequent tried, hashed
//! lookups through `FrequentItemsets::support_count`, `apriori_gen` for
//! the next consequent level, and a stable comparison sort. The two must
//! agree rule for rule, bit for bit, in order.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_assoc::candidate::apriori_gen;
use dm_assoc::{
    BruteForce, FrequentItemsets, Itemset, ItemsetMiner, MinSupport, Rule, RuleGenerator,
};
use dm_dataset::TransactionDb;
use proptest::prelude::*;

/// The reference generator, as `RuleGenerator::generate` once was.
fn oracle(itemsets: &FrequentItemsets, min_confidence: f64) -> Vec<Rule> {
    let n = itemsets.n_transactions() as f64;
    let mut rules = Vec::new();
    if n == 0.0 {
        return rules;
    }
    for size in 2..=itemsets.max_len() {
        for (items, count) in itemsets.level(size) {
            let support = *count as f64 / n;
            let mut consequents: Vec<Itemset> = items.iter().map(|&i| vec![i]).collect();
            while !consequents.is_empty() {
                let mut survivors: Vec<Itemset> = Vec::new();
                for consequent in consequents {
                    if consequent.len() >= items.len() {
                        continue;
                    }
                    let antecedent: Itemset = items
                        .iter()
                        .copied()
                        .filter(|i| !consequent.contains(i))
                        .collect();
                    let Some(ante_count) = itemsets.support_count(&antecedent) else {
                        continue;
                    };
                    let confidence = *count as f64 / ante_count as f64;
                    if confidence >= min_confidence {
                        let Some(cons_count) = itemsets.support_count(&consequent) else {
                            continue;
                        };
                        rules.push(Rule {
                            antecedent,
                            consequent: consequent.clone(),
                            support,
                            confidence,
                            lift: confidence / (cons_count as f64 / n),
                        });
                        survivors.push(consequent);
                    }
                }
                survivors.sort();
                consequents = apriori_gen(&survivors);
            }
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.total_cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules
}

/// A database of up to 30 transactions over up to 9 items, so that the
/// exhaustive miner stays cheap and itemsets reach 4–6 items.
fn small_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..9, 0..7), 1..30).prop_map(TransactionDb::new)
}

/// A confidence threshold in `[0, 1]`: often exactly 0 or 1, often on
/// a grid of twelfths (where ties with real confidences are likely), else
/// uniform.
fn confidence() -> impl Strategy<Value = f64> {
    (0u8..4, 0u32..=12, 0.0f64..=1.0).prop_map(|(pick, twelfths, uniform)| match pick {
        0 => 0.0,
        1 => 1.0,
        2 => f64::from(twelfths) / 12.0,
        _ => uniform,
    })
}

/// Sorted, duplicate-free itemsets, placed at arbitrary levels.
fn arbitrary_levels() -> impl Strategy<Value = (Vec<Vec<(Itemset, usize)>>, usize)> {
    let itemset = prop::collection::vec(0u32..8, 0..6).prop_map(|mut items| {
        items.sort_unstable();
        items.dedup();
        items
    });
    let level = prop::collection::vec((itemset, 0usize..40), 0..12);
    (prop::collection::vec(level, 0..6), 0usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generate_matches_the_reference_generator(db in small_db(), min in 1usize..5, conf in confidence()) {
        let mined = BruteForce::new(MinSupport::Count(min)).mine(&db).unwrap();
        let rules = RuleGenerator::new(conf).generate(&mined.itemsets).unwrap();
        prop_assert_eq!(rules, oracle(&mined.itemsets, conf));
    }

    #[test]
    fn generate_survives_arbitrary_itemsets((levels, n) in arbitrary_levels(), conf in confidence()) {
        // Unsorted levels, duplicates, itemsets filed at the wrong size,
        // missing subsets and zero counts or transactions: no panic, and
        // still the reference generator's output.
        let itemsets = FrequentItemsets::from_levels(levels, n);
        let rules = RuleGenerator::new(conf).generate(&itemsets).unwrap();
        prop_assert!(rules.iter().all(|r| r.confidence >= conf));
        prop_assert_eq!(rules, oracle(&itemsets, conf));
    }
}

/// Counts that break downward closure make the consequent prune
/// observable. In {1,2,3,4} the consequents {2,3} and {2,4} survive and
/// join into {2,3,4}, whose subset {3,4} missed the threshold, so
/// {1} ⇒ {2,3,4} must stay out even though its confidence is 1.
#[test]
fn pruned_consequents_stay_pruned_on_non_monotone_counts() {
    let itemsets = FrequentItemsets::from_levels(
        vec![
            vec![(vec![1], 2), (vec![2], 9), (vec![3], 9), (vec![4], 9)],
            vec![
                (vec![1, 2], 9),
                (vec![1, 3], 2),
                (vec![1, 4], 2),
                (vec![2, 3], 9),
                (vec![2, 4], 9),
                (vec![3, 4], 9),
            ],
            vec![
                (vec![1, 2, 3], 2),
                (vec![1, 2, 4], 2),
                (vec![1, 3, 4], 2),
                (vec![2, 3, 4], 9),
            ],
            vec![(vec![1, 2, 3, 4], 2)],
        ],
        10,
    );
    let rules = RuleGenerator::new(0.5).generate(&itemsets).unwrap();
    assert!(!rules
        .iter()
        .any(|r| r.antecedent == [1] && r.consequent == [2, 3, 4]));
    assert_eq!(rules, oracle(&itemsets, 0.5));
}
