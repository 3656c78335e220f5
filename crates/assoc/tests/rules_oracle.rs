//! `RuleGenerator::generate` against a straightforward reference copy
//! of `ap-genrules`: one antecedent `Vec` per consequent tried, hashed
//! lookups through `FrequentItemsets::support_count`, `apriori_gen` for
//! the next consequent level, and a stable comparison sort. The two must
//! agree rule for rule, bit for bit, in order. `generate_top(n)` must
//! return exactly the first `n` of those rules.

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
            let support = count as f64 / n;
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
                    let confidence = count as f64 / ante_count as f64;
                    if confidence >= min_confidence {
                        let Some(cons_count) = itemsets.support_count(&consequent) else {
                            continue;
                        };
                        rules.push(Rule::new(
                            &antecedent,
                            &consequent,
                            support,
                            confidence,
                            confidence / (cons_count as f64 / n),
                        ));
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
            .then(a.antecedent().cmp(b.antecedent()))
            .then(a.consequent().cmp(b.consequent()))
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

/// A rule count to ask `generate_top` for, given the full output's
/// length: 0, 1, `len - 1`, `len`, `len + 1`, `2 len`, or any up to
/// `2 len + 2`.
fn top_n(len: usize, pick: u8, any: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => len.saturating_sub(1),
        3 => len,
        4 => len + 1,
        5 => 2 * len,
        _ => any % (2 * len + 3),
    }
}

/// `generate_top(n)` against the head of `generate()`.
fn assert_top_is_head(generator: &RuleGenerator, itemsets: &FrequentItemsets, n: usize) {
    let all = generator.generate(itemsets).unwrap();
    let top = generator.generate_top(itemsets, n).unwrap();
    assert_eq!(top, &all[..n.min(all.len())], "n = {n} of {}", all.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generate_top_is_the_head_of_generate(
        db in small_db(),
        min in 1usize..5,
        conf in confidence(),
        pick in 0u8..7,
        any in 0usize..1000,
    ) {
        let mined = BruteForce::new(MinSupport::Count(min)).mine(&db).unwrap();
        let generator = RuleGenerator::new(conf);
        let len = generator.generate(&mined.itemsets).unwrap().len();
        assert_top_is_head(&generator, &mined.itemsets, top_n(len, pick, any));
    }

    #[test]
    fn generate_top_is_the_head_of_generate_on_arbitrary_itemsets(
        (levels, n) in arbitrary_levels(),
        conf in confidence(),
        pick in 0u8..7,
        any in 0usize..1000,
    ) {
        // Counts that rise with itemset size must not let the floor
        // prune a consequent whose extension outranks it.
        let itemsets = FrequentItemsets::from_levels(levels, n);
        let generator = RuleGenerator::new(conf);
        let len = generator.generate(&itemsets).unwrap().len();
        assert_top_is_head(&generator, &itemsets, top_n(len, pick, any));
    }

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
        .any(|r| r.antecedent() == [1] && r.consequent() == [2, 3, 4]));
    assert_eq!(rules, oracle(&itemsets, 0.5));
}

/// Six rules of confidence 1, more than `2n` for `n = 2`: the floor
/// reaches 1 after the first four, and the two best rules come after
/// that, tied with the floor.
#[test]
fn rules_tied_with_the_floor_are_kept() {
    let mut txns = vec![vec![1, 2], vec![1, 2], vec![3, 4], vec![3, 4]];
    txns.extend(std::iter::repeat_n(vec![5, 6], 9));
    let db = TransactionDb::new(txns);
    let mined = BruteForce::new(MinSupport::Count(2)).mine(&db).unwrap();
    let generator = RuleGenerator::new(0.5);
    let all = generator.generate(&mined.itemsets).unwrap();
    assert_eq!(all.len(), 6);
    assert!(all.iter().all(|r| r.confidence == 1.0));
    assert_eq!(all[0].antecedent(), [5]);
    for n in 0..=7 {
        assert_top_is_head(&generator, &mined.itemsets, n);
    }
}

/// The floor reaches 1 on the two-item itemsets, before {5,6,7}. There
/// {5,7} ⇒ {6} and {5,6} ⇒ {7} have confidence 0.8, under the floor, so
/// their consequents are not extended, although `generate` emits the
/// extension {5} ⇒ {6,7} at confidence 2/3.
#[test]
fn the_floor_prunes_consequent_extensions() {
    let mut txns = vec![vec![1, 2]; 4];
    txns.extend(std::iter::repeat_n(vec![5, 6, 7], 4));
    txns.extend([vec![5, 6], vec![5, 7]]);
    let db = TransactionDb::new(txns);
    let mined = BruteForce::new(MinSupport::Count(2)).mine(&db).unwrap();
    let generator = RuleGenerator::new(0.5);
    let all = generator.generate(&mined.itemsets).unwrap();
    let extension = all
        .iter()
        .position(|r| r.antecedent() == [5] && r.consequent() == [6, 7])
        .expect("generate emits the extension");
    assert!(extension >= 4);
    for n in 0..=all.len() + 1 {
        assert_top_is_head(&generator, &mined.itemsets, n);
    }
}

/// For `n = 2` the first four rules have confidence 1, 1/2, 1/2 and
/// 1/2, so the floor is 1/2, not the best rule's 1; the rules of {5,6}
/// come later at 3/4 and hold second place.
#[test]
fn the_floor_is_the_nth_best_confidence() {
    let mut txns = vec![vec![1, 2], vec![1, 2], vec![2], vec![2]];
    txns.extend([vec![3, 4], vec![3, 4], vec![3], vec![3], vec![4], vec![4]]);
    txns.extend([vec![5, 6], vec![5, 6], vec![5, 6], vec![5], vec![6]]);
    let db = TransactionDb::new(txns);
    let mined = BruteForce::new(MinSupport::Count(2)).mine(&db).unwrap();
    let generator = RuleGenerator::new(0.4);
    let all = generator.generate(&mined.itemsets).unwrap();
    assert_eq!(all[1].antecedent(), [5]);
    assert_eq!(all[1].confidence, 0.75);
    for n in 0..=all.len() + 1 {
        assert_top_is_head(&generator, &mined.itemsets, n);
    }
}

/// Counts that rise with itemset size: {1,2} ⇒ {3} and {1,3} ⇒ {2}
/// have confidence 3/2, under the floor of 10 that {1} ⇒ {2} and
/// {1} ⇒ {3} set, but their extension {1} ⇒ {2,3} has confidence 15
/// and ranks first. The floor must not stop that extension here.
#[test]
fn the_floor_prunes_no_extension_on_rising_counts() {
    let itemsets = FrequentItemsets::from_levels(
        vec![
            vec![(vec![1], 2), (vec![2], 100), (vec![3], 100)],
            vec![(vec![1, 2], 20), (vec![1, 3], 20), (vec![2, 3], 20)],
            vec![(vec![1, 2, 3], 30)],
        ],
        100,
    );
    let generator = RuleGenerator::new(0.0);
    let all = generator.generate(&itemsets).unwrap();
    assert_eq!((all[0].antecedent(), all[0].confidence), (&[1][..], 15.0));
    assert_eq!(all[0].consequent(), [2, 3]);
    for n in 0..=all.len() + 1 {
        assert_top_is_head(&generator, &itemsets, n);
    }
}
