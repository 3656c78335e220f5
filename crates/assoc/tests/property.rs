//! Property tests: the production miners must agree with the exhaustive
//! oracle on arbitrary small databases, and the structural invariants of
//! frequent-itemset mining must hold.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_assoc::{
    Ais, Apriori, AprioriHybrid, AprioriTid, BruteForce, CountingStrategy, ItemsetMiner,
    MinSupport, RuleGenerator, Setm,
};
use dm_dataset::TransactionDb;
use proptest::prelude::*;

/// Strategy: a database of up to 24 transactions over up to 10 items.
fn small_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..24).prop_map(TransactionDb::new)
}

/// Deterministic Fisher–Yates driven by a splitmix64 stream: turns a
/// bare u64 from proptest into a permutation of `0..n`.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_match_brute_force(db in small_db(), min in 1usize..6) {
        let oracle = BruteForce::new(MinSupport::Count(min)).mine(&db).unwrap();
        let apriori = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
        let linear = Apriori::new(MinSupport::Count(min))
            .with_counting(CountingStrategy::Linear)
            .mine(&db)
            .unwrap();
        let tid = AprioriTid::new(MinSupport::Count(min)).mine(&db).unwrap();
        let ais = Ais::new(MinSupport::Count(min)).mine(&db).unwrap();
        let setm = Setm::new(MinSupport::Count(min)).mine(&db).unwrap();
        let hybrid_hi = AprioriHybrid::new(MinSupport::Count(min)).mine(&db).unwrap();
        let hybrid_lo = AprioriHybrid::new(MinSupport::Count(min))
            .with_tid_budget(0)
            .mine(&db)
            .unwrap();
        prop_assert_eq!(&oracle.itemsets, &apriori.itemsets);
        prop_assert_eq!(&oracle.itemsets, &linear.itemsets);
        prop_assert_eq!(&oracle.itemsets, &tid.itemsets);
        prop_assert_eq!(&oracle.itemsets, &ais.itemsets);
        prop_assert_eq!(&oracle.itemsets, &setm.itemsets);
        prop_assert_eq!(&oracle.itemsets, &hybrid_hi.itemsets);
        prop_assert_eq!(&oracle.itemsets, &hybrid_lo.itemsets);
    }

    #[test]
    fn downward_closure_holds(db in small_db(), min in 1usize..5) {
        let mined = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
        prop_assert!(mined.itemsets.verify_downward_closure());
    }

    #[test]
    fn supports_match_reference_counter(db in small_db(), min in 1usize..5) {
        let mined = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
        for (itemset, count) in mined.itemsets.iter() {
            prop_assert_eq!(count, db.support_count(itemset));
            prop_assert!(count >= min);
        }
    }

    #[test]
    fn rules_respect_confidence_and_derive_from_frequent_sets(
        db in small_db(),
        min in 1usize..4,
        conf in 0.1f64..1.0,
    ) {
        let mined = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
        let rules = RuleGenerator::new(conf).generate(&mined.itemsets).unwrap();
        for r in &rules {
            prop_assert!(r.confidence >= conf - 1e-12);
            prop_assert!(r.confidence <= 1.0 + 1e-12);
            prop_assert!(r.support > 0.0 && r.support <= 1.0);
            prop_assert!(r.lift > 0.0);
            // Confidence is exactly supp(A∪C)/supp(A) per the database.
            let mut union: Vec<u32> = r.antecedent().iter().chain(r.consequent()).copied().collect();
            union.sort_unstable();
            let expected = db.support_count(&union) as f64 / db.support_count(r.antecedent()) as f64;
            prop_assert!((r.confidence - expected).abs() < 1e-12);
        }
    }

    /// Every reported rule metric must match a from-scratch
    /// recomputation out of raw support counts — the generator's
    /// incremental bookkeeping (reusing parent supports across the
    /// consequent lattice) is an optimization, never a redefinition.
    #[test]
    fn rule_metrics_match_brute_force_recomputation(
        db in small_db(),
        min in 1usize..4,
        conf in 0.1f64..1.0,
    ) {
        let mined = BruteForce::new(MinSupport::Count(min)).mine(&db).unwrap();
        let rules = RuleGenerator::new(conf).generate(&mined.itemsets).unwrap();
        let n = db.len() as f64;
        for r in &rules {
            let mut union: Vec<u32> =
                r.antecedent().iter().chain(r.consequent()).copied().collect();
            union.sort_unstable();
            let supp_union = db.support_count(&union) as f64;
            let supp_a = db.support_count(r.antecedent()) as f64;
            let supp_c = db.support_count(r.consequent()) as f64;
            prop_assert!(supp_a > 0.0 && supp_c > 0.0, "rule over unseen itemsets");
            prop_assert!(
                (r.support - supp_union / n).abs() < 1e-12,
                "support: reported {} vs recomputed {}", r.support, supp_union / n
            );
            prop_assert!(
                (r.confidence - supp_union / supp_a).abs() < 1e-12,
                "confidence: reported {} vs recomputed {}", r.confidence, supp_union / supp_a
            );
            let lift = (supp_union * n) / (supp_a * supp_c);
            prop_assert!(
                (r.lift - lift).abs() < 1e-9,
                "lift: reported {} vs recomputed {}", r.lift, lift
            );
        }
    }

    #[test]
    fn rule_generation_is_exhaustive(db in small_db(), min in 1usize..4) {
        // Every (antecedent ⇒ consequent) partition of every frequent
        // itemset meeting the bar must be emitted (checked for 2-sets
        // where enumeration is trivial).
        let conf = 0.6;
        let mined = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
        let rules = RuleGenerator::new(conf).generate(&mined.itemsets).unwrap();
        for (itemset, count) in mined.itemsets.level(2) {
            for (a, c) in [(itemset[0], itemset[1]), (itemset[1], itemset[0])] {
                let expected_conf = count as f64 / db.support_count(&[a]) as f64;
                let present = rules
                    .iter()
                    .any(|r| r.antecedent() == [a] && r.consequent() == [c]);
                prop_assert_eq!(present, expected_conf >= conf,
                    "rule {}=>{} conf {}", a, c, expected_conf);
            }
        }
    }

    /// Metamorphic invariance: frequent-itemset mining is a function of
    /// the *multiset of item sets*, so permuting transaction order and
    /// relabeling items through any bijection must leave the mined
    /// itemsets (modulo the relabeling) untouched, for every miner.
    ///
    /// The per-pass work profile (candidate / frequent counts) is also
    /// invariant, with one genuine exception: AIS and SETM extend
    /// *item-ordered prefixes* found in transactions, so relabeling
    /// changes which candidate sets they generate (a candidate survives
    /// only if its (k-1)-prefix in the new item order is frequent).
    /// Their profiles are therefore only asserted invariant under
    /// transaction reordering; the Apriori family and the oracle are
    /// order-canonical and must hold the full invariant.
    #[test]
    fn mining_is_invariant_under_permutation_and_relabeling(
        txns in prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..24),
        order_seed in 0u64..u64::MAX,
        relabel_seed in 0u64..u64::MAX,
        min in 1usize..5,
    ) {
        let txn_order = permutation(txns.len(), order_seed);
        let item_map: Vec<u32> = permutation(10, relabel_seed)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let base = TransactionDb::with_universe(txns.clone(), 10).unwrap();
        let reordered_txns: Vec<Vec<u32>> =
            txn_order.iter().map(|&i| txns[i].clone()).collect();
        let reordered = TransactionDb::with_universe(reordered_txns.clone(), 10).unwrap();
        let relabeled_txns: Vec<Vec<u32>> = reordered_txns
            .iter()
            .map(|txn| txn.iter().map(|&it| item_map[it as usize]).collect())
            .collect();
        let relabeled = TransactionDb::with_universe(relabeled_txns, 10).unwrap();

        let profile = |r: &dm_assoc::MiningResult| -> Vec<(usize, usize)> {
            r.stats.passes.iter().map(|p| (p.candidates, p.frequent)).collect()
        };
        let miners: Vec<(bool, Box<dyn ItemsetMiner>)> = vec![
            (true, Box::new(BruteForce::new(MinSupport::Count(min)))),
            (true, Box::new(Apriori::new(MinSupport::Count(min)))),
            (true, Box::new(AprioriTid::new(MinSupport::Count(min)))),
            (false, Box::new(Ais::new(MinSupport::Count(min)))),
            (false, Box::new(Setm::new(MinSupport::Count(min)))),
            (true, Box::new(AprioriHybrid::new(MinSupport::Count(min)))),
        ];
        for (order_canonical, miner) in miners {
            let a = miner.mine(&base).unwrap();
            let b = miner.mine(&reordered).unwrap();
            let c = miner.mine(&relabeled).unwrap();

            // Transaction order: full invariance for everyone.
            prop_assert_eq!(&a.itemsets, &b.itemsets, "{}: itemsets moved on reorder", miner.name());
            prop_assert_eq!(profile(&a), profile(&b), "{}: profile moved on reorder", miner.name());

            // Relabeling: itemsets agree modulo the bijection (with counts).
            let mut mapped: Vec<(Vec<u32>, usize)> = a
                .itemsets
                .iter()
                .map(|(set, count)| {
                    let mut m: Vec<u32> = set.iter().map(|&it| item_map[it as usize]).collect();
                    m.sort_unstable();
                    (m, count)
                })
                .collect();
            mapped.sort();
            let mut mined: Vec<(Vec<u32>, usize)> = c
                .itemsets
                .iter()
                .map(|(set, count)| (set.to_vec(), count))
                .collect();
            mined.sort();
            prop_assert_eq!(&mapped, &mined, "{}: itemsets moved on relabel", miner.name());

            if order_canonical {
                prop_assert_eq!(
                    profile(&a), profile(&c),
                    "{}: profile moved on relabel", miner.name()
                );
            } else {
                // AIS/SETM profiles may shift, but frequent counts per
                // pass are determined by the itemsets and cannot —
                // except for a possible final all-infrequent pass, whose
                // existence depends on whether any candidate was
                // generated at all (trailing zeros stripped).
                let frequent = |r: &dm_assoc::MiningResult| -> Vec<usize> {
                    let mut f: Vec<usize> =
                        r.stats.passes.iter().map(|p| p.frequent).collect();
                    while f.last() == Some(&0) {
                        f.pop();
                    }
                    f
                };
                prop_assert_eq!(
                    frequent(&a), frequent(&c),
                    "{}: frequent-per-pass moved on relabel", miner.name()
                );
            }
        }
    }

    #[test]
    fn fraction_and_count_thresholds_agree(db in small_db()) {
        let n = db.len();
        let frac = 0.3;
        let by_frac = Apriori::new(MinSupport::Fraction(frac)).mine(&db).unwrap();
        let count = ((frac * n as f64).ceil() as usize).max(1);
        let by_count = Apriori::new(MinSupport::Count(count)).mine(&db).unwrap();
        prop_assert_eq!(by_frac.itemsets, by_count.itemsets);
    }
}
