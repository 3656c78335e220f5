//! The cross-algorithm output contract on synthetic Quest workloads:
//! FP-Growth ≡ Eclat ≡ Apriori (≡ the brute-force oracle on small
//! universes), as **bit-identical** [`FrequentItemsets`] — same itemsets,
//! same support counts, same sorted order — under every front-door
//! method, governed and ungoverned.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_assoc::{
    mine, Apriori, BruteForce, Eclat, FpGrowth, ItemsetMiner, Method, MinSupport, MiningResult,
};
use dm_dataset::TransactionDb;
use dm_guard::Guard;
use dm_synth::{QuestConfig, QuestGenerator};

fn quest(t: f64, i: f64, d: usize, seed: u64) -> TransactionDb {
    QuestGenerator::new(QuestConfig::standard(t, i, d), 101)
        .unwrap()
        .generate(seed)
}

fn assert_result_identical(a: &MiningResult, b: &MiningResult, ctx: &str) {
    assert_eq!(a.itemsets, b.itemsets, "{ctx}");
}

#[test]
fn fp_growth_and_eclat_match_apriori_on_quest_workloads() {
    let workloads = [
        quest(6.0, 3.0, 300, 202),
        quest(10.0, 4.0, 400, 7),
        quest(4.0, 2.0, 250, 99),
    ];
    for (w, db) in workloads.iter().enumerate() {
        for min in [
            MinSupport::Fraction(0.02),
            MinSupport::Fraction(0.01),
            MinSupport::Count(3),
        ] {
            let apriori = Apriori::new(min).mine(db).unwrap();
            let fp = FpGrowth::new(min).mine(db).unwrap();
            let eclat = Eclat::new(min).mine(db).unwrap();
            assert_result_identical(&fp, &apriori, &format!("fp-growth, workload {w} {min:?}"));
            assert_result_identical(&eclat, &apriori, &format!("eclat, workload {w} {min:?}"));
            assert!(fp.itemsets.verify_downward_closure());
        }
    }
}

#[test]
fn every_front_door_method_matches_the_brute_oracle() {
    // Small item universe so the exhaustive oracle stays cheap.
    let db = TransactionDb::new(
        (0..120u32)
            .map(|t| (0..10).filter(|i| (t * 31 + i * 17) % 4 != 0).collect())
            .collect(),
    );
    for min in [MinSupport::Count(8), MinSupport::Fraction(0.25)] {
        let oracle = BruteForce::new(min).mine(&db).unwrap();
        for method in [
            Method::Auto,
            Method::Apriori,
            Method::AprioriTid,
            Method::Hybrid,
            Method::FpGrowth,
            Method::Eclat,
        ] {
            let result = mine(&db, min, method).unwrap();
            assert_eq!(result.itemsets, oracle.itemsets, "{method:?} {min:?}");
        }
    }
}

#[test]
fn governed_unlimited_matches_ungoverned_for_new_miners() {
    let db = quest(6.0, 3.0, 300, 5);
    let min = MinSupport::Fraction(0.01);
    for miner in [
        Box::new(FpGrowth::new(min)) as Box<dyn ItemsetMiner>,
        Box::new(Eclat::new(min)),
    ] {
        let plain = miner.mine(&db).unwrap();
        let governed = miner.mine_governed(&db, &Guard::unlimited()).unwrap();
        assert!(governed.is_complete(), "{}", miner.name());
        assert_eq!(governed.result.itemsets, plain.itemsets, "{}", miner.name());
    }
}
