//! Governance invariants for every itemset miner: truncated results are
//! valid subsets of the ungoverned run, caps are never exceeded,
//! cross-thread cancellation stops the mine, and an unlimited guard is
//! indistinguishable from no guard at all.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_assoc::{
    Ais, Apriori, AprioriHybrid, AprioriTid, BruteForce, Eclat, FpGrowth, FrequentItemsets,
    ItemsetMiner, MinSupport, Setm,
};
use dm_dataset::TransactionDb;
use dm_guard::{Budget, CancelToken, Guard, RunStatus, TruncationReason};
use dm_par::Parallelism;
use dm_synth::{QuestConfig, QuestGenerator};

/// Synthetic workload big enough that low supports generate thousands of
/// candidates, yet small enough for the slow baselines (AIS, SETM) to
/// run ungoverned repeatedly in debug builds.
fn synthetic_db() -> TransactionDb {
    QuestGenerator::new(QuestConfig::standard(6.0, 3.0, 120), 42)
        .unwrap()
        .generate(3)
}

/// Small universe for the brute-force oracle.
fn small_db() -> TransactionDb {
    TransactionDb::new(vec![
        vec![1, 3, 4],
        vec![2, 3, 5],
        vec![1, 2, 3, 5],
        vec![2, 5],
        vec![0, 1, 2, 3, 4, 5],
        vec![0, 2, 4],
    ])
}

fn all_miners(min: MinSupport) -> Vec<Box<dyn ItemsetMiner>> {
    vec![
        Box::new(Apriori::new(min)),
        Box::new(AprioriTid::new(min)),
        Box::new(AprioriHybrid::new(min)),
        Box::new(AprioriHybrid::new(min).with_tid_budget(0)),
        Box::new(Ais::new(min)),
        Box::new(Setm::new(min)),
        Box::new(FpGrowth::new(min)),
        Box::new(Eclat::new(min)),
        Box::new(Apriori::new(min).with_parallelism(Parallelism::Threads(2))),
        Box::new(AprioriHybrid::new(min).with_parallelism(Parallelism::Threads(2))),
        Box::new(FpGrowth::new(min).with_parallelism(Parallelism::Threads(2))),
    ]
}

/// Every governed itemset must appear in the ungoverned run with the
/// exact same support count.
fn assert_subset(governed: &FrequentItemsets, full: &FrequentItemsets, ctx: &str) {
    for (itemset, count) in governed.iter() {
        assert_eq!(
            full.support_count(itemset),
            Some(count),
            "{ctx}: governed itemset {itemset:?} missing or miscounted in full run"
        );
    }
}

#[test]
fn work_budget_truncates_without_exceeding_cap() {
    let db = synthetic_db();
    let min = MinSupport::Count(2);
    for miner in all_miners(min) {
        let full = miner.mine(&db).unwrap();
        for max_work in [0u64, 1, 64, 512, 4096, 10_000] {
            let guard = Guard::new(Budget::unlimited().with_max_work(max_work));
            let out = miner.mine_governed(&db, &guard).unwrap();
            let ctx = format!("{} max_work={max_work}", miner.name());
            assert!(
                guard.work_done() <= max_work,
                "{ctx}: admitted {} work units past the cap",
                guard.work_done()
            );
            assert!(out.result.itemsets.verify_downward_closure(), "{ctx}");
            assert_subset(&out.result.itemsets, &full.itemsets, &ctx);
            match out.status {
                RunStatus::Complete => {
                    assert_eq!(out.result.itemsets, full.itemsets, "{ctx}")
                }
                RunStatus::Truncated(reason) => {
                    assert_eq!(reason, TruncationReason::WorkLimitExceeded, "{ctx}")
                }
            }
        }
    }
}

#[test]
fn ten_thousand_candidate_budget_on_low_support_apriori() {
    // The acceptance scenario from the issue: Apriori at a pathologically
    // low min-support under a 10k-candidate budget returns Truncated with
    // a downward-closed subset of the ungoverned run.
    let db = synthetic_db();
    let miner = Apriori::new(MinSupport::Count(1));
    let full = miner.mine(&db).unwrap();
    let guard = Guard::new(Budget::unlimited().with_max_work(10_000));
    let out = miner.mine_governed(&db, &guard).unwrap();
    assert!(
        matches!(
            out.status,
            RunStatus::Truncated(TruncationReason::WorkLimitExceeded)
        ),
        "expected truncation, got {:?}",
        out.status
    );
    assert!(guard.work_done() <= 10_000);
    assert!(!out.result.itemsets.is_empty(), "partial result preserved");
    assert!(out.result.itemsets.verify_downward_closure());
    assert_subset(&out.result.itemsets, &full.itemsets, "apriori 10k budget");
}

#[test]
fn brute_force_truncation_keeps_complete_levels() {
    let db = small_db();
    let miner = BruteForce::new(MinSupport::Count(1));
    let full = miner.mine(&db).unwrap();
    for max_work in [0u64, 6, 6 + 15, 6 + 15 + 20] {
        let guard = Guard::new(Budget::unlimited().with_max_work(max_work));
        let out = miner.mine_governed(&db, &guard).unwrap();
        assert!(guard.work_done() <= max_work);
        assert!(out.result.itemsets.verify_downward_closure());
        assert_subset(&out.result.itemsets, &full.itemsets, "brute");
        // Size-major enumeration: each completed level is *exactly* the
        // full run's level, not a fragment of it.
        for k in 1..=out.result.itemsets.max_len() {
            assert_eq!(
                out.result.itemsets.level(k).collect::<Vec<_>>(),
                full.itemsets.level(k).collect::<Vec<_>>(),
                "brute level {k} under max_work {max_work}"
            );
        }
    }
}

#[test]
fn pre_cancelled_token_stops_every_miner_immediately() {
    let db = small_db();
    let token = CancelToken::new();
    token.cancel();
    for miner in all_miners(MinSupport::Count(2)) {
        let guard = Guard::with_token(Budget::unlimited(), token.clone());
        let out = miner.mine_governed(&db, &guard).unwrap();
        assert_eq!(
            out.status,
            RunStatus::Truncated(TruncationReason::Cancelled),
            "{}",
            miner.name()
        );
        assert!(out.result.itemsets.is_empty(), "{}", miner.name());
    }
}

#[test]
fn cross_thread_cancellation_upholds_invariants() {
    let db = synthetic_db();
    for miner in all_miners(MinSupport::Count(2)) {
        let full = miner.mine(&db).unwrap();
        let token = CancelToken::new();
        let guard = Guard::with_token(Budget::unlimited(), token.clone());
        let out = std::thread::scope(|scope| {
            let canceller = scope.spawn({
                let token = token.clone();
                move || token.cancel()
            });
            let out = miner.mine_governed(&db, &guard).unwrap();
            canceller.join().unwrap();
            out
        });
        // The race is real: the miner may finish before the flag lands.
        // Whatever the outcome, the result must be a valid prefix.
        let ctx = format!("{} under concurrent cancel", miner.name());
        assert!(out.result.itemsets.verify_downward_closure(), "{ctx}");
        assert_subset(&out.result.itemsets, &full.itemsets, &ctx);
        match out.status {
            RunStatus::Complete => assert_eq!(out.result.itemsets, full.itemsets, "{ctx}"),
            RunStatus::Truncated(reason) => {
                assert_eq!(reason, TruncationReason::Cancelled, "{ctx}")
            }
        }
    }
}

#[test]
fn expired_deadline_truncates_every_miner() {
    let db = small_db();
    for miner in all_miners(MinSupport::Count(2)) {
        let guard = Guard::new(Budget::unlimited().with_deadline_ms(0));
        let out = miner.mine_governed(&db, &guard).unwrap();
        assert_eq!(
            out.status,
            RunStatus::Truncated(TruncationReason::DeadlineExceeded),
            "{}",
            miner.name()
        );
    }
}

#[test]
fn unlimited_guard_matches_ungoverned_run_exactly() {
    let db = synthetic_db();
    for min in [MinSupport::Count(2), MinSupport::Count(4)] {
        for miner in all_miners(min) {
            let plain = miner.mine(&db).unwrap();
            let guard = Guard::unlimited();
            let out = miner.mine_governed(&db, &guard).unwrap();
            assert!(out.is_complete(), "{}", miner.name());
            assert_eq!(out.result.itemsets, plain.itemsets, "{}", miner.name());
        }
    }
    // Brute force on its small universe.
    let db = small_db();
    let brute = BruteForce::new(MinSupport::Count(1));
    let plain = brute.mine(&db).unwrap();
    let out = brute.mine_governed(&db, &Guard::unlimited()).unwrap();
    assert!(out.is_complete());
    assert_eq!(out.result.itemsets, plain.itemsets);
}

#[test]
fn parallel_governed_mining_matches_sequential() {
    let db = synthetic_db();
    for max_work in [512u64, 10_000] {
        let seq_guard = Guard::new(Budget::unlimited().with_max_work(max_work));
        let seq = Apriori::new(MinSupport::Count(1))
            .mine_governed(&db, &seq_guard)
            .unwrap();
        let par_guard = Guard::new(Budget::unlimited().with_max_work(max_work));
        let par = Apriori::new(MinSupport::Count(1))
            .with_parallelism(Parallelism::Threads(4))
            .mine_governed(&db, &par_guard)
            .unwrap();
        assert_eq!(seq.status, par.status, "max_work {max_work}");
        assert_eq!(
            seq.result.itemsets, par.result.itemsets,
            "max_work {max_work}"
        );
    }
}
