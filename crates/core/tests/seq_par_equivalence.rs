//! Sequential/parallel equivalence: for every wired kernel, mining or
//! fitting under `Threads(1)` to `Threads(4)` and `Auto` must produce
//! output identical — bit for bit where floats are involved — to
//! `Sequential`. This is the contract `dm_par` promises (fixed chunk
//! boundaries, in-order merges); these tests enforce it end to end on
//! seeded synthetic workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::par::Parallelism;
use dm_core::prelude::*;

fn settings() -> [Parallelism; 5] {
    [
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ]
}

#[test]
fn apriori_counts_match_sequential() {
    let db = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1_500), 9)
        .unwrap()
        .generate(41);
    let reference = Apriori::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    for par in settings() {
        let got = Apriori::new(MinSupport::Fraction(0.01))
            .with_parallelism(par)
            .mine(&db)
            .unwrap();
        assert_eq!(got.itemsets, reference.itemsets, "{par:?}");
    }
}

#[test]
fn apriori_linear_counts_match_sequential() {
    let db = QuestGenerator::new(QuestConfig::standard(8.0, 3.0, 600), 7)
        .unwrap()
        .generate(42);
    let reference = Apriori::new(MinSupport::Fraction(0.02))
        .with_counting(CountingStrategy::Linear)
        .with_pair_array(false)
        .mine(&db)
        .unwrap();
    let got = Apriori::new(MinSupport::Fraction(0.02))
        .with_counting(CountingStrategy::Linear)
        .with_pair_array(false)
        .with_parallelism(Parallelism::Threads(4))
        .mine(&db)
        .unwrap();
    assert_eq!(got.itemsets, reference.itemsets);
}

#[test]
fn apriori_hybrid_matches_sequential() {
    let db = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1_200), 8)
        .unwrap()
        .generate(43);
    for budget in [0usize, 20_000, 1_000_000] {
        let reference = AprioriHybrid::new(MinSupport::Fraction(0.01))
            .with_tid_budget(budget)
            .mine(&db)
            .unwrap();
        let got = AprioriHybrid::new(MinSupport::Fraction(0.01))
            .with_tid_budget(budget)
            .with_parallelism(Parallelism::Threads(4))
            .mine(&db)
            .unwrap();
        assert_eq!(got.itemsets, reference.itemsets, "budget {budget}");
    }
}

#[test]
fn fp_growth_matches_sequential() {
    let db = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1_500), 9)
        .unwrap()
        .generate(41);
    let reference = FpGrowth::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    for par in settings() {
        let got = FpGrowth::new(MinSupport::Fraction(0.01))
            .with_parallelism(par)
            .mine(&db)
            .unwrap();
        assert_eq!(got.itemsets, reference.itemsets, "{par:?}");
    }
}

#[test]
fn eclat_matches_sequential() {
    let db = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1_500), 9)
        .unwrap()
        .generate(41);
    let reference = Eclat::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    for par in settings() {
        let got = Eclat::new(MinSupport::Fraction(0.01))
            .with_parallelism(par)
            .mine(&db)
            .unwrap();
        assert_eq!(got.itemsets, reference.itemsets, "{par:?}");
    }
}

#[test]
fn kmeans_model_is_bit_identical() {
    let (data, _) = GaussianMixture::new(vec![
        ClusterSpec::new(vec![0.0, 0.0, 0.0], 1.0, 700),
        ClusterSpec::new(vec![6.0, 1.0, -3.0], 1.2, 900),
        ClusterSpec::new(vec![-4.0, 5.0, 2.0], 0.8, 800),
    ])
    .unwrap()
    .generate(17);
    for init in [Init::KMeansPlusPlus, Init::Random] {
        let reference = KMeans::new(3)
            .with_init(init)
            .with_seed(5)
            .fit_model(&data)
            .unwrap();
        for par in settings() {
            let got = KMeans::new(3)
                .with_init(init)
                .with_seed(5)
                .with_parallelism(par)
                .fit_model(&data)
                .unwrap();
            assert_eq!(got.assignments, reference.assignments, "{init:?} {par:?}");
            assert_eq!(got.iterations, reference.iterations, "{init:?} {par:?}");
            assert_eq!(
                got.inertia.to_bits(),
                reference.inertia.to_bits(),
                "{init:?} {par:?}: {} vs {}",
                got.inertia,
                reference.inertia
            );
            for c in 0..3 {
                assert_eq!(
                    got.centroids.row(c),
                    reference.centroids.row(c),
                    "{init:?} {par:?} centroid {c}"
                );
            }
        }
    }
}

#[test]
fn stream_kmeans_flushes_are_bit_identical() {
    // The mini-batch streaming engine shares the same determinism
    // contract as batch k-means: fixed chunk boundaries in the flush
    // assignment pass, merged in order, so the evolving centroids are
    // bit-identical under every thread policy — mid-stream and at the
    // end, pending buffer and decayed weights included.
    let points: Vec<Vec<f64>> = {
        let mixture = GaussianMixture::well_separated(3, 2, 200, 8.0).unwrap();
        PointStream::new(mixture, 11)
            .take(600)
            .map(|(p, _)| p)
            .collect()
    };
    let mut reference = StreamKMeans::new(3, 32).unwrap().with_decay(0.7).unwrap();
    for p in &points {
        reference.insert(p);
    }
    for par in settings() {
        let mut got = StreamKMeans::new(3, 32)
            .unwrap()
            .with_decay(0.7)
            .unwrap()
            .with_parallelism(par);
        let mut mid = None;
        for (i, p) in points.iter().enumerate() {
            got.insert(p);
            if i == points.len() / 2 {
                mid = Some(got.snapshot());
            }
        }
        let snap = got.snapshot();
        assert_eq!(snap, reference.snapshot(), "{par:?}");
        for (a, b) in snap.centroids.iter().zip(reference.centroids()) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{par:?}: centroid bits");
            }
        }
        // The mid-stream state must agree across runs too, not just the
        // final fixpoint: re-derive it sequentially.
        let mut seq_mid = StreamKMeans::new(3, 32).unwrap().with_decay(0.7).unwrap();
        for p in &points[..=points.len() / 2] {
            seq_mid.insert(p);
        }
        assert_eq!(mid.unwrap(), seq_mid.snapshot(), "{par:?}: mid-stream");
    }
}

#[test]
fn decision_tree_is_identical() {
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F7, 1_500)
        .unwrap()
        .generate(23);
    for criterion in [
        SplitCriterion::GainRatio,
        SplitCriterion::InfoGain,
        SplitCriterion::Gini,
    ] {
        let reference = DecisionTreeLearner::new()
            .with_criterion(criterion)
            .fit(&data, &labels)
            .unwrap();
        for par in settings() {
            let got = DecisionTreeLearner::new()
                .with_criterion(criterion)
                .with_parallelism(par)
                .fit(&data, &labels)
                .unwrap();
            assert_eq!(got, reference, "{criterion:?} {par:?}");
        }
    }
}

#[test]
fn cancelled_apriori_upholds_invariants_in_parallel() {
    // A cancelled governed run must stop in both execution modes and the
    // surviving partial result must obey the same subset/closure
    // contract as the sequential path — parallelism must not smuggle in
    // partially counted candidates.
    let db = QuestGenerator::new(QuestConfig::standard(8.0, 3.0, 600), 7)
        .unwrap()
        .generate(44);
    let full = Apriori::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    for par in settings() {
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::with_token(Budget::unlimited(), token);
        let out = Apriori::new(MinSupport::Fraction(0.01))
            .with_parallelism(par)
            .mine_governed(&db, &guard)
            .unwrap();
        assert_eq!(
            out.status,
            RunStatus::Truncated(TruncationReason::Cancelled),
            "{par:?}"
        );
        assert!(out.result.itemsets.verify_downward_closure(), "{par:?}");
        for (itemset, count) in out.result.itemsets.iter() {
            assert_eq!(
                full.itemsets.support_count(itemset),
                Some(count),
                "{par:?}: {itemset:?}"
            );
        }
    }
}

#[test]
fn cancelled_mid_run_parallel_apriori_stays_a_valid_prefix() {
    let db = QuestGenerator::new(QuestConfig::standard(8.0, 3.0, 600), 7)
        .unwrap()
        .generate(45);
    let full = Apriori::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    let token = CancelToken::new();
    let guard = Guard::with_token(Budget::unlimited(), token.clone());
    let out = std::thread::scope(|scope| {
        let canceller = scope.spawn(move || token.cancel());
        let out = Apriori::new(MinSupport::Fraction(0.01))
            .with_parallelism(Parallelism::Threads(4))
            .mine_governed(&db, &guard)
            .unwrap();
        canceller.join().unwrap();
        out
    });
    // The cancel races the mine; either way the result must be valid.
    assert!(out.result.itemsets.verify_downward_closure());
    for (itemset, count) in out.result.itemsets.iter() {
        assert_eq!(full.itemsets.support_count(itemset), Some(count));
    }
    match out.status {
        RunStatus::Complete => assert_eq!(out.result.itemsets, full.itemsets),
        RunStatus::Truncated(reason) => assert_eq!(reason, TruncationReason::Cancelled),
    }
}

#[test]
fn cancelled_kmeans_parallel_matches_sequential_partial_state() {
    // With the same budget, the governed k-means must truncate at the
    // same iteration and produce bit-identical partial models in every
    // execution mode.
    let (data, _) = GaussianMixture::well_separated(4, 3, 300, 6.0)
        .unwrap()
        .generate(19);
    for max_iters in [0u64, 1, 3] {
        let seq_guard = Guard::new(Budget::unlimited().with_max_iterations(max_iters));
        let reference = KMeans::new(4)
            .with_seed(2)
            .fit_model_governed(&data, &seq_guard)
            .unwrap();
        for par in settings() {
            let par_guard = Guard::new(Budget::unlimited().with_max_iterations(max_iters));
            let got = KMeans::new(4)
                .with_seed(2)
                .with_parallelism(par)
                .fit_model_governed(&data, &par_guard)
                .unwrap();
            assert_eq!(got.status, reference.status, "{par:?} iters {max_iters}");
            assert_eq!(
                got.result.assignments, reference.result.assignments,
                "{par:?} iters {max_iters}"
            );
            assert_eq!(
                got.result.inertia.to_bits(),
                reference.result.inertia.to_bits(),
                "{par:?} iters {max_iters}"
            );
        }
    }
}

#[test]
fn recording_never_changes_results() {
    // Attaching a recorder is pure observation: the governed run with a
    // live InMemoryRecorder must produce output bit-identical to the
    // unrecorded run, sequentially and under threads.
    use std::sync::Arc;

    let db = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1_000), 9)
        .unwrap()
        .generate(41);
    let reference = Apriori::new(MinSupport::Fraction(0.01)).mine(&db).unwrap();
    for par in settings() {
        let rec = Arc::new(InMemoryRecorder::new());
        let guard = Guard::unlimited().with_recorder(rec.clone());
        let got = Apriori::new(MinSupport::Fraction(0.01))
            .with_parallelism(par)
            .mine_governed(&db, &guard)
            .unwrap();
        assert_eq!(got.result.itemsets, reference.itemsets, "{par:?}");
        assert!(!rec.snapshot().is_empty(), "{par:?}: recorder saw nothing");
    }

    let (data, _) = GaussianMixture::well_separated(4, 3, 250, 7.0)
        .unwrap()
        .generate(19);
    let reference = KMeans::new(4).with_seed(2).fit_model(&data).unwrap();
    for par in settings() {
        let rec = Arc::new(InMemoryRecorder::new());
        let guard = Guard::unlimited().with_recorder(rec.clone());
        let got = KMeans::new(4)
            .with_seed(2)
            .with_parallelism(par)
            .fit_model_governed(&data, &guard)
            .unwrap()
            .result;
        assert_eq!(got.assignments, reference.assignments, "{par:?}");
        assert_eq!(
            got.inertia.to_bits(),
            reference.inertia.to_bits(),
            "{par:?}: inertia must be bit-identical under recording"
        );
        assert_eq!(got.iterations, reference.iterations, "{par:?}");
    }

    let (train, labels) = AgrawalGenerator::new(AgrawalFunction::F7, 800)
        .unwrap()
        .generate(23);
    let reference = DecisionTreeLearner::new().fit(&train, &labels).unwrap();
    let rec = Arc::new(InMemoryRecorder::new());
    let guard = Guard::unlimited().with_recorder(rec.clone());
    let got = DecisionTreeLearner::new()
        .fit_governed(&train, &labels, &guard)
        .unwrap()
        .result;
    assert_eq!(got, reference, "recorded tree must be identical");
    assert!(rec
        .snapshot()
        .counter("tree.decision.nodes_expanded")
        .is_some());
}

#[test]
fn knn_batch_predictions_match_sequential() {
    let (train, labels) = GaussianMixture::well_separated(4, 3, 120, 8.0)
        .unwrap()
        .generate(3);
    let (test, _) = GaussianMixture::well_separated(4, 3, 200, 8.0)
        .unwrap()
        .generate(4);
    for search in [Search::KdTree, Search::Brute] {
        let reference = Knn::new(5)
            .with_search(search)
            .fit(&train, &labels)
            .unwrap()
            .predict(&test)
            .unwrap();
        for par in settings() {
            let got = Knn::new(5)
                .with_search(search)
                .with_parallelism(par)
                .fit(&train, &labels)
                .unwrap()
                .predict(&test)
                .unwrap();
            assert_eq!(got, reference, "{search:?} {par:?}");
        }
    }
}
