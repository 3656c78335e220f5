//! Cross-crate integration tests: full pipelines from synthetic data
//! generation through mining/learning to evaluation, exercising the
//! public API exactly the way the examples do.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datamining_suite::datamining::prelude::*;

#[test]
fn market_basket_pipeline_end_to_end() {
    // Generate → mine (all three miners) → agree → rules → validate.
    let generator =
        QuestGenerator::new(QuestConfig::standard(8.0, 3.0, 1_500), 7).expect("valid config");
    let db = generator.generate(8);
    assert_eq!(db.len(), 1_500);

    let support = MinSupport::Fraction(0.01);
    let apriori = Apriori::new(support).mine(&db).unwrap();
    let tid = AprioriTid::new(support).mine(&db).unwrap();
    let ais = Ais::new(support).mine(&db).unwrap();
    assert_eq!(apriori.itemsets, tid.itemsets);
    assert_eq!(apriori.itemsets, ais.itemsets);
    assert!(
        apriori.itemsets.len() > 50,
        "workload too sparse to be interesting"
    );
    assert!(apriori.itemsets.verify_downward_closure());

    let rules = RuleGenerator::new(0.7).generate(&apriori.itemsets).unwrap();
    for rule in &rules {
        assert!(rule.confidence >= 0.7);
        // Re-derive confidence straight from the database.
        let mut union: Vec<u32> = rule
            .antecedent()
            .iter()
            .chain(rule.consequent())
            .copied()
            .collect();
        union.sort_unstable();
        let expected = db.support_count(&union) as f64 / db.support_count(rule.antecedent()) as f64;
        assert!((rule.confidence - expected).abs() < 1e-12);
    }
}

#[test]
fn clustering_pipeline_recovers_structure() {
    let mixture = GaussianMixture::well_separated(4, 3, 120, 9.0).expect("valid mixture");
    let (data, truth) = mixture.generate(5);
    let algorithms: Vec<Box<dyn Clusterer>> = vec![
        Box::new(KMeans::new(4).with_seed(2)),
        Box::new(Pam::new(4)),
        Box::new(Agglomerative::new(4).with_linkage(Linkage::Ward)),
        Box::new(Birch::new(4).with_threshold(1.5).with_seed(2)),
    ];
    for alg in algorithms {
        let clustering = alg.fit(&data).unwrap();
        let ari = adjusted_rand_index(&truth, &clustering.assignments).unwrap();
        assert!(ari > 0.95, "{} recovered ARI {ari}", alg.name());
        let nmi = normalized_mutual_information(&truth, &clustering.assignments).unwrap();
        assert!(nmi > 0.9, "{} NMI {nmi}", alg.name());
    }
    // Internal metrics agree with the external verdict on k.
    let sse4 = sse(
        &data,
        &KMeans::new(4).with_seed(2).fit(&data).unwrap().assignments,
    )
    .unwrap();
    let sse2 = sse(
        &data,
        &KMeans::new(2).with_seed(2).fit(&data).unwrap().assignments,
    )
    .unwrap();
    assert!(sse4 < sse2 * 0.6);
}

#[test]
fn classification_pipeline_with_cv_and_metrics() {
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F4, 1_200)
        .expect("rows > 0")
        .generate(3);
    let tree = TreeClassifier::new(
        DecisionTreeLearner::new()
            .with_criterion(SplitCriterion::GainRatio)
            .with_pruning(Pruning::Pessimistic { cf: 0.25 }),
    );
    let result = cross_validate(&tree, &data, &labels, 5, 1).unwrap();
    assert!(
        result.mean_accuracy > 0.9,
        "accuracy {}",
        result.mean_accuracy
    );
    assert_eq!(result.confusion.total(), 1_200);
    // Macro-F1 coherent with accuracy on a balanced problem.
    assert!((result.confusion.macro_f1() - result.mean_accuracy).abs() < 0.1);
}

#[test]
fn discretization_bridges_numeric_data_to_categorical_learners() {
    // Discretize the two numeric drivers of F2 and check a tree on the
    // discretized dataset still learns.
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F2, 1_500)
        .expect("rows > 0")
        .generate(21);
    let mut discretized = data.clone();
    for name in ["age", "salary"] {
        let (idx, col) = discretized.column_by_name(name).expect("schema has it");
        let values = col.as_numeric().expect("numeric").to_vec();
        let fitted = EqualFrequencyExt::fit(&values);
        discretized = discretized
            .with_column(idx, fitted.transform_column(&values))
            .expect("same length");
    }
    let tree = DecisionTreeLearner::new()
        .fit(&discretized, &labels)
        .unwrap();
    let acc = tree
        .predict(&discretized)
        .iter()
        .zip(labels.codes())
        .filter(|(p, t)| p == t)
        .count() as f64
        / 1_500.0;
    assert!(acc > 0.85, "accuracy on discretized data {acc}");
}

/// Small helper: fit an equal-frequency discretizer with 8 bins.
struct EqualFrequencyExt;
impl EqualFrequencyExt {
    fn fit(values: &[f64]) -> datamining_suite::datamining::dataset::FittedDiscretizer {
        use datamining_suite::datamining::dataset::{Discretizer, EqualFrequency};
        EqualFrequency { bins: 8 }.fit(values).expect("non-empty")
    }
}

#[test]
fn csv_roundtrip_preserves_learning_behaviour() {
    use datamining_suite::datamining::dataset::csv::{read_csv, write_csv};
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F1, 400)
        .expect("rows > 0")
        .generate(9);
    let mut buf = Vec::new();
    write_csv(&data, &mut buf).unwrap();
    let back = read_csv("roundtrip", &buf[..]).unwrap();
    assert_eq!(back.n_rows(), data.n_rows());
    assert_eq!(back.n_cols(), data.n_cols());
    // Same tree accuracy from the roundtripped data.
    let t1 = DecisionTreeLearner::new().fit(&data, &labels).unwrap();
    let t2 = DecisionTreeLearner::new().fit(&back, &labels).unwrap();
    assert_eq!(t1.predict(&data), t2.predict(&back));
}

#[test]
fn transaction_db_text_roundtrip_preserves_mining() {
    let generator =
        QuestGenerator::new(QuestConfig::standard(6.0, 2.0, 400), 77).expect("valid config");
    let db = generator.generate(78);
    let mut buf = Vec::new();
    db.write_to(&mut buf).unwrap();
    let back = TransactionDb::read_from(&buf[..]).unwrap();
    let a = Apriori::new(MinSupport::Count(8)).mine(&db).unwrap();
    let b = Apriori::new(MinSupport::Count(8)).mine(&back).unwrap();
    assert_eq!(a.itemsets, b.itemsets);
}

#[test]
fn sequential_pattern_pipeline() {
    let generator =
        SequenceGenerator::new(SequenceConfig::standard(300), 13).expect("valid config");
    let db = generator.generate(14);
    let result = AprioriAll::new(0.05).mine(&db).unwrap();
    assert!(result.n_litemsets > 0);
    // Every reported pattern's support re-derives from the database.
    for p in &result.patterns {
        assert_eq!(p.support_count, db.support_count(&p.elements));
        assert!(p.support_count * 20 >= db.len(), "below 5% support");
    }
    // The maximal set is an antichain: lowering support only adds.
    let more = AprioriAll::new(0.02).keep_non_maximal().mine(&db).unwrap();
    let fewer = AprioriAll::new(0.05).keep_non_maximal().mine(&db).unwrap();
    assert!(more.patterns.len() >= fewer.patterns.len());
}

#[test]
fn extracted_rules_generalize_like_their_tree() {
    use datamining_suite::datamining::tree::rules_from_tree;
    let (train, train_l) = AgrawalGenerator::new(AgrawalFunction::F2, 900)
        .expect("rows > 0")
        .generate(41);
    let (test, test_l) = AgrawalGenerator::new(AgrawalFunction::F2, 400)
        .expect("rows > 0")
        .generate(42);
    let tree = DecisionTreeLearner::new()
        .with_pruning(Pruning::Pessimistic { cf: 0.25 })
        .fit(&train, &train_l)
        .unwrap();
    let rules = rules_from_tree(&tree, &train, &train_l).unwrap();
    let acc = |pred: Vec<u32>| {
        pred.iter()
            .zip(test_l.codes())
            .filter(|(p, t)| p == t)
            .count() as f64
            / 400.0
    };
    let tree_acc = acc(tree.predict(&test));
    let rule_acc = acc(rules.predict(&test));
    assert!(
        rule_acc >= tree_acc - 0.05,
        "rules {rule_acc} vs tree {tree_acc}"
    );
}

#[test]
fn dbscan_flags_the_planted_noise() {
    let mixture = GaussianMixture::well_separated(3, 2, 150, 10.0)
        .expect("valid mixture")
        .with_noise(25, 40.0);
    let (data, truth) = mixture.generate(6);
    let clustering = Dbscan::new(1.2, 5).fit(&data).unwrap();
    assert_eq!(clustering.n_clusters, 3);
    let flagged_noise = truth
        .iter()
        .enumerate()
        .filter(|&(i, &t)| t == 3 && clustering.assignments[i] == NOISE)
        .count();
    assert!(
        flagged_noise >= 20,
        "only {flagged_noise}/25 noise points flagged"
    );
}
