//! Quickstart: one tour through the three pillars of the toolkit —
//! association rules, clustering and classification — on synthetic data.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// Example code: panicking with a clear message on failure is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use datamining_suite::datamining::prelude::*;

fn main() {
    // ----- 1. Association rules (market-basket data) ------------------
    println!("=== association rules ===");
    let quest = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 2_000), 1).expect("config");
    let db = quest.generate(2);
    println!(
        "mined database {} with {} transactions (avg len {:.1})",
        quest.config().name(),
        db.len(),
        db.mean_len()
    );
    // `Method::Auto` picks the miner from the database's shape; pin
    // `Method::Apriori`, `Method::FpGrowth`, ... to choose explicitly —
    // every method returns bit-identical itemsets.
    let mined = mine(&db, MinSupport::Fraction(0.01), Method::Auto).expect("mining succeeds");
    println!(
        "{} frequent itemsets (largest has {} items) in {} passes",
        mined.itemsets.len(),
        mined.itemsets.max_len(),
        mined.stats.n_passes()
    );
    // `generate_top` builds only the best rules, in `generate`'s order.
    let rules = RuleGenerator::new(0.8)
        .generate_top(&mined.itemsets, 5)
        .expect("valid threshold");
    println!("top rules at 80% confidence:");
    for rule in &rules {
        println!("  {rule}");
    }

    // ----- 2. Clustering (customer-like point cloud) ------------------
    println!("\n=== clustering ===");
    let (points, truth) = GaussianMixture::well_separated(4, 2, 250, 8.0)
        .expect("mixture")
        .generate(3);
    let clustering = KMeans::new(4).with_seed(4).fit(&points).expect("k <= n");
    let ari = adjusted_rand_index(&truth, &clustering.assignments).expect("same length");
    println!(
        "k-means++ on {} points: ARI {:.3}, sizes {:?}",
        points.rows(),
        ari,
        clustering.cluster_sizes()
    );

    // ----- 3. Classification (the Agrawal benchmark) ------------------
    println!("\n=== classification ===");
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F2, 1_500)
        .expect("rows > 0")
        .generate(5);
    for classifier in [
        Box::new(TreeClassifier::default()) as Box<dyn Classifier>,
        Box::new(BayesClassifier::default()),
        Box::new(OneRClassifier::default()),
    ] {
        let result =
            cross_validate(classifier.as_ref(), &data, &labels, 5, 0).expect("cv succeeds");
        println!(
            "{:>14}: {:.3} ± {:.3} (5-fold CV)",
            result.name, result.mean_accuracy, result.std_accuracy
        );
    }
}
