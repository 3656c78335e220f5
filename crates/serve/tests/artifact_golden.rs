//! Golden-file test for the artifact bundle format: a small bundle
//! built here (a tree, kNN and k-means fitted on six points, plus two
//! rules) must save to exactly the committed bytes. A schema name
//! carrying `"`, `\` and a tab pins the string escaping, and the rule
//! floats pin the plain-decimal number spelling. A change to either is
//! a format change and must show up in review as an edit of the
//! fixture. Regenerate after an intentional change:
//!
//! ```text
//! cargo test -p dm-serve --test artifact_golden -- --ignored regenerate_fixture
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::assoc::Rule;
use dm_core::cluster::KMeans;
use dm_core::dataset::{Column, Dataset, Labels, Matrix};
use dm_core::knn::Knn;
use dm_core::tree::DecisionTreeLearner;
use dm_serve::{load_artifacts, save_artifacts, ModelSet};

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/artifact_bundle.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn bundle() -> ModelSet {
    let schema = vec!["x\"0\\\t".to_string(), "x1".to_string()];
    let rows = vec![
        vec![0.0, 0.5],
        vec![0.25, 1.0],
        vec![0.1, 0.75],
        vec![5.0, 6.5],
        vec![5.5, 6.0],
        vec![6.125, 7.0],
    ];
    let classes: Vec<u32> = vec![0, 0, 0, 1, 1, 1];
    let points = Matrix::from_rows(&rows).unwrap();
    let columns = schema
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let values = rows.iter().map(|r| r[c]).collect();
            (name.clone(), Column::from_numeric(values))
        })
        .collect();
    let dataset = Dataset::from_columns("artifact-golden", columns).unwrap();
    let labels = Labels::from_strs(classes.iter().map(|c| format!("c{c}")));
    let tree = DecisionTreeLearner::new().fit(&dataset, &labels).unwrap();
    let knn = Knn::new(3).fit(&points, &classes).unwrap();
    let kmeans = KMeans::new(2).with_seed(7).fit_model(&points).unwrap();
    let rules = vec![
        Rule::new(&[1, 4], &[9], 0.25, 2.0 / 3.0, 1.0),
        Rule::new(&[2], &[3, 7], 0.1, 0.5, 1e-7),
    ];
    ModelSet::new(schema)
        .with_default_class(1)
        .with_tree(tree)
        .with_knn(knn)
        .with_kmeans(kmeans)
        .with_rules(rules, vec![(1, 4), (9, 3)])
}

#[test]
fn artifact_bundle_matches_golden() {
    let saved = save_artifacts(&bundle());
    let golden = std::fs::read_to_string(fixture_path()).unwrap();
    assert_eq!(
        saved, golden,
        "artifact bundle bytes drifted from the fixture"
    );
    // The fixture is itself a loadable bundle that saves back unchanged.
    assert_eq!(save_artifacts(&load_artifacts(&golden).unwrap()), golden);
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate_fixture() {
    std::fs::write(fixture_path(), save_artifacts(&bundle())).unwrap();
}
