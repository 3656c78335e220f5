//! The installed model bundle and its governed handlers.
//!
//! A [`ModelSet`] owns one fitted model per serving role plus the
//! *precomputed fallback state* each degradation tier needs: per-class
//! centroids of the kNN training set, the training-majority class, and
//! the top-support frequent singletons. Computing fallbacks at install
//! time is the point — the degraded path must be strictly cheaper than
//! the path that just tripped its budget.
//!
//! Handlers charge the request's [`Guard`] one work unit per row (or
//! per rule scanned) and degrade at the first trip:
//!
//! * `predict` answers every requested row: rows processed before the
//!   trip get the primary model, the tail gets the fallback tier
//!   (centroids for kNN, majority class otherwise).
//! * `score` has no cheaper tier (nearest-centroid distance already
//!   *is* the cheap primitive), so it degrades by truncation: the
//!   reply carries the computed prefix and the `Truncated` status.
//! * `recommend` abandons the rule scan and serves top-support
//!   singletons.
//!
//! The direct fallback entry points ([`ModelSet::centroid_predict`],
//! [`ModelSet::top_support_recommend`]) are public so the equivalence
//! suite can assert a degraded response is bit-identical to calling
//! the fallback directly.

use crate::api::{ModelKind, Recommendation, Reply, ServeError, Tier};
use dm_core::assoc::Rule;
use dm_core::bayes::NaiveBayesModel;
use dm_core::cluster::kmeans::nearest;
use dm_core::cluster::KMeansModel;
use dm_core::dataset::{Column, Dataset, Matrix};
use dm_core::guard::Guard;
use dm_core::knn::KnnModel;
use dm_core::tree::{BaggedTreesModel, DecisionTree};

/// A fitted model bundle plus precomputed degradation state.
#[derive(Debug, Clone, Default)]
pub struct ModelSet {
    schema: Vec<String>,
    tree: Option<DecisionTree>,
    ensemble: Option<BaggedTreesModel>,
    nb: Option<NaiveBayesModel>,
    knn: Option<KnnModel>,
    /// Per-class centroids of the kNN training set: `(centroids,
    /// class_of_row)`. The centroid tier classifies by nearest row.
    knn_centroids: Option<(Matrix, Vec<u32>)>,
    kmeans: Option<KMeansModel>,
    rules: Vec<Rule>,
    /// Frequent singletons by descending support — the degraded
    /// recommendation vocabulary. Score is the absolute support count.
    top_singletons: Vec<Recommendation>,
    default_class: u32,
}

impl ModelSet {
    /// An empty bundle serving the given numeric feature schema. Every
    /// endpoint answers `ModelUnavailable` until a model is installed.
    pub fn new(schema: Vec<String>) -> Self {
        Self {
            schema,
            ..Self::default()
        }
    }

    /// The feature names every predict/score row must match in width.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Sets the class the majority-fallback tier answers with
    /// (conventionally the training-set majority).
    pub fn with_default_class(mut self, class: u32) -> Self {
        self.default_class = class;
        self
    }

    /// The majority-fallback class.
    pub fn default_class(&self) -> u32 {
        self.default_class
    }

    /// Installs the decision tree.
    pub fn with_tree(mut self, tree: DecisionTree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// The installed tree, if any (artifact serialization).
    pub fn tree(&self) -> Option<&DecisionTree> {
        self.tree.as_ref()
    }

    /// Installs the bagged-trees ensemble (not artifact-serializable;
    /// refit in process).
    pub fn with_ensemble(mut self, ensemble: BaggedTreesModel) -> Self {
        self.ensemble = Some(ensemble);
        self
    }

    /// Installs the naive Bayes model (not artifact-serializable;
    /// refit in process).
    pub fn with_naive_bayes(mut self, nb: NaiveBayesModel) -> Self {
        self.nb = Some(nb);
        self
    }

    /// Installs the kNN model and precomputes its centroid-fallback
    /// tier: one mean vector per class of the training set.
    pub fn with_knn(mut self, knn: KnnModel) -> Self {
        self.knn_centroids = class_centroids(knn.train(), knn.labels());
        self.knn = Some(knn);
        self
    }

    /// The installed kNN model, if any (artifact serialization).
    pub fn knn(&self) -> Option<&KnnModel> {
        self.knn.as_ref()
    }

    /// Installs the k-means model backing the score endpoint.
    pub fn with_kmeans(mut self, kmeans: KMeansModel) -> Self {
        self.kmeans = Some(kmeans);
        self
    }

    /// The installed k-means model, if any (artifact serialization).
    pub fn kmeans(&self) -> Option<&KMeansModel> {
        self.kmeans.as_ref()
    }

    /// Installs the mined rule set and its fallback vocabulary.
    /// `singletons` is `(item, support_count)` by descending support —
    /// pass `FrequentItemsets::singletons_by_support()`.
    pub fn with_rules(mut self, rules: Vec<Rule>, singletons: Vec<(u32, usize)>) -> Self {
        self.rules = rules;
        self.top_singletons = singletons
            .into_iter()
            .map(|(item, count)| Recommendation {
                item,
                score: count as f64,
            })
            .collect();
        self
    }

    /// The installed rules (artifact serialization).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The fallback singleton vocabulary (artifact serialization).
    pub fn top_singletons(&self) -> &[Recommendation] {
        &self.top_singletons
    }

    // -- validation ---------------------------------------------------

    /// Validates feature rows against the schema and converts them to a
    /// matrix. Cheap relative to any model it feeds, and *not* charged
    /// to the budget: malformed input must yield `Malformed` even under
    /// a deadline storm, never a silent fallback answer.
    fn to_matrix(&self, rows: &[Vec<f64>]) -> Result<Matrix, ServeError> {
        if rows.is_empty() {
            return Err(ServeError::Malformed("empty row batch".into()));
        }
        let width = self.schema.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != width {
                return Err(ServeError::Malformed(format!(
                    "row {i} has {} features, schema has {width}",
                    row.len()
                )));
            }
            if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                return Err(ServeError::Malformed(format!(
                    "row {i} feature {j} is not finite"
                )));
            }
        }
        Matrix::from_rows(rows).map_err(|e| ServeError::Malformed(e.to_string()))
    }

    /// The matrix re-expressed as a [`Dataset`] for the dataset-shaped
    /// classifiers (tree, ensemble, NB).
    fn to_dataset(&self, matrix: &Matrix) -> Result<Dataset, ServeError> {
        let columns = self
            .schema
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let values = (0..matrix.rows()).map(|r| matrix.row(r)[c]).collect();
                (name.clone(), Column::from_numeric(values))
            })
            .collect();
        Dataset::from_columns("serve-request", columns)
            .map_err(|e| ServeError::Malformed(e.to_string()))
    }

    // -- handlers -----------------------------------------------------

    /// Classifies `rows` with the requested model under `guard`.
    pub fn predict(
        &self,
        model: ModelKind,
        rows: &[Vec<f64>],
        guard: &Guard,
    ) -> Result<(Reply, Tier), ServeError> {
        let matrix = self.to_matrix(rows)?;
        match model {
            ModelKind::Knn => self.predict_knn(&matrix, guard),
            ModelKind::Tree | ModelKind::Ensemble | ModelKind::NaiveBayes => {
                self.predict_dataset_model(model, &matrix, guard)
            }
        }
    }

    fn predict_knn(&self, matrix: &Matrix, guard: &Guard) -> Result<(Reply, Tier), ServeError> {
        let Some(knn) = &self.knn else {
            return Err(ServeError::ModelUnavailable("knn"));
        };
        let outcome = knn
            .predict_governed(matrix, guard)
            .map_err(|e| ServeError::Malformed(e.to_string()))?;
        let mut classes = outcome.result;
        if classes.len() == matrix.rows() {
            return Ok((Reply::Classes(classes), Tier::Full));
        }
        // Budget tripped mid-batch: answer the tail from the centroid
        // tier (precomputed at install; one distance pass per row).
        let tier = match &self.knn_centroids {
            Some((centroids, cls)) => {
                for r in classes.len()..matrix.rows() {
                    classes.push(nearest_class(centroids, cls, matrix.row(r)));
                }
                Tier::CentroidFallback
            }
            None => {
                classes.resize(matrix.rows(), self.default_class);
                Tier::MajorityFallback
            }
        };
        Ok((Reply::Classes(classes), tier))
    }

    fn predict_dataset_model(
        &self,
        model: ModelKind,
        matrix: &Matrix,
        guard: &Guard,
    ) -> Result<(Reply, Tier), ServeError> {
        let dataset = self.to_dataset(matrix)?;
        let n = dataset.n_rows();
        let mut classes = Vec::with_capacity(n);
        let mut tier = Tier::Full;
        for i in 0..n {
            if guard.try_work(1).is_err() {
                classes.resize(n, self.default_class);
                tier = Tier::MajorityFallback;
                break;
            }
            let class = match model {
                ModelKind::Tree => match &self.tree {
                    Some(t) => t.predict_row(&dataset, i),
                    None => return Err(ServeError::ModelUnavailable("tree")),
                },
                ModelKind::Ensemble => match &self.ensemble {
                    Some(e) => e.predict_row(&dataset, i),
                    None => return Err(ServeError::ModelUnavailable("ensemble")),
                },
                ModelKind::NaiveBayes => match &self.nb {
                    Some(nb) => nb.predict_row(&dataset, i),
                    None => return Err(ServeError::ModelUnavailable("naive_bayes")),
                },
                ModelKind::Knn => unreachable!("knn dispatches to predict_knn"),
            };
            classes.push(class);
        }
        Ok((Reply::Classes(classes), tier))
    }

    /// Scores `rows` by squared distance to the nearest k-means
    /// centroid. Degrades by truncation: on a trip the reply is the
    /// computed prefix (there is no cheaper tier below a single
    /// centroid pass).
    pub fn score(&self, rows: &[Vec<f64>], guard: &Guard) -> Result<(Reply, Tier), ServeError> {
        let Some(kmeans) = &self.kmeans else {
            return Err(ServeError::ModelUnavailable("kmeans"));
        };
        let matrix = self.to_matrix(rows)?;
        if matrix.cols() != kmeans.centroids.cols() {
            return Err(ServeError::Malformed(format!(
                "model fitted on {} dims, got {}",
                kmeans.centroids.cols(),
                matrix.cols()
            )));
        }
        let mut scores = Vec::with_capacity(matrix.rows());
        for r in 0..matrix.rows() {
            if guard.try_work(1).is_err() {
                break;
            }
            scores.push(nearest(kmeans.centroids.iter_rows(), matrix.row(r)).1);
        }
        Ok((Reply::Scores(scores), Tier::Full))
    }

    /// Recommends up to `k` items for `basket` from the rule set,
    /// charging one work unit per rule scanned; falls back to the
    /// top-support singletons when the budget trips.
    pub fn recommend(
        &self,
        basket: &[u32],
        k: usize,
        guard: &Guard,
    ) -> Result<(Reply, Tier), ServeError> {
        if k == 0 {
            return Err(ServeError::Malformed("k must be >= 1".into()));
        }
        if self.rules.is_empty() && self.top_singletons.is_empty() {
            return Err(ServeError::ModelUnavailable("rules"));
        }
        let mut held: Vec<u32> = basket.to_vec();
        held.sort_unstable();
        held.dedup();
        // item -> (confidence, support); best rule wins.
        let mut candidates: Vec<(u32, f64, f64)> = Vec::new();
        for rule in &self.rules {
            if guard.try_work(1).is_err() {
                return Ok((
                    Reply::Recommendations(self.top_support_recommend(basket, k)),
                    Tier::TopSupportFallback,
                ));
            }
            if !rule
                .antecedent()
                .iter()
                .all(|item| held.binary_search(item).is_ok())
            {
                continue;
            }
            for &item in rule.consequent() {
                if held.binary_search(&item).is_ok() {
                    continue;
                }
                match candidates.iter_mut().find(|(i, _, _)| *i == item) {
                    Some(entry) => {
                        if rule.confidence > entry.1
                            || (rule.confidence == entry.1 && rule.support > entry.2)
                        {
                            entry.1 = rule.confidence;
                            entry.2 = rule.support;
                        }
                    }
                    None => candidates.push((item, rule.confidence, rule.support)),
                }
            }
        }
        // Rank: confidence desc, support desc, item asc — fully
        // deterministic for the equivalence and ledger tests.
        candidates.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then(b.2.total_cmp(&a.2))
                .then(a.0.cmp(&b.0))
        });
        candidates.truncate(k);
        let recs = candidates
            .into_iter()
            .map(|(item, confidence, _)| Recommendation {
                item,
                score: confidence,
            })
            .collect();
        Ok((Reply::Recommendations(recs), Tier::Full))
    }

    // -- direct fallback entry points (equivalence suite) -------------

    /// The centroid tier, invoked directly: classify each row by the
    /// nearest per-class centroid of the kNN training set. `None` when
    /// no kNN model (hence no centroids) is installed.
    pub fn centroid_predict(&self, rows: &[Vec<f64>]) -> Result<Option<Vec<u32>>, ServeError> {
        let matrix = self.to_matrix(rows)?;
        Ok(self.knn_centroids.as_ref().map(|(centroids, cls)| {
            (0..matrix.rows())
                .map(|r| nearest_class(centroids, cls, matrix.row(r)))
                .collect()
        }))
    }

    /// The top-support tier, invoked directly: the highest-support
    /// frequent singletons the basket does not already hold, up to `k`.
    pub fn top_support_recommend(&self, basket: &[u32], k: usize) -> Vec<Recommendation> {
        self.top_singletons
            .iter()
            .filter(|rec| !basket.contains(&rec.item))
            .take(k)
            .copied()
            .collect()
    }
}

/// Mean vector per class, classes in ascending order. `None` for empty
/// input (mirrors "no model installed").
fn class_centroids(train: &Matrix, labels: &[u32]) -> Option<(Matrix, Vec<u32>)> {
    if train.rows() == 0 || train.rows() != labels.len() {
        return None;
    }
    let mut classes: Vec<u32> = labels.to_vec();
    classes.sort_unstable();
    classes.dedup();
    let mut rows = Vec::with_capacity(classes.len());
    for &class in &classes {
        let mut sum = vec![0.0f64; train.cols()];
        let mut count = 0usize;
        for (r, &label) in labels.iter().enumerate() {
            if label == class {
                for (s, v) in sum.iter_mut().zip(train.row(r)) {
                    *s += v;
                }
                count += 1;
            }
        }
        for s in &mut sum {
            *s /= count as f64;
        }
        rows.push(sum);
    }
    Matrix::from_rows(&rows).ok().map(|m| (m, classes))
}

/// Class of the nearest centroid row.
fn nearest_class(centroids: &Matrix, classes: &[u32], point: &[f64]) -> u32 {
    classes[nearest(centroids.iter_rows(), point).0]
}

// -- demo bundle ------------------------------------------------------

use dm_core::assoc::{mine, Method, MinSupport, RuleGenerator};
use dm_core::bayes::NaiveBayes;
use dm_core::cluster::KMeans;
use dm_core::dataset::{DataError, Labels};
use dm_core::knn::Knn;
use dm_core::synth::{GaussianMixture, QuestConfig, QuestGenerator};
use dm_core::tree::{BaggedTrees, DecisionTreeLearner};

impl ModelSet {
    /// A fully-populated bundle fitted on synthetic data, deterministic
    /// in `seed`: 2-d Gaussian blobs (3 classes) behind every
    /// classifier and the k-means scorer, and a small Quest basket
    /// database behind the recommender. Used by experiment E15, the
    /// chaos suite, and the doc examples.
    pub fn demo(seed: u64) -> Result<Self, DataError> {
        let schema = vec!["x0".to_string(), "x1".to_string()];
        let (points, raw_labels) = GaussianMixture::well_separated(3, 2, 40, 8.0)?.generate(seed);
        let columns = schema
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let values = (0..points.rows()).map(|r| points.row(r)[c]).collect();
                (name.clone(), Column::from_numeric(values))
            })
            .collect();
        let dataset = Dataset::from_columns("serve-demo", columns)?;
        let labels = Labels::from_strs(raw_labels.iter().map(|c| format!("c{c}")));
        let tree = DecisionTreeLearner::new().fit(&dataset, &labels)?;
        let ensemble = BaggedTrees::new(5).with_seed(seed).fit(&dataset, &labels)?;
        let nb = NaiveBayes::new().fit(&dataset, &labels)?;
        let knn = Knn::new(3).fit(&points, &raw_labels)?;
        let kmeans = KMeans::new(3).with_seed(seed).fit_model(&points)?;
        let config = QuestConfig {
            n_transactions: 300,
            avg_txn_len: 8.0,
            avg_pattern_len: 4.0,
            n_patterns: 50,
            n_items: 100,
            correlation: 0.25,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
        };
        let db = QuestGenerator::new(config, seed)?.generate(seed.wrapping_add(1));
        let mined = mine(&db, MinSupport::Fraction(0.02), Method::Auto)?;
        // Quest at this support yields tens of thousands of rules; a
        // serving bundle that large makes every recommend request scan
        // them all and bloats the artifact file ~1 MB. Generate only the
        // top 512 of the generator's order (confidence, then support):
        // the recommender ranks by the same key, so the best answers
        // survive the cut.
        let rules = RuleGenerator::new(0.4).generate_top(&mined.itemsets, 512)?;
        let singletons = mined.itemsets.singletons_by_support();
        let majority = labels.majority().unwrap_or(0);
        Ok(Self::new(schema)
            .with_default_class(majority)
            .with_tree(tree)
            .with_ensemble(ensemble)
            .with_naive_bayes(nb)
            .with_knn(knn)
            .with_kmeans(kmeans)
            .with_rules(rules, singletons))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_is_deterministic_in_seed() {
        let a = ModelSet::demo(7).unwrap();
        let b = ModelSet::demo(7).unwrap();
        let g = Guard::unlimited();
        let rows = vec![vec![0.3, -0.1], vec![7.9, 0.4]];
        for kind in [
            ModelKind::Tree,
            ModelKind::Ensemble,
            ModelKind::NaiveBayes,
            ModelKind::Knn,
        ] {
            assert_eq!(
                a.predict(kind, &rows, &g).unwrap(),
                b.predict(kind, &rows, &g).unwrap(),
                "{kind:?}"
            );
        }
        assert_eq!(
            a.recommend(&[1, 2], 5, &g).unwrap(),
            b.recommend(&[1, 2], 5, &g).unwrap()
        );
    }

    #[test]
    fn demo_serves_the_generators_top_rules_in_an_exact_buffer() {
        let config = QuestConfig {
            n_transactions: 300,
            avg_txn_len: 8.0,
            avg_pattern_len: 4.0,
            n_patterns: 50,
            n_items: 100,
            correlation: 0.25,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
        };
        let db = QuestGenerator::new(config, 7).unwrap().generate(8);
        let mined = mine(&db, MinSupport::Fraction(0.02), Method::Auto).unwrap();
        let all = RuleGenerator::new(0.4).generate(&mined.itemsets).unwrap();
        assert!(all.len() > 512, "the cut must bite: {} rules", all.len());
        let m = ModelSet::demo(7).unwrap();
        assert_eq!(m.rules(), &all[..512]);
        assert_eq!(m.rules.capacity(), 512);
    }

    #[test]
    fn malformed_rows_are_typed_not_panics() {
        let m = ModelSet::demo(3).unwrap();
        let g = Guard::unlimited();
        for rows in [
            vec![],
            vec![vec![1.0]],
            vec![vec![1.0, 2.0, 3.0]],
            vec![vec![f64::NAN, 0.0]],
        ] {
            assert!(matches!(
                m.predict(ModelKind::Tree, &rows, &g),
                Err(ServeError::Malformed(_))
            ));
        }
        assert!(matches!(
            m.recommend(&[1], 0, &g),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn empty_bundle_answers_model_unavailable() {
        let m = ModelSet::new(vec!["a".into()]);
        let g = Guard::unlimited();
        assert_eq!(
            m.predict(ModelKind::Knn, &[vec![1.0]], &g),
            Err(ServeError::ModelUnavailable("knn"))
        );
        assert_eq!(
            m.score(&[vec![1.0]], &g),
            Err(ServeError::ModelUnavailable("kmeans"))
        );
        assert_eq!(
            m.recommend(&[1], 3, &g),
            Err(ServeError::ModelUnavailable("rules"))
        );
    }

    #[test]
    fn score_matches_kmeans_model_score_bit_for_bit() {
        let m = ModelSet::demo(5).unwrap();
        let rows = vec![vec![0.0, 0.0], vec![8.0, 8.0], vec![-3.5, 4.2]];
        let g = Guard::unlimited();
        let (reply, tier) = m.score(&rows, &g).unwrap();
        let direct = m
            .kmeans()
            .unwrap()
            .score(&Matrix::from_rows(&rows).unwrap())
            .unwrap();
        assert_eq!(reply, Reply::Scores(direct));
        assert_eq!(tier, Tier::Full);
    }
}
