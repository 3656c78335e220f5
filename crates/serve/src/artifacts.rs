//! Fitted-model artifacts: a versioned, dependency-free JSON bundle a
//! server can be cold-started from.
//!
//! What round-trips: the serving schema, the default (majority) class,
//! k-means centroids, the kNN model (training matrix + labels + `k` —
//! reloading refits the index, which is deterministic), the decision
//! tree (full node array, revalidated structurally by
//! `DecisionTree::from_parts` so a corrupt artifact cannot produce a
//! tree that panics or loops), the mined rules, and the top-support
//! singleton vocabulary. Ensembles and naive Bayes deliberately do
//! *not* serialize — they refit in-process; a loaded bundle answers
//! their endpoints with the typed `ModelUnavailable`.
//!
//! Corruption is a first-class input, not an assumed-away case: every
//! load failure is a typed [`ArtifactError`] naming what broke, and
//! the chaos suite feeds this loader truncated, bit-flipped, and
//! wrong-schema bytes to prove it. Floats are written with Rust's
//! shortest-round-trip formatting, so save → load → save is
//! byte-stable.

use crate::api::Recommendation;
use crate::models::ModelSet;
use dm_core::assoc::Rule;
use dm_core::cluster::KMeansModel;
use dm_core::dataset::Matrix;
use dm_core::knn::Knn;
use dm_core::obs::json::{
    parse, FieldError, Json,
    Layout::{Block, Inline},
    Writer,
};
use dm_core::tree::{DecisionTree, Node, SplitKind};
use std::fmt;

/// Version of the artifact bundle schema. Bump on any key change and
/// document it in DESIGN.md ("Serving").
pub const ARTIFACT_SCHEMA: u32 = 1;

/// Why an artifact bundle failed to load — always typed and readable,
/// never a panic, whatever the input bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The bytes are not valid JSON (message + byte offset).
    Json(String),
    /// Valid JSON, but not a valid bundle; the string names the
    /// offending key or structural rule.
    Shape(String),
    /// The bundle's `artifact_schema` is newer than this build reads.
    SchemaTooNew(u64),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            Self::Shape(what) => write!(f, "artifact malformed: {what}"),
            Self::SchemaTooNew(v) => write!(
                f,
                "artifact_schema {v} is newer than this build reads (<= {ARTIFACT_SCHEMA})"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

// -- save -------------------------------------------------------------

/// Serializes the bundle's artifact-serializable parts to JSON.
pub fn save_artifacts(models: &ModelSet) -> String {
    let mut w = Writer::new();
    w.obj(Block, |w| {
        w.key("artifact_schema").u64(ARTIFACT_SCHEMA.into());
        w.key("schema").list(Inline, models.schema());
        w.key("default_class").u64(models.default_class().into());
        if let Some(kmeans) = models.kmeans() {
            w.key("kmeans").obj(Inline, |w| {
                matrix(w.key("centroids"), &kmeans.centroids);
            });
        }
        if let Some(knn) = models.knn() {
            w.key("knn").obj(Inline, |w| {
                w.key("k").u64(knn.k() as u64);
                matrix(w.key("train"), knn.train());
                w.key("labels").list(Inline, knn.labels());
            });
        }
        if let Some(tree) = models.tree() {
            tree_json(w.key("tree"), tree);
        }
        w.key("rules").arr(Inline, |w| {
            for rule in models.rules() {
                w.obj(Inline, |w| {
                    w.key("antecedent").list(Inline, rule.antecedent());
                    w.key("consequent").list(Inline, rule.consequent());
                    w.key("support").f64_plain(rule.support);
                    w.key("confidence").f64_plain(rule.confidence);
                    w.key("lift").f64_plain(rule.lift);
                });
            }
        });
        w.key("singletons").arr(Inline, |w| {
            for rec in models.top_singletons() {
                w.arr(Inline, |w| {
                    w.u64(rec.item.into()).u64(rec.score as u64);
                });
            }
        });
    });
    w.finish() + "\n"
}

fn matrix(w: &mut Writer, m: &Matrix) {
    w.arr(Inline, |w| {
        for r in 0..m.rows() {
            w.arr(Inline, |w| {
                for &v in m.row(r) {
                    w.f64_plain(v);
                }
            });
        }
    });
}

fn tree_json(w: &mut Writer, tree: &DecisionTree) {
    w.obj(Inline, |w| {
        w.key("root").u64(tree.root_id() as u64);
        w.key("n_classes").u64(tree.n_classes() as u64);
        w.key("attr_names").list(Inline, tree.attr_names());
        w.key("nodes").arr(Inline, |w| {
            for node in tree.nodes() {
                w.obj(Inline, |w| match node {
                    Node::Leaf { class, counts } => {
                        w.key("leaf").obj(Inline, |w| {
                            w.key("class").val(class);
                            w.key("counts").list(Inline, counts);
                        });
                    }
                    Node::Split {
                        attr,
                        spec,
                        children,
                        default_child,
                        majority,
                        counts,
                    } => {
                        w.key("split").obj(Inline, |w| {
                            w.key("attr").val(attr);
                            w.key("spec").obj(Inline, |w| match spec {
                                SplitKind::NumericThreshold { threshold } => {
                                    w.key("kind").str("num");
                                    w.key("threshold").f64_plain(*threshold);
                                }
                                SplitKind::CategoricalMultiway { categories } => {
                                    w.key("kind").str("multi");
                                    w.key("categories").list(Inline, categories);
                                }
                                SplitKind::CategoricalEquals { category } => {
                                    w.key("kind").str("eq").key("category").val(category);
                                }
                            });
                            w.key("children").list(Inline, children);
                            w.key("default_child").val(default_child);
                            w.key("majority").val(majority);
                            w.key("counts").list(Inline, counts);
                        });
                    }
                });
            }
        });
    });
}

// -- load -------------------------------------------------------------

type Load<T> = Result<T, ArtifactError>;

fn shape<T>(msg: impl Into<String>) -> Load<T> {
    Err(ArtifactError::Shape(msg.into()))
}

impl From<FieldError> for ArtifactError {
    fn from(e: FieldError) -> Self {
        ArtifactError::Shape(e.to_string())
    }
}

fn load_matrix(doc: &Json, key: &str) -> Load<Matrix> {
    let rows: Vec<Vec<f64>> = doc.req(key)?;
    Matrix::from_rows(&rows).map_err(|e| ArtifactError::Shape(format!("{key}: {e}")))
}

/// Deserializes a bundle saved by [`save_artifacts`]. Every structural
/// defect — invalid JSON, wrong schema version, missing keys, a tree
/// with dangling children or cycles, dimension mismatches — comes back
/// as a typed [`ArtifactError`].
pub fn load_artifacts(text: &str) -> Load<ModelSet> {
    let doc = parse(text).map_err(|e| ArtifactError::Json(e.to_string()))?;
    let version: u64 = doc.req("artifact_schema")?;
    if version > u64::from(ARTIFACT_SCHEMA) {
        return Err(ArtifactError::SchemaTooNew(version));
    }
    let schema: Vec<String> = doc.req("schema")?;
    if schema.is_empty() {
        return shape("`schema` must name at least one feature");
    }
    let mut models = ModelSet::new(schema.clone()).with_default_class(doc.req("default_class")?);

    if let Some(kmeans_doc) = doc.get("kmeans") {
        let centroids = load_matrix(kmeans_doc, "centroids")?;
        if centroids.cols() != schema.len() {
            return shape(format!(
                "kmeans centroids have {} dims, schema has {}",
                centroids.cols(),
                schema.len()
            ));
        }
        let model = KMeansModel::from_centroids(centroids)
            .map_err(|e| ArtifactError::Shape(format!("kmeans: {e}")))?;
        models = models.with_kmeans(model);
    }

    if let Some(knn_doc) = doc.get("knn") {
        let train = load_matrix(knn_doc, "train")?;
        if train.cols() != schema.len() {
            return shape(format!(
                "knn train has {} dims, schema has {}",
                train.cols(),
                schema.len()
            ));
        }
        let labels: Vec<u32> = knn_doc.req("labels")?;
        let model = Knn::new(knn_doc.req("k")?)
            .fit(&train, &labels)
            .map_err(|e| ArtifactError::Shape(format!("knn refit: {e}")))?;
        models = models.with_knn(model);
    }

    if let Some(tree_doc) = doc.get("tree") {
        models = models.with_tree(load_tree(tree_doc)?);
    }

    let mut rules = Vec::new();
    for rule_doc in doc.req::<&[Json]>("rules")? {
        let antecedent: Vec<u32> = rule_doc.req("antecedent")?;
        let consequent: Vec<u32> = rule_doc.req("consequent")?;
        rules.push(Rule::new(
            &antecedent,
            &consequent,
            rule_doc.req("support")?,
            rule_doc.req("confidence")?,
            rule_doc.req("lift")?,
        ));
    }
    let mut singletons = Vec::new();
    for pair in doc.req::<&[Json]>("singletons")? {
        let [item, count] = pair.as_arr().unwrap_or_default() else {
            return shape("`singletons` entries must be [item, count]");
        };
        singletons.push((item.to("singleton item")?, count.to("singleton count")?));
    }
    Ok(models.with_rules(rules, singletons))
}

fn load_tree(doc: &Json) -> Load<DecisionTree> {
    let mut nodes = Vec::new();
    for node_doc in doc.req::<&[Json]>("nodes")? {
        let node = if let Some(leaf) = node_doc.get("leaf") {
            Node::Leaf {
                class: leaf.req("class")?,
                counts: leaf.req("counts")?,
            }
        } else if let Some(split) = node_doc.get("split") {
            let spec_doc: &Json = split.req("spec")?;
            let spec = match spec_doc.req("kind")? {
                "num" => SplitKind::NumericThreshold {
                    threshold: spec_doc.req("threshold")?,
                },
                "multi" => SplitKind::CategoricalMultiway {
                    categories: spec_doc.req("categories")?,
                },
                "eq" => SplitKind::CategoricalEquals {
                    category: spec_doc.req("category")?,
                },
                other => return shape(format!("unknown split kind `{other}`")),
            };
            Node::Split {
                attr: split.req("attr")?,
                spec,
                children: split.req("children")?,
                default_child: split.req("default_child")?,
                majority: split.req("majority")?,
                counts: split.req("counts")?,
            }
        } else {
            return shape("tree node is neither `leaf` nor `split`");
        };
        nodes.push(node);
    }
    let attr_names = doc.req("attr_names")?;
    DecisionTree::from_parts(nodes, doc.req("root")?, doc.req("n_classes")?, attr_names)
        .map_err(|e| ArtifactError::Shape(e.to_string()))
}

/// Round-trip convenience: loads from a file path (the `dm`-adjacent
/// tooling and experiments use string paths throughout).
pub fn load_artifacts_file(path: &std::path::Path) -> Load<ModelSet> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArtifactError::Json(format!("cannot read {}: {e}", path.display())))?;
    load_artifacts(&text)
}

/// The singleton `Recommendation` list re-expressed as `(item, count)`
/// pairs (what [`ModelSet::with_rules`] takes) — used by round-trip
/// tests.
pub fn singleton_pairs(recs: &[Recommendation]) -> Vec<(u32, usize)> {
    recs.iter().map(|r| (r.item, r.score as usize)).collect()
}
