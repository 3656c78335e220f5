//! # dm-core
//!
//! The unified facade of the `datamining` workspace: one crate to depend
//! on for the full toolkit.
//!
//! * Re-exports every subsystem crate under a stable module name
//!   ([`dataset`], [`synth`], [`eval`], [`assoc`], [`cluster`], [`tree`],
//!   [`bayes`], [`knn`]).
//! * Defines the polymorphic [`Classifier`]/[`ClassifierModel`] traits
//!   with adapters for every classifier in the workspace, so model
//!   selection code can treat them uniformly.
//! * Provides the [`model_selection`] module: k-fold cross-validation
//!   and train/test evaluation over any [`Classifier`].
//!
//! ```
//! use dm_core::prelude::*;
//!
//! let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F1, 400)
//!     .unwrap()
//!     .generate(7);
//! let result = cross_validate(
//!     &TreeClassifier::default(),
//!     &data,
//!     &labels,
//!     5,
//!     0, // shuffle seed
//! )
//! .unwrap();
//! assert!(result.mean_accuracy > 0.9);
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
pub mod classify;
pub mod model_selection;

/// Association-rule mining (re-export of `dm-assoc`).
pub use dm_assoc as assoc;
/// Naive Bayes (re-export of `dm-bayes`).
pub use dm_bayes as bayes;
/// Clustering (re-export of `dm-cluster`).
pub use dm_cluster as cluster;
/// The data substrate (re-export of `dm-dataset`).
pub use dm_dataset as dataset;
/// Evaluation metrics (re-export of `dm-eval`).
pub use dm_eval as eval;
/// Resource governance (re-export of `dm-guard`): budgets, cooperative
/// cancellation, and graceful truncation for every long-running miner.
pub use dm_guard as guard;
/// k-nearest neighbours (re-export of `dm-knn`).
pub use dm_knn as knn;
/// Observability (re-export of `dm-obs`): metric recorders, timed spans
/// and JSON snapshots, attached to runs via `Guard::with_recorder`.
pub use dm_obs as obs;
/// Data-parallel execution (re-export of `dm-par`): chunked map-reduce
/// with a determinism guarantee; see its module docs for the model.
pub use dm_par as par;
/// Sequential-pattern mining (re-export of `dm-seq`).
pub use dm_seq as seq;
/// Streaming & incremental mining (re-export of `dm-stream`): the
/// insert/query lifecycle over unbounded record streams.
pub use dm_stream as stream;
/// Synthetic workload generators (re-export of `dm-synth`).
pub use dm_synth as synth;
/// Decision trees (re-export of `dm-tree`).
pub use dm_tree as tree;

pub use classify::{
    BaggedClassifier, BayesClassifier, Classifier, ClassifierModel, KnnClassifier, OneRClassifier,
    TreeClassifier,
};
pub use model_selection::{cross_validate, train_test_evaluate, CvResult};

/// Convenience prelude pulling in the common types of every subsystem.
pub mod prelude {
    pub use crate::classify::{
        BaggedClassifier, BayesClassifier, Classifier, ClassifierModel, KnnClassifier,
        OneRClassifier, TreeClassifier,
    };
    pub use crate::model_selection::{cross_validate, train_test_evaluate, CvResult};
    pub use dm_assoc::{
        mine, mine_governed, Ais, Apriori, AprioriHybrid, AprioriTid, BruteForce, CountingStrategy,
        Eclat, FpGrowth, FrequentItemsets, ItemsetMiner, Method, MinSupport, MiningResult, Rule,
        RuleGenerator, Setm,
    };
    pub use dm_bayes::NaiveBayes;
    pub use dm_cluster::{
        Agglomerative, Birch, Clara, Clarans, Clusterer, Clustering, Dbscan, Init, KMeans, Linkage,
        Pam, NOISE,
    };
    pub use dm_dataset::{
        Column, DataError, Dataset, Dict, KFold, Labels, Matrix, StratifiedKFold, TidSet,
        TransactionDb, Value, VerticalDb,
    };
    pub use dm_eval::{
        adjusted_rand_index, normalized_mutual_information, purity, silhouette, sse,
        ConfusionMatrix,
    };
    pub use dm_guard::{Budget, CancelToken, Guard, Outcome, RunStatus, TruncationReason};
    pub use dm_knn::{CondensedNn, Distance, Knn, Search, Weighting};
    pub use dm_obs::{
        export::{chrome_trace, folded_stacks, prometheus},
        HeapSize, Histogram, InMemoryRecorder, NoopRecorder, Obs, Recorder, Snapshot, SpanId,
        SNAPSHOT_SCHEMA,
    };
    pub use dm_par::Parallelism;
    pub use dm_seq::{
        AprioriAll, SequenceConfig, SequenceDb, SequenceGenerator, SequentialPattern,
    };
    pub use dm_stream::{StreamBirch, StreamEngine, StreamFrequent, StreamKMeans};
    pub use dm_synth::{
        flip_labels, AgrawalFunction, AgrawalGenerator, ClusterSpec, GaussianMixture, PointStream,
        QuestConfig, QuestGenerator, Reservoir, TxnStream,
    };
    pub use dm_tree::{BaggedTrees, DecisionTreeLearner, OneR, Pruning, SplitCriterion};
}
