//! The request/response vocabulary: every interaction with the server
//! is a [`Request`] in and a [`ServeResult`] out — a typed response
//! carrying its degradation [`Tier`] and the guard's
//! `Complete`/`Truncated` status, or a typed [`ServeError`]. There is
//! deliberately no untyped escape hatch.

use dm_core::guard::RunStatus;
use std::fmt;

/// Which fitted classifier a predict request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The single decision tree.
    Tree,
    /// The bagged-trees ensemble.
    Ensemble,
    /// Naive Bayes.
    NaiveBayes,
    /// k-nearest neighbours.
    Knn,
}

impl ModelKind {
    /// Stable lowercase label (metric names, artifact keys).
    pub fn label(self) -> &'static str {
        match self {
            Self::Tree => "tree",
            Self::Ensemble => "ensemble",
            Self::NaiveBayes => "naive_bayes",
            Self::Knn => "knn",
        }
    }
}

/// One unit of work submitted to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify `rows` (numeric feature vectors matching the serving
    /// schema) with the chosen model.
    Predict {
        /// Which classifier answers.
        model: ModelKind,
        /// Feature rows; every row must match the schema width.
        rows: Vec<Vec<f64>>,
    },
    /// Score `rows` by squared distance to the nearest k-means
    /// centroid (an affinity/anomaly score; higher = farther out).
    Score {
        /// Feature rows; every row must match the schema width.
        rows: Vec<Vec<f64>>,
    },
    /// Recommend up to `k` items to a user holding `basket`, from the
    /// mined association rules ("users who bought X…").
    Recommend {
        /// Item ids the user already holds.
        basket: Vec<u32>,
        /// Maximum number of recommendations (must be >= 1).
        k: usize,
    },
}

impl Request {
    /// The endpoint this request hits (metric labelling).
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Self::Predict { .. } => Endpoint::Predict,
            Self::Score { .. } => Endpoint::Score,
            Self::Recommend { .. } => Endpoint::Recommend,
        }
    }
}

/// The three serving endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Classification.
    Predict,
    /// Centroid-distance scoring.
    Score,
    /// Rule-based recommendation.
    Recommend,
}

impl Endpoint {
    /// Stable lowercase label used in metric names
    /// (`serve.latency.<label>_ns`).
    pub fn label(self) -> &'static str {
        match self {
            Self::Predict => "predict",
            Self::Score => "score",
            Self::Recommend => "recommend",
        }
    }

    /// The endpoint's latency histogram, `serve.latency.<label>_ns`.
    pub(crate) fn latency_metric(self) -> &'static str {
        match self {
            Self::Predict => "serve.latency.predict_ns",
            Self::Score => "serve.latency.score_ns",
            Self::Recommend => "serve.latency.recommend_ns",
        }
    }
}

/// One recommended item with its score (rule confidence on the full
/// tier, support count on the top-support fallback tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Recommended item id.
    pub item: u32,
    /// Ranking score; higher is better. Comparable only within one
    /// response (the fallback tier scores on a different scale).
    pub score: f64,
}

/// The payload of a successful (possibly degraded) response.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Predicted class codes, one per requested row.
    Classes(Vec<u32>),
    /// Nearest-centroid squared distances. May be a *prefix* of the
    /// requested rows when the budget tripped mid-batch (the response
    /// status says so).
    Scores(Vec<f64>),
    /// Ranked recommendations, best first.
    Recommendations(Vec<Recommendation>),
}

/// Which quality tier produced a response. Anything other than
/// [`Tier::Full`] only ever appears on a `Truncated` response — the
/// server degrades when (and only when) a budget trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The primary model answered within budget.
    Full,
    /// kNN tripped its budget; remaining rows were classified by
    /// nearest per-class centroid.
    CentroidFallback,
    /// A tree/ensemble/NB prediction tripped; remaining rows got the
    /// training-majority class.
    MajorityFallback,
    /// Rule scanning tripped; recommendations fell back to the
    /// top-support frequent singletons.
    TopSupportFallback,
}

impl Tier {
    /// Stable lowercase label (metric names: `serve.degraded.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::CentroidFallback => "centroid",
            Self::MajorityFallback => "majority",
            Self::TopSupportFallback => "top_support",
        }
    }
}

/// A successful response: the reply plus an honest account of how it
/// was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The answer.
    pub reply: Reply,
    /// `Complete`, or `Truncated(reason)` when the request's budget
    /// tripped (in which case `tier` and/or reply length say how the
    /// server coped).
    pub status: RunStatus,
    /// Which quality tier answered.
    pub tier: Tier,
}

/// Every way the server declines or fails a request — all typed, all
/// cheap to produce, none fatal to the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full; the request was shed at submit
    /// time. `depth` is the queue depth observed (== capacity).
    Overloaded {
        /// Queue depth at rejection.
        depth: usize,
    },
    /// The server is shutting down; queued requests are answered with
    /// this rather than dropped.
    ShuttingDown,
    /// The request failed validation (wrong row width, non-finite
    /// feature, `k == 0`, empty batch). The string is human-readable.
    Malformed(String),
    /// No fitted model of the requested kind is installed.
    ModelUnavailable(&'static str),
    /// The request panicked inside a worker; the worker was recycled
    /// and the panic did not take down the process.
    WorkerPanicked,
    /// The client's own wait on the [`crate::Ticket`] timed out (the
    /// server may still complete the request; the slot is simply
    /// abandoned).
    ResponseTimeout,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { depth } => {
                write!(f, "overloaded: admission queue full at depth {depth}")
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Malformed(why) => write!(f, "malformed request: {why}"),
            Self::ModelUnavailable(kind) => write!(f, "no fitted `{kind}` model installed"),
            Self::WorkerPanicked => write!(f, "request panicked in worker (worker recycled)"),
            Self::ResponseTimeout => write!(f, "timed out waiting for the response"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a [`crate::Ticket`] resolves to.
pub type ServeResult = Result<ServeResponse, ServeError>;
