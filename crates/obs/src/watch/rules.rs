//! Declarative SLO and drift rules, loadable from the workspace's
//! dependency-free JSON.
//!
//! A rule file is one object with a `rules` array; each rule names
//! itself, picks exactly one condition, and may tune the alert state
//! machine's `for_ms` (breach duration before `Pending` matures into
//! `Firing`) and `clear_for_ms` (clean duration before `Firing` clears
//! — the hysteresis that stops an oscillating series from flapping):
//!
//! ```json
//! {
//!   "rules": [
//!     {"name": "score-latency-p99", "for_ms": 200, "clear_for_ms": 400,
//!      "quantile_above": {"metric": "serve.latency.score_ns",
//!                         "q": 0.99, "max": 50000000}},
//!     {"name": "shed-rate",
//!      "ratio_above": {"numerator": "serve.queue.shed",
//!                      "denominators": ["serve.queue.admitted",
//!                                       "serve.queue.shed"],
//!                      "max": 0.05}},
//!     {"name": "artifact-stale",
//!      "stale_for": {"metric": "serve.artifact.refreshed",
//!                    "max_age_ms": 60000}},
//!     {"name": "inertia-drift",
//!      "drift": {"metric": "stream.kmeans.inertia", "hold_ms": 500,
//!                "page_hinkley": {"delta": 0.05, "lambda": 20.0}}}
//!   ]
//! }
//! ```

use super::drift::{Cusum, Detector, PageHinkley};
use crate::json::{self, Json};

/// Default CUSUM warmup when the rule file does not set one.
const DEFAULT_CUSUM_WARMUP: u64 = 10;

/// What a rule watches and when it counts as breached.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// The windowed `q`-quantile of a histogram exceeds `max`
    /// (e.g. p99 of `serve.latency.score_ns`).
    QuantileAbove {
        /// Histogram name.
        metric: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Breach threshold (same unit as the histogram's samples).
        max: f64,
    },
    /// The windowed ratio `Δnumerator / Σ Δdenominators` exceeds `max`
    /// (e.g. shed rate, truncation rate). Counter and event names both
    /// work. A zero denominator means "no traffic in the window" and
    /// never breaches.
    RatioAbove {
        /// Counter or event name on top.
        numerator: String,
        /// Counter or event names summed underneath.
        denominators: Vec<String>,
        /// Breach threshold as a plain ratio.
        max: f64,
    },
    /// The counter (or event) has not changed for more than
    /// `max_age_ms` (e.g. `serve.artifact.refreshed` staleness).
    StaleFor {
        /// Counter or event name.
        metric: String,
        /// Breach threshold in milliseconds.
        max_age_ms: u64,
    },
    /// The gauge's latest value exceeds `max`.
    GaugeAbove {
        /// Gauge name.
        metric: String,
        /// Breach threshold.
        max: f64,
    },
    /// A drift detector over the gauge's observation series raised.
    /// Each new write ordinal feeds the detector once; a detection
    /// latches the rule as breached for `hold_ms` so the state machine
    /// can walk `Pending → Firing` across subsequent ticks.
    Drift {
        /// Gauge name whose observation series is monitored.
        metric: String,
        /// Which detector, with its parameters.
        detector: DetectorSpec,
        /// How long one detection keeps the rule breached (`None`:
        /// `for_ms + 2000`).
        hold_ms: Option<u64>,
    },
}

/// Drift-detector family and parameters (see [`super::drift`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorSpec {
    /// Page–Hinkley mean-shift test.
    PageHinkley {
        /// Noise tolerance δ.
        delta: f64,
        /// Detection threshold λ.
        lambda: f64,
    },
    /// One-sided upward CUSUM chart.
    Cusum {
        /// Allowance k.
        k: f64,
        /// Decision threshold h.
        h: f64,
        /// In-control samples used to estimate the baseline level.
        warmup: u64,
    },
}

impl DetectorSpec {
    /// Instantiates a fresh running detector.
    pub fn build(&self) -> Detector {
        match *self {
            DetectorSpec::PageHinkley { delta, lambda } => {
                Detector::PageHinkley(PageHinkley::new(delta, lambda))
            }
            DetectorSpec::Cusum { k, h, warmup } => Detector::Cusum(Cusum::new(k, h, warmup)),
        }
    }
}

/// Coarse classification of a rule, carried on transitions so
/// reactions (degrade vs refresh) can discriminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// A service-level objective on live traffic.
    Slo,
    /// A concept-drift detection on a model-state series.
    Drift,
}

impl RuleKind {
    /// Lowercase label (`"slo"` / `"drift"`).
    pub fn label(self) -> &'static str {
        match self {
            RuleKind::Slo => "slo",
            RuleKind::Drift => "drift",
        }
    }
}

/// One named rule: a condition plus the state-machine durations.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name (also the metric-name segment for `watch.alert.<name>.*`).
    pub name: String,
    /// Breach condition.
    pub condition: Condition,
    /// How long the condition must hold before `Pending` becomes
    /// `Firing` (0: the tick after the breach started).
    pub for_ms: u64,
    /// How long the condition must stay clear before `Firing` becomes
    /// `Resolved` (0: the first clean tick resolves).
    pub clear_for_ms: u64,
}

impl SloRule {
    /// A rule that fires on the tick after its first breach and
    /// resolves on its first clean tick.
    pub fn new(name: impl Into<String>, condition: Condition) -> Self {
        Self {
            name: name.into(),
            condition,
            for_ms: 0,
            clear_for_ms: 0,
        }
    }

    /// Requires the breach to hold `ms` before firing.
    pub fn for_ms(mut self, ms: u64) -> Self {
        self.for_ms = ms;
        self
    }

    /// Requires `ms` of clean ticks before a firing alert resolves.
    pub fn clear_for_ms(mut self, ms: u64) -> Self {
        self.clear_for_ms = ms;
        self
    }

    /// Whether this is an SLO or a drift rule.
    pub fn kind(&self) -> RuleKind {
        match self.condition {
            Condition::Drift { .. } => RuleKind::Drift,
            _ => RuleKind::Slo,
        }
    }

    /// How long one drift detection keeps this rule breached.
    pub(crate) fn drift_hold_ms(&self) -> u64 {
        match self.condition {
            Condition::Drift { hold_ms, .. } => hold_ms.unwrap_or(self.for_ms + 2000),
            _ => 0,
        }
    }
}

/// An ordered set of rules (evaluation order = file order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// The rules, in declaration order.
    pub rules: Vec<SloRule>,
}

impl RuleSet {
    /// A set holding `rules`.
    pub fn new(rules: Vec<SloRule>) -> Self {
        Self { rules }
    }

    /// Parses a rule file (see the module docs for the schema).
    pub fn from_json(input: &str) -> Result<RuleSet, String> {
        let doc = json::parse(input).map_err(|e| format!("rule file: {e}"))?;
        let rules: &[Json] = doc.req("rules").map_err(|e| format!("rule file: {e}"))?;
        let mut out = Vec::with_capacity(rules.len());
        for (i, r) in rules.iter().enumerate() {
            out.push(parse_rule(r).map_err(|e| format!("rule #{}: {e}", i + 1))?);
        }
        Ok(RuleSet { rules: out })
    }
}

fn parse_detector(obj: &Json) -> Result<DetectorSpec, String> {
    if let Some(ph) = obj.get("page_hinkley") {
        return Ok(DetectorSpec::PageHinkley {
            delta: ph.req("delta")?,
            lambda: ph.req("lambda")?,
        });
    }
    if let Some(cs) = obj.get("cusum") {
        return Ok(DetectorSpec::Cusum {
            k: cs.req("k")?,
            h: cs.req("h")?,
            warmup: cs
                .get("warmup")
                .and_then(Json::as_u64)
                .unwrap_or(DEFAULT_CUSUM_WARMUP),
        });
    }
    Err("drift needs a \"page_hinkley\" or \"cusum\" detector".into())
}

fn parse_rule(r: &Json) -> Result<SloRule, String> {
    let name: String = r.req("name")?;
    if name.is_empty() {
        return Err("empty rule name".into());
    }
    let mut conditions = Vec::new();
    if let Some(c) = r.get("quantile_above") {
        let q: f64 = c.req("q")?;
        if !(0.0..=1.0).contains(&q) {
            return Err(format!("q {q} not in [0, 1]"));
        }
        conditions.push(Condition::QuantileAbove {
            metric: c.req("metric")?,
            q,
            max: c.req("max")?,
        });
    }
    if let Some(c) = r.get("ratio_above") {
        let denominators: Vec<String> = c.req("denominators")?;
        if denominators.is_empty() {
            return Err("ratio_above needs at least one denominator".into());
        }
        conditions.push(Condition::RatioAbove {
            numerator: c.req("numerator")?,
            denominators,
            max: c.req("max")?,
        });
    }
    if let Some(c) = r.get("stale_for") {
        conditions.push(Condition::StaleFor {
            metric: c.req("metric")?,
            max_age_ms: c.req("max_age_ms")?,
        });
    }
    if let Some(c) = r.get("gauge_above") {
        conditions.push(Condition::GaugeAbove {
            metric: c.req("metric")?,
            max: c.req("max")?,
        });
    }
    if let Some(c) = r.get("drift") {
        conditions.push(Condition::Drift {
            metric: c.req("metric")?,
            detector: parse_detector(c)?,
            hold_ms: c.get("hold_ms").and_then(Json::as_u64),
        });
    }
    if conditions.len() > 1 {
        return Err(format!(
            "{} conditions; exactly one allowed",
            conditions.len()
        ));
    }
    let condition = conditions.pop().ok_or_else(|| {
        "no condition (quantile_above / ratio_above / stale_for / gauge_above / drift)".to_owned()
    })?;
    Ok(SloRule {
        name,
        condition,
        for_ms: r.get("for_ms").and_then(Json::as_u64).unwrap_or(0),
        clear_for_ms: r.get("clear_for_ms").and_then(Json::as_u64).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_condition_kind() {
        let set = RuleSet::from_json(
            r#"{
              "rules": [
                {"name": "p99", "for_ms": 200, "clear_for_ms": 400,
                 "quantile_above": {"metric": "serve.latency.score_ns", "q": 0.99, "max": 5e7}},
                {"name": "shed",
                 "ratio_above": {"numerator": "serve.queue.shed",
                                 "denominators": ["serve.queue.admitted", "serve.queue.shed"],
                                 "max": 0.05}},
                {"name": "stale", "stale_for": {"metric": "serve.artifact.refreshed", "max_age_ms": 60000}},
                {"name": "depth", "gauge_above": {"metric": "serve.queue.depth", "max": 10.0}},
                {"name": "ph", "drift": {"metric": "stream.kmeans.inertia",
                                          "page_hinkley": {"delta": 0.05, "lambda": 20.0}}},
                {"name": "cs", "drift": {"metric": "stream.kmeans.inertia", "hold_ms": 500,
                                          "cusum": {"k": 0.1, "h": 4.0, "warmup": 5}}}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(set.rules.len(), 6);
        assert_eq!(set.rules[0].for_ms, 200);
        assert_eq!(set.rules[0].clear_for_ms, 400);
        assert_eq!(set.rules[0].kind(), RuleKind::Slo);
        assert_eq!(set.rules[4].kind(), RuleKind::Drift);
        assert_eq!(set.rules[4].drift_hold_ms(), 2000);
        assert_eq!(set.rules[5].drift_hold_ms(), 500);
        match &set.rules[1].condition {
            Condition::RatioAbove { denominators, .. } => assert_eq!(denominators.len(), 2),
            c => panic!("wrong condition {c:?}"),
        }
    }

    #[test]
    fn rejects_malformed_rules() {
        for (bad, why) in [
            (r#"{}"#, "no rules array"),
            (r#"{"rules": [{"name": "x"}]}"#, "no condition"),
            (
                r#"{"rules": [{"name": "x",
                   "gauge_above": {"metric": "g", "max": 1.0},
                   "stale_for": {"metric": "c", "max_age_ms": 5}}]}"#,
                "two conditions",
            ),
            (
                r#"{"rules": [{"name": "", "gauge_above": {"metric": "g", "max": 1.0}}]}"#,
                "empty name",
            ),
            (
                r#"{"rules": [{"name": "x", "quantile_above": {"metric": "m", "q": 1.5, "max": 1.0}}]}"#,
                "q out of range",
            ),
            (
                r#"{"rules": [{"name": "x", "ratio_above": {"numerator": "n", "denominators": [], "max": 0.1}}]}"#,
                "empty denominators",
            ),
            (
                r#"{"rules": [{"name": "x", "drift": {"metric": "g"}}]}"#,
                "no detector",
            ),
        ] {
            assert!(RuleSet::from_json(bad).is_err(), "accepted {why}: {bad}");
        }
    }

    #[test]
    fn builder_defaults_fire_fast() {
        let r = SloRule::new(
            "depth",
            Condition::GaugeAbove {
                metric: "serve.queue.depth".into(),
                max: 4.0,
            },
        );
        assert_eq!((r.for_ms, r.clear_for_ms), (0, 0));
        let r = r.for_ms(100).clear_for_ms(300);
        assert_eq!((r.for_ms, r.clear_for_ms), (100, 300));
    }
}
