//! Live SLO evaluation, alerting, and concept-drift detection — the
//! layer that turns the recorder from a flight data recorder into a
//! control loop.
//!
//! A [`Watcher`] is driven by ticks: each tick it snapshots a live
//! recorder into a [`MetricView`] sliding window, evaluates every
//! [`SloRule`] against the windowed quantities, and advances one
//! [`AlertState`] machine per rule:
//!
//! ```text
//! Ok ──breach──▶ Pending ──breach held for_ms──▶ Firing
//! ▲                 │                               │
//! │              !breach                   clear for clear_for_ms
//! │                 ▼                               ▼
//! └──────────────── Ok ◀──────!breach─────────── Resolved
//! ```
//!
//! At most one edge is taken per tick, so `Pending` can never skip to
//! `Resolved`, and during `Firing` any breach tick resets the clear
//! timer — the hysteresis that keeps an oscillating series from
//! flapping. Time comes from an injected [`Clock`], so the whole
//! machine is deterministic and property-testable: the same snapshots
//! at the same tick times produce bit-identical transition sequences
//! (E17 gates exactly this at 0% tolerance).
//!
//! Drift rules wrap a [`drift`] detector (Page–Hinkley or CUSUM) around
//! a gauge's observation series — each new gauge write ordinal (the
//! snapshot's `gauge_seq`) feeds the detector once — and a detection
//! latches the rule breached for its hold window so the state machine
//! can walk the same `Pending → Firing` path.
//!
//! Every evaluation emits `watch.*` metrics through the ordinary
//! [`Obs`] facade, so the watcher's own behaviour lands in snapshots,
//! the Prometheus exposition, and the run ledger like any other
//! subsystem.

pub mod drift;
pub mod rules;
pub mod view;

pub use drift::{Cusum, Detector, PageHinkley};
pub use rules::{Condition, DetectorSpec, RuleKind, RuleSet, SloRule};
pub use view::MetricView;

use crate::{Obs, Snapshot};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The watcher's time source. Injected so every gated path can use a
/// [`ManualClock`] and stay wall-clock-free.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds (any fixed origin).
    fn now_ms(&self) -> u64;
}

/// A hand-advanced clock: deterministic tests and experiments move
/// time explicitly.
#[derive(Debug, Default)]
pub struct ManualClock {
    ms: AtomicU64,
}

impl ManualClock {
    /// A clock standing at `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        Self {
            ms: AtomicU64::new(start_ms),
        }
    }

    /// Moves time forward by `delta_ms`.
    pub fn advance(&self, delta_ms: u64) {
        self.ms.fetch_add(delta_ms, Ordering::SeqCst);
    }

    /// Jumps to an absolute time (must not move backwards in sane use).
    pub fn set(&self, t_ms: u64) {
        self.ms.store(t_ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

/// The real clock: milliseconds since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl SystemClock {
    /// A clock whose zero is "now".
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Where one rule's alert currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No breach.
    Ok,
    /// Breached, waiting out `for_ms` before firing.
    Pending,
    /// The alert is live.
    Firing,
    /// The alert just cleared (one tick; then back to `Ok`).
    Resolved,
}

impl AlertState {
    /// Lowercase label (`"ok"`, `"pending"`, `"firing"`, `"resolved"`).
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One state-machine edge taken during a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Rule name.
    pub rule: String,
    /// SLO or drift rule.
    pub kind: RuleKind,
    /// State before the tick.
    pub from: AlertState,
    /// State after the tick.
    pub to: AlertState,
    /// Clock time of the tick.
    pub at_ms: u64,
}

/// A rule's externally visible status (the serving status API row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// SLO or drift rule.
    pub kind: RuleKind,
    /// Current state.
    pub state: AlertState,
    /// Clock time the current state was entered (`None`: never left
    /// the initial `Ok`).
    pub since_ms: Option<u64>,
    /// Total edges taken since the watcher started.
    pub transitions: u64,
}

/// Everything one tick (or one replay) produced, renderable as the
/// `dm watch` table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchReport {
    /// Edges taken, in occurrence order.
    pub transitions: Vec<Transition>,
    /// Final status of every rule, in rule order.
    pub statuses: Vec<AlertStatus>,
}

impl WatchReport {
    /// Renders the firing/resolved table plus the transition log
    /// (stable output — golden-tested).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let firing = self
            .statuses
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count();
        let _ = writeln!(
            out,
            "watch: {} rules, {} firing, {} transitions",
            self.statuses.len(),
            firing,
            self.transitions.len()
        );
        out.push('\n');
        let rule_w = self
            .statuses
            .iter()
            .map(|s| s.rule.len())
            .chain([4])
            .max()
            .unwrap_or(4);
        let _ = writeln!(
            out,
            "{:<rule_w$}  {:<5}  {:<8}  {:>10}  {:>11}",
            "RULE", "KIND", "STATE", "SINCE", "TRANSITIONS"
        );
        for s in &self.statuses {
            let since = match s.since_ms {
                Some(t) => format!("@{t}ms"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<rule_w$}  {:<5}  {:<8}  {:>10}  {:>11}",
                s.rule,
                s.kind.label(),
                s.state.label(),
                since,
                s.transitions
            );
        }
        if !self.transitions.is_empty() {
            out.push('\n');
            out.push_str("TRANSITIONS\n");
            for t in &self.transitions {
                let _ = writeln!(
                    out,
                    "@{}ms  {} [{}]  {} -> {}",
                    t.at_ms,
                    t.rule,
                    t.kind.label(),
                    t.from.label(),
                    t.to.label()
                );
            }
        }
        out
    }
}

/// Rule name as a metric-name segment: lowercase, `[a-z0-9_]` only.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// One rule's runtime: the rule plus its state-machine scratch.
#[derive(Debug)]
struct RuleRuntime {
    rule: SloRule,
    /// Sanitized name segment for `watch.alert.<name>.*` metrics.
    metric_name: String,
    state: AlertState,
    /// When the current breach streak started (while `Pending`).
    pending_since: Option<u64>,
    /// When the current clean streak started (while `Firing`).
    clear_since: Option<u64>,
    /// When the current state was entered.
    state_since: Option<u64>,
    /// Running drift detector (drift rules only).
    detector: Option<Detector>,
    /// Last gauge write ordinal consumed by the detector.
    last_seq: Option<u64>,
    /// A detection latches the rule breached until this clock time.
    drift_breach_until: Option<u64>,
    transitions: u64,
}

impl RuleRuntime {
    fn new(rule: SloRule) -> Self {
        let detector = match &rule.condition {
            Condition::Drift { detector, .. } => Some(detector.build()),
            _ => None,
        };
        Self {
            metric_name: sanitize(&rule.name),
            detector,
            rule,
            state: AlertState::Ok,
            pending_since: None,
            clear_since: None,
            state_since: None,
            last_seq: None,
            drift_breach_until: None,
            transitions: 0,
        }
    }

    /// Whether the rule's condition holds right now. Drift rules feed
    /// their detector with any unconsumed gauge observation first and
    /// report detection edges via the return's second slot.
    fn breach(&mut self, view: &MetricView, now: u64) -> (bool, bool) {
        match &self.rule.condition {
            Condition::QuantileAbove { metric, q, max } => {
                let b = view
                    .hist_delta(metric)
                    .and_then(|h| h.quantile(*q))
                    .is_some_and(|v| v as f64 > *max);
                (b, false)
            }
            Condition::RatioAbove {
                numerator,
                denominators,
                max,
            } => {
                let den: u64 = denominators.iter().map(|d| view.counter_delta(d)).sum();
                if den == 0 {
                    return (false, false);
                }
                let num = view.counter_delta(numerator);
                (num as f64 / den as f64 > *max, false)
            }
            Condition::StaleFor { metric, max_age_ms } => {
                let b = view
                    .ms_since_change(metric, now)
                    .is_some_and(|age| age > *max_age_ms);
                (b, false)
            }
            Condition::GaugeAbove { metric, max } => {
                (view.gauge(metric).is_some_and(|(v, _)| v > *max), false)
            }
            Condition::Drift {
                metric, detector, ..
            } => {
                let mut detected = false;
                if let Some((v, seq)) = view.gauge(metric) {
                    if self.last_seq != Some(seq) {
                        self.last_seq = Some(seq);
                        let det = self.detector.get_or_insert_with(|| detector.build());
                        if det.update(v) {
                            detected = true;
                            self.drift_breach_until =
                                Some(now.saturating_add(self.rule.drift_hold_ms().max(1)));
                        }
                    }
                }
                let b = self.drift_breach_until.is_some_and(|until| now < until);
                (b, detected)
            }
        }
    }

    /// Advances the state machine by at most one edge.
    fn step(&mut self, breach: bool, now: u64) -> Option<(AlertState, AlertState)> {
        let from = self.state;
        let to = match (self.state, breach) {
            (AlertState::Ok, true) => {
                self.pending_since = Some(now);
                Some(AlertState::Pending)
            }
            (AlertState::Ok, false) => None,
            (AlertState::Pending, false) => {
                self.pending_since = None;
                Some(AlertState::Ok)
            }
            (AlertState::Pending, true) => {
                let since = self.pending_since.unwrap_or(now);
                if now.saturating_sub(since) >= self.rule.for_ms {
                    self.pending_since = None;
                    self.clear_since = None;
                    Some(AlertState::Firing)
                } else {
                    None
                }
            }
            (AlertState::Firing, true) => {
                // Any breach tick resets the clear timer: hysteresis.
                self.clear_since = None;
                None
            }
            (AlertState::Firing, false) => {
                let since = *self.clear_since.get_or_insert(now);
                if now.saturating_sub(since) >= self.rule.clear_for_ms {
                    self.clear_since = None;
                    Some(AlertState::Resolved)
                } else {
                    None
                }
            }
            (AlertState::Resolved, true) => {
                self.pending_since = Some(now);
                Some(AlertState::Pending)
            }
            (AlertState::Resolved, false) => Some(AlertState::Ok),
        }?;
        self.state = to;
        self.state_since = Some(now);
        self.transitions += 1;
        Some((from, to))
    }

    fn status(&self) -> AlertStatus {
        AlertStatus {
            rule: self.rule.name.clone(),
            kind: self.rule.kind(),
            state: self.state,
            since_ms: self.state_since,
            transitions: self.transitions,
        }
    }
}

/// The alerting engine: a rule set, a sliding [`MetricView`], and one
/// state machine per rule, all driven by an injected [`Clock`].
pub struct Watcher {
    view: MetricView,
    clock: Arc<dyn Clock>,
    rules: Vec<RuleRuntime>,
    ticks: u64,
}

impl fmt::Debug for Watcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Watcher")
            .field("rules", &self.rules.len())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl Watcher {
    /// A watcher evaluating `rules` over a `window_ms` sliding window,
    /// reading time from `clock`.
    pub fn new(rules: RuleSet, window_ms: u64, clock: Arc<dyn Clock>) -> Self {
        Self {
            view: MetricView::new(window_ms),
            clock,
            rules: rules.rules.into_iter().map(RuleRuntime::new).collect(),
            ticks: 0,
        }
    }

    /// Evaluation ticks performed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Number of rules currently `Firing`.
    pub fn firing(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| r.state == AlertState::Firing)
            .count()
    }

    /// Current status of every rule, in rule order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.rules.iter().map(RuleRuntime::status).collect()
    }

    /// One evaluation tick: absorb `snap` at the clock's current time,
    /// evaluate every rule, advance the state machines, and emit
    /// `watch.*` metrics through `obs`. Returns the edges taken.
    pub fn tick(&mut self, snap: &Snapshot, obs: &Obs<'_>) -> Vec<Transition> {
        let now = self.clock.now_ms();
        self.ticks += 1;
        self.view.push(snap, now);
        obs.counter("watch.eval.ticks", 1);
        let mut transitions = Vec::new();
        let view = &self.view;
        for rt in &mut self.rules {
            let (breach, detected) = rt.breach(view, now);
            if detected {
                obs.counter("watch.drift.detections", 1);
                obs.counter_fmt(format_args!("watch.drift.{}.detections", rt.metric_name), 1);
            }
            if let Some(det) = &rt.detector {
                obs.gauge_fmt(
                    format_args!("watch.drift.{}.stat", rt.metric_name),
                    det.statistic(),
                );
            }
            if let Some((from, to)) = rt.step(breach, now) {
                obs.counter("watch.alert.transitions", 1);
                obs.counter_fmt(
                    format_args!("watch.alert.{}.{}", rt.metric_name, to.label()),
                    1,
                );
                obs.event(
                    "watch.alert.transition",
                    &format!(
                        "{} [{}] {}->{} @{}ms",
                        rt.rule.name,
                        rt.rule.kind().label(),
                        from.label(),
                        to.label(),
                        now
                    ),
                );
                transitions.push(Transition {
                    rule: rt.rule.name.clone(),
                    kind: rt.rule.kind(),
                    from,
                    to,
                    at_ms: now,
                });
            }
        }
        obs.gauge("watch.alert.firing", self.firing() as f64);
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Recorder};

    fn depth_rule(for_ms: u64, clear_for_ms: u64) -> RuleSet {
        RuleSet::new(vec![SloRule::new(
            "queue-depth",
            Condition::GaugeAbove {
                metric: "serve.queue.depth".into(),
                max: 5.0,
            },
        )
        .for_ms(for_ms)
        .clear_for_ms(clear_for_ms)])
    }

    /// Drives one gauge through the watcher at a 100 ms cadence and
    /// returns the state after each tick.
    fn drive(
        rules: RuleSet,
        metric: &str,
        series: &[f64],
    ) -> (Vec<AlertState>, Vec<Transition>, Snapshot) {
        let clock = Arc::new(ManualClock::new(0));
        let mut w = Watcher::new(rules, 10_000, clock.clone() as Arc<dyn Clock>);
        let source = InMemoryRecorder::new();
        let sink = InMemoryRecorder::new();
        let obs = Obs::new(&sink);
        let mut states = Vec::new();
        let mut edges = Vec::new();
        for &v in series {
            source.gauge(metric, v);
            edges.extend(w.tick(&source.snapshot(), &obs));
            states.push(w.statuses()[0].state);
            clock.advance(100);
        }
        (states, edges, sink.snapshot())
    }

    #[test]
    fn walks_ok_pending_firing_resolved_ok() {
        let series = [1.0, 9.0, 9.0, 9.0, 1.0, 1.0];
        let (states, edges, snap) = drive(depth_rule(100, 0), "serve.queue.depth", &series);
        assert_eq!(
            states,
            [
                AlertState::Ok,
                AlertState::Pending,
                AlertState::Firing,
                AlertState::Firing,
                AlertState::Resolved,
                AlertState::Ok,
            ]
        );
        assert_eq!(edges.len(), 4);
        assert_eq!(snap.counter("watch.alert.transitions"), Some(4));
        assert_eq!(snap.counter("watch.alert.queue_depth.firing"), Some(1));
        assert_eq!(snap.counter("watch.alert.queue_depth.resolved"), Some(1));
        assert_eq!(snap.counter("watch.eval.ticks"), Some(6));
        assert_eq!(snap.gauge("watch.alert.firing"), Some(0.0));
        // The event log carries the full deterministic trail.
        assert_eq!(snap.events.len(), 4);
        assert_eq!(
            snap.events[1].detail,
            "queue-depth [slo] pending->firing @200ms"
        );
    }

    #[test]
    fn short_breach_returns_to_ok_without_firing() {
        let series = [1.0, 9.0, 1.0, 1.0];
        let (states, edges, _) = drive(depth_rule(300, 0), "serve.queue.depth", &series);
        assert_eq!(
            states,
            [
                AlertState::Ok,
                AlertState::Pending,
                AlertState::Ok,
                AlertState::Ok,
            ]
        );
        assert!(edges.iter().all(|t| t.to != AlertState::Firing));
    }

    #[test]
    fn hysteresis_holds_firing_through_oscillation() {
        // Breach, then oscillate every tick (100 ms) with a 250 ms
        // clear requirement: the clean runs never mature, so the alert
        // stays firing until the series goes clean for good.
        let series = [9.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0];
        let (states, _, _) = drive(depth_rule(0, 250), "serve.queue.depth", &series);
        assert_eq!(states[1], AlertState::Firing);
        for (i, s) in states.iter().enumerate().take(9).skip(1) {
            assert_ne!(*s, AlertState::Resolved, "resolved early at tick {i}");
            assert_ne!(*s, AlertState::Ok, "cleared early at tick {i}");
        }
        assert_eq!(*states.last().unwrap(), AlertState::Resolved);
    }

    #[test]
    fn quiet_series_never_transitions() {
        let series = [1.0; 20];
        let (states, edges, snap) = drive(depth_rule(0, 0), "serve.queue.depth", &series);
        assert!(states.iter().all(|s| *s == AlertState::Ok));
        assert!(edges.is_empty());
        assert_eq!(snap.counter("watch.alert.transitions"), None);
    }

    #[test]
    fn drift_rule_fires_and_emits_detection_counters() {
        let rules = RuleSet::new(vec![SloRule::new(
            "inertia-drift",
            Condition::Drift {
                metric: "stream.kmeans.inertia".into(),
                detector: DetectorSpec::PageHinkley {
                    delta: 0.05,
                    lambda: 5.0,
                },
                hold_ms: Some(300),
            },
        )]);
        let mut series = vec![1.0; 30];
        series.extend_from_slice(&[8.0; 20]);
        let (states, edges, snap) = drive(rules, "stream.kmeans.inertia", &series);
        assert!(
            states.contains(&AlertState::Firing),
            "drift never fired: {states:?}"
        );
        assert!(snap.counter("watch.drift.detections").unwrap_or(0) >= 1);
        assert!(
            snap.counter("watch.drift.inertia_drift.detections")
                .unwrap_or(0)
                >= 1
        );
        assert!(edges
            .iter()
            .any(|t| t.kind == RuleKind::Drift && t.to == AlertState::Firing));
        // The latch expires: with the series flat again at the new
        // level, the alert resolves by the end.
        assert_eq!(*states.last().unwrap(), AlertState::Ok);
    }

    #[test]
    fn report_renders_stably() {
        let series = [1.0, 9.0, 9.0, 1.0];
        let clock = Arc::new(ManualClock::new(0));
        let mut w = Watcher::new(depth_rule(0, 0), 10_000, clock.clone() as Arc<dyn Clock>);
        let source = InMemoryRecorder::new();
        let sink = InMemoryRecorder::new();
        let obs = Obs::new(&sink);
        let mut transitions = Vec::new();
        for &v in &series {
            source.gauge("serve.queue.depth", v);
            transitions.extend(w.tick(&source.snapshot(), &obs));
            clock.advance(100);
        }
        let report = WatchReport {
            transitions,
            statuses: w.statuses(),
        };
        let rendered = report.render();
        assert!(rendered.starts_with("watch: 1 rules, 0 firing, 3 transitions"));
        assert!(rendered.contains("queue-depth"));
        assert!(rendered.contains("firing -> resolved"));
        // Same inputs, same bytes.
        assert_eq!(rendered, report.render());
    }

    #[test]
    fn sanitize_maps_rule_names_to_metric_segments() {
        assert_eq!(sanitize("queue-depth p99!"), "queue_depth_p99_");
        assert_eq!(sanitize("Ok_123"), "ok_123");
    }
}
