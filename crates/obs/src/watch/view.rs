//! Sliding windows over a sequence of recorder snapshots.
//!
//! A [`MetricView`] turns the recorder's *cumulative* aggregates into
//! the *windowed* quantities SLO rules are written against: counter
//! deltas, windowed histograms (elementwise subtraction of cumulative
//! snapshots — the inverse of [`Histogram::merge`]), the latest gauge
//! observation with its write ordinal, and counter staleness. Time is
//! whatever the caller's [`super::Clock`] says, so a view replayed from
//! the same snapshots at the same tick times answers identically.

use crate::hist::Histogram;
use crate::Snapshot;
use std::collections::{BTreeMap, VecDeque};

/// One absorbed snapshot, stamped with the tick time it arrived at.
#[derive(Debug, Clone)]
struct Frame {
    t_ms: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (f64, u64)>,
    hists: BTreeMap<String, Histogram>,
}

/// A bounded window of recorder snapshots with delta queries.
///
/// Push a fresh [`Snapshot`] per evaluation tick; the view keeps just
/// enough frames to answer "what happened in the last `window_ms`"
/// (the newest frame, everything inside the window, and one frame at
/// or before its edge to serve as the subtraction base).
#[derive(Debug)]
pub struct MetricView {
    window_ms: u64,
    frames: VecDeque<Frame>,
    /// Tick time each counter (or event name) last changed value.
    last_change_ms: BTreeMap<String, u64>,
    /// Tick time of the first push — the staleness baseline for
    /// counters that have never appeared.
    birth_ms: Option<u64>,
}

impl MetricView {
    /// A view answering queries over the trailing `window_ms`
    /// milliseconds (min 1).
    pub fn new(window_ms: u64) -> Self {
        Self {
            window_ms: window_ms.max(1),
            frames: VecDeque::new(),
            last_change_ms: BTreeMap::new(),
            birth_ms: None,
        }
    }

    /// The configured window length.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Number of frames currently retained.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no snapshot has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Absorbs one snapshot taken at tick time `t_ms` (must not move
    /// backwards; equal times are allowed and replace nothing).
    pub fn push(&mut self, snap: &Snapshot, t_ms: u64) {
        self.birth_ms.get_or_insert(t_ms);
        let mut counters = snap.counters.clone();
        // Events are counters in all but storage: fold their per-name
        // counts in so rules can reference names like `guard.trip`.
        for e in &snap.events {
            let n = counters.entry(e.name.clone()).or_insert(0);
            *n = n.saturating_add(1);
        }
        let gauges = snap
            .gauges
            .iter()
            .map(|(k, &v)| {
                let seq = snap.gauge_seq.get(k).copied().unwrap_or(0);
                (k.clone(), (v, seq))
            })
            .collect();
        // Counter staleness: a counter "changed" when its cumulative
        // value differs from the previous frame (or it first appears).
        let prev = self.frames.back();
        for (k, &v) in &counters {
            let changed = match prev.and_then(|f| f.counters.get(k)) {
                Some(&old) => old != v,
                None => true,
            };
            if changed {
                self.last_change_ms.insert(k.clone(), t_ms);
            }
        }
        self.frames.push_back(Frame {
            t_ms,
            counters,
            gauges,
            hists: snap.histograms.clone(),
        });
        // Evict frames strictly older than the window, but always keep
        // one at or before the edge as the delta base.
        let edge = t_ms.saturating_sub(self.window_ms);
        while self.frames.len() >= 2 && self.frames[1].t_ms <= edge {
            self.frames.pop_front();
        }
    }

    /// Growth of a counter (or event count) across the window.
    pub fn counter_delta(&self, name: &str) -> u64 {
        let (Some(oldest), Some(newest)) = (self.frames.front(), self.frames.back()) else {
            return 0;
        };
        let old = oldest.counters.get(name).copied().unwrap_or(0);
        let new = newest.counters.get(name).copied().unwrap_or(0);
        new.saturating_sub(old)
    }

    /// Histogram of values recorded across the window (`None` when the
    /// name never appeared).
    pub fn hist_delta(&self, name: &str) -> Option<Histogram> {
        let newest = self.frames.back()?.hists.get(name)?;
        match self.frames.front()?.hists.get(name) {
            Some(oldest) => Some(newest.saturating_delta(oldest)),
            None => Some(newest.clone()),
        }
    }

    /// The latest gauge observation as `(value, write ordinal)`.
    pub fn gauge(&self, name: &str) -> Option<(f64, u64)> {
        self.frames.back()?.gauges.get(name).copied()
    }

    /// Milliseconds since the counter last changed, as seen at `now_ms`.
    /// A counter that has never appeared ages from the first push
    /// (`None` before any push).
    pub fn ms_since_change(&self, name: &str, now_ms: u64) -> Option<u64> {
        let last = self.last_change_ms.get(name).copied().or(self.birth_ms)?;
        Some(now_ms.saturating_sub(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Obs};

    #[test]
    fn counter_delta_spans_the_window_only() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let mut view = MetricView::new(100);
        obs.counter("serve.queue.admitted", 5);
        view.push(&rec.snapshot(), 0);
        obs.counter("serve.queue.admitted", 7);
        view.push(&rec.snapshot(), 50);
        assert_eq!(view.counter_delta("serve.queue.admitted"), 7);
        // A push far in the future evicts the early frames; the base
        // becomes the t=50 frame.
        obs.counter("serve.queue.admitted", 1);
        view.push(&rec.snapshot(), 200);
        assert_eq!(view.counter_delta("serve.queue.admitted"), 1);
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn events_count_as_counters() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let mut view = MetricView::new(1000);
        view.push(&rec.snapshot(), 0);
        obs.event("guard.trip", "deadline");
        obs.event("guard.trip", "work");
        view.push(&rec.snapshot(), 10);
        assert_eq!(view.counter_delta("guard.trip"), 2);
    }

    #[test]
    fn hist_delta_is_the_windowed_histogram() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let mut view = MetricView::new(1000);
        obs.value("serve.latency.score_ns", 10);
        view.push(&rec.snapshot(), 0);
        obs.value("serve.latency.score_ns", 1000);
        obs.value("serve.latency.score_ns", 2000);
        view.push(&rec.snapshot(), 10);
        let h = view.hist_delta("serve.latency.score_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 3000);
        assert!(view.hist_delta("missing").is_none());
    }

    #[test]
    fn gauge_carries_write_ordinal() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let mut view = MetricView::new(1000);
        obs.gauge("stream.kmeans.inertia", 4.0);
        view.push(&rec.snapshot(), 0);
        let (v1, s1) = view.gauge("stream.kmeans.inertia").unwrap();
        // Same value rewritten: the ordinal still advances.
        obs.gauge("stream.kmeans.inertia", 4.0);
        view.push(&rec.snapshot(), 10);
        let (v2, s2) = view.gauge("stream.kmeans.inertia").unwrap();
        assert_eq!((v1, v2), (4.0, 4.0));
        assert!(s2 > s1);
    }

    #[test]
    fn staleness_ages_from_last_change_or_birth() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let mut view = MetricView::new(1000);
        assert_eq!(view.ms_since_change("serve.artifact.refreshed", 99), None);
        view.push(&rec.snapshot(), 0);
        // Never seen: ages from the first push.
        assert_eq!(
            view.ms_since_change("serve.artifact.refreshed", 40),
            Some(40)
        );
        obs.counter("serve.artifact.refreshed", 1);
        view.push(&rec.snapshot(), 50);
        assert_eq!(
            view.ms_since_change("serve.artifact.refreshed", 70),
            Some(20)
        );
        // No further change: age keeps growing across pushes.
        view.push(&rec.snapshot(), 100);
        assert_eq!(
            view.ms_since_change("serve.artifact.refreshed", 150),
            Some(100)
        );
    }
}
