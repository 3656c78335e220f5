//! Live progress narration for `experiments --progress`.
//!
//! [`ProgressRecorder`] is a forwarding decorator that narrates
//! selected emissions to a [`ProgressSink`] (stderr by default) as they
//! happen.

use dm_core::obs::{Recorder, SpanId, TraceId};
use std::sync::Arc;
use std::time::Instant;

/// A line-oriented sink for live progress output.
pub trait ProgressSink: Send + Sync {
    /// Emits one line (without trailing newline).
    fn line(&self, line: &str);
}

/// A [`ProgressSink`] that writes to standard error.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

impl ProgressSink for StderrSink {
    fn line(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Forwards everything to an inner recorder and narrates pass-level
/// activity (span completions, iteration gauges, memory high-water
/// marks, events) to a [`ProgressSink`] as it happens. Per-shard
/// telemetry (`par.*`) is forwarded but not narrated — at one line per
/// shard per pass it would drown the signal.
pub struct ProgressRecorder {
    inner: Arc<dyn Recorder>,
    sink: Box<dyn ProgressSink>,
    epoch: Instant,
}

impl std::fmt::Debug for ProgressRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressRecorder").finish_non_exhaustive()
    }
}

impl ProgressRecorder {
    /// Wraps `inner`, narrating to `sink`.
    pub fn new(inner: Arc<dyn Recorder>, sink: Box<dyn ProgressSink>) -> Self {
        Self {
            inner,
            sink,
            epoch: Instant::now(),
        }
    }

    /// Wraps `inner`, narrating to stderr.
    pub fn stderr(inner: Arc<dyn Recorder>) -> Self {
        Self::new(inner, Box::new(StderrSink))
    }

    fn stamp(&self) -> String {
        format!("[{:9.3}s]", self.epoch.elapsed().as_secs_f64())
    }

    fn narrate_span(&self, name: &str) -> bool {
        // Pass/iteration/experiment granularity only; shard spans are
        // too chatty for a terminal.
        !name.starts_with("par.")
    }

    fn narrate_gauge(&self, name: &str) -> bool {
        name.ends_with("mem_bytes")
            || name.contains(".mem.")
            || name.contains(".iter")
            || name.contains(".pass")
    }
}

impl Recorder for ProgressRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        if self.narrate_gauge(name) {
            self.sink
                .line(&format!("{} gauge {name} = {value}", self.stamp()));
        }
        self.inner.gauge(name, value);
    }

    fn gauge_max(&self, name: &str, value: f64) {
        if self.narrate_gauge(name) {
            self.sink
                .line(&format!("{} gauge {name} >= {value}", self.stamp()));
        }
        self.inner.gauge_max(name, value);
    }

    fn value(&self, name: &str, v: u64) {
        self.inner.value(name, v);
    }

    fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        self.inner.value_traced(name, v, trace);
    }

    fn event(&self, name: &str, detail: &str) {
        self.sink
            .line(&format!("{} event {name}: {detail}", self.stamp()));
        self.inner.event(name, detail);
    }

    fn span_begin(&self, name: &str, parent: SpanId) -> SpanId {
        self.inner.span_begin(name, parent)
    }

    fn span_end(&self, id: SpanId, name: &str, elapsed_ns: u64) {
        if self.narrate_span(name) {
            self.sink.line(&format!(
                "{} span  {name} {:.3}ms",
                self.stamp(),
                elapsed_ns as f64 / 1e6
            ));
        }
        self.inner.span_end(id, name, elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_core::obs::{InMemoryRecorder, Obs};
    use std::sync::Mutex;

    #[derive(Default, Clone)]
    struct VecSink(Arc<Mutex<Vec<String>>>);

    impl VecSink {
        fn lines(&self) -> Vec<String> {
            match self.0.lock() {
                Ok(v) => v.clone(),
                Err(p) => p.into_inner().clone(),
            }
        }
    }

    impl ProgressSink for VecSink {
        fn line(&self, line: &str) {
            match self.0.lock() {
                Ok(mut v) => v.push(line.to_owned()),
                Err(p) => p.into_inner().push(line.to_owned()),
            }
        }
    }

    #[test]
    fn progress_narrates_passes_but_not_shards() {
        let sink = VecSink::default();
        let inner = Arc::new(InMemoryRecorder::new());
        let rec = ProgressRecorder::new(inner.clone(), Box::new(sink.clone()));
        let obs = Obs::new(&rec);
        {
            let _pass = obs.span("assoc.apriori.pass2");
        }
        drop(obs.span("par.shard0"));
        obs.value("par.shard0.busy", 10);
        obs.gauge_max("assoc.mem.ck_bytes", 4096.0);
        obs.gauge("cluster.kmeans.iter.inertia", 2.5);
        obs.gauge("assoc.apriori.minsup_count", 20.0); // not narrated
        obs.counter("assoc.apriori.pass2.candidates", 148_240); // not narrated
        obs.event("guard.trip", "deadline");
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "pass span, 2 gauges, 1 event: {lines:?}");
        assert!(lines[0].contains("assoc.apriori.pass2"));
        assert!(lines[1].contains("assoc.mem.ck_bytes >= 4096"));
        assert!(lines[2].contains("cluster.kmeans.iter.inertia = 2.5"));
        assert!(lines[3].contains("guard.trip: deadline"));
        // Everything still reached the inner recorder.
        let snap = inner.snapshot();
        assert_eq!(
            snap.counter("assoc.apriori.pass2.candidates"),
            Some(148_240)
        );
        assert_eq!(snap.histograms["par.shard0.busy"].count, 1);
        assert_eq!(snap.tree.len(), 2);
        assert_eq!(snap.events.len(), 1);
    }
}
