//! Trace experiment E18: request-scoped tracing with tail-based
//! sampling and histogram exemplars, end to end through
//! `dm_obs::trace` and the `dm-serve` request path.
//!
//! Four sections:
//!
//! 1. **Shed burst** — a zero-worker, one-slot server sheds a scripted
//!    burst; every shed and the shutdown-drained straggler is anomalous
//!    and therefore *always* retained, so the retention counters are
//!    exact and the ledger gates them at 0% tolerance.
//! 2. **Degradation mix** — a scripted run interleaving clean requests
//!    with zero-deadline guard trips; anomalous traces survive
//!    unconditionally, boring ones by the deterministic 1-in-N
//!    sampler. `slowest_k` is off in every gated section, so no
//!    wall-clock reading can change the retained set.
//! 3. **Exemplar coverage** — with full sampling, every populated
//!    `serve.latency.*` bucket must carry an exemplar that resolves to
//!    a retained trace (the ISSUE's acceptance criterion).
//! 4. **Overhead** — the same workload with tracing off and on;
//!    wall-clock lands in `_ns` counters the ledger noise-bands.
//!
//! Each serving section runs against a private recorder; the
//! deterministic `trace.*` counters are re-exported into the
//! experiment guard's recorder alongside `trace.e18.*` summaries.

use crate::table::Table;
use dm_core::dataset::DataError;
use dm_core::guard::{Budget, CancelToken, Guard, RunStatus};
use dm_core::obs::trace::TraceConfig;
use dm_core::obs::{InMemoryRecorder, Obs, Recorder, Snapshot, TraceId};
use dm_serve::{ModelKind, ModelSet, Request, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for the served bundle and every minted trace id.
const SEED: u64 = 18;

/// Serving failures are setup bugs here, not data outcomes — surface
/// them as the experiment error instead of panicking in library code.
fn served<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> Result<T, DataError> {
    result.map_err(|e| DataError::InvalidParameter(format!("e18 {what}: {e:?}")))
}

/// The trace store a traced config is guaranteed to carry.
fn tracer_of(server: &Server) -> Result<Arc<dm_core::obs::trace::TraceStore>, DataError> {
    server
        .tracer()
        .ok_or_else(|| DataError::InvalidParameter("e18: traced config lost its store".into()))
}

/// A cheap request for every section's traffic.
fn predict() -> Request {
    Request::Predict {
        model: ModelKind::Tree,
        rows: vec![vec![0.5, 0.5]],
    }
}

/// A traced config with `slowest_k` off: retention is a pure function
/// of the request script, never of wall-clock durations.
fn traced(workers: usize, capacity: usize, sample_every: u64) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: capacity,
        default_deadline: None,
        trace: Some(TraceConfig {
            seed: SEED,
            sample_every,
            slowest_k: 0,
            ..TraceConfig::default()
        }),
    }
}

/// Re-emits the deterministic sampler counters from a section's private
/// recorder into the experiment guard's recorder, where the ledger
/// gates them at 0%. Counters accumulate across sections.
fn export_trace_series(obs: &Obs<'_>, snap: &Snapshot) {
    for (name, v) in &snap.counters {
        if name.starts_with("trace.") {
            obs.counter(name, *v);
        }
    }
}

/// E18 — tail-based trace sampling and exemplars over live serving.
/// Retention counts land as `trace.e18.*` plus the re-exported
/// `trace.*` series (0%-gated); wall-clock stays in `_ns` names.
pub fn e18_trace(guard: &Guard) -> Result<String, DataError> {
    let mut out = String::new();
    out.push_str("# E18: request tracing, tail-based sampling and exemplars\n");
    out.push_str(
        "(dm_obs::trace through dm-serve: seeded ids, anomaly-first retention, slowest-k off)\n\n",
    );
    let obs = guard.obs();
    let wait = Duration::from_secs(10);

    // -- 1: shed burst -> every anomalous trace is retained -----------
    if !guard.should_stop() {
        let rec = Arc::new(InMemoryRecorder::new());
        let server = Server::start_recorded(
            ModelSet::demo(SEED)?,
            traced(0, 1, 0), // sampling off: retention == anomaly
            rec.clone() as Arc<dyn Recorder>,
        );
        let held = server.submit(predict()).map(|t| t.trace_id());
        let mut sheds = 0u64;
        for _ in 0..7 {
            if server.submit(predict()).is_err() {
                sheds += 1;
            }
        }
        let tracer = tracer_of(&server)?;
        let drained = server.shutdown();
        let retained = tracer.retained();
        let stats = tracer.stats();

        let mut table = Table::new(
            "shed burst: 0 workers, queue of 1, 8 submissions (sampling off)",
            &["outcome", "retained", "anomalous"],
        );
        for outcome in ["queue_full", "shutdown"] {
            let matching: Vec<_> = retained.iter().filter(|t| t.outcome() == outcome).collect();
            table.row(vec![
                outcome.to_string(),
                matching.len().to_string(),
                matching
                    .iter()
                    .filter(|t| t.is_anomalous())
                    .count()
                    .to_string(),
            ]);
        }
        out.push_str(&table.render());
        let _ = {
            use std::fmt::Write as _;
            writeln!(
                out,
                "held id {:?} drained at shutdown ({drained} request(s)); {} dropped, {} bytes live\n",
                held.ok().flatten(),
                stats.dropped,
                stats.bytes
            )
        };
        if obs.enabled() {
            obs.counter("trace.e18.burst.submitted", 8);
            obs.counter("trace.e18.burst.sheds", sheds);
            obs.counter("trace.e18.burst.drained", drained as u64);
            obs.counter("trace.e18.burst.retained", stats.retained);
            obs.counter("trace.e18.burst.dropped", stats.dropped);
            export_trace_series(&obs, &rec.snapshot());
        }
    }

    // -- 2: degradation mix -> anomaly-first, sampled boring tail -----
    if !guard.should_stop() {
        let rec = Arc::new(InMemoryRecorder::new());
        let server = Server::start_recorded(
            ModelSet::demo(SEED)?,
            traced(1, 16, 4), // keep every 4th boring trace
            rec.clone() as Arc<dyn Recorder>,
        );
        let mut truncated = 0u64;
        let mut complete = 0u64;
        // Sequential script: every 3rd request carries a zero deadline,
        // trips the guard at its first check and is served degraded.
        for seq in 1..=12u64 {
            let budget = if seq % 3 == 0 {
                Budget::unlimited().with_deadline(Duration::ZERO)
            } else {
                Budget::unlimited()
            };
            let ticket = served(
                server.submit_with(predict(), budget, CancelToken::new()),
                "mix submit",
            )?;
            let response = served(ticket.wait(wait), "mix wait")?;
            match response.status {
                RunStatus::Truncated(_) => truncated += 1,
                RunStatus::Complete => complete += 1,
            }
        }
        let tracer = tracer_of(&server)?;
        server.shutdown();
        let retained = tracer.retained();
        let stats = tracer.stats();
        let anomalous = retained.iter().filter(|t| t.is_anomalous()).count() as u64;
        let resolvable = retained
            .iter()
            .filter(|t| tracer.find(t.id).is_some())
            .count() as u64;

        let mut table = Table::new(
            "degradation mix: 12 sequential requests, every 3rd with a zero deadline (1-in-4 sampling)",
            &["series", "count"],
        );
        for (name, v) in [
            ("complete responses", complete),
            ("truncated responses", truncated),
            ("retained traces", stats.retained),
            ("  of which anomalous", anomalous),
            ("sampled-out (dropped)", stats.dropped),
        ] {
            table.row(vec![name.to_string(), v.to_string()]);
        }
        out.push_str(&table.render());
        out.push('\n');
        if obs.enabled() {
            obs.counter("trace.e18.mix.complete", complete);
            obs.counter("trace.e18.mix.truncated", truncated);
            obs.counter("trace.e18.mix.retained", stats.retained);
            obs.counter("trace.e18.mix.anomalous", anomalous);
            obs.counter("trace.e18.mix.dropped", stats.dropped);
            obs.counter("trace.e18.mix.resolvable", resolvable);
            export_trace_series(&obs, &rec.snapshot());
        }
    }

    // -- 3: exemplar coverage -> every populated bucket resolves ------
    if !guard.should_stop() {
        let rec = Arc::new(InMemoryRecorder::new());
        let server = Server::start_recorded(
            ModelSet::demo(SEED)?,
            traced(1, 16, 1), // retain everything: exemplars must resolve
            rec.clone() as Arc<dyn Recorder>,
        );
        for _ in 0..8 {
            let ticket = served(server.submit(predict()), "exemplar submit")?;
            served(ticket.wait(wait), "exemplar wait")?;
        }
        let tracer = tracer_of(&server)?;
        server.shutdown();
        let snap = rec.snapshot();
        let mut buckets = 0u64;
        let mut observations = 0u64;
        let mut resolved = 0u64;
        for (name, hist) in &snap.histograms {
            if !name.starts_with("serve.latency.") {
                continue;
            }
            let exemplars = snap.exemplars.get(name);
            let mut replayed = false;
            for (bucket, count) in hist.nonzero_buckets() {
                buckets += 1;
                observations += count;
                if let Some(ex) = exemplars.and_then(|m| m.get(&bucket)) {
                    if tracer.find(TraceId(ex.trace_id)).is_some() {
                        resolved += 1;
                    }
                    // Replay one exemplar per series, the lowest
                    // bucket's, into the experiment recorder, so the
                    // run's `--prom` capture carries an OpenMetrics
                    // exemplar line (the CI trace-smoke step validates
                    // it). One per series keeps the gated `hist_count`
                    // at 1 however many buckets the wall clock filled;
                    // the value is wall-clock, and the `_ns` name keeps
                    // it in the ledger's noisy class.
                    if obs.enabled() && !replayed {
                        obs.value_traced(name, ex.value, TraceId(ex.trace_id));
                        replayed = true;
                    }
                }
            }
        }
        let all_resolved = u64::from(buckets > 0 && resolved == buckets);

        let mut table = Table::new(
            "exemplar coverage: 8 fully-sampled requests (bucket counts are timing noise; coverage is not)",
            &["series", "count"],
        );
        for (name, v) in [
            ("latency observations", observations),
            ("populated buckets", buckets),
            ("buckets with resolvable exemplar", resolved),
            ("full coverage (0/1)", all_resolved),
        ] {
            table.row(vec![name.to_string(), v.to_string()]);
        }
        out.push_str(&table.render());
        out.push('\n');
        if obs.enabled() {
            // Bucket placement follows wall-clock durations, so only
            // the observation total and the coverage verdict are gated.
            obs.counter("trace.e18.exemplar.observations", observations);
            obs.counter("trace.e18.exemplar.full_coverage", all_resolved);
            export_trace_series(&obs, &snap);
        }
    }

    // -- 4: overhead -> tracing off vs on, noise-banded ---------------
    if !guard.should_stop() {
        let requests = 64u64;
        let run_wall = |config: ServeConfig| -> Result<u64, DataError> {
            let server = Server::start(ModelSet::demo(SEED)?, config);
            let start = Instant::now();
            for _ in 0..requests {
                let ticket = served(server.submit(predict()), "overhead submit")?;
                served(ticket.wait(wait), "overhead wait")?;
            }
            let wall = start.elapsed().as_nanos() as u64;
            server.shutdown();
            Ok(wall)
        };
        let untraced_ns = run_wall(ServeConfig {
            workers: 1,
            queue_capacity: 16,
            default_deadline: None,
            trace: None,
        })?;
        let traced_ns = run_wall(traced(1, 16, 1))?;

        let mut table = Table::new(
            "overhead: 64 sequential predicts, tracing off vs fully sampled (wall-clock, noisy)",
            &["config", "wall_ms", "per_req_us"],
        );
        for (name, ns) in [("trace: None", untraced_ns), ("sample_every: 1", traced_ns)] {
            table.row(vec![
                name.to_string(),
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.1}", ns as f64 / 1e3 / requests as f64),
            ]);
        }
        out.push_str(&table.render());
        let _ = {
            use std::fmt::Write as _;
            writeln!(
                out,
                "traced/untraced wall ratio: {:.3} (untraced is the default path: one Option check per submit)\n",
                traced_ns as f64 / untraced_ns.max(1) as f64
            )
        };
        if obs.enabled() {
            obs.counter("trace.e18.overhead.untraced_wall_ns", untraced_ns);
            obs.counter("trace.e18.overhead.traced_wall_ns", traced_ns);
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_core::obs::Recorder;

    fn run_once() -> (String, Snapshot) {
        let rec = Arc::new(InMemoryRecorder::new());
        let guard = Guard::unlimited().with_recorder(rec.clone() as Arc<dyn Recorder>);
        let report = e18_trace(&guard).unwrap();
        (report, rec.snapshot())
    }

    #[test]
    fn e18_sections_cover_sheds_degrades_and_exemplars() {
        let (report, snap) = run_once();
        // Shed burst: 7 sheds + 1 drained straggler, all retained.
        assert_eq!(snap.counter("trace.e18.burst.sheds"), Some(7), "{report}");
        assert_eq!(snap.counter("trace.e18.burst.retained"), Some(8));
        assert_eq!(snap.counter("trace.e18.burst.dropped"), Some(0));
        // Mix: every 3rd of 12 trips the guard; every retained trace
        // resolves by id.
        assert_eq!(snap.counter("trace.e18.mix.truncated"), Some(4));
        assert_eq!(snap.counter("trace.e18.mix.complete"), Some(8));
        assert_eq!(snap.counter("trace.e18.mix.anomalous"), Some(4), "{report}");
        assert_eq!(
            snap.counter("trace.e18.mix.retained"),
            snap.counter("trace.e18.mix.resolvable")
        );
        // Exemplars: 8 observations, every populated bucket resolves.
        assert_eq!(snap.counter("trace.e18.exemplar.observations"), Some(8));
        assert_eq!(snap.counter("trace.e18.exemplar.full_coverage"), Some(1));
        // The re-exported sampler series accumulated across sections.
        assert!(snap.counter("trace.retained").unwrap_or(0) >= 8);
    }

    /// Same binary, same script ⇒ identical gated series. `_ns` names
    /// are wall-clock and excluded, exactly as the ledger's noisy
    /// class excludes them from the 0% gate.
    #[test]
    fn e18_gated_series_are_deterministic() {
        let gated = |snap: &Snapshot| -> Vec<(String, u64)> {
            snap.counters
                .iter()
                .filter(|(k, _)| !k.ends_with("_ns"))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        let (_, a) = run_once();
        let (_, b) = run_once();
        assert_eq!(gated(&a), gated(&b));
    }
}
