//! End-to-end request tracing: a server configured with
//! `ServeConfig::trace` mints deterministic ids, threads lifecycle
//! events through the request path, tail-samples completed traces,
//! and links histogram exemplars back to retained traces. Shed and
//! degraded requests are always retained; a firing watch rule pins
//! whatever the store holds at the edge.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::guard::{Budget, CancelToken, RunStatus};
use dm_core::obs::watch::{AlertState, Condition, ManualClock, RuleSet, SloRule, Watcher};
use dm_core::obs::{InMemoryRecorder, Recorder};
use dm_serve::{
    ModelKind, ModelSet, Request, ServeConfig, ServeError, Server, TraceConfig, TraceId,
    WatchPolicy,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);
const SEED: u64 = 0xD1CE;

fn predict_req() -> Request {
    Request::Predict {
        model: ModelKind::Tree,
        rows: vec![vec![0.5, 0.5]],
    }
}

fn traced_config(workers: usize, capacity: usize, sample_every: u64) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: capacity,
        default_deadline: None,
        trace: Some(TraceConfig {
            seed: SEED,
            sample_every,
            ..TraceConfig::default()
        }),
    }
}

#[test]
fn tickets_carry_deterministic_trace_ids() {
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(1, 16, 1),
        rec as Arc<dyn Recorder>,
    );
    for seq in 1..=5u64 {
        let ticket = server.submit(predict_req()).unwrap();
        assert_eq!(
            ticket.trace_id(),
            Some(TraceId::mint(SEED, seq)),
            "id must be a pure function of (seed, seq)"
        );
        ticket.wait(WAIT).unwrap();
    }
    server.shutdown();

    // Without a trace config nothing is minted and no store exists.
    let untraced = Server::start(ModelSet::demo(7).unwrap(), ServeConfig::default());
    let ticket = untraced.submit(predict_req()).unwrap();
    assert_eq!(ticket.trace_id(), None);
    assert!(untraced.tracer().is_none());
    ticket.wait(WAIT).unwrap();
    untraced.shutdown();
}

#[test]
fn completed_requests_leave_resolvable_traces_with_exemplars() {
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(1, 16, 1), // sample_every=1: retain every trace
        rec.clone() as Arc<dyn Recorder>,
    );
    let mut ids = Vec::new();
    for _ in 0..4 {
        let ticket = server.submit(predict_req()).unwrap();
        ids.push(ticket.trace_id().unwrap());
        let response = ticket.wait(WAIT).unwrap();
        assert_eq!(response.status, RunStatus::Complete);
    }
    let tracer = server.tracer().unwrap();
    server.shutdown(); // joins workers: every offer has landed

    for id in &ids {
        let trace = tracer.find(*id).unwrap_or_else(|| panic!("{id} lost"));
        let labels: Vec<&str> = trace.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, ["submitted", "admitted", "dequeued", "finished"]);
        assert_eq!(trace.outcome(), "complete");
        assert!(!trace.is_anomalous());
        assert!(trace.total_ns >= trace.exec_ns);
    }

    // Every populated latency bucket carries an exemplar, and each
    // exemplar resolves to a retained trace.
    let snap = rec.snapshot();
    let hist = snap.histogram("serve.latency.predict_ns").unwrap();
    let exemplars = snap.exemplars.get("serve.latency.predict_ns").unwrap();
    for (bucket, count) in hist.nonzero_buckets() {
        assert!(count >= 1);
        let ex = exemplars
            .get(&bucket)
            .unwrap_or_else(|| panic!("bucket {bucket} has no exemplar"));
        assert!(
            tracer.find(TraceId(ex.trace_id)).is_some(),
            "exemplar {:016x} does not resolve to a retained trace",
            ex.trace_id
        );
    }
    // The queue/exec split landed alongside the legacy wait histogram.
    assert_eq!(snap.histogram("serve.request.queue_ns").unwrap().count, 4);
    assert_eq!(snap.histogram("serve.request.exec_ns").unwrap().count, 4);
}

#[test]
fn sheds_and_shutdown_answers_are_always_retained() {
    let rec = Arc::new(InMemoryRecorder::new());
    // No workers, capacity 1, sampling off: only anomalous traces can
    // be retained at all.
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(0, 1, 0),
        rec.clone() as Arc<dyn Recorder>,
    );
    let held = server.submit(predict_req()).unwrap();
    let held_id = held.trace_id().unwrap();
    for _ in 0..3 {
        match server.submit(predict_req()) {
            Err(ServeError::Overloaded { .. }) => {}
            Err(other) => panic!("expected shed, got {other:?}"),
            Ok(_) => panic!("expected shed, got an admitted ticket"),
        }
    }
    let tracer = server.tracer().unwrap();
    assert_eq!(server.shutdown(), 1, "the held job is answered at drain");

    let retained = tracer.retained();
    assert_eq!(retained.len(), 4, "3 sheds + 1 shutdown answer");
    let queue_full = retained
        .iter()
        .filter(|t| t.outcome() == "queue_full")
        .count();
    assert_eq!(queue_full, 3);
    let drained = retained
        .iter()
        .find(|t| t.outcome() == "shutdown")
        .expect("drained job leaves a trace");
    assert_eq!(drained.id, held_id);
    // It genuinely was admitted before shutdown answered it.
    assert!(drained.events.iter().any(|e| e.kind.label() == "admitted"));
    for t in &retained {
        assert!(t.is_anomalous());
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counter("trace.retained"), Some(4));
    assert!(snap.counter("trace.dropped").is_none());
}

#[test]
fn guard_trips_and_degraded_tiers_mark_traces_anomalous() {
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(1, 16, 0), // sampling off: retention ⇒ anomalous
        rec as Arc<dyn Recorder>,
    );
    // A zero deadline trips the guard at its first check; the tree
    // endpoint answers from the majority tier.
    let ticket = server
        .submit_with(
            predict_req(),
            Budget::unlimited().with_deadline(Duration::ZERO),
            CancelToken::new(),
        )
        .unwrap();
    let id = ticket.trace_id().unwrap();
    let response = ticket.wait(WAIT).unwrap();
    assert!(matches!(response.status, RunStatus::Truncated(_)));
    let tracer = server.tracer().unwrap();
    server.shutdown();

    let trace = tracer.find(id).expect("degraded trace always retained");
    assert!(trace.is_anomalous());
    assert_eq!(trace.outcome(), "truncated");
    let labels: Vec<&str> = trace.events.iter().map(|e| e.kind.label()).collect();
    assert!(labels.contains(&"guard_trip"), "{labels:?}");
    assert!(labels.contains(&"degraded"), "{labels:?}");
}

#[test]
fn refresh_between_submit_and_pickup_is_recorded_as_a_race() {
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(1, 64, 1),
        rec as Arc<dyn Recorder>,
    );
    // Submit a filler and then the probe while the refresh holds the
    // bundle's write lock (`submit` takes no model lock). The single
    // worker blocks on the lock serving the filler, so it dequeues the
    // probe only after the generation bump: the probe is served under a
    // newer generation than it saw at admission.
    let mut probe = None;
    server.refresh_artifact(|m| {
        let _filler = server.submit(predict_req()).unwrap();
        probe = Some(server.submit(predict_req()).unwrap());
        m
    });
    let probe = probe.unwrap();
    let id = probe.trace_id().unwrap();
    probe.wait(WAIT).unwrap();
    let tracer = server.tracer().unwrap();
    server.shutdown();
    let trace = tracer.find(id).expect("probe trace retained");
    let race = trace
        .events
        .iter()
        .find(|e| e.kind.label() == "refresh_race")
        .expect("probe must record the refresh race");
    match &race.kind {
        dm_core::obs::trace::TraceEventKind::RefreshRace {
            submitted_gen,
            served_gen,
        } => {
            assert_eq!(*submitted_gen, 0);
            assert_eq!(*served_gen, 1);
        }
        other => panic!("wrong event kind: {other:?}"),
    }
}

#[test]
fn firing_watch_rule_pins_retained_traces() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        ModelSet::demo(7).unwrap(),
        traced_config(0, 1, 0),
        recorder.clone() as Arc<dyn Recorder>,
    );
    let clock = Arc::new(ManualClock::new(0));
    let rule = SloRule::new(
        "shed-rate",
        Condition::RatioAbove {
            numerator: "serve.shed.queue_full".into(),
            denominators: vec!["serve.req.admitted".into(), "serve.shed.queue_full".into()],
            max: 0.5,
        },
    )
    .for_ms(100);
    let watcher = Watcher::new(RuleSet::new(vec![rule]), 300, clock.clone());
    server.install_watch(recorder.clone(), watcher, WatchPolicy::default());

    // Baseline tick before any traffic: establishes the window floor.
    assert!(server.watch_tick().unwrap().transitions.is_empty());

    let _held = server.submit(predict_req()).unwrap();
    for _ in 0..3 {
        let _ = server.submit(predict_req());
    }
    clock.advance(100); // breach -> Pending
    let report = server.watch_tick().unwrap();
    assert_eq!(report.transitions[0].to, AlertState::Pending);
    let tracer = server.tracer().unwrap();
    assert!(
        tracer.retained().iter().all(|t| t.pinned.is_empty()),
        "pending must not pin"
    );
    clock.advance(100); // held -> Firing: pins everything retained
    let report = server.watch_tick().unwrap();
    assert_eq!(report.transitions[0].to, AlertState::Firing);
    let retained = tracer.retained();
    assert_eq!(retained.len(), 3, "the three sheds");
    for t in &retained {
        assert_eq!(t.pinned, vec!["shed-rate".to_owned()]);
    }
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("trace.pinned"), Some(3));
    let _ = server.shutdown();
}
