//! Chaos harness (requires `--features failpoints`): deterministic
//! fault injection in the request path. The invariants under every
//! storm: the server stays live, overload is shed with a *typed*
//! error, and every delivered response is either `Complete` or
//! honestly `Truncated` — never silently wrong, never a hang.
#![cfg(feature = "failpoints")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::guard::RunStatus;
use dm_core::obs::trace::TraceEventKind;
use dm_core::obs::InMemoryRecorder;
use dm_serve::{
    ChaosConfig, LoadGenConfig, ModelKind, ModelSet, Request, RequestTrace, ServeConfig,
    ServeError, Server, Tier, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn recorded_chaos(
    workers: usize,
    capacity: usize,
    chaos: ChaosConfig,
) -> (Server, Arc<InMemoryRecorder>) {
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_chaos(
        ModelSet::demo(7).unwrap(),
        ServeConfig {
            workers,
            queue_capacity: capacity,
            default_deadline: Some(Duration::from_secs(5)),
            trace: None,
        },
        Some(rec.clone()),
        chaos,
    );
    (server, rec)
}

fn tiny_predict() -> Request {
    Request::Predict {
        model: ModelKind::Tree,
        rows: vec![vec![0.5, 0.5]],
    }
}

#[test]
fn injected_worker_panics_are_typed_and_the_worker_recycles() {
    // One worker, panic on every 3rd admitted request: requests 3, 6
    // and 9 come back `WorkerPanicked`, everything else serves — on
    // the *same* worker thread, which is the isolation claim.
    let (server, rec) = recorded_chaos(
        1,
        16,
        ChaosConfig {
            panic_every: Some(3),
            trip_every: None,
        },
    );
    for seq in 1..=9u64 {
        let got = server.submit(tiny_predict()).unwrap().wait(WAIT);
        if seq % 3 == 0 {
            assert!(
                matches!(got, Err(ServeError::WorkerPanicked)),
                "seq {seq}: {got:?}"
            );
        } else {
            let response = got.unwrap();
            assert_eq!(response.status, RunStatus::Complete, "seq {seq}");
            assert_eq!(response.tier, Tier::Full, "seq {seq}");
        }
    }
    server.shutdown();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("serve.worker.recycled"), Some(3));
    assert_eq!(snap.counter("serve.resp.complete"), Some(6));
}

#[test]
fn guard_failpoint_storm_degrades_every_endpoint_honestly() {
    // Arm dm-guard's fail point on every request: the first governed
    // check trips, simulating a deadline storm with zero real clock
    // pressure. Every endpoint must answer Truncated on its fallback
    // tier — no panics, no hangs, no silently-full answers.
    let (server, rec) = recorded_chaos(
        1,
        16,
        ChaosConfig {
            panic_every: None,
            trip_every: Some(1),
        },
    );
    let knn = server
        .submit(Request::Predict {
            model: ModelKind::Knn,
            rows: vec![vec![0.1, 0.2], vec![7.9, 0.4]],
        })
        .unwrap()
        .wait(WAIT)
        .unwrap();
    assert!(matches!(knn.status, RunStatus::Truncated(_)));
    assert_eq!(knn.tier, Tier::CentroidFallback);

    let tree = server.submit(tiny_predict()).unwrap().wait(WAIT).unwrap();
    assert!(matches!(tree.status, RunStatus::Truncated(_)));
    assert_eq!(tree.tier, Tier::MajorityFallback);

    let rec_resp = server
        .submit(Request::Recommend {
            basket: vec![1],
            k: 3,
        })
        .unwrap()
        .wait(WAIT)
        .unwrap();
    assert!(matches!(rec_resp.status, RunStatus::Truncated(_)));
    assert_eq!(rec_resp.tier, Tier::TopSupportFallback);

    server.shutdown();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("serve.resp.truncated"), Some(3));
    assert!(snap.counter("serve.resp.complete").is_none());
    assert_eq!(snap.counter("serve.degraded.centroid"), Some(1));
    assert_eq!(snap.counter("serve.degraded.majority"), Some(1));
    assert_eq!(snap.counter("serve.degraded.top_support"), Some(1));
}

#[test]
fn panic_storm_under_load_keeps_serving() {
    let (server, rec) = recorded_chaos(
        2,
        64,
        ChaosConfig {
            panic_every: Some(4),
            trip_every: None,
        },
    );
    let config = LoadGenConfig {
        clients: 1,
        requests_per_client: 20,
        deadline: None,
        ..LoadGenConfig::default()
    };
    let report = dm_serve::loadgen::run(&server, &config);
    // Single client, roomy queue: admission order == request order, so
    // exactly requests 4, 8, 12, 16, 20 panic.
    assert_eq!(report.panicked, 5);
    assert_eq!(report.ok + report.truncated, 15);
    assert_eq!(report.shed, 0);
    // Still alive after the storm.
    let after = server.submit(tiny_predict()).unwrap().wait(WAIT).unwrap();
    assert_eq!(after.status, RunStatus::Complete);
    server.shutdown();
    assert_eq!(rec.snapshot().counter("serve.worker.recycled"), Some(5));
}

#[test]
fn malformed_storm_is_refused_typed_at_full_rate() {
    let (server, rec) = recorded_chaos(2, 64, ChaosConfig::default());
    let config = LoadGenConfig {
        clients: 2,
        requests_per_client: 15,
        malformed_ratio: 1.0,
        deadline: None,
        ..LoadGenConfig::default()
    };
    let report = dm_serve::loadgen::run(&server, &config);
    assert_eq!(report.malformed, 30, "{report:?}");
    assert_eq!(report.ok, 0);
    assert_eq!(report.panicked, 0);
    // Validation happens inside the worker; the server shrugs it off.
    let after = server.submit(tiny_predict()).unwrap().wait(WAIT).unwrap();
    assert_eq!(after.status, RunStatus::Complete);
    server.shutdown();
    assert_eq!(rec.snapshot().counter("serve.resp.malformed"), Some(30));
}

#[test]
fn stalled_clients_never_wedge_the_server_and_the_queue_stays_bounded() {
    // Every client submits and walks away without collecting. The
    // responder must not block on the abandoned tickets and the queue
    // depth must never exceed its bound.
    let (server, rec) = recorded_chaos(1, 8, ChaosConfig::default());
    let config = LoadGenConfig {
        clients: 2,
        requests_per_client: 20,
        stall_ratio: 1.0,
        max_attempts: 1,
        deadline: None,
        ..LoadGenConfig::default()
    };
    let report = dm_serve::loadgen::run(&server, &config);
    assert_eq!(report.stalled + report.shed, 40, "{report:?}");
    assert!(report.stalled > 0);
    // The worker is still draining jobs whose clients walked away; give
    // it a moment so the after-probe isn't shed by their backlog.
    let settle = std::time::Instant::now();
    while server.queue_depth() > 0 && settle.elapsed() < WAIT {
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = server.submit(tiny_predict()).unwrap().wait(WAIT).unwrap();
    assert_eq!(after.status, RunStatus::Complete);
    server.shutdown();
    let snap = rec.snapshot();
    let peak = snap.gauge("serve.queue.depth_peak").unwrap_or(0.0);
    assert!(peak <= 8.0, "queue peaked at {peak}, bound is 8");
}

#[test]
fn retry_budget_caps_amplification_deterministically() {
    // No workers, capacity 1, stalling client: request 1 occupies the
    // queue forever, so every later submit sheds. max_attempts 3 with
    // a global pot of 2 ⇒ request 2 spends both tokens, requests 3-5
    // shed on the first attempt. All counters are exact.
    let server = Server::start(
        ModelSet::demo(7).unwrap(),
        ServeConfig {
            workers: 0,
            queue_capacity: 1,
            default_deadline: None,
            trace: None,
        },
    );
    let config = LoadGenConfig {
        clients: 1,
        requests_per_client: 5,
        stall_ratio: 1.0,
        max_attempts: 3,
        retry_budget: 2,
        base_backoff: Duration::from_micros(10),
        deadline: None,
        ..LoadGenConfig::default()
    };
    let report = dm_serve::loadgen::run(&server, &config);
    assert_eq!(report.stalled, 1, "{report:?}");
    assert_eq!(report.shed, 4);
    assert_eq!(report.retries, 2);
    assert_eq!(report.attempts, 1 + 3 + 1 + 1 + 1);
    assert_eq!(server.shutdown(), 1);
}

/// Panic-recovery traces survive the tail sampler, and (when the
/// `TRACE_DUMP` env var points at a path — the CI serve-chaos job sets
/// it) the retained set is dumped in the `dm trace` file format so the
/// run's forensics ship as a build artifact.
#[test]
fn panic_recovery_traces_are_retained_and_dumpable() {
    use dm_core::obs::trace::traces_to_json;
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_chaos(
        ModelSet::demo(7).unwrap(),
        ServeConfig {
            workers: 1,
            queue_capacity: 16,
            default_deadline: Some(Duration::from_secs(5)),
            trace: Some(TraceConfig {
                seed: 0xC405,
                sample_every: 0, // anomalous-only retention...
                slowest_k: 0,    // ...with slowest-k off too
                ..TraceConfig::default()
            }),
        },
        Some(rec.clone()),
        ChaosConfig {
            panic_every: Some(3),
            trip_every: None,
        },
    );
    for seq in 1..=9u64 {
        let got = server.submit(tiny_predict()).unwrap().wait(WAIT);
        assert_eq!(seq % 3 == 0, got == Err(ServeError::WorkerPanicked));
    }
    let tracer = server.tracer().unwrap();
    server.shutdown();

    let retained = tracer.retained();
    let panicked: Vec<_> = retained
        .iter()
        .filter(|t| t.events.iter().any(|e| e.kind.label() == "panic_recovered"))
        .collect();
    assert_eq!(panicked.len(), 3, "requests 3, 6, 9");
    for t in &panicked {
        assert!(t.is_anomalous());
        assert_eq!(t.outcome(), "panicked");
    }
    assert_eq!(rec.snapshot().counter("trace.retained"), Some(3));

    if let Ok(path) = std::env::var("TRACE_DUMP") {
        std::fs::write(&path, traces_to_json(&retained))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}

#[test]
fn load_generator_is_bit_reproducible_for_a_fixed_seed() {
    // Two fresh server+loadgen pairs, same seed: every deterministic
    // counter matches exactly. This is what lets E15 gate serving
    // counters at 0% tolerance.
    let run_once = || {
        let server = Server::start(
            ModelSet::demo(7).unwrap(),
            ServeConfig {
                workers: 2,
                queue_capacity: 256,
                default_deadline: None,
                trace: None,
            },
        );
        let config = LoadGenConfig {
            seed: 42,
            clients: 2,
            requests_per_client: 25,
            malformed_ratio: 0.3,
            deadline: None,
            ..LoadGenConfig::default()
        };
        let report = dm_serve::loadgen::run(&server, &config);
        server.shutdown();
        report
    };
    let a = run_once();
    let b = run_once();
    for (name, x, y) in [
        ("attempts", a.attempts, b.attempts),
        ("ok", a.ok, b.ok),
        ("truncated", a.truncated, b.truncated),
        ("degraded", a.degraded, b.degraded),
        ("shed", a.shed, b.shed),
        ("malformed", a.malformed, b.malformed),
        ("panicked", a.panicked, b.panicked),
        ("shutdown", a.shutdown, b.shutdown),
        ("stalled", a.stalled, b.stalled),
        ("retries", a.retries, b.retries),
    ] {
        assert_eq!(x, y, "counter `{name}` differs across identical runs");
    }
    assert!(a.ok > 0 && a.malformed > 0, "{a:?}");
}

/// One seeded script against a server with one worker: a single-client
/// load run with injected panics, guard trips and malformed rows, then a
/// burst that overflows the queue. A server with no worker then answers
/// its queued requests at shutdown, since a live worker drains the queue
/// first. Returns the `serve.*` counters and every trace both servers
/// retained.
fn run_counter_script(traced: bool) -> (BTreeMap<String, u64>, Vec<RequestTrace>) {
    const CAPACITY: usize = 4;
    let rec = Arc::new(InMemoryRecorder::new());
    let config = |workers| ServeConfig {
        workers,
        queue_capacity: CAPACITY,
        default_deadline: Some(Duration::from_secs(5)),
        trace: traced.then(|| TraceConfig {
            seed: 0x5C21,
            ring_capacity: 256,
            sample_every: 1,
            slowest_k: 0,
            ..TraceConfig::default()
        }),
    };
    let chaos = ChaosConfig {
        panic_every: Some(7),
        trip_every: Some(2),
    };
    let server = Server::start_chaos(
        ModelSet::demo(7).unwrap(),
        config(1),
        Some(rec.clone()),
        chaos.clone(),
    );
    let script = LoadGenConfig {
        seed: 0x5C21,
        clients: 1,
        requests_per_client: 60,
        max_attempts: 1,
        malformed_ratio: 0.2,
        deadline: None,
        ..LoadGenConfig::default()
    };
    let report = dm_serve::loadgen::run(&server, &script);
    assert_eq!(report.attempts, 60, "{report:?}");

    // While `refresh_artifact` holds the bundle's write lock, the worker
    // blocks on its first dequeued job, so exactly CAPACITY more are
    // admitted and the rest of the burst sheds.
    let mut tickets = Vec::new();
    server.refresh_artifact(|models| {
        tickets.push(server.submit(tiny_predict()));
        let popped = std::time::Instant::now();
        while server.queue_depth() > 0 {
            assert!(popped.elapsed() < WAIT, "the worker never dequeued");
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..CAPACITY + 3 {
            tickets.push(server.submit(tiny_predict()));
        }
        models
    });
    let shed = tickets.iter().filter(|t| t.is_err()).count();
    assert_eq!(shed, 3);
    for ticket in tickets.into_iter().flatten() {
        assert_ne!(ticket.wait(WAIT).err(), Some(ServeError::ResponseTimeout));
    }
    let mut traces = server.tracer().map(|t| t.retained()).unwrap_or_default();
    server.shutdown();

    let idle = Server::start_chaos(
        ModelSet::demo(7).unwrap(),
        config(0),
        Some(rec.clone()),
        chaos,
    );
    for _ in 0..2 {
        idle.submit(tiny_predict()).unwrap();
    }
    let tracer = idle.tracer();
    assert_eq!(idle.shutdown(), 2);
    traces.extend(tracer.map(|t| t.retained()).unwrap_or_default());

    let mut counters = rec.snapshot().counters;
    counters.retain(|name, _| name.starts_with("serve."));
    (counters, traces)
}

#[test]
fn serve_counters_do_not_depend_on_tracing() {
    let (untraced, none) = run_counter_script(false);
    let (traced, traces) = run_counter_script(true);
    assert!(none.is_empty());
    assert_eq!(traced, untraced);

    // The script reaches every labelled counter it is meant to.
    for name in [
        "serve.shed.queue_full",
        "serve.shed.shutdown",
        "serve.resp.complete",
        "serve.resp.truncated",
        "serve.resp.malformed",
        "serve.degraded.centroid",
        "serve.degraded.majority",
        "serve.degraded.top_support",
        "serve.worker.recycled",
    ] {
        assert!(
            untraced.get(name).is_some_and(|&n| n > 0),
            "{name}: {untraced:?}"
        );
    }

    // Every request was traced and kept, and the lifecycle labels in the
    // traces add up to the counters.
    assert_eq!(traces.len() as u64, 60 + 1 + 4 + 3 + 2);
    let mut from_traces = BTreeMap::new();
    for kind in traces.iter().flat_map(|t| &t.events).map(|e| &e.kind) {
        let name = match kind {
            TraceEventKind::Admitted { .. } => "serve.req.admitted".to_owned(),
            TraceEventKind::Shed { reason } => format!("serve.shed.{reason}"),
            TraceEventKind::Degraded { tier } => format!("serve.degraded.{tier}"),
            TraceEventKind::PanicRecovered => "serve.worker.recycled".to_owned(),
            TraceEventKind::Finished { outcome } if outcome != "panicked" => {
                format!("serve.resp.{outcome}")
            }
            _ => continue,
        };
        *from_traces.entry(name).or_insert(0u64) += 1;
    }
    let mut lifecycle = untraced;
    lifecycle.remove("serve.artifact.refreshed");
    assert_eq!(from_traces, lifecycle);
}
