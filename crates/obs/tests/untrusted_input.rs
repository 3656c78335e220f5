//! Inputs that once slipped past the readers or broke the writers:
//! text from a loaded file must come back out as valid JSON, and a
//! number that parses to infinity (`1e999`) must be refused wherever a
//! finite value is expected, with a typed error rather than a value
//! that saves as `null` and then fails to load.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::json::parse;
use dm_obs::ledger::{ExperimentRun, LedgerError, MetricDoc, RunRecord};
use dm_obs::trace::{chrome_trace_request, traces_from_json};
use dm_obs::watch::RuleSet;
use dm_obs::Snapshot;

#[test]
fn chrome_export_escapes_endpoint_from_trace_file() {
    let dump = r#"{"schema": 1, "traces": [{"id": "00000000000000ab", "seq": 0,
        "endpoint": "pre\"dict\\\t", "queue_ns": 10, "exec_ns": 20, "total_ns": 30,
        "pinned": [], "events": [{"at_ns": 0, "kind": "submitted"},
        {"at_ns": 30, "kind": "finished", "outcome": "complete"}]}]}"#;
    let traces = traces_from_json(dump).unwrap();
    assert_eq!(traces[0].endpoint, "pre\"dict\\\t");
    let exported = chrome_trace_request(&traces[0]);
    let doc = parse(&exported).expect("chrome export is valid JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names.first(), Some(&"request pre\"dict\\\t"));
    assert_eq!(names.last(), Some(&"request pre\"dict\\\t"));
}

fn record_json() -> String {
    let mut metrics = MetricDoc::default();
    metrics.gauges.insert("g".into(), 1.5);
    let mut record = RunRecord {
        git_rev: "abc".into(),
        label: "e1".into(),
        ..Default::default()
    };
    let run = ExperimentRun {
        wall_ms: 12.5,
        truncated: None,
        metrics,
    };
    record.experiments.insert("e1".into(), run);
    record.to_json()
}

#[test]
fn ledger_record_refuses_non_finite_numbers() {
    let json = record_json();
    assert!(RunRecord::from_json(&json).is_ok());
    for (finite, infinite) in [("\"g\": 1.5", "\"g\": 1e999"), ("12.5", "-1e999")] {
        let bad = json.replacen(finite, infinite, 1);
        assert_ne!(bad, json, "fixture lost `{finite}`");
        assert!(
            matches!(RunRecord::from_json(&bad), Err(LedgerError::Shape(_))),
            "accepted {infinite}"
        );
    }
}

#[test]
fn rule_file_refuses_non_finite_thresholds() {
    let rule = |max: &str| {
        format!(
            r#"{{"rules": [{{"name": "depth", "gauge_above": {{"metric": "q", "max": {max}}}}}]}}"#
        )
    };
    assert!(RuleSet::from_json(&rule("4.0")).is_ok());
    assert!(
        RuleSet::from_json(&rule("1e999")).is_err(),
        "an SLO that can never fire"
    );
    assert!(RuleSet::from_json(&rule("-1e999")).is_err());
}

#[test]
fn snapshot_refuses_non_finite_gauges_but_keeps_null() {
    let snap = |gauge: &str| format!(r#"{{"schema": 4, "gauges": {{"g": {gauge}}}}}"#);
    assert_eq!(
        Snapshot::from_json(&snap("2.5")).unwrap().gauge("g"),
        Some(2.5)
    );
    assert!(Snapshot::from_json(&snap("null"))
        .unwrap()
        .gauge("g")
        .unwrap()
        .is_nan());
    assert!(Snapshot::from_json(&snap("1e999")).is_err());
}
