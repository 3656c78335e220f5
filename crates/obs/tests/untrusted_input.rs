//! Inputs that once slipped past the readers or broke the writers:
//! text from a loaded file must come back out as valid JSON, and a
//! number that parses to infinity (`1e999`) must be refused wherever a
//! finite value is expected, with a typed error rather than a value
//! that saves as `null` and then fails to load.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::export::{chrome_trace, folded_stacks, prometheus};
use dm_obs::hist::Histogram;
use dm_obs::json::{parse, FromJson};
use dm_obs::ledger::{ExperimentRun, LedgerError, MetricDoc, RunRecord};
use dm_obs::trace::{chrome_trace_request, traces_from_json};
use dm_obs::watch::{MetricView, RuleSet};
use dm_obs::{Snapshot, SpanNode};
use proptest::prelude::*;

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
    let snap = |gauge: &str| {
        format!(
            r#"{{"schema": 5, "counters": {{}}, "gauges": {{"g": {gauge}}}, "events": [],
            "histograms": {{}}, "tree": [], "gauge_seq": {{"g": 1}}, "exemplars": {{}}}}"#
        )
    };
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

/// Bucket counts that overflow `u64` on the way to `count` once loaded,
/// and then broke [`Histogram::quantile`]'s running sum.
const OVERFLOWING_HIST: &str = r#"{"count": 18446744073709551615, "sum": 0,
    "buckets": [[0, 9223372036854775808], [1, 9223372036854775808]]}"#;

#[test]
fn histogram_whose_buckets_overflow_count_is_refused() {
    let err = Histogram::from_json(&parse(OVERFLOWING_HIST).unwrap()).unwrap_err();
    assert_eq!(err.name, "buckets");
    let doc = format!(
        r#"{{"schema": 5, "counters": {{}}, "gauges": {{}}, "events": [],
        "histograms": {{"h": {OVERFLOWING_HIST}}}, "tree": [], "gauge_seq": {{}},
        "exemplars": {{}}}}"#
    );
    let err = Snapshot::from_json(&doc).unwrap_err();
    assert!(err.contains("`histograms.h.buckets`"), "{err}");
}

#[test]
fn snapshot_parts_must_agree() {
    let doc = |gauge_seq: &str, tree: &str| {
        format!(
            r#"{{"schema": 5, "counters": {{}}, "gauges": {{"g": 1.0}}, "events": [],
            "histograms": {{}}, "tree": [{tree}], "gauge_seq": {{{gauge_seq}}},
            "exemplars": {{}}}}"#
        )
    };
    let node = |id: u64, parent: u64| {
        format!(
            r#"{{"id": {id}, "parent": {parent}, "name": "n", "tid": 0, "start_ns": 0, "dur_ns": 1}}"#
        )
    };
    let two = |a: String, b: String| format!("{a}, {b}");
    assert!(Snapshot::from_json(&doc(r#""g": 1"#, &two(node(1, 0), node(2, 1)))).is_ok());
    // Ordinals for other names than the gauges.
    for seq in ["", r#""h": 1"#, r#""g": 1, "h": 2"#] {
        let err = Snapshot::from_json(&doc(seq, "")).unwrap_err();
        assert!(err.contains("gauge_seq"), "{err}");
    }
    // Ids out of order, a self-parent, a parent that comes later.
    for tree in [
        node(2, 0),
        two(node(1, 0), node(3, 0)),
        node(1, 1),
        two(node(1, 2), node(2, 0)),
    ] {
        let err = Snapshot::from_json(&doc(r#""g": 1"#, &tree)).unwrap_err();
        assert!(err.contains("`tree["), "{err}");
    }
}

#[test]
fn folded_stacks_saturate_on_huge_repeated_paths() {
    let mut snap = Snapshot::default();
    for id in 1..=2 {
        snap.tree.push(SpanNode {
            id,
            parent: 0,
            name: "experiment.e1".into(),
            tid: 0,
            start_ns: 0,
            dur_ns: Some(u64::MAX),
        });
    }
    assert_eq!(
        folded_stacks(&snap),
        format!("experiment.e1 {}\n", u64::MAX)
    );
}

/// A valid document touching every section: a counter at `u64::MAX`
/// sharing its name with an event, a `null` gauge, a repeated root
/// name, an open span with a closed child, and an exemplar.
const VALID_SNAPSHOT: &str = r#"{"schema": 5,
"counters": {"assoc.apriori.passes": 3, "guard.trip": 18446744073709551615},
"gauges": {"assoc.mem.ck_bytes": 4096.0, "cluster.kmeans.sse": null},
"events": [{"seq": 0, "name": "guard.trip", "detail": "deadline"}],
"histograms": {"experiment.e1": {"count": 2, "sum": 1800, "buckets": [[10, 2]]},
  "serve.latency.predict_ns": {"count": 3, "sum": 2900, "buckets": [[10, 2], [11, 1]]}},
"tree": [{"id": 1, "parent": 0, "name": "experiment.e1", "tid": 0, "start_ns": 0, "dur_ns": 900},
  {"id": 2, "parent": 1, "name": "assoc.apriori.pass1", "tid": 0, "start_ns": 100, "dur_ns": null},
  {"id": 3, "parent": 2, "name": "par.shard0", "tid": 1, "start_ns": 150, "dur_ns": 100},
  {"id": 4, "parent": 0, "name": "experiment.e1", "tid": 0, "start_ns": 1000, "dur_ns": 900}],
"gauge_seq": {"assoc.mem.ck_bytes": 1, "cluster.kmeans.sse": 2},
"exemplars": {"serve.latency.predict_ns": [[10, 171, 800]]}}"#;

/// What a mutation writes over a number: huge and edge counts, ids and
/// bucket indices just out of range, and values of the wrong type.
const REPLACEMENTS: &[&str] = &[
    "18446744073709551615",
    "9223372036854775808",
    "0",
    "1",
    "2",
    "5",
    "64",
    "65",
    "-1",
    "1.5",
    "1e999",
    "\"x\"",
    "null",
    "[]",
    "{}",
    "true",
];

/// Byte ranges of the unsigned integer literals in `doc`.
fn number_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

#[test]
fn valid_snapshot_loads() {
    let snap = Snapshot::from_json(VALID_SNAPSHOT).unwrap();
    assert_eq!(snap.tree.len(), 4);
    assert_eq!(number_spans(VALID_SNAPSHOT).len(), 39);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever a mutated valid document loads as, the consumers that
    /// read snapshot files take it without panicking.
    #[test]
    fn mutated_snapshot_loads_or_errors_without_panics(
        edits in prop::collection::vec((0usize..usize::MAX, 0..REPLACEMENTS.len()), 1..4),
        cut in (0u32..5, 0usize..usize::MAX),
    ) {
        let mut doc = VALID_SNAPSHOT.to_owned();
        for (at, with) in edits {
            let spans = number_spans(&doc);
            let (a, b) = spans[at % spans.len()];
            doc.replace_range(a..b, REPLACEMENTS[with]);
        }
        // One case in five is also cut short.
        if cut.0 == 0 {
            doc.truncate(cut.1 % (doc.len() + 1));
        }
        if let Ok(snap) = Snapshot::from_json(&doc) {
            let mut view = MetricView::new(100);
            view.push(&snap, 0);
            view.push(&snap, 50);
            for (name, h) in &snap.histograms {
                let _ = h.quantile(0.99);
                let _ = view.hist_delta(name).map(|d| d.quantile(0.5));
            }
            let _ = chrome_trace(&snap);
            let _ = folded_stacks(&snap);
            let _ = prometheus(&snap);
            prop_assert_eq!(Snapshot::from_json(&snap.to_json()).map(|s| s.to_json()), Ok(snap.to_json()));
        }
    }
}
