//! Snapshot-schema round trip: the one schema this build writes is the
//! one it reads. A document survives `to_json` → `from_json` →
//! `to_json` byte for byte, every top-level key is required, and any
//! other `schema` is refused with an error naming it. A change to the
//! key set or a key's shape bumps `SNAPSHOT_SCHEMA` (see DESIGN.md,
//! "Metrics snapshot schema") — this test is the tripwire.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::{InMemoryRecorder, Obs, Snapshot, TraceId, SNAPSHOT_SCHEMA};

/// Every top-level key, in the serialized order.
const TOP_LEVEL_KEYS: [&str; 8] = [
    "schema",
    "counters",
    "gauges",
    "events",
    "histograms",
    "tree",
    "gauge_seq",
    "exemplars",
];

/// A snapshot touching every section, including a `null` gauge.
fn populated() -> String {
    let rec = InMemoryRecorder::new();
    let obs = Obs::new(&rec);
    obs.counter("assoc.apriori.passes", 3);
    obs.gauge("assoc.mem.ck_bytes", 4096.0);
    obs.gauge("cluster.kmeans.sse", f64::NAN);
    obs.value_traced("serve.latency.predict_ns", 800, TraceId(0xAB));
    {
        let _outer = obs.span("experiment.e1");
        let _inner = obs.span("assoc.apriori.pass1");
    }
    obs.event("guard.trip", "deadline");
    rec.snapshot().to_json()
}

#[test]
fn documents_round_trip_byte_for_byte() {
    let json = populated();
    assert!(json.starts_with(&format!("{{\n  \"schema\": {SNAPSHOT_SCHEMA},")));
    assert_eq!(
        SNAPSHOT_SCHEMA, 5,
        "bumping the schema? update DESIGN.md and this test"
    );
    let parsed = Snapshot::from_json(&json).unwrap();
    assert_eq!(parsed.to_json(), json);
    assert_eq!(parsed.tree.len(), 2);
    assert!(parsed.gauge("cluster.kmeans.sse").unwrap().is_nan());

    let order: Vec<usize> = TOP_LEVEL_KEYS
        .iter()
        .map(|k| {
            json.find(&format!("\n  \"{k}\""))
                .unwrap_or_else(|| panic!("missing top-level key {k}"))
        })
        .collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "top-level key order changed: {json}"
    );
    assert!(!json.contains("\"spans\""), "schema 5 dropped `spans`");
}

#[test]
fn every_other_schema_is_refused_by_number() {
    let json = populated();
    let current = format!("\"schema\": {SNAPSHOT_SCHEMA},");
    for schema in [0u32, 1, 2, 3, 4, 6, 99] {
        let doc = json.replacen(&current, &format!("\"schema\": {schema},"), 1);
        let err = Snapshot::from_json(&doc).unwrap_err();
        assert!(
            err.contains(&format!("unsupported schema {schema} ")),
            "{err}"
        );
    }
}

#[test]
fn every_section_is_required() {
    let json = populated();
    for key in &TOP_LEVEL_KEYS[1..] {
        // Renaming the top-level key hides it from the reader.
        let top = format!("\n  \"{key}\": ");
        let doc = json.replacen(&top, &format!("\n  \"renamed_{key}\": "), 1);
        assert_ne!(doc, json, "{key} is not a top-level key");
        let err = Snapshot::from_json(&doc).unwrap_err();
        assert!(err.contains(&format!("missing `{key}`")), "{key}: {err}");
    }
}

#[test]
fn empty_snapshot_keeps_every_top_level_key() {
    let rec = InMemoryRecorder::new();
    let json = rec.snapshot().to_json();
    for key in TOP_LEVEL_KEYS {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "empty snapshot must still carry \"{key}\": {json}"
        );
    }
    assert_eq!(Snapshot::from_json(&json).unwrap().to_json(), json);
}

#[test]
fn gauge_seq_names_match_gauges() {
    let rec = InMemoryRecorder::new();
    let obs = Obs::new(&rec);
    obs.gauge("stream.kmeans.inertia", 3.0);
    obs.gauge_max("serve.queue.depth_peak", 7.0);
    let snap = rec.snapshot();
    let gauges: Vec<&String> = snap.gauges.keys().collect();
    let seqs: Vec<&String> = snap.gauge_seq.keys().collect();
    assert_eq!(gauges, seqs, "gauge_seq must shadow the gauge key set");
}
