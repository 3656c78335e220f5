//! End-to-end tests of `dm trace` through the real binary, replaying
//! the same fixtures `crates/obs/tests/trace_golden.rs` pins: listing
//! must print the committed golden byte-for-byte, filters must narrow
//! it, show/export must resolve ids, and the failure modes must map to
//! the documented exit codes — 1 for a well-formed id the sampler
//! dropped, 2 for a malformed trace file or id (the ISSUE's acceptance
//! criterion). `dm watch`, which replays snapshot files from the same
//! fixture set, shares the exit-2 rule for a file its reader refuses.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn dm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dm"))
        .args(args)
        .output()
        .expect("dm binary runs")
}

/// The fixture set lives with the renderer's golden test in dm-obs.
fn fixture_path(name: &str) -> String {
    format!(
        "{}/../obs/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

/// The id of the pinned, degraded trace (seq 3) in trace_dump.json —
/// `TraceId::mint(0x901D, 3)`, pinned in the show golden's header line.
fn shown_id() -> String {
    let golden = fixture("trace_show.golden");
    let first = golden.lines().next().expect("golden has a header");
    first
        .split_whitespace()
        .nth(1)
        .expect("header starts `trace <id>`")
        .to_owned()
}

#[test]
fn list_prints_the_committed_golden() {
    let out = dm(&["trace", "list", &fixture_path("trace_dump.json")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(stdout(&out), fixture("trace_list.golden"));
}

#[test]
fn list_filters_compose_and_report_the_narrowing() {
    let dump = fixture_path("trace_dump.json");
    let out = dm(&[
        "trace",
        "list",
        &dump,
        "--anomalous",
        "--endpoint",
        "recommend",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let body = stdout(&out);
    assert!(body.contains("truncated"), "{body}");
    assert!(!body.contains("complete"), "filtered row leaked: {body}");
    assert!(stderr(&out).contains("[1 of 4 trace(s) match the filters]"));

    // An outcome filter matches shed reasons too.
    let sheds = dm(&["trace", "list", &dump, "--outcome", "queue_full"]);
    assert!(stdout(&sheds).contains("queue_full"));
    assert!(stderr(&sheds).contains("[1 of 4 trace(s)"));
}

#[test]
fn show_prints_the_committed_golden() {
    let out = dm(&[
        "trace",
        "show",
        &fixture_path("trace_dump.json"),
        &shown_id(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(stdout(&out), fixture("trace_show.golden"));
}

#[test]
fn export_writes_the_committed_chrome_golden() {
    let dest = std::env::temp_dir().join(format!("dm_trace_cli_{}.json", std::process::id()));
    let out = dm(&[
        "trace",
        "export",
        &fixture_path("trace_dump.json"),
        &shown_id(),
        "--out",
        dest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written = std::fs::read_to_string(&dest).unwrap();
    let _ = std::fs::remove_file(&dest);
    assert_eq!(written, fixture("trace_chrome.golden"));
    // Without --out the same document goes to stdout.
    let piped = dm(&[
        "trace",
        "export",
        &fixture_path("trace_dump.json"),
        &shown_id(),
    ]);
    assert_eq!(stdout(&piped), fixture("trace_chrome.golden"));
}

#[test]
fn malformed_trace_file_exits_2_with_a_readable_message() {
    let bad = std::env::temp_dir().join(format!("dm_trace_bad_{}.json", std::process::id()));
    std::fs::write(&bad, "{\"schema\": 1, \"traces\": [{\"truncated").unwrap();
    let out = dm(&["trace", "list", bad.to_str().unwrap()]);
    let _ = std::fs::remove_file(&bad);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr(&out).contains("cannot parse trace file"),
        "{}",
        stderr(&out)
    );
    // A missing file is the same class of failure.
    let gone = dm(&["trace", "list", "/nonexistent/trace_dump.json"]);
    assert_eq!(gone.status.code(), Some(2));
    assert!(stderr(&gone).contains("cannot read trace file"));
}

#[test]
fn id_failures_split_between_data_and_usage_exit_codes() {
    let dump = fixture_path("trace_dump.json");
    // Well-formed but unretained id: a data outcome, exit 1.
    let dropped = dm(&["trace", "show", &dump, "00000000000000ff"]);
    assert_eq!(dropped.status.code(), Some(1), "{dropped:?}");
    assert!(stderr(&dropped).contains("not in this file"));
    // Not an id at all: a usage error, exit 2.
    let garbage = dm(&["trace", "show", &dump, "not-hex"]);
    assert_eq!(garbage.status.code(), Some(2), "{garbage:?}");
    assert!(stderr(&garbage).contains("not a trace id"));
    // Verbless invocation: usage, exit 2.
    let verbless = dm(&["trace"]);
    assert_eq!(verbless.status.code(), Some(2));
}

#[test]
fn watch_exits_2_on_a_refused_snapshot() {
    let rules = fixture_path("watch_rules.json");
    let good = fixture("watch_snap_1.json");
    let ok = dm(&["watch", &rules, &fixture_path("watch_snap_1.json")]);
    assert_eq!(ok.status.code(), Some(0), "{}", stderr(&ok));
    let hist = r#"{"count": 4, "sum": 2000000, "buckets": [[19, 4]]}"#;
    assert!(good.contains(hist), "fixture lost its histogram");
    let overflowing = r#"{"count": 18446744073709551615, "sum": 0,
        "buckets": [[0, 9223372036854775808], [1, 9223372036854775808]]}"#;
    let bad = std::env::temp_dir().join(format!("dm_watch_bad_{}.json", std::process::id()));
    for (doc, why) in [
        (
            good.replacen(hist, overflowing, 1),
            "histograms.serve.latency.score_ns.buckets",
        ),
        (
            good.replacen("\"schema\": 5", "\"schema\": 4", 1),
            "unsupported schema 4",
        ),
    ] {
        std::fs::write(&bad, doc).unwrap();
        let out = dm(&["watch", &rules, bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = stderr(&out);
        assert!(
            err.contains("cannot parse snapshot") && err.contains(why),
            "{err}"
        );
    }
    let _ = std::fs::remove_file(&bad);
}
