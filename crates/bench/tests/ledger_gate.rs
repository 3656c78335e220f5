//! End-to-end tests of the ledger gate through the real binaries: the
//! `dm` CLI must pass a clean record, fail a deliberately-injected
//! counter regression with a nonzero exit (the ISSUE's acceptance
//! criterion), and accept intentional drift via `--update-baseline`;
//! the `experiments` runner must emit truncated partial snapshots
//! rather than dropping them.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::obs::ledger::{diff, ExperimentRun, MetricClass, MetricDoc, RunRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory unique to this test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dm_ledger_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dm"))
        .args(args)
        .output()
        .expect("dm binary runs")
}

/// A small but realistic record: one experiment with work counters, a
/// memory gauge, and a span rollup.
fn sample_record() -> RunRecord {
    let mut record = RunRecord {
        created_unix_ms: 1_700_000_000_000,
        git_rev: "test".into(),
        label: "e1".into(),
        ..Default::default()
    };
    record
        .config
        .insert("parallelism".into(), "sequential".into());
    let mut metrics = MetricDoc::default();
    metrics
        .counters
        .insert("assoc.apriori.pass2.candidates".into(), 5_116);
    metrics
        .counters
        .insert("assoc.apriori.pass2.pruned".into(), 183_702);
    metrics.gauges.insert("assoc.mem.db_bytes".into(), 9_000.0);
    record.experiments.insert(
        "e1".into(),
        ExperimentRun {
            wall_ms: 42.0,
            truncated: None,
            metrics,
        },
    );
    record
}

#[test]
fn check_passes_clean_and_fails_injected_counter_regression() {
    let scratch = Scratch::new("gate");
    let baseline = scratch.path("baseline.json");
    let current = scratch.path("current.json");
    let record = sample_record();
    std::fs::write(&baseline, record.to_json()).unwrap();
    std::fs::write(&current, record.to_json()).unwrap();

    let out = dm(&["ledger", "check", "--baseline", &baseline, &current]);
    assert!(
        out.status.success(),
        "identical records must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Inject the regression the ISSUE names: Apriori's prune step
    // disabled — pruned collapses, the candidate count explodes. Both
    // are exact work counters; no band absorbs them.
    let mut regressed = record.clone();
    {
        let m = &mut regressed.experiments.get_mut("e1").unwrap().metrics;
        m.counters
            .insert("assoc.apriori.pass2.candidates".into(), 188_818);
        m.counters.insert("assoc.apriori.pass2.pruned".into(), 0);
    }
    std::fs::write(&current, regressed.to_json()).unwrap();
    let out = dm(&["ledger", "check", "--baseline", &baseline, &current]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "exact-counter drift must exit 1"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("VIOLATION"),
        "report names violations: {stdout}"
    );
    assert!(
        stdout.contains("assoc.apriori.pass2.candidates"),
        "report names the drifted counter: {stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--update-baseline"),
        "failure explains the baseline-refresh path"
    );

    // The documented acceptance path: refresh the baseline, recheck.
    let out = dm(&[
        "ledger",
        "check",
        "--baseline",
        &baseline,
        &current,
        "--update-baseline",
    ]);
    assert!(out.status.success(), "--update-baseline exits 0");
    let out = dm(&["ledger", "check", "--baseline", &baseline, &current]);
    assert!(out.status.success(), "check passes after baseline update");
}

#[test]
fn check_tolerates_noisy_timing_drift_but_not_beyond_band() {
    let scratch = Scratch::new("noise");
    let baseline = scratch.path("baseline.json");
    let current = scratch.path("current.json");
    let record = sample_record();
    std::fs::write(&baseline, record.to_json()).unwrap();

    // 8x slower wall-clock: noise on a shared runner, inside the
    // default 16x band -> pass.
    let mut slow = record.clone();
    slow.experiments.get_mut("e1").unwrap().wall_ms = 42.0 * 8.0;
    std::fs::write(&current, slow.to_json()).unwrap();
    let out = dm(&["ledger", "check", "--baseline", &baseline, &current]);
    assert!(
        out.status.success(),
        "in-band timing drift must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // 100x: a complexity change, not noise -> fail; and a tightened
    // band catches the 8x case too.
    slow.experiments.get_mut("e1").unwrap().wall_ms = 42.0 * 100.0;
    std::fs::write(&current, slow.to_json()).unwrap();
    let out = dm(&["ledger", "check", "--baseline", &baseline, &current]);
    assert_eq!(out.status.code(), Some(1), "out-of-band timing fails");

    slow.experiments.get_mut("e1").unwrap().wall_ms = 42.0 * 8.0;
    std::fs::write(&current, slow.to_json()).unwrap();
    let out = dm(&[
        "ledger",
        "check",
        "--baseline",
        &baseline,
        &current,
        "--band",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(1), "--band tightens the gate");
}

#[test]
fn diff_reports_and_json_report_flag_work() {
    let scratch = Scratch::new("diff");
    let a_path = scratch.path("a.json");
    let b_path = scratch.path("b.json");
    let record = sample_record();
    let mut changed = record.clone();
    changed
        .experiments
        .get_mut("e1")
        .unwrap()
        .metrics
        .counters
        .insert("assoc.apriori.pass2.candidates".into(), 6_000);
    std::fs::write(&a_path, record.to_json()).unwrap();
    std::fs::write(&b_path, changed.to_json()).unwrap();

    let out = dm(&["ledger", "diff", &a_path, &b_path]);
    assert!(out.status.success(), "diff is a report, not a gate");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("assoc.apriori.pass2.candidates"));
    assert!(table.contains("+884"), "delta is shown: {table}");

    let report = scratch.path("report.json");
    let out = dm(&[
        "ledger",
        "check",
        "--baseline",
        &a_path,
        &b_path,
        "--json-report",
        &report,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let written = std::fs::read_to_string(&report).expect("json report written");
    assert!(written.contains("\"assoc.apriori.pass2.candidates\""));

    // Self-diff renders the empty report.
    let out = dm(&["ledger", "diff", &a_path, &a_path]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("no differences"));
}

#[test]
fn malformed_and_missing_records_exit_2() {
    let scratch = Scratch::new("bad");
    let bad = scratch.path("bad.json");
    std::fs::write(&bad, "{ not a record").unwrap();
    let out = dm(&["ledger", "show", &bad]);
    assert_eq!(out.status.code(), Some(2));
    let out = dm(&["ledger", "show", &scratch.path("missing.json")]);
    assert_eq!(out.status.code(), Some(2));
    let out = dm(&["ledger", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A malformed *baseline* (or current) record must be a usage error
/// (exit 2) with a message that names the file and where parsing
/// stopped — distinct from exit 1, which means "the gate caught a
/// regression". CI keys off that distinction.
#[test]
fn malformed_baseline_or_current_record_is_a_readable_exit_2() {
    let scratch = Scratch::new("badgate");
    let good = scratch.path("good.json");
    let bad = scratch.path("bad.json");
    std::fs::write(&good, sample_record().to_json()).unwrap();
    // A mid-file truncation, as a killed writer without atomic rename
    // would have produced.
    let full = sample_record().to_json();
    std::fs::write(&bad, &full[..full.len() / 2]).unwrap();

    for (baseline, current) in [(&bad, &good), (&good, &bad)] {
        let out = dm(&["ledger", "check", "--baseline", baseline, current]);
        assert_eq!(out.status.code(), Some(2), "malformed record is exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cannot parse ledger record") && err.contains("bad.json"),
            "error names the offending file: {err}"
        );
        assert!(
            err.contains("byte"),
            "error locates the parse failure: {err}"
        );
    }
}

/// The satellite fix, end to end: `--update-baseline` must go through
/// the atomic temp-file + rename path — the refreshed baseline parses,
/// equals the current record, and no `*.tmp.*` litter survives.
#[test]
fn update_baseline_is_atomic_and_leaves_no_temp_files() {
    let scratch = Scratch::new("atomic");
    let baseline = scratch.path("baseline.json");
    let current = scratch.path("current.json");
    let record = sample_record();
    let mut drifted = record.clone();
    drifted
        .experiments
        .get_mut("e1")
        .unwrap()
        .metrics
        .counters
        .insert("assoc.apriori.pass2.candidates".into(), 9_999);
    std::fs::write(&baseline, record.to_json()).unwrap();
    std::fs::write(&current, drifted.to_json()).unwrap();

    let out = dm(&[
        "ledger",
        "check",
        "--baseline",
        &baseline,
        &current,
        "--update-baseline",
    ]);
    assert!(out.status.success());
    let refreshed = RunRecord::from_json(&std::fs::read_to_string(&baseline).unwrap())
        .expect("refreshed baseline parses");
    assert_eq!(refreshed.to_json(), drifted.to_json());
    let leftovers: Vec<_> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
}

/// The satellite fix, end to end: an experiment cut off by its guard
/// deadline must still land in `--metrics` (tagged) and in the ledger
/// record (with its truncation reason), not vanish.
#[test]
fn truncated_experiment_reaches_metrics_and_ledger() {
    let scratch = Scratch::new("trunc");
    let metrics = scratch.path("metrics.json");
    let ledger = scratch.path("ledger.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--deadline-ms",
            "150",
            "--metrics",
            &metrics,
            "--ledger",
            &ledger,
            "e1",
        ])
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "a gracefully truncated run is not an error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics_json = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(
        metrics_json.contains("\"truncated\": \"wall-clock deadline exceeded\""),
        "partial snapshot carries the truncation marker"
    );
    let record = RunRecord::from_json(&std::fs::read_to_string(&ledger).expect("ledger written"))
        .expect("ledger record parses");
    let run = &record.experiments["e1"];
    assert_eq!(
        run.truncated.as_deref(),
        Some("wall-clock deadline exceeded")
    );
    assert!(
        !run.metrics.is_empty(),
        "partial metrics are preserved, not dropped"
    );
    assert!(record.git_rev.len() > 3, "provenance recorded");
}

/// The tracing exports do not change what a run records: a run with
/// `--trace --prom` writes the same exact metrics to its ledger record
/// as one without, and both `--metrics` files keep the experiment's
/// span tree.
#[test]
fn tracing_exports_leave_ledger_and_metrics_unchanged() {
    let scratch = Scratch::new("exports");
    let run = |extra: &[&str], ledger: &str, metrics: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--ledger", ledger, "--metrics", metrics])
            .args(extra)
            .args(["e5", "e6"])
            .output()
            .expect("experiments binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let record = std::fs::read_to_string(ledger).expect("ledger written");
        RunRecord::from_json(&record).expect("ledger record parses")
    };
    let (trace, prom) = (scratch.path("t.json"), scratch.path("p.prom"));
    let a = run(&[], &scratch.path("a.json"), &scratch.path("m1.json"));
    let b = run(
        &["--trace", &trace, "--prom", &prom],
        &scratch.path("b.json"),
        &scratch.path("m2.json"),
    );
    let report = diff(&a, &b);
    let exact: Vec<_> = report.entries_of(MetricClass::Exact).collect();
    assert!(exact.is_empty(), "exact drift under --trace: {exact:?}");
    for metrics in ["m1.json", "m2.json"] {
        let text = std::fs::read_to_string(scratch.path(metrics)).expect("metrics written");
        let doc = dm_core::obs::json::parse(&text).expect("metrics file is JSON");
        let tree = doc
            .get("e5")
            .and_then(|e5| e5.get("tree"))
            .and_then(|t| t.as_arr())
            .expect("e5 snapshot has a tree");
        assert!(
            tree.iter()
                .any(|n| n.get("name").and_then(|n| n.as_str()) == Some("experiment.e5")),
            "{metrics} lost the experiment span"
        );
    }
    let trace = std::fs::read_to_string(trace).expect("trace written");
    assert!(trace.contains("\"experiment.e5\"") && trace.contains("\"experiment.e6\""));
}
