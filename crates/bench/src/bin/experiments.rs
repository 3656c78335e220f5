//! Regenerates the tables and figures of `DESIGN.md`'s experiment index.
//!
//! ```text
//! experiments all                    # run everything (E1..E18, A1, A2)
//! experiments e1 e9                  # run a subset
//! experiments --deadline-ms 5000 all # stop gracefully after ~5 s
//! experiments --metrics out.json e1  # also dump recorded metric snapshots
//! experiments --ledger run.json all  # write a run-ledger record (dm ledger ...)
//! experiments --trace out.trace.json e1   # chrome://tracing timeline
//! experiments --folded out.folded e1      # flame-graph folded stacks
//! experiments --prom out.prom e1          # Prometheus text exposition
//! experiments --progress e1          # narrate passes/memory to stderr
//! experiments --list                 # show available ids
//! ```
//!
//! Errors never panic: a data error prints a readable message and exits
//! with a nonzero code. `--deadline-ms` builds a wall-clock [`Budget`];
//! once it expires the remaining experiments are skipped (reported to
//! stderr) rather than cut off mid-table.
//!
//! `--metrics FILE` attaches a fresh in-memory recorder to each
//! experiment's guard and writes one JSON object to `FILE`, keyed by
//! experiment id, each value a metrics snapshot in the schema documented
//! in `DESIGN.md` ("Metrics snapshot schema"). Experiments that were
//! skipped by the deadline do not appear in the file; an experiment the
//! guard truncated mid-run (or that failed with a data error) *does*
//! appear, as its partial snapshot tagged `"truncated": "<reason>"` —
//! a cut-short run is evidence, not a non-event.
//!
//! `--ledger FILE` additionally writes the whole invocation as one run
//! ledger record (`dm_obs::ledger`, see `DESIGN.md` "Run ledger"): git
//! revision, configuration, and a per-experiment wall-clock +
//! truncation marker + collapsed metric document. That record is what
//! `dm ledger diff`/`dm ledger check` consume and what CI gates on.
//!
//! Each experiment records into one fresh `InMemoryRecorder` (wrapped
//! by the progress narrator under `--progress`) and runs under a
//! top-level `experiment.<id>` span, so its snapshot nests experiment →
//! pass → shard. `--trace`, `--folded` and `--prom` render one run-wide
//! snapshot folded from the experiments' snapshots: tree ids and event
//! sequence numbers continue across experiments, span starts sit on the
//! run's timeline, counters, histograms and exemplars add up, and a
//! gauge keeps the last experiment's value.

use dm_bench::progress::ProgressRecorder;
use dm_core::obs::json::{Layout, Writer};
use dm_core::obs::ledger::{ExperimentRun, MetricDoc, RunRecord};
use dm_core::obs::Snapshot;
use dm_core::prelude::{
    chrome_trace, folded_stacks, prometheus, Budget, Guard, InMemoryRecorder, NoopRecorder,
    Recorder, RunStatus,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: experiments [--list] [--deadline-ms N] [--metrics FILE] \
     [--ledger FILE] [--trace FILE] [--folded FILE] [--prom FILE] [--progress] \
     <all | e1..e18 a1 a2 ...>";

/// The current git revision, for ledger provenance. Best effort: a
/// missing `git` binary or a non-repo checkout degrades to "unknown".
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    std::process::exit(real_main());
}

/// Folds one experiment's snapshot, recorded `start_ns` into the run,
/// into the run-wide snapshot the tracing exports render. Gauge write
/// ordinals continue past the run's too, so `gauge_seq` keeps naming
/// exactly the gauges, as the snapshot reader requires.
fn fold_into(run: &mut Snapshot, snap: &Snapshot, start_ns: u64) {
    let ids = run.tree.len() as u64;
    run.tree.extend(snap.tree.iter().map(|node| {
        let mut node = node.clone();
        node.id += ids;
        if node.parent != 0 {
            node.parent += ids;
        }
        node.start_ns = node.start_ns.saturating_add(start_ns);
        node
    }));
    let seqs = run.events.len() as u64;
    run.events.extend(snap.events.iter().map(|e| {
        let mut e = e.clone();
        e.seq += seqs;
        e
    }));
    let writes = run.gauge_seq.values().copied().max().unwrap_or(0);
    run.gauge_seq
        .extend(snap.gauge_seq.iter().map(|(k, &s)| (k.clone(), s + writes)));
    run.gauges
        .extend(snap.gauges.iter().map(|(k, &v)| (k.clone(), v)));
    for (k, &v) in &snap.counters {
        *run.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &snap.histograms {
        run.histograms.entry(k.clone()).or_default().merge(h);
    }
    for (k, buckets) in &snap.exemplars {
        run.exemplars.entry(k.clone()).or_default().extend(buckets);
    }
}

/// Builds the guard for one experiment: whatever is left of the global
/// deadline, so a recorded run still honours `--deadline-ms` end to end.
fn experiment_guard(deadline_ms: Option<u64>, t_start: Instant) -> Guard {
    match deadline_ms {
        Some(ms) => {
            let elapsed = u64::try_from(t_start.elapsed().as_millis()).unwrap_or(u64::MAX);
            Guard::new(Budget::unlimited().with_deadline_ms(ms.saturating_sub(elapsed)))
        }
        None => Guard::unlimited(),
    }
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return 2;
    }
    if args.iter().any(|a| a == "--list") {
        for id in dm_bench::ALL_EXPERIMENTS {
            println!("{id}");
        }
        return 0;
    }

    // Flag parsing; everything that is not a flag is an experiment id.
    let mut deadline_ms: Option<u64> = None;
    let mut metrics_path: Option<String> = None;
    let mut ledger_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut progress = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let path_flag =
            |name: &str, slot: &mut Option<String>, it: &mut dyn Iterator<Item = String>| -> bool {
                match it.next() {
                    Some(value) => {
                        *slot = Some(value);
                        true
                    }
                    None => {
                        eprintln!("{name} needs a file path\n{USAGE}");
                        false
                    }
                }
            };
        if arg == "--deadline-ms" {
            let Some(value) = it.next() else {
                eprintln!("--deadline-ms needs a value\n{USAGE}");
                return 2;
            };
            match value.parse::<u64>() {
                Ok(ms) => deadline_ms = Some(ms),
                Err(_) => {
                    eprintln!(
                        "--deadline-ms expects a whole number of milliseconds, got `{value}`"
                    );
                    return 2;
                }
            }
        } else if arg == "--metrics" {
            if !path_flag("--metrics", &mut metrics_path, &mut it) {
                return 2;
            }
        } else if arg == "--ledger" {
            if !path_flag("--ledger", &mut ledger_path, &mut it) {
                return 2;
            }
        } else if arg == "--trace" {
            if !path_flag("--trace", &mut trace_path, &mut it) {
                return 2;
            }
        } else if arg == "--folded" {
            if !path_flag("--folded", &mut folded_path, &mut it) {
                return 2;
            }
        } else if arg == "--prom" {
            if !path_flag("--prom", &mut prom_path, &mut it) {
                return 2;
            }
        } else if arg == "--progress" {
            progress = true;
        } else {
            ids.push(arg);
        }
    }
    let ids: Vec<&str> = if ids.iter().any(|a| a == "all") {
        dm_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if ids.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }

    let want_export = trace_path.is_some() || folded_path.is_some() || prom_path.is_some();
    let want_snapshot = want_export || metrics_path.is_some() || ledger_path.is_some();
    let mut run_snap = Snapshot::default();

    let t_start = Instant::now();
    let created_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let outer = experiment_guard(deadline_ms, t_start);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // (id, snapshot, truncation reason) per attempted experiment, in
    // run order.
    let mut snapshots: Vec<(String, Snapshot, Option<String>)> = Vec::new();
    let mut ledger_record = ledger_path.as_ref().map(|_| RunRecord {
        created_unix_ms,
        git_rev: git_rev(),
        label: ids.join(" "),
        ..Default::default()
    });
    if let Some(record) = &mut ledger_record {
        record.config.insert(
            "deadline_ms".into(),
            deadline_ms.map_or_else(|| "none".into(), |ms| ms.to_string()),
        );
        // Experiments run the miners' defaults: sequential, fixed seeds
        // (the property the exact-counter gate relies on).
        record
            .config
            .insert("parallelism".into(), "sequential".into());
    }
    // First failure is remembered but does not abort the run: later
    // experiments still produce evidence, and the metrics/ledger files
    // are written regardless.
    let mut exit_code = 0;
    for (pos, id) in ids.iter().enumerate() {
        if outer.should_stop() {
            let skipped = ids[pos..].join(", ");
            eprintln!("[deadline exceeded; skipping remaining experiments: {skipped}]");
            break;
        }
        let t0 = Instant::now();
        let start_ns = u64::try_from(t_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let rec = want_snapshot.then(|| Arc::new(InMemoryRecorder::new()));
        let base = rec.clone().map(|r| r as Arc<dyn Recorder>);
        let recorder: Option<Arc<dyn Recorder>> = if progress {
            let inner = base.unwrap_or_else(|| Arc::new(NoopRecorder));
            Some(Arc::new(ProgressRecorder::stderr(inner)))
        } else {
            base
        };
        let (result, status) = match recorder {
            Some(rec) => {
                let inner = experiment_guard(deadline_ms, t_start).with_recorder(rec);
                let exp_span = inner.obs().span_fmt(format_args!("experiment.{id}"));
                let result = dm_bench::run_governed(id, &inner);
                drop(exp_span);
                let status = inner.status();
                (result, status)
            }
            None => (dm_bench::run_governed(id, &outer), outer.status()),
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        // The truncation marker for this experiment's snapshot/ledger
        // entry: guard trips and data errors both leave partial
        // metrics, and partial metrics must say so.
        let truncated: Option<String> = match (&result, &status) {
            (Some(Err(e)), _) => Some(format!("error: {e}")),
            (_, RunStatus::Truncated(reason)) => Some(reason.to_string()),
            _ => None,
        };
        match &result {
            Some(Ok(report)) => {
                if writeln!(out, "{report}").is_err()
                    || writeln!(out, "[{id} completed in {:?}]\n", t0.elapsed()).is_err()
                {
                    // Broken pipe (e.g. `| head`): stop quietly.
                    return 0;
                }
            }
            Some(Err(e)) => {
                eprintln!("experiment {id} failed: {e}");
                exit_code = 1;
            }
            None => {
                eprintln!("unknown experiment id `{id}` (try --list)");
                return 2;
            }
        }
        if let Some(rec) = &rec {
            let snap = rec.snapshot();
            if want_export {
                fold_into(&mut run_snap, &snap, start_ns);
            }
            if let Some(record) = &mut ledger_record {
                record.experiments.insert(
                    id.to_string(),
                    ExperimentRun {
                        wall_ms,
                        truncated: truncated.clone(),
                        metrics: MetricDoc::from_snapshot(&snap),
                    },
                );
            }
            if metrics_path.is_some() {
                snapshots.push((id.to_string(), snap, truncated));
            }
        }
    }
    if let Some(path) = &metrics_path {
        let mut w = Writer::new();
        w.obj(Layout::Compact, |w| {
            for (id, snap, truncated) in &snapshots {
                snap.write_json(w.key(id), truncated.as_deref());
            }
        });
        if let Err(e) = std::fs::write(path, w.finish() + "\n") {
            eprintln!("failed to write metrics file {path}: {e}");
            return 1;
        }
        eprintln!(
            "[metrics for {} experiment(s) written to {path}]",
            snapshots.len()
        );
    }
    if let (Some(path), Some(record)) = (&ledger_path, &ledger_record) {
        // Atomic rename, not a plain write: a run killed mid-write must
        // not leave a truncated record that later gates CI.
        if let Err(e) =
            dm_core::obs::ledger::write_atomic(std::path::Path::new(path), &record.to_json())
        {
            eprintln!("failed to write ledger record {path}: {e}");
            return 1;
        }
        eprintln!(
            "[ledger record for {} experiment(s) written to {path}]",
            record.experiments.len()
        );
    }
    if want_export {
        type Render = fn(&dm_core::prelude::Snapshot) -> String;
        let exports: [(&Option<String>, Render, &str); 3] = [
            (&trace_path, chrome_trace, "trace"),
            (&folded_path, folded_stacks, "folded stacks"),
            (&prom_path, prometheus, "prometheus"),
        ];
        for (path, render, kind) in exports {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, render(&run_snap)) {
                    eprintln!("failed to write {kind} file {path}: {e}");
                    return 1;
                }
                eprintln!("[{kind} written to {path}]");
            }
        }
    }
    exit_code
}
