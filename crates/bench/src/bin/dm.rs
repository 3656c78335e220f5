//! `dm` — the workspace's operational command surface. Three subcommand
//! families: `dm ledger`, which operates on run-ledger records produced
//! by `experiments --ledger FILE` (see `dm_obs::ledger` and `DESIGN.md`
//! "Run ledger"), `dm watch`, which replays metric snapshots through an
//! SLO/drift rule file (see `dm_obs::watch` and the README "Watching &
//! alerting"), and `dm trace`, which lists, pretty-prints and exports
//! request traces dumped from a tail-sampled `TraceStore` (see
//! `dm_obs::trace` and the README "Request tracing").
//!
//! ```text
//! dm ledger show RECORD                # one-line-per-experiment summary
//! dm ledger diff A B [--json]          # per-metric delta report
//! dm ledger check --baseline B CURRENT # CI regression gate
//!     [--band N]                       #   noisy-metric ratio band (default 16)
//!     [--no-noisy]                     #   gate exact metrics only
//!     [--subset]                       #   tolerate experiments missing from CURRENT
//!     [--json-report FILE]             #   machine-readable diff alongside the verdict
//!     [--update-baseline]              #   accept CURRENT as the new baseline
//! dm watch RULES SNAPSHOT...           # evaluate rules over snapshots, in order
//!     [--window MS]                    #   sliding-window length (default 60000)
//!     [--tick MS]                      #   simulated ms between snapshots (default 1000)
//!     [--prom FILE]                    #   write the watcher's own metrics as
//!                                      #   Prometheus text exposition
//! dm trace list FILE                   # retained traces, one line each
//!     [--outcome LABEL]                #   keep only this outcome (shed reason or
//!                                      #   finish label, e.g. queue_full, panicked)
//!     [--endpoint LABEL]               #   keep only this endpoint
//!     [--anomalous]                    #   keep only always-retained traces
//! dm trace show FILE ID                # one request's full lifecycle
//! dm trace export FILE ID [--out F]    # the lifecycle as a chrome trace
//! ```
//!
//! Exit codes: 0 = pass / no error, 1 = gate violations (`ledger
//! check`), at least one alert still firing after the last snapshot
//! (`watch`), or an id that is not in the trace file (`trace
//! show`/`export`), 2 = usage or I/O error (including a malformed
//! trace file). `check` prints the human report to stdout; with
//! `--update-baseline` it *rewrites the baseline file* with the
//! current record instead of failing, which is the documented way to
//! land an intentional counter change (commit the refreshed baseline
//! together with the code that moved it). `watch` replays the
//! snapshot files against a `ManualClock` advanced `--tick` per file,
//! so the same inputs always produce the same transition log.

use dm_core::obs::ledger::{check, diff, write_atomic, CheckPolicy, RunRecord};
use dm_core::obs::trace::{chrome_trace_request, render_list, render_show, traces_from_json};
use dm_core::obs::watch::{AlertState, ManualClock, RuleSet, WatchReport, Watcher};
use dm_core::obs::{export, InMemoryRecorder, Obs, Snapshot, TraceId};
use std::fmt::Write as _;
use std::sync::Arc;

/// Writes to stdout, swallowing broken-pipe errors (`dm ledger diff |
/// head` must not panic mid-report).
fn emit(s: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

const USAGE: &str = "usage: dm <ledger | watch | trace> ...\n\
  dm ledger show RECORD\n\
  dm ledger diff A B [--json]\n\
  dm ledger check --baseline BASE CURRENT [--band N] [--no-noisy] [--subset] \
[--json-report FILE] [--update-baseline]\n\
  dm watch RULES SNAPSHOT... [--window MS] [--tick MS] [--prom FILE]\n\
  dm trace list FILE [--outcome LABEL] [--endpoint LABEL] [--anomalous]\n\
  dm trace show FILE ID\n\
  dm trace export FILE ID [--out FILE]";

fn main() {
    std::process::exit(real_main());
}

/// Reads and parses one input file (`what` names its kind), mapping
/// failures to a readable message and exit code 2.
fn load_file<T, E: std::fmt::Display>(
    what: &str,
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, i32> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {what} `{path}`: {e}");
        2
    })?;
    parse(&text).map_err(|e| {
        eprintln!("cannot parse {what} `{path}`: {e}");
        2
    })
}

fn load(path: &str) -> Result<RunRecord, i32> {
    load_file("ledger record", path, RunRecord::from_json)
}

fn cmd_show(path: &str) -> i32 {
    let record = match load(path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut out = String::new();
    let _ = writeln!(out, "record:   {path}");
    let _ = writeln!(out, "git_rev:  {}", record.git_rev);
    let _ = writeln!(out, "label:    {}", record.label);
    let _ = writeln!(out, "created:  {} (unix ms)", record.created_unix_ms);
    for (k, v) in &record.config {
        let _ = writeln!(out, "config:   {k} = {v}");
    }
    for (id, run) in &record.experiments {
        let m = &run.metrics;
        let status = run.truncated.as_deref().unwrap_or("complete");
        let _ = writeln!(
            out,
            "{id:>4}  {:>10.1} ms  {:>4} counters  {:>3} gauges  {:>3} histograms  {:>4} tree paths  [{status}]",
            run.wall_ms,
            m.counters.len(),
            m.gauges.len(),
            m.histograms.len(),
            m.tree.len(),
        );
    }
    emit(&out);
    0
}

fn cmd_diff(a_path: &str, b_path: &str, json: bool) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let d = diff(&a, &b);
    if json {
        emit(&d.render_json());
    } else {
        emit(&d.render_table());
    }
    0
}

struct CheckArgs {
    baseline: String,
    current: String,
    policy: CheckPolicy,
    json_report: Option<String>,
    update_baseline: bool,
}

fn parse_check_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut baseline: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut policy = CheckPolicy::default();
    let mut json_report: Option<String> = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = Some(
                    it.next()
                        .ok_or("--baseline needs a record path")?
                        .to_owned(),
                );
            }
            "--band" => {
                let v = it.next().ok_or("--band needs a ratio")?;
                policy.noisy_band = v
                    .parse::<f64>()
                    .ok()
                    .filter(|b| *b >= 1.0)
                    .ok_or_else(|| format!("--band expects a ratio >= 1, got `{v}`"))?;
            }
            "--no-noisy" => policy.gate_noisy = false,
            "--subset" => policy.require_all = false,
            "--json-report" => {
                json_report = Some(
                    it.next()
                        .ok_or("--json-report needs a file path")?
                        .to_owned(),
                );
            }
            "--update-baseline" => update_baseline = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` for dm ledger check"));
            }
            other => positional.push(other),
        }
    }
    let baseline = baseline.ok_or("dm ledger check needs --baseline BASE")?;
    let [current] = positional.as_slice() else {
        return Err("dm ledger check needs exactly one CURRENT record".into());
    };
    Ok(CheckArgs {
        baseline,
        current: (*current).to_owned(),
        policy,
        json_report,
        update_baseline,
    })
}

fn cmd_check(args: &[String]) -> i32 {
    let parsed = match parse_check_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    let (base, current) = match (load(&parsed.baseline), load(&parsed.current)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let d = diff(&base, &current);
    if let Some(path) = &parsed.json_report {
        if let Err(e) = std::fs::write(path, d.render_json()) {
            eprintln!("cannot write diff report `{path}`: {e}");
            return 2;
        }
        eprintln!("[diff report written to {path}]");
    }
    if parsed.update_baseline {
        // Accepting the current record as the new truth: rewrite the
        // baseline (deterministic re-serialization, not a byte copy,
        // so the file is canonical regardless of its producer) via
        // temp-file + rename so an interrupt can't corrupt it.
        if let Err(e) = write_atomic(std::path::Path::new(&parsed.baseline), &current.to_json()) {
            eprintln!("cannot update baseline `{}`: {e}", parsed.baseline);
            return 2;
        }
        emit(&format!(
            "baseline `{}` updated from `{}` ({} differing metric(s) accepted)\n",
            parsed.baseline,
            parsed.current,
            d.entries.len()
        ));
        return 0;
    }
    let report = check(&base, &current, &parsed.policy);
    emit(&report.render());
    if report.passed() {
        0
    } else {
        eprintln!(
            "ledger check failed against `{}`; if this drift is intentional, refresh the \
             baseline in the same commit: dm ledger check --baseline {} {} --update-baseline",
            parsed.baseline, parsed.baseline, parsed.current
        );
        1
    }
}

/// Parsed `dm watch` invocation.
struct WatchArgs {
    rules: String,
    snapshots: Vec<String>,
    window_ms: u64,
    tick_ms: u64,
    prom: Option<String>,
}

fn parse_watch_args(args: &[String]) -> Result<WatchArgs, String> {
    let mut window_ms = 60_000u64;
    let mut tick_ms = 1_000u64;
    let mut prom: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let ms_flag = |name: &str, v: Option<&String>| -> Result<u64, String> {
            v.ok_or_else(|| format!("{name} needs a millisecond value"))?
                .parse::<u64>()
                .ok()
                .filter(|ms| *ms >= 1)
                .ok_or_else(|| format!("{name} expects a whole number of milliseconds >= 1"))
        };
        match arg.as_str() {
            "--window" => window_ms = ms_flag("--window", it.next())?,
            "--tick" => tick_ms = ms_flag("--tick", it.next())?,
            "--prom" => {
                prom = Some(it.next().ok_or("--prom needs a file path")?.to_owned());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` for dm watch"));
            }
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() < 2 {
        return Err("dm watch needs a rule file and at least one snapshot".into());
    }
    let rules = positional.remove(0);
    Ok(WatchArgs {
        rules,
        snapshots: positional,
        window_ms,
        tick_ms,
        prom,
    })
}

/// Replays snapshot files through the rule set on a manual clock and
/// prints the firing/resolved table plus the transition log. Exit 1
/// when any rule is still firing after the last snapshot.
fn cmd_watch(args: &[String]) -> i32 {
    let parsed = match parse_watch_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    let rules = match load_file("rule file", &parsed.rules, RuleSet::from_json) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let clock = Arc::new(ManualClock::new(0));
    let mut watcher = Watcher::new(rules, parsed.window_ms, clock.clone());
    let sink = InMemoryRecorder::new();
    let obs = Obs::new(&sink);
    let mut transitions = Vec::new();
    for path in &parsed.snapshots {
        let snap = match load_file("snapshot", path, Snapshot::from_json) {
            Ok(s) => s,
            Err(code) => return code,
        };
        clock.advance(parsed.tick_ms);
        transitions.extend(watcher.tick(&snap, &obs));
    }
    let report = WatchReport {
        transitions,
        statuses: watcher.statuses(),
    };
    emit(&report.render());
    if let Some(path) = &parsed.prom {
        if let Err(e) = std::fs::write(path, export::prometheus(&sink.snapshot())) {
            eprintln!("cannot write prometheus file `{path}`: {e}");
            return 2;
        }
        eprintln!("[watch metrics written to {path}]");
    }
    let firing = report
        .statuses
        .iter()
        .filter(|s| s.state == AlertState::Firing)
        .count();
    if firing > 0 {
        eprintln!("{firing} alert(s) firing");
        1
    } else {
        0
    }
}

/// Resolves an id argument against a parsed trace file. A well-formed
/// id that simply isn't retained is a data outcome (exit 1), not a
/// usage error.
fn find_trace(traces: &[dm_core::obs::trace::RequestTrace], id_arg: &str) -> Result<usize, i32> {
    let id = TraceId::from_hex(id_arg).ok_or_else(|| {
        eprintln!("`{id_arg}` is not a trace id (expected 16 hex digits)\n{USAGE}");
        2
    })?;
    traces.iter().position(|t| t.id == id).ok_or_else(|| {
        eprintln!("trace {id} is not in this file (dropped by the sampler, or a different run?)");
        1
    })
}

fn cmd_trace(args: &[String]) -> i32 {
    let usage = |msg: &str| -> i32 {
        eprintln!("{msg}\n{USAGE}");
        2
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            let mut outcome: Option<String> = None;
            let mut endpoint: Option<String> = None;
            let mut anomalous = false;
            let mut positional: Vec<&str> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--outcome" => match it.next() {
                        Some(v) => outcome = Some(v.to_owned()),
                        None => return usage("--outcome needs a label"),
                    },
                    "--endpoint" => match it.next() {
                        Some(v) => endpoint = Some(v.to_owned()),
                        None => return usage("--endpoint needs a label"),
                    },
                    "--anomalous" => anomalous = true,
                    other if other.starts_with('-') => {
                        return usage(&format!("unknown flag `{other}` for dm trace list"));
                    }
                    other => positional.push(other),
                }
            }
            let [path] = positional.as_slice() else {
                return usage("dm trace list needs exactly one trace file");
            };
            let traces = match load_file("trace file", path, traces_from_json) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let total = traces.len();
            let kept: Vec<_> = traces
                .into_iter()
                .filter(|t| outcome.as_deref().is_none_or(|o| t.outcome() == o))
                .filter(|t| endpoint.as_deref().is_none_or(|e| t.endpoint == e))
                .filter(|t| !anomalous || t.is_anomalous())
                .collect();
            emit(&render_list(&kept));
            if kept.len() != total {
                eprintln!("[{} of {total} trace(s) match the filters]", kept.len());
            }
            0
        }
        Some("show") | Some("export") => {
            let export = args[0] == "export";
            let mut out: Option<String> = None;
            let mut positional: Vec<&str> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" if export => match it.next() {
                        Some(v) => out = Some(v.to_owned()),
                        None => return usage("--out needs a file path"),
                    },
                    other if other.starts_with('-') => {
                        return usage(&format!("unknown flag `{other}` for dm trace {}", args[0]));
                    }
                    other => positional.push(other),
                }
            }
            let [path, id_arg] = positional.as_slice() else {
                return usage(&format!(
                    "dm trace {} needs a trace file and a trace id",
                    args[0]
                ));
            };
            let traces = match load_file("trace file", path, traces_from_json) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let idx = match find_trace(&traces, id_arg) {
                Ok(i) => i,
                Err(code) => return code,
            };
            if export {
                let rendered = chrome_trace_request(&traces[idx]);
                match &out {
                    Some(dest) => {
                        if let Err(e) = std::fs::write(dest, rendered) {
                            eprintln!("cannot write chrome trace `{dest}`: {e}");
                            return 2;
                        }
                        eprintln!("[chrome trace written to {dest}]");
                    }
                    None => emit(&rendered),
                }
            } else {
                emit(&render_show(&traces[idx]));
            }
            0
        }
        _ => usage("dm trace needs a verb: list, show or export"),
    }
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    if args[0] == "watch" {
        return cmd_watch(&args[1..]);
    }
    if args[0] == "trace" {
        return cmd_trace(&args[1..]);
    }
    if args[0] != "ledger" {
        eprintln!("unknown subcommand `{}`\n{USAGE}", args[0]);
        return 2;
    }
    match args.get(1).map(String::as_str) {
        Some("show") => match args.get(2) {
            Some(path) if args.len() == 3 => cmd_show(path),
            _ => {
                eprintln!("dm ledger show needs exactly one record path\n{USAGE}");
                2
            }
        },
        Some("diff") => {
            let rest: Vec<&String> = args[2..].iter().collect();
            let json = rest.iter().any(|a| *a == "--json");
            let paths: Vec<&String> = rest.into_iter().filter(|a| *a != "--json").collect();
            match paths.as_slice() {
                [a, b] => cmd_diff(a, b, json),
                _ => {
                    eprintln!("dm ledger diff needs exactly two record paths\n{USAGE}");
                    2
                }
            }
        }
        Some("check") => cmd_check(&args[2..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}
