//! `perf` — the repository benchmark: two mining and two serving
//! workloads, each generated from a seed, timed end to end, and checked
//! for correct output.
//!
//! ```text
//! perf run --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with
//! `--trace 1` it repeats the workload with the benchmark's own timing
//! around each layer call, prints every per-layer metric, and writes a
//! metrics snapshot and a chrome trace into the trace directory
//! (default `$CARGO_TARGET_DIR/perf-trace`, else `target/perf-trace`).
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 1 when an output check fails or the run is invalid
//! (the load generator fell behind, or the traced layers do not add up
//! to the run), and 2 on bad usage.
//! `all` runs each workload in a child process of its own, so peak
//! memory and warm caches do not carry from one workload to the next.
//!
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; a unit test keeps it and the registry below in step.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod mining;
mod serving;
mod stats;

use dm_core::obs::export::chrome_trace;
use dm_core::obs::Snapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const USAGE: &str = "usage: perf run --workload <name|all> --seed N [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR]";

/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: u64 = 10;

/// A reported metric: its name and unit.
struct MetricDef {
    name: &'static str,
    unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run of every workload.
const END_TO_END: &[MetricDef] = &[
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MB"),
    metric("success_rate", "fraction"),
];

/// Reported by every traced run; a layer a workload never calls reads 0.
const PER_LAYER: &[MetricDef] = &[
    metric("dataset.load_ns", "ns"),
    metric("dataset.vertical_ns", "ns"),
    metric("dataset.decode_ns", "ns"),
    metric("assoc.search_ns", "ns"),
    metric("assoc.eclat.intersections", "count"),
    metric("assoc.candidates", "count"),
    metric("assoc.frequent_itemsets", "count"),
    metric("assoc.fp.tree_nodes", "count"),
    metric("assoc.fp.cond_trees", "count"),
    metric("assoc.rules_ns", "ns"),
    metric("assoc.rules", "count"),
    metric("assoc.alt.apriori_ns", "ns"),
    metric("assoc.alt.fp_growth_ns", "ns"),
    metric("assoc.alt.eclat_ns", "ns"),
    metric("assoc.auto_regret", "ratio"),
    metric("serve.admit_ns", "ns"),
    metric("serve.handoff_ns", "ns"),
    metric("serve.queue_ns", "ns"),
    metric("serve.queue.depth_peak", "count"),
    metric("serve.exec_ns", "ns"),
    metric("serve.handler_ns", "ns"),
    metric("serve.requests", "count"),
    metric("serve.rows", "count"),
    metric("serve.refresh_ns", "ns"),
    metric("stream.insert_ns", "ns"),
    metric("stream.model_ns", "ns"),
    metric("stream.publish_us", "us"),
    metric("trace.retained", "count"),
    metric("trace.dropped", "count"),
    metric("trace.evicted", "count"),
    metric("p50_us", "us"),
    metric("loadgen.p90_us", "us"),
    metric("loadgen.p99_us", "us"),
    metric("loadgen.late_p99_us", "us"),
    metric("serve.capacity_rps", "1/s"),
    metric("bench.trace_overhead_pct", "%"),
];

/// A workload: which runner, at which size.
enum Workload {
    Mine(mining::MineConfig),
    Serve(serving::LoadConfig),
}

impl Workload {
    fn run(&self, args: &RunArgs) -> Result<Outcome, String> {
        match self {
            Workload::Mine(cfg) => mining::run(cfg, args),
            Workload::Serve(cfg) => serving::run(cfg, args),
        }
    }
}

/// The workloads, in the order `all` runs them.
static WORKLOADS: [(&str, Workload); 4] = [
    ("mine-sparse", Workload::Mine(mining::SPARSE)),
    ("mine-lowsup", Workload::Mine(mining::LOWSUP)),
    ("serve-small", Workload::Serve(serving::SMALL)),
    (
        "serve-batch-refresh",
        Workload::Serve(serving::BATCH_REFRESH),
    ),
];

/// What a runner is asked to do.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    /// `Some` for a traced run: where its snapshot and chrome trace go.
    pub trace_dir: Option<PathBuf>,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty when the outputs were correct.
    pub problems: Vec<String>,
    /// Why the measurement cannot be trusted (the load generator fell
    /// behind, the layers do not add up); empty for a valid run.
    pub invalid: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Writes the traced run's metrics snapshot and chrome trace.
pub fn write_trace_files(
    dir: &Path,
    workload: &str,
    seed: u64,
    snap: &Snapshot,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = dir.join(format!("{workload}-seed{seed}"));
    std::fs::write(stem.with_extension("snapshot.json"), snap.to_json())?;
    std::fs::write(stem.with_extension("chrome.json"), chrome_trace(snap))
}

/// Prints each metric of `defs` by name with its unit, then the result
/// line. Returns whether the run was correct and valid.
fn emit(outcome: &Outcome, defs: &[MetricDef]) -> bool {
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    for reason in &outcome.invalid {
        println!("invalid run: {reason}");
    }
    let mut json = Vec::new();
    for def in defs {
        let value = outcome
            .metrics
            .get(def.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("metric {} {value} {}", def.name, def.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    correct && outcome.invalid.is_empty()
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    if cmd != "run" {
        return Err(format!("unknown command `{cmd}`"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: target.join("perf-trace"),
    };
    let mut seed = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => seed = Some(number()?),
            "--seconds" => cli.seconds = number()?.max(1),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-dir" => cli.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    cli.seed = seed.ok_or("missing --seed")?;
    if cli.workload != "all" && !WORKLOADS.iter().any(|(name, _)| *name == cli.workload) {
        return Err(format!("unknown workload `{}`", cli.workload));
    }
    Ok(cli)
}

/// Runs every workload in a fresh child process, one after another.
fn run_all(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for (name, _) in &WORKLOADS {
        println!("== {name}");
        let status = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&cli.trace_dir)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("perf: cannot run {name}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.workload == "all" {
        std::process::exit(run_all(&cli));
    }
    let Some((_, workload)) = WORKLOADS.iter().find(|(name, _)| *name == cli.workload) else {
        std::process::exit(2);
    };
    let args = RunArgs {
        workload: cli.workload.clone(),
        seed: cli.seed,
        seconds: Duration::from_secs(cli.seconds),
        trace_dir: cli.trace.then(|| cli.trace_dir.clone()),
    };
    let code = match workload.run(&args) {
        Ok(outcome) if emit(&outcome, if cli.trace { PER_LAYER } else { END_TO_END }) => 0,
        Ok(_) => 1,
        Err(e) => {
            eprintln!("perf: {}: {e}", cli.workload);
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_core::obs::json::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
        }
        for (name, _) in &WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn registry(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    }

    /// The workloads at test size: same code paths and router choices,
    /// a fraction of the data and load. At 2000 baskets, 0.25% support
    /// is 5 baskets and the rule count explodes; 1% still routes to
    /// FP-Growth.
    fn reduced() -> Vec<(&'static str, Workload)> {
        let mine = |cfg: &mining::MineConfig| {
            Workload::Mine(mining::MineConfig {
                transactions: 2_000,
                min_support: cfg.min_support.max(0.01),
            })
        };
        let serve = |cfg: &serving::LoadConfig| {
            Workload::Serve(serving::LoadConfig {
                rate: 300.0,
                ..cfg.clone()
            })
        };
        WORKLOADS
            .iter()
            .map(|(name, w)| {
                let small = match w {
                    Workload::Mine(cfg) => mine(cfg),
                    Workload::Serve(cfg) => serve(cfg),
                };
                (*name, small)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_runners_emit() {
        let bench = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            names_and_units(bench.get("end_to_end").unwrap()),
            registry(END_TO_END)
        );
        assert_eq!(
            names_and_units(bench.get("per_layer").unwrap()),
            registry(PER_LAYER)
        );
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );

        let dir = std::env::temp_dir().join(format!("perf-test-{}", std::process::id()));
        let mut layers = BTreeSet::new();
        for (name, workload) in reduced() {
            for trace_dir in [None, Some(dir.clone())] {
                let traced = trace_dir.is_some();
                let args = RunArgs {
                    workload: name.to_owned(),
                    seed: 3,
                    seconds: Duration::from_millis(400),
                    trace_dir,
                };
                let outcome = workload.run(&args).unwrap();
                assert!(
                    outcome.problems.is_empty(),
                    "{name}: {:?}",
                    outcome.problems
                );
                assert_eq!(outcome.failed, 0, "{name}");
                // The layer accounting must hold. Whether the load
                // generator kept its schedule depends on the machine the
                // test runs on, so serving runs check only the accounting.
                match workload {
                    Workload::Mine(_) => {
                        assert!(outcome.invalid.is_empty(), "{name}: {:?}", outcome.invalid)
                    }
                    Workload::Serve(_) if traced => {
                        assert!(outcome.metrics["serve.handoff_ns"] >= 0.0, "{name}")
                    }
                    Workload::Serve(_) => {}
                }
                let keys: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
                if traced {
                    let known: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
                    assert!(keys.is_subset(&known), "{name}: {keys:?}");
                    layers.extend(keys);
                } else {
                    let all: BTreeSet<&str> = END_TO_END.iter().map(|d| d.name).collect();
                    assert_eq!(keys, all, "{name}");
                    assert!(outcome.metrics.values().all(|&v| v > 0.0), "{name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let all: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(layers, all);
    }

    #[test]
    fn usage_errors_are_reported() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("run --workload mine-sparse")).is_err());
        assert!(parse(&args("run --workload nosuch --seed 1")).is_err());
        assert!(parse(&args("run --workload all --seed 1 --trace 2")).is_err());
        assert!(parse(&args("bench --workload all --seed 1")).is_err());
        let cli = parse(&args("run --workload serve-small --seed 4 --trace 1")).unwrap();
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (4, DEFAULT_SECONDS, true)
        );
    }
}
