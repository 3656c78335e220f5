//! The mining workloads: Quest transactions serialised once, then timed
//! runs of `read_from` → `mine(.., Method::Auto)` → rule generation, all
//! on the calling thread (`mine` is `Parallelism::Sequential`).

use crate::stats::{hist_mean, median, peak_rss_mb, release_free_memory};
use crate::{write_trace_files, Outcome, RunArgs};
use dm_core::prelude::{
    mine, mine_governed, DataError, FrequentItemsets, Guard, InMemoryRecorder, Method, MinSupport,
    Obs, QuestConfig, QuestGenerator, Recorder, RuleGenerator, TransactionDb, VerticalDb,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest timed runs a measurement makes, however long each takes.
const MIN_RUNS: usize = 3;

/// Input generations per run; `setup_s` is their median.
const SETUPS: usize = 5;

const MIN_CONFIDENCE: f64 = 0.5;

/// Largest share by which the traced layer spans may miss the traced
/// run's wall time before the accounting check fails.
const ACCOUNTING_TOLERANCE: f64 = 0.02;

/// One mining workload: a Quest `T10.I4.D<transactions>` database over
/// `N = 1000` items, mined at the given support, rules at confidence 0.5.
#[derive(Debug)]
pub struct MineConfig {
    pub transactions: usize,
    pub min_support: f64,
}

/// `Auto` routes to Eclat, whose tid-set search is nearly all the work.
pub const SPARSE: MineConfig = MineConfig {
    transactions: 100_000,
    min_support: 0.015,
};

/// `Auto` routes to FP-Growth; rule generation is a large share.
pub const LOWSUP: MineConfig = MineConfig {
    transactions: 100_000,
    min_support: 0.0025,
};

impl MineConfig {
    fn support(&self) -> MinSupport {
        MinSupport::Fraction(self.min_support)
    }
}

/// The Quest pattern table, which items tend to be bought together, is
/// fixed; the run seed draws the baskets from it. Across table seeds the
/// low-support rule count ranges from 45k to 760k, so a seeded table
/// would make the run time measure the seed. This table gives about 13k
/// itemsets and 240k rules at 0.25%, with rule generation near a third
/// of the run.
const PATTERN_SEED: u64 = 7;

/// The serialised input: baskets drawn with the run seed, written once
/// with `write_to`, and re-read by every timed run.
fn generate(cfg: &MineConfig, seed: u64) -> Result<Vec<u8>, DataError> {
    let config = QuestConfig::standard(10.0, 4.0, cfg.transactions);
    let mut bytes = Vec::new();
    QuestGenerator::new(config, PATTERN_SEED)?
        .generate(seed)
        .write_to(&mut bytes)?;
    Ok(bytes)
}

/// Itemset and rule counts of one run: every run must repeat the first.
type Counts = (usize, usize);

/// Timings and checks of one measurement loop.
#[derive(Default)]
struct Tally {
    run_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    first: Option<Counts>,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, ns: f64, counts: Result<Counts, DataError>) {
        self.attempted += 1;
        self.run_ns.push(ns);
        match counts {
            Ok(counts) if *self.first.get_or_insert(counts) == counts => {}
            Ok((itemsets, rules)) => {
                self.failed += 1;
                self.problems.push(format!(
                    "run {} found {itemsets} itemsets and {rules} rules, the first run {:?}",
                    self.attempted, self.first
                ));
            }
            Err(e) => {
                self.failed += 1;
                self.problems
                    .push(format!("run {} failed: {e}", self.attempted));
            }
        }
    }

    fn done(&self, started: Instant, budget: Duration) -> bool {
        self.run_ns.len() >= MIN_RUNS && started.elapsed() >= budget
    }

    fn report(&self, name: &str) {
        println!(
            "phase {name}: sent {} succeeded {} failed {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
    }
}

/// One run: the operation a user of the miner waits for.
fn run_once(bytes: &[u8], cfg: &MineConfig) -> Result<Counts, DataError> {
    let db = TransactionDb::read_from(bytes)?;
    let mined = mine(&db, cfg.support(), Method::Auto)?;
    let rules = RuleGenerator::new(MIN_CONFIDENCE).generate(&mined.itemsets)?;
    Ok((black_box(mined.itemsets.len()), black_box(rules.len())))
}

fn untraced(bytes: &[u8], cfg: &MineConfig, budget: Duration) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    while !tally.done(started, budget) {
        let t = Instant::now();
        let counts = run_once(bytes, cfg);
        tally.record(t.elapsed().as_nanos() as f64, counts);
    }
    tally
}

/// What the traced loop keeps beyond its tally: the last run's database
/// and itemsets (for the router comparison) and its per-run work.
struct Traced {
    tally: Tally,
    db: TransactionDb,
    itemsets: FrequentItemsets,
    candidates: usize,
}

/// The traced loop: the same run with a span around each layer call, a
/// `VerticalDb::from_db` probe after it, and the miner's own work
/// counters recorded through the guard.
fn traced(
    bytes: &[u8],
    cfg: &MineConfig,
    budget: Duration,
    rec: &Arc<InMemoryRecorder>,
) -> Result<Traced, DataError> {
    let obs = Obs::new(rec.as_ref());
    let guard = Guard::unlimited().with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    let mut tally = Tally::default();
    let mut last = None;
    let started = Instant::now();
    while !tally.done(started, budget) {
        let t = Instant::now();
        let (db, mined, rules) = {
            let _run = obs.span("bench.run");
            let db = {
                let _s = obs.span("dataset.load");
                TransactionDb::read_from(bytes)?
            };
            let mined = {
                let _s = obs.span("assoc.search");
                mine_governed(&db, cfg.support(), Method::Auto, &guard)?.result
            };
            let rules = {
                let _s = obs.span("assoc.rules");
                RuleGenerator::new(MIN_CONFIDENCE).generate(&mined.itemsets)?
            };
            (db, mined, rules)
        };
        tally.record(
            t.elapsed().as_nanos() as f64,
            Ok((mined.itemsets.len(), rules.len())),
        );
        {
            let _s = obs.span("dataset.vertical");
            black_box(VerticalDb::from_db(&db));
        }
        last = Some((db, mined));
    }
    let (db, mined) = last.ok_or(DataError::Empty("no traced run"))?;
    Ok(Traced {
        tally,
        db,
        candidates: mined.stats.total_candidates(),
        itemsets: mined.itemsets,
    })
}

/// Runs a mining workload: untraced, it reports the end-to-end metrics;
/// with a trace directory it reports the per-layer metrics instead.
pub fn run(cfg: &MineConfig, args: &RunArgs) -> Result<Outcome, String> {
    // Only the untraced run reports `setup_s`, so only it repeats the
    // generation, which takes about a second.
    let setups = if args.trace_dir.is_some() { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bytes = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        bytes = generate(cfg, args.seed).map_err(|e| format!("input generation: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    release_free_memory();
    match &args.trace_dir {
        None => Ok(end_to_end(&bytes, cfg, args, median(&mut setup_s))),
        Some(dir) => per_layer(&bytes, cfg, args, dir).map_err(|e| format!("traced run: {e}")),
    }
}

fn end_to_end(bytes: &[u8], cfg: &MineConfig, args: &RunArgs, setup_s: f64) -> Outcome {
    let tally = untraced(bytes, cfg, args.seconds);
    tally.report("mine");
    let ok = tally.attempted - tally.failed;
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.set("success_rate", ok as f64 / tally.attempted as f64);
    out
}

fn per_layer(
    bytes: &[u8],
    cfg: &MineConfig,
    args: &RunArgs,
    dir: &std::path::Path,
) -> Result<Outcome, DataError> {
    let half = args.seconds / 2;
    let plain = untraced(bytes, cfg, half);
    let rec = Arc::new(InMemoryRecorder::new());
    let traced = traced(bytes, cfg, half, &rec)?;
    plain.report("untraced");
    traced.tally.report("traced");
    let obs = Obs::new(rec.as_ref());

    // The router comparison: every concrete method on the same database
    // must find Auto's itemsets; the fastest sets the regret's base.
    let resolved = Method::Auto.resolve(&traced.db, cfg.support())?;
    let mut problems = [plain.problems, traced.tally.problems].concat();
    let mut alt_ns = Vec::new();
    for (method, metric) in [
        (Method::Apriori, "assoc.alt.apriori_ns"),
        (Method::FpGrowth, "assoc.alt.fp_growth_ns"),
        (Method::Eclat, "assoc.alt.eclat_ns"),
    ] {
        let t = Instant::now();
        let result = {
            let _s = obs.span(metric.trim_end_matches("_ns"));
            mine(&traced.db, cfg.support(), method)?
        };
        alt_ns.push((metric, t.elapsed().as_nanos() as f64));
        if result.itemsets != traced.itemsets {
            problems.push(format!("{} disagrees with Auto's itemsets", method.label()));
        }
    }

    let snap = rec.snapshot();
    write_trace_files(dir, &args.workload, args.seed, &snap)
        .map_err(|e| DataError::InvalidParameter(format!("writing the trace: {e}")))?;
    let runs = traced.tally.run_ns.len() as f64;
    let wall = hist_mean(&snap, "bench.run");
    let load = hist_mean(&snap, "dataset.load");
    let search = hist_mean(&snap, "assoc.search");
    let rules = hist_mean(&snap, "assoc.rules");
    let gap = (wall - load - search - rules).abs() / wall;
    let mut invalid = Vec::new();
    if gap > ACCOUNTING_TOLERANCE {
        invalid.push(format!(
            "load + search + rules miss the traced run time by {:.2}%",
            gap * 100.0
        ));
    }
    let fastest = alt_ns
        .iter()
        .map(|&(_, ns)| ns)
        .fold(f64::INFINITY, f64::min);
    let (itemsets, rule_count) = traced.tally.first.unwrap_or_default();
    // Medians, so that the first, cold run of each loop does not count.
    let p50_ns = median(&mut plain.run_ns.clone());
    let overhead_pct = (median(&mut traced.tally.run_ns.clone()) / p50_ns - 1.0) * 100.0;

    println!(
        "router: auto -> {} search {:.3} ms",
        resolved.label(),
        search / 1e6
    );
    for (metric, ns) in &alt_ns {
        println!("router: {metric} {:.3} ms", ns / 1e6);
    }
    println!("router: assoc.auto_regret {:.2}x", search / fastest);
    println!(
        "accounting: load + search + rules = {:.2}% of the traced run",
        (load + search + rules) / wall * 100.0
    );

    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64 / runs;
    let mut out = Outcome {
        attempted: plain.attempted + traced.tally.attempted,
        failed: plain.failed + traced.tally.failed,
        problems,
        invalid,
        ..Outcome::default()
    };
    out.set("dataset.load_ns", load);
    out.set("dataset.vertical_ns", hist_mean(&snap, "dataset.vertical"));
    out.set("assoc.search_ns", search);
    out.set(
        "assoc.eclat.intersections",
        counter("assoc.eclat.intersections"),
    );
    out.set("assoc.candidates", traced.candidates as f64);
    out.set("assoc.frequent_itemsets", itemsets as f64);
    out.set("assoc.fp.tree_nodes", counter("assoc.fp.tree_nodes"));
    out.set("assoc.fp.cond_trees", counter("assoc.fp.cond_trees"));
    out.set("assoc.rules_ns", rules);
    out.set("assoc.rules", rule_count as f64);
    for (metric, ns) in alt_ns {
        out.set(metric, ns);
    }
    out.set("assoc.auto_regret", search / fastest);
    out.set("p50_us", p50_ns / 1e3);
    out.set("bench.trace_overhead_pct", overhead_pct);
    Ok(out)
}
