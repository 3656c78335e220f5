//! # dm-bench
//!
//! The experiment harness reproducing every table and figure of the
//! evaluation plan in `DESIGN.md` (experiments E1–E12 plus the two
//! ablations A1–A2). Each experiment is a pure function returning the
//! formatted table/series it regenerates; the `experiments` binary
//! prints them, and Criterion benches (in `benches/`) time the hot
//! kernels.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p dm-bench --bin experiments -- all
//! ```
//!
//! or a single experiment by id (`e1` … `e18`, `a1`, `a2`).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
pub mod assoc_exp;
pub mod classify_exp;
pub mod cluster_exp;
pub mod progress;
pub mod seq_exp;
pub mod serve_exp;
pub mod stream_exp;
pub mod table;
pub mod trace_exp;
pub mod watch_exp;

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "a1", "a2",
];

/// Runs one experiment by id, returning its report (or the data error
/// that stopped it). `None` for unknown ids.
///
/// Equivalent to [`run_governed`] with an unlimited, unrecorded guard.
pub fn run(id: &str) -> Option<Result<String, dm_core::dataset::DataError>> {
    run_governed(id, &dm_core::guard::Guard::unlimited())
}

/// Runs one experiment by id under a resource [`Guard`](dm_core::guard::Guard).
///
/// The guard serves two roles: its budgets/deadline bound the work each
/// experiment admits (reports reflect whatever completed before a
/// trip), and a recorder attached via
/// [`Guard::with_recorder`](dm_core::guard::Guard::with_recorder)
/// captures the per-algorithm metrics every governed kernel emits —
/// this is how `experiments --metrics` collects its snapshots.
pub fn run_governed(
    id: &str,
    guard: &dm_core::guard::Guard,
) -> Option<Result<String, dm_core::dataset::DataError>> {
    Some(match id {
        "e1" => assoc_exp::e1_miner_times(guard),
        "e2" => assoc_exp::e2_per_pass(guard),
        "e3" => assoc_exp::e3_scaleup_transactions(guard),
        "e4" => assoc_exp::e4_scaleup_width(guard),
        "e5" => assoc_exp::e5_rule_counts(guard),
        "e6" => cluster_exp::e6_elbow_and_init(guard),
        "e7" => cluster_exp::e7_quality_comparison(guard),
        "e8" => cluster_exp::e8_scaling(guard),
        "e9" => classify_exp::e9_accuracy_table(guard),
        "e10" => classify_exp::e10_learning_curve(guard),
        "e11" => classify_exp::e11_train_time_scaleup(guard),
        "e12" => classify_exp::e12_noise_sensitivity(guard),
        "e13" => seq_exp::e13_sequential_patterns(guard),
        "e14" => assoc_exp::e14_fp_vs_apriori_low_support(guard),
        "e15" => serve_exp::e15_serving(guard),
        "e16" => stream_exp::e16_streaming(guard),
        "e17" => watch_exp::e17_watch(guard),
        "e18" => trace_exp::e18_trace(guard),
        "a1" => assoc_exp::a1_hashtree_ablation(guard),
        "a2" => cluster_exp::a2_birch_ablation(guard),
        _ => return None,
    })
}
