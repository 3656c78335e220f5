//! Eclat (Zaki, IEEE TKDE 2000): frequent-itemset mining over the
//! **vertical** database layout.
//!
//! Where the Apriori family scans horizontal transactions against
//! candidate sets, Eclat materializes one tid-column per item
//! ([`dm_dataset::VerticalDb`]) and walks prefix equivalence classes
//! depth-first: the support of `P ∪ {a, b}` is the size of the
//! intersection of the tid-sets of `P ∪ {a}` and `P ∪ {b}`. Columns are
//! word-packed bitsets when dense (AND + popcount) and sorted tid-lists
//! when sparse (galloping intersection), with the representation chosen
//! per column by [`dm_dataset::vertical::DENSE_CUTOVER`].
//!
//! ## Governance
//!
//! The truncation unit is the **top-level branch**: all itemsets whose
//! *smallest* item is `i` are mined while expanding `i`'s branch, and
//! branches run in descending item order, each all-or-nothing. Every
//! proper subset of an emitted itemset either keeps the branch's minimum
//! item (same branch, which completed) or drops it (a higher minimum —
//! an earlier branch), so a truncated result stays downward closed. The
//! guard's work unit is one tid-set intersection — one candidate
//! admitted to counting — batched per equivalence class so sequential
//! and threaded runs admit identically.

use crate::count::POLL_STRIDE;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TidSet, TransactionDb, VerticalDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::{par_map_indexed, Parallelism};
use std::borrow::Borrow;
use std::time::Instant;

/// Extension batches at least this large are spread across threads (the
/// per-intersection cost is too small to amortize a join below it).
const PAR_BATCH_MIN: usize = 64;

/// Everything the recursive expansion needs, bundled so the recursion
/// signature stays readable.
struct EclatCtx<'a> {
    n_rows: usize,
    min_count: usize,
    parallelism: Parallelism,
    guard: &'a Guard,
    levels: Vec<Vec<(Itemset, usize)>>,
    /// Intersections attempted per result size (index = size - 1).
    cand_by_size: Vec<u64>,
    intersections: u64,
    max_depth: usize,
}

impl EclatCtx<'_> {
    fn note_candidates(&mut self, size: usize, n: usize) {
        while self.cand_by_size.len() < size {
            self.cand_by_size.push(0);
        }
        self.cand_by_size[size - 1] += n as u64;
        self.intersections += n as u64;
    }

    fn emit(&mut self, items: Itemset, count: usize) {
        let k = items.len();
        while self.levels.len() < k {
            self.levels.push(Vec::new());
        }
        self.levels[k - 1].push((items, count));
    }
}

/// The Eclat miner. Produces [`FrequentItemsets`] bit-identical to the
/// Apriori family's and to FP-Growth's (the equivalence tests enforce
/// it).
#[derive(Debug, Clone)]
pub struct Eclat {
    min_support: MinSupport,
    parallelism: Parallelism,
}

impl Eclat {
    /// Creates an Eclat miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how intersection batches are spread across threads. The
    /// batch is admitted to the guard up front and mapped
    /// order-preservingly, so results are bit-identical for every
    /// setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Expands one prefix-class pivot: intersects `pivot`'s tid-set with
    /// every class sibling after it, emits the frequent extensions, and
    /// recurses into the surviving class. `prefix` holds the items of
    /// the current prefix *excluding* the pivot.
    fn expand_pivot<S: Borrow<TidSet> + Sync>(
        ctx: &mut EclatCtx<'_>,
        pivot_item: u32,
        pivot_set: &TidSet,
        exts: &[(u32, S)],
        prefix: &mut Vec<u32>,
    ) -> Result<(), TruncationReason> {
        if exts.is_empty() {
            return Ok(());
        }
        // One unit per intersection, admitted as a batch BEFORE the work
        // so sequential and threaded runs charge the guard identically.
        ctx.guard.try_work(exts.len() as u64)?;
        prefix.push(pivot_item);
        ctx.max_depth = ctx.max_depth.max(prefix.len());
        ctx.note_candidates(prefix.len() + 1, exts.len());
        let n_rows = ctx.n_rows;
        let sets: Vec<TidSet> = if exts.len() >= PAR_BATCH_MIN {
            par_map_indexed(ctx.parallelism, exts, |_, (_, s)| {
                pivot_set.intersect(s.borrow(), n_rows)
            })
        } else {
            exts.iter()
                .map(|(_, s)| pivot_set.intersect(s.borrow(), n_rows))
                .collect()
        };
        let mut class: Vec<(u32, TidSet)> = Vec::new();
        for ((item, _), set) in exts.iter().zip(sets) {
            if set.support() >= ctx.min_count {
                let mut items: Itemset = prefix.clone();
                items.push(*item);
                ctx.emit(items, set.support());
                class.push((*item, set));
            }
        }
        for i in 0..class.len().saturating_sub(1) {
            let (item, set) = (class[i].0, &class[i].1);
            Self::expand_pivot(ctx, item, set, &class[i + 1..], prefix)?;
        }
        prefix.pop();
        Ok(())
    }
}

impl ItemsetMiner for Eclat {
    fn name(&self) -> &'static str {
        "eclat"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let obs = guard.obs();
        if obs.enabled() {
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }
        let mut ctx = EclatCtx {
            n_rows: db.len(),
            min_count,
            parallelism: self.parallelism,
            guard,
            levels: Vec::new(),
            cand_by_size: Vec::new(),
            intersections: 0,
            max_depth: 0,
        };
        let t0 = Instant::now();
        let mut build_time = std::time::Duration::ZERO;

        'mine: {
            // Materializing the vertical layout counts every singleton:
            // one unit per item, like the horizontal miners' pass 1.
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            ctx.note_candidates(1, db.n_items() as usize);
            let vertical = {
                let _build = obs.span("assoc.eclat.build");
                VerticalDb::from_db_interruptible(db, POLL_STRIDE, || guard.should_stop())
            };
            let Some(vertical) = vertical else {
                break 'mine;
            };
            build_time = t0.elapsed();
            if obs.enabled() {
                obs.gauge_max("assoc.mem.vertical_bytes", vertical.heap_bytes() as f64);
            }
            // L1 and the base equivalence class, ascending by item id so
            // DFS emissions come out with sorted members.
            let base: Vec<(u32, &TidSet)> = (0..vertical.n_items() as u32)
                .map(|item| (item, vertical.column(item)))
                .filter(|(_, set)| set.support() >= min_count)
                .collect();
            ctx.levels.push(
                base.iter()
                    .map(|&(item, set)| (vec![item], set.support()))
                    .collect(),
            );

            // Top-level branches in DESCENDING item order, each
            // all-or-nothing: on a trip the current branch rolls back
            // and the completed (higher-item) branches remain (see
            // module docs for why that is downward closed).
            let _mine = obs.span("assoc.eclat.mine");
            for bi in (0..base.len()).rev() {
                let marks: Vec<usize> = ctx.levels.iter().map(Vec::len).collect();
                let (item, set) = base[bi];
                let mut prefix: Vec<u32> = Vec::with_capacity(8);
                if Self::expand_pivot(&mut ctx, item, set, &base[bi + 1..], &mut prefix).is_err() {
                    for (level, mark) in ctx.levels.iter_mut().zip(marks) {
                        level.truncate(mark);
                    }
                    break 'mine;
                }
            }
        }

        let mut stats = MiningStats::default();
        let n_passes = ctx.levels.len().max(if ctx.cand_by_size.is_empty() {
            0
        } else {
            ctx.cand_by_size.len()
        });
        for k in 0..n_passes {
            let candidates = ctx.cand_by_size.get(k).copied().unwrap_or(0) as usize;
            let frequent = ctx.levels.get(k).map(Vec::len).unwrap_or(0);
            let d = if k == 0 {
                build_time
            } else {
                std::time::Duration::ZERO
            };
            stats.push(k + 1, candidates, frequent, d);
        }
        stats.record_to(obs, "eclat");
        if obs.enabled() {
            obs.counter("assoc.eclat.intersections", ctx.intersections);
            obs.gauge_max("assoc.eclat.max_depth", ctx.max_depth as f64);
        }
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(ctx.levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn mines_the_paper_example() {
        let result = Eclat::new(MinSupport::Count(2)).mine(&paper_db()).unwrap();
        let f = &result.itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert_eq!(f.support_count(&[1, 3]), Some(2));
        assert_eq!(f.support_count(&[1, 2]), None);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn matches_apriori_on_the_paper_example() {
        let db = paper_db();
        for min in 1..=4usize {
            let ec = Eclat::new(MinSupport::Count(min)).mine(&db).unwrap();
            let ap = crate::Apriori::new(MinSupport::Count(min))
                .mine(&db)
                .unwrap();
            assert_eq!(ec.itemsets, ap.itemsets, "min_count {min}");
        }
    }

    #[test]
    fn parallel_batches_match_sequential() {
        // Wide db whose top-level class crosses PAR_BATCH_MIN: ~1/4-density
        // hashed fill keeps most of the 80 items frequent at 10% support
        // while pair supports stay low enough to bound the search.
        let db = TransactionDb::new(
            (0..200u32)
                .map(|t| {
                    (0..80u32)
                        .filter(|&i| {
                            let x = t.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B);
                            (x >> 13) % 4 == 0
                        })
                        .collect()
                })
                .collect(),
        );
        let seq = Eclat::new(MinSupport::Fraction(0.1)).mine(&db).unwrap();
        let par = Eclat::new(MinSupport::Fraction(0.1))
            .with_parallelism(Parallelism::Threads(4))
            .mine(&db)
            .unwrap();
        assert_eq!(seq.itemsets, par.itemsets);
    }

    #[test]
    fn stats_count_intersections_per_level() {
        let result = Eclat::new(MinSupport::Count(2)).mine(&paper_db()).unwrap();
        // Pass 1 "candidates" = every item column materialized.
        assert_eq!(result.stats.passes[0].candidates, 6);
        // Later passes: at least one intersection per frequent itemset.
        for p in &result.stats.passes[1..] {
            assert!(p.candidates >= p.frequent);
        }
    }

    #[test]
    fn empty_and_degenerate_databases() {
        let empty = TransactionDb::new(vec![]);
        let result = Eclat::new(MinSupport::Count(1)).mine(&empty).unwrap();
        assert!(result.itemsets.is_empty());

        let singletons = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
        let result = Eclat::new(MinSupport::Count(2)).mine(&singletons).unwrap();
        assert_eq!(result.itemsets.len(), 1);
        assert_eq!(result.itemsets.support_count(&[0]), Some(2));
    }
}
