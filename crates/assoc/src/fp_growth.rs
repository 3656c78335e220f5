//! FP-Growth (Han, Pei & Yin, SIGMOD 2000): frequent-pattern mining
//! without candidate generation.
//!
//! Two database scans build a compact **FP-tree** — transactions
//! re-ordered by descending item frequency share prefixes, so the tree
//! is typically far smaller than the database — and mining proceeds by
//! recursively projecting **conditional pattern bases** (the prefix
//! paths above each suffix item) into conditional FP-trees. A tree that
//! degenerates to a single path short-circuits: every combination of
//! its nodes is frequent and is emitted directly.
//!
//! ## Governance
//!
//! FP-Growth has no per-pass candidate sets, so its truncation unit is
//! the **suffix group**: header items are processed from most to least
//! frequent, and all itemsets whose lowest-frequency member is item `r`
//! are emitted while processing `r`. On a guard trip the current group
//! is discarded wholesale, which keeps the result downward closed (every
//! subset of an emitted itemset lives in an earlier group, or in L1) and
//! an exactly-counted subset of the ungoverned run. The guard's work
//! unit stays "one itemset admitted to counting": `n_items` for the
//! frequency scan, then one unit per emitted itemset (a whole
//! `2^p - 1` batch is admitted up front when the single-path shortcut
//! fires).

use crate::count::{self, POLL_STRIDE};
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::Parallelism;
use std::time::Instant;

/// Single-path subset enumeration is used only for paths of at most this
/// many nodes (`2^16 - 1` emissions); longer paths fall back to the
/// recursive projection, which admits work itemset by itemset.
const SINGLE_PATH_MAX: usize = 16;

/// Sentinel for "no node" in header chains and parent links.
const NIL: u32 = u32::MAX;

/// One FP-tree node: an item (as a frequency rank), its path count, a
/// parent link for upward traversal, and the header-chain link tying
/// together all nodes of the same item. A count is at most the number
/// of transactions, which `mine_governed` caps at `u32::MAX`.
#[derive(Debug, Clone, Copy)]
struct FpNode {
    rank: u32,
    count: u32,
    parent: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<FpNode>() == 16);

/// A compact FP-tree over frequency ranks `0..n_ranks` (rank 0 = most
/// frequent item). Node 0 is the root sentinel.
struct FpTree {
    nodes: Vec<FpNode>,
    /// Per rank: head of the chain of nodes carrying that rank.
    headers: Vec<u32>,
    /// Per rank: total support in this (possibly conditional) tree.
    rank_counts: Vec<usize>,
}

/// The rank-ascending paths a tree is built from, in one flat buffer:
/// path `p` is `ranks[bounds[p]..bounds[p + 1]]`, inserted `counts[p]`
/// times.
struct Paths {
    ranks: Vec<u32>,
    bounds: Vec<usize>,
    counts: Vec<u32>,
}

impl Paths {
    /// Room for exactly `n_paths` paths of `n_ranks` ranks in all.
    fn with_capacity(n_paths: usize, n_ranks: usize) -> Self {
        let mut bounds = Vec::with_capacity(n_paths + 1);
        bounds.push(0);
        let (ranks, counts) = (Vec::with_capacity(n_ranks), Vec::with_capacity(n_paths));
        Paths {
            ranks,
            bounds,
            counts,
        }
    }

    /// Ends the path whose ranks were pushed since the last call.
    fn close(&mut self, count: u32) {
        self.bounds.push(self.ranks.len());
        self.counts.push(count);
    }

    fn get(&self, p: u32) -> &[u32] {
        &self.ranks[self.bounds[p as usize]..self.bounds[p as usize + 1]]
    }
}

/// Length of the longest common prefix of `a` and `b`.
fn shared_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl FpTree {
    /// Builds the tree over `n_ranks` ranks from `paths`. Inserted in
    /// lexicographic order, each path shares exactly its longest common
    /// prefix with the one before it, so a depth stack replaces a child
    /// index, the node count is known before the arena is allocated,
    /// and nodes come out in preorder.
    fn build(n_ranks: usize, paths: &Paths) -> Self {
        let mut order: Vec<u32> = (0..paths.counts.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| paths.get(a).cmp(paths.get(b)));
        let mut n_nodes = 0;
        let mut prev: &[u32] = &[];
        for &p in &order {
            let path = paths.get(p);
            n_nodes += path.len() - shared_prefix(prev, path);
            prev = path;
        }
        let mut tree = FpTree {
            nodes: Vec::with_capacity(1 + n_nodes),
            headers: vec![NIL; n_ranks],
            rank_counts: vec![0; n_ranks],
        };
        tree.nodes.push(FpNode {
            rank: NIL,
            count: 0,
            parent: NIL,
            next: NIL,
        });
        // `stack[d]` is the node at depth `d` on the previous path.
        let mut stack: Vec<u32> = vec![0];
        let mut prev: &[u32] = &[];
        for &p in &order {
            let (path, count) = (paths.get(p), paths.counts[p as usize]);
            let shared = shared_prefix(prev, path);
            stack.truncate(1 + shared);
            for &node in &stack[1..] {
                tree.nodes[node as usize].count += count;
            }
            for &r in &path[shared..] {
                let idx = tree.nodes.len() as u32;
                tree.nodes.push(FpNode {
                    rank: r,
                    count,
                    parent: stack[stack.len() - 1],
                    next: tree.headers[r as usize],
                });
                tree.headers[r as usize] = idx;
                stack.push(idx);
            }
            for &r in path {
                tree.rank_counts[r as usize] += count as usize;
            }
            prev = path;
        }
        tree
    }

    /// Number of non-root nodes.
    fn n_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the tree is one downward path. Nodes are in preorder, so
    /// a tree is a single path iff every node's parent is its
    /// predecessor.
    fn is_single_path(&self) -> bool {
        self.nodes[1..]
            .iter()
            .enumerate()
            .all(|(i, n)| n.parent == i as u32)
    }
}

impl HeapSize for FpTree {
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<FpNode>()
            + self.headers.capacity() * std::mem::size_of::<u32>()
            + self.rank_counts.capacity() * std::mem::size_of::<usize>()
    }
}

/// Instrumentation accumulated across the recursion, flushed to the
/// recorder once at the end of the run.
#[derive(Default)]
struct FpMetrics {
    tree_nodes: usize,
    cond_trees: usize,
    cond_nodes: usize,
    single_path_shortcuts: usize,
    /// Bytes of FP-trees currently alive (main + conditional stack).
    live_bytes: usize,
    /// High-water mark of `live_bytes`.
    peak_bytes: usize,
}

impl FpMetrics {
    fn alloc(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    fn free(&mut self, bytes: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }
}

/// The FP-Growth miner. Produces [`FrequentItemsets`] bit-identical to
/// the Apriori family's (the equivalence tests enforce it) while
/// counting zero candidates.
#[derive(Debug, Clone)]
pub struct FpGrowth {
    min_support: MinSupport,
    parallelism: Parallelism,
}

impl FpGrowth {
    /// Creates an FP-Growth miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how the initial frequency scan is spread across threads
    /// (shard counters merge by summation, so the result is identical
    /// for every setting; tree build and projection are sequential).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Scan 2: the FP-tree over frequency ranks. Polls the guard every
    /// [`POLL_STRIDE`] transactions; a trip voids the build.
    fn build_tree(
        db: &TransactionDb,
        frequent: &[(u32, usize)],
        rank_of_item: &[u32],
        guard: &Guard,
    ) -> Result<FpTree, TruncationReason> {
        // One path per transaction, one rank per frequent-item occurrence.
        let mut paths = Paths::with_capacity(db.len(), frequent.iter().map(|&(_, c)| c).sum());
        for (t, txn) in db.iter().enumerate() {
            if t.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            let start = paths.ranks.len();
            paths.ranks.extend(
                txn.iter()
                    .map(|&item| rank_of_item[item as usize])
                    .filter(|&r| r != NIL),
            );
            paths.ranks[start..].sort_unstable();
            paths.close(1);
        }
        Ok(FpTree::build(frequent.len(), &paths))
    }

    /// Projects the conditional FP-tree for suffix rank `r`: collects the
    /// prefix paths above every `r` node, prunes conditionally
    /// infrequent ranks, and rebuilds. Returns `None` when nothing in
    /// the base stays frequent.
    fn conditional_tree(
        tree: &FpTree,
        r: u32,
        min_count: usize,
        guard: &Guard,
        poll: &mut usize,
    ) -> Result<Option<FpTree>, TruncationReason> {
        // Pass A over the chain: conditional support of each prefix rank.
        let mut cond_counts = vec![0usize; r as usize];
        let mut chain = 0;
        let mut node = tree.headers[r as usize];
        while node != NIL {
            chain += 1;
            *poll += 1;
            if poll.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            let n = &tree.nodes[node as usize];
            let mut up = n.parent;
            while up != 0 {
                cond_counts[tree.nodes[up as usize].rank as usize] += n.count as usize;
                up = tree.nodes[up as usize].parent;
            }
            node = n.next;
        }
        if !cond_counts.iter().any(|&c| c >= min_count) {
            return Ok(None);
        }
        // Pass B: rebuild with the surviving ranks.
        let mut paths = Paths::with_capacity(chain, 0);
        let mut node = tree.headers[r as usize];
        while node != NIL {
            *poll += 1;
            if poll.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            let n = &tree.nodes[node as usize];
            let start = paths.ranks.len();
            let mut up = n.parent;
            while up != 0 {
                let rank = tree.nodes[up as usize].rank;
                if cond_counts[rank as usize] >= min_count {
                    paths.ranks.push(rank);
                }
                up = tree.nodes[up as usize].parent;
            }
            paths.ranks[start..].reverse(); // upward walk yields descending ranks
            paths.close(n.count);
            node = n.next;
        }
        Ok(Some(FpTree::build(r as usize, &paths)))
    }

    /// Emits every frequent itemset whose lowest-frequency member is
    /// `tree`'s suffix, recursing over conditional trees. `suffix` holds
    /// the item ids (not ranks) accumulated so far — always non-empty
    /// here, so every emission has length >= 2 once extended.
    #[allow(clippy::too_many_arguments)]
    fn mine_tree(
        tree: &FpTree,
        suffix: &mut Vec<u32>,
        item_of_rank: &[u32],
        min_count: usize,
        levels: &mut Vec<Vec<(Itemset, usize)>>,
        guard: &Guard,
        metrics: &mut FpMetrics,
        poll: &mut usize,
    ) -> Result<(), TruncationReason> {
        if tree.n_nodes() == 0 {
            return Ok(());
        }
        if tree.n_nodes() <= SINGLE_PATH_MAX && tree.is_single_path() {
            // Single-path shortcut: every combination of path nodes is
            // frequent with the deepest selected node's count.
            metrics.single_path_shortcuts += 1;
            let p = tree.n_nodes();
            guard.try_work((1u64 << p) - 1)?;
            for mask in 1u32..(1u32 << p) {
                let deepest = 31 - mask.leading_zeros(); // highest set bit
                let count = tree.nodes[1 + deepest as usize].count as usize;
                let mut items: Itemset = suffix.clone();
                for bit in 0..p {
                    if mask & (1 << bit) != 0 {
                        items.push(item_of_rank[tree.nodes[1 + bit].rank as usize]);
                    }
                }
                items.sort_unstable();
                push_itemset(levels, items, count);
            }
            return Ok(());
        }
        // General case: one suffix extension per rank present in the tree.
        for r in 0..tree.headers.len() as u32 {
            if tree.headers[r as usize] == NIL || tree.rank_counts[r as usize] < min_count {
                continue;
            }
            guard.try_work(1)?;
            suffix.push(item_of_rank[r as usize]);
            let mut items: Itemset = suffix.clone();
            items.sort_unstable();
            push_itemset(levels, items, tree.rank_counts[r as usize]);
            let cond = Self::conditional_tree(tree, r, min_count, guard, poll)?;
            if let Some(cond) = cond {
                metrics.cond_trees += 1;
                metrics.cond_nodes += cond.n_nodes();
                let bytes = cond.heap_bytes();
                metrics.alloc(bytes);
                let res = Self::mine_tree(
                    &cond,
                    suffix,
                    item_of_rank,
                    min_count,
                    levels,
                    guard,
                    metrics,
                    poll,
                );
                metrics.free(bytes);
                res?;
            }
            suffix.pop();
        }
        Ok(())
    }
}

/// Appends `(items, count)` to its size level, growing the level list as
/// needed.
fn push_itemset(levels: &mut Vec<Vec<(Itemset, usize)>>, items: Itemset, count: usize) {
    let k = items.len();
    while levels.len() < k {
        levels.push(Vec::new());
    }
    levels[k - 1].push((items, count));
}

impl ItemsetMiner for FpGrowth {
    fn name(&self) -> &'static str {
        "fp-growth"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        if u32::try_from(db.len()).is_err() {
            return Err(DataError::InvalidParameter(format!(
                "FP-Growth counts in u32: {} transactions exceed u32::MAX",
                db.len()
            )));
        }
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let mut metrics = FpMetrics::default();
        let obs = guard.obs();
        if obs.enabled() {
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }
        let t0 = Instant::now();
        let mut scan_time = std::time::Duration::ZERO;

        'mine: {
            // Scan 1 admits one unit per item, like Apriori's pass 1.
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let counts = {
                let _scan = obs.span("assoc.fp.scan");
                count::item_counts_sharded(self.parallelism, db, guard)
            };
            let Ok(counts) = counts else {
                break 'mine;
            };
            scan_time = t0.elapsed();
            let l1 = count::frequent_items(&counts, min_count);
            // Frequency ranks: descending count, item id breaking ties,
            // so the ordering (and the tree) is deterministic.
            let mut frequent: Vec<(u32, usize)> = l1.iter().map(|(i, c)| (i[0], *c)).collect();
            frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let item_of_rank: Vec<u32> = frequent.iter().map(|&(item, _)| item).collect();
            let mut rank_of_item = vec![NIL; db.n_items() as usize];
            for (rank, &(item, _)) in frequent.iter().enumerate() {
                rank_of_item[item as usize] = rank as u32;
            }
            levels.push(l1);

            let tree = {
                let _build = obs.span("assoc.fp.build");
                Self::build_tree(db, &frequent, &rank_of_item, guard)
            };
            let Ok(tree) = tree else {
                break 'mine;
            };
            metrics.tree_nodes = tree.n_nodes();
            metrics.alloc(tree.heap_bytes());

            // Suffix groups from most to least frequent: on a trip the
            // current group is rolled back, leaving the completed groups
            // — a downward-closed subset (see module docs).
            let _mine = obs.span("assoc.fp.mine");
            let mut poll = 0usize;
            let mut suffix: Vec<u32> = Vec::with_capacity(8);
            for r in 0..item_of_rank.len() as u32 {
                let marks: Vec<usize> = levels.iter().map(Vec::len).collect();
                let group = (|| -> Result<(), TruncationReason> {
                    let cond = Self::conditional_tree(&tree, r, min_count, guard, &mut poll)?;
                    let Some(cond) = cond else {
                        return Ok(());
                    };
                    metrics.cond_trees += 1;
                    metrics.cond_nodes += cond.n_nodes();
                    let bytes = cond.heap_bytes();
                    metrics.alloc(bytes);
                    suffix.clear();
                    suffix.push(item_of_rank[r as usize]);
                    let res = Self::mine_tree(
                        &cond,
                        &mut suffix,
                        &item_of_rank,
                        min_count,
                        &mut levels,
                        guard,
                        &mut metrics,
                        &mut poll,
                    );
                    metrics.free(bytes);
                    res
                })();
                if group.is_err() {
                    for (level, mark) in levels.iter_mut().zip(marks) {
                        level.truncate(mark);
                    }
                    break 'mine;
                }
            }
        }

        // FP-Growth generates no candidates: the per-level stats carry
        // zero candidate counts (the shapes tests assert exactly this).
        // Level timings are not meaningful for a non-level-wise miner;
        // the scan duration lands on pass 1 and the live spans
        // (`assoc.fp.{scan,build,mine}`) carry the rest.
        for (k, level) in levels.iter().enumerate() {
            let d = if k == 0 {
                scan_time
            } else {
                std::time::Duration::ZERO
            };
            stats.push(k + 1, 0, level.len(), d);
        }
        stats.record_to(obs, "fp");
        if obs.enabled() {
            obs.counter("assoc.fp.tree_nodes", metrics.tree_nodes as u64);
            obs.counter("assoc.fp.cond_trees", metrics.cond_trees as u64);
            obs.counter("assoc.fp.cond_nodes", metrics.cond_nodes as u64);
            obs.counter(
                "assoc.fp.single_path_shortcuts",
                metrics.single_path_shortcuts as u64,
            );
            obs.gauge_max("assoc.fp.tree_mem_bytes", metrics.peak_bytes as f64);
            obs.gauge_max("assoc.mem.fptree_bytes", metrics.peak_bytes as f64);
        }
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

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
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert_eq!(f.support_count(&[1, 3]), Some(2));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1, 2]), None);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn matches_apriori_on_the_paper_example() {
        let db = paper_db();
        for min in 1..=4usize {
            let fp = FpGrowth::new(MinSupport::Count(min)).mine(&db).unwrap();
            let ap = crate::Apriori::new(MinSupport::Count(min))
                .mine(&db)
                .unwrap();
            assert_eq!(fp.itemsets, ap.itemsets, "min_count {min}");
        }
    }

    #[test]
    fn stats_report_zero_candidates() {
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        assert!(result.stats.passes.iter().all(|p| p.candidates == 0));
        assert_eq!(result.stats.total_frequent(), result.itemsets.len());
    }

    #[test]
    fn single_path_database_uses_the_shortcut() {
        // Identical transactions: the tree is one path of 3 nodes.
        let db = TransactionDb::new(vec![vec![0, 1, 2]; 5]);
        let result = FpGrowth::new(MinSupport::Count(2)).mine(&db).unwrap();
        // 2^3 - 1 = 7 frequent itemsets, all with support 5.
        assert_eq!(result.itemsets.len(), 7);
        assert_eq!(result.itemsets.support_count(&[0, 1, 2]), Some(5));
        assert_eq!(result.itemsets.support_count(&[0, 2]), Some(5));
    }

    #[test]
    fn empty_and_degenerate_databases() {
        let empty = TransactionDb::new(vec![]);
        let result = FpGrowth::new(MinSupport::Count(1)).mine(&empty).unwrap();
        assert!(result.itemsets.is_empty());

        let singletons = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&singletons)
            .unwrap();
        assert_eq!(result.itemsets.len(), 1);
        assert_eq!(result.itemsets.support_count(&[0]), Some(2));
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let result = FpGrowth::new(MinSupport::Count(5))
            .mine(&paper_db())
            .unwrap();
        assert!(result.itemsets.is_empty());
    }

    /// The build before sorted paths: each path walks down from the
    /// root through a `(parent, rank) -> child` index, in input order.
    fn hashed_build(n_ranks: usize, paths: &[(Vec<u32>, u32)]) -> FpTree {
        let root = FpNode {
            rank: NIL,
            count: 0,
            parent: NIL,
            next: NIL,
        };
        let mut tree = FpTree {
            nodes: vec![root],
            headers: vec![NIL; n_ranks],
            rank_counts: vec![0; n_ranks],
        };
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        for (ranks, count) in paths {
            let mut at = 0u32;
            for &r in ranks {
                tree.rank_counts[r as usize] += *count as usize;
                match children.get(&(at, r)) {
                    Some(&child) => {
                        tree.nodes[child as usize].count += count;
                        at = child;
                    }
                    None => {
                        let idx = tree.nodes.len() as u32;
                        tree.nodes.push(FpNode {
                            rank: r,
                            count: *count,
                            parent: at,
                            next: tree.headers[r as usize],
                        });
                        tree.headers[r as usize] = idx;
                        children.insert((at, r), idx);
                        at = idx;
                    }
                }
            }
        }
        tree
    }

    /// Every node's root-to-node rank path, with its count.
    fn counts_by_path(tree: &FpTree) -> BTreeMap<Vec<u32>, u32> {
        let mut out = BTreeMap::new();
        for (i, node) in tree.nodes.iter().enumerate().skip(1) {
            let mut path = Vec::new();
            let mut at = i as u32;
            while at != 0 {
                path.push(tree.nodes[at as usize].rank);
                at = tree.nodes[at as usize].parent;
            }
            path.reverse();
            assert!(
                out.insert(path, node.count).is_none(),
                "two nodes, one path"
            );
        }
        out
    }

    /// Rank-ascending paths over 6 ranks (so prefixes are shared), some
    /// empty, with the first few repeated.
    fn rank_paths() -> impl Strategy<Value = Vec<(Vec<u32>, u32)>> {
        let path = (prop::collection::vec(0u32..6, 0..5), 1u32..4);
        (prop::collection::vec(path, 0..40), 0usize..8).prop_map(|(mut paths, repeat)| {
            for (ranks, _) in &mut paths {
                ranks.sort_unstable();
                ranks.dedup();
            }
            let repeat = repeat.min(paths.len());
            paths.extend_from_within(..repeat);
            paths
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sorted_build_matches_the_hashed_build(paths in rank_paths()) {
            let mut flat = Paths::with_capacity(0, 0);
            for (ranks, count) in &paths {
                flat.ranks.extend_from_slice(ranks);
                flat.close(*count);
            }
            let sorted = FpTree::build(6, &flat);
            let hashed = hashed_build(6, &paths);
            prop_assert_eq!(sorted.nodes.len(), hashed.nodes.len());
            prop_assert_eq!(sorted.nodes.capacity(), sorted.nodes.len());
            prop_assert_eq!(counts_by_path(&sorted), counts_by_path(&hashed));
            prop_assert_eq!(&sorted.rank_counts, &hashed.rank_counts);
            prop_assert_eq!(sorted.is_single_path(), hashed.is_single_path());
            // Each header chain reaches every node of its rank once.
            for r in 0..6u32 {
                let mut chain = 0;
                let mut node = sorted.headers[r as usize];
                while node != NIL {
                    prop_assert_eq!(sorted.nodes[node as usize].rank, r);
                    chain += 1;
                    node = sorted.nodes[node as usize].next;
                }
                let of_rank = sorted.nodes[1..].iter().filter(|n| n.rank == r).count();
                prop_assert_eq!(chain, of_rank);
            }
        }
    }

    #[test]
    fn the_main_tree_arena_is_exactly_sized() {
        let db = TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
            vec![3, 1],
        ]);
        // Items 3, 2, 5, 1, 4 ranked 0..5 by descending support.
        let frequent = [(3, 4), (2, 3), (5, 3), (1, 3), (4, 1)];
        let rank_of_item = vec![NIL, 3, 1, 0, 4, 2];
        let tree =
            FpGrowth::build_tree(&db, &frequent, &rank_of_item, &Guard::unlimited()).unwrap();
        assert_eq!(tree.n_nodes(), 8);
        assert_eq!(tree.nodes.capacity(), tree.nodes.len());
    }
}
