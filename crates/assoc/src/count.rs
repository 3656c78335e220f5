//! Support counting shared by the Apriori family and FP-Growth: the
//! pass-1 item count, the triangular pair count, the hash-tree pass and
//! the AprioriTid join pass. Every miner counts through these, so each
//! counting structure exists once.
//!
//! A trip of the guard anywhere inside a pass voids it: the kernels
//! return `Err`, never partial counts, so a miner can only keep fully
//! counted passes.

use crate::hash_tree::HashTree;
use crate::itemsets::Itemset;
use dm_dataset::TransactionDb;
use dm_guard::{Guard, TruncationReason};
use dm_obs::HeapSize;
use dm_par::{par_range_map_reduce_governed, Chunking, Parallelism};
use std::collections::HashMap;

/// How many transactions (or tid-lists) a scan processes between guard
/// polls; bounds cancellation latency inside a database scan.
pub(crate) const POLL_STRIDE: usize = 256;

/// Folds `txns` into `acc`, polling `guard` every [`POLL_STRIDE`]
/// transactions.
fn scan<A: ?Sized>(
    txns: &[Vec<u32>],
    guard: &Guard,
    acc: &mut A,
    visit: impl Fn(&mut A, &[u32]),
) -> Result<(), TruncationReason> {
    for (t, txn) in txns.iter().enumerate() {
        if t.is_multiple_of(POLL_STRIDE) {
            guard.check()?;
        }
        visit(acc, txn);
    }
    Ok(())
}

/// Count Distribution: each shard of the database scans into its own
/// accumulator and the shard accumulators merge in shard order, so the
/// result is identical for every [`Parallelism`] setting.
pub(crate) fn sharded<A: Send>(
    par: Parallelism,
    db: &TransactionDb,
    guard: &Guard,
    new: impl Fn() -> A + Sync,
    visit: impl Fn(&mut A, &[u32]) + Sync,
    merge: impl Fn(A, A) -> A,
) -> Result<A, TruncationReason> {
    let txns = db.transactions();
    par_range_map_reduce_governed(
        par,
        Chunking::PerThread,
        txns.len(),
        guard,
        &new,
        |shard| {
            let mut acc = new();
            // A stopped shard hands back what it counted; the trip it
            // latched voids the whole pass in `dm_par`.
            let _ = scan(&txns[shard], guard, &mut acc, &visit);
            acc
        },
        merge,
    )
}

/// Sums the right-hand count vector into the left one (per-shard
/// counters add up).
pub(crate) fn merge_counts<T: Copy + std::ops::AddAssign>(mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

fn add_items(counts: &mut [usize], txn: &[u32]) {
    for &item in txn {
        counts[item as usize] += 1;
    }
}

/// Pass 1 on the calling thread: the support of every item, indexed by
/// item id.
pub(crate) fn item_counts(
    db: &TransactionDb,
    guard: &Guard,
) -> Result<Vec<usize>, TruncationReason> {
    let mut counts = vec![0usize; db.n_items() as usize];
    scan(db.transactions(), guard, counts.as_mut_slice(), add_items)?;
    Ok(counts)
}

/// Pass 1 sharded across `par`: the same counts as [`item_counts`].
pub(crate) fn item_counts_sharded(
    par: Parallelism,
    db: &TransactionDb,
    guard: &Guard,
) -> Result<Vec<usize>, TruncationReason> {
    let n_items = db.n_items() as usize;
    sharded(
        par,
        db,
        guard,
        || vec![0usize; n_items],
        |counts, txn| add_items(counts, txn),
        merge_counts,
    )
}

/// `L1`: the items counted at least `min_count` times, in item order.
pub(crate) fn frequent_items(counts: &[usize], min_count: usize) -> Vec<(Itemset, usize)> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .map(|(item, &c)| (vec![item as u32], c))
        .collect()
}

/// Pass 2: the support of every pair of `items` (sorted, distinct), in
/// one dense triangular array — the paper's own treatment of the second
/// pass, where candidate sets are too large for tree structures to pay
/// off. The pair `(items[i], items[j])`, `i < j`, sits at row-major
/// index `i * m - i * (i + 1) / 2 + (j - i - 1)` for `m = items.len()`.
pub(crate) fn pair_counts(
    par: Parallelism,
    db: &TransactionDb,
    items: &[u32],
    guard: &Guard,
) -> Result<Vec<u32>, TruncationReason> {
    let m = items.len();
    let mut dense = vec![u32::MAX; db.n_items() as usize];
    for (id, &item) in items.iter().enumerate() {
        dense[item as usize] = id as u32;
    }
    let n_pairs = m * m.saturating_sub(1) / 2;
    let tri = |i: usize, j: usize| i * m - i * (i + 1) / 2 + (j - i - 1);
    let (counts, _) = sharded(
        par,
        db,
        guard,
        || (vec![0u32; n_pairs], Vec::<usize>::new()),
        |(counts, present), txn| {
            present.clear();
            present.extend(
                txn.iter()
                    .map(|&item| dense[item as usize])
                    .filter(|&d| d != u32::MAX)
                    .map(|d| d as usize),
            );
            for (a, &i) in present.iter().enumerate() {
                for &j in &present[a + 1..] {
                    counts[tri(i, j)] += 1;
                }
            }
        },
        |(a, scratch), (b, _)| (merge_counts(a, b), scratch),
    )?;
    Ok(counts)
}

/// The pairs of `l1`'s items counted at least `min_count` times, from
/// [`pair_counts`].
pub(crate) fn frequent_pairs(
    par: Parallelism,
    db: &TransactionDb,
    l1: &[(Itemset, usize)],
    min_count: usize,
    guard: &Guard,
) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
    let items: Vec<u32> = l1.iter().map(|(i, _)| i[0]).collect();
    let counts = pair_counts(par, db, &items, guard)?;
    // Row-major triangle: the pairs in (i, j) order walk `counts` in order.
    let pairs = items
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| items[i + 1..].iter().map(move |&b| [a, b]));
    Ok(pairs
        .zip(counts)
        .filter(|&(_, c)| c as usize >= min_count)
        .map(|(pair, c)| (pair.to_vec(), c as usize))
        .collect())
}

/// One hash-tree counting pass of the size-`k` candidates in `tree`,
/// sharded across `par`. Records the tree's footprint and node visits
/// under `assoc.<tag>.pass<k>.*`.
pub(crate) fn hash_tree_pass(
    par: Parallelism,
    db: &TransactionDb,
    tree: HashTree,
    k: usize,
    min_count: usize,
    guard: &Guard,
    tag: &str,
) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
    let obs = guard.obs();
    if obs.enabled() {
        // The paper's memory claim for Apriori: the hash tree is the
        // pass's big intermediate, and it stays small relative to the
        // database in late passes.
        let bytes = tree.heap_bytes() as f64;
        obs.gauge_max_fmt(
            format_args!("assoc.{tag}.pass{k}.hashtree_mem_bytes"),
            bytes,
        );
        obs.gauge_max("assoc.mem.hashtree_bytes", bytes);
    }
    let state = sharded(
        par,
        db,
        guard,
        || tree.new_count_state(),
        |state, txn| tree.count_transaction_into(txn, state),
        |mut a, b| {
            a.absorb(&b);
            a
        },
    )?;
    obs.counter_fmt(
        format_args!("assoc.{tag}.pass{k}.hashtree_visits"),
        state.node_visits(),
    );
    Ok(tree.into_frequent_with(state.counts(), min_count))
}

/// Frequent `(itemset, count)` pairs plus the next pass's `C̄` tid-lists.
type TidJoin = (Vec<(Itemset, usize)>, Vec<Vec<u32>>);

/// One AprioriTid pass `k`: counts `candidates` (generated from `prev`)
/// by joining each `C̄_{k-1}` entry of `tidlists` (ids into `prev`) —
/// a candidate is in a transaction iff both of its generators are.
/// Returns the frequent candidates and `C̄_k` over their dense ids, with
/// emptied lists dropped. `C̄_k` is sampled as
/// `assoc.<tag>.pass<k>.ck_mem_bytes` after the join and before the
/// frequent filter, its peak.
pub(crate) fn tid_join(
    prev: &[Itemset],
    candidates: Vec<Itemset>,
    tidlists: &[Vec<u32>],
    k: usize,
    min_count: usize,
    guard: &Guard,
    tag: &str,
) -> Result<TidJoin, TruncationReason> {
    // Each candidate's two generators as dense prev-level ids, candidates
    // grouped by first generator for the per-transaction probe.
    let prev_id: HashMap<&[u32], u32> = prev
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_slice(), i as u32))
        .collect();
    let mut second: Vec<u32> = Vec::with_capacity(candidates.len());
    let mut by_first: Vec<Vec<u32>> = vec![Vec::new(); prev.len()];
    for (cid, cand) in candidates.iter().enumerate() {
        let n = cand.len();
        let mut g1 = cand.clone();
        g1.remove(n - 1);
        let mut g2 = cand.clone();
        g2.remove(n - 2);
        by_first[prev_id[g1.as_slice()] as usize].push(cid as u32);
        second.push(prev_id[g2.as_slice()]);
    }
    // Generation stamps mark the prev ids the current entry holds
    // without clearing between entries.
    let mut stamp = vec![u32::MAX; prev.len()];
    let mut counts = vec![0usize; candidates.len()];
    let mut next: Vec<Vec<u32>> = Vec::with_capacity(tidlists.len());
    for (gen, ids) in tidlists.iter().enumerate() {
        if gen.is_multiple_of(POLL_STRIDE) {
            guard.check()?;
        }
        let gen = gen as u32;
        for &id in ids {
            stamp[id as usize] = gen;
        }
        let mut present = Vec::new();
        for &id in ids {
            for &cid in &by_first[id as usize] {
                if stamp[second[cid as usize] as usize] == gen {
                    counts[cid as usize] += 1;
                    present.push(cid);
                }
            }
        }
        if !present.is_empty() {
            present.sort_unstable();
            next.push(present);
        }
    }
    let obs = guard.obs();
    if obs.enabled() {
        // The structure the paper's pass-2 memory blow-up is about.
        let ck = next.heap_bytes() as f64;
        obs.gauge_max_fmt(format_args!("assoc.{tag}.pass{k}.ck_mem_bytes"), ck);
        obs.gauge_max("assoc.mem.ck_bytes", ck);
    }
    // Keep the frequent candidates and remap ids densely.
    let mut new_id = vec![u32::MAX; candidates.len()];
    let mut lk = Vec::new();
    for (cid, cand) in candidates.into_iter().enumerate() {
        if counts[cid] >= min_count {
            new_id[cid] = lk.len() as u32;
            lk.push((cand, counts[cid]));
        }
    }
    for ids in &mut next {
        ids.retain_mut(|cid| {
            let mapped = new_id[*cid as usize];
            *cid = mapped;
            mapped != u32::MAX
        });
    }
    next.retain(|ids| !ids.is_empty());
    Ok((lk, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_guard::{Budget, CancelToken};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SETTINGS: [Parallelism; 3] = [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(3),
    ];

    fn small_db() -> impl Strategy<Value = TransactionDb> {
        prop::collection::vec(prop::collection::vec(0u32..12, 0..7), 0..40)
            .prop_map(TransactionDb::new)
    }

    fn support(db: &TransactionDb, items: &[u32]) -> usize {
        db.iter()
            .filter(|txn| items.iter().all(|i| txn.contains(i)))
            .count()
    }

    fn cancelled() -> Guard {
        let token = CancelToken::new();
        token.cancel();
        Guard::with_token(Budget::unlimited(), token)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn item_and_pair_counts_match_brute_force(db in small_db(), mask in 0u64..4096) {
            let guard = Guard::unlimited();
            let direct = item_counts(&db, &guard).unwrap();
            prop_assert_eq!(direct.len(), db.n_items() as usize);
            for (item, &c) in direct.iter().enumerate() {
                prop_assert_eq!(c, support(&db, &[item as u32]));
            }
            let items: Vec<u32> = (0..db.n_items()).filter(|i| mask >> i & 1 == 1).collect();
            let m = items.len();
            for par in SETTINGS {
                prop_assert_eq!(&item_counts_sharded(par, &db, &guard).unwrap(), &direct);
                let pairs = pair_counts(par, &db, &items, &guard).unwrap();
                prop_assert_eq!(pairs.len(), m * m.saturating_sub(1) / 2);
                let mut at = 0;
                for i in 0..m {
                    for j in i + 1..m {
                        prop_assert_eq!(pairs[at] as usize, support(&db, &[items[i], items[j]]));
                        at += 1;
                    }
                }
            }
        }

        #[test]
        fn a_cancelled_guard_gives_err(db in small_db()) {
            let guard = cancelled();
            let items: Vec<u32> = (0..db.n_items()).collect();
            // The direct scan polls at its first transaction; an empty
            // database has nothing to count and nothing to get wrong.
            prop_assert_eq!(item_counts(&db, &guard).is_err(), !db.is_empty());
            for par in SETTINGS {
                prop_assert!(item_counts_sharded(par, &db, &guard).is_err());
                prop_assert!(pair_counts(par, &db, &items, &guard).is_err());
                let tree = HashTree::build(vec![vec![0, 1]], 2, 8, 16);
                prop_assert!(hash_tree_pass(par, &db, tree, 2, 1, &guard, "apriori").is_err());
            }
            let prev = vec![vec![0], vec![1]];
            let lists = vec![vec![0, 1]];
            prop_assert!(tid_join(&prev, vec![vec![0, 1]], &lists, 2, 1, &guard, "apriori_tid").is_err());
        }
    }

    /// A cancel that lands mid-scan voids the pass at every setting, even
    /// where a shard stops with part of the database already counted.
    #[test]
    fn a_trip_mid_scan_gives_err_not_partial_counts() {
        let db = TransactionDb::new((0..1_000u32).map(|t| vec![t % 7, 7 + t % 5]).collect());
        for par in SETTINGS {
            let token = CancelToken::new();
            let guard = Guard::with_token(Budget::unlimited(), token.clone());
            let seen = AtomicUsize::new(0);
            let counted = sharded(
                par,
                &db,
                &guard,
                || vec![0usize; db.n_items() as usize],
                |counts, txn| {
                    add_items(counts, txn);
                    if seen.fetch_add(1, Ordering::Relaxed) + 1 == POLL_STRIDE + 44 {
                        token.cancel();
                    }
                },
                merge_counts,
            );
            assert_eq!(counted, Err(TruncationReason::Cancelled), "{par:?}");
        }
    }
}
