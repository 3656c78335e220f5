//! # dm-par
//!
//! Dependency-free data parallelism for the workspace's hot kernels,
//! built entirely on [`std::thread::scope`] (re-exported by the facade
//! as `dm_core::par`).
//!
//! ## Execution model
//!
//! Work is expressed as *chunked map-reduce* over an index range: the
//! range `0..len` is cut into chunks, each chunk is mapped to a partial
//! accumulator, and the partials are merged **in chunk order** (a left
//! fold starting from `identity()`); a slice kernel maps `&items[r]`.
//! Threads claim contiguous blocks of chunks, so the only effect of the
//! thread count is *where* chunks execute — never which chunks exist or
//! the order their results merge in. One private driver runs every
//! map-reduce kernel, governed or not, and [`par_map_indexed`] too.
//!
//! ## Determinism guarantee
//!
//! Two complementary regimes, selected by [`Chunking`]:
//!
//! * [`Chunking::Fixed`] — chunk boundaries are a pure function of the
//!   input length (never of the thread count). Because the map is pure
//!   per chunk and the merge runs in chunk order on one thread, the
//!   result is **bit-identical for every [`Parallelism`] setting, for
//!   any merge function** — including non-associative floating-point
//!   accumulation. This is the regime the k-means kernels use.
//! * [`Chunking::PerThread`] — one chunk per effective thread (the
//!   classic *Count Distribution* partitioning from parallel Apriori).
//!   Chunk boundaries then depend on the thread count, so results are
//!   thread-count-invariant **iff the merge is exactly associative and
//!   insensitive to chunk boundaries** — true for the integer support
//!   counters of the frequent-itemset miners, where per-shard counts
//!   merge by integer summation. Cheaper than `Fixed` when the
//!   accumulator is large (one merge per thread instead of per chunk).
//!
//! Equivalence tests in `dm-core` (`seq_par_equivalence.rs`) assert that
//! `Threads(1)` to `Threads(4)` and `Auto` give exactly the `Sequential`
//! output for Apriori, AprioriHybrid, FP-Growth, Eclat, k-means, stream
//! k-means, decision trees and kNN; a property test in `dm-core` checks
//! the fold/merge algebra over random chunk sizes, and that a governed
//! pass is either voided or equal to the ungoverned one.
//!
//! ## Choosing a [`Parallelism`]
//!
//! * [`Parallelism::Sequential`] (the default everywhere) — no threads,
//!   no overhead; algorithms behave exactly as before this module
//!   existed.
//! * [`Parallelism::Threads`]`(n)` — exactly `n` worker threads;
//!   `Threads(1)` runs the same code path as `Sequential`.
//! * [`Parallelism::Auto`] — [`std::thread::available_parallelism`]
//!   threads; right for dedicated batch runs.
//!
//! Scoped threads borrow the inputs directly, so nothing is cloned or
//! `Arc`-wrapped; each call spawns and joins its threads (no pool),
//! which costs tens of microseconds — negligible for the database-scan
//! and assignment passes this layer targets, but worth skipping for
//! tiny inputs, which is why every kernel keeps a sequential guard for
//! small `n`.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use dm_guard::{Guard, RunStatus, TruncationReason};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::time::Instant;

/// How many worker threads a parallel kernel may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use [`std::thread::available_parallelism`].
    Auto,
    /// Use exactly this many threads (`0` is treated as `1`).
    Threads(usize),
    /// Single-threaded: run everything on the calling thread.
    #[default]
    Sequential,
}

impl Parallelism {
    /// The concrete worker count this setting resolves to (`>= 1`).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Sequential => 1,
        }
    }
}

/// How the input is cut into chunks (see the module docs for the
/// determinism trade-off between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunking {
    /// Chunks of exactly this size (last chunk may be short).
    /// Boundaries depend only on the input length, making results
    /// bit-identical across thread counts for *any* merge.
    Fixed(usize),
    /// One balanced chunk per effective thread (Count Distribution).
    /// Results are thread-count-invariant only for exactly associative
    /// merges (integer counters).
    PerThread,
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The chunk boundaries for `len` items: `(chunk_size, n_chunks)`.
fn layout(len: usize, chunking: Chunking, threads: usize) -> (usize, usize) {
    let chunk = match chunking {
        Chunking::Fixed(size) => size.max(1),
        Chunking::PerThread => len.div_ceil(threads.max(1)).max(1),
    };
    (chunk, len.div_ceil(chunk))
}

/// The driver behind every map-reduce kernel: cuts `0..len` per
/// `chunking`, maps each chunk's range, and left-folds the partials in
/// chunk order from `identity()`. One effective thread (or one chunk)
/// runs the same chunks on the calling thread with no result slots;
/// otherwise each worker fills a contiguous block of per-chunk slots.
///
/// With a guard, the pass and every chunk are preceded by a check site,
/// a threaded pass ends with one more, and `par.shard*` telemetry is
/// recorded when the guard carries a recorder. A trip latched by the end
/// of the pass voids it at every thread count. Without a guard nothing
/// is polled or recorded, so the result is always `Ok`.
fn drive<A: Send>(
    par: Parallelism,
    chunking: Chunking,
    len: usize,
    guard: Option<&Guard>,
    identity: impl Fn() -> A,
    map: impl Fn(Range<usize>) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> Result<A, TruncationReason> {
    let check = || guard.map_or(Ok(()), Guard::check);
    check()?;
    if len == 0 {
        return Ok(identity());
    }
    let threads = par.effective_threads();
    let (chunk, n_chunks) = layout(len, chunking, threads);
    let range = |ci: usize| ci * chunk..((ci + 1) * chunk).min(len);
    // Per-shard telemetry (`par.shard<w>.{busy_ns,items}`) is collected
    // only when the guard carries a recorder, so the ungoverned/noop
    // path never reads the clock.
    let obs = guard.map(Guard::obs);
    let recorded = obs.is_some_and(|o| o.enabled());
    if threads == 1 || n_chunks == 1 {
        let t0 = recorded.then(Instant::now);
        let _shard_span = obs.map(|o| o.span("par.shard0"));
        let mut acc = identity();
        for ci in 0..n_chunks {
            check()?;
            acc = merge(acc, map(range(ci)));
        }
        if let (Some(o), Some(t0)) = (obs, t0) {
            o.counter("par.shard0.items", len as u64);
            o.counter("par.shard0.busy_ns", elapsed_ns(t0));
            o.value("par.shard.items", len as u64);
        }
        // A map that stops early on a trip hands back a partial result;
        // the latched status voids it. Reading the status polls no fail
        // point, so the check sites stay the ones above.
        return match guard.map(Guard::status) {
            Some(RunStatus::Truncated(reason)) => Err(reason),
            _ => Ok(acc),
        };
    }
    // Shard spans cannot inherit the caller's span through the worker
    // threads' (empty) span stacks — hand the parent over explicitly.
    let parent = obs.map(|o| o.current_span());
    let mut slots: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();
    let per_worker = n_chunks.div_ceil(threads);
    std::thread::scope(|s| {
        for (w, block) in slots.chunks_mut(per_worker).enumerate() {
            let map = &map;
            s.spawn(move || {
                let t0 = recorded.then(Instant::now);
                let _shard_span = obs
                    .zip(parent)
                    .map(|(o, p)| o.span_child_fmt(format_args!("par.shard{w}"), p));
                let mut items_done = 0u64;
                for (j, slot) in block.iter_mut().enumerate() {
                    if guard.is_some_and(Guard::should_stop) {
                        break;
                    }
                    let r = range(w * per_worker + j);
                    items_done += r.len() as u64;
                    *slot = Some(map(r));
                }
                if let (Some(o), Some(t0)) = (obs, t0) {
                    o.counter_fmt(format_args!("par.shard{w}.items"), items_done);
                    o.counter_fmt(format_args!("par.shard{w}.busy_ns"), elapsed_ns(t0));
                    o.value("par.shard.items", items_done);
                }
            });
        }
    });
    // A final check catches trips that raced with the last chunks: if it
    // fails, some slots may be empty and the pass is void; if it
    // succeeds, no worker ever observed a trip and every slot is filled.
    check()?;
    debug_assert!(slots.iter().all(Option::is_some));
    Ok(slots.into_iter().flatten().fold(identity(), merge))
}

/// Chunked map-reduce over the index range `0..len`.
///
/// Cuts the range into sub-ranges per `chunking`, maps every sub-range
/// with `map`, and left-folds the partial results **in range order**
/// with `merge`, starting from `identity()`; a slice kernel maps
/// `&items[r]`. With `Parallelism::Sequential` (or one effective
/// thread, or a single chunk) everything runs on the calling thread
/// through the *same* chunk structure, which is what makes the parallel
/// and sequential results comparable bit-for-bit under
/// [`Chunking::Fixed`].
///
/// An empty range returns `identity()` without calling `map`.
pub fn par_range_map_reduce<A: Send>(
    par: Parallelism,
    chunking: Chunking,
    len: usize,
    identity: impl Fn() -> A,
    map: impl Fn(Range<usize>) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> A {
    match drive(par, chunking, len, None, identity, map, merge) {
        Ok(acc) => acc,
        Err(_) => unreachable!("a pass without a guard cannot trip"),
    }
}

/// Governed range map-reduce: [`par_range_map_reduce`] under a
/// [`Guard`].
///
/// The guard is polled before the pass and before every chunk (by every
/// worker), and once more after a threaded pass, so a cross-thread
/// cancel (or a deadline / armed fail point) stops all shards within one
/// chunk of work. If the guard is latched as tripped when the pass ends
/// — by a poll, by another thread, or by `map` itself (say, through
/// [`Guard::try_work`]) — the pass returns the trip reason at every
/// thread count; partial per-chunk results are never returned, so a
/// caller either gets the exact ungoverned result of the pass or a clean
/// trip it can translate into its own partial result. With an unlimited,
/// untripped guard the result is bit-identical to the ungoverned
/// function's (same chunk structure, same in-order merge).
pub fn par_range_map_reduce_governed<A: Send>(
    par: Parallelism,
    chunking: Chunking,
    len: usize,
    guard: &Guard,
    identity: impl Fn() -> A,
    map: impl Fn(Range<usize>) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> Result<A, TruncationReason> {
    drive(par, chunking, len, Some(guard), identity, map, merge)
}

/// Parallel index-preserving map: returns `f(0, &items[0]), f(1, ..) ..`
/// in input order.
///
/// Every element is mapped independently, one [`Chunking::PerThread`]
/// chunk per thread, so the result is identical for every
/// [`Parallelism`] setting by construction.
pub fn par_map_indexed<T: Sync, U: Send>(
    par: Parallelism,
    items: &[T],
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    par_range_map_reduce(
        par,
        Chunking::PerThread,
        items.len(),
        Vec::new,
        |r| r.map(|i| f(i, &items[i])).collect(),
        |mut a, mut b| {
            if a.is_empty() {
                return b;
            }
            a.append(&mut b);
            a
        },
    )
}

/// Parallel in-place transform over disjoint mutable chunks: `f`
/// receives each chunk and the index of its first element.
///
/// Chunk boundaries follow `chunking` exactly as in
/// [`par_range_map_reduce`]; since every element belongs to one chunk
/// and `f` only sees disjoint `&mut` slices, the result is identical
/// for every [`Parallelism`] setting whenever `f` writes each element
/// as a pure function of its pre-call state.
pub fn par_chunks_for_each_mut<T>(
    par: Parallelism,
    chunking: Chunking,
    items: &mut [T],
    f: impl Fn(usize, &mut [T]) + Sync,
) where
    T: Send,
{
    let len = items.len();
    if len == 0 {
        return;
    }
    let threads = par.effective_threads();
    let (chunk, n_chunks) = layout(len, chunking, threads);
    if threads == 1 || n_chunks == 1 {
        for (ci, c) in items.chunks_mut(chunk).enumerate() {
            f(ci * chunk, c);
        }
        return;
    }
    // Hand each worker a contiguous run of chunks.
    let per_worker = n_chunks.div_ceil(threads);
    let elems_per_worker = per_worker * chunk;
    std::thread::scope(|s| {
        for (w, block) in items.chunks_mut(elems_per_worker).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, c) in block.chunks_mut(chunk).enumerate() {
                    f(w * elems_per_worker + j * chunk, c);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> [Parallelism; 6] {
        [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ]
    }

    #[test]
    fn effective_threads_floors_at_one() {
        assert_eq!(Parallelism::Sequential.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(3).effective_threads(), 3);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn map_reduce_sums_match_sequential_fold() {
        let items: Vec<u64> = (0..9_973).map(|i| i * 7 + 1).collect();
        let expected: u64 = items.iter().sum();
        for par in settings() {
            for chunking in [Chunking::Fixed(1), Chunking::Fixed(97), Chunking::PerThread] {
                let got = par_range_map_reduce(
                    par,
                    chunking,
                    items.len(),
                    || 0u64,
                    |r| items[r].iter().sum::<u64>(),
                    |a, b| a + b,
                );
                assert_eq!(got, expected, "{par:?} {chunking:?}");
            }
        }
    }

    /// `Chunking::Fixed(61)` sum of an association-sensitive input:
    /// alternating magnitudes, so float rounding depends on grouping.
    fn float_sum(par: Parallelism, guard: Option<&Guard>) -> Result<f64, TruncationReason> {
        let items: Vec<f64> = (0..5_000)
            .map(|i| if i % 2 == 0 { 1e16 } else { 1.0 })
            .collect();
        let map = |r: Range<usize>| items[r].iter().sum::<f64>();
        let merge = |a: f64, b: f64| a + b;
        match guard {
            Some(g) => par_range_map_reduce_governed(
                par,
                Chunking::Fixed(61),
                items.len(),
                g,
                || 0.0,
                map,
                merge,
            ),
            None => Ok(par_range_map_reduce(
                par,
                Chunking::Fixed(61),
                items.len(),
                || 0.0,
                map,
                merge,
            )),
        }
    }

    #[test]
    fn fixed_chunking_is_bit_identical_even_for_floats() {
        let reference = float_sum(Parallelism::Sequential, None).unwrap();
        for par in settings() {
            let got = float_sum(par, None).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "{par:?}");
        }
    }

    #[test]
    fn merge_runs_in_chunk_order() {
        // Concatenation is associative but not commutative: order of
        // merges is observable.
        for par in settings() {
            for chunking in [Chunking::Fixed(37), Chunking::PerThread] {
                let got = par_range_map_reduce(
                    par,
                    chunking,
                    1_000,
                    Vec::new,
                    |r| r.collect::<Vec<usize>>(),
                    |mut a, mut b| {
                        a.append(&mut b);
                        a
                    },
                );
                assert_eq!(got, (0..1_000).collect::<Vec<_>>(), "{par:?}");
            }
        }
    }

    #[test]
    fn empty_input_returns_identity() {
        for par in settings() {
            let got = par_range_map_reduce(
                par,
                Chunking::PerThread,
                0,
                || 41u64,
                |_| panic!("map must not run on empty input"),
                |_, _| panic!("merge must not run on empty input"),
            );
            assert_eq!(got, 41);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let items: Vec<i64> = (0..997).map(|i| i * 3).collect();
        let expected: Vec<i64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x - i as i64)
            .collect();
        for par in settings() {
            let got = par_map_indexed(par, &items, |i, &x| x - i as i64);
            assert_eq!(got, expected, "{par:?}");
        }
    }

    #[test]
    fn for_each_mut_covers_every_element_once() {
        for par in settings() {
            for chunking in [Chunking::Fixed(13), Chunking::PerThread] {
                let mut items = vec![0u32; 1_001];
                par_chunks_for_each_mut(par, chunking, &mut items, |start, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x += (start + j) as u32 + 1;
                    }
                });
                let ok = items.iter().enumerate().all(|(i, &x)| x == i as u32 + 1);
                assert!(ok, "{par:?} {chunking:?}");
            }
        }
    }

    #[test]
    fn governed_unlimited_is_bit_identical_to_ungoverned() {
        let reference = float_sum(Parallelism::Sequential, None).unwrap();
        for par in settings() {
            let got = float_sum(par, Some(&Guard::unlimited())).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "{par:?}");
        }
    }

    #[test]
    fn governed_pass_aborts_on_pre_cancelled_guard() {
        for par in settings() {
            let guard = Guard::unlimited();
            guard.cancel_token().cancel();
            let got = par_range_map_reduce_governed(
                par,
                Chunking::Fixed(7),
                100,
                &guard,
                || 0usize,
                |r| r.sum(),
                |a, b| a + b,
            );
            assert_eq!(got, Err(TruncationReason::Cancelled), "{par:?}");
        }
    }

    #[test]
    fn governed_workers_observe_mid_run_cancel() {
        // Cancel from inside the map closure: later chunks must be
        // skipped without panicking, and the pass must report the trip.
        for par in settings() {
            let guard = Guard::unlimited();
            let token = guard.cancel_token();
            let got = par_range_map_reduce_governed(
                par,
                Chunking::Fixed(64),
                10_000,
                &guard,
                || 0usize,
                |r| {
                    if r.start >= 1_024 {
                        token.cancel();
                    }
                    r.sum()
                },
                |a, b| a + b,
            );
            assert_eq!(got, Err(TruncationReason::Cancelled), "{par:?}");
        }
    }

    #[test]
    fn threads_beyond_chunks_are_harmless() {
        let got = par_range_map_reduce(
            Parallelism::Threads(64),
            Chunking::Fixed(3),
            10,
            || 0usize,
            |r| r.sum(),
            |a, b| a + b,
        );
        assert_eq!(got, 45);
        let items: Vec<u64> = (0..10).collect();
        let mapped = par_map_indexed(Parallelism::Threads(64), &items, |_, &x| x * 2);
        assert_eq!(mapped, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }
}
