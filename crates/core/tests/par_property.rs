//! Property tests for the `dm_par` fold/merge algebra: for an
//! associative, boundary-insensitive merge (wrapping sum of per-item
//! hashes), `par_range_map_reduce` must equal the plain sequential
//! fold for *any* chunk size, thread count, and input; and a governed
//! pass whose map trips the guard must be voided, never returned as a
//! partial result.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::guard::{Budget, Guard, RunStatus};
use dm_core::par::{par_range_map_reduce, par_range_map_reduce_governed, Chunking, Parallelism};
use proptest::prelude::*;

fn hash(x: u64) -> u64 {
    // SplitMix64 finalizer: a cheap, well-mixed per-item hash.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_sum(items: &[u64]) -> u64 {
    items.iter().fold(0u64, |acc, &x| acc.wrapping_add(hash(x)))
}

proptest! {
    #[test]
    fn chunked_hash_sum_equals_sequential_fold(
        items in proptest::collection::vec(0u64..u64::MAX, 0..400),
        chunk in 1usize..64,
        threads in 1usize..9,
    ) {
        let expected = hash_sum(&items);
        for chunking in [Chunking::Fixed(chunk), Chunking::PerThread] {
            let got = par_range_map_reduce(
                Parallelism::Threads(threads),
                chunking,
                items.len(),
                || 0u64,
                |r| hash_sum(&items[r]),
                |a, b| a.wrapping_add(b),
            );
            prop_assert_eq!(got, expected);
        }
    }

    /// The map charges one unit of work per item and stops at the first
    /// refused unit, handing back what it summed so far. Whatever the
    /// thread count, the pass is then either voided (`Err`) or exactly
    /// the ungoverned fold — never `Ok` with a part-summed result.
    #[test]
    fn governed_pass_is_voided_or_exact_at_every_thread_count(
        items in proptest::collection::vec(0u64..u64::MAX, 0..400),
        chunk in 0usize..48,
        threads in 0usize..5,
        max_work in 0u64..500,
    ) {
        let par = match threads {
            0 => Parallelism::Sequential,
            n => Parallelism::Threads(n),
        };
        let chunking = match chunk {
            0 => Chunking::PerThread,
            size => Chunking::Fixed(size),
        };
        let guard = Guard::new(Budget::unlimited().with_max_work(max_work));
        let got = par_range_map_reduce_governed(
            par,
            chunking,
            items.len(),
            &guard,
            || 0u64,
            |r| {
                let mut acc = 0u64;
                for &x in &items[r] {
                    if guard.try_work(1).is_err() {
                        break;
                    }
                    acc = acc.wrapping_add(hash(x));
                }
                acc
            },
            |a, b| a.wrapping_add(b),
        );
        match got {
            Ok(sum) => {
                prop_assert_eq!(sum, hash_sum(&items));
                prop_assert_eq!(guard.status(), RunStatus::Complete);
            }
            Err(reason) => {
                prop_assert_eq!(guard.status(), RunStatus::Truncated(reason));
            }
        }
        // Enough budget for every item: nothing trips.
        if items.len() as u64 <= max_work {
            prop_assert!(got.is_ok());
        }
    }
}
