//! Log-bucketed histograms: the aggregation behind every span-duration
//! and value distribution in the recorder.
//!
//! Buckets are powers of two — bucket `0` holds the value `0`, bucket
//! `i >= 1` holds values in `[2^(i-1), 2^i)` — so recording is two
//! instructions (`leading_zeros` + increment), merging is elementwise
//! addition (exactly associative and commutative), and the exact
//! `count`/`sum` ride alongside so nothing the old `(count, total_ns)`
//! aggregate offered is lost. Quantiles are recovered from the bucket
//! counts to within one power of two, which is what the p50/p99 span
//! tables need.

use crate::json::{FieldError, FromJson, Json, Layout, ToJson, Writer};
use std::fmt;

/// Number of buckets: one for zero plus one per power of two of `u64`.
pub const N_BUCKETS: usize = 65;

/// A histogram exemplar: the most recent *traced* observation that
/// landed in a bucket. Recorders keep one per (histogram, bucket) —
/// last write wins — so an operator can jump from "the p99 bucket grew"
/// straight to a concrete request trace. Exported in OpenMetrics
/// exemplar syntax by [`crate::export::prometheus`] and serialized in
/// snapshot schema 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Raw id of the trace whose observation landed here (the `u64`
    /// behind [`crate::trace::TraceId`]).
    pub trace_id: u64,
    /// The exact observed value (the bucket only bounds it).
    pub value: u64,
}

/// A mergeable power-of-two histogram with exact count and sum.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values (saturating).
    pub sum: u64,
    /// `buckets[0]` counts zeros; `buckets[i]` counts values in
    /// `[2^(i-1), 2^i)`.
    pub buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
#[inline]
pub fn bucket_max(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Merges another histogram in (elementwise; exactly associative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The histogram of values recorded since `earlier` was snapshot,
    /// assuming `self` is a later cumulative snapshot of the same
    /// series — elementwise saturating subtraction, the inverse of
    /// [`Histogram::merge`]. Saturation (rather than panic) keeps a
    /// window query safe if the recorder was swapped out underneath
    /// the caller; in that case the delta degrades to the newer
    /// snapshot's own contents.
    pub fn saturating_delta(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the inclusive upper bound
    /// of the bucket holding the rank-⌈q·count⌉ value — an upper
    /// estimate within a factor of two of the true order statistic.
    /// `None` when empty; `q` outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target order statistic, 1-based; q=0 maps to the
        // minimum (rank 1).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_max(i));
            }
        }
        Some(u64::MAX)
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs in index order
    /// (the sparse form the snapshot serializes).
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// Reads the form [`ToJson`] writes, with every bucket index in range
/// and bucket counts that sum to `count` without overflow — what
/// [`Histogram::quantile`]'s running sum relies on.
impl FromJson<'_> for Histogram {
    fn from_json(v: &Json) -> Result<Self, FieldError> {
        let mut h = Histogram {
            count: v.req("count")?,
            sum: v.req("sum")?,
            ..Histogram::default()
        };
        let buckets: Vec<Vec<u64>> = v.req("buckets")?;
        for (i, pair) in buckets.iter().enumerate() {
            match pair[..] {
                [b, c] if b < N_BUCKETS as u64 => h.buckets[b as usize] = c,
                _ => {
                    return Err(FieldError::not("an [index < 65, count] pair")
                        .within(format_args!("buckets[{i}]")))
                }
            }
        }
        let total = h
            .buckets
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c));
        if total != Some(h.count) {
            return Err(FieldError::not("a bucket list summing to `count`").within("buckets"));
        }
        Ok(h)
    }
}

/// `{"count": c, "sum": s, "buckets": [[index, count], ...]}` with
/// only non-empty buckets: the one form the snapshot and the ledger
/// record share.
impl ToJson for Histogram {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Layout::Inline, |w| {
            w.key("count").u64(self.count).key("sum").u64(self.sum);
            w.key("buckets").arr(Layout::Inline, |w| {
                for (bucket, count) in self.nonzero_buckets() {
                    w.arr(Layout::Inline, |w| {
                        w.u64(bucket as u64).u64(count);
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i, "2^{} lower edge", i - 1);
            assert_eq!(bucket_index(lo + lo / 2), i, "mid-bucket");
            let hi = bucket_max(i);
            assert_eq!(bucket_index(hi), i, "upper edge");
            if i < 64 {
                assert_eq!(bucket_index(hi + 1), i + 1, "next bucket");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn count_and_sum_are_exact() {
        let mut h = Histogram::new();
        let values = [0u64, 1, 2, 3, 1000, 65_535, 65_536, u64::MAX / 2];
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count, values.len() as u64);
        assert_eq!(h.sum, values.iter().sum::<u64>());
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        // True median 500; bucket upper bound within [500, 1023].
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((990..=1023).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(0.0), Some(bucket_max(bucket_index(1))));
        assert_eq!(h.quantile(1.0), Some(bucket_max(bucket_index(1000))));
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 17);
            all.record(v * 17);
        }
        for v in 0..37u64 {
            b.record(v * v);
            all.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn saturating_delta_inverts_merge() {
        let mut early = Histogram::new();
        for v in 0..50u64 {
            early.record(v * 13);
        }
        let mut late = early.clone();
        let mut window = Histogram::new();
        for v in 0..31u64 {
            late.record(v * v + 7);
            window.record(v * v + 7);
        }
        assert_eq!(late.saturating_delta(&early), window);
        // Degenerate direction (older minus newer) saturates to empty.
        assert!(early.saturating_delta(&late).is_empty());
    }

    #[test]
    fn from_json_requires_buckets_to_sum_to_count() {
        let read = |doc: &str| Histogram::from_json(&crate::json::parse(doc).unwrap());
        let mut h = Histogram::new();
        h.record(3);
        h.record(0);
        let mut w = Writer::new();
        h.write_json(&mut w);
        assert_eq!(read(&w.finish()), Ok(h));
        assert!(read(r#"{"count": 2, "sum": 0, "buckets": [[0, 1]]}"#).is_err());
        assert!(read(r#"{"count": 0, "sum": 0, "buckets": [[0, 1]]}"#).is_err());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert!(h.nonzero_buckets().is_empty());
    }
}
