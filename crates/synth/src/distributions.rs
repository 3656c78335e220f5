//! Small sampling toolbox: Poisson, Gaussian and exponential variates,
//! and weighted index picks.
//!
//! The workspace's only sampling dependency is `rand` (uniform variates);
//! the classic distributions the generators need are derived here, which
//! keeps the dependency surface down and makes the exact sampling
//! algorithms part of the reproducible artifact.
//!
//! Weighted picks go through [`WeightedTable`], built once per
//! distribution: prefix sums searched in O(log n), accepted only when the
//! draw is farther from a boundary than the proven rounding bound of the
//! linear subtract-scan that defines the sampler, and that scan as the
//! fallback otherwise. The picks, and the RNG words they consume, are
//! those of the scan for every seed.

use rand::Rng;

/// Samples a Poisson variate with mean `lambda` using Knuth's
/// multiplication method.
///
/// The method is exact and O(λ) per sample — fine for the small means
/// (transaction and pattern lengths ≲ 50) used by the generators.
///
/// # Panics
/// Panics if `lambda` is not finite and positive.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "poisson mean must be positive and finite"
    );
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Samples an exponential variate with the given mean (inverse-CDF).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// A fixed discrete distribution over `0..n`, sampled by inverse CDF.
///
/// Built once from non-negative weights, it stores the weights, their
/// left-to-right prefix sums `S[i] = fl(S[i-1] + w[i])` and the total
/// `S[n-1]`. A draw takes one `rng.gen::<f64>()`, scales it to
/// `x = u·total` and returns the index the linear scan
/// `x -= w[0]; x -= w[1]; …`, stopping at the first `x <= 0`, returns:
/// the scan is the specification, and the table reproduces it bit for
/// bit in O(log n).
///
/// **Why a binary search gives the scan's answer.** In exact arithmetic
/// the scan returns the first `i` with `S[i] >= x`. In floating point,
/// with non-negative weights, both the scan's running value after step
/// `j` (the recursive sum of `x, -w[0], …, -w[j]`, absolute terms adding
/// up to at most `2·total`) and each stored prefix sum (absolute terms at
/// most `total`) are within `γ_n·Σ|terms|` of their exact values, where
/// `γ_n = n·u/(1 - n·u)` and `u = ε/2`. Together that is at most
/// `1.5·(n+1)·ε·total`. The table finds the candidate `i` (the first
/// stored `S[i] >= x`) by `partition_point` and accepts it only when `x`
/// is farther than `tol = 4·(n+1)·ε·total` from both `S[i]` and
/// `S[i-1]`. Outside that band the scan's running value is provably
/// positive after every step before `i` and non-positive after step
/// `i`, so it returns `i` too. Inside the band (`x` on or next to a
/// boundary, or past the last sum) the table runs the scan itself, its
/// only fallback. In the subnormal range additions are exact, so a `tol`
/// that underflows to zero still bounds the error.
///
/// For the 2,000 pattern weights of a standard Quest table (summing to
/// 1), `tol` is about 1.8·10⁻¹², so the fallback almost never runs.
#[derive(Debug, Clone)]
pub struct WeightedTable {
    weights: Vec<f64>,
    prefix: Vec<f64>,
    total: f64,
    tol: f64,
}

impl WeightedTable {
    /// Builds the table for `weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty, if a weight is negative or not
    /// finite, or if the total is not finite and positive.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let prefix: Vec<f64> = weights
            .iter()
            .scan(0.0, |sum, &w| {
                *sum += w;
                Some(*sum)
            })
            .collect();
        let total = prefix.last().copied().unwrap_or(0.0);
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        let tol = 4.0 * (weights.len() + 1) as f64 * f64::EPSILON * total;
        Self {
            weights,
            prefix,
            total,
            tol,
        }
    }

    /// The sum of the weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws an index proportionally to the weights, consuming exactly
    /// one `f64` from `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_at(rng.gen::<f64>() * self.total)
    }

    /// The index the linear scan returns for the point `x` (normally in
    /// `[0, total]`; a point past the end maps to the last index).
    pub fn index_at(&self, x: f64) -> usize {
        self.search(x).unwrap_or_else(|| self.scan(x))
    }

    /// The binary-search candidate for `x`, or `None` when `x` lies
    /// within `tol` of a boundary and only the scan can tell.
    fn search(&self, x: f64) -> Option<usize> {
        let i = self.prefix.partition_point(|&s| s < x);
        let above = *self.prefix.get(i)? - x > self.tol;
        let below = i == 0 || x - self.prefix[i - 1] > self.tol;
        (above && below).then_some(i)
    }

    /// The linear scan that defines the sampler.
    fn scan(&self, mut x: f64) -> usize {
        for (i, &w) in self.weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_and_variance_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let lambda = 10.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.15, "mean {mean}");
        assert!((var - lambda).abs() < 0.5, "var {var}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_nonpositive_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        poisson(&mut rng, 0.0);
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
        assert!((0..1000).all(|_| exponential(&mut rng, 1.0) >= 0.0));
    }

    #[test]
    fn weighted_table_respects_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let table = WeightedTable::new(vec![1.0, 3.0, 6.0]);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        let p1 = counts[1] as f64 / n as f64;
        let p2 = counts[2] as f64 / n as f64;
        assert!((p1 - 0.3).abs() < 0.02, "p1 {p1}");
        assert!((p2 - 0.6).abs() < 0.02, "p2 {p2}");
    }

    #[test]
    fn weighted_table_degenerate_single() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(WeightedTable::new(vec![42.0]).sample(&mut rng), 0);
    }

    /// An `RngCore` whose every word is `word`, so `gen::<f64>()` is
    /// `(word >> 11)·2⁻⁵³`.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn a_draw_on_a_prefix_sum_takes_the_scan() {
        // S = [0.1, 0.30000000000000004, 0.6000000000000001] and u = 0.5
        // put x exactly on S[1]. The binary search alone would say 1, but
        // the scan's running value after step 1 is x - 0.1 - 0.2 =
        // 5.6e-17 > 0, so the sampler's answer is 2.
        let table = WeightedTable::new(vec![0.1, 0.2, 0.3]);
        let x = 0.5 * table.total();
        assert_eq!(x, 0.1 + 0.2);
        assert_eq!(table.search(x), None, "x on a boundary must fall back");
        assert_eq!(table.sample(&mut Fixed(1 << 63)), 2);
        // Away from the boundaries the search answers on its own.
        assert_eq!(table.search(0.05), Some(0));
        assert_eq!(table.sample(&mut Fixed(1 << 62)), 1);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn weighted_table_rejects_all_zero_weights() {
        WeightedTable::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_table_rejects_negative_weights() {
        WeightedTable::new(vec![1.0, -0.5]);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(poisson(&mut a, 5.0), poisson(&mut b, 5.0));
        }
    }
}
