//! Lloyd's k-means with pluggable initialization.

// Numeric kernels below co-index several parallel arrays; indexed loops
// are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]
use crate::{Clusterer, Clustering};
use dm_dataset::matrix::euclidean_sq;
use dm_dataset::{DataError, Matrix};
use dm_guard::{Guard, Outcome};
use dm_par::{par_chunks_for_each_mut, par_range_map_reduce, Chunking, Parallelism};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Rows per parallel chunk. Fixed (thread-count-independent) boundaries
/// keep every floating-point reduction bit-identical across
/// [`Parallelism`] settings; see `dm_par`'s module docs.
const ROW_CHUNK: usize = 1024;

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Forgy: k distinct random data points become the initial centroids.
    Random,
    /// k-means++ (Arthur & Vassilvitskii 2007): points are chosen with
    /// probability proportional to their squared distance from the
    /// nearest centroid chosen so far.
    KMeansPlusPlus,
}

/// Lloyd's algorithm: alternate nearest-centroid assignment and centroid
/// recomputation until assignments stabilize (or `max_iter`).
///
/// Empty clusters are re-seeded with the point farthest from its
/// centroid, so the model always has exactly `k` non-empty clusters when
/// `n >= k`.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    init: Init,
    seed: u64,
    parallelism: Parallelism,
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Final centroids, one row per cluster.
    pub centroids: Matrix,
    /// Per-point cluster assignments.
    pub assignments: Vec<u32>,
    /// Within-cluster sum of squared distances at convergence.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether assignments stabilized before `max_iter`.
    pub converged: bool,
}

impl KMeansModel {
    /// Rebuilds a predict-only model from saved centroids (artifact
    /// reload). Training-run fields are zeroed: no assignments, zero
    /// inertia/iterations, `converged` true.
    pub fn from_centroids(centroids: Matrix) -> Result<Self, DataError> {
        if centroids.rows() == 0 {
            return Err(DataError::Empty("centroids"));
        }
        Ok(Self {
            centroids,
            assignments: Vec::new(),
            inertia: 0.0,
            iterations: 0,
            converged: true,
        })
    }

    /// Squared Euclidean distance from each row of `data` to its nearest
    /// centroid — the anomaly/affinity score `dm-serve` exposes.
    pub fn score(&self, data: &Matrix) -> Result<Vec<f64>, DataError> {
        if data.cols() != self.centroids.cols() {
            return Err(DataError::InvalidParameter(format!(
                "model fitted on {} dims, got {}",
                self.centroids.cols(),
                data.cols()
            )));
        }
        Ok((0..data.rows())
            .map(|i| nearest(self.centroids.iter_rows(), data.row(i)).1)
            .collect())
    }

    /// Assigns new points to the nearest learned centroid.
    pub fn predict(&self, data: &Matrix) -> Result<Vec<u32>, DataError> {
        if data.cols() != self.centroids.cols() {
            return Err(DataError::InvalidParameter(format!(
                "model fitted on {} dims, got {}",
                self.centroids.cols(),
                data.cols()
            )));
        }
        Ok((0..data.rows())
            .map(|i| nearest(self.centroids.iter_rows(), data.row(i)).0 as u32)
            .collect())
    }
}

/// Index and squared distance of the nearest centroid. Strictly-less
/// comparison keeps the first centroid on a tie, and each distance sums
/// its coordinates left to right, so every caller (the assignment pass,
/// [`KMeansModel::score`], the serving fallbacks) agrees bit for bit.
pub fn nearest<'a>(centroids: impl Iterator<Item = &'a [f64]>, point: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.enumerate() {
        let d = euclidean_sq(c, point);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

impl KMeans {
    /// Creates a k-means clusterer with k-means++ init, 100 iterations.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iter: 100,
            init: Init::KMeansPlusPlus,
            seed: 0,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how the assignment and seeding passes are spread across
    /// threads. Chunk boundaries are fixed (never thread-dependent), so
    /// assignments, centroids, and inertia are bit-identical for every
    /// [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the initialization strategy.
    pub fn with_init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Sets the RNG seed used for initialization.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn init_centroids(&self, data: &Matrix, rng: &mut StdRng) -> Matrix {
        let n = data.rows();
        let d = data.cols();
        let mut centroids = Matrix::zeros(self.k, d);
        match self.init {
            Init::Random => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                for (c, &i) in idx.iter().take(self.k).enumerate() {
                    centroids.row_mut(c).copy_from_slice(data.row(i));
                }
            }
            Init::KMeansPlusPlus => {
                let par = self.parallelism;
                let first = rng.gen_range(0..n);
                centroids.row_mut(0).copy_from_slice(data.row(first));
                // dist2[i] = squared distance to the nearest chosen centroid.
                let mut dist2: Vec<f64> = vec![0.0; n];
                par_chunks_for_each_mut(
                    par,
                    Chunking::Fixed(ROW_CHUNK),
                    &mut dist2,
                    |start, chunk| {
                        for (j, d) in chunk.iter_mut().enumerate() {
                            *d = euclidean_sq(data.row(start + j), data.row(first));
                        }
                    },
                );
                for c in 1..self.k {
                    // Fixed chunks: the chunked sum is the same f64 for
                    // every Parallelism setting.
                    let total: f64 = par_range_map_reduce(
                        par,
                        Chunking::Fixed(ROW_CHUNK),
                        n,
                        || 0.0f64,
                        |r| dist2[r].iter().sum::<f64>(),
                        |a, b| a + b,
                    );
                    let chosen = if total <= 0.0 {
                        // All points coincide with chosen centroids.
                        rng.gen_range(0..n)
                    } else {
                        let mut x = rng.gen::<f64>() * total;
                        let mut pick = n - 1;
                        for (i, &d) in dist2.iter().enumerate() {
                            x -= d;
                            if x <= 0.0 {
                                pick = i;
                                break;
                            }
                        }
                        pick
                    };
                    centroids.row_mut(c).copy_from_slice(data.row(chosen));
                    par_chunks_for_each_mut(
                        par,
                        Chunking::Fixed(ROW_CHUNK),
                        &mut dist2,
                        |start, chunk| {
                            for (j, slot) in chunk.iter_mut().enumerate() {
                                let d = euclidean_sq(data.row(start + j), data.row(chosen));
                                if d < *slot {
                                    *slot = d;
                                }
                            }
                        },
                    );
                }
            }
        }
        centroids
    }

    /// Runs Lloyd's algorithm, returning the full model.
    pub fn fit_model(&self, data: &Matrix) -> Result<KMeansModel, DataError> {
        Ok(self.fit_model_governed(data, &Guard::unlimited())?.result)
    }

    /// Runs Lloyd's algorithm under a resource [`Guard`].
    ///
    /// The guard is consulted once per Lloyd iteration (charging `n`
    /// work units and one guard iteration per pass). On a trip the loop
    /// stops where it is; the final labeling and inertia passes still
    /// run so the returned model always satisfies the nearest-centroid
    /// invariant for its centroids.
    pub fn fit_model_governed(
        &self,
        data: &Matrix,
        guard: &Guard,
    ) -> Result<Outcome<KMeansModel>, DataError> {
        let n = data.rows();
        let d = data.cols();
        if self.k == 0 {
            return Err(DataError::InvalidParameter("k must be >= 1".into()));
        }
        if n < self.k {
            return Err(DataError::InvalidParameter(format!(
                "cannot form {} clusters from {n} points",
                self.k
            )));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = self.init_centroids(data, &mut rng);
        let mut assignments = vec![u32::MAX; n];
        let mut iterations = 0usize;
        let mut converged = false;

        // One fused pass per iteration: each shard assigns its rows to
        // the nearest centroid and accumulates partial centroid sums and
        // counts; shards merge in fixed chunk order, so assignments,
        // sums, and counts are bit-identical for every Parallelism
        // setting.
        struct AssignPass {
            assign: Vec<u32>,
            /// Points whose assignment differs from the previous pass
            /// (0 ⇒ converged; also the `cluster.kmeans.iter.churn` metric).
            churn: usize,
            /// Sum of squared distances to the assigning centroid (the
            /// `cluster.kmeans.iter.inertia` metric; telemetry only —
            /// never read back by the algorithm).
            inertia: f64,
            sums: Vec<f64>, // k x d, row-major
            counts: Vec<usize>,
        }
        let k = self.k;
        let obs = guard.obs();
        while iterations < self.max_iter {
            if guard.next_iteration().is_err() || guard.try_work(n as u64).is_err() {
                break;
            }
            iterations += 1;
            // One span *name* across iterations: the histogram then holds
            // the per-iteration duration distribution (p50/p99), while
            // the tree keeps each iteration as its own node.
            let _iter_span = obs.span("cluster.kmeans.iter");
            let old = &assignments;
            let centroids_ref = &centroids;
            let pass = par_range_map_reduce(
                self.parallelism,
                Chunking::Fixed(ROW_CHUNK),
                n,
                || AssignPass {
                    assign: Vec::new(),
                    churn: 0,
                    inertia: 0.0,
                    sums: vec![0.0; k * d],
                    counts: vec![0usize; k],
                },
                |range| {
                    let mut shard = AssignPass {
                        assign: Vec::with_capacity(range.len()),
                        churn: 0,
                        inertia: 0.0,
                        sums: vec![0.0; k * d],
                        counts: vec![0usize; k],
                    };
                    for i in range {
                        let (c, dist) = nearest(centroids_ref.iter_rows(), data.row(i));
                        shard.churn += usize::from(old[i] != c as u32);
                        shard.inertia += dist;
                        shard.assign.push(c as u32);
                        shard.counts[c] += 1;
                        for (s, &x) in shard.sums[c * d..(c + 1) * d].iter_mut().zip(data.row(i)) {
                            *s += x;
                        }
                    }
                    shard
                },
                |mut a, mut b| {
                    a.assign.append(&mut b.assign);
                    a.churn += b.churn;
                    a.inertia += b.inertia;
                    for (s, x) in a.sums.iter_mut().zip(b.sums) {
                        *s += x;
                    }
                    for (s, x) in a.counts.iter_mut().zip(b.counts) {
                        *s += x;
                    }
                    a
                },
            );
            if obs.enabled() {
                // Inertia is measured against the centroids that did the
                // assigning (the standard per-iteration Lloyd objective);
                // churn accumulates total reassignments across the run.
                obs.gauge("cluster.kmeans.iter.inertia", pass.inertia);
                obs.counter("cluster.kmeans.iter.churn", pass.churn as u64);
            }
            if pass.churn == 0 {
                converged = true;
                iterations -= 1; // final pass did no work
                break;
            }
            assignments = pass.assign;
            let mut sums = pass.sums;
            let counts = pass.counts;
            for c in 0..self.k {
                if counts[c] > 0 {
                    let row = &mut sums[c * d..(c + 1) * d];
                    for s in row.iter_mut() {
                        *s /= counts[c] as f64;
                    }
                    centroids.row_mut(c).copy_from_slice(row);
                } else {
                    // Re-seed an empty cluster with the point farthest
                    // from its current centroid.
                    let far = (0..n)
                        .max_by(|&a, &b| {
                            let da =
                                euclidean_sq(data.row(a), centroids.row(assignments[a] as usize));
                            let db =
                                euclidean_sq(data.row(b), centroids.row(assignments[b] as usize));
                            da.total_cmp(&db)
                        })
                        .unwrap_or(0);
                    centroids.row_mut(c).copy_from_slice(data.row(far));
                }
            }
        }

        if !converged {
            // The loop ended on max_iter right after a centroid update:
            // refresh assignments so the nearest-centroid invariant holds
            // for the returned model.
            let centroids_ref = &centroids;
            par_chunks_for_each_mut(
                self.parallelism,
                Chunking::Fixed(ROW_CHUNK),
                &mut assignments,
                |start, chunk| {
                    for (j, a) in chunk.iter_mut().enumerate() {
                        *a = nearest(centroids_ref.iter_rows(), data.row(start + j)).0 as u32;
                    }
                },
            );
        }
        let assignments_ref = &assignments;
        let centroids_ref = &centroids;
        let inertia = par_range_map_reduce(
            self.parallelism,
            Chunking::Fixed(ROW_CHUNK),
            n,
            || 0.0f64,
            |range| {
                range
                    .map(|i| {
                        euclidean_sq(data.row(i), centroids_ref.row(assignments_ref[i] as usize))
                    })
                    .sum::<f64>()
            },
            |a, b| a + b,
        );
        if obs.enabled() {
            obs.counter("cluster.kmeans.iterations", iterations as u64);
            obs.gauge("cluster.kmeans.inertia", inertia);
        }
        Ok(guard.outcome(KMeansModel {
            centroids,
            assignments,
            inertia,
            iterations,
            converged,
        }))
    }
}

impl Clusterer for KMeans {
    fn name(&self) -> &'static str {
        match self.init {
            Init::Random => "kmeans-random",
            Init::KMeansPlusPlus => "kmeans++",
        }
    }

    fn fit_governed(&self, data: &Matrix, guard: &Guard) -> Result<Outcome<Clustering>, DataError> {
        let out = self.fit_model_governed(data, guard)?;
        Ok(out.map(|model| Clustering {
            assignments: model.assignments,
            n_clusters: self.k,
            centroids: Some(model.centroids),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_synth::GaussianMixture;

    fn two_blobs() -> (Matrix, Vec<u32>) {
        GaussianMixture::new(vec![
            dm_synth::ClusterSpec::new(vec![0.0, 0.0], 0.4, 60),
            dm_synth::ClusterSpec::new(vec![10.0, 10.0], 0.4, 60),
        ])
        .unwrap()
        .generate(5)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = two_blobs();
        let model = KMeans::new(2).with_seed(1).fit_model(&data).unwrap();
        assert!(model.converged);
        let ari = dm_eval::adjusted_rand_index(&truth, &model.assignments).unwrap();
        assert!(ari > 0.99, "ari {ari}");
        assert!(model.inertia < 100.0, "inertia {}", model.inertia);
    }

    #[test]
    fn every_point_assigned_to_nearest_centroid() {
        let (data, _) = two_blobs();
        let model = KMeans::new(3).with_seed(2).fit_model(&data).unwrap();
        for i in 0..data.rows() {
            let assigned = model.assignments[i] as usize;
            let da = euclidean_sq(data.row(i), model.centroids.row(assigned));
            for c in 0..3 {
                let dc = euclidean_sq(data.row(i), model.centroids.row(c));
                assert!(da <= dc + 1e-9, "point {i}: {da} > {dc}");
            }
        }
    }

    #[test]
    fn plus_plus_not_worse_than_random_on_average() {
        let (data, _) = two_blobs();
        let mut pp_total = 0.0;
        let mut rnd_total = 0.0;
        for seed in 0..10 {
            pp_total += KMeans::new(4)
                .with_init(Init::KMeansPlusPlus)
                .with_seed(seed)
                .fit_model(&data)
                .unwrap()
                .inertia;
            rnd_total += KMeans::new(4)
                .with_init(Init::Random)
                .with_seed(seed)
                .fit_model(&data)
                .unwrap()
                .inertia;
        }
        assert!(
            pp_total <= rnd_total * 1.2,
            "kmeans++ {pp_total} vs random {rnd_total}"
        );
    }

    #[test]
    fn predict_matches_training_assignments() {
        let (data, _) = two_blobs();
        let model = KMeans::new(2).with_seed(3).fit_model(&data).unwrap();
        let again = model.predict(&data).unwrap();
        assert_eq!(again, model.assignments);
        let narrow = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(model.predict(&narrow).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, _) = two_blobs();
        let a = KMeans::new(2).with_seed(7).fit_model(&data).unwrap();
        let b = KMeans::new(2).with_seed(7).fit_model(&data).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]).unwrap();
        let model = KMeans::new(3).with_seed(1).fit_model(&data).unwrap();
        assert!(model.inertia < 1e-18);
    }

    #[test]
    fn invalid_params_rejected() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KMeans::new(0).fit_model(&data).is_err());
        assert!(KMeans::new(3).fit_model(&data).is_err());
    }

    #[test]
    fn duplicate_points_handled() {
        // All identical points: k-means++ falls back to uniform choice.
        let data = Matrix::from_rows(&vec![vec![2.0, 2.0]; 8]).unwrap();
        let model = KMeans::new(3).with_seed(0).fit_model(&data).unwrap();
        assert_eq!(model.assignments.len(), 8);
        assert!(model.inertia < 1e-18);
    }

    #[test]
    fn clusterer_trait_reports_centroids() {
        let (data, _) = two_blobs();
        let c = KMeans::new(2).with_seed(1).fit(&data).unwrap();
        assert_eq!(c.n_clusters, 2);
        assert!(c.centroids.is_some());
        assert_eq!(c.cluster_sizes().iter().sum::<usize>(), data.rows());
    }
}
