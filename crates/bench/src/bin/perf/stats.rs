//! Sample statistics, the open-loop arrival schedule and the process
//! memory probe shared by every workload.

use dm_core::obs::Snapshot;
use dm_core::synth::distributions::exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of the values recorded in histogram `name` of `snap` (span
/// durations or plain values); `0.0` when none were.
pub fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64)
}

/// Nearest-rank percentile `q` (in `(0, 100)`) of ascending `sorted`,
/// or `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it —
/// a tail read from fewer samples is one outlier, not a percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let index = rank.max(1) - 1;
    if index >= n || n - 1 - index < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[index])
}

/// Inter-arrival gaps of a Poisson process at `rate` events per second,
/// in nanoseconds, drawn from the benchmark's own seeded RNG.
pub struct PoissonSchedule {
    rng: StdRng,
    mean_gap_ns: f64,
}

impl PoissonSchedule {
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate,
        }
    }

    pub fn next_gap_ns(&mut self) -> u64 {
        exponential(&mut self.rng, self.mean_gap_ns) as u64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hands the heap's free pages back to the kernel (glibc `malloc_trim`).
/// Called after the repeated set-ups, which each free what the one
/// before built. Whether glibc returns that memory by itself depends on
/// where the last allocations landed, and that varies from process to
/// process: on one seed, serve-small's resident set after set-up ranged
/// from 11 to 18 MB without this call and from 10.1 to 10.3 MB with it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed() {
        let gaps = |seed| {
            let mut s = PoissonSchedule::new(10_000.0, seed);
            (0..1000).map(|_| s.next_gap_ns()).collect::<Vec<_>>()
        };
        assert_eq!(gaps(7), gaps(7));
        assert_ne!(gaps(7), gaps(8));
        let mean = gaps(7).iter().sum::<u64>() as f64 / 1000.0;
        assert!((80_000.0..120_000.0).contains(&mean), "mean gap {mean} ns");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 90.0), Some(90));
        assert_eq!(percentile(&sorted, 99.0), None);
        assert_eq!(percentile(&sorted[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
