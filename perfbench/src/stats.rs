//! The harness's own statistics: nearest-rank percentiles, quartiles,
//! the "ten samples beyond" rule for tail percentiles, and seed
//! derivation.

use dcnr_core::sim::derive_indexed_seed;

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The smallest sample count whose percentile `p` has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(p25, p50, p75)` by nearest rank.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        percentile(&s, 25.0),
        percentile(&s, 50.0),
        percentile(&s, 75.0),
    )
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The scenario seed of study `index` of `workload` under the master
/// `--seed`. Each workload draws from its own tagged stream, so the same
/// master seed never hands two workloads the same scenario.
pub fn study_seed(master: u64, workload: &str, index: u64) -> u64 {
    derive_indexed_seed(master, &format!("perfbench.{workload}"), index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 8.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p75 of 40 is rank 30: exactly ten samples beyond it.
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(beyond(39, 75.0), 9);
        assert_eq!(min_samples_for(75.0), 40);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(99.0), 1000);
        for p in [50.0, 75.0, 90.0, 99.0] {
            let n = min_samples_for(p);
            assert!(beyond(n, p) >= MIN_BEYOND);
            assert!(beyond(n - 1, p) < MIN_BEYOND);
        }
    }

    #[test]
    fn quartiles_of_unsorted_input() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        assert_eq!(quartiles(&v), (3.0, 5.0, 7.0));
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(mean(&[2.0, 1.0, 6.0]), 3.0);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(study_seed(1, "intra", 0), study_seed(1, "intra", 0));
        let mut all = Vec::new();
        for w in ["intra", "routes", "serve"] {
            for master in [0u64, 1, 2] {
                for i in 0..50 {
                    all.push(study_seed(master, w, i));
                }
            }
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "derived seeds collide");
    }
}
