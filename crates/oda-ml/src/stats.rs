//! Descriptive statistics used across the analysis plugins.
//!
//! The persyst plugin transports *quantiles* of per-core metrics
//! (paper §VI-C reproduces the PerSyst design, which aggregates deciles
//! of CPI distributions); the regressor plugin builds feature vectors of
//! windowed statistics (§VI-B); the evaluation fits an empirical PDF to
//! power values (§VI-B, Fig. 6b). This module supplies those kernels.

/// Arithmetic mean; 0.0 for empty input (documented convention used by
/// aggregation operators on missing data).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for inputs shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum; NaN-free inputs assumed. 0.0 for empty input.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum; 0.0 for empty input.
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolation quantile (the "type 7" estimator NumPy uses) of
/// an **unsorted** slice; `q` in [0, 1]. 0.0 for empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile_sorted(&sorted, q)
}

/// Quantile of an already-sorted slice (no allocation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The 11 deciles (0th = min .. 10th = max) of an unsorted slice.
/// This is the exact statistic the persyst operator publishes per job.
pub fn deciles(xs: &[f64]) -> [f64; 11] {
    let mut out = [0.0; 11];
    if xs.is_empty() {
        return out;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = quantile_sorted(&sorted, i as f64 / 10.0);
    }
    out
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets;
/// out-of-range samples clamp into the edge buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Empirical probability of each bucket.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Z-score standardization: returns per-column (mean, std) and the
/// standardized copy of the data. Columns with zero spread get std 1.0
/// so they pass through centered.
pub fn standardize(data: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    if data.is_empty() {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    let d = data[0].len();
    let mut means = vec![0.0; d];
    let mut stds = vec![0.0; d];
    for j in 0..d {
        let col: Vec<f64> = data.iter().map(|row| row[j]).collect();
        means[j] = mean(&col);
        let s = std_dev(&col);
        stds[j] = if s > 1e-12 { s } else { 1.0 };
    }
    let scaled = data
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, &x)| (x - means[j]) / stds[j])
                .collect()
        })
        .collect();
    (means, stds, scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(min(&xs), 2.0);
        assert_eq!(max(&xs), 9.0);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(deciles(&[]), [0.0; 11]);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        // Unsorted input works.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert!((quantile(&shuffled, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 2.0);
    }

    #[test]
    fn deciles_of_uniform_ramp() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let d = deciles(&xs);
        for (i, &v) in d.iter().enumerate() {
            assert!((v - (i * 10) as f64).abs() < 1e-9, "decile {i} = {v}");
        }
    }

    #[test]
    fn deciles_are_monotonic() {
        let xs: Vec<f64> = (0..57).map(|i| ((i * 31) % 57) as f64).collect();
        let d = deciles(&xs);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(d[0], 0.0);
        assert_eq!(d[10], 56.0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.0, 3.0, 9.9, -5.0, 15.0] {
            h.add(x);
        }
        // -5 clamps low, 15 clamps high.
        let expect = [3.0, 1.0, 0.0, 0.0, 2.0].map(|c| c / 6.0);
        assert_eq!(h.probabilities(), expect);
    }

    #[test]
    fn standardize_zero_mean_unit_std() {
        let data = vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ];
        let (means, stds, scaled) = standardize(&data);
        assert!((means[0] - 2.5).abs() < 1e-12);
        assert!((means[1] - 250.0).abs() < 1e-12);
        for j in 0..2 {
            let col: Vec<f64> = scaled.iter().map(|r| r[j]).collect();
            assert!(mean(&col).abs() < 1e-12);
            assert!((std_dev(&col) - 1.0).abs() < 1e-12);
            assert!(stds[j] > 0.0);
        }
    }

    #[test]
    fn standardize_constant_column() {
        let data = vec![vec![7.0], vec![7.0], vec![7.0]];
        let (_, stds, scaled) = standardize(&data);
        assert_eq!(stds[0], 1.0);
        assert!(scaled.iter().all(|r| r[0].abs() < 1e-12));
    }
}
