//! Gaussian mixture building blocks: one weighted multivariate
//! component and the stable log-sum-exp the variational Bayesian model
//! of [`crate::bgmm`] is built from. (The fixed-`k` EM fit that used to
//! live here was the ablation baseline of a bench deleted in PR 12.)

use crate::linalg::{Cholesky, SquareMatrix};

/// One multivariate gaussian component with its mixture weight.
#[derive(Debug, Clone)]
pub struct GaussianComponent {
    /// Mixture weight π_k (sums to 1 across components).
    pub weight: f64,
    /// Mean vector.
    pub mean: Vec<f64>,
    /// Full covariance matrix.
    pub cov: SquareMatrix,
}

impl GaussianComponent {
    /// Log density of the component's gaussian at `x` (without the
    /// mixture weight).
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        let d = self.mean.len() as f64;
        let chol = match self.cov.cholesky() {
            Some(c) => c,
            None => return f64::NEG_INFINITY,
        };
        log_pdf_with(&chol, &self.mean, x, d)
    }

    /// Density (not log) at `x`.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }
}

fn log_pdf_with(chol: &Cholesky, mean: &[f64], x: &[f64], d: f64) -> f64 {
    let diff: Vec<f64> = x.iter().zip(mean.iter()).map(|(a, b)| a - b).collect();
    let maha = chol.inv_quadratic_form(&diff);
    -0.5 * (d * (2.0 * std::f64::consts::PI).ln() + chol.logdet() + maha)
}

/// Numerically stable log(Σ exp(x_i)).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-12);
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn component_pdf_matches_univariate() {
        let c = GaussianComponent {
            weight: 1.0,
            mean: vec![2.0],
            cov: SquareMatrix::diag(&[4.0]), // std = 2
        };
        // N(3; μ = 2, σ = 2) = exp(-1/8) / (2 √(2π)).
        let expect = (-0.125f64).exp() / (2.0 * (2.0 * std::f64::consts::PI).sqrt());
        assert!((c.pdf(&[3.0]) - expect).abs() < 1e-12);
    }
}
