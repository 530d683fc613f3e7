//! Ridge (L2-regularized) linear regression.
//!
//! The baseline the regressor ablation compares the random forest
//! against: the power-prediction literature the paper builds on (Ozer
//! et al., PMACS 2019) evaluates linear models alongside forests, and a
//! linear fit is the natural "simplest thing that could work" for
//! feature-vector → power regression. Solved in closed form via the
//! normal equations and the SPD Cholesky solver.

use crate::linalg::SquareMatrix;
use serde::{Deserialize, Serialize};

/// A fitted ridge regression model: `y ≈ wᵀx + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl RidgeRegression {
    /// Fits on row-major features and targets with regularization
    /// strength `lambda >= 0` (the intercept is not regularized).
    ///
    /// Panics on empty data or mismatched lengths, like the other
    /// `oda-ml` fitters; returns `None` only if the (regularized)
    /// normal matrix is numerically singular, which `lambda > 0`
    /// prevents.
    pub fn fit(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Option<RidgeRegression> {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let n = x.len();
        let d = x[0].len();

        // Center targets and features so the intercept falls out.
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let mut x_mean = vec![0.0; d];
        for row in x {
            for (m, &v) in x_mean.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
        x_mean.iter_mut().for_each(|m| *m /= n as f64);

        // Normal equations on centered data: (XᵀX + λI) w = Xᵀy.
        let mut xtx = SquareMatrix::zeros(d);
        let mut xty = vec![0.0; d];
        let mut centered = vec![0.0; d];
        for (row, &yi) in x.iter().zip(y.iter()) {
            for (c, (&v, &m)) in centered.iter_mut().zip(row.iter().zip(x_mean.iter())) {
                *c = v - m;
            }
            xtx.rank1_update(&centered, 1.0);
            let dy = yi - y_mean;
            for (t, &c) in xty.iter_mut().zip(centered.iter()) {
                *t += c * dy;
            }
        }
        for i in 0..d {
            xtx[(i, i)] += lambda.max(1e-12);
        }
        let weights = xtx.cholesky()?.solve(&xty);
        let intercept = y_mean
            - weights
                .iter()
                .zip(x_mean.iter())
                .map(|(w, m)| w * m)
                .sum::<f64>();
        Some(RidgeRegression { weights, intercept })
    }

    /// Predicts the target for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "wrong dimension");
        self.intercept
            + self
                .weights
                .iter()
                .zip(features.iter())
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest absolute prediction error over a labelled set.
    fn max_residual(model: &RidgeRegression, x: &[Vec<f64>], y: &[f64]) -> f64 {
        x.iter()
            .zip(y)
            .map(|(xi, yi)| (model.predict(xi) - yi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2x0 - 3x1 + 5.
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 5.0).collect();
        let model = RidgeRegression::fit(&x, &y, 1e-9).unwrap();
        let intercept = model.predict(&[0.0, 0.0]);
        assert!((model.predict(&[1.0, 0.0]) - intercept - 2.0).abs() < 1e-6);
        assert!((model.predict(&[0.0, 1.0]) - intercept + 3.0).abs() < 1e-6);
        assert!((intercept - 5.0).abs() < 1e-6);
        assert!(max_residual(&model, &x, &y) < 1e-5);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 4.0 * r[0]).collect();
        let loose = RidgeRegression::fit(&x, &y, 1e-9).unwrap();
        let tight = RidgeRegression::fit(&x, &y, 1e5).unwrap();
        let slope = |m: &RidgeRegression| m.predict(&[1.0]) - m.predict(&[0.0]);
        assert!(slope(&tight).abs() < slope(&loose).abs());
        assert!((slope(&loose) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn collinear_features_survive_with_lambda() {
        // x1 = 2*x0: XᵀX is singular; ridge must still solve.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64).collect();
        let model = RidgeRegression::fit(&x, &y, 1e-3).unwrap();
        // Prediction accuracy matters, not the (non-unique) weights.
        assert!(max_residual(&model, &x, &y) < 0.03);
    }

    #[test]
    fn constant_target_gives_intercept_only() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let model = RidgeRegression::fit(&x, &y, 1.0).unwrap();
        assert!(max_residual(&model, &x, &y) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn predict_checks_dimension() {
        let model = RidgeRegression::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0], 1.0).unwrap();
        model.predict(&[1.0, 2.0]);
    }
}
