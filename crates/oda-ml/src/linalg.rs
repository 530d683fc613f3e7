//! Dense small-matrix linear algebra for the mixture models.
//!
//! The clustering plugin works in low-dimensional feature spaces (the
//! paper's case study uses 3 dimensions: power, temperature, CPU idle
//! time), so a simple row-major dense matrix with Cholesky-based
//! routines for symmetric positive-definite (SPD) systems is all the
//! Bayesian GMM needs: solves, log-determinants and inverse quadratic
//! forms.

use std::fmt;

/// A dense, row-major `n × n` square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    a: Vec<f64>,
}

impl SquareMatrix {
    /// Zero matrix of size `n`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        SquareMatrix {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Diagonal matrix from entries.
    pub fn diag(entries: &[f64]) -> Self {
        let mut m = Self::zeros(entries.len());
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Adds `alpha * x xᵀ` (symmetric rank-1 update).
    pub fn rank1_update(&mut self, x: &[f64], alpha: f64) {
        assert_eq!(x.len(), self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                self[(i, j)] += alpha * x[i] * x[j];
            }
        }
    }

    /// Adds another matrix scaled by `alpha`.
    pub fn add_scaled(&mut self, other: &SquareMatrix, alpha: f64) {
        assert_eq!(self.n, other.n);
        for (s, o) in self.a.iter_mut().zip(other.a.iter()) {
            *s += alpha * o;
        }
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.a {
            *v *= alpha;
        }
    }

    /// Cholesky factorization `A = L Lᵀ` for SPD matrices; `None` when
    /// the matrix is not positive definite.
    pub fn cholesky(&self) -> Option<Cholesky> {
        let n = self.n;
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(Cholesky { n, l })
    }
}

impl std::ops::Index<(usize, usize)> for SquareMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.a[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for SquareMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.a[i * self.n + j]
    }
}

impl fmt::Display for SquareMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Lower-triangular Cholesky factor of an SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Solves `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, yk) in y.iter().enumerate().take(i) {
                sum -= self.l[i * n + k] * yk;
            }
            y[i] = sum / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[k * n + i] * xk;
            }
            x[i] = sum / self.l[i * n + i];
        }
        x
    }

    /// `ln |A| = 2 Σ ln L_ii`.
    pub fn logdet(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }

    /// Squared Mahalanobis-style form `xᵀ A⁻¹ x` computed via one solve.
    pub fn inv_quadratic_form(&self, x: &[f64]) -> f64 {
        let z = self.solve(x);
        z.iter().zip(x.iter()).map(|(a, b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds from rows; panics if not square.
    fn from_rows(rows: &[Vec<f64>]) -> SquareMatrix {
        let n = rows.len();
        let mut m = SquareMatrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            m.a[i * n..(i + 1) * n].copy_from_slice(row);
        }
        m
    }

    /// Matrix-vector product `A x`.
    fn mat_vec(m: &SquareMatrix, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), m.n);
        (0..m.n)
            .map(|i| (0..m.n).map(|j| m[(i, j)] * x[j]).sum())
            .collect()
    }

    fn spd3() -> SquareMatrix {
        // A = B Bᵀ + I for B with distinct entries: guaranteed SPD.
        from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn identity_and_diag() {
        let i3 = SquareMatrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let d = SquareMatrix::diag(&[2.0, 3.0]);
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let chol = a.cholesky().unwrap();
        // Verify L Lᵀ = A.
        let n = 3;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += chol.l[i * n + k] * chol.l[j * n + k];
                }
                assert!((sum - a[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let b = vec![1.0, 2.0, 3.0];
        let x = a.cholesky().unwrap().solve(&b);
        let back = mat_vec(&a, &x);
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn logdet_matches_2x2_formula() {
        let a = from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let det: f64 = 3.0 * 2.0 - 1.0;
        assert!((a.cholesky().unwrap().logdet() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_spd_is_rejected() {
        let m = from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        assert!(m.cholesky().is_none());
        let z = SquareMatrix::zeros(2);
        assert!(z.cholesky().is_none());
    }

    #[test]
    fn rank1_and_scaling() {
        let mut m = SquareMatrix::zeros(2);
        m.rank1_update(&[1.0, 2.0], 2.0);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 1)], 4.0);
        assert_eq!(m[(1, 1)], 8.0);
        m.scale(0.5);
        assert_eq!(m[(1, 1)], 4.0);
        let mut i2 = SquareMatrix::identity(2);
        i2.add_scaled(&m, 1.0);
        assert_eq!(i2[(0, 0)], 2.0);
    }

    #[test]
    fn inv_quadratic_form_matches_explicit() {
        // A = [[3, 1], [1, 2]] has A⁻¹ = [[2, -1], [-1, 3]] / 5, so for x = (1, 2):
        // xᵀ A⁻¹ x = (2 - 2·2 + 3·4) / 5 = 2.
        let a = from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let chol = a.cholesky().unwrap();
        assert!((chol.inv_quadratic_form(&[1.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
