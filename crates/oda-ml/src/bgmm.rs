//! Variational Bayesian gaussian mixture model.
//!
//! The paper's third case study clusters compute nodes with a *Bayesian*
//! gaussian mixture because, unlike ordinary GMMs, it determines the
//! effective number of clusters autonomously (§VI-D, citing Roberts et
//! al.): components the data does not support collapse to near-zero
//! weight and are pruned. Points whose density under **every** surviving
//! component falls below a threshold (0.001 in the paper) are flagged as
//! outliers.
//!
//! The implementation follows Bishop, *Pattern Recognition and Machine
//! Learning*, §10.2: a Dirichlet prior over mixing weights and
//! Gauss–Wishart priors over component parameters, optimized with
//! coordinate-ascent variational inference.

use crate::gmm::{log_sum_exp, GaussianComponent};
use crate::kmeans::kmeans;
use crate::linalg::{Cholesky, SquareMatrix};
use crate::special::digamma;

/// Configuration for variational fitting.
#[derive(Debug, Clone)]
pub struct BgmmConfig {
    /// Upper bound on the number of components; the fit prunes unused
    /// ones (the paper's "determine the optimal number of clusters").
    pub max_components: usize,
    /// Dirichlet concentration α₀. Values ≪ 1 favour sparse solutions
    /// (fewer effective components).
    pub weight_concentration: f64,
    /// Maximum variational iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the mean absolute responsibility change.
    pub tol: f64,
    /// Components with weight below this are pruned after fitting.
    pub prune_weight: f64,
    /// Density threshold below which (under all surviving components) a
    /// point is an outlier. The paper uses 0.001.
    pub outlier_pdf_threshold: f64,
    /// Mean-precision prior β₀. Small values decouple component means
    /// from the global mean, which keeps tight, well-separated clusters
    /// from being merged by the (x̄−m₀)(x̄−m₀)ᵀ covariance term.
    pub mean_precision: f64,
    /// RNG seed for the k-means initialization.
    pub seed: u64,
}

impl Default for BgmmConfig {
    fn default() -> Self {
        BgmmConfig {
            max_components: 8,
            weight_concentration: 1e-2,
            max_iters: 200,
            tol: 1e-5,
            prune_weight: 0.02,
            outlier_pdf_threshold: 1e-3,
            mean_precision: 0.05,
            seed: 0xDCDB,
        }
    }
}

/// The fitted model.
#[derive(Debug, Clone)]
pub struct BgmmModel {
    /// Surviving components with expected weights, means, covariances.
    pub components: Vec<GaussianComponent>,
    /// Per-point assignment: `Some(component index)` or `None` when the
    /// point is an outlier under every component.
    pub labels: Vec<Option<usize>>,
    /// Number of components before pruning (== `max_components`).
    pub initial_components: usize,
    /// Variational iterations executed.
    pub iterations: usize,
    /// True if the responsibility change fell below tolerance.
    pub converged: bool,
}

impl BgmmModel {
    /// Number of effective (surviving) components.
    pub fn n_effective(&self) -> usize {
        self.components.len()
    }

    /// Classifies a new point: the best component, or `None` if the
    /// density under every component is below `threshold`.
    pub fn classify(&self, x: &[f64], threshold: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (k, c) in self.components.iter().enumerate() {
            let p = c.pdf(x);
            if best.map(|(_, bp)| p > bp).unwrap_or(true) {
                best = Some((k, p));
            }
        }
        match best {
            Some((k, p)) if p >= threshold => Some(k),
            _ => None,
        }
    }
}

/// Per-component variational parameters (Bishop's notation).
struct VarParams {
    alpha: f64,          // Dirichlet posterior
    beta: f64,           // mean precision scaling
    m: Vec<f64>,         // mean of the gaussian posterior over μ
    w_inv: SquareMatrix, // inverse of the Wishart scale W
    w_inv_chol: Cholesky,
    nu: f64,        // Wishart degrees of freedom
    log_det_w: f64, // ln |W| = −ln |W⁻¹|
}

/// Fits the variational GMM.
///
/// Panics on empty data; the clustering operator guards against that.
pub fn fit_bgmm(data: &[Vec<f64>], config: &BgmmConfig) -> BgmmModel {
    assert!(!data.is_empty(), "bgmm on empty data");
    let n = data.len();
    let d = data[0].len();
    let k = config.max_components.clamp(1, n);

    // Priors.
    let alpha0 = config.weight_concentration;
    let beta0 = config.mean_precision;
    let m0: Vec<f64> = {
        let mut m = vec![0.0; d];
        for x in data {
            for (mi, &xi) in m.iter_mut().zip(x.iter()) {
                *mi += xi;
            }
        }
        m.iter_mut().for_each(|v| *v /= n as f64);
        m
    };
    let nu0 = d as f64 + 2.0;
    let w0_inv = SquareMatrix::identity(d); // W₀ = I

    // Responsibilities initialized from k-means (soft-smoothed so no
    // component starts empty).
    let km = kmeans(data, k, 50, config.seed);
    let smooth = 1e-3;
    let mut resp = vec![vec![smooth / k as f64; k]; n];
    for (i, &l) in km.labels.iter().enumerate() {
        resp[i][l] += 1.0 - smooth;
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut params: Vec<VarParams> = Vec::new();

    for iter in 0..config.max_iters {
        iterations = iter + 1;

        // ---- M-step: update variational posteriors. ----
        params.clear();
        for c in 0..k {
            let nk: f64 = resp.iter().map(|r| r[c]).sum::<f64>().max(1e-10);
            let mut xbar = vec![0.0; d];
            for (i, x) in data.iter().enumerate() {
                for (b, &xi) in xbar.iter_mut().zip(x.iter()) {
                    *b += resp[i][c] * xi;
                }
            }
            xbar.iter_mut().for_each(|v| *v /= nk);

            let mut sk = SquareMatrix::zeros(d);
            let mut diff = vec![0.0; d];
            for (i, x) in data.iter().enumerate() {
                for (j, (&xi, &bj)) in x.iter().zip(xbar.iter()).enumerate() {
                    diff[j] = xi - bj;
                }
                sk.rank1_update(&diff, resp[i][c] / nk);
            }

            let alpha = alpha0 + nk;
            let beta = beta0 + nk;
            let m: Vec<f64> = m0
                .iter()
                .zip(xbar.iter())
                .map(|(&m0i, &xb)| (beta0 * m0i + nk * xb) / beta)
                .collect();
            let nu = nu0 + nk;

            // W⁻¹ = W₀⁻¹ + N_k S_k + (β₀ N_k / (β₀+N_k))(x̄−m₀)(x̄−m₀)ᵀ
            let mut w_inv = w0_inv.clone();
            w_inv.add_scaled(&sk, nk);
            let dm: Vec<f64> = xbar.iter().zip(m0.iter()).map(|(a, b)| a - b).collect();
            w_inv.rank1_update(&dm, beta0 * nk / (beta0 + nk));
            // Numerical guard: tiny diagonal jitter keeps W⁻¹ SPD.
            for j in 0..d {
                w_inv[(j, j)] += 1e-9;
            }
            let chol = w_inv
                .cholesky()
                .expect("W-inverse must be SPD by construction");
            let log_det_w = -chol.logdet();
            params.push(VarParams {
                alpha,
                beta,
                m,
                w_inv,
                w_inv_chol: chol,
                nu,
                log_det_w,
            });
        }

        // ---- E-step: update responsibilities. ----
        let alpha_sum: f64 = params.iter().map(|p| p.alpha).sum();
        let psi_alpha_sum = digamma(alpha_sum);
        let e_ln_pi: Vec<f64> = params
            .iter()
            .map(|p| digamma(p.alpha) - psi_alpha_sum)
            .collect();
        let e_ln_det: Vec<f64> = params
            .iter()
            .map(|p| {
                let mut s = d as f64 * (2.0f64).ln() + p.log_det_w;
                for i in 0..d {
                    s += digamma((p.nu - i as f64) / 2.0);
                }
                s
            })
            .collect();

        let mut max_delta = 0.0f64;
        let mut logs = vec![0.0f64; k];
        let mut diff = vec![0.0f64; d];
        for (i, x) in data.iter().enumerate() {
            for (c, p) in params.iter().enumerate() {
                for (j, (&xi, &mj)) in x.iter().zip(p.m.iter()).enumerate() {
                    diff[j] = xi - mj;
                }
                // (x−m)ᵀ W (x−m) computed as a solve against W⁻¹.
                let maha = p.w_inv_chol.inv_quadratic_form(&diff);
                logs[c] = e_ln_pi[c] + 0.5 * e_ln_det[c]
                    - 0.5 * (d as f64 / p.beta + p.nu * maha)
                    - 0.5 * d as f64 * (2.0 * std::f64::consts::PI).ln();
            }
            let norm = log_sum_exp(&logs);
            for (c, &lg) in logs.iter().enumerate() {
                let r = if norm.is_finite() {
                    (lg - norm).exp()
                } else {
                    1.0 / k as f64
                };
                max_delta = max_delta.max((r - resp[i][c]).abs());
                resp[i][c] = r;
            }
        }

        if max_delta < config.tol {
            converged = true;
            break;
        }
    }

    // ---- Extract expected parameters and prune weak components. ----
    let alpha_sum: f64 = params.iter().map(|p| p.alpha).sum();
    // Components supported by fewer than ~1.5 points are degenerate
    // singletons (an outlier grabbing its own component); prune them so
    // the density-threshold outlier rule can see such points.
    let prune = config.prune_weight.max(1.5 / n as f64);
    let mut kept: Vec<usize> = Vec::new();
    let mut components = Vec::new();
    for (c, p) in params.iter().enumerate() {
        let weight = p.alpha / alpha_sum;
        if weight < prune {
            continue;
        }
        // E[Σ] = W⁻¹ / (ν − D − 1) when ν > D + 1, else W⁻¹/ν.
        let denom = if p.nu > d as f64 + 1.0 {
            p.nu - d as f64 - 1.0
        } else {
            p.nu
        };
        let mut cov = p.w_inv.clone();
        cov.scale(1.0 / denom);
        kept.push(c);
        components.push(GaussianComponent {
            weight,
            mean: p.m.clone(),
            cov,
        });
    }
    // Renormalize surviving weights.
    let wsum: f64 = components.iter().map(|c| c.weight).sum();
    if wsum > 0.0 {
        for c in &mut components {
            c.weight /= wsum;
        }
    }

    let mut model = BgmmModel {
        components,
        labels: Vec::new(),
        initial_components: k,
        iterations,
        converged,
    };
    // ---- Label points; detect outliers by density threshold. ----
    model.labels = data
        .iter()
        .map(|x| model.classify(x, config.outlier_pdf_threshold))
        .collect();
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Three well-separated standardized-ish blobs plus two extreme
    /// outliers, mimicking the node-behaviour data of Fig. 8.
    fn blobs_with_outliers(seed: u64) -> (Vec<Vec<f64>>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let centers = [[-2.0, -2.0, 0.0], [0.0, 0.0, 0.5], [2.5, 2.5, -0.5]];
        for (ci, c) in centers.iter().enumerate() {
            let count = [40, 120, 40][ci];
            for _ in 0..count {
                data.push(vec![
                    c[0] + rng.gen_range(-0.35..0.35),
                    c[1] + rng.gen_range(-0.35..0.35),
                    c[2] + rng.gen_range(-0.35..0.35),
                ]);
            }
        }
        let n_inliers = data.len();
        data.push(vec![8.0, -8.0, 8.0]);
        data.push(vec![-8.0, 8.0, -8.0]);
        (data, n_inliers)
    }

    #[test]
    fn discovers_three_clusters_from_eight() {
        let (data, _) = blobs_with_outliers(1);
        let model = fit_bgmm(&data, &BgmmConfig::default());
        assert_eq!(model.initial_components, 8);
        assert_eq!(
            model.n_effective(),
            3,
            "weights: {:?}",
            model
                .components
                .iter()
                .map(|c| c.weight)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn flags_extreme_outliers() {
        let (data, n_inliers) = blobs_with_outliers(2);
        let model = fit_bgmm(&data, &BgmmConfig::default());
        assert!(model.labels[n_inliers].is_none(), "outlier 1 not flagged");
        assert!(
            model.labels[n_inliers + 1].is_none(),
            "outlier 2 not flagged"
        );
        let flagged = model.labels.iter().filter(|l| l.is_none()).count();
        assert!(flagged <= 6, "too many outliers: {flagged}");
    }

    #[test]
    fn inliers_of_same_blob_share_label() {
        let (data, _) = blobs_with_outliers(3);
        let model = fit_bgmm(&data, &BgmmConfig::default());
        // First blob: indices 0..40.
        let l = model.labels[0];
        assert!(l.is_some());
        let same = model.labels[..40].iter().filter(|&&x| x == l).count();
        assert!(same >= 38, "blob coherence {same}/40");
    }

    #[test]
    fn weights_sum_to_one() {
        let (data, _) = blobs_with_outliers(4);
        let model = fit_bgmm(&data, &BgmmConfig::default());
        let sum: f64 = model.components.iter().map(|c| c.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_blob_collapses_to_one_component() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<Vec<f64>> = (0..150)
            .map(|_| vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)])
            .collect();
        let model = fit_bgmm(&data, &BgmmConfig::default());
        assert_eq!(
            model.n_effective(),
            1,
            "weights: {:?}",
            model
                .components
                .iter()
                .map(|c| c.weight)
                .collect::<Vec<_>>()
        );
        let c = &model.components[0];
        assert!(c.mean[0].abs() < 0.2 && c.mean[1].abs() < 0.2);
    }

    #[test]
    fn classify_new_points() {
        let (data, _) = blobs_with_outliers(6);
        let model = fit_bgmm(&data, &BgmmConfig::default());
        let near_blob = model.classify(&[0.0, 0.0, 0.5], 1e-3);
        assert!(near_blob.is_some());
        let far = model.classify(&[50.0, 50.0, 50.0], 1e-3);
        assert!(far.is_none());
    }

    #[test]
    fn training_labels_are_classify_at_the_config_threshold() {
        let (data, n_inliers) = blobs_with_outliers(10);
        let config = BgmmConfig::default();
        let model = fit_bgmm(&data, &config);
        assert!(model.labels[..n_inliers].iter().any(Option::is_some));
        assert!(model.labels[n_inliers..].iter().all(Option::is_none));
        for (x, &label) in data.iter().zip(&model.labels) {
            assert_eq!(label, model.classify(x, config.outlier_pdf_threshold));
        }
    }

    #[test]
    fn correlated_elongated_cluster_is_captured() {
        // Nodes in Fig. 8 lie on a linear power/temperature trend; full
        // covariance must capture it with one component.
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let t = rng.gen_range(-2.0..2.0);
                vec![t, 0.9 * t + rng.gen_range(-0.1..0.1)]
            })
            .collect();
        let model = fit_bgmm(&data, &BgmmConfig::default());
        assert!(
            model.n_effective() <= 2,
            "effective: {}",
            model.n_effective()
        );
        // Covariance of the dominant component reflects the correlation.
        let dominant = model
            .components
            .iter()
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())
            .unwrap();
        let corr =
            dominant.cov[(0, 1)] / (dominant.cov[(0, 0)].sqrt() * dominant.cov[(1, 1)].sqrt());
        assert!(corr > 0.8, "correlation {corr}");
    }

    #[test]
    fn deterministic_for_seed() {
        let (data, _) = blobs_with_outliers(8);
        let a = fit_bgmm(&data, &BgmmConfig::default());
        let b = fit_bgmm(&data, &BgmmConfig::default());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.n_effective(), b.n_effective());
    }
}
