//! CART regression trees.
//!
//! The paper's regressor plugin performs random-forest regression on
//! feature vectors of windowed sensor statistics (paper §VI-B; the
//! original uses OpenCV's RTrees). This module implements the underlying
//! CART learner from scratch: binary splits chosen to minimize the sum
//! of squared errors, exact split search over sorted feature values,
//! optional per-node feature subsampling for forest de-correlation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// A split is only kept if both children have at least this many
    /// training samples.
    pub min_samples_leaf: usize,
    /// Nodes with fewer samples than this become leaves.
    pub min_samples_split: usize,
    /// Number of features considered per split; `None` = all (single
    /// trees), forests typically use `sqrt(d)` or `d/3`.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_leaf: 2,
            min_samples_split: 4,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree on row-major features `x` and targets `y`.
    ///
    /// Panics if `x` and `y` lengths differ or the dataset is empty —
    /// callers (the regressor operator) guard with a minimum training
    /// set size.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &TreeConfig, seed: u64) -> RegressionTree {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
        let n_features = x[0].len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = Builder {
            x,
            y,
            config,
            nodes: Vec::new(),
            rng: &mut rng,
            n_features,
        };
        let indices: Vec<usize> = (0..x.len()).collect();
        builder.build(indices, 0);
        RegressionTree {
            nodes: builder.nodes,
            n_features,
        }
    }

    /// Predicts the target for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature vector has wrong dimension"
        );
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

struct Builder<'a> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
    config: &'a TreeConfig,
    nodes: Vec<Node>,
    rng: &'a mut StdRng,
    n_features: usize,
}

impl<'a> Builder<'a> {
    /// Builds the subtree over `indices`; returns the node index.
    fn build(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let node_mean = indices.iter().map(|&i| self.y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || Self::is_constant(indices.iter().map(|&i| self.y[i]))
        {
            return self.push_leaf(node_mean);
        }
        match self.best_split(&indices) {
            None => self.push_leaf(node_mean),
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .into_iter()
                    .partition(|&i| self.x[i][feature] <= threshold);
                if left_idx.len() < self.config.min_samples_leaf
                    || right_idx.len() < self.config.min_samples_leaf
                {
                    return self.push_leaf(node_mean);
                }
                // Reserve the split slot before recursing so the root
                // lands at index 0.
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { value: node_mean });
                let left = self.build(left_idx, depth + 1);
                let right = self.build(right_idx, depth + 1);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn is_constant(mut ys: impl Iterator<Item = f64>) -> bool {
        match ys.next() {
            None => true,
            Some(first) => ys.all(|v| (v - first).abs() < 1e-15),
        }
    }

    /// Exact best split by SSE reduction: for each candidate feature,
    /// sort the node's samples by that feature and scan split points
    /// with prefix sums.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = self.config.max_features {
            features.shuffle(self.rng);
            features.truncate(k.clamp(1, self.n_features));
        }

        let total_sum: f64 = indices.iter().map(|&i| self.y[i]).sum();
        let n = indices.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        let mut sorted = indices.to_vec();

        for &f in &features {
            sorted.sort_by(|&a, &b| {
                self.x[a][f]
                    .partial_cmp(&self.x[b][f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_sum = 0.0;
            for (k, &i) in sorted.iter().enumerate().take(sorted.len() - 1) {
                left_sum += self.y[i];
                let xv = self.x[i][f];
                let next_xv = self.x[sorted[k + 1]][f];
                if next_xv <= xv {
                    continue; // tied feature values cannot be split here
                }
                let nl = (k + 1) as f64;
                let nr = n - nl;
                // Maximizing sum-of-squares reduction is equivalent to
                // maximizing left_sum²/nl + right_sum²/nr.
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
                if best.map(|(s, _, _)| score > s).unwrap_or(true) {
                    best = Some((score, f, 0.5 * (xv + next_xv)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum depth actually reached (root = depth 0).
    fn depth(tree: &RegressionTree) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&tree.nodes, 0)
    }

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 for x < 5, y = 10 for x >= 5.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 5.0 { 1.0 } else { 10.0 })
            .collect();
        (x, y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert!((tree.predict(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[8.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 20];
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert_eq!(depth(&tree), 0);
        assert_eq!(tree.predict(&[99.0]), 3.5);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, 0);
        assert!(depth(&tree) <= 3, "depth={}", depth(&tree));
    }

    #[test]
    fn respects_min_samples_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 5,
            min_samples_split: 2,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, 0);
        // With leaves of >= 5 samples on 10 points, at most one split.
        assert!(depth(&tree) <= 1);
    }

    #[test]
    fn multifeature_selects_informative_feature() {
        // Feature 0 is noise, feature 1 carries the signal.
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![((i * 7919) % 13) as f64, (i % 2) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[1] * 100.0).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 1);
        assert!((tree.predict(&[5.0, 0.0]) - 0.0).abs() < 1.0);
        assert!((tree.predict(&[5.0, 1.0]) - 100.0).abs() < 1.0);
    }

    #[test]
    fn piecewise_linear_approximation_improves_with_depth() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
        let rmse = |tree: &RegressionTree| {
            (x.iter()
                .zip(y.iter())
                .map(|(xi, yi)| (tree.predict(xi) - yi).powi(2))
                .sum::<f64>()
                / x.len() as f64)
                .sqrt()
        };
        let shallow = RegressionTree::fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 1,
                ..Default::default()
            },
            0,
        );
        let deep = RegressionTree::fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 6,
                ..Default::default()
            },
            0,
        );
        assert!(rmse(&deep) < rmse(&shallow) / 2.0);
    }

    #[test]
    fn tied_feature_values_cannot_split() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert_eq!(depth(&tree), 0);
        assert!((tree.predict(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn predict_checks_dimension() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 0);
        tree.predict(&[1.0, 2.0]);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            max_features: Some(1),
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, 42);
        assert!((tree.predict(&[1.0]) - 1.0).abs() < 1e-9);
    }
}
