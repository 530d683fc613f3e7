//! Property tests for the ML kernels: structural invariants that must
//! hold for arbitrary data, not just the happy paths of the unit tests.

use oda_ml::forest::{ForestConfig, RandomForest};
use oda_ml::kmeans::kmeans;
use oda_ml::stats::{deciles, mean, quantile, standardize, std_dev};
use oda_ml::tree::{RegressionTree, TreeConfig};
use proptest::prelude::*;

fn dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..40, 1usize..4).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d..=d), n..=n),
            prop::collection::vec(-100.0f64..100.0, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_predictions_stay_within_target_range((x, y) in dataset()) {
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), 7);
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for xi in &x {
            let p = tree.predict(xi);
            // Leaf values are means of training targets: always inside
            // the convex hull of y.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn forest_predictions_stay_within_target_range((x, y) in dataset()) {
        let cfg = ForestConfig { n_trees: 5, ..Default::default() };
        let forest = RandomForest::fit(&x, &y, &cfg);
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for xi in x.iter().take(5) {
            let p = forest.predict(xi);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn tree_is_exact_on_training_data_with_unlimited_depth(
        xs in prop::collection::vec(-50f64..50.0, 2..20),
    ) {
        // Distinct single-feature inputs, zero-noise targets: a deep
        // tree with min leaf 1 must memorize exactly.
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        prop_assume!(xs.len() >= 2);
        let x: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let y: Vec<f64> = xs.iter().map(|&v| v * 3.0 + 1.0).collect();
        let cfg = TreeConfig {
            max_depth: 64,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, 0);
        for (xi, yi) in x.iter().zip(y.iter()) {
            prop_assert!((tree.predict(xi) - yi).abs() < 1e-9);
        }
    }

    #[test]
    fn kmeans_labels_are_valid_and_exhaustive(
        data in prop::collection::vec(
            prop::collection::vec(-10f64..10.0, 2..=2), 1..50),
        k in 1usize..6,
    ) {
        let result = kmeans(&data, k, 30, 5);
        let k_eff = k.min(data.len());
        prop_assert_eq!(result.labels.len(), data.len());
        prop_assert!(result.labels.iter().all(|&l| l < k_eff));
        prop_assert!(result.inertia >= 0.0);
        prop_assert_eq!(result.centroids.len(), k_eff);
    }

    #[test]
    fn quantiles_are_order_statistics(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        q in 0.0f64..1.0,
    ) {
        let v = quantile(&xs, q);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        // Monotone in q.
        let v2 = quantile(&xs, (q + 0.1).min(1.0));
        prop_assert!(v2 >= v - 1e-9);
    }

    #[test]
    fn deciles_partition_consistently(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let d = deciles(&xs);
        // At most i/10 of the data lies strictly below decile i.
        for (i, &di) in d.iter().enumerate() {
            let below = xs.iter().filter(|&&x| x < di - 1e-9).count();
            prop_assert!(
                below as f64 <= (i as f64 / 10.0) * xs.len() as f64 + 1.0,
                "decile {i}: {below} of {} strictly below", xs.len()
            );
        }
    }

    #[test]
    fn standardize_preserves_shape(
        data in prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, 3..=3), 2..40),
    ) {
        let (means, stds, scaled) = standardize(&data);
        prop_assert_eq!(means.len(), 3);
        prop_assert_eq!(scaled.len(), data.len());
        for j in 0..3 {
            let col: Vec<f64> = scaled.iter().map(|r| r[j]).collect();
            prop_assert!(mean(&col).abs() < 1e-6);
            let s = std_dev(&col);
            // Either unit variance or a constant column passed through.
            prop_assert!((s - 1.0).abs() < 1e-6 || s < 1e-6, "std {s}");
            prop_assert!(stds[j] > 0.0);
        }
    }
}
