//! Feature extraction for online regression.
//!
//! The regressor plugin computes "a series of statistical features
//! (e.g., mean or standard deviation) from [each input sensor's] recent
//! readings", concatenates them into a feature vector, and feeds the
//! vector to the random forest (paper §VI-B). This module defines that
//! transformation.

use serde::{Deserialize, Serialize};

/// The statistics extracted per input sensor window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Feature {
    /// Arithmetic mean of the window.
    Mean,
    /// Population standard deviation.
    Std,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Most recent value.
    Last,
    /// Least-squares slope per sample (trend).
    Slope,
    /// Difference between last and first value.
    Delta,
}

impl Feature {
    /// The default feature set used by the regressor plugin.
    pub fn default_set() -> Vec<Feature> {
        vec![
            Feature::Mean,
            Feature::Std,
            Feature::Min,
            Feature::Max,
            Feature::Last,
            Feature::Slope,
        ]
    }

    /// Parses a feature name (configuration files use snake_case).
    pub fn parse(name: &str) -> Option<Feature> {
        Some(match name {
            "mean" => Feature::Mean,
            "std" => Feature::Std,
            "min" => Feature::Min,
            "max" => Feature::Max,
            "last" => Feature::Last,
            "slope" => Feature::Slope,
            "delta" => Feature::Delta,
            _ => return None,
        })
    }

    /// Computes this feature over a window of values. Empty windows
    /// yield 0.0 (the operator skips units with no data; this is a
    /// defensive default).
    pub fn compute(self, window: &[f64]) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        match self {
            Feature::Mean => crate::stats::mean(window),
            Feature::Std => crate::stats::std_dev(window),
            Feature::Min => crate::stats::min(window),
            Feature::Max => crate::stats::max(window),
            Feature::Last => *window.last().unwrap(),
            Feature::Slope => slope(window),
            Feature::Delta => window.last().unwrap() - window.first().unwrap(),
        }
    }
}

/// Least-squares slope of values against their sample index.
fn slope(window: &[f64]) -> f64 {
    let n = window.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = crate::stats::mean(window);
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in window.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Extracts the configured features from one or more sensor windows and
/// concatenates them into a single feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    features: Vec<Feature>,
}

impl FeatureExtractor {
    /// Creates an extractor with the given per-sensor feature set.
    pub fn new(features: Vec<Feature>) -> Self {
        assert!(!features.is_empty(), "feature set must be non-empty");
        FeatureExtractor { features }
    }

    /// Builds the feature vector from per-sensor windows.
    pub fn extract(&self, windows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::with_capacity(windows.len() * self.features.len());
        for w in windows {
            for f in &self.features {
                out.push(f.compute(w));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn individual_features() {
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(Feature::Mean.compute(&w), 2.5);
        assert_eq!(Feature::Min.compute(&w), 1.0);
        assert_eq!(Feature::Max.compute(&w), 4.0);
        assert_eq!(Feature::Last.compute(&w), 4.0);
        assert_eq!(Feature::Delta.compute(&w), 3.0);
        assert!((Feature::Slope.compute(&w) - 1.0).abs() < 1e-12);
        assert!((Feature::Std.compute(&w) - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn empty_window_yields_zero() {
        for f in Feature::default_set() {
            assert_eq!(f.compute(&[]), 0.0);
        }
    }

    #[test]
    fn singleton_window() {
        let w = [7.0];
        assert_eq!(Feature::Mean.compute(&w), 7.0);
        assert_eq!(Feature::Slope.compute(&w), 0.0);
        assert_eq!(Feature::Delta.compute(&w), 0.0);
        assert_eq!(Feature::Std.compute(&w), 0.0);
    }

    #[test]
    fn slope_of_constant_is_zero() {
        assert_eq!(Feature::Slope.compute(&[5.0; 10]), 0.0);
    }

    #[test]
    fn slope_of_decreasing_ramp_is_negative() {
        let w: Vec<f64> = (0..10).map(|i| 100.0 - 2.0 * i as f64).collect();
        assert!((Feature::Slope.compute(&w) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn parse_round_trips() {
        for f in Feature::default_set() {
            let name = serde_json::to_string(&f).unwrap();
            let trimmed = name.trim_matches('"');
            assert_eq!(Feature::parse(trimmed), Some(f), "{trimmed}");
        }
        assert_eq!(Feature::parse("nope"), None);
    }

    #[test]
    fn extractor_concatenates_sensor_windows() {
        let ex = FeatureExtractor::new(vec![Feature::Mean, Feature::Last]);
        let vec = ex.extract(&[vec![1.0, 3.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(vec, vec![2.0, 3.0, 20.0, 30.0]);
    }

    #[test]
    fn default_set_extracts_six_features_per_sensor() {
        let ex = FeatureExtractor::new(Feature::default_set());
        let v = ex.extract(&[vec![1.0, 2.0], vec![3.0], vec![]]);
        assert_eq!(v.len(), 3 * 6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_feature_set_rejected() {
        FeatureExtractor::new(vec![]);
    }
}
