//! # oda-ml — machine-learning kernels for operational data analytics
//!
//! From-scratch implementations of every model the Wintermute paper's
//! case studies rely on (Netti et al., HPDC 2020):
//!
//! * [`stats`] — quantiles/deciles and histograms (persyst plugin,
//!   §VI-C; error PDFs, §VI-B);
//! * [`features`] — windowed feature extraction (regressor plugin, §VI-B);
//! * [`tree`] / [`forest`] — CART regression trees and bagged random
//!   forests (regressor plugin's model, §VI-B — substitute for OpenCV
//!   RTrees);
//! * [`mod@kmeans`] — k-means++ (initialization + ablation baseline);
//! * [`linear`] — ridge regression (model-choice ablation baseline);
//! * [`gmm`] — the gaussian component and log-sum-exp [`bgmm`] builds on;
//! * [`bgmm`] — the variational *Bayesian* gaussian mixture with
//!   automatic component-count selection and density-threshold outlier
//!   detection (clustering plugin, §VI-D);
//! * [`linalg`] / [`special`] — the supporting numerics (Cholesky,
//!   digamma).

#![warn(missing_docs)]

pub mod bgmm;
pub mod features;
pub mod forest;
pub mod gmm;
pub mod kmeans;
pub mod linalg;
pub mod linear;
pub mod special;
pub mod stats;
pub mod tree;

pub use bgmm::{fit_bgmm, BgmmConfig, BgmmModel};
pub use features::{Feature, FeatureExtractor};
pub use forest::{ForestConfig, RandomForest};
pub use gmm::GaussianComponent;
pub use kmeans::{kmeans, KMeansResult};
pub use linalg::SquareMatrix;
pub use linear::RidgeRegression;
pub use tree::{RegressionTree, TreeConfig};
