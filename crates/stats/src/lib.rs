//! # probenet-stats
//!
//! The statistics substrate for probe-delay analysis, implemented from
//! scratch (no numeric dependencies):
//!
//! * [`moments`] — streaming mean/variance (Welford), mergeable.
//! * [`histogram`] — fixed-bin histograms with mass-conserving gutters, and
//!   empirical CDFs with quantiles.
//! * [`acf`] — autocovariance / autocorrelation.
//! * [`peaks`] — multimodal-density peak detection (reads the workload
//!   peaks off the paper's Figures 8–9).
//! * [`independence`] — runs test and χ² lag-1 independence test (the
//!   "losses are essentially random" claim, §5).
//! * [`special`] — log-gamma and the regularized incomplete gamma function
//!   behind the χ² p-values.

pub mod acf;
pub mod histogram;
pub mod independence;
pub mod moments;
pub mod peaks;
pub mod special;

pub use acf::{autocorrelation, autocovariance};
pub use histogram::{Ecdf, Histogram};
pub use independence::{
    chi2_2x2, lag1_independence, lag1_independence_from_counts, runs_test, runs_test_from_counts,
    two_sided_normal_p, Chi2Test, RunsTest,
};
pub use moments::{Moments, MomentsState};
pub use peaks::{find_peaks, find_relative_peaks, smooth, Peak};
pub use special::{ln_gamma, reg_lower_gamma};
