//! # probenet-stats
//!
//! The statistics substrate for probe-delay analysis, implemented from
//! scratch (no numeric dependencies):
//!
//! * [`moments`] — streaming mean/variance (Welford), correlation, OLS.
//! * [`histogram`] — fixed-bin histograms with mass-conserving gutters, and
//!   empirical CDFs with quantiles and a KS statistic.
//! * [`acf`] — autocovariance / autocorrelation.
//! * [`mod@fft`] — radix-2 FFT and periodogram (spectral view of delay series,
//!   as in the paper's ref \[19\]).
//! * [`fit`] — exponential, gamma (MoM + MLE), and the "constant plus
//!   gamma" delay model of ref \[19\].
//! * [`ar`] — Yule–Walker AR(p) fitting via Levinson–Durbin and one-step
//!   prediction (the ARMA adequacy question of the paper's §3).
//! * [`peaks`] — multimodal-density peak detection (reads the workload
//!   peaks off the paper's Figures 8–9).
//! * [`independence`] — runs test and χ² lag-1 independence test (the
//!   "losses are essentially random" claim, §5).
//! * [`special`] — log-gamma, digamma, trigamma, incomplete gamma.

pub mod acf;
pub mod ar;
pub mod fft;
pub mod fit;
pub mod histogram;
pub mod independence;
pub mod moments;
pub mod peaks;
pub mod special;
pub mod timescale;

pub use acf::{autocorrelation, autocovariance, decorrelation_lag};
pub use ar::{fit_best_order, levinson_durbin, ArModel};
pub use fft::{dominant_frequency, fft, ifft, next_pow2, periodogram, SpectralLine};
pub use fit::{ExponentialFit, GammaFit, ShiftedGammaFit};
pub use histogram::{Ecdf, Histogram};
pub use independence::{
    chi2_2x2, lag1_independence, lag1_independence_from_counts, ljung_box, runs_test,
    runs_test_from_counts, two_sided_normal_p, Chi2Test, LjungBoxTest, RunsTest,
};
pub use moments::{correlation, ols, Moments, MomentsState};
pub use peaks::{find_peaks, find_relative_peaks, smooth, Peak};
pub use special::{digamma, gamma_cdf, ln_gamma, reg_lower_gamma, trigamma};
pub use timescale::{
    aggregate_variance, hurst_aggregate_variance, variance_time_plot, VariancePoint,
};
