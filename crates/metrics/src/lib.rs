//! # shift-metrics
//!
//! Statistics used throughout the study:
//!
//! * [`overlap`] — Jaccard coefficient and overlap aggregation across query
//!   sets (Figures 1 and 2).
//! * [`rank`] — Kendall τ (tie-aware τ-b), Spearman ρ, and the paper's
//!   mean-absolute-rank-deviation Δ (Tables 1 and 2).
//! * [`mod@rbo`] — rank-biased overlap, the top-weighted secondary view of the
//!   Figure 1 comparison.
//! * [`stats`] — mean, median, percentiles, standard deviation.
//! * [`histogram`] — fixed-bin histograms for age distributions (Figure 4).
//! * [`log_histogram`] — a bounded, mergeable, lock-free log-bucket
//!   histogram for latencies.
//! * [`bootstrap`] — percentile bootstrap confidence intervals with a
//!   deterministic splitmix64 resampler.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod histogram;
pub mod log_histogram;
pub mod overlap;
pub mod rank;
pub mod rbo;
pub mod stats;

pub use histogram::Histogram;
pub use log_histogram::LogHistogram;
pub use overlap::{jaccard, mean_jaccard};
pub use rank::{kendall_tau, mean_abs_rank_deviation, spearman_rho};
pub use rbo::rbo;
pub use stats::{mean, median, percentile, stddev, Summary};
