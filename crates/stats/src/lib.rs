//! # c4u-stats
//!
//! Probability and statistics substrate for the C4U (cross-domain-aware worker
//! selection with training) workspace.
//!
//! The paper models worker annotation accuracy with normal and multivariate normal
//! distributions (Sec. IV-C1), generates synthetic workers from a truncated
//! multivariate normal (Sec. V-A), scores answers with Bernoulli draws, evaluates
//! integrals of binomial-times-Gaussian kernels (Eq. 5 and Eq. 8), and validates
//! dataset consistency with bucketed Pearson correlations (Table IV). This crate
//! provides every one of those primitives, built from scratch on `rand` +
//! `c4u-linalg`:
//!
//! * special functions: [`erf`], [`ln_gamma`], [`sigmoid`], [`logit`], the
//!   standard-normal CDF/quantile;
//! * univariate distributions: [`Normal`], [`TruncatedNormal`], [`Bernoulli`],
//!   [`Uniform`];
//! * the [`MultivariateNormal`] with conditioning ([`Conditional1D`]), sampling and
//!   box-truncated sampling;
//! * quadrature: [`GaussLegendre`], [`adaptive_simpson`], [`trapezoid`];
//! * the binomial×normal integrals of the CPE likelihood and their closed-form
//!   conditional-mean/variance derivatives: [`binomial_normal_moments`],
//!   [`binomial_normal_log_z`], [`binomial_normal_log_z_gradients`], plus the
//!   batched structure-of-arrays sweep over shared node tables
//!   ([`BinomialNormalBatch`]) that the CPE hot paths use, bit-identical to
//!   the scalar forms, and its factored gradient sweep over per-`(C, X)`
//!   [`CountFactors`], which tracks them to rounding;
//! * descriptive statistics: [`mean`], [`std_dev`], [`quantile`],
//!   [`pearson_correlation`], [`Histogram`], [`Summary`];
//! * covariance utilities: [`sample_covariance`], [`covariance_to_correlation`],
//!   [`nearest_positive_definite`].
//!
//! ## Example
//!
//! ```
//! use c4u_stats::{MultivariateNormal, Matrix};
//!
//! // Two prior domains plus a target domain, moderately correlated.
//! let rho = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.6 });
//! let mvn = MultivariateNormal::from_correlations(
//!     &[0.7, 0.88, 0.55],
//!     &[0.22, 0.10, 0.17],
//!     &rho,
//! ).unwrap();
//!
//! // Predict the target-domain accuracy of a worker with a strong profile.
//! let cond = mvn.condition_on(2, &[0, 1], &[0.9, 0.95]).unwrap();
//! assert!(cond.mean > 0.55);
//! ```

#![forbid(unsafe_code)]

mod batch;
mod binomial_normal;
mod covariance;
mod descriptive;
mod error;
mod integrate;
mod mvn;
mod special;
mod univariate;
mod vmath;

pub use batch::{
    batched_quadrature_sweeps, reset_batched_quadrature_sweeps,
    reset_scalar_quadrature_evaluations, scalar_quadrature_evaluations, BinomialNormalBatch,
    CountFactors, QuadratureMath, QuadratureScratch,
};
pub use binomial_normal::{
    binomial_normal_log_z, binomial_normal_log_z_gradients, binomial_normal_moments, LogZGradient,
};
pub use covariance::{
    correlation_to_covariance, covariance_to_correlation, nearest_positive_definite,
    sample_correlation, sample_covariance,
};
pub use descriptive::{
    covariance, max, mean, median, min, pearson_correlation, population_std_dev,
    population_variance, quantile, std_dev, variance, Histogram, Summary,
};
pub use error::StatsError;
pub use integrate::{adaptive_simpson, trapezoid, GaussLegendre};
pub use mvn::{
    conditioning_factorizations, reset_conditioning_factorizations, Conditional1D, Conditioner,
    MultivariateNormal,
};
pub use special::{
    erf, erfc, ln_beta, ln_gamma, log1p_exp, logit, sigmoid, std_normal_cdf, std_normal_pdf,
    std_normal_quantile,
};
pub use univariate::{sample_standard_normal, Bernoulli, Normal, TruncatedNormal, Uniform};
pub use vmath::{vexp, vexp_scalar, VEXP_LANES};

// Re-export the linear-algebra types used in this crate's public API so downstream
// crates do not need a direct `c4u-linalg` dependency just to construct inputs.
pub use c4u_linalg::{Matrix, Vector};
