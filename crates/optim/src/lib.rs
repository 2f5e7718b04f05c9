//! # c4u-optim
//!
//! Numerical optimisation substrate for the C4U (cross-domain-aware worker selection
//! with training) workspace.
//!
//! Two estimation problems in the paper need a general-purpose optimiser:
//!
//! 1. the per-worker learning-parameter fit of the Learning Gain Estimation
//!    (Eq. 11), a one-dimensional least-squares problem solved by
//!    [`minimize_scalar`] (golden-section search plus Newton polish);
//! 2. the Li et al. baseline, plain multiple linear regression on historical
//!    profiles, provided by [`LinearRegression`].
//!
//! The third, the Maximum Likelihood Estimation of the cross-domain mean
//! vector and covariance matrix (Eq. 5–7), is solved in `c4u-selection` by
//! gradient ascent on a closed-form gradient; the central differences here
//! ([`gradient_with_step`]) are what its tests check that gradient against.
//!
//! ## Example
//!
//! ```
//! use c4u_optim::{gradient_with_step, minimize_scalar};
//!
//! // Fit a scalar by least squares.
//! let m = minimize_scalar(|a| (a - 1.5f64).powi(2), -10.0, 10.0, 1e-9).unwrap();
//! assert!((m.x - 1.5).abs() < 1e-6);
//!
//! // Central-difference gradient of a 2-d bowl, absolute step 1e-5.
//! let bowl = |v: &[f64]| v[0] * v[0] + (v[1] - 2.0) * (v[1] - 2.0);
//! let g = gradient_with_step(bowl, &[5.0, 5.0], 1e-5);
//! assert!((g[0] - 10.0).abs() < 1e-6 && (g[1] - 6.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]

mod error;
mod gradient;
mod ols;
mod scalar;

pub use error::OptimError;
pub use gradient::{derivative, gradient, gradient_with_step, second_derivative};
pub use ols::LinearRegression;
pub use scalar::{golden_section_minimize, minimize_scalar, newton_polish, ScalarMinimum};
