//! Pins the central-difference CPE update bit-for-bit to the values it
//! produced when the batched likelihood kernel landed, and the default
//! closed-form update to the values it produced before `update()` called the
//! kernel gradient directly.
//!
//! The finite-difference update lives on as the test-support
//! [`reference::ReferenceEstimator::update`]; its pinned bits below were
//! captured from the estimator's own finite-difference update when that
//! kernel landed and must survive every later change — the kernel's delegation of the
//! binomial×normal integrand to `c4u_stats` (the near-endpoint
//! peak-bracketing points never win the max for interior-peaked integrands,
//! so `log Z` is unchanged) and the conditional-variance floor on the
//! Schur-complement path (inactive for well-conditioned covariances). The
//! final log-likelihood goes through the batched kernel, so this also pins
//! the kernel's log-Z path to the historical one.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator};
use reference::ReferenceEstimator;

/// Exact `f64` bits of the post-`update()` mean captured on the PR-2 tree.
const PINNED_MEAN_BITS: [u64; 4] = [
    4603808213621252576,
    4605077693793012777,
    4602898294314389516,
    4602690248533233632,
];

/// Exact `f64` bits of the post-`update()` covariance (row-major 4x4).
const PINNED_COV_BITS: [u64; 16] = [
    4591156436142000206,
    4584085846805277720,
    4586391035903731276,
    4568758629588779087,
    4584085846805277720,
    4589234965452294322,
    4581313044257155419,
    4580086048590941910,
    4586391035903731276,
    4581313044257155419,
    4590930767946597966,
    4586045058611892352,
    4568758629588779087,
    4580086048590941910,
    4586045058611892352,
    4590081273077219440,
];

/// Exact `f64` bits of the post-`update()` total log-likelihood.
const PINNED_LL_BITS: u64 = 13851409114548962196;

/// Exact `f64` bits of the mean after the default (closed-form gradient)
/// `update()` on the same fixture, captured while the gradient still went
/// through the memoising oracle wrapper.
const ANALYTIC_MEAN_BITS: [u64; 4] = [
    4603808213621255958,
    4605077693793009178,
    4602898294314393468,
    4602690248533235005,
];

/// Exact `f64` bits of the matching covariance (row-major 4x4).
const ANALYTIC_COV_BITS: [u64; 16] = [
    4591156436140485786,
    4584085846809818438,
    4586391035898107506,
    4568758629341395713,
    4584085846809818438,
    4589234965452798231,
    4581313044264835433,
    4580086048589393344,
    4586391035898107506,
    4581313044264835433,
    4590930767951266597,
    4586045058599587480,
    4568758629341395713,
    4580086048589393344,
    4586045058599587480,
    4590081273075884047,
];

/// Exact `f64` bits of the matching total log-likelihood.
const ANALYTIC_LL_BITS: u64 = 13851409114549876551;

fn config() -> CpeConfig {
    CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 3,
        ..Default::default()
    }
}

fn estimator() -> CrossDomainEstimator {
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config()).unwrap()
}

fn observations() -> Vec<CpeObservation> {
    vec![
        CpeObservation {
            prior_accuracies: vec![Some(0.9), Some(0.9), Some(0.8)],
            correct: 9,
            wrong: 1,
        },
        CpeObservation {
            prior_accuracies: vec![Some(0.7), Some(0.8), Some(0.6)],
            correct: 7,
            wrong: 3,
        },
        CpeObservation {
            prior_accuracies: vec![Some(0.4), None, Some(0.3)],
            correct: 3,
            wrong: 7,
        },
        CpeObservation {
            prior_accuracies: vec![None, None, None],
            correct: 5,
            wrong: 5,
        },
    ]
}

fn assert_pinned(
    mean: &[f64],
    covariance: &[f64],
    ll: f64,
    pins: (&[u64], &[u64], u64),
    what: &str,
) {
    let mean_bits: Vec<u64> = mean.iter().map(|m| m.to_bits()).collect();
    assert_eq!(mean_bits, pins.0, "{what}: mean drifted from the pin");
    let cov_bits: Vec<u64> = covariance.iter().map(|c| c.to_bits()).collect();
    assert_eq!(cov_bits, pins.1, "{what}: covariance drifted from the pin");
    assert_eq!(
        ll.to_bits(),
        pins.2,
        "{what}: log-likelihood drifted from the pin (value {ll})"
    );
}

#[test]
fn finite_difference_update_is_unchanged_from_pr2() {
    let est = estimator();
    let mut reference = ReferenceEstimator::from_estimator(&est, config());
    let observations = observations();
    reference.update(&observations);

    let kernel = CpeLikelihoodKernel::new(&observations, reference.d, &reference.quadrature);
    let ll = kernel.log_likelihood(&reference.model()).unwrap();
    assert_pinned(
        &reference.mean,
        reference.covariance.as_slice(),
        ll,
        (&PINNED_MEAN_BITS, &PINNED_COV_BITS, PINNED_LL_BITS),
        "finite-difference update",
    );
}

#[test]
fn analytic_update_is_unchanged() {
    let mut est = estimator();
    let observations = observations();
    est.update(&observations).unwrap();

    let ll = est.log_likelihood(&observations).unwrap();
    assert_pinned(
        est.mean(),
        est.covariance().as_slice(),
        ll,
        (&ANALYTIC_MEAN_BITS, &ANALYTIC_COV_BITS, ANALYTIC_LL_BITS),
        "analytic update",
    );
}
