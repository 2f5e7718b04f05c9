//! Cross-domain-aware Performance Estimation (CPE, Algorithm 1 of the paper).
//!
//! The estimator maintains a `(D+1)`-dimensional multivariate normal over worker
//! accuracies — `D` prior domains plus the target domain (Eq. 1–2). In every
//! elimination round it:
//!
//! 1. counts each remaining worker's correct/wrong answers on the round's golden
//!    questions (Eq. 3–4);
//! 2. refines the mean vector and covariance matrix by gradient ascent on the
//!    marginal log-likelihood of those counts (Eq. 5–7), where the target-domain
//!    accuracy is integrated out against its conditional normal given the worker's
//!    prior-domain profile;
//! 3. produces a per-worker predicted target-domain accuracy (Eq. 8) as the
//!    posterior mean of the target accuracy over `(0, 1)`.
//!
//! Workers that lack a record on some prior domains are handled by conditioning only
//! on the domains they have actually worked on (Sec. IV-E).
//!
//! ## The likelihood-kernel layering
//!
//! Every likelihood-facing entry point (`log_likelihood`, `update`, `predict`,
//! `predict_batch`) is built on the batched [`kernel`] layer rather than a
//! per-observation loop: observations are grouped by observed-domain mask once
//! at entry ([`kernel::MaskGroups`]), and each model evaluation builds **one**
//! cached conditioning factorisation per unique mask
//! ([`c4u_stats::Conditioner`]) instead of one per worker. Each Eq. 6–7 epoch
//! takes its step on the closed-form gradient of
//! [`CpeLikelihoodKernel::log_likelihood_gradient`] (one vectorised
//! quadrature sweep per unique mask per epoch). The log-likelihood and
//! predict paths are bit-for-bit identical to the historical
//! per-observation code; the gradient agrees with central differences of the
//! log-likelihood to stencil accuracy (`tests/proptest_gradient.rs`).

pub mod kernel;

use crate::SelectionError;
use c4u_crowd_sim::parallel::run_indexed_jobs;
use c4u_crowd_sim::{HistoricalProfile, WorkerShards};
use c4u_linalg::{Matrix, Vector};
use c4u_stats::{
    mean as stat_mean, nearest_positive_definite, std_dev, GaussLegendre, MultivariateNormal,
    QuadratureMath, Uniform,
};
use kernel::CpeLikelihoodKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the CPE estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpeConfig {
    /// Learning rate for the mean vector (`r1` of Eq. 6; paper default `1e-7`).
    pub mean_learning_rate: f64,
    /// Learning rate for the covariance entries (`r2` of Eq. 7; paper default `1e-4`).
    pub covariance_learning_rate: f64,
    /// Number of gradient-descent epochs per round (`G`; paper default 50).
    pub epochs: usize,
    /// Initial mean accuracy assumed for the target domain (`a_T`; paper default 0.5).
    pub initial_target_accuracy: f64,
    /// Order of the Gauss–Legendre rule used for the `(0, 1)` integrals.
    pub quadrature_order: usize,
    /// Smallest variance allowed on any domain (keeps the covariance well-posed).
    pub min_variance: f64,
    /// Whether the per-worker prediction incorporates the worker's own observed
    /// correct/wrong counts (posterior mean) or only the cross-domain conditional
    /// (the literal reading of Eq. 8). The posterior form is the default because it
    /// is what lets golden questions discriminate between workers with identical
    /// profiles; the prior-only form is kept for ablations.
    pub use_posterior_prediction: bool,
    /// Seed for the uniform-random initialisation of the correlation parameters.
    pub correlation_seed: u64,
    /// Fold-pass arithmetic of the batched quadrature sweeps
    /// ([`c4u_stats::QuadratureMath`]). The default `Exact` mode is
    /// bit-identical to the scalar oracle; `FastVector` swaps the fold onto
    /// the lane-chunked polynomial `exp` (deterministic, ~1e-12 relative of
    /// `Exact` per cell) for throughput.
    pub quadrature_math: QuadratureMath,
}

impl Default for CpeConfig {
    fn default() -> Self {
        Self {
            mean_learning_rate: 1e-7,
            covariance_learning_rate: 1e-4,
            epochs: 50,
            initial_target_accuracy: 0.5,
            quadrature_order: 32,
            min_variance: 1e-4,
            use_posterior_prediction: true,
            correlation_seed: 21,
            quadrature_math: QuadratureMath::default(),
        }
    }
}

impl CpeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SelectionError> {
        positive_finite(
            "mean learning rate must be finite and > 0",
            self.mean_learning_rate,
        )?;
        positive_finite(
            "covariance learning rate must be finite and > 0",
            self.covariance_learning_rate,
        )?;
        if self.epochs == 0 {
            return Err(SelectionError::InvalidConfig {
                what: "epochs must be >= 1",
                value: 0.0,
            });
        }
        if !(0.0 < self.initial_target_accuracy && self.initial_target_accuracy < 1.0) {
            return Err(SelectionError::InvalidConfig {
                what: "initial target accuracy must lie in (0, 1)",
                value: self.initial_target_accuracy,
            });
        }
        if self.quadrature_order < 2 {
            return Err(SelectionError::InvalidConfig {
                what: "quadrature order must be >= 2",
                value: self.quadrature_order as f64,
            });
        }
        positive_finite("min_variance must be finite and > 0", self.min_variance)
    }
}

/// `Ok` when `value` is finite and strictly positive, else `InvalidConfig`.
fn positive_finite(what: &'static str, value: f64) -> Result<(), SelectionError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(SelectionError::InvalidConfig { what, value })
    }
}

/// One worker's evidence for a CPE update: the prior-domain profile plus the
/// correct/wrong counts of the current round (Eq. 3–4).
#[derive(Debug, Clone, PartialEq)]
pub struct CpeObservation {
    /// Observed prior-domain accuracies (index = domain, `None` = no record).
    pub prior_accuracies: Vec<Option<f64>>,
    /// Number of correct answers in the current round (`C_{i,c}`).
    pub correct: usize,
    /// Number of wrong answers in the current round (`X_{i,c}`).
    pub wrong: usize,
}

impl CpeObservation {
    /// Builds an observation from a historical profile and the round counts.
    pub fn from_profile(profile: &HistoricalProfile, correct: usize, wrong: usize) -> Self {
        Self {
            prior_accuracies: (0..profile.num_domains())
                .map(|d| profile.accuracy(d))
                .collect(),
            correct,
            wrong,
        }
    }
}

/// The cross-domain performance estimator.
#[derive(Debug, Clone)]
pub struct CrossDomainEstimator {
    config: CpeConfig,
    num_prior_domains: usize,
    mean: Vec<f64>,
    covariance: Matrix,
    quadrature: GaussLegendre,
}

impl CrossDomainEstimator {
    /// Initialises the estimator from the worker pool's historical profiles, exactly
    /// as described in Sec. V-C of the paper: prior-domain means/std-devs from the
    /// observed profiles, target mean `a_T`, target std-dev the average of the prior
    /// std-devs, and correlations drawn uniformly from `(0, 1)`.
    pub fn from_profiles(
        profiles: &[&HistoricalProfile],
        config: CpeConfig,
    ) -> Result<Self, SelectionError> {
        config.validate()?;
        if profiles.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let d = profiles.iter().map(|p| p.num_domains()).max().unwrap_or(0);
        if d == 0 {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }

        let mut means = Vec::with_capacity(d + 1);
        let mut stds = Vec::with_capacity(d + 1);
        for domain in 0..d {
            let values: Vec<f64> = profiles.iter().filter_map(|p| p.accuracy(domain)).collect();
            let m = if values.is_empty() {
                config.initial_target_accuracy
            } else {
                stat_mean(&values)
            };
            let s = if values.len() < 2 {
                0.15
            } else {
                std_dev(&values).max(config.min_variance.sqrt())
            };
            means.push(m.clamp(0.01, 0.99));
            stds.push(s);
        }
        let target_std = (stds.iter().sum::<f64>() / d as f64).max(config.min_variance.sqrt());
        means.push(config.initial_target_accuracy);
        stds.push(target_std);

        // Correlations uniformly random in (0, 1) (Sec. V-C).
        let mut rng = StdRng::seed_from_u64(config.correlation_seed);
        let uniform = Uniform::new(0.0, 1.0)?;
        let mut covariance = Matrix::zeros(d + 1, d + 1);
        for i in 0..(d + 1) {
            for j in 0..(d + 1) {
                if i == j {
                    covariance[(i, j)] = stds[i] * stds[i];
                } else if i < j {
                    let rho = uniform.sample(&mut rng);
                    covariance[(i, j)] = rho * stds[i] * stds[j];
                    covariance[(j, i)] = covariance[(i, j)];
                }
            }
        }
        let covariance = nearest_positive_definite(&covariance, config.min_variance)?;

        Ok(Self {
            config,
            num_prior_domains: d,
            mean: means,
            covariance,
            quadrature: GaussLegendre::new(config.quadrature_order),
        })
    }

    /// Number of prior domains `D`.
    pub fn num_prior_domains(&self) -> usize {
        self.num_prior_domains
    }

    /// Current mean vector `[mu_1, ..., mu_D, mu_T]`.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// Estimated correlation between prior domain `d` and the target domain — the
    /// quantity reported in the Sec. V-H discussion (P-F / F-F / E-F etc.).
    pub fn target_correlation(&self, d: usize) -> Result<f64, SelectionError> {
        let model = self.model()?;
        Ok(model.correlation(d, self.num_prior_domains)?)
    }

    /// The current multivariate-normal model.
    pub fn model(&self) -> Result<MultivariateNormal, SelectionError> {
        Ok(MultivariateNormal::new(
            Vector::from_slice(&self.mean),
            self.covariance.clone(),
        )?)
    }

    /// Marginal log-likelihood of a set of observations under the current model
    /// (Eq. 5), evaluated through the batched mask-grouped kernel.
    pub fn log_likelihood(&self, observations: &[CpeObservation]) -> Result<f64, SelectionError> {
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains,
            &self.quadrature,
            self.config.quadrature_math,
        );
        kernel.log_likelihood(&self.model()?)
    }

    /// Performs one round of the gradient-ascent update of Eq. 6–7: `epochs`
    /// ascent steps on the marginal log-likelihood, with separate learning
    /// rates for the mean and covariance parameters and a PSD projection after
    /// every step.
    ///
    /// The observations are mask-grouped **once** at entry, and within each
    /// mask their distinct profiles and distinct `(profile, correct, wrong)`
    /// cells are numbered; the count factors of the distinct `(correct,
    /// wrong)` pairs are tabulated once too. Each epoch then calls
    /// [`CpeLikelihoodKernel::log_likelihood_gradient`] once: it factorises
    /// one conditioner per unique missing-domain mask, computes one
    /// conditional mean `mu_T + alpha . (x - mu_G)` and one Gaussian row per
    /// distinct profile, spends three node-length dot products per distinct
    /// cell, and runs one observed-block solve per mask for the
    /// backpropagation. A model that cannot be built or a gradient that
    /// fails returns the error; no step is taken silently.
    pub fn update(&mut self, observations: &[CpeObservation]) -> Result<(), SelectionError> {
        if observations.is_empty() {
            return Ok(());
        }
        let dim = self.num_prior_domains + 1;
        // Field-level borrow: the epoch loop below mutates `mean`/`covariance`,
        // which are disjoint from the quadrature the kernel holds. One kernel
        // serves every epoch, so its profile/cell tables are built once and
        // its scratch buffers are grown once and reused by all
        // `epochs x unique_masks` sweeps.
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains,
            &self.quadrature,
            self.config.quadrature_math,
        );

        for _ in 0..self.config.epochs {
            // The epoch's model: the packed covariance rebuilt and projected
            // into the PSD cone again. The covariance is already projected, but
            // a second projection is not a bitwise no-op, and the pinned
            // update bits (`tests/fd_pinned.rs`) include it.
            let mut tri = lower_triangle(&self.covariance);
            let covariance = nearest_positive_definite(
                &from_lower_triangle(&tri, dim),
                self.config.min_variance,
            )?;
            let model = MultivariateNormal::new(Vector::from_slice(&self.mean), covariance)?;
            let grad = kernel.log_likelihood_gradient(&model)?;

            // Ascend with the two learning rates (Eq. 6 for the mean, Eq. 7
            // for Sigma), each gradient entry clamped to +-1e6.
            for (value, &g) in self.mean.iter_mut().zip(&grad.d_mean) {
                *value = (*value + self.config.mean_learning_rate * g.clamp(-1e6, 1e6))
                    .clamp(0.01, 0.99);
            }
            for (value, &g) in tri.iter_mut().zip(grad.d_covariance.as_slice()) {
                *value += self.config.covariance_learning_rate * g.clamp(-1e6, 1e6);
            }
            let candidate = from_lower_triangle(&tri, dim);
            self.covariance = nearest_positive_definite(&candidate, self.config.min_variance)?;
        }
        Ok(())
    }

    /// Predicted target-domain accuracy of a worker (Eq. 8).
    ///
    /// With [`CpeConfig::use_posterior_prediction`] (the default) the prediction is
    /// the posterior mean of the target accuracy given both the prior-domain profile
    /// and the worker's observed correct/wrong counts; otherwise it is the truncated
    /// conditional mean given the profile alone.
    pub fn predict(&self, obs: &CpeObservation) -> Result<f64, SelectionError> {
        let mut predictions = self.predict_batch(std::slice::from_ref(obs))?;
        Ok(predictions
            .pop()
            // c4u-lint: allow(no-unwrap-in-lib, reason = "predict_batch on one observation returns exactly one prediction")
            .expect("one observation yields one prediction"))
    }

    /// Predicted accuracies for a whole batch of observations, in order, sharing
    /// one conditioning factorisation per unique missing-domain mask.
    pub fn predict_batch(
        &self,
        observations: &[CpeObservation],
    ) -> Result<Vec<f64>, SelectionError> {
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains,
            &self.quadrature,
            self.config.quadrature_math,
        );
        kernel.predict(&self.model()?, self.config.use_posterior_prediction)
    }

    /// [`Self::predict_batch`] over an explicit worker-range partition: each
    /// shard's observations are mask-grouped and predicted independently on a
    /// scoped thread, and the per-shard predictions are concatenated back in
    /// observation order.
    ///
    /// Every Eq. 8 prediction depends only on its own observation and the
    /// (shared, immutable) model, so the result is **identical** to the
    /// unsharded path for every shard layout — the shard boundary changes
    /// which workers share a conditioning factorisation, never any predicted
    /// value. `shards` must partition exactly `observations.len()` positions.
    pub fn predict_batch_sharded(
        &self,
        observations: &[CpeObservation],
        shards: &WorkerShards,
    ) -> Result<Vec<f64>, SelectionError> {
        if shards.len() != observations.len() {
            return Err(SelectionError::InvalidConfig {
                what: "shard partition must cover the observations exactly",
                value: shards.len() as f64,
            });
        }
        if shards.num_shards() <= 1 {
            return self.predict_batch(observations);
        }
        let model = self.model()?;
        let num_shards = shards.num_shards();
        let per_shard: Vec<Vec<f64>> = run_indexed_jobs(num_shards, num_shards, |shard| {
            let kernel = CpeLikelihoodKernel::new_with_math(
                &observations[shards.range(shard)],
                self.num_prior_domains,
                &self.quadrature,
                self.config.quadrature_math,
            );
            kernel.predict(&model, self.config.use_posterior_prediction)
        })?;
        Ok(per_shard.into_iter().flatten().collect())
    }
}

/// Lower-triangle (row-major) packing of a symmetric matrix.
fn lower_triangle(m: &Matrix) -> Vec<f64> {
    let n = m.nrows();
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in 0..=i {
            out.push(m[(i, j)]);
        }
    }
    out
}

/// Inverse of [`lower_triangle`]: rebuilds the symmetric matrix.
fn from_lower_triangle(tri: &[f64], n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        for j in 0..=i {
            m[(i, j)] = tri[k];
            m[(j, i)] = tri[k];
            k += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::HistoricalProfile;

    fn profiles() -> Vec<HistoricalProfile> {
        vec![
            HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
        ]
    }

    fn estimator() -> CrossDomainEstimator {
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CpeConfig::default().validate().is_ok());
        assert!(CpeConfig {
            mean_learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CpeConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CpeConfig {
            initial_target_accuracy: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CpeConfig {
            quadrature_order: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CpeConfig {
            min_variance: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        // Infinite values are rejected up front: an infinite mean rate would
        // pin the mean to the clamp corners on the first step, and an
        // infinite covariance rate or variance floor would only fail later,
        // in the PSD repair.
        for config in [
            CpeConfig {
                mean_learning_rate: f64::INFINITY,
                ..Default::default()
            },
            CpeConfig {
                covariance_learning_rate: f64::INFINITY,
                ..Default::default()
            },
            CpeConfig {
                min_variance: f64::INFINITY,
                ..Default::default()
            },
        ] {
            assert!(
                matches!(
                    config.validate(),
                    Err(SelectionError::InvalidConfig { value, .. }) if value == f64::INFINITY
                ),
                "{config:?}"
            );
            let profiles = profiles();
            let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
            assert!(CrossDomainEstimator::from_profiles(&refs, config).is_err());
        }
    }

    #[test]
    fn initialisation_matches_profile_moments() {
        let est = estimator();
        assert_eq!(est.num_prior_domains(), 3);
        assert_eq!(est.mean().len(), 4);
        // Prior-domain means equal the observed pool means.
        assert!((est.mean()[0] - 0.6).abs() < 1e-9);
        assert!((est.mean()[1] - 0.7).abs() < 1e-9);
        assert!((est.mean()[2] - 0.5).abs() < 1e-9);
        // Target mean initialised to a_T = 0.5.
        assert!((est.mean()[3] - 0.5).abs() < 1e-9);
        // Covariance is usable (positive definite) and correlations lie in [0, 1].
        for d in 0..3 {
            let rho = est.target_correlation(d).unwrap();
            assert!((-0.01..=1.0).contains(&rho), "rho {rho}");
        }
        assert!(CrossDomainEstimator::from_profiles(&[], CpeConfig::default()).is_err());
    }

    #[test]
    fn strong_profile_predicts_higher_accuracy() {
        let est = estimator();
        let strong = CpeObservation {
            prior_accuracies: vec![Some(0.95), Some(0.95), Some(0.9)],
            correct: 0,
            wrong: 0,
        };
        let weak = CpeObservation {
            prior_accuracies: vec![Some(0.2), Some(0.3), Some(0.2)],
            correct: 0,
            wrong: 0,
        };
        let ps = est.predict(&strong).unwrap();
        let pw = est.predict(&weak).unwrap();
        assert!(ps > pw, "strong {ps} weak {pw}");
        assert!((0.0..=1.0).contains(&ps));
        assert!((0.0..=1.0).contains(&pw));
    }

    #[test]
    fn observed_answers_shift_the_posterior_prediction() {
        let est = estimator();
        let base = CpeObservation {
            prior_accuracies: vec![Some(0.6), Some(0.7), Some(0.5)],
            correct: 0,
            wrong: 0,
        };
        let good = CpeObservation {
            correct: 9,
            wrong: 1,
            ..base.clone()
        };
        let bad = CpeObservation {
            correct: 1,
            wrong: 9,
            ..base.clone()
        };
        let p_base = est.predict(&base).unwrap();
        let p_good = est.predict(&good).unwrap();
        let p_bad = est.predict(&bad).unwrap();
        assert!(p_good > p_base, "good {p_good} base {p_base}");
        assert!(p_bad < p_base, "bad {p_bad} base {p_base}");
    }

    #[test]
    fn prior_only_prediction_ignores_answers() {
        let config = CpeConfig {
            use_posterior_prediction: false,
            ..Default::default()
        };
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        let base = CpeObservation {
            prior_accuracies: vec![Some(0.6), Some(0.7), Some(0.5)],
            correct: 0,
            wrong: 0,
        };
        let good = CpeObservation {
            correct: 10,
            wrong: 0,
            ..base.clone()
        };
        let a = est.predict(&base).unwrap();
        let b = est.predict(&good).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn missing_domains_are_conditioned_out() {
        let est = estimator();
        let partial = CpeObservation {
            prior_accuracies: vec![Some(0.9), None, None],
            correct: 5,
            wrong: 5,
        };
        let none = CpeObservation {
            prior_accuracies: vec![None, None, None],
            correct: 5,
            wrong: 5,
        };
        let p_partial = est.predict(&partial).unwrap();
        let p_none = est.predict(&none).unwrap();
        assert!((0.0..=1.0).contains(&p_partial));
        assert!((0.0..=1.0).contains(&p_none));
        // A strong record on the observed domain should still pull the estimate up.
        assert!(p_partial >= p_none - 1e-9);
    }

    #[test]
    fn update_improves_log_likelihood() {
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        // Larger learning rates and fewer epochs keep the test fast while still
        // demonstrating likelihood ascent.
        let config = CpeConfig {
            mean_learning_rate: 1e-4,
            covariance_learning_rate: 1e-4,
            epochs: 10,
            ..Default::default()
        };
        let mut est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        // Evidence: the strong-profile workers also answer well, the weak ones badly.
        let observations: Vec<CpeObservation> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let correct = [9, 8, 4, 2][i];
                CpeObservation::from_profile(p, correct, 10 - correct)
            })
            .collect();
        let before = est.log_likelihood(&observations).unwrap();
        est.update(&observations).unwrap();
        let after = est.log_likelihood(&observations).unwrap();
        assert!(
            after >= before - 1e-6,
            "log-likelihood should not decrease: {before} -> {after}"
        );
        // The model stays usable after the update.
        assert!(est.model().is_ok());
        let p = est.predict(&observations[0]).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn underflow_regime_update_stays_finite() {
        // Counts so large that the normaliser underflows: every log Z is -inf.
        // The gradient must skip the underflowed terms instead of poisoning
        // the accumulator with NaN, which the clamp would push straight into
        // the mean and covariance.
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let observations = vec![CpeObservation {
            prior_accuracies: vec![Some(0.6), Some(0.7), Some(0.5)],
            correct: 500_000,
            wrong: 500_000,
        }];
        let config = CpeConfig {
            mean_learning_rate: 1e-4,
            covariance_learning_rate: 1e-4,
            epochs: 2,
            ..Default::default()
        };
        let mut est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        let before_mean = est.mean().to_vec();
        est.update(&observations).unwrap();
        assert!(
            est.mean().iter().all(|m| m.is_finite()),
            "NaN poisoned the mean: {:?}",
            est.mean()
        );
        assert!(
            est.covariance().as_slice().iter().all(|c| c.is_finite()),
            "NaN poisoned the covariance"
        );
        // The underflowed evidence contributes no gradient, so it moves
        // nothing — and the model stays usable.
        assert_eq!(est.mean(), before_mean.as_slice());
        assert!(est.model().is_ok());
    }

    #[test]
    fn empty_update_is_a_noop() {
        let mut est = estimator();
        let mean_before = est.mean().to_vec();
        est.update(&[]).unwrap();
        assert_eq!(est.mean(), mean_before.as_slice());
    }

    #[test]
    fn log_likelihood_is_finite_for_large_counts() {
        let est = estimator();
        let obs = CpeObservation {
            prior_accuracies: vec![Some(0.8), Some(0.9), Some(0.7)],
            correct: 140,
            wrong: 2,
        };
        let ll = est.log_likelihood(std::slice::from_ref(&obs)).unwrap();
        assert!(ll.is_finite());
        let p = est.predict(&obs).unwrap();
        assert!(p > 0.8, "prediction {p} should reflect the strong record");
    }

    #[test]
    fn triangle_packing_roundtrip() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.2, 0.3],
            vec![0.2, 2.0, 0.4],
            vec![0.3, 0.4, 3.0],
        ])
        .unwrap();
        let tri = lower_triangle(&m);
        assert_eq!(tri.len(), 6);
        let back = from_lower_triangle(&tri, 3);
        assert!(back.max_abs_diff(&m).unwrap() < 1e-12);
    }

    #[test]
    fn observation_from_profile_copies_counts() {
        let p = HistoricalProfile::new(vec![Some(0.7), None], vec![10, 0]).unwrap();
        let obs = CpeObservation::from_profile(&p, 6, 4);
        assert_eq!(obs.prior_accuracies, vec![Some(0.7), None]);
        assert_eq!(obs.correct, 6);
        assert_eq!(obs.wrong, 4);
    }
}
