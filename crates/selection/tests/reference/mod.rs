//! Shared test support: a literal transcription of the historical
//! per-observation CPE likelihood path, kept verbatim as ground truth for the
//! batched mask-grouped kernel, and of the historical central-difference
//! update, kept as the cross-check for the closed-form Eq. 6–7 gradient.
//!
//! `kernel_equivalence.rs` (exact-state equivalence), `proptest_kernel.rs`
//! (randomised equivalence), `fd_pinned.rs` and `proptest_gradient.rs` (the
//! finite-difference update) all compare against this single copy, so the
//! transcription cannot silently drift between suites.

// Each including binary uses a different subset of this support module; the
// unused remainder would otherwise trip per-binary dead-code lints.
#![allow(dead_code)]

use c4u_optim::gradient_with_step;
use c4u_selection::{observed_domains, CpeConfig, CpeObservation, CrossDomainEstimator};
// Matrix/Vector via the stats re-exports: every including crate depends on
// c4u-stats, but not all of them on c4u-linalg directly.
use c4u_stats::{
    binomial_normal_moments, nearest_positive_definite, GaussLegendre, Matrix, MultivariateNormal,
    Vector,
};

/// Lower-triangle (row-major) packing of a symmetric matrix (transcribed from
/// the estimator's private helper).
pub fn lower_triangle(m: &Matrix) -> Vec<f64> {
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
pub fn from_lower_triangle(tri: &[f64], n: usize) -> Matrix {
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

/// One `log Z` term of Eq. 5: per-observation conditioning, exactly as the
/// pre-kernel code did it.
pub fn reference_worker_log_likelihood(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    obs: &CpeObservation,
) -> f64 {
    let (idx, values) = observed_domains(obs, num_domains);
    let cond = model.condition_on(num_domains, &idx, &values).unwrap();
    let (log_z, _) = binomial_normal_moments(
        quadrature,
        cond.mean,
        cond.std_dev(),
        obs.correct as f64,
        obs.wrong as f64,
    );
    log_z
}

/// Per-observation reference for the total log-likelihood.
pub fn reference_log_likelihood(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    observations: &[CpeObservation],
) -> f64 {
    let mut total = 0.0;
    for obs in observations {
        total += reference_worker_log_likelihood(model, quadrature, num_domains, obs);
    }
    total
}

/// Per-observation reference for the batch prediction (Eq. 8).
pub fn reference_predict(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    observations: &[CpeObservation],
    use_posterior: bool,
) -> Vec<f64> {
    observations
        .iter()
        .map(|obs| {
            let (idx, values) = observed_domains(obs, num_domains);
            let cond = model.condition_on(num_domains, &idx, &values).unwrap();
            let (c, x) = if use_posterior {
                (obs.correct as f64, obs.wrong as f64)
            } else {
                (0.0, 0.0)
            };
            let (log_z, posterior_mean) =
                binomial_normal_moments(quadrature, cond.mean, cond.std_dev(), c, x);
            assert!(log_z.is_finite() && posterior_mean.is_finite());
            posterior_mean.clamp(0.0, 1.0)
        })
        .collect()
}

/// The historical per-observation CPE estimator loop (pre-kernel), seeded with
/// the exact state of a live [`CrossDomainEstimator`].
pub struct ReferenceEstimator {
    pub config: CpeConfig,
    pub d: usize,
    pub mean: Vec<f64>,
    pub covariance: Matrix,
    pub quadrature: GaussLegendre,
}

impl ReferenceEstimator {
    /// Seeds the reference with the exact state of a live estimator.
    pub fn from_estimator(est: &CrossDomainEstimator, config: CpeConfig) -> Self {
        Self {
            config,
            d: est.num_prior_domains(),
            mean: est.mean().to_vec(),
            covariance: est.covariance().clone(),
            quadrature: GaussLegendre::new(config.quadrature_order),
        }
    }

    pub fn model(&self) -> MultivariateNormal {
        MultivariateNormal::new(Vector::from_slice(&self.mean), self.covariance.clone()).unwrap()
    }

    pub fn log_likelihood(&self, observations: &[CpeObservation]) -> f64 {
        reference_log_likelihood(&self.model(), &self.quadrature, self.d, observations)
    }

    fn objective_at(&self, params: &[f64], observations: &[CpeObservation]) -> Option<f64> {
        let mean = &params[..self.d + 1];
        let cov = from_lower_triangle(&params[self.d + 1..], self.d + 1);
        let cov = nearest_positive_definite(&cov, self.config.min_variance).ok()?;
        let model = MultivariateNormal::new(Vector::from_slice(mean), cov).ok()?;
        Some(-reference_log_likelihood(
            &model,
            &self.quadrature,
            self.d,
            observations,
        ))
    }

    /// The historical `update` body: per-observation objective, fixed-step
    /// central differences, two learning rates, PSD projection per epoch.
    pub fn update(&mut self, observations: &[CpeObservation]) {
        if observations.is_empty() {
            return;
        }
        let d = self.d;
        let n_mean = d + 1;
        let n_cov = (d + 1) * (d + 2) / 2;

        for _ in 0..self.config.epochs {
            let mut params = Vec::with_capacity(n_mean + n_cov);
            params.extend_from_slice(&self.mean);
            params.extend(lower_triangle(&self.covariance));

            let objective = |p: &[f64]| self.objective_at(p, observations).unwrap_or(1e12);
            let grad = gradient_with_step(objective, &params, 1e-5);

            for (i, value) in self.mean.iter_mut().enumerate() {
                let g = grad[i].clamp(-1e6, 1e6);
                *value = (*value - self.config.mean_learning_rate * g).clamp(0.01, 0.99);
            }
            let mut tri = lower_triangle(&self.covariance);
            for (j, value) in tri.iter_mut().enumerate() {
                let g = grad[n_mean + j].clamp(-1e6, 1e6);
                *value -= self.config.covariance_learning_rate * g;
            }
            let candidate = from_lower_triangle(&tri, d + 1);
            self.covariance =
                nearest_positive_definite(&candidate, self.config.min_variance).unwrap();
        }
    }

    /// The historical `predict`: a fresh model build *and* a fresh conditioning
    /// per call (the numbers are identical either way, but for bench honesty
    /// the per-call model build is part of the old path's cost).
    pub fn predict(&self, obs: &CpeObservation) -> f64 {
        reference_predict(
            &self.model(),
            &self.quadrature,
            self.d,
            std::slice::from_ref(obs),
            self.config.use_posterior_prediction,
        )[0]
    }

    /// The historical `predict_batch`: one `predict` (model + conditioning)
    /// per observation.
    pub fn predict_batch(&self, observations: &[CpeObservation]) -> Vec<f64> {
        observations.iter().map(|obs| self.predict(obs)).collect()
    }
}
