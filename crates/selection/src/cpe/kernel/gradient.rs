//! Closed-form Eq. 6–7 gradients of the CPE marginal log-likelihood,
//! accumulated per mask group.
//!
//! The Eq. 5 objective is `L = Σ_i log Z_i` with
//! `Z_i = ∫_0^1 h^{C_i} (1-h)^{X_i} N(h; m_i, v) dh`, where `(m_i, v)` are the
//! conditional mean and variance of the target accuracy given worker `i`'s
//! observed prior domains.
//! [`c4u_stats::BinomialNormalBatch::log_z_gradients_factored_into`] supplies
//! `∂ log Z_i / ∂ m_i` and `∂ log Z_i / ∂ v` in one factored sweep per mask
//! group (the variance is shared by every member of a group; members sharing
//! a `(profile, correct, wrong)` cell share one cell; each profile gets one
//! Gaussian row and each count pair one row of the kernel's count-factor
//! table); this module backpropagates those two scalars through the
//! conditioning map onto the model parameters the estimator actually
//! optimises: the mean vector and the packed lower triangle of the
//! covariance.
//!
//! With `T` the target coordinate, `G` the observed set,
//! `alpha = Sigma_GG^{-1} Sigma_GT` ([`Conditioner::weights`]) and
//! `w_i = Sigma_GG^{-1} (x_i - mu_G)` (the per-member solve of
//! [`Conditioner::condition_full`], which this module never computes):
//!
//! ```text
//! m_i = mu_T + Sigma_TG w_i          v = Sigma_TT - Sigma_TG alpha
//!     = mu_T + alpha . (x_i - mu_G)
//!
//! ∂ m_i / ∂ mu_T        = 1          ∂ v / ∂ Sigma_TT       = 1
//! ∂ m_i / ∂ mu_G        = -alpha     ∂ v / ∂ Sigma_Tg       = -2 alpha_g
//! ∂ m_i / ∂ Sigma_Tg    = w_{i,g}    ∂ v / ∂ Sigma_GG       = +alpha alpha^T
//! ∂ m_i / ∂ Sigma_GG    = -sym(alpha w_i^T)
//! ```
//!
//! where `sym` is the symmetric-parameter rule of
//! [`PackedLowerTriangle::add_sym_outer`] (the packed off-diagonal entry is one
//! parameter appearing at both mirror positions). Everything except the
//! `Sigma_Tg` term is linear in the per-member quantities, so a group costs one
//! accumulation of `Σ_i ∂L/∂m_i` and `Σ_i (∂L/∂m_i) w_i` plus an `O(g^2)`
//! rank-two packed update — per **group**, not per worker. The solve is
//! linear too, so `Σ_i (∂L/∂m_i) w_i = Sigma_GG^{-1} Σ_i (∂L/∂m_i)(x_i - mu_G)`:
//! the conditional means come from `alpha` alone, and the group runs one
//! observed-block solve ([`Conditioner::solve`]) instead of one per profile.
//! This rounds differently from the per-profile solves, so the gradient is
//! held to the per-member result by tolerance, not bit for bit.
//!
//! An observation whose normaliser underflows (`log Z = -inf`) contributes zero
//! gradient rather than NaN, so `CrossDomainEstimator::update` never steps
//! the parameters into NaN.

use super::CpeLikelihoodKernel;
use crate::SelectionError;
use c4u_linalg::PackedLowerTriangle;
use c4u_stats::{Conditioner, LogZGradient, MultivariateNormal};

/// The Eq. 5 log-likelihood together with its closed-form Eq. 6–7 gradient in
/// model coordinates.
///
/// ```
/// use c4u_linalg::{Matrix, Vector};
/// use c4u_selection::{CpeLikelihoodKernel, CpeObservation};
/// use c4u_stats::{GaussLegendre, MultivariateNormal};
///
/// let observations = vec![
///     CpeObservation { prior_accuracies: vec![Some(0.8), Some(0.7)], correct: 8, wrong: 2 },
/// ];
/// let quadrature = GaussLegendre::new(32);
/// let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
/// // Mean [mu_1, mu_2, mu_T] and covariance of the cross-domain normal.
/// let model = MultivariateNormal::new(
///     Vector::from_slice(&[0.65, 0.6, 0.5]),
///     Matrix::from_rows(&[
///         vec![0.02, 0.0, 0.0],
///         vec![0.0, 0.02, 0.0],
///         vec![0.0, 0.0, 0.02],
///     ])
///     .unwrap(),
/// )
/// .unwrap();
///
/// // One factored quadrature sweep per mask yields log L and its gradient.
/// let fused = kernel.log_likelihood_gradient(&model).unwrap();
/// assert!(fused.log_likelihood.is_finite());
/// // Packed layout: the Eq. 6 mean block, then the row-major lower
/// // covariance triangle (the Eq. 7 block).
/// assert_eq!(fused.packed().len(), 3 + 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LikelihoodGradient {
    /// Total marginal log-likelihood `Σ_i log Z_i` (may be `-inf` when some
    /// normaliser underflows; the gradient stays finite regardless).
    pub log_likelihood: f64,
    /// `∂L/∂mu` — gradient with respect to the mean vector (length `D + 1`).
    pub d_mean: Vec<f64>,
    /// `∂L/∂Sigma` — gradient with respect to the packed lower triangle of the
    /// covariance (the estimator's covariance parameterisation).
    pub d_covariance: PackedLowerTriangle,
}

impl LikelihoodGradient {
    /// The gradient flattened into the estimator's packed parameter layout:
    /// mean entries first, then the row-major packed covariance triangle.
    pub fn packed(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.d_mean.len() + self.d_covariance.as_slice().len());
        out.extend_from_slice(&self.d_mean);
        out.extend_from_slice(self.d_covariance.as_slice());
        out
    }
}

impl CpeLikelihoodKernel<'_> {
    /// The marginal log-likelihood of every observation under `model` and its
    /// closed-form gradient with respect to the model parameters, accumulated
    /// per mask group.
    ///
    /// Cost per model evaluation: one conditioning factorisation, one
    /// factored quadrature sweep and one observed-block solve per unique
    /// mask — `O(1)` likelihood sweeps per gradient, where central
    /// differences would take `2 x (D+1)(D+4)/2`.
    /// Within a mask, one conditional mean and one Gaussian row per distinct
    /// profile and three node-length dot products per distinct cell; the
    /// per-member accumulation then runs in the original member order, so
    /// the result does not depend on how members share profiles and cells.
    pub fn log_likelihood_gradient(
        &self,
        model: &MultivariateNormal,
    ) -> Result<LikelihoodGradient, SelectionError> {
        let dim = self.target + 1;
        let mut d_mean = vec![0.0; dim];
        let mut d_cov = PackedLowerTriangle::zeros(dim);
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        // Per-observation log Z in original observation order, so the reported
        // likelihood sums in the same order as
        // CpeLikelihoodKernel::log_likelihood.
        s.per_obs_log_z.clear();
        s.per_obs_log_z.resize(self.observations.len(), 0.0);

        for group in self.groups.groups() {
            let conditioner: Conditioner = model.conditioner(self.target, group.observed_idx())?;
            let sigma = conditioner.variance().sqrt();
            let idx = group.observed_idx();
            let alpha = conditioner.weights();
            let mu_g = conditioner.given_means();

            // Conditional means, one per distinct profile:
            // m = mu_T + alpha . (x - mu_G), with no per-profile solve.
            s.profile_mu.clear();
            s.profile_mu.extend(group.profile_values().map(|values| {
                let mut shift = 0.0;
                for ((&a, &x), &m) in alpha.iter().zip(values).zip(mu_g) {
                    shift += a * (x - m);
                }
                conditioner.target_mean() + shift
            }));

            // One factored sweep: log Z, ∂/∂m, ∂/∂v for every distinct cell
            // of the group (in sweep order, profile by profile), from the
            // kernel's count-factor table and one Gaussian row per profile,
            // into the reused gradient buffer.
            s.grads.clear();
            s.grads.resize(group.num_cells(), LogZGradient::default());
            self.batch.log_z_gradients_factored_into(
                sigma,
                &self.count_factors,
                &s.profile_mu,
                &group.sweep_cells,
                &mut s.grads,
                &mut s.quad,
            );

            // Group-level sufficient statistics of the backpropagation,
            // accumulated per member in the original member order.
            let mut sum_d_mean = 0.0;
            let mut sum_d_var = 0.0;
            s.profile_dm.clear();
            s.profile_dm.resize(group.num_profiles(), 0.0);
            let members = group.members().iter().zip(group.cell_of());
            for ((&position, &cell), &profile) in members.zip(group.profile_of()) {
                let grad = &s.grads[group.sweep_slot[cell]];
                s.per_obs_log_z[position] = grad.log_z;
                if !grad.is_finite() {
                    // Underflowed normaliser: zero contribution, never NaN.
                    continue;
                }
                sum_d_mean += grad.d_mean;
                sum_d_var += grad.d_variance;
                s.profile_dm[profile] += grad.d_mean;
            }

            // Σ_i (∂L/∂m_i) w_i = Σ_GG^{-1} Σ_p (Σ_{i in p} ∂L/∂m_i)(x_p - mu_G):
            // one solve per mask.
            s.dm_x.clear();
            s.dm_x.resize(idx.len(), 0.0);
            for (&dm, values) in s.profile_dm.iter().zip(group.profile_values()) {
                for ((acc, &x), &m) in s.dm_x.iter_mut().zip(values).zip(mu_g) {
                    *acc += dm * (x - m);
                }
            }
            let dm_w = conditioner.solve(&s.dm_x)?;
            let dm_w = dm_w.as_slice();

            // Mean backpropagation: ∂m/∂mu_T = 1, ∂m/∂mu_G = -alpha.
            d_mean[self.target] += sum_d_mean;
            for (g, &gp) in idx.iter().enumerate() {
                d_mean[gp] -= sum_d_mean * alpha[g];
            }

            // Covariance backpropagation onto the packed triangle.
            d_cov
                .add(self.target, self.target, sum_d_var)
                .map_err(cpe_linalg_error)?;
            for (g, &gp) in idx.iter().enumerate() {
                // ∂m/∂Sigma_Tg = w_g (per member) and ∂v/∂Sigma_Tg = -2 alpha_g.
                d_cov
                    .add(self.target, gp, dm_w[g] - 2.0 * sum_d_var * alpha[g])
                    .map_err(cpe_linalg_error)?;
            }
            // ∂m/∂Sigma_GG = -sym(alpha w^T), summed over members.
            d_cov
                .add_sym_outer(-1.0, idx, alpha, dm_w)
                .map_err(cpe_linalg_error)?;
            // ∂v/∂Sigma_GG = +alpha alpha^T.
            d_cov
                .add_sym_outer(sum_d_var, idx, alpha, alpha)
                .map_err(cpe_linalg_error)?;
        }

        let mut log_likelihood = 0.0;
        for term in &s.per_obs_log_z {
            log_likelihood += term;
        }
        Ok(LikelihoodGradient {
            log_likelihood,
            d_mean,
            d_covariance: d_cov,
        })
    }
}

fn cpe_linalg_error(e: c4u_linalg::LinalgError) -> SelectionError {
    SelectionError::Numerical(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpe::{CpeObservation, CrossDomainEstimator};
    use crate::CpeConfig;
    use c4u_crowd_sim::HistoricalProfile;
    use c4u_linalg::Vector;
    use c4u_stats::GaussLegendre;

    fn estimator() -> CrossDomainEstimator {
        let profiles = [
            HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
        ];
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap()
    }

    fn observations() -> Vec<CpeObservation> {
        vec![
            CpeObservation {
                prior_accuracies: vec![Some(0.9), Some(0.9), Some(0.8)],
                correct: 9,
                wrong: 1,
            },
            CpeObservation {
                prior_accuracies: vec![Some(0.4), None, Some(0.3)],
                correct: 3,
                wrong: 7,
            },
        ]
    }

    #[test]
    fn fused_log_likelihood_tracks_the_log_z_only_sweep() {
        let est = estimator();
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 3, &quadrature);

        let fused = kernel
            .log_likelihood_gradient(&est.model().unwrap())
            .unwrap();
        assert_eq!(fused.packed().len(), 4 + 10);
        assert!(fused.packed().iter().all(|g| g.is_finite()), "{fused:?}");
        // The gradient sweep's fused log L describes the same model as the
        // log-Z-only path, to float rounding.
        let direct = est.log_likelihood(&obs).unwrap();
        assert!(
            (fused.log_likelihood - direct).abs() <= 1e-9 * (1.0 + direct.abs()),
            "fused {} vs log-Z-only {direct}",
            fused.log_likelihood
        );
    }

    /// The collapsed-variance trap seen on pool_large seed 12: after one
    /// epoch the conditional sd fell to about 3.65e-4 with every conditional
    /// mean near 0.498, far below the spacing of the quadrature nodes around
    /// 0.5. The per-cell gradient sweep shifted each cell by its
    /// bracketing-grid peak, so every node term underflowed: it returned
    /// `log L = -inf` and an all-zero gradient, and the model stayed stuck
    /// for the remaining epochs. The factored sweep shifts the count and
    /// Gaussian factors by their own node maxima and stays finite.
    #[test]
    fn collapsed_conditional_variance_keeps_a_finite_gradient() {
        let (var_g, var_t, sd): (f64, f64, f64) = (0.02, 0.01, 3.65e-4);
        let cov_tg = (var_g * (var_t - sd * sd)).sqrt();
        let model = MultivariateNormal::new(
            Vector::from_slice(&[0.5, 0.498]),
            c4u_linalg::Matrix::from_rows(&[vec![var_g, cov_tg], vec![cov_tg, var_t]]).unwrap(),
        )
        .unwrap();
        let conditioner = model.conditioner(1, &[0]).unwrap();
        assert!((conditioner.variance().sqrt() - sd).abs() < 1e-6);
        let observations: Vec<CpeObservation> = [0.499, 0.5, 0.5005]
            .iter()
            .map(|&x| CpeObservation {
                prior_accuracies: vec![Some(x)],
                correct: 12,
                wrong: 8,
            })
            .collect();
        let quadrature = GaussLegendre::new(CpeConfig::default().quadrature_order);
        let kernel = CpeLikelihoodKernel::new(&observations, 1, &quadrature);
        // The per-cell log-Z path still underflows at this model.
        assert_eq!(kernel.log_likelihood(&model).unwrap(), f64::NEG_INFINITY);

        let fused = kernel.log_likelihood_gradient(&model).unwrap();
        assert!(fused.log_likelihood.is_finite(), "{fused:?}");
        assert!(fused.packed().iter().all(|g| g.is_finite()), "{fused:?}");
        let d_var_t = fused.d_covariance.as_slice()[2];
        assert!(d_var_t != 0.0, "{fused:?}");
    }
}
