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
//! gradient: the finite-difference stencil would see `∞ - ∞ = NaN` there, which
//! is exactly the poisoning the penalty mapping in
//! `CrossDomainEstimator::update` guards against.

use super::CpeLikelihoodKernel;
use crate::cpe::{from_lower_triangle, OBJECTIVE_PENALTY};
use crate::SelectionError;
use c4u_linalg::{packed_length, PackedLowerTriangle, Vector};
use c4u_optim::GradientOracle;
use c4u_stats::{nearest_positive_definite, Conditioner, LogZGradient, MultivariateNormal};
use std::cell::RefCell;

/// The Eq. 5 log-likelihood together with its closed-form Eq. 6–7 gradient in
/// model coordinates.
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
    /// mask — `O(1)` likelihood sweeps per gradient, against the
    /// `2 x (D+1)(D+4)/2` full sweeps of the central-difference oracle.
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

/// The closed-form Eq. 6–7 [`GradientOracle`] over the packed CPE parameters —
/// the `CpeGradient::Analytic` face of the seam.
///
/// The parameter vector is the estimator's packing: the `D + 1` mean entries
/// followed by the row-major packed lower triangle of the covariance. Both the
/// objective and the gradient evaluate the model exactly as the
/// finite-difference oracle's objective does — covariance rebuilt from the
/// triangle, projected by [`nearest_positive_definite`]. Strictly in the
/// interior of the PD cone (projection and variance floors inactive — every
/// iterate the estimator produces, since `update()` re-projects after each
/// step) the two oracles describe the same smooth objective and agree to
/// stencil accuracy. *At* a clamp boundary they differ by construction: the
/// stencil differentiates through the projection (flat on the infeasible
/// side), while the analytic gradient is taken at the projected point — the
/// per-epoch PSD projection is what keeps that discrepancy from ever leaving
/// the feasible set.
///
/// Non-finite objective values map to the same `1e12` penalty as the
/// finite-difference path; a gradient evaluation that fails to build a model
/// (parameters outside the representable cone) returns the zero vector, which
/// leaves the parameters unchanged for that epoch instead of poisoning them.
///
/// ## Fused objective/gradient evaluation
///
/// [`CpeLikelihoodKernel::log_likelihood_gradient`] produces `log Z` **and**
/// its derivatives from one quadrature sweep, so the oracle never integrates
/// twice for the same point: both [`GradientOracle::objective`] and
/// [`GradientOracle::gradient`] run the fused sweep and memoise the pair for
/// the evaluated parameter vector. A descent driver that asks for the
/// objective and the gradient at the same iterate — e.g.
/// [`GradientDescent::minimize_with_oracle`](c4u_optim::GradientDescent::minimize_with_oracle)'s
/// per-epoch diagnostics — therefore pays **one** sweep per iterate instead of
/// two.
///
/// The fused `log Z` agrees with the dedicated log-Z-only sweep
/// ([`CpeLikelihoodKernel::log_likelihood`]) to float rounding, `~1e-12`
/// (`c4u-stats` pins the per-cell agreement in
/// `factored_gradients_track_the_per_cell_sweep`), except where the log-Z-only
/// sweep underflows to `-inf` and the factored sweep stays finite — but it is
/// **not bit-identical**, and a descent loop that selects its returned
/// best iterate by objective value could in principle flip between iterates
/// whose objectives differ by less than that drift. This is an accepted
/// trade: [`CrossDomainEstimator::update`](crate::CrossDomainEstimator::update)
/// — the only in-workspace consumer — drives this oracle through
/// [`GradientOracle::gradient`] alone (its two-learning-rate loop never asks
/// for the objective), so the estimator's outputs are unaffected by the
/// fusion; only callers pairing this oracle with an objective-tracking driver
/// observe the `~1e-12` objective surface shift.
///
/// ```
/// use c4u_optim::GradientOracle;
/// use c4u_selection::{AnalyticCpeOracle, CpeLikelihoodKernel, CpeObservation};
/// use c4u_stats::GaussLegendre;
///
/// let observations = vec![
///     CpeObservation { prior_accuracies: vec![Some(0.8), Some(0.7)], correct: 8, wrong: 2 },
/// ];
/// let quadrature = GaussLegendre::new(32);
/// let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
/// let oracle = AnalyticCpeOracle::new(&kernel, 2, 1e-4);
///
/// // Packed parameters: mean [mu_1, mu_2, mu_T] (Eq. 6 block) followed by the
/// // row-major lower covariance triangle (Eq. 7 block).
/// let params = [0.65, 0.6, 0.5, 0.02, 0.0, 0.02, 0.0, 0.0, 0.02];
/// let gradient = oracle.gradient(&params);       // one fused quadrature sweep
/// assert_eq!(gradient.len(), params.len());
/// // The objective at the same iterate reuses the sweep's fused log Z.
/// assert!(oracle.objective(&params).is_finite());
/// ```
#[derive(Debug)]
pub struct AnalyticCpeOracle<'k> {
    kernel: &'k CpeLikelihoodKernel<'k>,
    num_prior_domains: usize,
    min_variance: f64,
    /// Memo of the last evaluated point (interior mutability: the
    /// [`GradientOracle`] methods take `&self`). One entry suffices — descent
    /// drivers interleave objective/gradient requests point by point.
    fused: RefCell<Option<FusedEvaluation>>,
}

/// One memoised fused evaluation: the parameter point with the objective value
/// and gradient its single sweep produced.
#[derive(Debug, Clone)]
struct FusedEvaluation {
    params: Vec<f64>,
    objective: f64,
    gradient: Vec<f64>,
}

impl<'k> AnalyticCpeOracle<'k> {
    /// Builds the oracle over a mask-grouped kernel.
    ///
    /// `min_variance` must match the estimator's configuration: it controls
    /// the PSD projection applied when unpacking candidate parameters.
    pub fn new(
        kernel: &'k CpeLikelihoodKernel<'k>,
        num_prior_domains: usize,
        min_variance: f64,
    ) -> Self {
        Self {
            kernel,
            num_prior_domains,
            min_variance,
            fused: RefCell::new(None),
        }
    }

    fn model_at(&self, params: &[f64]) -> Result<MultivariateNormal, SelectionError> {
        let dim = self.num_prior_domains + 1;
        if params.len() != dim + packed_length(dim) {
            return Err(SelectionError::Numerical(format!(
                "CPE parameter vector has length {}, expected {}",
                params.len(),
                dim + packed_length(dim)
            )));
        }
        let mean = &params[..dim];
        let cov = from_lower_triangle(&params[dim..], dim);
        let cov = nearest_positive_definite(&cov, self.min_variance)?;
        Ok(MultivariateNormal::new(Vector::from_slice(mean), cov)?)
    }

    /// Runs (or recalls) the fused sweep at `x` and passes the memo to `read`.
    ///
    /// On a failed evaluation the memo records the penalty objective and the
    /// zero gradient — the same surface both entry points exposed before the
    /// fusion.
    fn with_fused<T>(&self, x: &[f64], read: impl FnOnce(&FusedEvaluation) -> T) -> T {
        let mut slot = self.fused.borrow_mut();
        if slot.as_ref().is_none_or(|memo| memo.params != x) {
            let fused = self
                .model_at(x)
                .and_then(|model| self.kernel.log_likelihood_gradient(&model));
            *slot = Some(match fused {
                Ok(fused) => {
                    // Objective is the *negative* log-likelihood; non-finite
                    // values (underflowed normaliser) map to the shared
                    // penalty, exactly like the finite-difference path.
                    let negated = -fused.log_likelihood;
                    FusedEvaluation {
                        params: x.to_vec(),
                        objective: if negated.is_finite() {
                            negated
                        } else {
                            OBJECTIVE_PENALTY
                        },
                        gradient: fused.packed().iter().map(|v| -v).collect(),
                    }
                }
                Err(_) => FusedEvaluation {
                    params: x.to_vec(),
                    objective: OBJECTIVE_PENALTY,
                    gradient: vec![0.0; x.len()],
                },
            });
        }
        // c4u-lint: allow(no-unwrap-in-lib, reason = "the memo slot was filled on the lines above")
        read(slot.as_ref().expect("memo was just filled"))
    }
}

impl GradientOracle for AnalyticCpeOracle<'_> {
    fn objective(&self, x: &[f64]) -> f64 {
        self.with_fused(x, |memo| memo.objective)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.with_fused(x, |memo| memo.gradient.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpe::{lower_triangle, CpeObservation, CrossDomainEstimator};
    use crate::CpeConfig;
    use c4u_crowd_sim::HistoricalProfile;
    use c4u_stats::{conditioning_factorizations, GaussLegendre};

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

    fn packed_params(est: &CrossDomainEstimator) -> Vec<f64> {
        let mut params = est.mean().to_vec();
        params.extend(lower_triangle(est.covariance()));
        params
    }

    #[test]
    fn objective_reuses_the_gradient_sweeps_fused_log_z() {
        let est = estimator();
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 3, &quadrature);
        let oracle = AnalyticCpeOracle::new(&kernel, 3, 1e-4);
        let params = packed_params(&est);

        let gradient = oracle.gradient(&params);
        assert_eq!(gradient.len(), params.len());
        let after_gradient = conditioning_factorizations();
        // Descent diagnostics asking for the objective at the same iterate hit
        // the fused memo: no new conditioning (hence no new quadrature sweep).
        let objective = oracle.objective(&params);
        assert_eq!(conditioning_factorizations(), after_gradient);
        assert!(objective.is_finite());
        // And the memoised value is the (negated) fused log-likelihood of the
        // same model the log-Z-only path describes, to float rounding.
        let direct = -est.log_likelihood(&obs).unwrap();
        assert!(
            (objective - direct).abs() <= 1e-9 * (1.0 + direct.abs()),
            "fused {objective} vs log-Z-only {direct}"
        );
        // Re-asking for the gradient is free too.
        let before = conditioning_factorizations();
        assert_eq!(oracle.gradient(&params), gradient);
        assert_eq!(conditioning_factorizations(), before);

        // A different point invalidates the memo and re-sweeps.
        let mut moved = params.clone();
        moved[0] += 1e-3;
        let _ = oracle.objective(&moved);
        assert!(conditioning_factorizations() > before);
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

    #[test]
    fn unbuildable_points_memoise_the_penalty_surface() {
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 3, &quadrature);
        let oracle = AnalyticCpeOracle::new(&kernel, 3, 1e-4);
        // Wrong parameter length: model construction fails, the objective is
        // the shared penalty and the gradient the harmless zero vector.
        let bogus = vec![0.5; 3];
        assert_eq!(oracle.objective(&bogus), OBJECTIVE_PENALTY);
        assert_eq!(oracle.gradient(&bogus), vec![0.0; 3]);
    }
}
