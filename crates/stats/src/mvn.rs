//! Multivariate normal distribution over worker accuracy vectors.
//!
//! The paper models each worker's per-domain annotation accuracy as a
//! `(D+1)`-dimensional random vector `v_i = [h_{i,1}, ..., h_{i,D}, h_{i,T}]^T` drawn
//! from `N(mu, Sigma)` (Eq. 1–2). The covariance is parameterised by per-domain
//! standard deviations `sigma_d` and pairwise correlations `rho_{i,j}`. This module
//! implements:
//!
//! * construction either from a raw covariance or from `(sigma, rho)` parameters;
//! * log-density and sampling (via Cholesky);
//! * truncated-box sampling (accuracies live in `(0, 1)` — Sec. V-A);
//! * conditioning on a subset of coordinates (the `mu_bar` / `Sigma_bar` of Eq. 5),
//!   which is the primitive the CPE estimator uses to predict the target-domain
//!   accuracy from the prior-domain profile.

use crate::univariate::sample_standard_normal;
use crate::StatsError;
use c4u_linalg::{Cholesky, Matrix, Vector};
use rand::Rng;
use std::cell::Cell;

/// Default number of rejection-sampling attempts for box-truncated draws before
/// falling back to clamping the last proposal into the box.
const TRUNCATION_MAX_REJECTS: usize = 256;

/// Floor applied to every conditional variance a [`Conditioner`] can produce.
///
/// Both conditioning paths share it: the empty-`given` marginal path (a raw
/// covariance diagonal entry) and the Schur-complement path
/// `Sigma_{T,T} - Sigma_{T,G} Sigma_{G,G}^{-1} Sigma_{G,T}`, which can go
/// non-positive in floating point when the observed block is nearly singular
/// (the jittered factorisation keeps the solve stable but cannot keep the
/// subtraction positive).
const CONDITIONAL_VARIANCE_FLOOR: f64 = 1e-12;

thread_local! {
    /// Per-thread count of observed-block Cholesky factorisations performed by
    /// [`MultivariateNormal::conditioner`] (and therefore by
    /// [`MultivariateNormal::condition_on`], which delegates to it).
    ///
    /// A diagnostic used by the benchmark harness to demonstrate that the
    /// mask-grouped CPE kernel factorises once per unique missing-domain mask
    /// instead of once per worker. Thread-local so that parallel engine runs
    /// and parallel tests cannot contaminate each other's counts; it has no
    /// effect on results.
    static CONDITIONING_FACTORIZATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Observed-block factorisations performed by the current thread since it
/// started (or since the last [`reset_conditioning_factorizations`]).
pub fn conditioning_factorizations() -> u64 {
    CONDITIONING_FACTORIZATIONS.with(Cell::get)
}

/// Resets the current thread's factorisation counter (benchmark bookkeeping).
pub fn reset_conditioning_factorizations() {
    CONDITIONING_FACTORIZATIONS.with(|c| c.set(0));
}

/// A multivariate normal distribution `N(mu, Sigma)`.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vector,
    cov: Matrix,
    chol: Cholesky,
}

/// The univariate conditional distribution of one coordinate given the others, i.e.
/// the `(mu_bar, Sigma_bar)` pair of Eq. 5 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditional1D {
    /// Conditional mean `mu_bar`.
    pub mean: f64,
    /// Conditional variance `Sigma_bar` (always positive; floored at a tiny value).
    pub variance: f64,
}

impl Conditional1D {
    /// Conditional standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

impl MultivariateNormal {
    /// Creates a distribution from a mean vector and covariance matrix.
    ///
    /// The covariance is symmetrised and, if necessary, repaired with diagonal jitter
    /// so that a valid Cholesky factor always exists (gradient updates in CPE can
    /// produce slightly indefinite matrices).
    pub fn new(mean: Vector, cov: Matrix) -> Result<Self, StatsError> {
        let d = mean.len();
        if d == 0 {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        if cov.shape() != (d, d) {
            return Err(StatsError::DimensionMismatch {
                what: "covariance must be d x d",
                left: d,
                right: cov.nrows(),
            });
        }
        if mean.has_non_finite() || cov.has_non_finite() {
            return Err(StatsError::InvalidParameter {
                what: "mean/covariance must be finite",
                value: f64::NAN,
            });
        }
        let cov = cov
            .symmetrize()
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let chol = Cholesky::new_with_jitter(&cov, 1e-10, 12)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        Ok(Self { mean, cov, chol })
    }

    /// Creates a distribution from per-dimension means, standard deviations, and a
    /// correlation matrix, i.e. exactly the parameterisation of Eq. 2:
    /// `Sigma[i][j] = rho[i][j] * sigma[i] * sigma[j]` with `rho[i][i] = 1`.
    pub fn from_correlations(
        means: &[f64],
        std_devs: &[f64],
        correlations: &Matrix,
    ) -> Result<Self, StatsError> {
        let d = means.len();
        if std_devs.len() != d {
            return Err(StatsError::DimensionMismatch {
                what: "means and std_devs must have equal length",
                left: d,
                right: std_devs.len(),
            });
        }
        if correlations.shape() != (d, d) {
            return Err(StatsError::DimensionMismatch {
                what: "correlation matrix must be d x d",
                left: d,
                right: correlations.nrows(),
            });
        }
        for (i, &s) in std_devs.iter().enumerate() {
            if s <= 0.0 || !s.is_finite() {
                return Err(StatsError::InvalidParameter {
                    what: "standard deviations must be finite and > 0",
                    value: std_devs[i],
                });
            }
        }
        let cov = Matrix::from_fn(d, d, |i, j| {
            if i == j {
                std_devs[i] * std_devs[i]
            } else {
                correlations[(i, j)].clamp(-0.999, 0.999) * std_devs[i] * std_devs[j]
            }
        });
        Self::new(Vector::from_slice(means), cov)
    }

    /// Dimensionality of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.cov
    }

    /// Per-dimension standard deviations (square roots of the covariance diagonal).
    pub fn std_devs(&self) -> Vec<f64> {
        (0..self.dim())
            .map(|i| self.cov[(i, i)].max(0.0).sqrt())
            .collect()
    }

    /// The correlation parameter between dimensions `i` and `j`.
    pub fn correlation(&self, i: usize, j: usize) -> Result<f64, StatsError> {
        if i >= self.dim() || j >= self.dim() {
            return Err(StatsError::DimensionMismatch {
                what: "correlation index out of range",
                left: i.max(j),
                right: self.dim(),
            });
        }
        if i == j {
            return Ok(1.0);
        }
        let si = self.cov[(i, i)].max(f64::MIN_POSITIVE).sqrt();
        let sj = self.cov[(j, j)].max(f64::MIN_POSITIVE).sqrt();
        Ok((self.cov[(i, j)] / (si * sj)).clamp(-1.0, 1.0))
    }

    /// Full correlation matrix.
    pub fn correlation_matrix(&self) -> Matrix {
        let d = self.dim();
        Matrix::from_fn(d, d, |i, j| self.correlation(i, j).unwrap_or(0.0))
    }

    /// Log-density at `x`.
    pub fn log_pdf(&self, x: &Vector) -> Result<f64, StatsError> {
        if x.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                what: "log_pdf point dimension",
                left: x.len(),
                right: self.dim(),
            });
        }
        let diff = x
            .sub(&self.mean)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let maha = self
            .chol
            .mahalanobis_squared(&diff)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let d = self.dim() as f64;
        Ok(-0.5 * (d * (2.0 * std::f64::consts::PI).ln() + self.chol.log_determinant() + maha))
    }

    /// Density at `x`.
    pub fn pdf(&self, x: &Vector) -> Result<f64, StatsError> {
        Ok(self.log_pdf(x)?.exp())
    }

    /// Draws one sample `x = mu + L z` with `z` standard normal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let z = Vector::from_fn(self.dim(), |_| sample_standard_normal(rng));
        let lz = self
            .chol
            .l()
            .matvec(&z)
            // c4u-lint: allow(no-unwrap-in-lib, reason = "factor and sample dimensions agree by construction")
            .expect("Cholesky factor conforms with z");
        // c4u-lint: allow(no-unwrap-in-lib, reason = "mean and product dimensions agree by construction")
        self.mean.add(&lz).expect("dimensions conform")
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vector> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draws a sample with every coordinate restricted to `[lower, upper]` by
    /// rejection sampling (falling back to clamping after 256 rejected
    /// proposals).
    ///
    /// This is the "truncated multivariate normal distribution within (0, 1)" used to
    /// generate synthetic workers in Sec. V-A of the paper.
    pub fn sample_truncated<R: Rng + ?Sized>(&self, rng: &mut R, lower: f64, upper: f64) -> Vector {
        for _ in 0..TRUNCATION_MAX_REJECTS {
            let x = self.sample(rng);
            if x.iter().all(|&v| v >= lower && v <= upper) {
                return x;
            }
        }
        self.sample(rng).clamp(lower, upper)
    }

    /// Conditional distribution of coordinate `target` given observed values for the
    /// coordinates `given_idx` (`given_idx[i]` observed as `given_values[i]`).
    ///
    /// With the usual block notation this is
    /// `mu_bar  = mu_T + Sigma_{T,G} Sigma_{G,G}^{-1} (x_G - mu_G)` and
    /// `Sigma_bar = Sigma_{T,T} - Sigma_{T,G} Sigma_{G,G}^{-1} Sigma_{G,T}`,
    /// exactly the expressions under Eq. 5 in the paper. When `given_idx` is empty
    /// the marginal of the target coordinate is returned, which is what makes the
    /// "worker has no historical record on any prior domain" case work transparently.
    pub fn condition_on(
        &self,
        target: usize,
        given_idx: &[usize],
        given_values: &[f64],
    ) -> Result<Conditional1D, StatsError> {
        // Cheap length check up front: don't pay (or count) an observed-block
        // factorisation for a call that Conditioner::condition would reject.
        if given_idx.len() != given_values.len() {
            return Err(StatsError::DimensionMismatch {
                what: "given indices and values must have equal length",
                left: given_idx.len(),
                right: given_values.len(),
            });
        }
        self.conditioner(target, given_idx)?.condition(given_values)
    }

    /// Builds a [`Conditioner`]: the factorisation-caching form of
    /// [`MultivariateNormal::condition_on`].
    ///
    /// The observed-block Cholesky factorisation (`O(g^3)` for `g` observed
    /// coordinates) and the conditional variance — which does not depend on the
    /// observed *values* — are computed once here; every subsequent
    /// [`Conditioner::condition`] call costs only an `O(g^2)` triangular solve.
    /// The CPE likelihood kernel builds one conditioner per unique
    /// missing-domain mask and applies it to every worker sharing that mask.
    pub fn conditioner(
        &self,
        target: usize,
        given_idx: &[usize],
    ) -> Result<Conditioner, StatsError> {
        let d = self.dim();
        if target >= d {
            return Err(StatsError::DimensionMismatch {
                what: "conditioning target out of range",
                left: target,
                right: d,
            });
        }
        if given_idx.iter().any(|&i| i >= d || i == target) {
            return Err(StatsError::InvalidParameter {
                what: "given index out of range or equal to target",
                value: target as f64,
            });
        }
        let var_t = self.cov[(target, target)];
        if given_idx.is_empty() {
            return Ok(Conditioner {
                target,
                given_idx: Vec::new(),
                target_mean: self.mean[target],
                given_means: Vec::new(),
                sigma_tg: Vector::zeros(0),
                chol_gg: None,
                weights: Vector::zeros(0),
                variance: var_t.max(CONDITIONAL_VARIANCE_FLOOR),
            });
        }

        let sigma_gg = self
            .cov
            .submatrix(given_idx, given_idx)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let sigma_tg = Vector::from_fn(given_idx.len(), |j| self.cov[(target, given_idx[j])]);
        let given_means: Vec<f64> = given_idx.iter().map(|&i| self.mean[i]).collect();

        let chol_gg = sigma_gg
            .cholesky_with_jitter(1e-10, 12)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        CONDITIONING_FACTORIZATIONS.with(|c| c.set(c.get() + 1));
        // v = Sigma_{G,G}^{-1} Sigma_{G,T}
        let v = chol_gg
            .solve(&sigma_tg)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let variance = var_t
            - sigma_tg
                .dot(&v)
                .map_err(|e| StatsError::Numerical(e.to_string()))?;

        Ok(Conditioner {
            target,
            given_idx: given_idx.to_vec(),
            target_mean: self.mean[target],
            given_means,
            sigma_tg,
            chol_gg: Some(chol_gg),
            weights: v,
            variance: variance.max(CONDITIONAL_VARIANCE_FLOOR),
        })
    }

    /// Extends an existing [`Conditioner`] by one newly observed coordinate
    /// **without re-factorising** the observed block.
    ///
    /// This is the streaming counterpart of [`MultivariateNormal::conditioner`]:
    /// when a worker's record gains one more observed domain (a new golden-task
    /// answer arrives mid-campaign), the observed-block factor is grown in
    /// `O(g^2)` via the bordered Cholesky extension
    /// ([`c4u_linalg::Cholesky::extend`]) instead of the `O(g^3)` refactorisation
    /// — and the factorisation counter is **not** incremented. The result is
    /// numerically equivalent (to rounding) to
    /// `self.conditioner(base.target(), &[base.given_idx(), new_given])`.
    ///
    /// When the bordered extension leaves the positive-definite cone (a nearly
    /// redundant new observation), the method transparently falls back to the
    /// full jittered factorisation, which *is* counted — the counter therefore
    /// stays an honest measure of `O(g^3)` work.
    pub fn extend_conditioner(
        &self,
        base: &Conditioner,
        new_given: usize,
    ) -> Result<Conditioner, StatsError> {
        let d = self.dim();
        if base.target >= d || base.given_idx.iter().any(|&i| i >= d) {
            return Err(StatsError::DimensionMismatch {
                what: "conditioner was built for a larger distribution",
                left: base.target,
                right: d,
            });
        }
        if new_given >= d || new_given == base.target || base.given_idx.contains(&new_given) {
            return Err(StatsError::InvalidParameter {
                what: "new given index out of range, equal to target, or already observed",
                value: new_given as f64,
            });
        }
        let mut given_idx = base.given_idx.clone();
        given_idx.push(new_given);

        let diag = self.cov[(new_given, new_given)];
        let grown = match &base.chol_gg {
            Some(chol) => {
                let cross = Vector::from_fn(base.given_idx.len(), |j| {
                    self.cov[(new_given, base.given_idx[j])]
                });
                chol.extended(&cross, diag)
            }
            // Growing the empty observed block: the factor of the 1x1 matrix
            // [diag] directly, still O(1) and uncounted.
            None => Cholesky::new(&Matrix::from_diagonal(&[diag])),
        };
        let Ok(chol_gg) = grown else {
            // Degenerate border: fall back to the full (jittered, counted) path.
            return self.conditioner(base.target, &given_idx);
        };

        let sigma_tg = Vector::from_fn(given_idx.len(), |j| self.cov[(base.target, given_idx[j])]);
        let given_means: Vec<f64> = given_idx.iter().map(|&i| self.mean[i]).collect();
        let v = chol_gg
            .solve(&sigma_tg)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let variance = self.cov[(base.target, base.target)]
            - sigma_tg
                .dot(&v)
                .map_err(|e| StatsError::Numerical(e.to_string()))?;

        Ok(Conditioner {
            target: base.target,
            given_idx,
            target_mean: base.target_mean,
            given_means,
            sigma_tg,
            chol_gg: Some(chol_gg),
            weights: v,
            variance: variance.max(CONDITIONAL_VARIANCE_FLOOR),
        })
    }
}

/// A factorised conditioning operator for one `(target, observed-set)` pair.
///
/// Holds the observed-block Cholesky factor, the cross-covariance row
/// `Sigma_{T,G}`, and the (value-independent) conditional variance, so that
/// conditioning on many different observed-value vectors costs one triangular
/// solve each instead of one factorisation each. Produced by
/// [`MultivariateNormal::conditioner`].
#[derive(Debug, Clone)]
pub struct Conditioner {
    /// Target coordinate index in the distribution this conditioner came from.
    target: usize,
    /// Observed coordinate indices, in conditioning order.
    given_idx: Vec<usize>,
    target_mean: f64,
    given_means: Vec<f64>,
    sigma_tg: Vector,
    /// `None` when the observed set is empty (marginal conditioning).
    chol_gg: Option<Cholesky>,
    /// `Sigma_{G,G}^{-1} Sigma_{G,T}` (empty when the observed set is empty).
    weights: Vector,
    variance: f64,
}

impl Conditioner {
    /// Number of observed coordinates this conditioner was built for.
    pub fn num_given(&self) -> usize {
        self.given_means.len()
    }

    /// Target coordinate index this conditioner was built for.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Observed coordinate indices, in the order `condition` expects values.
    pub fn given_idx(&self) -> &[usize] {
        &self.given_idx
    }

    /// The conditional variance `Sigma_bar` (independent of the observed values).
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// The prior mean of the target coordinate this conditioner was built with.
    pub fn target_mean(&self) -> f64 {
        self.target_mean
    }

    /// The weight vector `alpha = Sigma_{G,G}^{-1} Sigma_{G,T}` (empty for the
    /// marginal conditioner).
    ///
    /// The conditional mean is `mu_T + alpha . (x_G - mu_G)`, so `alpha` is the
    /// Jacobian of the conditional mean in the observed values — and, with a
    /// sign flip, in the observed-block prior means. The analytic Eq. 6–7 CPE
    /// gradient backpropagates through the conditioner with exactly this
    /// vector.
    pub fn weights(&self) -> &[f64] {
        self.weights.as_slice()
    }

    /// The prior means `mu_G` of the observed coordinates, in `given_idx`
    /// order (empty for the marginal conditioner).
    pub fn given_means(&self) -> &[f64] {
        &self.given_means
    }

    /// The observed-block solve `Sigma_{G,G}^{-1} rhs` with the cached
    /// factorisation (empty for the marginal conditioner).
    ///
    /// The solve is linear, so `Σ_i c_i w_i` over the per-profile solves
    /// `w_i` of [`Conditioner::condition_full`] equals
    /// `solve(Σ_i c_i (x_i - mu_G))`: the analytic CPE gradient calls this
    /// once per mask instead of solving once per profile.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vector, StatsError> {
        if rhs.len() != self.num_given() {
            return Err(StatsError::DimensionMismatch {
                what: "solve right-hand side must match the observed coordinates",
                left: self.num_given(),
                right: rhs.len(),
            });
        }
        let Some(chol_gg) = &self.chol_gg else {
            return Ok(Vector::zeros(0));
        };
        chol_gg
            .solve(&Vector::from_slice(rhs))
            .map_err(|e| StatsError::Numerical(e.to_string()))
    }

    /// Conditional distribution of the target coordinate given the observed
    /// values, in the same order as the `given_idx` the conditioner was built
    /// with. Bit-for-bit identical to [`MultivariateNormal::condition_on`].
    pub fn condition(&self, given_values: &[f64]) -> Result<Conditional1D, StatsError> {
        Ok(self.condition_full(given_values)?.0)
    }

    /// [`Conditioner::condition`] plus the observed-block solve
    /// `w = Sigma_{G,G}^{-1} (x_G - mu_G)` it computed along the way.
    ///
    /// `w` is the Jacobian of the conditional mean in the cross-covariance row
    /// `Sigma_{T,G}`; together with [`Conditioner::weights`] it is everything
    /// the analytic CPE gradient needs to map `d log Z / d(mean, variance)`
    /// back onto the model parameters. The `Conditional1D` is bit-for-bit the
    /// [`Conditioner::condition`] result.
    pub fn condition_full(
        &self,
        given_values: &[f64],
    ) -> Result<(Conditional1D, Vector), StatsError> {
        if given_values.len() != self.num_given() {
            return Err(StatsError::DimensionMismatch {
                what: "given indices and values must have equal length",
                left: self.num_given(),
                right: given_values.len(),
            });
        }
        let Some(chol_gg) = &self.chol_gg else {
            return Ok((
                Conditional1D {
                    mean: self.target_mean,
                    variance: self.variance,
                },
                Vector::zeros(0),
            ));
        };
        let diff = Vector::from_fn(self.num_given(), |j| given_values[j] - self.given_means[j]);
        // w = Sigma_{G,G}^{-1} (x_G - mu_G)
        let w = chol_gg
            .solve(&diff)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let mean = self.target_mean
            + self
                .sigma_tg
                .dot(&w)
                .map_err(|e| StatsError::Numerical(e.to_string()))?;
        Ok((
            Conditional1D {
                mean,
                variance: self.variance,
            },
            w,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_mvn() -> MultivariateNormal {
        let mean = Vector::from_slice(&[0.7, 0.88, 0.58, 0.55]);
        let std = [0.22, 0.10, 0.25, 0.17];
        let rho = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.5 });
        MultivariateNormal::from_correlations(mean.as_slice(), &std, &rho).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(MultivariateNormal::new(Vector::zeros(0), Matrix::zeros(0, 0)).is_err());
        assert!(MultivariateNormal::new(Vector::zeros(2), Matrix::zeros(3, 3)).is_err());
        let mut bad = Matrix::identity(2);
        bad[(0, 0)] = f64::NAN;
        assert!(MultivariateNormal::new(Vector::zeros(2), bad).is_err());
        assert!(
            MultivariateNormal::from_correlations(&[0.5, 0.5], &[0.1], &Matrix::identity(2))
                .is_err()
        );
        assert!(MultivariateNormal::from_correlations(
            &[0.5, 0.5],
            &[0.1, 0.0],
            &Matrix::identity(2)
        )
        .is_err());
        assert!(MultivariateNormal::from_correlations(
            &[0.5, 0.5],
            &[0.1, 0.1],
            &Matrix::identity(3)
        )
        .is_err());
    }

    #[test]
    fn correlation_roundtrip() {
        let mvn = example_mvn();
        for i in 0..4 {
            assert!((mvn.correlation(i, i).unwrap() - 1.0).abs() < 1e-12);
            for j in 0..4 {
                if i != j {
                    assert!((mvn.correlation(i, j).unwrap() - 0.5).abs() < 1e-9);
                }
            }
        }
        let stds = mvn.std_devs();
        assert!((stds[0] - 0.22).abs() < 1e-12);
        assert!((stds[3] - 0.17).abs() < 1e-12);
        assert!(mvn.correlation(0, 9).is_err());
        let corr = mvn.correlation_matrix();
        assert!((corr[(1, 2)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_matches_univariate_for_1d() {
        let mvn =
            MultivariateNormal::new(Vector::from_slice(&[1.0]), Matrix::from_diagonal(&[4.0]))
                .unwrap();
        let n = crate::Normal::new(1.0, 2.0).unwrap();
        for &x in &[-1.0, 0.0, 1.0, 3.5] {
            let got = mvn.log_pdf(&Vector::from_slice(&[x])).unwrap();
            assert!((got - n.log_pdf(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn log_pdf_independent_factorises() {
        // For a diagonal covariance the joint log-density is the sum of marginals.
        let mvn = MultivariateNormal::new(
            Vector::from_slice(&[0.0, 2.0]),
            Matrix::from_diagonal(&[1.0, 9.0]),
        )
        .unwrap();
        let n1 = crate::Normal::new(0.0, 1.0).unwrap();
        let n2 = crate::Normal::new(2.0, 3.0).unwrap();
        let x = Vector::from_slice(&[0.7, -1.0]);
        let got = mvn.log_pdf(&x).unwrap();
        assert!((got - (n1.log_pdf(0.7) + n2.log_pdf(-1.0))).abs() < 1e-9);
        assert!(mvn.log_pdf(&Vector::zeros(3)).is_err());
        assert!((mvn.pdf(&x).unwrap() - got.exp()).abs() < 1e-12);
    }

    #[test]
    fn sampling_recovers_moments() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = mvn.sample_n(&mut rng, 30_000);
        for d in 0..4 {
            let vals: Vec<f64> = samples.iter().map(|s| s[d]).collect();
            let m = crate::descriptive::mean(&vals);
            let s = crate::descriptive::std_dev(&vals);
            assert!((m - mvn.mean()[d]).abs() < 0.01, "dim {d} mean {m}");
            assert!((s - mvn.std_devs()[d]).abs() < 0.01, "dim {d} std {s}");
        }
        // Empirical correlation close to 0.5.
        let x: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let y: Vec<f64> = samples.iter().map(|s| s[1]).collect();
        let r = crate::descriptive::pearson_correlation(&x, &y).unwrap();
        assert!((r - 0.5).abs() < 0.03, "corr {r}");
    }

    #[test]
    fn truncated_sampling_stays_in_box() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let x = mvn.sample_truncated(&mut rng, 0.0, 1.0);
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn conditioning_reduces_variance_with_positive_correlation() {
        let mvn = example_mvn();
        let marginal = mvn.condition_on(3, &[], &[]).unwrap();
        let cond = mvn.condition_on(3, &[0, 1, 2], &[0.9, 0.95, 0.8]).unwrap();
        assert!(cond.variance < marginal.variance);
        // A strong profile should pull the conditional mean above the marginal mean.
        assert!(cond.mean > marginal.mean);
        // And a weak profile below it.
        let weak = mvn.condition_on(3, &[0, 1, 2], &[0.2, 0.5, 0.1]).unwrap();
        assert!(weak.mean < marginal.mean);
        assert!(cond.std_dev() > 0.0);
    }

    #[test]
    fn conditioning_matches_bivariate_closed_form() {
        // For a bivariate normal, E[Y|X=x] = mu_y + rho*sigma_y/sigma_x*(x - mu_x),
        // Var[Y|X=x] = sigma_y^2 (1 - rho^2).
        let (mu_x, mu_y, sx, sy, rho) = (0.6, 0.5, 0.2, 0.15, 0.7);
        let corr = Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { rho });
        let mvn = MultivariateNormal::from_correlations(&[mu_x, mu_y], &[sx, sy], &corr).unwrap();
        let x_obs = 0.9;
        let cond = mvn.condition_on(1, &[0], &[x_obs]).unwrap();
        let expected_mean = mu_y + rho * sy / sx * (x_obs - mu_x);
        let expected_var = sy * sy * (1.0 - rho * rho);
        assert!((cond.mean - expected_mean).abs() < 1e-9);
        assert!((cond.variance - expected_var).abs() < 1e-9);
    }

    #[test]
    fn conditioning_validation() {
        let mvn = example_mvn();
        assert!(mvn.condition_on(9, &[], &[]).is_err());
        assert!(mvn.condition_on(3, &[0], &[]).is_err());
        assert!(mvn.condition_on(3, &[3], &[0.5]).is_err());
        assert!(mvn.condition_on(3, &[7], &[0.5]).is_err());
    }

    #[test]
    fn conditioner_matches_condition_on_bit_for_bit() {
        let mvn = example_mvn();
        let observed_sets: &[&[usize]] = &[&[], &[0], &[0, 1], &[0, 1, 2], &[2, 0]];
        let value_sets: &[&[f64]] = &[
            &[0.9, 0.95, 0.8],
            &[0.2, 0.5, 0.1],
            &[0.55, 0.61, 0.43],
            &[0.01, 0.99, 0.5],
        ];
        for idx in observed_sets {
            let conditioner = mvn.conditioner(3, idx).unwrap();
            assert_eq!(conditioner.num_given(), idx.len());
            for values in value_sets {
                let values = &values[..idx.len()];
                let via_handle = conditioner.condition(values).unwrap();
                let direct = mvn.condition_on(3, idx, values).unwrap();
                // Exact f64 equality: the cached factorisation must not change a bit.
                assert_eq!(via_handle.mean, direct.mean);
                assert_eq!(via_handle.variance, direct.variance);
                assert_eq!(conditioner.variance(), direct.variance);
            }
        }
    }

    #[test]
    fn conditioner_validation() {
        let mvn = example_mvn();
        assert!(mvn.conditioner(9, &[]).is_err());
        assert!(mvn.conditioner(3, &[3]).is_err());
        assert!(mvn.conditioner(3, &[7]).is_err());
        let conditioner = mvn.conditioner(3, &[0, 1]).unwrap();
        assert!(conditioner.condition(&[0.5]).is_err());
        let empty = mvn.conditioner(3, &[]).unwrap();
        assert!(empty.condition(&[0.5]).is_err());
    }

    #[test]
    fn factorization_counter_tracks_conditioner_builds() {
        let mvn = example_mvn();
        let before = conditioning_factorizations();
        let conditioner = mvn.conditioner(3, &[0, 1]).unwrap();
        // Building the conditioner factorises once…
        assert_eq!(conditioning_factorizations(), before + 1);
        // …and applying it any number of times adds nothing.
        for _ in 0..5 {
            conditioner.condition(&[0.5, 0.6]).unwrap();
        }
        assert_eq!(conditioning_factorizations(), before + 1);
        // The marginal (empty mask) never factorises.
        mvn.conditioner(3, &[]).unwrap();
        assert_eq!(conditioning_factorizations(), before + 1);
        // The one-shot path counts one factorisation per call.
        mvn.condition_on(3, &[0], &[0.5]).unwrap();
        assert_eq!(conditioning_factorizations(), before + 2);
    }

    #[test]
    fn extend_conditioner_matches_full_rebuild() {
        let mvn = example_mvn();
        // Grow the observed set one coordinate at a time, starting from the
        // marginal, and compare against building the conditioner from scratch.
        let order = [0usize, 2, 1];
        let mut incremental = mvn.conditioner(3, &[]).unwrap();
        let mut observed: Vec<usize> = Vec::new();
        for &next in &order {
            incremental = mvn.extend_conditioner(&incremental, next).unwrap();
            observed.push(next);
            let full = mvn.conditioner(3, &observed).unwrap();
            assert_eq!(incremental.target(), 3);
            assert_eq!(incremental.given_idx(), observed.as_slice());
            assert!((incremental.variance() - full.variance()).abs() < 1e-10);
            for (a, b) in incremental.weights().iter().zip(full.weights()) {
                assert!((a - b).abs() < 1e-10);
            }
            let values: Vec<f64> = observed.iter().map(|&i| 0.4 + 0.1 * i as f64).collect();
            let inc = incremental.condition(&values).unwrap();
            let direct = full.condition(&values).unwrap();
            assert!((inc.mean - direct.mean).abs() < 1e-10);
            assert!((inc.variance - direct.variance).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_conditioner_performs_zero_factorizations() {
        let mvn = example_mvn();
        let base = mvn.conditioner(3, &[0]).unwrap();
        reset_conditioning_factorizations();
        // The streaming path must never pay (or count) an O(g^3) factorisation.
        let grown = mvn.extend_conditioner(&base, 1).unwrap();
        let grown = mvn.extend_conditioner(&grown, 2).unwrap();
        assert_eq!(conditioning_factorizations(), 0);
        // Growing from the empty observed block is also uncounted.
        let marginal = mvn.conditioner(3, &[]).unwrap();
        assert_eq!(conditioning_factorizations(), 0);
        mvn.extend_conditioner(&marginal, 2).unwrap();
        assert_eq!(conditioning_factorizations(), 0);
        assert_eq!(grown.num_given(), 3);
    }

    #[test]
    fn extend_conditioner_validation() {
        let mvn = example_mvn();
        let base = mvn.conditioner(3, &[0]).unwrap();
        // Out of range, target, and already-observed indices are rejected.
        assert!(mvn.extend_conditioner(&base, 9).is_err());
        assert!(mvn.extend_conditioner(&base, 3).is_err());
        assert!(mvn.extend_conditioner(&base, 0).is_err());
        // A conditioner from a larger distribution is rejected.
        let small = MultivariateNormal::new(
            Vector::from_slice(&[0.5, 0.5]),
            Matrix::from_diagonal(&[0.1, 0.1]),
        )
        .unwrap();
        assert!(small.extend_conditioner(&base, 1).is_err());
    }

    #[test]
    fn nearly_degenerate_covariance_keeps_conditional_variance_positive() {
        // Two observed domains that are almost copies of each other and almost
        // copies of the target: the observed block is nearly singular, and the
        // Schur complement Sigma_TT - Sigma_TG Sigma_GG^-1 Sigma_GT lands at
        // rounding distance from zero (or below it). The shared floor must keep
        // every conditional variance strictly positive on BOTH paths.
        let eps = 1e-9;
        let cov = Matrix::from_rows(&[
            vec![0.04, 0.04 - eps, 0.04 - eps],
            vec![0.04 - eps, 0.04, 0.04 - eps],
            vec![0.04 - eps, 0.04 - eps, 0.04],
        ])
        .unwrap();
        let mvn = MultivariateNormal::new(Vector::from_slice(&[0.5, 0.5, 0.5]), cov).unwrap();
        // Non-empty path (Schur complement).
        for idx in [&[0usize][..], &[0, 1][..]] {
            let conditioner = mvn.conditioner(2, idx).unwrap();
            assert!(
                conditioner.variance() > 0.0,
                "variance {} for idx {idx:?}",
                conditioner.variance()
            );
            let values = vec![0.5; idx.len()];
            let cond = conditioner.condition(&values).unwrap();
            assert!(cond.variance > 0.0);
            assert!(cond.std_dev().is_finite() && cond.std_dev() > 0.0);
            assert!(cond.mean.is_finite());
        }
        // Empty path (marginal), for symmetry with the floor on the raw diagonal.
        let marginal = mvn.conditioner(2, &[]).unwrap();
        assert!(marginal.variance() >= 1e-12);
    }

    #[test]
    fn condition_full_matches_condition_and_exposes_the_solve() {
        let mvn = example_mvn();
        let conditioner = mvn.conditioner(3, &[0, 2]).unwrap();
        let values = [0.8, 0.45];
        let direct = conditioner.condition(&values).unwrap();
        let (full, w) = conditioner.condition_full(&values).unwrap();
        // Exact equality: condition() is condition_full() minus the solve.
        assert_eq!(direct.mean, full.mean);
        assert_eq!(direct.variance, full.variance);
        assert_eq!(w.len(), 2);
        // The solve reproduces the conditional mean through the cross-covariance
        // row: mean = mu_T + Sigma_TG . w.
        let sigma_tg = [mvn.covariance()[(3, 0)], mvn.covariance()[(3, 2)]];
        let rebuilt = mvn.mean()[3] + sigma_tg[0] * w[0] + sigma_tg[1] * w[1];
        assert!((rebuilt - full.mean).abs() < 1e-12);
        // weights() is the value-independent Jacobian of the conditional mean.
        let alpha = conditioner.weights();
        assert_eq!(alpha.len(), 2);
        let bumped = conditioner
            .condition(&[values[0] + 1e-3, values[1]])
            .unwrap();
        assert!(((bumped.mean - full.mean) / 1e-3 - alpha[0]).abs() < 1e-6);
        assert_eq!(conditioner.target_mean(), mvn.mean()[3]);
        // The marginal conditioner has no weights and an empty solve.
        let marginal = mvn.conditioner(3, &[]).unwrap();
        assert!(marginal.weights().is_empty());
        let (cond, w) = marginal.condition_full(&[]).unwrap();
        assert_eq!(cond.mean, mvn.mean()[3]);
        assert_eq!(w.len(), 0);
        assert!(marginal.condition_full(&[0.5]).is_err());
    }

    #[test]
    fn solve_matches_the_condition_full_solve() {
        let mvn = example_mvn();
        let conditioner = mvn.conditioner(3, &[0, 1, 2]).unwrap();
        assert_eq!(conditioner.given_means(), &[0.7, 0.88, 0.58]);
        let values = [0.8, 0.6, 0.45];
        let (_, w) = conditioner.condition_full(&values).unwrap();
        let diff: Vec<f64> = values
            .iter()
            .zip(conditioner.given_means())
            .map(|(x, m)| x - m)
            .collect();
        // Same factor, same right-hand side: the same bits.
        assert_eq!(conditioner.solve(&diff).unwrap(), w);
        // Linearity: one solve of a weighted sum of differences equals the
        // weighted sum of the per-profile solves.
        let other = [0.3, 0.9, 0.7];
        let (_, w_other) = conditioner.condition_full(&other).unwrap();
        let summed: Vec<f64> = (0..3)
            .map(|g| 2.0 * diff[g] - 0.5 * (other[g] - conditioner.given_means()[g]))
            .collect();
        let solved = conditioner.solve(&summed).unwrap();
        for g in 0..3 {
            let want = 2.0 * w[g] - 0.5 * w_other[g];
            assert!((solved[g] - want).abs() < 1e-12, "{} vs {want}", solved[g]);
        }
        assert!(conditioner.solve(&[1.0]).is_err());
        let marginal = mvn.conditioner(3, &[]).unwrap();
        assert_eq!(marginal.solve(&[]).unwrap().len(), 0);
        assert!(marginal.given_means().is_empty());
    }

    #[test]
    fn indefinite_covariance_is_repaired() {
        // A "correlation" of 1.0 between all pairs with unequal variances is not PSD
        // once perturbed; the jitter repair should still produce a usable model.
        let cov = Matrix::from_rows(&[
            vec![0.04, 0.05, 0.03],
            vec![0.05, 0.04, 0.05],
            vec![0.03, 0.05, 0.04],
        ])
        .unwrap();
        let mvn = MultivariateNormal::new(Vector::from_slice(&[0.5, 0.5, 0.5]), cov);
        assert!(mvn.is_ok());
        let mvn = mvn.unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = mvn.sample(&mut rng);
        assert_eq!(x.len(), 3);
        assert!(mvn.log_pdf(&x).unwrap().is_finite());
    }
}
