//! Batched, mask-grouped evaluation of the CPE marginal likelihood (Eq. 5, 8).
//!
//! Every term of the CPE objective conditions the cross-domain normal on a
//! worker's *observed* prior domains. The expensive part of that conditioning —
//! the Cholesky factorisation of the observed-block covariance and the
//! conditional variance — depends only on **which** domains are observed, not
//! on the observed values. Real pools contain far fewer distinct
//! missing-domain masks than workers (often one: the fully-observed mask), so
//! the per-observation loop the estimator historically ran repeated the same
//! factorisation once per worker, per parameter perturbation, per epoch.
//!
//! [`CpeLikelihoodKernel`] restructures that hot path in four layers:
//!
//! 1. [`MaskGroups`] — built once per `update()`/`predict_batch()` entry, it
//!    partitions the observations by observed-domain mask (first-occurrence
//!    order, so everything stays deterministic) and caches each member's
//!    observed values;
//! 2. per model evaluation, the kernel asks the model for **one**
//!    [`Conditioner`](c4u_stats::Conditioner) per unique mask. The likelihood
//!    and prediction paths apply it to the group's profiles — an `O(g^2)`
//!    triangular solve instead of an `O(g^3)` factorisation per worker; the
//!    gradient path needs no per-profile solve at all (see layer 4);
//! 3. the Eq. 5 normalisers and Eq. 8 posterior means of a whole group are
//!    computed by **one** batched structure-of-arrays quadrature sweep per
//!    unique mask ([`c4u_stats::BinomialNormalBatch`], node tables built once
//!    per kernel), not one scalar `binomial_normal_moments` /
//!    `binomial_normal_log_z` call per worker;
//! 4. within a group, the same build also numbers the **distinct profiles**
//!    (observed values compared by [`f64::to_bits`]) and the **distinct
//!    cells** `(profile, correct, wrong)`, and over all groups the distinct
//!    `(correct, wrong)` **count pairs**. Profiles are multiples of
//!    `1 / prior_tasks_per_domain` and answer counts are small integers, so
//!    thousands of workers share a cell. The likelihood and prediction paths
//!    run one conditioning solve per distinct profile and one sweep cell per
//!    distinct cell, then fan the results out to the members in their
//!    original order. The Eq. 6–7 gradient path factors the integrand
//!    instead: the kernel tabulates each count pair's binomial factor over
//!    the nodes once ([`c4u_stats::CountFactors`]); each epoch computes each
//!    profile's conditional mean as `mu_T + alpha . (x - mu_G)`, one Gaussian
//!    row per profile, and three node-length dot products per cell
//!    ([`BinomialNormalBatch::log_z_gradients_factored_into`]); and the
//!    backpropagation runs **one** observed-block solve per mask
//!    ([`Conditioner::solve`]) on `Σ_i ∂m_i (x_i - mu_G)`.
//!
//! The factorisation count per `update()` therefore drops from
//! `O(epochs x workers)` to `O(epochs x unique_masks)`: with the closed-form
//! Eq. 6–7 gradient of the [`gradient`] sub-layer, one vectorised sweep per
//! unique mask per epoch, over that mask's distinct cells. The batched-sweep
//! count obeys the same contract (`O(unique_masks)` per likelihood, gradient
//! or prediction pass, pinned by `tests/quadrature_batching.rs` through the
//! `c4u_stats` sweep counters).
//!
//! The prediction and log-Z-only likelihood paths are
//! **bit-for-bit identical** to the per-observation loop: the cached
//! factorisation and the batched sweep perform exactly the same
//! floating-point operations, every solve and every sweep cell is a pure
//! function of its own inputs (so members sharing a cell share its bits),
//! per-observation terms are accumulated in the original observation order,
//! and `tests/kernel_equivalence.rs` pins this against a literal transcription
//! of the historical code, including on a heavily duplicated quantised pool.
//! The analytic gradient path is **tolerance-pinned** instead: the factored
//! sweep and the one-solve-per-mask backpropagation round differently from
//! the per-cell sweep and per-profile solves, so `c4u-stats` holds each cell
//! to the per-cell sweep (`log Z` within `1e-13 (1 + |log Z|)`, `∂m·sigma`
//! within `1e-11`, `∂v·2sigma²` within `1e-10`) and
//! `tests/kernel_equivalence.rs` holds a whole `update()` to the recorded
//! per-member result within `1e-12` relative. Where the per-cell sweep's
//! bracketing-grid shift underflows every node term (a conditional sd far
//! below the node spacing), it returned `-inf` and a zero gradient; the
//! factored sweep shifts each factor by its own node maximum and stays
//! finite, and a cell whose factored normaliser does underflow falls back to
//! the per-cell arithmetic bit for bit.
//!
//! ## Usage
//!
//! ```
//! use c4u_linalg::{Matrix, Vector};
//! use c4u_selection::{CpeLikelihoodKernel, CpeObservation};
//! use c4u_stats::{GaussLegendre, MultivariateNormal};
//!
//! // Three workers over two prior domains; the middle one has a domain gap
//! // (Sec. IV-E), so the kernel groups them into two observed-domain masks.
//! let observations = vec![
//!     CpeObservation { prior_accuracies: vec![Some(0.8), Some(0.7)], correct: 8, wrong: 2 },
//!     CpeObservation { prior_accuracies: vec![Some(0.5), None],      correct: 4, wrong: 6 },
//!     CpeObservation { prior_accuracies: vec![Some(0.6), Some(0.5)], correct: 5, wrong: 5 },
//! ];
//! let quadrature = GaussLegendre::new(32);
//! let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
//! assert_eq!(kernel.groups().num_unique_masks(), 2);
//!
//! // One (D+1)-dimensional model (Eq. 1–2), evaluated against every worker.
//! let model = MultivariateNormal::new(
//!     Vector::from_slice(&[0.65, 0.6, 0.5]),
//!     Matrix::from_rows(&[
//!         vec![0.020, 0.005, 0.004],
//!         vec![0.005, 0.020, 0.004],
//!         vec![0.004, 0.004, 0.020],
//!     ]).unwrap(),
//! ).unwrap();
//! let log_likelihood = kernel.log_likelihood(&model).unwrap();   // Eq. 5
//! assert!(log_likelihood.is_finite());
//! let predictions = kernel.predict(&model, true).unwrap();       // Eq. 8
//! assert_eq!(predictions.len(), observations.len());
//! ```

pub mod gradient;

use super::CpeObservation;
use crate::SelectionError;
use c4u_stats::{
    BinomialNormalBatch, Conditioner, CountFactors, GaussLegendre, LogZGradient,
    MultivariateNormal, QuadratureMath, QuadratureScratch,
};
use std::cell::RefCell;
use std::collections::HashMap;

/// The observations sharing one observed-domain mask, with the distinct
/// profiles and distinct `(profile, correct, wrong)` cells among them.
///
/// Profiles are keyed on the [`f64::to_bits`] of the observed values, so two
/// members share a profile exactly when every conditioning input is the same
/// bit pattern; a cell adds the member's answer counts, so two members share a
/// cell exactly when every quadrature input is the same. Both are numbered in
/// first-occurrence order over the members.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskGroup {
    observed_idx: Vec<usize>,
    members: Vec<usize>,
    values: Vec<Vec<f64>>,
    /// Per member: index of its distinct profile.
    profile_of: Vec<usize>,
    /// Per member: index of its distinct cell.
    cell_of: Vec<usize>,
    /// Per distinct profile: the first member (position in
    /// [`MaskGroup::members`]) that holds it.
    profile_first: Vec<usize>,
    /// Per distinct cell: its profile index.
    cell_profile: Vec<usize>,
    /// Per distinct cell: its correct-answer count, as the sweep consumes it.
    cell_correct: Vec<f64>,
    /// Per distinct cell: its wrong-answer count, as the sweep consumes it.
    cell_wrong: Vec<f64>,
    /// The distinct cells as `(profile, count pair)` keys (the pair indexes
    /// [`MaskGroups::count_pairs`]), profile by profile: the input order of
    /// the factored gradient sweep, which builds one Gaussian row per run of
    /// equal profiles.
    sweep_cells: Vec<(usize, usize)>,
    /// Per distinct cell: its position in `sweep_cells`.
    sweep_slot: Vec<usize>,
}

impl MaskGroup {
    /// Indices of the prior domains every member has a record on (ascending).
    pub fn observed_idx(&self) -> &[usize] {
        &self.observed_idx
    }

    /// Positions of the member observations in the original slice.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The members' observed accuracies, aligned with [`MaskGroup::members`];
    /// each inner vector is aligned with [`MaskGroup::observed_idx`].
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Each member's distinct-profile index, aligned with
    /// [`MaskGroup::members`] (profiles numbered in first-occurrence order).
    pub fn profile_of(&self) -> &[usize] {
        &self.profile_of
    }

    /// Each member's distinct-cell index, aligned with [`MaskGroup::members`]
    /// (cells numbered in first-occurrence order).
    pub fn cell_of(&self) -> &[usize] {
        &self.cell_of
    }

    /// Number of distinct observed-value profiles in the group: the number of
    /// conditioning solves one model evaluation spends on it.
    pub fn num_profiles(&self) -> usize {
        self.profile_first.len()
    }

    /// Number of distinct `(profile, correct, wrong)` cells in the group: the
    /// number of quadrature cells one likelihood sweep spends on it.
    pub fn num_cells(&self) -> usize {
        self.cell_profile.len()
    }

    /// The observed values of each distinct profile, in profile order.
    fn profile_values(&self) -> impl Iterator<Item = &[f64]> {
        self.profile_first
            .iter()
            .map(|&member| self.values[member].as_slice())
    }

    /// Sorts `sweep_cells` (filled in cell order) stably by profile and
    /// records each cell's slot in it.
    fn order_sweep_cells(&mut self) {
        let mut order: Vec<usize> = (0..self.num_cells()).collect();
        order.sort_by_key(|&cell| self.cell_profile[cell]);
        self.sweep_slot = vec![0; order.len()];
        for (slot, &cell) in order.iter().enumerate() {
            self.sweep_slot[cell] = slot;
        }
        self.sweep_cells = order.iter().map(|&cell| self.sweep_cells[cell]).collect();
    }
}

/// A partition of a set of [`CpeObservation`]s by observed-domain mask.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskGroups {
    groups: Vec<MaskGroup>,
    /// The distinct `(correct, wrong)` pairs over all groups, in
    /// first-occurrence order.
    count_pairs: Vec<(usize, usize)>,
    num_observations: usize,
}

impl MaskGroups {
    /// Groups the observations by which prior domains they have a record on,
    /// and within each group numbers the distinct profiles and cells.
    ///
    /// Groups, profiles, cells and count pairs appear in order of first
    /// occurrence, and members keep their original relative order, so
    /// downstream iteration is deterministic.
    pub fn build(observations: &[CpeObservation], num_domains: usize) -> Self {
        let mut groups: Vec<MaskGroup> = Vec::new();
        let mut count_pairs: Vec<(usize, usize)> = Vec::new();
        // Lookup tables only, never iterated: numbering comes from the vectors.
        let mut index_of: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut profile_index: HashMap<(usize, Vec<u64>), usize> = HashMap::new();
        let mut pair_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut cell_index: HashMap<(usize, usize, usize), usize> = HashMap::new();
        for (position, obs) in observations.iter().enumerate() {
            let (idx, values) = observed_domains(obs, num_domains);
            let g = *index_of.entry(idx).or_insert_with_key(|idx| {
                groups.push(MaskGroup {
                    observed_idx: idx.clone(),
                    members: Vec::new(),
                    values: Vec::new(),
                    profile_of: Vec::new(),
                    cell_of: Vec::new(),
                    profile_first: Vec::new(),
                    cell_profile: Vec::new(),
                    cell_correct: Vec::new(),
                    cell_wrong: Vec::new(),
                    sweep_cells: Vec::new(),
                    sweep_slot: Vec::new(),
                });
                groups.len() - 1
            });
            let group = &mut groups[g];
            let member = group.members.len();
            let bits = values.iter().map(|v| v.to_bits()).collect();
            let profile = *profile_index.entry((g, bits)).or_insert_with(|| {
                group.profile_first.push(member);
                group.profile_first.len() - 1
            });
            let pair = *pair_index
                .entry((obs.correct, obs.wrong))
                .or_insert_with(|| {
                    count_pairs.push((obs.correct, obs.wrong));
                    count_pairs.len() - 1
                });
            let cell = *cell_index.entry((g, profile, pair)).or_insert_with(|| {
                group.cell_profile.push(profile);
                group.cell_correct.push(obs.correct as f64);
                group.cell_wrong.push(obs.wrong as f64);
                group.sweep_cells.push((profile, pair));
                group.cell_profile.len() - 1
            });
            group.members.push(position);
            group.values.push(values);
            group.profile_of.push(profile);
            group.cell_of.push(cell);
        }
        for group in &mut groups {
            group.order_sweep_cells();
        }
        Self {
            groups,
            count_pairs,
            num_observations: observations.len(),
        }
    }

    /// The distinct `(correct, wrong)` pairs over all groups, in
    /// first-occurrence order: the rows of the kernel's count-factor table.
    pub fn count_pairs(&self) -> &[(usize, usize)] {
        &self.count_pairs
    }

    /// Number of distinct observed-value profiles over all groups: the
    /// conditional means one model evaluation computes.
    pub fn num_unique_profiles(&self) -> usize {
        self.groups.iter().map(MaskGroup::num_profiles).sum()
    }

    /// The groups, in first-occurrence order.
    pub fn groups(&self) -> &[MaskGroup] {
        &self.groups
    }

    /// Number of distinct observed-domain masks.
    pub fn num_unique_masks(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct `(mask, profile, correct, wrong)` cells over all
    /// groups: the quadrature cells one likelihood pass sweeps.
    pub fn num_unique_cells(&self) -> usize {
        self.groups.iter().map(MaskGroup::num_cells).sum()
    }

    /// Number of observations that were grouped.
    pub fn num_observations(&self) -> usize {
        self.num_observations
    }
}

/// The batched CPE likelihood kernel: a set of observations, mask-grouped once,
/// evaluable against many candidate models.
///
/// The same kernel instance serves every objective evaluation of a gradient
/// sweep (the model changes per evaluation; the grouping does not), which is
/// exactly the access pattern of `CrossDomainEstimator::update`.
#[derive(Debug)]
pub struct CpeLikelihoodKernel<'a> {
    observations: &'a [CpeObservation],
    groups: MaskGroups,
    /// Index of the target-domain coordinate (`D`, the last coordinate).
    target: usize,
    /// Structure-of-arrays node/grid tables for the batched binomial×normal
    /// sweeps, built once per kernel from the caller's rule and shared by the
    /// likelihood, prediction and gradient paths (the rule itself is no longer
    /// needed afterwards — every sweep runs over these tables).
    batch: BinomialNormalBatch,
    /// The count factors of [`MaskGroups::count_pairs`] over the batch's
    /// nodes, built once per kernel for the factored gradient sweep.
    count_factors: CountFactors,
    /// Reused per-sweep buffers (conditional means, sweep outputs, quadrature
    /// node scratch), shared by the likelihood, prediction and gradient paths.
    /// Behind a `RefCell` because every evaluation entry point takes `&self`;
    /// this makes the kernel `!Sync`, which matches how it is used — each
    /// shard/thread builds its own kernel. Buffers grow to the largest group
    /// once and the hot loops stay allocation-free afterwards (the `c4u-stats`
    /// `alloc_free` suite pins the sweep side of that contract).
    scratch: RefCell<KernelScratch>,
}

/// The reusable buffers of one kernel: grown on first use, then recycled by
/// every subsequent group sweep and model evaluation.
#[derive(Debug, Default)]
struct KernelScratch {
    /// Node-sized scratch of the batched quadrature sweeps.
    quad: QuadratureScratch,
    /// Per-profile conditional means of the current group.
    profile_mu: Vec<f64>,
    /// Per-cell conditional means of the current group (the sweep input).
    mu: Vec<f64>,
    /// Per-cell (or, posterior-free, per-profile) `log Z` sweep output.
    log_z: Vec<f64>,
    /// Per-cell (or per-profile) posterior-mean sweep output (prediction path).
    mean: Vec<f64>,
    /// All-zero counts stand-in for posterior-free prediction.
    zeros: Vec<f64>,
    /// Per-cell `log Z` gradients (gradient path).
    grads: Vec<LogZGradient>,
    /// Per-profile `Σ_i ∂L/∂m_i` over the profile's members (gradient path).
    profile_dm: Vec<f64>,
    /// Group-level `Σ_i (∂L/∂m_i)(x_i - mu_G)` accumulator (gradient path).
    dm_x: Vec<f64>,
    /// Per-observation `log Z` in observation order (gradient path).
    per_obs_log_z: Vec<f64>,
}

impl<'a> CpeLikelihoodKernel<'a> {
    /// Builds the kernel, grouping the observations by observed-domain mask
    /// and tabulating the shared quadrature node tables. The fold passes run
    /// in the default [`QuadratureMath::Exact`] mode — bit-identical to the
    /// scalar oracle.
    pub fn new(
        observations: &'a [CpeObservation],
        num_prior_domains: usize,
        quadrature: &'a GaussLegendre,
    ) -> Self {
        Self::new_with_math(
            observations,
            num_prior_domains,
            quadrature,
            QuadratureMath::Exact,
        )
    }

    /// Builds the kernel with an explicit fold-pass math mode.
    ///
    /// [`QuadratureMath::Exact`] keeps every sweep bit-identical to the scalar
    /// oracle; [`QuadratureMath::FastVector`] runs the lane-chunked polynomial
    /// `exp` fold (deterministic, within ~1e-12 relative of `Exact` per cell —
    /// see the `c4u_stats::batch` math-mode contract).
    pub fn new_with_math(
        observations: &'a [CpeObservation],
        num_prior_domains: usize,
        quadrature: &'a GaussLegendre,
        math: QuadratureMath,
    ) -> Self {
        let groups = MaskGroups::build(observations, num_prior_domains);
        let batch = BinomialNormalBatch::new_with_math(quadrature, math);
        let counts: Vec<(f64, f64)> = groups
            .count_pairs()
            .iter()
            .map(|&(c, x)| (c as f64, x as f64))
            .collect();
        Self {
            observations,
            count_factors: batch.count_factors(&counts),
            groups,
            target: num_prior_domains,
            batch,
            scratch: RefCell::new(KernelScratch::default()),
        }
    }

    /// The mask partition backing this kernel.
    pub fn groups(&self) -> &MaskGroups {
        &self.groups
    }

    /// Marginal log-likelihood of every observation under `model` (one `log Z`
    /// of Eq. 5 per observation, in original observation order): one batched
    /// log-Z sweep over the shared node tables per unique mask, one sweep cell
    /// per distinct cell.
    pub fn per_observation_log_likelihood(
        &self,
        model: &MultivariateNormal,
    ) -> Result<Vec<f64>, SelectionError> {
        let mut out = vec![0.0; self.observations.len()];
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        for group in self.groups.groups() {
            let sigma = self.conditional_means(model, group, &mut s.profile_mu)?;
            gather(&group.cell_profile, &s.profile_mu, &mut s.mu);
            s.log_z.clear();
            s.log_z.resize(s.mu.len(), 0.0);
            // log-Z only: the posterior-mean integral is prediction-side work,
            // and skipping it here halves the quadrature cost of the gradient
            // sweep without touching a bit of `log Z`.
            self.batch.log_z_with_scratch(
                sigma,
                &s.mu,
                &group.cell_correct,
                &group.cell_wrong,
                &mut s.log_z,
                &mut s.quad,
            );
            for (&position, &cell) in group.members().iter().zip(group.cell_of()) {
                out[position] = s.log_z[cell];
            }
        }
        Ok(out)
    }

    /// Total marginal log-likelihood under `model` (Eq. 5), accumulated in the
    /// original observation order so the sum is bit-identical to the
    /// per-observation loop it replaces.
    pub fn log_likelihood(&self, model: &MultivariateNormal) -> Result<f64, SelectionError> {
        let per_observation = self.per_observation_log_likelihood(model)?;
        let mut total = 0.0;
        for term in per_observation {
            total += term;
        }
        Ok(total)
    }

    /// Predicted target-domain accuracy of every observation (Eq. 8), in
    /// original observation order.
    ///
    /// With `use_posterior` the posterior incorporates the worker's observed
    /// correct/wrong counts (one sweep cell per distinct cell); otherwise only
    /// the cross-domain conditional (one sweep cell per distinct profile).
    pub fn predict(
        &self,
        model: &MultivariateNormal,
        use_posterior: bool,
    ) -> Result<Vec<f64>, SelectionError> {
        let mut out = vec![0.0; self.observations.len()];
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        for group in self.groups.groups() {
            let sigma = self.conditional_means(model, group, &mut s.profile_mu)?;
            let (mu, c, x, slot_of): (&[f64], &[f64], &[f64], &[usize]) = if use_posterior {
                gather(&group.cell_profile, &s.profile_mu, &mut s.mu);
                (
                    &s.mu,
                    &group.cell_correct,
                    &group.cell_wrong,
                    group.cell_of(),
                )
            } else {
                s.zeros.clear();
                s.zeros.resize(s.profile_mu.len(), 0.0);
                (&s.profile_mu, &s.zeros, &s.zeros, group.profile_of())
            };
            s.log_z.clear();
            s.log_z.resize(mu.len(), 0.0);
            s.mean.clear();
            s.mean.resize(mu.len(), 0.0);
            self.batch.moments_with_scratch(
                sigma,
                mu,
                c,
                x,
                &mut s.log_z,
                &mut s.mean,
                &mut s.quad,
            );
            for (&position, &slot) in group.members().iter().zip(slot_of) {
                let (lz, posterior_mean) = (s.log_z[slot], s.mean[slot]);
                if !lz.is_finite() || !posterior_mean.is_finite() {
                    return Err(SelectionError::Numerical(
                        "CPE prediction integral did not converge".to_string(),
                    ));
                }
                out[position] = posterior_mean.clamp(0.0, 1.0);
            }
        }
        Ok(out)
    }

    /// Conditions `model` on one group's mask: **one** [`Conditioner`] per
    /// unique mask, one `O(g^2)` triangular solve per distinct profile. The
    /// per-profile conditional means land in `mu` (cleared first); the
    /// returned value is the group's shared conditional standard deviation
    /// (value-independent, and bit-identical to the historical per-member
    /// `Conditional1D::std_dev()` — both are `conditioner.variance().sqrt()`).
    fn conditional_means(
        &self,
        model: &MultivariateNormal,
        group: &MaskGroup,
        mu: &mut Vec<f64>,
    ) -> Result<f64, SelectionError> {
        let conditioner: Conditioner = model.conditioner(self.target, group.observed_idx())?;
        let sigma = conditioner.variance().sqrt();
        mu.clear();
        for values in group.profile_values() {
            mu.push(conditioner.condition(values)?.mean);
        }
        Ok(sigma)
    }
}

/// Fills `out` with `per_profile[profile]` for each cell's profile index: the
/// per-cell sweep inputs of a group.
fn gather(cell_profile: &[usize], per_profile: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(cell_profile.iter().map(|&p| per_profile[p]));
}

/// Splits an observation into the indices and values of the domains that are
/// present (ascending domain order).
pub fn observed_domains(obs: &CpeObservation, num_domains: usize) -> (Vec<usize>, Vec<f64>) {
    let mut idx = Vec::new();
    let mut values = Vec::new();
    for d in 0..num_domains {
        if let Some(Some(a)) = obs.prior_accuracies.get(d) {
            idx.push(d);
            values.push(*a);
        }
    }
    (idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_stats::{binomial_normal_log_z, binomial_normal_moments};

    fn obs(mask: &[Option<f64>], correct: usize, wrong: usize) -> CpeObservation {
        CpeObservation {
            prior_accuracies: mask.to_vec(),
            correct,
            wrong,
        }
    }

    #[test]
    fn grouping_is_deterministic_and_complete() {
        let observations = vec![
            obs(&[Some(0.9), Some(0.8), Some(0.7)], 5, 5),
            obs(&[Some(0.5), None, Some(0.4)], 3, 7),
            obs(&[Some(0.6), Some(0.7), Some(0.5)], 8, 2),
            obs(&[None, None, None], 1, 9),
            obs(&[Some(0.2), None, Some(0.3)], 2, 8),
            // Duplicates: same profile and counts as position 0 (same cell),
            // same profile as position 2 with other counts (new cell), and
            // the all-missing profile again with other counts.
            obs(&[Some(0.9), Some(0.8), Some(0.7)], 5, 5),
            obs(&[Some(0.6), Some(0.7), Some(0.5)], 7, 3),
            obs(&[None, None, None], 2, 8),
            obs(&[Some(0.5), None, Some(0.4)], 3, 7),
            obs(&[None, None, None], 1, 9),
        ];
        let groups = MaskGroups::build(&observations, 3);
        assert_eq!(groups.num_observations(), 10);
        assert_eq!(groups.num_unique_masks(), 3);
        // First-occurrence order.
        assert_eq!(groups.groups()[0].observed_idx(), &[0, 1, 2]);
        assert_eq!(groups.groups()[1].observed_idx(), &[0, 2]);
        assert_eq!(groups.groups()[2].observed_idx(), &[] as &[usize]);
        // Members keep their original order and values.
        assert_eq!(groups.groups()[0].members(), &[0, 2, 5, 6]);
        assert_eq!(groups.groups()[1].members(), &[1, 4, 8]);
        assert_eq!(groups.groups()[1].values()[1], vec![0.2, 0.3]);
        assert_eq!(groups.groups()[2].members(), &[3, 7, 9]);
        assert!(groups.groups()[2].values()[0].is_empty());
        // Distinct profiles and cells, numbered in first-occurrence order.
        let full = &groups.groups()[0];
        assert_eq!((full.num_profiles(), full.num_cells()), (2, 3));
        assert_eq!(full.profile_of(), &[0, 1, 0, 1]);
        assert_eq!(full.cell_of(), &[0, 1, 0, 2]);
        assert_eq!(full.cell_correct, vec![5.0, 8.0, 7.0]);
        let partial = &groups.groups()[1];
        assert_eq!((partial.num_profiles(), partial.num_cells()), (2, 2));
        assert_eq!(partial.profile_of(), &[0, 1, 0]);
        assert_eq!(partial.cell_of(), &[0, 1, 0]);
        let missing = &groups.groups()[2];
        assert_eq!((missing.num_profiles(), missing.num_cells()), (1, 2));
        assert_eq!(missing.profile_of(), &[0, 0, 0]);
        assert_eq!(missing.cell_of(), &[0, 1, 0]);
        assert_eq!(missing.cell_wrong, vec![9.0, 8.0]);
        assert_eq!(groups.num_unique_cells(), 7);
    }

    #[test]
    fn profiles_are_keyed_on_value_bits() {
        // 0.1 + 0.2 and 0.3 differ in the last bit, and +0.0 and -0.0 in the
        // sign bit: each pair is two profiles, since a shared profile must
        // give every member the same conditioning input bit for bit.
        let observations = vec![
            obs(&[Some(0.1 + 0.2)], 1, 1),
            obs(&[Some(0.3)], 1, 1),
            obs(&[Some(0.0)], 1, 1),
            obs(&[Some(-0.0)], 1, 1),
            obs(&[Some(0.3)], 1, 1),
        ];
        let groups = MaskGroups::build(&observations, 1);
        let group = &groups.groups()[0];
        assert_eq!(group.num_profiles(), 4);
        assert_eq!(group.profile_of(), &[0, 1, 2, 3, 1]);
        assert_eq!(groups.num_unique_cells(), 4);
    }

    #[test]
    fn short_profiles_group_like_missing_domains() {
        // An observation whose profile vector is shorter than the domain count
        // treats the absent tail as missing, exactly like observed_domains.
        let observations = vec![obs(&[Some(0.9)], 5, 5), obs(&[Some(0.8), None, None], 4, 6)];
        let groups = MaskGroups::build(&observations, 3);
        assert_eq!(groups.num_unique_masks(), 1);
        assert_eq!(groups.groups()[0].members(), &[0, 1]);
    }

    #[test]
    fn log_z_only_variant_matches_full_moments() {
        let quadrature = GaussLegendre::new(32);
        for (mu, sigma, c, x) in [
            (0.5, 0.15, 7.0, 3.0),
            (0.8, 0.05, 0.0, 0.0),
            (0.2, 0.3, 140.0, 2.0),
            (-0.5, 0.1, 5.0, 5.0),
        ] {
            let (log_z, _) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            // Exact equality: the two integrals are independent computations.
            assert_eq!(binomial_normal_log_z(&quadrature, mu, sigma, c, x), log_z);
        }
    }

    #[test]
    fn empty_observation_set_produces_no_groups() {
        let groups = MaskGroups::build(&[], 3);
        assert_eq!(groups.num_unique_masks(), 0);
        assert_eq!(groups.num_unique_cells(), 0);
        assert_eq!(groups.num_observations(), 0);
    }
}
