//! Property-based tests of the batched likelihood kernel.
//!
//! For randomly generated observation sets — arbitrary missing-domain masks,
//! accuracies, and answer counts, with the all-missing and fully-observed
//! masks force-included in every case — the mask-grouped kernel must agree
//! with the shared per-observation reference (`tests/reference/mod.rs`)
//! **exactly** on:
//!
//! * the total and per-observation marginal log-likelihood (Eq. 5),
//! * the finite-difference gradient of the packed-parameter objective
//!   (the quantity the Eq. 6–7 update consumes), and
//! * the batch predictions (Eq. 8), with and without the posterior counts.
//!
//! A second family draws observations from a small lattice (accuracies in
//! quarters, answer counts below 4, every draw repeated), so many members share
//! a `(profile, correct, wrong)` cell. There every member's kernel output must
//! equal, bit for bit, that of a kernel built on the member's observation
//! alone, in both quadrature math modes: sharing a cell never changes a bit.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_optim::gradient_with_step;
use c4u_selection::{
    observed_domains, CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator,
    QuadratureMath,
};
use c4u_stats::{nearest_positive_definite, GaussLegendre, MultivariateNormal, Vector};
use proptest::prelude::*;
use reference::{
    from_lower_triangle, lower_triangle, reference_log_likelihood, reference_predict,
    reference_worker_log_likelihood,
};

const NUM_DOMAINS: usize = 3;

/// A live estimator provides a realistic model (profile-derived moments plus
/// random correlations) for the kernel to evaluate against.
fn estimator() -> CrossDomainEstimator {
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap()
}

/// Strategy: one observation with a random observed-domain mask (3 mask bits),
/// random accuracies, and random answer counts.
fn observation_strategy() -> impl Strategy<Value = CpeObservation> {
    (
        0u8..8,
        0.05..0.95f64,
        0.05..0.95f64,
        0.05..0.95f64,
        0usize..11,
        0usize..11,
    )
        .prop_map(|(mask, a0, a1, a2, correct, wrong)| CpeObservation {
            prior_accuracies: [a0, a1, a2]
                .iter()
                .enumerate()
                .map(|(d, &a)| (mask & (1 << d) != 0).then_some(a))
                .collect(),
            correct,
            wrong,
        })
}

/// Appends the two boundary masks so every case exercises them.
fn with_boundary_masks(mut observations: Vec<CpeObservation>) -> Vec<CpeObservation> {
    observations.push(CpeObservation {
        prior_accuracies: vec![None, None, None],
        correct: 4,
        wrong: 6,
    });
    observations.push(CpeObservation {
        prior_accuracies: vec![Some(0.75), Some(0.65), Some(0.55)],
        correct: 7,
        wrong: 3,
    });
    observations
}

/// Strategy: one observation from a small lattice — a random mask, accuracies
/// in `{0.25, 0.5, 0.75}`, answer counts in `0..4` — so independent draws
/// collide on the same cell often.
fn lattice_observation_strategy() -> impl Strategy<Value = CpeObservation> {
    (0u8..8, 1u8..4, 1u8..4, 1u8..4, 0usize..4, 0usize..4).prop_map(
        |(mask, k0, k1, k2, correct, wrong)| CpeObservation {
            prior_accuracies: [k0, k1, k2]
                .iter()
                .enumerate()
                .map(|(d, &k)| (mask & (1 << d) != 0).then_some(f64::from(k) / 4.0))
                .collect(),
            correct,
            wrong,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_log_likelihood_matches_reference(observations in prop::collection::vec(observation_strategy(), 1..8)) {
        let observations = with_boundary_masks(observations);
        let est = estimator();
        let model = est.model().unwrap();
        let quadrature = GaussLegendre::new(CpeConfig::default().quadrature_order);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);

        let batched = kernel.log_likelihood(&model).unwrap();
        let expected = reference_log_likelihood(&model, &quadrature, NUM_DOMAINS, &observations);
        prop_assert_eq!(batched, expected);

        // Per-observation terms agree too (and therefore so does any
        // reordering-sensitive consumer).
        let per_obs = kernel.per_observation_log_likelihood(&model).unwrap();
        prop_assert_eq!(per_obs.len(), observations.len());
        for (i, obs) in observations.iter().enumerate() {
            prop_assert_eq!(
                per_obs[i],
                reference_worker_log_likelihood(&model, &quadrature, NUM_DOMAINS, obs)
            );
        }
    }

    #[test]
    fn kernel_gradient_matches_reference(observations in prop::collection::vec(observation_strategy(), 1..6)) {
        let observations = with_boundary_masks(observations);
        let est = estimator();
        let config = CpeConfig::default();
        let quadrature = GaussLegendre::new(config.quadrature_order);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);

        let mut params = est.mean().to_vec();
        params.extend(lower_triangle(est.covariance()));

        let unpack = |p: &[f64]| -> Option<MultivariateNormal> {
            let mean = &p[..NUM_DOMAINS + 1];
            let cov = from_lower_triangle(&p[NUM_DOMAINS + 1..], NUM_DOMAINS + 1);
            let cov = nearest_positive_definite(&cov, config.min_variance).ok()?;
            MultivariateNormal::new(Vector::from_slice(mean), cov).ok()
        };
        let batched_objective = |p: &[f64]| {
            unpack(p)
                .and_then(|model| kernel.log_likelihood(&model).ok())
                .map_or(1e12, |ll| -ll)
        };
        let reference_objective = |p: &[f64]| {
            unpack(p).map_or(1e12, |model| {
                -reference_log_likelihood(&model, &quadrature, NUM_DOMAINS, &observations)
            })
        };

        let batched = gradient_with_step(batched_objective, &params, 1e-5);
        let expected = gradient_with_step(reference_objective, &params, 1e-5);
        prop_assert_eq!(batched, expected);
    }

    #[test]
    fn kernel_predictions_match_reference(
        observations in prop::collection::vec(observation_strategy(), 1..8),
        use_posterior in 0u8..2,
    ) {
        let observations = with_boundary_masks(observations);
        let use_posterior = use_posterior == 1;
        let est = estimator();
        let model = est.model().unwrap();
        let quadrature = GaussLegendre::new(CpeConfig::default().quadrature_order);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);

        let batched = kernel.predict(&model, use_posterior).unwrap();
        let expected =
            reference_predict(&model, &quadrature, NUM_DOMAINS, &observations, use_posterior);
        prop_assert_eq!(batched, expected);
    }

    #[test]
    fn grouping_partitions_the_observations(observations in prop::collection::vec(observation_strategy(), 1..10)) {
        let observations = with_boundary_masks(observations);
        let quadrature = GaussLegendre::new(8);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);
        let groups = kernel.groups();
        prop_assert_eq!(groups.num_observations(), observations.len());
        // Every observation appears exactly once, in the group whose mask it has.
        let mut seen = vec![false; observations.len()];
        for group in groups.groups() {
            for (&member, values) in group.members().iter().zip(group.values()) {
                prop_assert!(!seen[member]);
                seen[member] = true;
                let (idx, vals) = observed_domains(&observations[member], NUM_DOMAINS);
                prop_assert_eq!(group.observed_idx(), idx.as_slice());
                prop_assert_eq!(values.as_slice(), vals.as_slice());
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert!(groups.num_unique_masks() <= observations.len());
        prop_assert!(groups.num_unique_masks() >= 1);
    }

    #[test]
    fn shared_cells_match_singleton_kernels(
        draws in prop::collection::vec(lattice_observation_strategy(), 1..24),
        fast in 0u8..2,
    ) {
        // Every draw appears at least twice, interleaved with the others.
        let mut observations = draws.clone();
        observations.extend(draws);
        let math = if fast == 1 { QuadratureMath::FastVector } else { QuadratureMath::Exact };
        let model = estimator().model().unwrap();
        let quadrature = GaussLegendre::new(CpeConfig::default().quadrature_order);
        let kernel =
            CpeLikelihoodKernel::new_with_math(&observations, NUM_DOMAINS, &quadrature, math);
        prop_assert!(kernel.groups().num_unique_cells() <= observations.len() / 2);

        let per_obs = kernel.per_observation_log_likelihood(&model).unwrap();
        let with_posterior = kernel.predict(&model, true).unwrap();
        let without_posterior = kernel.predict(&model, false).unwrap();
        let fused = kernel.log_likelihood_gradient(&model).unwrap();
        let mut fused_total = 0.0;
        for (i, obs) in observations.iter().enumerate() {
            let single = std::slice::from_ref(obs);
            let alone = CpeLikelihoodKernel::new_with_math(single, NUM_DOMAINS, &quadrature, math);
            prop_assert_eq!(per_obs[i], alone.per_observation_log_likelihood(&model).unwrap()[0]);
            prop_assert_eq!(with_posterior[i], alone.predict(&model, true).unwrap()[0]);
            prop_assert_eq!(without_posterior[i], alone.predict(&model, false).unwrap()[0]);
            fused_total += alone.log_likelihood_gradient(&model).unwrap().log_likelihood;
        }
        // The fused sweep's log Z terms are summed in observation order too.
        prop_assert_eq!(fused.log_likelihood, fused_total);
    }

    #[test]
    fn cells_are_the_distinct_profile_and_count_triples(
        draws in prop::collection::vec(lattice_observation_strategy(), 1..24),
    ) {
        let mut observations = draws.clone();
        observations.extend(draws);
        let quadrature = GaussLegendre::new(8);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);
        for group in kernel.groups().groups() {
            let key = |k: usize| {
                let obs = &observations[group.members()[k]];
                let bits: Vec<u64> = group.values()[k].iter().map(|v| v.to_bits()).collect();
                (bits, obs.correct, obs.wrong)
            };
            let mut next_profile = 0;
            let mut next_cell = 0;
            for k in 0..group.members().len() {
                // Numbering is first-occurrence: a new index is the next one.
                prop_assert!(group.profile_of()[k] <= next_profile);
                prop_assert!(group.cell_of()[k] <= next_cell);
                next_profile = next_profile.max(group.profile_of()[k] + 1);
                next_cell = next_cell.max(group.cell_of()[k] + 1);
                for j in 0..k {
                    let (a, b) = (key(j), key(k));
                    prop_assert_eq!(group.profile_of()[j] == group.profile_of()[k], a.0 == b.0);
                    prop_assert_eq!(group.cell_of()[j] == group.cell_of()[k], a == b);
                }
            }
            prop_assert_eq!(group.num_profiles(), next_profile);
            prop_assert_eq!(group.num_cells(), next_cell);
        }
    }
}
