//! Regression tests proving the batched mask-grouped likelihood kernel
//! preserved the CPE estimator's numerics **bit-for-bit**.
//!
//! [`reference::ReferenceEstimator`] is a literal transcription of the
//! historical per-observation code path: `condition_on` once per observation
//! per model evaluation, and per-observation prediction. The tests seed it
//! with the exact state of a [`CrossDomainEstimator`] and require exact `f64`
//! equality of the log-likelihood and of `predict_batch` on observation sets
//! that mix fully-observed, partially-missing, and all-missing masks.
//!
//! The quantised-lattice fixture repeats the same checks on a pool shaped
//! like a real one: about 2 000 workers whose profiles are multiples of `1/20`
//! and whose answer counts are integers in `0..=20`, over three masks. Most
//! workers share their `(profile, correct, wrong)` cell with others, so these
//! tests exercise the kernel's per-distinct-cell evaluation. The update on
//! that pool is held to the bits the per-member loop produced, within a
//! relative tolerance of `1e-12`: the factored gradient sweep and the
//! one-solve-per-mask backpropagation round differently from the per-cell
//! sweep and per-profile solves they replaced.
//!
//! A final test pins the *factorisation count*: one observed-block Cholesky per
//! unique non-empty mask per gradient evaluation, i.e.
//! `epochs x unique_masks` per `update()` — the acceptance criterion of the
//! batched-kernel refactor.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{CpeConfig, CpeObservation, CrossDomainEstimator, MaskGroups};
use c4u_stats::conditioning_factorizations;
use reference::ReferenceEstimator;

fn profiles() -> Vec<HistoricalProfile> {
    vec![
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ]
}

/// Observation set mixing every mask shape the kernel has to group: the
/// fully-observed mask (repeated), two distinct partial masks (one repeated),
/// and the all-missing mask.
fn mixed_observations() -> Vec<CpeObservation> {
    fn obs(mask: &[Option<f64>], correct: usize, wrong: usize) -> CpeObservation {
        CpeObservation {
            prior_accuracies: mask.to_vec(),
            correct,
            wrong,
        }
    }
    vec![
        obs(&[Some(0.9), Some(0.9), Some(0.8)], 9, 1),
        obs(&[Some(0.7), Some(0.8), Some(0.6)], 7, 3),
        obs(&[Some(0.4), None, Some(0.3)], 3, 7),
        obs(&[None, None, None], 5, 5),
        obs(&[Some(0.5), Some(0.6), Some(0.4)], 5, 5),
        obs(&[Some(0.8), None, Some(0.7)], 8, 2),
        obs(&[None, Some(0.6), None], 4, 6),
    ]
}

/// A deterministic quantised pool: `workers` observations whose prior
/// accuracies are multiples of `1/20` and whose correct counts lie in
/// `0..=20` (out of 20 answers), spread over the fully-observed, one partial
/// and the all-missing mask. A small multiplicative hash spreads the workers
/// over a few hundred distinct cells, so most cells hold several workers.
fn lattice_observations(workers: usize) -> Vec<CpeObservation> {
    (0..workers)
        .map(|w| {
            let h = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let base = 8 + (h % 9) as usize;
            let profile: Vec<Option<f64>> = (0..3)
                .map(|d| {
                    let k = base + ((h >> (4 + d)) & 1) as usize;
                    Some(k as f64 / 20.0)
                })
                .collect();
            let profile = match w % 5 {
                0 => vec![profile[0], None, profile[2]],
                1 if w % 3 == 0 => vec![None, None, None],
                _ => profile,
            };
            let correct = base + ((h >> 8) % 4) as usize - 3;
            CpeObservation {
                prior_accuracies: profile,
                correct,
                wrong: 20 - correct,
            }
        })
        .collect()
}

fn fast_config() -> CpeConfig {
    CpeConfig {
        // Larger rates and few epochs: real parameter movement, fast test.
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 4,
        ..Default::default()
    }
}

fn estimator(config: CpeConfig) -> CrossDomainEstimator {
    let profiles = profiles();
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config).unwrap()
}

#[test]
fn log_likelihood_matches_reference_bit_for_bit() {
    let config = fast_config();
    let est = estimator(config);
    let reference = ReferenceEstimator::from_estimator(&est, config);
    let observations = mixed_observations();
    // Exact f64 equality: the kernel must not change a single bit.
    assert_eq!(
        est.log_likelihood(&observations).unwrap(),
        reference.log_likelihood(&observations)
    );
}

#[test]
fn predict_batch_matches_reference_bit_for_bit() {
    for use_posterior in [true, false] {
        let config = CpeConfig {
            use_posterior_prediction: use_posterior,
            ..fast_config()
        };
        let mut est = estimator(config);
        let observations = mixed_observations();
        // Exercise the post-update model, not just the initial one.
        est.update(&observations).unwrap();
        let reference = ReferenceEstimator::from_estimator(&est, config);
        assert_eq!(
            est.predict_batch(&observations).unwrap(),
            reference.predict_batch(&observations)
        );
        // The single-observation path is the batch path.
        for obs in &observations {
            assert_eq!(est.predict(obs).unwrap(), reference.predict(obs));
        }
    }
}

#[test]
fn update_factorizes_once_per_unique_mask_per_objective_evaluation() {
    let config = fast_config();
    let mut est = estimator(config);
    let observations = mixed_observations();

    // mixed_observations: 4 distinct masks ({0,1,2}, {0,2}, {}, {1}), of which
    // 3 are non-empty (the all-missing mask conditions on nothing and never
    // factorises).
    let non_empty_masks = 3u64;
    let workers = observations.len() as u64;
    assert!(non_empty_masks < workers);

    let before = conditioning_factorizations();
    est.update(&observations).unwrap();
    let spent = conditioning_factorizations() - before;

    // Each epoch evaluates the closed-form gradient once, and that evaluation
    // factorises once per unique non-empty mask — not once per worker, which
    // is the entire point of the batched kernel.
    let expected = config.epochs as u64 * non_empty_masks;
    assert_eq!(spent, expected);
    let per_worker_cost = config.epochs as u64 * workers;
    assert!(spent < per_worker_cost);

    // predict_batch: one factorisation per unique non-empty mask, total.
    let before = conditioning_factorizations();
    est.predict_batch(&observations).unwrap();
    assert_eq!(conditioning_factorizations() - before, non_empty_masks);
}

#[test]
fn lattice_fixture_is_heavily_duplicated() {
    let observations = lattice_observations(LATTICE_WORKERS);
    let groups = MaskGroups::build(&observations, 3);
    assert_eq!(groups.num_unique_masks(), 3);
    // Cells hold more than four workers on average; profiles far more.
    assert!(4 * groups.num_unique_cells() < observations.len());
    let profiles: usize = groups.groups().iter().map(|g| g.num_profiles()).sum();
    assert!(20 * profiles < observations.len());
}

const LATTICE_WORKERS: usize = 2_000;

/// The lattice tests evaluate one model, so the fast config serves.
fn lattice_config() -> CpeConfig {
    fast_config()
}

#[test]
fn lattice_log_likelihood_matches_reference_bit_for_bit() {
    let config = lattice_config();
    let est = estimator(config);
    let reference = ReferenceEstimator::from_estimator(&est, config);
    let observations = lattice_observations(LATTICE_WORKERS);
    assert_eq!(
        est.log_likelihood(&observations).unwrap(),
        reference.log_likelihood(&observations)
    );
}

#[test]
fn lattice_predict_batch_matches_reference_bit_for_bit() {
    for use_posterior in [true, false] {
        let config = CpeConfig {
            use_posterior_prediction: use_posterior,
            ..lattice_config()
        };
        let est = estimator(config);
        let reference = ReferenceEstimator::from_estimator(&est, config);
        let observations = lattice_observations(LATTICE_WORKERS);
        assert_eq!(
            est.predict_batch(&observations).unwrap(),
            reference.predict_batch(&observations)
        );
    }
}

/// Exact `f64` bits of the mean after a default-config (analytic-gradient)
/// `update()` on the lattice fixture, captured from the kernel when it still
/// ran one conditioning solve and one per-cell sweep cell per member. They
/// are the oracle the current kernel tracks to [`LATTICE_ANALYTIC_TOLERANCE`].
const LATTICE_ANALYTIC_MEAN_BITS: [u64; 4] = [
    4603803565812441607,
    4605079890212445602,
    4602906907328357263,
    4602672319424967614,
];

/// Exact `f64` bits of the matching covariance (row-major 4x4).
const LATTICE_ANALYTIC_COV_BITS: [u64; 16] = [
    4591079232541007078,
    4584416018322349567,
    4586660434645182481,
    13789887362371981020,
    4584416018322349567,
    4589212449099657213,
    4581086372907201625,
    4580723362896739124,
    4586660434645182481,
    4581086372907201625,
    4590950629245205759,
    4586194947594043133,
    13789887362371981020,
    4580723362896739124,
    4586194947594043133,
    4589935837242488314,
];

/// Largest relative deviation of any mean or covariance entry from the
/// recorded per-member bits.
const LATTICE_ANALYTIC_TOLERANCE: f64 = 1e-12;

fn assert_tracks(got: &[f64], recorded_bits: &[u64], what: &str) {
    assert_eq!(got.len(), recorded_bits.len());
    for (i, (&got, &bits)) in got.iter().zip(recorded_bits).enumerate() {
        let want = f64::from_bits(bits);
        let relative = (got - want).abs() / want.abs();
        assert!(
            relative <= LATTICE_ANALYTIC_TOLERANCE,
            "{what}[{i}]: {got:e} vs recorded {want:e} (relative {relative:e})"
        );
    }
}

#[test]
fn lattice_analytic_update_tracks_the_per_member_loop() {
    // The reference only transcribes the finite-difference update, so the
    // default analytic path is held to recorded bits instead.
    // Rates scaled down for 2 000 workers, so the model stays interior.
    let mut est = estimator(CpeConfig {
        epochs: 5,
        mean_learning_rate: 1e-6,
        covariance_learning_rate: 1e-7,
        ..CpeConfig::default()
    });
    est.update(&lattice_observations(LATTICE_WORKERS)).unwrap();
    assert_tracks(est.mean(), &LATTICE_ANALYTIC_MEAN_BITS, "mean");
    assert_tracks(
        est.covariance().as_slice(),
        &LATTICE_ANALYTIC_COV_BITS,
        "covariance",
    );
}
