//! Micro-benchmark of the CPE Eq. 6–7 update on the closed-form gradient.
//!
//! Runs the full `CrossDomainEstimator::update()` on two kinds of synthetic
//! pool of 64 and 256 workers over four missing-domain masks: `distinct`,
//! whose profiles vary continuously so that only the all-missing mask's
//! workers share cells, and `lattice`, whose profiles are multiples of `1/20`
//! and whose answer counts repeat, so workers share
//! `(profile, correct, wrong)` cells as in a real pool and the kernel's
//! per-distinct-cell evaluation pays.
//! Alongside wall-clock, it reports the *observed-block factorisation count*
//! per `update()` — one per unique non-empty mask per epoch, so the count
//! reads directly as likelihood sweeps — and the work units of the factored
//! sweep per epoch: distinct profiles (one Gaussian row each), distinct cells
//! (three dot products each) and distinct `(correct, wrong)` pairs
//! (count-factor rows, built once per `update()`).
//!
//! ```bash
//! cargo bench -p c4u-bench --bench cpe_gradient
//! ```
//!
//! Honours `C4U_CPE_EPOCHS` (default 10) like the other bench targets, so CI
//! can run it as a fast smoke with `C4U_CPE_EPOCHS=2`.

use c4u_bench::cpe_epochs;
use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{CpeConfig, CpeObservation, CrossDomainEstimator, MaskGroups};
use c4u_stats::{conditioning_factorizations, reset_conditioning_factorizations};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

const NUM_DOMAINS: usize = 3;
const POOLS: [Pool; 2] = [Pool::Distinct, Pool::Lattice];

const MASKS: [[bool; NUM_DOMAINS]; 4] = [
    [true, true, true],
    [true, false, true],
    [false, true, false],
    [false, false, false],
];

/// One pool shape: how worker `w` of `workers` gets its profile base.
#[derive(Clone, Copy)]
enum Pool {
    /// The base varies continuously per worker: no two workers with an
    /// observed domain share a cell.
    Distinct,
    /// The base is one of five multiples of `1/20`: workers share cells.
    Lattice,
}

impl Pool {
    fn name(self) -> &'static str {
        match self {
            Pool::Distinct => "distinct",
            Pool::Lattice => "lattice",
        }
    }

    /// Deterministic synthetic pool: `workers` observations spread over four
    /// missing-domain masks (fully observed, two partial, all missing).
    fn observations(self, workers: usize) -> Vec<CpeObservation> {
        (0..workers)
            .map(|w| {
                let mask = MASKS[w % MASKS.len()];
                let (base, step) = match self {
                    Pool::Distinct => (0.25 + 0.5 * (w as f64 / workers.max(1) as f64), 0.07),
                    Pool::Lattice => ((6 + (w / MASKS.len()) % 5 * 2) as f64 / 20.0, 0.05),
                };
                CpeObservation {
                    prior_accuracies: (0..NUM_DOMAINS)
                        .map(|d| mask[d].then_some((base + step * d as f64).clamp(0.05, 0.95)))
                        .collect(),
                    correct: 2 + (w * 7) % 8,
                    wrong: 10 - (2 + (w * 7) % 8),
                }
            })
            .collect()
    }
}

fn make_estimator(config: CpeConfig) -> CrossDomainEstimator {
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config).unwrap()
}

fn bench_config(epochs: usize) -> CpeConfig {
    CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs,
        ..Default::default()
    }
}

fn bench_cpe_gradient(c: &mut Criterion) {
    let epochs = cpe_epochs();
    let config = bench_config(epochs);

    let mut group = c.benchmark_group("cpe_gradient_update");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for (pool, workers) in POOLS.into_iter().flat_map(|p| [(p, 64usize), (p, 256)]) {
        let observations = pool.observations(workers);
        group.bench_with_input(
            BenchmarkId::new(pool.name(), workers),
            &observations,
            |b, observations| {
                let est = make_estimator(config);
                b.iter(|| {
                    let mut fresh = est.clone();
                    fresh.update(observations).unwrap();
                    fresh.mean()[NUM_DOMAINS]
                });
            },
        );
    }
    group.finish();

    // Likelihood-sweep accounting: each sweep factorises once per unique
    // non-empty mask, so the factorisation counter reads directly as sweeps.
    println!("\nLikelihood sweeps per update() (epochs = {epochs}, via factorisation counts):");
    println!(
        "  {:>8} {:>8} {:>8} {:>6} {:>6} {:>14}",
        "pool", "workers", "profiles", "cells", "pairs", "factorisations"
    );
    for (pool, workers) in POOLS.into_iter().flat_map(|p| [(p, 64usize), (p, 256)]) {
        let observations = pool.observations(workers);
        let groups = MaskGroups::build(&observations, NUM_DOMAINS);
        let mut est = make_estimator(config);
        reset_conditioning_factorizations();
        est.update(&observations).unwrap();
        println!(
            "  {:>8} {:>8} {:>8} {:>6} {:>6} {:>14}",
            pool.name(),
            workers,
            groups.num_unique_profiles(),
            groups.num_unique_cells(),
            groups.count_pairs().len(),
            conditioning_factorizations()
        );
    }
}

criterion_group!(benches, bench_cpe_gradient);
criterion_main!(benches);
