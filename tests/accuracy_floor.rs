//! Accuracy floor of the default selector on the paper's six datasets.
//!
//! Runs `CrossDomainSelector` with `SelectorConfig::default()` on RW-1, RW-2
//! and S-1..S-4 (each at its shipped generation seed) for three platform
//! seeds, and requires the mean working accuracy (Table V) of the selected
//! workers to stay within [`TOLERANCE`] of [`RECORDED_MEAN_WORKING_ACCURACY`].
//!
//! The recorded value was measured with the per-cell Eq. 6–7 gradient sweep,
//! before the factored sweep replaced it. The factored sweep changes the
//! gradient's rounding (and, on collapsed-variance pools, its result), so a
//! few runs may select a different team; this floor keeps such changes from
//! quietly costing quality on the paper's own datasets.

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{CrossDomainSelector, SelectorConfig};

/// Mean working accuracy over the 18 runs below, recorded with the per-cell
/// gradient sweep.
const RECORDED_MEAN_WORKING_ACCURACY: f64 = 0.907_043;

/// How far the mean may fall below the recorded value.
const TOLERANCE: f64 = 0.01;

const PLATFORM_SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn default_selector_keeps_its_working_accuracy_on_the_paper_datasets() {
    let selector = CrossDomainSelector::new(SelectorConfig::default());
    let mut accuracies = Vec::new();
    for config in DatasetConfig::all_paper_datasets() {
        let dataset = generate(&config).unwrap();
        for seed in PLATFORM_SEEDS {
            let mut platform = Platform::from_dataset(&dataset, seed).unwrap();
            let report = selector.run(&mut platform, config.select_k).unwrap();
            let selected = &report.outcome.selected;
            assert_eq!(
                selected.len(),
                config.select_k,
                "{} seed {seed}",
                config.name
            );
            accuracies.push(platform.evaluate_working_accuracy(selected).unwrap());
        }
    }
    let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    eprintln!(
        "mean working accuracy over {} runs: {mean:.6}",
        accuracies.len()
    );
    assert!(
        mean >= RECORDED_MEAN_WORKING_ACCURACY - TOLERANCE,
        "mean working accuracy {mean:.6} fell below the recorded \
         {RECORDED_MEAN_WORKING_ACCURACY:.6} by more than {TOLERANCE}"
    );
}
