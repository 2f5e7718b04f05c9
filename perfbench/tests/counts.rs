//! The benchmark's own checks at smoke size: the traced replay equals the
//! untraced run bit for bit, and the work counts repeat exactly across runs
//! and across 1 vs 2 shards on the same inputs.
//!
//! ```bash
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use c4u_perfbench::check::{check_invariants, count_work, same_report, Counts};
use c4u_perfbench::clock::SpeedProbe;
use c4u_perfbench::trace::{traced_run, Layer};
use c4u_perfbench::workload::{set_up, Case, Scale, Workload};
use c4u_selection::{
    CpeObservation, CrossDomainSelector, MaskGroups, PipelineReport, SelectorConfig,
};

const SEED: u64 = 7;

fn cases(workload: Workload) -> Vec<Case> {
    set_up(workload, SEED, Scale::Smoke).expect("set-up").cases
}

fn untraced(case: &Case, num_shards: usize) -> PipelineReport {
    let mut platform = case.platform.clone();
    let report = CrossDomainSelector::new(SelectorConfig::default().with_num_shards(num_shards))
        .run_with_events(&mut platform, case.k, &case.schedule)
        .expect("selection");
    check_invariants(
        &report,
        &case.platform.active_worker_ids(),
        case.platform.budget_total(),
        case.k,
    )
    .expect("invariants");
    report
}

fn traced(case: &Case, num_shards: usize) -> (PipelineReport, Counts) {
    let mut platform = case.platform.clone();
    let (report, times) = traced_run(
        &SelectorConfig::default().with_num_shards(num_shards),
        &mut platform,
        case.k,
        &case.schedule,
    )
    .expect("traced selection");
    assert!(times.total_s > 0.0);
    assert!(times.get(Layer::CpeUpdate) <= times.get(Layer::Score));
    let counts = count_work(
        &report,
        &platform,
        case.platform.active_worker_ids().len(),
        case.k,
    )
    .expect("counts");
    (report, counts)
}

fn sweep_counts(cases: &[Case], num_shards: usize) -> Counts {
    let mut total = Counts::default();
    for case in cases {
        total.accumulate(&traced(case, num_shards).1);
    }
    total
}

#[test]
fn traced_replay_equals_the_untraced_run_on_every_workload() {
    for workload in Workload::ALL {
        for case in cases(workload) {
            let reference = untraced(&case, case.num_shards);
            let (report, _) = traced(&case, case.num_shards);
            same_report(&reference, &report)
                .unwrap_or_else(|e| panic!("{}: {}: {e}", workload.name(), case.label));
        }
    }
}

#[test]
fn counts_repeat_across_runs_and_shard_layouts() {
    for workload in Workload::ALL {
        let cases = cases(workload);
        let first = sweep_counts(&cases, 1);
        assert_eq!(first, sweep_counts(&cases, 1), "{}", workload.name());
        assert_eq!(first, sweep_counts(&cases, 2), "{}", workload.name());
        assert!(first.observations > 0 && first.answers > 0 && first.lge_fits > 0);
    }
}

#[test]
fn reports_match_across_one_and_two_shards() {
    for workload in Workload::ALL {
        for case in cases(workload) {
            same_report(&untraced(&case, 1), &untraced(&case, 2))
                .unwrap_or_else(|e| panic!("{}: {}: {e}", workload.name(), case.label));
        }
    }
}

#[test]
fn workloads_exercise_their_layers() {
    let pool = cases(Workload::PoolLarge);
    let (report, counts) = traced(&pool[0], pool[0].num_shards);
    // Full profiles: one mask per round, and a closed world.
    assert_eq!(counts.unique_masks, report.rounds.len() as u64);
    assert_eq!((counts.joined, counts.departed), (0, 0));

    let campaign = cases(Workload::CampaignOpen);
    assert_eq!(campaign[0].num_shards, 2);
    let (_, counts) = traced(&campaign[0], 2);
    assert!(counts.joined > 0 && counts.departed > 0);
    // All eight subsets of the three prior domains occur in the pool.
    let observations: Vec<CpeObservation> = campaign[0]
        .platform
        .profiles()
        .into_iter()
        .map(|p| CpeObservation::from_profile(p, 0, 0))
        .collect();
    assert_eq!(MaskGroups::build(&observations, 3).num_unique_masks(), 8);

    let suite = cases(Workload::PaperSuite);
    assert_eq!(suite.len(), 6);
    assert!(suite
        .iter()
        .all(|c| c.schedule.is_empty() && c.num_shards == 1));
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let a = set_up(Workload::CampaignOpen, SEED, Scale::Smoke).expect("set-up");
    let b = set_up(Workload::CampaignOpen, SEED, Scale::Smoke).expect("set-up");
    let c = set_up(Workload::CampaignOpen, SEED + 1, Scale::Smoke).expect("set-up");
    let truths = |s: &c4u_perfbench::workload::Setup| s.cases[0].platform.true_accuracies();
    assert_eq!(truths(&a), truths(&b));
    assert_eq!(a.cases[0].schedule, b.cases[0].schedule);
    assert_ne!(truths(&a), truths(&c));
    for name in ["pool_large", "campaign_open", "paper_suite"] {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn speed_probe_scales_are_positive_and_finite() {
    let mut probe = SpeedProbe::start();
    for _ in 0..3 {
        let scale = probe.scale();
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
    }
}
