//! Correctness checks on a selection report, and the work counts read from it.

use c4u_crowd_sim::{Platform, WorkerId};
use c4u_selection::{
    num_prior_domains, BudgetPlan, CpeObservation, MaskGroups, PipelineReport, SelectionError,
};
use std::collections::{HashMap, HashSet};

/// Checks the invariants every selection run must meet: `|selected| = k`,
/// no worker selected twice, every selected worker was active at some point
/// (in the initial pool or a joiner), `budget_spent <= budget_total`, and
/// every score and per-round estimate finite.
pub fn check_invariants(
    report: &PipelineReport,
    initial_pool: &[WorkerId],
    budget_total: usize,
    k: usize,
) -> Result<(), String> {
    let outcome = &report.outcome;
    if outcome.selected.len() != k {
        return Err(format!(
            "selected {} workers, k = {k}",
            outcome.selected.len()
        ));
    }
    let ever_active: HashSet<WorkerId> = initial_pool
        .iter()
        .chain(report.rounds.iter().flat_map(|r| r.joined.iter()))
        .copied()
        .collect();
    let mut seen = HashSet::new();
    for w in &outcome.selected {
        if !ever_active.contains(w) {
            return Err(format!("selected worker {w} was never active"));
        }
        if !seen.insert(*w) {
            return Err(format!("worker {w} selected twice"));
        }
    }
    if outcome.budget_spent > budget_total {
        return Err(format!(
            "spent {} of a {budget_total} budget",
            outcome.budget_spent
        ));
    }
    let finite = outcome.scores.iter().all(|s| s.is_finite())
        && report.rounds.iter().all(|r| {
            r.static_estimates
                .iter()
                .chain(r.dynamic_estimates.iter())
                .all(|s| s.is_finite())
        });
    if !finite || outcome.scores.len() != k {
        return Err("a score is missing or not finite".to_string());
    }
    Ok(())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks that two reports are equal bit for bit: selection, scores,
/// budget, every round's diagnostics and the learned correlations.
pub fn same_report(a: &PipelineReport, b: &PipelineReport) -> Result<(), String> {
    let (x, y) = (&a.outcome, &b.outcome);
    if x.selected != y.selected || x.rounds != y.rounds || x.budget_spent != y.budget_spent {
        return Err("selection, round count or budget differs".to_string());
    }
    if !same_bits(&x.scores, &y.scores) {
        return Err("selected scores differ".to_string());
    }
    if !same_bits(&a.target_correlations, &b.target_correlations) {
        return Err("target correlations differ".to_string());
    }
    if a.rounds.len() != b.rounds.len() {
        return Err("number of round diagnostics differs".to_string());
    }
    for (r, s) in a.rounds.iter().zip(&b.rounds) {
        let same = r.round == s.round
            && r.entered == s.entered
            && r.survived == s.survived
            && r.joined == s.joined
            && r.departed == s.departed
            && r.tasks_per_worker == s.tasks_per_worker
            && same_bits(&r.static_estimates, &s.static_estimates)
            && same_bits(&r.dynamic_estimates, &s.dynamic_estimates)
            && r.delta.to_bits() == s.delta.to_bits();
        if !same {
            return Err(format!("round {} diagnostics differ", r.round));
        }
    }
    Ok(())
}

/// Logical work of one selection run. Every field is a pure function of the
/// inputs, so it repeats exactly across runs and shard layouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Observations fed to `CrossDomainEstimator::update` (= workers
    /// entering a round, summed over rounds).
    pub observations: u64,
    /// Unique missing-domain masks, summed over rounds.
    pub unique_masks: u64,
    /// Golden-question answers the platform produced.
    pub answers: u64,
    /// Workers whose learning curve LGE fitted (an earlier trained round in
    /// their history).
    pub lge_fits: u64,
    /// Workers that joined mid-campaign.
    pub joined: u64,
    /// Workers that departed mid-campaign.
    pub departed: u64,
}

impl Counts {
    /// Adds another run's counts into this one.
    pub fn accumulate(&mut self, other: &Counts) {
        self.observations += other.observations;
        self.unique_masks += other.unique_masks;
        self.answers += other.answers;
        self.lge_fits += other.lge_fits;
        self.joined += other.joined;
        self.departed += other.departed;
    }
}

/// Reads a run's counts from its report. `platform` is the platform after
/// the run (it knows the joiners' profiles); `initial_pool_size` and `k`
/// rebuild the run's budget plan.
pub fn count_work(
    report: &PipelineReport,
    platform: &Platform,
    initial_pool_size: usize,
    k: usize,
) -> Result<Counts, SelectionError> {
    let plan = BudgetPlan::new(initial_pool_size, k, platform.budget_total())?;
    let d = num_prior_domains(&platform.profiles());
    let mut counts = Counts::default();
    // Rounds each worker has been scored in so far: LGE fits a worker when
    // its CPE history covers a round with K_j > 0 (j < history length).
    let mut scored_rounds: HashMap<WorkerId, usize> = HashMap::new();
    for round in &report.rounds {
        let entered = round.entered.len() as u64;
        counts.observations += entered;
        counts.answers += entered * round.tasks_per_worker as u64;
        counts.joined += round.joined.len() as u64;
        counts.departed += round.departed.len() as u64;
        let observations: Vec<CpeObservation> = round
            .entered
            .iter()
            .map(|&w| Ok(CpeObservation::from_profile(platform.profile(w)?, 0, 0)))
            .collect::<Result<_, SelectionError>>()?;
        counts.unique_masks += MaskGroups::build(&observations, d).num_unique_masks() as u64;
        for &w in &round.entered {
            let history = scored_rounds.entry(w).or_insert(0);
            *history += 1;
            if (0..*history).any(|j| plan.cumulative_tasks_after_round(j) > 0.0) {
                counts.lge_fits += 1;
            }
        }
    }
    Ok(counts)
}
