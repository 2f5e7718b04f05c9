//! The full cross-domain-aware worker selection with training pipeline
//! (Algorithm 4 of the paper), plus its ME-CPE ablation.
//!
//! Per elimination round the pipeline:
//!
//! 1. assigns `floor(t / |W_c|)` golden questions to every remaining worker and
//!    reveals the ground truth (worker training, Sec. IV-B);
//! 2. updates the cross-domain model and produces the static estimate `p_{c,i}`
//!    (CPE, Algorithm 1);
//! 3. fits each worker's learning parameter and produces the dynamic estimate
//!    `p_hat_{c,i,T}` (LGE, Algorithm 2) — skipped in the ME-CPE ablation;
//! 4. keeps the best half of the workers (ME, Algorithm 3) and halves `delta`.
//!
//! After `n = ceil(log2(|W| / k))` rounds the top `k` workers by the final estimate
//! are returned (falling back to the previous round's estimates if fewer than `k`
//! workers survived, per Algorithm 4 line 17).

use crate::budget::BudgetPlan;
use crate::cpe::CpeConfig;
use crate::me::{median_eliminate, top_k, ScoredWorker};
use crate::selector::{SelectionOutcome, WorkerSelector};
use crate::stage::{num_prior_domains, RoundHeader, StageInit, StagePipeline, StageRoundInput};
use crate::SelectionError;
use c4u_crowd_sim::{CampaignSchedule, HistoricalProfile, Platform, WorkerId, WorkerShards};
use std::collections::{BTreeSet, HashMap};

/// Which estimation components the pipeline uses.
///
/// Every preset maps to a canonical [`StagePipeline`] composition (the stage
/// zoo: [`StagePipeline::cpe_and_lge`], [`StagePipeline::cpe_only`],
/// [`StagePipeline::lge_only`], [`StagePipeline::bkt_only`],
/// [`StagePipeline::rasch_calibrated`],
/// [`StagePipeline::cpe_bkt_ensemble`]); arbitrary stage compositions go
/// through [`CrossDomainSelector::with_pipeline`]. [`EstimationMode::ALL`] is
/// the zoo's one ordered list and [`EstimationMode::name`] its display names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimationMode {
    /// CPE + LGE (the full method, "Ours" in the paper's tables).
    CpeAndLge,
    /// CPE only (the "ME-CPE" ablation row).
    CpeOnly,
    /// LGE driven by raw observed sheet accuracies (no cross-domain model).
    LgeOnly,
    /// Per-worker Bayesian Knowledge Tracing posteriors
    /// ([`SelectorConfig::bkt`] parameters).
    BktOnly,
    /// The Eq. 10–11 learning-curve calibration refit per round from raw
    /// observed accuracies.
    RaschCalibrated,
    /// A weighted CPE + BKT ensemble
    /// ([`SelectorConfig::ensemble_cpe_weight`]).
    CpeBktEnsemble,
}

impl EstimationMode {
    /// Every preset, in zoo order: the full method first, then the ablations.
    pub const ALL: [EstimationMode; 6] = [
        EstimationMode::CpeAndLge,
        EstimationMode::CpeOnly,
        EstimationMode::LgeOnly,
        EstimationMode::BktOnly,
        EstimationMode::RaschCalibrated,
        EstimationMode::CpeBktEnsemble,
    ];

    /// Display name of the preset's selector, matching the paper's tables
    /// (result-cache keys embed it, so it must stay stable).
    pub fn name(self) -> &'static str {
        match self {
            EstimationMode::CpeAndLge => "Ours",
            EstimationMode::CpeOnly => "ME-CPE",
            EstimationMode::LgeOnly => "LGE-only",
            EstimationMode::BktOnly => "BKT",
            EstimationMode::RaschCalibrated => "Rasch",
            EstimationMode::CpeBktEnsemble => "CPE+BKT",
        }
    }

    /// The preset's canonical stage pipeline, parameterised by `config`.
    fn pipeline(self, config: &SelectorConfig) -> StagePipeline {
        match self {
            EstimationMode::CpeAndLge => StagePipeline::cpe_and_lge(config.cpe),
            EstimationMode::CpeOnly => StagePipeline::cpe_only(config.cpe),
            EstimationMode::LgeOnly => StagePipeline::lge_only(),
            EstimationMode::BktOnly => StagePipeline::bkt_only(config.bkt),
            EstimationMode::RaschCalibrated => StagePipeline::rasch_calibrated(),
            EstimationMode::CpeBktEnsemble => {
                StagePipeline::cpe_bkt_ensemble(config.cpe, config.bkt, config.ensemble_cpe_weight)
            }
        }
    }
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorConfig {
    /// CPE configuration (learning rates, epochs, `a_T`, ...).
    pub cpe: CpeConfig,
    /// Initial failure probability `delta` of the elimination guarantee.
    pub delta: f64,
    /// Which estimation components to run.
    pub mode: EstimationMode,
    /// Number of worker-range shards each round fans out over: the platform
    /// answers the round's golden questions and the stages score the workers
    /// in `num_shards` contiguous ranges on scoped threads
    /// ([`c4u_crowd_sim::WorkerShards`]). Per-worker RNG streams make every
    /// value — including the default sequential `1` — produce **bit-for-bit
    /// identical** selections; the knob trades threads for wall-clock on
    /// large pools (`tests/shard_equivalence.rs` pins the identity, the
    /// `platform_shards` bench the speedup).
    pub num_shards: usize,
    /// Bayesian Knowledge Tracing parameters used by the
    /// [`EstimationMode::BktOnly`] and [`EstimationMode::CpeBktEnsemble`]
    /// pipelines (ignored by the others).
    pub bkt: c4u_irt::BktParams,
    /// Weight of the CPE child in the [`EstimationMode::CpeBktEnsemble`]
    /// pipeline (the BKT child gets the complement; clamped to `[0.05, 0.95]`
    /// at pipeline construction).
    pub ensemble_cpe_weight: f64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            cpe: CpeConfig::default(),
            delta: 0.1,
            mode: EstimationMode::CpeAndLge,
            num_shards: 1,
            bkt: c4u_irt::BktParams::default(),
            ensemble_cpe_weight: 0.5,
        }
    }
}

impl SelectorConfig {
    /// Sets the initial target-domain accuracy `a_T` (used by both CPE and LGE).
    pub fn with_initial_target_accuracy(mut self, a_t: f64) -> Self {
        self.cpe.initial_target_accuracy = a_t;
        self
    }

    /// Switches the pipeline into the ME-CPE ablation (no LGE).
    pub fn cpe_only(mut self) -> Self {
        self.mode = EstimationMode::CpeOnly;
        self
    }

    /// Switches the pipeline into an arbitrary preset of the stage zoo.
    pub fn with_mode(mut self, mode: EstimationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the number of worker-range shards per round (clamped to >= 1 at
    /// use; the selection is identical for every value).
    pub fn with_num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }
}

/// Per-round diagnostics of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDiagnostics {
    /// 1-based round index.
    pub round: usize,
    /// Workers that entered the round.
    pub entered: Vec<WorkerId>,
    /// Workers that survived the round.
    pub survived: Vec<WorkerId>,
    /// Workers that joined the campaign just before this round (empty in a
    /// closed-world run).
    pub joined: Vec<WorkerId>,
    /// Workers that departed just before this round (empty in a closed-world
    /// run).
    pub departed: Vec<WorkerId>,
    /// Tasks assigned to each worker in the round.
    pub tasks_per_worker: usize,
    /// Static CPE estimate per entered worker (aligned with `entered`).
    pub static_estimates: Vec<f64>,
    /// Dynamic LGE estimate per entered worker (aligned with `entered`; equal to the
    /// static estimates in the ME-CPE ablation).
    pub dynamic_estimates: Vec<f64>,
    /// Failure probability `delta_c` of the round.
    pub delta: f64,
}

/// Result of a full pipeline run, including diagnostics used by the benchmark
/// harness (estimated correlations, per-round estimates).
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The selection outcome (selected workers, rounds, budget).
    pub outcome: SelectionOutcome,
    /// Per-round diagnostics.
    pub rounds: Vec<RoundDiagnostics>,
    /// Estimated correlation between each prior domain and the target domain at the
    /// end of the run (the Sec. V-H numbers).
    pub target_correlations: Vec<f64>,
}

/// The cross-domain-aware worker selector with training.
///
/// Holds an estimation [`StagePipeline`] as a *template*: every [`Self::run`]
/// clones it and re-initialises the clone on the run's worker pool, so a single
/// selector value can be shared across threads (the parallel evaluation engine
/// relies on this).
#[derive(Debug, Clone)]
pub struct CrossDomainSelector {
    config: SelectorConfig,
    name: String,
    pipeline: StagePipeline,
}

impl CrossDomainSelector {
    /// Creates the selector for the preset named by `config.mode` (the full
    /// method by default; every stage-zoo ablation is one
    /// [`SelectorConfig::with_mode`] away).
    pub fn new(config: SelectorConfig) -> Self {
        Self {
            name: config.mode.name().to_string(),
            pipeline: config.mode.pipeline(&config),
            config,
        }
    }

    /// Creates a selector with a custom estimation-stage composition (new
    /// ablations — LGE-only, IRT-backed stages, ... — are one-line pipelines).
    /// `config.mode` is ignored; the supplied pipeline decides the stages.
    ///
    /// `config.cpe.initial_target_accuracy` is the `a_T` handed to **every**
    /// stage through [`StageInit`] (LGE difficulty anchors, empty-domain
    /// fallbacks). If a stage carries its own `CpeConfig`, build it from the
    /// same value — e.g. `StagePipeline::cpe_and_lge(config.cpe)` — or the
    /// stage-level and pipeline-level `a_T` will silently disagree.
    pub fn with_pipeline(
        config: SelectorConfig,
        pipeline: StagePipeline,
        name: impl Into<String>,
    ) -> Self {
        Self {
            config,
            name: name.into(),
            pipeline,
        }
    }

    /// Creates the full method with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(SelectorConfig::default())
    }

    /// Creates the ME-CPE ablation with default configuration.
    pub fn cpe_only() -> Self {
        Self::new(SelectorConfig::default().cpe_only())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// The estimation-stage template this selector runs.
    pub fn pipeline(&self) -> &StagePipeline {
        &self.pipeline
    }

    /// Runs the pipeline and returns the full report (outcome + diagnostics).
    ///
    /// This is the closed-world campaign: it delegates to
    /// [`Self::run_with_events`] with the empty [`CampaignSchedule`], and
    /// `tests/event_equivalence.rs` pins that the two are bit-for-bit
    /// identical.
    pub fn run(&self, platform: &mut Platform, k: usize) -> Result<PipelineReport, SelectionError> {
        self.run_with_events(platform, k, &CampaignSchedule::empty())
    }

    /// Runs the pipeline as an online campaign: before each round, the
    /// schedule's [`RoundEvents`](c4u_crowd_sim::RoundEvents) for that round
    /// are applied to the platform — joining workers enter the surviving pool
    /// immediately (their first answer sheet doubles as their first
    /// observation), departing workers drop out of it.
    ///
    /// Two structural guarantees make churn safe:
    ///
    /// * answer streams are keyed by (round, worker id), so any join/leave
    ///   sequence leaves every survivor's answers bit-for-bit unchanged
    ///   (`tests/churn_determinism.rs`);
    /// * the budget plan assigns `floor(t / |W_c|)` tasks per remaining
    ///   worker, so arrivals shrink the per-worker share instead of
    ///   overrunning the round budget.
    pub fn run_with_events(
        &self,
        platform: &mut Platform,
        k: usize,
        schedule: &CampaignSchedule,
    ) -> Result<PipelineReport, SelectionError> {
        let pool: Vec<WorkerId> = platform.active_worker_ids();
        if pool.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        if k == 0 || k > pool.len() {
            return Err(SelectionError::InvalidConfig {
                what: "k must lie in [1, pool_size]",
                value: k as f64,
            });
        }
        let plan = BudgetPlan::new(pool.len(), k, platform.budget_total())?;

        // Initialise the estimation stages from the historical profiles
        // (Sec. V-C initialisation): CPE builds its cross-domain model, LGE its
        // per-domain difficulty anchors.
        let mut pipeline = self.pipeline.clone();
        let d;
        {
            let profiles = platform.profiles();
            d = num_prior_domains(&profiles);
            pipeline.initialize(&StageInit {
                profiles: &profiles,
                num_prior_domains: d,
                initial_target_accuracy: self.config.cpe.initial_target_accuracy,
            })?;
        }
        // Cumulative training schedule K_0, ..., K_n shared by all stages.
        let cumulative_tasks: Vec<f64> = (0..=plan.rounds)
            .map(|j| plan.cumulative_tasks_after_round(j))
            .collect();

        let mut remaining = pool.clone();
        let mut delta = self.config.delta;
        let mut diagnostics = Vec::new();
        let mut final_scores: Vec<ScoredWorker> = Vec::new();
        let mut previous_scores: Vec<ScoredWorker> = Vec::new();

        let num_shards = self.config.num_shards.max(1);
        for round in 1..=plan.rounds {
            // --- Round events (arrivals and departures) ---
            let (joined, departed) = match schedule.events_for(round) {
                Some(events) => {
                    let applied = platform.apply_events(events)?;
                    remaining.extend(applied.joined.iter().copied());
                    if !applied.departed.is_empty() {
                        let departed: BTreeSet<WorkerId> =
                            applied.departed.iter().copied().collect();
                        remaining.retain(|w| !departed.contains(w));
                    }
                    (applied.joined, applied.departed)
                }
                None => (Vec::new(), Vec::new()),
            };
            let tasks_per_worker = plan.tasks_per_worker(remaining.len());
            // One worker-range partition per round: the platform answers the
            // shared golden slice shard-by-shard on scoped threads, and the
            // same layout drives the stages' per-worker scoring below.
            let shards = WorkerShards::by_count(remaining.len(), num_shards);
            let record =
                platform.assign_learning_batch_sharded(&remaining, tasks_per_worker, &shards)?;

            // --- Estimation stages (Algorithms 1-2 in the canonical pipeline) ---
            let profiles: Vec<&HistoricalProfile> = record
                .sheets
                .iter()
                .map(|sheet| platform.profile(sheet.worker))
                .collect::<Result<_, _>>()?;
            let estimates = pipeline.score_round(&StageRoundInput {
                header: RoundHeader {
                    round,
                    total_rounds: plan.rounds,
                    delta,
                    sheets: &record.sheets,
                },
                profiles: &profiles,
                cumulative_tasks: &cumulative_tasks,
                num_shards,
            })?;
            let static_estimates = estimates.first().to_vec();
            let dynamic_estimates = estimates.last().to_vec();

            // --- ME (Algorithm 3) ---
            // The per-worker scoring work was sharded inside the stages; here
            // the scores (already in worker order) are paired with their
            // workers and the elimination ranks the whole round at once.
            let scored: Vec<ScoredWorker> = record
                .sheets
                .iter()
                .zip(dynamic_estimates.iter())
                .map(|(sheet, &score)| ScoredWorker::new(sheet.worker, score))
                .collect();
            let survivors = median_eliminate(&scored);

            diagnostics.push(RoundDiagnostics {
                round,
                entered: remaining.clone(),
                survived: survivors.clone(),
                joined,
                departed,
                tasks_per_worker,
                static_estimates,
                dynamic_estimates,
                delta,
            });

            previous_scores = final_scores;
            final_scores = scored;
            remaining = survivors;
            delta /= 2.0;
        }

        // --- Final top-k extraction (Algorithm 4 line 17) ---
        let survivors: BTreeSet<WorkerId> = remaining.iter().copied().collect();
        let surviving_scores: Vec<ScoredWorker> = final_scores
            .iter()
            .filter(|s| survivors.contains(&s.worker))
            .copied()
            .collect();
        let selected = if remaining.len() >= k {
            top_k(&surviving_scores, k)
        } else {
            // Fewer than k survivors: fall back to the previous round's scores over
            // the workers that entered the final round.
            let fallback: Vec<ScoredWorker> = if previous_scores.is_empty() {
                final_scores.clone()
            } else {
                previous_scores.clone()
            };
            top_k(&fallback, k)
        };
        let score_lookup: HashMap<WorkerId, f64> = final_scores
            .iter()
            .chain(previous_scores.iter())
            .map(|s| (s.worker, s.score))
            .collect();
        let scores: Vec<f64> = selected
            .iter()
            .map(|w| score_lookup.get(w).copied().unwrap_or(0.0))
            .collect();

        let target_correlations = match pipeline.target_correlations() {
            Some(correlations) => correlations?,
            None => Vec::new(),
        };
        debug_assert!(target_correlations.is_empty() || target_correlations.len() == d);

        Ok(PipelineReport {
            outcome: SelectionOutcome::new(selected, plan.rounds, platform.budget_spent())
                .with_scores(scores),
            rounds: diagnostics,
            target_correlations,
        })
    }
}

impl WorkerSelector for CrossDomainSelector {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(
        &self,
        platform: &mut Platform,
        k: usize,
    ) -> Result<SelectionOutcome, SelectionError> {
        Ok(self.run(platform, k)?.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::{generate, DatasetConfig};

    fn fast_config() -> SelectorConfig {
        // Fewer CPE epochs keep the unit tests quick; the benchmark harness uses the
        // paper defaults.
        let mut config = SelectorConfig::default();
        config.cpe.epochs = 5;
        config
    }

    fn rw1_platform() -> Platform {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        Platform::from_dataset(&ds, 11).unwrap()
    }

    #[test]
    fn full_pipeline_selects_k_workers_within_budget() {
        let mut platform = rw1_platform();
        let selector = CrossDomainSelector::new(fast_config());
        assert_eq!(selector.name(), "Ours");
        let report = selector.run(&mut platform, 7).unwrap();
        assert_eq!(report.outcome.selected.len(), 7);
        assert_eq!(report.outcome.rounds, 2);
        assert!(report.outcome.budget_spent <= platform.budget_total());
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.target_correlations.len(), 3);
        // Selected workers are distinct.
        let mut unique = report.outcome.selected.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 7);
        // Scores align with the selection.
        assert_eq!(report.outcome.scores.len(), 7);
    }

    #[test]
    fn elimination_halves_the_pool_each_round() {
        let mut platform = rw1_platform();
        let selector = CrossDomainSelector::new(fast_config());
        let report = selector.run(&mut platform, 7).unwrap();
        assert_eq!(report.rounds[0].entered.len(), 27);
        assert_eq!(report.rounds[0].survived.len(), 14);
        assert_eq!(report.rounds[1].entered.len(), 14);
        assert_eq!(report.rounds[1].survived.len(), 7);
        // Delta halves between rounds.
        assert!((report.rounds[0].delta - 0.1).abs() < 1e-12);
        assert!((report.rounds[1].delta - 0.05).abs() < 1e-12);
        // Estimates are aligned with the entered workers and lie in [0, 1].
        for d in &report.rounds {
            assert_eq!(d.static_estimates.len(), d.entered.len());
            assert_eq!(d.dynamic_estimates.len(), d.entered.len());
            assert!(d
                .static_estimates
                .iter()
                .chain(d.dynamic_estimates.iter())
                .all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn cpe_only_ablation_differs_in_name_and_skips_lge() {
        let mut platform = rw1_platform();
        let selector = CrossDomainSelector::new(fast_config().cpe_only());
        assert_eq!(selector.name(), "ME-CPE");
        let report = selector.run(&mut platform, 7).unwrap();
        for d in &report.rounds {
            assert_eq!(d.static_estimates, d.dynamic_estimates);
        }
    }

    #[test]
    fn selection_favours_genuinely_strong_workers() {
        // With the cross-domain signal present, the selected group should be clearly
        // better than the pool average in true accuracy.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 3).unwrap();
        let selector = CrossDomainSelector::new(fast_config());
        let report = selector.run(&mut platform, 7).unwrap();
        let truths = platform.true_accuracies();
        let pool_mean = c4u_stats::mean(&truths);
        let selected_mean = c4u_stats::mean(
            &report
                .outcome
                .selected
                .iter()
                .map(|&w| truths[w])
                .collect::<Vec<_>>(),
        );
        assert!(
            selected_mean > pool_mean,
            "selected {selected_mean} should beat pool {pool_mean}"
        );
    }

    #[test]
    fn invalid_k_is_rejected() {
        let mut platform = rw1_platform();
        let selector = CrossDomainSelector::new(fast_config());
        assert!(selector.run(&mut platform, 0).is_err());
        assert!(selector.run(&mut platform, 100).is_err());
    }

    #[test]
    fn selector_trait_roundtrip() {
        let mut platform = rw1_platform();
        let selector: Box<dyn WorkerSelector> = Box::new(CrossDomainSelector::new(fast_config()));
        let outcome = selector.select(&mut platform, 7).unwrap();
        assert_eq!(outcome.selected.len(), 7);
    }

    #[test]
    fn config_builders() {
        let c = SelectorConfig::default().with_initial_target_accuracy(0.3);
        assert!((c.cpe.initial_target_accuracy - 0.3).abs() < 1e-12);
        let c = c.cpe_only();
        assert_eq!(c.mode, EstimationMode::CpeOnly);
        let s = CrossDomainSelector::with_defaults();
        assert_eq!(s.name(), "Ours");
        let s = CrossDomainSelector::cpe_only();
        assert_eq!(s.name(), "ME-CPE");
        assert_eq!(s.config().mode, EstimationMode::CpeOnly);
    }

    #[test]
    fn empty_schedule_matches_closed_world_run() {
        let reference = {
            let mut platform = rw1_platform();
            CrossDomainSelector::new(fast_config())
                .run(&mut platform, 7)
                .unwrap()
        };
        let mut platform = rw1_platform();
        let via_events = CrossDomainSelector::new(fast_config())
            .run_with_events(&mut platform, 7, &CampaignSchedule::empty())
            .unwrap();
        assert_eq!(reference.outcome.selected, via_events.outcome.selected);
        assert_eq!(reference.outcome.scores, via_events.outcome.scores);
        assert_eq!(reference.rounds, via_events.rounds);
        for d in &via_events.rounds {
            assert!(d.joined.is_empty());
            assert!(d.departed.is_empty());
        }
    }

    #[test]
    fn campaign_with_churn_selects_from_the_open_pool() {
        use c4u_crowd_sim::RoundEvents;
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 11).unwrap();
        let n = platform.pool_size();
        // Two workers join before round 2; worker 0 departs at the same time.
        let schedule = CampaignSchedule::empty().with_round(
            2,
            RoundEvents::none()
                .with_join(ds.workers[1].clone())
                .with_join(ds.workers[2].clone())
                .with_leave(0),
        );
        let report = CrossDomainSelector::new(fast_config())
            .run_with_events(&mut platform, 7, &schedule)
            .unwrap();
        assert_eq!(report.outcome.selected.len(), 7);
        assert!(report.outcome.budget_spent <= platform.budget_total());
        assert_eq!(report.rounds[0].joined, Vec::<WorkerId>::new());
        assert_eq!(report.rounds[1].joined, vec![n, n + 1]);
        // Worker 0 either was already eliminated in round 1 or departed here;
        // either way it must not enter round 2 or the final selection.
        assert_eq!(report.rounds[1].departed, vec![0]);
        assert!(!report.rounds[1].entered.contains(&0));
        assert!(!report.outcome.selected.contains(&0));
        // The joiners entered round 2 alongside the round-1 survivors.
        assert!(report.rounds[1].entered.contains(&n));
        assert!(report.rounds[1].entered.contains(&(n + 1)));
    }
}
