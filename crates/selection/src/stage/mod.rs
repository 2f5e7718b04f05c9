//! Pluggable estimation stages (the seam between Algorithms 1–3).
//!
//! [`CrossDomainSelector`](crate::CrossDomainSelector) historically hard-wired
//! CPE and LGE inline in its round loop; this module turns each estimation step
//! into an [`EstimationStage`] and the round loop into a [`StagePipeline`] that
//! threads per-worker scores through the stages in order:
//!
//! * [`CpeStage`] — Algorithm 1: updates the cross-domain model with the
//!   round's answer sheets and emits the static estimate `p_{c,i}`;
//! * [`LgeStage`] — Algorithm 2: refines the preceding stage's estimates into
//!   the dynamic estimate `p_hat_{c,i,T}` using the preceding stage's estimate
//!   history across rounds.
//!
//! The pipeline records every stage's per-worker output history, so a stage can
//! consume the full cross-round trajectory of the stages before it (that is how
//! LGE sees the CPE history without the two being coupled). Beyond the two
//! canonical stages, the module hosts the **stage zoo**: IRT-backed stages
//! ([`BktStage`], [`RaschStage`]), the [`EnsembleStage`] combinator, and the
//! [`SheetAccuracyStage`] prior used by the LGE-only ablation. New ablations
//! are one-line compositions:
//!
//! ```
//! use c4u_selection::{CpeConfig, CpeStage, LgeStage, StagePipeline};
//! use c4u_irt::BktParams;
//!
//! // The full method (CPE + LGE)…
//! let full = StagePipeline::new(vec![
//!     Box::new(CpeStage::new(CpeConfig::default())),
//!     Box::new(LgeStage::new()),
//! ])
//! .unwrap();
//! // …and the canonical ablations of the zoo.
//! assert_eq!(full.stage_names(), vec!["cpe", "lge"]);
//! assert_eq!(
//!     StagePipeline::cpe_only(CpeConfig::default()).stage_names(),
//!     vec!["cpe"]
//! );
//! assert_eq!(StagePipeline::lge_only().stage_names(), vec!["empirical", "lge"]);
//! assert_eq!(
//!     StagePipeline::bkt_only(BktParams::default()).stage_names(),
//!     vec!["bkt"]
//! );
//! assert_eq!(StagePipeline::rasch_calibrated().stage_names(), vec!["rasch"]);
//! assert_eq!(
//!     StagePipeline::cpe_bkt_ensemble(CpeConfig::default(), BktParams::default(), 0.5)
//!         .stage_names(),
//!     vec!["ensemble"]
//! );
//! ```

mod ensemble;
mod irt;

pub use ensemble::EnsembleStage;
pub use irt::{BktStage, RaschStage};

use crate::cpe::{CpeConfig, CpeObservation, CrossDomainEstimator};
use crate::lge::{LearningGainEstimator, LgeConfig, LgeWorkerInput};
use crate::SelectionError;
use c4u_crowd_sim::parallel::run_indexed_jobs;
use c4u_crowd_sim::{AnswerSheet, HistoricalProfile, WorkerId, WorkerShards};
use c4u_irt::BktParams;
use std::collections::HashMap;
use std::fmt;

/// Pool-level context handed to every stage once, before round 1.
#[derive(Debug, Clone, Copy)]
pub struct StageInit<'a> {
    /// Historical profiles of the full worker pool.
    pub profiles: &'a [&'a HistoricalProfile],
    /// Number of prior domains `D` (the maximum domain count over the pool).
    pub num_prior_domains: usize,
    /// Initial target-domain accuracy `a_T`.
    pub initial_target_accuracy: f64,
}

/// Derives the number of prior domains the same way the CPE initialisation
/// does: the maximum domain count over the pool's profiles.
pub fn num_prior_domains(profiles: &[&HistoricalProfile]) -> usize {
    profiles.iter().map(|p| p.num_domains()).max().unwrap_or(0)
}

/// The round header: the per-round facts every per-round view shares.
///
/// Historically [`RoundContext`] and the pipeline's round input each carried
/// their own copy of these four fields; they are now stated once here and
/// embedded (both views deref/delegate to it), so the header can only ever be
/// described one way per round.
#[derive(Debug, Clone, Copy)]
pub struct RoundHeader<'a> {
    /// 1-based round index.
    pub round: usize,
    /// Total number of elimination rounds `n`.
    pub total_rounds: usize,
    /// Failure probability `delta_c` of the round.
    pub delta: f64,
    /// The round's answer sheets, one per remaining worker.
    pub sheets: &'a [AnswerSheet],
}

/// Everything a stage can see in one elimination round.
///
/// `header.sheets` and `profiles` are aligned: entry `i` of both describes the
/// same remaining worker (the context derefs to its [`RoundHeader`], so
/// `ctx.round`, `ctx.sheets`, ... read as before). `prior_histories` exposes,
/// for every *preceding* stage in the pipeline, that stage's per-worker score
/// history across all rounds run so far — including the current round, because
/// preceding stages have already run when a stage is invoked.
#[derive(Debug, Clone, Copy)]
pub struct RoundContext<'a> {
    /// The shared round header (round index, total rounds, `delta_c`, sheets).
    pub header: RoundHeader<'a>,
    /// Historical profiles aligned with `header.sheets`.
    pub profiles: &'a [&'a HistoricalProfile],
    /// Cumulative training schedule: entry `j` is `K_j`, the learning tasks a
    /// worker has received by the end of round `j` (entry 0 is `K_0 = 0`).
    pub cumulative_tasks: &'a [f64],
    /// Number of worker-range shards the stage's per-worker scoring pass fans
    /// out over (1 = sequential; shard results are merged in worker order, so
    /// the scores are identical for every value).
    pub num_shards: usize,
    /// Score histories of the preceding stages (index = stage position).
    pub prior_histories: &'a [HashMap<WorkerId, Vec<f64>>],
}

impl<'a> std::ops::Deref for RoundContext<'a> {
    type Target = RoundHeader<'a>;

    fn deref(&self) -> &RoundHeader<'a> {
        &self.header
    }
}

impl RoundContext<'_> {
    /// Cumulative learning tasks `K_j` after round `j` (0 for round 0).
    pub fn cumulative_tasks_after_round(&self, round: usize) -> f64 {
        self.cumulative_tasks[round]
    }

    /// The worker-range partition a stage's per-worker scoring pass fans out
    /// over: `num_shards` contiguous, balanced ranges of the round's sheets.
    pub fn worker_shards(&self) -> WorkerShards {
        WorkerShards::by_count(self.header.sheets.len(), self.num_shards.max(1))
    }
}

/// One estimation step of the selection pipeline.
///
/// A stage receives the round context plus the *preceding* stage's per-worker
/// scores for this round (empty for the first stage) and returns its own
/// per-worker scores, aligned with `ctx.sheets`. Stages are stateful across
/// rounds ([`EstimationStage::initialize`] resets them for a fresh run) and
/// object-safe, so pipelines compose them dynamically.
pub trait EstimationStage: fmt::Debug + Send + Sync {
    /// Short identifier used in pipeline descriptions ("cpe", "lge", ...).
    fn name(&self) -> &str;

    /// Resets the stage for a fresh selection run on the given pool.
    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError>;

    /// Produces this stage's per-worker scores for one round.
    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError>;

    /// Estimated prior-domain/target correlations, if this stage learns them
    /// (the Sec. V-H diagnostic). `None` for stages without a correlation model.
    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        None
    }

    /// Clones the stage behind a box (stages are `Clone` at the object level so
    /// selectors can hold a pipeline template and spawn fresh copies per run).
    fn boxed_clone(&self) -> Box<dyn EstimationStage>;
}

impl Clone for Box<dyn EstimationStage> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

pub(crate) fn uninitialized(stage: &'static str) -> SelectionError {
    SelectionError::InvalidConfig {
        what: stage,
        value: 0.0,
    }
}

/// Per-prior-domain average accuracy over the pool's profiles, clamped away
/// from the degenerate 0/1 endpoints — the difficulty initialisation of
/// Sec. V-C shared by every calibration-backed stage ([`LgeStage`],
/// [`RaschStage`]). Domains nobody has worked on fall back to `a_T`.
pub(crate) fn pool_prior_means(init: &StageInit<'_>) -> Vec<f64> {
    (0..init.num_prior_domains)
        .map(|domain| {
            let values: Vec<f64> = init
                .profiles
                .iter()
                .filter_map(|p| p.accuracy(domain))
                .collect();
            if values.is_empty() {
                init.initial_target_accuracy
            } else {
                c4u_stats::mean(&values).clamp(0.05, 0.95)
            }
        })
        .collect()
}

/// Cross-domain Performance Estimation as a pipeline stage (Algorithm 1).
///
/// Per round it refines the multivariate-normal cross-domain model with the
/// observed answer counts and emits the static estimate `p_{c,i}` per worker.
/// It ignores its `prior` input, so it is usually the first stage.
///
/// Both the update and the prediction run on the batched mask-grouped
/// likelihood kernel (`cpe::kernel`), the update on its closed-form Eq. 6–7
/// gradient — so every staged selector and every
/// [`EvalEngine`](crate::EvalEngine) run hits the batched path.
#[derive(Debug, Clone)]
pub struct CpeStage {
    config: CpeConfig,
    estimator: Option<CrossDomainEstimator>,
}

impl CpeStage {
    /// Creates the stage; the estimator itself is built in `initialize` from
    /// the pool's historical profiles.
    pub fn new(config: CpeConfig) -> Self {
        Self {
            config,
            estimator: None,
        }
    }

    /// The underlying estimator, once initialised.
    pub fn estimator(&self) -> Option<&CrossDomainEstimator> {
        self.estimator.as_ref()
    }
}

impl EstimationStage for CpeStage {
    fn name(&self) -> &str {
        "cpe"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.estimator = Some(CrossDomainEstimator::from_profiles(
            init.profiles,
            self.config,
        )?);
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let estimator = self
            .estimator
            .as_mut()
            .ok_or_else(|| uninitialized("CPE stage used before initialize"))?;
        let observations: Vec<CpeObservation> = ctx
            .sheets
            .iter()
            .zip(ctx.profiles.iter())
            .map(|(sheet, profile)| {
                CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
            })
            .collect();
        // The model refinement consumes the whole round (Eq. 5 sums over every
        // remaining worker); the per-worker Eq. 8 predictions then fan out
        // over the round's worker shards.
        estimator.update(&observations)?;
        estimator.predict_batch_sharded(&observations, &ctx.worker_shards())
    }

    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        let estimator = self.estimator.as_ref()?;
        Some(
            (0..estimator.num_prior_domains())
                .map(|d| estimator.target_correlation(d))
                .collect(),
        )
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// Learning Gain Estimation as a pipeline stage (Algorithm 2).
///
/// Consumes the preceding stage's scores (the static estimates) plus that
/// stage's cross-round history and emits the dynamic estimate
/// `p_hat_{c,i,T}`. Must be placed after a stage that produces one score per
/// worker — it rejects a run in which `prior` is not aligned with the sheets.
#[derive(Debug, Clone, Default)]
pub struct LgeStage {
    estimator: Option<LearningGainEstimator>,
}

impl LgeStage {
    /// Creates the stage; difficulties are derived in `initialize` from the
    /// pool's prior-domain averages.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EstimationStage for LgeStage {
    fn name(&self) -> &str {
        "lge"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        // Per-prior-domain average accuracy for the difficulty initialisation,
        // mirroring the Sec. V-C setup.
        self.estimator = Some(LearningGainEstimator::new(LgeConfig::new(
            init.initial_target_accuracy,
            pool_prior_means(init),
        )?));
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let estimator = self
            .estimator
            .as_ref()
            .ok_or_else(|| uninitialized("LGE stage used before initialize"))?;
        if prior.len() != ctx.sheets.len() {
            return Err(SelectionError::InvalidConfig {
                what: "LGE stage requires a preceding stage scoring every worker",
                value: prior.len() as f64,
            });
        }
        let history_of = ctx.prior_histories.last();
        // Per-worker scoring: each worker's Eq. 10–11 fit depends only on its
        // own history, so the pass fans out over the round's worker shards and
        // the per-shard score vectors are concatenated back in worker order
        // (identical to the sequential loop for every shard layout).
        let score_worker = |i: usize| -> Result<f64, SelectionError> {
            let sheet = &ctx.sheets[i];
            let static_estimate = prior[i];
            let history: Vec<f64> = history_of
                .and_then(|h| h.get(&sheet.worker))
                .cloned()
                .unwrap_or_default();
            // The preceding stage's estimate of stage j reflects a worker
            // trained with only j-1 rounds (Eq. 11), so the stage j estimate
            // pairs with K_{j-1}.
            let before: Vec<f64> = (0..history.len())
                .map(|j| ctx.cumulative_tasks_after_round(j))
                .collect();
            // In the very first round every stage sits at K_0 = 0, where the
            // learning-gain curve is independent of alpha: the fitted
            // extrapolation would ignore the only target-domain evidence
            // available. Rank by the preceding estimate instead (the dynamic
            // and static estimates coincide until training has started).
            let has_informative_stage = before.iter().any(|&k| k > 0.0);
            if !has_informative_stage {
                return Ok(static_estimate);
            }
            let input = LgeWorkerInput::from_profile(
                ctx.profiles[i],
                history,
                before,
                ctx.cumulative_tasks_after_round(ctx.round),
            );
            Ok(estimator.estimate(&input)?.predicted_accuracy)
        };
        let shards = ctx.worker_shards();
        let per_shard: Vec<Vec<f64>> =
            run_indexed_jobs(shards.num_shards(), shards.num_shards(), |shard| {
                shards.range(shard).map(score_worker).collect()
            })?;
        Ok(per_shard.into_iter().flatten().collect())
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// The raw empirical prior: emits each worker's observed accuracy on the
/// round's answer sheet, untouched.
///
/// On its own this is just the per-round sample mean; its role in the zoo is
/// to feed [`LgeStage`] in the LGE-only ablation
/// ([`StagePipeline::lge_only`]), replacing the CPE model with the weakest
/// defensible static estimate so the learning-gain machinery's contribution
/// can be isolated. Stateless, so sharding and cloning are trivial.
#[derive(Debug, Clone, Copy, Default)]
pub struct SheetAccuracyStage;

impl SheetAccuracyStage {
    /// Creates the stage (it carries no state).
    pub fn new() -> Self {
        Self
    }
}

impl EstimationStage for SheetAccuracyStage {
    fn name(&self) -> &str {
        "empirical"
    }

    fn initialize(&mut self, _init: &StageInit<'_>) -> Result<(), SelectionError> {
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        Ok(ctx.sheets.iter().map(AnswerSheet::accuracy).collect())
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(*self)
    }
}

/// Per-round inputs of a pipeline invocation (everything except the stage
/// histories, which the pipeline owns).
#[derive(Debug, Clone, Copy)]
pub struct StageRoundInput<'a> {
    /// The shared round header (round index, total rounds, `delta_c`, sheets).
    pub header: RoundHeader<'a>,
    /// Historical profiles aligned with `header.sheets`.
    pub profiles: &'a [&'a HistoricalProfile],
    /// Cumulative training schedule `K_0, ..., K_n`.
    pub cumulative_tasks: &'a [f64],
    /// Worker-range shards for the stages' per-worker scoring passes
    /// (1 = sequential; any value yields identical scores).
    pub num_shards: usize,
}

impl<'a> std::ops::Deref for StageRoundInput<'a> {
    type Target = RoundHeader<'a>;

    fn deref(&self) -> &RoundHeader<'a> {
        &self.header
    }
}

/// The per-stage estimates of one round, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEstimates {
    per_stage: Vec<Vec<f64>>,
}

impl RoundEstimates {
    /// The first stage's estimates (the "static" estimates of the paper).
    pub fn first(&self) -> &[f64] {
        &self.per_stage[0]
    }

    /// The final stage's estimates (the scores the elimination ranks by).
    pub fn last(&self) -> &[f64] {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "pipelines are validated non-empty at construction")
        self.per_stage.last().expect("pipeline is never empty")
    }

    /// Estimates of stage `index`.
    pub fn stage(&self, index: usize) -> Option<&[f64]> {
        self.per_stage.get(index).map(Vec::as_slice)
    }

    /// Number of stages that produced estimates.
    pub fn num_stages(&self) -> usize {
        self.per_stage.len()
    }
}

/// An ordered composition of [`EstimationStage`]s plus their score histories.
///
/// Selectors hold a pipeline as a *template*: [`StagePipeline::initialize`]
/// resets all stage state and histories, so a cloned pipeline always starts a
/// run fresh.
#[derive(Debug)]
pub struct StagePipeline {
    stages: Vec<Box<dyn EstimationStage>>,
    histories: Vec<HashMap<WorkerId, Vec<f64>>>,
}

impl Clone for StagePipeline {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.clone(),
            histories: self.histories.clone(),
        }
    }
}

impl StagePipeline {
    /// Builds a pipeline from at least one stage.
    pub fn new(stages: Vec<Box<dyn EstimationStage>>) -> Result<Self, SelectionError> {
        if stages.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let histories = vec![HashMap::new(); stages.len()];
        Ok(Self { stages, histories })
    }

    /// The canonical full method: CPE followed by LGE ("Ours").
    pub fn cpe_and_lge(config: CpeConfig) -> Self {
        Self::new(vec![
            Box::new(CpeStage::new(config)),
            Box::new(LgeStage::new()),
        ])
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a two-element literal stage list is never empty")
        .expect("two stages")
    }

    /// The ME-CPE ablation: CPE alone.
    pub fn cpe_only(config: CpeConfig) -> Self {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a one-element literal stage list is never empty")
        Self::new(vec![Box::new(CpeStage::new(config))]).expect("one stage")
    }

    /// The LGE-only ablation: the learning-gain fit driven by raw observed
    /// sheet accuracies ([`SheetAccuracyStage`]) instead of the CPE model.
    ///
    /// The LGE half is the *same* [`LgeStage`] the full method runs — only its
    /// static-estimate input differs — so comparing this pipeline against
    /// [`StagePipeline::cpe_and_lge`] isolates what the cross-domain model
    /// contributes beyond per-round sample means.
    pub fn lge_only() -> Self {
        Self::new(vec![
            Box::new(SheetAccuracyStage::new()),
            Box::new(LgeStage::new()),
        ])
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a two-element literal stage list is never empty")
        .expect("two stages")
    }

    /// The BKT ablation: per-worker Bayesian Knowledge Tracing posteriors
    /// ([`BktStage`]) replace the whole CPE + LGE estimation.
    pub fn bkt_only(params: BktParams) -> Self {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a one-element literal stage list is never empty")
        Self::new(vec![Box::new(BktStage::new(params))]).expect("one stage")
    }

    /// The Rasch-calibrated ablation: the Eq. 10–11 learning-curve calibration
    /// refit per round from raw observed accuracies ([`RaschStage`]), with no
    /// cross-domain model in the loop.
    pub fn rasch_calibrated() -> Self {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a one-element literal stage list is never empty")
        Self::new(vec![Box::new(RaschStage::new())]).expect("one stage")
    }

    /// A CPE + BKT ensemble: one [`EnsembleStage`] whose children are a
    /// [`CpeStage`] (weight `cpe_weight`, clamped to `[0.05, 0.95]`) and a
    /// [`BktStage`] (the complementary weight).
    pub fn cpe_bkt_ensemble(config: CpeConfig, params: BktParams, cpe_weight: f64) -> Self {
        let w = if cpe_weight.is_nan() {
            0.5
        } else {
            cpe_weight.clamp(0.05, 0.95)
        };
        let stage = EnsembleStage::new(
            vec![
                Box::new(CpeStage::new(config)),
                Box::new(BktStage::new(params)),
            ],
            vec![w, 1.0 - w],
        )
        // c4u-lint: allow(no-unwrap-in-lib, reason = "literal weights 'w' and '1-w' are validated positive above")
        .expect("two positively weighted children");
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a one-element literal stage list is never empty")
        Self::new(vec![Box::new(stage)]).expect("one stage")
    }

    /// A pipeline consisting of a single [`EnsembleStage`] over arbitrary
    /// children (see [`EnsembleStage::new`] for the weight requirements).
    pub fn ensemble(
        children: Vec<Box<dyn EstimationStage>>,
        weights: Vec<f64>,
    ) -> Result<Self, SelectionError> {
        Self::new(vec![Box::new(EnsembleStage::new(children, weights)?)])
    }

    /// Stage names in pipeline order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Cross-round score history of stage `index` (one entry per worker that
    /// has been scored by that stage).
    pub fn history(&self, index: usize) -> Option<&HashMap<WorkerId, Vec<f64>>> {
        self.histories.get(index)
    }

    /// Resets all stage state and histories for a fresh run.
    pub fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.histories = vec![HashMap::new(); self.stages.len()];
        for stage in &mut self.stages {
            stage.initialize(init)?;
        }
        Ok(())
    }

    /// Runs every stage once for the round, threading scores through the
    /// pipeline and recording each stage's output into its history.
    pub fn score_round(
        &mut self,
        input: &StageRoundInput<'_>,
    ) -> Result<RoundEstimates, SelectionError> {
        let sheets = input.header.sheets;
        if input.profiles.len() != sheets.len() {
            return Err(SelectionError::InvalidConfig {
                what: "round profiles must align with the answer sheets",
                value: input.profiles.len() as f64,
            });
        }
        let mut per_stage: Vec<Vec<f64>> = Vec::with_capacity(self.stages.len());
        let mut current: Vec<f64> = Vec::new();
        for index in 0..self.stages.len() {
            let ctx = RoundContext {
                header: input.header,
                profiles: input.profiles,
                cumulative_tasks: input.cumulative_tasks,
                num_shards: input.num_shards,
                prior_histories: &self.histories[..index],
            };
            let scores = self.stages[index].estimate(&ctx, &current)?;
            if scores.len() != sheets.len() {
                return Err(SelectionError::Numerical(format!(
                    "stage '{}' produced {} scores for {} workers",
                    self.stages[index].name(),
                    scores.len(),
                    sheets.len()
                )));
            }
            for (sheet, &score) in sheets.iter().zip(scores.iter()) {
                self.histories[index]
                    .entry(sheet.worker)
                    .or_default()
                    .push(score);
            }
            per_stage.push(scores.clone());
            current = scores;
        }
        Ok(RoundEstimates { per_stage })
    }

    /// The learned prior/target correlations of the first stage that exposes
    /// them (the CPE stage, in the canonical pipelines).
    pub fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        self.stages.iter().find_map(|s| s.target_correlations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::{generate, DatasetConfig, Platform};

    fn fast_cpe() -> CpeConfig {
        CpeConfig {
            epochs: 3,
            ..Default::default()
        }
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert!(StagePipeline::new(vec![]).is_err());
    }

    #[test]
    fn canonical_compositions_have_expected_shape() {
        let full = StagePipeline::cpe_and_lge(fast_cpe());
        assert_eq!(full.stage_names(), vec!["cpe", "lge"]);
        assert_eq!(full.num_stages(), 2);
        let ablation = StagePipeline::cpe_only(fast_cpe());
        assert_eq!(ablation.stage_names(), vec!["cpe"]);
    }

    #[test]
    fn pipeline_clone_is_independent() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let platform = Platform::from_dataset(&ds, 1).unwrap();
        let profiles = platform.profiles();
        let init = StageInit {
            profiles: &profiles,
            num_prior_domains: num_prior_domains(&profiles),
            initial_target_accuracy: 0.5,
        };
        let mut a = StagePipeline::cpe_only(fast_cpe());
        let b = a.clone();
        a.initialize(&init).unwrap();
        // The clone was taken before initialisation and is unaffected.
        assert_eq!(b.history(0).map(|h| h.len()), Some(0));
    }

    #[test]
    fn stages_error_before_initialize() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 1).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 2).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 10.0];
        let ctx = RoundContext {
            header: RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
            prior_histories: &[],
        };
        assert!(CpeStage::new(fast_cpe()).estimate(&ctx, &[]).is_err());
        assert!(LgeStage::new()
            .estimate(&ctx, &vec![0.5; record.sheets.len()])
            .is_err());
    }

    #[test]
    fn lge_requires_aligned_prior_scores() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 1).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 2).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut lge = LgeStage::new();
        lge.initialize(&init).unwrap();
        let cumulative = [0.0, 10.0];
        let ctx = RoundContext {
            header: RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
            prior_histories: &[],
        };
        // Misaligned prior scores are rejected.
        assert!(lge.estimate(&ctx, &[0.5]).is_err());
        // Aligned prior scores work even without a preceding history: the
        // first round falls back to the prior scores themselves.
        let prior = vec![0.5; record.sheets.len()];
        let scores = lge.estimate(&ctx, &prior).unwrap();
        assert_eq!(scores, prior);
    }

    #[test]
    fn run_round_threads_scores_and_records_history() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let ids = platform.worker_ids();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut pipeline = StagePipeline::cpe_and_lge(fast_cpe());
        pipeline.initialize(&init).unwrap();
        drop(pool_profiles);

        let record = platform.assign_learning_batch(&ids, 5).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 5.0];
        let estimates = pipeline
            .score_round(&StageRoundInput {
                header: RoundHeader {
                    round: 1,
                    total_rounds: 1,
                    delta: 0.1,
                    sheets: &record.sheets,
                },
                profiles: &profiles,
                cumulative_tasks: &cumulative,
                num_shards: 1,
            })
            .unwrap();
        assert_eq!(estimates.num_stages(), 2);
        assert_eq!(estimates.first().len(), ids.len());
        assert_eq!(estimates.last().len(), ids.len());
        assert_eq!(estimates.stage(0), Some(estimates.first()));
        assert!(estimates.stage(2).is_none());
        // Round 1 has no informative training stage, so LGE passes the CPE
        // scores through unchanged.
        assert_eq!(estimates.first(), estimates.last());
        // Both stages recorded one score per worker.
        for index in 0..2 {
            let history = pipeline.history(index).unwrap();
            assert_eq!(history.len(), ids.len());
            assert!(history.values().all(|h| h.len() == 1));
        }
        // Correlations come from the CPE stage.
        let correlations = pipeline.target_correlations().unwrap().unwrap();
        assert_eq!(correlations.len(), 3);
    }

    #[test]
    fn initialize_resets_histories() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let ids = platform.worker_ids();
        let mut pipeline = StagePipeline::cpe_only(fast_cpe());
        {
            let pool_profiles = platform.profiles();
            let init = StageInit {
                profiles: &pool_profiles,
                num_prior_domains: num_prior_domains(&pool_profiles),
                initial_target_accuracy: 0.5,
            };
            pipeline.initialize(&init).unwrap();
        }
        let record = platform.assign_learning_batch(&ids, 2).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 2.0];
        pipeline
            .score_round(&StageRoundInput {
                header: RoundHeader {
                    round: 1,
                    total_rounds: 1,
                    delta: 0.1,
                    sheets: &record.sheets,
                },
                profiles: &profiles,
                cumulative_tasks: &cumulative,
                num_shards: 1,
            })
            .unwrap();
        assert!(!pipeline.history(0).unwrap().is_empty());
        {
            let pool_profiles = platform.profiles();
            let init = StageInit {
                profiles: &pool_profiles,
                num_prior_domains: num_prior_domains(&pool_profiles),
                initial_target_accuracy: 0.5,
            };
            pipeline.initialize(&init).unwrap();
        }
        assert!(pipeline.history(0).unwrap().is_empty());
    }
}
