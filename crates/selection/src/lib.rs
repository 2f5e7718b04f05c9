//! # c4u-selection
//!
//! Cross-domain-aware worker selection with training — a from-scratch Rust
//! implementation of the ICDE 2024 paper's core contribution, together with every
//! baseline its evaluation compares against.
//!
//! ## What the algorithm does
//!
//! Given a pool of crowd workers with historical accuracy on *prior* domains and a
//! budget of golden questions on a new *target* domain, the pipeline iteratively
//! trains workers (answer, then reveal the ground truth), estimates their quality,
//! and eliminates the worst half until only the requested `k` workers remain:
//!
//! * [`CrossDomainEstimator`] (CPE, Algorithm 1) — models the `(D+1)`-dimensional
//!   joint distribution of per-domain accuracies as a multivariate normal, refines
//!   it by gradient ascent on the marginal likelihood of the observed answers
//!   (Eq. 5–7), and predicts each worker's target-domain accuracy (Eq. 8);
//! * [`LearningGainEstimator`] (LGE, Algorithm 2) — fits a per-worker learning curve
//!   `g(alpha_i, beta_T, K)` (Eq. 10–11) so the ranking reflects how good a worker
//!   *will be* after further training, not just how good they look now;
//! * [`median_eliminate`] (ME, Algorithm 3) and [`CrossDomainSelector`]
//!   (Algorithm 4) — the budgeted elimination schedule with the Theorem 1/2
//!   guarantees implemented in [`theory`].
//!
//! Baselines: [`UniformSampling`], [`MedianEliminationBaseline`], [`LiEtAl`],
//! the [`GroundTruthOracle`], and the ME-CPE ablation
//! ([`CrossDomainSelector::cpe_only`]).
//!
//! Beyond the paper's line-up, the stage zoo composes alternative estimation
//! pipelines on the [`EstimationStage`] seam — [`BktStage`], [`RaschStage`],
//! [`EnsembleStage`], [`SheetAccuracyStage`] — all selectable as one-line
//! presets through [`EstimationMode`] / [`SelectorConfig::with_mode`].
//!
//! ## Quickstart
//!
//! ```
//! use c4u_crowd_sim::{generate, DatasetConfig};
//! use c4u_selection::{evaluate_strategy, CrossDomainSelector, SelectorConfig};
//!
//! // Generate the RW-1 surrogate dataset and run the full pipeline on it.
//! let dataset = generate(&DatasetConfig::rw1()).unwrap();
//! let mut config = SelectorConfig::default();
//! config.cpe.epochs = 5; // keep the doc-test fast; the paper default is 50
//! let ours = CrossDomainSelector::new(config);
//! let result = evaluate_strategy(&dataset, &ours, 42).unwrap();
//! assert_eq!(result.selected.len(), dataset.config.select_k);
//! assert!(result.working_accuracy > 0.0);
//! ```

#![forbid(unsafe_code)]

mod baselines;
mod budget;
mod cpe;
mod engine;
mod error;
mod evaluation;
mod framework;
mod lge;
mod me;
mod selector;
mod stage;
pub mod theory;

pub use baselines::{GroundTruthOracle, LiEtAl, MedianEliminationBaseline, UniformSampling};
pub use budget::BudgetPlan;
pub use cpe::kernel::gradient::LikelihoodGradient;
pub use cpe::kernel::{observed_domains, CpeLikelihoodKernel, MaskGroup, MaskGroups};
pub use cpe::{CpeConfig, CpeObservation, CrossDomainEstimator};
// The fold-pass math mode of the batched quadrature sweeps, re-exported so
// `CpeConfig::quadrature_math` can be set without importing `c4u_stats`.
pub use c4u_stats::QuadratureMath;
pub use engine::{run_indexed_jobs, EvalEngine};
pub use error::SelectionError;
pub use evaluation::{
    evaluate_all, evaluate_over_trials, evaluate_strategy, evaluate_strategy_with_k,
    relative_improvement, AggregatedResult, EvaluationResult,
};
pub use framework::{
    CrossDomainSelector, EstimationMode, PipelineReport, RoundDiagnostics, SelectorConfig,
};
pub use lge::{LearningGainEstimator, LgeConfig, LgeEstimate, LgeWorkerInput};
pub use me::{median_eliminate, rounds_until_at_most, sort_by_score, top_k, ScoredWorker};
pub use selector::{SelectionOutcome, WorkerSelector};
pub use stage::{
    num_prior_domains, BktStage, CpeStage, EnsembleStage, EstimationStage, LgeStage, RaschStage,
    RoundContext, RoundEstimates, RoundHeader, SheetAccuracyStage, StageInit, StagePipeline,
    StageRoundInput,
};

// Re-export the simulator types that appear in this crate's public API
// (AnswerSheet/HistoricalProfile are part of the stage-context types;
// WorkerShards parameterises the sharded scoring paths), plus the IRT types
// the stage zoo is parameterised by (SelectorConfig::bkt, BktStage::new).
pub use c4u_crowd_sim::{
    AnswerSheet, AppliedRoundEvents, CampaignSchedule, Dataset, DatasetConfig, HistoricalProfile,
    Platform, RoundEvents, ScenarioConfig, WorkerId, WorkerShards, WorkerSpec,
};
pub use c4u_irt::{BktModel, BktParams};
