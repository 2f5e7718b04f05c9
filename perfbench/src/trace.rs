//! The traced run: a replay of `CrossDomainSelector::run_with_events` through
//! the public API, with a span around each call into a layer.
//!
//! The replay builds the same CPE -> LGE pipeline from bench-local stage
//! wrappers that time `CrossDomainEstimator::update`,
//! `CrossDomainEstimator::predict_batch_sharded` and `LgeStage::estimate`.
//! Spans are accumulated in memory per layer and read when the run ends. The
//! replay must reproduce the untraced report bit for bit
//! ([`crate::check::same_report`]), which also catches any drift between this
//! copy of the round loop and the program's.

use crate::clock::Stopwatch;
use c4u_crowd_sim::{CampaignSchedule, HistoricalProfile, Platform, WorkerId, WorkerShards};
use c4u_selection::{
    median_eliminate, num_prior_domains, top_k, BudgetPlan, CpeConfig, CpeObservation,
    CrossDomainEstimator, EstimationStage, LgeStage, PipelineReport, RoundContext,
    RoundDiagnostics, RoundHeader, ScoredWorker, SelectionError, SelectionOutcome, SelectorConfig,
    StageInit, StagePipeline, StageRoundInput,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A timed layer of one selection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `CampaignSchedule::events_for` plus `Platform::apply_events`.
    Events,
    /// `Platform::assign_learning_batch_sharded`.
    Assign,
    /// Pipeline clone and `StagePipeline::initialize`.
    Init,
    /// `StagePipeline::score_round` (parent of the three below).
    Score,
    /// `CrossDomainEstimator::update`.
    CpeUpdate,
    /// `CrossDomainEstimator::predict_batch_sharded`.
    CpePredict,
    /// `LgeStage::estimate`.
    Lge,
    /// `median_eliminate` and the final `top_k`.
    Me,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Events,
        Layer::Assign,
        Layer::Init,
        Layer::Score,
        Layer::CpeUpdate,
        Layer::CpePredict,
        Layer::Lge,
        Layer::Me,
    ];

    /// Layers whose spans do not nest in another span: together with
    /// `loop.other` they partition the traced run.
    pub const TOP_LEVEL: [Layer; 5] = [
        Layer::Events,
        Layer::Assign,
        Layer::Init,
        Layer::Score,
        Layer::Me,
    ];

    /// The metric name of the layer's busy time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Events => "crowd_sim.events_s",
            Layer::Assign => "crowd_sim.assign_s",
            Layer::Init => "stage.init_s",
            Layer::Score => "stage.score_s",
            Layer::CpeUpdate => "cpe.update_s",
            Layer::CpePredict => "cpe.predict_s",
            Layer::Lge => "lge_s",
            Layer::Me => "me_s",
        }
    }
}

/// Busy seconds per layer plus the traced run's total wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    busy: [f64; Layer::ALL.len()],
    /// Wall time of the whole traced run.
    pub total_s: f64,
}

impl LayerTimes {
    /// Busy seconds of one layer.
    pub fn get(&self, layer: Layer) -> f64 {
        self.busy[layer as usize]
    }

    fn add(&mut self, layer: Layer, seconds: f64) {
        self.busy[layer as usize] += seconds;
    }

    /// Adds another run's times into this one.
    pub fn accumulate(&mut self, other: &LayerTimes) {
        for layer in Layer::ALL {
            self.add(layer, other.get(layer));
        }
        self.total_s += other.total_s;
    }

    /// The round loop's own time: the total minus every top-level span.
    pub fn other_s(&self) -> f64 {
        self.total_s - self.named_s()
    }

    /// Seconds covered by top-level spans.
    pub fn named_s(&self) -> f64 {
        Layer::TOP_LEVEL.iter().map(|&l| self.get(l)).sum()
    }
}

/// Span sink shared by the round loop and the stage wrappers inside the
/// pipeline (which the loop cannot reach once boxed).
type Sink = Arc<Mutex<LayerTimes>>;

/// Runs `f` and adds its wall time to `layer`.
fn span<T>(sink: &Sink, layer: Layer, f: impl FnOnce() -> T) -> T {
    let t = Stopwatch::start();
    let out = f();
    let seconds = t.elapsed_s();
    sink.lock().expect("span sink poisoned").add(layer, seconds);
    out
}

/// `CpeStage` with its update and predict calls timed separately.
#[derive(Debug, Clone)]
struct TimedCpe {
    config: CpeConfig,
    estimator: Option<CrossDomainEstimator>,
    sink: Sink,
}

impl EstimationStage for TimedCpe {
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
            .ok_or(SelectionError::NotEnoughData { needed: 1, got: 0 })?;
        let observations: Vec<CpeObservation> = ctx
            .sheets
            .iter()
            .zip(ctx.profiles.iter())
            .map(|(sheet, profile)| {
                CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
            })
            .collect();
        span(&self.sink, Layer::CpeUpdate, || {
            estimator.update(&observations)
        })?;
        span(&self.sink, Layer::CpePredict, || {
            estimator.predict_batch_sharded(&observations, &ctx.worker_shards())
        })
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

/// `LgeStage` with its `estimate` call timed.
#[derive(Debug, Clone)]
struct TimedLge {
    inner: LgeStage,
    sink: Sink,
}

impl EstimationStage for TimedLge {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.inner.initialize(init)
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let inner = &mut self.inner;
        span(&self.sink, Layer::Lge, || inner.estimate(ctx, prior))
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// Replays `CrossDomainSelector::new(config).run_with_events(platform, k,
/// schedule)` for the canonical CPE + LGE pipeline, returning its report and
/// the per-layer spans.
pub fn traced_run(
    config: &SelectorConfig,
    platform: &mut Platform,
    k: usize,
    schedule: &CampaignSchedule,
) -> Result<(PipelineReport, LayerTimes), SelectionError> {
    let sink: Sink = Arc::new(Mutex::new(LayerTimes::default()));
    let total = Stopwatch::start();
    let template = StagePipeline::new(vec![
        Box::new(TimedCpe {
            config: config.cpe,
            estimator: None,
            sink: Arc::clone(&sink),
        }),
        Box::new(TimedLge {
            inner: LgeStage::new(),
            sink: Arc::clone(&sink),
        }),
    ])?;
    let report = replay(config, &template, &sink, platform, k, schedule)?;
    let mut times = *sink.lock().expect("span sink poisoned");
    times.total_s = total.elapsed_s();
    Ok((report, times))
}

/// The round loop of `run_with_events`, statement for statement, with spans.
fn replay(
    config: &SelectorConfig,
    template: &StagePipeline,
    sink: &Sink,
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

    let mut pipeline = span(sink, Layer::Init, || {
        let mut pipeline = template.clone();
        let profiles = platform.profiles();
        pipeline
            .initialize(&StageInit {
                profiles: &profiles,
                num_prior_domains: num_prior_domains(&profiles),
                initial_target_accuracy: config.cpe.initial_target_accuracy,
            })
            .map(|()| pipeline)
    })?;
    let cumulative_tasks: Vec<f64> = (0..=plan.rounds)
        .map(|j| plan.cumulative_tasks_after_round(j))
        .collect();

    let mut remaining = pool.clone();
    let mut delta = config.delta;
    let mut diagnostics = Vec::new();
    let mut final_scores: Vec<ScoredWorker> = Vec::new();
    let mut previous_scores: Vec<ScoredWorker> = Vec::new();
    let num_shards = config.num_shards.max(1);
    for round in 1..=plan.rounds {
        // The span covers the schedule lookup too, so a closed world still
        // reports the (small) time of its events step.
        let applied = span(sink, Layer::Events, || {
            schedule
                .events_for(round)
                .map(|events| platform.apply_events(events))
                .transpose()
        })?;
        let (joined, departed) = match applied {
            Some(applied) => {
                remaining.extend(applied.joined.iter().copied());
                if !applied.departed.is_empty() {
                    remaining.retain(|w| !applied.departed.contains(w));
                }
                (applied.joined, applied.departed)
            }
            None => (Vec::new(), Vec::new()),
        };
        let tasks_per_worker = plan.tasks_per_worker(remaining.len());
        let shards = WorkerShards::by_count(remaining.len(), num_shards);
        let record = span(sink, Layer::Assign, || {
            platform.assign_learning_batch_sharded(&remaining, tasks_per_worker, &shards)
        })?;

        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|sheet| platform.profile(sheet.worker))
            .collect::<Result<_, _>>()?;
        let estimates = span(sink, Layer::Score, || {
            pipeline.score_round(&StageRoundInput {
                header: RoundHeader {
                    round,
                    total_rounds: plan.rounds,
                    delta,
                    sheets: &record.sheets,
                },
                profiles: &profiles,
                cumulative_tasks: &cumulative_tasks,
                num_shards,
            })
        })?;
        let static_estimates = estimates.first().to_vec();
        let dynamic_estimates = estimates.last().to_vec();

        let scored: Vec<ScoredWorker> = record
            .sheets
            .iter()
            .zip(dynamic_estimates.iter())
            .map(|(sheet, &score)| ScoredWorker::new(sheet.worker, score))
            .collect();
        let survivors = span(sink, Layer::Me, || median_eliminate(&scored));

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

    let selected = span(sink, Layer::Me, || {
        let surviving_scores: Vec<ScoredWorker> = final_scores
            .iter()
            .filter(|s| remaining.contains(&s.worker))
            .copied()
            .collect();
        if remaining.len() >= k {
            top_k(&surviving_scores, k)
        } else {
            let fallback = if previous_scores.is_empty() {
                &final_scores
            } else {
                &previous_scores
            };
            top_k(fallback, k)
        }
    });
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

    Ok(PipelineReport {
        outcome: SelectionOutcome::new(selected, plan.rounds, platform.budget_spent())
            .with_scores(scores),
        rounds: diagnostics,
        target_correlations,
    })
}
