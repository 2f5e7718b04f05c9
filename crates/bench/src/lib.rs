//! # c4u-bench
//!
//! Experiment harness for the C4U reproduction: shared machinery used by the bench
//! targets that regenerate every table and figure of the paper's evaluation
//! (Tables II–V, Figures 5–7, and the Sec. V-H correlation discussion; the
//! Sec. V-H running times are measured by the committed `perfbench/` benchmark).
//!
//! Each bench target (`cargo bench -p c4u-bench --bench <name>`) prints the rows or
//! series the corresponding table/figure reports; `EXPERIMENTS.md` records one run of
//! each alongside the paper's numbers.
//!
//! The harness honours a few environment variables so that quick smoke runs and
//! full paper-fidelity runs use the same code. All of them are declared in the
//! [`c4u_env`] knob registry — [`c4u_env::render_knob_table`] prints the full
//! table, and unknown `C4U_*` names warn on the first read instead of being
//! silently ignored:
//!
//! * `C4U_CPE_EPOCHS` — gradient-descent epochs per CPE round (default 10; the paper
//!   uses 50, which scales the runtime accordingly without changing the rankings);
//! * `C4U_TRIALS` — number of answering-noise seeds averaged per cell (default 2);
//! * `C4U_SHARDS` — worker-range shards per selection round (default 1). Every
//!   value produces bit-for-bit identical selections (per-worker RNG streams);
//!   larger values trade scoped threads for wall-clock on big pools, so table
//!   numbers never depend on the setting;
//! * `C4U_CELL_CACHE` — directory for the resumable per-cell result cache
//!   ([`evaluate_cells_resumable`]; unset disables persistence);
//! * `C4U_QUAD_WORKERS` / `C4U_QUAD_NODES` / `C4U_QUAD_SAMPLES` /
//!   `C4U_QUAD_REPORT` — the `quadrature` roofline bench's sweep cells,
//!   sample count, and trajectory-file path;
//! * `C4U_QUAD_MATH` — the quadrature fold-pass math mode: `exact` (the
//!   bit-identical default for the table/figure benches), `fast_vector` (the
//!   lane-chunked polynomial `exp`), or `both` (the `quadrature` roofline
//!   bench's default, timing the two modes side by side);
//! * `C4U_BENCH_GATE` — set to `1` to make the `quadrature` bench fail
//!   when a cell's gated metric regresses more than
//!   [`GATE_REGRESSION_LIMIT`] against the newest run of the committed
//!   trajectory, or when no cell matches that run at all.
//!
//! The trajectory bench's report pipeline lives in the [`report`] module: a
//! cell renders as a [`report::Row`] of identity and metric fields, and a
//! [`report::Trajectory`] names the file, the identity keys, and the gated
//! metric.
//!
//! Dataset generation is memoised process-wide ([`cached_generate`]): sweep
//! cells sharing a configuration share one generated dataset, so a table that
//! evaluates six strategies on one dataset generates it once, not six times.
//!
//! Evaluation *results* are memoised across processes when `C4U_CELL_CACHE`
//! names a directory ([`evaluate_cells_resumable`]): every finished cell is
//! persisted as a JSON file keyed by its full identity, so interrupted sweeps
//! resume and repeated CI runs are incremental (see the [`cache`] module).

#![forbid(unsafe_code)]

pub mod cache;
pub mod report;

pub use cache::{cell_cache_dir, SweepStats, CELL_CACHE_ENV};
pub use report::{math_tag, QuadratureCell, GATE_REGRESSION_LIMIT, QUADRATURE};

use c4u_crowd_sim::{generate, CampaignSchedule, Dataset, DatasetConfig, Platform, SimError};
use c4u_env::{C4uEnv, QuadMathKnob};
use c4u_selection::{
    evaluate_strategy_with_k, CrossDomainSelector, EstimationMode, GroundTruthOracle, LiEtAl,
    MedianEliminationBaseline, QuadratureMath, SelectorConfig, UniformSampling, WorkerSelector,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of CPE gradient-descent epochs used by the bench targets.
pub const DEFAULT_EPOCHS: usize = c4u_env::DEFAULT_CPE_EPOCHS;
/// Default number of answering-noise seeds averaged per experiment cell.
pub const DEFAULT_TRIALS: usize = c4u_env::DEFAULT_TRIALS;
/// Base answering-noise seed; trial `i` uses `BASE_SEED + 1000 * i`.
pub const BASE_SEED: u64 = 20_240_610;

/// Reads `C4U_CPE_EPOCHS` (default [`DEFAULT_EPOCHS`]) via the
/// [`c4u_env`] knob registry.
pub fn cpe_epochs() -> usize {
    C4uEnv::from_env().cpe_epochs
}

/// Reads `C4U_TRIALS` (default [`DEFAULT_TRIALS`]).
pub fn trials() -> usize {
    C4uEnv::from_env().trials
}

/// Reads `C4U_SHARDS` (default 1): the worker-range shard count handed to
/// every [`CrossDomainSelector`] the harness builds. The selection is
/// identical for every value; only the wall-clock changes.
pub fn num_shards() -> usize {
    C4uEnv::from_env().shards
}

/// Reads `C4U_QUAD_MATH` as a single fold-pass mode for the table/figure
/// benches (default [`QuadratureMath::Exact`], keeping every reported number
/// bit-identical to the scalar oracle unless explicitly opted out).
/// `fast_vector` selects the lane-chunked polynomial-`exp` fold; anything
/// else — including `both`, which only the roofline bench distinguishes —
/// stays `Exact`.
pub fn quad_math() -> QuadratureMath {
    match C4uEnv::from_env().quad_math {
        QuadMathKnob::FastVector => QuadratureMath::FastVector,
        _ => QuadratureMath::Exact,
    }
}

/// Reads `C4U_QUAD_MATH` as the list of modes the `quadrature` roofline bench
/// sweeps: `exact` or `fast_vector` narrow it to one mode, everything else
/// (including the default) times `both` side by side.
pub fn quad_math_modes() -> Vec<QuadratureMath> {
    match C4uEnv::from_env().quad_math {
        QuadMathKnob::Exact => vec![QuadratureMath::Exact],
        QuadMathKnob::FastVector => vec![QuadratureMath::FastVector],
        _ => vec![QuadratureMath::Exact, QuadratureMath::FastVector],
    }
}

/// The answering-noise seeds used for a given number of trials.
pub fn trial_seeds(trials: usize) -> Vec<u64> {
    (0..trials as u64).map(|i| BASE_SEED + 1000 * i).collect()
}

/// The strategy line-up of Table V plus the stage zoo: the four non-pipeline
/// baselines and one [`StrategyKind::Zoo`] kind per [`EstimationMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uniform Sampling.
    UniformSampling,
    /// Plain Median Elimination.
    MedianElimination,
    /// Li et al. linear regression on profiles.
    LiEtAl,
    /// Ground-truth oracle.
    GroundTruth,
    /// A [`CrossDomainSelector`] preset of the stage zoo.
    Zoo(EstimationMode),
}

// The zoo kinds the sweep line-ups name directly, under their table names.
#[allow(non_upper_case_globals)]
impl StrategyKind {
    /// ME + CPE (ablation without LGE).
    pub const MeCpe: StrategyKind = StrategyKind::Zoo(EstimationMode::CpeOnly);
    /// The full method (CPE + LGE + ME).
    pub const Ours: StrategyKind = StrategyKind::Zoo(EstimationMode::CpeAndLge);
    /// A weighted CPE + BKT ensemble as the estimation stage.
    pub const CpeBktEnsemble: StrategyKind = StrategyKind::Zoo(EstimationMode::CpeBktEnsemble);
}

impl StrategyKind {
    /// All strategies in Table V row order.
    pub fn all() -> Vec<StrategyKind> {
        vec![
            StrategyKind::UniformSampling,
            StrategyKind::MedianElimination,
            StrategyKind::LiEtAl,
            StrategyKind::MeCpe,
            StrategyKind::Ours,
            StrategyKind::GroundTruth,
        ]
    }

    /// The stage zoo: every [`StagePipeline`]-backed estimation pipeline, from
    /// the full method down to the single-model ablations (the
    /// `examples/stage_ablation.rs` line-up), in [`EstimationMode::ALL`] order.
    ///
    /// [`StagePipeline`]: c4u_selection::StagePipeline
    pub fn stage_pipelines() -> Vec<StrategyKind> {
        EstimationMode::ALL.map(StrategyKind::Zoo).to_vec()
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::UniformSampling => "US",
            StrategyKind::MedianElimination => "ME",
            StrategyKind::LiEtAl => "Li et al.",
            StrategyKind::GroundTruth => "Ground Truth",
            StrategyKind::Zoo(mode) => mode.name(),
        }
    }

    /// Relative evaluation cost of the strategy (higher = more expensive),
    /// used by [`sweep_schedule`] to start the slowest cells first. The ranks
    /// order the per-round work: a full CPE gradient ascent dominates
    /// everything, the single-model IRT/LGE stages cost a fraction of it, and
    /// the non-learning baselines are near-free.
    pub fn cost_rank(self) -> u8 {
        match self {
            StrategyKind::Zoo(EstimationMode::CpeAndLge) => 5,
            StrategyKind::Zoo(EstimationMode::CpeBktEnsemble) => 4,
            StrategyKind::Zoo(EstimationMode::CpeOnly) => 3,
            StrategyKind::Zoo(EstimationMode::LgeOnly | EstimationMode::RaschCalibrated) => 2,
            StrategyKind::Zoo(EstimationMode::BktOnly) | StrategyKind::LiEtAl => 1,
            StrategyKind::UniformSampling
            | StrategyKind::MedianElimination
            | StrategyKind::GroundTruth => 0,
        }
    }

    /// Builds the selector with the given CPE epoch budget and initial target
    /// accuracy `a_T`.
    pub fn build(&self, epochs: usize, initial_target_accuracy: f64) -> Box<dyn WorkerSelector> {
        match self {
            StrategyKind::UniformSampling => Box::new(UniformSampling::new()),
            StrategyKind::MedianElimination => Box::new(MedianEliminationBaseline::new()),
            StrategyKind::LiEtAl => Box::new(LiEtAl::new()),
            StrategyKind::GroundTruth => Box::new(GroundTruthOracle::new()),
            StrategyKind::Zoo(mode) => {
                Box::new(zoo_selector(*mode, epochs, initial_target_accuracy))
            }
        }
    }

    /// Builds the concrete [`CrossDomainSelector`] for a stage-zoo kind, or
    /// `None` for the non-pipeline baselines (US, ME, Li et al., oracle).
    ///
    /// The robustness sweep needs the concrete type: an open-world (churn)
    /// campaign runs through [`CrossDomainSelector::run_with_events`], which
    /// the type-erased [`WorkerSelector`] seam deliberately does not expose.
    pub fn zoo_selector(
        &self,
        epochs: usize,
        initial_target_accuracy: f64,
    ) -> Option<CrossDomainSelector> {
        match self {
            StrategyKind::Zoo(mode) => Some(zoo_selector(*mode, epochs, initial_target_accuracy)),
            _ => None,
        }
    }
}

/// The [`CrossDomainSelector`] preset `mode` with the harness's knobs applied.
fn zoo_selector(
    mode: EstimationMode,
    epochs: usize,
    initial_target_accuracy: f64,
) -> CrossDomainSelector {
    let mut config = SelectorConfig::default().with_mode(mode);
    config.cpe.epochs = epochs;
    config.cpe.initial_target_accuracy = initial_target_accuracy;
    config.cpe.quadrature_math = quad_math();
    config.num_shards = num_shards();
    CrossDomainSelector::new(config)
}

/// One experiment cell: a strategy evaluated on a dataset configuration, averaged
/// over answering-noise seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Dataset name.
    pub dataset: String,
    /// Strategy name.
    pub strategy: String,
    /// Mean working-task accuracy of the selected workers.
    pub mean_accuracy: f64,
    /// Standard deviation across trials.
    pub std_accuracy: f64,
}

/// Parameters of one experiment cell evaluation.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Dataset configuration to generate.
    pub config: DatasetConfig,
    /// Strategy to run.
    pub strategy: StrategyKind,
    /// Number of workers to select (usually `config.select_k`, overridden by the
    /// Figure 6 sweep).
    pub k: usize,
    /// CPE epochs.
    pub epochs: usize,
    /// Initial target-domain accuracy `a_T` (Figure 5 sweep).
    pub initial_target_accuracy: f64,
    /// Answering-noise seeds to average over.
    pub seeds: Vec<u64>,
}

impl CellSpec {
    /// A cell with the dataset's default `k` and `a_T = 0.5`.
    pub fn standard(
        config: DatasetConfig,
        strategy: StrategyKind,
        epochs: usize,
        seeds: Vec<u64>,
    ) -> Self {
        let k = config.select_k;
        Self {
            config,
            strategy,
            k,
            epochs,
            initial_target_accuracy: 0.5,
            seeds,
        }
    }
}

/// One memo slot per configuration: same-config threads serialise on the slot
/// (the first generates, the rest wait and share), while distinct
/// configurations generate concurrently.
type DatasetSlot = Arc<Mutex<Option<Arc<Dataset>>>>;

/// Process-wide dataset memo: one generated [`Dataset`] per distinct
/// [`DatasetConfig`], shared across sweep cells and worker threads. A
/// `BTreeMap` so every walk over the memo observes sorted-key order
/// (`hashmap-iter-order` invariant).
fn dataset_cache() -> &'static Mutex<BTreeMap<String, DatasetSlot>> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, DatasetSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Stable memo key for a dataset configuration.
///
/// `DatasetConfig` carries floats, so it cannot implement `Hash`/`Eq` itself;
/// its `Debug` rendering covers every field (including the generation seed) and
/// is deterministic, which is all a cache key needs.
fn config_key(config: &DatasetConfig) -> String {
    format!("{config:?}")
}

/// Memoised [`generate`]: repeated sweep cells with the same configuration
/// share one generated dataset instead of regenerating it per cell.
///
/// Sound because generation is deterministic in `config.seed` (the same
/// configuration always yields the same dataset) and evaluation never mutates
/// the dataset — every trial builds its own `Platform` on top. The memo lives
/// for the process, which matches the bench targets' lifetime; tests can
/// observe it via [`dataset_cache_len`].
pub fn cached_generate(config: &DatasetConfig) -> Result<Arc<Dataset>, SimError> {
    // Two-level locking: the map lock is held only long enough to fetch or
    // insert the per-key slot, and generation happens under the slot lock —
    // so concurrent same-config cells generate once and wait for it, while
    // distinct configs generate in parallel.
    let slot = {
        let mut cache = dataset_cache().lock().expect("dataset cache lock");
        Arc::clone(cache.entry(config_key(config)).or_default())
    };
    let mut guard = slot.lock().expect("dataset slot lock");
    if let Some(hit) = guard.as_ref() {
        return Ok(Arc::clone(hit));
    }
    // On error the slot stays empty, so a later call simply retries.
    let dataset = Arc::new(generate(config)?);
    *guard = Some(Arc::clone(&dataset));
    Ok(dataset)
}

/// Number of distinct dataset configurations currently memoised (filled slots).
pub fn dataset_cache_len() -> usize {
    dataset_cache()
        .lock()
        .expect("dataset cache lock")
        .values()
        .filter(|slot| slot.lock().expect("dataset slot lock").is_some())
        .count()
}

/// Evaluates one cell on an already-generated dataset.
pub fn evaluate_cell_on(dataset: &Dataset, spec: &CellSpec) -> Cell {
    let strategy = spec
        .strategy
        .build(spec.epochs, spec.initial_target_accuracy);
    let mut accuracies = Vec::with_capacity(spec.seeds.len());
    for &seed in &spec.seeds {
        match evaluate_strategy_with_k(dataset, strategy.as_ref(), spec.k, seed) {
            Ok(result) => accuracies.push(result.working_accuracy),
            Err(err) => {
                eprintln!(
                    "warning: {} on {} (k = {}) failed: {err}",
                    spec.strategy.name(),
                    spec.config.name,
                    spec.k
                );
            }
        }
    }
    Cell {
        dataset: spec.config.name.clone(),
        strategy: spec.strategy.name().to_string(),
        mean_accuracy: c4u_stats::mean(&accuracies),
        std_accuracy: c4u_stats::std_dev(&accuracies),
    }
}

/// Evaluates one cell of the Table-IV-style robustness sweep: one stage-zoo
/// strategy under one scenario preset, averaged over answering-noise seeds.
///
/// Spammer, colluder, and drift scenarios are baked into the generated
/// dataset, so they run the ordinary closed-world campaign. A churn scenario
/// additionally derives its deterministic join/leave [`CampaignSchedule`]
/// from the configuration and runs the **open-world** loop
/// ([`CrossDomainSelector::run_with_events`]); the schedule depends only on
/// the dataset seed, so the cell stays reproducible and shard-invariant
/// (`tests/churn_determinism.rs`).
pub fn evaluate_robustness_cell(
    config: &DatasetConfig,
    kind: StrategyKind,
    epochs: usize,
    seeds: &[u64],
) -> Result<Cell, c4u_selection::SelectionError> {
    let selector =
        kind.zoo_selector(epochs, 0.5)
            .ok_or(c4u_selection::SelectionError::InvalidConfig {
                what: "robustness sweep covers the stage-zoo strategies only",
                value: 0.0,
            })?;
    let dataset = cached_generate(config)?;
    let rounds = c4u_selection::rounds_until_at_most(config.pool_size, config.select_k);
    let schedule = CampaignSchedule::churn(config, rounds)?;
    let mut accuracies = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut platform = Platform::from_dataset(&dataset, seed)?;
        let report = selector.run_with_events(&mut platform, config.select_k, &schedule)?;
        accuracies.push(platform.evaluate_working_accuracy(&report.outcome.selected)?);
    }
    Ok(Cell {
        dataset: config.name.clone(),
        strategy: kind.name().to_string(),
        mean_accuracy: c4u_stats::mean(&accuracies),
        std_accuracy: c4u_stats::std_dev(&accuracies),
    })
}

/// Evaluates one cell, generating (or reusing a memoised copy of) the dataset
/// from its configuration first.
pub fn evaluate_cell(spec: &CellSpec) -> Cell {
    match cached_generate(&spec.config) {
        Ok(dataset) => evaluate_cell_on(&dataset, spec),
        Err(err) => {
            eprintln!("warning: generating {} failed: {err}", spec.config.name);
            Cell {
                dataset: spec.config.name.clone(),
                strategy: spec.strategy.name().to_string(),
                mean_accuracy: 0.0,
                std_accuracy: 0.0,
            }
        }
    }
}

/// Evaluates a batch of cells, spreading independent cells over worker threads.
///
/// Cells are independent (each generates its own dataset and platforms), so they
/// are fanned out through the selection crate's shared scoped-thread work queue
/// ([`c4u_selection::run_indexed_jobs`]); the results come back in cell order,
/// making the output identical to a sequential evaluation.
pub fn evaluate_cells(specs: &[CellSpec]) -> Vec<Cell> {
    evaluate_cells_resumable(specs, None).0
}

/// [`evaluate_cells`] with a persistent per-cell result cache: cells whose
/// identity ([`cache::cell_key`]) is already on disk under `cache_dir` are
/// answered from the cache **bit-for-bit** without re-evaluation, and every
/// freshly evaluated cell is persisted there, so interrupted sweeps resume and
/// repeated runs are incremental.
///
/// `cache_dir = None` degrades to plain parallel evaluation (all misses,
/// nothing written); pass [`cell_cache_dir()`] to honour `C4U_CELL_CACHE` the
/// way the bench targets do. The returned [`SweepStats`] reports the hit/miss
/// split (a fully warmed cache re-evaluates zero cells).
///
/// Scheduling: a sequential cache pre-pass answers every hit before any
/// worker thread spins up, so only the misses reach the work queue — and they
/// reach it in [`sweep_schedule`] order (expensive strategies first), so the
/// slowest cell is never the last job started on an otherwise idle pool. The
/// scheduling is invisible in the output: cells always come back in spec
/// order.
pub fn evaluate_cells_resumable(
    specs: &[CellSpec],
    cache_dir: Option<&Path>,
) -> (Vec<Cell>, SweepStats) {
    // Cache pre-pass: hits cost one file read each; fanning them out would
    // spend more on thread choreography than on the reads themselves, and a
    // fully warmed sweep must evaluate zero cells.
    let mut slots: Vec<Option<Cell>> = vec![None; specs.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        match cache_dir.and_then(|dir| cache::load_cell(dir, spec)) {
            Some(hit) => slots[index] = Some(hit),
            None => misses.push(index),
        }
    }
    let stats = SweepStats {
        hits: specs.len() - misses.len(),
        misses: misses.len(),
    };
    let misses = sweep_schedule(specs, misses);
    let threads = c4u_crowd_sim::parallel::available_threads();
    let result: Result<Vec<(usize, Cell)>, Infallible> =
        c4u_selection::run_indexed_jobs(threads, misses.len(), |job| {
            let index = misses[job];
            let spec = &specs[index];
            let cell = evaluate_cell(spec);
            if let Some(dir) = cache_dir {
                cache::store_cell(dir, spec, &cell);
            }
            Ok((index, cell))
        });
    let Ok(evaluated) = result;
    for (index, cell) in evaluated {
        slots[index] = Some(cell);
    }
    let cells = slots
        .into_iter()
        .map(|slot| slot.expect("every spec is a hit or a scheduled miss"))
        .collect();
    (cells, stats)
}

/// Orders a sweep's cache-miss indices for the work queue: most expensive
/// strategy first ([`StrategyKind::cost_rank`]), original spec index as the
/// stable tie-break. Longest-processing-time-first keeps the pool busy: the
/// costly `Ours`/ensemble cells start while the trivial baselines fill the
/// gaps, instead of a full CPE run starting last on an idle pool.
pub fn sweep_schedule(specs: &[CellSpec], mut misses: Vec<usize>) -> Vec<usize> {
    misses.sort_by_key(|&index| (std::cmp::Reverse(specs[index].strategy.cost_rank()), index));
    misses
}

/// Formats a dataset-by-strategy accuracy table (rows = strategies, columns =
/// datasets), matching the layout of Table V.
pub fn format_accuracy_table(datasets: &[String], strategies: &[String], cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "strategy"));
    for d in datasets {
        out.push_str(&format!(" {:>10}", d));
    }
    out.push('\n');
    for s in strategies {
        out.push_str(&format!("{s:<14}"));
        for d in datasets {
            let cell = cells.iter().find(|c| &c.strategy == s && &c.dataset == d);
            match cell {
                Some(c) => out.push_str(&format!(" {:>10.3}", c.mean_accuracy)),
                None => out.push_str(&format!(" {:>10}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Looks up a cell's mean accuracy in a result set.
pub fn lookup(cells: &[Cell], dataset: &str, strategy: &str) -> Option<f64> {
    cells
        .iter()
        .find(|c| c.dataset == dataset && c.strategy == strategy)
        .map(|c| c.mean_accuracy)
}

/// Relative improvement (percent) of `ours` over `baseline`.
pub fn uplift(ours: f64, baseline: f64) -> f64 {
    c4u_selection::relative_improvement(ours, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_defaults() {
        assert!(cpe_epochs() >= 1);
        assert!(trials() >= 1);
        assert!(num_shards() >= 1);
        assert_eq!(trial_seeds(3).len(), 3);
        assert_ne!(trial_seeds(2)[0], trial_seeds(2)[1]);
        if std::env::var("C4U_QUAD_MATH").is_err() {
            // Table/figure benches default to the bit-identical mode; the
            // roofline bench times both.
            assert_eq!(quad_math(), QuadratureMath::Exact);
            assert_eq!(
                quad_math_modes(),
                vec![QuadratureMath::Exact, QuadratureMath::FastVector]
            );
        }
    }

    #[test]
    fn strategy_lineup_matches_table_v() {
        let all = StrategyKind::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name(), "US");
        assert_eq!(all[4].name(), "Ours");
        for kind in all {
            let strategy = kind.build(3, 0.5);
            assert_eq!(strategy.name(), kind.name());
        }
    }

    #[test]
    fn stage_pipeline_lineup_covers_the_zoo() {
        let zoo = StrategyKind::stage_pipelines();
        assert_eq!(zoo.len(), 6);
        let names: Vec<&str> = zoo.iter().map(StrategyKind::name).collect();
        assert_eq!(
            names,
            vec!["Ours", "ME-CPE", "LGE-only", "BKT", "Rasch", "CPE+BKT"]
        );
        for kind in zoo {
            let strategy = kind.build(2, 0.5);
            assert_eq!(strategy.name(), kind.name());
        }
    }

    #[test]
    fn cached_generate_shares_datasets_per_config() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 9;
        config.select_k = 2;
        let a = cached_generate(&config).unwrap();
        let b = cached_generate(&config).unwrap();
        // Same configuration -> literally the same dataset allocation.
        assert!(Arc::ptr_eq(&a, &b));
        // Any configuration change (here: the generation seed) is a different key.
        let c = cached_generate(&config.with_seed(config.seed.wrapping_add(1))).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(config_key(&config), config_key(&config.with_seed(1)));
        assert!(dataset_cache_len() >= 2);
    }

    #[test]
    fn concurrent_cached_generate_shares_one_dataset() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 8;
        config.select_k = 2;
        let config = config.with_seed(777);
        let datasets: Vec<Arc<Dataset>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cached_generate(&config).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Cold-cache race included: every thread gets the same allocation.
        for dataset in &datasets[1..] {
            assert!(Arc::ptr_eq(&datasets[0], dataset));
        }
    }

    #[test]
    fn cell_evaluation_produces_bounded_accuracy() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 12;
        config.select_k = 3;
        let spec = CellSpec::standard(config, StrategyKind::MedianElimination, 2, vec![1, 2]);
        let cell = evaluate_cell(&spec);
        assert_eq!(cell.strategy, "ME");
        assert!((0.0..=1.0).contains(&cell.mean_accuracy));
        assert!(cell.std_accuracy >= 0.0);
    }

    #[test]
    fn parallel_evaluation_preserves_order() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 10;
        config.select_k = 3;
        let specs: Vec<CellSpec> = [
            StrategyKind::UniformSampling,
            StrategyKind::MedianElimination,
        ]
        .iter()
        .map(|&s| CellSpec::standard(config.clone(), s, 2, vec![7]))
        .collect();
        let cells = evaluate_cells(&specs);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].strategy, "US");
        assert_eq!(cells[1].strategy, "ME");
    }

    #[test]
    fn table_formatting_and_lookup() {
        let cells = vec![
            Cell {
                dataset: "RW-1".into(),
                strategy: "US".into(),
                mean_accuracy: 0.75,
                std_accuracy: 0.01,
            },
            Cell {
                dataset: "RW-1".into(),
                strategy: "Ours".into(),
                mean_accuracy: 0.80,
                std_accuracy: 0.01,
            },
        ];
        let table = format_accuracy_table(
            &["RW-1".to_string()],
            &["US".to_string(), "Ours".to_string(), "Missing".to_string()],
            &cells,
        );
        assert!(table.contains("0.750"));
        assert!(table.contains("0.800"));
        assert!(table.contains('-'));
        assert_eq!(lookup(&cells, "RW-1", "Ours"), Some(0.80));
        assert_eq!(lookup(&cells, "RW-1", "GT"), None);
        assert!((uplift(0.8, 0.75) - 6.666).abs() < 0.01);
    }
}
