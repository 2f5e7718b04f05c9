//! The crowdsourcing platform simulator.
//!
//! A [`Platform`] owns a pool of trainable [`SimulatedWorker`]s plus the learning and
//! working task pools of one dataset, tracks the task budget, and exposes the two
//! operations every selection strategy needs:
//!
//! 1. [`Platform::assign_learning_batch`] — assign the next contiguous slice of
//!    learning tasks to a set of workers, record their answers, and reveal the ground
//!    truth so the workers learn (Definitions 3–4 of the paper, Algorithm 4 lines
//!    5–11);
//! 2. [`Platform::evaluate_working_accuracy`] — have a set of workers annotate the
//!    working tasks and report their average accuracy, the evaluation criterion of
//!    Sec. V-C.
//!
//! Both operations exist in a sharded form
//! ([`Platform::assign_learning_batch_sharded`],
//! [`Platform::evaluate_working_accuracy_sharded`]) that processes contiguous
//! [`WorkerShards`] ranges on scoped threads and merges the per-shard results
//! back in worker order. The platform is strategy-agnostic: the core algorithm
//! and every baseline drive it through the same interface, so all of them see
//! identical workers, identical tasks, and an identical budget.
//!
//! ## Randomness: one deterministic stream per worker event
//!
//! The answering noise is **not** drawn from one shared generator. Every
//! (round, worker) pair derives its own [`StdRng`] stream from the platform
//! seed via a SplitMix64-style key derivation ([`Platform::new`]'s `seed`,
//! a stream tag separating learning from working answers, the round/evaluation
//! counter, and the worker id). Consequences:
//!
//! * a fixed seed reproduces every answer exactly, on every platform;
//! * answers are independent of the *order* in which workers are processed and
//!   of the shard layout — `assign_learning_batch` and
//!   `assign_learning_batch_sharded` are **bit-for-bit identical** for any
//!   shard count and any thread interleaving (pinned by
//!   `tests/shard_equivalence.rs`);
//! * all workers in a round answer at their pre-round accuracy, exactly as in
//!   Algorithm 4 line 5 (one shared slice of golden questions assigned to the
//!   surviving pool simultaneously); the revealed ground truth is applied
//!   after the round's sheets are complete.

use crate::dataset::Dataset;
use crate::event::{AppliedRoundEvents, RoundEvents};
use crate::parallel::run_indexed_jobs;
use crate::shard::WorkerShards;
use crate::task::AnswerSheet;
use crate::worker::{HistoricalProfile, SimulatedWorker, WorkerId, WorkerSpec};
use crate::SimError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream tag of the learning-task answering noise (one stream family per
/// training round).
const STREAM_LEARNING: u64 = 0x4C45_4152;
/// Stream tag of the working-task answering noise (one stream family per
/// evaluation call).
const STREAM_WORKING: u64 = 0x574F_524B;

/// SplitMix64 finaliser: the bijective avalanche mix of Steele et al., also
/// used by the vendored `StdRng`'s seeding.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the answering seed of one (stream family, epoch, worker) event from
/// the platform seed: each component is absorbed through a SplitMix64 step, so
/// distinct events get statistically independent `StdRng` streams.
fn worker_stream_seed(base: u64, tag: u64, epoch: u64, worker: u64) -> u64 {
    let mut acc = base;
    for part in [tag, epoch, worker] {
        acc = mix64(acc.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(part));
    }
    acc
}

/// Errors unless `shards` partitions exactly `worker_ids.len()` positions.
fn check_partition(worker_ids: &[WorkerId], shards: &WorkerShards) -> Result<(), SimError> {
    if shards.len() != worker_ids.len() {
        return Err(SimError::InvalidConfig {
            what: "shard partition must cover the worker list exactly",
            value: shards.len() as f64,
        });
    }
    Ok(())
}

/// Record of one training assignment (one strategy round).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based index of the assignment in platform history.
    pub round: usize,
    /// Index of the first learning task assigned (into the learning pool, before
    /// wrap-around).
    pub task_start: usize,
    /// Number of learning tasks assigned to each worker.
    pub tasks_per_worker: usize,
    /// One answer sheet per participating worker, in the order they were passed in.
    pub sheets: Vec<AnswerSheet>,
}

impl RoundRecord {
    /// Gold labels of the assigned tasks (identical for every participating worker).
    pub fn gold(&self) -> &[bool] {
        self.sheets
            .first()
            .map(|s| s.gold.as_slice())
            .unwrap_or(&[])
    }

    /// Observed accuracy of a specific worker in this round, if they participated.
    pub fn accuracy_of(&self, worker: WorkerId) -> Option<f64> {
        self.sheets
            .iter()
            .find(|s| s.worker == worker)
            .map(|s| s.accuracy())
    }
}

/// The running state of a simulated crowdsourcing platform.
#[derive(Debug, Clone)]
pub struct Platform {
    workers: Vec<SimulatedWorker>,
    /// Presence flag per worker id: joins push `true`, departures flip to
    /// `false`. Ids are never reused, so every historical record stays valid
    /// and survivors keep their (round, worker-id)-keyed answer streams.
    active: Vec<bool>,
    learning_gold: Vec<bool>,
    working_gold: Vec<bool>,
    /// Base seed of the per-worker answering streams (see the module docs).
    seed: u64,
    /// Number of working-task evaluations run so far — the epoch component of
    /// the working-answer stream family, so repeated evaluations draw fresh
    /// noise.
    evaluations_run: usize,
    budget_total: usize,
    budget_spent: usize,
    learning_cursor: usize,
    history: Vec<RoundRecord>,
    /// Learning-curve parameters applied to workers joining after construction
    /// (identical to those of the initial pool).
    target_difficulty: f64,
    tasks_per_batch: usize,
    /// Per-task accuracy drift of the dataset's scenario, applied to every
    /// worker — initial and joining alike. Zero in the closed world.
    accuracy_drift: f64,
}

impl Platform {
    /// Instantiates a platform from a dataset.
    ///
    /// * `seed` — controls the answering noise (independent of the dataset seed);
    /// * `target_difficulty` — the difficulty parameter `beta_T` driving the workers'
    ///   true learning dynamics. The paper's Yes/No tasks use `beta_T = 0`
    ///   (equivalently an untrained accuracy of 0.5); [`Platform::from_dataset`] uses
    ///   that default.
    pub fn new(dataset: &Dataset, seed: u64, target_difficulty: f64) -> Result<Self, SimError> {
        let accuracy_drift = dataset.config.scenario.accuracy_drift;
        let workers: Result<Vec<_>, _> = dataset
            .workers
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let mut w = SimulatedWorker::new(
                    id,
                    spec,
                    target_difficulty,
                    dataset.config.tasks_per_batch,
                )?;
                if accuracy_drift > 0.0 {
                    w.set_accuracy_drift(accuracy_drift)?;
                }
                Ok::<_, SimError>(w)
            })
            .collect();
        let workers = workers?;
        Ok(Self {
            active: vec![true; workers.len()],
            workers,
            learning_gold: dataset
                .learning_tasks
                .tasks()
                .iter()
                .map(|t| t.gold)
                .collect(),
            working_gold: dataset
                .working_tasks
                .tasks()
                .iter()
                .map(|t| t.gold)
                .collect(),
            seed,
            evaluations_run: 0,
            budget_total: dataset.config.budget(),
            budget_spent: 0,
            learning_cursor: 0,
            history: Vec::new(),
            target_difficulty,
            tasks_per_batch: dataset.config.tasks_per_batch,
            accuracy_drift,
        })
    }

    /// Instantiates a platform with the default target difficulty `beta_T = 0`.
    pub fn from_dataset(dataset: &Dataset, seed: u64) -> Result<Self, SimError> {
        Self::new(dataset, seed, 0.0)
    }

    /// Number of workers in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// All worker identifiers (dense, 0-based).
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        (0..self.workers.len()).collect()
    }

    /// Total task budget `B`.
    pub fn budget_total(&self) -> usize {
        self.budget_total
    }

    /// Learning tasks assigned so far.
    pub fn budget_spent(&self) -> usize {
        self.budget_spent
    }

    /// Learning-task budget still available.
    pub fn budget_remaining(&self) -> usize {
        self.budget_total.saturating_sub(self.budget_spent)
    }

    /// Historical profile of a worker.
    pub fn profile(&self, worker: WorkerId) -> Result<&HistoricalProfile, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.profile())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Historical profiles of all workers, indexed by worker id.
    pub fn profiles(&self) -> Vec<&HistoricalProfile> {
        self.workers.iter().map(|w| w.profile()).collect()
    }

    /// Current *true* target-domain accuracy of a worker (an oracle quantity — the
    /// selection algorithms never see it; it exists for the ground-truth baseline and
    /// for evaluation diagnostics).
    pub fn true_accuracy(&self, worker: WorkerId) -> Result<f64, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.current_accuracy())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Current true accuracies of all workers, indexed by worker id.
    pub fn true_accuracies(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.current_accuracy()).collect()
    }

    /// Cumulative learning tasks revealed to a worker so far.
    pub fn cumulative_learning_tasks(&self, worker: WorkerId) -> Result<usize, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.cumulative_learning_tasks())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Whether a worker is currently on the platform (joined and not departed).
    /// Unknown ids are reported as inactive.
    pub fn is_active(&self, worker: WorkerId) -> bool {
        self.active.get(worker).copied().unwrap_or(false)
    }

    /// Identifiers of the workers currently on the platform, in id order.
    pub fn active_worker_ids(&self) -> Vec<WorkerId> {
        self.active
            .iter()
            .enumerate()
            .filter_map(|(id, &a)| a.then_some(id))
            .collect()
    }

    /// Registers a new worker on the platform mid-campaign and returns its
    /// freshly allocated identifier.
    ///
    /// The worker gets the next dense id and the same learning-curve parameters
    /// (and scenario drift) as the initial pool. Because answer streams are
    /// keyed by (round, worker id) — never by list position — adding a worker
    /// does not perturb any existing worker's noise: the closed-world answers
    /// of the incumbents are bit-for-bit unchanged (pinned by
    /// `tests/churn_determinism.rs`).
    pub fn add_worker(&mut self, spec: &WorkerSpec) -> Result<WorkerId, SimError> {
        let id = self.workers.len();
        let mut worker =
            SimulatedWorker::new(id, spec, self.target_difficulty, self.tasks_per_batch)?;
        if self.accuracy_drift > 0.0 {
            worker.set_accuracy_drift(self.accuracy_drift)?;
        }
        self.workers.push(worker);
        self.active.push(true);
        Ok(id)
    }

    /// Marks a worker as departed. Its id is retired, never reused: historical
    /// records stay valid and the survivors' answer streams are untouched.
    ///
    /// Errors on an unknown id or on a worker that has already left.
    pub fn remove_worker(&mut self, worker: WorkerId) -> Result<(), SimError> {
        match self.active.get_mut(worker) {
            None => Err(SimError::UnknownWorker { id: worker }),
            Some(active) if !*active => Err(SimError::InvalidConfig {
                what: "worker has already left the platform",
                value: worker as f64,
            }),
            Some(active) => {
                *active = false;
                Ok(())
            }
        }
    }

    /// Applies one round's worth of [`RoundEvents`]: joins first (in event
    /// order, so the allocated ids are deterministic), then departures.
    ///
    /// Departures of workers that already left are skipped silently — in an
    /// online campaign a leave notice can race a previous one — while unknown
    /// ids are still hard errors. Returns the ids actually joined/departed.
    pub fn apply_events(&mut self, events: &RoundEvents) -> Result<AppliedRoundEvents, SimError> {
        let mut applied = AppliedRoundEvents::default();
        for spec in &events.joins {
            applied.joined.push(self.add_worker(spec)?);
        }
        for &id in &events.leaves {
            if id >= self.active.len() {
                return Err(SimError::UnknownWorker { id });
            }
            if self.active[id] {
                self.active[id] = false;
                applied.departed.push(id);
            }
        }
        Ok(applied)
    }

    /// Records of every assignment run so far.
    pub fn history(&self) -> &[RoundRecord] {
        &self.history
    }

    /// Number of assignment rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.history.len()
    }

    /// Assigns the next `tasks_per_worker` learning tasks to every worker in
    /// `worker_ids`, records their answers, and reveals the ground truth so they
    /// learn. All listed workers receive the *same* tasks, exactly as in Algorithm 4
    /// (line 5: one shared slice of golden questions per round), and all of them
    /// answer at their pre-round accuracy — the learning update is applied after
    /// the round's sheets are complete.
    ///
    /// This is the single-shard layout of
    /// [`Platform::assign_learning_batch_sharded`], which it delegates to; the
    /// two are bit-for-bit identical for every shard count.
    ///
    /// Returns an error if a worker id is unknown or if the assignment would exceed
    /// the total budget. The learning-task pool is treated as circular: if the cursor
    /// runs past the end (possible only when a caller assigns more tasks than the
    /// paper's schedule), task gold labels repeat from the beginning.
    pub fn assign_learning_batch(
        &mut self,
        worker_ids: &[WorkerId],
        tasks_per_worker: usize,
    ) -> Result<RoundRecord, SimError> {
        self.assign_learning_batch_sharded(
            worker_ids,
            tasks_per_worker,
            &WorkerShards::single(worker_ids.len()),
        )
    }

    /// [`Platform::assign_learning_batch`] over an explicit worker-range
    /// partition: each shard's answer sheets are produced independently on a
    /// scoped thread (per-worker RNG streams make the result independent of
    /// the shard layout) and merged back in worker order, after which the
    /// learning updates are applied.
    ///
    /// `shards` must partition exactly `worker_ids.len()` positions
    /// ([`WorkerShards::by_count`] / [`WorkerShards::by_size`] over the same
    /// length always do). Passing the same worker id twice in one round draws
    /// the same answer stream twice — worker streams are keyed by (round,
    /// worker id), not by list position.
    pub fn assign_learning_batch_sharded(
        &mut self,
        worker_ids: &[WorkerId],
        tasks_per_worker: usize,
        shards: &WorkerShards,
    ) -> Result<RoundRecord, SimError> {
        check_partition(worker_ids, shards)?;
        let round = self.history.len() + 1;
        let task_start = self.learning_cursor;
        if worker_ids.is_empty() || tasks_per_worker == 0 {
            let record = RoundRecord {
                round,
                task_start,
                tasks_per_worker: 0,
                sheets: Vec::new(),
            };
            self.history.push(record.clone());
            return Ok(record);
        }
        self.check_active(worker_ids)?;
        let requested = tasks_per_worker * worker_ids.len();
        if requested > self.budget_remaining() {
            return Err(SimError::BudgetExceeded {
                requested,
                remaining: self.budget_remaining(),
            });
        }
        if self.learning_gold.is_empty() {
            return Err(SimError::TaskRangeOutOfBounds {
                start: 0,
                end: tasks_per_worker,
                pool: 0,
            });
        }

        // Gold labels of the shared slice, with circular wrap-around.
        let gold: Vec<bool> = (0..tasks_per_worker)
            .map(|i| self.learning_gold[(task_start + i) % self.learning_gold.len()])
            .collect();

        // Answering phase: every participant answers at its pre-round
        // accuracy (Algorithm 4 line 5), one scoped thread per shard, sheets
        // merged back in shard == worker order.
        let sheets =
            self.answer_shards(worker_ids, shards, STREAM_LEARNING, round as u64, &gold)?;

        // Learning phase: reveal the ground truth and move every participant
        // along its learning curve (cheap, O(1) per worker — kept sequential).
        for sheet in &sheets {
            self.workers[sheet.worker].learn_from_batch(sheet)?;
        }
        let record = RoundRecord {
            round,
            task_start,
            tasks_per_worker,
            sheets,
        };
        self.learning_cursor += tasks_per_worker;
        self.budget_spent += requested;
        self.history.push(record.clone());
        Ok(record)
    }

    /// Has every worker in `worker_ids` annotate the full working-task pool and
    /// returns their average observed accuracy — the evaluation criterion of the
    /// paper (Sec. V-C). Working tasks never reveal their ground truth, so this does
    /// not train the workers and does not consume budget. Repeated evaluations
    /// draw fresh answering noise (the evaluation counter is part of the
    /// stream derivation).
    ///
    /// Delegates to [`Platform::evaluate_working_accuracy_sharded`] with the
    /// single-shard layout; the two are bit-for-bit identical for every shard
    /// count.
    pub fn evaluate_working_accuracy(&mut self, worker_ids: &[WorkerId]) -> Result<f64, SimError> {
        self.evaluate_working_accuracy_sharded(worker_ids, &WorkerShards::single(worker_ids.len()))
    }

    /// [`Platform::evaluate_working_accuracy`] over an explicit worker-range
    /// partition: per-shard annotation runs on scoped threads, and the
    /// per-worker accuracies are averaged in worker order so the float
    /// accumulation — like everything else — is independent of the shard
    /// layout.
    pub fn evaluate_working_accuracy_sharded(
        &mut self,
        worker_ids: &[WorkerId],
        shards: &WorkerShards,
    ) -> Result<f64, SimError> {
        check_partition(worker_ids, shards)?;
        if worker_ids.is_empty() {
            return Ok(0.0);
        }
        self.check_active(worker_ids)?;
        let epoch = self.evaluations_run as u64;
        self.evaluations_run += 1;
        let sheets = self.answer_shards(
            worker_ids,
            shards,
            STREAM_WORKING,
            epoch,
            &self.working_gold,
        )?;
        // Accumulate in worker order (shard order == worker order), so the
        // sum is the same float expression for every shard layout.
        let mut total = 0.0;
        for sheet in &sheets {
            total += sheet.accuracy();
        }
        Ok(total / sheets.len() as f64)
    }

    /// Errors on the first unknown or departed worker in `worker_ids`.
    fn check_active(&self, worker_ids: &[WorkerId]) -> Result<(), SimError> {
        for &id in worker_ids {
            if id >= self.workers.len() {
                return Err(SimError::UnknownWorker { id });
            }
            if !self.active[id] {
                return Err(SimError::InvalidConfig {
                    what: "worker has left the platform",
                    value: id as f64,
                });
            }
        }
        Ok(())
    }

    /// Has every listed worker answer `gold` at its current accuracy, each on
    /// its own `(seed, tag, epoch, id)` stream: one scoped thread per shard
    /// (the shard count *is* the parallelism budget, mirroring
    /// `EvalEngine::with_threads`), sheets returned in worker order.
    fn answer_shards(
        &self,
        worker_ids: &[WorkerId],
        shards: &WorkerShards,
        tag: u64,
        epoch: u64,
        gold: &[bool],
    ) -> Result<Vec<AnswerSheet>, SimError> {
        let num_shards = shards.num_shards();
        let per_shard: Vec<Vec<AnswerSheet>> = run_indexed_jobs(num_shards, num_shards, |shard| {
            worker_ids[shards.range(shard)]
                .iter()
                .map(|&id| {
                    let seed = worker_stream_seed(self.seed, tag, epoch, id as u64);
                    let answers =
                        self.workers[id].answer_tasks(&mut StdRng::seed_from_u64(seed), gold);
                    AnswerSheet::new(id, answers, gold.to_vec())
                })
                .collect()
        })?;
        let mut sheets = Vec::with_capacity(worker_ids.len());
        for shard_sheets in per_shard {
            sheets.extend(shard_sheets);
        }
        Ok(sheets)
    }

    /// Average *true* (noise-free) accuracy of the listed workers — a lower-variance
    /// alternative evaluation used by some diagnostics.
    pub fn expected_working_accuracy(&self, worker_ids: &[WorkerId]) -> Result<f64, SimError> {
        if worker_ids.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for &id in worker_ids {
            total += self.true_accuracy(id)?;
        }
        Ok(total / worker_ids.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetConfig;
    use crate::generator::generate;

    fn platform() -> Platform {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        Platform::from_dataset(&ds, 7).unwrap()
    }

    #[test]
    fn construction_reflects_dataset() {
        let p = platform();
        assert_eq!(p.pool_size(), 27);
        assert_eq!(p.budget_total(), 540);
        assert_eq!(p.budget_spent(), 0);
        assert_eq!(p.budget_remaining(), 540);
        assert_eq!(p.worker_ids().len(), 27);
        assert_eq!(p.profiles().len(), 27);
        assert_eq!(p.true_accuracies().len(), 27);
        assert_eq!(p.rounds_run(), 0);
    }

    #[test]
    fn unknown_worker_errors() {
        let mut p = platform();
        assert!(p.profile(100).is_err());
        assert!(p.true_accuracy(100).is_err());
        assert!(p.cumulative_learning_tasks(100).is_err());
        assert!(p.assign_learning_batch(&[0, 100], 5).is_err());
        assert!(p.evaluate_working_accuracy(&[100]).is_err());
    }

    #[test]
    fn learning_batch_trains_workers_and_spends_budget() {
        let mut p = platform();
        let ids = p.worker_ids();
        let record = p.assign_learning_batch(&ids, 10).unwrap();
        assert_eq!(record.round, 1);
        assert_eq!(record.sheets.len(), 27);
        assert_eq!(record.tasks_per_worker, 10);
        assert_eq!(record.gold().len(), 10);
        assert_eq!(p.budget_spent(), 270);
        assert_eq!(p.budget_remaining(), 270);
        assert_eq!(p.rounds_run(), 1);
        for &id in &ids {
            assert_eq!(p.cumulative_learning_tasks(id).unwrap(), 10);
        }
        // Accuracy lookup per worker from the record.
        assert!(record.accuracy_of(0).is_some());
        assert!(record.accuracy_of(999).is_none());
    }

    #[test]
    fn budget_is_enforced() {
        let mut p = platform();
        let ids = p.worker_ids();
        p.assign_learning_batch(&ids, 10).unwrap();
        // 270 remaining; 27 workers * 11 tasks = 297 > 270.
        let err = p.assign_learning_batch(&ids, 11).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
        // A smaller assignment still fits.
        p.assign_learning_batch(&ids[..14], 19).unwrap();
        assert!(p.budget_spent() <= p.budget_total());
    }

    #[test]
    fn empty_assignment_is_a_noop_round() {
        let mut p = platform();
        let record = p.assign_learning_batch(&[], 10).unwrap();
        assert_eq!(record.sheets.len(), 0);
        assert_eq!(p.budget_spent(), 0);
        let record = p.assign_learning_batch(&[0, 1], 0).unwrap();
        assert_eq!(record.tasks_per_worker, 0);
        assert_eq!(p.budget_spent(), 0);
    }

    #[test]
    fn training_improves_strong_workers_over_batches() {
        // Workers whose initial accuracy is above the 0.5 task baseline follow an
        // increasing IRT trajectory: after several revealed batches their true
        // accuracy should be higher than it was before training (the simulated
        // counterpart of the accuracy uplift reported in Sec. V-H of the paper).
        let mut p = platform();
        let ids = p.worker_ids();
        let initial = p.true_accuracies();
        let strong: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&id| initial[id] > 0.65)
            .collect();
        assert!(
            !strong.is_empty(),
            "RW-1 pool should contain strong workers"
        );
        let before = p.expected_working_accuracy(&strong).unwrap();
        for _ in 0..3 {
            p.assign_learning_batch(&strong, 6).unwrap();
        }
        let after = p.expected_working_accuracy(&strong).unwrap();
        assert!(
            after > before + 0.02,
            "training should lift strong workers: {before} -> {after}"
        );
    }

    #[test]
    fn working_evaluation_reflects_true_accuracy() {
        let mut p = platform();
        let truths = p.true_accuracies();
        // Index of the strongest and weakest worker by true accuracy.
        let best = (0..truths.len())
            .max_by(|&a, &b| truths[a].partial_cmp(&truths[b]).unwrap())
            .unwrap();
        let worst = (0..truths.len())
            .min_by(|&a, &b| truths[a].partial_cmp(&truths[b]).unwrap())
            .unwrap();
        let best_acc = p.evaluate_working_accuracy(&[best]).unwrap();
        let worst_acc = p.evaluate_working_accuracy(&[worst]).unwrap();
        assert!(best_acc > worst_acc);
        assert_eq!(p.evaluate_working_accuracy(&[]).unwrap(), 0.0);
        // Evaluation never consumes budget.
        assert_eq!(p.budget_spent(), 0);
    }

    #[test]
    fn repeated_evaluations_draw_fresh_noise() {
        let mut p = platform();
        let ids = p.worker_ids();
        let first = p.evaluate_working_accuracy(&ids).unwrap();
        let second = p.evaluate_working_accuracy(&ids).unwrap();
        // Same pool, same true accuracies — but a fresh evaluation epoch, so
        // the observed accuracies differ (while staying close in expectation).
        assert_ne!(first, second);
        assert!((first - second).abs() < 0.2);
    }

    #[test]
    fn history_accumulates_in_order() {
        let mut p = platform();
        let ids = p.worker_ids();
        p.assign_learning_batch(&ids, 5).unwrap();
        p.assign_learning_batch(&ids[..10], 5).unwrap();
        assert_eq!(p.history().len(), 2);
        assert_eq!(p.history()[0].round, 1);
        assert_eq!(p.history()[1].round, 2);
        assert_eq!(p.history()[1].sheets.len(), 10);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let run = |seed| {
            let mut p = Platform::from_dataset(&ds, seed).unwrap();
            let ids = p.worker_ids();
            let record = p.assign_learning_batch(&ids, 10).unwrap();
            let observed: Vec<f64> = record.sheets.iter().map(|s| s.accuracy()).collect();
            (p.true_accuracies(), observed)
        };
        // Same seed: identical observed answers and identical true trajectories.
        assert_eq!(run(3), run(3));
        // Different seed: the true trajectories are a latent property of the dataset
        // (identical), but the observed answers differ.
        let (truth_a, obs_a) = run(3);
        let (truth_b, obs_b) = run(4);
        assert_eq!(truth_a, truth_b);
        assert_ne!(obs_a, obs_b);
    }

    #[test]
    fn sharded_assignment_matches_unsharded_for_any_layout() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let reference = {
            let mut p = Platform::from_dataset(&ds, 5).unwrap();
            let ids = p.worker_ids();
            p.assign_learning_batch(&ids, 10).unwrap()
        };
        for num_shards in [1usize, 3, 16, 64] {
            let mut p = Platform::from_dataset(&ds, 5).unwrap();
            let ids = p.worker_ids();
            let shards = WorkerShards::by_count(ids.len(), num_shards);
            let record = p.assign_learning_batch_sharded(&ids, 10, &shards).unwrap();
            assert_eq!(record, reference, "{num_shards} shards");
        }
    }

    #[test]
    fn sharded_paths_reject_mismatched_partitions() {
        let mut p = platform();
        let ids = p.worker_ids();
        let wrong = WorkerShards::by_count(ids.len() + 1, 2);
        assert!(matches!(
            p.assign_learning_batch_sharded(&ids, 5, &wrong),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy_sharded(&ids, &wrong),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn churn_allocates_dense_ids_and_retires_departures() {
        use crate::event::RoundEvents;
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut p = Platform::from_dataset(&ds, 7).unwrap();
        let n = p.pool_size();
        let spec = ds.workers[0].clone();
        let applied = p
            .apply_events(
                &RoundEvents::none()
                    .with_join(spec.clone())
                    .with_join(spec.clone())
                    .with_leave(3),
            )
            .unwrap();
        assert_eq!(applied.joined, vec![n, n + 1]);
        assert_eq!(applied.departed, vec![3]);
        assert_eq!(p.pool_size(), n + 2);
        assert!(!p.is_active(3));
        assert!(p.is_active(n + 1));
        assert!(!p.is_active(n + 2));
        let active = p.active_worker_ids();
        assert_eq!(active.len(), n + 1);
        assert!(!active.contains(&3));
        // Departed workers are rejected by both planning paths...
        assert!(matches!(
            p.assign_learning_batch(&[3], 5),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy(&[3]),
            Err(SimError::InvalidConfig { .. })
        ));
        // ...their history stays queryable...
        assert!(p.profile(3).is_ok());
        // ...a second departure errors directly but is skipped in a batch...
        assert!(p.remove_worker(3).is_err());
        let applied = p.apply_events(&RoundEvents::none().with_leave(3)).unwrap();
        assert!(applied.is_empty());
        // ...and unknown ids are always hard errors.
        assert!(matches!(
            p.remove_worker(999),
            Err(SimError::UnknownWorker { .. })
        ));
        assert!(p
            .apply_events(&RoundEvents::none().with_leave(999))
            .is_err());
    }

    #[test]
    fn churn_preserves_surviving_worker_streams() {
        use crate::event::RoundEvents;
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let reference = {
            let mut p = Platform::from_dataset(&ds, 11).unwrap();
            let ids = p.worker_ids();
            p.assign_learning_batch(&ids, 10).unwrap()
        };
        // Same round, but with a join and a departure applied first: every
        // surviving original worker must produce the exact same sheet.
        let mut p = Platform::from_dataset(&ds, 11).unwrap();
        p.apply_events(
            &RoundEvents::none()
                .with_join(ds.workers[0].clone())
                .with_leave(5),
        )
        .unwrap();
        let record = p.assign_learning_batch(&p.active_worker_ids(), 10).unwrap();
        for sheet in &reference.sheets {
            if sheet.worker == 5 {
                continue;
            }
            let survived = record
                .sheets
                .iter()
                .find(|s| s.worker == sheet.worker)
                .unwrap();
            assert_eq!(sheet, survived, "worker {} stream changed", sheet.worker);
        }
    }

    #[test]
    fn drift_scenario_is_applied_to_initial_and_joining_workers() {
        let config = DatasetConfig::rw1_drift();
        let ds = generate(&config).unwrap();
        let mut p = Platform::new(&ds, 7, 0.0).unwrap();
        let id = p.add_worker(&ds.workers[0]).unwrap();
        let ids = p.active_worker_ids();
        p.assign_learning_batch(&ids, 10).unwrap();
        // Same dataset without drift: trained accuracies must be strictly higher.
        let plain_ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut plain = Platform::new(&plain_ds, 7, 0.0).unwrap();
        plain.add_worker(&plain_ds.workers[0]).unwrap();
        plain.assign_learning_batch(&ids, 10).unwrap();
        for &w in &ids {
            let drifted = p.true_accuracy(w).unwrap();
            let undrifted = plain.true_accuracy(w).unwrap();
            let expected = (undrifted - config.scenario.accuracy_drift * 10.0).clamp(0.0, 1.0);
            assert!(
                (drifted - expected).abs() < 1e-12,
                "worker {w}: {drifted} vs {expected}"
            );
        }
        assert_eq!(id, ds.workers.len());
    }

    #[test]
    fn answer_order_is_independent_of_worker_order() {
        // Per-worker streams: permuting the worker list permutes the sheets
        // but never changes any individual worker's answers.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut forward = Platform::from_dataset(&ds, 9).unwrap();
        let ids = forward.worker_ids();
        let record_fwd = forward.assign_learning_batch(&ids, 10).unwrap();
        let mut reversed = Platform::from_dataset(&ds, 9).unwrap();
        let rev_ids: Vec<WorkerId> = ids.iter().rev().copied().collect();
        let record_rev = reversed.assign_learning_batch(&rev_ids, 10).unwrap();
        for sheet in &record_fwd.sheets {
            let mirrored = record_rev
                .sheets
                .iter()
                .find(|s| s.worker == sheet.worker)
                .unwrap();
            assert_eq!(sheet, mirrored);
        }
    }
}
