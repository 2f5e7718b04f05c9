//! Workers: historical profiles and trainable simulated workers.
//!
//! Definition 2 of the paper associates every worker `w_i` with a historical profile
//! `(h_i, n_i)` — per-prior-domain accuracy and task counts — plus a latent
//! target-domain accuracy `h_{i,T}`. The simulator additionally gives each worker a
//! *learning trajectory*: after a batch of learning tasks is answered and the ground
//! truth revealed, the worker's true target-domain accuracy moves along the modified
//! IRT curve `g(alpha_i, beta_T, K)` (Sec. V-A), with `alpha_i` identified from the
//! first observed batch exactly as the paper's synthetic-dataset construction does.

use crate::task::AnswerSheet;
use crate::SimError;
use c4u_irt::LearningGainModel;
use rand::Rng;

/// Identifier of a worker inside a pool (dense, 0-based).
pub type WorkerId = usize;

/// Answers a batch of tasks at the given accuracy: with probability `accuracy`
/// the gold label is reproduced, otherwise it is flipped.
///
/// This is the single answering expression of the whole simulator —
/// [`SimulatedWorker::answer_tasks`] delegates here, so every platform path
/// (sequential or sharded) draws the same floats in the same order and
/// produces bit-for-bit identical answers.
pub fn answer_with_accuracy<R: Rng + ?Sized>(
    rng: &mut R,
    accuracy: f64,
    gold: &[bool],
) -> Vec<bool> {
    gold.iter()
        .map(|&g| if rng.gen::<f64>() < accuracy { g } else { !g })
        .collect()
}

/// How strongly a worker's cross-domain learning aptitude (one standard deviation of
/// general ability) shifts the logit of their post-training accuracy.
pub const APTITUDE_GAIN: f64 = 0.6;

/// Historical profile `(h_i, n_i)` of a worker over the prior domains.
///
/// A `None` accuracy means the worker has never worked on that domain; the selection
/// algorithms must cope with such gaps (Sec. IV-E of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoricalProfile {
    accuracies: Vec<Option<f64>>,
    task_counts: Vec<usize>,
}

impl HistoricalProfile {
    /// Creates a profile from per-domain accuracies and task counts.
    pub fn new(accuracies: Vec<Option<f64>>, task_counts: Vec<usize>) -> Result<Self, SimError> {
        if accuracies.len() != task_counts.len() {
            return Err(SimError::InvalidConfig {
                what: "profile accuracies and task counts must have equal length",
                value: accuracies.len() as f64 - task_counts.len() as f64,
            });
        }
        for a in accuracies.iter().flatten() {
            if !(0.0..=1.0).contains(a) || a.is_nan() {
                return Err(SimError::InvalidConfig {
                    what: "profile accuracies must lie in [0, 1]",
                    value: *a,
                });
            }
        }
        Ok(Self {
            accuracies,
            task_counts,
        })
    }

    /// Creates a complete profile (a record on every prior domain).
    pub fn complete(accuracies: Vec<f64>, task_counts: Vec<usize>) -> Result<Self, SimError> {
        Self::new(accuracies.into_iter().map(Some).collect(), task_counts)
    }

    /// Number of prior domains covered by the profile (including gaps).
    pub fn num_domains(&self) -> usize {
        self.accuracies.len()
    }

    /// Accuracy on prior domain `d`, if the worker has a record there.
    pub fn accuracy(&self, d: usize) -> Option<f64> {
        self.accuracies.get(d).copied().flatten()
    }

    /// Number of tasks completed on prior domain `d` (0 when out of range).
    pub fn task_count(&self, d: usize) -> usize {
        self.task_counts.get(d).copied().unwrap_or(0)
    }

    /// Indices of the prior domains the worker actually has a record on.
    pub fn observed_domains(&self) -> Vec<usize> {
        self.accuracies
            .iter()
            .enumerate()
            .filter_map(|(d, a)| a.map(|_| d))
            .collect()
    }

    /// Accuracies of the observed domains, aligned with [`Self::observed_domains`].
    pub fn observed_accuracies(&self) -> Vec<f64> {
        self.accuracies.iter().filter_map(|a| *a).collect()
    }

    /// Dense accuracy vector with gaps filled by `fill`.
    pub fn dense_accuracies(&self, fill: f64) -> Vec<f64> {
        self.accuracies.iter().map(|a| a.unwrap_or(fill)).collect()
    }

    /// Whether the worker has a record on every prior domain.
    pub fn is_complete(&self) -> bool {
        self.accuracies.iter().all(|a| a.is_some())
    }
}

/// Latent specification of a simulated worker, as produced by the dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// The worker's historical profile over the prior domains.
    pub profile: HistoricalProfile,
    /// True (latent) target-domain accuracy before any training.
    pub initial_target_accuracy: f64,
    /// True per-domain accuracies used when generating the profile (diagnostics).
    pub latent_prior_accuracies: Vec<f64>,
    /// Standardised learning aptitude (z-score of the worker's general ability in the
    /// pool). Workers with broad cross-domain competence pick up a new domain faster
    /// than their pre-training target accuracy alone suggests — the premise of the
    /// paper's "train and select" pipeline. Zero means an average learner.
    pub learning_aptitude: f64,
}

/// A trainable simulated worker.
///
/// The worker answers tasks with its *current* true target-domain accuracy; after
/// each learning batch (with ground truth revealed) the accuracy moves along the
/// modified IRT curve `g(alpha, beta_T, K)` of Sec. V-A. The learning parameter
/// `alpha` is the noise-free limit of the paper's calibration: it is chosen so that
/// the curve passes through the worker's latent initial accuracy at the dataset's
/// per-batch task count `Q` (the paper identifies the same quantity from the
/// *observed* first-batch accuracy, which is a noisy estimate of this value; see
/// DESIGN.md for the substitution note).
#[derive(Debug, Clone)]
pub struct SimulatedWorker {
    id: WorkerId,
    profile: HistoricalProfile,
    /// Difficulty parameter of the target domain used for the learning dynamics.
    target_difficulty: f64,
    /// Accuracy before any training.
    initial_accuracy: f64,
    /// Current true accuracy on the target domain.
    current_accuracy: f64,
    /// Cumulative number of learning tasks whose ground truth has been revealed.
    cumulative_learning_tasks: usize,
    /// Reference batch size the learning curve is anchored at (the dataset's `Q`).
    reference_batch: usize,
    /// The worker's latent learning curve.
    learning: LearningGainModel,
    /// Per-task accuracy decay applied on top of the learning curve (the drift
    /// scenario). Zero — the default — leaves the closed-world dynamics untouched.
    accuracy_drift: f64,
}

impl SimulatedWorker {
    /// Creates a worker from its latent specification.
    ///
    /// `reference_batch` is the per-batch task count `Q` of the dataset: the latent
    /// learning curve is anchored so that `g(alpha, beta_T, Q)` equals the worker's
    /// initial accuracy, after which further revealed batches move the accuracy
    /// along the curve.
    pub fn new(
        id: WorkerId,
        spec: &WorkerSpec,
        target_difficulty: f64,
        reference_batch: usize,
    ) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&spec.initial_target_accuracy)
            || spec.initial_target_accuracy.is_nan()
        {
            return Err(SimError::InvalidConfig {
                what: "initial target accuracy must lie in [0, 1]",
                value: spec.initial_target_accuracy,
            });
        }
        if !target_difficulty.is_finite() {
            return Err(SimError::InvalidConfig {
                what: "target difficulty must be finite",
                value: target_difficulty,
            });
        }
        if reference_batch == 0 {
            return Err(SimError::InvalidConfig {
                what: "reference batch size must be >= 1",
                value: 0.0,
            });
        }
        // Anchor the latent learning curve at the reference batch size: the curve
        // passes through the initial accuracy at K = Q (clamped away from 0/1 so the
        // implied alpha stays finite), and workers with a higher cross-domain
        // learning aptitude climb the curve faster.
        let anchor = spec.initial_target_accuracy.clamp(0.02, 0.98);
        let base_alpha =
            LearningGainModel::solve_alpha(anchor, target_difficulty, reference_batch as f64)?;
        let aptitude = spec.learning_aptitude.clamp(-3.0, 3.0);
        let alpha = base_alpha + APTITUDE_GAIN * aptitude / (reference_batch as f64 + 1.0).ln();
        let learning = LearningGainModel::new(alpha, target_difficulty)?;
        Ok(Self {
            id,
            profile: spec.profile.clone(),
            target_difficulty,
            initial_accuracy: spec.initial_target_accuracy,
            current_accuracy: spec.initial_target_accuracy,
            cumulative_learning_tasks: 0,
            reference_batch,
            learning,
            accuracy_drift: 0.0,
        })
    }

    /// Sets the per-task accuracy drift of the worker.
    ///
    /// Under drift the worker's true accuracy after `K` revealed tasks becomes
    /// `g(alpha, beta_T, max(K, Q)) - drift * K` (clamped to `[0, 1]`), modelling a
    /// population whose concentration degrades over a long campaign (the RW-1-drift
    /// robustness scenario). A drift of zero restores the exact closed-world curve.
    pub fn set_accuracy_drift(&mut self, drift: f64) -> Result<(), SimError> {
        if !drift.is_finite() || !(0.0..1.0).contains(&drift) {
            return Err(SimError::InvalidConfig {
                what: "accuracy drift must lie in [0, 1)",
                value: drift,
            });
        }
        self.accuracy_drift = drift;
        Ok(())
    }

    /// The worker's per-task accuracy drift (zero outside drift scenarios).
    pub fn accuracy_drift(&self) -> f64 {
        self.accuracy_drift
    }

    /// Worker identifier.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Historical profile over the prior domains.
    pub fn profile(&self) -> &HistoricalProfile {
        &self.profile
    }

    /// True target-domain accuracy before any training.
    pub fn initial_accuracy(&self) -> f64 {
        self.initial_accuracy
    }

    /// Current true target-domain accuracy.
    pub fn current_accuracy(&self) -> f64 {
        self.current_accuracy
    }

    /// Cumulative number of learning tasks whose answers have been revealed to the
    /// worker so far.
    pub fn cumulative_learning_tasks(&self) -> usize {
        self.cumulative_learning_tasks
    }

    /// The worker's latent learning parameter `alpha`.
    pub fn learning_alpha(&self) -> f64 {
        self.learning.alpha()
    }

    /// The target-domain difficulty parameter driving the worker's learning curve.
    pub fn target_difficulty(&self) -> f64 {
        self.target_difficulty
    }

    /// Answers a batch of tasks with the current accuracy: with probability
    /// `current_accuracy` the gold label is reproduced, otherwise it is flipped.
    /// No learning happens here — call [`Self::learn_from_batch`] after revealing the
    /// ground truth of learning tasks.
    pub fn answer_tasks<R: Rng + ?Sized>(&self, rng: &mut R, gold: &[bool]) -> Vec<bool> {
        answer_with_accuracy(rng, self.current_accuracy, gold)
    }

    /// Answers a batch of learning tasks, then learns from the revealed ground truth
    /// (Definition 3 of the paper). Returns the answer sheet.
    ///
    /// The learning dynamics follow Sec. V-A: every revealed batch moves the true
    /// accuracy to `g(alpha, beta_T, K)` with `K` the cumulative revealed tasks and
    /// `alpha` the worker's latent learning parameter (anchored so that the curve
    /// passes through the initial accuracy at `K = Q`).
    pub fn answer_learning_batch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        gold: &[bool],
    ) -> Result<AnswerSheet, SimError> {
        let answers = self.answer_tasks(rng, gold);
        let sheet = AnswerSheet::new(self.id, answers, gold.to_vec())?;
        self.learn_from_batch(&sheet)?;
        Ok(sheet)
    }

    /// Applies the learning update for a batch whose ground truth has been revealed.
    ///
    /// The true accuracy follows `g(alpha, beta_T, max(K, Q))`: revealing fewer than
    /// `Q` tasks keeps the worker at the initial (anchor) accuracy, and every task
    /// beyond the anchor moves the accuracy along the latent learning curve.
    pub fn learn_from_batch(&mut self, sheet: &AnswerSheet) -> Result<(), SimError> {
        if sheet.is_empty() {
            return Ok(());
        }
        self.cumulative_learning_tasks += sheet.len();
        let k = self.cumulative_learning_tasks.max(self.reference_batch) as f64;
        let mut accuracy = self.learning.accuracy(k);
        // Guarded so the closed-world path (drift == 0) stays bit-for-bit identical:
        // even an added `- 0.0` could flip the sign of a negative zero.
        if self.accuracy_drift > 0.0 {
            accuracy -= self.accuracy_drift * self.cumulative_learning_tasks as f64;
        }
        self.current_accuracy = accuracy.clamp(0.0, 1.0);
        Ok(())
    }

    /// Answers a batch of working tasks (no learning — the ground truth of working
    /// tasks is never revealed).
    pub fn answer_working_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        gold: &[bool],
    ) -> Result<AnswerSheet, SimError> {
        AnswerSheet::new(self.id, self.answer_tasks(rng, gold), gold.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(initial: f64) -> WorkerSpec {
        WorkerSpec {
            profile: HistoricalProfile::complete(vec![0.7, 0.88, 0.58], vec![20, 20, 20]).unwrap(),
            initial_target_accuracy: initial,
            latent_prior_accuracies: vec![0.7, 0.88, 0.58],
            learning_aptitude: 0.0,
        }
    }

    #[test]
    fn accuracy_drift_degrades_the_learning_curve() {
        let mut rng = StdRng::seed_from_u64(7);
        let gold = vec![true; 30];
        let mut plain = SimulatedWorker::new(0, &spec(0.7), 0.0, 30).unwrap();
        let mut drifting = plain.clone();
        drifting.set_accuracy_drift(0.001).unwrap();
        plain.answer_learning_batch(&mut rng, &gold).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        drifting.answer_learning_batch(&mut rng, &gold).unwrap();
        let expected = plain.current_accuracy() - 0.001 * 30.0;
        assert!((drifting.current_accuracy() - expected).abs() < 1e-12);
        // Zero drift is the identity: the setter round-trips without effect.
        let mut zeroed = SimulatedWorker::new(0, &spec(0.7), 0.0, 30).unwrap();
        zeroed.set_accuracy_drift(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        zeroed.answer_learning_batch(&mut rng, &gold).unwrap();
        assert_eq!(zeroed.current_accuracy(), plain.current_accuracy());
        // Validation.
        assert!(plain.set_accuracy_drift(-0.1).is_err());
        assert!(plain.set_accuracy_drift(1.0).is_err());
        assert!(plain.set_accuracy_drift(f64::NAN).is_err());
    }

    #[test]
    fn profile_validation_and_accessors() {
        assert!(HistoricalProfile::new(vec![Some(0.5)], vec![1, 2]).is_err());
        assert!(HistoricalProfile::new(vec![Some(1.5)], vec![1]).is_err());
        let p = HistoricalProfile::new(vec![Some(0.7), None, Some(0.6)], vec![10, 0, 5]).unwrap();
        assert_eq!(p.num_domains(), 3);
        assert_eq!(p.accuracy(0), Some(0.7));
        assert_eq!(p.accuracy(1), None);
        assert_eq!(p.accuracy(9), None);
        assert_eq!(p.task_count(0), 10);
        assert_eq!(p.task_count(9), 0);
        assert_eq!(p.observed_domains(), vec![0, 2]);
        assert_eq!(p.observed_accuracies(), vec![0.7, 0.6]);
        assert_eq!(p.dense_accuracies(0.5), vec![0.7, 0.5, 0.6]);
        assert!(!p.is_complete());
        assert!(HistoricalProfile::complete(vec![0.5], vec![3])
            .unwrap()
            .is_complete());
    }

    #[test]
    fn worker_construction_validation() {
        assert!(SimulatedWorker::new(0, &spec(1.5), 0.0, 10).is_err());
        assert!(SimulatedWorker::new(0, &spec(0.5), f64::NAN, 10).is_err());
        assert!(SimulatedWorker::new(0, &spec(0.5), 0.0, 0).is_err());
        let w = SimulatedWorker::new(7, &spec(0.55), 0.0, 10).unwrap();
        assert_eq!(w.id(), 7);
        assert_eq!(w.current_accuracy(), 0.55);
        assert_eq!(w.cumulative_learning_tasks(), 0);
        // The latent alpha is anchored so that g(alpha, 0, 10) = 0.55 > 0.5 => positive.
        assert!(w.learning_alpha() > 0.0);
    }

    #[test]
    fn answering_matches_accuracy_statistically() {
        let w = SimulatedWorker::new(0, &spec(0.8), 0.0, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let gold: Vec<bool> = (0..5_000).map(|i| i % 2 == 0).collect();
        let answers = w.answer_tasks(&mut rng, &gold);
        let correct = answers
            .iter()
            .zip(gold.iter())
            .filter(|(a, g)| a == g)
            .count();
        let rate = correct as f64 / gold.len() as f64;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn learning_batches_move_accuracy_along_irt_curve() {
        // A worker who starts well above the 0.5 baseline has a positive latent
        // alpha and keeps improving as batches are revealed.
        let mut w = SimulatedWorker::new(0, &spec(0.8), 0.0, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let gold: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        let sheet = w.answer_learning_batch(&mut rng, &gold).unwrap();
        assert_eq!(sheet.len(), 10);
        assert_eq!(w.cumulative_learning_tasks(), 10);
        // After exactly the anchor batch the accuracy equals the initial accuracy.
        assert!((w.current_accuracy() - 0.8).abs() < 1e-9);
        let after_first = w.current_accuracy();
        // More training batches increase accuracy monotonically for positive alpha.
        for _ in 0..3 {
            w.answer_learning_batch(&mut rng, &gold).unwrap();
        }
        assert_eq!(w.cumulative_learning_tasks(), 40);
        assert!(w.current_accuracy() > after_first);
        assert!(w.current_accuracy() <= 1.0);
    }

    #[test]
    fn weak_worker_stays_weak() {
        // A worker starting near 0.25 has a negative latent alpha, so training does
        // not lift it above the task baseline.
        let mut w = SimulatedWorker::new(0, &spec(0.25), 0.0, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let gold = vec![true; 20];
        w.answer_learning_batch(&mut rng, &gold).unwrap();
        assert!(w.current_accuracy() < 0.5);
        assert!(w.learning_alpha() < 0.0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut w = SimulatedWorker::new(0, &spec(0.6), 0.0, 10).unwrap();
        let sheet = AnswerSheet::new(0, vec![], vec![]).unwrap();
        w.learn_from_batch(&sheet).unwrap();
        assert_eq!(w.cumulative_learning_tasks(), 0);
        assert_eq!(w.current_accuracy(), 0.6);
    }

    #[test]
    fn working_batches_do_not_train() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = SimulatedWorker::new(0, &spec(0.7), 0.0, 10).unwrap();
        let before = w.current_accuracy();
        let gold = vec![true, false, true];
        let sheet = w.answer_working_batch(&mut rng, &gold).unwrap();
        assert_eq!(sheet.len(), 3);
        assert_eq!(w.current_accuracy(), before);
        assert_eq!(w.cumulative_learning_tasks(), 0);
    }

    #[test]
    fn higher_aptitude_learns_faster() {
        let mut fast_spec = spec(0.6);
        fast_spec.learning_aptitude = 1.5;
        let mut slow_spec = spec(0.6);
        slow_spec.learning_aptitude = -1.5;
        let mut fast = SimulatedWorker::new(0, &fast_spec, 0.0, 10).unwrap();
        let mut slow = SimulatedWorker::new(1, &slow_spec, 0.0, 10).unwrap();
        let gold: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4 {
            fast.answer_learning_batch(&mut rng, &gold).unwrap();
            slow.answer_learning_batch(&mut rng, &gold).unwrap();
        }
        assert!(fast.current_accuracy() > slow.current_accuracy());
        assert!(fast.learning_alpha() > slow.learning_alpha());
    }

    #[test]
    fn deterministic_given_seed() {
        let gold: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let run = |seed: u64| {
            let mut w = SimulatedWorker::new(0, &spec(0.6), 0.0, 10).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut accs = vec![];
            for _ in 0..3 {
                w.answer_learning_batch(&mut rng, &gold).unwrap();
                accs.push(w.current_accuracy());
            }
            accs
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn extreme_accuracies_are_exact() {
        let gold = vec![true, false, true, true];
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(answer_with_accuracy(&mut rng, 1.0, &gold), gold);
        let flipped: Vec<bool> = gold.iter().map(|g| !g).collect();
        assert_eq!(answer_with_accuracy(&mut rng, 0.0, &gold), flipped);
    }
}
