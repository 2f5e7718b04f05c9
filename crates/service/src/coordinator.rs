//! The round coordinator: the service's front for one platform round.
//!
//! A [`ShardService`] owns the bounded [`WorkQueue`](crate::WorkQueue) and
//! the executor pool. One Algorithm-4 round flows through it as:
//!
//! ```text
//! plan (platform) ──► enqueue per-shard jobs ──► executor pool / transport
//!                                                        │
//! commit (platform) ◄── merge by shard slot ◄── responses (any order)
//! ```
//!
//! Planning and committing stay on the caller's `Platform`; only the pure
//! answering work travels through the service. Because requests are pure and
//! responses are merged by slot, the committed round is bit-for-bit identical
//! to [`Platform::assign_learning_batch_sharded`] for every executor count,
//! queue capacity, transport, completion order, and injected delay — pinned
//! by `tests/service_equivalence.rs`.

use crate::error::ServiceError;
use crate::pool::{BatchState, DeliveryOrder, ExecutorPool, Job};
use crate::queue::WorkQueue;
use crate::transport::{LocalTransport, ShardRequest, ShardResponse, ShardTransport};
use c4u_crowd_sim::{
    merge_evaluation, InProcessExecutor, Platform, RoundRecord, WorkerId, WorkerShards,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`ShardService`]. Plain data — two services built from
/// equal configs behave identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of executor threads (values below 1 are treated as 1).
    pub executors: usize,
    /// Work-queue capacity; 0 = unbounded.
    pub queue_capacity: usize,
    /// How responses are written back into their batch slots.
    /// [`DeliveryOrder::Immediate`] in production; the other orders are
    /// adversarial test schedulers.
    pub delivery: DeliveryOrder,
    /// How long an enqueue may block on a full queue before the job fails
    /// with [`ServiceError::QueueFull`]; `None` blocks indefinitely
    /// (pure backpressure).
    pub enqueue_timeout: Option<Duration>,
    /// How many times a job whose executor panicked is requeued before its
    /// slot fails with [`ServiceError::ExecutorLost`].
    pub max_requeues: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            executors: 1,
            queue_capacity: 0,
            delivery: DeliveryOrder::Immediate,
            enqueue_timeout: None,
            max_requeues: 2,
        }
    }
}

impl ServiceConfig {
    /// Builder: sets the executor-thread count.
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors;
        self
    }

    /// Builder: sets the queue capacity (0 = unbounded).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Builder: sets the delivery order.
    pub fn with_delivery(mut self, delivery: DeliveryOrder) -> Self {
        self.delivery = delivery;
        self
    }

    /// Builder: sets the enqueue timeout.
    pub fn with_enqueue_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.enqueue_timeout = timeout;
        self
    }

    /// Builder: sets the panic-requeue budget.
    pub fn with_max_requeues(mut self, max_requeues: usize) -> Self {
        self.max_requeues = max_requeues;
        self
    }
}

/// The asynchronous shard service: a round coordinator over a bounded work
/// queue and a pool of shard executors.
pub struct ShardService {
    queue: Arc<WorkQueue<Job>>,
    pool: ExecutorPool,
    config: ServiceConfig,
    batch_counter: AtomicU64,
}

impl ShardService {
    /// A service executing requests in-process on its executor threads.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_transport(
            config,
            Arc::new(LocalTransport::<InProcessExecutor>::default()),
        )
    }

    /// A service executing requests through an explicit transport (wire
    /// loopback, TCP client, or a fault-injecting test double).
    pub fn with_transport(config: ServiceConfig, transport: Arc<dyn ShardTransport>) -> Self {
        let queue = Arc::new(WorkQueue::new(config.queue_capacity));
        let pool = ExecutorPool::spawn(config.executors, &queue, &transport, config.max_requeues);
        Self {
            queue,
            pool,
            config,
            batch_counter: AtomicU64::new(0),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Executes one batch of shard requests and returns the per-slot results
    /// in request order, regardless of completion order.
    ///
    /// Backpressure: enqueueing blocks while the queue is at capacity (or
    /// fails the job's slot with [`ServiceError::QueueFull`] when an enqueue
    /// timeout is configured). A failed enqueue never hangs the batch — the
    /// error is delivered straight into the job's slot.
    pub fn execute_batch(
        &self,
        requests: Vec<ShardRequest>,
    ) -> Vec<Result<ShardResponse, ServiceError>> {
        let batch_id = self.batch_counter.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(BatchState::new(
            requests.len(),
            self.config.delivery,
            batch_id,
        ));
        for (slot, request) in requests.into_iter().enumerate() {
            let job = Job {
                batch: Arc::clone(&batch),
                slot,
                request,
                attempts: 0,
            };
            let enqueued = match self.config.enqueue_timeout {
                Some(timeout) => self.queue.push_timeout(job, timeout),
                None => self.queue.push(job),
            };
            if let Err(e) = enqueued {
                batch.deliver(slot, Err(e));
            }
        }
        batch.wait()
    }

    /// One Algorithm-4 learning round through the service: plan on the
    /// platform, answer every shard on the executor pool, merge by shard
    /// slot, commit. Bit-for-bit identical to
    /// [`Platform::assign_learning_batch_sharded`].
    ///
    /// On any per-shard failure the *lowest-slot* error is returned (matching
    /// the in-process path's lowest-indexed-error-wins) and nothing is
    /// committed: the platform is left exactly as before the call.
    pub fn assign_learning_batch(
        &self,
        platform: &mut Platform,
        worker_ids: &[WorkerId],
        tasks_per_worker: usize,
        shards: &WorkerShards,
    ) -> Result<RoundRecord, ServiceError> {
        let plan = platform.plan_learning_round(worker_ids, tasks_per_worker, shards)?;
        let requests = plan
            .requests()
            .iter()
            .cloned()
            .map(ShardRequest::Answer)
            .collect();
        let mut sheets = Vec::with_capacity(plan.num_workers());
        for result in self.execute_batch(requests) {
            match result? {
                ShardResponse::Sheets(shard_sheets) => sheets.extend(shard_sheets),
                ShardResponse::Estimates(_) => {
                    return Err(ServiceError::Protocol {
                        what: "answer request answered with estimates",
                    })
                }
            }
        }
        Ok(platform.commit_learning_round(&plan, sheets)?)
    }

    /// One working-accuracy evaluation through the service; bit-for-bit
    /// identical to [`Platform::evaluate_working_accuracy_sharded`].
    pub fn evaluate_working_accuracy(
        &self,
        platform: &mut Platform,
        worker_ids: &[WorkerId],
        shards: &WorkerShards,
    ) -> Result<f64, ServiceError> {
        let plan = platform.plan_evaluation(worker_ids, shards)?;
        if plan.requests().is_empty() {
            return Ok(0.0);
        }
        let requests = plan
            .requests()
            .iter()
            .cloned()
            .map(ShardRequest::Evaluate)
            .collect();
        let mut per_worker = Vec::with_capacity(plan.num_workers());
        for result in self.execute_batch(requests) {
            match result? {
                ShardResponse::Estimates(accuracies) => per_worker.extend(accuracies),
                ShardResponse::Sheets(_) => {
                    return Err(ServiceError::Protocol {
                        what: "evaluate request answered with sheets",
                    })
                }
            }
        }
        Ok(merge_evaluation(&per_worker))
    }
}

impl Drop for ShardService {
    fn drop(&mut self) {
        self.queue.close();
        self.pool.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::{generate, DatasetConfig};

    fn platform() -> Platform {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        Platform::from_dataset(&ds, 7).unwrap()
    }

    #[test]
    fn config_builders_and_env_defaults() {
        let config = ServiceConfig::default()
            .with_executors(3)
            .with_queue_capacity(4)
            .with_delivery(DeliveryOrder::Reversed)
            .with_enqueue_timeout(Some(Duration::from_millis(5)))
            .with_max_requeues(1);
        assert_eq!(config.executors, 3);
        assert_eq!(config.queue_capacity, 4);
        assert_eq!(config.delivery, DeliveryOrder::Reversed);
        assert_eq!(config.enqueue_timeout, Some(Duration::from_millis(5)));
        assert_eq!(config.max_requeues, 1);
        // The default is one executor over an unbounded queue.
        let default = ServiceConfig::default();
        assert_eq!(default.executors, 1);
        assert_eq!(default.queue_capacity, 0);
        assert_eq!(default.delivery, DeliveryOrder::Immediate);
    }

    #[test]
    fn service_round_matches_in_process_round() {
        let service = ShardService::new(ServiceConfig::default().with_executors(2));
        let mut via_service = platform();
        let mut in_process = platform();
        let ids = via_service.worker_ids();
        let shards = WorkerShards::by_count(ids.len(), 4);
        let service_record = service
            .assign_learning_batch(&mut via_service, &ids, 6, &shards)
            .unwrap();
        let reference = in_process
            .assign_learning_batch_sharded(&ids, 6, &shards)
            .unwrap();
        assert_eq!(service_record, reference);
        let service_eval = service
            .evaluate_working_accuracy(&mut via_service, &ids, &shards)
            .unwrap();
        let reference_eval = in_process
            .evaluate_working_accuracy_sharded(&ids, &shards)
            .unwrap();
        assert_eq!(service_eval.to_bits(), reference_eval.to_bits());
    }

    #[test]
    fn empty_rounds_and_evaluations_flow_through() {
        let service = ShardService::new(ServiceConfig::default());
        let mut p = platform();
        let record = service
            .assign_learning_batch(&mut p, &[], 5, &WorkerShards::single(0))
            .unwrap();
        assert!(record.sheets.is_empty());
        let eval = service
            .evaluate_working_accuracy(&mut p, &[], &WorkerShards::single(0))
            .unwrap();
        assert_eq!(eval, 0.0);
    }

    #[test]
    fn failed_rounds_leave_the_platform_untouched() {
        let service = ShardService::new(ServiceConfig::default());
        let mut p = platform();
        let ids = p.worker_ids();
        let before_budget = p.budget_spent();
        let before_rounds = p.rounds_run();
        // Unknown worker: the plan itself fails.
        let err = service
            .assign_learning_batch(&mut p, &[0, 999], 5, &WorkerShards::single(2))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Sim(_)));
        assert_eq!(p.budget_spent(), before_budget);
        assert_eq!(p.rounds_run(), before_rounds);
        // A valid round still works afterwards.
        service
            .assign_learning_batch(&mut p, &ids, 5, &WorkerShards::single(ids.len()))
            .unwrap();
        assert_eq!(p.rounds_run(), 1);
    }
}
