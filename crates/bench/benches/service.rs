//! Wall-clock overhead of the async shard service on large worker pools.
//!
//! ROADMAP's service seam promises that moving the Algorithm-4 round loop
//! behind the [`ShardService`] queue/executor machinery costs coordination
//! only — the shard work itself is identical. This bench quantifies that
//! promise at the `10^5`–`10^6` worker scale the sharded platform targets:
//! for every `(workers, executors)` cell it times one full learning
//! round (every worker answers a golden batch) through
//! [`Platform::assign_learning_batch_sharded`] and through
//! [`ShardService::assign_learning_batch`], on identical pristine platform
//! clones. Reported per cell:
//!
//! * median wall-clock of each path (self-timed; medians are robust to the
//!   1-core container's scheduling noise),
//! * service **ns per worker-task** — one answered golden question is the
//!   unit of round work, and the quantity the trajectory gate bounds,
//! * the **overhead** multiple of the service over the in-process path
//!   (queue hand-off, executor wake-ups, and worker-order merging).
//!
//! Correctness gates before any timing: on every cell the service round must
//! reproduce the in-process [`RoundRecord`] **exactly** — the transport
//! equivalence pin, re-checked at bench scale.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench service
//! ```
//!
//! Every round fans out over 8 worker-range shards (`SHARDS`) and asks 10
//! golden questions per worker (`TASKS`). Environment knobs (all optional):
//!
//! * `C4U_SERVICE_BENCH_WORKERS` — comma-separated pool sizes (default
//!   `100000,1000000`);
//! * `C4U_SERVICE_BENCH_EXECUTORS` — comma-separated executor-pool sizes
//!   (default `1,4`);
//! * `C4U_SERVICE_BENCH_SAMPLES` — timing samples per cell (default 5; the
//!   median is reported);
//! * `C4U_SERVICE_REPORT` — trajectory-file path (default
//!   `BENCH_service.json` at the workspace root; empty disables writing);
//! * `C4U_BENCH_GATE` — set to `1` to fail (exit non-zero) when any cell
//!   regresses more than 25% in service ns per worker-task against the
//!   newest run of the committed trajectory, or when no cell matches that
//!   run. The baseline is loaded **before** this run is appended.
//!
//! Reporting and gating go through the shared [`c4u_bench::SERVICE`]
//! trajectory: cells are identified by `(workers, tasks, shards, executors)`.
//!
//! [`ShardService`]: c4u_service::ShardService
//! [`ShardService::assign_learning_batch`]: c4u_service::ShardService::assign_learning_batch
//! [`Platform::assign_learning_batch_sharded`]: c4u_crowd_sim::Platform::assign_learning_batch_sharded
//! [`RoundRecord`]: c4u_crowd_sim::RoundRecord

use c4u_bench::{ServiceCell, SERVICE};
use c4u_crowd_sim::{generate, DatasetConfig, Platform, WorkerShards};
use c4u_env::C4uEnv;
use c4u_service::{ServiceConfig, ShardService};
use c4u_stats::median;
use std::time::Instant;

/// Worker-range shards every round fans out over.
const SHARDS: usize = 8;

/// Golden questions per worker in the round.
const TASKS: usize = 10;

/// The large-pool dataset: S-1 accuracy moments, scaled pool (the
/// `platform_shards` bench's S-XL shape, pool size swept).
fn pool_config(workers: usize) -> DatasetConfig {
    let mut config = DatasetConfig::s1();
    config.name = format!("S-SVC-{workers}");
    config.pool_size = workers;
    config.select_k = 100.min(workers);
    config.working_tasks = 50;
    config
}

fn main() {
    // One typed snapshot covers every knob; misspelled C4U_* names warn here.
    let env = C4uEnv::from_env();
    let samples = env.service_bench_samples;
    let run = SERVICE.open(&env.service_report);

    println!("Async shard service vs in-process sharded round loop");
    println!(
        "({TASKS} golden questions per worker, {samples} samples per cell, medians reported)\n"
    );
    println!(
        "  {:>9} {:>6} {:>7} {:>9} {:>14} {:>14} {:>10} {:>9}",
        "workers",
        "tasks",
        "shards",
        "executors",
        "service ns",
        "in-proc ns",
        "ns/(w*t)",
        "overhead"
    );

    let mut rows = Vec::new();
    for &workers in &env.service_bench_workers {
        let dataset = generate(&pool_config(workers)).expect("valid pool dataset");
        let pristine = Platform::from_dataset(&dataset, 11).expect("platform");
        let ids = pristine.worker_ids();
        let shards = WorkerShards::by_count(ids.len(), SHARDS);

        // The in-process reference: the record every layout must reproduce,
        // and the baseline the overhead column divides by.
        let reference = pristine
            .clone()
            .assign_learning_batch_sharded(&ids, TASKS, &shards)
            .expect("reference round");
        let mut in_process_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut p = pristine.clone();
            let start = Instant::now();
            let record = p
                .assign_learning_batch_sharded(&ids, TASKS, &shards)
                .expect("in-process round");
            in_process_ns.push(start.elapsed().as_nanos() as f64);
            assert_eq!(record, reference, "in-process round drifted");
        }
        let in_process_median_ns = median(&in_process_ns).expect("at least one sample");

        for &executors in &env.service_bench_executors {
            let service = ShardService::new(ServiceConfig::default().with_executors(executors));

            // Correctness gate before any timing: the service round must be
            // bit-identical to the in-process reference on this cell.
            let mut gate_platform = pristine.clone();
            let record = service
                .assign_learning_batch(&mut gate_platform, &ids, TASKS, &shards)
                .expect("service round");
            assert_eq!(
                record, reference,
                "service round diverged from the in-process reference \
                 (workers={workers} shards={SHARDS} executors={executors})"
            );

            let mut service_ns = Vec::with_capacity(samples);
            for _ in 0..samples {
                let mut p = pristine.clone();
                let start = Instant::now();
                let record = service
                    .assign_learning_batch(&mut p, &ids, TASKS, &shards)
                    .expect("service round");
                service_ns.push(start.elapsed().as_nanos() as f64);
                assert_eq!(record, reference, "service round drifted");
            }

            let cell = ServiceCell {
                workers,
                tasks: TASKS,
                shards: SHARDS,
                executors,
                service_median_ns: median(&service_ns).expect("at least one sample"),
                in_process_median_ns,
            };
            println!(
                "  {:>9} {:>6} {:>7} {:>9} {:>14.0} {:>14.0} {:>10.2} {:>8.2}x",
                cell.workers,
                cell.tasks,
                cell.shards,
                cell.executors,
                cell.service_median_ns,
                cell.in_process_median_ns,
                cell.ns_per_worker_task(),
                cell.overhead()
            );
            rows.push(cell.row());
        }
    }

    run.finish(&rows);
}
