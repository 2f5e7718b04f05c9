//! Service vs. in-process equivalence: for a fixed platform seed, the
//! asynchronous shard service must be invisible in every observable output.
//!
//! The workspace's `tests/shard_equivalence.rs` pins that the worker-range
//! *sharding layout* carries no entropy; this suite extends the same pin
//! across the *transport*: a [`ShardService`] answering rounds on an executor
//! pool behind a bounded work queue must produce
//!
//! * **bit-for-bit** identical [`RoundRecord`]s to
//!   [`Platform::assign_learning_batch_sharded`] for every executor count,
//!   queue capacity, transport (in-process, codec loopback, TCP socket), and
//!   response completion order — including adversarial schedulers that
//!   reverse or shuffle response arrival;
//! * identical working-accuracy evaluations (exact `f64` bits) and budgets.
//!
//! These are exact `==` assertions, not tolerance checks: the service is an
//! execution-placement knob, never a numerical one.

use c4u_crowd_sim::{
    generate, DatasetConfig, InProcessExecutor, Platform, RoundRecord, WorkerShards,
};
use c4u_service::{
    DeliveryOrder, LocalTransport, ServiceConfig, ShardService, TcpShardServer, WireTransport,
};
use std::sync::Arc;

/// Executor counts exercised everywhere: single-threaded, a small pool, and
/// more executors than shards.
const EXECUTOR_COUNTS: [usize; 3] = [1, 3, 16];

/// Queue capacities exercised everywhere: fully serialised (capacity 1, every
/// enqueue backpressured), small, and unbounded (0).
const QUEUE_CAPACITIES: [usize; 3] = [1, 4, 0];

fn rw1_platform(seed: u64) -> Platform {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    Platform::from_dataset(&dataset, seed).unwrap()
}

/// Three learning rounds over a shrinking worker list (mirroring
/// elimination), each fanned out over `num_shards` ranges.
fn run_rounds_through(
    service: Option<&ShardService>,
    seed: u64,
    num_shards: usize,
) -> (Vec<RoundRecord>, f64, usize) {
    let mut platform = rw1_platform(seed);
    let ids = platform.worker_ids();
    let pools: [&[usize]; 3] = [&ids, &ids[..14], &ids[..7]];
    let mut records = Vec::new();
    for pool in pools {
        let shards = WorkerShards::by_count(pool.len(), num_shards);
        let record = match service {
            Some(service) => service
                .assign_learning_batch(&mut platform, pool, 6, &shards)
                .unwrap(),
            None => platform
                .assign_learning_batch_sharded(pool, 6, &shards)
                .unwrap(),
        };
        records.push(record);
    }
    let shards = WorkerShards::by_count(ids.len(), num_shards);
    let eval = match service {
        Some(service) => service
            .evaluate_working_accuracy(&mut platform, &ids, &shards)
            .unwrap(),
        None => platform
            .evaluate_working_accuracy_sharded(&ids, &shards)
            .unwrap(),
    };
    (records, eval, platform.budget_spent())
}

#[test]
fn platform_rounds_are_identical_for_every_service_layout() {
    let reference = run_rounds_through(None, 11, 4);
    for executors in EXECUTOR_COUNTS {
        for queue in QUEUE_CAPACITIES {
            let service = ShardService::new(
                ServiceConfig::default()
                    .with_executors(executors)
                    .with_queue_capacity(queue),
            );
            let via_service = run_rounds_through(Some(&service), 11, 4);
            assert_eq!(
                via_service.0, reference.0,
                "{executors} executors, queue capacity {queue}"
            );
            // Exact float identity on the evaluation, and the same budget.
            assert_eq!(via_service.1.to_bits(), reference.1.to_bits());
            assert_eq!(via_service.2, reference.2);
        }
    }
}

#[test]
fn adversarial_completion_orders_change_nothing() {
    // Responses are buffered until the whole batch completed, then written
    // back reversed or seed-shuffled: the merge must be structurally
    // arrival-order-free, not merely lucky.
    let reference = run_rounds_through(None, 23, 16);
    let orders = [
        DeliveryOrder::Reversed,
        DeliveryOrder::Shuffled(1),
        DeliveryOrder::Shuffled(9),
        DeliveryOrder::Shuffled(0xDEAD_BEEF),
    ];
    for delivery in orders {
        for queue in [0, 1] {
            let service = ShardService::new(
                ServiceConfig::default()
                    .with_executors(3)
                    .with_queue_capacity(queue)
                    .with_delivery(delivery),
            );
            let via_service = run_rounds_through(Some(&service), 23, 16);
            assert_eq!(
                via_service.0, reference.0,
                "{delivery:?}, queue capacity {queue}"
            );
            assert_eq!(via_service.1.to_bits(), reference.1.to_bits());
        }
    }
}

#[test]
fn codec_loopback_transport_is_invisible() {
    // Every request and response of every round crosses the full binary codec
    // (encode → decode on both legs): codec identity on live round payloads.
    let reference = run_rounds_through(None, 31, 5);
    for executors in EXECUTOR_COUNTS {
        let service = ShardService::with_transport(
            ServiceConfig::default().with_executors(executors),
            Arc::new(WireTransport::new(
                LocalTransport::<InProcessExecutor>::default(),
            )),
        );
        let via_wire = run_rounds_through(Some(&service), 31, 5);
        assert_eq!(via_wire.0, reference.0, "{executors} executors");
        assert_eq!(via_wire.1.to_bits(), reference.1.to_bits());
    }
}

#[test]
fn tcp_transport_is_invisible() {
    // The process-boundary transport: every shard request travels through a
    // localhost socket to a frame-protocol server and back.
    let Ok(server) = TcpShardServer::spawn() else {
        eprintln!("skipping: cannot bind a localhost socket in this environment");
        return;
    };
    let reference = run_rounds_through(None, 43, 3);
    let service = ShardService::with_transport(
        ServiceConfig::default()
            .with_executors(3)
            .with_queue_capacity(2),
        Arc::new(server.transport()),
    );
    let via_tcp = run_rounds_through(Some(&service), 43, 3);
    assert_eq!(via_tcp.0, reference.0);
    assert_eq!(via_tcp.1.to_bits(), reference.1.to_bits());
    assert_eq!(via_tcp.2, reference.2);
}
