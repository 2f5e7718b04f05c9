//! # c4u-service
//!
//! Asynchronous shard service over the C4U platform seam — the crate that
//! turns the PR-4 worker-range shard boundary into a real transport boundary.
//!
//! A [`ShardService`] serves Algorithm-4 round loops: the coordinator asks
//! the `Platform` to *plan* a round into pure, self-contained per-shard
//! requests, enqueues them on a bounded [`WorkQueue`] with backpressure, and
//! a pool of executor threads answers them through a [`ShardTransport`] —
//! in-process ([`LocalTransport`]), through the length-prefixed versioned
//! binary [`codec`] ([`WireTransport`]), or across a localhost socket
//! ([`TcpTransport`] / [`TcpShardServer`]). Responses are merged back by
//! shard slot and committed to the platform.
//!
//! The contract, pinned by this crate's `service_equivalence` test suite:
//! every executor count, queue capacity, transport, completion order,
//! and injected delay produces rounds **bit-for-bit identical** to
//! [`Platform::assign_learning_batch_sharded`](c4u_crowd_sim::Platform::assign_learning_batch_sharded)
//! and
//! [`Platform::evaluate_working_accuracy_sharded`](c4u_crowd_sim::Platform::evaluate_working_accuracy_sharded).
//! The fault model ("typed error, never a wrong answer") is pinned by this
//! crate's `fault_injection` test suite: executor panics requeue the batch,
//! poisoned frames surface as [`CodecError`] values, and queue-full timeouts
//! surface as [`ServiceError::QueueFull`].
//!
//! ## Example
//!
//! ```
//! use c4u_crowd_sim::{generate, DatasetConfig, Platform, WorkerShards};
//! use c4u_service::{ServiceConfig, ShardService};
//!
//! let dataset = generate(&DatasetConfig::rw1()).unwrap();
//! let service = ShardService::new(ServiceConfig::default().with_executors(3));
//!
//! // The same round, in-process and through the service:
//! let mut a = Platform::from_dataset(&dataset, 42).unwrap();
//! let mut b = Platform::from_dataset(&dataset, 42).unwrap();
//! let ids = a.worker_ids();
//! let shards = WorkerShards::by_count(ids.len(), 4);
//! let in_process = a.assign_learning_batch_sharded(&ids, 10, &shards).unwrap();
//! let via_service = service.assign_learning_batch(&mut b, &ids, 10, &shards).unwrap();
//! assert_eq!(in_process, via_service); // bit-for-bit
//! ```

#![forbid(unsafe_code)]

pub mod codec;
mod coordinator;
mod error;
mod pool;
mod queue;
mod transport;

pub use codec::{
    decode_frame, encode_frame, header_payload_len, CodecError, Frame, HEADER_LEN, MAGIC, VERSION,
};
pub use coordinator::{ServiceConfig, ShardService};
pub use error::ServiceError;
pub use pool::DeliveryOrder;
pub use queue::WorkQueue;
pub use transport::{
    LocalTransport, ShardRequest, ShardResponse, ShardTransport, TcpShardServer, TcpTransport,
    WireTransport,
};
