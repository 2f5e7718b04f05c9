//! # c4u-crowd-sim
//!
//! Crowdsourcing platform simulator for the C4U (cross-domain-aware worker selection
//! with training) workspace.
//!
//! The paper evaluates its selection algorithm on two real-world Qualtrics surveys
//! (RW-1, RW-2) and four synthetic datasets (S-1..S-4) generated from a truncated
//! multivariate normal fitted to RW-1. The real crowd workers are not available to a
//! reproduction, so this crate provides the closest synthetic equivalent of the whole
//! experimental apparatus:
//!
//! * [`DatasetConfig`] — the six dataset presets of Table II/IV plus the budget
//!   arithmetic (`n = ceil(log2(|W|/k))`, `B = n Q |W|`, batches `= 2^n - 1`);
//! * [`generate`] — the Sec. V-A worker generator (truncated MVN accuracy vectors,
//!   observed historical profiles, random cross-domain correlations);
//! * [`SimulatedWorker`] — a trainable worker whose true target-domain accuracy moves
//!   along the modified IRT curve as learning-task ground truths are revealed;
//! * [`Platform`] — batch assignment, answer recording, ground-truth reveal, budget
//!   accounting, and working-task evaluation, the interface every selection strategy
//!   drives. Answering noise comes from one deterministic RNG stream per
//!   (round, worker) event, so results never depend on processing order;
//! * [`WorkerShards`] + the sharded platform paths
//!   ([`Platform::assign_learning_batch_sharded`],
//!   [`Platform::evaluate_working_accuracy_sharded`]) — worker-range
//!   partitioning for pools of `10^4+` workers, parallel per shard on scoped
//!   threads and bit-for-bit identical for every layout;
//! * [`parallel`] — the workspace's scoped-thread work queue
//!   ([`run_indexed_jobs`]), shared by the platform shards, the selection
//!   crate's evaluation engine, and the bench harness;
//! * the [`event`](crate::RoundEvents) model — [`RoundEvents`] /
//!   [`CampaignSchedule`] describe mid-campaign worker churn as pure data;
//!   [`Platform::apply_events`] applies a round's joins and departures while
//!   preserving every survivor's answer streams, and
//!   [`ScenarioConfig`] presets (spammers, colluders,
//!   drift, churn) drive the Table-IV-style robustness sweeps;
//! * [`consistency`](crate::consistency_report) helpers — the Table IV moment and
//!   Pearson-correlation comparisons;
//! * [`to_text`] / [`from_text`] — plain-text dataset archival.
//!
//! ## Example
//!
//! ```
//! use c4u_crowd_sim::{generate, DatasetConfig, Platform};
//!
//! let dataset = generate(&DatasetConfig::rw1()).unwrap();
//! let mut platform = Platform::from_dataset(&dataset, 42).unwrap();
//! // Train every worker with one batch of 10 golden questions.
//! let ids = platform.worker_ids();
//! let record = platform.assign_learning_batch(&ids, 10).unwrap();
//! assert_eq!(record.sheets.len(), 27);
//! // Workers learn from the revealed answers, so the pool's accuracy rises.
//! assert!(platform.expected_working_accuracy(&ids).unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]

mod config;
mod consistency;
mod dataset;
mod domain;
mod error;
mod event;
mod generator;
mod io;
pub mod parallel;
mod platform;
mod shard;
mod task;
mod worker;

pub use config::{rounds_for, DatasetConfig, DomainStats, ScenarioConfig};
pub use consistency::{
    consistency_report, distribution_correlation, moments_row, target_accuracy_histogram,
    ConsistencyReport, MomentsRow, DEFAULT_BUCKETS,
};
pub use dataset::Dataset;
pub use domain::{Domain, DomainDescriptor, FeatureKind};
pub use error::SimError;
pub use event::{AppliedRoundEvents, CampaignSchedule, RoundEvents};
pub use generator::{build_population_model, generate, generate_replicas};
pub use io::{from_text, to_text};
pub use parallel::run_indexed_jobs;
pub use platform::{Platform, RoundRecord};
pub use shard::WorkerShards;
pub use task::{AnswerSheet, Task, TaskKind, TaskPool};
pub use worker::{answer_with_accuracy, HistoricalProfile, SimulatedWorker, WorkerId, WorkerSpec};
