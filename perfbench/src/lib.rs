//! End-to-end and per-layer benchmark of one C4U selection run.
//!
//! The binary (`src/main.rs`) runs a named workload for a fixed time and
//! prints one JSON line of metrics; this library holds the pieces its tests
//! share: the seeded workloads ([`workload`]), the traced replay of the round
//! loop ([`trace`]), and the correctness checks and work counts ([`check`]).
//! Every layer is timed from outside, around the benchmark's own calls into
//! the workspace crates' public functions; [`clock`] holds the only
//! wall-clock reads.

#![forbid(unsafe_code)]

pub mod check;
pub mod clock;
pub mod trace;
pub mod workload;
