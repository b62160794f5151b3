//! # asyncinv-benchmark
//!
//! The repository benchmark: five simulator workloads timed end to end in
//! host time, plus a serial layer pass that times calls into each layer's
//! public functions from outside the simulator. See `README.md` beside
//! this crate for the workloads, the metrics and how to run them.

#![forbid(unsafe_code)]
// Host wall-clock time is this crate's measurement, never an input to
// simulated time.
#![allow(clippy::disallowed_methods)]

pub mod golden;
pub mod inputs;
pub mod layer;
pub mod report;
pub mod run;
pub mod speed;
pub mod stats;
pub mod timed;
pub mod workload;
