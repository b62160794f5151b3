//! # asyncinv-metrics — measurement utilities for the asyncinv experiments
//!
//! The paper (*"Improving Asynchronous Invocation Performance in
//! Client-server Systems"*, ICDCS 2018) reports throughput curves, average
//! response times, context-switch rates, CPU user/system splits and
//! per-request syscall counts, collected with JMeter, Collectl and JProfiler.
//! This crate is the in-simulation equivalent of that tool chain:
//!
//! * [`Histogram`] — log-linear latency histogram (~3% relative error) with
//!   percentile queries, a duration view over [`LogHistogram`], the one
//!   bucketing core (also the metrics registry's `u64` histogram).
//! * [`RunningQuantile`] — one quantile of a [`LogHistogram`] kept current
//!   per sample, so reading it costs O(1) however many samples exist (the
//!   fleet's and the service graph's hedge delays).
//! * [`ThroughputWindow`] — completions over a measurement window, with
//!   1-second buckets for saturation curves.
//! * [`RunSummary`] — one experiment cell: throughput, response times,
//!   context switches, write syscalls, CPU breakdown. Serializable so bench
//!   harnesses can persist results.
//! * [`Table`] — plain-text table rendering used by the `fig*`/`table*`
//!   harness binaries to print paper-style rows.
//! * [`littles_law_residual`] — sanity check N = X·R that the paper leans
//!   on when explaining its Fig 7.
//!
//! ```
//! use asyncinv_metrics::Histogram;
//! use asyncinv_simcore::SimDuration;
//!
//! let mut h = Histogram::new();
//! for ms in 1..=100 {
//!     h.record(SimDuration::from_millis(ms));
//! }
//! assert_eq!(h.count(), 100);
//! let p50 = h.quantile(0.50);
//! assert!((45..=55).contains(&p50.as_millis()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
mod histogram;
mod knee;
mod summary;
mod table;
mod throughput;

pub use chart::{Chart, Series};
pub use histogram::{Histogram, LogHistogram, RunningQuantile};
pub use knee::{find_knee, SweepPoint};
pub use summary::{littles_law_residual, ClassSummary, CpuShare, RunSummary};
pub use table::{fmt_f64, Align, Table};
pub use throughput::ThroughputWindow;
