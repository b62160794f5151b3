//! # asyncinv-servers — the server architectures and the cell they run in
//!
//! This crate is the core of the `asyncinv` reproduction of *"Improving
//! Asynchronous Invocation Performance in Client-server Systems"* (ICDCS
//! 2018). It implements, as explicit event-driven state machines over the
//! CPU-scheduler and TCP substrates, every server architecture the paper
//! measures (its Table II plus Section V):
//!
//! | [`ServerKind`] | Paper name | Flow |
//! |---|---|---|
//! | [`ServerKind::SyncThread`] | sTomcat-Sync | dedicated thread per connection, blocking I/O |
//! | [`ServerKind::AsyncPool`] | sTomcat-Async | reactor dispatches read *and* write events to workers (4 context switches/request) |
//! | [`ServerKind::AsyncPoolFix`] | sTomcat-Async-Fix | read and write handled by the same worker (2 context switches/request) |
//! | [`ServerKind::SingleThread`] | SingleT-Async | one thread: event loop + handlers, unbounded write spin |
//! | [`ServerKind::NettyLike`] | NettyServer | connection-owning workers, handler pipeline, bounded `writeSpin` (≤16) with park/resume |
//! | [`ServerKind::Hybrid`] | HybridNetty | runtime request profiling; light requests take the SingleT fast path, heavy requests the Netty bounded path |
//!
//! Two extension architectures ride along: [`ServerKind::Staged`]
//! (SEDA-style staged pipeline) and [`ServerKind::Proactor`]
//! (completion-based I/O over an io_uring-style submission/completion
//! ring — batched kernel crossings, CQE-driven writes, zero write-spin).
//!
//! An [`ExperimentConfig`] describes one cell: machine, network, client
//! pool, cost model and resilience policy. Architectures run on the
//! simulated machine through [`Ctx`], which a drive loop builds for every
//! callback. That loop lives in `asyncinv-fleet`: `Experiment` (one server)
//! is the one-shard case of its `Cluster`, and it produces a
//! [`asyncinv_metrics::RunSummary`] with the quantities the paper reports:
//! throughput, response times, context switches per second/request,
//! `socket.write()` calls per request and the CPU user/system split. The
//! RUBBoS macro engine ([`rubbos_engine`]) keeps a loop of its own.
//!
//! ```
//! use asyncinv_servers::{ExperimentConfig, ServerKind};
//!
//! let mut cfg = ExperimentConfig::micro(8, 100); // concurrency 8, 0.1 KB
//! cfg.measure = asyncinv_simcore::SimDuration::from_millis(200);
//! let server = ServerKind::SingleThread.build(&cfg);
//! assert_eq!(server.name(), "SingleT-Async");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod engine;
mod profile;
pub mod rubbos_engine;
pub mod trace_codes;

pub use arch::{ServerKind, ServerModel};
pub use engine::{
    spin_horizon, ConnInfo, Ctx, ExperimentConfig, HybridPath, Machine, ShedConfig, ShedPolicy,
};
pub use profile::ServiceProfile;

// Proactor-ring types used in `ExperimentConfig`, re-exported for the
// same reason as the fault-plane types below.
pub use asyncinv_uring::{UringConfig, UringCounters};

// Fault-plane types used in `ExperimentConfig`, re-exported so harnesses
// can build scenarios without a direct asyncinv-fault dependency.
pub use asyncinv_fault::{ConnSelector, FaultEvent, FaultKind, FaultPlan};
pub use asyncinv_workload::RetryPolicy;

// Observability types used in this crate's public API, re-exported so
// downstream harnesses don't need a direct asyncinv-obs dependency.
pub use asyncinv_obs::{
    audit, AuditReport, MetricsRegistry, NoopObserver, Observer, Recorder, TraceEvent, TraceKind,
};
