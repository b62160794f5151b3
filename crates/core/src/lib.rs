//! # asyncinv — asynchronous-invocation performance lab
//!
//! A full reproduction, as a deterministic discrete-event simulation, of
//! *"Improving Asynchronous Invocation Performance in Client-server
//! Systems"* (Zhang, Wang, Kanemasa — ICDCS 2018).
//!
//! The paper shows that asynchronous event-driven servers can lose to
//! plain thread-per-connection servers for two non-obvious reasons — the
//! **context-switch overhead** of one-event-one-handler processing flows
//! and the **write-spin problem** of non-blocking writes against the TCP
//! send buffer — and proposes **HybridNetty**, which profiles requests at
//! runtime and routes each down its most efficient execution path. This
//! crate is the public API over the substrates that reproduce all of it:
//!
//! * [`ServerKind`] — the six server architectures of the paper.
//! * [`Experiment`]/[`ExperimentConfig`] — closed-loop micro-benchmark
//!   cells (JMeter-style, paper Sections III–V).
//! * [`rubbos`] — the 3-tier RUBBoS macro-benchmark (paper Section II).
//! * [`figures`] — one preset per table/figure of the paper, returning
//!   structured results; the `asyncinv-bench` harness binaries print them.
//! * [`prelude`] — convenient glob import for examples and tests.
//!
//! # Quickstart
//!
//! ```
//! use asyncinv::prelude::*;
//!
//! // Compare the thread-based and single-threaded async servers on 0.1 KB
//! // responses at concurrency 8 (a cell of the paper's Fig 4a).
//! let mut cfg = ExperimentConfig::micro(8, 100);
//! cfg.warmup = SimDuration::from_millis(200);
//! cfg.measure = SimDuration::from_secs(1);
//! let exp = Experiment::new(cfg);
//! let sync = exp.run(ServerKind::SyncThread);
//! let single = exp.run(ServerKind::SingleThread);
//! assert!(single.throughput > sync.throughput);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advisor;
pub mod figures;
pub mod runner;

pub use asyncinv_metrics::{
    find_knee, fmt_f64, littles_law_residual, Align, Chart, ClassSummary, CpuShare, Histogram,
    LogHistogram, RunSummary, Series, SweepPoint, Table, ThroughputWindow,
};
pub use asyncinv_fleet::Experiment;
pub use asyncinv_servers::{
    Ctx, ExperimentConfig, HybridPath, ServerKind, ServerModel, ServiceProfile, ShedConfig,
    ShedPolicy,
};
pub use asyncinv_simcore::{SimDuration, SimRng, SimTime};

/// The type of the ignored `RubbosExperiment::backend` field, kept for the
/// frozen benchmark's inputs until the next benchmark change deletes both.
#[doc(hidden)]
pub use asyncinv_servers::rubbos_engine::BackendKind;

/// Deterministic fault injection and client resilience (see
/// `docs/resilience.md`).
pub mod fault {
    pub use asyncinv_fault::{
        apply, fault_code_name, CompiledPlan, ConnSelector, FaultEvent, FaultKind, FaultOp,
        FaultOutcome, FaultPlan, TimedOp,
    };
    pub use asyncinv_servers::{ShedConfig, ShedPolicy};
    pub use asyncinv_workload::{RetryBudget, RetryPolicy};
}

/// Sharded fleets: load balancing, hedged requests, per-shard fault and
/// shed planes (see `docs/fleet.md`).
pub mod fleet {
    pub use asyncinv_fleet::{
        fleet_audit, mix64, Balancer, BalancerKind, BrownoutSpec, Cluster, ConsistentHashRing,
        FleetConfig, FleetScenario, FleetSummary, HedgeConfig, HedgeEstimator, ShardFault,
        ShardShed, ShardSummary,
    };

    use asyncinv_servers::ServerKind;

    /// The name of the retired second fleet driver, kept for the frozen
    /// benchmark's layer pass: it runs [`Cluster`]. It exists only until
    /// the next benchmark change removes its last caller.
    #[doc(hidden)]
    #[derive(Debug, Clone)]
    pub struct ParallelCluster(Cluster);

    impl ParallelCluster {
        /// [`Cluster::new`].
        pub fn new(cfg: FleetConfig) -> Self {
            ParallelCluster(Cluster::new(cfg))
        }

        /// Ignored: there is one drive loop.
        pub fn threads(self, _threads: usize) -> Self {
            self
        }

        /// [`Cluster::run`].
        pub fn run(&self, kind: ServerKind) -> FleetSummary {
            self.0.run(kind)
        }
    }
}

/// Multi-tier async RPC service graphs over calibrated fleets (see
/// `docs/dag.md`).
pub mod dag {
    pub use asyncinv_dag::{
        calibrate_tier, dag_audit, dag_span_audit, ArrivalSpec, CalSpec, DagAttempt, DagOutcome,
        DagRun, DagSpan, DagSpanStatus, DagSummary, EdgeSpec, FleetDriver, ServiceGraph, SlowTier,
        TierCounters, TierProfile, TierSpec, EDGE_ROOT, LATTICE,
    };
}

/// The RUBBoS 3-tier macro benchmark (paper Section II / Fig 1).
pub mod rubbos {
    pub use asyncinv_servers::rubbos_engine::{InteractionSummary, RubbosExperiment, RubbosSummary};
    pub use asyncinv_workload::rubbos::{
        interactions, mean_response_bytes, Interaction, Navigator, RubbosConfig,
    };
}

/// Structured tracing, metrics and exporters (see `docs/observability.md`).
pub mod obs {
    pub use asyncinv_servers::trace_codes;
    pub use asyncinv_servers::{
        audit, AuditReport, MetricsRegistry, NoopObserver, Observer, Recorder, TraceEvent,
        TraceKind,
    };
    pub use asyncinv_obs::export::{chrome_trace_json, jsonl, validate_chrome_trace};
    pub use asyncinv_obs::{critical_path, span, span_export, AuditCheck, LogHistogram, TraceRing};
    pub use asyncinv_obs::{
        phase_color, span_audit, spans_chrome_json, spans_jsonl, validate_span_trace,
        AttemptKind, AttemptOutcome, AttemptSpan, Phase, PhaseBreakdown, PhaseSegment,
        RequestSpan, SpanAssembler, SpanAuditReport, SpanForest, SpanStatus,
    };
}

/// Workload building blocks re-exported for experiment construction.
pub mod workload {
    pub use asyncinv_workload::{
        ArrivalMode, ClientConfig, ClientEvent, ClientPool, Mix, PushModel, RequestClass,
        RequestSpec, RetryBudget, RetryPolicy, RtoEstimator, SizeDrift, Station,
        StationEvent, ThinkTime, TimeoutMode, UserId, ZipfSampler,
    };
}

/// Substrate models, exposed for custom experiments and ablations.
pub mod substrate {
    pub use asyncinv_cpu::{
        Burst, BurstKind, Completion, CoreId, CpuConfig, CpuEvent, CpuModel, CpuStats, Retired,
        SchedPolicy, CpuTimeBreakdown, ThreadId,
    };
    pub use asyncinv_tcp::{
        ConnId, ConnStats, Connection, SendBufPolicy, TcpConfig, TcpEvent, TcpNotice, TcpWorld,
        WorldStats,
    };
}

/// Glob-import convenience: `use asyncinv::prelude::*;`.
pub mod prelude {
    pub use crate::figures::{self, Fidelity};
    pub use crate::runner;
    pub use crate::rubbos::{RubbosExperiment, RubbosSummary};
    pub use crate::substrate::{CpuConfig, SendBufPolicy, TcpConfig};
    pub use crate::workload::{Mix, ThinkTime};
    pub use crate::{
        Experiment, ExperimentConfig, RunSummary, ServerKind, ServiceProfile, SimDuration,
        SimTime, Table,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn public_api_round_trip() {
        let mut cfg = ExperimentConfig::micro(2, 100);
        cfg.warmup = SimDuration::from_millis(100);
        cfg.measure = SimDuration::from_millis(400);
        let s = Experiment::new(cfg).run(ServerKind::Hybrid);
        assert_eq!(s.server, "HybridNetty");
        assert!(s.completions > 0);
    }
}
