//! # asyncinv-fleet — the drive loop: one server, sharded clusters, load balancing and hedged requests
//!
//! The paper studies one server under test; real deployments of the
//! studied architectures run as *fleets* of shards behind a balancer. This
//! crate holds the simulator's one drive loop and runs both: a [`Cluster`]
//! instantiates N independent server-under-test shards (each shard a full
//! simulated machine running any architecture from `asyncinv-servers`,
//! unchanged) behind a pluggable [`Balancer`], with optional hedged
//! requests and per-shard fault and shed planes, and an [`Experiment`] is
//! the same loop with one shard.
//!
//! Guarantees:
//!
//! - **Determinism** — same config, same seed, same [`FleetSummary`],
//!   bitwise, on any OS thread and any queue backend.
//! - **1-shard transparency** — a fleet of one shard *is* an
//!   [`Experiment`] under every balancer: balancers draw no randomness at
//!   one shard and fleet-only trace kinds and counters are not emitted.
//!   `tests/engine_fixture.rs` pins its output to digests recorded from
//!   the single-server engine this loop replaced.
//! - **Exact write-spin retirement** — the interleaved loop hands every
//!   burst completion the global queue head as its spin horizon, so
//!   unbounded spinners retire zero-return writes inline on fleets of any
//!   size ([`asyncinv_servers::Ctx::spin_write`]); results are
//!   bit-identical to spinning through the queue.
//! - **Audited tracing** — the fleet trace kinds (`ShardRoute`, `Hedge`,
//!   `HedgeCancel`, `ShardRetry`) reconcile bitwise against the
//!   [`RunSummary`](asyncinv_metrics::RunSummary) counters via
//!   [`fleet_audit`], which also checks per-shard conservation (each
//!   fleet counter equals the sum of its per-shard parts).
//!
//! See `docs/fleet.md` for the design discussion and
//! `examples/fleet_brownout.rs` for the headline scenario: a retry budget
//! plus hedging contains a single-shard brownout, while unbudgeted
//! cross-shard retries propagate it fleet-wide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balancer;
mod cluster;
mod experiment;
mod hedge;
mod parallel;
mod scenario;
mod schedule;

pub use balancer::{mix64, Balancer, BalancerKind, ConsistentHashRing};
pub use cluster::{
    fleet_audit, Cluster, FleetConfig, FleetSummary, ShardFault, ShardShed, ShardSummary,
};
pub use experiment::Experiment;
pub use hedge::{HedgeConfig, HedgeEstimator};
pub use parallel::{ParallelCluster, ParallelHealth, WorkerHealth};
pub use scenario::{BrownoutSpec, FleetScenario};
pub use schedule::{SchedulePlan, ScheduleTrace, VirtualSched};
