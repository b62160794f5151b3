//! # asyncinv-dag — multi-tier async RPC service graphs over calibrated fleets
//!
//! The paper studies asynchronous invocation inside *one* server; real
//! deployments chain many such servers into microservice DAGs, where
//! per-tier architecture choice composes. This crate lifts the whole
//! `asyncinv` stack to that setting: a [`ServiceGraph`] describes tiers
//! (each a fleet of shards running any of the eight architectures from
//! `asyncinv-servers`, driven by `asyncinv-fleet` unchanged) and edges
//! (async RPCs with one-way latency, per-edge timeouts, Finagle-style
//! retry budgets and hedging), and a root open-loop arrival process
//! drives the graph deterministically on the `asyncinv-simcore` kernel.
//!
//! ## Two-level composition, honestly
//!
//! A fleet's drive loop is a sealed deterministic machine, so N fleets
//! cannot be interleaved event-by-event inside one kernel without
//! rebuilding them. The DAG layer therefore **calibrates, then
//! composes** (the `dslab-dag` shape): each tier's fleet is actually run
//! — via [`Cluster`](asyncinv_fleet::Cluster) — to measure its
//! service-time distribution and per-request costs (write-spins, context
//! switches, kernel crossings), and the DAG simulation then models every
//! tier as a finite-slot FIFO station replaying that calibrated
//! distribution. Queueing, timeouts, retry storms and metastable collapse
//! *emerge* from the composition; per-visit service costs are the
//! measured ones.
//!
//! The composed simulation runs on a
//! [`LaneQueue`](asyncinv_simcore::LaneQueue): edge deliveries, replies
//! and edge timeouts sit at one of the graph's fixed per-edge delays and
//! go down that delay's FIFO lane, everything else goes to a heap, and
//! the pop order is the heap's exactly.
//!
//! Guarantees:
//!
//! - **Determinism** — same graph, same seed, same [`DagSummary`],
//!   bitwise, on any OS thread.
//! - **One composition path** — a 1-tier graph with no edges is
//!   calibrated and composed like any other graph, and passes both
//!   audits below on all eight architectures (property-tested). One
//!   fleet on its own runs through [`Cluster`](asyncinv_fleet::Cluster).
//! - **Audited tracing** — the DAG trace kinds (`DagDispatch`,
//!   `DagJoin`, `DagEdgeRetry`, plus the reused client/fleet kinds)
//!   reconcile bitwise against the per-tier [`TierCounters`] via
//!   [`dag_audit`], and every completed request's span decomposition
//!   telescopes bitwise to its end-to-end response time
//!   ([`dag_span_audit`]). Spans are built by observed runs only
//!   ([`DagRun::run_traced`], or [`DagRun::run_observed`] with an
//!   enabled observer); [`DagRun::run`] returns none.
//!
//! See `docs/dag.md` for the design discussion and
//! `bench/bin/dag_study` for the headline artifact: write-spin
//! amplification compounding with depth × fan-out, and a single slow
//! leaf collapsing end-to-end goodput under unbudgeted edge retries
//! while per-edge budgets + hedging contain it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibrate;
mod driver;
mod graph;
mod span;
mod summary;

pub use calibrate::{calibrate_tier, FleetDriver, TierProfile, LATTICE};
pub use driver::{DagOutcome, DagRun};
pub use graph::{ArrivalSpec, CalSpec, EdgeSpec, ServiceGraph, SlowTier, TierSpec, EDGE_ROOT};
pub use span::{dag_span_audit, DagAttempt, DagSpan, DagSpanStatus};
pub use summary::{dag_audit, DagSummary, TierCounters};
