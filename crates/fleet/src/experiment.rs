//! One experiment cell: a single server under a closed- or open-loop
//! client pool, run as the one-shard case of the fleet drive loop.

use asyncinv_metrics::RunSummary;
use asyncinv_obs::{NoopObserver, Observer, Recorder};
use asyncinv_servers::{ExperimentConfig, ServerKind, ServerModel};

use crate::balancer::BalancerKind;
use crate::cluster::{drive, FleetConfig, ShardFault};

/// Runs one experiment cell.
///
/// The drive loop is [`Cluster`](crate::Cluster)'s with one shard: the
/// cell's fault plan becomes shard 0's, and at one shard the loop routes
/// without randomness and emits no fleet-only events or counters.
///
/// ```
/// use asyncinv_fleet::Experiment;
/// use asyncinv_servers::{ExperimentConfig, ServerKind};
///
/// let mut cfg = ExperimentConfig::micro(8, 100); // concurrency 8, 0.1 KB
/// cfg.measure = asyncinv_simcore::SimDuration::from_millis(200);
/// let summary = Experiment::new(cfg).run(ServerKind::SingleThread);
/// assert!(summary.throughput > 0.0);
/// assert_eq!(summary.server, "SingleT-Async");
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: ExperimentConfig,
    fleet: FleetConfig,
    fast_forward: bool,
}

impl Experiment {
    /// Creates an experiment from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`ExperimentConfig::validate`] rejects the configuration
    /// (machine, network, clients, mix, retry policy, fault plan, shed
    /// limits, ring geometry, thread counts, write-spin limit, or the
    /// measurement window).
    pub fn new(cfg: ExperimentConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ExperimentConfig: {e}");
        }
        let mut cell = cfg.clone();
        let shard_faults = cell.faults.take().map(|plan| ShardFault { shard: 0, plan });
        let fleet = FleetConfig {
            shard_faults: shard_faults.into_iter().collect(),
            ..FleetConfig::new(cell, 1, BalancerKind::RoundRobin)
        };
        Experiment {
            cfg,
            fleet,
            fast_forward: true,
        }
    }

    /// Whether write-spin iterations are retired inline
    /// ([`Ctx::spin_write`](asyncinv_servers::Ctx::spin_write); on by
    /// default). Results are identical either way; off runs every
    /// iteration through the event queue, for equivalence checks and
    /// before/after timing.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// The configuration, as given.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Runs the given architecture and returns its summary.
    pub fn run(&self, kind: ServerKind) -> RunSummary {
        self.run_detailed(kind).0
    }

    /// Runs and additionally returns the architecture's internal debug
    /// counters (e.g. hybrid reclassifications).
    pub fn run_detailed(&self, kind: ServerKind) -> (RunSummary, Vec<(&'static str, u64)>) {
        let mut server = kind.build(&self.cfg);
        let summary = self.drive(server.as_mut(), &mut NoopObserver);
        (summary, server.debug_counters())
    }

    /// Runs with structured tracing and returns the [`Recorder`] holding the
    /// retained trace ring, per-kind counts and the metrics registry. Set
    /// [`ExperimentConfig::trace_capacity`] > 0 or the ring retains nothing
    /// (counts stay exact regardless).
    pub fn run_traced(&self, kind: ServerKind) -> (RunSummary, Recorder) {
        let mut rec = Recorder::with_sampling(self.cfg.trace_capacity, self.cfg.trace_sample);
        let summary = self.run_observed(kind, &mut rec);
        (summary, rec)
    }

    /// Runs the given architecture reporting into a caller-supplied
    /// [`Observer`].
    pub fn run_observed(&self, kind: ServerKind, obs: &mut dyn Observer) -> RunSummary {
        let mut server = kind.build(&self.cfg);
        self.drive(server.as_mut(), obs)
    }

    /// Runs a caller-supplied custom architecture.
    pub fn run_model(&self, server: &mut dyn ServerModel) -> RunSummary {
        self.drive(server, &mut NoopObserver)
    }

    /// Hosts `server` as the only shard of the drive loop.
    fn drive(&self, server: &mut dyn ServerModel, obs: &mut dyn Observer) -> RunSummary {
        drive(&self.fleet, vec![server], obs, self.fast_forward).fleet
    }
}
