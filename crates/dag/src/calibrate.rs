//! Tier calibration: measure each fleet before composing it.
//!
//! The fleet drive loops are sealed deterministic machines — N of them
//! cannot be interleaved event-by-event inside one kernel without
//! rebuilding them. So the DAG layer runs each tier's fleet *for real*
//! (through the exact [`Cluster`] entry point the single-fleet studies
//! use) under light closed-loop load, and folds the measured
//! response-time distribution into a fixed-size quantile lattice the DAG
//! station replays per visit. Per-request architecture
//! costs (write-spins, context switches, `socket.write()` calls) ride
//! along, so the composed study can attribute spin work tier by tier.

use asyncinv_fault::{FaultEvent, FaultKind, FaultPlan};
use asyncinv_fleet::{Cluster, FleetSummary, ShardFault};
use asyncinv_obs::{Observer, TraceEvent, TraceKind};
use asyncinv_simcore::{SimDuration, SimTime};

use crate::graph::ServiceGraph;

/// Quantile-lattice resolution: each tier's calibrated service-time
/// distribution is stored as this many evenly spaced quantiles, and the
/// DAG station draws uniformly among them per visit.
pub const LATTICE: usize = 64;

/// The fleet drive loop that calibrates each tier. There is one,
/// [`Cluster`]; [`calibrate_tier`] and
/// [`DagRun::new`](crate::DagRun::new) accept this name and ignore it.
/// It exists only until the next benchmark change removes its callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetDriver {
    /// The interleaved drive loop ([`Cluster`]).
    Interleaved,
}

/// One tier's calibrated behavior: its measured service-time quantile
/// lattice (healthy and, when the scenario browns this tier out, slowed)
/// plus per-request architecture costs from the fleet's own summary.
#[derive(Debug, Clone)]
pub struct TierProfile {
    /// Tier index in the graph.
    pub tier: usize,
    /// Fleet summary of the calibration run (per-shard counters intact).
    pub summary: FleetSummary,
    /// `LATTICE` evenly spaced response-time quantiles, nanoseconds.
    pub lattice: Vec<u64>,
    /// The lattice of the browned-out rerun (every shard slowed by the
    /// scenario's factor); `None` when the scenario does not slow this
    /// tier.
    pub slow_lattice: Option<Vec<u64>>,
    /// Zero-return `socket.write()` spins per completed request.
    pub spins_per_req: f64,
    /// Context switches per completed request.
    pub cs_per_req: f64,
    /// `socket.write()` calls per completed request.
    pub writes_per_req: f64,
}

impl TierProfile {
    /// Mean of the healthy lattice, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.lattice.iter().sum::<u64>() / self.lattice.len() as u64
    }
}

/// Collects `Completion` response times inside the measurement window —
/// exact, unlike fishing them out of a capacity-bounded trace ring.
#[derive(Debug, Default)]
struct CalObserver {
    window: Option<(SimTime, SimTime)>,
    rts: Vec<u64>,
}

impl Observer for CalObserver {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        if ev.kind == TraceKind::Completion {
            let (start, end) = self.window.expect("window announced before events");
            if ev.time >= start && ev.time < end {
                self.rts.push(ev.arg);
            }
        }
    }

    fn run_window(&mut self, start: SimTime, end: SimTime) {
        self.window = Some((start, end));
    }
}

/// Folds sorted response-time samples into `LATTICE` evenly spaced
/// quantiles (midpoint rule, deterministic).
fn fold_lattice(mut rts: Vec<u64>) -> Vec<u64> {
    assert!(
        !rts.is_empty(),
        "calibration produced no completions; widen CalSpec.measure"
    );
    rts.sort_unstable();
    let n = rts.len();
    (0..LATTICE)
        .map(|i| {
            let idx = ((i as f64 + 0.5) / LATTICE as f64 * n as f64) as usize;
            rts[idx.min(n - 1)]
        })
        .collect()
}

fn run_calibration(
    graph: &ServiceGraph,
    tier: usize,
    slow_factor: Option<f64>,
) -> (FleetSummary, Vec<u64>) {
    let mut cfg = graph.tier_fleet_config(tier);
    if let Some(factor) = slow_factor {
        // Brown out every shard for the whole calibration run: the
        // browned-out tier's lattice is its steady slowed distribution.
        cfg.shard_faults = (0..cfg.shards)
            .map(|shard| ShardFault {
                shard,
                plan: FaultPlan {
                    seed: graph.seed,
                    events: vec![FaultEvent {
                        at: SimDuration::ZERO,
                        fault: FaultKind::Slowdown {
                            factor,
                            duration: None,
                        },
                    }],
                },
            })
            .collect();
    }
    let kind = graph.tiers[tier].kind;
    let mut obs = CalObserver::default();
    let summary = Cluster::new(cfg).run_observed(kind, &mut obs);
    (summary, fold_lattice(obs.rts))
}

/// Calibrates one tier: runs its fleet (and, when the scenario browns
/// this tier out, a slowed rerun on the identical workload) and returns
/// its [`TierProfile`].
pub fn calibrate_tier(graph: &ServiceGraph, tier: usize, _driver: FleetDriver) -> TierProfile {
    let (summary, lattice) = run_calibration(graph, tier, None);
    let slow_lattice = graph
        .slow
        .filter(|s| s.tier == tier)
        .map(|s| run_calibration(graph, tier, Some(s.factor)).1);
    TierProfile {
        tier,
        spins_per_req: summary.fleet.spins_per_req,
        cs_per_req: summary.fleet.cs_per_req,
        writes_per_req: summary.fleet.writes_per_req,
        summary,
        lattice,
        slow_lattice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncinv_servers::ServerKind;

    #[test]
    fn lattice_fold_is_monotone_and_sized() {
        let lat = fold_lattice((1..=1000).rev().collect());
        assert_eq!(lat.len(), LATTICE);
        assert!(lat.windows(2).all(|w| w[0] <= w[1]));
        assert!(lat[0] >= 1 && lat[LATTICE - 1] <= 1000);
    }

    #[test]
    fn calibration_is_deterministic() {
        let g = ServiceGraph::chain("cal", ServerKind::NettyLike, 1, 11);
        let a = calibrate_tier(&g, 0, FleetDriver::Interleaved);
        let b = calibrate_tier(&g, 0, FleetDriver::Interleaved);
        assert_eq!(a.lattice, b.lattice);
        assert!(a.mean_ns() > 0);
        assert!(a.slow_lattice.is_none());
    }

    #[test]
    fn slow_lattice_is_slower() {
        let mut g = ServiceGraph::chain("cal", ServerKind::NettyLike, 1, 11);
        g.slow = Some(crate::graph::SlowTier {
            tier: 1,
            factor: 8.0,
            at: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(100),
        });
        let p = calibrate_tier(&g, 1, FleetDriver::Interleaved);
        let slow = p.slow_lattice.as_ref().expect("tier 1 is browned out");
        let slow_mean = slow.iter().sum::<u64>() / LATTICE as u64;
        assert!(
            slow_mean > 2 * p.mean_ns(),
            "an 8x CPU brownout must visibly slow the lattice ({slow_mean} vs {})",
            p.mean_ns()
        );
        // Tier 0 is not slowed.
        assert!(calibrate_tier(&g, 0, FleetDriver::Interleaved)
            .slow_lattice
            .is_none());
    }
}
