//! The serializable service-graph scenario schema.
//!
//! A [`ServiceGraph`] is the checked-in description of a multi-tier
//! deployment: tiers (fleets of one architecture), edges (async RPCs
//! with latency/timeout/retry/hedge policy), a root open-loop arrival
//! process, and an optional single-tier brownout window. Topology
//! constructors cover the canonical shapes (chain, fan-out, diamond,
//! and a DeathStarBench-like social-network graph).

use asyncinv_fleet::{BalancerKind, FleetConfig, HedgeConfig};
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Sentinel edge index for the root call (the client's call into tier
/// 0), used as the queue-item code on root-call trace events.
pub const EDGE_ROOT: u64 = u32::MAX as u64;

/// One tier: a homogeneous fleet of `shards` machines running `kind`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Tier name (report label, trace track name).
    pub name: String,
    /// Server architecture every shard of this tier runs.
    pub kind: ServerKind,
    /// Number of shards in the tier's fleet.
    pub shards: usize,
    /// Balancer in front of the tier's fleet (calibration runs route
    /// through it; at one shard it draws no randomness).
    pub balancer: BalancerKind,
    /// Response size of this tier's RPC, bytes.
    pub response_bytes: usize,
    /// Concurrent calls one shard serves at calibrated speed; the
    /// tier's station capacity is `shards * slots_per_shard`.
    pub slots_per_shard: usize,
    /// Pending-call queue capacity of the tier's station; arrivals
    /// beyond it are shed (dropped silently — callers discover the loss
    /// at their edge timeout, like a full accept queue).
    pub queue_cap: usize,
}

impl TierSpec {
    /// A tier with the defaults the studies use: 2 shards, round-robin,
    /// 4 KB responses, 8 slots per shard, a 4×-capacity queue.
    pub fn new(name: &str, kind: ServerKind) -> Self {
        TierSpec {
            name: name.to_string(),
            kind,
            shards: 2,
            balancer: BalancerKind::RoundRobin,
            response_bytes: 4 * 1024,
            slots_per_shard: 8,
            queue_cap: 64,
        }
    }

    /// Station capacity: concurrent calls served at calibrated speed.
    pub fn slots(&self) -> usize {
        self.shards * self.slots_per_shard
    }
}

/// One edge: an async RPC from tier `from` to tier `to`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Calling tier index.
    pub from: usize,
    /// Called tier index (must be greater than `from`: tiers are stored
    /// in topological order).
    pub to: usize,
    /// One-way network latency of the edge.
    pub latency: SimDuration,
    /// Per-attempt timeout measured from each (re)dispatch.
    pub timeout: SimDuration,
    /// Maximum edge retries before the caller's own call fails.
    pub max_retries: u32,
    /// Finagle-style retry-budget earn rate (tokens per first-attempt
    /// dispatch; each retry spends one). `0.0` disables the budget —
    /// the classic retry-storm ingredient.
    pub budget_ratio: f64,
    /// Optional hedge policy: after an online percentile of observed
    /// edge response times, duplicate the outstanding call and let the
    /// first reply win.
    #[serde(default)]
    pub hedge: Option<HedgeConfig>,
}

impl EdgeSpec {
    /// An edge with the defaults the studies use: 200 µs one-way,
    /// 10 ms timeout, up to 2 retries, no budget, no hedge.
    pub fn new(from: usize, to: usize) -> Self {
        EdgeSpec {
            from,
            to,
            latency: SimDuration::from_micros(200),
            timeout: SimDuration::from_millis(10),
            max_retries: 2,
            budget_ratio: 0.0,
            hedge: None,
        }
    }
}

/// The root open-loop arrival process (Poisson, exponential
/// interarrivals) and its measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Mean request arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window; arrivals stop at its end and the graph
    /// drains (completions after the window are not counted).
    pub measure: SimDuration,
}

/// Calibration knobs: how each tier's fleet is actually run to measure
/// its service-time distribution and per-request costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalSpec {
    /// Closed-loop users per shard during calibration. Kept light (the
    /// default is 1) so the measured distribution is service demand,
    /// not calibration-side queueing — queueing belongs to the DAG
    /// composition.
    pub users_per_shard: usize,
    /// Calibration warm-up.
    pub warmup: SimDuration,
    /// Calibration measurement window.
    pub measure: SimDuration,
}

impl Default for CalSpec {
    fn default() -> Self {
        CalSpec {
            users_per_shard: 1,
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_millis(400),
        }
    }
}

/// A CPU brownout on one tier: every shard of the tier runs `factor`×
/// slower over the window, modeled by swapping the tier's station onto
/// its browned-out calibrated distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowTier {
    /// Tier whose fleet browns out.
    pub tier: usize,
    /// Service-time multiplier while browned out (> 1 slows down).
    pub factor: f64,
    /// Onset, measured from run start.
    pub at: SimDuration,
    /// Brownout length.
    pub duration: SimDuration,
}

/// A serializable multi-tier service graph (see
/// `scenarios/dag_social.json`): tiers in topological order, edges
/// rooted at tier 0, the root arrival process, calibration knobs and an
/// optional single-tier brownout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceGraph {
    /// Scenario name (report label).
    pub name: String,
    /// Tiers in topological order; tier 0 is the root the client calls.
    pub tiers: Vec<TierSpec>,
    /// Edges; every `from` must be less than its `to`.
    pub edges: Vec<EdgeSpec>,
    /// Root arrival process and measurement window.
    pub arrivals: ArrivalSpec,
    /// Calibration knobs.
    #[serde(default)]
    pub cal: CalSpec,
    /// Workload seed (drives arrivals, service sampling and the tier
    /// calibration runs).
    pub seed: u64,
    /// Optional tier brownout.
    #[serde(default)]
    pub slow: Option<SlowTier>,
}

impl ServiceGraph {
    /// A graph with no tiers or edges; push tiers/edges and set
    /// arrivals before use.
    pub fn empty(name: &str, seed: u64) -> Self {
        ServiceGraph {
            name: name.to_string(),
            tiers: Vec::new(),
            edges: Vec::new(),
            arrivals: ArrivalSpec {
                rate_per_sec: 1000.0,
                warmup: SimDuration::from_millis(100),
                measure: SimDuration::from_secs(1),
            },
            cal: CalSpec::default(),
            seed,
            slow: None,
        }
    }

    /// A chain of `depth + 1` tiers (`root -> t1 -> ... -> t_depth`),
    /// homogeneous in `kind`.
    pub fn chain(name: &str, kind: ServerKind, depth: usize, seed: u64) -> Self {
        let mut g = ServiceGraph::empty(name, seed);
        for d in 0..=depth {
            g.tiers.push(TierSpec::new(&format!("t{d}"), kind));
        }
        for d in 0..depth {
            g.edges.push(EdgeSpec::new(d, d + 1));
        }
        g
    }

    /// A full `fanout`-ary tree of the given depth (every non-leaf tier
    /// calls `fanout` children), homogeneous in `kind`. Depth 0 is a
    /// single tier.
    pub fn tree(name: &str, kind: ServerKind, depth: usize, fanout: usize, seed: u64) -> Self {
        assert!(fanout >= 1, "fan-out must be at least 1");
        let mut g = ServiceGraph::empty(name, seed);
        g.tiers.push(TierSpec::new("t0", kind));
        let mut frontier = vec![0usize];
        for d in 1..=depth {
            let mut next = Vec::new();
            for &parent in &frontier {
                for k in 0..fanout {
                    let idx = g.tiers.len();
                    g.tiers.push(TierSpec::new(&format!("t{d}_{idx}_{k}"), kind));
                    g.edges.push(EdgeSpec::new(parent, idx));
                    next.push(idx);
                }
            }
            frontier = next;
        }
        g
    }

    /// The diamond: root fans out to two mid tiers that both call one
    /// shared leaf (the leaf is visited twice per request).
    pub fn diamond(name: &str, kind: ServerKind, seed: u64) -> Self {
        let mut g = ServiceGraph::empty(name, seed);
        for n in ["frontend", "left", "right", "storage"] {
            g.tiers.push(TierSpec::new(n, kind));
        }
        g.edges.push(EdgeSpec::new(0, 1));
        g.edges.push(EdgeSpec::new(0, 2));
        g.edges.push(EdgeSpec::new(1, 3));
        g.edges.push(EdgeSpec::new(2, 3));
        g
    }

    /// A DeathStarBench-like social-network shape: an nginx-style
    /// frontend fans out to compose-post, home-timeline and
    /// user-timeline; the timelines share post-storage and
    /// social-graph; compose-post also writes post-storage.
    pub fn social_network(name: &str, kind: ServerKind, seed: u64) -> Self {
        let mut g = ServiceGraph::empty(name, seed);
        for n in [
            "frontend",      // 0
            "compose-post",  // 1
            "home-timeline", // 2
            "user-timeline", // 3
            "post-storage",  // 4
            "social-graph",  // 5
        ] {
            g.tiers.push(TierSpec::new(n, kind));
        }
        for (f, t) in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)] {
            g.edges.push(EdgeSpec::new(f, t));
        }
        g
    }

    /// `true` when the graph is a single tier with no edges. The library
    /// does not read it; the benchmark's input check
    /// (`benchmark/src/inputs.rs`) does, and it goes when that caller does.
    #[doc(hidden)]
    pub fn is_trivial(&self) -> bool {
        self.tiers.len() == 1 && self.edges.is_empty()
    }

    /// Out-edges of each tier, in edge order.
    pub fn out_edges(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.tiers.len()];
        for (i, e) in self.edges.iter().enumerate() {
            out[e.from].push(i);
        }
        out
    }

    /// The fleet configuration a tier's calibration run uses. A one-tier
    /// graph is composed like any other; to run that tier's fleet on its
    /// own, hand this configuration to `Cluster`.
    pub fn tier_fleet_config(&self, tier: usize) -> FleetConfig {
        let t = &self.tiers[tier];
        let mut cell =
            ExperimentConfig::micro(self.cal.users_per_shard * t.shards, t.response_bytes);
        cell.warmup = self.cal.warmup;
        cell.measure = self.cal.measure;
        cell.clients.seed = self.seed ^ (tier as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FleetConfig::new(cell, t.shards, t.balancer)
    }

    /// Checks the graph for structural validity.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("a service graph needs at least one tier".into());
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if t.shards == 0 || t.slots_per_shard == 0 {
                return Err(format!("tier {i} ({}) has zero capacity", t.name));
            }
            if t.queue_cap == 0 {
                return Err(format!("tier {i} ({}) has a zero queue", t.name));
            }
            // Checked here rather than through every tier's derived fleet
            // config (only tier 0's is built below): a zero-byte tier
            // would validate, then panic in its calibration run.
            if t.response_bytes == 0 {
                return Err(format!("tier {i} ({}) has a zero response size", t.name));
            }
        }
        let mut called = vec![false; self.tiers.len()];
        called[0] = true;
        for (i, e) in self.edges.iter().enumerate() {
            if e.to >= self.tiers.len() || e.from >= self.tiers.len() {
                return Err(format!("edge {i} references a missing tier"));
            }
            if e.from >= e.to {
                return Err(format!(
                    "edge {i} ({} -> {}) breaks topological order (from < to)",
                    e.from, e.to
                ));
            }
            if e.timeout.is_zero() || e.latency.is_zero() {
                return Err(format!("edge {i} needs positive latency and timeout"));
            }
            if !e.budget_ratio.is_finite() || e.budget_ratio < 0.0 {
                return Err(format!("edge {i} has an invalid retry budget"));
            }
            if let Some(h) = &e.hedge {
                h.validate()?;
            }
            called[e.to] = true;
        }
        if let Some(unreached) = called.iter().position(|c| !c) {
            return Err(format!(
                "tier {unreached} ({}) is unreachable from the root",
                self.tiers[unreached].name
            ));
        }
        if !(self.arrivals.rate_per_sec.is_finite() && self.arrivals.rate_per_sec > 0.0) {
            return Err("arrival rate must be positive".into());
        }
        if self.arrivals.measure.is_zero() || self.cal.measure.is_zero() {
            return Err("measurement windows must be positive".into());
        }
        if self.cal.users_per_shard == 0 {
            return Err("calibration needs at least one user per shard".into());
        }
        if let Some(s) = &self.slow {
            if s.tier >= self.tiers.len() {
                return Err(format!("slow tier {} of {}", s.tier, self.tiers.len()));
            }
            if s.factor <= 1.0 || !s.factor.is_finite() {
                return Err("slow factor must be > 1".into());
            }
            if s.duration.is_zero() {
                return Err("slow duration must be positive".into());
            }
        }
        // Cross-validate a derived calibration config end to end.
        self.tier_fleet_config(0).validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_constructors_validate() {
        for g in [
            ServiceGraph::chain("c", ServerKind::NettyLike, 3, 7),
            ServiceGraph::tree("t", ServerKind::SingleThread, 2, 2, 7),
            ServiceGraph::diamond("d", ServerKind::Proactor, 7),
            ServiceGraph::social_network("s", ServerKind::NettyLike, 7),
        ] {
            g.validate().expect("constructor graphs validate");
        }
    }

    #[test]
    fn tree_depth_zero_is_one_valid_tier() {
        let g = ServiceGraph::tree("t", ServerKind::NettyLike, 0, 2, 1);
        assert_eq!((g.tiers.len(), g.edges.len()), (1, 0));
        g.validate().expect("a one-tier graph validates");
    }

    #[test]
    fn social_network_counts() {
        let g = ServiceGraph::social_network("s", ServerKind::NettyLike, 1);
        assert_eq!(g.tiers.len(), 6);
        assert_eq!(g.edges.len(), 8);
        // post-storage is the shared leaf: three callers.
        assert_eq!(g.edges.iter().filter(|e| e.to == 4).count(), 3);
    }

    #[test]
    fn validate_rejects_backward_edges() {
        let mut g = ServiceGraph::chain("c", ServerKind::NettyLike, 2, 7);
        g.edges[0].from = 2;
        g.edges[0].to = 1;
        assert!(g.validate().is_err());
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let g = ServiceGraph::social_network("s", ServerKind::SingleThread, 42);
        let json = serde_json::to_string_pretty(&g).expect("serialize");
        let back: ServiceGraph = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, g);
    }
}
