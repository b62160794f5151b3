//! The pinned workload inputs under `benchmark/inputs/`.
//!
//! Every workload is built from these JSON files, never from program
//! defaults or `scenarios/`, so a change to either cannot silently change
//! what the benchmark measures. `--write-inputs` regenerates the files from
//! [`Inputs::defaults`]; do that only in a change that redefines the
//! benchmark.

use std::path::{Path, PathBuf};

use asyncinv::dag::{ServiceGraph, SlowTier};
use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::fleet::{
    BalancerKind, BrownoutSpec, FleetConfig, FleetScenario, HedgeConfig, ShardFault, ShardShed,
};
use asyncinv::rubbos::{RubbosConfig, RubbosExperiment};
use asyncinv::substrate::{CpuConfig, TcpConfig};
use asyncinv::workload::RetryPolicy;
use asyncinv::{BackendKind, ExperimentConfig, ServerKind, ServiceProfile, SimDuration};
use serde::{Deserialize, Serialize};

/// A closed-loop micro-benchmark grid: every architecture × concurrency ×
/// one-way latency, `seeds_per_group` seeds each.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroInput {
    /// The cell every grid point starts from (response size, windows,
    /// machine, network).
    pub base: ExperimentConfig,
    /// Architectures, one group each.
    pub kinds: Vec<ServerKind>,
    /// Closed-loop user counts.
    pub concurrency: Vec<usize>,
    /// Added one-way network latencies.
    pub one_way_latency: Vec<SimDuration>,
    /// Seeds per configuration.
    pub seeds_per_group: usize,
}

/// One resilience policy of the brownout fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetPolicy {
    /// Retry-budget ratio (0 disables the budget).
    pub budget_ratio: f64,
    /// Whether the scenario's hedge policy is on.
    pub hedging: bool,
}

/// The sharded brownout fleet: balancer × resilience policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrownoutInput {
    /// The fleet topology, workload and brownout.
    pub scenario: FleetScenario,
    /// Architecture of every shard.
    pub kind: ServerKind,
    /// Routing policies, one group each.
    pub balancers: Vec<BalancerKind>,
    /// Resilience policies, one group each.
    pub policies: Vec<FleetPolicy>,
    /// Seeds per configuration.
    pub seeds_per_group: usize,
}

/// The stressed span fleet: architecture × balancer, traced and audited.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpansInput {
    /// The fleet (its balancer is replaced per group).
    pub fleet: FleetConfig,
    /// Architectures, one group each.
    pub kinds: Vec<ServerKind>,
    /// Routing policies, one group each.
    pub balancers: Vec<BalancerKind>,
    /// Seeds per configuration.
    pub seeds_per_group: usize,
}

/// The parameters of a [`RubbosExperiment`] (which is not serializable
/// itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RubbosParams {
    /// Workload model; `users` and `seed` are replaced per cell.
    pub workload: RubbosConfig,
    /// Tomcat machine.
    pub cpu: CpuConfig,
    /// Tomcat network.
    pub tcp: TcpConfig,
    /// Tomcat request cost model.
    pub profile: ServiceProfile,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Async Tomcat worker pool.
    pub pool_workers: usize,
    /// Event-queue backend.
    pub backend: BackendKind,
}

impl RubbosParams {
    /// The experiment for one cell.
    pub fn experiment(&self, users: usize, seed: u64) -> RubbosExperiment {
        let mut exp = RubbosExperiment::new(users);
        exp.workload = RubbosConfig {
            users,
            seed,
            ..self.workload.clone()
        };
        exp.cpu = self.cpu.clone();
        exp.tcp = self.tcp.clone();
        exp.profile = self.profile.clone();
        exp.warmup = self.warmup;
        exp.measure = self.measure;
        exp.pool_workers = self.pool_workers;
        exp.backend = self.backend;
        exp
    }
}

/// How a DAG cell sets the graph's edge policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagPolicy {
    /// The graph as pinned: per-edge retry budgets and hedges.
    Guarded,
    /// Budgets zeroed and hedges stripped: the cross-tier retry storm.
    Storm,
}

impl DagPolicy {
    /// The graph with this policy applied.
    pub fn apply(self, graph: &ServiceGraph) -> ServiceGraph {
        let mut g = graph.clone();
        if self == DagPolicy::Storm {
            for e in &mut g.edges {
                e.budget_ratio = 0.0;
                e.hedge = None;
            }
        }
        g
    }
}

/// The two multi-tier engines: RUBBoS and the composed service graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiTierInput {
    /// RUBBoS parameters shared by every RUBBoS cell.
    pub rubbos: RubbosParams,
    /// Tomcat architectures, one group each.
    pub rubbos_kinds: Vec<ServerKind>,
    /// Emulated user counts, one group each.
    pub rubbos_users: Vec<usize>,
    /// Seeds per RUBBoS configuration.
    pub rubbos_seeds_per_group: usize,
    /// The service graph (guarded policy).
    pub dag: ServiceGraph,
    /// Edge policies, one group each.
    pub dag_policies: Vec<DagPolicy>,
    /// Seeds per DAG configuration.
    pub dag_seeds_per_group: usize,
}

/// All pinned inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `micro_small`.
    pub micro_small: MicroInput,
    /// `micro_large_wan`.
    pub micro_large_wan: MicroInput,
    /// `fleet_brownout`.
    pub fleet_brownout: BrownoutInput,
    /// `fleet_spans`.
    pub fleet_spans: SpansInput,
    /// `multi_tier`.
    pub multi_tier: MultiTierInput,
}

/// The directory holding the pinned inputs.
pub fn inputs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("inputs")
}

fn load_json<T: Deserialize>(dir: &Path, name: &str) -> Result<T, String> {
    let path = dir.join(format!("{name}.json"));
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

fn nonempty<T>(what: &str, v: &[T]) -> Result<(), String> {
    if v.is_empty() {
        Err(format!("{what} is empty"))
    } else {
        Ok(())
    }
}

fn positive(what: &str, n: usize) -> Result<(), String> {
    if n == 0 {
        Err(format!("{what} must be positive"))
    } else {
        Ok(())
    }
}

impl MicroInput {
    fn validate(&self) -> Result<(), String> {
        nonempty("kinds", &self.kinds)?;
        nonempty("concurrency", &self.concurrency)?;
        nonempty("one_way_latency", &self.one_way_latency)?;
        nonempty("base.clients.mix", self.base.clients.mix.classes())?;
        positive("seeds_per_group", self.seeds_per_group)?;
        if self.concurrency.contains(&0) {
            return Err("concurrency must be positive".into());
        }
        // The fleet validator covers every engine precondition of a bare
        // cell (TCP, retry and shed limits, the window, no fault plan).
        FleetConfig::new(self.base.clone(), 1, BalancerKind::RoundRobin).validate()
    }
}

impl BrownoutInput {
    fn validate(&self) -> Result<(), String> {
        nonempty("balancers", &self.balancers)?;
        nonempty("policies", &self.policies)?;
        positive("seeds_per_group", self.seeds_per_group)?;
        self.scenario.validate()?;
        for p in &self.policies {
            if !p.budget_ratio.is_finite() || p.budget_ratio < 0.0 {
                return Err(format!("invalid budget ratio {}", p.budget_ratio));
            }
            self.scenario
                .fleet_config(p.budget_ratio, p.hedging)
                .validate()?;
        }
        Ok(())
    }
}

impl SpansInput {
    fn validate(&self) -> Result<(), String> {
        nonempty("kinds", &self.kinds)?;
        nonempty("balancers", &self.balancers)?;
        positive("seeds_per_group", self.seeds_per_group)?;
        nonempty(
            "fleet.cell.clients.mix",
            self.fleet.cell.clients.mix.classes(),
        )?;
        if self.fleet.cell.trace_capacity == 0 {
            return Err("span assembly needs a trace ring (trace_capacity > 0)".into());
        }
        self.fleet.validate()
    }
}

impl MultiTierInput {
    fn validate(&self) -> Result<(), String> {
        nonempty("rubbos_kinds", &self.rubbos_kinds)?;
        nonempty("rubbos_users", &self.rubbos_users)?;
        nonempty("dag_policies", &self.dag_policies)?;
        positive("rubbos_seeds_per_group", self.rubbos_seeds_per_group)?;
        positive("dag_seeds_per_group", self.dag_seeds_per_group)?;
        if let Some(k) = self
            .rubbos_kinds
            .iter()
            .find(|k| !matches!(k, ServerKind::SyncThread | ServerKind::AsyncPool))
        {
            return Err(format!(
                "RUBBoS compares SyncThread and AsyncPool, not {k:?}"
            ));
        }
        if self.rubbos_users.contains(&0) {
            return Err("rubbos_users must be positive".into());
        }
        let r = &self.rubbos;
        if r.measure.is_zero() || r.cpu.cores == 0 || r.workload.db_servers == 0 {
            return Err("RUBBoS needs a positive window, cores and DB servers".into());
        }
        r.tcp.validate()?;
        self.dag.validate()?;
        if self.dag.is_trivial() {
            return Err("the DAG input must compose more than one tier".into());
        }
        Ok(())
    }
}

impl Inputs {
    /// Loads and validates every input file from `dir`.
    pub fn load(dir: &Path) -> Result<Inputs, String> {
        let inputs = Inputs {
            micro_small: load_json(dir, "micro_small")?,
            micro_large_wan: load_json(dir, "micro_large_wan")?,
            fleet_brownout: load_json(dir, "fleet_brownout")?,
            fleet_spans: load_json(dir, "fleet_spans")?,
            multi_tier: load_json(dir, "multi_tier")?,
        };
        inputs.validate()?;
        Ok(inputs)
    }

    /// Checks every input; the error names the file.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("micro_small", self.micro_small.validate()),
            ("micro_large_wan", self.micro_large_wan.validate()),
            ("fleet_brownout", self.fleet_brownout.validate()),
            ("fleet_spans", self.fleet_spans.validate()),
            ("multi_tier", self.multi_tier.validate()),
        ];
        for (name, check) in checks {
            check.map_err(|e| format!("inputs/{name}.json: {e}"))?;
        }
        Ok(())
    }

    /// Writes every input file into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let files = [
            (
                "micro_small",
                serde_json::to_string_pretty(&self.micro_small),
            ),
            (
                "micro_large_wan",
                serde_json::to_string_pretty(&self.micro_large_wan),
            ),
            (
                "fleet_brownout",
                serde_json::to_string_pretty(&self.fleet_brownout),
            ),
            (
                "fleet_spans",
                serde_json::to_string_pretty(&self.fleet_spans),
            ),
            ("multi_tier", serde_json::to_string_pretty(&self.multi_tier)),
        ];
        for (name, body) in files {
            let body = body.map_err(|e| format!("serialize {name}: {e}"))?;
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, body + "\n")
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// The inputs as the program's constructors and the benchmark's
    /// choices define them today: the source `--write-inputs` pins.
    pub fn defaults() -> Inputs {
        Inputs {
            micro_small: MicroInput {
                base: micro_base(100, SimDuration::from_secs(5)),
                kinds: ServerKind::ALL.to_vec(),
                concurrency: vec![1, 8, 64, 400],
                one_way_latency: vec![SimDuration::ZERO],
                seeds_per_group: 2,
            },
            micro_large_wan: MicroInput {
                base: micro_base(100 * 1024, SimDuration::from_secs(10)),
                kinds: ServerKind::ALL.to_vec(),
                concurrency: vec![16, 100],
                one_way_latency: vec![SimDuration::ZERO, SimDuration::from_millis(5)],
                seeds_per_group: 2,
            },
            fleet_brownout: BrownoutInput {
                scenario: brownout_scenario(),
                kind: ServerKind::NettyLike,
                // Consistent hashing is left out: with one request class it
                // routes everything to one shard, which then completes
                // nothing under the brownout.
                balancers: vec![
                    BalancerKind::RoundRobin,
                    BalancerKind::LeastOutstanding,
                    BalancerKind::PowerOfTwoChoices { seed: 0x5eed },
                ],
                policies: vec![
                    FleetPolicy {
                        budget_ratio: 0.0,
                        hedging: false,
                    },
                    FleetPolicy {
                        budget_ratio: 0.1,
                        hedging: true,
                    },
                ],
                seeds_per_group: 10,
            },
            fleet_spans: SpansInput {
                fleet: stressed_span_fleet(),
                kinds: ServerKind::ALL.to_vec(),
                balancers: BalancerKind::ALL.to_vec(),
                seeds_per_group: 3,
            },
            multi_tier: MultiTierInput {
                rubbos: rubbos_params(),
                rubbos_kinds: vec![ServerKind::SyncThread, ServerKind::AsyncPool],
                rubbos_users: (100..=1500).step_by(200).collect(),
                rubbos_seeds_per_group: 2,
                dag: dag_social(),
                dag_policies: vec![DagPolicy::Guarded, DagPolicy::Storm],
                dag_seeds_per_group: 16,
            },
        }
    }
}

fn micro_base(bytes: usize, measure: SimDuration) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(1, bytes);
    cfg.warmup = SimDuration::from_millis(500);
    cfg.measure = measure;
    cfg
}

/// `scenarios/shard_brownout.json` scaled from 4 to 8 shards at the same
/// 48 users per shard.
fn brownout_scenario() -> FleetScenario {
    FleetScenario {
        name: "shard-brownout-8x48".into(),
        shards: 8,
        concurrency: 8 * 48,
        response_bytes: 10 * 1024,
        seed: 42,
        think: SimDuration::from_millis(8),
        balancer: BalancerKind::RoundRobin,
        hedge: Some(HedgeConfig {
            percentile: 0.9,
            initial_delay: SimDuration::from_millis(5),
            min_samples: 64,
            per_shard: false,
        }),
        timeout: SimDuration::from_millis(25),
        max_retries: 5,
        warmup: SimDuration::from_millis(200),
        measure: SimDuration::from_secs(1),
        brownout: BrownoutSpec {
            shard: 0,
            at: SimDuration::from_millis(300),
            factor: 50.0,
            duration: SimDuration::from_millis(800),
        },
    }
}

/// The stressed 3-shard span fleet of the `latency_breakdown` and
/// `span_audit` artifacts at full fidelity: hedges, a tight 5 ms retry
/// timeout, a ×16 slowdown on shard 1 and a shedding shard 2.
fn stressed_span_fleet() -> FleetConfig {
    let mut cell = ExperimentConfig::micro(8, 10 * 1024);
    cell.warmup = SimDuration::from_millis(100);
    cell.measure = SimDuration::from_millis(1500);
    // Span audits need every event retained.
    cell.trace_capacity = 1 << 21;
    cell.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(5)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    let mut cfg = FleetConfig::new(cell, 3, BalancerKind::RoundRobin);
    cfg.hedge = Some(HedgeConfig {
        min_samples: 16,
        ..HedgeConfig::default()
    });
    cfg.shard_faults = vec![ShardFault {
        shard: 1,
        plan: FaultPlan {
            seed: 5,
            events: vec![FaultEvent {
                at: SimDuration::from_millis(200),
                fault: FaultKind::Slowdown {
                    factor: 16.0,
                    duration: Some(SimDuration::from_millis(150)),
                },
            }],
        },
    }];
    cfg.shard_shed = vec![ShardShed {
        shard: 2,
        shed: ShedConfig {
            max_concurrent: 1,
            queue_cap: 1,
            policy: ShedPolicy::DropOldest,
            reject_bytes: 256,
        },
    }];
    cfg
}

fn rubbos_params() -> RubbosParams {
    let exp = RubbosExperiment::new(1);
    RubbosParams {
        workload: exp.workload,
        cpu: exp.cpu,
        tcp: exp.tcp,
        profile: exp.profile,
        warmup: exp.warmup,
        measure: exp.measure,
        pool_workers: exp.pool_workers,
        backend: exp.backend,
    }
}

/// The `dag_study` social-network scenario (`scenarios/dag_social.json`)
/// with a 1 s measurement window.
fn dag_social() -> ServiceGraph {
    let mut g = ServiceGraph::social_network("dag-social", ServerKind::NettyLike, 42);
    g.tiers[1].kind = ServerKind::AsyncPool;
    g.tiers[4].kind = ServerKind::SingleThread;
    g.tiers[5].kind = ServerKind::Proactor;
    g.tiers[4].queue_cap = 512;
    g.arrivals.rate_per_sec = 8000.0;
    g.arrivals.warmup = SimDuration::from_millis(100);
    g.arrivals.measure = SimDuration::from_secs(1);
    for e in &mut g.edges {
        e.max_retries = 3;
        e.budget_ratio = 0.1;
        e.timeout = if e.from == 0 {
            SimDuration::from_millis(8)
        } else {
            SimDuration::from_micros(2500)
        };
        if e.to == 4 {
            e.hedge = Some(HedgeConfig {
                percentile: 0.97,
                initial_delay: SimDuration::from_millis(1),
                min_samples: 64,
                per_shard: false,
            });
        }
    }
    g.slow = Some(SlowTier {
        tier: 4,
        factor: 20.0,
        at: SimDuration::from_millis(300),
        duration: SimDuration::from_millis(250),
    });
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Inputs::defaults()
            .validate()
            .expect("default inputs are valid");
    }

    #[test]
    fn pinned_files_load() {
        Inputs::load(&inputs_dir()).expect("pinned inputs load and validate");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut inputs = Inputs::defaults();
        inputs.micro_small.concurrency.clear();
        assert!(inputs.validate().unwrap_err().contains("micro_small"));

        let mut inputs = Inputs::defaults();
        inputs.multi_tier.rubbos_kinds.push(ServerKind::NettyLike);
        assert!(inputs.validate().unwrap_err().contains("multi_tier"));

        let mut inputs = Inputs::defaults();
        inputs.fleet_spans.fleet.cell.trace_capacity = 0;
        assert!(inputs.validate().is_err());
    }

    #[test]
    fn storm_policy_strips_budgets_and_hedges() {
        let g = DagPolicy::Storm.apply(&dag_social());
        assert!(g
            .edges
            .iter()
            .all(|e| e.budget_ratio == 0.0 && e.hedge.is_none()));
        assert_eq!(DagPolicy::Guarded.apply(&dag_social()), dag_social());
    }
}
