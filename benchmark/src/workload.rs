//! The five workloads, their cells, and what one cell run produces.

use asyncinv::dag::{DagRun, FleetDriver};
use asyncinv::fleet::{fleet_audit, mix64, BalancerKind, Cluster};
use asyncinv::obs::{span_audit, SpanAssembler};
use asyncinv::rubbos::RubbosExperiment;
use asyncinv::{Experiment, ServerKind, SimDuration};
use serde::Serialize;

use crate::inputs::{
    BrownoutInput, DagPolicy, FleetPolicy, Inputs, MicroInput, MultiTierInput, SpansInput,
};
use crate::stats::fnv1a;

/// A named set of cells the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 0.1 KB responses on a LAN: drive loop, event queue and CPU
    /// scheduler bound; TCP nearly idle.
    MicroSmall,
    /// 100 KB responses at LAN and WAN latency: write-spin makes the TCP
    /// send path dominant, and cell costs are skewed.
    MicroLargeWan,
    /// An 8-shard fleet under a 50× brownout, untraced: the fleet
    /// coordinator, balancers, hedges, retries and fault plane.
    FleetBrownout,
    /// The stressed 3-shard fleet traced, folded into span trees and
    /// audited: observability does most of the work.
    FleetSpans,
    /// RUBBoS and the composed service graph: both multi-tier engines.
    MultiTier,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::MicroSmall,
        Workload::MicroLargeWan,
        Workload::FleetBrownout,
        Workload::FleetSpans,
        Workload::MultiTier,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MicroSmall => "micro_small",
            Workload::MicroLargeWan => "micro_large_wan",
            Workload::FleetBrownout => "fleet_brownout",
            Workload::FleetSpans => "fleet_spans",
            Workload::MultiTier => "multi_tier",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells for `seed`, grouped by configuration: the
    /// cells of one group differ only in their seed, and `seed_index` 0
    /// is the group's representative in the layer pass.
    ///
    /// `seeds_per_group` overrides every group's seed count (`--quick`
    /// runs one seed per group).
    pub fn cells(
        self,
        inputs: &Inputs,
        seed: u64,
        seeds_per_group: Option<usize>,
    ) -> Vec<CellSpec> {
        let mut b = Grid {
            seed,
            cells: Vec::new(),
        };
        let n = |pinned: usize| seeds_per_group.unwrap_or(pinned);
        match self {
            Workload::MicroSmall => micro_cells(&mut b, &inputs.micro_small, n),
            Workload::MicroLargeWan => micro_cells(&mut b, &inputs.micro_large_wan, n),
            Workload::FleetBrownout => {
                let inp = &inputs.fleet_brownout;
                for &balancer in &inp.balancers {
                    for &p in &inp.policies {
                        let hedge = if p.hedging { "+hedge" } else { "" };
                        let label = format!("{}/budget{}{hedge}", balancer.name(), p.budget_ratio);
                        b.group(n(inp.seeds_per_group), |s| {
                            (label.clone(), Cell::brownout(inp, balancer, p, s))
                        });
                    }
                }
            }
            Workload::FleetSpans => {
                let inp = &inputs.fleet_spans;
                for &kind in &inp.kinds {
                    for &balancer in &inp.balancers {
                        let label = format!("{}/{}", kind.paper_name(), balancer.name());
                        b.group(n(inp.seeds_per_group), |s| {
                            (label.clone(), Cell::spans(inp, kind, balancer, s))
                        });
                    }
                }
            }
            Workload::MultiTier => {
                let inp = &inputs.multi_tier;
                for &kind in &inp.rubbos_kinds {
                    for &users in &inp.rubbos_users {
                        let label = format!("rubbos/{}/u{users}", kind.paper_name());
                        b.group(n(inp.rubbos_seeds_per_group), |s| {
                            (label.clone(), Cell::rubbos(inp, kind, users, s))
                        });
                    }
                }
                for &policy in &inp.dag_policies {
                    let label = format!("dag/{policy:?}");
                    b.group(n(inp.dag_seeds_per_group), |s| {
                        (label.clone(), Cell::dag(inp, policy, s))
                    });
                }
            }
        }
        b.cells
    }
}

fn micro_cells(b: &mut Grid, inp: &MicroInput, n: impl Fn(usize) -> usize) {
    for &kind in &inp.kinds {
        for &conc in &inp.concurrency {
            for &lat in &inp.one_way_latency {
                let label = format!("{}/c{conc}/lat{lat}", kind.paper_name());
                b.group(n(inp.seeds_per_group), |s| {
                    (label.clone(), Cell::micro(inp, kind, conc, lat, s))
                });
            }
        }
    }
}

struct Grid {
    seed: u64,
    cells: Vec<CellSpec>,
}

impl Grid {
    /// Appends one group of `seeds` cells; `make` receives each cell's
    /// seed, mixed from the run seed and the cell's index.
    fn group(&mut self, seeds: usize, mut make: impl FnMut(u64) -> (String, Cell)) {
        for seed_index in 0..seeds {
            let index = self.cells.len();
            let (label, cell) = make(cell_seed(self.seed, index));
            self.cells.push(CellSpec {
                index,
                seed_index,
                label: format!("{label}/s{seed_index}"),
                cell,
            });
        }
    }
}

/// The simulation seed of cell `index` under run seed `seed`.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    mix64(seed ^ mix64(index as u64))
}

/// One cell of a workload.
#[derive(Debug)]
pub struct CellSpec {
    /// Position in the workload's cell list.
    pub index: usize,
    /// Seed number within the group.
    pub seed_index: usize,
    /// Human-readable configuration and seed number.
    pub label: String,
    /// What to run.
    pub cell: Cell,
}

/// One engine invocation, constructed (and so validated) at set-up.
#[derive(Debug)]
pub enum Cell {
    /// A closed-loop single-server cell.
    Micro {
        /// The cell.
        exp: Experiment,
        /// Architecture.
        kind: ServerKind,
    },
    /// An untraced fleet run.
    Fleet {
        /// The fleet.
        cluster: Cluster,
        /// Architecture of every shard.
        kind: ServerKind,
    },
    /// A traced fleet run folded into span trees and audited.
    Spans {
        /// The fleet.
        cluster: Cluster,
        /// Architecture of every shard.
        kind: ServerKind,
    },
    /// A RUBBoS macro run.
    Rubbos {
        /// The experiment.
        exp: RubbosExperiment,
        /// Tomcat architecture.
        kind: ServerKind,
    },
    /// A composed service-graph run (calibration + composition).
    Dag {
        /// The graph bound to the interleaved fleet driver.
        run: DagRun,
    },
}

/// What a cell run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// FNV-1a digest of the serialized summary.
    pub digest: u64,
    /// Simulated completions in the measurement window.
    pub completions: u64,
    /// Why the cell's output is wrong, if it is.
    pub problem: Option<String>,
}

/// FNV-1a of a value's JSON serialization.
pub fn digest<T: Serialize>(v: &T) -> u64 {
    fnv1a(
        serde_json::to_string(v)
            .expect("summaries serialize")
            .as_bytes(),
    )
}

impl Outcome {
    /// An outcome whose only check is that the cell completed requests.
    pub fn new(digest: u64, completions: u64) -> Outcome {
        Outcome {
            digest,
            completions,
            problem: (completions == 0).then(|| "no completions".to_string()),
        }
    }

    /// Records a failed check (keeping the first one).
    pub fn fail_if(mut self, failed: bool, what: &str) -> Outcome {
        if failed && self.problem.is_none() {
            self.problem = Some(what.to_string());
        }
        self
    }
}

impl Cell {
    /// A micro cell: `inp`'s base at one grid point.
    pub fn micro(
        inp: &MicroInput,
        kind: ServerKind,
        concurrency: usize,
        one_way_latency: SimDuration,
        seed: u64,
    ) -> Cell {
        let mut cfg = inp.base.clone();
        cfg.clients.concurrency = concurrency;
        cfg.tcp.added_latency = one_way_latency;
        cfg.clients.seed = seed;
        Cell::Micro {
            exp: Experiment::new(cfg),
            kind,
        }
    }

    /// A brownout-fleet cell under one balancer and resilience policy.
    pub fn brownout(
        inp: &BrownoutInput,
        balancer: BalancerKind,
        p: FleetPolicy,
        seed: u64,
    ) -> Cell {
        let mut sc = inp.scenario.clone();
        sc.balancer = balancer;
        sc.seed = seed;
        Cell::Fleet {
            cluster: Cluster::new(sc.fleet_config(p.budget_ratio, p.hedging)),
            kind: inp.kind,
        }
    }

    /// A span-fleet cell.
    pub fn spans(inp: &SpansInput, kind: ServerKind, balancer: BalancerKind, seed: u64) -> Cell {
        let mut cfg = inp.fleet.clone();
        cfg.balancer = balancer;
        cfg.cell.clients.seed = seed;
        Cell::Spans {
            cluster: Cluster::new(cfg),
            kind,
        }
    }

    /// A RUBBoS cell.
    pub fn rubbos(inp: &MultiTierInput, kind: ServerKind, users: usize, seed: u64) -> Cell {
        Cell::Rubbos {
            exp: inp.rubbos.experiment(users, seed),
            kind,
        }
    }

    /// A service-graph cell under one edge policy.
    pub fn dag(inp: &MultiTierInput, policy: DagPolicy, seed: u64) -> Cell {
        let mut g = policy.apply(&inp.dag);
        g.seed = seed;
        Cell::Dag {
            run: DagRun::new(g, FleetDriver::Interleaved),
        }
    }

    /// Runs the cell as the timed pass does.
    pub fn run(&self) -> Outcome {
        match self {
            Cell::Micro { exp, kind } => {
                let s = exp.run(*kind);
                Outcome::new(digest(&s), s.completions)
            }
            Cell::Fleet { cluster, kind } => {
                let s = cluster.run(*kind);
                Outcome::new(digest(&s), s.fleet.completions)
            }
            Cell::Spans { cluster, kind } => {
                let (s, rec) = cluster.run_traced(*kind);
                let forest = SpanAssembler::assemble(&rec);
                spans_outcome(&s, &forest)
                    .fail_if(!span_audit("", &rec, &forest).pass(), "span audit failed")
                    .fail_if(!fleet_audit(&s, &rec).pass(), "fleet audit failed")
            }
            Cell::Rubbos { exp, kind } => {
                let s = exp.run(*kind);
                Outcome::new(digest(&s), s.completions)
            }
            Cell::Dag { run } => {
                let s = run.run().summary;
                Outcome::new(digest(&s), s.completed)
            }
        }
    }
}

/// The outcome of a span cell: its fleet summary plus the shape of its
/// span forest.
pub fn spans_outcome(
    s: &asyncinv::fleet::FleetSummary,
    forest: &asyncinv::obs::SpanForest,
) -> Outcome {
    let attempts: usize = forest.trees.iter().map(|t| t.attempts.len()).sum();
    let shape = format!(
        "{}|{}|{}|{}",
        forest.trees.len(),
        forest.completed().count(),
        forest.abandoned().count(),
        attempts
    );
    let d = digest(s) ^ fnv1a(shape.as_bytes()).rotate_left(1);
    Outcome::new(d, s.fleet.completions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_pinned_grids() {
        let inputs = Inputs::defaults();
        let counts: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.cells(&inputs, 1, None).len())
            .collect();
        assert_eq!(counts, [64, 64, 60, 96, 64]);
    }

    #[test]
    fn groups_are_contiguous_and_seeds_distinct() {
        let inputs = Inputs::defaults();
        for w in Workload::ALL {
            let cells = w.cells(&inputs, 7, None);
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(c.index, i);
                if c.seed_index > 0 {
                    let config = |l: &str| l.rsplit_once("/s").expect("seed suffix").0.to_string();
                    assert_eq!(config(&cells[i - 1].label), config(&c.label));
                }
            }
        }
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| cell_seed(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
