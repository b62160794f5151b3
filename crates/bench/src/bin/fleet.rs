//! **fleet** — balancer × shard-count × fault-intensity sweep (extension
//! beyond the paper): a cluster of server-under-test shards behind a
//! pluggable balancer, with hedged requests and cross-shard retries.
//!
//! The default sweep runs every balancer policy over several fleet sizes
//! and brownout intensities and reports goodput, tail latency, route
//! spread and the hedge/retry traffic. With `--scenario` it instead runs
//! the checked-in brownout scenario three ways — fault-free baseline,
//! budgeted retries + hedging, unbudgeted retries — to demonstrate the
//! headline result: a retry budget of 0.1 plus hedging *contains* a
//! single-shard brownout (goodput loss < 1/N), while unbudgeted
//! cross-shard retries propagate it fleet-wide.
//!
//! ```sh
//! cargo run --release -p asyncinv-bench --bin fleet             # full sweep
//! cargo run --release -p asyncinv-bench --bin fleet -- --quick  # smoke
//! cargo run --release -p asyncinv-bench --bin fleet -- \
//!     --scenario scenarios/shard_brownout.json       # containment demo
//! cargo run --release -p asyncinv-bench --bin fleet -- \
//!     --json [out.json]     # machine-readable sweep (default results/fleet-sweep.json)
//! cargo run --release -p asyncinv-bench --bin fleet -- --write-scenario
//! ```
//!
//! All runs are seeded and deterministic. The `--scenario` run first
//! asserts the checked-in JSON has not drifted from the canonical
//! scenario in this file (regenerate with `--write-scenario`), then runs
//! traced and reconciled through [`fleet_audit`]; an audit failure
//! exits 1.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan};
use asyncinv::fleet::{
    fleet_audit, BalancerKind, BrownoutSpec, Cluster, FleetConfig, FleetScenario, FleetSummary,
    HedgeConfig, ShardFault,
};
use asyncinv::{fmt_f64, ExperimentConfig, ServerKind, SimDuration, Table};
use asyncinv_bench::{banner, fidelity_from_args, load_scenario, print_and_export, write_scenario};
use serde::Serialize;

/// One sweep point, also exported with `--json`.
#[derive(Debug, Serialize)]
struct SweepRow {
    balancer: String,
    shards: usize,
    slowdown: f64,
    goodput: f64,
    p99_ms: f64,
    route_spread: f64,
    hedges: u64,
    hedge_cancels: u64,
    shard_retries: u64,
    timeouts: u64,
    retries: u64,
}

const SCENARIO: &str = "scenarios/shard_brownout.json";

/// The checked-in brownout scenario, reproducibly: `--write-scenario`
/// serializes this, `--scenario` asserts the JSON still matches it.
fn brownout_scenario() -> FleetScenario {
    FleetScenario {
        name: "shard-brownout".into(),
        shards: 4,
        concurrency: 192,
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

/// max/min per-shard route share — 1.0 is a perfectly even spread.
fn route_spread(summary: &FleetSummary) -> f64 {
    let routes: Vec<u64> = summary.per_shard.iter().map(|s| s.routes).collect();
    let max = routes.iter().copied().max().unwrap_or(0);
    let min = routes.iter().copied().min().unwrap_or(0);
    if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}

fn sweep_cell(quick: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(64, 10 * 1024);
    cfg.warmup = SimDuration::from_millis(200);
    cfg.measure = SimDuration::from_millis(if quick { 500 } else { 1500 });
    cfg.retry = asyncinv::workload::RetryPolicy {
        timeout: Some(SimDuration::from_millis(30)),
        max_retries: 3,
        budget_ratio: 0.1,
        ..asyncinv::workload::RetryPolicy::default()
    };
    cfg
}

fn brownout(cfg: &ExperimentConfig, shard: usize, factor: f64) -> ShardFault {
    ShardFault {
        shard,
        plan: FaultPlan {
            seed: 7,
            events: vec![FaultEvent {
                at: cfg.warmup + cfg.measure / 4,
                fault: FaultKind::Slowdown {
                    factor,
                    duration: Some(cfg.measure / 4),
                },
            }],
        },
    }
}

fn run_point(
    cell: &ExperimentConfig,
    balancer: BalancerKind,
    shards: usize,
    factor: f64,
    kind: ServerKind,
) -> SweepRow {
    let mut cfg = FleetConfig::new(cell.clone(), shards, balancer);
    cfg.hedge = Some(asyncinv::fleet::HedgeConfig::default());
    if factor > 1.0 {
        cfg.shard_faults = vec![brownout(cell, 0, factor)];
    }
    let summary = Cluster::new(cfg).run(kind);
    SweepRow {
        balancer: balancer.name().into(),
        shards,
        slowdown: factor,
        goodput: summary.fleet.throughput,
        p99_ms: summary.fleet.p99_rt_us as f64 / 1e3,
        route_spread: route_spread(&summary),
        hedges: summary.fleet.hedges,
        hedge_cancels: summary.fleet.hedge_cancels,
        shard_retries: summary.fleet.shard_retries,
        timeouts: summary.fleet.timeouts,
        retries: summary.fleet.retries,
    }
}

fn sweep_table(rows: &[SweepRow]) -> Table {
    let mut t = Table::new(vec![
        "balancer".into(),
        "shards".into(),
        "slow x".into(),
        "goodput[req/s]".into(),
        "p99[ms]".into(),
        "spread".into(),
        "hedges".into(),
        "cancels".into(),
        "x-shard retries".into(),
        "timeouts".into(),
        "retries".into(),
    ]);
    t.numeric();
    for r in rows {
        t.row(vec![
            r.balancer.clone(),
            r.shards.to_string(),
            fmt_f64(r.slowdown, 0),
            fmt_f64(r.goodput, 1),
            fmt_f64(r.p99_ms, 2),
            if r.route_spread.is_finite() {
                fmt_f64(r.route_spread, 2)
            } else {
                "inf".into()
            },
            r.hedges.to_string(),
            r.hedge_cancels.to_string(),
            r.shard_retries.to_string(),
            r.timeouts.to_string(),
            r.retries.to_string(),
        ]);
    }
    t
}

/// `--scenario <file>`: the brownout-containment demonstration. Runs the
/// checked-in [`FleetScenario`] under three policies on the identical
/// workload and fault schedule, audits the traced budgeted run, and
/// checks the containment claim.
fn run_scenario(path: &str, kind: ServerKind) {
    let scenario = load_scenario(path, brownout_scenario(), FleetScenario::validate);
    banner(
        "fleet — shard brownout containment",
        "a retry budget plus hedging contains a single-shard brownout; \
         unbudgeted cross-shard retries propagate it fleet-wide",
    );
    let n = scenario.shards;
    println!(
        "scenario {path}: {} — {} shards behind {}, shard {} browns out {}x for {}\n",
        scenario.name,
        n,
        scenario.balancer.name(),
        scenario.brownout.shard,
        scenario.brownout.factor,
        scenario.brownout.duration,
    );

    // Fault-free reference: the budgeted+hedged config with the fault
    // schedule cleared, so every policy is compared to the same ceiling.
    let mut base_cfg = scenario.fleet_config(0.1, true);
    base_cfg.shard_faults.clear();
    let baseline = Cluster::new(base_cfg).run(kind);

    // The budgeted run is the traced one: reconcile the fleet trace
    // bitwise against the summary and per-shard counters.
    let mut budget_cfg = scenario.fleet_config(0.1, true);
    budget_cfg.cell.trace_capacity = 1 << 15;
    let (budgeted, rec) = Cluster::new(budget_cfg).run_traced(kind);
    let report = fleet_audit(&budgeted, &rec);
    if !report.pass() {
        eprintln!("fleet scenario audit failure:\n{report}");
    }

    // Same budgeted policy, but the hedge-delay estimator keyed by shard:
    // the browned-out shard's completions no longer inflate the healthy
    // shards' p90, so hedges for healthy-shard attempts stay tight.
    let mut keyed_cfg = scenario.fleet_config(0.1, true);
    keyed_cfg.hedge = keyed_cfg.hedge.map(|h| HedgeConfig {
        per_shard: true,
        ..h
    });
    let keyed = Cluster::new(keyed_cfg).run(kind);

    let storm = Cluster::new(scenario.fleet_config(0.0, false)).run(kind);

    let loss = |s: &FleetSummary| 1.0 - s.fleet.throughput / baseline.fleet.throughput.max(1e-12);
    let mut t = Table::new(vec![
        "policy".into(),
        "goodput[req/s]".into(),
        "loss".into(),
        "p99[ms]".into(),
        "hedges".into(),
        "x-shard retries".into(),
        "retries".into(),
        "timeouts".into(),
        "audit".into(),
    ]);
    t.numeric();
    for (name, s, audited) in [
        ("baseline (no fault)", &baseline, false),
        ("budget 0.1 + hedge", &budgeted, true),
        ("budget 0.1 + per-shard hedge", &keyed, false),
        ("unbudgeted retries", &storm, false),
    ] {
        t.row(vec![
            name.into(),
            fmt_f64(s.fleet.throughput, 1),
            fmt_f64(loss(s), 3),
            fmt_f64(s.fleet.p99_rt_us as f64 / 1e3, 2),
            s.fleet.hedges.to_string(),
            s.fleet.shard_retries.to_string(),
            s.fleet.retries.to_string(),
            s.fleet.timeouts.to_string(),
            if !audited {
                "-".into()
            } else if report.pass() {
                "ok".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    print_and_export("fleet_scenario", &t);

    let mut st = Table::new(vec![
        "shard".into(),
        "routes".into(),
        "completions".into(),
        "hedges".into(),
        "cancels".into(),
        "x-shard retries".into(),
        "faults".into(),
    ]);
    st.numeric();
    for s in &budgeted.per_shard {
        st.row(vec![
            s.shard.to_string(),
            s.routes.to_string(),
            s.completions.to_string(),
            s.hedges.to_string(),
            s.hedge_cancels.to_string(),
            s.shard_retries.to_string(),
            s.fault_events.to_string(),
        ]);
    }
    println!("per-shard traffic under budget 0.1 + hedge:");
    print_and_export("fleet_scenario_shards", &st);

    let contained = loss(&budgeted) < 1.0 / n as f64;
    let propagated = loss(&storm) > loss(&budgeted);
    println!(
        "containment: budgeted loss {} {} 1/{} = {}  ->  {}",
        fmt_f64(loss(&budgeted), 3),
        if contained { "<" } else { ">=" },
        n,
        fmt_f64(1.0 / n as f64, 3),
        if contained {
            "CONTAINED"
        } else {
            "NOT CONTAINED"
        },
    );
    println!(
        "propagation: unbudgeted loss {} vs budgeted {}  ->  {}",
        fmt_f64(loss(&storm), 3),
        fmt_f64(loss(&budgeted), 3),
        if propagated {
            "STORM SPREADS"
        } else {
            "no spread"
        },
    );
    if !report.pass() {
        std::process::exit(1);
    }
}

fn main() {
    let mut json_out = None;
    let mut scenario = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--write-scenario" => return write_scenario(SCENARIO, &brownout_scenario()),
            "--scenario" => scenario = args.next(),
            // Bare `--json` targets the committed artifact under results/.
            "--json" => {
                json_out = Some(
                    args.next()
                        .unwrap_or_else(|| "results/fleet-sweep.json".into()),
                )
            }
            _ => {}
        }
    }
    let kind = ServerKind::NettyLike;
    if let Some(path) = scenario {
        run_scenario(&path, kind);
        return;
    }

    banner(
        "fleet: balancer x shard-count x fault-intensity (extension)",
        "load-balancing policy decides how much of a single-shard brownout \
         the rest of the fleet absorbs",
    );
    let quick = matches!(fidelity_from_args(), asyncinv::figures::Fidelity::Quick);
    let cell = sweep_cell(quick);
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let factors: &[f64] = if quick {
        &[1.0, 8.0]
    } else {
        &[1.0, 4.0, 16.0]
    };

    let mut rows = Vec::new();
    for &balancer in &BalancerKind::ALL {
        for &shards in shard_counts {
            for &factor in factors {
                rows.push(run_point(&cell, balancer, shards, factor, kind));
            }
        }
    }
    println!(
        "fleet sweep ({}, concurrency {}, brownout on shard 0 for measure/4):",
        kind.paper_name(),
        cell.clients.concurrency
    );
    print_and_export("fleet_sweep", &sweep_table(&rows));

    if let Some(out) = json_out {
        if let Some(dir) = std::path::Path::new(&out)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("mkdir json output dir");
        }
        let json = serde_json::to_string_pretty(&rows).expect("serialize fleet sweep");
        std::fs::write(&out, json + "\n").expect("write fleet sweep json");
        println!("wrote {out}");
    }
}
