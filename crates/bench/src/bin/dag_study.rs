//! **DAG study** — multi-tier async RPC service graphs: cross-tier
//! write-spin amplification and retry-storm metastability.
//!
//! Two claims, both emergent from composing the paper's single-server
//! architectures into service graphs (`asyncinv::dag`):
//!
//! 1. **Write-spin amplification compounds with depth.** A request into a
//!    tree of `SingleThread` tiers pays the unbounded `socket.write()`
//!    spin loop once *per call in its subtree*, so spin work per request
//!    grows with the call count — geometrically in depth for fan-out ≥ 2.
//!    `NettyLike` tiers (bounded spin) stay near zero at every depth, and
//!    `Proactor` tiers (completion-based, no `socket.write()` at all)
//!    stay at exactly zero: the architecture fix composes, the spin does
//!    not.
//! 2. **Unbudgeted edge retries make a tier brownout metastable.** In a
//!    DeathStarBench-like social-network graph, the shared storage leaf
//!    has a deep pending queue whose full-queue sojourn time is far past
//!    the callers' edge timeout — so a full queue serves only calls
//!    whose callers already gave up (100% wasted work at 100%
//!    utilization). A transient 20× brownout fills that queue; whether
//!    the system *escapes* afterwards is decided entirely by the retry
//!    policy. Unbudgeted per-edge retries (amplified cross-tier: a mid
//!    tier that misses its caller's timeout gets re-dispatched with its
//!    whole storage subtree) keep offered load above healthy capacity,
//!    the queue never drains below the timeout horizon, and goodput
//!    stays collapsed long after the fault lifts. Finagle-style retry
//!    budgets cap the amplification, the queue drains in tens of
//!    milliseconds, and loss stays near the brownout's own share of the
//!    window.
//!
//! ```sh
//! cargo run --release -p asyncinv-bench --bin dag_study            # full
//! cargo run --release -p asyncinv-bench --bin dag_study -- --quick
//! cargo run --release -p asyncinv-bench --bin dag_study -- --write-scenario
//! cargo run --release -p asyncinv-bench --bin dag_study -- --quick \
//!     --scenario scenarios/dag_social.json                 # smoke audit
//! ```
//!
//! The committed copy of the full run lives at `results/dag_study.txt`,
//! and the machine-readable rows at `results/dag_study.json` (both
//! regenerated by the full run). `--scenario` loads the checked-in
//! social-network graph, asserts it has not drifted from the source of
//! truth in this file, and replays the metastability study with the
//! guarded run fully traced through both DAG auditors (exit 1 on any
//! failure) — the smoke-test entry point.

use asyncinv::dag::{
    dag_audit, dag_span_audit, DagRun, DagSpanStatus, DagSummary, FleetDriver, ServiceGraph,
    SlowTier,
};
use asyncinv::figures::Fidelity;
use asyncinv::fleet::HedgeConfig;
use asyncinv::{fmt_f64, ServerKind, SimDuration, Table};
use asyncinv_bench::{banner, fidelity_from_args, load_scenario, print_and_export, write_scenario};
use serde::Serialize;

const SCENARIO: &str = "scenarios/dag_social.json";
const RESULTS_JSON: &str = "results/dag_study.json";

/// The checked-in social-network scenario, reproducibly:
/// `--write-scenario` serializes this, `--scenario` asserts the JSON
/// still matches it. This is the *guarded* configuration — per-edge
/// retry budgets everywhere plus hedging on the edges into the
/// browned-out storage leaf; the study derives the baseline (fault
/// cleared) and the unbudgeted retry storm (budgets zeroed, hedges
/// stripped) from it.
fn scenario() -> ServiceGraph {
    let mut g = ServiceGraph::social_network("dag-social", ServerKind::NettyLike, 42);
    // Mixed fleet: the storage leaf is the spin-prone architecture the
    // amplification sweep studies, the social-graph leaf the proactor.
    g.tiers[1].kind = ServerKind::AsyncPool; // compose-post
    g.tiers[4].kind = ServerKind::SingleThread; // post-storage
    g.tiers[5].kind = ServerKind::Proactor; // social-graph
                                            // Deep pending queue on the shared storage leaf — the bufferbloat
                                            // ingredient. A full queue's sojourn time (~8 ms at healthy speed)
                                            // is far past the 2.5 ms edge timeout, so once the queue fills,
                                            // every call it admits is served for a caller that already gave up:
                                            // 100% wasted work at 100% utilization. Whether the system *stays*
                                            // there after the brownout lifts is exactly what the retry policy
                                            // decides.
    g.tiers[4].queue_cap = 512;
    g.arrivals.rate_per_sec = 8000.0;
    g.arrivals.warmup = SimDuration::from_millis(100);
    g.arrivals.measure = SimDuration::from_millis(1500);
    for e in &mut g.edges {
        e.max_retries = 3;
        e.budget_ratio = 0.1;
        if e.from == 0 {
            // Frontend fan-out: the timeout covers a whole mid-tier
            // subtree (its own storage join included), so it only fires
            // once the storm stretches mid replies past one storage
            // timeout-plus-retry cycle — that's the cross-tier
            // amplification step.
            e.timeout = SimDuration::from_millis(8);
        } else {
            e.timeout = SimDuration::from_micros(2500);
        }
        if e.to == 4 {
            // The hot edges: every root request needs post-storage.
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

/// One amplification-sweep cell for the JSON artifact.
#[derive(Debug, Serialize)]
struct AmpRow {
    kind: String,
    depth: usize,
    fanout: usize,
    tiers: usize,
    completed: u64,
    goodput: f64,
    p99_ms: f64,
    spin_per_req: f64,
    cs_per_req: f64,
}

/// One metastability-study row for the JSON artifact.
#[derive(Debug, Serialize)]
struct MetaRow {
    policy: String,
    goodput: f64,
    loss: f64,
    p99_ms: f64,
    edge_retries: u64,
    edge_timeouts: u64,
    hedges: u64,
    storage_sheds: u64,
}

#[derive(Debug, Serialize)]
struct StudyJson {
    amplification: Vec<AmpRow>,
    metastability: Vec<MetaRow>,
}

/// Spin work per completed request: each tier's calibrated per-request
/// spin cost times the calls it actually served, normalized by
/// end-to-end completions.
fn per_req(summary: &DagSummary, per_tier_cost: &[f64]) -> f64 {
    if summary.completed == 0 {
        return 0.0;
    }
    summary
        .per_tier
        .iter()
        .zip(per_tier_cost)
        .map(|(t, c)| t.served as f64 * c)
        .sum::<f64>()
        / summary.completed as f64
}

fn tree_graph(kind: ServerKind, depth: usize, fanout: usize, quick: bool) -> ServiceGraph {
    let mut g = ServiceGraph::tree(
        &format!("{kind:?}-d{depth}f{fanout}"),
        kind,
        depth,
        fanout,
        7,
    );
    for t in &mut g.tiers {
        // Write-spin is a heavy-response pathology (Table IV): 100 KB
        // replies overrun the socket send buffer, so every tier's RPC
        // carries one.
        t.response_bytes = 100 * 1024;
    }
    for e in &mut g.edges {
        // Healthy trees must stay timeout-free: at 100 KB a visit costs
        // ~2.3 ms, and an edge's response covers its child's subtree.
        e.timeout = SimDuration::from_millis(50);
    }
    g.arrivals.rate_per_sec = 1500.0;
    g.arrivals.measure = if quick {
        SimDuration::from_millis(250)
    } else {
        SimDuration::from_millis(600)
    };
    if quick {
        g.cal.measure = SimDuration::from_millis(150);
    }
    g
}

/// Part 1: spin amplification across architecture × depth × fan-out.
/// Returns the JSON rows; bumps `failures` for every violated claim.
fn amplification(quick: bool, failures: &mut u32) -> Vec<AmpRow> {
    let kinds = [
        ServerKind::SingleThread,
        ServerKind::NettyLike,
        ServerKind::Proactor,
    ];
    let depths: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let fanouts = [1usize, 2];
    println!(
        "part 1 — write-spin amplification: full f-ary call trees of 100 KB RPCs,\n\
         every tier calibrated through its own fleet\n"
    );
    let mut t = Table::new(vec![
        "kind".into(),
        "depth".into(),
        "fanout".into(),
        "calls/req".into(),
        "goodput[req/s]".into(),
        "p99[ms]".into(),
        "spins/req".into(),
        "cs/req".into(),
    ]);
    t.numeric();
    let mut rows = Vec::new();
    for &kind in &kinds {
        for &fanout in &fanouts {
            for &depth in depths {
                let g = tree_graph(kind, depth, fanout, quick);
                let tiers = g.tiers.len();
                let out = DagRun::new(g, FleetDriver::Interleaved).run();
                let spins: Vec<f64> = out.profiles.iter().map(|p| p.spins_per_req).collect();
                let cs: Vec<f64> = out.profiles.iter().map(|p| p.cs_per_req).collect();
                let s = &out.summary;
                if s.completed == 0 || s.failed > 0 {
                    *failures += 1;
                    eprintln!(
                        "CLAIM FAILED: healthy tree {} lost requests ({} completed, {} failed)",
                        s.name, s.completed, s.failed
                    );
                }
                let row = AmpRow {
                    kind: format!("{kind:?}"),
                    depth,
                    fanout,
                    tiers,
                    completed: s.completed,
                    goodput: s.goodput,
                    p99_ms: s.p99_rt_us as f64 / 1e3,
                    spin_per_req: per_req(s, &spins),
                    cs_per_req: per_req(s, &cs),
                };
                t.row(vec![
                    row.kind.clone(),
                    depth.to_string(),
                    fanout.to_string(),
                    tiers.to_string(),
                    fmt_f64(row.goodput, 1),
                    fmt_f64(row.p99_ms, 2),
                    fmt_f64(row.spin_per_req, 1),
                    fmt_f64(row.cs_per_req, 1),
                ]);
                rows.push(row);
            }
        }
    }
    print_and_export("dag_study_amplification", &t);

    let cell = |kind: ServerKind, depth: usize, fanout: usize| {
        rows.iter()
            .find(|r| r.kind == format!("{kind:?}") && r.depth == depth && r.fanout == fanout)
            .expect("swept cell")
    };
    let max_depth = *depths.last().expect("depths");
    // Claim 1a: the proactor composes spin-free — exactly zero at every
    // depth and fan-out.
    for r in rows.iter().filter(|r| r.kind == "Proactor") {
        if r.spin_per_req != 0.0 {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: proactor tree d{} f{} shows {} spins/req (want exactly 0)",
                r.depth, r.fanout, r.spin_per_req
            );
        }
    }
    for &fanout in &fanouts {
        let shallow = cell(ServerKind::SingleThread, 1, fanout);
        let deep = cell(ServerKind::SingleThread, max_depth, fanout);
        // Calls per request in a full f-ary tree of the given depth.
        let calls = |d: usize| -> f64 { (0..=d).map(|l| (fanout as f64).powi(l as i32)).sum() };
        let call_ratio = calls(max_depth) / calls(1);
        let amp = deep.spin_per_req / shallow.spin_per_req.max(1e-9);
        // Claim 1b: single-thread spin work compounds multiplicatively
        // with the call count (geometrically in depth for fan-out 2).
        if amp < 0.7 * call_ratio {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: SingleThread f{fanout} spin amplification {amp:.2}x \
                 below 0.7x the call-count ratio {call_ratio:.2}x"
            );
        }
        // Claim 1c: bounded-spin Netty stays negligible where the
        // single-thread design pays the most.
        let netty = cell(ServerKind::NettyLike, max_depth, fanout);
        if netty.spin_per_req > 0.15 * deep.spin_per_req {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: NettyLike d{max_depth} f{fanout} spins/req {} not \
                 under 15% of SingleThread's {}",
                netty.spin_per_req, deep.spin_per_req
            );
        }
        println!(
            "SingleThread f{fanout}: spins/req {} -> {} (x{:.2}) as calls/req go \
             {:.0} -> {:.0} (x{:.2}); NettyLike deep: {}; Proactor deep: {}",
            fmt_f64(shallow.spin_per_req, 1),
            fmt_f64(deep.spin_per_req, 1),
            amp,
            calls(1),
            calls(max_depth),
            call_ratio,
            fmt_f64(netty.spin_per_req, 2),
            fmt_f64(
                cell(ServerKind::Proactor, max_depth, fanout).spin_per_req,
                2
            ),
        );
    }
    println!();
    rows
}

/// Shrinks the checked-in scenario's windows for `--quick` runs without
/// changing its shape: same rate, same relative brownout placement.
fn quicken(mut g: ServiceGraph, quick: bool) -> ServiceGraph {
    if quick {
        g.arrivals.measure = SimDuration::from_millis(500);
        g.cal.measure = SimDuration::from_millis(150);
        g.slow = g.slow.map(|s| SlowTier {
            at: SimDuration::from_millis(150),
            duration: SimDuration::from_millis(200),
            ..s
        });
    }
    g
}

/// Part 2: the metastability study on the social-network graph. Runs the
/// three policies, audits the guarded run (trace + spans), prints the
/// tables and returns the JSON rows.
fn metastability(spec: &ServiceGraph, quick: bool, failures: &mut u32) -> Vec<MetaRow> {
    let slow = spec.slow.expect("scenario browns out a tier");
    println!(
        "part 2 — metastability: {} ({} tiers, {} edges), tier {} ({}) runs {}x slow over [{}, {})\n",
        spec.name,
        spec.tiers.len(),
        spec.edges.len(),
        slow.tier,
        spec.tiers[slow.tier].name,
        slow.factor,
        slow.at,
        slow.at + slow.duration,
    );

    let mut base_g = spec.clone();
    base_g.slow = None;
    let baseline = DagRun::new(base_g, FleetDriver::Interleaved).run();

    // The guarded run is the traced one: both DAG auditors reconcile it
    // bitwise.
    let guarded_run = DagRun::new(spec.clone(), FleetDriver::Interleaved);
    let (guarded, rec) = guarded_run.run_traced();
    let report = dag_audit(&guarded.summary, &rec);
    if !report.pass() {
        *failures += 1;
        eprintln!("guarded run trace audit failed:\n{report}");
    }
    let span_report = dag_span_audit(&guarded.spans, &rec);
    if !span_report.pass() {
        *failures += 1;
        eprintln!("guarded run span audit failed:\n{span_report}");
    }

    let mut ct = Table::new(vec![
        "tier".into(),
        "kind".into(),
        "slots".into(),
        "mean[us]".into(),
        "slow mean[us]".into(),
        "spins/req".into(),
    ]);
    ct.numeric();
    for p in &guarded.profiles {
        let t = &spec.tiers[p.tier];
        let slow_mean = p
            .slow_lattice
            .as_ref()
            .map(|l| fmt_f64(l.iter().sum::<u64>() as f64 / l.len() as f64 / 1e3, 1))
            .unwrap_or_else(|| "-".into());
        ct.row(vec![
            t.name.clone(),
            format!("{:?}", t.kind),
            t.slots().to_string(),
            fmt_f64(p.mean_ns() as f64 / 1e3, 1),
            slow_mean,
            fmt_f64(p.spins_per_req, 1),
        ]);
    }
    println!("calibrated tiers (per-visit service, measured through each tier's own fleet):");
    print_and_export("dag_study_tiers", &ct);

    let mut storm_g = spec.clone();
    for e in &mut storm_g.edges {
        e.budget_ratio = 0.0;
        e.hedge = None;
    }
    let storm = DagRun::new(storm_g, FleetDriver::Interleaved).run();

    let mut t = Table::new(vec![
        "policy".into(),
        "goodput[req/s]".into(),
        "loss".into(),
        "p99[ms]".into(),
        "edge retries".into(),
        "edge timeouts".into(),
        "hedges".into(),
        "storage sheds".into(),
    ]);
    t.numeric();
    let mut rows = Vec::new();
    for (name, s) in [
        ("baseline (no fault)", &baseline.summary),
        ("budget 0.1 + hedge", &guarded.summary),
        ("unbudgeted retries", &storm.summary),
    ] {
        let sums =
            |f: fn(&asyncinv::dag::TierCounters) -> u64| -> u64 { s.per_tier.iter().map(f).sum() };
        let row = MetaRow {
            policy: name.into(),
            goodput: s.goodput,
            loss: s.loss(),
            p99_ms: s.p99_rt_us as f64 / 1e3,
            edge_retries: sums(|t| t.edge_retries),
            edge_timeouts: sums(|t| t.edge_timeouts),
            hedges: sums(|t| t.hedges),
            storage_sheds: s.per_tier[slow.tier].sheds,
        };
        t.row(vec![
            row.policy.clone(),
            format!("{:.0}", row.goodput),
            format!("{:.3}", row.loss),
            fmt_f64(row.p99_ms, 2),
            row.edge_retries.to_string(),
            row.edge_timeouts.to_string(),
            row.hedges.to_string(),
            row.storage_sheds.to_string(),
        ]);
        rows.push(row);
    }
    print_and_export("dag_study_metastability", &t);

    // Critical-path decomposition of the guarded run: where a completed
    // request's time actually goes, tier by tier (phases telescope
    // bitwise to the end-to-end RT; `dag_span_audit` asserted it above).
    let done: Vec<_> = guarded
        .spans
        .iter()
        .filter(|s| s.status == DagSpanStatus::Completed)
        .collect();
    if !done.is_empty() {
        let n = done.len() as f64;
        let mut pt = Table::new(vec!["phase".into(), "mean[us]".into(), "share".into()]);
        pt.numeric();
        let total: u64 = done.iter().map(|s| s.phases_ns()).sum();
        let mut phase = |label: String, ns: u64| {
            pt.row(vec![
                label,
                fmt_f64(ns as f64 / n / 1e3, 1),
                format!("{:.1}%", 100.0 * ns as f64 / total as f64),
            ]);
        };
        for (i, tier) in spec.tiers.iter().enumerate() {
            let q: u64 = done.iter().map(|s| s.tier_queue_ns[i]).sum();
            let sv: u64 = done.iter().map(|s| s.tier_service_ns[i]).sum();
            phase(format!("{} queue", tier.name), q);
            phase(format!("{} service", tier.name), sv);
        }
        phase("network".into(), done.iter().map(|s| s.network_ns).sum());
        phase(
            "retry/hedge wait".into(),
            done.iter().map(|s| s.wait_ns).sum(),
        );
        println!(
            "critical-path phases, guarded run ({} completed spans):",
            done.len()
        );
        print_and_export("dag_study_phases", &pt);
    }

    let brownout_share = slow.duration.as_secs_f64() / spec.arrivals.measure.as_secs_f64();
    let loss = |r: &MetaRow| r.loss;
    println!(
        "brownout covers {:.0}% of the window. guarded loss {:.3} — about the share the\n\
         fault removes, because budgets cap retry amplification and the bloated storage\n\
         queue drains right after recovery. unbudgeted loss {:.3} with {}x the retries:\n\
         retry pressure alone holds the queue past the 2.5 ms timeout horizon, every\n\
         served call is already orphaned, and the collapse persists to the end of the\n\
         window — a metastable failure whose trigger is long gone.",
        100.0 * brownout_share,
        loss(&rows[1]),
        loss(&rows[2]),
        if rows[1].edge_retries > 0 {
            rows[2].edge_retries / rows[1].edge_retries.max(1)
        } else {
            rows[2].edge_retries
        },
    );
    if !quick {
        // Sanity: the fault-free graph runs clean.
        if loss(&rows[0]) > 0.01 {
            *failures += 1;
            eprintln!("CLAIM FAILED: baseline loss {:.3} not ~0", loss(&rows[0]));
        }
        // Claim 2a: unbudgeted retries collapse goodput far beyond the
        // brownout window itself.
        if loss(&rows[2]) < 1.5 * brownout_share {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: unbudgeted loss {:.3} does not exceed 1.5x the \
                 brownout share {brownout_share:.3}",
                loss(&rows[2]),
            );
        }
        // Claim 2b: budgets + hedges contain the same fault.
        if loss(&rows[1]) > 0.5 * loss(&rows[2]) {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: guarded loss {:.3} not under half the storm's {:.3}",
                loss(&rows[1]),
                loss(&rows[2]),
            );
        }
        if rows[1].goodput <= rows[2].goodput {
            *failures += 1;
            eprintln!(
                "CLAIM FAILED: guarded goodput {:.0} not above the storm's {:.0}",
                rows[1].goodput, rows[2].goodput,
            );
        }
    }
    println!();
    rows
}

/// `--scenario` mode: the smoke-test entry point. Loads the checked-in
/// graph, asserts no drift, replays the metastability study with its
/// audits.
fn run_scenario(path: &str, quick: bool) {
    let spec = load_scenario(path, scenario(), ServiceGraph::validate);
    banner(
        "dag_study — scenario run",
        "the composed DAG trace reconciles bitwise (counters and spans)",
    );
    let mut failures = 0;
    metastability(&quicken(spec, quick), quick, &mut failures);
    if failures > 0 {
        eprintln!("dag_study scenario run: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("scenario {path}: drift check and all audits passed");
}

fn main() {
    let fid = fidelity_from_args();
    let quick = matches!(fid, Fidelity::Quick);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--write-scenario" => return write_scenario(SCENARIO, &scenario()),
            "--scenario" => {
                let path = args.next().unwrap_or_else(|| SCENARIO.to_string());
                run_scenario(&path, quick);
                return;
            }
            _ => {}
        }
    }

    banner(
        "dag_study — composing the eight architectures into service graphs",
        "write-spin amplifies with call depth unless the architecture bounds it; \
         unbudgeted edge retries turn a tier brownout metastable",
    );
    let mut failures = 0;
    let amplification = amplification(quick, &mut failures);
    let metastability = metastability(&quicken(scenario(), quick), quick, &mut failures);

    if !quick {
        let study = StudyJson {
            amplification,
            metastability,
        };
        let json = serde_json::to_string_pretty(&study).expect("serialize study");
        std::fs::create_dir_all("results").expect("mkdir results");
        std::fs::write(RESULTS_JSON, json + "\n").expect("write results");
        println!("wrote {RESULTS_JSON}");
    }
    if failures > 0 {
        eprintln!("dag_study: {failures} claim/audit failure(s)");
        std::process::exit(1);
    }
    println!("dag_study: all claims and audits passed");
}
