//! **latency_breakdown** — where the milliseconds go, per architecture.
//!
//! Extends the paper's latency figures (Figs 9–11) below the mean: for
//! every server architecture, runs the stressed 3-shard fleet (retries,
//! hedging, a mid-run shard slowdown), folds the trace into causal span
//! trees, and attributes every completed request's end-to-end response
//! time to phases — network one-way, accept wait,
//! queue wait, CPU service, write delivery, write spin, retry backoff,
//! hedge wait. Attribution is **bitwise-conserved**: each request's phase
//! durations sum to its recorded response time exactly, so the table's
//! per-phase means add up to the mean response time with no residual.
//!
//! A machine-readable artifact is written to `--json <path>` (default
//! `results/latency_breakdown.json`); the committed copy backs the
//! "Where the milliseconds go" table in `EXPERIMENTS.md`. With
//! `--trace-out DIR`, nested Chrome-trace async spans
//! (`latency_breakdown.spans.trace.json`, loadable in Perfetto) and a
//! spans JSONL export are also written for the last architecture.

use asyncinv::fleet::{BalancerKind, Cluster};
use asyncinv::obs::{span_audit, spans_chrome_json, spans_jsonl, Phase, SpanAssembler};
use asyncinv::{fmt_f64, ServerKind, Table};
use asyncinv_bench::{banner, fidelity_from_args, stressed_span_fleet, TRACE_OUT_ENV};
use serde::Serialize;

/// One architecture's phase attribution, exported with `--json`.
#[derive(Debug, Serialize)]
struct BreakdownRow {
    server: String,
    balancer: String,
    shards: usize,
    requests: u64,
    mean_rt_us: f64,
    /// Exact per-phase nanosecond totals over all completed requests;
    /// they sum to `total_rt_ns` bitwise.
    phases_ns: Vec<PhaseNs>,
    total_rt_ns: u64,
    conserved: bool,
}

/// One phase's exact nanosecond total in the JSON artifact.
#[derive(Debug, Serialize)]
struct PhaseNs {
    phase: String,
    ns: u64,
}

fn main() {
    banner(
        "latency breakdown: critical-path phase attribution (extends Figs 9-11)",
        "each architecture's mean response time decomposes exactly into accept \
         wait, queue wait, CPU service, write delivery, write spin, retry \
         backoff, hedge wait and network phases",
    );
    let quick = matches!(fidelity_from_args(), asyncinv::figures::Fidelity::Quick);
    let mut json_out = "results/latency_breakdown.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(p) = args.next() {
                json_out = p;
            }
        } else if let Some(p) = a.strip_prefix("--json=") {
            json_out = p.to_string();
        }
    }

    let mut cols = vec!["server".into(), "reqs".into(), "mean RT".into()];
    cols.extend(Phase::ALL.iter().map(|p| format!("{}[us]", p.name())));
    let mut t = Table::new(cols);
    t.numeric();

    let mut rows: Vec<BreakdownRow> = Vec::new();
    let mut failures = 0usize;
    let mut last_forest = None;
    for kind in ServerKind::ALL {
        let cfg = stressed_span_fleet(BalancerKind::PowerOfTwoChoices { seed: 0x5eed }, quick);
        let (summary, rec) = Cluster::new(cfg).run_traced(kind);
        let forest = SpanAssembler::assemble(&rec);
        let report = span_audit(&summary.fleet.server, &rec, &forest);
        if !report.pass() {
            failures += 1;
            eprintln!("{} span audit failure:\n{report}", summary.fleet.server);
        }
        // The artifact's claim: per-request phase sums equal recorded
        // response times exactly, so the aggregate decomposes the total.
        let conserved = forest.trees.iter().all(|tr| tr.phases.total() == tr.rt_ns);
        if !conserved {
            failures += 1;
            eprintln!("{}: phase sums diverged from rt", summary.fleet.server);
        }
        let agg = forest.aggregate_completed();
        let n = forest.completed().count() as u64;
        let per_req_us = |ns: u64| {
            if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64 / 1000.0
            }
        };
        let mut row = vec![
            summary.fleet.server.clone(),
            n.to_string(),
            format!("{:.2}ms", per_req_us(agg.total()) / 1000.0),
        ];
        row.extend(
            Phase::ALL
                .iter()
                .map(|&p| fmt_f64(per_req_us(agg.get(p)), 1)),
        );
        t.row(row);

        rows.push(BreakdownRow {
            server: summary.fleet.server.clone(),
            balancer: "p2c".into(),
            shards: 3,
            requests: n,
            mean_rt_us: per_req_us(agg.total()),
            phases_ns: Phase::ALL
                .iter()
                .map(|&p| PhaseNs {
                    phase: p.name().to_string(),
                    ns: agg.get(p),
                })
                .collect(),
            total_rt_ns: agg.total(),
            conserved,
        });
        last_forest = Some(forest);
    }

    asyncinv_bench::print_and_export("latency_breakdown", &t);

    if let Some(dir) = std::path::Path::new(&json_out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let json = serde_json::to_string_pretty(&rows).expect("serialize breakdown");
    std::fs::write(&json_out, json + "\n").expect("write breakdown json");
    println!("wrote {json_out}");

    if let (Ok(dir), Some(forest)) = (std::env::var(TRACE_OUT_ENV), last_forest) {
        let _ = std::fs::create_dir_all(&dir);
        let base = std::path::Path::new(&dir);
        let tr = base.join("latency_breakdown.spans.trace.json");
        let jl = base.join("latency_breakdown.spans.jsonl");
        std::fs::write(&tr, spans_chrome_json(&forest)).expect("write span trace");
        std::fs::write(&jl, spans_jsonl(&forest)).expect("write spans jsonl");
        println!("wrote {} and {}", tr.display(), jl.display());
    }

    if failures > 0 {
        eprintln!("latency breakdown: {failures} architectures FAILED conservation");
        std::process::exit(1);
    }
    println!("latency breakdown: all phase attributions conserve response time bitwise");
}
