//! **span_audit** — proves span-tree conservation across the whole fleet.
//!
//! For every server architecture × load balancer, runs a 3-shard fleet
//! with the full stress plane lit (client retries, hedged requests, a
//! mid-run shard slowdown and a shard shed override), folds the trace
//! into causal span trees with [`SpanAssembler`], and audits the forest:
//! exactly one tree per completed request, per-tree phase durations
//! summing to the recorded response time **bitwise**, hedge losers
//! attributed to cancellation, and every retry/hedge/cancel event
//! reconciled against the recorder's exact per-kind totals.
//!
//! `--validate-spans <file>` instead schema-checks an exported span
//! Chrome-trace JSON file (as written by `latency_breakdown`) and reports
//! its event count.

use asyncinv::fleet::{BalancerKind, Cluster};
use asyncinv::obs::{span_audit, validate_span_trace, SpanAssembler};
use asyncinv::{ServerKind, Table};
use asyncinv_bench::{banner, fidelity_from_args, stressed_span_fleet};

fn main() {
    // --validate-spans mode: schema-check an exported span trace file.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--validate-spans" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: span_audit --validate-spans <span-trace.json>");
                std::process::exit(2);
            });
            let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: could not read {path}: {e}");
                std::process::exit(2);
            });
            match validate_span_trace(&body) {
                Ok(n) => {
                    println!("{path}: valid span Chrome trace, {n} events");
                    return;
                }
                Err(e) => {
                    eprintln!("{path}: INVALID span trace: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    banner(
        "span audit: causal span trees conserve response time bitwise",
        "every completed request folds into exactly one span tree whose phase \
         durations sum to its recorded response time, across retries, hedges, \
         faults and shedding",
    );
    let quick = matches!(fidelity_from_args(), asyncinv::figures::Fidelity::Quick);

    let mut t = Table::new(vec![
        "server".into(),
        "balancer".into(),
        "trees".into(),
        "completed".into(),
        "abandoned".into(),
        "attempts".into(),
        "audit".into(),
    ]);
    t.numeric();
    let mut failures = 0usize;
    for kind in ServerKind::ALL {
        for balancer in BalancerKind::ALL {
            let cfg = stressed_span_fleet(balancer, quick);
            let (summary, rec) = Cluster::new(cfg).run_traced(kind);
            let forest = SpanAssembler::assemble(&rec);
            let label = format!("{}/{}", summary.fleet.server, balancer.name());
            let report = span_audit(&label, &rec, &forest);
            let ok = report.pass();
            if !ok {
                failures += 1;
                eprintln!("{label} span audit failure:\n{report}");
            }
            let attempts: usize = forest.trees.iter().map(|tr| tr.attempts.len()).sum();
            t.row(vec![
                summary.fleet.server.clone(),
                balancer.name().into(),
                forest.trees.len().to_string(),
                forest.completed().count().to_string(),
                forest.abandoned().count().to_string(),
                attempts.to_string(),
                if ok { "ok".into() } else { "FAIL".into() },
            ]);
        }
    }
    asyncinv_bench::print_and_export("span_audit", &t);
    if failures > 0 {
        eprintln!("span audit: {failures} architecture/balancer combinations FAILED");
        std::process::exit(1);
    }
    println!("span audit: all span forests conserve response time bitwise");
}
