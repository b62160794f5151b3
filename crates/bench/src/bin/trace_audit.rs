//! **trace_audit** — cross-checks the structured trace against the engine.
//!
//! For every server architecture, runs the paper's context-switch cell
//! (Table I/II: concurrency 1, 0.1 KB responses) and write-spin cell
//! (Table III/IV: concurrency 4, 100 KB responses) with tracing on, then
//! recomputes cs/req, writes/req and spins/req *from the trace events* and
//! asserts they match the engine's `RunSummary` bit-for-bit. A mismatch
//! means an instrumentation point drifted from the counter it mirrors.
//!
//! `--validate <file>` instead schema-checks an exported Chrome trace JSON
//! file (as written by `--trace-out`) and reports its event count.

use asyncinv::fault::{ConnSelector, FaultEvent, FaultKind, FaultPlan};
use asyncinv::obs::{audit, validate_chrome_trace, TraceKind};
use asyncinv::workload::RetryPolicy;
use asyncinv::{fmt_f64, Experiment, ExperimentConfig, ServerKind, SimDuration, Table};
use asyncinv_bench::{banner, fidelity_from_args};

fn cell(concurrency: usize, bytes: usize, quick: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(if quick { 200 } else { 500 });
    cfg.measure = SimDuration::from_secs(if quick { 1 } else { 2 });
    cfg.trace_capacity = 1 << 14;
    cfg
}

/// A cell with the fault plane fully lit: a mid-window loss spike, a
/// global stall, connection resets and forced abandons, plus client
/// timeouts/retries. Exercises every fault-plane counter so the audit
/// proves injected-vs-observed reconciliation, not just all-zeros.
fn faulted_cell(quick: bool) -> ExperimentConfig {
    let mut cfg = cell(16, 10 * 1024, quick);
    let mid = cfg.warmup + cfg.measure / 4;
    let step = cfg.measure / 8;
    cfg.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(30)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    cfg.faults = Some(FaultPlan {
        seed: 42,
        events: vec![
            FaultEvent {
                at: mid,
                fault: FaultKind::Loss {
                    selector: ConnSelector::Fraction(0.5),
                    prob: 0.3,
                    duration: Some(step),
                },
            },
            FaultEvent {
                at: mid + step,
                fault: FaultKind::WorkerStall {
                    core: None,
                    duration: SimDuration::from_millis(40),
                },
            },
            FaultEvent {
                at: mid + step * 2,
                fault: FaultKind::ConnReset {
                    selector: ConnSelector::Fraction(0.25),
                },
            },
            FaultEvent {
                at: mid + step * 3,
                fault: FaultKind::Abandon {
                    selector: ConnSelector::All,
                },
            },
        ],
    });
    cfg
}

fn main() {
    // --validate mode: schema-check an exported Chrome trace file.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--validate" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: trace_audit --validate <chrome-trace.json>");
                std::process::exit(2);
            });
            let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: could not read {path}: {e}");
                std::process::exit(2);
            });
            match validate_chrome_trace(&body) {
                Ok(n) => {
                    println!("{path}: valid Chrome trace, {n} events");
                    return;
                }
                Err(e) => {
                    eprintln!("{path}: INVALID Chrome trace: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    banner(
        "trace audit: structured trace vs engine counters",
        "Table I/II context switches and Table III/IV write spins recomputed \
         from trace events match the RunSummary exactly",
    );
    let quick = matches!(fidelity_from_args(), asyncinv::figures::Fidelity::Quick);

    let mut t = Table::new(vec![
        "server".into(),
        "cell".into(),
        "cs/req (trace)".into(),
        "writes/req (trace)".into(),
        "spins/req (trace)".into(),
        "audit".into(),
    ]);
    t.numeric();
    let mut failures = 0usize;
    for (cell_name, cfg) in [
        ("cs @1/0.1KB", cell(1, 100, quick)),
        ("spin @4/100KB", cell(4, 100 * 1024, quick)),
        ("fault @16/10KB", faulted_cell(quick)),
    ] {
        for kind in ServerKind::ALL {
            let (summary, rec) = Experiment::new(cfg.clone()).run_traced(kind);
            let report = audit(&summary, &rec);
            let per_req = |k: TraceKind| {
                let c = rec.completions_in_window();
                if c == 0 {
                    0.0
                } else {
                    rec.window_count(k) as f64 / c as f64
                }
            };
            t.row(vec![
                summary.server.clone(),
                cell_name.into(),
                fmt_f64(per_req(TraceKind::ThreadDispatch), 3),
                fmt_f64(per_req(TraceKind::WriteCall), 3),
                fmt_f64(per_req(TraceKind::WriteSpin), 3),
                if report.pass() {
                    "ok".into()
                } else {
                    "FAIL".into()
                },
            ]);
            if !report.pass() {
                failures += 1;
                eprintln!("{} [{cell_name}] audit failure:\n{report}", summary.server);
            }
        }
    }
    asyncinv_bench::print_and_export("trace_audit", &t);
    if failures > 0 {
        eprintln!("trace audit: {failures} architecture/cell combinations FAILED");
        std::process::exit(1);
    }
    println!("trace audit: all architectures consistent with their traces");
}
