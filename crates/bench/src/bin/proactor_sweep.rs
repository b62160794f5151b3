//! **Proactor sweep** — the Table I–IV counter columns for all eight
//! architectures, plus the syscall-crossings-vs-response-size figure that
//! motivates the completion-based design.
//!
//! The paper's counters (context switches per request, `socket.write()`
//! calls per request, write-spin zero-returns, the user/system CPU split)
//! are all symptoms of one cost: kernel crossings per request. The
//! proactor moves that dial directly — SQEs are staged in user space and
//! flushed in batches, so one `io_uring_enter` crossing carries many
//! operations — and this sweep shows where that wins: small responses,
//! where Netty's per-op syscalls dominate, and never at the price of
//! write-spin (the proactor issues no `socket.write()` at all; writes
//! complete via CQEs).
//!
//! ```sh
//! cargo run --release -p asyncinv-bench --bin proactor_sweep            # full
//! cargo run --release -p asyncinv-bench --bin proactor_sweep -- --quick
//! cargo run --release -p asyncinv-bench --bin proactor_sweep -- --write-scenario
//! cargo run --release -p asyncinv-bench --bin proactor_sweep -- --quick \
//!     --scenario scenarios/proactor_sweep.json                # smoke audit
//! ```
//!
//! The committed copy of the full run lives at `results/proactor_sweep.txt`.
//! `--scenario` loads the checked-in sweep spec, asserts it has not
//! drifted from the source of truth in this file, and replays its cells
//! fully traced through the trace auditor (exit 1 on any audit failure) —
//! the smoke-test entry point.

use asyncinv::figures::Fidelity;
use asyncinv::obs::audit;
use asyncinv::{fmt_f64, Chart, Experiment, HybridPath, RunSummary, ServerKind, Table};
use asyncinv_bench::{banner, fidelity_from_args, load_scenario, print_and_export, write_scenario};
use serde::{Deserialize, Serialize};

const SCENARIO: &str = "scenarios/proactor_sweep.json";

/// The checked-in sweep scenario, reproducibly: `--write-scenario`
/// serializes this, `--scenario` asserts the JSON still matches it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SweepScenario {
    /// Closed-loop users per cell.
    concurrency: usize,
    /// Response sizes replayed under the trace audit, bytes.
    sizes: Vec<usize>,
    /// Architectures audited per size: the proactor itself and the hybrid
    /// routing its heavy path onto the proactor.
    kinds: Vec<ServerKind>,
}

fn scenario() -> SweepScenario {
    SweepScenario {
        concurrency: 100,
        sizes: vec![100, 10 * 1024, 100 * 1024],
        kinds: vec![ServerKind::Proactor, ServerKind::Hybrid],
    }
}

/// Sweep one (size, kind) cell at the given fidelity.
fn cell(fid: Fidelity, conc: usize, size: usize, kind: ServerKind) -> RunSummary {
    let mut cfg = fid.micro(conc, size);
    if kind == ServerKind::Hybrid {
        // The variant this sweep is about: heavy requests routed onto the
        // proactor ring instead of the Netty path.
        cfg.hybrid_heavy = HybridPath::Proactor;
    }
    Experiment::new(cfg).run(kind)
}

fn run_scenario(path: &str, quick: bool) {
    let spec = load_scenario(path, scenario(), |_| Ok(()));
    banner(
        "proactor_sweep — scenario run",
        "ring traffic (SqSubmit/SqFlush/CqReap) reconciles bitwise with the trace",
    );
    println!(
        "scenario {path}: {} sizes x {:?} at concurrency {}",
        spec.sizes.len(),
        spec.kinds,
        spec.concurrency
    );
    let fid = if quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let mut failures = 0;
    let mut t = Table::new(vec![
        "server".into(),
        "size".into(),
        "tps".into(),
        "sq submits".into(),
        "sq flushes".into(),
        "cq reaps".into(),
        "audit".into(),
    ]);
    t.numeric();
    for &size in &spec.sizes {
        for &kind in &spec.kinds {
            let mut cfg = fid.micro(spec.concurrency, size);
            cfg.trace_capacity = 1 << 14;
            if kind == ServerKind::Hybrid {
                cfg.hybrid_heavy = HybridPath::Proactor;
            }
            let (summary, rec) = Experiment::new(cfg).run_traced(kind);
            let report = audit(&summary, &rec);
            if !report.pass() {
                failures += 1;
                eprintln!(
                    "{} @ {size}B scenario audit failure:\n{report}",
                    summary.server
                );
            }
            t.row(vec![
                summary.server.clone(),
                format!("{size}B"),
                fmt_f64(summary.throughput, 1),
                summary.sq_submits.to_string(),
                summary.sq_flushes.to_string(),
                summary.cq_reaps.to_string(),
                if report.pass() {
                    "ok".into()
                } else {
                    "FAIL".into()
                },
            ]);
        }
    }
    print_and_export("proactor_sweep_scenario", &t);
    if failures > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--write-scenario" {
            return write_scenario(SCENARIO, &scenario());
        }
        if a == "--scenario" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: proactor_sweep --scenario <spec.json>");
                std::process::exit(2);
            });
            let quick = std::env::args().any(|x| x == "--quick");
            run_scenario(&path, quick);
            return;
        }
    }

    banner(
        "proactor sweep: kernel crossings vs response size, eight architectures",
        "batched submission beats per-op syscalls on small responses, \
         with zero write-spin at any size",
    );
    let fid = fidelity_from_args();
    let sizes: &[usize] = match fid {
        Fidelity::Quick => &[100, 10 * 1024, 100 * 1024],
        Fidelity::Full => &[100, 1024, 10 * 1024, 100 * 1024],
    };
    let conc = scenario().concurrency;

    // --- The Table I–IV counter columns, re-measured per architecture. ---
    // cs/req is Tables I/II, writes/req and spin/req are Table IV,
    // usr/busy is Table III's normalization; crossings/req is the uniform
    // metric the proactor moves, and sqe/flush its batching factor.
    let mut t = Table::new(vec![
        "server".into(),
        "size".into(),
        "tps".into(),
        "cs/req".into(),
        "writes/req".into(),
        "spin/req".into(),
        "usr/busy".into(),
        "crossings/req".into(),
        "sqe/flush".into(),
    ]);
    t.numeric();
    // runs[size index] holds the eight summaries in ServerKind::ALL order.
    let mut runs: Vec<Vec<RunSummary>> = Vec::new();
    for &size in sizes {
        let mut row = Vec::new();
        for kind in ServerKind::ALL {
            let s = cell(fid, conc, size, kind);
            let batch = if s.sq_flushes > 0 {
                fmt_f64(s.sq_submits as f64 / s.sq_flushes as f64, 1)
            } else {
                "-".into()
            };
            t.row(vec![
                s.server.clone(),
                format!("{size}B"),
                fmt_f64(s.throughput, 1),
                fmt_f64(s.cs_per_req, 1),
                fmt_f64(s.writes_per_req, 1),
                fmt_f64(s.spins_per_req, 1),
                fmt_f64(s.cpu.user_share_of_busy(), 2),
                fmt_f64(s.crossings_per_req, 2),
                batch,
            ]);
            row.push(s);
        }
        runs.push(row);
    }
    print_and_export("proactor_sweep", &t);

    // --- The crossover figure: crossings/req vs response size. ---
    let series_for = |kind: ServerKind| -> Vec<(f64, f64)> {
        let idx = ServerKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL");
        sizes
            .iter()
            .zip(&runs)
            .map(|(&size, row)| ((size as f64).log10(), row[idx].crossings_per_req))
            .collect()
    };
    let mut chart = Chart::new(
        "kernel crossings per request vs log10(response bytes)",
        64,
        16,
    );
    chart.series("Proactor", series_for(ServerKind::Proactor));
    chart.series("NettyServer", series_for(ServerKind::NettyLike));
    chart.series("SingleT-Async", series_for(ServerKind::SingleThread));
    println!("\n{chart}");

    // --- The claims the figure makes, asserted. ---
    let idx = |kind: ServerKind| ServerKind::ALL.iter().position(|&k| k == kind).unwrap();
    let small = &runs[0];
    let (pro, net) = (
        &small[idx(ServerKind::Proactor)],
        &small[idx(ServerKind::NettyLike)],
    );
    let mut failures = 0;
    if pro.crossings_per_req >= net.crossings_per_req || pro.crossings_per_req <= 0.0 {
        failures += 1;
        eprintln!(
            "FAIL: at {}B the proactor must cross the kernel less than Netty \
             but more than never ({:.2} vs {:.2} crossings/req)",
            sizes[0], pro.crossings_per_req, net.crossings_per_req
        );
    }
    for (row, &size) in runs.iter().zip(sizes) {
        let p = &row[idx(ServerKind::Proactor)];
        if p.writes_per_req != 0.0 || p.spins_per_req != 0.0 {
            failures += 1;
            eprintln!(
                "FAIL: proactor issued socket.write() at {size}B \
                 ({} writes/req, {} spins/req) — writes must complete via CQEs",
                p.writes_per_req, p.spins_per_req
            );
        }
        if p.sq_flushes == 0 || p.sq_submits < p.completions {
            failures += 1;
            eprintln!("FAIL: proactor ring idle at {size}B: {p:?}");
        }
    }
    // Batching factor: at 100-user concurrency each flush must carry more
    // than one SQE on average, or the ring is just a slow syscall.
    let p = &runs[0][idx(ServerKind::Proactor)];
    let batch = p.sq_submits as f64 / p.sq_flushes.max(1) as f64;
    if batch <= 1.0 {
        failures += 1;
        eprintln!(
            "FAIL: submission batching factor {batch:.2} <= 1 at {}B",
            sizes[0]
        );
    }
    println!(
        "\nheadline: {}B  proactor {:.2} vs netty {:.2} crossings/req \
         (batch {batch:.1} SQE/flush, 0 write-spin at every size)",
        sizes[0], pro.crossings_per_req, net.crossings_per_req
    );
    asyncinv_bench::export_observability_micro("proactor_sweep", conc, 100, ServerKind::Proactor);
    if failures > 0 {
        std::process::exit(1);
    }
}
