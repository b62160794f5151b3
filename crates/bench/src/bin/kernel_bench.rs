//! Self-benchmark of the simulation kernel: raw queue throughput per
//! backend, full experiment-cell wall-clock per backend, and the parallel
//! cell runner's speedup over a serial run.
//!
//! ```sh
//! cargo run --release -p asyncinv-bench --bin kernel_bench             # full
//! cargo run --release -p asyncinv-bench --bin kernel_bench -- --quick  # smoke
//! ```
//!
//! Results are printed as tables and written to `BENCH_kernel.json`
//! (override the path with `ASYNCINV_BENCH_OUT`). The committed copy at the
//! repository root is the recorded baseline referenced by `EXPERIMENTS.md`.

// detlint::allow-file(wall-clock, reason = "self-benchmark of the kernel: wall-clock timing of the host is the measurement itself, never an input to simulated time")
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use asyncinv::figures::Fidelity;
use asyncinv::fleet::{BalancerKind, Cluster, FleetConfig, ParallelCluster};
use asyncinv::obs::SpanAssembler;
use asyncinv::runner::{configured_threads, run_cells};
use asyncinv::{
    fmt_f64, BackendKind, Experiment, ExperimentConfig, ServerKind, SimDuration, SimTime, Table,
};
use asyncinv_simcore::{AdaptiveQueue, CalendarQueue, EventQueue, LadderQueue, QueueBackend};
use serde::Serialize;

/// One hold-model measurement: pop-one/push-one over a standing population.
#[derive(Debug, Serialize)]
struct HoldRow {
    backend: String,
    population: u64,
    /// Queue operations per wall-clock second (each hold = 1 pop + 1 push
    /// + 1 peek, the engine drive loop's per-event pattern).
    events_per_sec: f64,
}

/// Wall-clock for a fixed Quick cell grid driven end to end on one backend.
#[derive(Debug, Serialize)]
struct GridRow {
    backend: String,
    cells: usize,
    wall_ms: f64,
}

/// Serial vs parallel wall-clock for the same grid through the runner,
/// at one worker-thread count.
#[derive(Debug, Serialize)]
struct RunnerRow {
    cells: usize,
    threads: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

/// Interleaved vs parallel-in-time fleet drive of one cluster config.
#[derive(Debug, Serialize)]
struct ParallelFleetRow {
    shards: usize,
    threads: usize,
    interleaved_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

/// The conservative-sync fleet driver measured against the interleaved
/// driver. Speedup is bounded by `min(shards, threads, host_cores)`:
/// on a single-core host the parallel driver can only break even, so
/// `host_cores` is recorded to make the committed baseline interpretable.
#[derive(Debug, Serialize)]
struct ParallelFleetBench {
    host_cores: usize,
    rows: Vec<ParallelFleetRow>,
}

/// Wall-clock of the untraced (size, concurrency) grid on the proactor
/// versus the reactor it shadows (NettyLike): the SQ/CQ ring emulation —
/// staging, flush batching, reap loops — must not make the eighth
/// architecture disproportionately expensive to simulate. The committed
/// baseline gates the ratio at <= 1.5x.
#[derive(Debug, Serialize)]
struct ProactorRow {
    cells: usize,
    netty_ms: f64,
    proactor_ms: f64,
    ratio: f64,
}

/// Wall-clock cost of observability: the same grid untraced (NoopObserver,
/// the default) and with full tracing into a `Recorder`.
#[derive(Debug, Serialize)]
struct ObsRow {
    cells: usize,
    untraced_ms: f64,
    traced_ms: f64,
    overhead_pct: f64,
}

/// Observability cost on the *fleet* driver: the stressed 3-shard span
/// cell (retries, hedges, a shard brownout, shedding — the workload
/// `latency_breakdown` and `span_audit` run) untraced, fully traced, and
/// with span-tree assembly ([`SpanAssembler::assemble`]) folded over the
/// resulting trace. The single-cell `observability` row understated the
/// cost story — the fleet driver routes every event through the
/// coordinator's replay step, so it is the honest place to measure
/// tracing. Span assembly carries an aspirational <= 3% budget over the
/// traced run; the committed baseline measures ~12% steady-state (best
/// of three folds). A bare iterate-and-classify pass over the same ring
/// — the floor any faithful per-event fold must pay — is already
/// ~2.5–3%, so the miss is reported rather than papered over with a
/// looser gate.
#[derive(Debug, Serialize)]
struct FleetObsRow {
    shards: usize,
    untraced_ms: f64,
    traced_ms: f64,
    trace_overhead_pct: f64,
    span_assembly_ms: f64,
    span_overhead_pct: f64,
}

/// Wall-clock cost of the fault plane when it is configured but empty: the
/// same grid with `faults: None` and with an empty `FaultPlan` (compiles
/// to zero operations). The summaries must be bit-identical; the recorded
/// overhead is gated at <= 1% in the committed baseline.
#[derive(Debug, Serialize)]
struct FaultRow {
    cells: usize,
    no_plan_ms: f64,
    empty_plan_ms: f64,
    overhead_pct: f64,
}

/// The exact write-spin fast-forward against spinning through the event
/// queue: the unbounded spinners' 100 KB cells at LAN and WAN latency, run
/// with [`Experiment::fast_forward`] off and on in one binary. The
/// summaries must be bit-identical; the speedup is the whole gain.
#[derive(Debug, Serialize)]
struct SpinRow {
    cells: usize,
    stepwise_ms: f64,
    fast_forward_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct KernelBench {
    hold: Vec<HoldRow>,
    grid: Vec<GridRow>,
    proactor: ProactorRow,
    runner: Vec<RunnerRow>,
    parallel_fleet: ParallelFleetBench,
    observability: ObsRow,
    fleet_observability: FleetObsRow,
    fault_plane: FaultRow,
    spin_fast_forward: SpinRow,
}

/// The steady state of a discrete-event simulation: each iteration peeks
/// the clock, pops the earliest event, and schedules a successor slightly
/// in the future, keeping the population constant.
fn hold_events_per_sec<Q: QueueBackend<u64>>(population: u64, holds: u64) -> f64 {
    let mut q = Q::default();
    for i in 0..population {
        q.push(SimTime::from_nanos(i.wrapping_mul(997)), i);
    }
    // Warm the structure (lets the calendar settle on a bucket width and
    // the adaptive queue migrate before the timer starts).
    for _ in 0..population * 4 {
        hold_once(&mut q);
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..holds {
        acc = acc.wrapping_add(hold_once(&mut q));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    // 3 queue operations per hold: peek + pop + push.
    holds as f64 * 3.0 / secs
}

fn hold_once<Q: QueueBackend<u64>>(q: &mut Q) -> u64 {
    let head = q.peek_time().expect("population is constant");
    let (t, v) = q.pop().expect("population is constant");
    debug_assert_eq!(head, t);
    q.push(SimTime::from_nanos(t.as_nanos() + 1 + v % 2048), v);
    v
}

/// The fixed grid timed per backend and through the runner: heterogeneous
/// server models, sizes and concurrencies, Quick windows.
fn grid() -> Vec<(ServerKind, usize, usize)> {
    let mut cells = Vec::new();
    for &size in &[100usize, 10 * 1024, 100 * 1024] {
        for &conc in &[1usize, 16, 100] {
            for kind in [
                ServerKind::SyncThread,
                ServerKind::AsyncPool,
                ServerKind::SingleThread,
                ServerKind::NettyLike,
            ] {
                cells.push((kind, size, conc));
            }
        }
    }
    cells
}

fn time_grid_on(backend: BackendKind, cells: &[(ServerKind, usize, usize)]) -> f64 {
    let start = Instant::now();
    for &(kind, size, conc) in cells {
        let mut cfg = Fidelity::Quick.micro(conc, size);
        cfg.backend = backend;
        std::hint::black_box(Experiment::new(cfg).run(kind));
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    asyncinv_bench::banner(
        "kernel_bench — simulation-kernel self-benchmark",
        "O(1)-peek calendar + adaptive backend >= heap on hold-dominated loads; \
         parallel runner cuts grid wall-clock",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let holds: u64 = if quick { 200_000 } else { 2_000_000 };

    // --- 1. Hold model: the kernel's steady-state op rate per backend. ---
    let mut hold = Vec::new();
    let mut hold_table = Table::new(vec![
        "backend".into(),
        "population".into(),
        "Mops/s".into(),
    ]);
    hold_table.numeric();
    for &population in &[10u64, 100, 10_000, 100_000] {
        for backend in BackendKind::ALL {
            let rate = match backend {
                BackendKind::Heap => hold_events_per_sec::<EventQueue<u64>>(population, holds),
                BackendKind::Calendar => {
                    hold_events_per_sec::<CalendarQueue<u64>>(population, holds)
                }
                BackendKind::Adaptive => {
                    hold_events_per_sec::<AdaptiveQueue<u64>>(population, holds)
                }
                BackendKind::Ladder => {
                    hold_events_per_sec::<LadderQueue<u64>>(population, holds)
                }
            };
            hold_table.row(vec![
                backend.name().into(),
                population.to_string(),
                fmt_f64(rate / 1e6, 2),
            ]);
            hold.push(HoldRow {
                backend: backend.name().into(),
                population,
                events_per_sec: rate,
            });
        }
    }
    println!("\nhold model (pop-one/push-one, constant population):\n{hold_table}");

    // --- 2. Full experiment cells end to end, per backend. ---
    let cells = grid();
    let mut grid_rows = Vec::new();
    let mut grid_table = Table::new(vec!["backend".into(), "cells".into(), "wall[ms]".into()]);
    grid_table.numeric();
    for backend in BackendKind::ALL {
        let wall_ms = time_grid_on(backend, &cells);
        grid_table.row(vec![
            backend.name().into(),
            cells.len().to_string(),
            fmt_f64(wall_ms, 0),
        ]);
        grid_rows.push(GridRow {
            backend: backend.name().into(),
            cells: cells.len(),
            wall_ms,
        });
    }
    println!("\nfixed Quick cell grid, serial, per backend:\n{grid_table}");

    // --- 2b. Proactor row: the untraced grid combos on the ring vs Netty. ---
    let combos: Vec<(usize, usize)> = {
        let mut seen = Vec::new();
        for &(_, size, conc) in &cells {
            if !seen.contains(&(size, conc)) {
                seen.push((size, conc));
            }
        }
        seen
    };
    let time_kind = |kind: ServerKind| {
        let start = Instant::now();
        for &(size, conc) in &combos {
            std::hint::black_box(Experiment::new(Fidelity::Quick.micro(conc, size)).run(kind));
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    let netty_ms = time_kind(ServerKind::NettyLike);
    let proactor_ms = time_kind(ServerKind::Proactor);
    let proactor = ProactorRow {
        cells: combos.len(),
        netty_ms,
        proactor_ms,
        ratio: proactor_ms / netty_ms.max(1e-9),
    };
    println!(
        "\nproactor: {} cells untraced  netty {:.0} ms  proactor {:.0} ms  ratio {:.2}",
        proactor.cells, netty_ms, proactor_ms, proactor.ratio
    );
    if proactor.ratio > 1.5 {
        eprintln!(
            "warning: proactor grid ratio {:.2} exceeds the 1.5x budget",
            proactor.ratio
        );
    }

    // --- 3. Parallel runner speedup on the same grid, per thread count. ---
    let host_cores = configured_threads();
    let start = Instant::now();
    let serial = run_cells(Fidelity::Quick, &cells, 1);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut runner = Vec::new();
    let mut runner_table = Table::new(vec![
        "threads".into(),
        "serial[ms]".into(),
        "parallel[ms]".into(),
        "speedup".into(),
    ]);
    runner_table.numeric();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let parallel = run_cells(Fidelity::Quick, &cells, threads);
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(serial, parallel, "parallel run must be bit-identical");
        let speedup = serial_ms / parallel_ms.max(1e-9);
        runner_table.row(vec![
            threads.to_string(),
            fmt_f64(serial_ms, 0),
            fmt_f64(parallel_ms, 0),
            fmt_f64(speedup, 2),
        ]);
        runner.push(RunnerRow {
            cells: cells.len(),
            threads,
            serial_ms,
            parallel_ms,
            speedup,
        });
    }
    println!(
        "\nrunner: {} cells, host reports {host_cores} core(s):\n{runner_table}",
        cells.len()
    );

    // --- 3b. Parallel-in-time fleet driver vs the interleaved driver. ---
    let fleet_cell = || {
        let mut cfg = ExperimentConfig::micro(16, 10 * 1024);
        cfg.warmup = SimDuration::from_millis(100);
        cfg.measure = SimDuration::from_millis(if quick { 200 } else { 600 });
        cfg
    };
    let mut fleet_rows = Vec::new();
    let mut fleet_table = Table::new(vec![
        "shards".into(),
        "threads".into(),
        "interleaved[ms]".into(),
        "parallel[ms]".into(),
        "speedup".into(),
    ]);
    fleet_table.numeric();
    for shards in [2usize, 4, 8] {
        let cfg = FleetConfig::new(fleet_cell(), shards, BalancerKind::RoundRobin);
        let start = Instant::now();
        let a = Cluster::new(cfg.clone()).run(ServerKind::NettyLike);
        let interleaved_ms = start.elapsed().as_secs_f64() * 1e3;
        let threads = 4usize;
        let start = Instant::now();
        let b = ParallelCluster::new(cfg).threads(threads).run(ServerKind::NettyLike);
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(a, b, "parallel fleet drive must be bit-identical");
        let speedup = interleaved_ms / parallel_ms.max(1e-9);
        fleet_table.row(vec![
            shards.to_string(),
            threads.to_string(),
            fmt_f64(interleaved_ms, 0),
            fmt_f64(parallel_ms, 0),
            fmt_f64(speedup, 2),
        ]);
        fleet_rows.push(ParallelFleetRow {
            shards,
            threads,
            interleaved_ms,
            parallel_ms,
            speedup,
        });
    }
    let parallel_fleet = ParallelFleetBench { host_cores, rows: fleet_rows };
    println!(
        "\nparallel fleet (conservative sync, bit-identical, host reports {host_cores} \
         core(s); speedup bound = min(shards, threads, cores)):\n{fleet_table}"
    );

    // --- 4. Observability overhead: untraced vs fully traced grid. ---
    let start = Instant::now();
    for &(kind, size, conc) in &cells {
        std::hint::black_box(Experiment::new(Fidelity::Quick.micro(conc, size)).run(kind));
    }
    let untraced_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    for &(kind, size, conc) in &cells {
        let mut cfg = Fidelity::Quick.micro(conc, size);
        cfg.trace_capacity = 1 << 14;
        std::hint::black_box(Experiment::new(cfg).run_traced(kind));
    }
    let traced_ms = start.elapsed().as_secs_f64() * 1e3;
    let observability = ObsRow {
        cells: cells.len(),
        untraced_ms,
        traced_ms,
        overhead_pct: (traced_ms / untraced_ms.max(1e-9) - 1.0) * 100.0,
    };
    println!(
        "\nobservability: {} cells  untraced {:.0} ms  traced {:.0} ms  overhead {:.1}%",
        observability.cells, untraced_ms, traced_ms, observability.overhead_pct
    );

    // --- 4b. Fleet-driver observability: untraced vs traced vs spans. ---
    // Measured on the same stressed 3-shard cell `latency_breakdown` and
    // `span_audit` run (retries, hedges, a shard fault, shedding), so the
    // overhead numbers describe the workload span assembly exists for.
    let fleet_obs_cfg =
        || asyncinv_bench::stressed_span_fleet(BalancerKind::PowerOfTwoChoices { seed: 0x5eed }, quick);
    let start = Instant::now();
    std::hint::black_box(Cluster::new(fleet_obs_cfg()).run(ServerKind::NettyLike));
    let fleet_untraced_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let (_, rec) = Cluster::new(fleet_obs_cfg()).run_traced(ServerKind::NettyLike);
    let fleet_traced_ms = start.elapsed().as_secs_f64() * 1e3;
    // Steady state (best of three): the first fold pays allocator and
    // page-fault warmup that repeated assembly over a live recorder does
    // not — the same convention as the hold-model rows.
    let mut span_assembly_ms = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(SpanAssembler::assemble(&rec));
        span_assembly_ms = span_assembly_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let fleet_observability = FleetObsRow {
        shards: 3,
        untraced_ms: fleet_untraced_ms,
        traced_ms: fleet_traced_ms,
        trace_overhead_pct: (fleet_traced_ms / fleet_untraced_ms.max(1e-9) - 1.0) * 100.0,
        span_assembly_ms,
        span_overhead_pct: span_assembly_ms / fleet_traced_ms.max(1e-9) * 100.0,
    };
    println!(
        "\nfleet observability: 3 shards (stressed span cell)  untraced {:.0} ms  traced {:.0} ms \
         (overhead {:.1}%)  span assembly {:.1} ms (+{:.1}% over traced)",
        fleet_untraced_ms,
        fleet_traced_ms,
        fleet_observability.trace_overhead_pct,
        span_assembly_ms,
        fleet_observability.span_overhead_pct
    );
    if fleet_observability.span_overhead_pct > 3.0 {
        eprintln!(
            "warning: span assembly overhead {:.1}% exceeds the 3% budget",
            fleet_observability.span_overhead_pct
        );
    }

    // --- 5. Fault-plane overhead: faults None vs an empty FaultPlan. ---
    let start = Instant::now();
    let plain: Vec<_> = cells
        .iter()
        .map(|&(kind, size, conc)| Experiment::new(Fidelity::Quick.micro(conc, size)).run(kind))
        .collect();
    let no_plan_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let empty: Vec<_> = cells
        .iter()
        .map(|&(kind, size, conc)| {
            let mut cfg = Fidelity::Quick.micro(conc, size);
            cfg.faults = Some(asyncinv::fault::FaultPlan::default());
            Experiment::new(cfg).run(kind)
        })
        .collect();
    let empty_plan_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(plain, empty, "empty fault plan must be bit-identical");
    let fault_plane = FaultRow {
        cells: cells.len(),
        no_plan_ms,
        empty_plan_ms,
        overhead_pct: (empty_plan_ms / no_plan_ms.max(1e-9) - 1.0) * 100.0,
    };
    println!(
        "\nfault plane: {} cells  no plan {:.0} ms  empty plan {:.0} ms  overhead {:.1}% \
         (summaries bit-identical)",
        fault_plane.cells, no_plan_ms, empty_plan_ms, fault_plane.overhead_pct
    );
    if fault_plane.overhead_pct > 1.0 {
        eprintln!(
            "warning: empty fault plan overhead {:.1}% exceeds the 1% budget",
            fault_plane.overhead_pct
        );
    }

    // --- 5b. Write-spin fast-forward: every iteration queued vs retired. ---
    let spin_cells: Vec<ExperimentConfig> = [16usize, 100]
        .into_iter()
        .flat_map(|conc| {
            [0u64, 5].map(|ms| {
                Fidelity::Quick
                    .micro(conc, 100 * 1024)
                    .with_latency(SimDuration::from_millis(ms))
            })
        })
        .collect();
    let spinners = [
        ServerKind::SingleThread,
        ServerKind::AsyncPool,
        ServerKind::AsyncPoolFix,
        ServerKind::Staged,
    ];
    let time_spin = |fast_forward: bool| {
        let start = Instant::now();
        let summaries: Vec<_> = spin_cells
            .iter()
            .flat_map(|cfg| {
                let exp = Experiment::new(cfg.clone()).fast_forward(fast_forward);
                spinners.map(|kind| exp.run(kind))
            })
            .collect();
        (summaries, start.elapsed().as_secs_f64() * 1e3)
    };
    let (stepwise, stepwise_ms) = time_spin(false);
    let (retired, fast_forward_ms) = time_spin(true);
    assert_eq!(stepwise, retired, "the spin fast-forward must be bit-identical");
    let spin_fast_forward = SpinRow {
        cells: stepwise.len(),
        stepwise_ms,
        fast_forward_ms,
        speedup: stepwise_ms / fast_forward_ms.max(1e-9),
    };
    println!(
        "\nspin fast-forward: {} spinner cells (100 KB, LAN + 5 ms)  stepwise {:.0} ms  \
         fast-forward {:.0} ms  speedup {:.2}x (summaries bit-identical)",
        spin_fast_forward.cells, stepwise_ms, fast_forward_ms, spin_fast_forward.speedup
    );

    // --- 6. Record. ---
    let out = std::env::var("ASYNCINV_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".into());
    let report = KernelBench {
        hold,
        grid: grid_rows,
        proactor,
        runner,
        parallel_fleet,
        observability,
        fleet_observability,
        fault_plane,
        spin_fast_forward,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize kernel bench");
    std::fs::write(&out, json + "\n").expect("write kernel bench json");
    println!("\nwrote {out}");
}
