//! Self-benchmark of the simulation kernel: raw queue throughput of the
//! heap and the ladder, CPU-scheduler dispatch and the TCP send path
//! alone, full experiment-cell wall-clock on the fleet
//! loop (which runs on the lane queue), the parallel cell runner's
//! speedup over a serial run, the costs of the proactor, tracing,
//! span assembly, an empty fault plan and stepwise write spins, and the
//! DAG driver on the benchmark's social graph. Every row records
//! min/median/max over several runs.
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

use asyncinv::dag::{DagRun, FleetDriver, ServiceGraph};
use asyncinv::figures::Fidelity;
use asyncinv::fleet::{mix64, BalancerKind, Cluster};
use asyncinv::obs::SpanAssembler;
use asyncinv::runner::{configured_threads, run_cells};
use asyncinv::substrate::{Burst, CpuConfig, CpuModel, TcpConfig, TcpEvent, TcpNotice, TcpWorld};
use asyncinv::{fmt_f64, Experiment, ExperimentConfig, ServerKind, SimDuration, SimTime, Table};
use asyncinv_simcore::{EventQueue, LadderQueue, LaneQueue, QueueBackend};
use serde::Serialize;

/// Runs behind every row. Queue types alternate within each hold run,
/// and the two sides of every paired row alternate which goes first, so
/// host drift hits both alike.
const RUNS: usize = 5;

/// Min/median/max of one measurement over [`RUNS`] runs.
#[derive(Debug, Serialize)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }

    /// The spread of `f(a, b)` over paired samples.
    fn of_pairs(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Spread {
        Spread::of(a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect())
    }
}

impl std::fmt::Display for Spread {
    /// `median [min–max]`, to the formatter's precision (default 0 decimals).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = f.precision().unwrap_or(0);
        write!(f, "{:.d$} [{:.d$}–{:.d$}]", self.median, self.min, self.max)
    }
}

/// `b`'s change over `a`, in percent.
fn overhead_pct(a: f64, b: f64) -> f64 {
    (b / a.max(1e-9) - 1.0) * 100.0
}

/// Milliseconds `f` took.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// [`RUNS`] timings (ms) of each of two variants, run in turn with the
/// first alternating from run to run.
fn time_pair(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (Vec<f64>, Vec<f64>) {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for run in 0..RUNS {
        if run % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (xs, ys)
}

/// One hold-model measurement: pop-one/push-one over a standing population.
#[derive(Debug, Serialize)]
struct HoldRow {
    backend: String,
    population: u64,
    runs: usize,
    host_cores: usize,
    /// Queue operations per wall-clock second (each hold = 1 pop + 1 push
    /// + 1 peek, the engine drive loop's per-event pattern).
    events_per_sec: Spread,
}

/// CPU-scheduler dispatch alone: host ns per submit → complete →
/// `finish_turn` cycle of a 1 µs user burst on a single-core
/// [`CpuModel`], the work the benchmark's `cpu.dispatch_ns` probe times.
#[derive(Debug, Serialize)]
struct CpuDispatchRow {
    /// Cycles per run, each run on a fresh model.
    cycles: u64,
    runs: usize,
    host_cores: usize,
    ns_per_cycle: Spread,
}

/// The TCP send path alone: host ns per `write` call while 100 KB
/// responses drain through a default [`TcpWorld`], their delivery and
/// ACK events replayed in time order, the work the benchmark's
/// `tcp.write_ns_100kb` probe times.
#[derive(Debug, Serialize)]
struct TcpSendRow {
    /// Responses per run, each on a fresh connection.
    responses: usize,
    response_bytes: usize,
    /// `write` calls per run.
    write_calls: u64,
    runs: usize,
    host_cores: usize,
    ns_per_write: Spread,
}

/// Wall-clock for a fixed Quick cell grid driven end to end.
#[derive(Debug, Serialize)]
struct GridRow {
    /// The fleet loop's queue, the lane queue.
    backend: String,
    cells: usize,
    runs: usize,
    host_cores: usize,
    wall_ms: Spread,
}

/// Serial vs parallel wall-clock for the same grid through the runner,
/// at one worker-thread count; the speedup is taken per run.
#[derive(Debug, Serialize)]
struct RunnerRow {
    cells: usize,
    threads: usize,
    runs: usize,
    serial_ms: Spread,
    parallel_ms: Spread,
    speedup: Spread,
}

/// Wall-clock of the untraced (size, concurrency) grid on the proactor
/// versus the reactor it shadows (NettyLike): the SQ/CQ ring emulation —
/// staging, flush batching, reap loops — must not make the eighth
/// architecture disproportionately expensive to simulate. The committed
/// baseline gates the ratio at <= 1.5x.
#[derive(Debug, Serialize)]
struct ProactorRow {
    cells: usize,
    runs: usize,
    netty_ms: Spread,
    proactor_ms: Spread,
    ratio: Spread,
}

/// Wall-clock cost of observability: the same grid untraced (NoopObserver,
/// the default) and with full tracing into a `Recorder`.
#[derive(Debug, Serialize)]
struct ObsRow {
    cells: usize,
    runs: usize,
    untraced_ms: Spread,
    traced_ms: Spread,
    overhead_pct: Spread,
}

/// Observability cost on the *fleet* driver: the stressed 3-shard span
/// cell (retries, hedges, a shard brownout, shedding — the workload
/// `latency_breakdown` and `span_audit` run) untraced, fully traced, and
/// with span-tree assembly ([`SpanAssembler::assemble`]) folded over the
/// resulting trace. The single-cell `observability` row understated the
/// cost story — a fleet records its routing, hedge and retry events on
/// top of every shard's, so it is the honest place to measure tracing.
/// Span assembly carries an aspirational <= 3% budget over the
/// traced run, which the committed baseline misses (each run's fold is
/// the best of three: steady state). A bare iterate-and-classify pass
/// over the same ring — the floor any faithful per-event fold must pay
/// — is already ~2.5–3%, so the miss is reported rather than papered
/// over with a looser gate.
#[derive(Debug, Serialize)]
struct FleetObsRow {
    shards: usize,
    runs: usize,
    untraced_ms: Spread,
    traced_ms: Spread,
    trace_overhead_pct: Spread,
    span_assembly_ms: Spread,
    span_overhead_pct: Spread,
}

/// Wall-clock cost of the fault plane when it is configured but empty: the
/// same grid with `faults: None` and with an empty `FaultPlan` (compiles
/// to zero operations). The summaries must be bit-identical; the recorded
/// overhead is gated at <= 1% in the committed baseline.
#[derive(Debug, Serialize)]
struct FaultRow {
    cells: usize,
    runs: usize,
    no_plan_ms: Spread,
    empty_plan_ms: Spread,
    overhead_pct: Spread,
}

/// The exact write-spin fast-forward against spinning through the event
/// queue: the unbounded spinners' 100 KB cells at LAN and WAN latency, run
/// with [`Experiment::fast_forward`] off and on in one binary. The
/// summaries must be bit-identical; the speedup is the whole gain.
#[derive(Debug, Serialize)]
struct SpinRow {
    cells: usize,
    runs: usize,
    stepwise_ms: Spread,
    fast_forward_ms: Spread,
    speedup: Spread,
}

/// The DAG driver alone: [`DagRun::run`] (calibration and composition)
/// on the social graph of the benchmark's `multi_tier` workload under one
/// edge policy, with the calls each run dispatches (root calls, edge
/// calls, retries and hedges).
#[derive(Debug, Serialize)]
struct DagRow {
    policy: String,
    seed: u64,
    runs: usize,
    host_cores: usize,
    calls_dispatched: u64,
    wall_ms: Spread,
}

#[derive(Debug, Serialize)]
struct KernelBench {
    hold: Vec<HoldRow>,
    cpu_dispatch: CpuDispatchRow,
    tcp_send: TcpSendRow,
    grid: Vec<GridRow>,
    proactor: ProactorRow,
    runner: Vec<RunnerRow>,
    observability: ObsRow,
    fleet_observability: FleetObsRow,
    fault_plane: FaultRow,
    spin_fast_forward: SpinRow,
    dag: Vec<DagRow>,
}

/// The steady state of a discrete-event simulation: each iteration peeks
/// the clock, pops the earliest event, and schedules a successor slightly
/// in the future, keeping the population constant.
fn hold_events_per_sec<Q: QueueBackend<u64>>(population: u64, holds: u64) -> f64 {
    let mut q = Q::default();
    for i in 0..population {
        q.push(SimTime::from_nanos(i.wrapping_mul(997)), i);
    }
    // Warm the structure (lets the ladder spawn its rungs before the
    // timer starts).
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

/// One run of the CPU-dispatch row: `cycles` 1 µs user bursts, each
/// submitted once the last completed, on a fresh single-core model.
/// Returns host ns per cycle.
fn dispatch_ns_per_cycle(cycles: u64) -> f64 {
    let mut cpu = CpuModel::new(CpuConfig::single_core());
    let tid = cpu.spawn_thread("probe");
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..cycles {
        cpu.submit(
            now,
            tid,
            Burst::user(SimDuration::from_micros(1)),
            i,
            &mut out,
        );
        while let Some((t, ev)) = out.pop() {
            now = t;
            if cpu.on_event(now, ev, &mut out).is_some() {
                cpu.finish_turn(now, tid, &mut out);
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / cycles as f64;
    assert_eq!(
        cpu.stats().user_time,
        SimDuration::from_micros(cycles),
        "every cycle ran its 1 µs burst"
    );
    ns
}

/// Bytes of each response the TCP-send row drains.
const RESPONSE_BYTES: usize = 100 * 1024;

/// One run of the TCP-send row: `responses` responses of
/// [`RESPONSE_BYTES`], each written through a fresh default connection
/// and drained by replaying the earliest pending network event. Returns
/// host ns per `write` call and the calls made.
fn send_ns_per_write(responses: usize) -> (f64, u64) {
    let mut calls = 0;
    let start = Instant::now();
    for _ in 0..responses {
        let mut world = TcpWorld::new(TcpConfig::default());
        let conn = world.open(SimTime::ZERO);
        let mut out: Vec<(SimTime, TcpEvent)> = Vec::new();
        let mut pending: Vec<(SimTime, TcpEvent)> = Vec::new();
        let mut accepted = world.write(SimTime::ZERO, conn, RESPONSE_BYTES, &mut out);
        let mut delivered = 0;
        while delivered < RESPONSE_BYTES {
            pending.append(&mut out);
            let i = (0..pending.len())
                .min_by_key(|&i| pending[i].0)
                .expect("undelivered bytes have pending events");
            let (now, ev) = pending.swap_remove(i);
            match world.on_event(now, ev, &mut out) {
                TcpNotice::SpaceFreed { space, .. } if space > 0 && accepted < RESPONSE_BYTES => {
                    accepted += world.write(now, conn, RESPONSE_BYTES - accepted, &mut out);
                }
                TcpNotice::Delivered { bytes, .. } => delivered += bytes,
                TcpNotice::SpaceFreed { .. } => {}
            }
        }
        assert_eq!(delivered, RESPONSE_BYTES, "each response delivers 100 KB");
        calls += world.stats().write_calls;
    }
    (start.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// The fixed grid timed serially and through the runner: heterogeneous
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

fn time_grid(cells: &[(ServerKind, usize, usize)]) -> f64 {
    time_ms(|| {
        for &(kind, size, conc) in cells {
            std::hint::black_box(Experiment::new(Fidelity::Quick.micro(conc, size)).run(kind));
        }
    })
}

/// A queue type's hold measurement: population and hold count in,
/// operations per second out.
type HoldProbe = fn(u64, u64) -> f64;

fn main() {
    asyncinv_bench::banner(
        "kernel_bench — simulation-kernel self-benchmark",
        "heap vs ladder on hold loads; the cell grid on the fleet loop's lane queue; \
         parallel runner cuts grid wall-clock",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let holds: u64 = if quick { 200_000 } else { 2_000_000 };

    let host_cores = configured_threads();

    // --- 1. Hold model: the kernel's steady-state op rate per queue type. ---
    let queues: [(&str, HoldProbe); 2] = [
        (
            EventQueue::<u64>::NAME,
            hold_events_per_sec::<EventQueue<u64>>,
        ),
        (
            LadderQueue::<u64>::NAME,
            hold_events_per_sec::<LadderQueue<u64>>,
        ),
    ];
    let mut rates: Vec<(u64, &str, HoldProbe, Vec<f64>)> = [10u64, 100, 10_000, 100_000]
        .into_iter()
        .flat_map(|population| queues.map(|(name, probe)| (population, name, probe, Vec::new())))
        .collect();
    for _ in 0..RUNS {
        for (population, _, probe, samples) in &mut rates {
            samples.push(probe(*population, holds));
        }
    }
    let mut hold = Vec::new();
    let mut hold_table = Table::new(vec![
        "backend".into(),
        "population".into(),
        "min Mops/s".into(),
        "median".into(),
        "max".into(),
    ]);
    hold_table.numeric();
    for (population, backend, _, samples) in rates {
        let events_per_sec = Spread::of(samples);
        hold_table.row(vec![
            backend.into(),
            population.to_string(),
            fmt_f64(events_per_sec.min / 1e6, 2),
            fmt_f64(events_per_sec.median / 1e6, 2),
            fmt_f64(events_per_sec.max / 1e6, 2),
        ]);
        hold.push(HoldRow {
            backend: backend.into(),
            population,
            runs: RUNS,
            host_cores,
            events_per_sec,
        });
    }
    println!("\nhold model (pop-one/push-one, constant population; {RUNS} runs):\n{hold_table}");

    // --- 1b. CPU-scheduler dispatch and the TCP send path, each alone. ---
    const CYCLES: u64 = 100_000;
    const RESPONSES: usize = 200;
    let mut dispatch_ns = Vec::new();
    let mut send = Vec::new();
    for _ in 0..RUNS {
        dispatch_ns.push(dispatch_ns_per_cycle(CYCLES));
        send.push(send_ns_per_write(RESPONSES));
    }
    let write_calls = send[0].1;
    assert!(
        send.iter().all(|&(_, calls)| calls == write_calls),
        "every run makes the same write calls"
    );
    let cpu_dispatch = CpuDispatchRow {
        cycles: CYCLES,
        runs: RUNS,
        host_cores,
        ns_per_cycle: Spread::of(dispatch_ns),
    };
    let tcp_send = TcpSendRow {
        responses: RESPONSES,
        response_bytes: RESPONSE_BYTES,
        write_calls,
        runs: RUNS,
        host_cores,
        ns_per_write: Spread::of(send.iter().map(|&(ns, _)| ns).collect()),
    };
    println!(
        "\ncpu dispatch: {CYCLES} cycles of a 1 µs burst on one core ({RUNS} runs, median \
         [min–max])  {:.1} ns/cycle",
        cpu_dispatch.ns_per_cycle
    );
    println!(
        "\ntcp send: {RESPONSES} responses of 100 KB, {write_calls} write calls ({RUNS} runs, \
         median [min–max])  {:.1} ns/write",
        tcp_send.ns_per_write
    );

    // --- 2. Full experiment cells end to end on the fleet loop. ---
    let cells = grid();
    let wall_ms = Spread::of((0..RUNS).map(|_| time_grid(&cells)).collect());
    println!(
        "\nfixed Quick cell grid, serial ({RUNS} runs): {} cells  min {} ms  median {}  max {}",
        cells.len(),
        fmt_f64(wall_ms.min, 0),
        fmt_f64(wall_ms.median, 0),
        fmt_f64(wall_ms.max, 0),
    );
    let grid_rows = vec![GridRow {
        backend: LaneQueue::<u64>::NAME.into(),
        cells: cells.len(),
        runs: RUNS,
        host_cores,
        wall_ms,
    }];

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
        time_ms(|| {
            for &(size, conc) in &combos {
                std::hint::black_box(Experiment::new(Fidelity::Quick.micro(conc, size)).run(kind));
            }
        })
    };
    let (netty, ring) = time_pair(
        || time_kind(ServerKind::NettyLike),
        || time_kind(ServerKind::Proactor),
    );
    let proactor = ProactorRow {
        cells: combos.len(),
        runs: RUNS,
        ratio: Spread::of_pairs(&netty, &ring, |n, p| p / n.max(1e-9)),
        netty_ms: Spread::of(netty),
        proactor_ms: Spread::of(ring),
    };
    println!(
        "\nproactor: {} cells untraced ({RUNS} runs, median [min–max])  netty {} ms  \
         proactor {} ms  ratio {:.2}",
        proactor.cells, proactor.netty_ms, proactor.proactor_ms, proactor.ratio
    );
    if proactor.ratio.median > 1.5 {
        eprintln!(
            "warning: proactor grid ratio {:.2} exceeds the 1.5x budget",
            proactor.ratio.median
        );
    }

    // --- 3. Parallel runner speedup on the same grid, per thread count. ---
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let mut serial_ms = Vec::new();
    let mut parallel_ms: Vec<Vec<f64>> = THREADS.iter().map(|_| Vec::new()).collect();
    for _ in 0..RUNS {
        let mut serial = Vec::new();
        serial_ms.push(time_ms(|| serial = run_cells(Fidelity::Quick, &cells, 1)));
        for (&threads, samples) in THREADS.iter().zip(&mut parallel_ms) {
            let mut parallel = Vec::new();
            samples.push(time_ms(|| {
                parallel = run_cells(Fidelity::Quick, &cells, threads)
            }));
            assert_eq!(serial, parallel, "parallel run must be bit-identical");
        }
    }
    let mut runner = Vec::new();
    let mut runner_table = Table::new(vec![
        "threads".into(),
        "serial[ms]".into(),
        "parallel[ms]".into(),
        "speedup".into(),
    ]);
    runner_table.numeric();
    for (threads, parallel) in THREADS.into_iter().zip(parallel_ms) {
        let row = RunnerRow {
            cells: cells.len(),
            threads,
            runs: RUNS,
            speedup: Spread::of_pairs(&serial_ms, &parallel, |s, p| s / p.max(1e-9)),
            serial_ms: Spread::of(serial_ms.clone()),
            parallel_ms: Spread::of(parallel),
        };
        runner_table.row(vec![
            threads.to_string(),
            row.serial_ms.to_string(),
            row.parallel_ms.to_string(),
            format!("{:.2}", row.speedup),
        ]);
        runner.push(row);
    }
    println!(
        "\nrunner: {} cells, host reports {host_cores} core(s) ({RUNS} runs, median \
         [min–max]):\n{runner_table}",
        cells.len()
    );

    // --- 4. Observability overhead: untraced vs fully traced grid. ---
    let (untraced, traced) = time_pair(
        || time_grid(&cells),
        || {
            time_ms(|| {
                for &(kind, size, conc) in &cells {
                    let mut cfg = Fidelity::Quick.micro(conc, size);
                    cfg.trace_capacity = 1 << 14;
                    std::hint::black_box(Experiment::new(cfg).run_traced(kind));
                }
            })
        },
    );
    let observability = ObsRow {
        cells: cells.len(),
        runs: RUNS,
        overhead_pct: Spread::of_pairs(&untraced, &traced, overhead_pct),
        untraced_ms: Spread::of(untraced),
        traced_ms: Spread::of(traced),
    };
    println!(
        "\nobservability: {} cells ({RUNS} runs, median [min–max])  untraced {} ms  \
         traced {} ms  overhead {:.1}%",
        observability.cells,
        observability.untraced_ms,
        observability.traced_ms,
        observability.overhead_pct
    );

    // --- 4b. Fleet-driver observability: untraced vs traced vs spans. ---
    // Measured on the same stressed 3-shard cell `latency_breakdown` and
    // `span_audit` run (retries, hedges, a shard fault, shedding), so the
    // overhead numbers describe the workload span assembly exists for.
    let fleet_obs_cfg = || {
        asyncinv_bench::stressed_span_fleet(BalancerKind::PowerOfTwoChoices { seed: 0x5eed }, quick)
    };
    let mut span_ms = Vec::new();
    let (fleet_untraced, fleet_traced) = time_pair(
        || {
            time_ms(|| {
                drop(std::hint::black_box(
                    Cluster::new(fleet_obs_cfg()).run(ServerKind::NettyLike),
                ))
            })
        },
        || {
            let mut rec = None;
            let traced = time_ms(|| {
                rec = Some(
                    Cluster::new(fleet_obs_cfg())
                        .run_traced(ServerKind::NettyLike)
                        .1,
                );
            });
            let rec = rec.expect("traced run");
            // Steady state (best of three): the first fold pays allocator
            // and page-fault warmup that repeated assembly over a live
            // recorder does not.
            let best = (0..3)
                .map(|_| time_ms(|| drop(std::hint::black_box(SpanAssembler::assemble(&rec)))))
                .fold(f64::INFINITY, f64::min);
            span_ms.push(best);
            traced
        },
    );
    let fleet_observability = FleetObsRow {
        shards: 3,
        runs: RUNS,
        trace_overhead_pct: Spread::of_pairs(&fleet_untraced, &fleet_traced, overhead_pct),
        span_overhead_pct: Spread::of_pairs(&fleet_traced, &span_ms, |t, s| {
            s / t.max(1e-9) * 100.0
        }),
        untraced_ms: Spread::of(fleet_untraced),
        traced_ms: Spread::of(fleet_traced),
        span_assembly_ms: Spread::of(span_ms),
    };
    println!(
        "\nfleet observability: 3 shards (stressed span cell; {RUNS} runs, median [min–max])  \
         untraced {:.1} ms  traced {:.1} ms (overhead {:.1}%)  span assembly {:.1} ms \
         (+{:.1}% over traced)",
        fleet_observability.untraced_ms,
        fleet_observability.traced_ms,
        fleet_observability.trace_overhead_pct,
        fleet_observability.span_assembly_ms,
        fleet_observability.span_overhead_pct
    );
    if fleet_observability.span_overhead_pct.median > 3.0 {
        eprintln!(
            "warning: span assembly overhead {:.1}% exceeds the 3% budget",
            fleet_observability.span_overhead_pct.median
        );
    }

    // --- 5. Fault-plane overhead: faults None vs an empty FaultPlan. ---
    let run_grid = |faults: Option<asyncinv::fault::FaultPlan>| {
        let mut summaries = Vec::new();
        let ms = time_ms(|| {
            summaries = cells
                .iter()
                .map(|&(kind, size, conc)| {
                    let mut cfg = Fidelity::Quick.micro(conc, size);
                    cfg.faults = faults.clone();
                    Experiment::new(cfg).run(kind)
                })
                .collect();
        });
        (summaries, ms)
    };
    let plain = run_grid(None).0;
    let (no_plan, empty_plan) = time_pair(
        || run_grid(None).1,
        || {
            let (empty, ms) = run_grid(Some(asyncinv::fault::FaultPlan::default()));
            assert_eq!(plain, empty, "empty fault plan must be bit-identical");
            ms
        },
    );
    let fault_plane = FaultRow {
        cells: cells.len(),
        runs: RUNS,
        overhead_pct: Spread::of_pairs(&no_plan, &empty_plan, overhead_pct),
        no_plan_ms: Spread::of(no_plan),
        empty_plan_ms: Spread::of(empty_plan),
    };
    println!(
        "\nfault plane: {} cells ({RUNS} runs, median [min–max])  no plan {} ms  \
         empty plan {} ms  overhead {:.1}% (summaries bit-identical)",
        fault_plane.cells,
        fault_plane.no_plan_ms,
        fault_plane.empty_plan_ms,
        fault_plane.overhead_pct
    );
    if fault_plane.overhead_pct.median > 1.0 {
        eprintln!(
            "warning: empty fault plan overhead {:.1}% exceeds the 1% budget",
            fault_plane.overhead_pct.median
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
    let run_spin = |fast_forward: bool| {
        let mut summaries = Vec::new();
        let ms = time_ms(|| {
            summaries = spin_cells
                .iter()
                .flat_map(|cfg| {
                    let exp = Experiment::new(cfg.clone()).fast_forward(fast_forward);
                    spinners.map(|kind| exp.run(kind))
                })
                .collect();
        });
        (summaries, ms)
    };
    let retired = run_spin(true).0;
    let (stepwise, fast_forward) = time_pair(
        || {
            let (stepwise, ms) = run_spin(false);
            assert_eq!(
                stepwise, retired,
                "the spin fast-forward must be bit-identical"
            );
            ms
        },
        || run_spin(true).1,
    );
    let spin_fast_forward = SpinRow {
        cells: retired.len(),
        runs: RUNS,
        speedup: Spread::of_pairs(&stepwise, &fast_forward, |s, f| s / f.max(1e-9)),
        stepwise_ms: Spread::of(stepwise),
        fast_forward_ms: Spread::of(fast_forward),
    };
    println!(
        "\nspin fast-forward: {} spinner cells (100 KB, LAN + 5 ms; {RUNS} runs, median \
         [min–max])  stepwise {} ms  fast-forward {} ms  speedup {:.2}x (summaries \
         bit-identical)",
        spin_fast_forward.cells,
        spin_fast_forward.stepwise_ms,
        spin_fast_forward.fast_forward_ms,
        spin_fast_forward.speedup
    );

    // --- 5c. The DAG driver on the benchmark's social graph. ---
    // `scenarios/dag_social.json` over the benchmark's 1 s window, seeded
    // as the benchmark seeds its first Guarded and first Storm cell
    // (cells 32 and 48 of `multi_tier` at seed 1).
    let social: ServiceGraph =
        serde_json::from_str(include_str!("../../../../scenarios/dag_social.json"))
            .expect("the social scenario parses");
    let dag_run = |storm: bool| {
        let mut g = social.clone();
        g.arrivals.measure = SimDuration::from_secs(1);
        g.seed = mix64(1 ^ mix64(if storm { 48 } else { 32 }));
        if storm {
            for e in &mut g.edges {
                e.budget_ratio = 0.0;
                e.hedge = None;
            }
        }
        DagRun::new(g, FleetDriver::Interleaved)
    };
    let (guarded, storm) = (dag_run(false), dag_run(true));
    let calls = |run: &DagRun| {
        let s = run.run().summary;
        s.arrivals + s.per_tier.iter().map(|t| t.dispatches).sum::<u64>()
    };
    let (guarded_calls, storm_calls) = (calls(&guarded), calls(&storm));
    let (guarded_ms, storm_ms) = time_pair(
        || time_ms(|| drop(std::hint::black_box(guarded.run()))),
        || time_ms(|| drop(std::hint::black_box(storm.run()))),
    );
    let dag: Vec<DagRow> = [
        ("Guarded", &guarded, guarded_calls, guarded_ms),
        ("Storm", &storm, storm_calls, storm_ms),
    ]
    .into_iter()
    .map(|(policy, run, calls_dispatched, ms)| DagRow {
        policy: policy.into(),
        seed: run.graph().seed,
        runs: RUNS,
        host_cores,
        calls_dispatched,
        wall_ms: Spread::of(ms),
    })
    .collect();
    for row in &dag {
        println!(
            "\ndag/{}: social graph, 1 s window ({RUNS} runs, median [min–max])  {} ms  \
             {} calls dispatched",
            row.policy, row.wall_ms, row.calls_dispatched
        );
    }

    // --- 6. Record. ---
    let out = std::env::var("ASYNCINV_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".into());
    let report = KernelBench {
        hold,
        cpu_dispatch,
        tcp_send,
        grid: grid_rows,
        proactor,
        runner,
        observability,
        fleet_observability,
        fault_plane,
        spin_fast_forward,
        dag,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize kernel bench");
    std::fs::write(&out, json + "\n").expect("write kernel bench json");
    println!("\nwrote {out}");
}
