//! The layer pass: one serial run over one cell per configuration, timing
//! calls into each layer's public functions from this crate's own code.
//!
//! Nothing here reaches inside the simulator. A layer is timed either by a
//! span around an engine entry point (`Cluster::run`, `calibrate_tier`,
//! `SpanAssembler::assemble`, ...), by a forwarding wrapper the engine
//! calls through (a [`ServerModel`] around an architecture, an [`Observer`]
//! around a [`Recorder`]), or by a standalone probe that drives one
//! substrate through its public API (queue hold, CPU dispatch, TCP write).
//!
//! Layer metrics come from the workload's own layer cells. A metric whose
//! engine the workload never runs (RUBBoS on a micro workload, say) comes
//! from that engine's probe cell instead, so every layer metric is measured
//! on every workload; see `README.md` for the mapping.

use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use asyncinv::dag::{calibrate_tier, dag_audit, dag_span_audit, FleetDriver};
use asyncinv::fleet::{fleet_audit, BalancerKind, ParallelCluster};
use asyncinv::obs::{span_audit, Observer, Recorder, SpanAssembler, TraceEvent, TraceKind};
use asyncinv::substrate::{
    Burst, ConnId, CpuConfig, CpuModel, TcpConfig, TcpEvent, TcpNotice, TcpWorld, ThreadId,
};
use asyncinv::{Ctx, ServerKind, ServerModel, SimDuration, SimTime};
use asyncinv_simcore::Simulation;
use serde::Serialize;

use crate::inputs::{DagPolicy, Inputs};
use crate::stats::median;
use crate::timed::{panic_message, CellRun};
use crate::workload::{cell_seed, digest, spans_outcome, Cell, CellSpec, Outcome};

/// Wrappers time every this-many-th forwarded call and scale the sum up:
/// timing every call cost +60% in host time, which would distort the very
/// run being measured.
const SAMPLE_EVERY: u64 = 16;

/// Sampled host-time accounting shared by the two forwarding wrappers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallClock {
    /// Calls forwarded.
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
    /// Read-to-read time of the clock itself, taken right after each
    /// sampled call so it reflects the same cache and pipeline state.
    clock_ns: u64,
}

impl CallClock {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let after = Instant::now();
        self.sampled_ns += (end - start).as_nanos() as u64;
        self.clock_ns += (after - end).as_nanos() as u64;
        self.sampled += 1;
        r
    }

    /// Estimated host nanoseconds spent in all forwarded calls, net of the
    /// clock's own read-to-read time.
    pub fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net = self.sampled_ns.saturating_sub(self.clock_ns) as f64;
        net / self.sampled as f64 * self.calls as f64
    }
}

/// A [`ServerModel`] that forwards every callback to an architecture and
/// samples the host time of the request-path callbacks (`on_request`,
/// `on_writable`, `on_burst`).
pub struct TimedServer {
    inner: Box<dyn ServerModel>,
    /// The request-path callback clock.
    pub clock: CallClock,
}

impl std::fmt::Debug for TimedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedServer")
            .field("server", &self.inner.name())
            .field("clock", &self.clock)
            .finish()
    }
}

impl TimedServer {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ServerModel>) -> Self {
        TimedServer {
            inner,
            clock: CallClock::default(),
        }
    }
}

impl ServerModel for TimedServer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.inner.init(ctx, conns);
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_request(ctx, conn));
    }

    fn on_writable(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_writable(ctx, conn));
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId, tag: u64) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_burst(ctx, tid, tag));
    }

    fn debug_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.debug_counters()
    }

    fn uring_stats(&self) -> Option<asyncinv_uring::UringCounters> {
        self.inner.uring_stats()
    }
}

/// An [`Observer`] that forwards everything to a [`Recorder`] and samples
/// the host time of [`Observer::record`].
#[derive(Debug)]
pub struct TimedObserver {
    /// The wrapped recorder.
    pub inner: Recorder,
    /// The `record` clock.
    pub clock: CallClock,
}

impl TimedObserver {
    /// Wraps `inner`.
    pub fn new(inner: Recorder) -> Self {
        TimedObserver {
            inner,
            clock: CallClock::default(),
        }
    }
}

impl Observer for TimedObserver {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
    fn record(&mut self, ev: TraceEvent) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.record(ev));
    }
    fn run_window(&mut self, start: SimTime, end: SimTime) {
        self.inner.run_window(start, end);
    }
    fn window_open(&mut self, now: SimTime) {
        self.inner.window_open(now);
    }
    fn thread_name(&mut self, thread: usize, name: &str) {
        self.inner.thread_name(thread, name);
    }
    fn counter(&mut self, name: &str, value: u64) {
        self.inner.counter(name, value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.inner.gauge(name, value);
    }
    fn sample(&mut self, name: &str, value: u64) {
        self.inner.sample(name, value);
    }
}

/// One timed interval of the layer pass.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer entry point (or `cell` for a cell's root span).
    pub name: String,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began. For an aggregated span (the
    /// sampled callbacks of one cell) `end_ns - start_ns` is the estimated
    /// total, laid from the parent's start.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Label of the cell the span belongs to.
    pub cell: String,
}

/// Keeps the layer pass's spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cell: String,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: String::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cell: self.cell.clone(),
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64)
    }

    /// Adds an aggregated child span of `ns` estimated nanoseconds under
    /// the current span.
    pub fn aggregate(&mut self, name: &str, ns: f64) {
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + ns as u64,
            parent,
            cell: self.cell.clone(),
        });
    }

    /// Total and self time per span name, in recording order of first
    /// appearance. Self time is a span's duration minus the time its
    /// children cover.
    pub fn self_times(&self) -> Vec<(String, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(String, f64, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let total = (s.end_ns - s.start_ns) as f64;
            let own = total - c.min(s.end_ns - s.start_ns) as f64;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += total;
                    e.2 += own;
                }
                None => out.push((s.name.clone(), total, own)),
            }
        }
        out
    }

    /// The spans as JSON Lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&serde_json::to_string(s).expect("spans serialize"));
            out.push('\n');
        }
        out
    }
}

/// Raw layer measurements summed over cells.
#[derive(Debug, Default, Clone)]
struct Acc {
    // servers: micro cells
    srv_plain_ns: f64,
    srv_arch_ns: f64,
    srv_callbacks: u64,
    srv_completions: u64,
    // engine counters from traced runs
    events: u64,
    events_plain_ns: f64,
    events_completions: u64,
    cs: u64,
    cs_completions: u64,
    writes: u64,
    zero_writes: u64,
    writes_completions: u64,
    // uring: Proactor micro cells
    crossings: f64,
    crossings_completions: u64,
    // fleet
    fleet_cells: u64,
    fleet_ns: f64,
    retries: u64,
    routes: u64,
    hedges: u64,
    hedge_cancels: u64,
    par_seq_ns: f64,
    par_ns: f64,
    // obs
    traced_ns: f64,
    untraced_ns: f64,
    record_ns: f64,
    record_calls: u64,
    obs_events: u64,
    obs_completions: u64,
    span_cells: u64,
    assemble_ns: f64,
    span_traced_ns: f64,
    audit_ns: f64,
    ring_bytes: f64,
    // dag
    dag_cells: u64,
    cal_ns: f64,
    dag_run_ns: f64,
    joins: u64,
    dispatches: u64,
    attempts: u64,
    roots: u64,
    // rubbos
    rubbos_cells: u64,
    rubbos_ns: f64,
    rubbos_events: u64,
    rubbos_completions: u64,
    // the wrappers' own cost
    wrapped_ns: f64,
    unwrapped_ns: f64,
}

fn ratio(n: f64, d: f64) -> Option<f64> {
    (d > 0.0).then(|| n / d)
}

impl Acc {
    /// Every layer metric this accumulator can compute, in declaration
    /// order (`None` where no cell exercised the layer).
    fn metrics(&self, probes: &Probes) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let f = |n: u64| n as f64;
        vec![
            (
                "servers.arch_ns_per_req",
                "ns",
                ratio(self.srv_arch_ns, f(self.srv_completions)),
            ),
            (
                "servers.engine_ns_per_req",
                "ns",
                ratio(
                    self.srv_plain_ns - self.srv_arch_ns,
                    f(self.srv_completions),
                ),
            ),
            (
                "servers.callbacks_per_req",
                "count",
                ratio(f(self.srv_callbacks), f(self.srv_completions)),
            ),
            (
                "simcore.events_per_req",
                "count",
                ratio(f(self.events), f(self.events_completions)),
            ),
            (
                "simcore.ns_per_event",
                "ns",
                ratio(self.events_plain_ns, f(self.events)),
            ),
            ("simcore.hold_ns_1k", "ns", Some(probes.hold_ns_1k)),
            ("simcore.hold_ns_100k", "ns", Some(probes.hold_ns_100k)),
            (
                "cpu.cs_per_req",
                "count",
                ratio(f(self.cs), f(self.cs_completions)),
            ),
            ("cpu.dispatch_ns", "ns", Some(probes.dispatch_ns)),
            (
                "tcp.writes_per_req",
                "count",
                ratio(f(self.writes), f(self.writes_completions)),
            ),
            (
                "tcp.useful_write_ratio",
                "ratio",
                ratio(f(self.writes - self.zero_writes), f(self.writes)),
            ),
            ("tcp.write_ns_100kb", "ns", Some(probes.write_ns_100kb)),
            (
                "uring.crossings_per_req",
                "count",
                ratio(self.crossings, f(self.crossings_completions)),
            ),
            (
                "fleet.run_ms",
                "ms",
                ratio(self.fleet_ns / 1e6, f(self.fleet_cells)),
            ),
            (
                "fleet.retry_ratio",
                "ratio",
                ratio(f(self.retries), f(self.routes)),
            ),
            (
                "fleet.hedge_waste",
                "ratio",
                ratio(f(self.hedge_cancels), f(self.hedges)),
            ),
            (
                "fleet.parallel_speedup",
                "ratio",
                ratio(self.par_seq_ns, self.par_ns),
            ),
            (
                "obs.trace_overhead",
                "ratio",
                ratio(self.traced_ns, self.untraced_ns).map(|r| r - 1.0),
            ),
            (
                "obs.record_ns",
                "ns",
                ratio(self.record_ns, f(self.record_calls)),
            ),
            (
                "obs.events_per_req",
                "count",
                ratio(f(self.obs_events), f(self.obs_completions)),
            ),
            (
                "obs.span_fold_share",
                "ratio",
                ratio(self.assemble_ns, self.span_traced_ns),
            ),
            (
                "obs.audit_ms",
                "ms",
                ratio(self.audit_ns / 1e6, f(self.span_cells)),
            ),
            (
                "obs.ring_mb",
                "MB",
                ratio(self.ring_bytes / 1e6, f(self.span_cells)),
            ),
            (
                "dag.calibrate_share",
                "ratio",
                ratio(self.cal_ns, self.dag_run_ns),
            ),
            (
                "dag.compose_ms",
                "ms",
                ratio((self.dag_run_ns - self.cal_ns) / 1e6, f(self.dag_cells)),
            ),
            (
                "dag.useful_ratio",
                "ratio",
                ratio(f(self.joins), f(self.dispatches)),
            ),
            (
                "dag.attempts_per_root",
                "count",
                ratio(f(self.attempts), f(self.roots)),
            ),
            (
                "rubbos.run_ms",
                "ms",
                ratio(self.rubbos_ns / 1e6, f(self.rubbos_cells)),
            ),
            (
                "rubbos.events_per_req",
                "count",
                ratio(f(self.rubbos_events), f(self.rubbos_completions)),
            ),
            (
                "bench.layer_pass_overhead",
                "ratio",
                ratio(self.wrapped_ns, self.unwrapped_ns).map(|r| r - 1.0),
            ),
        ]
    }
}

/// The standalone substrate probes: fixed inputs on every workload.
#[derive(Debug, Clone, Copy)]
struct Probes {
    hold_ns_1k: f64,
    hold_ns_100k: f64,
    dispatch_ns: f64,
    write_ns_100kb: f64,
}

/// Nanoseconds per hold (pop the earliest event, push a successor) on
/// the simulation kernel's default queue at a standing population.
fn hold_ns(population: u64) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut sim = Simulation::new();
    for i in 0..population {
        sim.schedule(SimDuration::from_nanos(i.wrapping_mul(997) % 1_000_000), i);
    }
    let hold = |sim: &mut Simulation<u64>| {
        let (_, v) = sim.next_event().expect("population is constant");
        sim.schedule(SimDuration::from_nanos(1 + v % 2048), v);
        v
    };
    // Warm the structure before timing.
    for _ in 0..population.max(HOLDS / 4) {
        hold(&mut sim);
    }
    let mut batches = Vec::new();
    let mut acc = 0u64;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..HOLDS / 5 {
            acc = acc.wrapping_add(hold(&mut sim));
        }
        batches.push(start.elapsed().as_nanos() as f64 / (HOLDS / 5) as f64);
    }
    std::hint::black_box(acc);
    median(&batches)
}

/// Nanoseconds per CPU-model submit → dispatch → complete cycle of one
/// thread on one core.
fn dispatch_ns() -> f64 {
    const CYCLES: usize = 100_000;
    let mut cpu = CpuModel::new(CpuConfig::single_core());
    let tid = cpu.spawn_thread("probe");
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..CYCLES / 5 {
            cpu.submit(
                now,
                tid,
                Burst::user(SimDuration::from_micros(1)),
                i as u64,
                &mut out,
            );
            while let Some((t, ev)) = out.pop() {
                now = t;
                if cpu.on_event(now, ev, &mut out).is_some() {
                    cpu.finish_turn(now, tid, &mut out);
                }
            }
        }
        batches.push(start.elapsed().as_nanos() as f64 / (CYCLES / 5) as f64);
    }
    std::hint::black_box(cpu.stats());
    median(&batches)
}

/// Nanoseconds per `socket.write()` call while pushing a 100 KB response
/// through a fresh default connection, replaying its ACK and delivery
/// events in time order.
fn write_ns_100kb() -> f64 {
    const RESPONSES: usize = 200;
    const TOTAL: usize = 100 * 1024;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut ns = 0u128;
        let mut calls = 0u64;
        for _ in 0..RESPONSES / 5 {
            let start = Instant::now();
            let mut world = TcpWorld::new(TcpConfig::default());
            let conn = world.open(SimTime::ZERO);
            let mut out: Vec<(SimTime, TcpEvent)> = Vec::new();
            let mut pending: Vec<(SimTime, TcpEvent)> = Vec::new();
            let mut accepted = world.write(SimTime::ZERO, conn, TOTAL, &mut out);
            let mut delivered = 0;
            while delivered < TOTAL {
                pending.append(&mut out);
                let i = (0..pending.len())
                    .min_by_key(|&i| pending[i].0)
                    .expect("undelivered bytes have pending events");
                let (now, ev) = pending.swap_remove(i);
                match world.on_event(now, ev, &mut out) {
                    TcpNotice::SpaceFreed { space, .. } if space > 0 && accepted < TOTAL => {
                        accepted += world.write(now, conn, TOTAL - accepted, &mut out);
                    }
                    TcpNotice::Delivered { bytes, .. } => delivered += bytes,
                    TcpNotice::SpaceFreed { .. } => {}
                }
            }
            ns += start.elapsed().as_nanos();
            calls += world.stats().write_calls;
        }
        batches.push(ns as f64 / calls as f64);
    }
    median(&batches)
}

/// What the layer pass produced.
#[derive(Debug)]
pub struct LayerPass {
    /// Every layer metric: (name, unit, value).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Layer cells (workload and probe) attempted.
    pub attempted: u64,
    /// Layer cells that panicked or failed a check.
    pub failed: u64,
    /// Why cells failed: (cell label, reason).
    pub failures: Vec<(String, String)>,
    /// The pass's spans.
    pub tracer: Tracer,
}

/// Probe cells for the engines `cells` never runs: the layers of those
/// engines are measured on these instead.
pub fn probe_cells(inputs: &Inputs, seed: u64, cells: &[CellSpec]) -> Vec<CellSpec> {
    let lacks = |f: fn(&Cell) -> bool| !cells.iter().any(|c| f(&c.cell));
    let s = cell_seed(seed, 0);
    let mut probes: Vec<(String, Cell)> = Vec::new();
    if lacks(|c| matches!(c, Cell::Micro { .. })) {
        // Every architecture at 64 users, with a 1 s window.
        let mut inp = inputs.micro_small.clone();
        inp.base.warmup = SimDuration::from_millis(100);
        inp.base.measure = SimDuration::from_secs(1);
        for &kind in &inp.kinds {
            let label = format!("micro/{}/c64", kind.paper_name());
            probes.push((label, Cell::micro(&inp, kind, 64, SimDuration::ZERO, s)));
        }
    }
    if lacks(|c| matches!(c, Cell::Spans { .. })) {
        let p2c = BalancerKind::PowerOfTwoChoices { seed: 0x5eed };
        let cell = Cell::spans(&inputs.fleet_spans, ServerKind::NettyLike, p2c, s);
        probes.push(("spans/NettyServer/power-of-two".into(), cell));
    }
    let mt = &inputs.multi_tier;
    if lacks(|c| matches!(c, Cell::Rubbos { .. })) {
        let users = mt.rubbos_users[mt.rubbos_users.len() / 2];
        let cell = Cell::rubbos(mt, ServerKind::AsyncPool, users, s);
        probes.push((format!("rubbos/sTomcat-Async/u{users}"), cell));
    }
    if lacks(|c| matches!(c, Cell::Dag { .. })) {
        probes.push(("dag/Guarded".into(), Cell::dag(mt, DagPolicy::Guarded, s)));
    }
    probes
        .into_iter()
        .enumerate()
        .map(|(i, (label, cell))| CellSpec {
            index: i,
            seed_index: 0,
            label: format!("probe/{label}"),
            cell,
        })
        .collect()
}

/// Runs the layer pass over the layer cells of `cells` (seed number 0 of
/// each group) plus `probes`. `timed` holds each cell's result in the
/// timed pass; the layer pass's plain rerun must reproduce it.
pub fn run(cells: &[CellSpec], probes: &[CellSpec], timed: &[CellRun]) -> LayerPass {
    let probe_vals = Probes {
        hold_ns_1k: hold_ns(1_000),
        hold_ns_100k: hold_ns(100_000),
        dispatch_ns: dispatch_ns(),
        write_ns_100kb: write_ns_100kb(),
    };
    let mut tracer = Tracer::default();
    let mut own = Acc::default();
    let mut probe_acc = Acc::default();
    let mut pass = LayerPass {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        tracer: Tracer::default(),
    };
    // The parallel fleet driver runs 6-10x slower than the interleaved
    // one, so it reruns only the first fleet layer cell of each
    // architecture.
    let mut parallel_seen: Vec<(bool, ServerKind)> = Vec::new();
    let layer_cells = cells
        .iter()
        .filter(|c| c.seed_index == 0)
        .map(|c| (c, false));
    for (spec, is_probe) in layer_cells.chain(probes.iter().map(|c| (c, true))) {
        let parallel = match spec.cell {
            Cell::Fleet { kind, .. } | Cell::Spans { kind, .. } => {
                let first = !parallel_seen.contains(&(is_probe, kind));
                parallel_seen.push((is_probe, kind));
                first
            }
            _ => false,
        };
        let acc = if is_probe { &mut probe_acc } else { &mut own };
        let expected = match timed.get(spec.index) {
            Some(Ok(o)) if !is_probe => Some(o.digest),
            _ => None,
        };
        pass.attempted += 1;
        tracer.cell = spec.label.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("cell", |tr| layer_cell(tr, acc, spec, parallel))
        }));
        let problem = match result {
            Err(p) => Some(format!("panicked: {}", panic_message(&*p))),
            Ok((Err(e), _)) => Some(e),
            Ok((Ok(out), _)) => match expected {
                Some(d) if d != out.digest => {
                    Some("layer-pass rerun differs from the timed pass".to_string())
                }
                _ => out.problem,
            },
        };
        // A panic unwinds past the span bookkeeping: close what it left open.
        tracer.stack.clear();
        if let Some(p) = problem {
            pass.failed += 1;
            pass.failures.push((spec.label.clone(), p));
        }
    }
    let own_m = own.metrics(&probe_vals);
    let probe_m = probe_acc.metrics(&probe_vals);
    for ((name, unit, v), (_, _, pv)) in own_m.into_iter().zip(probe_m) {
        match v.or(pv) {
            Some(x) => pass.metrics.push((name, unit, x)),
            None => {
                pass.failed += 1;
                pass.failures
                    .push((name.to_string(), "no cell exercised this layer".to_string()));
            }
        }
    }
    pass.tracer = tracer;
    pass
}

/// Sums a [`Recorder`]'s exact per-kind totals.
fn recorder_events(rec: &Recorder) -> u64 {
    TraceKind::ALL.iter().map(|&k| rec.total(k)).sum()
}

/// Adds the engine counters a traced run published to `acc`.
fn add_counters(acc: &mut Acc, rec: &Recorder, completions: u64, plain_ns: f64) {
    let reg = rec.registry();
    if let Some(ev) = reg.counter("events_processed") {
        acc.events += ev;
        acc.events_completions += completions;
        acc.events_plain_ns += plain_ns;
    }
    if let Some(cs) = reg.counter("context_switches") {
        acc.cs += cs;
        acc.cs_completions += completions;
    }
    if let (Some(w), Some(z)) = (reg.counter("write_calls"), reg.counter("zero_writes")) {
        acc.writes += w;
        acc.zero_writes += z;
        acc.writes_completions += completions;
    }
    acc.obs_events += recorder_events(rec);
    acc.obs_completions += completions;
}

/// Runs `run` reporting into a [`TimedObserver`] around `rec`, inside an
/// `obs.run_observed` span, and adds the sampled `record` time to `acc`.
/// Also books the tracing cost: the traced run against the untraced one,
/// and the observed run (the wrapper's cost) against the traced one.
fn observed<R>(
    tr: &mut Tracer,
    acc: &mut Acc,
    rec: Recorder,
    (untraced_ns, traced_ns): (f64, f64),
    run: impl FnOnce(&mut TimedObserver) -> R,
) -> R {
    let (r, observed_ns) = tr.span("obs.run_observed", |tr| {
        let mut obs = TimedObserver::new(rec);
        let r = run(&mut obs);
        let ns = obs.clock.estimated_ns();
        tr.aggregate("obs.record", ns);
        acc.record_ns += ns;
        acc.record_calls += obs.clock.calls;
        r
    });
    acc.untraced_ns += untraced_ns;
    acc.traced_ns += traced_ns;
    acc.unwrapped_ns += traced_ns;
    acc.wrapped_ns += observed_ns;
    r
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Runs one cell's layer measurements and returns the plain run's outcome
/// (the one the timed pass must agree with).
fn layer_cell(
    tr: &mut Tracer,
    acc: &mut Acc,
    spec: &CellSpec,
    parallel: bool,
) -> Result<Outcome, String> {
    match &spec.cell {
        Cell::Micro { exp, kind } => {
            let kind = *kind;
            let cfg = exp.config();
            let (plain, plain_ns) = tr.span("servers.run", |_| exp.run(kind));
            let ((wrapped, clock), wrapped_ns) = tr.span("servers.run_model", |tr| {
                let mut server = TimedServer::new(kind.build(cfg));
                let s = exp.run_model(&mut server);
                tr.aggregate("servers.callbacks", server.clock.estimated_ns());
                (s, server.clock)
            });
            check(wrapped == plain, "ServerModel wrapper changed the summary")?;
            let ((traced, rec), traced_ns) = tr.span("obs.run_traced", |_| exp.run_traced(kind));
            check(traced == plain, "traced run changed the summary")?;
            let rec_again = Recorder::with_sampling(cfg.trace_capacity, cfg.trace_sample);
            let obs_run = observed(tr, acc, rec_again, (plain_ns, traced_ns), |obs| {
                exp.run_observed(kind, obs)
            });
            check(obs_run == plain, "Observer wrapper changed the summary")?;
            let n = plain.completions;
            acc.srv_plain_ns += plain_ns;
            acc.srv_arch_ns += clock.estimated_ns();
            acc.srv_callbacks += clock.calls;
            acc.srv_completions += n;
            acc.wrapped_ns += wrapped_ns;
            acc.unwrapped_ns += plain_ns;
            if kind == ServerKind::Proactor {
                acc.crossings += plain.crossings_per_req * n as f64;
                acc.crossings_completions += n;
            }
            add_counters(acc, &rec, n, plain_ns);
            Ok(Outcome::new(digest(&plain), n))
        }
        Cell::Fleet { cluster, kind } | Cell::Spans { cluster, kind } => {
            let kind = *kind;
            let cell = &cluster.config().cell;
            let (plain, plain_ns) = tr.span("fleet.run", |_| cluster.run(kind));
            let ((traced, rec), traced_ns) =
                tr.span("obs.run_traced", |_| cluster.run_traced(kind));
            check(traced == plain, "traced fleet run changed the summary")?;
            add_counters(acc, &rec, plain.fleet.completions, plain_ns);
            let outcome = if matches!(spec.cell, Cell::Spans { .. }) {
                let (forest, assemble_ns) =
                    tr.span("obs.assemble", |_| SpanAssembler::assemble(&rec));
                let ((span_ok, fleet_ok), audit_ns) = tr.span("obs.audit", |tr| {
                    let span_ok =
                        tr.span("obs.span_audit", |_| span_audit("", &rec, &forest).pass());
                    let fleet_ok =
                        tr.span("obs.fleet_audit", |_| fleet_audit(&traced, &rec).pass());
                    (span_ok.0, fleet_ok.0)
                });
                check(span_ok, "span audit failed")?;
                check(fleet_ok, "fleet audit failed")?;
                acc.span_cells += 1;
                acc.assemble_ns += assemble_ns;
                acc.span_traced_ns += traced_ns;
                acc.audit_ns += audit_ns;
                acc.ring_bytes += (rec.ring().len() * size_of::<TraceEvent>()) as f64;
                spans_outcome(&plain, &forest)
            } else {
                Outcome::new(digest(&plain), plain.fleet.completions)
            };
            // A full span ring is tens of MB: free it before the next run.
            drop(rec);
            let rec_again = Recorder::with_sampling(cell.trace_capacity, cell.trace_sample);
            let obs_run = observed(tr, acc, rec_again, (plain_ns, traced_ns), |obs| {
                cluster.run_observed(kind, obs)
            });
            check(
                obs_run == plain,
                "Observer wrapper changed the fleet summary",
            )?;
            if parallel {
                let (par, par_ns) = tr.span("fleet.parallel_run", |_| {
                    ParallelCluster::new(cluster.config().clone())
                        .threads(2)
                        .run(kind)
                });
                check(par == plain, "parallel fleet driver diverged")?;
                acc.par_seq_ns += plain_ns;
                acc.par_ns += par_ns;
            }
            let f = &plain.fleet;
            acc.fleet_cells += 1;
            acc.fleet_ns += plain_ns;
            acc.retries += f.retries;
            acc.routes += f.shard_routes;
            acc.hedges += f.hedges;
            acc.hedge_cancels += f.hedge_cancels;
            Ok(outcome)
        }
        Cell::Rubbos { exp, kind } => {
            let kind = *kind;
            let (plain, plain_ns) = tr.span("rubbos.run", |_| exp.run(kind));
            let ((traced, rec), traced_ns) = tr.span("obs.run_traced", |_| exp.run_traced(kind, 0));
            check(traced == plain, "traced RUBBoS run changed the summary")?;
            let obs_run = observed(tr, acc, Recorder::new(0), (plain_ns, traced_ns), |obs| {
                exp.run_observed(kind, obs)
            });
            check(
                obs_run == plain,
                "Observer wrapper changed the RUBBoS summary",
            )?;
            let n = plain.completions;
            acc.rubbos_cells += 1;
            acc.rubbos_ns += plain_ns;
            if let Some(ev) = rec.registry().counter("events_processed") {
                acc.rubbos_events += ev;
                acc.rubbos_completions += n;
            }
            add_counters(acc, &rec, n, plain_ns);
            Ok(Outcome::new(digest(&plain), n))
        }
        Cell::Dag { run } => {
            let graph = run.graph();
            let (_, cal_ns) = tr.span("dag.calibrate", |tr| {
                for t in 0..graph.tiers.len() {
                    tr.span("dag.calibrate_tier", |_| {
                        calibrate_tier(graph, t, FleetDriver::Interleaved)
                    });
                }
            });
            let (plain, run_ns) = tr.span("dag.run", |_| run.run().summary);
            let ((traced, rec), traced_ns) = tr.span("obs.run_traced", |_| run.run_traced());
            check(
                traced.summary == plain,
                "traced DAG run changed the summary",
            )?;
            let (audits_ok, _) = tr.span("obs.audit", |_| {
                dag_audit(&traced.summary, &rec).pass()
                    && dag_span_audit(&traced.spans, &rec).pass()
            });
            check(audits_ok, "DAG trace or span audit failed")?;
            // The ring capacity `DagRun::run_traced` uses.
            let rec_again = Recorder::new(1 << 20);
            let obs_run = observed(tr, acc, rec_again, (run_ns, traced_ns), |obs| {
                run.run_observed(obs).summary
            });
            check(obs_run == plain, "Observer wrapper changed the DAG summary")?;
            acc.dag_cells += 1;
            acc.cal_ns += cal_ns;
            acc.dag_run_ns += run_ns;
            for t in &plain.per_tier {
                acc.joins += t.joins;
                acc.dispatches += t.dispatches;
            }
            acc.attempts += traced
                .spans
                .iter()
                .map(|s| s.attempts.len() as u64)
                .sum::<u64>();
            acc.roots += traced.spans.len() as u64;
            acc.obs_events += recorder_events(&rec);
            acc.obs_completions += plain.completed;
            Ok(Outcome::new(digest(&plain), plain.completed))
        }
    }
}
