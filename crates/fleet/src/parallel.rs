//! Parallel-in-time fleet execution with a conservative-sync kernel.
//!
//! [`ParallelCluster`] runs the same fleet simulation as [`Cluster`] but
//! advances the shards' machines on multiple OS threads — and still
//! produces the **bit-identical** [`FleetSummary`] and trace stream,
//! event for event, seq for seq (property-tested by
//! `tests/prop_parallel.rs`).
//!
//! # How it works
//!
//! The interleaved driver owns one global event queue ordered by
//! `(time, push seq)`. This driver splits that queue by *who the event
//! touches*:
//!
//! * **Machine lanes** (one per shard): CPU scheduler events, TCP events
//!   and in-band `SetConn` spec deliveries. These mutate only that
//!   shard's machine ([`ShardCore`]) — never the shared fleet state.
//! * **Coordinator lane**: client-pool, arrival, timeout, retry, hedge
//!   and fault events. These touch shared state (balancer, retry
//!   budget, request table, admission control) and per-shard control
//!   state ([`ShardCtl`]).
//!
//! Execution alternates two steps:
//!
//! 1. **Phase** (parallel): every shard's worker pops its machine lane
//!    strictly below a per-shard horizon `H_s` and advances its core,
//!    recording per event the trace output and the events it would have
//!    pushed. A worker stops early at any *completion* (a response's
//!    last byte delivered), because settling a completion needs the
//!    coordinator.
//! 2. **Replay** (serial): the coordinator re-derives the exact
//!    interleaved global order by merging the coordinator lane, the
//!    untouched machine-lane heads and the phase recordings, assigning
//!    true push seqs in interleaved push order. Recorded machine events
//!    just forward their recordings; everything else runs live.
//!
//! # Lookahead (why the horizon is safe)
//!
//! Every cross-shard influence on shard `s`'s machine travels as bytes
//! with one-way network latency, or is a scheduled arrival/fault already
//! in the queue. With `F0` the global minimum event time, shard `s` may
//! therefore run freely below
//!
//! ```text
//! H_s = min( earliest queued Arrive/Fault on s,   // known admissions
//!            F0 + one_way,                        // not-yet-sent bytes
//!            window boundary )                    // warm-up end / run end
//! ```
//!
//! because (a) new attempts routed during replay land at
//! `>= F0 + one_way`, (b) admissions and faults on `s` are barriers by
//! the first term, and (c) a completion stops the worker, so everything
//! a completion triggers happens before the lane is touched again. The
//! `SetConn` deferral in [`Cluster`] (the request spec travels with the
//! bytes instead of teleporting into `conn_info` at route time) is what
//! makes the machine lanes free of cross-shard writes inside a window.
//!
//! A 1-shard fleet is delegated to the interleaved driver: with one
//! shard the spec is applied inline at route time (a single-server
//! `Experiment` is that shape), so its machine lane is not phase-pure — and
//! parallel-in-time across one shard is an empty dimension anyway.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc;

use asyncinv_cpu::{CpuEvent, CpuModel, SchedEvent, ThreadId};
use asyncinv_fault::CompiledPlan;
use asyncinv_metrics::{ClassSummary, CpuShare, Histogram, RunSummary, ThroughputWindow};
use asyncinv_obs::{NoopObserver, Observer, Recorder, TraceEvent, TraceKind, NONE};
use asyncinv_servers::{
    trace_codes, ConnInfo, Ctx, ServerKind, ServiceProfile, ShedConfig, ShedPolicy,
};
use asyncinv_simcore::{configured_threads, SimTime};
use asyncinv_tcp::{ConnId, TcpEvent, TcpNotice, TcpWorld};
use asyncinv_workload::{
    ClientEvent, ClientPool, RetryBudget, RtoEstimator, TimeoutMode, UserId,
};

use crate::cluster::{
    Cluster, Counters, FleetConfig, FleetReq, FleetSummary, Serving, ShardObs, ShardSummary,
};
use crate::schedule::{SchedulePlan, ScheduleTrace, VirtualSched};
use crate::hedge::HedgeEstimator;

/// A machine-lane event: pure per-shard machine work.
#[derive(Debug, Clone, Copy)]
enum MachineEv {
    /// Scheduler event on the shard's CPU model.
    Cpu(CpuEvent),
    /// Network event on the shard's TCP world.
    Tcp(TcpEvent),
    /// A request spec lands in the shard's per-connection parse state.
    SetConn { user: u32, info: ConnInfo },
}

/// A coordinator-lane event: touches shared fleet state.
#[derive(Debug, Clone, Copy)]
enum CoordEv {
    Client(ClientEvent),
    Arrive { shard: u32, user: u32, epoch: u32 },
    Timeout { shard: u32, user: u32, epoch: u32 },
    Retry { shard: u32, user: u32, epoch: u32 },
    HedgeFire { shard: u32, user: u32, epoch: u32 },
    Fault { shard: u32, idx: u32 },
}

/// Heap slot ordered by `(time, seq)` ascending (min-heap via reversed
/// `Ord`). `seq` is the interleaved driver's push counter, so popping
/// slots reproduces its exact FIFO-at-equal-times order.
struct Slot<E> {
    t: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min slot on top.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// One shard's machine: everything a phase worker may read or write.
/// Moves wholesale between the coordinator and its worker; no other
/// thread ever aliases it.
struct ShardCore {
    server: Box<dyn asyncinv_servers::ServerModel>,
    cpu: CpuModel,
    tcp: TcpWorld,
    conn_info: Vec<ConnInfo>,
    serving: Vec<Option<Serving>>,
    cpu_out: Vec<(SimTime, CpuEvent)>,
    tcp_out: Vec<(SimTime, TcpEvent)>,
    thread_base: u32,
}

/// One shard's control state: only the coordinator touches it (admission
/// queue, attempt epochs, shed plane, windowed counters).
struct ShardCtl {
    epoch: Vec<u32>,
    pending_arrival: Vec<Option<u32>>,
    accept_q: VecDeque<(usize, u32)>,
    serving_count: usize,
    shed: Option<ShedConfig>,
    compiled: CompiledPlan,
    cnt: Counters,
}

/// Where a phase-recorded event came from: a real lane entry (with its
/// pre-assigned seq) or a push made by an earlier event of the same
/// phase (its seq is assigned when that parent replays).
#[derive(Debug, Clone, Copy)]
enum Origin {
    Real(u64),
    SelfPush { parent: usize, idx: usize },
}

/// One machine event a phase worker executed, with everything the
/// coordinator needs to splice it into the global order: the trace
/// events it emitted (thread ids already offset), the events it pushed
/// (in the interleaved flush order: cpu then tcp), which of those pushes
/// the worker itself consumed, and whether it completed a response.
struct RecEvent {
    t: u64,
    origin: Origin,
    obs: Vec<TraceEvent>,
    cpu_push: Vec<(SimTime, CpuEvent)>,
    tcp_push: Vec<(SimTime, TcpEvent)>,
    push_taken: Vec<bool>,
    completed: Option<usize>,
}

/// A shard's phase recordings being consumed by the replay. `assigned`
/// memoizes the true seqs given to each recorded event's pushes, which
/// is how a `SelfPush` head knows its own seq.
#[derive(Default)]
struct Stream {
    recs: Vec<RecEvent>,
    cursor: usize,
    assigned: Vec<Vec<u64>>,
}

fn stream_head(st: &Stream) -> Option<(u64, u64)> {
    let rec = st.recs.get(st.cursor)?;
    let seq = match rec.origin {
        Origin::Real(q) => q,
        // The parent is always earlier in the stream, so its pushes'
        // seqs were assigned before this head is ever compared.
        Origin::SelfPush { parent, idx } => st.assigned[parent][idx],
    };
    Some((rec.t, seq))
}

/// Observer that buffers trace events in a worker, offsetting shard-local
/// thread ids like [`ShardObs`] does on the live path.
struct VecObs {
    buf: Vec<TraceEvent>,
    base: u32,
    on: bool,
}

impl Observer for VecObs {
    fn is_enabled(&self) -> bool {
        self.on
    }
    fn record(&mut self, mut ev: TraceEvent) {
        if ev.thread != NONE {
            ev.thread += self.base;
        }
        self.buf.push(ev);
    }
}

/// Executes one machine-lane event against a shard core. Shared verbatim
/// by phase workers and the coordinator's live path — one body, so the
/// two paths cannot diverge. Returns the connection whose response just
/// finished delivering, if any; settling that is the caller's job (the
/// coordinator's, always).
fn machine_step(
    core: &mut ShardCore,
    profile: &ServiceProfile,
    obs: &mut dyn Observer,
    obs_on: bool,
    now: SimTime,
    ev: MachineEv,
) -> Option<usize> {
    macro_rules! dispatch_core {
        ($method:ident $(, $arg:expr)*) => {{
            // Phase workers cannot see the global queue head: no spin
            // retirement (the horizon is `now`).
            let mut cx = Ctx::for_driver(
                now,
                now,
                &mut core.cpu,
                &mut core.tcp,
                profile,
                &core.conn_info,
                &mut core.cpu_out,
                &mut core.tcp_out,
                obs,
                obs_on,
                // Machine lanes replay in phase workers with no shedder
                // state; `Ctx::shed_active` is only guaranteed during
                // `on_request`, which always runs on the coordinator.
                false,
            );
            core.server.$method(&mut cx $(, $arg)*);
        }};
    }
    match ev {
        MachineEv::SetConn { user, info } => {
            core.conn_info[user as usize] = info;
            None
        }
        MachineEv::Cpu(ev) => {
            let done = core.cpu.on_event(now, ev, &mut core.cpu_out);
            if let Some(done) = done {
                dispatch_core!(on_burst, done.thread, done.tag);
                core.cpu.finish_turn(now, done.thread, &mut core.cpu_out);
            }
            None
        }
        MachineEv::Tcp(ev) => {
            let notice = core.tcp.on_event(now, ev, &mut core.tcp_out);
            match notice {
                TcpNotice::SpaceFreed { conn, space } => {
                    if space > 0 {
                        if obs_on {
                            obs.record(
                                TraceEvent::new(now, TraceKind::SendBufDrain)
                                    .conn(conn.0)
                                    .class(core.conn_info[conn.0].class)
                                    .arg(space as u64),
                            );
                        }
                        dispatch_core!(on_writable, conn);
                    }
                    None
                }
                TcpNotice::Delivered { conn, bytes } => {
                    let sv = core.serving[conn.0]
                        .as_mut()
                        .expect("delivery for a connection with no response in service");
                    debug_assert!(bytes <= sv.remaining, "over-delivery");
                    sv.remaining -= bytes;
                    if sv.remaining == 0 {
                        Some(conn.0)
                    } else {
                        None
                    }
                }
            }
        }
    }
}

/// A phase's input: the shard core plus the lane entries below its
/// horizon, pre-popped in `(t, seq)` order.
struct PhaseJob {
    shard: usize,
    core: ShardCore,
    real: Vec<(u64, u64, MachineEv)>,
    horizon: u64,
}

/// A phase's output: the core (advanced), the recordings, and the handed
/// entries the worker did not reach (it stopped at a completion).
struct PhaseOut {
    shard: usize,
    core: ShardCore,
    recs: Vec<RecEvent>,
    leftover: Vec<(u64, u64, MachineEv)>,
}

/// Entry in a worker's overlay heap: a push made during the phase, not
/// yet part of any real lane. Ordered `(t, ord)`; `ord` is the in-phase
/// push counter, which matches the seq order the replay will assign.
struct Overlay {
    t: u64,
    ord: u64,
    ev: MachineEv,
    parent: usize,
    idx: usize,
}

impl PartialEq for Overlay {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.ord) == (other.t, other.ord)
    }
}
impl Eq for Overlay {}
impl PartialOrd for Overlay {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Overlay {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t, other.ord).cmp(&(self.t, self.ord))
    }
}

/// Advances one shard's machine through its window: pops the handed lane
/// entries merged with the phase's own pushes (overlay), strictly below
/// the horizon, stopping early at a completion.
///
/// Tie-break at equal times: real entries before overlay entries —
/// real seqs were assigned before this window opened, overlay pushes
/// receive strictly larger seqs during the upcoming replay.
fn run_phase(mut job: PhaseJob, profile: &ServiceProfile, obs_on: bool) -> PhaseOut {
    let mut recs: Vec<RecEvent> = Vec::new();
    let mut overlay: BinaryHeap<Overlay> = BinaryHeap::new();
    let mut vobs = VecObs {
        buf: Vec::new(),
        base: job.core.thread_base,
        on: obs_on,
    };
    let mut i = 0usize;
    let mut ord = 0u64;
    loop {
        // Pick the next event below the horizon. Handed entries are all
        // below it by construction; overlay pushes may not be.
        let take_overlay = match (job.real.get(i), overlay.peek()) {
            (Some(r), Some(o)) => o.t < r.0,
            (Some(_), None) => false,
            (None, Some(o)) => {
                if o.t < job.horizon {
                    true
                } else {
                    break;
                }
            }
            (None, None) => break,
        };
        let (t, origin, ev) = if take_overlay {
            let o = overlay.pop().expect("peeked above");
            recs[o.parent].push_taken[o.idx] = true;
            (o.t, Origin::SelfPush { parent: o.parent, idx: o.idx }, o.ev)
        } else {
            let (t, seq, ev) = job.real[i];
            i += 1;
            (t, Origin::Real(seq), ev)
        };
        let now = SimTime::from_nanos(t);
        let completed = machine_step(&mut job.core, profile, &mut vobs, obs_on, now, ev);
        let mut rec = RecEvent {
            t,
            origin,
            obs: Vec::new(),
            cpu_push: Vec::new(),
            tcp_push: Vec::new(),
            push_taken: Vec::new(),
            completed,
        };
        if obs_on {
            // Same order as the interleaved flush: callback trace events
            // first (already in the buffer), then the scheduler log.
            let base = job.core.thread_base as usize;
            for se in job.core.cpu.drain_sched_log() {
                match se {
                    SchedEvent::Switch { at, thread, migrated } => vobs.buf.push(
                        TraceEvent::new(at, TraceKind::ThreadDispatch)
                            .thread(thread.0 + base)
                            .arg(migrated as u64),
                    ),
                    SchedEvent::Park { at, thread } => vobs
                        .buf
                        .push(TraceEvent::new(at, TraceKind::ThreadPark).thread(thread.0 + base)),
                }
            }
            rec.obs = std::mem::take(&mut vobs.buf);
        }
        let parent = recs.len();
        if completed.is_some() {
            // A completion ends the phase with its effects still
            // buffered in the core's out-queues: the coordinator reloads
            // them and runs the settle + flush live, reproducing the
            // interleaved arm exactly. Nothing is pushed to the overlay.
            debug_assert!(rec.obs.is_empty(), "a delivery emits no trace before settling");
            rec.cpu_push = std::mem::take(&mut job.core.cpu_out);
            rec.tcp_push = std::mem::take(&mut job.core.tcp_out);
            rec.push_taken = vec![false; rec.cpu_push.len() + rec.tcp_push.len()];
            recs.push(rec);
            break;
        }
        let mut idx = 0usize;
        for (pt, pe) in job.core.cpu_out.drain(..) {
            debug_assert!(pt >= now, "machine pushed into the past");
            overlay.push(Overlay {
                t: pt.as_nanos(),
                ord,
                ev: MachineEv::Cpu(pe),
                parent,
                idx,
            });
            ord += 1;
            idx += 1;
            rec.cpu_push.push((pt, pe));
        }
        for (pt, pe) in job.core.tcp_out.drain(..) {
            debug_assert!(pt >= now, "machine pushed into the past");
            overlay.push(Overlay {
                t: pt.as_nanos(),
                ord,
                ev: MachineEv::Tcp(pe),
                parent,
                idx,
            });
            ord += 1;
            idx += 1;
            rec.tcp_push.push((pt, pe));
        }
        rec.push_taken = vec![false; idx];
        recs.push(rec);
    }
    PhaseOut {
        shard: job.shard,
        core: job.core,
        recs,
        leftover: job.real.split_off(i),
    }
}

/// Runs a sharded fleet on multiple OS threads, bit-identical to
/// [`Cluster`].
///
/// ```
/// use asyncinv_fleet::{BalancerKind, Cluster, FleetConfig, ParallelCluster};
/// use asyncinv_servers::{ExperimentConfig, ServerKind};
///
/// let mut cell = ExperimentConfig::micro(8, 1024);
/// cell.warmup = asyncinv_simcore::SimDuration::from_millis(100);
/// cell.measure = asyncinv_simcore::SimDuration::from_millis(400);
/// let cfg = FleetConfig::new(cell, 4, BalancerKind::RoundRobin);
/// let serial = Cluster::new(cfg.clone()).run(ServerKind::SingleThread);
/// let parallel = ParallelCluster::new(cfg).threads(2).run(ServerKind::SingleThread);
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelCluster {
    cfg: FleetConfig,
    threads: usize,
}

/// Wall-clock read for driver *health telemetry only*. The value never
/// feeds the simulation, its event order, or any result — health numbers
/// live outside [`FleetSummary`] and the deterministic trace entirely.
#[allow(clippy::disallowed_methods)]
fn wall_now() -> std::time::Instant {
    // detlint::allow(wall-clock, reason = "driver health telemetry: per-worker busy/idle wall time is reported out-of-band in ParallelHealth and never influences simulation state, event order, or results -- bit-identity is property-tested in tests/prop_parallel.rs")
    std::time::Instant::now()
}

/// Wall-clock busy/idle accounting for one phase worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Phase jobs this worker ran.
    pub jobs: u64,
    /// Wall nanoseconds spent inside `run_phase`.
    pub busy_ns: u64,
    /// Wall nanoseconds spent stalled on the job channel (including the
    /// final wait for shutdown while the coordinator replays and
    /// aggregates).
    pub idle_ns: u64,
}

/// Health counters for one parallel drive: how wide the
/// conservative-sync windows actually were, how often the lookahead
/// horizon (rather than the window boundary) limited them, and where the
/// worker pool's wall time went.
///
/// Two kinds of numbers live here, deliberately **outside** the
/// [`FleetSummary`] and the metrics registry (which are bit-compared
/// against the interleaved driver):
///
/// * *Deterministic* sim-side stats — batches, jobs, window widths in
///   virtual nanoseconds, horizon-limited counts — identical across
///   reruns and worker counts.
/// * *Wall-clock* stats — per-worker and coordinator busy/stall time —
///   which vary run to run and exist to answer the ROADMAP question
///   "where does the parallel speedup go?".
///
/// [`ParallelHealth::publish`] writes both as gauges into an observer on
/// demand (the `latency_breakdown` bench does this); nothing publishes
/// them implicitly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelHealth {
    /// Worker threads the drive was configured to use.
    pub workers_configured: u64,
    /// Parallel window batches formed.
    pub batches: u64,
    /// Phase jobs dispatched (≤ shards per batch).
    pub jobs: u64,
    /// Sum over jobs of the window width `horizon − f0` (virtual ns).
    pub window_ns_sum: u64,
    /// Widest single window (virtual ns).
    pub window_ns_max: u64,
    /// Jobs whose horizon was clipped by lookahead (next admission/fault
    /// or `f0 + one_way`) rather than the warm-up/run boundary — the
    /// windows the ROADMAP item "scale the parallel fleet wins" would
    /// need to widen.
    pub horizon_limited: u64,
    /// Coordinator wall nanoseconds inside `run_phase` (helping).
    pub coord_busy_ns: u64,
    /// Coordinator wall nanoseconds blocked on worker results.
    pub coord_wait_ns: u64,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerHealth>,
}

impl ParallelHealth {
    /// Mean conservative-sync window width in virtual nanoseconds.
    pub fn window_ns_mean(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.window_ns_sum as f64 / self.jobs as f64
        }
    }

    /// Publishes every health number as gauges (`parallel_*`) into an
    /// observer. Opt-in: wall-clock gauges are nondeterministic, so this
    /// must never run inside a bit-compared pipeline.
    pub fn publish(&self, obs: &mut dyn Observer) {
        obs.gauge("parallel_workers", self.workers_configured as f64);
        obs.gauge("parallel_batches", self.batches as f64);
        obs.gauge("parallel_jobs", self.jobs as f64);
        obs.gauge("parallel_window_ns_mean", self.window_ns_mean());
        obs.gauge("parallel_window_ns_max", self.window_ns_max as f64);
        obs.gauge("parallel_horizon_limited", self.horizon_limited as f64);
        obs.gauge("parallel_coord_busy_ns", self.coord_busy_ns as f64);
        obs.gauge("parallel_coord_wait_ns", self.coord_wait_ns as f64);
        for (i, w) in self.workers.iter().enumerate() {
            obs.gauge(&format!("parallel_worker{i}_jobs"), w.jobs as f64);
            obs.gauge(&format!("parallel_worker{i}_busy_ns"), w.busy_ns as f64);
            obs.gauge(&format!("parallel_worker{i}_idle_ns"), w.idle_ns as f64);
        }
    }
}

impl ParallelCluster {
    /// Creates a parallel cluster from its configuration. Thread count
    /// defaults to [`configured_threads`] (the `ASYNCINV_THREADS`
    /// policy).
    ///
    /// # Panics
    ///
    /// Panics if [`FleetConfig::validate`] rejects the configuration.
    pub fn new(cfg: FleetConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FleetConfig: {e}");
        }
        ParallelCluster { cfg, threads: 0 }
    }

    /// Overrides the worker thread count (`0` = the environment policy).
    /// The result never depends on this — only wall-clock time does.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs a homogeneous fleet of the given architecture.
    pub fn run(&self, kind: ServerKind) -> FleetSummary {
        self.run_mixed(&vec![kind; self.cfg.shards])
    }

    /// Runs a heterogeneous fleet, one architecture per shard.
    ///
    /// # Panics
    ///
    /// Panics if `kinds.len() != shards`.
    pub fn run_mixed(&self, kinds: &[ServerKind]) -> FleetSummary {
        let mut obs = NoopObserver;
        self.drive(kinds, &mut obs)
    }

    /// Runs with structured tracing, returning the [`Recorder`]. The
    /// trace is bit-identical to [`Cluster::run_traced`]'s.
    pub fn run_traced(&self, kind: ServerKind) -> (FleetSummary, Recorder) {
        let (summary, rec, _) = self.run_traced_health(kind);
        (summary, rec)
    }

    /// [`ParallelCluster::run`] plus the driver's [`ParallelHealth`].
    pub fn run_health(&self, kind: ServerKind) -> (FleetSummary, ParallelHealth) {
        let mut obs = NoopObserver;
        self.drive_health(&vec![kind; self.cfg.shards], &mut obs)
    }

    /// [`ParallelCluster::run_traced`] plus the driver's
    /// [`ParallelHealth`]. The trace and summary stay bit-identical to the
    /// interleaved driver's; only the health sidecar is extra.
    pub fn run_traced_health(&self, kind: ServerKind) -> (FleetSummary, Recorder, ParallelHealth) {
        let mut rec =
            Recorder::with_sampling(self.cfg.cell.trace_capacity, self.cfg.cell.trace_sample);
        let (summary, health) = self.drive_health(&vec![kind; self.cfg.shards], &mut rec);
        (summary, rec, health)
    }

    /// Runs a homogeneous fleet reporting into a caller-supplied observer.
    pub fn run_observed(&self, kind: ServerKind, obs: &mut dyn Observer) -> FleetSummary {
        self.drive(&vec![kind; self.cfg.shards], obs)
    }

    /// Runs a homogeneous fleet under an explicit [`SchedulePlan`]: the
    /// virtual scheduler permutes the execution and fold-back order of
    /// every conservative-sync batch, and the caller asserts the result is
    /// byte-identical to the canonical schedule's. Scheduled runs are
    /// single-threaded — the permutation *is* the modeled concurrency, so
    /// OS threads would only add wall-clock noise on top of it.
    ///
    /// # Panics
    ///
    /// Panics on 1-shard fleets: those delegate to the interleaved driver
    /// and have no batch schedule to explore.
    pub fn run_scheduled(&self, kind: ServerKind, plan: SchedulePlan) -> (FleetSummary, ScheduleTrace) {
        let mut obs = NoopObserver;
        self.drive_scheduled(kind, plan, &mut obs)
    }

    /// [`ParallelCluster::run_scheduled`] with structured tracing: the
    /// returned [`Recorder`] must be bit-identical to
    /// [`ParallelCluster::run_traced`]'s under every plan.
    pub fn run_traced_scheduled(
        &self,
        kind: ServerKind,
        plan: SchedulePlan,
    ) -> (FleetSummary, Recorder, ScheduleTrace) {
        let mut rec =
            Recorder::with_sampling(self.cfg.cell.trace_capacity, self.cfg.cell.trace_sample);
        let (summary, trace) = self.drive_scheduled(kind, plan, &mut rec);
        (summary, rec, trace)
    }

    fn drive_scheduled(
        &self,
        kind: ServerKind,
        plan: SchedulePlan,
        obs: &mut dyn Observer,
    ) -> (FleetSummary, ScheduleTrace) {
        assert!(
            self.cfg.shards > 1,
            "schedule exploration needs a multi-shard fleet (1-shard fleets have no batches)"
        );
        let kinds = vec![kind; self.cfg.shards];
        let mut sched = VirtualSched::new(plan);
        let (summary, _) = self.drive_parallel(&kinds, obs, 1, Some(&mut sched));
        (summary, sched.trace)
    }

    fn drive(&self, kinds: &[ServerKind], obs: &mut dyn Observer) -> FleetSummary {
        self.drive_health(kinds, obs).0
    }

    fn drive_health(
        &self,
        kinds: &[ServerKind],
        obs: &mut dyn Observer,
    ) -> (FleetSummary, ParallelHealth) {
        assert_eq!(kinds.len(), self.cfg.shards, "one architecture per shard");
        if self.cfg.shards == 1 {
            // One shard applies request specs inline at route time (the
            // single-server `Experiment` shape), so its machine lane is
            // not phase-pure — and there is nothing to parallelize.
            let summary = Cluster::new(self.cfg.clone()).drive(kinds, obs);
            return (summary, ParallelHealth::default());
        }
        let threads = if self.threads == 0 {
            configured_threads()
        } else {
            self.threads
        };
        self.drive_parallel(kinds, obs, threads, None)
    }

    #[allow(clippy::too_many_lines)]
    fn drive_parallel(
        &self,
        kinds: &[ServerKind],
        obs: &mut dyn Observer,
        threads: usize,
        mut sched: Option<&mut VirtualSched>,
    ) -> (FleetSummary, ParallelHealth) {
        let cfg = &self.cfg;
        let cell = &cfg.cell;
        let n = cell.clients.concurrency;
        let n_shards = cfg.shards;
        let multi = n_shards > 1;
        debug_assert!(multi, "1-shard fleets are delegated to Cluster");
        let warm_end = SimTime::ZERO + cell.warmup;
        let end = warm_end + cell.measure;
        let warm_end_n = warm_end.as_nanos();
        let end_n = end.as_nanos();

        let mut clients = ClientPool::new(cell.clients.clone());
        let mut bal = cfg.balancer.build(n_shards);

        let mut cores: Vec<Option<ShardCore>> = Vec::with_capacity(n_shards);
        let mut ctls: Vec<ShardCtl> = Vec::with_capacity(n_shards);
        for (s, kind) in kinds.iter().enumerate() {
            let mut tcp = TcpWorld::new(cell.tcp.clone());
            for _ in 0..n {
                tcp.open(SimTime::ZERO);
            }
            cores.push(Some(ShardCore {
                server: kind.build(cell),
                cpu: CpuModel::new(cell.cpu.clone()),
                tcp,
                conn_info: vec![ConnInfo::default(); n],
                serving: vec![None; n],
                cpu_out: Vec::new(),
                tcp_out: Vec::new(),
                thread_base: 0,
            }));
            ctls.push(ShardCtl {
                epoch: vec![0; n],
                pending_arrival: vec![None; n],
                accept_q: VecDeque::new(),
                serving_count: 0,
                shed: cfg
                    .shard_shed
                    .iter()
                    .find(|e| e.shard == s)
                    .map(|e| e.shed)
                    .or(cell.shed),
                compiled: cfg
                    .shard_faults
                    .iter()
                    .find(|e| e.shard == s)
                    .map(|e| e.plan.compile(n, &cell.tcp))
                    .unwrap_or_default(),
                cnt: Counters::default(),
            });
        }

        // Resilience plane, as in the interleaved driver (one client-wide
        // RTO estimator in `TimeoutMode::Rto`).
        let policy = cell.retry;
        let retry_on = policy.enabled();
        let timeout = policy.timeout.unwrap_or_default();
        let mut budget = RetryBudget::new(&policy);
        let mut rto = (retry_on && policy.timeout_mode == TimeoutMode::Rto)
            .then(|| RtoEstimator::new(&policy));

        // Hedge plane (fleet-only; validation requires shards >= 2).
        // Mirrors the interleaved driver: with `per_shard` the estimator
        // is keyed by shard (observe at the serving shard, delay from the
        // attempt's target shard).
        let hcfg = cfg.hedge.unwrap_or_default();
        let hedge_on = cfg.hedge.is_some();
        let mut hedge_est: Vec<HedgeEstimator> = (0..if hcfg.per_shard { n_shards } else { 1 })
            .map(|_| HedgeEstimator::new())
            .collect();
        macro_rules! hest {
            ($s:expr) => {
                hedge_est[if hcfg.per_shard { $s } else { 0 }]
            };
        }

        let mut req: Vec<Option<FleetReq>> = vec![None; n];
        let mut outstanding: Vec<u32> = vec![0; n_shards];
        let mut timeouts: u64 = 0;
        let mut retries: u64 = 0;
        let mut routes: u64 = 0;
        let mut hedges: u64 = 0;
        let mut hedge_cancels: u64 = 0;
        let mut shard_retries: u64 = 0;

        let mut cl_out: Vec<(SimTime, ClientEvent)> = Vec::new();

        let one_way = cell.tcp.one_way();
        let one_way_n = one_way.as_nanos();
        let mut window = ThroughputWindow::new(warm_end, end);
        let mut hist = Histogram::new();
        let n_classes = cell.clients.mix.classes().len();
        let mut class_hist: Vec<Histogram> = (0..n_classes).map(|_| Histogram::new()).collect();

        let obs_on = obs.is_enabled();
        if obs_on {
            obs.run_window(warm_end, end);
            for core in cores.iter_mut() {
                core.as_mut().expect("core checked in").cpu.record_sched(true);
            }
        }

        // The split queue: one push counter drives every lane, assigned
        // in the interleaved driver's exact push order.
        let mut seq: u64 = 0;
        let mut coord: BinaryHeap<Slot<CoordEv>> = BinaryHeap::new();
        let mut lanes: Vec<BinaryHeap<Slot<MachineEv>>> =
            (0..n_shards).map(|_| BinaryHeap::new()).collect();
        // Lazy min-heaps of queued Arrive/Fault times per shard (the
        // "known admissions" horizon term). Entries go stale when their
        // event is consumed; stale entries only shrink horizons, never
        // unsoundly widen them, and are pruned once below the window base.
        let mut touch: Vec<BinaryHeap<std::cmp::Reverse<u64>>> =
            (0..n_shards).map(|_| BinaryHeap::new()).collect();
        let mut streams: Vec<Stream> = (0..n_shards).map(|_| Stream::default()).collect();
        let mut live_recs: usize = 0;
        let mut events_processed: u64 = 0;

        macro_rules! sched_machine {
            ($t:expr, $s:expr, $ev:expr) => {{
                seq += 1;
                lanes[$s].push(Slot { t: $t.as_nanos(), seq, ev: $ev });
            }};
        }
        macro_rules! sched_coord {
            ($t:expr, $ev:expr) => {{
                seq += 1;
                coord.push(Slot { t: $t.as_nanos(), seq, ev: $ev });
            }};
        }
        // Arrive/Fault pushes also feed the horizon heaps.
        macro_rules! sched_touch {
            ($t:expr, $s:expr, $ev:expr) => {{
                touch[$s].push(std::cmp::Reverse($t.as_nanos()));
                sched_coord!($t, $ev);
            }};
        }

        macro_rules! dispatch {
            ($now:expr, $s:expr, $method:ident $(, $arg:expr)*) => {{
                let sh = cores[$s].as_mut().expect("core checked in");
                let mut sobs = ShardObs { inner: &mut *obs, base: sh.thread_base };
                let mut cx = Ctx::for_driver(
                    $now,
                    $now,
                    &mut sh.cpu,
                    &mut sh.tcp,
                    &cell.profile,
                    &sh.conn_info,
                    &mut sh.cpu_out,
                    &mut sh.tcp_out,
                    &mut sobs,
                    obs_on,
                    ctls[$s].shed.is_some_and(|sc| {
                        ctls[$s].serving_count >= sc.max_concurrent
                            || !ctls[$s].accept_q.is_empty()
                    }),
                );
                sh.server.$method(&mut cx $(, $arg)*);
            }};
        }

        // The interleaved loop's flush order: sched logs (trace only), then
        // every shard's cpu_out, then every shard's tcp_out, then client
        // events.
        macro_rules! flush {
            () => {
                if obs_on {
                    for core in cores.iter_mut() {
                        let sh = core.as_mut().expect("core checked in");
                        let base = sh.thread_base as usize;
                        for se in sh.cpu.drain_sched_log() {
                            match se {
                                SchedEvent::Switch { at, thread, migrated } => obs.record(
                                    TraceEvent::new(at, TraceKind::ThreadDispatch)
                                        .thread(thread.0 + base)
                                        .arg(migrated as u64),
                                ),
                                SchedEvent::Park { at, thread } => obs.record(
                                    TraceEvent::new(at, TraceKind::ThreadPark)
                                        .thread(thread.0 + base),
                                ),
                            }
                        }
                    }
                }
                for s in 0..n_shards {
                    let sh = cores[s].as_mut().expect("core checked in");
                    let drained: Vec<_> = sh.cpu_out.drain(..).collect();
                    for (t, e) in drained {
                        sched_machine!(t, s, MachineEv::Cpu(e));
                    }
                }
                for s in 0..n_shards {
                    let sh = cores[s].as_mut().expect("core checked in");
                    let drained: Vec<_> = sh.tcp_out.drain(..).collect();
                    for (t, e) in drained {
                        sched_machine!(t, s, MachineEv::Tcp(e));
                    }
                }
                let drained: Vec<_> = cl_out.drain(..).collect();
                for (t, e) in drained {
                    sched_coord!(t, CoordEv::Client(e));
                }
            };
        }

        macro_rules! attempt_current {
            ($u:expr, $s:expr, $e:expr) => {
                req[$u]
                    .as_ref()
                    .is_some_and(|t| t.primary == ($s, $e) || t.hedge == Some(($s, $e)))
            };
        }

        // Charges one hedged-pair cancellation: attempt `$cs` of user `$u`
        // (class `$cls`) lost the race or was torn down. The single textual
        // increment site for `hedge_cancels` in this driver (detlint's
        // counter-conservation pass enforces exactly one), shared by hedge
        // teardown and the hedge-won path below.
        macro_rules! hedge_cancelled {
            ($now:expr, $u:expr, $cs:expr, $cls:expr) => {{
                outstanding[$cs] -= 1;
                hedge_cancels += 1;
                ctls[$cs].cnt.hedge_cancels += 1;
                if obs_on {
                    obs.record(
                        TraceEvent::new($now, TraceKind::HedgeCancel)
                            .conn($u)
                            .class($cls)
                            .arg($cs as u64),
                    );
                }
            }};
        }

        macro_rules! cancel_hedge {
            ($now:expr, $u:expr) => {{
                if let Some(t) = req[$u].as_mut() {
                    if let Some((hs, _he)) = t.hedge.take() {
                        let cls = t.class;
                        hedge_cancelled!($now, $u, hs, cls);
                    }
                }
            }};
        }

        macro_rules! do_abandon {
            ($now:expr, $u:expr, $attempts:expr) => {{
                cancel_hedge!($now, $u);
                if let Some(t) = req[$u].take() {
                    let (ps, _pe) = t.primary;
                    if obs_on {
                        obs.record(
                            TraceEvent::new($now, TraceKind::Abandon)
                                .conn($u)
                                .class(t.class)
                                .arg($attempts as u64),
                        );
                    }
                    outstanding[ps] -= 1;
                    ctls[ps].epoch[$u] += 1;
                    ctls[ps].pending_arrival[$u] = None;
                    clients.abandon($now, UserId($u), &mut cl_out);
                }
            }};
        }

        macro_rules! retry_verdict {
            ($now:expr, $u:expr, $fs:expr) => {{
                cancel_hedge!($now, $u);
                let attempt = req[$u].as_ref().map_or(0, |t| t.attempt);
                if retry_on && attempt < policy.max_retries && budget.try_withdraw() {
                    let backoff = clients.retry_backoff(&policy, attempt);
                    retries += 1;
                    let cls = req[$u].as_ref().map_or(0, |t| t.class);
                    if obs_on {
                        obs.record(
                            TraceEvent::new($now, TraceKind::Retry)
                                .conn($u)
                                .class(cls)
                                .arg(backoff.as_nanos()),
                        );
                    }
                    let target = if multi {
                        bal.pick_excluding($u, cls, &outstanding, $fs)
                    } else {
                        0
                    };
                    outstanding[$fs] -= 1;
                    outstanding[target] += 1;
                    ctls[target].epoch[$u] += 1;
                    let ne = ctls[target].epoch[$u];
                    if let Some(t) = req[$u].as_mut() {
                        t.primary = (target, ne);
                        t.attempt += 1;
                    }
                    if multi && target != $fs {
                        shard_retries += 1;
                        ctls[target].cnt.shard_retries += 1;
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::ShardRetry)
                                    .conn($u)
                                    .class(cls)
                                    .arg(target as u64),
                            );
                        }
                    }
                    sched_coord!(
                        $now + backoff,
                        CoordEv::Retry { shard: target as u32, user: $u as u32, epoch: ne }
                    );
                } else {
                    do_abandon!($now, $u, attempt + 1);
                }
            }};
        }

        macro_rules! start_serving {
            ($now:expr, $s:expr, $conn:expr, $ep:expr) => {{
                {
                    let sh = cores[$s].as_mut().expect("core checked in");
                    sh.serving[$conn] = Some(Serving {
                        epoch: $ep,
                        remaining: sh.conn_info[$conn].response_bytes,
                        reject: false,
                        shorted: false,
                    });
                    ctls[$s].serving_count += 1;
                }
                dispatch!($now, $s, on_request, ConnId($conn));
            }};
        }

        macro_rules! conn_class {
            ($s:expr, $conn:expr) => {
                cores[$s].as_ref().expect("core checked in").conn_info[$conn].class
            };
        }

        // Sole increment site for the per-shard `shed_dropped` counter: every
        // shed disposition (drop-new, evict, evict-fallback) funnels here so
        // the counter stays conserved across policies.
        macro_rules! shed_drop {
            ($now:expr, $s:expr, $conn:expr, $code:expr) => {{
                ctls[$s].cnt.shed_dropped += 1;
                if obs_on {
                    obs.record(
                        TraceEvent::new($now, TraceKind::Shed)
                            .conn($conn)
                            .class(conn_class!($s, $conn))
                            .arg($code),
                    );
                }
            }};
        }

        macro_rules! admit {
            ($now:expr, $s:expr, $conn:expr, $ep:expr) => {{
                if cores[$s].as_ref().expect("core checked in").serving[$conn].is_some() {
                    ctls[$s].pending_arrival[$conn] = Some($ep);
                } else if let Some(sc) = ctls[$s].shed {
                    if ctls[$s].serving_count < sc.max_concurrent {
                        start_serving!($now, $s, $conn, $ep);
                    } else if ctls[$s].accept_q.len() < sc.queue_cap {
                        ctls[$s].accept_q.push_back(($conn, $ep));
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::QueueEnter)
                                    .conn($conn)
                                    .class(conn_class!($s, $conn))
                                    .arg(trace_codes::Q_ACCEPT),
                            );
                        }
                    } else {
                        match sc.policy {
                            ShedPolicy::DropNew => {
                                shed_drop!($now, $s, $conn, trace_codes::SHED_DROP_NEW);
                            }
                            ShedPolicy::DropOldest => {
                                if let Some((oc, _oe)) = ctls[$s].accept_q.pop_front() {
                                    if obs_on {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::QueueExit)
                                                .conn(oc)
                                                .class(conn_class!($s, oc))
                                                .arg(trace_codes::Q_ACCEPT),
                                        );
                                    }
                                    shed_drop!($now, $s, oc, trace_codes::SHED_EVICT);
                                    ctls[$s].accept_q.push_back(($conn, $ep));
                                    if obs_on {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::QueueEnter)
                                                .conn($conn)
                                                .class(conn_class!($s, $conn))
                                                .arg(trace_codes::Q_ACCEPT),
                                        );
                                    }
                                } else {
                                    shed_drop!($now, $s, $conn, trace_codes::SHED_DROP_NEW);
                                }
                            }
                            ShedPolicy::RejectFast => {
                                ctls[$s].cnt.rejected += 1;
                                if obs_on {
                                    let waited = req[$conn].as_ref().map_or(0, |t| {
                                        $now.duration_since(t.sent_at).as_nanos()
                                    });
                                    obs.record(
                                        TraceEvent::new($now, TraceKind::Rejected)
                                            .conn($conn)
                                            .class(conn_class!($s, $conn))
                                            .arg(waited),
                                    );
                                }
                                let written = {
                                    let sh = cores[$s].as_mut().expect("core checked in");
                                    sh.tcp.write($now, ConnId($conn), sc.reject_bytes, &mut sh.tcp_out)
                                };
                                if obs_on {
                                    obs.record(
                                        TraceEvent::new($now, TraceKind::WriteCall)
                                            .conn($conn)
                                            .class(conn_class!($s, $conn))
                                            .arg(written as u64),
                                    );
                                    if written == 0 {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::WriteSpin)
                                                .conn($conn)
                                                .class(conn_class!($s, $conn)),
                                        );
                                    }
                                }
                                if written > 0 {
                                    cores[$s].as_mut().expect("core checked in").serving[$conn] =
                                        Some(Serving {
                                            epoch: $ep,
                                            remaining: written,
                                            reject: true,
                                            shorted: false,
                                        });
                                }
                            }
                        }
                    }
                } else {
                    start_serving!($now, $s, $conn, $ep);
                }
            }};
        }

        macro_rules! drain_queue {
            ($now:expr, $s:expr) => {{
                if let Some(sc) = ctls[$s].shed {
                    while ctls[$s].serving_count < sc.max_concurrent {
                        let Some((qc, qe)) = ctls[$s].accept_q.pop_front() else {
                            break;
                        };
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::QueueExit)
                                    .conn(qc)
                                    .class(conn_class!($s, qc))
                                    .arg(trace_codes::Q_ACCEPT),
                            );
                        }
                        if cores[$s].as_ref().expect("core checked in").serving[qc].is_none()
                            && attempt_current!(qc, $s, qe)
                        {
                            start_serving!($now, $s, qc, qe);
                        }
                    }
                }
            }};
        }

        macro_rules! finish_serving {
            ($now:expr, $s:expr, $conn:expr) => {{
                let fin = cores[$s].as_mut().expect("core checked in").serving[$conn]
                    .take()
                    .expect("finish without serving");
                if !fin.reject {
                    ctls[$s].serving_count -= 1;
                }
                let is_primary =
                    req[$conn].as_ref().is_some_and(|t| t.primary == ($s, fin.epoch));
                let is_hedge =
                    req[$conn].as_ref().is_some_and(|t| t.hedge == Some(($s, fin.epoch)));
                if (is_primary || is_hedge) && !fin.shorted {
                    if fin.reject {
                        if is_primary {
                            retry_verdict!($now, $conn, $s);
                        } else {
                            cancel_hedge!($now, $conn);
                        }
                    } else {
                        let track = req[$conn].expect("matched without track");
                        let rt = $now.duration_since(track.sent_at);
                        if let Some(e) = rto.as_mut() {
                            e.observe(rt);
                        }
                        window.record($now);
                        if $now >= warm_end && $now < end {
                            hist.record(rt);
                            class_hist[conn_class!($s, $conn)].record(rt);
                        }
                        ctls[$s].cnt.completions += 1;
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::Completion)
                                    .conn($conn)
                                    .class(conn_class!($s, $conn))
                                    .arg(rt.as_nanos()),
                            );
                            if $now >= warm_end && $now < end {
                                obs.sample("rt_ns", rt.as_nanos());
                            }
                        }
                        if hedge_on {
                            hest!($s).observe(rt);
                        }
                        if is_primary {
                            cancel_hedge!($now, $conn);
                        } else {
                            // The hedge won the race; the primary attempt
                            // is the cancelled side of the pair.
                            let (ps, _pe) = track.primary;
                            hedge_cancelled!($now, $conn, ps, track.class);
                        }
                        outstanding[$s] -= 1;
                        req[$conn] = None;
                        clients.complete($now, UserId($conn), &mut cl_out);
                    }
                }
                if let Some(pe) = ctls[$s].pending_arrival[$conn].take() {
                    if attempt_current!($conn, $s, pe) {
                        admit!($now, $s, $conn, pe);
                    }
                }
                if !fin.reject {
                    drain_queue!($now, $s);
                }
            }};
        }

        macro_rules! route_new {
            ($now:expr, $spec:expr) => {{
                let u = $spec.user.0;
                let s = bal.pick(u, $spec.class, &outstanding);
                let info = ConnInfo {
                    response_bytes: $spec.response_bytes,
                    class: $spec.class,
                };
                // Always multi here: the spec travels with the bytes.
                sched_machine!(
                    $now + one_way,
                    s,
                    MachineEv::SetConn { user: u as u32, info }
                );
                ctls[s].epoch[u] += 1;
                let ep = ctls[s].epoch[u];
                req[u] = Some(FleetReq {
                    sent_at: $now,
                    attempt_sent: $now,
                    attempt: 0,
                    primary: (s, ep),
                    hedge: None,
                    response_bytes: $spec.response_bytes,
                    class: $spec.class,
                });
                outstanding[s] += 1;
                routes += 1;
                ctls[s].cnt.routes += 1;
                if obs_on {
                    obs.record(
                        TraceEvent::new($now, TraceKind::ShardRoute)
                            .conn(u)
                            .class($spec.class)
                            .arg(s as u64),
                    );
                }
                sched_touch!(
                    $now + one_way,
                    s,
                    CoordEv::Arrive { shard: s as u32, user: u as u32, epoch: ep }
                );
                if retry_on {
                    budget.deposit();
                    sched_coord!(
                        $now + rto.as_ref().map_or(timeout, |e| e.current()),
                        CoordEv::Timeout { shard: s as u32, user: u as u32, epoch: ep }
                    );
                }
                if hedge_on {
                    sched_coord!(
                        $now + hest!(s).delay(&hcfg),
                        CoordEv::HedgeFire { shard: s as u32, user: u as u32, epoch: ep }
                    );
                }
            }};
        }

        // Worker pool: long-lived phase workers over a scope so they can
        // borrow the profile. Jobs carry shard cores by move; results
        // carry them back — exclusive ownership at every instant.
        let workers = threads.min(n_shards).max(1);
        let mut health = ParallelHealth {
            workers_configured: workers as u64,
            ..ParallelHealth::default()
        };
        let (health_tx, health_rx) = mpsc::channel::<(usize, WorkerHealth)>();
        // detlint::allow(thread-spawn, reason = "conservative-sync phase workers: each advances one shard's machine below a horizon that provably excludes cross-shard influence, and the replay step re-derives the interleaved event order bitwise -- property-tested in tests/prop_parallel.rs")
        let summary = std::thread::scope(|scope| {
            let mut job_tx: Vec<mpsc::Sender<PhaseJob>> = Vec::new();
            let (res_tx, res_rx) = mpsc::channel::<PhaseOut>();
            if workers > 1 {
                let profile = &cell.profile;
                for w in 0..workers {
                    let (tx, rx) = mpsc::channel::<PhaseJob>();
                    job_tx.push(tx);
                    let res_tx = res_tx.clone();
                    let health_tx = health_tx.clone();
                    scope.spawn(move || {
                        let mut wh = WorkerHealth::default();
                        loop {
                            let wait = wall_now();
                            let job = rx.recv();
                            wh.idle_ns += wait.elapsed().as_nanos() as u64;
                            let Ok(job) = job else { break };
                            let busy = wall_now();
                            let out = run_phase(job, profile, obs_on);
                            wh.busy_ns += busy.elapsed().as_nanos() as u64;
                            wh.jobs += 1;
                            if res_tx.send(out).is_err() {
                                break;
                            }
                        }
                        let _ = health_tx.send((w, wh));
                    });
                }
            }
            drop(res_tx);

            // Init: bring up every shard's architecture, then the clients.
            let mut base = 0u32;
            // Not an iterator loop: `dispatch!` needs `cores` unborrowed,
            // and `thread_count` is only final after the shard's init.
            #[allow(clippy::needless_range_loop)]
            for s in 0..n_shards {
                cores[s].as_mut().expect("core checked in").thread_base = base;
                dispatch!(SimTime::ZERO, s, init, n);
                base += cores[s].as_ref().expect("core checked in").cpu.thread_count() as u32;
            }
            if obs_on {
                for (s, core) in cores.iter().enumerate() {
                    let sh = core.as_ref().expect("core checked in");
                    for i in 0..sh.cpu.thread_count() {
                        let name = sh.cpu.thread_name(ThreadId(i));
                        obs.thread_name(sh.thread_base as usize + i, &format!("s{s}/{name}"));
                    }
                }
            }
            clients.start(&mut cl_out);
            for s in 0..n_shards {
                for (i, op) in ctls[s].compiled.ops.iter().enumerate() {
                    let at = op.at;
                    touch[s].push(std::cmp::Reverse(at.as_nanos()));
                    seq += 1;
                    coord.push(Slot {
                        t: at.as_nanos(),
                        seq,
                        ev: CoordEv::Fault { shard: s as u32, idx: i as u32 },
                    });
                }
            }
            flush!();

            let mut cpu_snap: Vec<_> = cores
                .iter()
                .map(|c| *c.as_ref().expect("core checked in").cpu.stats())
                .collect();
            let mut tcp_snap: Vec<_> = cores
                .iter()
                .map(|c| c.as_ref().expect("core checked in").tcp.stats())
                .collect();
            let mut cnt_snap: Vec<Counters> = ctls.iter().map(|c| c.cnt).collect();
            let mut uring_snap: Vec<_> = cores
                .iter()
                .map(|c| {
                    c.as_ref()
                        .expect("core checked in")
                        .server
                        .uring_stats()
                        .unwrap_or_default()
                })
                .collect();
            let mut snapped = false;
            let mut timeouts_snap: u64 = 0;
            let mut retries_snap: u64 = 0;
            let mut routes_snap: u64 = 0;
            let mut hedges_snap: u64 = 0;
            let mut hedge_cancels_snap: u64 = 0;
            let mut shard_retries_snap: u64 = 0;
            let mut abandoned_snap: u64 = 0;
            let mut dropped_snap: u64 = 0;

            /// Which queue holds the current global minimum.
            enum Source {
                Coord,
                Lane(usize),
                Stream(usize),
            }

            loop {
                // Global minimum across the coordinator lane, every
                // machine lane and every recording stream — exactly the
                // interleaved queue's head.
                let mut next: Option<(u64, u64, Source)> =
                    coord.peek().map(|sl| (sl.t, sl.seq, Source::Coord));
                for s in 0..n_shards {
                    if let Some(sl) = lanes[s].peek() {
                        if next.as_ref().is_none_or(|(t, q, _)| (sl.t, sl.seq) < (*t, *q)) {
                            next = Some((sl.t, sl.seq, Source::Lane(s)));
                        }
                    }
                    if let Some((t, q)) = stream_head(&streams[s]) {
                        if next.as_ref().is_none_or(|(nt, nq, _)| (t, q) < (*nt, *nq)) {
                            next = Some((t, q, Source::Stream(s)));
                        }
                    }
                }

                if !snapped && next.as_ref().is_none_or(|(t, _, _)| *t >= warm_end_n) {
                    for (s, core) in cores.iter().enumerate() {
                        let sh = core.as_ref().expect("core checked in");
                        cpu_snap[s] = *sh.cpu.stats();
                        tcp_snap[s] = sh.tcp.stats();
                        cnt_snap[s] = ctls[s].cnt;
                        uring_snap[s] = sh.server.uring_stats().unwrap_or_default();
                    }
                    timeouts_snap = timeouts;
                    retries_snap = retries;
                    routes_snap = routes;
                    hedges_snap = hedges;
                    hedge_cancels_snap = hedge_cancels;
                    shard_retries_snap = shard_retries;
                    abandoned_snap = clients.abandoned();
                    dropped_snap = clients.dropped();
                    snapped = true;
                    if obs_on {
                        obs.window_open(warm_end);
                    }
                }

                let Some((t_n, _, source)) = next else {
                    break;
                };
                if t_n > end_n {
                    break;
                }
                let now = SimTime::from_nanos(t_n);

                // Conservative-sync window: when no recordings are
                // pending and the head is machine work, hand every
                // shard its lane entries below its horizon and run the
                // phases in parallel.
                if live_recs == 0 && matches!(source, Source::Lane(_)) {
                    let f0 = t_n;
                    let boundary = if snapped { end_n + 1 } else { warm_end_n };
                    let mut jobs: Vec<PhaseJob> = Vec::new();
                    for s in 0..n_shards {
                        while touch[s]
                            .peek()
                            .is_some_and(|std::cmp::Reverse(t)| *t < f0)
                        {
                            touch[s].pop();
                        }
                        let h = boundary
                            .min(f0.saturating_add(one_way_n))
                            .min(touch[s].peek().map_or(u64::MAX, |std::cmp::Reverse(t)| *t));
                        let mut real = Vec::new();
                        while lanes[s].peek().is_some_and(|sl| sl.t < h) {
                            let sl = lanes[s].pop().expect("peeked above");
                            real.push((sl.t, sl.seq, sl.ev));
                        }
                        if !real.is_empty() {
                            health.jobs += 1;
                            let width = h.saturating_sub(f0);
                            health.window_ns_sum += width;
                            health.window_ns_max = health.window_ns_max.max(width);
                            if h < boundary {
                                health.horizon_limited += 1;
                            }
                            jobs.push(PhaseJob {
                                shard: s,
                                core: cores[s].take().expect("core checked in"),
                                real,
                                horizon: h,
                            });
                        }
                    }
                    if !jobs.is_empty() {
                        health.batches += 1;
                        let expect = jobs.len();
                        // The coordinator helps: it keeps one job of every
                        // batch for itself instead of idling on `recv` —
                        // a lone job then never pays a worker hand-off at
                        // all, and a batch of k occupies k-1 workers plus
                        // this thread.
                        let outs: Vec<PhaseOut> = if workers > 1 && expect > 1 {
                            let mut jobs = jobs;
                            let mine = jobs.pop().expect("batch is non-empty");
                            for job in jobs {
                                job_tx[job.shard % workers]
                                    .send(job)
                                    .expect("phase worker alive");
                            }
                            let busy = wall_now();
                            let mut outs = vec![run_phase(mine, &cell.profile, obs_on)];
                            health.coord_busy_ns += busy.elapsed().as_nanos() as u64;
                            let wait = wall_now();
                            outs.extend(
                                (1..expect).map(|_| res_rx.recv().expect("phase worker alive")),
                            );
                            health.coord_wait_ns += wait.elapsed().as_nanos() as u64;
                            outs
                        } else if let Some(vs) = sched.as_deref_mut() {
                            // Scheduled mode: the virtual scheduler picks
                            // the order jobs execute and the order their
                            // outs fold back. Each job still runs exactly
                            // once and each out is consumed exactly once —
                            // only the orders move, which is precisely the
                            // freedom real OS workers have.
                            let busy = wall_now();
                            let (exec, cons) = vs.batch_orders(jobs.len());
                            let mut jobs: Vec<Option<PhaseJob>> =
                                jobs.into_iter().map(Some).collect();
                            let mut slots: Vec<Option<PhaseOut>> =
                                (0..jobs.len()).map(|_| None).collect();
                            for &i in &exec {
                                let job = jobs[i].take().expect("each job runs once");
                                slots[i] = Some(run_phase(job, &cell.profile, obs_on));
                            }
                            let outs = cons
                                .into_iter()
                                .map(|i| slots[i].take().expect("each out folds back once"))
                                .collect();
                            health.coord_busy_ns += busy.elapsed().as_nanos() as u64;
                            outs
                        } else {
                            let busy = wall_now();
                            let outs = jobs
                                .into_iter()
                                .map(|job| run_phase(job, &cell.profile, obs_on))
                                .collect();
                            health.coord_busy_ns += busy.elapsed().as_nanos() as u64;
                            outs
                        };
                        for out in outs {
                            let s = out.shard;
                            cores[s] = Some(out.core);
                            for (t, q, ev) in out.leftover {
                                lanes[s].push(Slot { t, seq: q, ev });
                            }
                            live_recs += out.recs.len();
                            streams[s] = Stream {
                                assigned: vec![Vec::new(); out.recs.len()],
                                recs: out.recs,
                                cursor: 0,
                            };
                        }
                        continue;
                    }
                    // Horizon collapsed to the head itself — fall through
                    // and process it live; the next iteration retries.
                }

                match source {
                    Source::Stream(s) => {
                        events_processed += 1;
                        live_recs -= 1;
                        let completed = {
                            let st = &mut streams[s];
                            let rec = &mut st.recs[st.cursor];
                            debug_assert_eq!(rec.t, t_n, "stream/replay misalignment");
                            if obs_on {
                                for e in rec.obs.drain(..) {
                                    obs.record(e);
                                }
                            }
                            rec.completed
                        };
                        if let Some(conn) = completed {
                            // Reload the recorded effects and settle live:
                            // identical to the interleaved Delivered arm
                            // (on_event pushes buffered, then finish, then
                            // flush).
                            {
                                let st = &mut streams[s];
                                let rec = &mut st.recs[st.cursor];
                                let cpu_push = std::mem::take(&mut rec.cpu_push);
                                let tcp_push = std::mem::take(&mut rec.tcp_push);
                                st.cursor += 1;
                                debug_assert_eq!(
                                    st.cursor,
                                    st.recs.len(),
                                    "a completion is always a phase's last recording"
                                );
                                let sh = cores[s].as_mut().expect("core checked in");
                                sh.cpu_out.extend(cpu_push);
                                sh.tcp_out.extend(tcp_push);
                            }
                            finish_serving!(now, s, conn);
                            flush!();
                        } else {
                            // Bookkeeping only — the worker already
                            // applied the state change. Assign true seqs
                            // to its pushes in flush order; re-push the
                            // ones the worker didn't consume itself.
                            let (cpu_push, tcp_push, taken, cur) = {
                                let st = &mut streams[s];
                                let rec = &mut st.recs[st.cursor];
                                let r = (
                                    std::mem::take(&mut rec.cpu_push),
                                    std::mem::take(&mut rec.tcp_push),
                                    std::mem::take(&mut rec.push_taken),
                                    st.cursor,
                                );
                                st.cursor += 1;
                                r
                            };
                            let mut assigned =
                                Vec::with_capacity(cpu_push.len() + tcp_push.len());
                            let mut k = 0usize;
                            for (t, e) in cpu_push {
                                seq += 1;
                                assigned.push(seq);
                                if !taken[k] {
                                    lanes[s].push(Slot {
                                        t: t.as_nanos(),
                                        seq,
                                        ev: MachineEv::Cpu(e),
                                    });
                                }
                                k += 1;
                            }
                            for (t, e) in tcp_push {
                                seq += 1;
                                assigned.push(seq);
                                if !taken[k] {
                                    lanes[s].push(Slot {
                                        t: t.as_nanos(),
                                        seq,
                                        ev: MachineEv::Tcp(e),
                                    });
                                }
                                k += 1;
                            }
                            streams[s].assigned[cur] = assigned;
                        }
                    }
                    Source::Lane(s) => {
                        let sl = lanes[s].pop().expect("peeked above");
                        events_processed += 1;
                        let completed = {
                            let sh = cores[s].as_mut().expect("core checked in");
                            let mut sobs = ShardObs { inner: &mut *obs, base: sh.thread_base };
                            machine_step(sh, &cell.profile, &mut sobs, obs_on, now, sl.ev)
                        };
                        if let Some(conn) = completed {
                            finish_serving!(now, s, conn);
                        }
                        flush!();
                    }
                    Source::Coord => {
                        let sl = coord.pop().expect("peeked above");
                        events_processed += 1;
                        match sl.ev {
                            CoordEv::Client(ClientEvent::Send { user }) => {
                                let spec = clients.next_request(now, user);
                                route_new!(now, spec);
                            }
                            CoordEv::Client(ClientEvent::Arrival) => {
                                if let Some(spec) = clients.on_arrival(now, &mut cl_out) {
                                    route_new!(now, spec);
                                }
                            }
                            CoordEv::Arrive { shard, user, epoch } => {
                                let (s, u) = (shard as usize, user as usize);
                                if attempt_current!(u, s, epoch) {
                                    if obs_on {
                                        let info =
                                            cores[s].as_ref().expect("core checked in").conn_info[u];
                                        obs.record(
                                            TraceEvent::new(now, TraceKind::RequestArrive)
                                                .conn(u)
                                                .class(info.class)
                                                .arg(info.response_bytes as u64),
                                        );
                                    }
                                    admit!(now, s, u, epoch);
                                }
                            }
                            CoordEv::Timeout { shard, user, epoch } => {
                                let (s, u) = (shard as usize, user as usize);
                                if req[u].as_ref().is_some_and(|t| t.primary == (s, epoch)) {
                                    timeouts += 1;
                                    if let Some(e) = rto.as_mut() {
                                        e.on_timeout();
                                    }
                                    if obs_on {
                                        let (attempt, cls) =
                                            req[u].as_ref().map_or((0, 0), |t| (t.attempt, t.class));
                                        obs.record(
                                            TraceEvent::new(now, TraceKind::ClientTimeout)
                                                .conn(u)
                                                .class(cls)
                                                .arg(attempt as u64),
                                        );
                                    }
                                    retry_verdict!(now, u, s);
                                }
                            }
                            CoordEv::Retry { shard, user, epoch } => {
                                let (s, u) = (shard as usize, user as usize);
                                if req[u].as_ref().is_some_and(|t| t.primary == (s, epoch)) {
                                    if let Some(t) = req[u].as_mut() {
                                        t.attempt_sent = now;
                                    }
                                    let info =
                                        req[u].as_ref().map_or(ConnInfo::default(), |t| ConnInfo {
                                            response_bytes: t.response_bytes,
                                            class: t.class,
                                        });
                                    sched_machine!(
                                        now + one_way,
                                        s,
                                        MachineEv::SetConn { user, info }
                                    );
                                    sched_touch!(
                                        now + one_way,
                                        s,
                                        CoordEv::Arrive { shard, user, epoch }
                                    );
                                    sched_coord!(
                                        now + rto.as_ref().map_or(timeout, |e| e.current()),
                                        CoordEv::Timeout { shard, user, epoch }
                                    );
                                    if hedge_on {
                                        sched_coord!(
                                            now + hest!(s).delay(&hcfg),
                                            CoordEv::HedgeFire { shard, user, epoch }
                                        );
                                    }
                                }
                            }
                            CoordEv::HedgeFire { shard, user, epoch } => {
                                let (ps, u) = (shard as usize, user as usize);
                                let live = req[u]
                                    .as_ref()
                                    .is_some_and(|t| t.primary == (ps, epoch) && t.hedge.is_none());
                                if live {
                                    let (cls, info) =
                                        req[u].as_ref().map_or((0, ConnInfo::default()), |t| {
                                            (
                                                t.class,
                                                ConnInfo {
                                                    response_bytes: t.response_bytes,
                                                    class: t.class,
                                                },
                                            )
                                        });
                                    let h = bal.pick_excluding(u, cls, &outstanding, ps);
                                    if h != ps {
                                        sched_machine!(
                                            now + one_way,
                                            h,
                                            MachineEv::SetConn { user, info }
                                        );
                                        ctls[h].epoch[u] += 1;
                                        let he = ctls[h].epoch[u];
                                        if let Some(t) = req[u].as_mut() {
                                            t.hedge = Some((h, he));
                                        }
                                        outstanding[h] += 1;
                                        hedges += 1;
                                        ctls[h].cnt.hedges += 1;
                                        if obs_on {
                                            let waited = req[u].map_or(0, |t| {
                                                now.duration_since(t.attempt_sent).as_nanos()
                                            });
                                            obs.record(
                                                TraceEvent::new(now, TraceKind::Hedge)
                                                    .conn(u)
                                                    .class(cls)
                                                    .arg(waited),
                                            );
                                        }
                                        sched_touch!(
                                            now + one_way,
                                            h,
                                            CoordEv::Arrive { shard: h as u32, user, epoch: he }
                                        );
                                    }
                                }
                            }
                            CoordEv::Fault { shard, idx } => {
                                let s = shard as usize;
                                ctls[s].cnt.fault_events += 1;
                                let outcome = {
                                    let sh = cores[s].as_mut().expect("core checked in");
                                    let top = &ctls[s].compiled.ops[idx as usize];
                                    if obs_on {
                                        obs.record(
                                            TraceEvent::new(now, TraceKind::FaultInject)
                                                .arg(top.code as u64),
                                        );
                                    }
                                    asyncinv_fault::apply(
                                        &top.op,
                                        now,
                                        &mut sh.tcp,
                                        &mut sh.cpu,
                                        &mut sh.tcp_out,
                                        &mut sh.cpu_out,
                                    )
                                };
                                for (c, dropped) in outcome.resets {
                                    if dropped > 0 {
                                        let mut finished = false;
                                        if let Some(sv) = cores[s]
                                            .as_mut()
                                            .expect("core checked in")
                                            .serving[c]
                                            .as_mut()
                                        {
                                            sv.shorted = true;
                                            sv.remaining = sv.remaining.saturating_sub(dropped);
                                            finished = sv.remaining == 0;
                                        }
                                        if finished {
                                            finish_serving!(now, s, c);
                                        }
                                    }
                                }
                                for u in outcome.abandons {
                                    if let Some(track) = req[u] {
                                        if track.primary.0 == s {
                                            do_abandon!(now, u, track.attempt + 1);
                                        } else if track.hedge.is_some_and(|(hs, _)| hs == s) {
                                            cancel_hedge!(now, u);
                                        }
                                    }
                                }
                            }
                        }
                        flush!();
                    }
                }
            }

            // Aggregate per-shard window deltas into the fleet summary —
            // field-for-field the interleaved driver's epilogue.
            let completions = window.completions();
            let measure_s = cell.measure.as_secs_f64();
            let nf = n_shards as f64;
            let per_req = |v: u64| {
                if completions == 0 {
                    0.0
                } else {
                    v as f64 / completions as f64
                }
            };

            let mut per_shard: Vec<ShardSummary> = Vec::with_capacity(n_shards);
            let mut total_cs = 0u64;
            let mut total_preempt = 0u64;
            let mut total_steals = 0u64;
            let mut writes = 0u64;
            let mut spins = 0u64;
            let mut bursts = 0u64;
            let mut sq_submits = 0u64;
            let mut sq_flushes = 0u64;
            let mut cq_reaps = 0u64;
            let mut sq_full = 0u64;
            let mut user_sum = 0.0;
            let mut sys_sum = 0.0;
            let mut util_sum = 0.0;
            for (s, core) in cores.iter().enumerate() {
                let sh = core.as_ref().expect("core checked in");
                let cd = sh.cpu.stats().delta_since(&cpu_snap[s]);
                let bd = cd.breakdown(cell.measure, cell.cpu.cores);
                let ts = sh.tcp.stats();
                let w = ts.write_calls - tcp_snap[s].write_calls;
                let z = ts.zero_writes - tcp_snap[s].zero_writes;
                let d = ctls[s].cnt.delta(&cnt_snap[s]);
                let ud = sh.server.uring_stats().unwrap_or_default().delta_since(&uring_snap[s]);
                total_cs += cd.context_switches;
                total_preempt += cd.preemptions;
                total_steals += cd.steals;
                writes += w;
                spins += z;
                bursts += cd.syscall_bursts;
                sq_submits += ud.sq_submits;
                sq_flushes += ud.sq_flushes;
                cq_reaps += ud.cq_reaps;
                sq_full += ud.sq_full;
                user_sum += bd.user_pct() / 100.0;
                sys_sum += bd.sys_pct() / 100.0;
                util_sum += bd.utilization();
                per_shard.push(ShardSummary {
                    shard: s,
                    server: sh.server.name().to_string(),
                    routes: d.routes,
                    completions: d.completions,
                    hedges: d.hedges,
                    hedge_cancels: d.hedge_cancels,
                    shard_retries: d.shard_retries,
                    rejected: d.rejected,
                    shed_dropped: d.shed_dropped,
                    fault_events: d.fault_events,
                    context_switches: cd.context_switches,
                    write_calls: w,
                });
            }
            let rejected_total: u64 = per_shard.iter().map(|p| p.rejected).sum();
            let shed_total: u64 = per_shard.iter().map(|p| p.shed_dropped).sum();
            let fault_total: u64 = per_shard.iter().map(|p| p.fault_events).sum();

            let per_class = cell
                .clients
                .mix
                .classes()
                .iter()
                .zip(&class_hist)
                .map(|(c, h)| ClassSummary {
                    class: c.name.clone(),
                    response_bytes: c.response_bytes,
                    completions: h.count(),
                    mean_rt_us: h.mean().as_micros(),
                    p99_rt_us: h.quantile(0.99).as_micros(),
                })
                .collect();

            if obs_on {
                obs.counter("completions", completions);
                obs.counter("context_switches", total_cs);
                obs.counter("preemptions", total_preempt);
                obs.counter("steals", total_steals);
                obs.counter("write_calls", writes);
                obs.counter("zero_writes", spins);
                obs.counter("events_processed", events_processed);
                obs.counter("dropped_arrivals", clients.dropped() - dropped_snap);
                obs.counter("timeouts", timeouts - timeouts_snap);
                obs.counter("retries", retries - retries_snap);
                obs.counter("abandoned", clients.abandoned() - abandoned_snap);
                obs.counter("rejected", rejected_total);
                obs.counter("shed_dropped", shed_total);
                obs.counter("fault_events", fault_total);
                obs.counter("sq_submits", sq_submits);
                obs.counter("sq_flushes", sq_flushes);
                obs.counter("cq_reaps", cq_reaps);
                obs.counter("sq_full", sq_full);
                for (s, core) in cores.iter().enumerate() {
                    let sh = core.as_ref().expect("core checked in");
                    for (name, v) in sh.server.debug_counters() {
                        obs.counter(&format!("s{s}/{name}"), v);
                    }
                }
                obs.gauge("throughput_rps", window.rate_per_sec());
                obs.gauge("cs_per_req", per_req(total_cs));
                obs.gauge("writes_per_req", per_req(writes));
                obs.gauge("spins_per_req", per_req(spins));
                obs.gauge("crossings_per_req", per_req(bursts));
                obs.gauge("cpu_user", user_sum / nf);
                obs.gauge("cpu_sys", sys_sum / nf);
                obs.gauge("cpu_idle", 1.0 - util_sum / nf);
                obs.gauge("rate_cv", window.rate_cv());
                obs.counter("shard_routes", routes - routes_snap);
                obs.counter("hedges", hedges - hedges_snap);
                obs.counter("hedge_cancels", hedge_cancels - hedge_cancels_snap);
                obs.counter("shard_retries", shard_retries - shard_retries_snap);
                for (s, core) in cores.iter().enumerate() {
                    let sh = core.as_ref().expect("core checked in");
                    for i in 0..sh.cpu.thread_count() {
                        let name = sh.cpu.thread_name(ThreadId(i));
                        obs.thread_name(sh.thread_base as usize + i, &format!("s{s}/{name}"));
                    }
                }
            }

            let server = if kinds.iter().all(|k| *k == kinds[0]) {
                cores[0]
                    .as_ref()
                    .expect("core checked in")
                    .server
                    .name()
                    .to_string()
            } else {
                "mixed-fleet".to_string()
            };

            let fleet = RunSummary {
                server,
                concurrency: n,
                response_size: cell.clients.mix.mean_response_bytes().round() as usize,
                added_latency_us: cell.tcp.added_latency.as_micros(),
                completions,
                throughput: window.rate_per_sec(),
                mean_rt_us: hist.mean().as_micros(),
                p50_rt_us: hist.quantile(0.50).as_micros(),
                p95_rt_us: hist.quantile(0.95).as_micros(),
                p99_rt_us: hist.quantile(0.99).as_micros(),
                cs_per_sec: total_cs as f64 / measure_s,
                cs_per_req: per_req(total_cs),
                writes_per_req: per_req(writes),
                spins_per_req: per_req(spins),
                sq_submits,
                sq_flushes,
                cq_reaps,
                sq_full,
                crossings_per_req: per_req(bursts),
                cpu: CpuShare {
                    user: user_sum / nf,
                    sys: sys_sum / nf,
                    idle: 1.0 - util_sum / nf,
                },
                rate_cv: window.rate_cv(),
                dropped_arrivals: clients.dropped() - dropped_snap,
                timeouts: timeouts - timeouts_snap,
                retries: retries - retries_snap,
                abandoned: clients.abandoned() - abandoned_snap,
                rejected: rejected_total,
                shed_dropped: shed_total,
                fault_events: fault_total,
                shard_routes: routes - routes_snap,
                hedges: hedges - hedges_snap,
                hedge_cancels: hedge_cancels - hedge_cancels_snap,
                shard_retries: shard_retries - shard_retries_snap,
                per_class,
            };

            FleetSummary { fleet, per_shard }
        });
        // `scope` joined every worker, so each has sent its accounting.
        drop(health_tx);
        if workers > 1 {
            health.workers = vec![WorkerHealth::default(); workers];
            while let Ok((w, wh)) = health_rx.try_recv() {
                health.workers[w] = wh;
            }
        }
        (summary, health)
    }
}
