//! The fleet driver: N independent server-under-test shards behind a
//! pluggable balancer, with optional hedged requests and per-shard fault
//! and shed planes.
//!
//! Each shard is a full machine (its own [`CpuModel`], [`TcpWorld`] and
//! architecture instance, reused unchanged from `asyncinv-servers`); one
//! shared client pool routes every request attempt through a
//! [`Balancer`](crate::Balancer). This is the simulator's one drive loop:
//! a single-server [`Experiment`](crate::Experiment) is its one-shard
//! case. At one shard balancers draw no randomness, request specs land in
//! the shard at route time, and no fleet-only trace events or counters
//! exist (those are emitted only when `shards > 1`).

use asyncinv_cpu::{CpuEvent, CpuModel, SchedEvent, ThreadId};
use asyncinv_fault::CompiledPlan;
use asyncinv_metrics::{ClassSummary, CpuShare, Histogram, RunSummary, ThroughputWindow};
use asyncinv_obs::{
    audit, AuditCheck, AuditReport, NoopObserver, Observer, Recorder, TraceEvent, TraceKind, NONE,
};
use asyncinv_servers::{
    spin_horizon, trace_codes, ConnInfo, Ctx, ExperimentConfig, ServerKind, ServerModel,
    ShedConfig, ShedPolicy,
};
use asyncinv_simcore::{
    AdaptiveQueue, BackendKind, CalendarQueue, EventQueue, LadderQueue, QueueBackend, SimTime,
    Simulation,
};
use asyncinv_tcp::{ConnId, TcpEvent, TcpNotice, TcpWorld};
use asyncinv_workload::{
    ClientEvent, ClientPool, RetryBudget, RtoEstimator, TimeoutMode, UserId,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::balancer::BalancerKind;
use crate::hedge::{HedgeConfig, HedgeEstimator};

/// A fault plan targeting one shard of the fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardFault {
    /// Which shard the plan applies to.
    pub shard: usize,
    /// The plan, compiled against that shard's connections.
    pub plan: asyncinv_fault::FaultPlan,
}

/// A shed configuration overriding the cell default on one shard.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ShardShed {
    /// Which shard the limits apply to.
    pub shard: usize,
    /// The limits.
    pub shed: ShedConfig,
}

/// Everything a fleet run needs: one experiment cell (machine, network,
/// workload, resilience policy — identical per shard) plus the fleet
/// topology and routing policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The per-shard experiment cell. Its `faults` field must be `None`;
    /// fleet faults are per-shard via [`FleetConfig::shard_faults`].
    pub cell: ExperimentConfig,
    /// Number of independent shards.
    pub shards: usize,
    /// Routing policy.
    pub balancer: BalancerKind,
    /// Optional hedged requests (requires at least two shards).
    #[serde(default)]
    pub hedge: Option<HedgeConfig>,
    /// Per-shard fault plans (at most one per shard).
    #[serde(default)]
    pub shard_faults: Vec<ShardFault>,
    /// Per-shard shed overrides (at most one per shard; shards without an
    /// override use the cell's `shed`).
    #[serde(default)]
    pub shard_shed: Vec<ShardShed>,
}

impl FleetConfig {
    /// A fleet of `shards` copies of `cell` behind `balancer`.
    pub fn new(cell: ExperimentConfig, shards: usize, balancer: BalancerKind) -> Self {
        FleetConfig {
            cell,
            shards,
            balancer,
            hedge: None,
            shard_faults: Vec::new(),
            shard_shed: Vec::new(),
        }
    }

    /// Checks the configuration, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("a fleet needs at least one shard".into());
        }
        self.cell.tcp.validate()?;
        self.cell.retry.validate()?;
        if let Some(shed) = &self.cell.shed {
            shed.validate()?;
        }
        if self.cell.measure.is_zero() {
            return Err("measurement window must be positive".into());
        }
        if self.cell.faults.is_some() {
            return Err("cell.faults must be None in a fleet; use shard_faults".into());
        }
        if let Some(h) = &self.hedge {
            h.validate()?;
            if self.shards < 2 {
                return Err("hedging requires at least two shards".into());
            }
        }
        let mut seen = vec![false; self.shards];
        for sf in &self.shard_faults {
            if sf.shard >= self.shards {
                return Err(format!("shard_faults targets shard {} of {}", sf.shard, self.shards));
            }
            if std::mem::replace(&mut seen[sf.shard], true) {
                return Err(format!("duplicate fault plan for shard {}", sf.shard));
            }
            sf.plan.validate()?;
        }
        let mut seen = vec![false; self.shards];
        for ss in &self.shard_shed {
            if ss.shard >= self.shards {
                return Err(format!("shard_shed targets shard {} of {}", ss.shard, self.shards));
            }
            if std::mem::replace(&mut seen[ss.shard], true) {
                return Err(format!("duplicate shed override for shard {}", ss.shard));
            }
            ss.shed.validate()?;
        }
        Ok(())
    }
}

/// Per-shard results of a fleet run (measurement-window deltas).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Architecture label of this shard.
    pub server: String,
    /// Fresh request attempts the balancer routed here.
    pub routes: u64,
    /// Requests completed from this shard.
    pub completions: u64,
    /// Hedged attempts fired *to* this shard.
    pub hedges: u64,
    /// Hedged-pair cancellations charged to this shard (its side lost).
    pub hedge_cancels: u64,
    /// Cross-shard retries routed here.
    pub shard_retries: u64,
    /// Reject-fast error responses issued by this shard.
    pub rejected: u64,
    /// Arrivals dropped or evicted by this shard's shedding.
    pub shed_dropped: u64,
    /// Fault-plan actions applied on this shard.
    pub fault_events: u64,
    /// Context switches on this shard's machine.
    pub context_switches: u64,
    /// `socket.write()` calls on this shard.
    pub write_calls: u64,
}

/// Result of a fleet run: the fleet-level [`RunSummary`] (same shape a
/// single-server `Experiment` reports, so every downstream table and
/// exporter works unchanged) plus the per-shard breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Fleet-aggregate summary.
    pub fleet: RunSummary,
    /// Per-shard measurement-window deltas, in shard order.
    pub per_shard: Vec<ShardSummary>,
}

/// Audits a traced fleet run: the single-server [`audit`] over the fleet
/// summary (which reconciles every [`TraceKind`], including the fleet
/// kinds, bitwise against the trace) plus per-shard conservation checks —
/// each fleet-level counter must equal the sum of its per-shard parts.
pub fn fleet_audit(summary: &FleetSummary, rec: &Recorder) -> AuditReport {
    let mut report = audit(&summary.fleet, rec);
    let sum = |f: fn(&ShardSummary) -> u64| -> f64 {
        summary.per_shard.iter().map(f).sum::<u64>() as f64
    };
    let fleet = &summary.fleet;
    for (name, per_shard, total) in [
        ("shard_routes_sum", sum(|s| s.routes), fleet.shard_routes),
        ("hedges_sum", sum(|s| s.hedges), fleet.hedges),
        ("hedge_cancels_sum", sum(|s| s.hedge_cancels), fleet.hedge_cancels),
        ("shard_retries_sum", sum(|s| s.shard_retries), fleet.shard_retries),
        ("rejected_sum", sum(|s| s.rejected), fleet.rejected),
        ("shed_dropped_sum", sum(|s| s.shed_dropped), fleet.shed_dropped),
        ("fault_events_sum", sum(|s| s.fault_events), fleet.fault_events),
        ("completions_sum", sum(|s| s.completions), fleet.completions),
    ] {
        report.checks.push(AuditCheck {
            name,
            from_trace: per_shard,
            from_summary: total as f64,
        });
    }
    // Machine-level counters have no `RunSummary` field; reconcile the
    // per-shard sums against the registry totals instead (skipped when the
    // recorder carries no registry counters, e.g. observability off).
    for (name, per_shard, registry_total) in [
        (
            "context_switches_sum",
            sum(|s| s.context_switches),
            rec.registry().counter("context_switches"),
        ),
        (
            "write_calls_sum",
            sum(|s| s.write_calls),
            rec.registry().counter("write_calls"),
        ),
    ] {
        if let Some(total) = registry_total {
            report.checks.push(AuditCheck {
                name,
                from_trace: per_shard,
                from_summary: total as f64,
            });
        }
    }
    report
}

/// Union event type routed by the drive loop, with a shard tag on every
/// shard-local event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEvent {
    /// Scheduler event on one shard's machine.
    Cpu { shard: u32, ev: CpuEvent },
    /// Network event on one shard's TCP world.
    Tcp { shard: u32, ev: TcpEvent },
    /// Shared client-pool event.
    Client(ClientEvent),
    /// An attempt's bytes reached a shard's socket.
    Arrive { shard: u32, user: u32, epoch: u32 },
    /// The request spec carried by an attempt's bytes lands in a shard's
    /// per-connection parse state. Scheduled one-way ahead of the matching
    /// [`FleetEvent::Arrive`] (multi-shard runs only): the spec travels
    /// with the bytes instead of teleporting into the target shard at
    /// route time, which keeps each shard's `conn_info` free of
    /// cross-shard writes inside a sync window (the parallel driver's
    /// correctness hinges on this).
    SetConn { shard: u32, user: u32, info: ConnInfo },
    /// The client-side timeout for a primary attempt expired.
    Timeout { shard: u32, user: u32, epoch: u32 },
    /// A backed-off retry fires against its (possibly new) shard.
    Retry { shard: u32, user: u32, epoch: u32 },
    /// The hedge delay for an outstanding primary attempt elapsed.
    HedgeFire { shard: u32, user: u32, epoch: u32 },
    /// A compiled fault-plan operation fires on one shard.
    Fault { shard: u32, idx: u32 },
}

/// The server's in-progress response on one shard connection (staleness
/// works via attempt identity). Service is serialized per connection: a
/// retransmitted request waits in `pending_arrival` until the previous
/// attempt's response finishes. Shared with the parallel driver
/// (`crate::parallel`), which keeps the same per-connection service state
/// in its shard cores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Serving {
    pub(crate) epoch: u32,
    pub(crate) remaining: usize,
    pub(crate) reject: bool,
    pub(crate) shorted: bool,
}

/// The fleet's view of one user's outstanding request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FleetReq {
    /// First-send instant (response time is user-perceived).
    pub(crate) sent_at: SimTime,
    /// Send instant of the current primary attempt (hedge delay base).
    pub(crate) attempt_sent: SimTime,
    /// Retries already made.
    pub(crate) attempt: u32,
    /// Primary attempt identity: `(shard, shard-local epoch)`.
    pub(crate) primary: (usize, u32),
    /// Outstanding hedged duplicate, if any.
    pub(crate) hedge: Option<(usize, u32)>,
    /// Response size of the request spec (travels with every attempt).
    pub(crate) response_bytes: usize,
    /// Workload-mix class of the request spec.
    pub(crate) class: usize,
}

/// Fleet counters kept per shard (windowed by snapshot at warm-up end).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub(crate) routes: u64,
    pub(crate) hedges: u64,
    pub(crate) hedge_cancels: u64,
    pub(crate) shard_retries: u64,
    pub(crate) rejected: u64,
    pub(crate) shed_dropped: u64,
    pub(crate) fault_events: u64,
    pub(crate) completions: u64,
}

impl Counters {
    pub(crate) fn delta(&self, snap: &Counters) -> Counters {
        Counters {
            routes: self.routes - snap.routes,
            hedges: self.hedges - snap.hedges,
            hedge_cancels: self.hedge_cancels - snap.hedge_cancels,
            shard_retries: self.shard_retries - snap.shard_retries,
            rejected: self.rejected - snap.rejected,
            shed_dropped: self.shed_dropped - snap.shed_dropped,
            fault_events: self.fault_events - snap.fault_events,
            completions: self.completions - snap.completions,
        }
    }
}

/// One shard: a full simulated machine + architecture instance.
struct Shard<'s> {
    server: &'s mut dyn ServerModel,
    cpu: CpuModel,
    tcp: TcpWorld,
    conn_info: Vec<ConnInfo>,
    cpu_out: Vec<(SimTime, CpuEvent)>,
    tcp_out: Vec<(SimTime, TcpEvent)>,
    /// Shard-local attempt epochs per user (monotone; identity of an
    /// attempt on this shard is `(shard, epoch)`).
    epoch: Vec<u32>,
    serving: Vec<Option<Serving>>,
    pending_arrival: Vec<Option<u32>>,
    accept_q: VecDeque<(usize, u32)>,
    serving_count: usize,
    shed: Option<ShedConfig>,
    compiled: CompiledPlan,
    /// Global thread-id offset of this shard's threads in merged traces.
    thread_base: u32,
    cnt: Counters,
}

/// Observer adapter that offsets shard-local thread ids into the fleet's
/// merged thread-id space. Transparent when `base == 0` (shard 0), which
/// keeps a single-server `Experiment`'s thread ids shard-local.
pub(crate) struct ShardObs<'a> {
    pub(crate) inner: &'a mut dyn Observer,
    pub(crate) base: u32,
}

impl Observer for ShardObs<'_> {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
    fn record(&mut self, mut ev: TraceEvent) {
        if ev.thread != NONE {
            ev.thread += self.base;
        }
        self.inner.record(ev);
    }
    fn run_window(&mut self, start: SimTime, end: SimTime) {
        self.inner.run_window(start, end);
    }
    fn window_open(&mut self, now: SimTime) {
        self.inner.window_open(now);
    }
    fn thread_name(&mut self, thread: usize, name: &str) {
        self.inner.thread_name(thread + self.base as usize, name);
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

/// Runs a sharded cluster of server-under-test instances.
///
/// ```
/// use asyncinv_fleet::{BalancerKind, Cluster, FleetConfig};
/// use asyncinv_servers::{ExperimentConfig, ServerKind};
///
/// let mut cell = ExperimentConfig::micro(8, 1024);
/// cell.warmup = asyncinv_simcore::SimDuration::from_millis(100);
/// cell.measure = asyncinv_simcore::SimDuration::from_millis(400);
/// let fleet = Cluster::new(FleetConfig::new(cell, 2, BalancerKind::RoundRobin));
/// let summary = fleet.run(ServerKind::SingleThread);
/// assert!(summary.fleet.throughput > 0.0);
/// assert_eq!(summary.per_shard.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: FleetConfig,
}

impl Cluster {
    /// Creates a cluster from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`FleetConfig::validate`] rejects the configuration.
    pub fn new(cfg: FleetConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FleetConfig: {e}");
        }
        Cluster { cfg }
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

    /// Runs with structured tracing (ring sized by the cell's
    /// `trace_capacity` / `trace_sample`), returning the [`Recorder`].
    pub fn run_traced(&self, kind: ServerKind) -> (FleetSummary, Recorder) {
        let mut rec =
            Recorder::with_sampling(self.cfg.cell.trace_capacity, self.cfg.cell.trace_sample);
        let summary = self.run_observed(kind, &mut rec);
        (summary, rec)
    }

    /// Runs a homogeneous fleet reporting into a caller-supplied observer.
    pub fn run_observed(&self, kind: ServerKind, obs: &mut dyn Observer) -> FleetSummary {
        self.drive(&vec![kind; self.cfg.shards], obs)
    }

    /// Builds one architecture instance per shard and runs the loop.
    /// `pub(crate)` so the parallel driver can delegate degenerate shapes
    /// (1-shard fleets) to the interleaved loop.
    pub(crate) fn drive(&self, kinds: &[ServerKind], obs: &mut dyn Observer) -> FleetSummary {
        let mut built: Vec<Box<dyn ServerModel>> =
            kinds.iter().map(|k| k.build(&self.cfg.cell)).collect();
        let servers = built.iter_mut().map(|b| &mut **b as &mut dyn ServerModel).collect();
        drive(&self.cfg, servers, obs, true)
    }
}

/// Marks the branch that calls it unlikely, so the optimizer lays rare
/// paths out of the way of the per-event hot path.
#[cold]
#[inline(never)]
fn cold() {}

/// Records one trace event. Every call site sits behind an `obs_on` check;
/// keeping the recording out of line and cold keeps the untraced path's
/// code compact.
#[cold]
#[inline(never)]
fn trace(obs: &mut dyn Observer, ev: TraceEvent) {
    obs.record(ev);
}

/// Runs the drive loop over caller-owned architecture instances, one per
/// shard, monomorphized for the configured queue backend. With
/// `fast_forward` off, write-spin iterations run through the event queue
/// instead of being retired inline; results are identical either way.
pub(crate) fn drive(
    cfg: &FleetConfig,
    servers: Vec<&mut dyn ServerModel>,
    obs: &mut dyn Observer,
    fast_forward: bool,
) -> FleetSummary {
    assert_eq!(servers.len(), cfg.shards, "one architecture per shard");
    match cfg.cell.backend {
        BackendKind::Heap => drive_with::<EventQueue<FleetEvent>>(cfg, servers, obs, fast_forward),
        BackendKind::Calendar => {
            drive_with::<CalendarQueue<FleetEvent>>(cfg, servers, obs, fast_forward)
        }
        BackendKind::Adaptive => {
            drive_with::<AdaptiveQueue<FleetEvent>>(cfg, servers, obs, fast_forward)
        }
        BackendKind::Ladder => {
            drive_with::<LadderQueue<FleetEvent>>(cfg, servers, obs, fast_forward)
        }
    }
}

#[allow(clippy::too_many_lines)]
fn drive_with<Q: QueueBackend<FleetEvent>>(
    cfg: &FleetConfig,
    servers: Vec<&mut dyn ServerModel>,
    obs: &mut dyn Observer,
    fast_forward: bool,
) -> FleetSummary {
    let cell = &cfg.cell;
    let n = cell.clients.concurrency;
    let n_shards = cfg.shards;
    let multi = n_shards > 1;
    let warm_end = SimTime::ZERO + cell.warmup;
    let end = warm_end + cell.measure;

    let mut sim: Simulation<FleetEvent, Q> = Simulation::default();
    let mut clients = ClientPool::new(cell.clients.clone());
    let mut bal = cfg.balancer.build(n_shards);

    // Each shard's state in an allocation of its own: measured faster
    // than one contiguous `Vec<Shard>` on one-shard and 8-shard grids.
    let mut shards: Vec<Box<Shard>> = servers
        .into_iter()
        .enumerate()
        .map(|(s, server)| {
            let mut tcp = TcpWorld::new(cell.tcp.clone());
            for _ in 0..n {
                tcp.open(SimTime::ZERO);
            }
            Box::new(Shard {
                server,
                cpu: CpuModel::new(cell.cpu.clone()),
                tcp,
                conn_info: vec![ConnInfo::default(); n],
                cpu_out: Vec::new(),
                tcp_out: Vec::new(),
                epoch: vec![0; n],
                serving: vec![None; n],
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
                thread_base: 0,
                cnt: Counters::default(),
            })
        })
        .collect();

    // Resilience plane. With no fault plan, shed config and a disabled
    // retry policy all of it is inert: epochs tick along and no extra
    // events exist.
    let policy = cell.retry;
    let retry_on = policy.enabled();
    let timeout = policy.timeout.unwrap_or_default();
    let mut budget = RetryBudget::new(&policy);
    // TCP-style adaptive timeout: one client-wide estimator (like the
    // retry budget), fed every good response time and Karn-backed-off
    // on timeout. `None` in Fixed mode, where every attempt arms the
    // static `timeout`.
    let mut rto = (retry_on && policy.timeout_mode == TimeoutMode::Rto)
        .then(|| RtoEstimator::new(&policy));

    // Hedge plane (fleet-only; validation requires shards >= 2). With
    // `per_shard` the delay estimator is keyed by shard — observations
    // land at the shard that served the completion, and an attempt's
    // hedge delay comes from the shard it targets — so a browned-out
    // shard cannot drag the healthy shards' delay estimate up.
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
    let mut window = ThroughputWindow::new(warm_end, end);
    let mut hist = Histogram::new();
    let n_classes = cell.clients.mix.classes().len();
    let mut class_hist: Vec<Histogram> = (0..n_classes).map(|_| Histogram::new()).collect();

    let obs_on = obs.is_enabled();
    if obs_on {
        obs.run_window(warm_end, end);
        for sh in shards.iter_mut() {
            sh.cpu.record_sched(true);
        }
    }

    // Dispatches one server callback on shard `$s` with a fresh `Ctx`
    // over that shard's machine (flush afterwards). Evaluates to the
    // callback's clock at return, which a retired write spin moves
    // up to `$horizon` (the callback's own instant for every other
    // callback).
    macro_rules! dispatch {
        ($now:expr, $s:expr, $method:ident $(, $arg:expr)*) => {
            dispatch!(@at $now, $now, $s, $method $(, $arg)*)
        };
        (@at $now:expr, $horizon:expr, $s:expr, $method:ident $(, $arg:expr)*) => {{
            let sh = &mut shards[$s];
            let mut sobs = ShardObs { inner: &mut *obs, base: sh.thread_base };
            // This shard's shedder is saturated (slots full or
            // arrivals queued).
            let shed_active = sh
                .shed
                .is_some_and(|sc| sh.serving_count >= sc.max_concurrent || !sh.accept_q.is_empty());
            let mut cx = Ctx::for_driver(
                $now,
                $horizon,
                &mut sh.cpu,
                &mut sh.tcp,
                &cell.profile,
                &sh.conn_info,
                &mut sh.cpu_out,
                &mut sh.tcp_out,
                &mut sobs,
                obs_on,
                shed_active,
            );
            sh.server.$method(&mut cx $(, $arg)*);
            cx.now()
        }};
    }

    // Flush order: sched logs (trace only), then every shard's
    // cpu_out, then every shard's tcp_out, then client events. The
    // parallel driver replays exactly this order to reproduce FIFO
    // tie-breaks.
    macro_rules! flush {
        () => {
            if obs_on {
                for sh in shards.iter_mut() {
                    let base = sh.thread_base as usize;
                    for se in sh.cpu.drain_sched_log() {
                        match se {
                            SchedEvent::Switch { at, thread, migrated } => trace(
                                obs,
                                TraceEvent::new(at, TraceKind::ThreadDispatch)
                                    .thread(thread.0 + base)
                                    .arg(migrated as u64),
                            ),
                            SchedEvent::Park { at, thread } => trace(
                                obs,
                                TraceEvent::new(at, TraceKind::ThreadPark)
                                    .thread(thread.0 + base),
                            ),
                        }
                    }
                }
            }
            // Most events leave most buffers empty: skip those without
            // building a drain.
            for (s, sh) in shards.iter_mut().enumerate() {
                if !sh.cpu_out.is_empty() {
                    for (t, e) in sh.cpu_out.drain(..) {
                        sim.schedule_at(t, FleetEvent::Cpu { shard: s as u32, ev: e });
                    }
                }
            }
            for (s, sh) in shards.iter_mut().enumerate() {
                if !sh.tcp_out.is_empty() {
                    for (t, e) in sh.tcp_out.drain(..) {
                        sim.schedule_at(t, FleetEvent::Tcp { shard: s as u32, ev: e });
                    }
                }
            }
            if !cl_out.is_empty() {
                for (t, e) in cl_out.drain(..) {
                    sim.schedule_at(t, FleetEvent::Client(e));
                }
            }
        };
    }

    // `true` while `(shard $s, epoch $e)` is the user's live primary or
    // hedge attempt; all staleness filtering goes through this.
    macro_rules! attempt_current {
        ($u:expr, $s:expr, $e:expr) => {
            req[$u]
                .as_ref()
                .is_some_and(|t| t.primary == ($s, $e) || t.hedge == Some(($s, $e)))
        };
    }

    // Charges one hedged-pair cancellation: attempt `$cs` of user
    // `$u` (class `$cls`) lost the race or was torn down. The single
    // textual increment site for `hedge_cancels` in this driver
    // (detlint's counter-conservation pass enforces exactly one),
    // shared by hedge teardown and the hedge-won path below.
    macro_rules! hedge_cancelled {
        ($now:expr, $u:expr, $cs:expr, $cls:expr) => {{
            outstanding[$cs] -= 1;
            hedge_cancels += 1;
            shards[$cs].cnt.hedge_cancels += 1;
            if obs_on {
                trace(
                    obs,
                    TraceEvent::new($now, TraceKind::HedgeCancel)
                        .conn($u)
                        .class($cls)
                        .arg($cs as u64),
                );
            }
        }};
    }

    // Cancels the user's outstanding hedge attempt, if any (its shard
    // lost the race, or the whole request failed/was abandoned).
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

    // The user gives up on its in-flight request after `$attempts`
    // attempts; in closed-loop mode it thinks, then issues a fresh
    // request. The epoch bump invalidates every in-flight event of the
    // abandoned attempt, and its hedge (if any) is cancelled.
    macro_rules! do_abandon {
        ($now:expr, $u:expr, $attempts:expr) => {{
            cancel_hedge!($now, $u);
            if let Some(t) = req[$u].take() {
                let (ps, _pe) = t.primary;
                if obs_on {
                    trace(
                        obs,
                        TraceEvent::new($now, TraceKind::Abandon)
                            .conn($u)
                            .class(t.class)
                            .arg($attempts as u64),
                    );
                }
                outstanding[ps] -= 1;
                shards[ps].epoch[$u] += 1;
                shards[ps].pending_arrival[$u] = None;
                clients.abandon($now, UserId($u), &mut cl_out);
            }
        }};
    }

    // A failure verdict for the current primary attempt on shard `$fs`:
    // retry (to a different shard when possible) if the policy and
    // budget allow, else abandon. The hedge, if any, dies with the
    // failed attempt.
    macro_rules! retry_verdict {
        ($now:expr, $u:expr, $fs:expr) => {{
            cancel_hedge!($now, $u);
            let attempt = req[$u].as_ref().map_or(0, |t| t.attempt);
            if retry_on && attempt < policy.max_retries && budget.try_withdraw() {
                let backoff = clients.retry_backoff(&policy, attempt);
                retries += 1;
                let cls = req[$u].as_ref().map_or(0, |t| t.class);
                if obs_on {
                    trace(
                        obs,
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
                // The spec reaches `target` with the retried attempt's
                // bytes: the Retry arm schedules a SetConn one-way
                // ahead of the re-sent Arrive (multi-shard runs only;
                // at one shard `target == $fs` and `conn_info` already
                // holds this request's spec).
                shards[target].epoch[$u] += 1;
                let ne = shards[target].epoch[$u];
                if let Some(t) = req[$u].as_mut() {
                    t.primary = (target, ne);
                    t.attempt += 1;
                }
                if multi && target != $fs {
                    shard_retries += 1;
                    shards[target].cnt.shard_retries += 1;
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::ShardRetry)
                                .conn($u)
                                .class(cls)
                                .arg(target as u64),
                        );
                    }
                }
                sim.schedule_at(
                    $now + backoff,
                    FleetEvent::Retry {
                        shard: target as u32,
                        user: $u as u32,
                        epoch: ne,
                    },
                );
            } else {
                do_abandon!($now, $u, attempt + 1);
            }
        }};
    }

    // Starts serving attempt `$ep` on shard `$s`, connection `$conn`.
    macro_rules! start_serving {
        ($now:expr, $s:expr, $conn:expr, $ep:expr) => {{
            {
                let sh = &mut shards[$s];
                sh.serving[$conn] = Some(Serving {
                    epoch: $ep,
                    remaining: sh.conn_info[$conn].response_bytes,
                    reject: false,
                    shorted: false,
                });
                sh.serving_count += 1;
            }
            dispatch!($now, $s, on_request, ConnId($conn));
        }};
    }

    // Sole increment site for the per-shard `shed_dropped` counter: every
    // shed disposition (drop-new, evict, evict-fallback) funnels here so
    // the counter stays conserved across policies.
    macro_rules! shed_drop {
        ($now:expr, $s:expr, $conn:expr, $code:expr) => {{
            shards[$s].cnt.shed_dropped += 1;
            if obs_on {
                trace(
                    obs,
                    TraceEvent::new($now, TraceKind::Shed)
                        .conn($conn)
                        .class(shards[$s].conn_info[$conn].class)
                        .arg($code),
                );
            }
        }};
    }

    // Admission control for a valid arrival on shard `$s`:
    // per-connection serialization first (a retransmission of a
    // request whose previous response is still being produced parks
    // in `pending_arrival`), then the shed limits, then dispatch to
    // the architecture.
    macro_rules! admit {
        ($now:expr, $s:expr, $conn:expr, $ep:expr) => {{
            if shards[$s].serving[$conn].is_some() {
                cold();
                shards[$s].pending_arrival[$conn] = Some($ep);
            } else if let Some(sc) = shards[$s].shed {
                if shards[$s].serving_count < sc.max_concurrent {
                    start_serving!($now, $s, $conn, $ep);
                } else if shards[$s].accept_q.len() < sc.queue_cap {
                    shards[$s].accept_q.push_back(($conn, $ep));
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::QueueEnter)
                                .conn($conn)
                                .class(shards[$s].conn_info[$conn].class)
                                .arg(trace_codes::Q_ACCEPT),
                        );
                    }
                } else {
                    match sc.policy {
                        ShedPolicy::DropNew => {
                            shed_drop!($now, $s, $conn, trace_codes::SHED_DROP_NEW);
                        }
                        ShedPolicy::DropOldest => {
                            if let Some((oc, _oe)) = shards[$s].accept_q.pop_front() {
                                if obs_on {
                                    trace(
                                        obs,
                                        TraceEvent::new($now, TraceKind::QueueExit)
                                            .conn(oc)
                                            .class(shards[$s].conn_info[oc].class)
                                            .arg(trace_codes::Q_ACCEPT),
                                    );
                                }
                                shed_drop!($now, $s, oc, trace_codes::SHED_EVICT);
                                shards[$s].accept_q.push_back(($conn, $ep));
                                if obs_on {
                                    trace(
                                        obs,
                                        TraceEvent::new($now, TraceKind::QueueEnter)
                                            .conn($conn)
                                            .class(shards[$s].conn_info[$conn].class)
                                            .arg(trace_codes::Q_ACCEPT),
                                    );
                                }
                            } else {
                                // Zero-capacity queue degenerates to
                                // dropping the newcomer.
                                shed_drop!($now, $s, $conn, trace_codes::SHED_DROP_NEW);
                            }
                        }
                        ShedPolicy::RejectFast => {
                            shards[$s].cnt.rejected += 1;
                            if obs_on {
                                let waited = req[$conn].as_ref().map_or(0, |t| {
                                    $now.duration_since(t.sent_at).as_nanos()
                                });
                                trace(
                                    obs,
                                    TraceEvent::new($now, TraceKind::Rejected)
                                        .conn($conn)
                                        .class(shards[$s].conn_info[$conn].class)
                                        .arg(waited),
                                );
                            }
                            // Driver-direct write: mirror `Ctx::write`'s
                            // WriteCall/WriteSpin tracing exactly so
                            // trace-derived syscall counts stay 1:1.
                            let written = {
                                let sh = &mut shards[$s];
                                sh.tcp.write($now, ConnId($conn), sc.reject_bytes, &mut sh.tcp_out)
                            };
                            if obs_on {
                                trace(
                                    obs,
                                    TraceEvent::new($now, TraceKind::WriteCall)
                                        .conn($conn)
                                        .class(shards[$s].conn_info[$conn].class)
                                        .arg(written as u64),
                                );
                                if written == 0 {
                                    trace(
                                        obs,
                                        TraceEvent::new($now, TraceKind::WriteSpin)
                                            .conn($conn)
                                            .class(shards[$s].conn_info[$conn].class),
                                    );
                                }
                            }
                            if written > 0 {
                                shards[$s].serving[$conn] = Some(Serving {
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

    // Refills freed service slots on shard `$s` from its accept queue.
    macro_rules! drain_queue {
        ($now:expr, $s:expr) => {{
            if let Some(sc) = shards[$s].shed {
                while shards[$s].serving_count < sc.max_concurrent {
                    let Some((qc, qe)) = shards[$s].accept_q.pop_front() else {
                        break;
                    };
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::QueueExit)
                                .conn(qc)
                                .class(shards[$s].conn_info[qc].class)
                                .arg(trace_codes::Q_ACCEPT),
                        );
                    }
                    // Entries whose attempt was timed out, abandoned or
                    // superseded while queued are dropped silently.
                    if shards[$s].serving[qc].is_none() && attempt_current!(qc, $s, qe) {
                        start_serving!($now, $s, qc, qe);
                    }
                }
            }
        }};
    }

    // A response (real or reject-fast) finished delivering on shard
    // `$s`, or a connection reset zeroed out what remained: settle the
    // client side (hedge race resolution included), free the
    // connection, and refill from the queue.
    macro_rules! finish_serving {
        ($now:expr, $s:expr, $conn:expr) => {{
            let fin = shards[$s].serving[$conn].take().expect("finish without serving");
            if !fin.reject {
                shards[$s].serving_count -= 1;
            }
            let is_primary =
                req[$conn].as_ref().is_some_and(|t| t.primary == ($s, fin.epoch));
            let is_hedge =
                req[$conn].as_ref().is_some_and(|t| t.hedge == Some(($s, fin.epoch)));
            if (is_primary || is_hedge) && !fin.shorted {
                if fin.reject {
                    cold();
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
                        class_hist[shards[$s].conn_info[$conn].class].record(rt);
                    }
                    shards[$s].cnt.completions += 1;
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::Completion)
                                .conn($conn)
                                .class(shards[$s].conn_info[$conn].class)
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
                        // Only a hedging fleet has a duplicate to cancel.
                        if hedge_on {
                            cancel_hedge!($now, $conn);
                        }
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
            // Stale or shorted responses are drained and discarded by
            // the client; recovery (if any) comes from its timeout.
            if let Some(pe) = shards[$s].pending_arrival[$conn].take() {
                cold();
                if attempt_current!($conn, $s, pe) {
                    admit!($now, $s, $conn, pe);
                }
            }
            if !fin.reject {
                drain_queue!($now, $s);
            }
        }};
    }

    // Routes a fresh request from the shared client pool to a shard.
    macro_rules! route_new {
        ($now:expr, $spec:expr) => {{
            let u = $spec.user.0;
            // Every balancer picks shard 0 of one, without randomness.
            let s = if multi { bal.pick(u, $spec.class, &outstanding) } else { 0 };
            let info = ConnInfo {
                response_bytes: $spec.response_bytes,
                class: $spec.class,
            };
            if multi {
                // The spec travels with the bytes: it lands just before
                // the Arrive scheduled below (same instant, earlier
                // insertion, so FIFO applies it first).
                sim.schedule_at(
                    $now + one_way,
                    FleetEvent::SetConn { shard: s as u32, user: u as u32, info },
                );
            } else {
                shards[s].conn_info[u] = info;
            }
            shards[s].epoch[u] += 1;
            let ep = shards[s].epoch[u];
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
            if multi {
                routes += 1;
                shards[s].cnt.routes += 1;
                if obs_on {
                    trace(
                        obs,
                        TraceEvent::new($now, TraceKind::ShardRoute)
                            .conn(u)
                            .class($spec.class)
                            .arg(s as u64),
                    );
                }
            }
            sim.schedule_at(
                $now + one_way,
                FleetEvent::Arrive { shard: s as u32, user: u as u32, epoch: ep },
            );
            if retry_on {
                budget.deposit();
                sim.schedule_at(
                    $now + rto.as_ref().map_or(timeout, |e| e.current()),
                    FleetEvent::Timeout { shard: s as u32, user: u as u32, epoch: ep },
                );
            }
            if hedge_on {
                sim.schedule_at(
                    $now + hest!(s).delay(&hcfg),
                    FleetEvent::HedgeFire { shard: s as u32, user: u as u32, epoch: ep },
                );
            }
        }};
    }

    // Init: bring up every shard's architecture, then the clients.
    let mut base = 0u32;
    // Index loop: `dispatch!` needs the bare index plus mutable access
    // through `shards`, which an iterator borrow would pin.
    #[allow(clippy::needless_range_loop)]
    for s in 0..n_shards {
        shards[s].thread_base = base;
        dispatch!(SimTime::ZERO, s, init, n);
        base += shards[s].cpu.thread_count() as u32;
    }
    if obs_on {
        for (s, sh) in shards.iter().enumerate() {
            for i in 0..sh.cpu.thread_count() {
                let name = sh.cpu.thread_name(ThreadId(i));
                if multi {
                    obs.thread_name(sh.thread_base as usize + i, &format!("s{s}/{name}"));
                } else {
                    obs.thread_name(i, name);
                }
            }
        }
    }
    clients.start(&mut cl_out);
    for (s, sh) in shards.iter().enumerate() {
        for (i, op) in sh.compiled.ops.iter().enumerate() {
            sim.schedule_at(op.at, FleetEvent::Fault { shard: s as u32, idx: i as u32 });
        }
    }
    flush!();

    let mut cpu_snap: Vec<_> = shards.iter().map(|sh| *sh.cpu.stats()).collect();
    let mut tcp_snap: Vec<_> = shards.iter().map(|sh| sh.tcp.stats()).collect();
    let mut cnt_snap: Vec<Counters> = shards.iter().map(|sh| sh.cnt).collect();
    let mut uring_snap: Vec<_> = shards
        .iter()
        .map(|sh| sh.server.uring_stats().unwrap_or_default())
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

    loop {
        if !snapped && sim.peek_time().is_none_or(|t| t >= warm_end) {
            for (s, sh) in shards.iter().enumerate() {
                cpu_snap[s] = *sh.cpu.stats();
                tcp_snap[s] = sh.tcp.stats();
                cnt_snap[s] = sh.cnt;
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
                // Same instant as the counter snapshots: window-relative
                // trace counts are deltas from this point, which makes
                // them bit-identical to the summary's counter deltas.
                obs.window_open(warm_end);
            }
        }
        let Some((now, ev)) = sim.next_event_before(end) else {
            break;
        };
        match ev {
            FleetEvent::Client(ClientEvent::Send { user }) => {
                let spec = clients.next_request(now, user);
                route_new!(now, spec);
            }
            FleetEvent::Client(ClientEvent::Arrival) => {
                if let Some(spec) = clients.on_arrival(now, &mut cl_out) {
                    route_new!(now, spec);
                }
            }
            FleetEvent::Arrive { shard, user, epoch } => {
                let (s, u) = (shard as usize, user as usize);
                if attempt_current!(u, s, epoch) {
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new(now, TraceKind::RequestArrive)
                                .conn(u)
                                .class(shards[s].conn_info[u].class)
                                .arg(shards[s].conn_info[u].response_bytes as u64),
                        );
                    }
                    admit!(now, s, u, epoch);
                }
            }
            FleetEvent::Timeout { shard, user, epoch } => {
                let (s, u) = (shard as usize, user as usize);
                if req[u].as_ref().is_some_and(|t| t.primary == (s, epoch)) {
                    cold();
                    timeouts += 1;
                    if let Some(e) = rto.as_mut() {
                        e.on_timeout();
                    }
                    if obs_on {
                        let (attempt, cls) =
                            req[u].as_ref().map_or((0, 0), |t| (t.attempt, t.class));
                        trace(
                            obs,
                            TraceEvent::new(now, TraceKind::ClientTimeout)
                                .conn(u)
                                .class(cls)
                                .arg(attempt as u64),
                        );
                    }
                    retry_verdict!(now, u, s);
                }
            }
            FleetEvent::Retry { shard, user, epoch } => {
                let (s, u) = (shard as usize, user as usize);
                if req[u].as_ref().is_some_and(|t| t.primary == (s, epoch)) {
                    if let Some(t) = req[u].as_mut() {
                        t.attempt_sent = now;
                    }
                    if multi {
                        let info = req[u].as_ref().map_or(ConnInfo::default(), |t| ConnInfo {
                            response_bytes: t.response_bytes,
                            class: t.class,
                        });
                        sim.schedule_at(
                            now + one_way,
                            FleetEvent::SetConn { shard, user, info },
                        );
                    }
                    sim.schedule_at(now + one_way, FleetEvent::Arrive { shard, user, epoch });
                    sim.schedule_at(
                        now + rto.as_ref().map_or(timeout, |e| e.current()),
                        FleetEvent::Timeout { shard, user, epoch },
                    );
                    if hedge_on {
                        sim.schedule_at(
                            now + hest!(s).delay(&hcfg),
                            FleetEvent::HedgeFire { shard, user, epoch },
                        );
                    }
                }
            }
            FleetEvent::HedgeFire { shard, user, epoch } => {
                let (ps, u) = (shard as usize, user as usize);
                let live = req[u]
                    .as_ref()
                    .is_some_and(|t| t.primary == (ps, epoch) && t.hedge.is_none());
                if live {
                    let (cls, info) = req[u].as_ref().map_or((0, ConnInfo::default()), |t| {
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
                        // Hedge implies ≥ 2 shards: the duplicate's spec
                        // rides with its bytes like every other attempt.
                        sim.schedule_at(
                            now + one_way,
                            FleetEvent::SetConn { shard: h as u32, user, info },
                        );
                        shards[h].epoch[u] += 1;
                        let he = shards[h].epoch[u];
                        if let Some(t) = req[u].as_mut() {
                            t.hedge = Some((h, he));
                        }
                        outstanding[h] += 1;
                        hedges += 1;
                        shards[h].cnt.hedges += 1;
                        if obs_on {
                            let waited = req[u].map_or(0, |t| {
                                now.duration_since(t.attempt_sent).as_nanos()
                            });
                            trace(
                                obs,
                                TraceEvent::new(now, TraceKind::Hedge)
                                    .conn(u)
                                    .class(cls)
                                    .arg(waited),
                            );
                        }
                        sim.schedule_at(
                            now + one_way,
                            FleetEvent::Arrive { shard: h as u32, user, epoch: he },
                        );
                    }
                }
            }
            FleetEvent::SetConn { shard, user, info } => {
                // Applied unconditionally: every attempt of one logical
                // request carries the same spec, and a new request's
                // SetConn always lands strictly after the old one's
                // (later send + same one-way), so the last writer is
                // always the newest attempt.
                shards[shard as usize].conn_info[user as usize] = info;
            }
            FleetEvent::Fault { shard, idx } => {
                cold();
                let s = shard as usize;
                shards[s].cnt.fault_events += 1;
                let outcome = {
                    let sh = &mut shards[s];
                    let top = &sh.compiled.ops[idx as usize];
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new(now, TraceKind::FaultInject).arg(top.code as u64),
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
                        if let Some(sv) = shards[s].serving[c].as_mut() {
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
                            // Only the hedged duplicate lived on the
                            // faulted shard; the primary races on.
                            cancel_hedge!(now, u);
                        }
                    }
                }
            }
            FleetEvent::Cpu { shard, ev } => {
                let s = shard as usize;
                let done = {
                    let sh = &mut shards[s];
                    sh.cpu.on_event(now, ev, &mut sh.cpu_out)
                };
                if let Some(done) = done {
                    let horizon = if fast_forward {
                        spin_horizon(sim.peek_time(), warm_end, end, snapped)
                    } else {
                        now
                    };
                    // A retired write spin moves the callback's clock.
                    let after = dispatch!(@at now, horizon, s, on_burst, done.thread, done.tag);
                    let sh = &mut shards[s];
                    sh.cpu.finish_turn(after, done.thread, &mut sh.cpu_out);
                }
            }
            FleetEvent::Tcp { shard, ev } => {
                let s = shard as usize;
                let notice = {
                    let sh = &mut shards[s];
                    sh.tcp.on_event(now, ev, &mut sh.tcp_out)
                };
                match notice {
                    TcpNotice::SpaceFreed { conn, space } => {
                        if space > 0 {
                            if obs_on {
                                trace(
                                    obs,
                                    TraceEvent::new(now, TraceKind::SendBufDrain)
                                        .conn(conn.0)
                                        .class(shards[s].conn_info[conn.0].class)
                                        .arg(space as u64),
                                );
                            }
                            dispatch!(now, s, on_writable, conn);
                        }
                    }
                    TcpNotice::Delivered { conn, bytes } => {
                        let finished = {
                            let sv = shards[s].serving[conn.0]
                                .as_mut()
                                .expect("delivery for a connection with no response in service");
                            debug_assert!(bytes <= sv.remaining, "over-delivery");
                            sv.remaining -= bytes;
                            sv.remaining == 0
                        };
                        if finished {
                            finish_serving!(now, s, conn.0);
                        }
                    }
                }
            }
        }
        flush!();
    }

    // Aggregate per-shard window deltas into the fleet summary.
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
    for (s, sh) in shards.iter().enumerate() {
        let cd = sh.cpu.stats().delta_since(&cpu_snap[s]);
        let bd = cd.breakdown(cell.measure, cell.cpu.cores);
        let ts = sh.tcp.stats();
        let w = ts.write_calls - tcp_snap[s].write_calls;
        let z = ts.zero_writes - tcp_snap[s].zero_writes;
        let d = sh.cnt.delta(&cnt_snap[s]);
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
        obs.counter("events_processed", sim.events_processed());
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
        for (s, sh) in shards.iter().enumerate() {
            for (name, v) in sh.server.debug_counters() {
                if multi {
                    obs.counter(&format!("s{s}/{name}"), v);
                } else {
                    obs.counter(name, v);
                }
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
        if multi {
            obs.counter("shard_routes", routes - routes_snap);
            obs.counter("hedges", hedges - hedges_snap);
            obs.counter("hedge_cancels", hedge_cancels - hedge_cancels_snap);
            obs.counter("shard_retries", shard_retries - shard_retries_snap);
        }
        for (s, sh) in shards.iter().enumerate() {
            for i in 0..sh.cpu.thread_count() {
                let name = sh.cpu.thread_name(ThreadId(i));
                if multi {
                    obs.thread_name(sh.thread_base as usize + i, &format!("s{s}/{name}"));
                } else {
                    obs.thread_name(i, name);
                }
            }
        }
    }

    // Architectures have distinct names: equal names mean one kind.
    let server = if shards.iter().all(|sh| sh.server.name() == shards[0].server.name()) {
        shards[0].server.name().to_string()
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
}
