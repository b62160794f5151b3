//! The fleet driver: N independent server-under-test shards behind a
//! pluggable balancer, with optional hedged requests and per-shard fault
//! and shed planes.
//!
//! Each shard is a full machine (its own [`CpuModel`], [`TcpWorld`] and
//! architecture instance, reused unchanged from `asyncinv-servers`); one
//! shared client pool routes every request attempt through a
//! [`Balancer`](crate::Balancer). This is the simulator's one drive loop:
//! a single-server [`Experiment`](crate::Experiment) is its one-shard
//! case. At one shard balancers draw no randomness, and no fleet-only
//! trace events or counters exist (those are emitted only when
//! `shards > 1`). Each attempt is one `Arrive` event. The request owns
//! its spec, and a connection takes an attempt's spec when that attempt
//! starts service, so a response in service always reads its own size
//! and class.

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
use asyncinv_simcore::{LaneQueue, SimDuration, SimTime, Simulation};
use asyncinv_tcp::{ConnId, TcpEvent, TcpNotice, TcpWorld};
use asyncinv_workload::{ClientEvent, ClientPool, RetryBudget, RtoEstimator, TimeoutMode, UserId};
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

    /// Checks the configuration, returning the first problem found: the
    /// cell ([`ExperimentConfig::validate`]), then the fleet topology,
    /// hedging and per-shard fault and shed planes.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("a fleet needs at least one shard".into());
        }
        self.cell.validate()?;
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
                return Err(format!(
                    "shard_faults targets shard {} of {}",
                    sf.shard, self.shards
                ));
            }
            if std::mem::replace(&mut seen[sf.shard], true) {
                return Err(format!("duplicate fault plan for shard {}", sf.shard));
            }
            sf.plan.validate()?;
        }
        let mut seen = vec![false; self.shards];
        for ss in &self.shard_shed {
            if ss.shard >= self.shards {
                return Err(format!(
                    "shard_shed targets shard {} of {}",
                    ss.shard, self.shards
                ));
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
        (
            "hedge_cancels_sum",
            sum(|s| s.hedge_cancels),
            fleet.hedge_cancels,
        ),
        (
            "shard_retries_sum",
            sum(|s| s.shard_retries),
            fleet.shard_retries,
        ),
        ("rejected_sum", sum(|s| s.rejected), fleet.rejected),
        (
            "shed_dropped_sum",
            sum(|s| s.shed_dropped),
            fleet.shed_dropped,
        ),
        (
            "fault_events_sum",
            sum(|s| s.fault_events),
            fleet.fault_events,
        ),
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
    /// An attempt's bytes reached a shard's socket. The spec stays with
    /// the request: a connection takes an attempt's spec when that
    /// attempt starts service, never on arrival.
    Arrive { shard: u32, user: u32, epoch: u32 },
    /// The client-side timeout for a primary attempt expired.
    Timeout { shard: u32, user: u32, epoch: u32 },
    /// A backed-off retry fires against its (possibly new) shard.
    Retry { shard: u32, user: u32, epoch: u32 },
    /// The hedge delay for an outstanding primary attempt elapsed.
    HedgeFire { shard: u32, user: u32, epoch: u32 },
    /// A compiled fault-plan operation fires on one shard.
    Fault { shard: u32, idx: u32 },
}

// The `Tcp` variant holds the enum at this size; no other variant may
// grow the queue's entries past it.
const _: () = assert!(std::mem::size_of::<FleetEvent>() == 32);

/// The server's in-progress response on one shard connection (staleness
/// works via attempt identity). Service is serialized per connection: a
/// retransmitted request waits in `pending_arrival` until the previous
/// attempt's response finishes.
#[derive(Debug, Clone, Copy)]
struct Serving {
    epoch: u32,
    remaining: usize,
    reject: bool,
    shorted: bool,
}

/// The fleet's view of one user's outstanding request.
#[derive(Debug, Clone, Copy)]
struct FleetReq {
    /// First-send instant (response time is user-perceived).
    sent_at: SimTime,
    /// Send instant of the current primary attempt (hedge delay base).
    attempt_sent: SimTime,
    /// Retries already made.
    attempt: u32,
    /// Primary attempt identity: `(shard, shard-local epoch)`.
    primary: (usize, u32),
    /// Outstanding hedged duplicate, if any.
    hedge: Option<(usize, u32)>,
    /// The request spec, owned here. Every attempt reads it; a shard
    /// connection takes a copy when one of them starts service.
    spec: ConnInfo,
}

/// Fleet counters kept per shard (windowed by snapshot at warm-up end).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    routes: u64,
    hedges: u64,
    hedge_cancels: u64,
    shard_retries: u64,
    rejected: u64,
    shed_dropped: u64,
    fault_events: u64,
    completions: u64,
}

impl Counters {
    fn delta(&self, snap: &Counters) -> Counters {
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
    /// The spec of the attempt in service on each connection (or of the
    /// last one served), as `Ctx` shows it to the architecture. Written
    /// only where an attempt takes the connection.
    conn_info: Vec<ConnInfo>,
    cpu_out: Vec<(SimTime, CpuEvent)>,
    tcp_out: Vec<(SimTime, TcpEvent)>,
    /// Shard-local attempt epochs per user (monotone; identity of an
    /// attempt on this shard is `(shard, epoch)`).
    epoch: Vec<u32>,
    serving: Vec<Option<Serving>>,
    pending_arrival: Vec<Option<u32>>,
    /// Arrivals waiting for a service slot: `(conn, epoch, class)`.
    accept_q: VecDeque<(usize, u32, usize)>,
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
struct ShardObs<'a> {
    inner: &'a mut dyn Observer,
    base: u32,
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
        self.build_and_drive(kinds, &mut obs)
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
        self.build_and_drive(&vec![kind; self.cfg.shards], obs)
    }

    /// Builds one architecture instance per shard and runs the loop.
    fn build_and_drive(&self, kinds: &[ServerKind], obs: &mut dyn Observer) -> FleetSummary {
        let mut built: Vec<Box<dyn ServerModel>> =
            kinds.iter().map(|k| k.build(&self.cfg.cell)).collect();
        let servers = built
            .iter_mut()
            .map(|b| &mut **b as &mut dyn ServerModel)
            .collect();
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
/// shard. With `fast_forward` off, write-spin iterations run through the
/// event queue instead of being retired inline; results are identical
/// either way.
///
/// The loop runs on a [`LaneQueue`] with one lane per delay the config
/// fixes: zero (zero-think sends and same-instant follow-ups), the
/// one-way delay (attempt arrivals and flight deliveries), the RTT
/// (ACKs) and the fixed retry timeout. Every event is scheduled through
/// `Simulation::schedule_routed`, which takes the lane whose delay is
/// its time less the loop clock and leaves CPU bursts, think times,
/// hedge fires, RTO timeouts, lossy or late flights and outputs of a
/// retired write spin on the heap. The queue pops the heap's exact
/// order, so no result depends on the routing (DESIGN.md §7).
///
/// No per-event step grows with the run's history or the fleet's width.
/// The hedge delay is a running quantile read in O(1) (see
/// [`HedgeEstimator`]). After each event the loop schedules the buffered
/// output of the one shard the event names (`Arrive`, `Cpu`, `Tcp`,
/// `Fault`) and of no shard for a client-side event: no event writes
/// another shard's buffers, so this pushes what a walk over every shard
/// would, in the same order (DESIGN.md §12). Only the flush after init
/// walks every shard.
#[allow(clippy::too_many_lines)]
pub(crate) fn drive(
    cfg: &FleetConfig,
    servers: Vec<&mut dyn ServerModel>,
    obs: &mut dyn Observer,
    fast_forward: bool,
) -> FleetSummary {
    assert_eq!(servers.len(), cfg.shards, "one architecture per shard");
    let cell = &cfg.cell;
    let n = cell.clients.concurrency;
    let n_shards = cfg.shards;
    let multi = n_shards > 1;
    let warm_end = SimTime::ZERO + cell.warmup;
    let end = warm_end + cell.measure;

    let policy = cell.retry;
    let retry_on = policy.enabled();
    let timeout = policy.timeout.unwrap_or_default();
    // One lane per distinct fixed delay; an RTO-mode timeout varies, so
    // it has none.
    let fixed_timeout = retry_on && policy.timeout_mode == TimeoutMode::Fixed;
    let mut delays: Vec<SimDuration> = Vec::new();
    for d in [SimDuration::ZERO, cell.tcp.one_way(), cell.tcp.rtt()]
        .into_iter()
        .chain(fixed_timeout.then_some(timeout))
    {
        if !delays.contains(&d) {
            delays.push(d);
        }
    }
    let mut sim = Simulation::with_backend(LaneQueue::new(&delays));
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
    let mut budget = RetryBudget::new(&policy);
    // TCP-style adaptive timeout: one client-wide estimator (like the
    // retry budget), fed every good response time and Karn-backed-off
    // on timeout. `None` in Fixed mode, where every attempt arms the
    // static `timeout`.
    let mut rto =
        (retry_on && policy.timeout_mode == TimeoutMode::Rto).then(|| RtoEstimator::new(&policy));

    // Hedge plane (fleet-only; validation requires shards >= 2). With
    // `per_shard` the delay estimator is keyed by shard — observations
    // land at the shard that served the completion, and an attempt's
    // hedge delay comes from the shard it targets — so a browned-out
    // shard cannot drag the healthy shards' delay estimate up.
    let hcfg = cfg.hedge.unwrap_or_default();
    let hedge_on = cfg.hedge.is_some();
    let mut hedge_est: Vec<HedgeEstimator> = (0..if hcfg.per_shard { n_shards } else { 1 })
        .map(|_| HedgeEstimator::new(&hcfg))
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
    // callback). The `@with` arm evaluates `$body` with the shard bound
    // to `$sh` and its `Ctx` to `$cx`, for the driver's own writes.
    macro_rules! dispatch {
        ($now:expr, $s:expr, $method:ident $(, $arg:expr)*) => {
            dispatch!(@at $now, $now, $s, $method $(, $arg)*)
        };
        (@at $now:expr, $horizon:expr, $s:expr, $method:ident $(, $arg:expr)*) => {
            dispatch!(@with $now, $horizon, $s, |sh, cx| {
                sh.server.$method(&mut cx $(, $arg)*);
                cx.now()
            })
        };
        (@with $now:expr, $horizon:expr, $s:expr, |$sh:ident, $cx:ident| $body:expr) => {{
            let $sh = &mut shards[$s];
            let mut sobs = ShardObs { inner: &mut *obs, base: $sh.thread_base };
            // This shard's shedder is saturated (slots full or
            // arrivals queued).
            let shed_active = $sh
                .shed
                .is_some_and(|sc| $sh.serving_count >= sc.max_concurrent || !$sh.accept_q.is_empty());
            let mut $cx = Ctx::for_driver(
                $now,
                $horizon,
                &mut $sh.cpu,
                &mut $sh.tcp,
                &cell.profile,
                &$sh.conn_info,
                &mut $sh.cpu_out,
                &mut $sh.tcp_out,
                &mut sobs,
                obs_on,
                shed_active,
            );
            $body
        }};
    }

    // Schedules what the shards in `$r` and the clients left in their
    // buffers: sched logs (trace only), then each shard's cpu_out, then
    // each shard's tcp_out, then client events. The order sets FIFO
    // tie-breaks among same-instant events, which the pinned fixtures
    // and goldens depend on. After init `$r` is every shard; after an
    // event it is the one shard the event names, or none. No event
    // writes another shard's buffers (hedges, retries and cancels reach
    // other shards as scheduled events or counters), so the others are
    // already empty and the push order is that of an all-shard flush.
    macro_rules! flush {
        ($r:expr) => {{
            let r: std::ops::Range<usize> = $r;
            if obs_on {
                for sh in &mut shards[r.clone()] {
                    let base = sh.thread_base as usize;
                    for se in sh.cpu.drain_sched_log() {
                        match se {
                            SchedEvent::Switch {
                                at,
                                thread,
                                migrated,
                            } => trace(
                                obs,
                                TraceEvent::new(at, TraceKind::ThreadDispatch)
                                    .thread(thread.0 + base)
                                    .arg(migrated as u64),
                            ),
                            SchedEvent::Park { at, thread } => trace(
                                obs,
                                TraceEvent::new(at, TraceKind::ThreadPark).thread(thread.0 + base),
                            ),
                        }
                    }
                }
            }
            // Most events leave most buffers empty: skip those without
            // building a drain.
            for s in r.clone() {
                let sh = &mut shards[s];
                if !sh.cpu_out.is_empty() {
                    for (t, e) in sh.cpu_out.drain(..) {
                        sim.schedule_routed(
                            t,
                            FleetEvent::Cpu {
                                shard: s as u32,
                                ev: e,
                            },
                        );
                    }
                }
            }
            for s in r {
                let sh = &mut shards[s];
                if !sh.tcp_out.is_empty() {
                    for (t, e) in sh.tcp_out.drain(..) {
                        sim.schedule_routed(
                            t,
                            FleetEvent::Tcp {
                                shard: s as u32,
                                ev: e,
                            },
                        );
                    }
                }
            }
            debug_assert!(
                shards.iter().all(|sh| sh.cpu_out.is_empty()
                    && sh.tcp_out.is_empty()
                    && sh.cpu.sched_log_is_empty()),
                "an event left output in a shard it does not name"
            );
            if !cl_out.is_empty() {
                for (t, e) in cl_out.drain(..) {
                    sim.schedule_routed(t, FleetEvent::Client(e));
                }
            }
        }};
    }

    // The request's spec while `(shard $s, epoch $e)` is the user's live
    // primary or hedge attempt, else `None`; all staleness filtering
    // goes through this.
    macro_rules! live_spec {
        ($u:expr, $s:expr, $e:expr) => {
            req[$u]
                .as_ref()
                .filter(|t| t.primary == ($s, $e) || t.hedge == Some(($s, $e)))
                .map(|t| t.spec)
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
                    let cls = t.spec.class;
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
                            .class(t.spec.class)
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
                let cls = req[$u].as_ref().map_or(0, |t| t.spec.class);
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
                shards[target].epoch[$u] += 1;
                let ne = shards[target].epoch[$u];
                if let Some(t) = req[$u].as_mut() {
                    t.primary = (target, ne);
                    t.attempt += 1;
                }
                // At one shard `target == $fs` always.
                if target != $fs {
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
                sim.schedule_routed(
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

    // Starts serving attempt `$ep` (spec `$spec`) on shard `$s`,
    // connection `$conn`: the connection takes the attempt's spec here.
    macro_rules! start_serving {
        ($now:expr, $s:expr, $conn:expr, $ep:expr, $spec:expr) => {{
            {
                let spec: ConnInfo = $spec;
                let sh = &mut shards[$s];
                sh.conn_info[$conn] = spec;
                sh.serving[$conn] = Some(Serving {
                    epoch: $ep,
                    remaining: spec.response_bytes,
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
        ($now:expr, $s:expr, $conn:expr, $cls:expr, $code:expr) => {{
            shards[$s].cnt.shed_dropped += 1;
            if obs_on {
                trace(
                    obs,
                    TraceEvent::new($now, TraceKind::Shed)
                        .conn($conn)
                        .class($cls)
                        .arg($code),
                );
            }
        }};
    }

    // Admission control for a valid arrival of attempt `$ep` (spec
    // `$spec`) on shard `$s`: per-connection serialization first (a
    // retransmission of a request whose previous response is still
    // being produced parks in `pending_arrival`), then the shed limits,
    // then dispatch to the architecture.
    macro_rules! admit {
        ($now:expr, $s:expr, $conn:expr, $ep:expr, $spec:expr) => {{
            let spec: ConnInfo = $spec;
            if shards[$s].serving[$conn].is_some() {
                cold();
                shards[$s].pending_arrival[$conn] = Some($ep);
            } else if let Some(sc) = shards[$s].shed {
                if shards[$s].serving_count < sc.max_concurrent {
                    start_serving!($now, $s, $conn, $ep, spec);
                } else if shards[$s].accept_q.len() < sc.queue_cap {
                    shards[$s].accept_q.push_back(($conn, $ep, spec.class));
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::QueueEnter)
                                .conn($conn)
                                .class(spec.class)
                                .arg(trace_codes::Q_ACCEPT),
                        );
                    }
                } else {
                    match sc.policy {
                        ShedPolicy::DropNew => {
                            shed_drop!($now, $s, $conn, spec.class, trace_codes::SHED_DROP_NEW);
                        }
                        ShedPolicy::DropOldest => {
                            if let Some((oc, _oe, ocls)) = shards[$s].accept_q.pop_front() {
                                if obs_on {
                                    trace(
                                        obs,
                                        TraceEvent::new($now, TraceKind::QueueExit)
                                            .conn(oc)
                                            .class(ocls)
                                            .arg(trace_codes::Q_ACCEPT),
                                    );
                                }
                                shed_drop!($now, $s, oc, ocls, trace_codes::SHED_EVICT);
                                shards[$s].accept_q.push_back(($conn, $ep, spec.class));
                                if obs_on {
                                    trace(
                                        obs,
                                        TraceEvent::new($now, TraceKind::QueueEnter)
                                            .conn($conn)
                                            .class(spec.class)
                                            .arg(trace_codes::Q_ACCEPT),
                                    );
                                }
                            } else {
                                // Zero-capacity queue degenerates to
                                // dropping the newcomer.
                                shed_drop!($now, $s, $conn, spec.class, trace_codes::SHED_DROP_NEW);
                            }
                        }
                        ShedPolicy::RejectFast => {
                            shards[$s].cnt.rejected += 1;
                            if obs_on {
                                let waited = req[$conn]
                                    .as_ref()
                                    .map_or(0, |t| $now.duration_since(t.sent_at).as_nanos());
                                trace(
                                    obs,
                                    TraceEvent::new($now, TraceKind::Rejected)
                                        .conn($conn)
                                        .class(spec.class)
                                        .arg(waited),
                                );
                            }
                            // The rejected attempt takes the connection,
                            // and the driver writes the rejection
                            // through the shard's `Ctx`.
                            shards[$s].conn_info[$conn] = spec;
                            let written = dispatch!(@with $now, $now, $s, |_sh, cx| {
                                cx.write(ConnId($conn), sc.reject_bytes)
                            });
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
                start_serving!($now, $s, $conn, $ep, spec);
            }
        }};
    }

    // Refills freed service slots on shard `$s` from its accept queue.
    macro_rules! drain_queue {
        ($now:expr, $s:expr) => {{
            if let Some(sc) = shards[$s].shed {
                while shards[$s].serving_count < sc.max_concurrent {
                    let Some((qc, qe, qcls)) = shards[$s].accept_q.pop_front() else {
                        break;
                    };
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::QueueExit)
                                .conn(qc)
                                .class(qcls)
                                .arg(trace_codes::Q_ACCEPT),
                        );
                    }
                    // Entries whose attempt was timed out, abandoned or
                    // superseded while queued are dropped silently.
                    if shards[$s].serving[qc].is_none() {
                        if let Some(spec) = live_spec!(qc, $s, qe) {
                            start_serving!($now, $s, qc, qe, spec);
                        }
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
            let fin = shards[$s].serving[$conn]
                .take()
                .expect("finish without serving");
            if !fin.reject {
                shards[$s].serving_count -= 1;
            }
            let is_primary = req[$conn]
                .as_ref()
                .is_some_and(|t| t.primary == ($s, fin.epoch));
            let is_hedge = req[$conn]
                .as_ref()
                .is_some_and(|t| t.hedge == Some(($s, fin.epoch)));
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
                        class_hist[track.spec.class].record(rt);
                    }
                    shards[$s].cnt.completions += 1;
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new($now, TraceKind::Completion)
                                .conn($conn)
                                .class(track.spec.class)
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
                        hedge_cancelled!($now, $conn, ps, track.spec.class);
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
                if let Some(spec) = live_spec!($conn, $s, pe) {
                    admit!($now, $s, $conn, pe, spec);
                }
            }
            if !fin.reject {
                drain_queue!($now, $s);
            }
        }};
    }

    // Sends a primary attempt of user `$u`'s request to shard `$s`: its
    // bytes arrive one way later, and its timeout and hedge are armed
    // when those planes are on. Shared by fresh routes and retries.
    macro_rules! send_primary {
        ($now:expr, $s:expr, $u:expr, $ep:expr) => {{
            let (shard, user, epoch) = ($s as u32, $u as u32, $ep);
            sim.schedule_routed($now + one_way, FleetEvent::Arrive { shard, user, epoch });
            if retry_on {
                sim.schedule_routed(
                    $now + rto.as_ref().map_or(timeout, |e| e.current()),
                    FleetEvent::Timeout { shard, user, epoch },
                );
            }
            if hedge_on {
                sim.schedule_routed(
                    $now + hest!($s).delay(),
                    FleetEvent::HedgeFire { shard, user, epoch },
                );
            }
        }};
    }

    // Routes a fresh request from the shared client pool to a shard.
    macro_rules! route_new {
        ($now:expr, $spec:expr) => {{
            let u = $spec.user.0;
            // Every balancer picks shard 0 of one, without randomness.
            let s = if multi {
                bal.pick(u, $spec.class, &outstanding)
            } else {
                0
            };
            shards[s].epoch[u] += 1;
            let ep = shards[s].epoch[u];
            req[u] = Some(FleetReq {
                sent_at: $now,
                attempt_sent: $now,
                attempt: 0,
                primary: (s, ep),
                hedge: None,
                spec: ConnInfo {
                    response_bytes: $spec.response_bytes,
                    class: $spec.class,
                },
            });
            outstanding[s] += 1;
            if multi {
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
            if retry_on {
                budget.deposit();
            }
            send_primary!($now, s, u, ep);
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
    // Architectures spawn every thread in `init`, so one naming pass
    // covers the run.
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
            sim.schedule_routed(
                op.at,
                FleetEvent::Fault {
                    shard: s as u32,
                    idx: i as u32,
                },
            );
        }
    }
    flush!(0..n_shards);

    // Warm-up-end baselines of every windowed counter, taken at the one
    // site below: every exit from the loop passes through it first.
    let mut snap = Vec::new();
    let mut snapped = false;
    let (mut timeouts_snap, mut retries_snap, mut abandoned_snap, mut dropped_snap) = (0, 0, 0, 0);

    loop {
        if !snapped && sim.peek_time().is_none_or(|t| t >= warm_end) {
            snap = shards
                .iter()
                .map(|sh| {
                    let uring = sh.server.uring_stats().unwrap_or_default();
                    (*sh.cpu.stats(), sh.tcp.stats(), sh.cnt, uring)
                })
                .collect();
            timeouts_snap = timeouts;
            retries_snap = retries;
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
        // The shard whose buffers the event may write: the one a
        // server-side event names, none for a client-side one.
        let named: Option<usize> = match ev {
            FleetEvent::Client(ClientEvent::Send { user }) => {
                let spec = clients.next_request(now, user);
                route_new!(now, spec);
                None
            }
            FleetEvent::Client(ClientEvent::Arrival) => {
                if let Some(spec) = clients.on_arrival(now, &mut cl_out) {
                    route_new!(now, spec);
                }
                None
            }
            FleetEvent::Arrive { shard, user, epoch } => {
                let (s, u) = (shard as usize, user as usize);
                if let Some(spec) = live_spec!(u, s, epoch) {
                    if obs_on {
                        trace(
                            obs,
                            TraceEvent::new(now, TraceKind::RequestArrive)
                                .conn(u)
                                .class(spec.class)
                                .arg(spec.response_bytes as u64),
                        );
                    }
                    admit!(now, s, u, epoch, spec);
                }
                Some(s)
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
                        let (attempt, cls) = req[u]
                            .as_ref()
                            .map_or((0, 0), |t| (t.attempt, t.spec.class));
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
                None
            }
            FleetEvent::Retry { shard, user, epoch } => {
                let (s, u) = (shard as usize, user as usize);
                if let Some(t) = req[u].as_mut().filter(|t| t.primary == (s, epoch)) {
                    t.attempt_sent = now;
                    send_primary!(now, s, u, epoch);
                }
                None
            }
            FleetEvent::HedgeFire { shard, user, epoch } => {
                let (ps, u) = (shard as usize, user as usize);
                let live = req[u]
                    .as_mut()
                    .filter(|t| t.primary == (ps, epoch) && t.hedge.is_none());
                if let Some(t) = live {
                    let h = bal.pick_excluding(u, t.spec.class, &outstanding, ps);
                    if h != ps {
                        shards[h].epoch[u] += 1;
                        let he = shards[h].epoch[u];
                        t.hedge = Some((h, he));
                        outstanding[h] += 1;
                        shards[h].cnt.hedges += 1;
                        if obs_on {
                            trace(
                                obs,
                                TraceEvent::new(now, TraceKind::Hedge)
                                    .conn(u)
                                    .class(t.spec.class)
                                    .arg(now.duration_since(t.attempt_sent).as_nanos()),
                            );
                        }
                        sim.schedule_routed(
                            now + one_way,
                            FleetEvent::Arrive {
                                shard: h as u32,
                                user,
                                epoch: he,
                            },
                        );
                    }
                }
                None
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
                Some(s)
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
                Some(s)
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
                            let Some(left) = sv.remaining.checked_sub(bytes) else {
                                panic!(
                                    "over-delivery: shard {s} conn {} epoch {}: {bytes} bytes \
                                     delivered with {} left",
                                    conn.0, sv.epoch, sv.remaining
                                );
                            };
                            sv.remaining = left;
                            left == 0
                        };
                        if finished {
                            finish_serving!(now, s, conn.0);
                        }
                    }
                }
                Some(s)
            }
        };
        flush!(named.map_or(0..0, |s| s..s + 1));
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
    for (s, (sh, (cpu0, tcp0, cnt0, uring0))) in shards.iter().zip(&snap).enumerate() {
        let cd = sh.cpu.stats().delta_since(cpu0);
        let bd = cd.breakdown(cell.measure, cell.cpu.cores);
        let ts = sh.tcp.stats();
        let w = ts.write_calls - tcp0.write_calls;
        let z = ts.zero_writes - tcp0.zero_writes;
        let d = sh.cnt.delta(cnt0);
        let ud = sh
            .server
            .uring_stats()
            .unwrap_or_default()
            .delta_since(uring0);
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
    // Each fleet counter lives once per shard; the fleet totals are the
    // per-shard sums.
    let total = |f: fn(&ShardSummary) -> u64| -> u64 { per_shard.iter().map(f).sum() };
    let rejected = total(|p| p.rejected);
    let shed_dropped = total(|p| p.shed_dropped);
    let fault_events = total(|p| p.fault_events);
    let shard_routes = total(|p| p.routes);
    let hedges = total(|p| p.hedges);
    let hedge_cancels = total(|p| p.hedge_cancels);
    let shard_retries = total(|p| p.shard_retries);

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
        obs.counter("rejected", rejected);
        obs.counter("shed_dropped", shed_dropped);
        obs.counter("fault_events", fault_events);
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
            obs.counter("shard_routes", shard_routes);
            obs.counter("hedges", hedges);
            obs.counter("hedge_cancels", hedge_cancels);
            obs.counter("shard_retries", shard_retries);
        }
    }

    // Architectures have distinct names: equal names mean one kind.
    let server = if shards
        .iter()
        .all(|sh| sh.server.name() == shards[0].server.name())
    {
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
        rejected,
        shed_dropped,
        fault_events,
        shard_routes,
        hedges,
        hedge_cancels,
        shard_retries,
        per_class,
    };

    FleetSummary { fleet, per_shard }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncinv_simcore::SimDuration;
    use asyncinv_workload::RetryPolicy;

    /// Everything a traced run externalizes except `events_processed`:
    /// events, thread names, counters and bit-compared gauges.
    type TraceState = (Vec<TraceEvent>, Vec<String>, Vec<(String, u64)>, Vec<u64>);

    fn trace_state(rec: &Recorder) -> (TraceState, u64) {
        let events: Vec<TraceEvent> = rec.events().copied().collect();
        let names = rec.thread_names().to_vec();
        let mut counters: Vec<(String, u64)> = rec
            .registry()
            .counters()
            .filter(|(n, _)| *n != "events_processed")
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = rec
            .registry()
            .gauges()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let gauges = gauges.into_iter().map(|(_, v)| v.to_bits()).collect();
        let processed = rec.registry().counter("events_processed").unwrap_or(0);
        ((events, names, counters, gauges), processed)
    }

    /// Runs a homogeneous fleet with the write-spin fast-forward off.
    fn stepwise(cfg: &FleetConfig, kind: ServerKind, obs: &mut dyn Observer) -> FleetSummary {
        let mut built: Vec<Box<dyn ServerModel>> =
            (0..cfg.shards).map(|_| kind.build(&cfg.cell)).collect();
        let servers = built
            .iter_mut()
            .map(|b| &mut **b as &mut dyn ServerModel)
            .collect();
        drive(cfg, servers, obs, false)
    }

    /// Fleets of any size retire spins: the loop hands every burst
    /// completion the global queue head as its horizon. The stepwise
    /// reference is the same loop with the fast-forward off. Summaries,
    /// the full trace stream, thread names, gauges and every counter but
    /// `events_processed` must agree bit for bit, and that one must drop.
    #[test]
    fn fast_forward_is_exact_on_interleaved_fleets() {
        let spinners = [
            ServerKind::SingleThread,
            ServerKind::AsyncPool,
            ServerKind::AsyncPoolFix,
            ServerKind::Staged,
        ];
        for kind in spinners {
            for balancer in [BalancerKind::RoundRobin, BalancerKind::LeastOutstanding] {
                let mut cell = ExperimentConfig::micro(6, 100 * 1024)
                    .with_latency(SimDuration::from_micros(5_000));
                cell.warmup = SimDuration::from_millis(100);
                cell.measure = SimDuration::from_millis(200);
                cell.trace_capacity = 1 << 16;
                cell.retry = RetryPolicy {
                    timeout: Some(SimDuration::from_millis(60)),
                    max_retries: 2,
                    ..RetryPolicy::default()
                };
                let cfg = FleetConfig::new(cell, 3, balancer);
                let fleet = Cluster::new(cfg.clone());
                let label = format!("{kind}/{}", balancer.name());
                assert_eq!(
                    fleet.run(kind),
                    stepwise(&cfg, kind, &mut NoopObserver),
                    "{label}: summary diverged"
                );
                let (a, rec_a) = fleet.run_traced(kind);
                let mut rec_b =
                    Recorder::with_sampling(cfg.cell.trace_capacity, cfg.cell.trace_sample);
                let b = stepwise(&cfg, kind, &mut rec_b);
                assert_eq!(a, b, "{label}: traced summary diverged");
                let (state_a, processed_a) = trace_state(&rec_a);
                let (state_b, processed_b) = trace_state(&rec_b);
                assert!(state_a == state_b, "{label}: trace state diverged");
                // Spinning shards bound each other's horizons, so the drop
                // is smaller than for one server; it must still be there.
                assert!(
                    processed_a < processed_b,
                    "{label}: {processed_a} vs {processed_b} events"
                );
            }
        }
    }
}
