//! The experiment engine: wires clients, TCP, CPU and a server model
//! together and measures a run.

use asyncinv_cpu::{Burst, CpuConfig, CpuEvent, CpuModel, SchedEvent, ThreadId};
use asyncinv_fault::FaultPlan;
use asyncinv_metrics::{ClassSummary, CpuShare, Histogram, RunSummary, ThroughputWindow};
use asyncinv_obs::{NoopObserver, Observer, Recorder, TraceEvent, TraceKind};
use asyncinv_simcore::{
    AdaptiveQueue, BackendKind, CalendarQueue, EventQueue, LadderQueue, QueueBackend, SimDuration,
    SimTime, Simulation,
};
use asyncinv_tcp::{ConnId, TcpConfig, TcpEvent, TcpNotice, TcpWorld};
use asyncinv_workload::{
    ClientConfig, ClientEvent, ClientPool, Mix, RetryBudget, RetryPolicy, RtoEstimator, ThinkTime,
    TimeoutMode, UserId,
};
use std::collections::VecDeque;

use crate::arch::{ServerKind, ServerModel};
use serde::{Deserialize, Serialize};
use crate::profile::ServiceProfile;

/// Everything a single experiment cell needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Machine model.
    pub cpu: CpuConfig,
    /// Network model.
    pub tcp: TcpConfig,
    /// Closed-loop client pool.
    pub clients: ClientConfig,
    /// Request-processing cost model.
    pub profile: ServiceProfile,
    /// Warm-up time excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Worker-pool size of the sTomcat-Async variants (Tomcat's default
    /// `maxThreads` is 200).
    pub pool_workers: usize,
    /// Event-loop thread count for NettyServer/HybridNetty.
    pub netty_workers: usize,
    /// Workers per stage for the Staged-SEDA extension.
    pub staged_workers: usize,
    /// Netty's `writeSpinCount` (default 16 in Netty 4).
    pub write_spin_limit: u32,
    /// Model the full Tomcat 8 NIO poller (per-event select cycles,
    /// interest re-registration round trips) instead of the paper's
    /// simplified sTomcat-Async. Off for the micro-benchmarks (which study
    /// the simplified servers), on in the RUBBoS macro engine (which
    /// upgrades the *real* Tomcat).
    pub tomcat_real_nio: bool,
    /// Capacity of the structured trace ring buffer used by
    /// [`Experiment::run_traced`] (how many [`TraceEvent`]s the returned
    /// [`Recorder`] retains; aggregate counts stay exact regardless).
    pub trace_capacity: usize,
    /// Trace sampling divisor: the ring retains every n-th event (0 and 1
    /// both mean "keep all"). Counts are taken before sampling.
    #[serde(default)]
    pub trace_sample: u64,
    /// Simulation queue backend. All backends produce identical results
    /// (the ordering contract is property-tested); this only trades
    /// wall-clock speed. Defaults to [`BackendKind::Adaptive`].
    #[serde(default)]
    pub backend: BackendKind,
    /// Optional fault-injection schedule. `None` (the default) compiles to
    /// nothing: no fault state is consulted anywhere in the hot path and
    /// runs are bit-identical to builds without the fault plane.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Optional server-side load shedding (bounded accept queue + a
    /// concurrent-service cap). `None` admits everything, as before.
    #[serde(default)]
    pub shed: Option<ShedConfig>,
    /// Client resilience policy (per-request timeout, bounded retries with
    /// backoff + jitter, retry budget). Disabled by default.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Submission/completion ring geometry and cost curves for the
    /// Proactor architecture (ignored by the seven syscall-per-op
    /// architectures).
    #[serde(default)]
    pub uring: asyncinv_uring::UringConfig,
    /// Which backend the HybridNetty router hands heavy requests to.
    #[serde(default)]
    pub hybrid_heavy: HybridPath,
}

/// Heavy-path backend selection for the HybridNetty router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HybridPath {
    /// Heavy requests run on the Netty-style event-loop workers
    /// (the paper's HybridNetty).
    #[default]
    Netty,
    /// Heavy requests are driven through the proactor's submission ring:
    /// batched kernel crossings and CQE-driven writes instead of a
    /// write-spin loop.
    Proactor,
}

/// What the server does with an arrival that exceeds its capacity limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ShedPolicy {
    /// Drop the incoming request silently (the client's timeout, if any,
    /// recovers it).
    #[default]
    DropNew,
    /// Evict the oldest queued request to make room for the incoming one.
    DropOldest,
    /// Immediately write a small error response so the client learns of
    /// the rejection after one network round trip instead of a timeout.
    RejectFast,
}

/// Server-side graceful-degradation limits, applied by the engine in front
/// of every architecture's dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedConfig {
    /// Maximum requests in service concurrently (across all connections).
    pub max_concurrent: usize,
    /// Bounded accept-queue capacity holding arrivals above the limit.
    pub queue_cap: usize,
    /// What happens when the queue is also full.
    pub policy: ShedPolicy,
    /// Error-response size written by [`ShedPolicy::RejectFast`].
    pub reject_bytes: usize,
}

impl ShedConfig {
    /// Checks the limits for structural validity.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_concurrent == 0 {
            return Err("max_concurrent must be positive".into());
        }
        if self.policy == ShedPolicy::RejectFast && self.reject_bytes == 0 {
            return Err("reject_bytes must be positive for RejectFast".into());
        }
        Ok(())
    }
}

impl ExperimentConfig {
    /// A micro-benchmark cell: single-core machine, default LAN, zero think
    /// time, a single request class of `response_bytes`.
    pub fn micro(concurrency: usize, response_bytes: usize) -> Self {
        ExperimentConfig::with_mix(
            concurrency,
            Mix::single(format!("{response_bytes}B"), response_bytes),
        )
    }

    /// A micro-benchmark cell with an explicit request mix.
    pub fn with_mix(concurrency: usize, mix: Mix) -> Self {
        ExperimentConfig {
            cpu: CpuConfig::single_core(),
            tcp: TcpConfig::default(),
            clients: ClientConfig {
                concurrency,
                think: ThinkTime::Zero,
                mix,
                seed: 42,
                arrivals: asyncinv_workload::ArrivalMode::Closed,
            },
            profile: ServiceProfile::default(),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(10),
            pool_workers: 200,
            netty_workers: 1,
            staged_workers: 4,
            write_spin_limit: 16,
            tomcat_real_nio: false,
            trace_capacity: 0,
            trace_sample: 0,
            backend: BackendKind::default(),
            faults: None,
            shed: None,
            retry: RetryPolicy::default(),
            uring: asyncinv_uring::UringConfig::default(),
            hybrid_heavy: HybridPath::default(),
        }
    }

    /// Sets the injected one-way network latency (the paper's `tc`).
    pub fn with_latency(mut self, one_way: SimDuration) -> Self {
        self.tcp.added_latency = one_way;
        self
    }
}

/// Union event type routed by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// Scheduler event.
    Cpu(CpuEvent),
    /// Network event.
    Tcp(TcpEvent),
    /// Client-pool event.
    Client(ClientEvent),
    /// A request's bytes reached the server socket.
    RequestArrive {
        /// Connection now readable.
        conn: ConnId,
        /// Attempt epoch the bytes belong to; stale epochs (the client
        /// timed out or abandoned meanwhile) are discarded on arrival.
        epoch: u32,
    },
    /// A compiled fault-plan operation fires (index into the plan).
    Fault {
        /// Index into the compiled operation list.
        idx: u32,
    },
    /// The client-side timeout for an attempt expired.
    Timeout {
        /// Connection whose request may have timed out.
        conn: ConnId,
        /// Attempt epoch the timer was armed for.
        epoch: u32,
    },
    /// A backed-off retry fires: re-send the request.
    Retry {
        /// Connection retrying.
        conn: ConnId,
        /// Attempt epoch assigned when the retry was scheduled.
        epoch: u32,
    },
}

/// Per-connection request info exposed to server models (what the server
/// learns by parsing the request). Public so external drivers (the fleet
/// layer in `asyncinv-fleet`) can host architectures through
/// [`Ctx::for_driver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnInfo {
    /// Response size in bytes of the request pending on the connection.
    pub response_bytes: usize,
    /// Request class (workload-mix index) of the pending request.
    pub class: usize,
}

/// The server model's handle onto the simulated machine: submit CPU bursts,
/// perform socket writes, inspect the current request.
///
/// A fresh `Ctx` is constructed for every callback; follow-up events the
/// substrates produce are flushed to the simulation queue by the engine
/// after the callback returns.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) cpu: &'a mut CpuModel,
    pub(crate) tcp: &'a mut TcpWorld,
    pub(crate) profile: &'a ServiceProfile,
    pub(crate) conn_info: &'a [ConnInfo],
    pub(crate) cpu_out: &'a mut Vec<(SimTime, CpuEvent)>,
    pub(crate) tcp_out: &'a mut Vec<(SimTime, TcpEvent)>,
    pub(crate) obs: &'a mut dyn Observer,
    /// Cached `obs.is_enabled()` so the disabled path is one local branch.
    pub(crate) obs_on: bool,
    /// `true` while the engine's load shedder is saturated (service slots
    /// exhausted or arrivals parked in the accept queue). Architectures
    /// with adaptive policies (the hybrid router's reclassification) freeze
    /// learning while this holds so overload transients don't poison the
    /// learned state.
    pub(crate) shed_active: bool,
    /// Earliest instant of any event the driver has pending ([`spin_horizon`]):
    /// write-spin iterations that complete strictly before it may be
    /// retired inline ([`Ctx::spin_write`]). Equal to `now`, so nothing is
    /// retired, for contexts built by external drivers.
    pub(crate) horizon: SimTime,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("obs_on", &self.obs_on)
            .finish_non_exhaustive()
    }
}

impl<'a> Ctx<'a> {
    /// Builds a context for an external driver hosting a [`ServerModel`]
    /// outside [`Experiment`] (the fleet layer drives one machine, network
    /// and architecture per shard). The engine's own drive loop constructs
    /// contexts directly; external drivers must uphold the same contract:
    /// construct a fresh `Ctx` per callback and flush `cpu_out` / `tcp_out`
    /// into the simulation queue after the callback returns.
    #[allow(clippy::too_many_arguments)]
    pub fn for_driver(
        now: SimTime,
        cpu: &'a mut CpuModel,
        tcp: &'a mut TcpWorld,
        profile: &'a ServiceProfile,
        conn_info: &'a [ConnInfo],
        cpu_out: &'a mut Vec<(SimTime, CpuEvent)>,
        tcp_out: &'a mut Vec<(SimTime, TcpEvent)>,
        obs: &'a mut dyn Observer,
        obs_on: bool,
        shed_active: bool,
    ) -> Self {
        Ctx {
            now,
            cpu,
            tcp,
            profile,
            conn_info,
            cpu_out,
            tcp_out,
            obs,
            obs_on,
            shed_active,
            horizon: now,
        }
    }

    /// Current virtual time. A [`Ctx::spin_write`] that retires iterations
    /// moves it forward within the callback.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cost model.
    pub fn profile(&self) -> &ServiceProfile {
        self.profile
    }

    /// Spawns a server thread (blocked until its first burst).
    pub fn spawn_thread(&mut self, name: impl Into<String>) -> ThreadId {
        self.cpu.spawn_thread(name)
    }

    /// Submits a CPU burst for `tid`; completion is delivered back to the
    /// model via [`ServerModel::on_burst`] with `tag`.
    pub fn submit(&mut self, tid: ThreadId, burst: Burst, tag: u64) {
        self.cpu.submit(self.now, tid, burst, tag, self.cpu_out);
    }

    /// Non-blocking `socket.write()` on `conn` (counted, may return 0).
    pub fn write(&mut self, conn: ConnId, len: usize) -> usize {
        let written = self.tcp.write(self.now, conn, len, self.tcp_out);
        self.trace_write(self.now, conn, written);
        written
    }

    /// Mirrors TcpWorld's write_calls / zero_writes counters in the trace
    /// exactly: one WriteCall per syscall, one WriteSpin per zero return.
    #[inline]
    fn trace_write(&mut self, at: SimTime, conn: ConnId, written: usize) {
        if !self.obs_on {
            return;
        }
        let class = self.conn_info[conn.0].class;
        self.obs.record(
            TraceEvent::new(at, TraceKind::WriteCall)
                .conn(conn.0)
                .class(class)
                .arg(written as u64),
        );
        if written == 0 {
            self.obs
                .record(TraceEvent::new(at, TraceKind::WriteSpin).conn(conn.0).class(class));
        }
    }

    /// One write of an unbounded write-spin loop: [`Ctx::write`] by `tid`,
    /// the thread whose burst completion is being delivered, which then
    /// runs `cycle` (the bursts one zero-return iteration costs, chained
    /// from each completion) and writes again until the write succeeds.
    ///
    /// When the write returns zero, the iterations that would follow it
    /// change nothing but counters and the clock until the next ACK or
    /// fault, so the ones that complete before the driver's next pending
    /// event are retired here, exactly:
    /// [`CpuModel::retire_cycles`] charges their bursts, the connection
    /// counts their zero writes, and the trace gets their WriteCall and
    /// WriteSpin events at the instants they would have happened. The
    /// callback then continues at the last retired write: [`Ctx::now`]
    /// moves there, and the returned count is that write's, zero. The
    /// run's results and trace are bit-identical to spinning through the
    /// event queue; only the number of events processed drops.
    pub fn spin_write(
        &mut self,
        tid: ThreadId,
        conn: ConnId,
        len: usize,
        cycle: &[Burst],
    ) -> usize {
        let written = self.write(conn, len);
        if written > 0 || self.horizon <= self.now || !self.tcp.conn(conn).write_stalled() {
            return written;
        }
        // Bursts and sends this callback already produced are pending too.
        let horizon = self
            .cpu_out
            .iter()
            .map(|&(t, _)| t)
            .chain(self.tcp_out.iter().map(|&(t, _)| t))
            .fold(self.horizon, SimTime::min);
        let retired = self.cpu.retire_cycles(self.now, tid, cycle, horizon);
        if retired.cycles == 0 {
            return 0;
        }
        let start = self.now;
        if self.obs_on {
            for i in 1..=retired.cycles {
                self.trace_write(start + retired.period * i, conn, 0);
            }
        }
        self.now = start + retired.period * retired.cycles;
        self.tcp.retire_zero_writes(conn, self.now, retired.cycles);
        0
    }

    /// Blocking-write kernel continuation (not counted as a syscall).
    pub fn write_continue(&mut self, conn: ConnId, len: usize) -> usize {
        self.tcp.write_continue(self.now, conn, len, self.tcp_out)
    }

    /// Free send-buffer space on `conn`.
    pub fn space(&self, conn: ConnId) -> usize {
        self.tcp.conn(conn).space()
    }

    /// Response size of the request currently pending on `conn`.
    pub fn response_bytes(&self, conn: ConnId) -> usize {
        self.conn_info[conn.0].response_bytes
    }

    /// Request class (index into the workload mix) pending on `conn`.
    pub fn request_class(&self, conn: ConnId) -> usize {
        self.conn_info[conn.0].class
    }

    /// `true` when structured tracing is enabled; server models guard
    /// their [`Ctx::emit`] call sites with this to keep disabled runs free.
    pub fn trace_enabled(&self) -> bool {
        self.obs_on
    }

    /// `true` while the engine's server-side load shedder is actively
    /// degrading (service cap reached or arrivals queued). Always `false`
    /// when no [`ShedConfig`] is set.
    ///
    /// Contract: architectures must sample this during
    /// [`ServerModel::on_request`](crate::ServerModel::on_request) (the
    /// admission dispatch) and carry the bit per-request. Fleet drivers
    /// only guarantee the value there — the parallel-in-time driver
    /// replays burst/writable callbacks in phase workers, where live
    /// shedder state does not exist.
    pub fn shed_active(&self) -> bool {
        self.shed_active
    }

    /// Emits a structured trace event (no-op when observability is off).
    ///
    /// When `conn` is given the request class is stamped automatically from
    /// the pending request's parsed info; the [`Recorder`] additionally
    /// stamps a request id derived from the arrival stream.
    pub fn emit(
        &mut self,
        kind: TraceKind,
        conn: Option<ConnId>,
        thread: Option<ThreadId>,
        arg: u64,
    ) {
        if !self.obs_on {
            return;
        }
        let mut ev = TraceEvent::new(self.now, kind).arg(arg);
        if let Some(c) = conn {
            ev = ev.conn(c.0).class(self.conn_info[c.0].class);
        }
        if let Some(t) = thread {
            ev = ev.thread(t.0);
        }
        self.obs.record(ev);
    }
}

/// The spin horizon a drive loop gives a burst completion's [`Ctx`].
/// `next` is the earliest event still queued. Every loop runs events up to
/// `end` inclusive and, until its warm-up snapshot is `snapped`, stops
/// before `warm_end` to take it; retired iterations must not cross either
/// instant.
pub(crate) fn spin_horizon(
    next: Option<SimTime>,
    warm_end: SimTime,
    end: SimTime,
    snapped: bool,
) -> SimTime {
    let mut h = end + SimDuration::from_nanos(1);
    if let Some(t) = next {
        h = h.min(t);
    }
    if !snapped {
        h = h.min(warm_end);
    }
    h
}

/// The client's view of its outstanding request on one connection.
#[derive(Debug, Clone, Copy)]
struct ReqTrack {
    /// First-send instant (response time is user-perceived: measured from
    /// here even when the request was retried).
    sent_at: SimTime,
    /// Current attempt epoch; in-flight events carrying an older epoch are
    /// stale and ignored.
    epoch: u32,
    /// Retries already made (0 = first attempt outstanding).
    attempt: u32,
}

/// The server's in-progress response on one connection. The engine
/// serializes service per connection: a retransmitted request waits in
/// `pending_arrival` until the previous attempt's response finishes.
#[derive(Debug, Clone, Copy)]
struct Serving {
    /// Attempt epoch this response answers.
    epoch: u32,
    /// Response bytes not yet delivered to the client.
    remaining: usize,
    /// `true` for an engine-issued reject-fast error response.
    reject: bool,
    /// `true` when a connection reset dropped part of the response; the
    /// client never sees the full payload, so no completion is recorded.
    shorted: bool,
}

/// Runs one experiment cell.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: ExperimentConfig,
    fast_forward: bool,
}

impl Experiment {
    /// Creates an experiment from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the TCP configuration is invalid or the measurement
    /// window is empty.
    pub fn new(cfg: ExperimentConfig) -> Self {
        if let Err(e) = cfg.tcp.validate() {
            panic!("invalid TcpConfig: {e}");
        }
        if let Err(e) = cfg.retry.validate() {
            panic!("invalid RetryPolicy: {e}");
        }
        if let Some(shed) = &cfg.shed {
            if let Err(e) = shed.validate() {
                panic!("invalid ShedConfig: {e}");
            }
        }
        if let Some(plan) = &cfg.faults {
            if let Err(e) = plan.validate() {
                panic!("invalid FaultPlan: {e}");
            }
        }
        assert!(!cfg.measure.is_zero(), "measurement window must be positive");
        Experiment {
            cfg,
            fast_forward: true,
        }
    }

    /// Whether write-spin iterations are retired inline ([`Ctx::spin_write`];
    /// on by default). Results are identical either way; off runs every
    /// iteration through the event queue, for equivalence checks and
    /// before/after timing.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Runs the given architecture and returns its summary.
    pub fn run(&self, kind: ServerKind) -> RunSummary {
        self.run_detailed(kind).0
    }

    /// Runs and additionally returns the architecture's internal debug
    /// counters (e.g. hybrid reclassifications).
    pub fn run_detailed(&self, kind: ServerKind) -> (RunSummary, Vec<(&'static str, u64)>) {
        let mut server = kind.build(&self.cfg);
        let mut obs = NoopObserver;
        let summary = self.drive(server.as_mut(), &mut obs);
        let counters = server.debug_counters();
        (summary, counters)
    }

    /// Runs with structured tracing and returns the [`Recorder`] holding the
    /// retained trace ring, per-kind counts and the metrics registry. Set
    /// [`ExperimentConfig::trace_capacity`] > 0 or the ring retains nothing
    /// (counts stay exact regardless).
    pub fn run_traced(&self, kind: ServerKind) -> (RunSummary, Recorder) {
        let mut rec = Recorder::with_sampling(self.cfg.trace_capacity, self.cfg.trace_sample);
        let summary = self.run_observed(kind, &mut rec);
        (summary, rec)
    }

    /// Runs the given architecture reporting into a caller-supplied
    /// [`Observer`].
    pub fn run_observed(&self, kind: ServerKind, obs: &mut dyn Observer) -> RunSummary {
        let mut server = kind.build(&self.cfg);
        self.drive(server.as_mut(), obs)
    }

    /// Runs a caller-supplied custom architecture.
    pub fn run_model(&self, server: &mut dyn ServerModel) -> RunSummary {
        let mut obs = NoopObserver;
        self.drive(server, &mut obs)
    }

    /// Monomorphizes the drive loop for the configured queue backend.
    fn drive(&self, server: &mut dyn ServerModel, obs: &mut dyn Observer) -> RunSummary {
        match self.cfg.backend {
            BackendKind::Heap => self.drive_with::<EventQueue<EngineEvent>>(server, obs),
            BackendKind::Calendar => self.drive_with::<CalendarQueue<EngineEvent>>(server, obs),
            BackendKind::Adaptive => self.drive_with::<AdaptiveQueue<EngineEvent>>(server, obs),
            BackendKind::Ladder => self.drive_with::<LadderQueue<EngineEvent>>(server, obs),
        }
    }

    fn drive_with<Q: QueueBackend<EngineEvent>>(
        &self,
        server: &mut dyn ServerModel,
        obs: &mut dyn Observer,
    ) -> RunSummary {
        let cfg = &self.cfg;
        let n = cfg.clients.concurrency;
        let warm_end = SimTime::ZERO + cfg.warmup;
        let end = warm_end + cfg.measure;

        let mut sim: Simulation<EngineEvent, Q> = Simulation::default();
        let mut cpu = CpuModel::new(cfg.cpu.clone());
        let mut tcp = TcpWorld::new(cfg.tcp.clone());
        let mut clients = ClientPool::new(cfg.clients.clone());

        let mut conn_info = vec![ConnInfo::default(); n];
        let mut req: Vec<Option<ReqTrack>> = vec![None; n];
        for _ in 0..n {
            tcp.open(SimTime::ZERO);
        }

        // Resilience plane. With no fault plan, shed config and a disabled
        // retry policy all of this is inert: `epoch` ticks along, `serving`
        // mirrors what `req` used to track, and no extra events exist.
        let policy = cfg.retry;
        let retry_on = policy.enabled();
        let timeout = policy.timeout.unwrap_or_default();
        // TCP-style adaptive timeout: one client-wide estimator (like the
        // retry budget), fed every good response time, Karn-backed-off on
        // timeout. `None` in Fixed mode — the arming sites then use the
        // static `timeout` exactly as before.
        let mut rto = (retry_on && policy.timeout_mode == TimeoutMode::Rto)
            .then(|| RtoEstimator::new(&policy));
        let shed = cfg.shed;
        let compiled = cfg
            .faults
            .as_ref()
            .map(|p| p.compile(n, &cfg.tcp))
            .unwrap_or_default();
        let mut budget = RetryBudget::new(&policy);
        let mut epoch: Vec<u32> = vec![0; n];
        let mut serving: Vec<Option<Serving>> = vec![None; n];
        let mut pending_arrival: Vec<Option<u32>> = vec![None; n];
        let mut accept_q: VecDeque<(usize, u32)> = VecDeque::new();
        let mut serving_count: usize = 0;
        let mut timeouts: u64 = 0;
        let mut retries: u64 = 0;
        let mut rejected: u64 = 0;
        let mut shed_dropped: u64 = 0;
        let mut fault_events: u64 = 0;

        let mut cpu_out: Vec<(SimTime, CpuEvent)> = Vec::new();
        let mut tcp_out: Vec<(SimTime, TcpEvent)> = Vec::new();
        let mut cl_out: Vec<(SimTime, ClientEvent)> = Vec::new();

        let one_way = cfg.tcp.one_way();
        let mut window = ThroughputWindow::new(warm_end, end);
        let mut hist = Histogram::new();
        let n_classes = cfg.clients.mix.classes().len();
        let mut class_hist: Vec<Histogram> = (0..n_classes).map(|_| Histogram::new()).collect();

        let obs_on = obs.is_enabled();
        if obs_on {
            obs.run_window(warm_end, end);
            cpu.record_sched(true);
        }

        macro_rules! ctx {
            ($now:expr) => {
                ctx!($now, $now)
            };
            ($now:expr, $horizon:expr) => {
                Ctx {
                    now: $now,
                    cpu: &mut cpu,
                    tcp: &mut tcp,
                    profile: &cfg.profile,
                    conn_info: &conn_info,
                    cpu_out: &mut cpu_out,
                    tcp_out: &mut tcp_out,
                    obs: &mut *obs,
                    obs_on,
                    shed_active: shed
                        .is_some_and(|sc| serving_count >= sc.max_concurrent || !accept_q.is_empty()),
                    horizon: $horizon,
                }
            };
        }
        macro_rules! flush {
            () => {
                if obs_on {
                    // Drain the scheduler's log before its events reach the
                    // queue: every entry maps 1:1 onto the stats counters, so
                    // trace-derived counts always equal the counter deltas.
                    for se in cpu.drain_sched_log() {
                        match se {
                            SchedEvent::Switch { at, thread, migrated } => obs.record(
                                TraceEvent::new(at, TraceKind::ThreadDispatch)
                                    .thread(thread.0)
                                    .arg(migrated as u64),
                            ),
                            SchedEvent::Park { at, thread } => obs.record(
                                TraceEvent::new(at, TraceKind::ThreadPark).thread(thread.0),
                            ),
                        }
                    }
                }
                for (t, e) in cpu_out.drain(..) {
                    sim.schedule_at(t, EngineEvent::Cpu(e));
                }
                for (t, e) in tcp_out.drain(..) {
                    sim.schedule_at(t, EngineEvent::Tcp(e));
                }
                for (t, e) in cl_out.drain(..) {
                    sim.schedule_at(t, EngineEvent::Client(e));
                }
            };
        }

        // Starts serving `$ep` on `$conn` (the connection must be free).
        macro_rules! start_serving {
            ($now:expr, $conn:expr, $ep:expr) => {{
                serving[$conn] = Some(Serving {
                    epoch: $ep,
                    remaining: conn_info[$conn].response_bytes,
                    reject: false,
                    shorted: false,
                });
                serving_count += 1;
                let mut cx = ctx!($now);
                server.on_request(&mut cx, ConnId($conn));
            }};
        }

        // The client on `$conn` gives up on its in-flight request after
        // `$attempts` attempts; in closed-loop mode it thinks, then issues a
        // fresh request. The epoch bump invalidates every in-flight event
        // of the abandoned attempt.
        macro_rules! do_abandon {
            ($now:expr, $conn:expr, $attempts:expr) => {{
                if obs_on {
                    obs.record(
                        TraceEvent::new($now, TraceKind::Abandon)
                            .conn($conn)
                            .class(conn_info[$conn].class)
                            .arg($attempts as u64),
                    );
                }
                req[$conn] = None;
                epoch[$conn] += 1;
                pending_arrival[$conn] = None;
                clients.abandon($now, UserId($conn), &mut cl_out);
            }};
        }

        // A failure verdict arrived for the current attempt on `$conn`
        // (timeout fired, or a reject-fast error response was received):
        // retry with backoff if the policy and budget allow, else abandon.
        macro_rules! retry_verdict {
            ($now:expr, $conn:expr) => {{
                let attempt = req[$conn].as_ref().map_or(0, |t| t.attempt);
                if retry_on && attempt < policy.max_retries && budget.try_withdraw() {
                    let backoff = clients.retry_backoff(&policy, attempt);
                    retries += 1;
                    if obs_on {
                        obs.record(
                            TraceEvent::new($now, TraceKind::Retry)
                                .conn($conn)
                                .class(conn_info[$conn].class)
                                .arg(backoff.as_nanos()),
                        );
                    }
                    epoch[$conn] += 1;
                    let ne = epoch[$conn];
                    if let Some(t) = req[$conn].as_mut() {
                        t.epoch = ne;
                        t.attempt += 1;
                    }
                    sim.schedule_at(
                        $now + backoff,
                        EngineEvent::Retry {
                            conn: ConnId($conn),
                            epoch: ne,
                        },
                    );
                } else {
                    do_abandon!($now, $conn, attempt + 1);
                }
            }};
        }

        // Sheds one arrival on `$conn` under policy code `$code`: the
        // single textual increment site for `shed_dropped` in this engine
        // (detlint's counter-conservation pass enforces exactly one).
        macro_rules! shed_drop {
            ($now:expr, $conn:expr, $code:expr) => {{
                shed_dropped += 1;
                if obs_on {
                    obs.record(
                        TraceEvent::new($now, TraceKind::Shed)
                            .conn($conn)
                            .class(conn_info[$conn].class)
                            .arg($code),
                    );
                }
            }};
        }

        // Admission control for a valid arrival: per-connection
        // serialization first (a retransmission of a request whose previous
        // response is still being produced parks in `pending_arrival`),
        // then the shed limits, then dispatch to the architecture.
        macro_rules! admit {
            ($now:expr, $conn:expr, $ep:expr) => {{
                if serving[$conn].is_some() {
                    pending_arrival[$conn] = Some($ep);
                } else if let Some(sc) = shed {
                    if serving_count < sc.max_concurrent {
                        start_serving!($now, $conn, $ep);
                    } else if accept_q.len() < sc.queue_cap {
                        accept_q.push_back(($conn, $ep));
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::QueueEnter)
                                    .conn($conn)
                                    .class(conn_info[$conn].class)
                                    .arg(crate::trace_codes::Q_ACCEPT),
                            );
                        }
                    } else {
                        match sc.policy {
                            ShedPolicy::DropNew => {
                                shed_drop!($now, $conn, crate::trace_codes::SHED_DROP_NEW);
                            }
                            ShedPolicy::DropOldest => {
                                if let Some((oc, _oe)) = accept_q.pop_front() {
                                    if obs_on {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::QueueExit)
                                                .conn(oc)
                                                .class(conn_info[oc].class)
                                                .arg(crate::trace_codes::Q_ACCEPT),
                                        );
                                    }
                                    shed_drop!($now, oc, crate::trace_codes::SHED_EVICT);
                                    accept_q.push_back(($conn, $ep));
                                    if obs_on {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::QueueEnter)
                                                .conn($conn)
                                                .class(conn_info[$conn].class)
                                                .arg(crate::trace_codes::Q_ACCEPT),
                                        );
                                    }
                                } else {
                                    // Zero-capacity queue degenerates to
                                    // dropping the newcomer.
                                    shed_drop!($now, $conn, crate::trace_codes::SHED_DROP_NEW);
                                }
                            }
                            ShedPolicy::RejectFast => {
                                rejected += 1;
                                if obs_on {
                                    let waited = req[$conn]
                                        .as_ref()
                                        .map_or(0, |t| $now.duration_since(t.sent_at).as_nanos());
                                    obs.record(
                                        TraceEvent::new($now, TraceKind::Rejected)
                                            .conn($conn)
                                            .class(conn_info[$conn].class)
                                            .arg(waited),
                                    );
                                }
                                // Engine-direct write: mirror `Ctx::write`'s
                                // WriteCall/WriteSpin tracing exactly so
                                // trace-derived syscall counts stay 1:1.
                                let written =
                                    tcp.write($now, ConnId($conn), sc.reject_bytes, &mut tcp_out);
                                if obs_on {
                                    obs.record(
                                        TraceEvent::new($now, TraceKind::WriteCall)
                                            .conn($conn)
                                            .class(conn_info[$conn].class)
                                            .arg(written as u64),
                                    );
                                    if written == 0 {
                                        obs.record(
                                            TraceEvent::new($now, TraceKind::WriteSpin)
                                                .conn($conn)
                                                .class(conn_info[$conn].class),
                                        );
                                    }
                                }
                                if written > 0 {
                                    serving[$conn] = Some(Serving {
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
                    start_serving!($now, $conn, $ep);
                }
            }};
        }

        // Refills freed service slots from the bounded accept queue.
        macro_rules! drain_queue {
            ($now:expr) => {{
                if let Some(sc) = shed {
                    while serving_count < sc.max_concurrent {
                        let Some((qc, qe)) = accept_q.pop_front() else {
                            break;
                        };
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::QueueExit)
                                    .conn(qc)
                                    .class(conn_info[qc].class)
                                    .arg(crate::trace_codes::Q_ACCEPT),
                            );
                        }
                        // Entries whose attempt was timed out, abandoned or
                        // superseded while queued are dropped silently.
                        if serving[qc].is_none()
                            && req[qc].as_ref().is_some_and(|t| t.epoch == qe)
                        {
                            start_serving!($now, qc, qe);
                        }
                    }
                }
            }};
        }

        // A response (real or reject-fast) finished delivering on `$conn`,
        // or a connection reset zeroed out what remained: settle the client
        // side, free the connection, and refill from the queue.
        macro_rules! finish_serving {
            ($now:expr, $conn:expr) => {{
                let fin = serving[$conn].take().expect("finish without serving");
                if !fin.reject {
                    serving_count -= 1;
                }
                let matches = req[$conn].as_ref().is_some_and(|t| t.epoch == fin.epoch);
                if matches && !fin.shorted {
                    if fin.reject {
                        retry_verdict!($now, $conn);
                    } else {
                        let track = req[$conn].expect("matched without track");
                        let rt = $now.duration_since(track.sent_at);
                        if let Some(e) = rto.as_mut() {
                            e.observe(rt);
                        }
                        window.record($now);
                        if $now >= warm_end && $now < end {
                            hist.record(rt);
                            class_hist[conn_info[$conn].class].record(rt);
                        }
                        if obs_on {
                            obs.record(
                                TraceEvent::new($now, TraceKind::Completion)
                                    .conn($conn)
                                    .class(conn_info[$conn].class)
                                    .arg(rt.as_nanos()),
                            );
                            if $now >= warm_end && $now < end {
                                obs.sample("rt_ns", rt.as_nanos());
                            }
                        }
                        req[$conn] = None;
                        clients.complete($now, UserId($conn), &mut cl_out);
                    }
                }
                // Stale or shorted responses are drained and discarded by
                // the client; recovery (if any) comes from its timeout.
                if let Some(pe) = pending_arrival[$conn].take() {
                    if req[$conn].as_ref().is_some_and(|t| t.epoch == pe) {
                        admit!($now, $conn, pe);
                    }
                }
                if !fin.reject {
                    drain_queue!($now);
                }
            }};
        }

        {
            let mut cx = ctx!(SimTime::ZERO);
            server.init(&mut cx, n);
        }
        if obs_on {
            for i in 0..cpu.thread_count() {
                obs.thread_name(i, cpu.thread_name(ThreadId(i)));
            }
        }
        clients.start(&mut cl_out);
        for (i, op) in compiled.ops.iter().enumerate() {
            sim.schedule_at(op.at, EngineEvent::Fault { idx: i as u32 });
        }
        flush!();

        // CpuStats is Copy: window snapshots are bitwise copies, so the
        // per-iteration warm-up check below never allocates.
        let mut cpu_snap = *cpu.stats();
        let mut tcp_snap = tcp.stats();
        let mut uring_snap = server.uring_stats().unwrap_or_default();
        let mut snapped = false;
        let mut timeouts_snap: u64 = 0;
        let mut retries_snap: u64 = 0;
        let mut rejected_snap: u64 = 0;
        let mut shed_snap: u64 = 0;
        let mut fault_snap: u64 = 0;
        let mut abandoned_snap: u64 = 0;
        let mut dropped_snap: u64 = 0;

        loop {
            // Snapshot counters exactly at the warm-up boundary. peek_time
            // is O(1) on every backend (the calendar caches its head).
            if !snapped && sim.peek_time().is_none_or(|t| t >= warm_end) {
                cpu_snap = *cpu.stats();
                tcp_snap = tcp.stats();
                uring_snap = server.uring_stats().unwrap_or_default();
                timeouts_snap = timeouts;
                retries_snap = retries;
                rejected_snap = rejected;
                shed_snap = shed_dropped;
                fault_snap = fault_events;
                abandoned_snap = clients.abandoned();
                dropped_snap = clients.dropped();
                snapped = true;
                if obs_on {
                    // Same instant as the stats snapshot: window-relative
                    // trace counts are deltas from this point, which makes
                    // them bit-identical to the RunSummary counter deltas.
                    obs.window_open(warm_end);
                }
            }
            let Some((now, ev)) = sim.next_event_before(end) else {
                break;
            };
            match ev {
                EngineEvent::Client(ClientEvent::Send { user }) => {
                    let spec = clients.next_request(now, user);
                    let conn = ConnId(user.0);
                    conn_info[conn.0] = ConnInfo {
                        response_bytes: spec.response_bytes,
                        class: spec.class,
                    };
                    epoch[conn.0] += 1;
                    let ep = epoch[conn.0];
                    req[conn.0] = Some(ReqTrack {
                        sent_at: now,
                        epoch: ep,
                        attempt: 0,
                    });
                    sim.schedule_at(now + one_way, EngineEvent::RequestArrive { conn, epoch: ep });
                    if retry_on {
                        budget.deposit();
                        let t = rto.as_ref().map_or(timeout, |e| e.current());
                        sim.schedule_at(now + t, EngineEvent::Timeout { conn, epoch: ep });
                    }
                }
                EngineEvent::Client(ClientEvent::Arrival) => {
                    if let Some(spec) = clients.on_arrival(now, &mut cl_out) {
                        let conn = ConnId(spec.user.0);
                        conn_info[conn.0] = ConnInfo {
                            response_bytes: spec.response_bytes,
                            class: spec.class,
                        };
                        epoch[conn.0] += 1;
                        let ep = epoch[conn.0];
                        req[conn.0] = Some(ReqTrack {
                            sent_at: now,
                            epoch: ep,
                            attempt: 0,
                        });
                        sim.schedule_at(
                            now + one_way,
                            EngineEvent::RequestArrive { conn, epoch: ep },
                        );
                        if retry_on {
                            budget.deposit();
                            let t = rto.as_ref().map_or(timeout, |e| e.current());
                            sim.schedule_at(
                                now + t,
                                EngineEvent::Timeout { conn, epoch: ep },
                            );
                        }
                    }
                }
                EngineEvent::RequestArrive { conn, epoch: ep } => {
                    // Stale arrivals (the attempt was timed out, abandoned
                    // or superseded in flight) are discarded unseen.
                    if req[conn.0].as_ref().is_some_and(|t| t.epoch == ep) {
                        if obs_on {
                            obs.record(
                                TraceEvent::new(now, TraceKind::RequestArrive)
                                    .conn(conn.0)
                                    .class(conn_info[conn.0].class)
                                    .arg(conn_info[conn.0].response_bytes as u64),
                            );
                        }
                        admit!(now, conn.0, ep);
                    }
                }
                EngineEvent::Timeout { conn, epoch: ep } => {
                    if req[conn.0].as_ref().is_some_and(|t| t.epoch == ep) {
                        timeouts += 1;
                        if let Some(e) = rto.as_mut() {
                            e.on_timeout();
                        }
                        if obs_on {
                            let attempt = req[conn.0].as_ref().map_or(0, |t| t.attempt);
                            obs.record(
                                TraceEvent::new(now, TraceKind::ClientTimeout)
                                    .conn(conn.0)
                                    .class(conn_info[conn.0].class)
                                    .arg(attempt as u64),
                            );
                        }
                        retry_verdict!(now, conn.0);
                    }
                }
                EngineEvent::Retry { conn, epoch: ep } => {
                    if req[conn.0].as_ref().is_some_and(|t| t.epoch == ep) {
                        sim.schedule_at(
                            now + one_way,
                            EngineEvent::RequestArrive { conn, epoch: ep },
                        );
                        let t = rto.as_ref().map_or(timeout, |e| e.current());
                        sim.schedule_at(now + t, EngineEvent::Timeout { conn, epoch: ep });
                    }
                }
                EngineEvent::Fault { idx } => {
                    fault_events += 1;
                    let top = &compiled.ops[idx as usize];
                    if obs_on {
                        obs.record(
                            TraceEvent::new(now, TraceKind::FaultInject).arg(top.code as u64),
                        );
                    }
                    let outcome = asyncinv_fault::apply(
                        &top.op,
                        now,
                        &mut tcp,
                        &mut cpu,
                        &mut tcp_out,
                        &mut cpu_out,
                    );
                    for (c, dropped) in outcome.resets {
                        if dropped > 0 {
                            if let Some(s) = serving[c].as_mut() {
                                s.shorted = true;
                                s.remaining = s.remaining.saturating_sub(dropped);
                                if s.remaining == 0 {
                                    finish_serving!(now, c);
                                }
                            }
                        }
                    }
                    for u in outcome.abandons {
                        if let Some(track) = req[u] {
                            do_abandon!(now, u, track.attempt + 1);
                        }
                    }
                }
                EngineEvent::Cpu(cev) => {
                    if let Some(done) = cpu.on_event(now, cev, &mut cpu_out) {
                        let horizon = if self.fast_forward {
                            spin_horizon(sim.peek_time(), warm_end, end, snapped)
                        } else {
                            now
                        };
                        // A retired write spin moves the callback's clock.
                        let after = {
                            let mut cx = ctx!(now, horizon);
                            server.on_burst(&mut cx, done.thread, done.tag);
                            cx.now
                        };
                        cpu.finish_turn(after, done.thread, &mut cpu_out);
                    }
                }
                EngineEvent::Tcp(tev) => match tcp.on_event(now, tev, &mut tcp_out) {
                    TcpNotice::SpaceFreed { conn, space } => {
                        if space > 0 {
                            if obs_on {
                                obs.record(
                                    TraceEvent::new(now, TraceKind::SendBufDrain)
                                        .conn(conn.0)
                                        .class(conn_info[conn.0].class)
                                        .arg(space as u64),
                                );
                            }
                            let mut cx = ctx!(now);
                            server.on_writable(&mut cx, conn);
                        }
                    }
                    TcpNotice::Delivered { conn, bytes } => {
                        let s = serving[conn.0]
                            .as_mut()
                            .expect("delivery for a connection with no response in service");
                        debug_assert!(bytes <= s.remaining, "over-delivery");
                        s.remaining -= bytes;
                        if s.remaining == 0 {
                            finish_serving!(now, conn.0);
                        }
                    }
                },
            }
            flush!();
        }

        let completions = window.completions();
        let cpu_delta = cpu.stats().delta_since(&cpu_snap);
        let uring_delta = server.uring_stats().unwrap_or_default().delta_since(&uring_snap);
        let breakdown = cpu_delta.breakdown(cfg.measure, cfg.cpu.cores);
        let tcp_now = tcp.stats();
        let writes = tcp_now.write_calls - tcp_snap.write_calls;
        let spins = tcp_now.zero_writes - tcp_snap.zero_writes;
        let measure_s = cfg.measure.as_secs_f64();
        let per_req = |v: u64| {
            if completions == 0 {
                0.0
            } else {
                v as f64 / completions as f64
            }
        };

        let per_class = cfg
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
            // Publish run aggregates so --metrics-out and run_detailed()
            // expose a single source of truth.
            obs.counter("completions", completions);
            obs.counter("context_switches", cpu_delta.context_switches);
            obs.counter("preemptions", cpu_delta.preemptions);
            obs.counter("steals", cpu_delta.steals);
            obs.counter("write_calls", writes);
            obs.counter("zero_writes", spins);
            obs.counter("events_processed", sim.events_processed());
            obs.counter("dropped_arrivals", clients.dropped() - dropped_snap);
            obs.counter("timeouts", timeouts - timeouts_snap);
            obs.counter("retries", retries - retries_snap);
            obs.counter("abandoned", clients.abandoned() - abandoned_snap);
            obs.counter("rejected", rejected - rejected_snap);
            obs.counter("shed_dropped", shed_dropped - shed_snap);
            obs.counter("fault_events", fault_events - fault_snap);
            obs.counter("sq_submits", uring_delta.sq_submits);
            obs.counter("sq_flushes", uring_delta.sq_flushes);
            obs.counter("cq_reaps", uring_delta.cq_reaps);
            obs.counter("sq_full", uring_delta.sq_full);
            for (name, v) in server.debug_counters() {
                obs.counter(name, v);
            }
            obs.gauge("throughput_rps", window.rate_per_sec());
            obs.gauge("cs_per_req", per_req(cpu_delta.context_switches));
            obs.gauge("writes_per_req", per_req(writes));
            obs.gauge("spins_per_req", per_req(spins));
            obs.gauge("crossings_per_req", per_req(cpu_delta.syscall_bursts));
            obs.gauge("cpu_user", breakdown.user_pct() / 100.0);
            obs.gauge("cpu_sys", breakdown.sys_pct() / 100.0);
            obs.gauge("cpu_idle", 1.0 - breakdown.utilization());
            obs.gauge("rate_cv", window.rate_cv());
            // Threads spawned after init() (none of the stock architectures
            // do, but custom models may) still get named tracks.
            for i in 0..cpu.thread_count() {
                obs.thread_name(i, cpu.thread_name(ThreadId(i)));
            }
        }

        RunSummary {
            server: server.name().to_string(),
            concurrency: n,
            response_size: cfg.clients.mix.mean_response_bytes().round() as usize,
            added_latency_us: cfg.tcp.added_latency.as_micros(),
            completions,
            throughput: window.rate_per_sec(),
            mean_rt_us: hist.mean().as_micros(),
            p50_rt_us: hist.quantile(0.50).as_micros(),
            p95_rt_us: hist.quantile(0.95).as_micros(),
            p99_rt_us: hist.quantile(0.99).as_micros(),
            cs_per_sec: cpu_delta.context_switches as f64 / measure_s,
            cs_per_req: per_req(cpu_delta.context_switches),
            writes_per_req: per_req(writes),
            spins_per_req: per_req(spins),
            cpu: CpuShare {
                user: breakdown.user_pct() / 100.0,
                sys: breakdown.sys_pct() / 100.0,
                idle: 1.0 - breakdown.utilization(),
            },
            rate_cv: window.rate_cv(),
            dropped_arrivals: clients.dropped() - dropped_snap,
            timeouts: timeouts - timeouts_snap,
            retries: retries - retries_snap,
            abandoned: clients.abandoned() - abandoned_snap,
            rejected: rejected - rejected_snap,
            shed_dropped: shed_dropped - shed_snap,
            fault_events: fault_events - fault_snap,
            // Fleet-plane counters: a bare single-server run has no
            // balancer, so these stay zero (the fleet driver fills them).
            shard_routes: 0,
            hedges: 0,
            hedge_cancels: 0,
            shard_retries: 0,
            sq_submits: uring_delta.sq_submits,
            sq_flushes: uring_delta.sq_flushes,
            cq_reaps: uring_delta.cq_reaps,
            sq_full: uring_delta.sq_full,
            crossings_per_req: per_req(cpu_delta.syscall_bursts),
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::spin_bursts;

    /// A machine whose only thread is finishing a burst at `t0`, and a
    /// connection whose send buffer is full: the state a spinner writes in.
    fn stalled() -> (CpuModel, TcpWorld, ThreadId, ConnId, SimTime) {
        let mut cpu = CpuModel::new(CpuConfig::single_core());
        let tid = cpu.spawn_thread("spinner");
        let mut out = Vec::new();
        cpu.submit(SimTime::ZERO, tid, Burst::user(SimDuration::from_micros(1)), 0, &mut out);
        let (t0, ev) = out.pop().expect("burst scheduled");
        assert!(cpu.on_event(t0, ev, &mut out).is_some(), "the thread is finishing");
        let mut tcp = TcpWorld::new(TcpConfig::default());
        let conn = tcp.open(SimTime::ZERO);
        assert!(tcp.write(SimTime::ZERO, conn, 64 * 1024, &mut Vec::new()) > 0);
        assert!(tcp.conn(conn).write_stalled());
        (cpu, tcp, tid, conn, t0)
    }

    /// Runs one `spin_write` from `t0` with the driver horizon 1 ms out and
    /// `pending` already produced by the callback; returns where the
    /// callback's clock ends and the write calls counted.
    fn spin_from(pending: Option<SimDuration>) -> (SimDuration, u64) {
        let (mut cpu, mut tcp, tid, conn, t0) = stalled();
        let profile = ServiceProfile::default();
        let conn_info = [ConnInfo::default()];
        let mut cpu_out: Vec<(SimTime, CpuEvent)> = Vec::new();
        if let Some(d) = pending {
            let ev = CpuEvent::BurstDone { core: asyncinv_cpu::CoreId(0), token: u64::MAX };
            cpu_out.push((t0 + d, ev));
        }
        let mut tcp_out = Vec::new();
        let mut obs = NoopObserver;
        let mut cx = Ctx::for_driver(
            t0, &mut cpu, &mut tcp, &profile, &conn_info, &mut cpu_out, &mut tcp_out, &mut obs,
            false, false,
        );
        cx.horizon = t0 + SimDuration::from_millis(1);
        let zero = spin_bursts(&profile, 0);
        assert_eq!(cx.spin_write(tid, conn, 1024, &zero), 0);
        let moved = cx.now().duration_since(t0);
        (moved, tcp.stats().write_calls)
    }

    #[test]
    fn spin_write_retires_up_to_the_horizon() {
        // 9 us cycles: the 111th ends at 999 us, the 112th would reach 1 ms.
        assert_eq!(spin_from(None), (SimDuration::from_micros(999), 1 + 1 + 111));
    }

    #[test]
    fn spin_write_stops_before_events_the_callback_produced() {
        // A burst this callback already scheduled 20 us out bounds it too.
        let twenty = SimDuration::from_micros(20);
        assert_eq!(spin_from(Some(twenty)), (SimDuration::from_micros(18), 1 + 1 + 2));
    }

    /// External drivers build contexts without a horizon.
    #[test]
    fn spin_write_without_a_horizon_retires_nothing() {
        let (mut cpu, mut tcp, tid, conn, t0) = stalled();
        let profile = ServiceProfile::default();
        let conn_info = [ConnInfo::default()];
        let (mut cpu_out, mut tcp_out, mut obs) = (Vec::new(), Vec::new(), NoopObserver);
        let mut cx = Ctx::for_driver(
            t0, &mut cpu, &mut tcp, &profile, &conn_info, &mut cpu_out, &mut tcp_out, &mut obs,
            false, false,
        );
        assert_eq!(cx.spin_write(tid, conn, 1024, &spin_bursts(&profile, 0)), 0);
        assert_eq!(cx.now(), t0);
        assert_eq!(cpu.stats().retired_bursts, 0);
    }
}
