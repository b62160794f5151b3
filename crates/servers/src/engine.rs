//! One experiment cell's configuration and the server models' handle onto
//! a simulated machine ([`Ctx`]).
//!
//! The drive loop that runs a cell lives in `asyncinv-fleet`: its
//! `Experiment` is the one-shard case of the fleet's `Cluster`, and every
//! architecture here is hosted through [`Ctx::for_driver`]. The RUBBoS
//! macro engine ([`crate::rubbos_engine`]) keeps a loop of its own.

use asyncinv_cpu::{Burst, CpuConfig, CpuEvent, CpuModel, ThreadId};
use asyncinv_fault::FaultPlan;
use asyncinv_obs::{Observer, TraceEvent, TraceKind};
use asyncinv_simcore::{SimDuration, SimTime};
use asyncinv_tcp::{ConnId, TcpConfig, TcpEvent, TcpWorld};
use asyncinv_workload::{ArrivalMode, ClientConfig, Mix, RetryPolicy, ThinkTime};

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
    /// Capacity of the structured trace ring buffer of a traced run
    /// (`Experiment::run_traced`: how many [`TraceEvent`]s the returned
    /// `Recorder` retains; aggregate counts stay exact regardless).
    pub trace_capacity: usize,
    /// Trace sampling divisor: the ring retains every n-th event (0 and 1
    /// both mean "keep all"). Counts are taken before sampling.
    #[serde(default)]
    pub trace_sample: u64,
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

/// Server-side graceful-degradation limits, applied by the drive loop in front
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
                arrivals: ArrivalMode::Closed,
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

    /// Checks the cell, returning the first problem found: the machine
    /// ([`CpuConfig::validate`]), network, client pool and mix, retry
    /// policy, fault plan, shed limits and ring geometry, every
    /// architecture's thread counts and write-spin limit, and a positive
    /// measurement window.
    pub fn validate(&self) -> Result<(), String> {
        self.cpu.validate()?;
        self.tcp.validate()?;
        if self.clients.concurrency == 0 {
            return Err("clients.concurrency must be positive".into());
        }
        if let ArrivalMode::Open { rate_per_sec } = self.clients.arrivals {
            if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
                return Err(format!(
                    "clients.arrivals rate_per_sec must be finite and positive, got {rate_per_sec}"
                ));
            }
        }
        self.clients.mix.validate()?;
        self.retry.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(shed) = &self.shed {
            shed.validate()?;
        }
        self.uring.validate()?;
        for (name, workers) in [
            ("pool_workers", self.pool_workers),
            ("netty_workers", self.netty_workers),
            ("staged_workers", self.staged_workers),
        ] {
            if workers == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.write_spin_limit == 0 {
            return Err("write_spin_limit must be positive".into());
        }
        if self.measure.is_zero() {
            return Err("measurement window must be positive".into());
        }
        Ok(())
    }
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
/// substrates produce are flushed to the simulation queue by the drive
/// loop after the callback returns.
pub struct Ctx<'a> {
    now: SimTime,
    cpu: &'a mut CpuModel,
    tcp: &'a mut TcpWorld,
    profile: &'a ServiceProfile,
    conn_info: &'a [ConnInfo],
    cpu_out: &'a mut Vec<(SimTime, CpuEvent)>,
    tcp_out: &'a mut Vec<(SimTime, TcpEvent)>,
    obs: &'a mut dyn Observer,
    /// Cached `obs.is_enabled()` so the disabled path is one local branch.
    obs_on: bool,
    /// `true` while the driver's load shedder is saturated (service slots
    /// exhausted or arrivals parked in the accept queue). Architectures
    /// with adaptive policies (the hybrid router's reclassification) freeze
    /// learning while this holds so overload transients don't poison the
    /// learned state.
    shed_active: bool,
    /// Earliest instant of any event the driver has pending ([`spin_horizon`]):
    /// write-spin iterations that complete strictly before it may be
    /// retired inline ([`Ctx::spin_write`]). Equal to `now`, so nothing is
    /// retired, when the driver cannot see the next pending event.
    horizon: SimTime,
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
    /// Builds a context for a drive loop hosting a [`ServerModel`]: the
    /// fleet loop in `asyncinv-fleet` (one machine, network and
    /// architecture per shard) and the RUBBoS engine's Tomcat tier. Drivers
    /// must construct a fresh `Ctx` per callback and flush `cpu_out` /
    /// `tcp_out` into the simulation queue after the callback returns.
    ///
    /// `horizon` is the earliest instant of any event the driver still has
    /// pending ([`spin_horizon`]); write-spin iterations completing strictly
    /// before it are retired inline by [`Ctx::spin_write`]. A driver that
    /// cannot see its next pending event passes `now`, which retires
    /// nothing.
    ///
    /// [`ServerModel`]: crate::ServerModel
    #[allow(clippy::too_many_arguments)]
    pub fn for_driver(
        now: SimTime,
        horizon: SimTime,
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
            horizon,
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
    /// model via [`ServerModel::on_burst`](crate::ServerModel::on_burst)
    /// with `tag`.
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

    /// `true` while the driver's server-side load shedder is actively
    /// degrading (service cap reached or arrivals queued). Always `false`
    /// when no [`ShedConfig`] is set, and in the RUBBoS engine, which has
    /// no shedder.
    ///
    /// Contract: architectures sample this during
    /// [`ServerModel::on_request`](crate::ServerModel::on_request) (the
    /// admission dispatch) and carry the bit with the request. The fleet
    /// loop passes live shedder state to every callback, but the state
    /// that matters for a request is the one at its admission: by the
    /// time its bursts complete, the shedder may have drained or filled
    /// for other requests.
    pub fn shed_active(&self) -> bool {
        self.shed_active
    }

    /// Emits a structured trace event (no-op when observability is off).
    ///
    /// When `conn` is given the request class is stamped automatically from
    /// the pending request's parsed info; the
    /// [`Recorder`](asyncinv_obs::Recorder) additionally stamps a request
    /// id derived from the arrival stream.
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
#[inline]
pub fn spin_horizon(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::spin_bursts;
    use asyncinv_obs::NoopObserver;

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
        let horizon = t0 + SimDuration::from_millis(1);
        let mut cx = Ctx::for_driver(
            t0, horizon, &mut cpu, &mut tcp, &profile, &conn_info, &mut cpu_out, &mut tcp_out,
            &mut obs, false, false,
        );
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

    /// A driver that passes `now` as the horizon retires nothing.
    #[test]
    fn spin_write_without_a_horizon_retires_nothing() {
        let (mut cpu, mut tcp, tid, conn, t0) = stalled();
        let profile = ServiceProfile::default();
        let conn_info = [ConnInfo::default()];
        let (mut cpu_out, mut tcp_out, mut obs) = (Vec::new(), Vec::new(), NoopObserver);
        let mut cx = Ctx::for_driver(
            t0, t0, &mut cpu, &mut tcp, &profile, &conn_info, &mut cpu_out, &mut tcp_out,
            &mut obs, false, false,
        );
        assert_eq!(cx.spin_write(tid, conn, 1024, &spin_bursts(&profile, 0)), 0);
        assert_eq!(cx.now(), t0);
        assert_eq!(cpu.stats().retired_bursts, 0);
    }
}
