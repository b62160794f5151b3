//! The RUBBoS 3-tier macro-benchmark engine (paper Section II, Fig 1).
//!
//! Reproduces the paper's software-upgrade study: a 3-tier news site
//! (Apache → Tomcat → MySQL) driven by emulated users with ~7 s think
//! times, where the Tomcat tier is swapped between the thread-based
//! synchronous architecture (Tomcat 7, [`ServerKind::SyncThread`]) and the
//! asynchronous reactor/worker-pool one (Tomcat 8,
//! [`ServerKind::AsyncPool`]). The paper observes the *upgrade* costs 28%
//! of maximum throughput because the asynchronous event-processing flow
//! burns CPU on context switches at the bottleneck tier.
//!
//! Tier modeling (see DESIGN.md §2): Apache and MySQL stayed under 60%
//! utilization in the paper's testbed, so they are modeled as a
//! pass-through delay and a multi-server queueing [`Station`]; only Tomcat
//! — the bottleneck — runs the full architectural model. Database round
//! trips are performed before the request reaches the Tomcat CPU model;
//! this preserves both the response-time composition and the Tomcat-side
//! concurrency, which is what the architecture comparison depends on (the
//! worker pool exceeds the ~35 concurrent requests either way).

use asyncinv_cpu::{CpuConfig, CpuModel, CpuEvent, SchedEvent, ThreadId};
use asyncinv_metrics::{Histogram, ThroughputWindow};
use asyncinv_obs::{NoopObserver, Observer, Recorder, TraceEvent, TraceKind};
use asyncinv_simcore::{
    AdaptiveQueue, BackendKind, CalendarQueue, EventQueue, LadderQueue, QueueBackend, SimDuration,
    SimRng, SimTime, Simulation,
};
use asyncinv_tcp::{ConnId, TcpConfig, TcpEvent, TcpNotice, TcpWorld};
use asyncinv_workload::rubbos::{interactions, Interaction, Navigator, RubbosConfig};
use asyncinv_workload::{Station, StationEvent};
use serde::{Deserialize, Serialize};

use crate::arch::ServerKind;
use crate::engine::{spin_horizon, ConnInfo, Ctx};
use crate::profile::ServiceProfile;

/// Per-interaction results of a RUBBoS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InteractionSummary {
    /// RUBBoS interaction (servlet) name.
    pub name: String,
    /// Completions in the measurement window.
    pub completions: u64,
    /// Mean end-to-end response time, milliseconds.
    pub mean_rt_ms: f64,
}

/// Result of one RUBBoS run at a fixed user count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RubbosSummary {
    /// Tomcat architecture label.
    pub server: String,
    /// Emulated users.
    pub users: usize,
    /// Completed interactions in the window.
    pub completions: u64,
    /// System throughput, interactions/second.
    pub throughput: f64,
    /// Mean end-to-end response time, milliseconds.
    pub mean_rt_ms: f64,
    /// 99th percentile response time, milliseconds.
    pub p99_rt_ms: f64,
    /// Tomcat CPU utilization over the window, `[0, 1]`.
    pub tomcat_cpu: f64,
    /// Tomcat context switches per second.
    pub cs_per_sec: f64,
    /// MySQL tier utilization, `[0, 1]` (stays well below saturation).
    pub db_util: f64,
    /// Per-interaction breakdown, in interaction-table order.
    pub per_interaction: Vec<InteractionSummary>,
}

impl RubbosSummary {
    /// The `k` most-visited interactions, by completions.
    pub fn top_interactions(&self, k: usize) -> Vec<&InteractionSummary> {
        let mut v: Vec<&InteractionSummary> = self.per_interaction.iter().collect();
        v.sort_by_key(|i| std::cmp::Reverse(i.completions));
        v.truncate(k);
        v
    }
}

/// Configuration for a macro run: workload plus the Tomcat machine model.
#[derive(Debug, Clone)]
pub struct RubbosExperiment {
    /// Workload model (users, think times, DB/Apache tiers).
    pub workload: RubbosConfig,
    /// Tomcat machine.
    pub cpu: CpuConfig,
    /// Tomcat↔client network.
    pub tcp: TcpConfig,
    /// Tomcat request cost model. The macro default raises
    /// `compute_base` to cover servlet-container and JDBC overhead absent
    /// from the micro-benchmarks.
    pub profile: ServiceProfile,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Worker pool size for the async Tomcat (maxThreads).
    pub pool_workers: usize,
    /// Simulation queue backend (results are backend-independent; this
    /// only trades wall-clock speed).
    pub backend: BackendKind,
    /// Retire write-spin iterations inline (see [`Ctx::spin_write`]);
    /// results are identical either way.
    pub fast_forward: bool,
}

impl RubbosExperiment {
    /// A macro experiment with `users` emulated users and paper-like
    /// defaults everywhere else.
    pub fn new(users: usize) -> Self {
        let profile = ServiceProfile {
            // Servlet-container and JDBC overhead absent from the
            // stripped-down micro-benchmark servers.
            compute_base: SimDuration::from_micros(300),
            ..ServiceProfile::default()
        };
        // The real Tomcat's threads drag JVM + container working sets
        // through the caches on every switch, so the per-switch cost is
        // higher than for the stripped micro-servers.
        let cpu = CpuConfig {
            cs_cost: SimDuration::from_micros(12),
            ..CpuConfig::single_core()
        };
        RubbosExperiment {
            workload: RubbosConfig {
                users,
                ..RubbosConfig::default()
            },
            cpu,
            tcp: TcpConfig::default(),
            profile,
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(40),
            pool_workers: 200,
            backend: BackendKind::default(),
            fast_forward: true,
        }
    }

    /// Runs the 3-tier system with the given Tomcat architecture.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the two Tomcat architectures the
    /// paper's macro experiment compares.
    pub fn run(&self, kind: ServerKind) -> RubbosSummary {
        let mut obs = NoopObserver;
        self.run_observed(kind, &mut obs)
    }

    /// Runs the 3-tier system reporting structured trace events and metrics
    /// into `obs`; same contract as [`RubbosExperiment::run`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the two Tomcat architectures the
    /// paper's macro experiment compares.
    pub fn run_observed(&self, kind: ServerKind, obs: &mut dyn Observer) -> RubbosSummary {
        assert!(
            matches!(kind, ServerKind::SyncThread | ServerKind::AsyncPool),
            "the RUBBoS study compares TomcatSync (SyncThread) and TomcatAsync (AsyncPool)"
        );
        match self.backend {
            BackendKind::Heap => run_macro::<EventQueue<MEvent>>(self, kind, obs),
            BackendKind::Calendar => run_macro::<CalendarQueue<MEvent>>(self, kind, obs),
            BackendKind::Adaptive => run_macro::<AdaptiveQueue<MEvent>>(self, kind, obs),
            BackendKind::Ladder => run_macro::<LadderQueue<MEvent>>(self, kind, obs),
        }
    }

    /// Runs with structured tracing into a fresh [`Recorder`] retaining up
    /// to `trace_capacity` events.
    pub fn run_traced(&self, kind: ServerKind, trace_capacity: usize) -> (RubbosSummary, Recorder) {
        let mut rec = Recorder::new(trace_capacity);
        let summary = self.run_observed(kind, &mut rec);
        (summary, rec)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MEvent {
    Cpu(CpuEvent),
    Tcp(TcpEvent),
    /// A user's think time elapsed: it requests its next page.
    Send { user: usize },
    /// A database query finished.
    Db(StationEvent),
    /// The request (after Apache and its DB work) reaches Tomcat.
    Arrive { conn: ConnId },
}

#[derive(Debug, Clone, Copy)]
struct MacroReq {
    started: SimTime,
    db_left: usize,
    remaining: usize,
}

fn run_macro<Q: QueueBackend<MEvent>>(
    cfg: &RubbosExperiment,
    kind: ServerKind,
    obs: &mut dyn Observer,
) -> RubbosSummary {
    let users = cfg.workload.users;
    let warm_end = SimTime::ZERO + cfg.warmup;
    let end = warm_end + cfg.measure;
    let table: Vec<Interaction> = interactions();

    // Reuse the micro-engine's architecture implementations through a
    // minimal local ExperimentConfig so `ServerKind::build` sees the right
    // pool sizing.
    let engine_cfg = crate::engine::ExperimentConfig {
        cpu: cfg.cpu.clone(),
        tcp: cfg.tcp.clone(),
        clients: asyncinv_workload::ClientConfig {
            concurrency: users,
            think: cfg.workload.think,
            mix: asyncinv_workload::Mix::single("rubbos", 20 * 1024),
            seed: cfg.workload.seed,
            arrivals: asyncinv_workload::ArrivalMode::Closed,
        },
        profile: cfg.profile.clone(),
        warmup: cfg.warmup,
        measure: cfg.measure,
        pool_workers: cfg.pool_workers,
        netty_workers: 1,
        staged_workers: 4,
        write_spin_limit: 16,
        tomcat_real_nio: true,
        trace_capacity: 0,
        trace_sample: 0,
        backend: cfg.backend,
        faults: None,
        shed: None,
        retry: asyncinv_workload::RetryPolicy::default(),
        uring: asyncinv_uring::UringConfig::default(),
        hybrid_heavy: crate::engine::HybridPath::default(),
    };
    let mut server = kind.build(&engine_cfg);

    let mut sim: Simulation<MEvent, Q> = Simulation::default();
    let mut cpu = CpuModel::new(cfg.cpu.clone());
    let mut tcp = TcpWorld::new(cfg.tcp.clone());
    let mut db = Station::new(
        "mysql",
        cfg.workload.db_servers,
        cfg.workload.db_service,
        cfg.workload.seed ^ 0xDB,
    );
    let mut rng = SimRng::new(cfg.workload.seed);
    let mut navs: Vec<Navigator> = (0..users).map(|_| Navigator::new()).collect();
    let mut reqs: Vec<Option<MacroReq>> = vec![None; users];
    let mut conn_info = vec![ConnInfo::default(); users];
    for _ in 0..users {
        tcp.open(SimTime::ZERO);
    }

    let mut cpu_out: Vec<(SimTime, CpuEvent)> = Vec::new();
    let mut tcp_out: Vec<(SimTime, TcpEvent)> = Vec::new();
    let mut db_out: Vec<(SimTime, StationEvent)> = Vec::new();

    let one_way = cfg.tcp.one_way();
    let web_delay = cfg.workload.web_tier_delay;
    let mut window = ThroughputWindow::new(warm_end, end);
    let mut hist = Histogram::new();
    let mut ia_hist: Vec<Histogram> = (0..table.len()).map(|_| Histogram::new()).collect();

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
                // The macro engine has no load shedder.
                shed_active: false,
                horizon: $horizon,
            }
        };
    }
    macro_rules! flush {
        () => {
            if obs_on {
                for se in cpu.drain_sched_log() {
                    match se {
                        SchedEvent::Switch { at, thread, migrated } => obs.record(
                            TraceEvent::new(at, TraceKind::ThreadDispatch)
                                .thread(thread.0)
                                .arg(migrated as u64),
                        ),
                        SchedEvent::Park { at, thread } => obs
                            .record(TraceEvent::new(at, TraceKind::ThreadPark).thread(thread.0)),
                    }
                }
            }
            for (t, e) in cpu_out.drain(..) {
                sim.schedule_at(t, MEvent::Cpu(e));
            }
            for (t, e) in tcp_out.drain(..) {
                sim.schedule_at(t, MEvent::Tcp(e));
            }
            for (t, e) in db_out.drain(..) {
                sim.schedule_at(t, MEvent::Db(e));
            }
        };
    }

    {
        let mut cx = ctx!(SimTime::ZERO);
        server.init(&mut cx, users);
    }
    if obs_on {
        for i in 0..cpu.thread_count() {
            obs.thread_name(i, cpu.thread_name(ThreadId(i)));
        }
    }
    // Stagger session starts across one think-time mean.
    let stagger_ns = cfg.workload.think.mean().as_nanos().max(1);
    for u in 0..users {
        let at = SimTime::from_nanos(rng.gen_range(stagger_ns));
        sim.schedule_at(at, MEvent::Send { user: u });
    }
    flush!();

    // CpuStats is Copy: snapshots never allocate on the event loop.
    let mut cpu_snap = *cpu.stats();
    let mut db_busy_snap = SimDuration::ZERO;
    let mut snapped = false;

    loop {
        if !snapped && sim.peek_time().is_none_or(|t| t >= warm_end) {
            cpu_snap = *cpu.stats();
            db_busy_snap = db.busy_time();
            snapped = true;
            if obs_on {
                obs.window_open(warm_end);
            }
        }
        let Some((now, ev)) = sim.next_event_before(end) else {
            break;
        };
        match ev {
            MEvent::Send { user } => {
                let idx = navs[user].step(&mut rng);
                let inter = &table[idx];
                conn_info[user] = ConnInfo {
                    response_bytes: inter.response_bytes,
                    class: idx,
                };
                reqs[user] = Some(MacroReq {
                    started: now,
                    db_left: inter.db_queries,
                    remaining: inter.response_bytes,
                });
                if inter.db_queries > 0 {
                    db.submit(now + web_delay, user as u64, &mut db_out);
                } else {
                    sim.schedule_at(
                        now + web_delay + one_way,
                        MEvent::Arrive { conn: ConnId(user) },
                    );
                }
            }
            MEvent::Db(ev) => {
                let user = db.on_event(now, ev, &mut db_out) as usize;
                let req = reqs[user].as_mut().expect("db completion without request");
                req.db_left -= 1;
                if req.db_left > 0 {
                    db.submit(now, user as u64, &mut db_out);
                } else {
                    sim.schedule_at(now + one_way, MEvent::Arrive { conn: ConnId(user) });
                }
            }
            MEvent::Arrive { conn } => {
                if obs_on {
                    obs.record(
                        TraceEvent::new(now, TraceKind::RequestArrive)
                            .conn(conn.0)
                            .class(conn_info[conn.0].class)
                            .arg(conn_info[conn.0].response_bytes as u64),
                    );
                }
                let mut cx = ctx!(now);
                server.on_request(&mut cx, conn);
            }
            MEvent::Cpu(cev) => {
                if let Some(done) = cpu.on_event(now, cev, &mut cpu_out) {
                    let horizon = if cfg.fast_forward {
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
            MEvent::Tcp(tev) => match tcp.on_event(now, tev, &mut tcp_out) {
                TcpNotice::SpaceFreed { conn, space } => {
                    if space > 0 {
                        let mut cx = ctx!(now);
                        server.on_writable(&mut cx, conn);
                    }
                }
                TcpNotice::Delivered { conn, bytes } => {
                    let user = conn.0;
                    let req = reqs[user].as_mut().expect("delivery without request");
                    debug_assert!(bytes <= req.remaining);
                    req.remaining -= bytes;
                    if req.remaining == 0 {
                        let done_at = now + web_delay; // back through Apache
                        let rt = done_at.duration_since(req.started);
                        window.record(done_at);
                        if done_at >= warm_end && done_at < end {
                            hist.record(rt);
                            ia_hist[conn_info[user].class].record(rt);
                        }
                        if obs_on {
                            obs.record(
                                TraceEvent::new(done_at, TraceKind::Completion)
                                    .conn(user)
                                    .class(conn_info[user].class)
                                    .arg(rt.as_nanos()),
                            );
                            if done_at >= warm_end && done_at < end {
                                obs.sample("rt_ns", rt.as_nanos());
                            }
                        }
                        reqs[user] = None;
                        let think =
                            cfg.workload.think.sample(&mut rng);
                        sim.schedule_at(done_at + think, MEvent::Send { user });
                    }
                }
            },
        }
        flush!();
    }

    let cpu_delta = cpu.stats().delta_since(&cpu_snap);
    let breakdown = cpu_delta.breakdown(cfg.measure, cfg.cpu.cores);
    let db_busy = db.busy_time() - db_busy_snap;
    let measure_s = cfg.measure.as_secs_f64();
    if obs_on {
        obs.counter("completions", window.completions());
        obs.counter("context_switches", cpu_delta.context_switches);
        obs.counter("events_processed", sim.events_processed());
        obs.gauge("throughput_rps", window.rate_per_sec());
        obs.gauge("cs_per_sec", cpu_delta.context_switches as f64 / measure_s);
        obs.gauge("tomcat_cpu", breakdown.utilization());
        obs.gauge(
            "db_util",
            db_busy.as_secs_f64() / (measure_s * cfg.workload.db_servers as f64),
        );
    }
    let per_interaction = table
        .iter()
        .zip(&ia_hist)
        .map(|(i, h)| InteractionSummary {
            name: i.name.to_string(),
            completions: h.count(),
            mean_rt_ms: h.mean().as_nanos() as f64 / 1e6,
        })
        .collect();
    RubbosSummary {
        server: server.name().to_string(),
        users,
        completions: window.completions(),
        throughput: window.rate_per_sec(),
        mean_rt_ms: hist.mean().as_nanos() as f64 / 1e6,
        p99_rt_ms: hist.quantile(0.99).as_nanos() as f64 / 1e6,
        tomcat_cpu: breakdown.utilization(),
        cs_per_sec: cpu_delta.context_switches as f64 / measure_s,
        db_util: db_busy.as_secs_f64() / (measure_s * cfg.workload.db_servers as f64),
        per_interaction,
    }
}
