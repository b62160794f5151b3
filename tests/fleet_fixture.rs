//! Pins multi-shard `Cluster` output to a committed fixture.
//!
//! Every cell below runs untraced through `run_mixed`; each homogeneous
//! cell also runs through `run` and traced (`run_traced`: summary, every
//! trace event, thread names, registry counters and bit-compared gauges),
//! and all three summaries must be equal. Each part is folded into an
//! FNV-1a digest and compared with
//! `tests/fixtures/fleet_digests.txt`. The cells cover every balancer at
//! 2, 3 and 8 shards, fixed and RTO retries with and without a budget,
//! pooled and per-shard hedging, a brownout, abandons and connection
//! resets (so some attempts land after their request moved on), shedding,
//! an open loop, a mixed fleet, a write-spinning fleet and the checked-in
//! brownout scenario. The last cells send flights, ACKs and timeouts at
//! other than their usual delays: a loss window, late ACKs, and stalled
//! workers under fixed retries. `engine_fixture` pins the one-shard case.
//!
//! The counters digest leaves out `events_processed`: it counts the drive
//! loop's own events, which a change to how the loop schedules its work
//! may move without moving any result. Everything the simulated system
//! does is pinned.
//!
//! After a change that is meant to move results, regenerate the fixture
//! with `ASYNCINV_BLESS=1 cargo test --test fleet_fixture` and say why in
//! the change.

use asyncinv::fault::{ConnSelector, FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::fleet::{
    BalancerKind, Cluster, FleetConfig, FleetScenario, FleetSummary, HedgeConfig, ShardFault,
    ShardShed,
};
use asyncinv::obs::Recorder;
use asyncinv::prelude::*;
use asyncinv::workload::{ArrivalMode, RequestClass, RetryPolicy, TimeoutMode};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/fleet_digests.txt";
const SCENARIO: &str = "scenarios/shard_brownout.json";

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
    fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}

/// The traced run's externally visible state, one digest per part.
fn trace_parts(rec: &Recorder) -> [(&'static str, u64); 4] {
    let mut events = Fnv::new();
    for ev in rec.events() {
        events = events
            .u64(ev.time.as_nanos())
            .u64(ev.kind.index() as u64)
            .u64(u64::from(ev.conn))
            .u64(u64::from(ev.thread))
            .u64(u64::from(ev.class))
            .u64(ev.req)
            .u64(ev.arg);
    }
    let names = rec.thread_names().iter().fold(Fnv::new(), |h, n| h.str(n));
    let mut counters: Vec<(&str, u64)> = rec
        .registry()
        .counters()
        .filter(|(n, _)| *n != "events_processed")
        .collect();
    counters.sort();
    let counters = counters
        .iter()
        .fold(Fnv::new(), |h, (n, v)| h.str(n).u64(*v));
    let mut gauges: Vec<(&str, f64)> = rec.registry().gauges().collect();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    let gauges = gauges
        .iter()
        .fold(Fnv::new(), |h, (n, v)| h.str(n).u64(v.to_bits()));
    [
        ("events", events.0),
        ("names", names.0),
        ("counters", counters.0),
        ("gauges", gauges.0),
    ]
}

fn summary_digest(s: &FleetSummary) -> u64 {
    Fnv::new().str(&format!("{s:?}")).0
}

/// Two classes of different sizes, so a spec written to the wrong shard
/// or at the wrong instant shows in every class-tagged trace event and in
/// the bytes sent.
fn two_sizes(conc: usize) -> ExperimentConfig {
    let mix = Mix::new(vec![
        (RequestClass::new("small", 1024), 0.7),
        (RequestClass::new("large", 16 * 1024), 0.3),
    ]);
    ExperimentConfig::with_mix(conc, mix)
}

/// Short windows and a ring that keeps every event.
fn short(mut cell: ExperimentConfig, lat_us: u64) -> ExperimentConfig {
    cell = cell.with_latency(SimDuration::from_micros(lat_us));
    cell.warmup = SimDuration::from_millis(50);
    cell.measure = SimDuration::from_millis(150);
    cell.trace_capacity = 1 << 17;
    cell
}

/// Retries after 8 ms; a positive `budget_ratio` also caps them at a
/// budget small enough to run dry during a slowdown.
fn retry(mode: TimeoutMode, budget_ratio: f64) -> RetryPolicy {
    RetryPolicy {
        timeout: Some(SimDuration::from_millis(8)),
        timeout_mode: mode,
        max_retries: 3,
        budget_ratio,
        budget_cap: 4.0,
        ..RetryPolicy::default()
    }
}

fn plan(seed: u64, events: Vec<FaultEvent>) -> FaultPlan {
    FaultPlan { seed, events }
}

fn slowdown(at_ms: u64, factor: f64, for_ms: u64) -> FaultEvent {
    FaultEvent {
        at: SimDuration::from_millis(at_ms),
        fault: FaultKind::Slowdown {
            factor,
            duration: Some(SimDuration::from_millis(for_ms)),
        },
    }
}

fn shed(policy: ShedPolicy) -> ShedConfig {
    ShedConfig {
        max_concurrent: 2,
        queue_cap: 2,
        policy,
        reject_bytes: 256,
    }
}

/// Every pinned cell: a name, the fleet, and one architecture per shard.
fn cells() -> Vec<(String, FleetConfig, Vec<ServerKind>)> {
    let mut out = Vec::new();
    let homogeneous = |cfg: FleetConfig, kind: ServerKind| {
        let kinds = vec![kind; cfg.shards];
        (cfg, kinds)
    };
    let mut arch = ServerKind::ALL.iter().copied().cycle();

    for shards in [2, 3, 8] {
        for balancer in BalancerKind::ALL {
            let kind = arch.next().expect("cycle");
            let cfg = FleetConfig::new(short(two_sizes(4 * shards), 200), shards, balancer);
            let (cfg, kinds) = homogeneous(cfg, kind);
            out.push((format!("s{shards}-{}/{kind}", balancer.name()), cfg, kinds));
        }
    }

    for (mode, budget) in [
        (TimeoutMode::Fixed, 0.0),
        (TimeoutMode::Fixed, 0.01),
        (TimeoutMode::Rto, 0.0),
        (TimeoutMode::Rto, 0.01),
    ] {
        let mut cell = short(two_sizes(12), 500);
        cell.retry = retry(mode, budget);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::LeastOutstanding);
        cfg.shard_faults = vec![ShardFault {
            shard: 1,
            plan: plan(3, vec![slowdown(80, 20.0, 60)]),
        }];
        let (cfg, kinds) = homogeneous(cfg, ServerKind::NettyLike);
        out.push((
            format!("retry-{mode:?}-budget{budget}/NettyServer"),
            cfg,
            kinds,
        ));
    }

    for per_shard in [false, true] {
        let mut cell = short(two_sizes(12), 500);
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::RoundRobin);
        cfg.hedge = Some(HedgeConfig {
            min_samples: 16,
            per_shard,
            ..HedgeConfig::default()
        });
        cfg.shard_faults = vec![ShardFault {
            shard: 0,
            plan: plan(5, vec![slowdown(70, 30.0, 80)]),
        }];
        let kind = ServerKind::Hybrid;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("hedge-per_shard-{per_shard}/{kind}"), cfg, kinds));
    }

    {
        let mut cfg = FleetConfig::new(
            short(two_sizes(16), 300),
            4,
            BalancerKind::PowerOfTwoChoices { seed: 0x5eed },
        );
        cfg.shard_faults = vec![ShardFault {
            shard: 2,
            plan: plan(8, vec![slowdown(60, 50.0, 100)]),
        }];
        let kind = ServerKind::SyncThread;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("brownout/{kind}"), cfg, kinds));
    }

    {
        // Abandons and resets while attempts are in flight: their
        // arrivals land after the request was abandoned or retried.
        let mut cell = short(two_sizes(16), 1_000);
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::ConsistentHash { vnodes: 16 });
        cfg.hedge = Some(HedgeConfig {
            min_samples: 8,
            ..HedgeConfig::default()
        });
        let ms = SimDuration::from_millis;
        let abandon = |at, frac| FaultEvent {
            at: ms(at),
            fault: FaultKind::Abandon {
                selector: ConnSelector::Fraction(frac),
            },
        };
        let reset = |at, frac| FaultEvent {
            at: ms(at),
            fault: FaultKind::ConnReset {
                selector: ConnSelector::Fraction(frac),
            },
        };
        cfg.shard_faults = vec![
            ShardFault {
                shard: 0,
                plan: plan(
                    11,
                    vec![abandon(60, 0.5), reset(90, 0.5), abandon(130, 0.75)],
                ),
            },
            ShardFault {
                shard: 2,
                plan: plan(12, vec![reset(70, 0.5), abandon(110, 0.5), reset(150, 1.0)]),
            },
        ];
        for kind in [ServerKind::NettyLike, ServerKind::AsyncPool] {
            let (cfg, kinds) = homogeneous(cfg.clone(), kind);
            out.push((format!("abandon-reset/{kind}"), cfg, kinds));
        }
    }

    for policy in [ShedPolicy::DropOldest, ShedPolicy::RejectFast] {
        let mut cell = short(two_sizes(24), 300);
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::RoundRobin);
        cfg.shard_shed = vec![ShardShed {
            shard: 1,
            shed: shed(policy),
        }];
        cfg.shard_faults = vec![ShardFault {
            shard: 1,
            plan: plan(6, vec![slowdown(60, 10.0, 80)]),
        }];
        let kind = ServerKind::Staged;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("shed-{policy:?}/{kind}"), cfg, kinds));
    }

    {
        let mut cell = short(two_sizes(16), 200);
        cell.clients.arrivals = ArrivalMode::Open {
            rate_per_sec: 12_000.0,
        };
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::LeastOutstanding);
        cfg.hedge = Some(HedgeConfig {
            min_samples: 16,
            ..HedgeConfig::default()
        });
        let kind = ServerKind::Proactor;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("open-loop/{kind}"), cfg, kinds));
    }

    {
        let mut cell = short(two_sizes(12), 300);
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let cfg = FleetConfig::new(cell, 3, BalancerKind::PowerOfTwoChoices { seed: 17 });
        let kinds = vec![
            ServerKind::NettyLike,
            ServerKind::SyncThread,
            ServerKind::SingleThread,
        ];
        out.push((
            "mixed/NettyServer+sTomcat-Sync+SingleT-Async".into(),
            cfg,
            kinds,
        ));
    }

    {
        let mut cell = short(ExperimentConfig::micro(6, 100 * 1024), 5_000);
        cell.measure = SimDuration::from_millis(300);
        cell.trace_capacity = 1 << 19;
        let cfg = FleetConfig::new(cell, 3, BalancerKind::RoundRobin);
        let kind = ServerKind::SingleThread;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("spin-100kb-5ms/{kind}"), cfg, kinds));
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SCENARIO);
    let body = std::fs::read_to_string(&path).expect("read scenario");
    let sc: FleetScenario = serde_json::from_str(&body).expect("parse scenario");
    for (budget, hedging) in [(0.0, false), (0.1, true)] {
        let mut cfg = sc.fleet_config(budget, hedging);
        cfg.cell.trace_capacity = 1 << 18;
        let kind = ServerKind::NettyLike;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((
            format!("{}-budget{budget}-hedge-{hedging}/{kind}", sc.name),
            cfg,
            kinds,
        ));
    }

    // Flights, ACKs and timeouts usually sit at a few fixed delays; the
    // cells below also send them at other delays, interleaved with the
    // usual ones.
    let ms = SimDuration::from_millis;
    {
        // Lost flights are delivered and ACKed one TCP RTO late.
        let mut cell = short(two_sizes(12), 300);
        cell.tcp.rto = ms(3);
        cell.retry = retry(TimeoutMode::Fixed, 0.5);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::LeastOutstanding);
        let loss = FaultEvent {
            at: ms(60),
            fault: FaultKind::Loss {
                selector: ConnSelector::All,
                prob: 0.3,
                duration: Some(ms(90)),
            },
        };
        cfg.shard_faults = vec![ShardFault {
            shard: 1,
            plan: plan(21, vec![loss]),
        }];
        let kind = ServerKind::NettyLike;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("loss-window/{kind}"), cfg, kinds));
    }

    {
        // ACKs arrive late on one shard (return-path congestion) and on
        // another (slow readers), each for a window.
        let mut cfg = FleetConfig::new(short(two_sizes(12), 200), 3, BalancerKind::RoundRobin);
        let late_acks = |at, fault| FaultEvent { at: ms(at), fault };
        cfg.shard_faults = vec![
            ShardFault {
                shard: 0,
                plan: plan(
                    22,
                    vec![late_acks(
                        60,
                        FaultKind::AckDelay {
                            selector: ConnSelector::All,
                            extra: SimDuration::from_micros(700),
                            duration: Some(ms(80)),
                        },
                    )],
                ),
            },
            ShardFault {
                shard: 2,
                plan: plan(
                    23,
                    vec![late_acks(
                        80,
                        FaultKind::SlowReader {
                            selector: ConnSelector::Fraction(0.5),
                            extra: ms(2),
                            duration: Some(ms(70)),
                        },
                    )],
                ),
            },
        ];
        let kind = ServerKind::AsyncPool;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("ack-delay-slow-reader/{kind}"), cfg, kinds));
    }

    {
        // Stalled workers push responses past the fixed retry timeout.
        let mut cell = short(two_sizes(12), 300);
        cell.retry = retry(TimeoutMode::Fixed, 0.0);
        let mut cfg = FleetConfig::new(cell, 3, BalancerKind::RoundRobin);
        let stall = |at, core| FaultEvent {
            at: ms(at),
            fault: FaultKind::WorkerStall {
                core,
                duration: ms(12),
            },
        };
        cfg.shard_faults = vec![ShardFault {
            shard: 0,
            plan: plan(24, vec![stall(70, None), stall(120, Some(0))]),
        }];
        let kind = ServerKind::SyncThread;
        let (cfg, kinds) = homogeneous(cfg, kind);
        out.push((format!("worker-stall-fixed/{kind}"), cfg, kinds));
    }
    out
}

/// One fixture line per (cell, part): `cell part digest`.
fn compute() -> String {
    let mut table = String::new();
    for (name, cfg, kinds) in cells() {
        let fleet = Cluster::new(cfg);
        let summary = fleet.run_mixed(&kinds);
        let mut parts = vec![("summary", summary_digest(&summary))];
        if kinds.iter().all(|&k| k == kinds[0]) {
            let (traced, rec) = fleet.run_traced(kinds[0]);
            assert_eq!(
                summary,
                fleet.run(kinds[0]),
                "{name}: run_mixed differs from run"
            );
            assert_eq!(summary, traced, "{name}: tracing changed the summary");
            assert_eq!(
                rec.ring().dropped(),
                0,
                "{name}: the ring must keep every event"
            );
            parts.extend(trace_parts(&rec));
        }
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn fleet_output_matches_the_pinned_digests() {
    let table = compute();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASYNCINV_BLESS").is_some() {
        std::fs::write(&path, &table).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(&path).expect("read fixture");
    let diff: Vec<String> = pinned
        .lines()
        .zip(table.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("pinned {a}\n   got {b}"))
        .collect();
    assert!(
        diff.is_empty() && pinned.lines().count() == table.lines().count(),
        "{} of {} digests differ:\n{}",
        diff.len(),
        pinned.lines().count(),
        diff.join("\n")
    );
}
