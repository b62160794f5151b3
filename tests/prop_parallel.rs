//! Property tests of the parallel-in-time fleet driver: a
//! `ParallelCluster` run must be **bit-identical** to the interleaved
//! `Cluster` run — same `FleetSummary`, same trace stream event for
//! event — for every architecture, balancer, thread count, and with the
//! hedge, retry, fault and shed planes all engaged. OS-thread scheduling
//! must never leak into the result: repeated runs at different worker
//! counts are byte-equal.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::fleet::{
    fleet_audit, BalancerKind, Cluster, FleetConfig, HedgeConfig, ParallelCluster, SchedulePlan,
    ShardFault, ShardShed,
};
use asyncinv::obs::{Recorder, TraceEvent};
use asyncinv::prelude::*;
use asyncinv::workload::{RetryPolicy, TimeoutMode};
use proptest::prelude::*;

const CONC: usize = 8;

fn cell() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(CONC, 10 * 1024);
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(400);
    cfg
}

fn retrying_cell() -> ExperimentConfig {
    let mut cfg = cell();
    cfg.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(20)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    cfg
}

/// Everything a traced run externalizes: events, thread names, counters,
/// and gauges (bit-compared as `u64`).
type TraceState = (Vec<TraceEvent>, Vec<String>, Vec<(String, u64)>, Vec<u64>);

/// Collects a run's full external trace state for bitwise comparison.
fn trace_state(rec: &Recorder) -> TraceState {
    let events: Vec<TraceEvent> = rec.events().copied().collect();
    let names = rec.thread_names().to_vec();
    let mut counters: Vec<(String, u64)> =
        rec.registry().counters().map(|(n, v)| (n.to_string(), v)).collect();
    counters.sort();
    let gauges: Vec<u64> = {
        let mut g: Vec<(String, f64)> =
            rec.registry().gauges().map(|(n, v)| (n.to_string(), v)).collect();
        g.sort_by(|a, b| a.0.cmp(&b.0));
        // Bit-compare the floats: "close" is not the contract.
        g.into_iter().map(|(_, v)| v.to_bits()).collect()
    };
    (events, names, counters, gauges)
}

/// The tentpole invariant: the conservative-sync parallel driver is
/// bit-identical to the interleaved driver for every architecture and
/// balancer, at several shard and worker-thread counts.
#[test]
fn parallel_fleet_is_bit_identical_to_interleaved() {
    for kind in ServerKind::ALL {
        for balancer in BalancerKind::ALL {
            let cfg = FleetConfig::new(cell(), 3, balancer);
            let interleaved = Cluster::new(cfg.clone()).run(kind);
            for threads in [1usize, 2, 4] {
                let parallel = ParallelCluster::new(cfg.clone()).threads(threads).run(kind);
                assert_eq!(
                    interleaved,
                    parallel,
                    "{kind}/{} diverged at {threads} worker threads",
                    balancer.name()
                );
            }
        }
    }
}

/// A 1-shard parallel fleet equals the 1-shard interleaved fleet (the
/// driver delegates that shape), which in turn is bit-identical to the
/// bare engine — so the parallel API is safe at every shard count.
#[test]
fn one_shard_parallel_fleet_delegates_to_interleaved() {
    for kind in [ServerKind::SyncThread, ServerKind::SingleThread, ServerKind::Staged] {
        let cfg = FleetConfig::new(cell(), 1, BalancerKind::RoundRobin);
        let a = Cluster::new(cfg.clone()).run(kind);
        let b = ParallelCluster::new(cfg).threads(4).run(kind);
        assert_eq!(a, b, "{kind}: 1-shard parallel diverged");
    }
}

/// Heterogeneous fleets too: one architecture per shard.
#[test]
fn mixed_parallel_fleet_is_bit_identical_to_interleaved() {
    let kinds = [ServerKind::NettyLike, ServerKind::SyncThread, ServerKind::SingleThread];
    let cfg = FleetConfig::new(cell(), 3, BalancerKind::LeastOutstanding);
    let a = Cluster::new(cfg.clone()).run_mixed(&kinds);
    for threads in [1usize, 3] {
        let b = ParallelCluster::new(cfg.clone()).threads(threads).run_mixed(&kinds);
        assert_eq!(a, b, "mixed fleet diverged at {threads} threads");
    }
}

/// Per-shard hedge-delay estimation goes through the parallel driver's
/// coordinator exactly like the pooled estimator: both drivers must stay
/// bit-identical with `per_shard` on.
#[test]
fn per_shard_hedging_is_driver_invariant() {
    let mut cfg = stressed_cfg();
    cfg.hedge = Some(HedgeConfig {
        min_samples: 16,
        per_shard: true,
        ..HedgeConfig::default()
    });
    let kind = ServerKind::NettyLike;
    let a = Cluster::new(cfg.clone()).run(kind);
    assert!(a.fleet.hedges > 0, "per-shard hedging must actually fire");
    for threads in [1usize, 3] {
        let b = ParallelCluster::new(cfg.clone()).threads(threads).run(kind);
        assert_eq!(a, b, "per-shard hedged fleet diverged at {threads} threads");
    }
}

/// A stressed 3-shard fleet with every plane engaged — retries, hedging,
/// a mid-run shard fault, and a shed override. Shared by the traced
/// bit-identity test and the schedule-race explorer tests (and mirrored
/// by `asyncinv-bench`'s `schedule_explorer` bin).
fn stressed_cfg() -> FleetConfig {
    stressed_cfg_measure(400)
}

/// [`stressed_cfg`] with an explicit measurement-window length. The
/// schedule explorer tests run dozens of full simulations, so they use a
/// shorter window (the fault at 200 ms and the shed/hedge planes still
/// engage well inside it).
fn stressed_cfg_measure(measure_ms: u64) -> FleetConfig {
    let mut base = retrying_cell();
    base.measure = SimDuration::from_millis(measure_ms);
    let mut cfg = FleetConfig::new(base, 3, BalancerKind::PowerOfTwoChoices {
        seed: 0x5eed,
    });
    cfg.cell.trace_capacity = 1 << 16;
    cfg.hedge = Some(HedgeConfig { min_samples: 16, ..HedgeConfig::default() });
    cfg.shard_faults = vec![ShardFault {
        shard: 1,
        plan: FaultPlan {
            seed: 5,
            events: vec![FaultEvent {
                at: SimDuration::from_millis(200),
                fault: FaultKind::Slowdown {
                    factor: 16.0,
                    duration: Some(SimDuration::from_millis(150)),
                },
            }],
        },
    }];
    cfg.shard_shed = vec![ShardShed {
        shard: 2,
        shed: ShedConfig {
            max_concurrent: 1,
            queue_cap: 1,
            policy: ShedPolicy::DropOldest,
            reject_bytes: 256,
        },
    }];
    cfg
}

/// With every plane engaged — retries, hedging, a mid-run shard fault,
/// and a shed override — the parallel run still reproduces the
/// interleaved run bitwise, including the full trace stream: same
/// events in the same order, same thread names, same exported counters
/// and (bit-compared) gauges. The fleet audit must pass on the parallel
/// trace.
#[test]
fn traced_parallel_run_reproduces_interleaved_trace_bitwise() {
    let cfg = stressed_cfg();
    let (a, rec_a) = Cluster::new(cfg.clone()).run_traced(ServerKind::NettyLike);
    for threads in [1usize, 2, 4] {
        let (b, rec_b) =
            ParallelCluster::new(cfg.clone()).threads(threads).run_traced(ServerKind::NettyLike);
        assert_eq!(a, b, "summary diverged at {threads} threads");
        assert_eq!(
            trace_state(&rec_a),
            trace_state(&rec_b),
            "trace diverged at {threads} threads"
        );
        let report = fleet_audit(&b, &rec_b);
        assert!(report.pass(), "parallel fleet audit failed:\n{report}");
    }
    assert!(a.fleet.fault_events > 0, "the fault must actually fire");
    assert!(a.fleet.hedges > 0, "hedging must actually fire");
    assert!(a.fleet.shed_dropped > 0, "the shed override must actually shed");
}

/// `TimeoutMode::Rto` reaches fleets: both drivers arm the client-wide RTO
/// estimate (seeded from the fixed timeout, fed every response time and
/// backed off on timeout) instead of the fixed timeout, so a stressed
/// 3-shard fleet must come out differently than in `Fixed` mode — and
/// identically on both drivers, summary, trace and counters alike.
#[test]
fn rto_fleet_differs_from_fixed_and_is_driver_invariant() {
    let fixed = stressed_cfg();
    let mut rto = fixed.clone();
    rto.cell.retry.timeout_mode = TimeoutMode::Rto;
    let kind = ServerKind::NettyLike;
    let (a, rec_a) = Cluster::new(rto.clone()).run_traced(kind);
    let b = Cluster::new(fixed).run(kind);
    assert!(a.fleet.timeouts > 0, "the timeout must actually fire");
    assert_ne!(a, b, "the RTO estimate must change which attempts time out");
    for threads in [1usize, 3] {
        let (c, rec_c) = ParallelCluster::new(rto.clone()).threads(threads).run_traced(kind);
        assert_eq!(a, c, "RTO fleet diverged at {threads} threads");
        assert_eq!(trace_state(&rec_a), trace_state(&rec_c), "trace diverged at {threads} threads");
    }
}

/// Schedule-race exploration, bounded-exhaustive regime: every enumerated
/// (rotation × reversal) permutation of batch execution and fold-back
/// order — all relative orderings a 3-shard batch can exhibit — yields
/// the canonical summary, trace stream, counters and gauges, bitwise.
/// The schedule traces prove the runs actually walked different
/// interleavings: permuted batches are counted and the signatures of
/// non-identity plans differ from the canonical one.
#[test]
fn every_enumerated_schedule_is_bit_identical() {
    let cfg = stressed_cfg_measure(200);
    let kind = ServerKind::NettyLike;
    let (a, rec_a, trace_a) = ParallelCluster::new(cfg.clone())
        .run_traced_scheduled(kind, SchedulePlan::Canonical);
    assert!(trace_a.batches > 0, "the stressed fleet must batch");
    assert_eq!(trace_a.permuted_batches, 0, "canonical never permutes");
    // The scheduled path itself must not disturb the result: canonical
    // scheduling equals the interleaved driver bitwise.
    let (i, rec_i) = Cluster::new(cfg.clone()).run_traced(kind);
    assert_eq!(i, a, "canonical schedule diverged from the interleaved driver");
    assert_eq!(trace_state(&rec_i), trace_state(&rec_a));
    let mut distinct = std::collections::BTreeSet::new();
    distinct.insert(trace_a.signature);
    for plan in SchedulePlan::enumerate(3) {
        let (b, rec_b, trace_b) =
            ParallelCluster::new(cfg.clone()).run_traced_scheduled(kind, plan);
        assert_eq!(a, b, "summary diverged under {plan:?}");
        assert_eq!(
            trace_state(&rec_a),
            trace_state(&rec_b),
            "trace diverged under {plan:?}"
        );
        assert_eq!(trace_a.batches, trace_b.batches, "{plan:?} saw different batches");
        assert_eq!(trace_a.jobs, trace_b.jobs, "{plan:?} saw different jobs");
        distinct.insert(trace_b.signature);
        if !matches!(plan, SchedulePlan::Canonical) {
            assert!(trace_b.permuted_batches > 0, "{plan:?} never actually permuted");
        }
    }
    assert!(
        distinct.len() > 20,
        "the enumerated plans must walk many distinct schedules, got {}",
        distinct.len()
    );
}

/// Repeated parallel runs of the same config — fresh worker pools, fresh
/// OS-thread schedules each time — are byte-equal. Nondeterminism in
/// phase completion order must never reach the result.
#[test]
fn repeated_parallel_runs_are_identical() {
    let mut cfg = FleetConfig::new(retrying_cell(), 4, BalancerKind::LeastOutstanding);
    cfg.hedge = Some(HedgeConfig { min_samples: 16, ..HedgeConfig::default() });
    let first = ParallelCluster::new(cfg.clone()).threads(4).run(ServerKind::Hybrid);
    for round in 0..4 {
        let again = ParallelCluster::new(cfg.clone()).threads(4).run(ServerKind::Hybrid);
        assert_eq!(first, again, "round {round} diverged");
    }
    assert!(first.fleet.completions > 0);
}

proptest! {
    // Each case runs one interleaved and two parallel multi-shard
    // simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary fleet shapes — shard count, balancer, hedging on or
    /// off, a slowdown fault on an arbitrary shard, arbitrary workload
    /// seed — are bit-identical between the interleaved and parallel
    /// drivers at arbitrary worker counts.
    #[test]
    fn parallel_matches_interleaved_for_arbitrary_fleets(
        kind in prop::sample::select(vec![
            ServerKind::SyncThread,
            ServerKind::NettyLike,
            ServerKind::Hybrid,
        ]),
        shards in 2usize..5,
        bal_idx in 0usize..4,
        hedged_raw in 0usize..2,
        fault_shard in 0usize..4,
        factor in 2.0f64..20.0,
        seed in 0u64..1_000,
        threads in 1usize..6,
    ) {
        let mut cfg = FleetConfig::new(retrying_cell(), shards, BalancerKind::ALL[bal_idx]);
        cfg.cell.clients.seed = seed;
        if hedged_raw == 1 {
            cfg.hedge = Some(HedgeConfig { min_samples: 16, ..HedgeConfig::default() });
        }
        cfg.shard_faults = vec![ShardFault {
            shard: fault_shard % shards,
            plan: FaultPlan {
                seed,
                events: vec![FaultEvent {
                    at: SimDuration::from_millis(200),
                    fault: FaultKind::Slowdown {
                        factor,
                        duration: Some(SimDuration::from_millis(100)),
                    },
                }],
            },
        }];
        let a = Cluster::new(cfg.clone()).run(kind);
        let b = ParallelCluster::new(cfg.clone()).threads(threads).run(kind);
        prop_assert_eq!(&a, &b, "parallel diverged from interleaved");
        let c = ParallelCluster::new(cfg).threads(1).run(kind);
        prop_assert_eq!(&a, &c, "single-worker parallel diverged");
        prop_assert!(a.fleet.completions > 0);
    }

    /// Schedule-race exploration, seeded-shuffle regime: a per-batch
    /// Fisher–Yates shuffle of worker completion and fold-back order on
    /// the stressed fleet — every plane engaged — is byte-identical to
    /// the canonical schedule, summary and full trace state, for
    /// arbitrary seeds.
    #[test]
    fn shuffled_schedule_is_bit_identical_on_stressed_fleet(seed in 0u64..1_000_000) {
        let cfg = stressed_cfg_measure(200);
        let kind = ServerKind::NettyLike;
        let (a, rec_a, trace_a) = ParallelCluster::new(cfg.clone())
            .run_traced_scheduled(kind, SchedulePlan::Canonical);
        let (b, rec_b, trace_b) = ParallelCluster::new(cfg)
            .run_traced_scheduled(kind, SchedulePlan::Shuffled { seed });
        prop_assert_eq!(&a, &b, "summary diverged under shuffled seed {}", seed);
        prop_assert_eq!(
            trace_state(&rec_a),
            trace_state(&rec_b),
            "trace diverged under shuffled seed {}",
            seed
        );
        prop_assert_eq!(trace_a.batches, trace_b.batches);
        prop_assert!(trace_b.permuted_batches > 0, "the shuffle never actually permuted");
        prop_assert!(a.fleet.hedges > 0 && a.fleet.shed_dropped > 0 && a.fleet.fault_events > 0);
    }
}
