//! Property tests of the fleet plane: a one-shard fleet is the
//! single-server `Experiment` under every balancer, fleet runs are
//! deterministic (including across OS threads), and the fleet trace
//! reconciles bitwise with the fleet and per-shard counters under
//! arbitrary per-shard fault plans.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan};
use asyncinv::fleet::{
    fleet_audit, BalancerKind, Cluster, FleetConfig, HedgeConfig, ShardFault,
};
use asyncinv::prelude::*;
use asyncinv::workload::RetryPolicy;
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

/// A fleet of ONE shard is the single-server `Experiment` (the same drive
/// loop, whose output `tests/engine_fixture.rs` pins): balancers draw no
/// randomness at one shard, so every balancer yields the same summary,
/// and the fleet plane stays silent — one per-shard entry, no routes, no
/// hedges.
#[test]
fn one_shard_fleet_has_no_fleet_plane() {
    for kind in ServerKind::ALL {
        let bare = Experiment::new(retrying_cell()).run(kind);
        for balancer in BalancerKind::ALL {
            let fleet = Cluster::new(FleetConfig::new(retrying_cell(), 1, balancer)).run(kind);
            assert_eq!(bare, fleet.fleet, "{kind}/{}: balancer leaked in", balancer.name());
            assert_eq!(fleet.per_shard.len(), 1);
            assert_eq!(fleet.fleet.shard_routes, 0, "no fleet counters at one shard");
            assert_eq!(fleet.fleet.hedges, 0);
        }
    }
}

/// The same fleet configuration run on different OS threads produces the
/// same summary as on the main thread: no ambient state feeds the fleet
/// driver, its balancers, or the hedge estimator.
#[test]
#[allow(clippy::disallowed_methods)]
fn fleet_run_is_identical_across_os_threads() {
    let mk = || {
        let mut cfg = FleetConfig::new(
            retrying_cell(),
            3,
            BalancerKind::PowerOfTwoChoices { seed: 0x5eed },
        );
        cfg.hedge = Some(HedgeConfig::default());
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
        cfg
    };
    let main = Cluster::new(mk()).run(ServerKind::NettyLike);
    let handles: Vec<_> = (0..2)
        // detlint::allow(thread-spawn, reason = "spawning real OS threads is the subject under test: the fleet driver must be identical across them")
        .map(|_| std::thread::spawn(move || Cluster::new(mk()).run(ServerKind::NettyLike)))
        .collect();
    for h in handles {
        assert_eq!(main, h.join().expect("worker thread"));
    }
    assert!(main.fleet.fault_events > 0, "the shard fault must fire");
    assert_eq!(
        main.fleet.shard_routes,
        main.per_shard.iter().map(|s| s.routes).sum::<u64>()
    );
}

/// Per-shard hedge-delay estimation is a real policy change: under an
/// asymmetric fleet (one shard browned out) the keyed estimators keep the
/// healthy shards' delay tight instead of letting the slow shard drag the
/// pooled percentile up, so the two configurations hedge at different
/// times. Both must stay deterministic and pass the bitwise trace audit.
#[test]
fn per_shard_hedging_diverges_from_pooled_under_asymmetry() {
    let mk = |per_shard: bool| {
        let mut cfg = FleetConfig::new(retrying_cell(), 3, BalancerKind::RoundRobin);
        cfg.cell.trace_capacity = 64;
        cfg.hedge = Some(HedgeConfig {
            min_samples: 16,
            per_shard,
            ..HedgeConfig::default()
        });
        cfg.shard_faults = vec![ShardFault {
            shard: 0,
            plan: FaultPlan {
                seed: 3,
                events: vec![FaultEvent {
                    at: SimDuration::from_millis(150),
                    fault: FaultKind::Slowdown {
                        factor: 30.0,
                        duration: Some(SimDuration::from_millis(250)),
                    },
                }],
            },
        }];
        cfg
    };
    let kind = ServerKind::NettyLike;
    let (pooled, prec) = Cluster::new(mk(false)).run_traced(kind);
    let (keyed, krec) = Cluster::new(mk(true)).run_traced(kind);
    for (name, s, rec) in [("pooled", &pooled, &prec), ("per-shard", &keyed, &krec)] {
        let report = fleet_audit(s, rec);
        assert!(report.pass(), "{name} hedge audit failed:\n{report}");
        assert!(s.fleet.hedges > 0, "{name} hedging must actually fire");
    }
    assert_eq!(keyed, Cluster::new(mk(true)).run(kind), "keyed run must be deterministic");
    assert_ne!(
        pooled, keyed,
        "per-shard estimators must change hedge timing under an asymmetric fleet"
    );
}

proptest! {
    // Each case runs two full multi-shard simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary fleet shapes — shard count, balancer, hedging on or off,
    /// a slowdown on an arbitrary shard — are deterministic, and the
    /// fleet trace reconciles bitwise with both the fleet summary and the
    /// per-shard counter sums.
    #[test]
    fn fleet_runs_are_deterministic_and_audited(
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
    ) {
        let mut cfg = FleetConfig::new(retrying_cell(), shards, BalancerKind::ALL[bal_idx]);
        cfg.cell.clients.seed = seed;
        cfg.cell.trace_capacity = 64;
        let hedged = hedged_raw == 1;
        if hedged {
            cfg.hedge = Some(HedgeConfig {
                min_samples: 16,
                ..HedgeConfig::default()
            });
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
        prop_assert!(cfg.validate().is_ok());
        let (a, rec) = Cluster::new(cfg.clone()).run_traced(kind);
        let b = Cluster::new(cfg).run(kind);
        prop_assert_eq!(&a, &b, "same fleet config must be bitwise identical");
        let report = fleet_audit(&a, &rec);
        prop_assert!(report.pass(), "{}", report);
        prop_assert!(a.fleet.completions > 0);
    }

    /// Fleet configurations round-trip through JSON exactly.
    #[test]
    fn fleet_configs_round_trip_through_json(
        shards in 1usize..6,
        bal_idx in 0usize..4,
        hedged_raw in 0usize..2,
    ) {
        let mut cfg = FleetConfig::new(cell(), shards, BalancerKind::ALL[bal_idx]);
        let hedged = hedged_raw == 1;
        if hedged && shards >= 2 {
            cfg.hedge = Some(HedgeConfig::default());
        }
        let json = serde_json::to_string(&cfg).expect("serialize fleet config");
        let back: FleetConfig = serde_json::from_str(&json).expect("parse fleet config");
        prop_assert_eq!(cfg.shards, back.shards);
        prop_assert_eq!(cfg.balancer, back.balancer);
        prop_assert_eq!(cfg.hedge, back.hedge);
        prop_assert!(back.validate().is_ok());
    }
}
