//! Property tests of the span layer: every run — any architecture,
//! balancer, fleet shape, with retries/hedging/faults engaged — must
//! assemble into exactly one span tree per logical request whose phase
//! durations sum to the recorded response time **bitwise**.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::fleet::{BalancerKind, Cluster, FleetConfig, HedgeConfig, ShardFault, ShardShed};
use asyncinv::obs::{span_audit, SpanAssembler, TraceKind};
use asyncinv::prelude::*;
use asyncinv::workload::RetryPolicy;
use proptest::prelude::*;

const CONC: usize = 8;

fn cell() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(CONC, 10 * 1024);
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(300);
    cfg.trace_capacity = 1 << 17;
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

/// A 3-shard fleet with every plane lit: retries, hedging, a mid-run
/// slowdown on shard 1 and a shed override on shard 2.
fn stressed_fleet(balancer: BalancerKind) -> FleetConfig {
    let mut cfg = FleetConfig::new(retrying_cell(), 3, balancer);
    cfg.hedge = Some(HedgeConfig {
        min_samples: 16,
        ..HedgeConfig::default()
    });
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

/// The `Q_ACCEPT` item code is restated in `obs` (which sits below the
/// server crates); the two constants must stay equal or accept-wait
/// attribution silently degrades to queue wait.
#[test]
fn q_accept_code_mirrors_servers_constant() {
    assert_eq!(
        asyncinv::obs::critical_path::Q_ACCEPT_CODE,
        asyncinv::obs::trace_codes::Q_ACCEPT
    );
}

/// Span conservation holds for every architecture × balancer with the
/// full stress plane engaged: one tree per completed request, phase sums
/// equal recorded response times bitwise, hedge losers cancelled.
#[test]
fn span_audit_passes_for_all_architectures_and_balancers() {
    for kind in ServerKind::ALL {
        for balancer in BalancerKind::ALL {
            let cfg = stressed_fleet(balancer);
            let (summary, rec) = Cluster::new(cfg).run_traced(kind);
            let forest = SpanAssembler::assemble(&rec);
            let label = format!("{kind}/{}", balancer.name());
            let report = span_audit(&label, &rec, &forest);
            assert!(report.pass(), "span audit failed:\n{report}");
            assert!(summary.fleet.completions > 0, "{label}: no completions");
        }
    }
}

/// The span layer also holds on the bare engine (no fleet): client
/// timeouts, retries and abandons from the fault plane all fold into
/// conserved trees.
#[test]
fn span_audit_passes_for_bare_engine_with_faults() {
    let mut cfg = retrying_cell();
    let mid = cfg.warmup + cfg.measure / 4;
    cfg.faults = Some(FaultPlan {
        seed: 42,
        events: vec![FaultEvent {
            at: mid,
            fault: FaultKind::WorkerStall {
                core: None,
                duration: SimDuration::from_millis(40),
            },
        }],
    });
    for kind in ServerKind::ALL {
        let (summary, rec) = Experiment::new(cfg.clone()).run_traced(kind);
        let forest = SpanAssembler::assemble(&rec);
        let report = span_audit(&summary.server, &rec, &forest);
        assert!(report.pass(), "span audit failed:\n{report}");
    }
}

proptest! {
    // Each case runs one multi-shard traced simulation; keep the count
    // low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary fleets: shard count, balancer, hedging on/off, an
    /// arbitrary slowdown fault and arbitrary seed. The forest must
    /// reconcile exactly.
    #[test]
    fn span_conservation_for_arbitrary_fleets(
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
        let (a, rec) = Cluster::new(cfg).run_traced(kind);
        let forest = SpanAssembler::assemble(&rec);
        let report = span_audit("arbitrary", &rec, &forest);
        prop_assert!(report.pass(), "span audit failed:\n{report}");
        prop_assert_eq!(
            forest.completed().count() as u64,
            rec.total(TraceKind::Completion),
            "one tree per completed request"
        );
        for tree in &forest.trees {
            prop_assert_eq!(tree.phases.total(), tree.rt_ns, "phase sums conserve rt");
        }
        prop_assert!(a.fleet.completions > 0);
    }
}

/// The span classifier's mirror of the ring's write op code (it cannot
/// depend on `asyncinv-uring` directly) must track the real constant.
#[test]
fn sq_write_code_mirrors_uring() {
    assert_eq!(
        asyncinv::obs::critical_path::SQ_OP_WRITE_CODE,
        asyncinv_uring::SQ_OP_WRITE
    );
}
