//! Property tests of the service-graph layer (`asyncinv::dag`): a
//! one-tier graph is composed like any other and passes both bitwise
//! audits on every architecture, plus determinism and the two audits on
//! composed graphs with the retry/budget/hedge/brownout planes all
//! engaged. One fleet on its own runs through `Cluster`, whose output
//! `tests/fleet_fixture.rs` and `tests/engine_fixture.rs` pin.

use asyncinv::dag::{
    dag_audit, dag_span_audit, DagRun, DagSpanStatus, FleetDriver, ServiceGraph, SlowTier,
};
use asyncinv::fleet::HedgeConfig;
use asyncinv::prelude::*;
use proptest::prelude::*;

/// A composed graph with every policy plane engaged: fan-out and a
/// shared leaf (diamond), edge budgets, hedging, and a mid-run brownout
/// on the shared storage tier.
fn composed(seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::diamond("prop-diamond", ServerKind::NettyLike, seed);
    g.tiers[3].kind = ServerKind::SingleThread;
    g.arrivals.rate_per_sec = 2500.0;
    g.arrivals.warmup = SimDuration::from_millis(50);
    g.arrivals.measure = SimDuration::from_millis(400);
    g.cal.measure = SimDuration::from_millis(200);
    for e in &mut g.edges {
        e.timeout = SimDuration::from_micros(2000);
        e.max_retries = 2;
        e.budget_ratio = 0.2;
        if e.to == 3 {
            e.hedge = Some(HedgeConfig {
                percentile: 0.95,
                initial_delay: SimDuration::from_millis(1),
                min_samples: 32,
                per_shard: false,
            });
        }
    }
    g.slow = Some(SlowTier {
        tier: 3,
        factor: 20.0,
        at: SimDuration::from_millis(150),
        duration: SimDuration::from_millis(150),
    });
    g
}

/// A one-tier graph runs the composed engine like any other graph: on
/// all eight architectures it completes requests, passes both bitwise
/// audits, and `run` reports the summary `run_traced` does.
#[test]
fn one_tier_graph_is_composed_and_passes_both_audits() {
    for kind in ServerKind::ALL {
        let mut g = ServiceGraph::tree("one", kind, 0, 1, 11);
        g.cal.measure = SimDuration::from_millis(200);
        let run = DagRun::new(g, FleetDriver::Interleaved);
        let (traced, rec) = run.run_traced();
        let report = dag_audit(&traced.summary, &rec);
        assert!(report.pass(), "{kind:?}: dag audit failed:\n{report}");
        let spans = dag_span_audit(&traced.spans, &rec);
        assert!(spans.pass(), "{kind:?}: span audit failed:\n{spans}");
        assert!(
            traced.summary.completed > 0,
            "{kind:?}: the tier must serve requests"
        );
        assert_eq!(traced.summary.per_tier.len(), 1);
        assert_eq!(
            run.run().summary,
            traced.summary,
            "{kind:?}: tracing moved the summary"
        );
    }
}

/// Both bitwise audits pass on a composed traced run with brownout,
/// retries, budgets and hedges all active — and the run actually
/// exercised them.
#[test]
fn composed_dag_passes_both_audits() {
    let run = DagRun::new(composed(31), FleetDriver::Interleaved);
    let (out, rec) = run.run_traced();
    let report = dag_audit(&out.summary, &rec);
    assert!(report.pass(), "dag audit failed:\n{report}");
    let spans = dag_span_audit(&out.spans, &rec);
    assert!(spans.pass(), "span audit failed:\n{spans}");
    let sums = |f: fn(&asyncinv::dag::TierCounters) -> u64| -> u64 {
        out.summary.per_tier.iter().map(f).sum()
    };
    assert!(out.summary.completed > 0);
    assert!(sums(|t| t.hedges) > 0, "the hedge plane must fire");
    assert!(
        sums(|t| t.edge_timeouts) > 0,
        "the brownout must cause edge timeouts"
    );
    for s in &out.spans {
        assert!(
            s.conserves(),
            "span {} phases must telescope bitwise",
            s.req
        );
        if s.status == DagSpanStatus::Completed {
            assert!(s.attempts.iter().any(|a| a.won));
        }
    }
}

/// Failed root requests are fully accounted: window completions plus
/// window failures equal window arrivals once the graph drains (the
/// conservation identity `dag_audit` closes, restated at the API level).
#[test]
fn composed_dag_conserves_requests() {
    let out = DagRun::new(composed(47), FleetDriver::Interleaved).run();
    let root = &out.summary.per_tier[0];
    assert_eq!(
        out.summary.arrivals,
        root.sheds + root.failed_calls + root.replies,
        "every root arrival needs exactly one fate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Composed runs are deterministic in the seed: same seed, same
    /// bits.
    #[test]
    fn dag_runs_are_deterministic(seed in 0u64..1000) {
        let a = DagRun::new(composed(seed), FleetDriver::Interleaved).run();
        let b = DagRun::new(composed(seed), FleetDriver::Interleaved).run();
        prop_assert_eq!(a.summary, b.summary);
    }
}
