//! Property tests of the service-graph layer (`asyncinv::dag`): the
//! single-node reduction — a one-tier graph must be **bit-identical** to
//! the bare fleet it wraps, for every architecture — plus determinism and
//! the two bitwise audits on composed graphs with the
//! retry/budget/hedge/brownout planes all engaged.

use asyncinv::dag::{
    dag_audit, dag_span_audit, DagRun, DagSpanStatus, FleetDriver, ServiceGraph, SlowTier,
};
use asyncinv::fleet::{Cluster, HedgeConfig};
use asyncinv::obs::{Recorder, TraceEvent};
use asyncinv::prelude::*;
use proptest::prelude::*;

/// Everything a traced run externalizes: events, thread names, counters,
/// and gauges (bit-compared as `u64`).
type TraceState = (Vec<TraceEvent>, Vec<String>, Vec<(String, u64)>, Vec<u64>);

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
        g.into_iter().map(|(_, v)| v.to_bits()).collect()
    };
    (events, names, counters, gauges)
}

/// A one-tier graph: the case that must delegate verbatim to the fleet.
fn trivial(kind: ServerKind, seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::tree("trivial", kind, 0, 1, seed);
    g.cal.measure = SimDuration::from_millis(200);
    g
}

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

/// The single-node reduction, for all eight architectures: summary and
/// full trace state are bit-identical to the bare `Cluster` run on the
/// identical config.
#[test]
fn trivial_graph_reduces_to_the_bare_fleet() {
    for kind in ServerKind::ALL {
        let g = trivial(kind, 11);
        let mut dag_rec = Recorder::new(1 << 15);
        let out = DagRun::new(g.clone(), FleetDriver::Interleaved).run_observed(&mut dag_rec);
        let mut fleet_rec = Recorder::new(1 << 15);
        let fleet = Cluster::new(g.tier_fleet_config(0)).run_observed(kind, &mut fleet_rec);
        assert_eq!(
            out.fleet.as_ref(),
            Some(&fleet),
            "{kind:?}: trivial graph must carry the verbatim fleet summary"
        );
        assert_eq!(
            trace_state(&dag_rec),
            trace_state(&fleet_rec),
            "{kind:?}: trivial graph trace must be the fleet trace, bit for bit"
        );
        // The projected DAG summary mirrors the fleet's window.
        assert_eq!(out.summary.completed, fleet.fleet.completions);
        assert_eq!(out.summary.per_tier.len(), 1);
        assert!(out.spans.is_empty(), "trivial runs build no DAG spans");
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
    assert!(sums(|t| t.edge_timeouts) > 0, "the brownout must cause edge timeouts");
    for s in &out.spans {
        assert!(s.conserves(), "span {} phases must telescope bitwise", s.req);
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
    /// bits; and the trivial reduction holds for arbitrary seeds.
    #[test]
    fn dag_runs_are_deterministic(seed in 0u64..1000) {
        let a = DagRun::new(composed(seed), FleetDriver::Interleaved).run();
        let b = DagRun::new(composed(seed), FleetDriver::Interleaved).run();
        prop_assert_eq!(a.summary, b.summary);

        let g = trivial(ServerKind::NettyLike, seed);
        let out = DagRun::new(g.clone(), FleetDriver::Interleaved).run();
        let fleet = Cluster::new(g.tier_fleet_config(0)).run(ServerKind::NettyLike);
        prop_assert_eq!(out.fleet, Some(fleet));
    }
}
