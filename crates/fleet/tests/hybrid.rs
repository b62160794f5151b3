//! HybridNetty validation: the paper's Fig 11 claims.

use asyncinv_fleet::Experiment;
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;
use asyncinv_workload::Mix;

fn mixed(heavy_fraction: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::with_mix(100, Mix::heavy_light(heavy_fraction));
    cfg.warmup = SimDuration::from_millis(500);
    cfg.measure = SimDuration::from_secs(3);
    cfg
}

/// At 0% heavy requests HybridNetty behaves like SingleT-Async (its fast
/// path), at 100% like NettyServer (paper Fig 11 endpoints).
#[test]
fn hybrid_matches_endpoints() {
    let all_light = mixed(0.0);
    let hybrid = Experiment::new(all_light.clone()).run(ServerKind::Hybrid);
    let single = Experiment::new(all_light).run(ServerKind::SingleThread);
    let ratio = hybrid.throughput / single.throughput;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "0% heavy: hybrid {} vs singleT {} (ratio {ratio})",
        hybrid.throughput,
        single.throughput
    );

    let all_heavy = mixed(1.0);
    let hybrid = Experiment::new(all_heavy.clone()).run(ServerKind::Hybrid);
    let netty = Experiment::new(all_heavy).run(ServerKind::NettyLike);
    let ratio = hybrid.throughput / netty.throughput;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "100% heavy: hybrid {} vs netty {} (ratio {ratio})",
        hybrid.throughput,
        netty.throughput
    );
}

/// In between, the hybrid beats both pure strategies (paper: +30% over
/// SingleT-Async and +10% over NettyServer at 5% heavy).
#[test]
fn hybrid_wins_on_mixed_workload() {
    let cfg = mixed(0.05);
    let hybrid = Experiment::new(cfg.clone()).run(ServerKind::Hybrid);
    let single = Experiment::new(cfg.clone()).run(ServerKind::SingleThread);
    let netty = Experiment::new(cfg).run(ServerKind::NettyLike);

    assert!(
        hybrid.throughput > single.throughput,
        "hybrid {} must beat singleT {}",
        hybrid.throughput,
        single.throughput
    );
    assert!(
        hybrid.throughput > netty.throughput,
        "hybrid {} must beat netty {}",
        hybrid.throughput,
        netty.throughput
    );
}

/// With latency, the unbounded spinner collapses on any heavy fraction but
/// the hybrid holds (paper Fig 11b).
#[test]
fn hybrid_tolerates_latency_on_mixed_workload() {
    let cfg = mixed(0.05).with_latency(SimDuration::from_millis(5));
    let hybrid = Experiment::new(cfg.clone()).run(ServerKind::Hybrid);
    let single = Experiment::new(cfg).run(ServerKind::SingleThread);
    assert!(
        hybrid.throughput > single.throughput * 2.0,
        "hybrid {} should dwarf singleT {} under latency",
        hybrid.throughput,
        single.throughput
    );
}

/// The classifier actually routes: both paths are used on a mixed workload,
/// and the map learns the two classes.
#[test]
fn classifier_routes_both_paths() {
    let cfg = mixed(0.2);
    let (summary, counters) = Experiment::new(cfg).run_detailed(ServerKind::Hybrid);
    assert!(summary.completions > 0);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(get("fast_requests") > 0, "fast path unused: {counters:?}");
    assert!(get("netty_requests") > 0, "netty path unused: {counters:?}");
}

/// The paper's map-update scenario: "the response size even for the same
/// type of requests may change over time". A class that starts light and
/// drifts heavy mid-run must be re-classified (light → heavy) and the
/// hybrid must keep functioning rather than spinning unboundedly.
#[test]
fn hybrid_reclassifies_on_drift() {
    use asyncinv_simcore::SimTime;
    use asyncinv_workload::RequestClass;

    // The class is light during warm-up (the map learns "light"), then
    // drifts heavy just after the measurement window opens.
    let drifting = RequestClass::new("page", 100)
        .with_drift(SimTime::from_millis(1_100), 100 * 1024);
    let mix = Mix::new(vec![(drifting, 1.0)]);
    let mut cfg = ExperimentConfig::with_mix(50, mix);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.measure = SimDuration::from_secs(3);
    // Latency makes misclassified spinning catastrophic; the hybrid must
    // park instead.
    let cfg = cfg.with_latency(SimDuration::from_millis(2));

    let (summary, counters) = Experiment::new(cfg.clone()).run_detailed(ServerKind::Hybrid);
    let reclass = counters
        .iter()
        .find(|(n, _)| *n == "reclass_to_heavy")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(reclass >= 1, "drift must trigger re-classification: {counters:?}");
    assert!(summary.completions > 0);

    // The unbounded spinner has no such defense.
    let single = Experiment::new(cfg).run(ServerKind::SingleThread);
    assert!(
        summary.throughput > single.throughput * 1.5,
        "hybrid {} should beat the spinning server {} across the drift",
        summary.throughput,
        single.throughput
    );
}

/// HTTP/2 push makes one class's size unpredictable per request (the
/// paper's motivation for why sizing cannot be static). The per-class map
/// flaps, but the hybrid must degrade gracefully to Netty-like behaviour
/// and still beat the unbounded spinner.
#[test]
fn hybrid_degrades_gracefully_under_push_variance() {
    use asyncinv_workload::RequestClass;

    let class = RequestClass::new("page", 2 * 1024).with_push(32 * 1024, 2);
    let mk = || {
        let mut cfg = ExperimentConfig::with_mix(50, Mix::new(vec![(class.clone(), 1.0)]));
        cfg.warmup = SimDuration::from_millis(400);
        cfg.measure = SimDuration::from_secs(2);
        cfg
    };
    let (hybrid, counters) = Experiment::new(mk()).run_detailed(ServerKind::Hybrid);
    let netty = Experiment::new(mk()).run(ServerKind::NettyLike);
    let single = Experiment::new(mk()).run(ServerKind::SingleThread);

    let flips: u64 = counters
        .iter()
        .filter(|(n, _)| n.starts_with("reclass"))
        .map(|(_, v)| *v)
        .sum();
    assert!(flips > 10, "variable sizes must flap the classifier: {counters:?}");
    assert!(
        hybrid.throughput > netty.throughput * 0.95,
        "hybrid {} must stay near netty {} despite flapping",
        hybrid.throughput,
        netty.throughput
    );
    assert!(
        hybrid.throughput > single.throughput,
        "hybrid {} must still beat the spinner {}",
        hybrid.throughput,
        single.throughput
    );
}

/// Storm-freeze regression: an overload shaped like
/// `scenarios/retry_storm.json` (a transient 16× slowdown with the load
/// shedder engaged) must not flap the classification map. While shedding
/// is active every write stalls, so write behaviour says nothing about
/// the class — flips from requests admitted during the storm are
/// suppressed (and counted as `reclass_frozen`), while learning keeps
/// working outside it. Covers both heavy-path backends.
#[test]
fn classifier_freezes_during_shed_storm() {
    use asyncinv_servers::{
        FaultEvent, FaultKind, FaultPlan, HybridPath, ShedConfig, ShedPolicy,
    };
    use asyncinv_workload::RequestClass;

    for path in [HybridPath::Netty, HybridPath::Proactor] {
        // Push variance makes the class size unpredictable per request —
        // exactly the flip pressure the freeze has to gate.
        let class = RequestClass::new("page", 2 * 1024).with_push(32 * 1024, 2);
        let mut cfg = ExperimentConfig::with_mix(50, Mix::new(vec![(class, 1.0)]));
        cfg.warmup = SimDuration::from_millis(400);
        cfg.measure = SimDuration::from_secs(2);
        cfg.hybrid_heavy = path;
        // Sized between the healthy and the stormed service demand: the
        // shedder sits idle until the fault hits, then engages.
        cfg.shed = Some(ShedConfig {
            max_concurrent: 24,
            queue_cap: 16,
            policy: ShedPolicy::DropOldest,
            reject_bytes: 256,
        });
        cfg.faults = Some(FaultPlan {
            seed: 7,
            events: vec![FaultEvent {
                at: SimDuration::from_millis(900),
                fault: FaultKind::Slowdown {
                    factor: 16.0,
                    duration: Some(SimDuration::from_millis(500)),
                },
            }],
        });
        let (s, counters) = Experiment::new(cfg).run_detailed(ServerKind::Hybrid);
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(s.completions > 0, "{path:?}: the storm starved the run");
        assert!(
            get("reclass_frozen") > 0,
            "{path:?}: the storm must suppress flips: {counters:?}"
        );
        let flips = get("reclass_to_heavy") + get("reclass_to_light");
        assert!(
            flips > 0,
            "{path:?}: learning must still work outside the storm: {counters:?}"
        );
    }
}

/// Head-of-line blocking: in the unbounded spinner, light requests queue
/// behind heavy responses for whole wait-ACK drains; with parked writes
/// they overtake. With latency the gap is orders of magnitude.
#[test]
fn hybrid_spares_light_requests_from_hol_blocking() {
    let cfg = mixed(0.05).with_latency(SimDuration::from_millis(2));
    let hybrid = Experiment::new(cfg.clone()).run(ServerKind::Hybrid);
    let single = Experiment::new(cfg).run(ServerKind::SingleThread);
    // per_class[1] is the light class in Mix::heavy_light.
    let h_light = &hybrid.per_class[1];
    let s_light = &single.per_class[1];
    assert_eq!(h_light.class.as_ref(), "light");
    assert!(
        s_light.p99_rt_us > h_light.p99_rt_us * 5,
        "spinner light p99 {}us should dwarf hybrid's {}us",
        s_light.p99_rt_us,
        h_light.p99_rt_us
    );
}

/// Light requests on the fast path complete in one write; the profiled map
/// keeps heavy requests from spinning unboundedly.
#[test]
fn hybrid_write_counts_are_bounded() {
    let cfg = mixed(0.5);
    let hybrid = Experiment::new(cfg.clone()).run(ServerKind::Hybrid);
    let single = Experiment::new(cfg).run(ServerKind::SingleThread);
    assert!(
        hybrid.writes_per_req < single.writes_per_req,
        "hybrid {} writes/req should undercut singleT {}",
        hybrid.writes_per_req,
        single.writes_per_req
    );
}
