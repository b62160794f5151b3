//! RUBBoS macro-benchmark validation (paper Section II, Fig 1).

use asyncinv_servers::rubbos_engine::RubbosExperiment;
use asyncinv_servers::ServerKind;
use asyncinv_simcore::SimDuration;
use asyncinv_workload::ThinkTime;

/// A smaller/faster macro cell: shorter think times move the saturation
/// point to fewer users so the test stays quick.
fn cell(users: usize) -> RubbosExperiment {
    let mut e = RubbosExperiment::new(users);
    e.workload.think = ThinkTime::Exponential(SimDuration::from_secs(2));
    e.warmup = SimDuration::from_secs(8);
    e.measure = SimDuration::from_secs(15);
    e
}

#[test]
fn three_tier_system_serves_pages() {
    let s = cell(300).run(ServerKind::SyncThread);
    assert!(s.completions > 500, "completions {}", s.completions);
    // Light load: ~150 req/s, CPU far from saturation, sub-second RTs.
    assert!(s.tomcat_cpu < 0.5, "tomcat cpu {}", s.tomcat_cpu);
    assert!(s.mean_rt_ms < 500.0, "mean rt {} ms", s.mean_rt_ms);
    assert!(s.db_util < 0.6, "db util {}", s.db_util);
}

#[test]
fn async_upgrade_degrades_saturated_throughput() {
    // Well past saturation for the 1-core Tomcat model.
    let users = 5000;
    let sync = cell(users).run(ServerKind::SyncThread);
    let asyn = cell(users).run(ServerKind::AsyncPool);

    assert!(
        sync.tomcat_cpu > 0.95,
        "sync not saturated: {}",
        sync.tomcat_cpu
    );
    assert!(
        asyn.tomcat_cpu > 0.95,
        "async not saturated: {}",
        asyn.tomcat_cpu
    );
    // Direction and magnitude: the asynchronous Tomcat loses measurable
    // saturated capacity. (The paper reports 28% at a fixed user count past
    // the async server's earlier saturation knee; our substrate reproduces
    // the capacity gap at ~6-10% — see EXPERIMENTS.md for the accounting.)
    assert!(
        sync.throughput > asyn.throughput * 1.04,
        "expected the thread-based Tomcat to win at saturation: sync {} vs async {}",
        sync.throughput,
        asyn.throughput
    );
    assert!(
        asyn.cs_per_sec > sync.cs_per_sec * 1.25,
        "the async Tomcat must context-switch substantially more: {} vs {}",
        asyn.cs_per_sec,
        sync.cs_per_sec
    );
    // Response-time blowup accompanies the throughput loss (paper: 226 ms
    // vs 2820 ms at workload 11000).
    assert!(
        asyn.mean_rt_ms > sync.mean_rt_ms,
        "async RT {} should exceed sync RT {}",
        asyn.mean_rt_ms,
        sync.mean_rt_ms
    );
}

#[test]
fn below_saturation_architectures_tie() {
    let sync = cell(500).run(ServerKind::SyncThread);
    let asyn = cell(500).run(ServerKind::AsyncPool);
    // Below saturation the closed loop hides the CPU overhead difference.
    let ratio = asyn.throughput / sync.throughput;
    assert!(
        (0.93..=1.07).contains(&ratio),
        "below saturation both serve the offered load: ratio {ratio}"
    );
}

#[test]
fn per_interaction_breakdown_matches_navigation() {
    let s = cell(400).run(ServerKind::SyncThread);
    assert_eq!(s.per_interaction.len(), 24);
    let total: u64 = s.per_interaction.iter().map(|i| i.completions).sum();
    assert_eq!(total, s.completions);
    // The browse-heavy chain dominates: front page and story views on top.
    let top = s.top_interactions(3);
    let names: Vec<&str> = top.iter().map(|i| i.name.as_str()).collect();
    assert!(
        names.contains(&"StoriesOfTheDay") && names.contains(&"ViewStory"),
        "unexpected top interactions: {names:?}"
    );
    // Bigger pages take longer end-to-end than tiny confirmations.
    let front = s
        .per_interaction
        .iter()
        .find(|i| i.name == "StoriesOfTheDay")
        .unwrap();
    let store = s
        .per_interaction
        .iter()
        .find(|i| i.name == "StoreComment")
        .unwrap();
    assert!(
        front.mean_rt_ms > store.mean_rt_ms,
        "36KB page {} <= 1KB ack {}",
        front.mean_rt_ms,
        store.mean_rt_ms
    );
}

#[test]
fn non_bottleneck_tiers_stay_cool() {
    let s = cell(5000).run(ServerKind::SyncThread);
    // Like the paper's testbed: only Tomcat saturates; MySQL stays <60%.
    assert!(s.db_util < 0.6, "db util {}", s.db_util);
}
