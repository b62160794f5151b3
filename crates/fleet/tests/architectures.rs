//! Architecture-level validation: the paper's structural claims must
//! *emerge* from the simulation rather than being scripted.

use asyncinv_fleet::Experiment;
use asyncinv_metrics::littles_law_residual;
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;

/// A fast experiment cell for tests.
fn quick(concurrency: usize, bytes: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(300);
    cfg.measure = SimDuration::from_secs(2);
    cfg
}

#[test]
fn every_architecture_completes_requests() {
    let cfg = quick(4, 100);
    for kind in ServerKind::ALL {
        let s = Experiment::new(cfg.clone()).run(kind);
        assert!(
            s.completions > 100,
            "{kind}: only {} completions",
            s.completions
        );
        assert_eq!(s.server, kind.paper_name());
    }
}

/// The paper's Table II: context switches per request at concurrency 1.
#[test]
fn table2_context_switches_per_request() {
    let cfg = quick(1, 100);
    let exp = Experiment::new(cfg);

    let sync = exp.run(ServerKind::SyncThread);
    let pool = exp.run(ServerKind::AsyncPool);
    let fix = exp.run(ServerKind::AsyncPoolFix);
    let single = exp.run(ServerKind::SingleThread);

    assert!(
        (pool.cs_per_req - 4.0).abs() < 0.2,
        "sTomcat-Async expected 4 cs/req, got {}",
        pool.cs_per_req
    );
    assert!(
        (fix.cs_per_req - 2.0).abs() < 0.2,
        "sTomcat-Async-Fix expected 2 cs/req, got {}",
        fix.cs_per_req
    );
    assert!(
        sync.cs_per_req < 0.2,
        "sTomcat-Sync expected ~0 cs/req, got {}",
        sync.cs_per_req
    );
    assert!(
        single.cs_per_req < 0.2,
        "SingleT-Async expected ~0 cs/req, got {}",
        single.cs_per_req
    );
}

/// The paper's Table IV: writes per request. The synchronous server's
/// blocking write is one syscall regardless of size; the single-threaded
/// asynchronous server write-spins on 100 KB.
#[test]
fn table4_write_spin_signature() {
    let small = Experiment::new(quick(4, 100)).run(ServerKind::SingleThread);
    assert!(
        (small.writes_per_req - 1.0).abs() < 0.1,
        "0.1KB should be one write/req, got {}",
        small.writes_per_req
    );

    let medium = Experiment::new(quick(4, 10 * 1024)).run(ServerKind::SingleThread);
    assert!(
        (medium.writes_per_req - 1.0).abs() < 0.1,
        "10KB should be one write/req, got {}",
        medium.writes_per_req
    );

    let large = Experiment::new(quick(4, 100 * 1024)).run(ServerKind::SingleThread);
    assert!(
        large.writes_per_req > 20.0,
        "100KB should write-spin (tens of calls), got {}",
        large.writes_per_req
    );
    assert!(large.spins_per_req > 10.0, "expected many zero-returns");

    let sync_large = Experiment::new(quick(4, 100 * 1024)).run(ServerKind::SyncThread);
    assert!(
        (sync_large.writes_per_req - 1.0).abs() < 0.1,
        "blocking write is one syscall, got {}",
        sync_large.writes_per_req
    );
    assert!(sync_large.spins_per_req < 0.01);
}

/// Closed loop with zero think time: N = X * R must hold.
#[test]
fn littles_law_holds_at_saturation() {
    for kind in [ServerKind::SyncThread, ServerKind::SingleThread] {
        let s = Experiment::new(quick(16, 10 * 1024)).run(kind);
        let resid = littles_law_residual(16, s.throughput, s.mean_rt());
        assert!(
            resid.abs() < 0.1,
            "{kind}: Little's law residual {resid} (tput {}, rt {}us)",
            s.throughput,
            s.mean_rt_us
        );
    }
}

/// Fig 4(a) direction: on small responses at moderate concurrency the
/// single-threaded async server beats the thread-based one, and the
/// 4-switch async pool is the slowest.
#[test]
fn small_responses_favor_single_threaded_async() {
    let cfg = quick(8, 100);
    let exp = Experiment::new(cfg);
    let sync = exp.run(ServerKind::SyncThread);
    let single = exp.run(ServerKind::SingleThread);
    let pool = exp.run(ServerKind::AsyncPool);
    let fix = exp.run(ServerKind::AsyncPoolFix);

    assert!(
        single.throughput > sync.throughput * 1.05,
        "SingleT {} should beat Sync {} clearly",
        single.throughput,
        sync.throughput
    );
    assert!(
        pool.throughput < fix.throughput,
        "4-switch pool {} should lose to 2-switch fix {}",
        pool.throughput,
        fix.throughput
    );
    assert!(
        pool.throughput < sync.throughput,
        "async pool {} should lose to sync {} at low concurrency",
        pool.throughput,
        sync.throughput
    );
}

/// Fig 4(c) direction: on 100 KB responses the write-spin makes the
/// single-threaded async server lose to the synchronous server.
#[test]
fn large_responses_favor_sync_over_spinning_async() {
    let cfg = quick(8, 100 * 1024);
    let exp = Experiment::new(cfg);
    let sync = exp.run(ServerKind::SyncThread);
    let single = exp.run(ServerKind::SingleThread);
    assert!(
        single.throughput < sync.throughput,
        "SingleT {} should lose to Sync {} on 100KB",
        single.throughput,
        sync.throughput
    );
}

/// Fig 9 directions: Netty wins on 100 KB (bounded spin) but loses to the
/// bare single-threaded server on 0.1 KB (optimization overhead).
#[test]
fn netty_tradeoff() {
    let large = Experiment::new(quick(8, 100 * 1024));
    let netty_l = large.run(ServerKind::NettyLike);
    let single_l = large.run(ServerKind::SingleThread);
    assert!(
        netty_l.throughput > single_l.throughput,
        "Netty {} should beat SingleT {} on 100KB",
        netty_l.throughput,
        single_l.throughput
    );
    assert!(
        netty_l.writes_per_req < single_l.writes_per_req,
        "bounded spin must reduce write calls"
    );

    let small = Experiment::new(quick(8, 100));
    let netty_s = small.run(ServerKind::NettyLike);
    let single_s = small.run(ServerKind::SingleThread);
    assert!(
        netty_s.throughput < single_s.throughput,
        "Netty {} should lose to SingleT {} on 0.1KB",
        netty_s.throughput,
        single_s.throughput
    );
}

/// Fig 7 direction: 5 ms of injected latency collapses the unbounded
/// spinners but barely affects the blocking server or Netty.
///
/// Concurrency 100 as in the paper: with fewer users the closed loop is
/// Little's-law-limited (N/RT) for *every* architecture and the comparison
/// degenerates; at 100 users the CPU stays the bottleneck for the servers
/// that don't burn it spinning.
#[test]
fn latency_collapses_unbounded_spinners() {
    let base = quick(100, 100 * 1024);
    let lat = base.clone().with_latency(SimDuration::from_millis(5));

    let single_fast = Experiment::new(base.clone()).run(ServerKind::SingleThread);
    let single_slow = Experiment::new(lat.clone()).run(ServerKind::SingleThread);
    assert!(
        single_slow.throughput < single_fast.throughput * 0.3,
        "SingleT should collapse: {} -> {}",
        single_fast.throughput,
        single_slow.throughput
    );

    let sync_fast = Experiment::new(base.clone()).run(ServerKind::SyncThread);
    let sync_slow = Experiment::new(lat.clone()).run(ServerKind::SyncThread);
    assert!(
        sync_slow.throughput > sync_fast.throughput * 0.6,
        "Sync should tolerate latency: {} -> {}",
        sync_fast.throughput,
        sync_slow.throughput
    );

    let netty_fast = Experiment::new(base).run(ServerKind::NettyLike);
    let netty_slow = Experiment::new(lat).run(ServerKind::NettyLike);
    assert!(
        netty_slow.throughput > netty_fast.throughput * 0.6,
        "Netty should tolerate latency: {} -> {}",
        netty_fast.throughput,
        netty_slow.throughput
    );
}

/// Determinism: identical configs give identical summaries.
#[test]
fn runs_are_deterministic() {
    let cfg = quick(8, 10 * 1024);
    let a = Experiment::new(cfg.clone()).run(ServerKind::NettyLike);
    let b = Experiment::new(cfg).run(ServerKind::NettyLike);
    assert_eq!(a, b);
}
