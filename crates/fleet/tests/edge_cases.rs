//! Edge-case and robustness tests of the experiment engine and
//! architectures: extreme parameters must degrade gracefully, never wedge
//! or panic.

use asyncinv_fleet::Experiment;
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;
use asyncinv_tcp::SendBufPolicy;

fn tiny(cfg: &mut ExperimentConfig) {
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(500);
}

/// One-byte responses: the smallest possible payload still flows through
/// every architecture.
#[test]
fn one_byte_responses() {
    let mut cfg = ExperimentConfig::micro(4, 1);
    tiny(&mut cfg);
    for kind in ServerKind::ALL {
        let s = Experiment::new(cfg.clone()).run(kind);
        assert!(s.completions > 0, "{kind} served nothing");
        if kind == ServerKind::Proactor {
            // Completion-based writes go through the ring, never through a
            // counted `write()` syscall.
            assert_eq!(
                s.writes_per_req, 0.0,
                "{kind}: ring writes are not write() calls"
            );
        } else {
            assert!(
                (s.writes_per_req - 1.0).abs() < 0.1,
                "{kind}: 1 B is one write"
            );
        }
    }
}

/// Megabyte responses against the default 16 KB buffer: extreme spin for
/// the unbounded servers, but everything completes.
#[test]
fn megabyte_responses() {
    let mut cfg = ExperimentConfig::micro(2, 1024 * 1024);
    tiny(&mut cfg);
    cfg.measure = SimDuration::from_secs(2);
    for kind in [
        ServerKind::SyncThread,
        ServerKind::NettyLike,
        ServerKind::SingleThread,
    ] {
        let s = Experiment::new(cfg.clone()).run(kind);
        assert!(s.completions > 0, "{kind} served nothing");
    }
}

/// A pathological 1 KB send buffer: ~100 refill rounds per 100 KB response.
#[test]
fn tiny_send_buffer() {
    let mut cfg = ExperimentConfig::micro(2, 100 * 1024);
    tiny(&mut cfg);
    cfg.measure = SimDuration::from_secs(2);
    cfg.tcp.send_buf = SendBufPolicy::Fixed(1024);
    let s = Experiment::new(cfg).run(ServerKind::NettyLike);
    assert!(s.completions > 0);
    assert!(s.writes_per_req > 50.0, "writes/req {}", s.writes_per_req);
}

/// A single pool worker serializes the reactor pool but must not deadlock,
/// even when write events queue behind read events.
#[test]
fn single_pool_worker() {
    let mut cfg = ExperimentConfig::micro(8, 10 * 1024);
    tiny(&mut cfg);
    cfg.pool_workers = 1;
    let s = Experiment::new(cfg).run(ServerKind::AsyncPool);
    assert!(s.completions > 100, "completions {}", s.completions);
}

/// Several Netty event loops partition connections by index; all loops
/// serve traffic and every request completes exactly once. Concurrency 64
/// keeps the closed loop from being network-RTT limited so the 4 cores
/// actually fill.
#[test]
fn multiple_netty_workers() {
    let mut cfg = ExperimentConfig::micro(64, 100);
    tiny(&mut cfg);
    cfg.netty_workers = 4;
    cfg.cpu.cores = 4;
    let s = Experiment::new(cfg).run(ServerKind::NettyLike);
    assert!(s.completions > 500);
    let one_core = {
        let mut c = ExperimentConfig::micro(64, 100);
        tiny(&mut c);
        Experiment::new(c).run(ServerKind::NettyLike)
    };
    assert!(
        s.throughput > one_core.throughput * 3.0,
        "4 loops on 4 cores ({:.0}) should near-linearly beat 1 ({:.0})",
        s.throughput,
        one_core.throughput
    );
}

/// writeSpin budget of 1: park after every write attempt. Slow but correct.
#[test]
fn spin_limit_one() {
    let mut cfg = ExperimentConfig::micro(4, 100 * 1024);
    tiny(&mut cfg);
    cfg.measure = SimDuration::from_secs(1);
    cfg.write_spin_limit = 1;
    let s = Experiment::new(cfg).run(ServerKind::NettyLike);
    assert!(s.completions > 0);
}

/// Warm-up longer than any traffic produces an empty window without
/// dividing by zero anywhere.
#[test]
fn empty_measurement_window_is_safe() {
    let mut cfg = ExperimentConfig::micro(1, 100);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.measure = SimDuration::from_nanos(1);
    let s = Experiment::new(cfg).run(ServerKind::SingleThread);
    assert_eq!(s.completions, 0);
    assert_eq!(s.throughput, 0.0);
    assert_eq!(s.mean_rt_us, 0);
    assert_eq!(s.writes_per_req, 0.0);
}

/// Ten thousand connections on the thread-per-connection server: the
/// engine scales structurally (threads, queues, conn tables).
#[test]
fn ten_thousand_connections() {
    let mut cfg = ExperimentConfig::micro(10_000, 100);
    tiny(&mut cfg);
    let s = Experiment::new(cfg).run(ServerKind::SyncThread);
    assert!(s.completions > 1_000, "completions {}", s.completions);
    assert!(s.cpu.utilization() > 0.95);
}

/// Zero added latency plus zero-length think time at concurrency 1 is the
/// tightest possible loop; Little's law must hold exactly-ish.
#[test]
fn tight_loop_littles_law() {
    let mut cfg = ExperimentConfig::micro(1, 100);
    tiny(&mut cfg);
    cfg.measure = SimDuration::from_secs(2);
    let s = Experiment::new(cfg).run(ServerKind::SingleThread);
    let resid = asyncinv_metrics::littles_law_residual(1, s.throughput, s.mean_rt());
    assert!(resid.abs() < 0.02, "residual {resid}");
}
