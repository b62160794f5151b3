//! Open-loop arrivals (extension): methodology checks.
//!
//! The paper's closed-loop clients cap outstanding requests, which is why
//! its throughput collapses read as response-time amplification through
//! Little's law. Under open-loop (Poisson) arrivals the same server
//! saturates differently: below capacity throughput tracks the offered
//! rate; above capacity the connection pool fills and arrivals drop.

use asyncinv_fleet::Experiment;
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;
use asyncinv_workload::{ArrivalMode, ClientConfig, Mix, ThinkTime};

fn open_cfg(rate: f64, conns: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(conns, 100);
    cfg.clients = ClientConfig {
        concurrency: conns,
        think: ThinkTime::Zero,
        mix: Mix::single("100B", 100),
        seed: 42,
        arrivals: ArrivalMode::Open { rate_per_sec: rate },
    };
    cfg.warmup = SimDuration::from_millis(500);
    cfg.measure = SimDuration::from_secs(3);
    cfg
}

/// Below capacity, throughput equals the offered rate, not the service
/// capacity (the defining open-loop property).
#[test]
fn below_capacity_throughput_tracks_offered_rate() {
    // Capacity for 0.1 KB on SingleT is ~27k req/s; offer 5k.
    let s = Experiment::new(open_cfg(5_000.0, 64)).run(ServerKind::SingleThread);
    let rel = (s.throughput - 5_000.0).abs() / 5_000.0;
    assert!(rel < 0.05, "offered 5000, served {:.0}", s.throughput);
    // Utilization well below 1: the server idles between arrivals.
    assert!(s.cpu.utilization() < 0.5, "util {}", s.cpu.utilization());
}

/// Above capacity, the connection pool saturates and the server serves at
/// its capacity; the surplus is dropped at arrival.
#[test]
fn above_capacity_serves_at_capacity() {
    let over = Experiment::new(open_cfg(100_000.0, 64)).run(ServerKind::SingleThread);
    let closed = {
        let mut cfg = ExperimentConfig::micro(64, 100);
        cfg.warmup = SimDuration::from_millis(500);
        cfg.measure = SimDuration::from_secs(3);
        Experiment::new(cfg).run(ServerKind::SingleThread)
    };
    let rel = (over.throughput - closed.throughput).abs() / closed.throughput;
    assert!(
        rel < 0.05,
        "overloaded open loop ({:.0}) should serve at closed-loop capacity ({:.0})",
        over.throughput,
        closed.throughput
    );
}

/// Near capacity, open-loop response times exceed closed-loop ones at the
/// same throughput: arrivals do not self-pace.
#[test]
fn open_loop_queues_near_capacity() {
    // ~80% of SingleT's ~27.5k req/s capacity.
    let open = Experiment::new(open_cfg(22_000.0, 512)).run(ServerKind::SingleThread);
    assert!(open.throughput > 20_000.0, "tput {:.0}", open.throughput);
    // A closed-loop run throttled to similar throughput via concurrency:
    // at conc 1 the closed loop serves ~4.3k with minimal queueing; compare
    // per-request latency at matched *load fraction* instead: the open-loop
    // p99 must exceed its own mean substantially (queueing variance).
    assert!(
        open.p99_rt_us as f64 > 2.0 * open.mean_rt_us as f64,
        "open-loop tails should stretch: mean {} p99 {}",
        open.mean_rt_us,
        open.p99_rt_us
    );
}

/// Determinism holds in open-loop mode too.
#[test]
fn open_loop_is_deterministic() {
    let a = Experiment::new(open_cfg(10_000.0, 64)).run(ServerKind::NettyLike);
    let b = Experiment::new(open_cfg(10_000.0, 64)).run(ServerKind::NettyLike);
    assert_eq!(a, b);
}
