//! The layer pass's forwarding wrappers must not change what they wrap.

use asyncinv::fleet::{BalancerKind, Cluster, FleetConfig};
use asyncinv::obs::{Recorder, TraceKind};
use asyncinv::{Experiment, ExperimentConfig, ServerKind, SimDuration};
use asyncinv_benchmark::layer::{TimedObserver, TimedServer};

fn short(concurrency: usize, bytes: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(50);
    cfg.measure = SimDuration::from_millis(200);
    cfg
}

#[test]
fn server_wrapper_is_bit_identical_on_every_architecture() {
    for kind in ServerKind::ALL {
        for (concurrency, bytes) in [(8, 100), (16, 100 * 1024)] {
            let exp = Experiment::new(short(concurrency, bytes));
            let plain = exp.run(kind);
            let mut server = TimedServer::new(kind.build(exp.config()));
            let wrapped = exp.run_model(&mut server);
            assert_eq!(plain, wrapped, "{kind:?} at {bytes} B");
            assert!(server.clock.calls > 0, "{kind:?}: no callbacks forwarded");
        }
    }
}

fn assert_same_recorder(a: &Recorder, b: &Recorder) {
    assert_eq!(a.jsonl(), b.jsonl(), "retained events");
    assert_eq!(a.registry().to_json(), b.registry().to_json(), "registry");
    for k in TraceKind::ALL {
        assert_eq!(a.total(k), b.total(k), "{k:?} total");
        assert_eq!(a.window_count(k), b.window_count(k), "{k:?} window count");
    }
    assert_eq!(a.completions_in_window(), b.completions_in_window());
    assert_eq!(a.thread_names(), b.thread_names());
}

#[test]
fn observer_wrapper_leaves_the_recorder_identical() {
    let mut cfg = short(8, 10 * 1024);
    cfg.trace_capacity = 1 << 14;
    let exp = Experiment::new(cfg.clone());
    for kind in [
        ServerKind::AsyncPool,
        ServerKind::NettyLike,
        ServerKind::Proactor,
    ] {
        let (summary, rec) = exp.run_traced(kind);
        let mut obs = TimedObserver::new(Recorder::with_sampling(
            cfg.trace_capacity,
            cfg.trace_sample,
        ));
        assert_eq!(exp.run_observed(kind, &mut obs), summary, "{kind:?}");
        assert_same_recorder(&rec, &obs.inner);
        assert!(obs.clock.calls > 0);
    }

    let fleet = Cluster::new(FleetConfig::new(
        cfg.clone(),
        2,
        BalancerKind::LeastOutstanding,
    ));
    let (summary, rec) = fleet.run_traced(ServerKind::SingleThread);
    let mut obs = TimedObserver::new(Recorder::with_sampling(
        cfg.trace_capacity,
        cfg.trace_sample,
    ));
    assert_eq!(
        fleet.run_observed(ServerKind::SingleThread, &mut obs),
        summary
    );
    assert_same_recorder(&rec, &obs.inner);
}
