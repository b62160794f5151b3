//! Bad configs are rejected at the validation gates instead of panicking
//! inside a drive loop: `ExperimentConfig::validate` (the gate of
//! `Experiment::new`, and called by `FleetConfig::validate`, the gate of
//! `Cluster::new`) checks the cell, `ServiceGraph::validate` checks every
//! tier's response size, and `RubbosExperiment::validate` gates the macro
//! engine's run. Mixes read from JSON bypass `Mix::new`'s asserts, so
//! several cases arrive that way.

use asyncinv::dag::{FleetDriver, ServiceGraph};
use asyncinv::fleet::{BalancerKind, Cluster, FleetConfig};
use asyncinv::prelude::*;
use asyncinv::workload::{ArrivalMode, RequestClass};

fn cell(mix: Mix) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::with_mix(4, mix);
    cfg.warmup = SimDuration::from_millis(10);
    cfg.measure = SimDuration::from_millis(50);
    cfg
}

fn fleet(mix: Mix) -> FleetConfig {
    FleetConfig::new(cell(mix), 2, BalancerKind::RoundRobin)
}

fn mix_json(classes: &[usize], weights: &str) -> Mix {
    let classes: Vec<String> = classes
        .iter()
        .map(|b| {
            format!(
                r#"{{"name": "c{b}", "response_bytes": {b}, "request_bytes": 512, "drift": null, "push": null}}"#
            )
        })
        .collect();
    let json = format!(
        r#"{{"classes": [{}], "weights": [{weights}]}}"#,
        classes.join(", ")
    );
    serde_json::from_str(&json).expect("mix JSON parses")
}

#[test]
#[should_panic(expected = "invalid ExperimentConfig")]
fn experiment_rejects_a_zero_byte_class() {
    let _ = Experiment::new(cell(Mix::single("empty", 0)));
}

#[test]
#[should_panic(expected = "invalid FleetConfig")]
fn cluster_rejects_a_zero_byte_class() {
    let _ = Cluster::new(fleet(Mix::single("empty", 0)));
}

#[test]
fn the_gate_rejects_a_drift_to_zero_bytes() {
    let class = RequestClass::new("page", 100).with_drift(SimTime::from_millis(20), 0);
    assert!(fleet(Mix::new(vec![(class, 1.0)])).validate().is_err());
}

#[test]
fn the_gate_rejects_an_empty_mix_from_json() {
    assert!(fleet(mix_json(&[], "")).validate().is_err());
}

#[test]
fn the_gate_rejects_all_zero_weights_from_json() {
    assert!(fleet(mix_json(&[100, 200], "0.0, 0.0")).validate().is_err());
}

#[test]
fn the_gate_rejects_negative_or_overflowing_weights_from_json() {
    assert!(fleet(mix_json(&[100, 200], "-1.0, 2.0"))
        .validate()
        .is_err());
    assert!(fleet(mix_json(&[100, 200], "1e308, 1e308"))
        .validate()
        .is_err());
}

#[test]
fn the_gate_rejects_a_missing_weight_from_json() {
    assert!(fleet(mix_json(&[100, 200], "1.0")).validate().is_err());
}

#[test]
#[should_panic(expected = "invalid ServiceGraph")]
fn a_dag_run_rejects_a_zero_byte_root_tier() {
    let mut g = ServiceGraph::chain("c", ServerKind::NettyLike, 1, 7);
    g.tiers[0].response_bytes = 0;
    let _ = asyncinv::dag::DagRun::new(g, FleetDriver::Interleaved);
}

#[test]
fn a_service_graph_rejects_a_zero_byte_tier_past_the_root() {
    let mut g = ServiceGraph::chain("c", ServerKind::NettyLike, 2, 7);
    g.tiers[1].response_bytes = 0;
    assert!(g.validate().is_err());
}

/// Asserts that `Experiment::new` refuses `cfg` at its gate, with a
/// message naming `field`, before any run starts. Each field below once
/// passed the gate and then panicked inside the drive loop.
fn assert_refused(cfg: ExperimentConfig, field: &str) {
    let Err(panic) = std::panic::catch_unwind(|| Experiment::new(cfg)) else {
        panic!("the gate accepted the config");
    };
    let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
    assert!(
        msg.starts_with("invalid ExperimentConfig") && msg.contains(field),
        "{msg}"
    );
}

fn micro() -> ExperimentConfig {
    cell(Mix::single("page", 1024))
}

#[test]
fn the_gate_rejects_zero_cores() {
    let mut cfg = micro();
    cfg.cpu.cores = 0;
    assert_refused(cfg, "cpu.cores");
}

#[test]
fn the_gate_rejects_a_zero_time_slice() {
    let mut cfg = micro();
    cfg.cpu.time_slice = SimDuration::ZERO;
    assert_refused(cfg, "cpu.time_slice");
}

#[test]
fn the_gate_rejects_a_nan_or_negative_switch_cost_alpha() {
    for alpha in [f64::NAN, -0.5, f64::INFINITY] {
        let mut cfg = micro();
        cfg.cpu.cs_cost_log_alpha = alpha;
        assert_refused(cfg, "cpu.cs_cost_log_alpha");
    }
}

#[test]
fn the_gate_rejects_zero_concurrency() {
    let mut cfg = micro();
    cfg.clients.concurrency = 0;
    assert_refused(cfg, "clients.concurrency");
}

#[test]
fn the_gate_rejects_a_zero_negative_or_nan_open_loop_rate() {
    for rate_per_sec in [0.0, -100.0, f64::NAN] {
        let mut cfg = micro();
        cfg.clients.arrivals = ArrivalMode::Open { rate_per_sec };
        assert_refused(cfg, "rate_per_sec");
    }
}

#[test]
fn the_gate_rejects_zero_pool_workers() {
    let mut cfg = micro();
    cfg.pool_workers = 0;
    assert_refused(cfg, "pool_workers");
}

#[test]
fn the_gate_rejects_zero_netty_workers() {
    let mut cfg = micro();
    cfg.netty_workers = 0;
    assert_refused(cfg, "netty_workers");
}

#[test]
fn the_gate_rejects_zero_staged_workers() {
    let mut cfg = micro();
    cfg.staged_workers = 0;
    assert_refused(cfg, "staged_workers");
}

#[test]
fn the_gate_rejects_a_zero_write_spin_limit() {
    let mut cfg = micro();
    cfg.write_spin_limit = 0;
    assert_refused(cfg, "write_spin_limit");
}

#[test]
fn the_gate_rejects_a_zero_submission_ring() {
    let mut cfg = micro();
    cfg.uring.sq_depth = 0;
    assert_refused(cfg, "sq_depth");
}

#[test]
fn the_gate_rejects_a_zero_completion_ring() {
    let mut cfg = micro();
    cfg.uring.cq_depth = 0;
    assert_refused(cfg, "cq_depth");
}

/// A short RUBBoS run: few users, sub-second windows. Each case below
/// breaks one field, and `run` must refuse it before the engine starts.
fn rubbos() -> RubbosExperiment {
    let mut exp = RubbosExperiment::new(20);
    exp.warmup = SimDuration::from_millis(10);
    exp.measure = SimDuration::from_millis(50);
    exp
}

#[test]
fn the_rubbos_gate_accepts_the_defaults() {
    assert_eq!(RubbosExperiment::new(1500).validate(), Ok(()));
    assert_eq!(rubbos().validate(), Ok(()));
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_zero_db_servers() {
    let mut exp = rubbos();
    exp.workload.db_servers = 0;
    let _ = exp.run(ServerKind::SyncThread);
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_zero_pool_workers() {
    let mut exp = rubbos();
    exp.pool_workers = 0;
    let _ = exp.run(ServerKind::AsyncPool);
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_a_zero_mss() {
    let mut exp = rubbos();
    exp.tcp.mss = 0;
    let _ = exp.run(ServerKind::SyncThread);
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_a_zero_initial_cwnd() {
    let mut exp = rubbos();
    exp.tcp.init_cwnd_segments = 0;
    let _ = exp.run(ServerKind::SyncThread);
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_a_zero_measurement_window() {
    let mut exp = rubbos();
    exp.measure = SimDuration::ZERO;
    let _ = exp.run(ServerKind::SyncThread);
}

#[test]
#[should_panic(expected = "invalid RubbosExperiment")]
fn rubbos_rejects_a_zero_time_slice() {
    let mut exp = rubbos();
    exp.cpu.time_slice = SimDuration::ZERO;
    let _ = exp.run(ServerKind::SyncThread);
}
