//! Cross-crate integration tests: whole experiments through the public
//! `asyncinv` facade, checking system-level invariants the paper's
//! analysis relies on.

use asyncinv::littles_law_residual;
use asyncinv::prelude::*;

fn quick(concurrency: usize, bytes: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(300);
    cfg.measure = SimDuration::from_secs(2);
    cfg
}

/// Little's law N = X·R must hold for every architecture and several
/// operating points — the engine's clocks, clients and metrics agree.
#[test]
fn littles_law_grid() {
    for kind in ServerKind::ALL {
        for (conc, bytes) in [(4usize, 100usize), (32, 10 * 1024), (64, 100)] {
            let s = Experiment::new(quick(conc, bytes)).run(kind);
            let resid = littles_law_residual(conc, s.throughput, s.mean_rt());
            assert!(
                resid.abs() < 0.1,
                "{kind} at conc {conc}/{bytes}B: residual {resid:.3} (tput {:.0}, rt {}us)",
                s.throughput,
                s.mean_rt_us
            );
        }
    }
}

/// Whole-experiment determinism across all architectures.
#[test]
fn experiments_are_deterministic() {
    for kind in ServerKind::ALL {
        let a = Experiment::new(quick(8, 10 * 1024)).run(kind);
        let b = Experiment::new(quick(8, 10 * 1024)).run(kind);
        assert_eq!(a, b, "{kind} not deterministic");
    }
}

/// The CPU cannot be more than 100% utilized, and a saturating closed loop
/// drives it to ~100%.
#[test]
fn cpu_utilization_sane() {
    for kind in ServerKind::ALL {
        let s = Experiment::new(quick(64, 100)).run(kind);
        let util = s.cpu.utilization();
        // Bursts are charged at completion, so one burst can straddle each
        // window boundary: allow a 0.1% accounting overshoot.
        assert!(util <= 1.001, "{kind}: util {util}");
        assert!(util > 0.95, "{kind}: expected saturation, util {util}");
        assert!((s.cpu.user + s.cpu.sys + s.cpu.idle - 1.0).abs() < 1e-6);
    }
}

/// Throughput is monotone (within tolerance) in offered concurrency until
/// saturation for the well-behaved architectures.
#[test]
fn throughput_rises_to_saturation() {
    for kind in [
        ServerKind::SyncThread,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
    ] {
        let t1 = Experiment::new(quick(1, 100)).run(kind).throughput;
        let t8 = Experiment::new(quick(8, 100)).run(kind).throughput;
        assert!(
            t8 > t1 * 1.5,
            "{kind}: concurrency 8 ({t8:.0}) should far exceed 1 ({t1:.0})"
        );
    }
}

/// Per-request CPU cost ordering on small responses follows the paper's
/// architecture ranking (fewest overheads first).
#[test]
fn small_response_ranking() {
    let exp = Experiment::new(quick(8, 100));
    let single = exp.run(ServerKind::SingleThread).throughput;
    let hybrid = exp.run(ServerKind::Hybrid).throughput;
    let netty = exp.run(ServerKind::NettyLike).throughput;
    let sync = exp.run(ServerKind::SyncThread).throughput;
    let fix = exp.run(ServerKind::AsyncPoolFix).throughput;
    let pool = exp.run(ServerKind::AsyncPool).throughput;

    assert!(
        (hybrid - single).abs() / single < 0.02,
        "hybrid tracks singleT"
    );
    assert!(single > netty, "singleT beats netty on light traffic");
    assert!(sync > pool, "sync beats the 4-switch pool");
    assert!(fix > pool, "2 switches beat 4");
}

/// End-to-end seed sensitivity: different workload seeds move measured
/// numbers only marginally at steady state (the DES is not chaotic).
#[test]
fn seed_stability() {
    let mut a_cfg = quick(16, 10 * 1024);
    a_cfg.clients.seed = 1;
    let mut b_cfg = quick(16, 10 * 1024);
    b_cfg.clients.seed = 999;
    let a = Experiment::new(a_cfg).run(ServerKind::NettyLike);
    let b = Experiment::new(b_cfg).run(ServerKind::NettyLike);
    let rel = (a.throughput - b.throughput).abs() / a.throughput;
    assert!(rel < 0.05, "seed changed throughput by {rel:.3}");
}

/// The workspace facade re-exports compose: build an experiment from
/// substrate types through `asyncinv_lab`.
#[test]
fn facade_composes() {
    use asyncinv_lab::{cpu, tcp};
    let cfg = ExperimentConfig {
        cpu: cpu::CpuConfig::multi_core(2),
        tcp: tcp::TcpConfig::default(),
        ..quick(8, 100)
    };
    let s = Experiment::new(cfg).run(ServerKind::NettyLike);
    assert!(s.completions > 0);
}

/// Per-class metrics: heavy requests take far longer than light ones and
/// completions track the mix weights; the run is steady (low rate CV).
#[test]
fn per_class_breakdown() {
    use asyncinv::workload::Mix;
    let mut cfg = ExperimentConfig::with_mix(50, Mix::heavy_light(0.2));
    cfg.warmup = SimDuration::from_millis(300);
    cfg.measure = SimDuration::from_secs(2);
    let s = Experiment::new(cfg).run(ServerKind::Hybrid);
    assert_eq!(s.per_class.len(), 2);
    let heavy = &s.per_class[0];
    let light = &s.per_class[1];
    assert_eq!(heavy.class.as_ref(), "heavy");
    assert_eq!(light.class.as_ref(), "light");
    assert!(heavy.completions > 0 && light.completions > 0);
    assert!(
        heavy.mean_rt_us > light.mean_rt_us * 3,
        "100 KB responses must be much slower: {} vs {} us",
        heavy.mean_rt_us,
        light.mean_rt_us
    );
    let frac = heavy.completions as f64 / (heavy.completions + light.completions) as f64;
    assert!((frac - 0.2).abs() < 0.05, "heavy fraction {frac}");
    assert!(s.rate_cv < 0.2, "rate CV {} too unstable", s.rate_cv);
}

/// The advisor recognizes the paper's pathologies from real measured runs
/// and stays quiet on healthy ones.
#[test]
fn advisor_diagnoses_real_runs() {
    use asyncinv::advisor::{diagnose, Pathology};

    // Unbounded spinner on 100 KB + latency: write-spin, amplified.
    let cfg = quick(50, 100 * 1024).with_latency(SimDuration::from_millis(5));
    let s = Experiment::new(cfg).run(ServerKind::SingleThread);
    let found: Vec<_> = diagnose(&s).iter().map(|f| f.pathology).collect();
    assert!(found.contains(&Pathology::WriteSpin), "{found:?}");
    assert!(
        found.contains(&Pathology::LatencyAmplifiedSpin),
        "{found:?}"
    );

    // The same workload through the hybrid: no spin findings.
    let cfg = quick(50, 100 * 1024).with_latency(SimDuration::from_millis(5));
    let s = Experiment::new(cfg).run(ServerKind::Hybrid);
    let found: Vec<_> = diagnose(&s).iter().map(|f| f.pathology).collect();
    assert!(!found.contains(&Pathology::WriteSpin), "{found:?}");
    assert!(
        !found.contains(&Pathology::LatencyAmplifiedSpin),
        "{found:?}"
    );

    // The 4-switch reactor pool: dispatch overhead at low concurrency.
    let s = Experiment::new(quick(1, 100)).run(ServerKind::AsyncPool);
    let found: Vec<_> = diagnose(&s).iter().map(|f| f.pathology).collect();
    assert!(found.contains(&Pathology::DispatchOverhead), "{found:?}");

    // A healthy cell: light responses on the single-threaded server.
    let s = Experiment::new(quick(8, 100)).run(ServerKind::SingleThread);
    assert!(diagnose(&s).is_empty(), "{:?}", diagnose(&s));
}

/// Parallel sweep execution returns exactly the serial results (cells are
/// independent deterministic simulations).
#[test]
fn parallel_sweep_equals_serial() {
    use asyncinv::figures::{self, Fidelity};
    let kinds = [ServerKind::SyncThread, ServerKind::SingleThread];
    let a = figures::sweep(Fidelity::Quick, &kinds, &[100], &[1, 4]);
    let b = figures::sweep(Fidelity::Quick, &kinds, &[100], &[1, 4]);
    assert_eq!(a, b, "sweep must be reproducible run-to-run");
    assert_eq!(a.len(), 4);
    // Output order is (size, conc, kind) row-major regardless of scheduling.
    assert_eq!(a[0].server, "sTomcat-Sync");
    assert_eq!(a[0].concurrency, 1);
    assert_eq!(a[3].server, "SingleT-Async");
    assert_eq!(a[3].concurrency, 4);
}

/// Experiment configs and results round-trip through serde (the CLI's
/// --config/--dump-config/--json contract).
#[test]
fn config_and_result_serde_roundtrip() {
    let mut cfg = quick(4, 100 * 1024).with_latency(SimDuration::from_millis(2));
    cfg.write_spin_limit = 8;
    let text = serde_json::to_string(&cfg).expect("serialize config");
    let back: ExperimentConfig = serde_json::from_str(&text).expect("deserialize config");
    // Same config → identical run.
    let a = Experiment::new(cfg).run(ServerKind::NettyLike);
    let b = Experiment::new(back).run(ServerKind::NettyLike);
    assert_eq!(a, b, "serde round-trip must preserve the experiment");

    let rtext = serde_json::to_string(&a).expect("serialize result");
    let rback: RunSummary = serde_json::from_str(&rtext).expect("deserialize result");
    assert_eq!(a, rback);
}

/// Runs every figure preset at quick fidelity and sanity-checks row counts
/// — the bench harnesses rely on these shapes.
#[test]
fn figure_presets_produce_expected_grids() {
    use asyncinv::figures as f;
    assert_eq!(f::table2_cs_per_request(Fidelity::Quick).len(), 4);
    assert_eq!(f::table4_write_spin(Fidelity::Quick).len(), 3);
    assert_eq!(f::fig06_autotuning(Fidelity::Quick, &[0]).len(), 2);
    assert_eq!(f::fig07_latency(Fidelity::Quick, &[0]).len(), 4);
    assert_eq!(f::fig09_netty(Fidelity::Quick, &[8]).len(), 6);
    assert_eq!(f::fig11_hybrid(Fidelity::Quick, &[0, 100], 0).len(), 6);
    assert_eq!(f::table3_cpu_split(Fidelity::Quick).len(), 4);
    assert_eq!(
        f::fig02_sync_vs_async(Fidelity::Quick, &[1, 8]).len(),
        2 * 3 * 2
    );
}
