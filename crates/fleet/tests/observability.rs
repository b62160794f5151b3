//! Observability integration: the structured trace must reproduce the
//! paper's Table II / Table IV counters exactly, the audit must pass for
//! every architecture, and the exporters must emit the documented schema.

use asyncinv_fleet::Experiment;
use asyncinv_obs::export::validate_chrome_trace;
use asyncinv_servers::{audit, ExperimentConfig, ServerKind, TraceKind};
use asyncinv_simcore::SimDuration;

fn cell(concurrency: usize, bytes: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(500);
    cfg.measure = SimDuration::from_secs(2);
    cfg.trace_capacity = 1 << 14;
    cfg
}

/// Table II at concurrency 1: context switches per request derived from
/// ThreadDispatch trace events land on the paper's 4 / 2 / ~0 / 0.
#[test]
fn trace_derived_cs_per_req_matches_table2() {
    for (kind, lo, hi) in [
        (ServerKind::AsyncPool, 3.5, 4.5),
        (ServerKind::AsyncPoolFix, 1.5, 2.5),
        (ServerKind::SyncThread, 0.0, 1.0),
        (ServerKind::SingleThread, 0.0, 0.0),
    ] {
        let (summary, rec) = Experiment::new(cell(1, 100)).run_traced(kind);
        let completions = rec.completions_in_window();
        assert!(completions > 0, "{kind:?}: no completions");
        let cs = rec.window_count(TraceKind::ThreadDispatch) as f64 / completions as f64;
        assert!(
            (lo..=hi).contains(&cs),
            "{kind:?}: trace-derived cs/req = {cs}, expected [{lo}, {hi}]"
        );
        // And the trace-derived value is the engine's value.
        assert_eq!(cs.to_bits(), summary.cs_per_req.to_bits(), "{kind:?}");
    }
}

/// Table IV: SingleT-Async's unbounded spin at 100 KB makes ~100 write
/// calls per request, visible as WriteCall/WriteSpin trace events.
#[test]
fn trace_derived_write_spins_match_table4() {
    let (summary, rec) = Experiment::new(cell(1, 100 * 1024)).run_traced(ServerKind::SingleThread);
    let completions = rec.completions_in_window();
    assert!(completions > 0);
    let writes = rec.window_count(TraceKind::WriteCall) as f64 / completions as f64;
    assert!(
        writes > 50.0,
        "100 KB responses must spin heavily: {writes} writes/req"
    );
    assert_eq!(writes.to_bits(), summary.writes_per_req.to_bits());
    assert!(rec.window_count(TraceKind::WriteSpin) > 0);
}

/// The audit passes — with bitwise f64 equality — for every architecture.
#[test]
fn audit_passes_for_all_architectures() {
    for kind in ServerKind::ALL {
        let (summary, rec) = Experiment::new(cell(2, 100)).run_traced(kind);
        let report = audit(&summary, &rec);
        assert!(report.pass(), "{kind:?} audit failed:\n{report}");
    }
}

/// The audit also holds on the write-spin cell (large responses, where the
/// TCP path does the interesting work).
#[test]
fn audit_passes_on_spin_cell() {
    for kind in [
        ServerKind::SingleThread,
        ServerKind::NettyLike,
        ServerKind::SyncThread,
    ] {
        let (summary, rec) = Experiment::new(cell(4, 100 * 1024)).run_traced(kind);
        let report = audit(&summary, &rec);
        assert!(report.pass(), "{kind:?} audit failed:\n{report}");
    }
}

/// Chrome-trace export validates and carries one named track per simulated
/// thread plus the engine track.
#[test]
fn chrome_trace_has_one_track_per_thread() {
    let (_, rec) = Experiment::new(cell(2, 100)).run_traced(ServerKind::AsyncPool);
    let json = rec.chrome_trace_json();
    validate_chrome_trace(&json).expect("schema-valid chrome trace");
    // Reactor + workers all spawned and named.
    assert!(rec.thread_names().len() >= 2, "{:?}", rec.thread_names());
    assert!(rec.thread_names().iter().any(|n| n == "reactor"));
    let meta_count = json.matches("\"ph\":\"M\"").count();
    assert_eq!(
        meta_count,
        rec.thread_names().len() + 1,
        "one track per thread + engine"
    );
}

/// `run_detailed`'s debug counters and the metrics registry expose the same
/// values — a single source of truth.
#[test]
fn registry_matches_run_detailed_counters() {
    let exp = Experiment::new(cell(2, 100));
    let (summary, counters) = exp.run_detailed(ServerKind::Hybrid);
    let (traced_summary, rec) = exp.run_traced(ServerKind::Hybrid);
    assert_eq!(
        summary, traced_summary,
        "observation must not perturb the run"
    );
    assert!(!counters.is_empty());
    for (name, v) in counters {
        assert_eq!(
            rec.registry().counter(name),
            Some(v),
            "registry disagrees with debug counter {name}"
        );
    }
    assert_eq!(
        rec.registry().counter("completions"),
        Some(summary.completions)
    );
    assert_eq!(
        rec.registry().gauge("cs_per_req").unwrap().to_bits(),
        summary.cs_per_req.to_bits()
    );
    assert!(rec
        .registry()
        .hist("rt_ns")
        .is_some_and(|h| h.count() == summary.completions));
}
