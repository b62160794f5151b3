//! Event-flow tracing: verify the paper's Fig 3 processing flow as an
//! actual *sequence* of structured trace events, not just aggregate counts.

use asyncinv_fleet::Experiment;
use asyncinv_servers::trace_codes::{MARK_PARK_WRITABLE, MARK_PATH_FAST, Q_DONE, Q_READ, Q_WRITE};
use asyncinv_servers::{ExperimentConfig, ServerKind, TraceEvent, TraceKind};
use asyncinv_simcore::SimDuration;

fn traced(concurrency: usize, bytes: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = SimDuration::from_millis(50);
    cfg.measure = SimDuration::from_millis(200);
    cfg.trace_capacity = 4096;
    cfg
}

/// Maps an event onto its Fig 3 step number, if it is one.
fn fig3_step(e: &TraceEvent) -> Option<u8> {
    match (e.kind, e.arg) {
        (TraceKind::QueueExit, a) if a == Q_READ => Some(1),
        (TraceKind::QueueEnter, a) if a == Q_WRITE => Some(2),
        (TraceKind::QueueExit, a) if a == Q_WRITE => Some(3),
        (TraceKind::QueueEnter, a) if a == Q_DONE => Some(4),
        _ => None,
    }
}

/// The paper's Fig 3: for every request the sTomcat-Async flow is
/// step1 (reactor dispatches read) → step2 (worker raises write event) →
/// step3 (reactor dispatches write) → step4 (worker returns control).
#[test]
fn async_pool_follows_fig3_flow() {
    let (_, trace) = Experiment::new(traced(1, 100)).run_traced(ServerKind::AsyncPool);
    let steps: Vec<u8> = trace.events().filter_map(fig3_step).collect();
    assert!(steps.len() >= 8, "need at least two full request flows");
    // Align to the first step1 (ring buffer may start mid-flow).
    let start = steps.iter().position(|&s| s == 1).expect("a step1");
    for (i, &s) in steps[start..].iter().enumerate() {
        let expected = (i % 4) as u8 + 1;
        assert_eq!(
            s,
            expected,
            "flow out of order at {i}: {:?}",
            &steps[start..start + (i + 4).min(steps.len() - start)]
        );
    }
}

/// With the write merged into the read worker (sTomcat-Async-Fix), steps 2
/// and 3 vanish from the flow.
#[test]
fn async_pool_fix_skips_write_dispatch() {
    let (_, trace) = Experiment::new(traced(1, 100)).run_traced(ServerKind::AsyncPoolFix);
    assert!(trace.events().any(|e| fig3_step(e) == Some(1)));
    for e in trace.events() {
        let step = fig3_step(e);
        assert!(
            step != Some(2) && step != Some(3),
            "Fix variant must not raise write events: {e:?}"
        );
    }
}

/// Hybrid path decisions are visible in the trace: unknown classes start
/// on the netty path, learned-light classes move to the fast path.
#[test]
fn hybrid_trace_shows_learning() {
    let (_, trace) = Experiment::new(traced(2, 100)).run_traced(ServerKind::Hybrid);
    assert!(
        trace
            .events()
            .any(|e| e.kind == TraceKind::Mark && e.arg == MARK_PATH_FAST),
        "light class should reach the fast path"
    );
}

/// Netty park/resume shows up on large responses.
#[test]
fn netty_trace_shows_parking() {
    let (_, trace) = Experiment::new(traced(2, 100 * 1024)).run_traced(ServerKind::NettyLike);
    let parks = trace.total(TraceKind::Mark);
    assert!(parks > 0, "100 KB responses must emit marks");
    assert!(
        trace
            .events()
            .any(|e| e.kind == TraceKind::Mark && e.arg == MARK_PARK_WRITABLE),
        "100 KB responses must park awaiting writable"
    );
}

/// Tracing off (default) records nothing and changes no results.
#[test]
fn tracing_is_zero_impact_when_disabled() {
    let mut cfg = traced(4, 100);
    cfg.warmup = SimDuration::from_millis(300);
    cfg.measure = SimDuration::from_secs(1);
    let (a, trace) = Experiment::new(cfg.clone()).run_traced(ServerKind::AsyncPool);
    let b = Experiment::new(cfg).run(ServerKind::AsyncPool);
    assert!(!trace.ring().is_empty(), "trace should be recorded");
    assert_eq!(a, b, "tracing must not perturb the simulation");
}

/// A zero-capacity ring retains nothing, but aggregate counts stay exact.
#[test]
fn zero_capacity_ring_keeps_counts() {
    let mut cfg = traced(1, 100);
    cfg.trace_capacity = 0;
    let (summary, trace) = Experiment::new(cfg).run_traced(ServerKind::SingleThread);
    assert_eq!(trace.ring().len(), 0);
    assert!(trace.total(TraceKind::RequestArrive) > 0);
    assert!(trace.completions_in_window() == summary.completions);
}
