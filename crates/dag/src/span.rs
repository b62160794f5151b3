//! Per-request DAG spans: every call attempt a root request caused,
//! nested under one span, with a per-tier critical-path decomposition
//! that telescopes bitwise to the end-to-end response time.
//!
//! Spans are built by the driver from its own call-instance linkage, not
//! reconstructed from the trace — matching attempts to queue episodes
//! across retry generations from events alone is ambiguous (two
//! generations of the same edge call are indistinguishable once their
//! replies race). [`dag_span_audit`] then closes the loop the other way:
//! the driver-built spans must agree with the recorded trace event by
//! event.

use asyncinv_obs::{AuditCheck, AuditReport, Recorder, TraceKind, NONE};
use asyncinv_simcore::SimTime;
use std::collections::BTreeMap;

/// How a root request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagSpanStatus {
    /// The root tier sent a reply; the span decomposes into phases.
    Completed,
    /// The request died (shed at a tier, or retries/budget exhausted on
    /// some edge of the root call's subtree).
    Failed,
}

/// One call instance (an initial send, an edge retry's re-send, or a
/// hedge duplicate) within a request's span.
#[derive(Debug, Clone, Copy)]
pub struct DagAttempt {
    /// Call-instance id (matches the `class` field of this instance's
    /// trace events).
    pub inst: u32,
    /// Tier the call ran on.
    pub node: usize,
    /// Edge index the call traveled (`EDGE_ROOT` for the root call).
    pub edge: u64,
    /// Retry generation (0 = first send; a hedge duplicate shares its
    /// generation's number).
    pub attempt: u32,
    /// `true` for hedge duplicates.
    pub hedge: bool,
    /// When the caller dispatched this instance.
    pub dispatch: SimTime,
    /// Arrival at the tier's station (`None` when shed).
    pub enter: Option<SimTime>,
    /// Service start (`None` when shed).
    pub exit: Option<SimTime>,
    /// Local service completion (`None` when shed).
    pub done: Option<SimTime>,
    /// Reply sent (`None` when shed or failed before replying).
    pub reply: Option<SimTime>,
    /// `true` when this instance's reply won its edge join (for the
    /// root call: the request completed through it).
    pub won: bool,
}

/// One root request: its end-to-end span, every attempt it caused, and
/// the critical-path phase decomposition.
///
/// For a completed request the phases conserve *bitwise*:
///
/// ```text
/// Σ tier_queue_ns + Σ tier_service_ns + network_ns + wait_ns
///     == (end − start) in nanoseconds
/// ```
///
/// where the per-tier vectors sum queue/service time along the critical
/// path (the chain of last-joining edges), `network_ns` is that chain's
/// wire time and `wait_ns` is everything the caller spent not waiting on
/// the critical child's own chain — timeout dead time before a winning
/// retry, and hedge delay before a winning duplicate.
#[derive(Debug, Clone)]
pub struct DagSpan {
    /// Root request index (matches the `conn` of its trace events).
    pub req: u64,
    /// Arrival time at the root tier.
    pub start: SimTime,
    /// Completion (reply at the client) or death time.
    pub end: SimTime,
    /// How the request ended.
    pub status: DagSpanStatus,
    /// Every call instance of the request, in creation order; index 0 is
    /// the root call.
    pub attempts: Vec<DagAttempt>,
    /// Critical-path queueing per tier, nanoseconds.
    pub tier_queue_ns: Vec<u64>,
    /// Critical-path service per tier, nanoseconds.
    pub tier_service_ns: Vec<u64>,
    /// Critical-path wire time, nanoseconds.
    pub network_ns: u64,
    /// Critical-path dead time (retry/hedge waits), nanoseconds.
    pub wait_ns: u64,
}

impl DagSpan {
    /// Sum of all decomposed phases, nanoseconds.
    pub fn phases_ns(&self) -> u64 {
        self.tier_queue_ns.iter().sum::<u64>()
            + self.tier_service_ns.iter().sum::<u64>()
            + self.network_ns
            + self.wait_ns
    }

    /// `true` when the phase decomposition telescopes exactly to the
    /// span length (always true for spans the driver builds; the audit
    /// asserts it).
    pub fn conserves(&self) -> bool {
        self.phases_ns() == self.end.duration_since(self.start).as_nanos()
    }
}

/// Cross-checks driver-built spans against the recorded trace:
///
/// - every span's phase decomposition conserves bitwise;
/// - completed-span count equals the whole-run `Completion` total;
/// - every retained `Completion` event matches its span's length;
/// - every retained `QueueExit` event matches its attempt's service
///   start (the `class` field carries the call-instance id).
pub fn dag_span_audit(spans: &[DagSpan], rec: &Recorder) -> AuditReport {
    let mut by_req: BTreeMap<u64, &DagSpan> = BTreeMap::new();
    let mut exit_by_inst: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut completed = 0u64;
    let mut broken = 0u64;
    for s in spans {
        by_req.insert(s.req, s);
        if s.status == DagSpanStatus::Completed {
            completed += 1;
        }
        if !s.conserves() {
            broken += 1;
        }
        for a in &s.attempts {
            if let Some(exit) = a.exit {
                exit_by_inst.insert(a.inst, exit);
            }
        }
    }
    let mut rt_mismatch = 0u64;
    let mut exit_mismatch = 0u64;
    for ev in rec.events() {
        match ev.kind {
            TraceKind::Completion => {
                let ok = by_req.get(&(ev.conn as u64)).is_some_and(|s| {
                    s.status == DagSpanStatus::Completed
                        && s.end.duration_since(s.start).as_nanos() == ev.arg
                });
                if !ok {
                    rt_mismatch += 1;
                }
            }
            TraceKind::QueueExit
                if ev.class != NONE && exit_by_inst.get(&ev.class) != Some(&ev.time) =>
            {
                exit_mismatch += 1;
            }
            _ => {}
        }
    }
    let check = |name: &'static str, from_trace: u64, from_summary: u64| AuditCheck {
        name,
        from_trace: from_trace as f64,
        from_summary: from_summary as f64,
    };
    AuditReport {
        server: "dag-spans".into(),
        checks: vec![
            check("span_conservation", broken, 0),
            check(
                "span_completions",
                rec.total(TraceKind::Completion),
                completed,
            ),
            check("completion_rt_match", rt_mismatch, 0),
            check("queue_exit_match", exit_mismatch, 0),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, len_ns: u64) -> DagSpan {
        DagSpan {
            req,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(len_ns),
            status: DagSpanStatus::Completed,
            attempts: Vec::new(),
            tier_queue_ns: vec![len_ns / 2],
            tier_service_ns: vec![len_ns - len_ns / 2],
            network_ns: 0,
            wait_ns: 0,
        }
    }

    #[test]
    fn conservation_is_bitwise() {
        let mut s = span(0, 1000);
        assert!(s.conserves());
        s.wait_ns = 1;
        assert!(!s.conserves());
    }

    #[test]
    fn audit_flags_broken_spans() {
        let rec = Recorder::new(16);
        let good = [span(0, 1000)];
        // One completed span but zero Completion trace events.
        let report = dag_span_audit(&good, &rec);
        let names: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["span_completions"]);

        let mut bad = span(1, 500);
        bad.network_ns = 7;
        let report = dag_span_audit(&[bad], &rec);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "span_conservation"));
    }
}
