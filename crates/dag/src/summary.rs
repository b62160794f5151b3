//! DAG run summaries, per-tier counters and the bitwise trace audit.

use asyncinv_obs::{AuditCheck, AuditReport, Recorder, TraceKind};
use serde::{Deserialize, Serialize};

/// Whole-run counters for one tier. Every field has exactly one
/// increment site in the DAG driver (`detlint` enforces this), and
/// [`dag_audit`] reconciles each against the structured trace and the
/// DAG conservation identities — after a full drain every call
/// dispatched into a tier is accounted for exactly once:
///
/// ```text
/// dispatches == sheds + failed_calls + replies        (per non-root tier)
/// replies    == joins + hedge_cancels + orphans       (per non-root tier)
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierCounters {
    /// Call instances dispatched into this tier across an edge (initial
    /// sends, edge retries and hedge duplicates; zero for the root tier,
    /// whose calls arrive from the client).
    pub dispatches: u64,
    /// Call instances dropped at this tier's full pending queue.
    pub sheds: u64,
    /// Call instances whose local service completed at this tier.
    pub served: u64,
    /// Call instances that sent a reply from this tier (local service
    /// done and every awaited out-edge joined).
    pub replies: u64,
    /// Call instances that died at this tier because one of their own
    /// out-edges exhausted its retries or retry budget.
    pub failed_calls: u64,
    /// Replies from this tier that won their edge join at the caller.
    pub joins: u64,
    /// Replies from this tier discarded because a hedge sibling won.
    pub hedge_cancels: u64,
    /// Replies from this tier that arrived after their edge had already
    /// joined (a different retry generation won) or their caller died.
    pub orphans: u64,
    /// Per-attempt timeouts this tier's *out*-edges fired (caller side).
    pub edge_timeouts: u64,
    /// Edge retries this tier's out-edges re-dispatched (caller side).
    pub edge_retries: u64,
    /// Hedge duplicates this tier's out-edges fired (caller side).
    pub hedges: u64,
}

/// Summary of one DAG run. Window counters (`requests`, `completed`,
/// `failed`, the latency digest) cover the measurement window like
/// `RunSummary`; `arrivals` and `per_tier` are whole-run totals because
/// the conservation identities only close after a full drain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagSummary {
    /// Scenario name.
    pub name: String,
    /// Root arrivals inside the measurement window.
    pub requests: u64,
    /// End-to-end completions inside the window.
    pub completed: u64,
    /// Requests that died (shed at the root tier or a root-level call
    /// failure) inside the window.
    pub failed: u64,
    /// Whole-run root arrivals (the conservation baseline).
    pub arrivals: u64,
    /// Goodput: completions per second over the window.
    pub goodput: f64,
    /// Mean end-to-end response time, microseconds.
    pub mean_rt_us: u64,
    /// Median end-to-end response time, microseconds.
    pub p50_rt_us: u64,
    /// 99th-percentile end-to-end response time, microseconds.
    pub p99_rt_us: u64,
    /// Tier names, index-aligned with `per_tier`.
    pub tier_names: Vec<String>,
    /// Whole-run per-tier counters.
    pub per_tier: Vec<TierCounters>,
}

impl DagSummary {
    /// Loss fraction inside the window: failed / (completed + failed).
    pub fn loss(&self) -> f64 {
        let total = self.completed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.failed as f64 / total as f64
        }
    }
}

/// Reconciles a DAG run's per-tier counters against its structured
/// trace, bitwise: every DAG trace kind's whole-run total must equal the
/// matching counter sum, the window counts must equal the summary's
/// window counters, and the drain conservation identities must close.
pub fn dag_audit(summary: &DagSummary, rec: &Recorder) -> AuditReport {
    let mut sums = TierCounters::default();
    let mut non_root = (0u64, 0u64, 0u64); // dispatches vs sinks vs replies
    let mut reply_sinks = 0u64;
    for (tier, t) in summary.per_tier.iter().enumerate() {
        sums.dispatches += t.dispatches;
        sums.sheds += t.sheds;
        sums.served += t.served;
        sums.replies += t.replies;
        sums.failed_calls += t.failed_calls;
        sums.joins += t.joins;
        sums.hedge_cancels += t.hedge_cancels;
        sums.orphans += t.orphans;
        sums.edge_timeouts += t.edge_timeouts;
        sums.edge_retries += t.edge_retries;
        sums.hedges += t.hedges;
        if tier > 0 {
            non_root.0 += t.dispatches;
            non_root.1 += t.sheds + t.failed_calls + t.replies;
            non_root.2 += t.replies;
            reply_sinks += t.joins + t.hedge_cancels + t.orphans;
        }
    }
    let root = summary.per_tier.first().copied().unwrap_or_default();
    let check = |name: &'static str, from_trace: u64, from_summary: u64| AuditCheck {
        name,
        from_trace: from_trace as f64,
        from_summary: from_summary as f64,
    };
    let checks = vec![
        // Trace totals vs counter sums, whole run.
        check(
            "dispatches",
            rec.total(TraceKind::DagDispatch),
            sums.dispatches,
        ),
        check("joins", rec.total(TraceKind::DagJoin), sums.joins),
        check(
            "edge_retries",
            rec.total(TraceKind::DagEdgeRetry),
            sums.edge_retries,
        ),
        check(
            "edge_timeouts",
            rec.total(TraceKind::ClientTimeout),
            sums.edge_timeouts,
        ),
        check("hedges", rec.total(TraceKind::Hedge), sums.hedges),
        check(
            "hedge_cancels",
            rec.total(TraceKind::HedgeCancel),
            sums.hedge_cancels,
        ),
        check("sheds", rec.total(TraceKind::Shed), sums.sheds),
        check("served", rec.total(TraceKind::QueueExit), sums.served),
        check(
            "queue_balance",
            rec.total(TraceKind::QueueEnter),
            rec.total(TraceKind::QueueExit),
        ),
        check(
            "root_replies",
            rec.total(TraceKind::Completion),
            root.replies,
        ),
        check(
            "arrivals",
            rec.total(TraceKind::RequestArrive),
            summary.arrivals,
        ),
        // Window counts vs summary window counters.
        check(
            "requests",
            rec.window_count(TraceKind::RequestArrive),
            summary.requests,
        ),
        check("completed", rec.completions_in_window(), summary.completed),
        check(
            "failed",
            rec.window_count(TraceKind::Abandon),
            summary.failed,
        ),
        // Drain conservation: every dispatched call has exactly one fate,
        // and every reply exactly one reception.
        check("dispatch_conservation", non_root.0, non_root.1),
        check("reply_conservation", non_root.2, reply_sinks),
        check(
            "root_conservation",
            summary.arrivals,
            root.sheds + root.failed_calls + root.replies,
        ),
    ];
    AuditReport {
        server: summary.name.clone(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_run_audits_clean() {
        let summary = DagSummary {
            name: "empty".into(),
            requests: 0,
            completed: 0,
            failed: 0,
            arrivals: 0,
            goodput: 0.0,
            mean_rt_us: 0,
            p50_rt_us: 0,
            p99_rt_us: 0,
            tier_names: vec!["t0".into()],
            per_tier: vec![TierCounters::default()],
        };
        let rec = Recorder::new(16);
        let report = dag_audit(&summary, &rec);
        assert!(report.pass(), "{report}");
    }

    #[test]
    fn counter_drift_fails_the_audit() {
        // A dispatch count with no matching DagDispatch trace event.
        let t = TierCounters {
            dispatches: 1,
            ..TierCounters::default()
        };
        let summary = DagSummary {
            name: "drift".into(),
            requests: 0,
            completed: 0,
            failed: 0,
            arrivals: 0,
            goodput: 0.0,
            mean_rt_us: 0,
            p50_rt_us: 0,
            p99_rt_us: 0,
            tier_names: vec!["t0".into(), "t1".into()],
            per_tier: vec![TierCounters::default(), t],
        };
        let rec = Recorder::new(16);
        let report = dag_audit(&summary, &rec);
        assert!(!report.pass());
        let failed: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert!(failed.contains(&"dispatches"));
        assert!(failed.contains(&"dispatch_conservation"));
    }

    #[test]
    fn loss_fraction() {
        let mut s = DagSummary {
            name: "l".into(),
            requests: 10,
            completed: 8,
            failed: 2,
            arrivals: 10,
            goodput: 0.0,
            mean_rt_us: 0,
            p50_rt_us: 0,
            p99_rt_us: 0,
            tier_names: vec![],
            per_tier: vec![],
        };
        assert!((s.loss() - 0.2).abs() < 1e-12);
        s.completed = 0;
        s.failed = 0;
        assert_eq!(s.loss(), 0.0);
    }
}
