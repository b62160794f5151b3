//! Experiment result records.

use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// CPU utilization shares over a run, normalized to machine capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CpuShare {
    /// User-space share of total capacity, `[0, 1]`.
    pub user: f64,
    /// System (syscall + switch overhead) share of capacity, `[0, 1]`.
    pub sys: f64,
    /// Idle share of capacity, `[0, 1]`.
    pub idle: f64,
}

impl CpuShare {
    /// Busy fraction (user + sys).
    pub fn utilization(&self) -> f64 {
        self.user + self.sys
    }

    /// User share of busy time (the paper's Table III normalization).
    pub fn user_share_of_busy(&self) -> f64 {
        let busy = self.utilization();
        if busy == 0.0 {
            0.0
        } else {
            self.user / busy
        }
    }
}

/// Per-request-class results within a run (the paper's Fig 11 analysis
/// distinguishes heavy and light requests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassSummary {
    /// Class name, shared with the workload mix's interned name (cloning
    /// an `Arc<str>` is a refcount bump, not a string allocation).
    pub class: Arc<str>,
    /// Response size of the class in bytes (initial size for drifting
    /// classes).
    pub response_bytes: usize,
    /// Completions of this class in the measurement window.
    pub completions: u64,
    /// Mean response time of this class, microseconds.
    pub mean_rt_us: u64,
    /// 99th percentile response time of this class, microseconds.
    pub p99_rt_us: u64,
}

/// One experiment cell: everything the paper reports about a single
/// (server, workload, network) combination.
///
/// ```
/// use asyncinv_metrics::RunSummary;
/// let s = RunSummary { server: "SingleT-Async".into(), ..RunSummary::default() };
/// assert_eq!(s.server, "SingleT-Async");
/// assert_eq!(s.mean_rt().as_micros(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunSummary {
    /// Server architecture label (e.g. `"SingleT-Async"`).
    pub server: String,
    /// Workload concurrency (number of closed-loop users).
    pub concurrency: usize,
    /// Response size in bytes of the dominant request class.
    pub response_size: usize,
    /// Added one-way network latency in microseconds.
    pub added_latency_us: u64,
    /// Completed requests in the measurement window.
    pub completions: u64,
    /// Throughput in requests/second.
    pub throughput: f64,
    /// Mean response time in microseconds.
    pub mean_rt_us: u64,
    /// Median response time in microseconds.
    pub p50_rt_us: u64,
    /// 95th percentile response time in microseconds.
    pub p95_rt_us: u64,
    /// 99th percentile response time in microseconds.
    pub p99_rt_us: u64,
    /// Context switches per second over the window.
    pub cs_per_sec: f64,
    /// Context switches per completed request.
    pub cs_per_req: f64,
    /// `socket.write()` calls per completed request (the paper's Table IV).
    pub writes_per_req: f64,
    /// Zero-return writes (spins) per completed request.
    pub spins_per_req: f64,
    /// CPU utilization shares.
    pub cpu: CpuShare,
    /// Coefficient of variation of per-second throughput (near zero at
    /// steady state; experiments assert on it).
    pub rate_cv: f64,
    /// Open-loop arrivals dropped because every connection was busy,
    /// within the measurement window. Zero in closed-loop runs.
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "maintained by the client pool via dropped snapshot deltas, not a += site in the engines")
    // detlint::allow(counter-unaudited, reason = "RequestArrive disposition is a written waiver; open-loop drops are bounded by completions + shed counters")
    pub dropped_arrivals: u64,
    /// Client-side request timeouts within the window (resilience layer;
    /// zero when no retry policy is configured).
    #[serde(default)]
    pub timeouts: u64,
    /// Retries scheduled within the window.
    #[serde(default)]
    pub retries: u64,
    /// Requests the client gave up on (retries/budget exhausted or an
    /// abandonment fault) within the window.
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "maintained by the client pool via abandoned snapshot deltas, not a += site in the engines")
    pub abandoned: u64,
    /// Reject-fast error responses issued by the server within the window.
    #[serde(default)]
    pub rejected: u64,
    /// Arrivals dropped or evicted by server-side load shedding within the
    /// window.
    #[serde(default)]
    pub shed_dropped: u64,
    /// Fault-plan actions applied within the window.
    #[serde(default)]
    pub fault_events: u64,
    /// Request attempts routed to a shard by the fleet balancer within the
    /// window. Zero outside multi-shard fleet runs (a 1-shard fleet, such
    /// as a single-server `Experiment`, routes nothing).
    #[serde(default)]
    pub shard_routes: u64,
    /// Hedged duplicate attempts fired within the window.
    #[serde(default)]
    pub hedges: u64,
    /// Hedged attempts cancelled (loser of the pair, or killed by a fault)
    /// within the window.
    #[serde(default)]
    pub hedge_cancels: u64,
    /// Retries routed to a different shard than the failed attempt within
    /// the window.
    #[serde(default)]
    pub shard_retries: u64,
    /// SQEs staged into proactor submission rings within the window.
    /// Zero for the seven syscall-per-op architectures.
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "aggregated from UringCounters via sq_submits += ud.sq_submits; the increment site is conserved in crates/uring")
    pub sq_submits: u64,
    /// Proactor `io_uring_enter` flush crossings within the window (each
    /// is exactly one modeled kernel crossing, however many SQEs it
    /// carried).
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "aggregated from UringCounters via sq_flushes += ud.sq_flushes; the increment site is conserved in crates/uring")
    pub sq_flushes: u64,
    /// Proactor completion-ring reap passes within the window.
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "aggregated from UringCounters via cq_reaps += ud.cq_reaps; the increment site is conserved in crates/uring")
    pub cq_reaps: u64,
    /// Staging attempts that hit a full submission ring (SQ-full
    /// backpressure) within the window.
    #[serde(default)]
    // detlint::allow(counter-dead, reason = "aggregated from UringCounters via sq_full += ud.sq_full; the increment site is conserved in crates/uring")
    pub sq_full: u64,
    /// Modeled kernel crossings (syscall-burst submissions) per completed
    /// request — the uniform metric the proactor's batched submission
    /// moves, comparable across all architectures.
    #[serde(default)]
    pub crossings_per_req: f64,
    /// Per-request-class breakdown, in mix order.
    pub per_class: Vec<ClassSummary>,
}

impl RunSummary {
    /// Mean response time as a duration.
    pub fn mean_rt(&self) -> SimDuration {
        SimDuration::from_micros(self.mean_rt_us)
    }

    /// Relative throughput versus a baseline run (`self / base`).
    ///
    /// Returns 0 when the baseline throughput is zero.
    pub fn speedup_over(&self, base: &RunSummary) -> f64 {
        if base.throughput == 0.0 {
            0.0
        } else {
            self.throughput / base.throughput
        }
    }
}

/// Relative residual of Little's law `N = X * R` for a closed system with
/// `n` users, throughput `x` (req/s) and mean response time `rt`.
///
/// Near zero when the workload generator, server and clock agree; the
/// integration tests assert it stays below a few percent at saturation
/// (with zero think time `N = X·R` exactly).
///
/// ```
/// use asyncinv_metrics::littles_law_residual;
/// use asyncinv_simcore::SimDuration;
/// // 100 users, 1000 req/s, 100 ms each: N = X*R holds exactly.
/// let r = littles_law_residual(100, 1000.0, SimDuration::from_millis(100));
/// assert!(r.abs() < 1e-9);
/// ```
pub fn littles_law_residual(n: usize, x: f64, rt: SimDuration) -> f64 {
    let predicted = x * rt.as_secs_f64();
    if n == 0 {
        return 0.0;
    }
    (predicted - n as f64) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_share_normalizations() {
        let s = CpuShare {
            user: 0.6,
            sys: 0.2,
            idle: 0.2,
        };
        assert!((s.utilization() - 0.8).abs() < 1e-12);
        assert!((s.user_share_of_busy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn idle_cpu_share_no_nan() {
        let s = CpuShare::default();
        assert_eq!(s.user_share_of_busy(), 0.0);
    }

    #[test]
    fn speedup() {
        let a = RunSummary {
            throughput: 120.0,
            ..RunSummary::default()
        };
        let b = RunSummary {
            throughput: 100.0,
            ..RunSummary::default()
        };
        assert!((a.speedup_over(&b) - 1.2).abs() < 1e-12);
        assert_eq!(a.speedup_over(&RunSummary::default()), 0.0);
    }

    #[test]
    fn littles_law_detects_mismatch() {
        // 100 users but X*R says 50: residual -0.5.
        let r = littles_law_residual(100, 500.0, SimDuration::from_millis(100));
        assert!((r + 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_users_residual_zero() {
        assert_eq!(
            littles_law_residual(0, 100.0, SimDuration::from_millis(1)),
            0.0
        );
    }
}
