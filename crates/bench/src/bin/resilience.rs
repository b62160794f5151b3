//! **resilience** — fault-intensity × retry-policy sweep (extension
//! beyond the paper): goodput under injected faults, retry amplification,
//! and retry-storm hysteresis.
//!
//! The scenario is a mid-run *capacity fault*: every core runs `factor`×
//! slower for a window in the middle of the measurement period (thermal
//! throttling / noisy neighbor / GC storm). Clients apply one of four
//! resilience policies; the harness reports goodput in the **before /
//! during / after** phases, the recovery ratio (after ÷ before — below 1
//! means the system stayed degraded after the fault cleared, the
//! retry-storm hysteresis), and retry amplification (attempts per
//! completed request).
//!
//! A second table holds the retry policy fixed and sweeps the server-side
//! load-shedding policy (none / drop-new / drop-oldest / reject-fast)
//! under the heaviest fault.
//!
//! ```sh
//! cargo run --release -p asyncinv-bench --bin resilience             # full
//! cargo run --release -p asyncinv-bench --bin resilience -- --quick  # smoke
//! cargo run --release -p asyncinv-bench --bin resilience -- \
//!     --scenario scenarios/retry_storm.json                # checked-in plan
//! cargo run --release -p asyncinv-bench --bin resilience -- --write-scenario
//! ```
//!
//! The `--scenario` run asserts the checked-in plan has not drifted from
//! the canonical storm in this file (regenerate with `--write-scenario`).
//!
//! All runs are seeded and deterministic; set `ASYNCINV_RESILIENCE_OUT` to
//! also write the sweep as JSON.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan};
use asyncinv::obs::{audit, Observer, TraceEvent, TraceKind};
use asyncinv::workload::{RetryPolicy, TimeoutMode};
use asyncinv::{
    fmt_f64, Experiment, ExperimentConfig, ServerKind, ShedConfig, ShedPolicy, SimDuration,
    SimTime, Table,
};
use asyncinv_bench::{banner, fidelity_from_args, load_scenario, print_and_export, write_scenario};
use serde::Serialize;

const SCENARIO: &str = "scenarios/retry_storm.json";

/// The checked-in storm plan, reproducibly: `--write-scenario` serializes
/// this, `--scenario` asserts the JSON still matches it. A 16× slowdown
/// for 500 ms in the middle of the full-fidelity measurement window.
fn storm_scenario() -> FaultPlan {
    FaultPlan {
        seed: 2209,
        events: vec![FaultEvent {
            at: SimDuration::from_millis(700),
            fault: FaultKind::Slowdown {
                factor: 16.0,
                duration: Some(SimDuration::from_millis(500)),
            },
        }],
    }
}

/// Counts completions and retries into fixed time bins over the whole run,
/// so phase goodput comes from the event stream without retaining it.
struct PhaseObserver {
    bin: SimDuration,
    completions: Vec<u64>,
    retries: Vec<u64>,
}

impl PhaseObserver {
    fn new(total: SimDuration, bin: SimDuration) -> Self {
        let n = (total.as_nanos() / bin.as_nanos() + 2) as usize;
        PhaseObserver {
            bin,
            completions: vec![0; n],
            retries: vec![0; n],
        }
    }

    fn index(&self, t: SimTime) -> usize {
        ((t.as_nanos() / self.bin.as_nanos()) as usize).min(self.completions.len() - 1)
    }

    /// Completions with `start <= t < end`, as a rate per second.
    ///
    /// Phase boundaries are always whole bins here, so summing bins is
    /// exact, not an approximation.
    fn goodput(&self, start: SimTime, end: SimTime) -> f64 {
        let (a, b) = (self.index(start), self.index(end));
        let done: u64 = self.completions[a..b].iter().sum();
        done as f64 / end.duration_since(start).as_secs_f64().max(1e-12)
    }

    /// Time from `fault_end` until the per-bin goodput first returns to
    /// 90% of `before` (and the retry stream has dried up), or `None` if
    /// it never does before `end` — the hysteresis measurement.
    fn recovery_time(&self, fault_end: SimTime, end: SimTime, before: f64) -> Option<SimDuration> {
        let per_bin = before * self.bin.as_secs_f64() * 0.9;
        let (a, b) = (self.index(fault_end), self.index(end));
        for i in a..b {
            if self.completions[i] as f64 >= per_bin && self.retries[i] == 0 {
                return Some(self.bin * (i - a) as u64);
            }
        }
        None
    }
}

impl Observer for PhaseObserver {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        let i = self.index(ev.time);
        match ev.kind {
            TraceKind::Completion => self.completions[i] += 1,
            TraceKind::Retry => self.retries[i] += 1,
            _ => {}
        }
    }
}

/// One sweep point, also exported as JSON.
#[derive(Debug, Serialize)]
struct SweepRow {
    policy: String,
    shed: String,
    slowdown: f64,
    goodput: f64,
    before: f64,
    during: f64,
    after: f64,
    recovery: f64,
    /// Milliseconds after the fault cleared until goodput returned to 90%
    /// of the pre-fault level with no retries in flight; `None` = never
    /// within the run.
    recovered_ms: Option<f64>,
    attempts_per_req: f64,
    timeouts: u64,
    retries: u64,
    abandoned: u64,
    rejected: u64,
    shed_dropped: u64,
}

struct Phases {
    fault_at: SimDuration,
    fault_len: SimDuration,
}

fn storm_plan(factor: f64, p: &Phases) -> FaultPlan {
    FaultPlan {
        seed: 7,
        events: vec![FaultEvent {
            at: p.fault_at,
            fault: FaultKind::Slowdown {
                factor,
                duration: Some(p.fault_len),
            },
        }],
    }
}

/// The four client policies of the study. `timeout` comes from calibration
/// against the unfaulted baseline.
fn policies(timeout: SimDuration) -> Vec<(&'static str, RetryPolicy)> {
    let base = RetryPolicy {
        timeout: Some(timeout),
        backoff_base: SimDuration::from_millis(1),
        backoff_mult: 2.0,
        backoff_cap: SimDuration::from_millis(50),
        jitter_frac: 0.1,
        ..RetryPolicy::default()
    };
    vec![
        ("none", RetryPolicy::default()),
        (
            "timeout",
            RetryPolicy {
                max_retries: 0,
                ..base
            },
        ),
        (
            "retry",
            RetryPolicy {
                max_retries: 5,
                ..base
            },
        ),
        (
            "retry+budget",
            RetryPolicy {
                max_retries: 5,
                budget_ratio: 0.2,
                budget_cap: 10.0,
                ..base
            },
        ),
        // Jacobson/Karels adaptive timeout: starts from the calibrated
        // value, tracks SRTT+4·RTTVAR online, and Karn-doubles across
        // consecutive timeouts — so the fault window widens the timeout
        // instead of hammering a stormed server with fixed-deadline
        // retries.
        (
            "retry+rto",
            RetryPolicy {
                max_retries: 5,
                timeout_mode: TimeoutMode::Rto,
                ..base
            },
        ),
    ]
}

fn cell(quick: bool) -> (ExperimentConfig, Phases) {
    let mut cfg = ExperimentConfig::micro(100, 10 * 1024);
    cfg.warmup = SimDuration::from_millis(200);
    cfg.measure = SimDuration::from_secs(if quick { 1 } else { 2 });
    // Fault window: the second quarter of the measurement period, so the
    // "after" phase is twice as long as the fault and recovery is visible.
    let phases = Phases {
        fault_at: cfg.warmup + cfg.measure / 4,
        fault_len: cfg.measure / 4,
    };
    (cfg, phases)
}

fn run_point(
    cfg: &ExperimentConfig,
    phases: &Phases,
    kind: ServerKind,
    label_policy: &str,
    label_shed: &str,
    slowdown: f64,
) -> SweepRow {
    let total = cfg.warmup + cfg.measure;
    // 20 bins per measurement period; phase edges are whole bins because
    // fault_at and fault_len are quarter-period aligned.
    let mut obs = PhaseObserver::new(total, cfg.measure / 20);
    let summary = Experiment::new(cfg.clone()).run_observed(kind, &mut obs);
    let warm = SimTime::ZERO + cfg.warmup;
    let fault_start = SimTime::ZERO + phases.fault_at;
    let fault_end = fault_start + phases.fault_len;
    let end = SimTime::ZERO + total;
    let before = obs.goodput(warm, fault_start);
    let during = obs.goodput(fault_start, fault_end);
    let after = obs.goodput(fault_end, end);
    let recovered_ms = obs
        .recovery_time(fault_end, end, before)
        .map(|d| d.as_nanos() as f64 / 1e6);
    SweepRow {
        policy: label_policy.into(),
        shed: label_shed.into(),
        slowdown,
        goodput: summary.throughput,
        before,
        during,
        after,
        recovery: if before > 0.0 { after / before } else { 0.0 },
        recovered_ms,
        attempts_per_req: if summary.completions > 0 {
            (summary.completions + summary.retries) as f64 / summary.completions as f64
        } else {
            0.0
        },
        timeouts: summary.timeouts,
        retries: summary.retries,
        abandoned: summary.abandoned,
        rejected: summary.rejected,
        shed_dropped: summary.shed_dropped,
    }
}

fn sweep_table(rows: &[SweepRow]) -> Table {
    let mut t = Table::new(vec![
        "policy".into(),
        "shed".into(),
        "slow x".into(),
        "goodput[req/s]".into(),
        "before".into(),
        "during".into(),
        "after".into(),
        "recovery".into(),
        "recov[ms]".into(),
        "att/req".into(),
        "timeouts".into(),
        "retries".into(),
        "abandoned".into(),
        "shed/rej".into(),
    ]);
    t.numeric();
    for r in rows {
        t.row(vec![
            r.policy.clone(),
            r.shed.clone(),
            fmt_f64(r.slowdown, 0),
            fmt_f64(r.goodput, 1),
            fmt_f64(r.before, 1),
            fmt_f64(r.during, 1),
            fmt_f64(r.after, 1),
            fmt_f64(r.recovery, 3),
            r.recovered_ms.map_or("never".into(), |ms| fmt_f64(ms, 0)),
            fmt_f64(r.attempts_per_req, 3),
            r.timeouts.to_string(),
            r.retries.to_string(),
            r.abandoned.to_string(),
            (r.shed_dropped + r.rejected).to_string(),
        ]);
    }
    t
}

/// `--scenario <file>`: run a checked-in `FaultPlan` JSON against the
/// standard cell with the storm retry policy, traced, and reconcile the
/// injected-vs-observed fault counters through the trace audit.
fn run_scenario(path: &str, quick: bool) {
    let plan = load_scenario(path, storm_scenario(), FaultPlan::validate);
    banner(
        "resilience — scenario run",
        "fault events injected by the plan reconcile bitwise with the trace",
    );
    println!(
        "scenario {path}: seed {} with {} scheduled faults",
        plan.seed,
        plan.events.len()
    );
    let (mut cfg, _) = cell(quick);
    cfg.trace_capacity = 1 << 14;
    cfg.faults = Some(plan);
    cfg.retry = policies(SimDuration::from_millis(10))[2].1;
    let mut failures = 0;
    let mut t = Table::new(vec![
        "server".into(),
        "goodput[req/s]".into(),
        "faults".into(),
        "timeouts".into(),
        "retries".into(),
        "abandoned".into(),
        "audit".into(),
    ]);
    t.numeric();
    for kind in [ServerKind::SyncThread, ServerKind::NettyLike] {
        let (summary, rec) = Experiment::new(cfg.clone()).run_traced(kind);
        let report = audit(&summary, &rec);
        if !report.pass() {
            failures += 1;
            eprintln!("{} scenario audit failure:\n{report}", summary.server);
        }
        t.row(vec![
            summary.server.clone(),
            fmt_f64(summary.throughput, 1),
            summary.fault_events.to_string(),
            summary.timeouts.to_string(),
            summary.retries.to_string(),
            summary.abandoned.to_string(),
            if report.pass() {
                "ok".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    print_and_export("resilience_scenario", &t);
    if failures > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--write-scenario" {
            return write_scenario(SCENARIO, &storm_scenario());
        }
        if a == "--scenario" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: resilience --scenario <plan.json>");
                std::process::exit(2);
            });
            let quick = std::env::args().any(|x| x == "--quick");
            run_scenario(&path, quick);
            return;
        }
    }

    banner(
        "resilience: fault intensity × retry policy (extension)",
        "unbudgeted retries amplify a transient capacity fault into a \
         retry storm; a retry budget restores post-fault goodput",
    );
    let quick = matches!(fidelity_from_args(), asyncinv::figures::Fidelity::Quick);
    let (cfg, phases) = cell(quick);
    let kind = ServerKind::NettyLike;

    // Calibrate the client timeout against the unfaulted baseline: long
    // enough to never fire in steady state, short enough to fire during
    // the fault window.
    let baseline = Experiment::new(cfg.clone()).run(kind);
    let timeout =
        SimDuration::from_micros((baseline.p99_rt_us * 3).max(1_000)).min(phases.fault_len / 4);
    println!(
        "\nbaseline ({}): {} req/s, p99 {:.2} ms -> client timeout {}\n",
        baseline.server,
        fmt_f64(baseline.throughput, 1),
        baseline.p99_rt_us as f64 / 1e3,
        timeout
    );

    // --- 1. Fault intensity × client retry policy. ---
    let mut rows = Vec::new();
    for &factor in &[1.0f64, 4.0, 16.0] {
        for (name, policy) in policies(timeout) {
            let mut c = cfg.clone();
            if factor > 1.0 {
                c.faults = Some(storm_plan(factor, &phases));
            }
            c.retry = policy;
            rows.push(run_point(&c, &phases, kind, name, "-", factor));
        }
    }
    println!(
        "fault intensity x retry policy ({}, slowdown for measure/4):",
        baseline.server
    );
    print_and_export("resilience_sweep", &sweep_table(&rows));

    // --- 2. Server-side shedding under the heaviest storm. ---
    let storm_policy = policies(timeout)[2].1; // unbudgeted retries
    let sheds: [(&str, Option<ShedConfig>); 4] = [
        ("none", None),
        (
            "drop-new",
            Some(ShedConfig {
                max_concurrent: 16,
                queue_cap: 32,
                policy: ShedPolicy::DropNew,
                reject_bytes: 0,
            }),
        ),
        (
            "drop-oldest",
            Some(ShedConfig {
                max_concurrent: 16,
                queue_cap: 32,
                policy: ShedPolicy::DropOldest,
                reject_bytes: 0,
            }),
        ),
        (
            "reject-fast",
            Some(ShedConfig {
                max_concurrent: 16,
                queue_cap: 32,
                policy: ShedPolicy::RejectFast,
                reject_bytes: 128,
            }),
        ),
    ];
    let budget_policy = policies(timeout)[3].1; // retries + budget
    let mut shed_rows = Vec::new();
    for (name, shed) in sheds {
        for (pname, policy) in [("retry", storm_policy), ("retry+budget", budget_policy)] {
            let mut c = cfg.clone();
            c.faults = Some(storm_plan(16.0, &phases));
            c.retry = policy;
            c.shed = shed;
            shed_rows.push(run_point(&c, &phases, kind, pname, name, 16.0));
        }
    }
    println!("load shedding x retry budget under the 16x storm:");
    print_and_export("resilience_shed", &sweep_table(&shed_rows));

    // --- 3. Record. ---
    if let Ok(out) = std::env::var("ASYNCINV_RESILIENCE_OUT") {
        #[derive(Serialize)]
        struct Report {
            sweep: Vec<SweepRow>,
            shed: Vec<SweepRow>,
        }
        let report = Report {
            sweep: rows,
            shed: shed_rows,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize resilience report");
        std::fs::write(&out, json + "\n").expect("write resilience json");
        println!("wrote {out}");
    }
}
