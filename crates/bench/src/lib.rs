//! # asyncinv-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (run with `cargo run --release
//! -p asyncinv-bench --bin <name>`), plus `kernel_bench`, the simulator's
//! self-benchmark of its substrates.
//!
//! Every binary accepts `--quick` (or env `ASYNCINV_QUICK=1`) to shrink the
//! measurement windows for smoke runs, and `--threads N` (or env
//! `ASYNCINV_THREADS=N`) to bound the parallel cell runner; the recorded
//! numbers in `EXPERIMENTS.md` come from full runs.

#![forbid(unsafe_code)]

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::figures::Fidelity;
use asyncinv::fleet::{BalancerKind, FleetConfig, HedgeConfig, ShardFault, ShardShed};
use asyncinv::obs::audit;
use asyncinv::workload::RetryPolicy;
use asyncinv::{fmt_f64, Experiment, ExperimentConfig, RunSummary, ServerKind, SimDuration, Table};
use serde::{Deserialize, Serialize};

/// Environment variable mirroring `--trace-out DIR`: directory receiving
/// `<artifact>.trace.json` (Chrome trace-event format) and
/// `<artifact>.trace.jsonl` exports from each harness binary.
pub const TRACE_OUT_ENV: &str = "ASYNCINV_TRACE_OUT";

/// Environment variable mirroring `--metrics-out DIR`: directory receiving
/// `<artifact>.metrics.json` registry exports from each harness binary.
pub const METRICS_OUT_ENV: &str = "ASYNCINV_METRICS_OUT";

/// Parses the common harness flags: `--quick` / `ASYNCINV_QUICK` for
/// fidelity, `--threads N` for the parallel cell runner, and
/// `--trace-out DIR` / `--metrics-out DIR` for observability exports.
///
/// `--threads` is applied by setting [`asyncinv::runner::THREADS_ENV`] in
/// this process's environment, which both routes it to
/// [`asyncinv::runner::configured_threads`] and lets child processes (the
/// per-artifact binaries spawned by `repro_all`) inherit it. The
/// observability flags mirror to [`TRACE_OUT_ENV`] / [`METRICS_OUT_ENV`]
/// the same way.
pub fn fidelity_from_args() -> Fidelity {
    apply_threads_arg();
    apply_obs_args();
    let quick_flag = std::env::args().any(|a| a == "--quick");
    let quick_env = std::env::var("ASYNCINV_QUICK").is_ok_and(|v| v == "1");
    if quick_flag || quick_env {
        Fidelity::Quick
    } else {
        Fidelity::Full
    }
}

/// Applies a `--threads N` (or `--threads=N`) command-line override to the
/// `ASYNCINV_THREADS` environment variable. Returns the parsed count, if
/// any. Malformed values are reported and ignored rather than killing an
/// artifact run.
pub fn apply_threads_arg() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let value = if a == "--threads" {
            args.next()
        } else if let Some(v) = a.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        match value.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n >= 1 => {
                std::env::set_var(asyncinv::runner::THREADS_ENV, n.to_string());
                return Some(n);
            }
            _ => {
                eprintln!(
                    "warning: ignoring malformed --threads value {:?} (expected an integer >= 1)",
                    value.unwrap_or_default()
                );
                return None;
            }
        }
    }
    None
}

/// Applies `--trace-out DIR` / `--metrics-out DIR` (or `=DIR`) overrides to
/// the [`TRACE_OUT_ENV`] / [`METRICS_OUT_ENV`] environment variables, so the
/// per-artifact binaries spawned by `repro_all` inherit them. Returns the
/// (trace, metrics) directories in effect, if any.
pub fn apply_obs_args() -> (Option<String>, Option<String>) {
    for (flag, env) in [
        ("--trace-out", TRACE_OUT_ENV),
        ("--metrics-out", METRICS_OUT_ENV),
    ] {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            let value = if a == flag {
                args.next()
            } else {
                a.strip_prefix(flag)
                    .and_then(|v| v.strip_prefix('='))
                    .map(str::to_string)
            };
            if let Some(dir) = value {
                if dir.is_empty() {
                    eprintln!("warning: ignoring empty {flag} value");
                } else {
                    std::env::set_var(env, &dir);
                }
                break;
            }
        }
    }
    (
        std::env::var(TRACE_OUT_ENV).ok(),
        std::env::var(METRICS_OUT_ENV).ok(),
    )
}

/// Runs one representative traced cell for `artifact` and writes the
/// observability exports:
///
/// * `<trace-out>/<artifact>.trace.json` — Chrome trace-event JSON (load in
///   Perfetto / `chrome://tracing`; one track per simulated thread).
/// * `<trace-out>/<artifact>.trace.jsonl` — the same events, one JSON
///   object per line.
/// * `<metrics-out>/<artifact>.metrics.json` — the metrics registry.
///
/// A no-op unless `--trace-out` / `--metrics-out` (or their environment
/// variables) are set, so untraced harness runs pay nothing. The traced
/// cell is also audited against its own `RunSummary`; a mismatch is
/// reported on stderr but does not kill the artifact run.
pub fn export_observability(artifact: &str, mut cfg: ExperimentConfig, kind: ServerKind) {
    let trace_dir = std::env::var(TRACE_OUT_ENV).ok();
    let metrics_dir = std::env::var(METRICS_OUT_ENV).ok();
    if trace_dir.is_none() && metrics_dir.is_none() {
        return;
    }
    if cfg.trace_capacity == 0 {
        cfg.trace_capacity = 1 << 16;
    }
    let (summary, rec) = Experiment::new(cfg).run_traced(kind);
    let report = audit(&summary, &rec);
    if !report.pass() {
        eprintln!("warning: {artifact} trace audit failed:\n{report}");
    }
    write_exports(artifact, trace_dir.as_deref(), metrics_dir.as_deref(), &rec);
}

/// RUBBoS variant of [`export_observability`]: a short traced macro run of
/// the asynchronous Tomcat with the given user population. No audit — the
/// macro engine reports a [`asyncinv::rubbos::RubbosSummary`], which the
/// Table I/II audit does not cover.
pub fn export_observability_rubbos(artifact: &str, users: usize) {
    let trace_dir = std::env::var(TRACE_OUT_ENV).ok();
    let metrics_dir = std::env::var(METRICS_OUT_ENV).ok();
    if trace_dir.is_none() && metrics_dir.is_none() {
        return;
    }
    let mut exp = asyncinv::rubbos::RubbosExperiment::new(users);
    exp.warmup = asyncinv::SimDuration::from_secs(2);
    exp.measure = asyncinv::SimDuration::from_secs(5);
    let (_, rec) = exp.run_traced(ServerKind::AsyncPool, 1 << 16);
    write_exports(artifact, trace_dir.as_deref(), metrics_dir.as_deref(), &rec);
}

fn write_exports(
    artifact: &str,
    trace_dir: Option<&str>,
    metrics_dir: Option<&str>,
    rec: &asyncinv::obs::Recorder,
) {
    let write = |dir: &str, file: String, body: String| {
        let path = std::path::Path::new(dir).join(file);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    };
    if let Some(dir) = trace_dir {
        write(
            dir,
            format!("{artifact}.trace.json"),
            rec.chrome_trace_json(),
        );
        write(dir, format!("{artifact}.trace.jsonl"), rec.jsonl());
    }
    if let Some(dir) = metrics_dir {
        write(
            dir,
            format!("{artifact}.metrics.json"),
            rec.registry().to_json(),
        );
    }
}

/// Convenience wrapper over [`export_observability`] for the standard
/// micro-benchmark cell shape: a short traced run of `kind` at the given
/// concurrency and response size.
pub fn export_observability_micro(
    artifact: &str,
    concurrency: usize,
    bytes: usize,
    kind: ServerKind,
) {
    let mut cfg = ExperimentConfig::micro(concurrency, bytes);
    cfg.warmup = asyncinv::SimDuration::from_millis(200);
    cfg.measure = asyncinv::SimDuration::from_secs(1);
    export_observability(artifact, cfg, kind);
}

/// The stressed 3-shard fleet every span-layer harness measures on:
/// power-of-two-choices balancing, hedged requests, a tight 5 ms retry
/// timeout, a ×16 slowdown on shard 1 mid-run and a drastically shedding
/// shard 2 — so retries, hedges, rejections and dead wait all contribute
/// real time to the span trees. Used by `latency_breakdown` (the
/// committed phase-attribution artifact), `span_audit` (with the
/// balancer swept) and `kernel_bench`'s fleet-observability row, so the
/// overhead numbers describe the same workload as the artifact.
pub fn stressed_span_fleet(balancer: BalancerKind, quick: bool) -> FleetConfig {
    let mut cell = ExperimentConfig::micro(8, 10 * 1024);
    cell.warmup = SimDuration::from_millis(100);
    cell.measure = SimDuration::from_millis(if quick { 300 } else { 1500 });
    // The span audit insists the ring retained every event (a sampled or
    // truncated trace cannot conserve anything bitwise), so the capacity
    // must cover the whole run: ~25k requests × ~20 events at full
    // fidelity.
    cell.trace_capacity = if quick { 1 << 18 } else { 1 << 21 };
    // 5 ms is ~10× the healthy response time but well under the ~8 ms
    // responses the ×16 slowdown produces, so the retry plane (timeouts,
    // backoff, dead wait on the abandoned first attempt) actually engages
    // during the fault window instead of attributing zero everywhere.
    cell.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(5)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    let mut cfg = FleetConfig::new(cell, 3, balancer);
    cfg.hedge = Some(HedgeConfig {
        min_samples: 16,
        ..HedgeConfig::default()
    });
    cfg.shard_faults = vec![ShardFault {
        shard: 1,
        plan: FaultPlan {
            seed: 5,
            events: vec![FaultEvent {
                at: SimDuration::from_millis(200),
                fault: FaultKind::Slowdown {
                    factor: 16.0,
                    duration: Some(SimDuration::from_millis(150)),
                },
            }],
        },
    }];
    // A drastically shed shard: requests routed there are rejected or
    // evicted, so the retry plane (backoff, dead wait on the failed
    // attempt) contributes real time to the breakdown.
    cfg.shard_shed = vec![ShardShed {
        shard: 2,
        shed: ShedConfig {
            max_concurrent: 1,
            queue_cap: 1,
            policy: ShedPolicy::DropOldest,
            reject_bytes: 256,
        },
    }];
    cfg
}

/// Renders a throughput-oriented table of run summaries, one row each.
pub fn throughput_table(rows: &[RunSummary]) -> Table {
    let mut t = Table::new(vec![
        "server".into(),
        "conc".into(),
        "resp[B]".into(),
        "lat[us]".into(),
        "tput[req/s]".into(),
        "mean RT".into(),
        "p99 RT".into(),
        "cs/req".into(),
        "writes/req".into(),
        "cpu%".into(),
    ]);
    t.numeric();
    for r in rows {
        t.row(vec![
            r.server.clone(),
            r.concurrency.to_string(),
            r.response_size.to_string(),
            r.added_latency_us.to_string(),
            fmt_f64(r.throughput, 1),
            format!("{:.2}ms", r.mean_rt_us as f64 / 1000.0),
            format!("{:.2}ms", r.p99_rt_us as f64 / 1000.0),
            fmt_f64(r.cs_per_req, 2),
            fmt_f64(r.writes_per_req, 2),
            fmt_f64(r.cpu.utilization() * 100.0, 1),
        ]);
    }
    t
}

/// Prints a table and, when `ASYNCINV_CSV_DIR` is set, also writes it as
/// `<dir>/<name>.csv` so plots can be regenerated from the harness runs.
pub fn print_and_export(name: &str, table: &Table) {
    println!("{table}");
    if let Ok(dir) = std::env::var("ASYNCINV_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, table.to_csv()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// `--write-scenario`: writes `scenario`, the source of a checked-in
/// scenario file, to `path` under `scenarios/` as pretty JSON plus a
/// newline.
pub fn write_scenario<T: Serialize>(path: &str, scenario: &T) {
    let json = serde_json::to_string_pretty(scenario).expect("serialize scenario");
    std::fs::create_dir_all("scenarios").expect("mkdir scenarios");
    std::fs::write(path, json + "\n").expect("write scenario");
    println!("wrote {path}");
}

/// `--scenario <path>`: loads a checked-in scenario and asserts it has not
/// drifted from `source`, the value [`write_scenario`] writes. A file that
/// cannot be read or parsed, or that `validate` rejects, exits with
/// status 2.
pub fn load_scenario<T: Deserialize + PartialEq + std::fmt::Debug>(
    path: &str,
    source: T,
    validate: impl FnOnce(&T) -> Result<(), String>,
) -> T {
    let fail = |msg: String| -> ! {
        eprintln!("error: {path}{msg}");
        std::process::exit(2);
    };
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        fail(format!(
            " could not be read (regenerate with --write-scenario): {e}"
        ))
    });
    let scenario: T = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(format!(" is not a valid scenario: {e}")));
    if let Err(e) = validate(&scenario) {
        fail(format!(": {e}"));
    }
    assert_eq!(
        scenario, source,
        "checked-in scenario {path} drifted from source (regenerate with --write-scenario)"
    );
    scenario
}

/// Prints a standard harness header.
pub fn banner(artifact: &str, claim: &str) {
    println!("================================================================");
    println!("asyncinv reproduction — {artifact}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_table_renders_all_rows() {
        let rows = vec![
            RunSummary {
                server: "A".into(),
                throughput: 123.456,
                ..RunSummary::default()
            },
            RunSummary {
                server: "B".into(),
                ..RunSummary::default()
            },
        ];
        let t = throughput_table(&rows);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("123.5"));
    }
}
