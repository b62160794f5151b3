//! `benchmark` — the asyncinv repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--workload NAME]...
//!     [--seed N] [--repeats R | --seconds S] [--trace 0|1] [--quick]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare BASE.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --record-golden
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --write-inputs
//! ```
//!
//! Each workload runs in a fresh child process of this binary, so its peak
//! RSS and allocator state are its own. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

// Host wall-clock time is this crate's measurement, never an input to
// simulated time.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use asyncinv_benchmark::golden::{self, Golden};
use asyncinv_benchmark::inputs::{inputs_dir, Inputs};
use asyncinv_benchmark::report::{compare, out_dir, Declared, Metric, Results, WorkloadReport};
use asyncinv_benchmark::run::{run_workload, Options, THREADS};
use asyncinv_benchmark::timed::Reps;
use asyncinv_benchmark::workload::Workload;
use serde::Value;

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--repeats R | --seconds S]
                 [--trace 0|1] [--quick] [--record-golden] [--results PATH]
       benchmark --compare BASE.json [--results PATH]
       benchmark --write-inputs

  --workload NAME   micro_small, micro_large_wan, fleet_brownout, fleet_spans or
                    multi_tier (repeatable; default: all five)
  --seed N          input seed (default 1; seed 1 is checked against the goldens)
  --repeats R       timed repetitions of the full cell set (default 6)
  --seconds S       instead of --repeats: repeat while set-up, warm-up and the next
                    repetition fit in S s (at least 3 repetitions)
  --trace 0|1       0: timed pass only, end-to-end metrics; 1: one timed repetition and
                    the layer pass, per-layer metrics (default: both, all metrics)
  --quick           one repetition, one seed per group
  --record-golden   rewrite golden/seed-1.json from this run (seed 1, full grid)
  --write-inputs    rewrite inputs/*.json from the program's definitions
  --compare BASE    compare a results file against the current one and exit
  --results PATH    results file (default target/benchmark/results.json)";

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    repeats: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    record_golden: bool,
    write_inputs: bool,
    compare: Option<PathBuf>,
    results: PathBuf,
    child: Option<Workload>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: golden::SEED,
        repeats: 6,
        seconds: None,
        trace: None,
        quick: false,
        record_golden: false,
        write_inputs: false,
        compare: None,
        results: out_dir().join("results.json"),
        child: None,
    };
    let workload = |v: String| Workload::parse(&v).ok_or(format!("unknown workload {v:?}"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(workload(value()?)?),
            "--child" => a.child = Some(workload(value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeats" => {
                a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if a.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--quick" => a.quick = true,
            "--record-golden" => a.record_golden = true,
            "--write-inputs" => a.write_inputs = true,
            "--compare" => a.compare = Some(PathBuf::from(value()?)),
            "--results" => a.results = PathBuf::from(value()?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    if a.record_golden && (a.seed != golden::SEED || a.quick) {
        return Err(format!(
            "--record-golden needs seed {} and the full grid (no --quick)",
            golden::SEED
        ));
    }
    Ok(a)
}

/// The child's options: `--trace 1` makes one timed repetition (for the
/// runner's efficiency and the layer-pass cross-check) and the layer pass.
fn options(a: &Args) -> Options {
    let reps = if a.quick || a.trace == Some(true) {
        Reps::Fixed(1)
    } else if let Some(s) = a.seconds {
        Reps::Budget(Duration::from_secs_f64(s))
    } else {
        Reps::Fixed(a.repeats)
    };
    Options {
        seed: a.seed,
        reps,
        quick: a.quick,
        layer: a.trace != Some(false),
        check_golden: !a.record_golden,
    }
}

fn child_main(w: Workload, a: &Args) -> ExitCode {
    match run_workload(w, &options(a)) {
        Ok(report) => {
            println!(
                "{}",
                serde_json::to_string(&report).expect("reports serialize")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs `w` in a fresh child process and reads its report.
fn run_child(w: Workload, a: &Args) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &a.seed.to_string()])
        .args(["--repeats", &a.repeats.to_string()]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(t) = a.trace {
        cmd.args(["--trace", if t { "1" } else { "0" }]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    if a.record_golden {
        cmd.arg("--record-golden");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("bad report from the {} child: {e}", w.name()))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}:");
    for m in metrics {
        println!("    {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_report(r: &WorkloadReport) {
    println!(
        "== {} (seed {}, {} cells, {} timed repetition(s) on {THREADS} runner threads)",
        r.workload, r.seed, r.cells, r.reps
    );
    print_metrics("end to end", &r.end_to_end);
    print_metrics("not gated", &r.extra);
    print_metrics("per layer", &r.per_layer);
    if !r.self_times.is_empty() {
        println!("  layer-pass self time by span (ms):");
        let mut st = r.self_times.clone();
        st.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        for s in st.iter().filter(|s| s.name != "cell") {
            println!(
                "    {:<28} {:>12.1} self {:>12.1} total",
                s.name, s.self_ms, s.total_ms
            );
        }
    }
    println!("  cells attempted {}, failed {}", r.attempted, r.failed);
    for f in r.failures.iter().take(20) {
        println!("    FAILED {f}");
    }
}

/// The final JSON line. One workload: its metrics by name; several:
/// `workload/metric`.
fn summary_line(reports: &[WorkloadReport], trace: Option<bool>) -> String {
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for r in reports {
        let chosen: Vec<&Metric> = match trace {
            Some(false) => r.end_to_end.iter().collect(),
            Some(true) => r.per_layer.iter().collect(),
            None => r.end_to_end.iter().chain(&r.per_layer).collect(),
        };
        for m in chosen {
            let key = if single {
                m.name.clone()
            } else {
                format!("{}/{}", r.workload, m.name)
            };
            metrics.push((
                key,
                Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

fn record_golden(reports: &[WorkloadReport]) -> Result<(), String> {
    let path = golden::path();
    let mut g = Golden::load(&path)?;
    for r in reports {
        if r.failed > 0 || r.digests.iter().any(|d| d == "failed") {
            return Err(format!(
                "{} has failed cells; not recording its goldens",
                r.workload
            ));
        }
        g.set(&r.workload, r.digests.clone());
    }
    g.write(&path)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = a.child {
        return child_main(w, &a);
    }
    if a.write_inputs {
        let dir = inputs_dir();
        return match Inputs::defaults().write(&dir) {
            Ok(()) => {
                println!("wrote {}", dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(base) = &a.compare {
        let loaded = Results::load(base)
            .and_then(|b| Results::load(&a.results).map(|c| (b, c)))
            .and_then(|(b, c)| Declared::load().map(|d| (b, c, d)));
        return match loaded {
            Ok((b, c, d)) if compare(&b, &c, &d) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut reports = Vec::new();
    for &w in &a.workloads {
        match run_child(w, &a) {
            Ok(r) => {
                print_report(&r);
                reports.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if a.record_golden {
        if let Err(e) = record_golden(&reports) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let results = Results {
        seed: a.seed,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        threads: THREADS as u64,
        workloads: reports,
    };
    let body = serde_json::to_string_pretty(&results).expect("results serialize");
    match a
        .results
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&a.results, body + "\n"))
    {
        Ok(()) => println!("wrote {}", a.results.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", a.results.display()),
    }
    println!("{}", summary_line(&results.workloads, a.trace));
    ExitCode::SUCCESS
}
