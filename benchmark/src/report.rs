//! Results: what one workload run reports, the results file, the metric
//! declarations in `BENCHMARK.json`, and `--compare`.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::stats::{iqr_share, median, percentile};
use crate::timed::TimedPass;

/// One metric value with its unit and the per-repetition samples behind it
/// (empty where the metric has a single measurement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// Per-repetition values, for the spread.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric with its samples.
    pub fn new(name: &str, unit: &str, value: f64, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// Host time a layer-pass span name accounted for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Summed span duration, milliseconds.
    pub total_ms: f64,
    /// Summed duration not covered by child spans, milliseconds.
    pub self_ms: f64,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Cells per repetition.
    pub cells: u64,
    /// Timed repetitions made.
    pub reps: u64,
    /// Cell runs attempted (timed and layer pass).
    pub attempted: u64,
    /// Cell runs that failed.
    pub failed: u64,
    /// Why runs failed.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty when the layer pass did not run).
    pub per_layer: Vec<Metric>,
    /// Printed but not declared: cell p97 and the failed fraction.
    pub extra: Vec<Metric>,
    /// Layer-pass host time per span name.
    pub self_times: Vec<SelfTime>,
    /// First-repetition cell digests (hex), in cell order.
    pub digests: Vec<String>,
}

/// The end-to-end metrics of a timed pass.
pub fn end_to_end(pass: &TimedPass, setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let completions = pass.completions() as f64;
    // Cell percentiles are taken per repetition, and their median over
    // repetitions reported. Pooled over repetitions they repeat worse: the
    // median cell of `micro_large_wan` sits in the gap between its cheap
    // and its write-spinning half, where the pooled median falls between
    // two extreme repetitions, and a spell of host slowness during one
    // repetition stretches the pooled tail.
    let cell_percentile = |name: &str, q: f64| {
        let per_rep: Vec<f64> = pass
            .cell_ms
            .chunks(pass.first.len().max(1))
            .map(|rep| percentile(rep, q))
            .collect();
        Metric::new(name, "ms", median(&per_rep), per_rep)
    };
    let walls = pass.rep_wall_s();
    let wall = median(&walls);
    let rates: Vec<f64> = walls.iter().map(|w| completions / w).collect();
    vec![
        Metric::new("wall_s", "s", wall, walls),
        Metric::new("sim_req_per_s", "req/s", completions / wall, rates),
        cell_percentile("cell_p50_ms", 0.5),
        cell_percentile("cell_p90_ms", 0.9),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, Vec::new()),
        Metric::new("setup_s", "s", median(setup_s), setup_s.to_vec()),
    ]
}

/// The runner's busy share: summed cell time over the threads' wall time,
/// median over repetitions.
pub fn runner_efficiency(pass: &TimedPass, threads: usize) -> Metric {
    let eff: Vec<f64> = pass
        .rep_busy_s
        .iter()
        .zip(&pass.rep_host_s)
        .map(|(b, w)| b / (w * threads as f64))
        .collect();
    Metric::new("runner.efficiency", "ratio", median(&eff), eff)
}

/// The results file: every workload report of one invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Input seed.
    pub seed: u64,
    /// `std::thread::available_parallelism` of the host.
    pub host_cores: u64,
    /// Runner threads of the timed pass.
    pub threads: u64,
    /// One report per workload run.
    pub workloads: Vec<WorkloadReport>,
}

impl Results {
    /// Reads a results file.
    pub fn load(path: &Path) -> Result<Results, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where results and spans are written.
pub fn out_dir() -> PathBuf {
    repo_root().join("target").join("benchmark")
}

/// A workload declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name.
    pub name: String,
}

/// An end-to-end metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct LayerDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The parts of `BENCHMARK.json` this crate reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Declared {
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// The workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<EndToEndDecl>,
    /// Per-layer metrics.
    pub per_layer: Vec<LayerDecl>,
}

impl Declared {
    /// Reads the repository's `BENCHMARK.json`.
    pub fn load() -> Result<Declared, String> {
        let path = repo_root().join("BENCHMARK.json");
        let body = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or every current sample beats every
    /// base sample.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound.
    Unresolved,
}

/// Judges `cur` against `base` under a bound, from their values and the
/// spread of their samples.
pub fn verdict(base: &Metric, cur: &Metric, lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (cur.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE);
    let spread = iqr_share(&base.samples).max(iqr_share(&cur.samples));
    if spread > bound {
        let beats = |c: f64, b: f64| sign * (c - b) < 0.0;
        let all_better = !cur.samples.is_empty()
            && !base.samples.is_empty()
            && cur
                .samples
                .iter()
                .all(|&c| base.samples.iter().all(|&b| beats(c, b)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn failed_frac(r: &WorkloadReport) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// Prints the comparison of `cur` against `base`; returns `false` when an
/// end-to-end metric got worse or a workload fails more often.
pub fn compare(base: &Results, cur: &Results, decl: &Declared) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "current", "change"
    );
    for c in &cur.workloads {
        let Some(b) = base.workloads.iter().find(|b| b.workload == c.workload) else {
            println!("{:<16} (not in base)", c.workload);
            continue;
        };
        for d in &decl.end_to_end {
            let (Some(bm), Some(cm)) = (
                b.end_to_end.iter().find(|m| m.name == d.name),
                c.end_to_end.iter().find(|m| m.name == d.name),
            ) else {
                continue;
            };
            let v = verdict(bm, cm, d.better == "lower", d.bound);
            ok &= v != Verdict::Worse;
            println!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.1}%  {v:?} (bound {:.0}%)",
                c.workload,
                d.name,
                bm.value,
                cm.value,
                100.0 * (cm.value - bm.value) / bm.value,
                100.0 * d.bound
            );
        }
        let (bf, cf) = (failed_frac(b), failed_frac(c));
        ok &= cf <= bf;
        let v = match cf.total_cmp(&bf) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Same,
        };
        println!(
            "{:<16} {:<26} {:>14.6} {:>14.6} {:>8}  {v:?}",
            c.workload, "failed_frac", bf, cf, ""
        );
        for d in &decl.per_layer {
            if let (Some(bm), Some(cm)) = (
                b.per_layer.iter().find(|m| m.name == d.name),
                c.per_layer.iter().find(|m| m.name == d.name),
            ) {
                println!(
                    "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.1}%  ({} is better)",
                    c.workload,
                    d.name,
                    bm.value,
                    cm.value,
                    100.0 * (cm.value - bm.value) / bm.value.abs().max(f64::MIN_POSITIVE),
                    d.better
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, samples: &[f64]) -> Metric {
        Metric::new("x", "s", value, samples.to_vec())
    }

    #[test]
    fn verdicts_respect_bound_and_direction() {
        let base = m(10.0, &[10.0, 10.1, 9.9]);
        assert_eq!(verdict(&base, &m(10.5, &[10.5]), true, 0.08), Verdict::Same);
        assert_eq!(
            verdict(&base, &m(11.0, &[11.0]), true, 0.08),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &m(9.0, &[9.0]), true, 0.08), Verdict::Better);
        // Higher is better: a drop is a regression.
        assert_eq!(verdict(&base, &m(9.0, &[9.0]), false, 0.08), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let base = m(10.0, &[8.0, 10.0, 12.0]);
        assert_eq!(
            verdict(&base, &m(11.0, &[9.0, 11.0, 13.0]), true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &m(6.0, &[5.0, 6.0, 7.0]), true, 0.05),
            Verdict::Better
        );
    }
}
