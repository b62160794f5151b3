//! One workload run: set-up, the timed pass, the layer pass, and the
//! correctness checks that turn into its failure count.

use std::time::Instant;

use crate::golden::{self, Golden};
use crate::inputs::{inputs_dir, Inputs};
use crate::layer;
use crate::report::{end_to_end, out_dir, runner_efficiency, Metric, SelfTime, WorkloadReport};
use crate::speed::host_speed;
use crate::stats::{median, percentile};
use crate::timed::{self, Reps};
use crate::workload::{CellSpec, Workload};

/// Runner threads of the timed pass: the closed loop the benchmark was
/// defined on (a 2-core host), fixed so results compare across hosts.
pub const THREADS: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Timed repetitions.
    pub reps: Reps,
    /// One seed per group instead of the pinned counts.
    pub quick: bool,
    /// Run the layer pass.
    pub layer: bool,
    /// Compare digests against the seed-1 goldens (when `seed` is the
    /// golden seed and the grid is the pinned one).
    pub check_golden: bool,
}

fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// What one set-up builds: the cells, the layer pass's probe cells and the
/// goldens.
type Built = (Vec<CellSpec>, Vec<CellSpec>, Golden);

/// Set-up: load and validate the pinned inputs, build (and so validate)
/// every cell, load the goldens. Runs it twice and appends the second
/// run's time, at reference speed, to `times`: the first run after cells
/// have run finds its code and data evicted from the caches.
fn set_up(workload: Workload, opts: &Options, times: &mut Vec<f64>) -> Result<Built, String> {
    let once = || -> Result<Built, String> {
        let inputs = Inputs::load(&inputs_dir())?;
        let cells = workload.cells(&inputs, opts.seed, opts.quick.then_some(1));
        let probes = layer::probe_cells(&inputs, opts.seed, &cells);
        Ok((cells, probes, Golden::load(&golden::path())?))
    };
    once()?;
    let speed = host_speed();
    let start = Instant::now();
    let built = once()?;
    times.push(start.elapsed().as_secs_f64() * speed);
    Ok(built)
}

/// Runs `workload` and reports it. An `Err` means the run could not start
/// (unreadable or invalid inputs); cell failures are counted in the report.
pub fn run_workload(workload: Workload, opts: &Options) -> Result<WorkloadReport, String> {
    let start = Instant::now();
    // Set-up time is sampled again before every warm-up cell and timed
    // repetition: the host slows a single-threaded millisecond-long step
    // by up to 2x for seconds at a time, and samples spread over the run
    // keep such a spell out of the median.
    let mut setup_s = Vec::new();
    let (cells, probes, golden) = set_up(workload, opts, &mut setup_s)?;
    let mut resample = || {
        // The same inputs loaded a moment ago; should they fail to load
        // now, the sample is left out.
        let _ = set_up(workload, opts, &mut setup_s);
    };

    // Warm-up: one serial run of each configuration's first cell, so lazy
    // initialisation and allocator growth happen before timing. The
    // process is fresh and set-up allocates little, so the high-water mark
    // after it is the largest single cell's footprint; measured serially,
    // it does not depend on which cells the runner threads happen to
    // overlap. A cell that fails here fails again in the timed pass, where
    // it is counted.
    for c in cells.iter().filter(|c| c.seed_index == 0) {
        resample();
        let _ = timed::run_caught(c);
    }
    let peak_rss_mb = vm_hwm_mb().unwrap_or(0.0);

    let reps = match opts.reps {
        Reps::Budget(b) => Reps::Budget(b.saturating_sub(start.elapsed())),
        fixed => fixed,
    };
    let timed = timed::run(&cells, THREADS, reps, &mut resample);

    let mut failures: Vec<String> = timed
        .failures
        .iter()
        .map(|(i, why)| format!("{}: {why}", cells[*i].label))
        .collect();
    let mut attempted = timed.attempted;
    let mut failed = timed.failed;
    let digests: Vec<Option<u64>> = timed
        .first
        .iter()
        .map(|r| r.as_ref().ok().map(|o| o.digest))
        .collect();
    if opts.check_golden && opts.seed == golden::SEED && !opts.quick {
        for (i, why) in golden.mismatches(workload.name(), &digests) {
            failed += 1;
            failures.push(format!("{}: {why}", cells[i].label));
        }
    }

    let mut per_layer = Vec::new();
    let mut self_times = Vec::new();
    if opts.layer {
        let pass = layer::run(&cells, &probes, &timed.first);
        attempted += pass.attempted;
        failed += pass.failed;
        failures.extend(pass.failures.iter().map(|(c, why)| format!("{c}: {why}")));
        per_layer.push(runner_efficiency(&timed, THREADS));
        per_layer.extend(
            pass.metrics
                .iter()
                .map(|&(name, unit, v)| Metric::new(name, unit, v, Vec::new())),
        );
        self_times = pass
            .tracer
            .self_times()
            .into_iter()
            .map(|(name, total, own)| SelfTime {
                name,
                total_ms: total / 1e6,
                self_ms: own / 1e6,
            })
            .collect();
        let dir = out_dir();
        let spans = dir.join(format!("{}.spans.jsonl", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&spans, pass.tracer.jsonl()))
        {
            eprintln!("warning: could not write {}: {e}", spans.display());
        }
    }

    let extra = vec![
        Metric::new(
            "cell_p97_ms",
            "ms",
            percentile(&timed.cell_ms, 0.97),
            Vec::new(),
        ),
        Metric::new(
            "host_wall_s",
            "s",
            median(&timed.rep_host_s),
            timed.rep_host_s.clone(),
        ),
        Metric::new(
            "host_speed",
            "ratio",
            median(&timed.rep_speed),
            timed.rep_speed.clone(),
        ),
        Metric::new(
            "failed_frac",
            "fraction",
            failed as f64 / attempted.max(1) as f64,
            Vec::new(),
        ),
    ];
    Ok(WorkloadReport {
        workload: workload.name().to_string(),
        seed: opts.seed,
        cells: cells.len() as u64,
        reps: timed.rep_host_s.len() as u64,
        attempted,
        failed,
        failures,
        end_to_end: end_to_end(&timed, &setup_s, peak_rss_mb),
        per_layer,
        extra,
        self_times,
        digests: digests
            .iter()
            .map(|d| d.map_or_else(|| "failed".to_string(), golden::hex))
            .collect(),
    })
}
