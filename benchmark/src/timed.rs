//! The timed pass: repetitions of a workload's full cell set driven in a
//! closed loop on the cell runner, untraced. Each runner thread takes a
//! [`host_speed`] slice before every cell, and the pass reports its times
//! at reference speed.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use asyncinv::runner::parallel_map;

use crate::speed::host_speed;
use crate::stats::median;
use crate::workload::{CellSpec, Outcome};

/// How many repetitions the timed pass makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Fixed(usize),
    /// As many as fit in the budget, but at least [`MIN_BUDGET_REPS`]: a
    /// further repetition starts only while the elapsed time plus the
    /// median repetition so far stays within it.
    Budget(Duration),
}

/// The fewest repetitions a budgeted timed pass makes, so its median is
/// not a single noisy sample.
pub const MIN_BUDGET_REPS: usize = 3;

/// A cell run's result: its outcome, or the message of the panic that
/// ended it.
pub type CellRun = Result<Outcome, String>;

/// Runs one cell, catching a panic so one broken cell cannot take the
/// whole workload down.
pub fn run_caught(cell: &CellSpec) -> (CellRun, Duration) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| cell.cell.run())).map_err(|p| panic_message(&*p));
    (out, start.elapsed())
}

/// The message a caught panic carried.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// What the timed pass measured.
#[derive(Debug, Default)]
pub struct TimedPass {
    /// Host seconds per repetition (all cells on the runner threads), as
    /// measured.
    pub rep_host_s: Vec<f64>,
    /// Summed host seconds of the cells of each repetition, as measured.
    pub rep_busy_s: Vec<f64>,
    /// The host's speed during each repetition: the median of the
    /// [`host_speed`] slices its runner threads took before each cell.
    pub rep_speed: Vec<f64>,
    /// Host milliseconds per cell at reference speed (each cell's time
    /// times its repetition's speed), pooled over repetitions.
    pub cell_ms: Vec<f64>,
    /// Each cell's result in the first repetition.
    pub first: Vec<CellRun>,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that panicked, failed a check, or disagreed with the
    /// first repetition.
    pub failed: u64,
    /// Why runs failed: (cell index, reason), in discovery order.
    pub failures: Vec<(usize, String)>,
}

impl TimedPass {
    /// Seconds per repetition at reference speed.
    pub fn rep_wall_s(&self) -> Vec<f64> {
        self.rep_host_s
            .iter()
            .zip(&self.rep_speed)
            .map(|(s, v)| s * v)
            .collect()
    }

    /// Simulated completions of one repetition (every repetition runs the
    /// same cells, so they agree unless a cell failed).
    pub fn completions(&self) -> u64 {
        self.first
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.completions)
            .sum()
    }
}

/// Runs repetitions of `cells` on `threads` runner threads, calling
/// `before_rep` before each. Each runner thread takes the next cell as soon
/// as its current one finishes.
pub fn run(
    cells: &[CellSpec],
    threads: usize,
    reps: Reps,
    before_rep: &mut dyn FnMut(),
) -> TimedPass {
    let mut pass = TimedPass::default();
    let start = Instant::now();
    loop {
        before_rep();
        let rep_start = Instant::now();
        let runs = parallel_map(cells, threads, |c| (host_speed(), run_caught(c)));
        pass.rep_host_s.push(rep_start.elapsed().as_secs_f64());
        let speeds: Vec<f64> = runs.iter().map(|(v, _)| *v).collect();
        let speed = median(&speeds);
        pass.rep_speed.push(speed);
        pass.rep_busy_s
            .push(runs.iter().map(|(_, (_, d))| d.as_secs_f64()).sum());
        let first_rep = pass.first.is_empty();
        for (i, (_, (out, took))) in runs.into_iter().enumerate() {
            pass.attempted += 1;
            pass.cell_ms.push(took.as_secs_f64() * 1e3 * speed);
            let problem = match (&out, pass.first.get(i)) {
                (Err(msg), _) => Some(format!("panicked: {msg}")),
                (Ok(o), _) if o.problem.is_some() => o.problem.clone(),
                (Ok(o), Some(Ok(f))) if o.digest != f.digest => {
                    Some("summary differs between repetitions".to_string())
                }
                _ => None,
            };
            if let Some(p) = problem {
                pass.failed += 1;
                pass.failures.push((i, p));
            }
            if first_rep {
                pass.first.push(out);
            }
        }
        let done = pass.rep_host_s.len();
        let more = match reps {
            Reps::Fixed(n) => done < n,
            Reps::Budget(b) => {
                done < MIN_BUDGET_REPS
                    || start.elapsed().as_secs_f64() + median(&pass.rep_host_s) <= b.as_secs_f64()
            }
        };
        if !more {
            return pass;
        }
    }
}
