//! Scheduler configuration.

use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// How ready threads are matched to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedPolicy {
    /// One global FIFO run queue shared by all cores (the default; what
    /// the paper-calibrated experiments use).
    #[default]
    GlobalQueue,
    /// Each thread has a home core (assigned round-robin at spawn) with a
    /// per-core run queue — cache-affine scheduling. With `steal`, idle
    /// cores take work from other queues at a migration penalty (twice the
    /// effective switch cost, modeling the cold-cache transfer).
    PerCore {
        /// Allow idle cores to steal from other cores' queues.
        steal: bool,
    },
}

/// Configuration of the simulated machine and scheduler.
///
/// Defaults follow DESIGN.md §7: they are chosen so the *shapes* of the
/// paper's results reproduce (who wins, where crossovers fall), not to match
/// the authors' absolute hardware numbers.
///
/// ```
/// use asyncinv_cpu::CpuConfig;
/// let cfg = CpuConfig { cores: 4, ..CpuConfig::default() };
/// assert_eq!(cfg.cores, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Number of identical cores.
    pub cores: usize,
    /// Base cost of switching a core between two distinct threads.
    pub cs_cost: SimDuration,
    /// Scales the context-switch cost by `1 + alpha * log2(1 + runnable)`,
    /// modeling the growing cache/TLB footprint of large thread pools. Set
    /// to `0.0` for a flat cost.
    pub cs_cost_log_alpha: f64,
    /// Preemption quantum for the round-robin scheduler.
    pub time_slice: SimDuration,
    /// Run-queue organization (global by default).
    #[serde(default)]
    pub policy: SchedPolicy,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 1,
            cs_cost: SimDuration::from_micros(5),
            cs_cost_log_alpha: 0.18,
            time_slice: SimDuration::from_millis(1),
            policy: SchedPolicy::GlobalQueue,
        }
    }
}

impl CpuConfig {
    /// The default single-core machine used by the micro-benchmarks.
    pub fn single_core() -> Self {
        CpuConfig::default()
    }

    /// A multi-core machine with otherwise default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn multi_core(cores: usize) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        CpuConfig {
            cores,
            ..CpuConfig::default()
        }
    }

    /// Checks the machine, returning the first problem found: at least
    /// one core, a positive time slice, and a finite, non-negative
    /// switch-cost alpha.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cpu.cores must be positive".into());
        }
        if self.time_slice.is_zero() {
            return Err("cpu.time_slice must be positive".into());
        }
        let alpha = self.cs_cost_log_alpha;
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(format!(
                "cpu.cs_cost_log_alpha must be finite and non-negative, got {alpha}"
            ));
        }
        Ok(())
    }

    /// The effective switch cost with `runnable` threads waiting to run.
    pub fn effective_cs_cost(&self, runnable: usize) -> SimDuration {
        if self.cs_cost_log_alpha == 0.0 {
            return self.cs_cost;
        }
        let factor = 1.0 + self.cs_cost_log_alpha * ((1 + runnable) as f64).log2();
        self.cs_cost.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_core() {
        assert_eq!(CpuConfig::default().cores, 1);
    }

    #[test]
    fn effective_cost_grows_with_runnable() {
        let cfg = CpuConfig::default();
        let low = cfg.effective_cs_cost(1);
        let high = cfg.effective_cs_cost(3200);
        assert!(high > low);
        // log scaling keeps the growth moderate: under ~3x for 3200 threads
        assert!(high.as_nanos() < low.as_nanos() * 3);
    }

    #[test]
    fn zero_alpha_gives_flat_cost() {
        let cfg = CpuConfig {
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::default()
        };
        assert_eq!(cfg.effective_cs_cost(0), cfg.cs_cost);
        assert_eq!(cfg.effective_cs_cost(1000), cfg.cs_cost);
    }

    #[test]
    fn validate_accepts_the_constructors() {
        assert_eq!(CpuConfig::single_core().validate(), Ok(()));
        assert_eq!(CpuConfig::multi_core(4).validate(), Ok(()));
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let _ = CpuConfig::multi_core(0);
    }
}
