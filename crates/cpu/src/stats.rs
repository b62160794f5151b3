//! Scheduler accounting.

use asyncinv_simcore::SimDuration;

/// Cumulative scheduler statistics.
///
/// All fields are monotone counters/sums since machine creation; experiments
/// snapshot them at window boundaries and subtract. `Copy`, so snapshots are
/// plain bitwise copies — no allocation on the engines' measurement path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Switches of a core between two distinct threads (paper's context
    /// switch metric: Tables I & II, Fig 4d–f).
    pub context_switches: u64,
    /// Involuntary switches due to time-slice expiry with waiters.
    pub preemptions: u64,
    /// CPU time burned performing switches.
    pub switch_overhead: SimDuration,
    /// CPU time charged to user-space bursts.
    pub user_time: SimDuration,
    /// CPU time charged to system-call bursts.
    pub sys_time: SimDuration,
    /// Total threads ever spawned.
    pub threads_spawned: u64,
    /// Ready threads migrated off their home core (per-core policy with
    /// stealing).
    pub steals: u64,
    /// Syscall-kind burst submissions — each is one modeled kernel
    /// crossing (user→kernel entry). The proactor architecture's batched
    /// submission exists to shrink this count; tracking it here makes
    /// "kernel crossings per request" a uniform metric across every
    /// architecture.
    pub syscall_bursts: u64,
    /// Bursts executed by [`CpuModel::retire_cycles`](crate::CpuModel::retire_cycles)
    /// without a completion event of their own. Included in every other
    /// counter and time sum above exactly as if they had run one by one;
    /// this field only records how many events the driver was spared.
    pub retired_bursts: u64,
}

impl CpuStats {
    /// Total CPU time consumed (user + system + switch overhead).
    pub fn busy_time(&self) -> SimDuration {
        self.user_time + self.sys_time + self.switch_overhead
    }

    /// Computes the utilization breakdown over a wall-clock window.
    ///
    /// `elapsed` is virtual wall time since the epoch of these stats and
    /// `cores` the machine size. See [`CpuTimeBreakdown`].
    pub fn breakdown(&self, elapsed: SimDuration, cores: usize) -> CpuTimeBreakdown {
        let capacity = elapsed * cores as u64;
        CpuTimeBreakdown {
            user: self.user_time,
            sys: self.sys_time,
            switch: self.switch_overhead,
            capacity,
        }
    }

    /// The difference `self - earlier`, for window-based measurement.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn delta_since(&self, earlier: &CpuStats) -> CpuStats {
        CpuStats {
            context_switches: self.context_switches - earlier.context_switches,
            preemptions: self.preemptions - earlier.preemptions,
            switch_overhead: self.switch_overhead - earlier.switch_overhead,
            user_time: self.user_time - earlier.user_time,
            sys_time: self.sys_time - earlier.sys_time,
            threads_spawned: self.threads_spawned - earlier.threads_spawned,
            steals: self.steals - earlier.steals,
            syscall_bursts: self.syscall_bursts - earlier.syscall_bursts,
            retired_bursts: self.retired_bursts - earlier.retired_bursts,
        }
    }
}

/// CPU utilization split over a measurement window, Collectl-style.
///
/// The paper's Table III reports "User total %" and "System total %" at a
/// fixed workload concurrency; [`CpuTimeBreakdown::user_pct`] and friends
/// regenerate those rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimeBreakdown {
    /// User CPU time in the window.
    pub user: SimDuration,
    /// System CPU time in the window.
    pub sys: SimDuration,
    /// Context-switch overhead in the window.
    pub switch: SimDuration,
    /// Total CPU capacity of the window (elapsed × cores).
    pub capacity: SimDuration,
}

impl CpuTimeBreakdown {
    /// Busy time (user + sys + switch).
    pub fn busy(&self) -> SimDuration {
        self.user + self.sys + self.switch
    }

    /// Idle capacity.
    pub fn idle(&self) -> SimDuration {
        self.capacity.saturating_sub(self.busy())
    }

    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        ratio(self.busy(), self.capacity)
    }

    /// User time as a percentage of total capacity.
    pub fn user_pct(&self) -> f64 {
        100.0 * ratio(self.user, self.capacity)
    }

    /// System time (including switch overhead, which the kernel performs)
    /// as a percentage of total capacity.
    pub fn sys_pct(&self) -> f64 {
        100.0 * ratio(self.sys + self.switch, self.capacity)
    }

    /// User share of *busy* time — the paper's Table III normalizes this
    /// way ("the CPU is 100% utilized under this workload concurrency").
    pub fn user_share_of_busy(&self) -> f64 {
        ratio(self.user, self.busy())
    }
}

fn ratio(num: SimDuration, den: SimDuration) -> f64 {
    if den.is_zero() {
        0.0
    } else {
        num.as_nanos() as f64 / den.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn breakdown_percentages() {
        let stats = CpuStats {
            user_time: us(60),
            sys_time: us(30),
            switch_overhead: us(10),
            ..CpuStats::default()
        };
        let b = stats.breakdown(us(200), 1);
        assert_eq!(b.busy(), us(100));
        assert_eq!(b.idle(), us(100));
        assert!((b.utilization() - 0.5).abs() < 1e-12);
        assert!((b.user_pct() - 30.0).abs() < 1e-9);
        assert!((b.sys_pct() - 20.0).abs() < 1e-9);
        assert!((b.user_share_of_busy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero_not_nan() {
        let b = CpuStats::default().breakdown(SimDuration::ZERO, 1);
        assert_eq!(b.utilization(), 0.0);
        assert_eq!(b.user_share_of_busy(), 0.0);
    }

    #[test]
    fn delta_since_subtracts() {
        let early = CpuStats {
            context_switches: 5,
            user_time: us(10),
            ..CpuStats::default()
        };
        let late = CpuStats {
            context_switches: 12,
            user_time: us(25),
            ..CpuStats::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.context_switches, 7);
        assert_eq!(d.user_time, us(15));
    }

    #[test]
    fn multicore_capacity() {
        let stats = CpuStats {
            user_time: us(100),
            ..CpuStats::default()
        };
        let b = stats.breakdown(us(100), 4);
        assert!((b.utilization() - 0.25).abs() < 1e-12);
    }
}
