//! CPU cost model of request processing.

use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-operation CPU costs of the simulated application server.
///
/// These defaults are calibrated (see DESIGN.md §7 and EXPERIMENTS.md) so
/// the *relative* results of the paper reproduce: the asynchronous
/// single-threaded server beats the thread-per-connection server by ~20% on
/// small responses at moderate concurrency, loses by ~30% on 100 KB
/// responses (write-spin), Netty's optimizations cost a few percent on small
/// responses, and the reactor/worker-pool server pays for its 4
/// context-switch flow. Absolute req/s values are not meaningful.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// `read()` syscall cost (system time).
    pub read_syscall: SimDuration,
    /// Extra kernel work to block and later resume a thread doing blocking
    /// I/O (system time); paid by the thread-per-connection server on every
    /// blocking read/write resume.
    pub block_resume: SimDuration,
    /// HTTP parsing (user time).
    pub parse_cost: SimDuration,
    /// Base business-logic computation per request (user time).
    pub compute_base: SimDuration,
    /// Response production cost per KB of response (user time): dynamic
    /// content generation and serialization.
    pub serialize_per_kb: SimDuration,
    /// `write()` syscall entry cost per call (system time).
    pub write_syscall: SimDuration,
    /// User-space bookkeeping around each `write()` call: buffer slicing,
    /// position tracking (user time). This is the per-iteration cost of a
    /// write-spin loop.
    pub write_prep: SimDuration,
    /// User-space copy cost per KB actually accepted by a write (user).
    pub copy_user_per_kb: SimDuration,
    /// Kernel copy cost per KB actually accepted by a write (system).
    pub copy_sys_per_kb: SimDuration,
    /// `epoll_wait` return cost per event-loop wakeup (system time).
    pub epoll_wakeup: SimDuration,
    /// Reactor cost to inspect and dispatch one ready event (user time).
    pub dispatch_cost: SimDuration,
    /// Netty handler-pipeline traversal and outbound-buffer management per
    /// request (user time) — the "non-trivial optimization overhead" of the
    /// paper's Fig 9(b).
    pub netty_pipeline: SimDuration,
    /// Netty per-write-call overhead: `ChannelOutboundBuffer` accounting,
    /// writeSpin bookkeeping (user time).
    pub netty_per_write: SimDuration,
}

impl Default for ServiceProfile {
    fn default() -> Self {
        ServiceProfile {
            read_syscall: SimDuration::from_nanos(6_000),
            block_resume: SimDuration::from_nanos(6_000),
            parse_cost: SimDuration::from_nanos(4_000),
            compute_base: SimDuration::from_nanos(16_000),
            serialize_per_kb: SimDuration::from_nanos(8_000),
            write_syscall: SimDuration::from_nanos(2_000),
            write_prep: SimDuration::from_nanos(7_000),
            copy_user_per_kb: SimDuration::from_nanos(4_000),
            copy_sys_per_kb: SimDuration::from_nanos(2_000),
            epoll_wakeup: SimDuration::from_nanos(4_000),
            dispatch_cost: SimDuration::from_nanos(2_000),
            netty_pipeline: SimDuration::from_nanos(8_000),
            netty_per_write: SimDuration::from_nanos(1_500),
        }
    }
}

impl ServiceProfile {
    /// Business-logic + serialization cost for a response of `bytes`.
    pub fn compute(&self, bytes: usize) -> SimDuration {
        self.compute_base + per_kb(self.serialize_per_kb, bytes)
    }

    /// User-space copy cost for `bytes` accepted by a write.
    pub fn copy_user(&self, bytes: usize) -> SimDuration {
        per_kb(self.copy_user_per_kb, bytes)
    }

    /// Kernel copy cost for `bytes` accepted by a write.
    pub fn copy_sys(&self, bytes: usize) -> SimDuration {
        per_kb(self.copy_sys_per_kb, bytes)
    }
}

/// Products of a cost in nanoseconds and a size in bytes below this are
/// exact in `f64`.
const EXACT: u64 = 1 << 53;

/// Scales a per-KB cost to `bytes`, rounded to whole nanoseconds (half
/// away from zero, as `f64::round`). Below [`EXACT`] the float formula
/// `(cost · bytes / 1024).round()` loses nothing, so the integer
/// `(cost · bytes + 512) >> 10` gives the same value without a call to
/// the software `round` that baseline x86-64 compiles it to; above, the
/// float formula stays.
fn per_kb(cost: SimDuration, bytes: usize) -> SimDuration {
    let c = cost.as_nanos();
    match c.checked_mul(bytes as u64) {
        Some(p) if p < EXACT => SimDuration::from_nanos((p + 512) >> 10),
        _ => SimDuration::from_nanos((c as f64 * bytes as f64 / 1024.0).round() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formula `per_kb` used before it rounded in integers.
    fn per_kb_f64(cost: u64, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((cost as f64 * bytes as f64 / 1024.0).round() as u64)
    }

    proptest! {
        /// `per_kb` agrees with the float formula bit for bit below 2^53,
        /// above it (and past `u64` overflow), and at the boundary.
        #[test]
        fn per_kb_matches_the_float_formula(
            cost in 0u64..1 << 24,
            small in 0usize..1 << 29,
            large in 0usize..1 << 41,
            step in 0usize..3,
        ) {
            let c = SimDuration::from_nanos(cost);
            prop_assert_eq!(per_kb(c, small), per_kb_f64(cost, small));
            prop_assert_eq!(per_kb(c, large), per_kb_f64(cost, large));
            // The largest exact size, one below it and one above it.
            if let Some(largest) = (EXACT - 1).checked_div(cost) {
                let edge = largest as usize + step - 1;
                prop_assert_eq!(per_kb(c, edge), per_kb_f64(cost, edge));
            }
        }
    }

    #[test]
    fn per_kb_rounds_halves_up_like_the_float_formula() {
        for (cost, bytes) in [(1, 512), (1, 1536), (3, 512), (1, 511), (1, 513)] {
            let c = SimDuration::from_nanos(cost);
            assert_eq!(
                per_kb(c, bytes),
                per_kb_f64(cost, bytes),
                "{cost} ns × {bytes} B"
            );
        }
        assert_eq!(per_kb(SimDuration::from_nanos(1), 512).as_nanos(), 1);
    }

    #[test]
    fn compute_scales_with_size() {
        let p = ServiceProfile::default();
        let small = p.compute(100);
        let large = p.compute(100 * 1024);
        assert!(large > small);
        // 100 KB at 8 us/KB = 800 us over the base.
        assert_eq!((large - p.compute_base).as_micros(), 800);
    }

    #[test]
    fn copy_costs_proportional() {
        let p = ServiceProfile::default();
        assert_eq!(p.copy_user(1024).as_nanos(), 4_000);
        assert_eq!(p.copy_sys(2048).as_nanos(), 4_000);
        assert_eq!(p.copy_user(0), SimDuration::ZERO);
    }

    #[test]
    fn per_kb_rounds_small_sizes() {
        let p = ServiceProfile::default();
        // 100 B at 8 us/KB = 781 ns.
        assert_eq!(per_kb(p.serialize_per_kb, 100).as_nanos(), 781);
    }
}
