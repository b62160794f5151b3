//! Deterministic model of completion-based (io_uring-style) I/O.
//!
//! The paper's seven architectures all pay one kernel crossing per
//! syscall: every `read()`, every `write()` iteration, every
//! `epoll_wait` wakeup is its own modeled [`Burst::syscall`] submission.
//! Completion-based I/O changes the arithmetic: the application *stages*
//! submission-queue entries (SQEs) in user space for free, then one
//! `io_uring_enter` crossing submits the whole batch; the kernel
//! performs the operations and posts completion-queue entries (CQEs)
//! that the application reaps — again in user space, again batched.
//!
//! This crate models exactly that accounting, and nothing else:
//!
//! * a bounded submission ring ([`UringConfig::sq_depth`]) with an
//!   explicit backpressure signal ([`StageOutcome::Full`]) when staging
//!   outruns flushing;
//! * a cost curve for the flush crossing — base `io_uring_enter` cost
//!   plus a per-SQE submit increment plus the kernel-side work of each
//!   staged operation (supplied by the caller per SQE, since the cost
//!   model lives above this crate);
//! * a cost curve for the completion reap — base plus per-CQE;
//! * registered-buffer accounting: a fixed pool of pre-registered
//!   buffers ([`UringConfig::registered_buffers`]); writes that get one
//!   skip the kernel's user-page setup cost, writes that find the pool
//!   exhausted fall back to the copy path. The high-water mark is
//!   tracked so experiments can see pool pressure.
//!
//! The ring never touches a socket or a scheduler: the server
//! architecture that drives it (`asyncinv-servers`' proactor) owns the
//! actual byte movement and burst submission. Every counter in
//! [`UringCounters`] increments in exactly one method here, so a server
//! emitting one trace event per call site reconciles bitwise against
//! the counter deltas — the same invariant the rest of the workspace
//! audits (`asyncinv-obs`' `trace_audit`).

#![forbid(unsafe_code)]

use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a staged operation does when the kernel executes it.
///
/// The ring treats operations as opaque work items; the variants exist
/// so the driving architecture can route completions without a side
/// table. `conn` is the driver's connection index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read a completed request from a readable socket.
    Read {
        /// Driver connection index.
        conn: usize,
    },
    /// Write a response to a socket; the kernel pushes bytes until the
    /// send buffer fills, then keeps the operation in flight and
    /// completes it when the remaining bytes have been handed off.
    Write {
        /// Driver connection index.
        conn: usize,
        /// Response bytes to hand to the socket.
        bytes: usize,
    },
}

impl Op {
    /// The connection the operation targets.
    pub fn conn(self) -> usize {
        match self {
            Op::Read { conn } | Op::Write { conn, .. } => conn,
        }
    }

    /// Stable op code carried in `SqSubmit` trace events (`1` = read,
    /// `2` = write; mirrored by `asyncinv-obs`' span classifier).
    pub fn code(self) -> u64 {
        match self {
            Op::Read { .. } => SQ_OP_READ,
            Op::Write { .. } => SQ_OP_WRITE,
        }
    }
}

/// `SqSubmit` op code for a read SQE.
pub const SQ_OP_READ: u64 = 1;
/// `SqSubmit` op code for a write SQE.
pub const SQ_OP_WRITE: u64 = 2;

/// One submission-queue entry: the operation plus the kernel-side CPU
/// cost of executing it (computed by the caller from its service
/// profile) and whether it holds a registered buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// The operation.
    pub op: Op,
    /// Kernel CPU time to execute the op inside the flush crossing.
    pub kernel_cost: SimDuration,
    /// Holds a slot of the registered-buffer pool (writes only).
    pub registered: bool,
}

/// One completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The completed operation.
    pub op: Op,
    /// Operation result (bytes read/written).
    pub result: usize,
}

/// Outcome of [`Ring::try_stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// The SQE is in the submission ring awaiting the next flush.
    Staged,
    /// The submission ring is full ([`UringConfig::sq_depth`] entries
    /// staged): the caller must flush before staging more. The failed
    /// SQE was *not* enqueued; `sq_full` was counted.
    Full,
}

/// Cost and shape parameters of the modeled ring.
///
/// The syscall-side defaults are calibrated against the workspace's
/// [`ServiceProfile`](https://docs.rs) defaults (DESIGN.md §14): one
/// `io_uring_enter` costs a little less than a `read()` (3 µs vs 6 µs
/// — no fd lookup per byte stream, but ring bookkeeping), each
/// additional SQE in the batch amortizes to 500 ns of submit work, and
/// reaping is user-space tail latency (600 ns + 300 ns per CQE).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UringConfig {
    /// Submission ring depth; staging past this forces a flush
    /// ([`StageOutcome::Full`]).
    pub sq_depth: usize,
    /// Completion ring nominal depth. The model never drops CQEs (the
    /// kernel's overflow path is lossless since 5.5); the depth is used
    /// for high-water accounting only.
    pub cq_depth: usize,
    /// Base kernel-crossing cost of one `io_uring_enter` (system time).
    pub enter_base: SimDuration,
    /// Kernel submit cost per SQE in the flushed batch (system time).
    pub enter_per_sqe: SimDuration,
    /// User-space cost to begin a reap pass (barrier load, wakeup).
    pub reap_base: SimDuration,
    /// User-space cost per CQE reaped (user time).
    pub reap_per_cqe: SimDuration,
    /// Registered-buffer pool size. Zero disables the pool: every write
    /// pays the unregistered page-setup cost.
    pub registered_buffers: usize,
}

impl Default for UringConfig {
    fn default() -> Self {
        UringConfig {
            sq_depth: 64,
            cq_depth: 128,
            enter_base: SimDuration::from_nanos(3_000),
            enter_per_sqe: SimDuration::from_nanos(500),
            reap_base: SimDuration::from_nanos(600),
            reap_per_cqe: SimDuration::from_nanos(300),
            registered_buffers: 64,
        }
    }
}

impl UringConfig {
    /// Checks the knobs for structural validity.
    pub fn validate(&self) -> Result<(), String> {
        if self.sq_depth == 0 {
            return Err("sq_depth must be positive".into());
        }
        if self.cq_depth == 0 {
            return Err("cq_depth must be positive".into());
        }
        Ok(())
    }
}

/// Monotone counters of ring activity.
///
/// `Copy`, so window snapshots are bitwise copies; experiments snapshot
/// at the warm-up boundary and subtract ([`UringCounters::delta_since`])
/// exactly like the CPU and TCP stats. Each field increments in exactly
/// one [`Ring`] method (named in the field docs), which is what lets the
/// proactor emit one trace event per increment and the audit reconcile
/// the two paths bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UringCounters {
    /// SQEs staged into the submission ring ([`Ring::try_stage`] →
    /// [`StageOutcome::Staged`]).
    pub sq_submits: u64,
    /// `io_uring_enter` flush crossings ([`Ring::begin_flush`]).
    pub sq_flushes: u64,
    /// SQEs carried by those flushes (for batch-size analysis).
    // detlint::allow(counter-unaudited, reason = "batch-size analysis detail; the flush crossings it rides on are audited via sq_flushes")
    pub flushed_sqes: u64,
    /// Reap passes ([`Ring::reap`] on a non-empty completion ring).
    pub cq_reaps: u64,
    /// CQEs drained by those passes.
    // detlint::allow(counter-unaudited, reason = "reap-batch detail; the reap passes it rides on are audited via cq_reaps")
    pub reaped_cqes: u64,
    /// Staging attempts that found the submission ring full
    /// ([`Ring::try_stage`] → [`StageOutcome::Full`]).
    pub sq_full: u64,
    /// High-water mark of registered buffers simultaneously held.
    // detlint::allow(counter-unaudited, reason = "high-water gauge, not an event count; exported as the sXX/buf_high_water registry counter")
    pub buf_high_water: u64,
    /// Writes that wanted a registered buffer but found the pool empty.
    // detlint::allow(counter-unaudited, reason = "pool-sizing diagnostic; fallback writes still traverse the audited write path")
    pub buf_fallbacks: u64,
    /// High-water mark of unreaped CQEs (pressure on `cq_depth`).
    // detlint::allow(counter-unaudited, reason = "high-water gauge, not an event count; exported as the sXX/cq_high_water registry counter")
    pub cq_high_water: u64,
}

impl UringCounters {
    /// The difference `self - earlier`, for window-based measurement.
    /// High-water marks don't subtract: the later mark is kept.
    pub fn delta_since(&self, earlier: &UringCounters) -> UringCounters {
        UringCounters {
            sq_submits: self.sq_submits - earlier.sq_submits,
            sq_flushes: self.sq_flushes - earlier.sq_flushes,
            flushed_sqes: self.flushed_sqes - earlier.flushed_sqes,
            cq_reaps: self.cq_reaps - earlier.cq_reaps,
            reaped_cqes: self.reaped_cqes - earlier.reaped_cqes,
            sq_full: self.sq_full - earlier.sq_full,
            buf_high_water: self.buf_high_water,
            buf_fallbacks: self.buf_fallbacks - earlier.buf_fallbacks,
            cq_high_water: self.cq_high_water,
        }
    }

    /// Accumulates another counter set (for summing per-worker rings).
    pub fn accumulate(&mut self, other: &UringCounters) {
        self.sq_submits += other.sq_submits;
        self.sq_flushes += other.sq_flushes;
        self.flushed_sqes += other.flushed_sqes;
        self.cq_reaps += other.cq_reaps;
        self.reaped_cqes += other.reaped_cqes;
        self.sq_full += other.sq_full;
        self.buf_high_water = self.buf_high_water.max(other.buf_high_water);
        self.buf_fallbacks += other.buf_fallbacks;
        self.cq_high_water = self.cq_high_water.max(other.cq_high_water);
    }
}

/// A flushed batch: what one `io_uring_enter` crossing carries.
#[derive(Debug, Clone)]
pub struct FlushBatch {
    /// The SQEs submitted, in staging order.
    pub sqes: Vec<Sqe>,
    /// Total system-time cost of the crossing: `enter_base +
    /// enter_per_sqe × n + Σ kernel_cost`.
    pub cost: SimDuration,
}

/// One submission/completion ring pair (one per event-loop worker).
#[derive(Debug, Clone)]
pub struct Ring {
    cfg: UringConfig,
    sq: Vec<Sqe>,
    cq: VecDeque<Cqe>,
    bufs_in_use: usize,
    counters: UringCounters,
}

impl Ring {
    /// A fresh ring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: UringConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid UringConfig: {e}");
        }
        let sq_depth = cfg.sq_depth;
        Ring {
            cfg,
            sq: Vec::with_capacity(sq_depth),
            cq: VecDeque::new(),
            bufs_in_use: 0,
            counters: UringCounters::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &UringConfig {
        &self.cfg
    }

    /// Counters so far (cumulative since ring creation).
    pub fn counters(&self) -> UringCounters {
        self.counters
    }

    /// SQEs currently staged and awaiting a flush.
    pub fn staged_len(&self) -> usize {
        self.sq.len()
    }

    /// CQEs currently posted and awaiting a reap.
    pub fn cq_len(&self) -> usize {
        self.cq.len()
    }

    /// Registered buffers currently held by in-flight writes.
    pub fn bufs_in_use(&self) -> usize {
        self.bufs_in_use
    }

    /// Tries to acquire a registered buffer for a write about to be
    /// staged. Returns `false` (and counts the fallback) when the pool
    /// is exhausted or disabled; the caller then prices the SQE with the
    /// unregistered copy cost and stages it with `registered: false`.
    pub fn acquire_buf(&mut self) -> bool {
        if self.bufs_in_use < self.cfg.registered_buffers {
            self.bufs_in_use += 1;
            self.counters.buf_high_water =
                self.counters.buf_high_water.max(self.bufs_in_use as u64);
            true
        } else {
            self.counters.buf_fallbacks += 1;
            false
        }
    }

    /// Stages one SQE, or reports the ring full.
    pub fn try_stage(&mut self, sqe: Sqe) -> StageOutcome {
        if self.sq.len() >= self.cfg.sq_depth {
            self.counters.sq_full += 1;
            return StageOutcome::Full;
        }
        self.counters.sq_submits += 1;
        self.sq.push(sqe);
        StageOutcome::Staged
    }

    /// Drains the staged SQEs into one flush batch and prices the
    /// kernel crossing. Counts one flush; the caller models the
    /// crossing as a single syscall burst of `batch.cost` and then
    /// executes the operations.
    ///
    /// # Panics
    ///
    /// Panics if nothing is staged (a flush with no SQEs is a driver
    /// bug — the real syscall would be a pointless crossing).
    pub fn begin_flush(&mut self) -> FlushBatch {
        assert!(!self.sq.is_empty(), "flush with an empty submission ring");
        let sqes = std::mem::take(&mut self.sq);
        self.counters.sq_flushes += 1;
        self.counters.flushed_sqes += sqes.len() as u64;
        let mut cost = self.cfg.enter_base + self.cfg.enter_per_sqe * sqes.len() as u64;
        for s in &sqes {
            cost += s.kernel_cost;
        }
        FlushBatch { sqes, cost }
    }

    /// Posts a completion for a finished operation, releasing its
    /// registered buffer if it held one.
    pub fn complete(&mut self, op: Op, result: usize, registered: bool) {
        if registered {
            debug_assert!(self.bufs_in_use > 0, "buffer release without acquire");
            self.bufs_in_use -= 1;
        }
        self.cq.push_back(Cqe { op, result });
        self.counters.cq_high_water = self.counters.cq_high_water.max(self.cq.len() as u64);
    }

    /// Drains every posted CQE as one reap pass and prices the
    /// user-space work. Counts one reap.
    ///
    /// # Panics
    ///
    /// Panics if the completion ring is empty (drivers check `cq_len`
    /// first; an empty reap would skew the batch-size accounting).
    pub fn reap(&mut self) -> (Vec<Cqe>, SimDuration) {
        assert!(!self.cq.is_empty(), "reap with an empty completion ring");
        let cqes: Vec<Cqe> = self.cq.drain(..).collect();
        self.counters.cq_reaps += 1;
        self.counters.reaped_cqes += cqes.len() as u64;
        let cost = self.cfg.reap_base + self.cfg.reap_per_cqe * cqes.len() as u64;
        (cqes, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn ring() -> Ring {
        Ring::new(UringConfig::default())
    }

    #[test]
    fn stage_flush_reap_roundtrip() {
        let mut r = ring();
        assert_eq!(
            r.try_stage(Sqe {
                op: Op::Read { conn: 3 },
                kernel_cost: us(6),
                registered: false
            }),
            StageOutcome::Staged
        );
        assert_eq!(r.staged_len(), 1);
        let batch = r.begin_flush();
        assert_eq!(batch.sqes.len(), 1);
        // enter_base 3us + per_sqe 0.5us + kernel 6us.
        assert_eq!(batch.cost, SimDuration::from_nanos(9_500));
        assert_eq!(r.staged_len(), 0);
        r.complete(batch.sqes[0].op, 128, false);
        assert_eq!(r.cq_len(), 1);
        let (cqes, cost) = r.reap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].op, Op::Read { conn: 3 });
        assert_eq!(cqes[0].result, 128);
        assert_eq!(cost, SimDuration::from_nanos(900));
        let c = r.counters();
        assert_eq!(c.sq_submits, 1);
        assert_eq!(c.sq_flushes, 1);
        assert_eq!(c.flushed_sqes, 1);
        assert_eq!(c.cq_reaps, 1);
        assert_eq!(c.reaped_cqes, 1);
        assert_eq!(c.sq_full, 0);
    }

    #[test]
    fn batched_flush_amortizes_the_crossing() {
        let mut r = ring();
        for i in 0..8 {
            r.try_stage(Sqe {
                op: Op::Read { conn: i },
                kernel_cost: us(6),
                registered: false,
            });
        }
        let batch = r.begin_flush();
        // One crossing for 8 ops: 3 + 8*0.5 + 8*6 = 55us, versus 8
        // separate read() crossings at 6us base each.
        assert_eq!(batch.cost, us(55));
        assert_eq!(r.counters().sq_flushes, 1);
        assert_eq!(r.counters().flushed_sqes, 8);
    }

    #[test]
    fn sq_full_backpressure() {
        let mut r = Ring::new(UringConfig {
            sq_depth: 2,
            ..UringConfig::default()
        });
        let sqe = Sqe {
            op: Op::Read { conn: 0 },
            kernel_cost: us(1),
            registered: false,
        };
        assert_eq!(r.try_stage(sqe), StageOutcome::Staged);
        assert_eq!(r.try_stage(sqe), StageOutcome::Staged);
        assert_eq!(r.try_stage(sqe), StageOutcome::Full);
        assert_eq!(r.counters().sq_full, 1);
        assert_eq!(r.counters().sq_submits, 2);
        // A flush frees the ring.
        let _ = r.begin_flush();
        assert_eq!(r.try_stage(sqe), StageOutcome::Staged);
    }

    #[test]
    fn registered_buffer_pool_accounting() {
        let mut r = Ring::new(UringConfig {
            registered_buffers: 2,
            ..UringConfig::default()
        });
        assert!(r.acquire_buf());
        assert!(r.acquire_buf());
        assert!(!r.acquire_buf(), "pool exhausted");
        assert_eq!(r.counters().buf_high_water, 2);
        assert_eq!(r.counters().buf_fallbacks, 1);
        // Completion of a registered write releases its slot.
        r.complete(Op::Write { conn: 0, bytes: 10 }, 10, true);
        assert_eq!(r.bufs_in_use(), 1);
        assert!(r.acquire_buf());
    }

    #[test]
    fn counters_delta_and_accumulate() {
        let a = UringCounters {
            sq_submits: 10,
            sq_flushes: 4,
            flushed_sqes: 10,
            cq_reaps: 3,
            reaped_cqes: 9,
            sq_full: 1,
            buf_high_water: 5,
            buf_fallbacks: 2,
            cq_high_water: 4,
        };
        let b = UringCounters {
            sq_submits: 4,
            sq_flushes: 2,
            flushed_sqes: 4,
            cq_reaps: 1,
            reaped_cqes: 3,
            sq_full: 0,
            buf_high_water: 3,
            buf_fallbacks: 1,
            cq_high_water: 2,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.sq_submits, 6);
        assert_eq!(d.sq_flushes, 2);
        assert_eq!(d.cq_reaps, 2);
        assert_eq!(d.sq_full, 1);
        assert_eq!(d.buf_high_water, 5, "high-water keeps the later mark");
        let mut sum = b;
        sum.accumulate(&a);
        assert_eq!(sum.sq_submits, 14);
        assert_eq!(sum.buf_high_water, 5);
    }

    #[test]
    fn empty_flush_and_reap_panic() {
        let r = ring();
        assert_eq!(r.staged_len(), 0);
        let result = std::panic::catch_unwind(|| {
            let mut r = Ring::new(UringConfig::default());
            r.begin_flush()
        });
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| {
            let mut r = Ring::new(UringConfig::default());
            r.reap()
        });
        assert!(result.is_err());
    }

    #[test]
    fn op_codes_are_stable() {
        assert_eq!(Op::Read { conn: 0 }.code(), SQ_OP_READ);
        assert_eq!(Op::Write { conn: 0, bytes: 1 }.code(), SQ_OP_WRITE);
        assert_eq!(SQ_OP_READ, 1);
        assert_eq!(SQ_OP_WRITE, 2);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(UringConfig {
            sq_depth: 0,
            ..UringConfig::default()
        }
        .validate()
        .is_err());
    }
}
