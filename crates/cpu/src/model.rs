//! The scheduler state machine.

use asyncinv_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

use crate::burst::{Burst, BurstKind};
use crate::config::{CpuConfig, SchedPolicy};
use crate::stats::CpuStats;

/// Identifies a core of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// Identifies a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Events the scheduler asks the driver to deliver back at a future time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEvent {
    /// The running thread's current burst segment completes.
    BurstDone {
        /// Core the segment runs on.
        core: CoreId,
        /// Dispatch token; stale events (token mismatch) are ignored.
        token: u64,
    },
    /// The running thread's time slice expires before its burst ends.
    SliceExpired {
        /// Core the segment runs on.
        core: CoreId,
        /// Dispatch token; stale events (token mismatch) are ignored.
        token: u64,
    },
}

/// Notification that a thread's submitted burst has fully executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The thread whose burst completed.
    pub thread: ThreadId,
    /// The tag supplied at [`CpuModel::submit`] time.
    pub tag: u64,
}

/// What [`CpuModel::retire_cycles`] did: how many whole cycles it ran and
/// how long one cycle took at the current slowdown. Cycle `i` (from 1)
/// ended at `now + i × period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Whole cycles retired.
    pub cycles: u64,
    /// CPU time of one cycle.
    pub period: SimDuration,
}

/// A scheduling moment, recorded (only when [`CpuModel::record_sched`] is
/// on) for observability layers that reconstruct per-thread timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A core dispatched a thread different from its previous occupant —
    /// recorded exactly when the `context_switches` statistic increments,
    /// so a log's switch count always equals the counter delta.
    Switch {
        /// When the switch began.
        at: SimTime,
        /// The incoming thread.
        thread: ThreadId,
        /// Whether the thread migrated off its home core (work stealing).
        migrated: bool,
    },
    /// A thread blocked with no pending work.
    Park {
        /// When the thread blocked.
        at: SimTime,
        /// The parking thread.
        thread: ThreadId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// No pending work; not queued.
    Blocked,
    /// Pending work; waiting in the ready queue.
    Ready,
    /// Executing on a core.
    Running(CoreId),
    /// Burst just completed; the completion is being delivered to the model,
    /// which may chain another burst on the same core without a switch.
    Finishing(CoreId),
}

#[derive(Debug)]
struct Thread {
    name: String,
    /// Home core under the per-core scheduling policy.
    home: CoreId,
    state: ThreadState,
    /// Remaining CPU time of the current burst.
    remaining: SimDuration,
    kind: BurstKind,
    tag: u64,
}

#[derive(Debug)]
struct Core {
    current: Option<ThreadId>,
    /// The thread that most recently ran on this core (for switch detection).
    last: Option<ThreadId>,
    token: u64,
    /// Start of the currently executing segment (excludes switch cost).
    segment_start: SimTime,
    /// Planned length of the currently executing segment.
    segment_len: SimDuration,
    /// Slice budget left for the current occupancy. Chained bursts consume
    /// the same budget, so a thread spinning through many small bursts is
    /// still preempted at slice boundaries like a real busy thread.
    slice_remaining: SimDuration,
    /// Fault injection: no segment may start before this instant (worker
    /// stall / GC-style pause). Stays `SimTime::ZERO` outside faults, which
    /// makes the clamp in `start_segment` an exact identity.
    frozen_until: SimTime,
}

/// The machine: cores, threads, ready queue, and accounting.
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug)]
pub struct CpuModel {
    cfg: CpuConfig,
    threads: Vec<Thread>,
    cores: Vec<Core>,
    /// Global run queue ([`SchedPolicy::GlobalQueue`]).
    ready: VecDeque<ThreadId>,
    /// Per-core run queues ([`SchedPolicy::PerCore`]).
    core_ready: Vec<VecDeque<ThreadId>>,
    stats: CpuStats,
    /// Scheduling log, populated only when `sched_log_on` (one branch per
    /// dispatch/park on the disabled path).
    sched_log: Vec<SchedEvent>,
    sched_log_on: bool,
    /// Fault injection: burst durations are multiplied by this factor at
    /// submit time (core slowdown / thermal throttle). Exactly 1.0 outside
    /// faults, and the scaling branch is skipped entirely at 1.0 so
    /// unfaulted runs stay bit-identical.
    slowdown: f64,
}

impl CpuModel {
    /// Creates a machine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero or `cfg.time_slice` is zero.
    pub fn new(cfg: CpuConfig) -> Self {
        assert!(cfg.cores > 0, "a machine needs at least one core");
        assert!(!cfg.time_slice.is_zero(), "time slice must be positive");
        let cores = (0..cfg.cores)
            .map(|_| Core {
                current: None,
                last: None,
                token: 0,
                segment_start: SimTime::ZERO,
                segment_len: SimDuration::ZERO,
                slice_remaining: SimDuration::ZERO,
                frozen_until: SimTime::ZERO,
            })
            .collect();
        let n = cfg.cores;
        CpuModel {
            cfg,
            threads: Vec::new(),
            cores,
            ready: VecDeque::new(),
            core_ready: (0..n).map(|_| VecDeque::new()).collect(),
            stats: CpuStats::default(),
            sched_log: Vec::new(),
            sched_log_on: false,
            slowdown: 1.0,
        }
    }

    /// Turns the scheduling log on or off. Off (the default) costs one
    /// branch per dispatch; on, every switch and park is appended for
    /// [`CpuModel::drain_sched_log`] to consume.
    pub fn record_sched(&mut self, on: bool) {
        self.sched_log_on = on;
    }

    /// Drains the scheduling log accumulated since the last call.
    pub fn drain_sched_log(&mut self) -> std::vec::Drain<'_, SchedEvent> {
        self.sched_log.drain(..)
    }

    /// `true` when the scheduling log holds nothing left to drain.
    pub fn sched_log_is_empty(&self) -> bool {
        self.sched_log.is_empty()
    }

    /// The machine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Accumulated scheduler statistics.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Creates a new thread in the blocked state.
    pub fn spawn_thread(&mut self, name: impl Into<String>) -> ThreadId {
        let id = ThreadId(self.threads.len());
        let home = CoreId(self.threads.len() % self.cfg.cores);
        self.threads.push(Thread {
            name: name.into(),
            home,
            state: ThreadState::Blocked,
            remaining: SimDuration::ZERO,
            kind: BurstKind::User,
            tag: 0,
        });
        self.stats.threads_spawned += 1;
        id
    }

    /// Number of threads spawned so far.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The name given to `tid` at spawn time.
    pub fn thread_name(&self, tid: ThreadId) -> &str {
        &self.threads[tid.0].name
    }

    /// Number of threads currently waiting in run queues.
    pub fn runnable(&self) -> usize {
        self.ready.len() + self.core_ready.iter().map(VecDeque::len).sum::<usize>()
    }

    /// The home core assigned to `tid` under per-core scheduling.
    pub fn thread_home(&self, tid: ThreadId) -> CoreId {
        self.threads[tid.0].home
    }

    /// Times a ready thread was migrated off its home core (work stealing).
    fn enqueue_ready(&mut self, tid: ThreadId) {
        match self.cfg.policy {
            SchedPolicy::GlobalQueue => self.ready.push_back(tid),
            SchedPolicy::PerCore { .. } => {
                let home = self.threads[tid.0].home;
                self.core_ready[home.0].push_back(tid);
            }
        }
    }

    /// Picks the next thread for `core`: own/global queue first, then (if
    /// stealing) the longest other queue. Returns the thread and whether it
    /// migrated (cold caches).
    fn pop_ready_for(&mut self, core: CoreId) -> Option<(ThreadId, bool)> {
        match self.cfg.policy {
            SchedPolicy::GlobalQueue => self.ready.pop_front().map(|t| (t, false)),
            SchedPolicy::PerCore { steal } => {
                if let Some(t) = self.core_ready[core.0].pop_front() {
                    return Some((t, false));
                }
                if !steal {
                    return None;
                }
                let victim = (0..self.core_ready.len())
                    .filter(|&i| i != core.0)
                    .max_by_key(|&i| self.core_ready[i].len())?;
                if self.core_ready[victim].is_empty() {
                    return None;
                }
                self.stats.steals += 1;
                // Steal from the tail: the head is hottest on its home core.
                self.core_ready[victim].pop_back().map(|t| (t, true))
            }
        }
    }

    /// `true` when some ready thread could run on `core` right now.
    fn has_ready_for(&self, core: CoreId) -> bool {
        match self.cfg.policy {
            SchedPolicy::GlobalQueue => !self.ready.is_empty(),
            SchedPolicy::PerCore { steal } => {
                if !self.core_ready[core.0].is_empty() {
                    return true;
                }
                steal && self.core_ready.iter().any(|q| !q.is_empty())
            }
        }
    }

    /// `true` if the thread has no pending or running burst.
    pub fn is_blocked(&self, tid: ThreadId) -> bool {
        self.threads[tid.0].state == ThreadState::Blocked
    }

    /// Submits a burst of CPU work on behalf of `tid`.
    ///
    /// Timestamped follow-up events are pushed into `out`; the caller must
    /// schedule them and later route them to [`CpuModel::on_event`].
    ///
    /// If `tid` is in the *finishing* state (its previous burst's completion
    /// is being delivered right now), the new burst chains on the same core
    /// without a context switch. Otherwise the thread must be blocked; it
    /// becomes ready and is dispatched as soon as a core is free.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has a pending or running burst, or if
    /// the burst duration is zero.
    pub fn submit(
        &mut self,
        now: SimTime,
        tid: ThreadId,
        burst: Burst,
        tag: u64,
        out: &mut Vec<(SimTime, CpuEvent)>,
    ) {
        assert!(
            !burst.duration.is_zero(),
            "zero-length bursts are not allowed; skip the submit instead"
        );
        if burst.kind == BurstKind::Syscall {
            self.stats.syscall_bursts += 1;
        }
        let burst = Burst {
            duration: self.scaled(burst.duration),
            kind: burst.kind,
        };
        let state = self.threads[tid.0].state;
        match state {
            ThreadState::Finishing(core) => {
                let th = &mut self.threads[tid.0];
                th.remaining = burst.duration;
                th.kind = burst.kind;
                th.tag = tag;
                th.state = ThreadState::Running(core);
                self.start_segment(now, core, tid, out);
            }
            ThreadState::Blocked => {
                let th = &mut self.threads[tid.0];
                th.remaining = burst.duration;
                th.kind = burst.kind;
                th.tag = tag;
                th.state = ThreadState::Ready;
                self.enqueue_ready(tid);
                self.dispatch_idle_cores(now, out);
            }
            other => panic!("submit to thread {tid:?} in state {other:?}"),
        }
    }

    /// A burst duration under the current slowdown factor (the identity
    /// at native speed).
    #[inline]
    fn scaled(&self, d: SimDuration) -> SimDuration {
        if self.slowdown == 1.0 {
            return d;
        }
        let ns = (d.as_nanos() as f64 * self.slowdown).ceil() as u64;
        SimDuration::from_nanos(ns.max(1))
    }

    /// Runs whole repetitions of `cycle` for the finishing thread `tid`
    /// inline, without scheduling their events: the arithmetic a driver
    /// would otherwise reach by submitting the cycle's bursts one after
    /// another from each completion, chaining on the same core.
    ///
    /// This is exact, not an approximation. A cycle is retired only when
    /// nothing else can happen before all of its completions: every one of
    /// them lies strictly before `horizon`, which the driver sets to its
    /// earliest pending event (so no event of the same instant is
    /// overtaken either). With no waiter for the core, slice boundaries
    /// renew for free and the slice budget is carried forward in closed
    /// form. With a waiter, only cycles that fit in the slice left are
    /// retired, so the preemption still happens at the boundary. Retired
    /// bursts are charged to the same user/system times and kernel-crossing
    /// counts as submitted ones. The model also retires nothing while the
    /// core is frozen by a stall fault.
    ///
    /// On return the thread is still finishing, at `now + cycles × period`;
    /// the caller resumes its model there. Returns zero cycles (and changes
    /// nothing) when `tid` is not finishing.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty or holds a zero-length burst.
    pub fn retire_cycles(
        &mut self,
        now: SimTime,
        tid: ThreadId,
        cycle: &[Burst],
        horizon: SimTime,
    ) -> Retired {
        assert!(
            !cycle.is_empty() && cycle.iter().all(|b| !b.duration.is_zero()),
            "a retired cycle needs at least one burst, none of zero length"
        );
        let period: SimDuration = cycle.iter().map(|b| self.scaled(b.duration)).sum();
        let none = Retired { cycles: 0, period };
        let ThreadState::Finishing(core) = self.threads[tid.0].state else {
            return none;
        };
        if self.cores[core.0].frozen_until > now || horizon <= now {
            return none;
        }
        // Cycle n's last completion lands at now + n × period < horizon.
        let mut cycles = (horizon.duration_since(now).as_nanos() - 1) / period.as_nanos();
        let slice = self.cores[core.0].slice_remaining;
        let waiter = self.has_ready_for(core);
        if waiter {
            cycles = cycles.min(slice.as_nanos() / period.as_nanos());
        }
        if cycles == 0 {
            return none;
        }
        let busy = period * cycles;
        self.cores[core.0].slice_remaining = if waiter {
            slice - busy
        } else {
            // An empty slice renews at the next segment start; one that
            // runs out mid-burst renews on the spot. Either way the budget
            // wraps every `time_slice`, and a boundary that falls exactly
            // on the last completion leaves it empty, as a burst end would.
            let first = if slice.is_zero() {
                self.cfg.time_slice
            } else {
                slice
            };
            if busy < first {
                first - busy
            } else {
                let over = (busy - first).as_nanos() % self.cfg.time_slice.as_nanos();
                if over == 0 {
                    SimDuration::ZERO
                } else {
                    self.cfg.time_slice - SimDuration::from_nanos(over)
                }
            }
        };
        for b in cycle {
            let d = self.scaled(b.duration) * cycles;
            match b.kind {
                BurstKind::User => self.stats.user_time += d,
                BurstKind::Syscall => {
                    self.stats.sys_time += d;
                    self.stats.syscall_bursts += cycles;
                }
            }
        }
        self.threads[tid.0].kind = cycle[cycle.len() - 1].kind;
        self.stats.retired_bursts += cycles * cycle.len() as u64;
        Retired { cycles, period }
    }

    /// Declares that `tid` will not chain another burst: it blocks, the core
    /// is released, and the next ready thread (if any) is dispatched.
    ///
    /// A no-op when the thread is not in the finishing state, so drivers may
    /// call it unconditionally after delivering a completion.
    pub fn finish_turn(&mut self, now: SimTime, tid: ThreadId, out: &mut Vec<(SimTime, CpuEvent)>) {
        if let ThreadState::Finishing(core) = self.threads[tid.0].state {
            self.threads[tid.0].state = ThreadState::Blocked;
            self.cores[core.0].current = None;
            if self.sched_log_on {
                self.sched_log.push(SchedEvent::Park {
                    at: now,
                    thread: tid,
                });
            }
            self.dispatch_core(now, core, out);
        }
    }

    /// Routes a previously scheduled [`CpuEvent`] back into the model.
    ///
    /// Returns a [`Completion`] when a thread's burst finished; the caller
    /// must deliver it to the owning model and then call
    /// [`CpuModel::finish_turn`] (which no-ops if the model chained a new
    /// burst via [`CpuModel::submit`]).
    pub fn on_event(
        &mut self,
        now: SimTime,
        ev: CpuEvent,
        out: &mut Vec<(SimTime, CpuEvent)>,
    ) -> Option<Completion> {
        match ev {
            CpuEvent::BurstDone { core, token } => {
                if self.cores[core.0].token != token {
                    return None; // stale: the segment was preempted
                }
                let tid = self.cores[core.0]
                    .current
                    .expect("BurstDone on an idle core");
                let seg = self.cores[core.0].segment_len;
                self.charge(tid, seg);
                let th = &mut self.threads[tid.0];
                debug_assert_eq!(th.remaining, seg, "BurstDone with leftover work");
                th.remaining = SimDuration::ZERO;
                th.state = ThreadState::Finishing(core);
                // Invalidate the slice-expiry event for this segment, if any.
                self.cores[core.0].token += 1;
                self.cores[core.0].slice_remaining -= seg;
                Some(Completion {
                    thread: tid,
                    tag: th.tag,
                })
            }
            CpuEvent::SliceExpired { core, token } => {
                if self.cores[core.0].token != token {
                    return None;
                }
                let tid = self.cores[core.0]
                    .current
                    .expect("SliceExpired on an idle core");
                let seg = self.cores[core.0].segment_len;
                self.charge(tid, seg);
                let th = &mut self.threads[tid.0];
                th.remaining -= seg;
                debug_assert!(!th.remaining.is_zero());
                self.cores[core.0].token += 1;
                self.cores[core.0].slice_remaining -= seg;
                if !self.has_ready_for(core) {
                    // Nobody is waiting: keep the core for another slice.
                    self.cores[core.0].slice_remaining = self.cfg.time_slice;
                    self.start_segment(now, core, tid, out);
                } else {
                    self.stats.preemptions += 1;
                    self.threads[tid.0].state = ThreadState::Ready;
                    self.enqueue_ready(tid);
                    self.cores[core.0].current = None;
                    self.dispatch_core(now, core, out);
                }
                None
            }
        }
    }

    /// Starts (or continues) a segment of `tid`'s burst on `core` at `now`,
    /// with no switch cost. The thread must already own the core.
    fn start_segment(
        &mut self,
        now: SimTime,
        core: CoreId,
        tid: ThreadId,
        out: &mut Vec<(SimTime, CpuEvent)>,
    ) {
        // Stall faults: no segment starts inside a freeze window. Outside
        // faults `frozen_until` is ZERO and the clamp is the identity.
        let now = now.max(self.cores[core.0].frozen_until);
        let remaining = self.threads[tid.0].remaining;
        debug_assert!(!remaining.is_zero());
        if self.cores[core.0].slice_remaining.is_zero() {
            // A chain of bursts exhausted the slice exactly at a burst
            // boundary: renew for free when alone, otherwise preempt.
            if !self.has_ready_for(core) {
                self.cores[core.0].slice_remaining = self.cfg.time_slice;
            } else {
                self.stats.preemptions += 1;
                self.threads[tid.0].state = ThreadState::Ready;
                self.enqueue_ready(tid);
                self.cores[core.0].current = None;
                self.dispatch_core(now, core, out);
                return;
            }
        }
        let c = &mut self.cores[core.0];
        c.current = Some(tid);
        c.last = Some(tid);
        c.token += 1;
        let token = c.token;
        let seg = remaining.min(c.slice_remaining);
        c.segment_start = now;
        c.segment_len = seg;
        let ev = if seg == remaining {
            CpuEvent::BurstDone { core, token }
        } else {
            CpuEvent::SliceExpired { core, token }
        };
        out.push((now + seg, ev));
    }

    /// Picks the next ready thread for an idle `core`, paying the context
    /// switch cost when the incoming thread differs from the last one.
    fn dispatch_core(&mut self, now: SimTime, core: CoreId, out: &mut Vec<(SimTime, CpuEvent)>) {
        debug_assert!(self.cores[core.0].current.is_none());
        let Some((tid, migrated)) = self.pop_ready_for(core) else {
            return;
        };
        debug_assert_eq!(self.threads[tid.0].state, ThreadState::Ready);
        self.threads[tid.0].state = ThreadState::Running(core);
        let last = self.cores[core.0].last;
        let switch = last.is_some() && last != Some(tid);
        let start = if switch || migrated {
            let mut cost = self.cfg.effective_cs_cost(self.runnable() + 1);
            if migrated {
                // Cold-cache migration: the working set must be refetched.
                cost = cost * 2;
            }
            self.stats.context_switches += 1;
            self.stats.switch_overhead += cost;
            if self.sched_log_on {
                self.sched_log.push(SchedEvent::Switch {
                    at: now,
                    thread: tid,
                    migrated,
                });
            }
            now + cost
        } else {
            now
        };
        self.cores[core.0].slice_remaining = self.cfg.time_slice;
        self.start_segment(start, core, tid, out);
    }

    /// Dispatches ready threads onto every idle core.
    fn dispatch_idle_cores(&mut self, now: SimTime, out: &mut Vec<(SimTime, CpuEvent)>) {
        for i in 0..self.cores.len() {
            if self.runnable() == 0 {
                break;
            }
            if self.cores[i].current.is_none() {
                self.dispatch_core(now, CoreId(i), out);
            }
        }
    }

    /// Fault hook: multiplies every subsequently submitted burst's duration
    /// by `factor` (core slowdown, e.g. thermal throttling or a noisy
    /// neighbor). `1.0` reverts to native speed.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be positive, got {factor}"
        );
        self.slowdown = factor;
    }

    /// The current slowdown factor (1.0 = native speed).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Fault hook: stalls `core` (or every core, when `None`) for `dur`
    /// starting at `now` — a worker stall, or a GC-style global pause.
    ///
    /// A segment executing on a stalled core is interrupted: the CPU time
    /// already consumed is charged, the in-flight completion event is
    /// invalidated via the dispatch token, and the remainder restarts when
    /// the freeze lifts. Threads dispatched during the freeze start after
    /// it (the clamp in `start_segment`). Overlapping stalls extend the
    /// freeze to the latest end.
    pub fn inject_stall(
        &mut self,
        now: SimTime,
        core: Option<CoreId>,
        dur: SimDuration,
        out: &mut Vec<(SimTime, CpuEvent)>,
    ) {
        match core {
            Some(c) => self.stall_core(now, c, dur, out),
            None => {
                for i in 0..self.cores.len() {
                    self.stall_core(now, CoreId(i), dur, out);
                }
            }
        }
    }

    fn stall_core(
        &mut self,
        now: SimTime,
        core: CoreId,
        dur: SimDuration,
        out: &mut Vec<(SimTime, CpuEvent)>,
    ) {
        let until = (now + dur).max(self.cores[core.0].frozen_until);
        self.cores[core.0].frozen_until = until;
        let Some(tid) = self.cores[core.0].current else {
            return; // idle core: only future dispatches are delayed
        };
        if self.threads[tid.0].state != ThreadState::Running(core) {
            return; // finishing: between bursts, nothing to interrupt
        }
        let seg_start = self.cores[core.0].segment_start;
        let seg_len = self.cores[core.0].segment_len;
        if seg_start + seg_len <= now {
            // The segment completes at this very instant; its event is
            // already due. Let it play out — the freeze only delays what
            // comes next.
            return;
        }
        // Interrupt mid-segment: charge the elapsed share, cancel the
        // pending event, and restart the remainder after the freeze. A
        // segment scheduled to start in the future (post-switch-cost)
        // simply restarts from its planned start.
        let elapsed = if seg_start > now {
            SimDuration::ZERO
        } else {
            now.duration_since(seg_start)
        };
        if !elapsed.is_zero() {
            self.charge(tid, elapsed);
            self.threads[tid.0].remaining -= elapsed;
        }
        let c = &mut self.cores[core.0];
        c.token += 1;
        c.slice_remaining = c.slice_remaining.saturating_sub(elapsed);
        let restart = seg_start.max(now);
        self.start_segment(restart, core, tid, out);
    }

    fn charge(&mut self, tid: ThreadId, seg: SimDuration) {
        match self.threads[tid.0].kind {
            BurstKind::User => self.stats.user_time += seg,
            BurstKind::Syscall => self.stats.sys_time += seg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny driver that pumps CPU events through a Simulation.
    struct Driver {
        cpu: CpuModel,
        sim: asyncinv_simcore::Simulation<CpuEvent>,
        out: Vec<(SimTime, CpuEvent)>,
    }

    impl Driver {
        fn new(cfg: CpuConfig) -> Self {
            Driver {
                cpu: CpuModel::new(cfg),
                sim: asyncinv_simcore::Simulation::new(),
                out: Vec::new(),
            }
        }

        fn flush(&mut self) {
            for (at, ev) in self.out.drain(..) {
                self.sim.schedule_at(at, ev);
            }
        }

        fn submit(&mut self, tid: ThreadId, burst: Burst, tag: u64) {
            let now = self.sim.now();
            self.cpu.submit(now, tid, burst, tag, &mut self.out);
            self.flush();
        }

        /// Runs until the next completion, blocking the completing thread.
        fn next_completion(&mut self) -> Option<(SimTime, Completion)> {
            while let Some((now, ev)) = self.sim.next_event() {
                let done = self.cpu.on_event(now, ev, &mut self.out);
                self.flush();
                if let Some(c) = done {
                    self.cpu.finish_turn(now, c.thread, &mut self.out);
                    self.flush();
                    return Some((now, c));
                }
            }
            None
        }
    }

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn single_burst_runs_to_completion() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(us(10)), 42);
        let (now, c) = d.next_completion().unwrap();
        assert_eq!(now.as_micros(), 10);
        assert_eq!(c, Completion { thread: t, tag: 42 });
        assert_eq!(d.cpu.stats().user_time, us(10));
        assert_eq!(
            d.cpu.stats().context_switches,
            0,
            "idle -> first thread is free"
        );
    }

    #[test]
    fn same_thread_resume_costs_nothing() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(us(10)), 0);
        d.next_completion().unwrap();
        d.submit(t, Burst::syscall(us(5)), 1);
        let (now, _) = d.next_completion().unwrap();
        assert_eq!(now.as_micros(), 15);
        assert_eq!(d.cpu.stats().context_switches, 0);
        assert_eq!(d.cpu.stats().sys_time, us(5));
    }

    #[test]
    fn handoff_between_threads_counts_switch() {
        let cfg = CpuConfig {
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::single_core()
        };
        let cs = cfg.cs_cost;
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(10)), 0);
        d.next_completion().unwrap();
        d.submit(b, Burst::user(us(10)), 1);
        let (now, c) = d.next_completion().unwrap();
        assert_eq!(c.thread, b);
        assert_eq!(d.cpu.stats().context_switches, 1);
        assert_eq!(now, SimTime::from_micros(20) + cs);
        assert_eq!(d.cpu.stats().switch_overhead, cs);
    }

    #[test]
    fn two_ready_threads_serialize_on_one_core() {
        let mut d = Driver::new(CpuConfig::single_core());
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(10)), 1);
        let (_, c1) = d.next_completion().unwrap();
        let (t2, c2) = d.next_completion().unwrap();
        assert_eq!(c1.thread, a);
        assert_eq!(c2.thread, b);
        assert!(t2.as_micros() > 20, "b pays a's time plus a switch");
        assert_eq!(d.cpu.stats().context_switches, 1);
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut d = Driver::new(CpuConfig::multi_core(2));
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(10)), 1);
        let (t1, _) = d.next_completion().unwrap();
        let (t2, _) = d.next_completion().unwrap();
        assert_eq!(t1.as_micros(), 10);
        assert_eq!(t2.as_micros(), 10);
        assert_eq!(d.cpu.stats().context_switches, 0);
    }

    #[test]
    fn chained_burst_continues_without_switch_even_with_waiters() {
        // Thread A chains read->compute while B is ready: A keeps the core.
        let mut d = Driver::new(CpuConfig::single_core());
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(10)), 9);

        // Drive manually so A chains at its completion instant.
        let mut completed = Vec::new();
        while let Some((now, ev)) = d.sim.next_event() {
            if let Some(c) = d.cpu.on_event(now, ev, &mut d.out) {
                d.flush();
                if c.thread == a && c.tag == 0 {
                    d.cpu.submit(now, a, Burst::user(us(5)), 1, &mut d.out);
                }
                d.cpu.finish_turn(now, c.thread, &mut d.out);
                d.flush();
                completed.push((now, c));
            }
            d.flush();
        }
        // Order: a(tag0) at 10, a(tag1) at 15, b after a switch.
        assert_eq!(completed[0].1, Completion { thread: a, tag: 0 });
        assert_eq!(completed[1].1, Completion { thread: a, tag: 1 });
        assert_eq!(completed[1].0.as_micros(), 15);
        assert_eq!(completed[2].1.thread, b);
        assert_eq!(d.cpu.stats().context_switches, 1);
    }

    #[test]
    fn preemption_round_robins_long_bursts() {
        let cfg = CpuConfig {
            time_slice: us(100),
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::single_core()
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(250)), 0);
        d.submit(b, Burst::user(us(250)), 1);
        let (ta, ca) = d.next_completion().unwrap();
        let (tb, cb) = d.next_completion().unwrap();
        // With RR at 100us slices: a and b interleave; a finishes first.
        assert_eq!(ca.thread, a);
        assert_eq!(cb.thread, b);
        assert!(ta < tb);
        assert!(
            d.cpu.stats().preemptions >= 3,
            "preemptions: {}",
            d.cpu.stats().preemptions
        );
        assert_eq!(d.cpu.stats().user_time, us(500));
    }

    #[test]
    fn slice_renews_free_when_alone() {
        let cfg = CpuConfig {
            time_slice: us(100),
            ..CpuConfig::single_core()
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a");
        d.submit(a, Burst::user(us(550)), 0);
        let (now, _) = d.next_completion().unwrap();
        assert_eq!(now.as_micros(), 550, "no preemption overhead when alone");
        assert_eq!(d.cpu.stats().preemptions, 0);
        assert_eq!(d.cpu.stats().context_switches, 0);
    }

    #[test]
    fn stale_events_are_ignored() {
        let cfg = CpuConfig {
            time_slice: us(100),
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::single_core()
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        // a's burst is longer than a slice, so a BurstDone for segment 1 is
        // never scheduled, but the SliceExpired from segment 1 becomes stale
        // after preemption if b also generates events. Verify no panics and
        // exact conservation of CPU time.
        d.submit(a, Burst::user(us(150)), 0);
        d.submit(b, Burst::user(us(30)), 1);
        while d.next_completion().is_some() {}
        assert_eq!(d.cpu.stats().user_time, us(180));
    }

    #[test]
    fn accounting_splits_user_and_sys() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(us(7)), 0);
        d.next_completion().unwrap();
        d.submit(t, Burst::syscall(us(3)), 1);
        d.next_completion().unwrap();
        let s = d.cpu.stats();
        assert_eq!((s.user_time, s.sys_time), (us(7), us(3)));
    }

    #[test]
    #[should_panic(expected = "submit to thread")]
    fn double_submit_panics() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(us(10)), 0);
        d.submit(t, Burst::user(us(10)), 1);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_burst_panics() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(SimDuration::ZERO), 0);
    }

    #[test]
    fn finish_turn_is_idempotent() {
        let mut d = Driver::new(CpuConfig::single_core());
        let t = d.cpu.spawn_thread("t");
        d.submit(t, Burst::user(us(10)), 0);
        let (now, c) = d.next_completion().unwrap();
        // next_completion already called finish_turn once.
        d.cpu.finish_turn(now, c.thread, &mut d.out);
        assert!(d.cpu.is_blocked(t));
    }

    #[test]
    fn chained_spin_is_preempted_at_slice_boundary() {
        // A "write-spinning" thread chains endless small bursts; with B
        // ready it must lose the core at a slice boundary rather than
        // starving B forever.
        let cfg = CpuConfig {
            time_slice: us(100),
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::single_core()
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("spinner");
        let b = d.cpu.spawn_thread("victim");
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(30)), 99);
        let mut b_done_at = None;
        let mut spins = 0u32;
        while let Some((now, ev)) = d.sim.next_event() {
            if let Some(c) = d.cpu.on_event(now, ev, &mut d.out) {
                d.flush();
                if c.thread == a && spins < 50 {
                    spins += 1;
                    d.cpu.submit(now, a, Burst::user(us(10)), 0, &mut d.out);
                }
                if c.thread == b {
                    b_done_at = Some(now);
                }
                d.cpu.finish_turn(now, c.thread, &mut d.out);
            }
            d.flush();
        }
        // 50 spins x 10us = 500us of spinning; B (30us) must slot in at the
        // first 100us slice boundary, not after the whole spin chain.
        let done = b_done_at.expect("victim never ran");
        assert!(done.as_micros() < 200, "victim finished too late: {done}");
        assert!(d.cpu.stats().preemptions >= 1);
    }

    /// Puts a spinner (and, with `waiter`, a second thread queued behind
    /// it) on one core and runs until the spinner's first burst of
    /// `first` completes, then slows the machine by `slowdown`. Returns
    /// the driver with the spinner finishing, and that instant.
    fn spin_setup(
        cfg: &CpuConfig,
        first: SimDuration,
        waiter: bool,
        slowdown: f64,
    ) -> (Driver, SimTime) {
        let mut d = Driver::new(cfg.clone());
        let a = d.cpu.spawn_thread("spinner");
        let b = d.cpu.spawn_thread("waiter");
        d.submit(a, Burst::user(first), 100);
        if waiter {
            d.submit(b, Burst::user(us(40)), 200);
        }
        loop {
            let (now, ev) = d.sim.next_event().expect("spinner never finished");
            let done = d.cpu.on_event(now, ev, &mut d.out);
            d.flush();
            if let Some(c) = done {
                assert_eq!(c.thread, a, "the spinner runs first");
                d.cpu.set_slowdown(slowdown);
                return (d, now);
            }
        }
    }

    /// Chains `n` repetitions of `cycle` for the finishing thread 0
    /// through the event queue, the way a spinning model does.
    fn step_cycles(d: &mut Driver, mut now: SimTime, cycle: &[Burst], n: u64) -> SimTime {
        for _ in 0..n {
            for b in cycle {
                d.cpu.submit(now, ThreadId(0), *b, 7, &mut d.out);
                d.flush();
                loop {
                    let (t, ev) = d.sim.next_event().expect("burst lost");
                    let done = d.cpu.on_event(t, ev, &mut d.out);
                    d.flush();
                    if let Some(c) = done {
                        assert_eq!(c.thread, ThreadId(0), "the spinner was preempted");
                        now = t;
                        break;
                    }
                }
            }
        }
        now
    }

    /// Submits one more burst for the finishing spinner at `now` and runs
    /// the machine dry: every completion (time, thread, tag) in order, and
    /// the final statistics without the retired-burst count.
    fn run_dry(d: &mut Driver, now: SimTime) -> (Vec<(u64, usize, u64)>, CpuStats) {
        d.cpu
            .submit(now, ThreadId(0), Burst::syscall(us(3)), 999, &mut d.out);
        d.cpu.finish_turn(now, ThreadId(0), &mut d.out);
        d.flush();
        let mut log = Vec::new();
        while let Some((t, ev)) = d.sim.next_event() {
            if let Some(c) = d.cpu.on_event(t, ev, &mut d.out) {
                log.push((t.as_nanos(), c.thread.0, c.tag));
                d.cpu.finish_turn(t, c.thread, &mut d.out);
            }
            d.flush();
        }
        let stats = CpuStats {
            retired_bursts: 0,
            ..*d.cpu.stats()
        };
        (log, stats)
    }

    #[test]
    fn retired_cycles_match_stepped_cycles() {
        let cycle = [Burst::user(us(7)), Burst::syscall(us(2))];
        let ns = SimDuration::from_nanos;
        let mut retired_any = false;
        for slice_us in [27u64, 50, 1_000] {
            let cfg = CpuConfig {
                time_slice: us(slice_us),
                ..CpuConfig::single_core()
            };
            for first in [us(5), us(27), us(slice_us)] {
                for waiter in [false, true] {
                    for slowdown in [1.0, 1.7] {
                        // 1 ns past 27, 45 or 54 us, the last retired cycle
                        // ends exactly on a slice boundary for some slices.
                        let reaches = [
                            ns(1),
                            us(9),
                            us(9) + ns(1),
                            us(27) + ns(1),
                            us(45) + ns(1),
                            us(54) + ns(1),
                            us(200),
                            us(10_000),
                        ];
                        for reach in reaches {
                            let (mut fast, t0) = spin_setup(&cfg, first, waiter, slowdown);
                            let r = fast.cpu.retire_cycles(t0, ThreadId(0), &cycle, t0 + reach);
                            assert!(t0 + r.period * r.cycles < t0 + reach, "crossed the horizon");
                            let (mut slow, s0) = spin_setup(&cfg, first, waiter, slowdown);
                            assert_eq!(t0, s0);
                            let t1 = step_cycles(&mut slow, s0, &cycle, r.cycles);
                            assert_eq!(t1, t0 + r.period * r.cycles);
                            assert_eq!(
                                fast.cpu.cores[0].slice_remaining,
                                slow.cpu.cores[0].slice_remaining,
                                "slice {slice_us}us first {first} waiter {waiter} x{slowdown}"
                            );
                            assert_eq!(fast.cpu.stats().retired_bursts, 2 * r.cycles);
                            assert_eq!(run_dry(&mut fast, t1), run_dry(&mut slow, t1));
                            retired_any |= r.cycles > 0;
                        }
                    }
                }
            }
        }
        assert!(retired_any);
    }

    #[test]
    fn retirement_stops_at_the_horizon_or_a_waiters_slice_boundary() {
        let cycle = [Burst::user(us(7)), Burst::syscall(us(2))];
        let cfg = CpuConfig {
            time_slice: us(100),
            ..CpuConfig::single_core()
        };
        // Alone: the horizon alone bounds it (strictly before).
        let (mut d, t0) = spin_setup(&cfg, us(1), false, 1.0);
        let r = d.cpu.retire_cycles(t0, ThreadId(0), &cycle, t0 + us(90));
        assert_eq!(
            (r.cycles, r.period),
            (9, us(9)),
            "the 10th ends at the horizon"
        );
        // A waiter: only what fits in the 99 us of slice left.
        let (mut d, t0) = spin_setup(&cfg, us(1), true, 1.0);
        let r = d
            .cpu
            .retire_cycles(t0, ThreadId(0), &cycle, t0 + us(10_000));
        assert_eq!(r.cycles, 11);
        assert_eq!(d.cpu.cores[0].slice_remaining, us(0));
    }

    #[test]
    fn nothing_retires_off_the_finishing_path() {
        let cycle = [Burst::user(us(7)), Burst::syscall(us(2))];
        let (mut d, t0) = spin_setup(&CpuConfig::single_core(), us(5), false, 1.0);
        // The horizon is the current instant: nothing fits.
        assert_eq!(d.cpu.retire_cycles(t0, ThreadId(0), &cycle, t0).cycles, 0);
        // A frozen core starts nothing before the stall lifts.
        d.cpu.cores[0].frozen_until = t0 + us(1);
        assert_eq!(
            d.cpu
                .retire_cycles(t0, ThreadId(0), &cycle, t0 + us(500))
                .cycles,
            0
        );
        d.cpu.cores[0].frozen_until = SimTime::ZERO;
        // A blocked thread is not mid-callback.
        d.cpu.finish_turn(t0, ThreadId(0), &mut d.out);
        assert_eq!(
            d.cpu
                .retire_cycles(t0, ThreadId(0), &cycle, t0 + us(500))
                .cycles,
            0
        );
        assert_eq!(d.cpu.stats().retired_bursts, 0);
    }

    #[test]
    fn per_core_affinity_without_steal_keeps_home() {
        // Two cores, two threads: both homed round-robin (t0->core0,
        // t1->core1). Without stealing, each runs on its home core and an
        // idle core never poaches.
        let cfg = CpuConfig {
            policy: crate::config::SchedPolicy::PerCore { steal: false },
            ..CpuConfig::multi_core(2)
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        assert_eq!(d.cpu.thread_home(a).0, 0);
        assert_eq!(d.cpu.thread_home(b).0, 1);
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(10)), 1);
        let (t1, _) = d.next_completion().unwrap();
        let (t2, _) = d.next_completion().unwrap();
        // True parallelism on home cores.
        assert_eq!(t1.as_micros(), 10);
        assert_eq!(t2.as_micros(), 10);
        assert_eq!(d.cpu.stats().steals, 0);
    }

    #[test]
    fn per_core_no_steal_strands_work() {
        // Both threads homed to core 0 (spawn order 0, then a dummy for
        // core 1, then thread 2 lands back on core 0): without stealing
        // core 1 idles while core 0 serializes.
        let cfg = CpuConfig {
            cs_cost_log_alpha: 0.0,
            policy: crate::config::SchedPolicy::PerCore { steal: false },
            ..CpuConfig::multi_core(2)
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a"); // home core 0
        let _idle = d.cpu.spawn_thread("idle-home-1"); // home core 1, never used
        let c = d.cpu.spawn_thread("c"); // home core 0
        d.submit(a, Burst::user(us(100)), 0);
        d.submit(c, Burst::user(us(100)), 1);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = d.next_completion() {
            last = t;
        }
        // Serialized on core 0: at least 200us wall.
        assert!(last.as_micros() >= 200, "finished at {last}");
        assert_eq!(d.cpu.stats().steals, 0);
    }

    #[test]
    fn work_stealing_balances() {
        let cfg = CpuConfig {
            cs_cost_log_alpha: 0.0,
            policy: crate::config::SchedPolicy::PerCore { steal: true },
            ..CpuConfig::multi_core(2)
        };
        let mut d = Driver::new(cfg);
        let a = d.cpu.spawn_thread("a"); // home core 0
        let _idle = d.cpu.spawn_thread("idle-home-1");
        let c = d.cpu.spawn_thread("c"); // home core 0
        d.submit(a, Burst::user(us(100)), 0);
        d.submit(c, Burst::user(us(100)), 1);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = d.next_completion() {
            last = t;
        }
        // Core 1 steals the second thread: parallel despite shared home
        // (plus the doubled migration cost).
        assert!(last.as_micros() < 200, "finished at {last}");
        assert!(d.cpu.stats().steals >= 1);
    }

    #[test]
    fn sched_log_switch_count_equals_stats_counter() {
        let mut d = Driver::new(CpuConfig::single_core());
        d.cpu.record_sched(true);
        let threads: Vec<_> = (0..6)
            .map(|i| d.cpu.spawn_thread(format!("t{i}")))
            .collect();
        for (i, &t) in threads.iter().enumerate() {
            d.submit(t, Burst::user(us(10)), i as u64);
        }
        while d.next_completion().is_some() {}
        let log: Vec<SchedEvent> = d.cpu.drain_sched_log().collect();
        let switches = log
            .iter()
            .filter(|e| matches!(e, SchedEvent::Switch { .. }))
            .count() as u64;
        let parks = log
            .iter()
            .filter(|e| matches!(e, SchedEvent::Park { .. }))
            .count() as u64;
        assert_eq!(switches, d.cpu.stats().context_switches);
        assert_eq!(parks, 6, "every thread parks after its burst");
        assert!(d.cpu.drain_sched_log().next().is_none(), "drain empties");
    }

    #[test]
    fn sched_log_off_records_nothing() {
        let mut d = Driver::new(CpuConfig::single_core());
        let a = d.cpu.spawn_thread("a");
        let b = d.cpu.spawn_thread("b");
        d.submit(a, Burst::user(us(10)), 0);
        d.submit(b, Burst::user(us(10)), 1);
        while d.next_completion().is_some() {}
        assert!(d.cpu.stats().context_switches > 0);
        assert!(d.cpu.drain_sched_log().next().is_none());
        assert_eq!(d.cpu.thread_name(a), "a");
    }

    #[test]
    fn many_threads_fifo_fairness() {
        let cfg = CpuConfig {
            cs_cost_log_alpha: 0.0,
            ..CpuConfig::single_core()
        };
        let mut d = Driver::new(cfg);
        let threads: Vec<_> = (0..10)
            .map(|i| d.cpu.spawn_thread(format!("t{i}")))
            .collect();
        for (i, &t) in threads.iter().enumerate() {
            d.submit(t, Burst::user(us(10)), i as u64);
        }
        for (i, &t) in threads.iter().enumerate() {
            let (_, c) = d.next_completion().unwrap();
            assert_eq!(c.thread, t, "completion order must be FIFO");
            assert_eq!(c.tag, i as u64);
        }
        // 9 switches between 10 distinct threads.
        assert_eq!(d.cpu.stats().context_switches, 9);
    }
}
