//! # asyncinv-cpu — discrete-event CPU & thread scheduler model
//!
//! Models the server machine's processor(s) and user-space threads for the
//! `asyncinv` reproduction of *"Improving Asynchronous Invocation Performance
//! in Client-server Systems"* (ICDCS 2018). The paper's first finding is that
//! reactor/worker-pool asynchronous servers pay **4 user-space context
//! switches per request** (its Table II) and that this overhead, not
//! multithreading itself, makes the asynchronous Tomcat slower than the
//! thread-per-connection version below a concurrency crossover. Reproducing
//! that requires a scheduler in which context switches *emerge* from thread
//! handoffs rather than being assumed — this crate provides it.
//!
//! ## Model
//!
//! * A machine has `cores` identical cores.
//! * A **thread** is cooperative from the model's point of view: the owning
//!   server model submits one [`Burst`] of CPU work at a time and is notified
//!   on completion (via a [`Completion`] carrying the model's tag).
//! * Consecutive bursts submitted by the same thread at its completion
//!   instant continue on the same core with **no** context switch — burst
//!   boundaries are modeling artifacts, not scheduling points.
//! * When a thread blocks (submits nothing), the core picks the next ready
//!   thread; if that differs from the previously running thread the switch
//!   costs [`CpuConfig::cs_cost`] (optionally scaled by the log of the
//!   runnable count, modeling cache/TLB pollution at high thread counts) and
//!   increments the voluntary context-switch counter.
//! * Long bursts are preempted at [`CpuConfig::time_slice`] boundaries; a
//!   preempted thread is requeued FIFO and the switch is counted as
//!   involuntary. A thread whose slice expires with an empty run queue keeps
//!   the core for another slice at no cost.
//!
//! Time is charged per burst to user or system CPU according to
//! [`BurstKind`]; switch overhead is tracked separately so experiments can
//! report the paper's Collectl-style user/system/overhead breakdown
//! (its Table III).
//!
//! ## Integration
//!
//! The model is *passive*: mutations return nothing but push timestamped
//! [`CpuEvent`]s into a caller-provided buffer, and the caller routes those
//! events back into [`CpuModel::on_event`] when the simulation clock reaches
//! them. See `asyncinv-servers` for the full engine.
//!
//! ```
//! use asyncinv_cpu::{Burst, CpuConfig, CpuModel, CpuEvent};
//! use asyncinv_simcore::{SimDuration, Simulation};
//!
//! let mut cpu = CpuModel::new(CpuConfig::single_core());
//! let mut sim: Simulation<CpuEvent> = Simulation::new();
//! let t = cpu.spawn_thread("worker");
//!
//! let mut out = Vec::new();
//! cpu.submit(sim.now(), t, Burst::user(SimDuration::from_micros(10)), 7, &mut out);
//! for (at, ev) in out.drain(..) { sim.schedule_at(at, ev); }
//!
//! let (now, ev) = sim.next_event().unwrap();
//! let done = cpu.on_event(now, ev, &mut out).unwrap();
//! assert_eq!(done.thread, t);
//! assert_eq!(done.tag, 7);
//! cpu.finish_turn(now, t, &mut out); // thread blocks
//! assert_eq!(now.as_micros(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod burst;
mod config;
mod model;
mod stats;

pub use burst::{Burst, BurstKind};
pub use config::{CpuConfig, SchedPolicy};
pub use model::{Completion, CoreId, CpuEvent, CpuModel, Retired, SchedEvent, ThreadId};
pub use stats::{CpuStats, CpuTimeBreakdown, StatsWindow};
