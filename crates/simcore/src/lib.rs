//! # asyncinv-simcore — discrete-event simulation kernel
//!
//! The foundation of the `asyncinv` reproduction of *"Improving Asynchronous
//! Invocation Performance in Client-server Systems"* (ICDCS 2018). Every
//! higher-level substrate (the CPU/thread scheduler, the TCP send-path model,
//! the server architectures, the closed-loop workload generators) is driven by
//! the deterministic event loop defined here.
//!
//! The kernel is deliberately small and dependency-free:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] / [`LadderQueue`] — stable priority queues of
//!   timestamped events (ties broken by insertion order so runs are
//!   reproducible), unified by the [`QueueBackend`] trait. The binary
//!   heap is the default; the ladder suits standing populations in the
//!   tens of thousands.
//! * [`LaneQueue`] — a heap plus one FIFO lane per fixed delay, for
//!   models whose events mostly sit at a few known delays (network
//!   hops, ACKs, fixed timeouts). It pops the heap's exact order.
//!
//!   Each engine names its queue in code, as its `Simulation`'s type
//!   parameter; configs never name one. The fleet drive loop and the
//!   service-graph engine run on lanes, the RUBBoS engine on the ladder.
//! * [`Simulation`] — clock + pluggable queue backend + scheduling API;
//!   defaults to the binary heap; [`Simulation::schedule_lane`] schedules
//!   on a lane, and [`Simulation::schedule_routed`] on the lane of the
//!   event's delay if there is one.
//! * [`SimRng`] — a seedable xoshiro256++ PRNG so experiments are
//!   deterministic without depending on platform entropy.
//!
//! # Example
//!
//! ```
//! use asyncinv_simcore::{Simulation, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimDuration::from_micros(5), Ev::Ping);
//! sim.schedule(SimDuration::from_micros(2), Ev::Pong);
//!
//! let (t1, e1) = sim.next_event().unwrap();
//! assert_eq!(e1, Ev::Pong);
//! assert_eq!(t1.as_nanos(), 2_000);
//! let (_, e2) = sim.next_event().unwrap();
//! assert_eq!(e2, Ev::Ping);
//! assert!(sim.next_event().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod ladder;
mod lanes;
mod queue;
mod rng;
mod sim;
mod time;

pub use backend::QueueBackend;
pub use ladder::LadderQueue;
pub use lanes::LaneQueue;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
