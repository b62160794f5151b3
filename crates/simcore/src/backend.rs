//! Pluggable event-queue backends for [`Simulation`](crate::Simulation).
//!
//! The kernel's hot loop is "pop the earliest event, maybe push a few
//! follow-ups". Three queue shapes implement it behind [`QueueBackend`],
//! and each engine names the one that suits its standing population in
//! code, as the `Q` type parameter of its `Simulation`; no config picks
//! one:
//!
//! * the binary heap ([`EventQueue`](crate::EventQueue)), the default:
//!   the best constants at the standing populations experiment cells hold
//!   (tens to a few thousand events).
//! * the ladder queue ([`LadderQueue`](crate::LadderQueue)): a hold cost
//!   that stays flat from 10k to 100k+ events. The RUBBoS engine runs on
//!   it, because its users' random think times keep a wide spread of
//!   timestamps pending.
//! * the lane queue ([`LaneQueue`](crate::LaneQueue)): a heap plus one
//!   FIFO per fixed delay, declared by the model that owns the simulation.
//!   The fleet drive loop (one-way delay, RTT, fixed retry timeout) and
//!   the service-graph engine (edge latencies and timeouts) run on it.
//!
//! A queue that picks a shape at run time pays its dispatch on every
//! operation, so none does. All three deliver byte-identical event
//! orderings; property tests in `tests/prop_simcore.rs` enforce this.

use crate::ladder::LadderQueue;
use crate::lanes::LaneQueue;
use crate::queue::EventQueue;
use crate::time::SimTime;

/// A stable min-priority queue of timestamped events, usable as the
/// backing store of a [`Simulation`](crate::Simulation).
///
/// # Contract
///
/// Implementations must deliver events in ascending `(time, insertion
/// order)` — FIFO for equal timestamps. This is load-bearing for
/// reproducibility: swapping backends must never change simulation
/// results, only wall-clock performance.
pub trait QueueBackend<E>: Default {
    /// Short human-readable backend name ("heap", "ladder", "lanes").
    const NAME: &'static str;

    /// Enqueues `event` for delivery at `time`.
    fn push(&mut self, time: SimTime, event: E);

    /// Removes and returns the earliest event, or `None` when empty.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The timestamp of the earliest pending event, if any. O(1) for every
    /// backend in this crate.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// `true` when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    fn clear(&mut self);
}

impl<E> QueueBackend<E> for EventQueue<E> {
    const NAME: &'static str = "heap";

    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        EventQueue::push(self, time, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn clear(&mut self) {
        EventQueue::clear(self);
    }
}

impl<E> QueueBackend<E> for LadderQueue<E> {
    const NAME: &'static str = "ladder";

    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        LadderQueue::push(self, time, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        LadderQueue::pop(self)
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        LadderQueue::peek_time(self)
    }

    #[inline]
    fn len(&self) -> usize {
        LadderQueue::len(self)
    }

    fn clear(&mut self) {
        LadderQueue::clear(self);
    }
}

/// The lane queue as a backend. Its lanes are declared by the model that
/// owns the simulation, and `Q::default()` gives a queue with no lanes (a
/// plain heap).
impl<E> QueueBackend<E> for LaneQueue<E> {
    const NAME: &'static str = "lanes";

    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        LaneQueue::push(self, time, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        LaneQueue::pop(self)
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        LaneQueue::peek_time(self)
    }

    #[inline]
    fn len(&self) -> usize {
        LaneQueue::len(self)
    }

    fn clear(&mut self) {
        LaneQueue::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_trait_is_object_safe_enough_for_generics() {
        fn drain<Q: QueueBackend<u32>>(mut q: Q) -> Vec<u32> {
            q.push(SimTime::from_nanos(2), 2);
            q.push(SimTime::from_nanos(1), 1);
            std::iter::from_fn(move || q.pop())
                .map(|(_, e)| e)
                .collect()
        }
        assert_eq!(drain(EventQueue::new()), [1, 2]);
        assert_eq!(drain(LadderQueue::new()), [1, 2]);
        assert_eq!(drain(LaneQueue::default()), [1, 2]);
        assert_eq!(<EventQueue<u32> as QueueBackend<u32>>::NAME, "heap");
        assert_eq!(<LadderQueue<u32> as QueueBackend<u32>>::NAME, "ladder");
        assert_eq!(<LaneQueue<u32> as QueueBackend<u32>>::NAME, "lanes");
    }
}
