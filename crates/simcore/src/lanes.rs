//! The lane queue: a binary heap plus one FIFO per fixed delay.
//!
//! Many models schedule most of their events a fixed delay ahead: a
//! network hop of known latency, a timeout of known length. Those events
//! are scheduled at `now + delay` and the clock never runs backwards, so
//! the events of one delay arrive already sorted. [`LaneQueue`] keeps
//! each such delay in a FIFO *lane* (O(1) push and pop) and only the
//! events at arbitrary times in a binary heap. Every entry is stamped
//! from one sequence counter, and [`LaneQueue::pop`] takes the least
//! `(time, seq)` among the heap head and the lane heads, so the queue
//! delivers exactly [`EventQueue`](crate::EventQueue)'s order.
//!
//! The lane an event uses is chosen by the caller when it schedules the
//! event, from a property it already knows (the delay), so no operation
//! pays a run-time switch.

use std::collections::{BinaryHeap, VecDeque};

use crate::queue::Entry;
use crate::time::{SimDuration, SimTime};

/// A stable min-priority queue with fixed-delay lanes.
///
/// Events pushed with [`LaneQueue::push`] go to a binary heap; events
/// pushed with [`LaneQueue::push_lane`] go to the FIFO of one of the
/// delays declared at construction. Pops deliver ascending `(time,
/// insertion order)` across both, the [`QueueBackend`](crate::QueueBackend)
/// contract. Use it through
/// [`Simulation::schedule_lane`](crate::Simulation::schedule_lane), which
/// supplies the clock.
///
/// ```
/// use asyncinv_simcore::{LaneQueue, SimDuration, SimTime};
///
/// let mut q = LaneQueue::new(&[SimDuration::from_micros(5)]);
/// let now = SimTime::ZERO;
/// q.push_lane(0, now, "hop");                 // fires at 5 µs
/// q.push(SimTime::from_micros(5), "service"); // same instant, pushed later
/// q.push(SimTime::from_micros(1), "tick");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["tick", "hop", "service"]);
/// ```
#[derive(Debug)]
pub struct LaneQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    lanes: Vec<Lane<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Lane<E> {
    delay: SimDuration,
    fifo: VecDeque<Entry<E>>,
}

impl<E> LaneQueue<E> {
    /// Creates an empty queue with one lane per entry of `delays`, in
    /// order (lane `i` delays by `delays[i]`; equal delays are allowed).
    pub fn new(delays: &[SimDuration]) -> Self {
        LaneQueue {
            heap: BinaryHeap::new(),
            lanes: delays
                .iter()
                .map(|&delay| Lane {
                    delay,
                    fifo: VecDeque::new(),
                })
                .collect(),
            seq: 0,
        }
    }

    fn stamp(&mut self, time: SimTime, event: E) -> Entry<E> {
        let seq = self.seq;
        self.seq += 1;
        Entry { time, seq, event }
    }

    /// Enqueues `event` for delivery at an arbitrary `time` (the heap).
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        self.heap.push(entry);
    }

    /// Enqueues `event` on `lane`, for delivery the lane's delay after
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, or if `now` is earlier than the
    /// `now` of an earlier push onto this lane (a lane stays sorted only
    /// while its pushes move forward in time).
    pub fn push_lane(&mut self, lane: usize, now: SimTime, event: E) {
        let time = now + self.lanes[lane].delay;
        let entry = self.stamp(time, event);
        let fifo = &mut self.lanes[lane].fifo;
        assert!(
            fifo.back().is_none_or(|last| last.time <= time),
            "lane {lane} pushed out of time order"
        );
        fifo.push_back(entry);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut best = self.heap.peek().map(|e| (e.time, e.seq));
        let mut from = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.fifo.front() {
                let key = (head.time, head.seq);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    from = Some(i);
                }
            }
        }
        let entry = match from {
            Some(i) => self.lanes[i].fifo.pop_front(),
            None => self.heap.pop(),
        }?;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heads = self.lanes.iter().filter_map(|l| l.fifo.front());
        heads.chain(self.heap.peek()).map(|e| e.time).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.fifo.len()).sum::<usize>()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(|l| l.fifo.is_empty())
    }

    /// Removes all pending events; the lanes and their delays remain.
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.fifo.clear();
        }
    }
}

/// A queue with no lanes: every event goes to the heap.
impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        LaneQueue::new(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_heap_interleave_in_time_then_insertion_order() {
        let us = SimDuration::from_micros;
        let mut q = LaneQueue::new(&[us(3), us(1), us(3)]);
        let t0 = SimTime::ZERO;
        q.push_lane(0, t0, 'a'); // 3
        q.push(SimTime::from_micros(3), 'b'); // 3, after a
        q.push_lane(1, t0, 'c'); // 1
        q.push_lane(2, t0, 'd'); // 3, after b
        q.push_lane(1, SimTime::from_micros(2), 'e'); // 3, after d
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ['c', 'a', 'b', 'd', 'e']);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn a_lane_rejects_pushes_back_in_time() {
        let mut q = LaneQueue::new(&[SimDuration::from_micros(1)]);
        q.push_lane(0, SimTime::from_micros(5), ());
        q.push_lane(0, SimTime::from_micros(4), ());
    }

    #[test]
    fn clear_keeps_the_lanes() {
        let mut q = LaneQueue::new(&[SimDuration::from_nanos(7)]);
        q.push_lane(0, SimTime::ZERO, 1);
        q.push(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push_lane(0, SimTime::from_nanos(1), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(8), 3)));
    }
}
