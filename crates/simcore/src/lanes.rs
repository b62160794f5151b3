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
//! The queue caches the earliest lane head. A push changes it only when
//! its lane was empty, so [`LaneQueue::peek_time`] is O(1) and a pop
//! compares the cached head with the heap head once; the lane fronts are
//! rescanned only after a pop takes a lane entry.
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
/// delays declared at construction, and [`LaneQueue::push_routed`] picks
/// the lane from the event's delay. Pops deliver ascending `(time,
/// insertion order)` across both, the [`QueueBackend`](crate::QueueBackend)
/// contract. Use it through
/// [`Simulation::schedule_lane`](crate::Simulation::schedule_lane) or
/// [`Simulation::schedule_routed`](crate::Simulation::schedule_routed),
/// which supply the clock.
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
    /// The earliest lane front, `None` when every lane is empty.
    head: Option<Head>,
    seq: u64,
}

#[derive(Debug)]
struct Lane<E> {
    delay: SimDuration,
    fifo: VecDeque<Entry<E>>,
}

/// A lane front's `(time, seq)` key and the lane that holds it.
#[derive(Debug, Clone, Copy)]
struct Head {
    time: SimTime,
    seq: u64,
    lane: usize,
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
            head: None,
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
        self.append(lane, time, event);
    }

    /// Enqueues `event` for delivery at `time`: on the first lane whose
    /// delay is `time − now`, else on the heap. Either way it pops at the
    /// same place; a lane only spares the heap's sort.
    ///
    /// # Panics
    ///
    /// As [`LaneQueue::push_lane`] when a lane is taken, and in debug
    /// builds if `time` is earlier than `now`
    /// ([`Simulation::schedule_routed`](crate::Simulation::schedule_routed)
    /// checks that in every build).
    pub fn push_routed(&mut self, now: SimTime, time: SimTime, event: E) {
        let ahead = time - now;
        match self.lanes.iter().position(|l| l.delay == ahead) {
            Some(lane) => self.append(lane, time, event),
            None => self.push(time, event),
        }
    }

    /// Appends an entry for `time` to `lane`, keeping the cached head.
    fn append(&mut self, lane: usize, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        let seq = entry.seq;
        let fifo = &mut self.lanes[lane].fifo;
        assert!(
            fifo.back().is_none_or(|last| last.time <= time),
            "lane {lane} pushed out of time order"
        );
        fifo.push_back(entry);
        // A lane's new front is the newest entry, so it is the head only
        // if it is strictly earlier (an equal time has a smaller seq).
        if fifo.len() == 1 && self.head.is_none_or(|h| time < h.time) {
            self.head = Some(Head { time, seq, lane });
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane = match (self.head, self.heap.peek()) {
            (Some(h), Some(e)) if (h.time, h.seq) < (e.time, e.seq) => Some(h.lane),
            (Some(h), None) => Some(h.lane),
            _ => None,
        };
        let entry = match lane {
            Some(i) => {
                let entry = self.lanes[i].fifo.pop_front();
                self.rescan();
                entry
            }
            None => self.heap.pop(),
        }?;
        Some((entry.time, entry.event))
    }

    /// Recomputes the cached head from the lane fronts.
    fn rescan(&mut self) {
        let mut head: Option<Head> = None;
        for (lane, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.fifo.front() {
                if head.is_none_or(|h| (e.time, e.seq) < (h.time, h.seq)) {
                    head = Some(Head {
                        time: e.time,
                        seq: e.seq,
                        lane,
                    });
                }
            }
        }
        self.head = head;
    }

    /// The timestamp of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.time);
        match (self.head, heap) {
            (Some(h), Some(t)) => Some(h.time.min(t)),
            (h, t) => h.map(|h| h.time).or(t),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.fifo.len()).sum::<usize>()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.head.is_none()
    }

    /// Removes all pending events; the lanes and their delays remain.
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.fifo.clear();
        }
        self.head = None;
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

    const NS: fn(u64) -> SimTime = SimTime::from_nanos;

    /// The cached head as `(time in ns, seq, lane)`.
    fn head<E>(q: &LaneQueue<E>) -> Option<(u64, u64, usize)> {
        q.head.map(|h| (h.time.as_nanos(), h.seq, h.lane))
    }

    fn lanes(delays: &[u64]) -> LaneQueue<char> {
        let delays: Vec<_> = delays.iter().map(|&d| SimDuration::from_nanos(d)).collect();
        LaneQueue::new(&delays)
    }

    #[test]
    fn after_a_lane_pop_the_head_can_stay_on_the_same_lane() {
        let mut q = lanes(&[5, 10]);
        q.push_lane(0, NS(0), 'a'); // 5, seq 0
        q.push_lane(1, NS(0), 'b'); // 10, seq 1
        q.push_lane(0, NS(1), 'c'); // 6, seq 2
        assert_eq!(head(&q), Some((5, 0, 0)));
        assert_eq!(q.pop(), Some((NS(5), 'a')));
        assert_eq!(head(&q), Some((6, 2, 0)));
        assert_eq!(q.peek_time(), Some(NS(6)));
    }

    #[test]
    fn after_a_lane_pop_the_head_can_move_to_another_lane() {
        let mut q = lanes(&[1, 3]);
        q.push_lane(1, NS(0), 'a'); // 3, seq 0
        q.push_lane(0, NS(0), 'b'); // 1, seq 1: earlier, takes the head
        assert_eq!(head(&q), Some((1, 1, 0)));
        assert_eq!(q.pop(), Some((NS(1), 'b')));
        assert_eq!(head(&q), Some((3, 0, 1)));
        assert_eq!(q.pop(), Some((NS(3), 'a')));
        assert_eq!(head(&q), None);
    }

    #[test]
    fn after_a_lane_pop_the_heap_can_hold_the_earliest_event() {
        let mut q = lanes(&[2, 9]);
        q.push_lane(0, NS(0), 'a'); // 2
        q.push_lane(1, NS(0), 'b'); // 9
        q.push(NS(4), 'c');
        assert_eq!(q.pop(), Some((NS(2), 'a')));
        assert_eq!(head(&q), Some((9, 1, 1)));
        assert_eq!(q.peek_time(), Some(NS(4)));
        assert_eq!(q.pop(), Some((NS(4), 'c')));
        assert_eq!(q.pop(), Some((NS(9), 'b')));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn lane_heads_that_tie_in_time_pop_in_seq_order() {
        // The higher lane's front was pushed first: seq, not the lane
        // index, decides, on a push into an empty lane and on a rescan.
        let mut q = lanes(&[2, 4, 1]);
        q.push_lane(2, NS(0), 'a'); // 1, seq 0
        q.push_lane(1, NS(0), 'b'); // 4, seq 1
        q.push_lane(0, NS(2), 'c'); // 4, seq 2
        assert_eq!(head(&q), Some((1, 0, 2)));
        assert_eq!(q.pop(), Some((NS(1), 'a')));
        assert_eq!(head(&q), Some((4, 1, 1)));
        q.push(NS(4), 'd'); // 4, seq 3: after both lane fronts
        assert_eq!(q.pop(), Some((NS(4), 'b')));
        assert_eq!(head(&q), Some((4, 2, 0)));
        assert_eq!(q.pop(), Some((NS(4), 'c')));
        assert_eq!(q.pop(), Some((NS(4), 'd')));
        // An empty lane's push that ties the head in time does not take it.
        q.push_lane(0, NS(4), 'e'); // 6, seq 4
        q.push_lane(1, NS(2), 'f'); // 6, seq 5
        assert_eq!(head(&q), Some((6, 4, 0)));
    }

    #[test]
    fn clear_drops_the_head() {
        let mut q = lanes(&[3]);
        q.push_lane(0, NS(0), 'a');
        assert_eq!(head(&q), Some((3, 0, 0)));
        q.clear();
        assert_eq!(head(&q), None);
        assert!(q.pop().is_none());
        q.push(NS(9), 'b');
        q.push_lane(0, NS(1), 'c'); // 4
        assert_eq!(head(&q), Some((4, 2, 0)));
        assert_eq!(q.pop(), Some((NS(4), 'c')));
        assert_eq!(q.pop(), Some((NS(9), 'b')));
    }

    #[test]
    fn a_routed_push_takes_the_lane_of_its_delay() {
        let mut q = lanes(&[0, 5]);
        q.push_routed(NS(10), NS(15), 'a'); // lane 1
        q.push_routed(NS(10), NS(10), 'b'); // lane 0
        q.push_routed(NS(10), NS(12), 'c'); // heap
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.lanes[0].fifo.len(), 1);
        assert_eq!(head(&q), Some((10, 1, 0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ['b', 'c', 'a']);
    }
}
