//! The simulation driver: a virtual clock plus a pluggable event queue.

use std::marker::PhantomData;

use crate::backend::QueueBackend;
use crate::lanes::LaneQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation: virtual clock, event queue, scheduling API.
///
/// The kernel is intentionally model-agnostic: callers pop events with
/// [`Simulation::next_event`] and dispatch them to their own state machines,
/// scheduling follow-up events as they go. This "inverted" loop keeps all
/// model state outside the kernel, which sidesteps borrow conflicts between
/// the queue and the model.
///
/// The queue shape is a type parameter implementing [`QueueBackend`]; the
/// default is a [`LaneQueue`] with no lanes, a plain binary heap. Every
/// backend delivers the exact same event ordering (stable FIFO on equal
/// timestamps), so the choice affects wall-clock speed only, and each
/// engine makes it in code: the ladder ([`LadderQueue`](crate::LadderQueue))
/// suits standing populations in the tens of thousands, and a lane queue
/// with lanes suits models whose events mostly sit at a few fixed delays
/// ([`Simulation::schedule_routed`]).
///
/// ```
/// use asyncinv_simcore::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimDuration::from_micros(1), 1u32);
/// while let Some((now, ev)) = sim.next_event() {
///     if ev < 4 {
///         sim.schedule(SimDuration::from_micros(1), ev + 1);
///     }
///     assert_eq!(now.as_micros(), ev as u64);
/// }
/// assert_eq!(sim.now().as_micros(), 4);
/// ```
#[derive(Debug)]
pub struct Simulation<E, Q = LaneQueue<E>>
where
    Q: QueueBackend<E>,
{
    queue: Q,
    now: SimTime,
    processed: u64,
    _events: PhantomData<fn() -> E>,
}

impl<E> Simulation<E> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`] and the
    /// default queue backend, a lane queue with no lanes.
    ///
    /// (Like `HashMap::new`, this constructor is defined only for the
    /// default backend so plain `Simulation::new()` infers; use
    /// [`Simulation::with_backend`] or `Q::default()` via
    /// [`Default::default`] to pick another shape.)
    pub fn new() -> Self {
        Simulation::with_backend(LaneQueue::default())
    }
}

impl<E, Q: QueueBackend<E>> Simulation<E, Q> {
    /// Creates a simulation backed by the given queue (which may already
    /// hold events).
    pub fn with_backend(queue: Q) -> Self {
        Simulation {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            _events: PhantomData,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire `after` the current time.
    pub fn schedule(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time; the simulation
    /// clock never runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty; the clock stays where it is.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue yielded an event in the past");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// When the next event is later than `deadline` (or the queue is empty)
    /// the clock advances to `deadline` and `None` is returned. This is the
    /// primitive used to run a simulation "for 60 virtual seconds".
    pub fn next_event_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.next_event(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// The timestamp of the next pending event, if any. O(1) on every
    /// backend in this crate.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drops all pending events (used at experiment teardown).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<E> Simulation<E, LaneQueue<E>> {
    /// Every pending event, in no particular order ([`LaneQueue::events`]).
    ///
    /// A model that keeps state for what its pending events refer to can
    /// scan them to find the state nothing can reach any more; the DAG
    /// engine drops the call trees no event names this way. The scan
    /// visits every pending event, so call it rarely.
    ///
    /// ```
    /// use asyncinv_simcore::{SimDuration, Simulation};
    ///
    /// let mut sim = Simulation::new();
    /// sim.schedule(SimDuration::from_micros(1), 7);
    /// sim.schedule(SimDuration::from_micros(3), 9);
    /// let mut pending: Vec<_> = sim.pending_events().copied().collect();
    /// pending.sort();
    /// assert_eq!(pending, [7, 9]);
    /// ```
    pub fn pending_events(&self) -> impl Iterator<Item = &E> + '_ {
        self.queue.events()
    }

    /// Schedules `event` at an absolute time, on the lane whose delay is
    /// `at − now()` when there is one and on the heap otherwise
    /// ([`LaneQueue::push_routed`]). The delay is taken on this clock, so
    /// each lane stays sorted whatever computed `at`.
    ///
    /// ```
    /// use asyncinv_simcore::{LaneQueue, SimDuration, SimTime, Simulation};
    ///
    /// let hop = SimDuration::from_micros(200);
    /// let mut sim = Simulation::with_backend(LaneQueue::new(&[hop]));
    /// sim.schedule_routed(SimTime::from_micros(200), "reply"); // lane 0
    /// sim.schedule_routed(SimTime::from_micros(50), "service"); // heap
    /// assert_eq!(sim.next_event().unwrap().1, "service");
    /// assert_eq!(sim.next_event().unwrap().1, "reply");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, as
    /// [`Simulation::schedule_at`] does.
    pub fn schedule_routed(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        self.queue.push_routed(self.now, at, event);
    }
}

impl<E, Q: QueueBackend<E>> Default for Simulation<E, Q> {
    fn default() -> Self {
        Simulation::with_backend(Q::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::LadderQueue;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(10), "late");
        sim.schedule(SimDuration::from_micros(2), "early");
        let (t, e) = sim.next_event().unwrap();
        assert_eq!((t.as_micros(), e), (2, "early"));
        assert_eq!(sim.now().as_micros(), 2);
        let (t, e) = sim.next_event().unwrap();
        assert_eq!((t.as_micros(), e), (10, "late"));
        assert!(sim.next_event().is_none());
        assert_eq!(sim.now().as_micros(), 10);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn relative_scheduling_is_from_current_time() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.next_event().unwrap();
        sim.schedule(SimDuration::from_micros(5), ());
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t.as_micros(), 10);
    }

    #[test]
    fn deadline_stops_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_millis(10), ());
        let deadline = SimTime::from_millis(5);
        assert!(sim.next_event_before(deadline).is_none());
        assert_eq!(sim.now(), deadline);
        // Event still pending and deliverable after the deadline moves.
        assert!(sim.next_event_before(SimTime::from_millis(20)).is_some());
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn deadline_with_empty_queue_advances_clock() {
        let mut sim: Simulation<()> = Simulation::new();
        assert!(sim.next_event_before(SimTime::from_secs(1)).is_none());
        assert_eq!(sim.now().as_secs_f64(), 1.0);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.next_event();
        sim.schedule_at(SimTime::from_micros(1), ());
    }

    #[test]
    fn clear_drops_pending() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.clear();
        assert_eq!(sim.pending(), 0);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn pinned_backends_match_the_default() {
        fn run<Q: QueueBackend<u32>>(mut sim: Simulation<u32, Q>) -> Vec<(u64, u32)> {
            for i in 0..400u32 {
                sim.schedule_at(SimTime::from_nanos(u64::from((i * 7) % 50)), i);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = sim.next_event() {
                out.push((t.as_nanos(), e));
            }
            out
        }
        let ladder = run(Simulation::<u32, LadderQueue<u32>>::default());
        assert_eq!(run(Simulation::new()), ladder);
    }
}
