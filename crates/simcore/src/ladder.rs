//! Ladder queue: a multi-tier bucket queue for very large event
//! populations (Tang, Goh & Thng, ACM TOMACS 2005).
//!
//! A binary heap pays O(log n) per hold, and a calendar queue keeps every
//! future event in per-day buckets that it must keep *sorted on insert*,
//! which collapses once tens of thousands of events share the active
//! window. The ladder instead defers all sorting until events are about
//! to be popped:
//!
//! * **Top** — an unsorted append-only spill area for far-future events.
//!   Pushes are O(1).
//! * **Rungs** — a ladder of bucket arrays of geometrically decreasing
//!   width, created on demand by *spawning*: when a bucket about to be
//!   consumed is still large, it is spread across a finer rung below
//!   instead of being sorted.
//! * **Bottom** — one small sorted run, the only sorted structure, from
//!   which events are popped.
//!
//! Every event is touched O(1) amortized times on its way down, so the
//! hold-model cost stays flat as the population grows — this is the
//! backend that keeps a 100k-population shard affordable.
//!
//! The queue obeys the [`QueueBackend`](crate::QueueBackend) contract:
//! ascending `(time, insertion order)`, FIFO for equal timestamps. Each
//! entry carries the global insertion sequence, spreading is
//! order-preserving, and the per-run sort keys on `(time, seq)`, so
//! stability survives every transfer.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Spawn a finer rung instead of sorting when a consumed bucket still
/// holds more than this many events (and the ladder is not at depth).
const SORT_THRESHOLD: usize = 64;
/// Maximum ladder depth; beyond it buckets are sorted whatever their size.
const MAX_RUNGS: usize = 8;
/// Cap on the bucket count of any one rung or top transfer.
const MAX_BUCKETS: usize = 4096;

#[derive(Debug)]
struct Entry<E> {
    t: u64,
    seq: u64,
    ev: E,
}

#[derive(Debug)]
struct Rung<E> {
    /// Time at the left edge of bucket 0.
    start: u64,
    /// Bucket width in nanoseconds (>= 1).
    width: u64,
    /// First bucket not yet consumed.
    cur: usize,
    buckets: Vec<Vec<Entry<E>>>,
    /// Events currently stored across all buckets.
    count: usize,
}

impl<E> Rung<E> {
    /// Left edge of the first unconsumed bucket: pushes at or beyond this
    /// time may still enter the rung; earlier times belong further down.
    fn cur_start(&self) -> u64 {
        self.start + self.cur as u64 * self.width
    }
}

/// A stable min-priority queue of timestamped events built as a ladder
/// queue; drop-in [`QueueBackend`](crate::QueueBackend) for
/// [`Simulation`](crate::Simulation).
///
/// ```
/// use asyncinv_simcore::{LadderQueue, SimTime};
///
/// let mut q = LadderQueue::new();
/// q.push(SimTime::from_micros(5), "b");
/// q.push(SimTime::from_micros(5), "c");
/// q.push(SimTime::from_micros(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct LadderQueue<E> {
    /// Unsorted spill area for events at or beyond `top_start`.
    top: Vec<Entry<E>>,
    top_min: u64,
    top_max: u64,
    /// Lower edge of the top's domain; 0 while no transfer has happened,
    /// so a fresh queue sends everything to the top.
    top_start: u64,
    rungs: Vec<Rung<E>>,
    /// The one sorted run, ascending `(t, seq)`, popped from the front.
    bottom: VecDeque<Entry<E>>,
    /// Exclusive upper edge of the bottom's time span while it is active:
    /// pushes below it sorted-insert into the bottom directly.
    bottom_limit: u64,
    len: usize,
    seq: u64,
    /// Cached earliest pending time (kept eagerly so peeks are O(1)).
    head: Option<u64>,
}

impl<E> LadderQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        LadderQueue {
            top: Vec::new(),
            top_min: u64::MAX,
            top_max: 0,
            top_start: 0,
            rungs: Vec::new(),
            bottom: VecDeque::new(),
            bottom_limit: 0,
            len: 0,
            seq: 0,
            head: None,
        }
    }

    /// Enqueues `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let t = time.as_nanos();
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.head = Some(self.head.map_or(t, |h| h.min(t)));
        let e = Entry { t, seq, ev: event };

        if !self.bottom.is_empty() && t < self.bottom_limit {
            self.insert_bottom(e);
            return;
        }
        if t >= self.top_start {
            self.top_min = self.top_min.min(t);
            self.top_max = self.top_max.max(t);
            self.top.push(e);
            return;
        }
        for r in &mut self.rungs {
            if t >= r.cur_start() {
                let idx = (((t - r.start) / r.width) as usize).min(r.buckets.len() - 1);
                debug_assert!(idx >= r.cur);
                r.buckets[idx].push(e);
                r.count += 1;
                return;
            }
        }
        // Below every rung's active edge: it belongs in the bottom even if
        // the bottom is currently empty. Activate it over the gap up to
        // the finest active edge.
        self.bottom_limit = self.rungs.last().map_or(self.top_start, Rung::cur_start);
        self.insert_bottom(e);
    }

    /// Sorted insert into the bottom run. `e.seq` is larger than every
    /// queued entry's, so the slot after the last entry with `t' <= e.t`
    /// keeps FIFO order for equal timestamps.
    fn insert_bottom(&mut self, e: Entry<E>) {
        let at = self.bottom.partition_point(|x| x.t <= e.t);
        self.bottom.insert(at, e);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.refill_bottom();
        let e = self.bottom.pop_front()?;
        self.len -= 1;
        // Keep the cached head accurate without scanning: eagerly pull the
        // next run down when this one is exhausted.
        self.refill_bottom();
        self.head = self.bottom.front().map(|x| x.t);
        Some((SimTime::from_nanos(e.t), e.ev))
    }

    /// The timestamp of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(SimTime::from_nanos)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.top.clear();
        self.top_min = u64::MAX;
        self.top_max = 0;
        self.top_start = 0;
        self.rungs.clear();
        self.bottom.clear();
        self.bottom_limit = 0;
        self.len = 0;
        self.head = None;
    }

    /// Ensures the bottom holds the globally earliest run if any events
    /// are pending anywhere in the structure.
    fn refill_bottom(&mut self) {
        while self.bottom.is_empty() {
            // Drop exhausted rungs so pushes cannot target stale edges.
            while self.rungs.last().is_some_and(|r| r.count == 0) {
                self.rungs.pop();
            }
            if self.rungs.is_empty() {
                if self.top.is_empty() {
                    // Everything drained: reopen the top for all times.
                    self.top_start = 0;
                    return;
                }
                self.transfer_top();
                continue;
            }
            let depth = self.rungs.len();
            // The bucket grid can overhang the rung's true domain (the
            // last bucket's right edge exceeds the span it was built
            // over). Cap the bottom's claimed range at the enclosing
            // structure's active edge, or a push landing in the overhang
            // would enter the bottom while equal-time events from earlier
            // pushes still sit in the parent rung / top above it.
            let cap = if depth >= 2 {
                self.rungs[depth - 2].cur_start()
            } else {
                self.top_start
            };
            let r = self.rungs.last_mut().expect("nonempty rungs");
            while r.buckets[r.cur].is_empty() {
                r.cur += 1;
            }
            let idx = r.cur;
            let mut run = std::mem::take(&mut r.buckets[idx]);
            r.count -= run.len();
            r.cur += 1;
            if run.len() > SORT_THRESHOLD && depth < MAX_RUNGS && r.width > 1 {
                // Too big to sort: spread it across a finer rung below.
                let start = r.start + idx as u64 * r.width;
                let width = r.width;
                self.spawn_rung(start, width, run);
                continue;
            }
            run.sort_unstable_by_key(|x| (x.t, x.seq));
            self.bottom = run.into();
            self.bottom_limit = (r.start + (idx as u64 + 1) * r.width).min(cap);
        }
    }

    /// Moves the whole top into a fresh coarsest rung spanning its range.
    fn transfer_top(&mut self) {
        let nb = self.top.len().clamp(1, MAX_BUCKETS);
        let span = self.top_max - self.top_min;
        let width = span / nb as u64 + 1;
        let buckets = (span / width) as usize + 1;
        let mut rung = Rung {
            start: self.top_min,
            width,
            cur: 0,
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            count: self.top.len(),
        };
        for e in self.top.drain(..) {
            let idx = ((e.t - rung.start) / width) as usize;
            rung.buckets[idx].push(e);
        }
        self.top_start = self.top_max + 1;
        self.top_min = u64::MAX;
        self.top_max = 0;
        debug_assert!(self.rungs.is_empty());
        self.rungs.push(rung);
    }

    /// Spreads `run` (a consumed parent bucket covering `[start, start +
    /// width)`) across a new, finer rung appended below the current ones.
    fn spawn_rung(&mut self, start: u64, width: u64, run: Vec<Entry<E>>) {
        let nb = run.len().clamp(2, MAX_BUCKETS);
        let w = width / nb as u64 + 1;
        let buckets = ((width - 1) / w) as usize + 1;
        let mut rung = Rung {
            start,
            width: w,
            cur: 0,
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            count: run.len(),
        };
        // Iterating in stored order preserves per-bucket insertion order,
        // which the per-run `(t, seq)` sort then makes exact.
        for e in run {
            let idx = (((e.t - start) / w) as usize).min(buckets - 1);
            rung.buckets[idx].push(e);
        }
        self.rungs.push(rung);
    }
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        LadderQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = LadderQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo_across_spawns() {
        let mut q = LadderQueue::new();
        let t = SimTime::from_nanos(7);
        // Enough colliding entries to exceed SORT_THRESHOLD and force a
        // degenerate-width sort.
        for i in 0..500u32 {
            q.push(t, i);
        }
        for i in 0..500u32 {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_hold_pattern() {
        // The hold model: pop one, push one slightly in the future.
        let mut lq = LadderQueue::new();
        let mut heap = crate::LaneQueue::default();
        for i in 0..1000u64 {
            let t = SimTime::from_nanos((i * 7919) % 4096);
            lq.push(t, i);
            heap.push(t, i);
        }
        for i in 0..20_000u64 {
            let (t, v) = lq.pop().expect("ladder nonempty");
            let (ht, hv) = heap.pop().expect("heap nonempty");
            assert_eq!((t, v), (ht, hv), "hold step {i}");
            let nt = t + crate::SimDuration::from_nanos(1 + (v * 31) % 2048);
            lq.push(nt, v);
            heap.push(nt, v);
            assert_eq!(lq.peek_time(), heap.peek_time());
            assert_eq!(lq.len(), heap.len());
        }
    }

    #[test]
    fn pushes_below_active_edges_stay_ordered() {
        let mut q = LadderQueue::new();
        for i in 0..300u64 {
            q.push(SimTime::from_nanos(1000 + i * 100), i);
        }
        // Drain a few to build rungs/bottom, then push near times.
        for _ in 0..5 {
            q.pop();
        }
        q.push(SimTime::from_nanos(1550), 9000);
        q.push(SimTime::from_nanos(1450), 9001);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn far_future_inserts_go_to_the_reopened_top() {
        let mut q = LadderQueue::new();
        for i in 0..200u64 {
            q.push(SimTime::from_nanos(100 + i), i);
        }
        // Drain a little so a rung exists and the top's domain is closed
        // (`top_start` > 0), then spill events eons past every structure:
        // seconds against a nanosecond-scale rung grid.
        for _ in 0..10 {
            q.pop();
        }
        q.push(SimTime::from_secs(3600), 9000);
        q.push(SimTime::from_secs(7200), 9001);
        q.push(SimTime::from_nanos(150), 9002);
        let mut last = SimTime::ZERO;
        let mut n = 0;
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert!(t >= last, "order violated at {t:?}");
            last = t;
            n += 1;
            if v >= 9000 {
                got.push((t, v));
            }
        }
        assert_eq!(n, 193);
        // The far-future pair pops last, in push order; after the near
        // events drained, the top transferred into a fresh coarse rung.
        assert_eq!(
            got[got.len() - 2..],
            [
                (SimTime::from_secs(3600), 9000),
                (SimTime::from_secs(7200), 9001)
            ]
        );
    }

    #[test]
    fn drain_while_inserting_at_the_pop_frontier() {
        // The adversarial hold pattern: every pop is chased by pushes at
        // exactly the popped instant (which must sort *after* anything
        // already queued there) and just above it, while the queue drains
        // to empty and refills — exercising bottom reuse, rung
        // exhaustion, and top reopening in one loop.
        let mut lq = LadderQueue::new();
        let mut heap = crate::LaneQueue::default();
        let mut id = 0u64;
        for i in 0..256u64 {
            let t = SimTime::from_nanos((i * 37) % 512);
            lq.push(t, id);
            heap.push(t, id);
            id += 1;
        }
        let mut budget = 4096u32;
        loop {
            let a = lq.pop();
            assert_eq!(a, heap.pop());
            let Some((t, _)) = a else { break };
            if budget > 0 {
                budget -= 1;
                // Same-instant chaser plus a near-future one.
                lq.push(t, id);
                heap.push(t, id);
                id += 1;
                let nt = t + crate::SimDuration::from_nanos(id % 17);
                lq.push(nt, id);
                heap.push(nt, id);
                id += 1;
            }
            assert_eq!(lq.peek_time(), heap.peek_time());
            assert_eq!(lq.len(), heap.len());
        }
        assert!(lq.is_empty());
    }

    #[test]
    fn massive_same_instant_ties_across_structures() {
        // Ties split across the bottom, a rung, and the top at once: the
        // global (time, seq) order must still interleave them FIFO.
        let mut q = LadderQueue::new();
        let tie = SimTime::from_nanos(1000);
        let mut expect = Vec::new();
        for i in 0..100u64 {
            q.push(tie, i);
            expect.push(i);
        }
        for i in 0..50u64 {
            q.push(SimTime::from_nanos(i), 1000 + i);
        }
        // Drain the early events; the tie block is still upstream.
        for _ in 0..50 {
            q.pop();
        }
        // More ties arrive after a partial drain, through a different path
        // (the structures now have active edges).
        for i in 100..200u64 {
            q.push(tie, i);
            expect.push(i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, v)| {
                assert_eq!(t, tie);
                v
            })
            .collect();
        assert_eq!(got, expect, "ties must pop in global insertion order");
    }

    #[test]
    fn len_clear_and_empty() {
        let mut q = LadderQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        for i in 0..100u64 {
            q.push(SimTime::from_nanos(i * 3), i);
        }
        assert_eq!(q.len(), 100);
        q.pop();
        assert_eq!(q.len(), 99);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        // Reusable after clear.
        q.push(SimTime::from_nanos(5), 1);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
