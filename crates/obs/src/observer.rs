//! The `Observer` trait plus its two canonical implementations: the no-op
//! observer (default, compiles away) and the recording observer.

use asyncinv_simcore::SimTime;

use crate::event::{TraceEvent, TraceKind, NONE};
use crate::registry::MetricsRegistry;
use crate::ring::TraceRing;

/// Receives structured trace events and metrics from an engine run.
///
/// Every method has a no-op default, so [`NoopObserver`] is an empty type
/// whose calls the optimizer deletes. Engines additionally cache
/// `is_enabled()` in a local `bool` and guard each call site with it, so a
/// disabled run pays one predictable branch per site at most.
pub trait Observer {
    /// `true` when this observer wants events; engines skip all recording
    /// work (event construction, scheduler logging) when `false`.
    fn is_enabled(&self) -> bool {
        false
    }

    /// Records one trace event.
    fn record(&mut self, ev: TraceEvent) {
        let _ = ev;
    }

    /// Announces the measurement window `[start, end)` before the run.
    fn run_window(&mut self, start: SimTime, end: SimTime) {
        let _ = (start, end);
    }

    /// Called exactly when the engine snapshots its own counters at the
    /// warm-up boundary; window-relative counts are measured from here.
    fn window_open(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Names a simulated thread (for per-thread export tracks).
    fn thread_name(&mut self, thread: usize, name: &str) {
        let _ = (thread, name);
    }

    /// Reports a named counter's final value.
    fn counter(&mut self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Reports a named gauge's final value.
    fn gauge(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records a sample into a named histogram.
    fn sample(&mut self, name: &str, value: u64) {
        let _ = (name, value);
    }
}

/// The do-nothing observer used by untraced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// An [`Observer`] that retains events in a [`TraceRing`], keeps exact
/// per-kind counts (independent of ring capacity/sampling), assigns
/// monotone request ids, and owns a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: TraceRing,
    thread_names: Vec<String>,
    /// Exact per-kind event counts since the start of the run.
    totals: [u64; TraceKind::COUNT],
    /// `totals` as of [`Observer::window_open`].
    window_base: [u64; TraceKind::COUNT],
    window: Option<(SimTime, SimTime)>,
    /// Completion events with `start <= t < end` (mirrors the engine's
    /// `ThroughputWindow` filter exactly).
    completions_in_window: u64,
    next_req: u64,
    /// Current request id per connection.
    conn_req: Vec<u64>,
    /// Net QueueEnter − QueueExit across all queues, and its peak.
    queue_depth: u64,
    queue_depth_peak: u64,
    /// Interned `rt_ns_class_<c>` histogram names, indexed by class —
    /// the per-completion hot path must not format a fresh `String`.
    class_hist_names: Vec<String>,
    registry: MetricsRegistry,
}

impl Recorder {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Recorder::with_sampling(capacity, 1)
    }

    /// A recorder retaining every `sample_every`-th event, last `capacity`
    /// of them. Counts stay exact regardless of sampling.
    pub fn with_sampling(capacity: usize, sample_every: u64) -> Self {
        Recorder {
            ring: TraceRing::with_sampling(capacity, sample_every),
            thread_names: Vec::new(),
            totals: [0; TraceKind::COUNT],
            window_base: [0; TraceKind::COUNT],
            window: None,
            completions_in_window: 0,
            next_req: 0,
            conn_req: Vec::new(),
            queue_depth: 0,
            queue_depth_peak: 0,
            class_hist_names: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// The underlying ring buffer.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Exact count of `kind` events over the whole run (sampling does not
    /// affect this).
    pub fn total(&self, kind: TraceKind) -> u64 {
        self.totals[kind.index()]
    }

    /// Exact count of `kind` events since [`Observer::window_open`] — the
    /// same "delta since the warm-up snapshot" the engine uses for its own
    /// counters.
    pub fn window_count(&self, kind: TraceKind) -> u64 {
        self.totals[kind.index()] - self.window_base[kind.index()]
    }

    /// Completion events inside the announced measurement window.
    pub fn completions_in_window(&self) -> u64 {
        self.completions_in_window
    }

    /// The announced measurement window, if any.
    pub fn window(&self) -> Option<(SimTime, SimTime)> {
        self.window
    }

    /// Peak net queue occupancy (QueueEnter − QueueExit) seen so far,
    /// summed across all of the server's internal queues.
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak
    }

    /// Names of the simulated threads, indexed by thread id.
    pub fn thread_names(&self) -> &[String] {
        &self.thread_names
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace as Chrome trace-event JSON (see [`crate::export`]).
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace_json(self)
    }

    /// The trace as JSON Lines, one event object per line.
    pub fn jsonl(&self) -> String {
        crate::export::jsonl(self)
    }
}

impl Observer for Recorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, mut ev: TraceEvent) {
        self.totals[ev.kind.index()] += 1;
        if ev.kind == TraceKind::RequestArrive && ev.conn != NONE {
            self.next_req += 1;
            let c = ev.conn as usize;
            if self.conn_req.len() <= c {
                self.conn_req.resize(c + 1, 0);
            }
            self.conn_req[c] = self.next_req;
        }
        if ev.conn != NONE {
            ev.req = self.conn_req.get(ev.conn as usize).copied().unwrap_or(0);
        }
        match ev.kind {
            TraceKind::QueueEnter => {
                self.queue_depth += 1;
                if self.queue_depth > self.queue_depth_peak {
                    self.queue_depth_peak = self.queue_depth;
                    self.registry
                        .gauge_set("queue_depth_peak", self.queue_depth_peak as f64);
                }
            }
            TraceKind::QueueExit => self.queue_depth = self.queue_depth.saturating_sub(1),
            // Completion's arg is the response time in ns: feed the
            // per-class latency histograms directly from the stream.
            TraceKind::Completion if ev.class != NONE => {
                let c = ev.class as usize;
                if self.class_hist_names.len() <= c {
                    self.class_hist_names.extend(
                        (self.class_hist_names.len()..=c).map(|i| format!("rt_ns_class_{i}")),
                    );
                }
                self.registry.hist_record(&self.class_hist_names[c], ev.arg);
            }
            _ => {}
        }
        if ev.kind == TraceKind::Completion
            && self.window.is_none_or(|(s, e)| ev.time >= s && ev.time < e)
        {
            self.completions_in_window += 1;
        }
        self.ring.push(ev);
    }

    fn run_window(&mut self, start: SimTime, end: SimTime) {
        self.window = Some((start, end));
    }

    fn window_open(&mut self, _now: SimTime) {
        self.window_base = self.totals;
    }

    fn thread_name(&mut self, thread: usize, name: &str) {
        if self.thread_names.len() <= thread {
            self.thread_names.resize(thread + 1, String::new());
        }
        self.thread_names[thread] = name.to_string();
    }

    fn counter(&mut self, name: &str, value: u64) {
        self.registry.counter_set(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    fn sample(&mut self, name: &str, value: u64) {
        self.registry.hist_record(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn counts_are_exact_under_sampling_and_wrap() {
        let mut r = Recorder::with_sampling(4, 10);
        for i in 0..100 {
            r.record(TraceEvent::new(at(i), TraceKind::WriteSpin));
        }
        assert_eq!(r.total(TraceKind::WriteSpin), 100);
        assert!(r.ring().len() <= 4, "ring stays bounded");
    }

    #[test]
    fn window_counts_measure_from_window_open() {
        let mut r = Recorder::new(16);
        r.run_window(at(10), at(20));
        for i in 0..5 {
            r.record(TraceEvent::new(at(i), TraceKind::ThreadDispatch));
        }
        r.window_open(at(10));
        for i in 10..13 {
            r.record(TraceEvent::new(at(i), TraceKind::ThreadDispatch));
        }
        assert_eq!(r.total(TraceKind::ThreadDispatch), 8);
        assert_eq!(r.window_count(TraceKind::ThreadDispatch), 3);
    }

    #[test]
    fn completions_filtered_half_open() {
        let mut r = Recorder::new(16);
        r.run_window(at(10), at(20));
        for us in [5, 10, 15, 19, 20, 25] {
            r.record(TraceEvent::new(at(us), TraceKind::Completion).conn(0));
        }
        // [10, 20): 10, 15, 19 pass; 5, 20, 25 do not.
        assert_eq!(r.completions_in_window(), 3);
        assert_eq!(r.total(TraceKind::Completion), 6);
    }

    #[test]
    fn queue_depth_and_per_class_latency_derive_from_the_stream() {
        let mut r = Recorder::new(16);
        r.record(TraceEvent::new(at(0), TraceKind::QueueEnter).conn(0));
        r.record(TraceEvent::new(at(1), TraceKind::QueueEnter).conn(1));
        r.record(TraceEvent::new(at(2), TraceKind::QueueExit).conn(0));
        r.record(TraceEvent::new(at(3), TraceKind::QueueEnter).conn(2));
        assert_eq!(r.queue_depth_peak(), 2);
        assert_eq!(r.registry().gauge("queue_depth_peak"), Some(2.0));
        r.record(
            TraceEvent::new(at(4), TraceKind::Completion)
                .conn(0)
                .class(1)
                .arg(500),
        );
        r.record(
            TraceEvent::new(at(5), TraceKind::Completion)
                .conn(1)
                .class(1)
                .arg(700),
        );
        let h = r
            .registry()
            .hist("rt_ns_class_1")
            .expect("per-class histogram");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn request_ids_are_monotone_and_stamped_on_later_events() {
        let mut r = Recorder::new(16);
        r.record(TraceEvent::new(at(0), TraceKind::RequestArrive).conn(3));
        r.record(TraceEvent::new(at(1), TraceKind::QueueEnter).conn(3));
        r.record(TraceEvent::new(at(2), TraceKind::RequestArrive).conn(1));
        r.record(TraceEvent::new(at(3), TraceKind::Completion).conn(1));
        let reqs: Vec<u64> = r.events().map(|e| e.req).collect();
        assert_eq!(reqs, [1, 1, 2, 2]);
    }
}
