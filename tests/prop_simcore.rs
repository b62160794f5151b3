//! Property tests of the simulation kernel.

use asyncinv_lab::asyncinv::BackendKind;
use asyncinv_lab::servers::ExperimentConfig;
use asyncinv_lab::simcore::{
    EventQueue, LadderQueue, LaneQueue, QueueBackend, SimDuration, SimRng, SimTime, Simulation,
};
use proptest::prelude::*;

proptest! {
    /// Events pop in non-decreasing time order regardless of insertion
    /// order, with FIFO ties.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((pt, (t, i))) = q.pop() {
            prop_assert_eq!(pt.as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "ties must be FIFO");
                }
            }
            last = Some((t, i));
        }
    }

    /// The simulation clock never goes backwards and delivers every event.
    #[test]
    fn clock_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulation::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), d);
        }
        let mut seen = 0usize;
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = sim.next_event() {
            prop_assert!(t >= prev);
            prev = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// `next_event_before` partitions delivery exactly at the deadline.
    #[test]
    fn deadline_partitions(delays in prop::collection::vec(1u64..10_000, 1..100), cut in 1u64..10_000) {
        let mut sim = Simulation::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), d);
        }
        let deadline = SimTime::from_nanos(cut);
        let mut early = 0usize;
        while let Some((t, _)) = sim.next_event_before(deadline) {
            prop_assert!(t <= deadline);
            early += 1;
        }
        let expected = delays.iter().filter(|&&d| d <= cut).count();
        prop_assert_eq!(early, expected);
        prop_assert!(sim.now() >= deadline || sim.pending() == 0);
    }

    /// Both kernel backends — the binary heap and the ladder queue —
    /// produce byte-identical pop sequences for arbitrary interleavings of
    /// pushes and pops. This is the property that lets a run pin either
    /// backend without changing its results.
    #[test]
    fn backends_pop_identically(ops in prop::collection::vec((0u64..50_000, any::<bool>()), 1..500)) {
        let mut heap = EventQueue::new();
        let mut lad = LadderQueue::new();
        let mut next_id = 0u64;
        for (t, do_pop) in ops {
            if do_pop {
                let a = QueueBackend::pop(&mut heap);
                prop_assert_eq!(a, QueueBackend::pop(&mut lad), "ladder divergence");
            } else {
                let time = SimTime::from_nanos(t * 97);
                heap.push(time, next_id);
                lad.push(time, next_id);
                next_id += 1;
            }
            prop_assert_eq!(QueueBackend::peek_time(&heap), QueueBackend::peek_time(&lad));
            prop_assert_eq!(QueueBackend::len(&heap), QueueBackend::len(&lad));
        }
        loop {
            let a = QueueBackend::pop(&mut heap);
            prop_assert_eq!(a, QueueBackend::pop(&mut lad), "ladder drain divergence");
            if a.is_none() { break; }
        }
    }

    /// The ladder queue preserves FIFO order among equal-time events
    /// (stability) under adversarial push/pop interleavings that force
    /// rung spawns and bucket reloads: many duplicates of few distinct
    /// times, pushed in bursts between pops.
    #[test]
    fn ladder_is_stable_at_equal_times(
        bursts in prop::collection::vec((0u64..64, 1usize..12, any::<bool>()), 1..120),
    ) {
        let mut lad = LadderQueue::new();
        let mut heap = EventQueue::new();
        let mut next_id = 0u64;
        for (t, reps, do_pop) in bursts {
            for _ in 0..reps {
                // Few distinct times => heavy tie traffic inside buckets.
                let time = SimTime::from_nanos(t * 13);
                lad.push(time, next_id);
                heap.push(time, next_id);
                next_id += 1;
            }
            if do_pop {
                prop_assert_eq!(QueueBackend::pop(&mut lad), QueueBackend::pop(&mut heap));
            }
        }
        let mut last: Option<(u64, u64)> = None;
        while let Some((t, id)) = QueueBackend::pop(&mut lad) {
            prop_assert_eq!(Some((t, id)), QueueBackend::pop(&mut heap));
            if let Some((lt, lid)) = last {
                prop_assert!(t.as_nanos() >= lt, "time went backwards");
                if t.as_nanos() == lt {
                    prop_assert!(id > lid, "equal-time pops must stay FIFO");
                }
            }
            last = Some((t.as_nanos(), id));
        }
        prop_assert_eq!(QueueBackend::pop(&mut heap), None);
    }

    /// Ladder edge cases as a property: bimodal timestamps (a dense near
    /// cluster plus far-future spills landing past the top's domain) with
    /// drain bursts that empty the queue mid-sequence. The pop stream must
    /// stay byte-identical to the heap through top transfers, rung
    /// spawns over huge spans, and top reopenings.
    #[test]
    fn ladder_far_future_and_drain_interleaving(
        ops in prop::collection::vec((0u64..2_000, any::<bool>(), 0usize..6), 1..200),
    ) {
        let mut lad = LadderQueue::new();
        let mut heap = EventQueue::new();
        for (next_id, (t, far, pops)) in (0u64..).zip(ops) {
            // Far pushes land ~10^9 ns past the near cluster, guaranteeing
            // they spill into the top whatever the active edges are.
            let time = if far {
                SimTime::from_nanos(1_000_000_000 + t * 1_000_003)
            } else {
                SimTime::from_nanos(t)
            };
            lad.push(time, next_id);
            heap.push(time, next_id);
            for _ in 0..pops {
                let a = QueueBackend::pop(&mut lad);
                prop_assert_eq!(a, QueueBackend::pop(&mut heap), "pop divergence");
                prop_assert_eq!(QueueBackend::peek_time(&lad), QueueBackend::peek_time(&heap));
            }
        }
        loop {
            let a = QueueBackend::pop(&mut lad);
            prop_assert_eq!(a, QueueBackend::pop(&mut heap), "drain divergence");
            if a.is_none() { break; }
        }
    }

    /// A simulation pinned to each backend delivers the exact same
    /// (time, payload) stream for random schedules.
    #[test]
    fn simulations_agree_across_backends(delays in prop::collection::vec(0u64..100_000, 1..300)) {
        let mut on_heap: Simulation<u64> = Simulation::new();
        let mut on_lad: Simulation<u64, LadderQueue<u64>> = Simulation::default();
        for &d in &delays {
            on_heap.schedule(SimDuration::from_nanos(d), d);
            on_lad.schedule(SimDuration::from_nanos(d), d);
        }
        loop {
            let a = on_heap.next_event();
            prop_assert_eq!(a, on_lad.next_event());
            if a.is_none() { break; }
        }
        prop_assert_eq!(on_heap.events_processed(), delays.len() as u64);
    }

    /// The lane queue pops what the heap pops. Random interleavings of
    /// `schedule_at` and `schedule_routed` (arbitrary future times, some
    /// on a lane's delay), `schedule_lane` on 1–6 lanes (delays of zero,
    /// duplicate delays, and delays landing on the instants heap events
    /// use), `next_event`, `next_event_before` (the fleet loop's pop) and
    /// clears go to a lane simulation and, as plain schedules, to
    /// `Simulation::new()`; the popped `(time, event)` stream,
    /// `peek_time`, `pending` and the clock must agree after every call.
    #[test]
    fn lane_queue_pops_what_the_heap_pops(
        delays in prop::collection::vec(0u64..6, 1..7),
        ops in prop::collection::vec((0u8..40, 0usize..6, 0u64..12), 1..400),
    ) {
        // Every time is a multiple of one grain, so lane and heap events
        // share instants often and only the sequence order separates them.
        const GRAIN: u64 = 40;
        let delays: Vec<SimDuration> =
            delays.iter().map(|&d| SimDuration::from_nanos(d * GRAIN)).collect();
        let mut lanes = Simulation::with_backend(LaneQueue::new(&delays));
        let mut heap: Simulation<u64> = Simulation::new();
        let mut next_id = 0u64;
        for (op, lane, ahead) in ops {
            let ahead = SimDuration::from_nanos(ahead * GRAIN);
            match op {
                0..=9 => {
                    let at = lanes.now() + ahead;
                    if op < 5 {
                        lanes.schedule_at(at, next_id);
                    } else {
                        lanes.schedule_routed(at, next_id);
                    }
                    heap.schedule_at(at, next_id);
                    next_id += 1;
                }
                10..=20 => {
                    let lane = lane % delays.len();
                    lanes.schedule_lane(lane, next_id);
                    heap.schedule(delays[lane], next_id);
                    next_id += 1;
                }
                21..=29 => {
                    let popped = lanes.next_event();
                    prop_assert_eq!(popped, heap.next_event());
                }
                30..=38 => {
                    let deadline = lanes.now() + ahead;
                    let popped = lanes.next_event_before(deadline);
                    prop_assert_eq!(popped, heap.next_event_before(deadline));
                }
                _ => {
                    lanes.clear();
                    heap.clear();
                    prop_assert_eq!(lanes.pending(), 0);
                    prop_assert_eq!(lanes.peek_time(), None);
                }
            }
            prop_assert_eq!(lanes.peek_time(), heap.peek_time());
            prop_assert_eq!(lanes.pending(), heap.pending());
            prop_assert_eq!(lanes.now(), heap.now());
        }
        loop {
            let popped = lanes.next_event();
            prop_assert_eq!(popped, heap.next_event(), "drain divergence");
            if popped.is_none() { break; }
        }
        prop_assert_eq!(lanes.events_processed(), heap.events_processed());
    }

    /// Uniform range stays in range for arbitrary seeds and bounds.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Weighted sampling returns valid indices for arbitrary weights.
    #[test]
    fn rng_weighted_valid(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 1..20)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.weighted_index(&weights) < weights.len());
        }
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).duration_since(t), d);
    }

    /// Exponential sampling is non-negative and finite.
    #[test]
    fn rng_exp_sane(seed in any::<u64>(), mean in 0.0f64..100.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let x = rng.exp_f64(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }
}

/// Configs no longer name a queue, but the frozen benchmark's inputs still
/// do. A cell config that carries `"backend": "Adaptive"` loads (the
/// unknown key is skipped), and the compatibility type behind
/// `RubbosExperiment::backend` reads every queue name those inputs pin
/// and rejects the retired calendar queue.
#[test]
fn backend_kind_reads_the_adaptive_alias() {
    let cfg = ExperimentConfig::micro(8, 100);
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(!json.contains("backend"), "the config names no queue");
    let pinned = json.replacen('{', "{\"backend\":\"Adaptive\",", 1);
    let loaded: ExperimentConfig = serde_json::from_str(&pinned).unwrap();
    assert_eq!(serde_json::to_string(&loaded).unwrap(), json);

    let read = |s: &str| serde_json::from_str::<BackendKind>(s);
    for name in ["\"Heap\"", "\"Ladder\"", "\"Adaptive\""] {
        assert_eq!(read(name).unwrap(), BackendKind::Ladder, "{name}");
    }
    assert!(read("\"Calendar\"").is_err());
}
