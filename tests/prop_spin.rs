//! The write-spin fast-forward is exact: retiring spin iterations inline
//! (`Ctx::spin_write`) must leave every result bit-identical to running
//! each iteration through the event queue — summaries, the full trace
//! stream, thread names, counters and (bit-compared) gauges. The only
//! thing allowed to differ is `events_processed`, which must drop
//! wherever an unbounded spinner waits on a full send buffer. The
//! stepwise reference is `Experiment::fast_forward(false)`; multi-shard
//! fleets are checked against the same loop with the fast-forward off by
//! `asyncinv-fleet`'s own unit tests (`cluster::tests`).

use asyncinv::fault::{ConnSelector, FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::obs::{Recorder, TraceEvent};
use asyncinv::prelude::*;
use asyncinv::substrate::SchedPolicy;
use asyncinv::workload::RetryPolicy;
use proptest::prelude::*;

/// The architectures whose write loop spins without bound.
const SPINNERS: [ServerKind; 4] = [
    ServerKind::SingleThread,
    ServerKind::AsyncPool,
    ServerKind::AsyncPoolFix,
    ServerKind::Staged,
];

/// Everything a traced run externalizes except `events_processed`, plus
/// that counter on its own.
type TraceState = (Vec<TraceEvent>, Vec<String>, Vec<(String, u64)>, Vec<u64>);

fn trace_state(rec: &Recorder) -> (TraceState, u64) {
    let events: Vec<TraceEvent> = rec.events().copied().collect();
    let names = rec.thread_names().to_vec();
    let mut counters: Vec<(String, u64)> = rec
        .registry()
        .counters()
        .filter(|(n, _)| *n != "events_processed")
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, f64)> = rec
        .registry()
        .gauges()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let gauges = gauges.into_iter().map(|(_, v)| v.to_bits()).collect();
    let processed = rec.registry().counter("events_processed").unwrap_or(0);
    ((events, names, counters, gauges), processed)
}

fn cell(conc: usize, bytes: usize, lat_us: u64) -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::micro(conc, bytes).with_latency(SimDuration::from_micros(lat_us));
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(400);
    cfg.trace_capacity = 1 << 16;
    cfg
}

/// Runs `cfg` untraced and traced with the fast-forward on and off,
/// asserts the two agree bit for bit, and returns the events processed
/// (on, off) by the traced runs.
fn assert_exact(cfg: &ExperimentConfig, kind: ServerKind) -> (u64, u64) {
    let on = Experiment::new(cfg.clone());
    let off = Experiment::new(cfg.clone()).fast_forward(false);
    assert_eq!(
        on.run(kind),
        off.run(kind),
        "{kind}: untraced summary diverged"
    );
    let (a, rec_a) = on.run_traced(kind);
    let (b, rec_b) = off.run_traced(kind);
    assert_eq!(a, b, "{kind}: traced summary diverged");
    let (state_a, processed_a) = trace_state(&rec_a);
    let (state_b, processed_b) = trace_state(&rec_b);
    assert!(state_a == state_b, "{kind}: trace state diverged");
    assert!(
        processed_a <= processed_b,
        "{kind}: the fast-forward added events"
    );
    (processed_a, processed_b)
}

/// All eight architectures on the paper's write-spin cells: LAN and WAN,
/// one connection and many. The unbounded spinners must shed events on
/// the WAN cells; every other architecture never calls `spin_write` and
/// processes exactly the same events.
#[test]
fn fast_forward_is_exact_on_every_architecture() {
    for kind in ServerKind::ALL {
        for (conc, lat_us) in [(1, 0), (1, 5_000), (16, 0), (16, 5_000)] {
            let (on, off) = assert_exact(&cell(conc, 100 * 1024, lat_us), kind);
            if SPINNERS.contains(&kind) {
                if lat_us > 0 {
                    assert!(on * 4 < off, "{kind} c{conc}: {on} vs {off} events");
                }
            } else {
                assert_eq!(on, off, "{kind} never spins unboundedly");
            }
        }
    }
}

/// Small responses never fill the buffer: nothing to retire.
#[test]
fn small_responses_retire_nothing() {
    for kind in SPINNERS {
        let (on, off) = assert_exact(&cell(8, 100, 0), kind);
        assert_eq!(on, off, "{kind}");
    }
}

/// Every fault that touches the spin loop's inputs: loss (delayed ACKs),
/// ACK delay, a clamped buffer, connection resets, core stalls that
/// freeze the spinning core, and a slowdown that rescales each burst.
#[test]
fn fast_forward_is_exact_under_faults() {
    let ms = SimDuration::from_millis;
    let window = Some(ms(60));
    let faults = [
        FaultKind::Loss {
            selector: ConnSelector::All,
            prob: 0.05,
            duration: window,
        },
        FaultKind::AckDelay {
            selector: ConnSelector::Fraction(0.5),
            extra: ms(3),
            duration: window,
        },
        FaultKind::SlowReader {
            selector: ConnSelector::One(0),
            extra: ms(2),
            duration: window,
        },
        FaultKind::BufShrink {
            selector: ConnSelector::All,
            capacity: 4096,
            duration: window,
        },
        FaultKind::ConnReset {
            selector: ConnSelector::Fraction(0.25),
        },
        FaultKind::WorkerStall {
            core: None,
            duration: ms(7),
        },
        FaultKind::Slowdown {
            factor: 3.7,
            duration: window,
        },
        FaultKind::Abandon {
            selector: ConnSelector::Fraction(0.5),
        },
    ];
    for kind in SPINNERS {
        for (i, fault) in faults.into_iter().enumerate() {
            let mut cfg = cell(8, 100 * 1024, 2_000);
            cfg.retry = RetryPolicy {
                timeout: Some(ms(40)),
                max_retries: 2,
                ..RetryPolicy::default()
            };
            cfg.faults = Some(FaultPlan {
                seed: 9 + i as u64,
                events: (0..4)
                    .map(|k| FaultEvent {
                        at: ms(80 + 90 * k),
                        fault,
                    })
                    .collect(),
            });
            assert_exact(&cfg, kind);
        }
    }
}

/// Slice accounting: several spinners sharing one core preempt each
/// other at slice boundaries (retirement must stop at the boundary), and
/// a lone spinner renews its slice for free (retirement carries the
/// budget across boundaries in closed form). Slices of 27 µs are an exact
/// multiple of the default 9 µs spin cycle, so boundaries also land
/// exactly on burst ends; 50 µs and 1 ms do not.
#[test]
fn fast_forward_is_exact_across_slice_boundaries() {
    for slice_us in [27u64, 50, 1_000] {
        for conc in [1usize, 4, 32] {
            for kind in SPINNERS {
                let mut cfg = cell(conc, 64 * 1024, 1_000);
                cfg.cpu.time_slice = SimDuration::from_micros(slice_us);
                assert_exact(&cfg, kind);
            }
        }
    }
}

/// Multi-core machines under both run-queue policies, with stealing.
#[test]
fn fast_forward_is_exact_on_multi_core_machines() {
    for policy in [
        SchedPolicy::GlobalQueue,
        SchedPolicy::PerCore { steal: true },
    ] {
        for kind in SPINNERS {
            let mut cfg = cell(12, 100 * 1024, 3_000);
            cfg.cpu.cores = 3;
            cfg.cpu.policy = policy;
            assert_exact(&cfg, kind);
        }
    }
}

/// The shed plane and reject-fast writes run beside the spinning writers.
#[test]
fn fast_forward_is_exact_with_shedding() {
    for kind in SPINNERS {
        let mut cfg = cell(24, 100 * 1024, 2_000);
        cfg.shed = Some(ShedConfig {
            max_concurrent: 4,
            queue_cap: 4,
            policy: ShedPolicy::RejectFast,
            reject_bytes: 256,
        });
        cfg.retry = RetryPolicy {
            timeout: Some(SimDuration::from_millis(30)),
            max_retries: 3,
            ..RetryPolicy::default()
        };
        assert_exact(&cfg, kind);
    }
}

/// The RUBBoS macro engine's reactor pool spins on its larger pages.
#[test]
fn rubbos_fast_forward_is_exact() {
    let mut exp = RubbosExperiment::new(300);
    exp.warmup = SimDuration::from_secs(2);
    exp.measure = SimDuration::from_secs(4);
    exp.tcp.added_latency = SimDuration::from_millis(2);
    let on = exp.run_traced(ServerKind::AsyncPool, 1 << 16);
    exp.fast_forward = false;
    let off = exp.run_traced(ServerKind::AsyncPool, 1 << 16);
    assert_eq!(on.0, off.0, "RUBBoS summary diverged");
    let (state_a, processed_a) = trace_state(&on.1);
    let (state_b, processed_b) = trace_state(&off.1);
    assert!(state_a == state_b, "RUBBoS trace diverged");
    assert!(processed_a < processed_b, "RUBBoS retired nothing");
}

proptest! {
    // Each case runs four simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary spinner cells — architecture, concurrency, response
    /// size, latency, cores, slice, seed — agree with the fast-forward on
    /// and off.
    #[test]
    fn fast_forward_is_exact_for_arbitrary_cells(
        kind in prop::sample::select(SPINNERS.to_vec()),
        conc in 1usize..24,
        kb in 8usize..160,
        lat_us in 0u64..6_000,
        cores in 1usize..3,
        slice_us in 5u64..2_000,
        seed in 0u64..1_000,
    ) {
        let mut cfg = cell(conc, kb * 1024, lat_us);
        cfg.cpu.cores = cores;
        cfg.cpu.time_slice = SimDuration::from_micros(slice_us);
        cfg.clients.seed = seed;
        cfg.measure = SimDuration::from_millis(200);
        assert_exact(&cfg, kind);
    }
}
