//! Pins the single-server `Experiment` output to a committed fixture.
//!
//! Every cell below runs untraced (`run_detailed`: summary plus the
//! architecture's debug counters) and traced (`run_traced`: summary, every
//! retained trace event, thread names, registry counters and bit-compared
//! gauges). Each part is folded into an FNV-1a digest and compared with
//! `tests/fixtures/engine_digests.txt`. The fixture was recorded from the
//! dedicated single-server drive loop before `Experiment` became a
//! one-shard fleet, so this test proves the two loops agree bit for bit.
//!
//! After a change that is meant to move results, regenerate the fixture
//! with `ASYNCINV_BLESS=1 cargo test --test engine_fixture` and say why in
//! the change.

use asyncinv::fault::{ConnSelector, FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::obs::Recorder;
use asyncinv::prelude::*;
use asyncinv::workload::{ArrivalMode, RetryPolicy, TimeoutMode};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/engine_digests.txt";

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
    fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}

/// The traced run's externally visible state, one digest per part.
fn trace_parts(rec: &Recorder) -> [(&'static str, u64); 4] {
    let mut events = Fnv::new();
    for ev in rec.events() {
        events = events
            .u64(ev.time.as_nanos())
            .u64(ev.kind.index() as u64)
            .u64(u64::from(ev.conn))
            .u64(u64::from(ev.thread))
            .u64(u64::from(ev.class))
            .u64(ev.req)
            .u64(ev.arg);
    }
    let names = rec.thread_names().iter().fold(Fnv::new(), |h, n| h.str(n));
    let mut counters: Vec<(&str, u64)> = rec.registry().counters().collect();
    counters.sort();
    let counters = counters.iter().fold(Fnv::new(), |h, (n, v)| h.str(n).u64(*v));
    let mut gauges: Vec<(&str, f64)> = rec.registry().gauges().collect();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    let gauges = gauges.iter().fold(Fnv::new(), |h, (n, v)| h.str(n).u64(v.to_bits()));
    [
        ("events", events.0),
        ("names", names.0),
        ("counters", counters.0),
        ("gauges", gauges.0),
    ]
}

fn summary_digest(s: &RunSummary) -> u64 {
    Fnv::new().str(&format!("{s:?}")).0
}

fn base(conc: usize, bytes: usize, lat_us: u64) -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::micro(conc, bytes).with_latency(SimDuration::from_micros(lat_us));
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(400);
    cfg.trace_capacity = 1 << 16;
    cfg
}

fn retry(mode: TimeoutMode) -> RetryPolicy {
    RetryPolicy {
        timeout: Some(SimDuration::from_millis(20)),
        timeout_mode: mode,
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    }
}

/// A plan that makes the resilience plane work: a slowdown that trips
/// timeouts, loss, resets that short responses, and client abandons.
fn faults(seed: u64) -> FaultPlan {
    let ms = SimDuration::from_millis;
    FaultPlan {
        seed,
        events: vec![
            FaultEvent {
                at: ms(150),
                fault: FaultKind::Slowdown {
                    factor: 30.0,
                    duration: Some(ms(120)),
                },
            },
            FaultEvent {
                at: ms(200),
                fault: FaultKind::Loss {
                    selector: ConnSelector::Fraction(0.5),
                    prob: 0.05,
                    duration: Some(ms(100)),
                },
            },
            FaultEvent {
                at: ms(300),
                fault: FaultKind::ConnReset {
                    selector: ConnSelector::Fraction(0.25),
                },
            },
            FaultEvent {
                at: ms(380),
                fault: FaultKind::Abandon {
                    selector: ConnSelector::One(1),
                },
            },
        ],
    }
}

/// Every pinned cell: a name, the experiment, and the architecture.
fn cells() -> Vec<(String, Experiment, ServerKind)> {
    let mut out = Vec::new();
    for kind in ServerKind::ALL {
        out.push((format!("lan-0.1kb/{kind}"), Experiment::new(base(8, 100, 0)), kind));
    }
    for kind in ServerKind::ALL {
        let exp = Experiment::new(base(4, 100 * 1024, 5_000));
        out.push((format!("wan-100kb/{kind}"), exp, kind));
    }
    let stepwise = Experiment::new(base(4, 100 * 1024, 5_000)).fast_forward(false);
    out.push(("wan-100kb-stepwise/SingleT-Async".into(), stepwise, ServerKind::SingleThread));
    for policy in [ShedPolicy::DropNew, ShedPolicy::DropOldest, ShedPolicy::RejectFast] {
        for kind in [ServerKind::NettyLike, ServerKind::AsyncPool] {
            let mut cfg = base(24, 10 * 1024, 500);
            cfg.retry = retry(TimeoutMode::Fixed);
            cfg.faults = Some(faults(9));
            cfg.shed = Some(ShedConfig {
                max_concurrent: 6,
                queue_cap: 4,
                policy,
                reject_bytes: 256,
            });
            out.push((format!("resilience-{policy:?}/{kind}"), Experiment::new(cfg), kind));
        }
    }
    for kind in [ServerKind::SyncThread, ServerKind::Hybrid, ServerKind::Proactor] {
        let mut cfg = base(16, 10 * 1024, 1_000);
        cfg.retry = retry(TimeoutMode::Rto);
        cfg.faults = Some(faults(4));
        out.push((format!("rto/{kind}"), Experiment::new(cfg), kind));
    }
    for kind in [ServerKind::SingleThread, ServerKind::NettyLike, ServerKind::Staged] {
        let mut cfg = base(16, 10 * 1024, 200);
        cfg.clients.arrivals = ArrivalMode::Open { rate_per_sec: 14_000.0 };
        cfg.retry = retry(TimeoutMode::Fixed);
        out.push((format!("open-loop/{kind}"), Experiment::new(cfg), kind));
    }
    out
}

/// One fixture line per (cell, part): `cell part digest`.
fn compute() -> String {
    let mut table = String::new();
    for (name, exp, kind) in cells() {
        let (summary, debug) = exp.run_detailed(kind);
        let debug = debug.iter().fold(Fnv::new(), |h, (n, v)| h.str(n).u64(*v)).0;
        let (traced, rec) = exp.run_traced(kind);
        assert_eq!(summary, traced, "{name}: tracing changed the summary");
        let mut parts = vec![("summary", summary_digest(&summary)), ("debug", debug)];
        parts.extend(trace_parts(&rec));
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn experiment_output_matches_the_pinned_engine_digests() {
    let table = compute();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASYNCINV_BLESS").is_some() {
        std::fs::write(&path, &table).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(&path).expect("read fixture");
    let diff: Vec<String> = pinned
        .lines()
        .zip(table.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("pinned {a}\n   got {b}"))
        .collect();
    assert!(
        diff.is_empty() && pinned.lines().count() == table.lines().count(),
        "{} of {} digests differ:\n{}",
        diff.len(),
        pinned.lines().count(),
        diff.join("\n")
    );
}
