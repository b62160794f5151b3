//! Pins the composed DAG engine's output to a committed fixture.
//!
//! Every graph below runs traced (`run_traced`) on two seeds. Each run is
//! folded into FNV-1a digests of its parts: the
//! `DagSummary`, every `DagSpan`, the full trace state (events, thread
//! names, registry counters, bit-compared gauges) and the calibrated tier
//! lattices. The digests are compared with `tests/fixtures/dag_digests.txt`.
//! The untraced `run` must report the same summary.
//!
//! After a change that is meant to move results, regenerate the fixture
//! with `ASYNCINV_BLESS=1 cargo test --test dag_fixture` and say why in the
//! change.

use asyncinv::dag::{DagOutcome, DagRun, EdgeSpec, FleetDriver, ServiceGraph, SlowTier, TierSpec};
use asyncinv::fleet::HedgeConfig;
use asyncinv::obs::Recorder;
use asyncinv::prelude::*;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/dag_digests.txt";

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
    let counters = counters
        .iter()
        .fold(Fnv::new(), |h, (n, v)| h.str(n).u64(*v));
    let mut gauges: Vec<(&str, f64)> = rec.registry().gauges().collect();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    let gauges = gauges
        .iter()
        .fold(Fnv::new(), |h, (n, v)| h.str(n).u64(v.to_bits()));
    [
        ("events", events.0),
        ("names", names.0),
        ("counters", counters.0),
        ("gauges", gauges.0),
    ]
}

/// Summary, spans and lattices of one outcome.
fn outcome_parts(out: &DagOutcome) -> [(&'static str, u64); 3] {
    let summary = Fnv::new().str(&format!("{:?}", out.summary)).0;
    let spans = out
        .spans
        .iter()
        .fold(Fnv::new(), |h, s| h.str(&format!("{s:?}")))
        .0;
    let lattices = out.profiles.iter().fold(Fnv::new(), |h, p| {
        let h = p
            .lattice
            .iter()
            .fold(h.u64(p.tier as u64), |h, &q| h.u64(q));
        match &p.slow_lattice {
            Some(l) => l.iter().fold(h.u64(1), |h, &q| h.u64(q)),
            None => h.u64(0),
        }
    });
    [
        ("summary", summary),
        ("spans", spans),
        ("lattices", lattices.0),
    ]
}

/// The `prop_dag` diamond: fan-out to a shared leaf, edge budgets, hedges
/// into the leaf and a mid-run brownout of the leaf.
fn diamond(seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::diamond("fixture-diamond", ServerKind::NettyLike, seed);
    g.tiers[3].kind = ServerKind::SingleThread;
    g.arrivals.rate_per_sec = 2500.0;
    g.arrivals.warmup = SimDuration::from_millis(50);
    g.arrivals.measure = SimDuration::from_millis(400);
    g.cal.measure = SimDuration::from_millis(200);
    for e in &mut g.edges {
        e.timeout = SimDuration::from_micros(2000);
        e.max_retries = 2;
        e.budget_ratio = 0.2;
        if e.to == 3 {
            e.hedge = Some(HedgeConfig {
                percentile: 0.95,
                initial_delay: SimDuration::from_millis(1),
                min_samples: 32,
                per_shard: false,
            });
        }
    }
    g.slow = Some(SlowTier {
        tier: 3,
        factor: 20.0,
        at: SimDuration::from_millis(150),
        duration: SimDuration::from_millis(150),
    });
    g
}

/// The diamond under the benchmark's Storm policy: no budgets, no hedges.
fn storm(seed: u64) -> ServiceGraph {
    let mut g = diamond(seed);
    g.name = "fixture-storm".into();
    for e in &mut g.edges {
        e.budget_ratio = 0.0;
        e.hedge = None;
    }
    g
}

/// The DeathStarBench-like social network, shortened.
fn social(seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::social_network("fixture-social", ServerKind::NettyLike, seed);
    g.tiers[4].kind = ServerKind::SingleThread;
    g.arrivals.rate_per_sec = 3000.0;
    g.arrivals.warmup = SimDuration::from_millis(50);
    g.arrivals.measure = SimDuration::from_millis(300);
    g.cal.measure = SimDuration::from_millis(200);
    g
}

/// A chain whose edges each have their own latency and timeout, so
/// several fixed delays are pending at once. The root edge's hedge fires
/// one latency before its timeout, so a hedge duplicate reaches the
/// station at the very instant the original times out.
fn lanes(seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::empty("fixture-lanes", seed);
    for (name, kind) in [
        ("gateway", ServerKind::NettyLike),
        ("logic", ServerKind::AsyncPool),
        ("cache", ServerKind::Proactor),
        ("store", ServerKind::SingleThread),
    ] {
        let mut t = TierSpec::new(name, kind);
        t.queue_cap = 16;
        g.tiers.push(t);
    }
    let us = SimDuration::from_micros;
    for (from, latency, timeout) in [(0, 50, 2000), (1, 100, 1500), (2, 150, 900)] {
        let mut e = EdgeSpec::new(from, from + 1);
        e.latency = us(latency);
        e.timeout = us(timeout);
        e.max_retries = 2;
        g.edges.push(e);
    }
    g.edges[0].budget_ratio = 0.5;
    g.edges[0].hedge = Some(HedgeConfig {
        percentile: 0.9,
        initial_delay: us(1950),
        min_samples: u64::MAX,
        per_shard: false,
    });
    g.arrivals.rate_per_sec = 4000.0;
    g.arrivals.warmup = SimDuration::from_millis(50);
    g.arrivals.measure = SimDuration::from_millis(300);
    g.cal.measure = SimDuration::from_millis(200);
    g.slow = Some(SlowTier {
        tier: 3,
        factor: 8.0,
        at: SimDuration::from_millis(120),
        duration: SimDuration::from_millis(100),
    });
    g
}

/// Every pinned graph, two seeds each.
fn graphs() -> Vec<ServiceGraph> {
    let mut out = Vec::new();
    for seed in [23, 31] {
        out.push(diamond(seed));
        out.push(storm(seed));
        out.push(social(seed));
        out.push(lanes(seed));
    }
    out
}

/// One fixture line per (graph, seed, part): `cell part digest`. The
/// cell names keep the `/Interleaved` suffix they were recorded with.
fn compute() -> String {
    let mut table = String::new();
    for g in graphs() {
        let name = format!("{}/seed{}/Interleaved", g.name, g.seed);
        let run = DagRun::new(g, FleetDriver::Interleaved);
        let (traced, rec) = run.run_traced();
        assert_eq!(
            run.run().summary,
            traced.summary,
            "{name}: tracing changed the summary"
        );
        let mut parts = outcome_parts(&traced).to_vec();
        parts.extend(trace_parts(&rec));
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn dag_output_matches_the_pinned_digests() {
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

/// A composed run builds spans only when it is observed: `run` returns
/// none, `run_traced` one per root arrival.
#[test]
fn only_observed_runs_build_spans() {
    let run = DagRun::new(lanes(7), FleetDriver::Interleaved);
    let plain = run.run();
    let (traced, _) = run.run_traced();
    assert_eq!(plain.summary, traced.summary);
    assert!(
        plain.spans.is_empty(),
        "an unobserved composed run builds no spans"
    );
    assert_eq!(traced.spans.len() as u64, traced.summary.arrivals);
}
