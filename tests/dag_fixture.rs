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
use asyncinv::prelude::*;
use common::{debug_digest, trace_parts, Fnv};
use std::fmt::Write as _;

mod common;

const FIXTURE: &str = "tests/fixtures/dag_digests.txt";

/// Summary, spans and lattices of one outcome.
fn outcome_parts(out: &DagOutcome) -> [(&'static str, u64); 3] {
    let summary = debug_digest(&out.summary);
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

/// A one-slot store reached two ways: straight from the front, and
/// through a relay whose inbound edge is slow. A relayed call reaches the
/// store behind the direct calls of younger requests. The store runs near
/// saturation, and with no retries and 2 ms timeouts its callers often die
/// before it serves them; then its queue is the only thing that names
/// their request. Each run dispatches over 40,000 calls.
fn backlog(seed: u64) -> ServiceGraph {
    let mut g = ServiceGraph::empty("fixture-backlog", seed);
    for (name, kind) in [
        ("front", ServerKind::NettyLike),
        ("relay", ServerKind::AsyncPool),
        ("store", ServerKind::SingleThread),
    ] {
        g.tiers.push(TierSpec::new(name, kind));
    }
    g.tiers[2].shards = 1;
    g.tiers[2].slots_per_shard = 1;
    let us = SimDuration::from_micros;
    for (from, to, latency, timeout) in [(0, 1, 2000, 8000), (0, 2, 50, 2000), (1, 2, 50, 2000)] {
        let mut e = EdgeSpec::new(from, to);
        e.latency = us(latency);
        e.timeout = us(timeout);
        e.max_retries = 0;
        g.edges.push(e);
    }
    g.arrivals.rate_per_sec = 1800.0;
    g.arrivals.warmup = SimDuration::from_millis(100);
    g.arrivals.measure = SimDuration::from_secs(6);
    g.cal.measure = SimDuration::from_millis(200);
    g
}

/// Every pinned graph, two seeds each. The backlog graph came later, so
/// its lines follow the others'.
fn graphs() -> Vec<ServiceGraph> {
    let mut out = Vec::new();
    for seed in [23, 31] {
        out.push(diamond(seed));
        out.push(storm(seed));
        out.push(social(seed));
        out.push(lanes(seed));
    }
    out.push(backlog(23));
    out.push(backlog(31));
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
        parts.extend(trace_parts(&rec, &[]));
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn dag_output_matches_the_pinned_digests() {
    common::bless_or_compare(FIXTURE, &compute());
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
