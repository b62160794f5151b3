//! Pins the RUBBoS macro engine's output to a committed fixture.
//!
//! Every cell below runs untraced (`run`) and traced (`run_traced`:
//! summary, every retained trace event, thread names, registry counters
//! and bit-compared gauges). Each part is folded into an FNV-1a digest and
//! compared with `tests/fixtures/rubbos_digests.txt`. The fixture was
//! recorded while the engine still dispatched its drive loop on a
//! configured queue backend (the binary heap by default), so this test
//! proves the loop's own queue pops the same order.
//!
//! After a change that is meant to move results, regenerate the fixture
//! with `ASYNCINV_BLESS=1 cargo test --test rubbos_fixture` and say why in
//! the change.

use asyncinv::prelude::*;
use common::{debug_digest, trace_parts};
use std::fmt::Write as _;

mod common;

const FIXTURE: &str = "tests/fixtures/rubbos_digests.txt";

/// A RUBBoS run with short windows: 2 s of warm-up, 4 s measured.
fn short(users: usize) -> RubbosExperiment {
    let mut exp = RubbosExperiment::new(users);
    exp.warmup = SimDuration::from_secs(2);
    exp.measure = SimDuration::from_secs(4);
    exp
}

/// Every pinned cell: a name, the experiment, and the Tomcat architecture.
fn cells() -> Vec<(String, RubbosExperiment, ServerKind)> {
    let mut out = Vec::new();
    for kind in [ServerKind::SyncThread, ServerKind::AsyncPool] {
        for users in [100, 500, 1_500] {
            out.push((format!("u{users}/{kind}"), short(users), kind));
        }
    }
    // The reactor pool spins on the larger pages behind a 2 ms link; this
    // cell runs every spin iteration through the event queue.
    let mut stepwise = short(300);
    stepwise.tcp.added_latency = SimDuration::from_millis(2);
    stepwise.fast_forward = false;
    out.push((
        "u300-wan-stepwise/sTomcat-Async".into(),
        stepwise,
        ServerKind::AsyncPool,
    ));
    out
}

/// One fixture line per (cell, part): `cell part digest`.
fn compute() -> String {
    let mut table = String::new();
    for (name, exp, kind) in cells() {
        let summary = exp.run(kind);
        let (traced, rec) = exp.run_traced(kind, 1 << 16);
        assert_eq!(summary, traced, "{name}: tracing changed the summary");
        assert!(summary.completions > 0, "{name}: no completions");
        let mut parts = vec![("summary", debug_digest(&summary))];
        parts.extend(trace_parts(&rec, &[]));
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn rubbos_output_matches_the_pinned_digests() {
    common::bless_or_compare(FIXTURE, &compute());
}
