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

use asyncinv::obs::Recorder;
use asyncinv::prelude::*;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/rubbos_digests.txt";

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

fn summary_digest(s: &RubbosSummary) -> u64 {
    Fnv::new().str(&format!("{s:?}")).0
}

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
        let mut parts = vec![("summary", summary_digest(&summary))];
        parts.extend(trace_parts(&rec));
        for (part, digest) in parts {
            writeln!(table, "{name} {part} {digest:016x}").expect("write to String");
        }
    }
    table
}

#[test]
fn rubbos_output_matches_the_pinned_digests() {
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
