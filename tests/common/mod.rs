//! The harness the four pinned-digest fixtures share (`engine_fixture`,
//! `fleet_fixture`, `dag_fixture`, `rubbos_fixture`): an FNV-1a digest,
//! the digests of a traced run's parts, and the bless-or-compare check
//! against a committed fixture file. Each fixture keeps its own cells,
//! its `compute()` and its fixture path.

use asyncinv::obs::Recorder;
use std::fmt::Debug;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}

/// The digest of a value's `Debug` form (a run's summary).
pub fn debug_digest(v: &impl Debug) -> u64 {
    Fnv::new().str(&format!("{v:?}")).0
}

/// The traced run's externally visible state, one digest per part. The
/// registry counters named in `skip_counters` are left out of the
/// counters digest.
pub fn trace_parts(rec: &Recorder, skip_counters: &[&str]) -> [(&'static str, u64); 4] {
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
    let mut counters: Vec<(&str, u64)> = rec
        .registry()
        .counters()
        .filter(|(n, _)| !skip_counters.contains(n))
        .collect();
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

/// Compares `table` (one `cell part digest` line per part) with the
/// committed `fixture` (a path from the repository root), or rewrites the
/// fixture when `ASYNCINV_BLESS` is set.
pub fn bless_or_compare(fixture: &str, table: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
    if std::env::var_os("ASYNCINV_BLESS").is_some() {
        std::fs::write(&path, table).expect("write fixture");
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
