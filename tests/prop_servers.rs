//! Property tests of the experiment engine: for arbitrary (architecture,
//! concurrency, response size, latency) cells, system-level invariants
//! must hold.

use asyncinv::littles_law_residual;
use asyncinv::prelude::*;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ServerKind> {
    prop::sample::select(ServerKind::ALL.to_vec())
}

fn cell(kind: ServerKind, conc: usize, bytes: usize, lat_us: u64, seed: u64) -> RunSummary {
    let mut cfg =
        ExperimentConfig::micro(conc, bytes).with_latency(SimDuration::from_micros(lat_us));
    cfg.warmup = SimDuration::from_millis(200);
    cfg.measure = SimDuration::from_millis(800);
    cfg.clients.seed = seed;
    Experiment::new(cfg).run(kind)
}

proptest! {
    // Each case runs a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sampled cell completes requests, respects Little's law and
    /// never over-consumes the CPU.
    #[test]
    fn engine_invariants(
        kind in kind_strategy(),
        conc in 1usize..32,
        bytes in prop::sample::select(vec![100usize, 4 * 1024, 10 * 1024, 64 * 1024]),
        lat_ms in 0u64..3,
        seed in 0u64..1_000,
    ) {
        let s = cell(kind, conc, bytes, lat_ms * 1000, seed);
        prop_assert!(s.completions > 0, "{kind} completed nothing");
        prop_assert!(s.throughput > 0.0);
        prop_assert!(s.cpu.utilization() <= 1.005, "util {}", s.cpu.utilization());
        prop_assert!(s.mean_rt_us > 0);
        prop_assert!(s.p99_rt_us >= s.p50_rt_us);
        let resid = littles_law_residual(conc, s.throughput, s.mean_rt());
        // Short windows are noisy; allow a wider band than the targeted
        // integration test does.
        prop_assert!(resid.abs() < 0.25, "{kind}: Little's law residual {resid}");
        if kind == ServerKind::Proactor {
            // Ring writes complete via CQEs, never via counted `write()`
            // syscalls — the response instead costs at least one SQE.
            prop_assert!(s.writes_per_req == 0.0, "proactor must not write()");
            prop_assert!(s.sq_submits as f64 >= s.completions as f64,
                "every request needs a read+write SQE pair");
        } else {
            prop_assert!(s.writes_per_req >= 0.9, "every request needs a write");
        }
    }

    /// Determinism holds across the whole configuration space.
    #[test]
    fn engine_determinism(
        kind in kind_strategy(),
        conc in 1usize..16,
        bytes in 1usize..200_000,
        seed in 0u64..1_000,
    ) {
        let a = cell(kind, conc, bytes, 0, seed);
        let b = cell(kind, conc, bytes, 0, seed);
        prop_assert_eq!(a, b);
    }

    /// The blocking server performs exactly one counted write per request
    /// for any response size; spinning servers never do fewer.
    #[test]
    fn write_count_discipline(bytes in 1usize..300_000) {
        let sync = cell(ServerKind::SyncThread, 4, bytes, 0, 1);
        prop_assert!((sync.writes_per_req - 1.0).abs() < 0.05,
            "sync writes/req {}", sync.writes_per_req);
        let single = cell(ServerKind::SingleThread, 4, bytes, 0, 1);
        prop_assert!(single.writes_per_req >= sync.writes_per_req - 0.05);
        if bytes > 20 * 1024 {
            prop_assert!(single.writes_per_req > 1.5,
                "large responses must multi-write, got {}", single.writes_per_req);
        }
    }
}
