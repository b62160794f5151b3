//! One preset per table and figure of the paper's evaluation.
//!
//! Each function runs the exact workload/parameter grid of the
//! corresponding paper artifact and returns structured results; the
//! `asyncinv-bench` binaries render them as text tables. All presets are
//! deterministic. [`Fidelity::Quick`] shrinks warm-up/measurement windows
//! for CI; [`Fidelity::Full`] matches the defaults used for the numbers in
//! `EXPERIMENTS.md`.

use asyncinv_fleet::Experiment;
use asyncinv_metrics::RunSummary;
use asyncinv_servers::rubbos_engine::{RubbosExperiment, RubbosSummary};
use asyncinv_servers::{ExperimentConfig, ServerKind};
use asyncinv_simcore::SimDuration;
use asyncinv_tcp::SendBufPolicy;
use asyncinv_workload::Mix;

/// How long to warm up and measure each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short windows for CI and doc tests.
    Quick,
    /// The windows used for the recorded EXPERIMENTS.md numbers.
    Full,
}

impl Fidelity {
    /// (warmup, measure) for micro cells.
    pub fn micro_windows(self) -> (SimDuration, SimDuration) {
        match self {
            Fidelity::Quick => (SimDuration::from_millis(300), SimDuration::from_secs(2)),
            Fidelity::Full => (SimDuration::from_secs(2), SimDuration::from_secs(10)),
        }
    }

    /// (warmup, measure) for RUBBoS macro cells.
    pub fn macro_windows(self) -> (SimDuration, SimDuration) {
        match self {
            Fidelity::Quick => (SimDuration::from_secs(8), SimDuration::from_secs(15)),
            Fidelity::Full => (SimDuration::from_secs(20), SimDuration::from_secs(40)),
        }
    }

    /// A micro cell config at this fidelity's windows (used by the
    /// [`runner`](crate::runner) to materialize grid cells).
    pub fn micro(self, concurrency: usize, bytes: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::micro(concurrency, bytes);
        let (w, m) = self.micro_windows();
        cfg.warmup = w;
        cfg.measure = m;
        cfg
    }

    fn mixed(self, concurrency: usize, mix: Mix) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::with_mix(concurrency, mix);
        let (w, m) = self.micro_windows();
        cfg.warmup = w;
        cfg.measure = m;
        cfg
    }
}

/// The paper's three representative response sizes (bytes).
pub const SIZES: [usize; 3] = [100, 10 * 1024, 100 * 1024];

/// The concurrency sweep of Figs 2 and 4 (1–3200, doubling).
pub const CONCURRENCIES: [usize; 9] = [1, 8, 16, 64, 200, 400, 800, 1600, 3200];

/// **Fig 1** — RUBBoS throughput/response time vs. number of users for the
/// thread-based (Tomcat 7) and asynchronous (Tomcat 8) application tiers.
pub fn fig01_rubbos(fid: Fidelity, users: &[usize]) -> Vec<RubbosSummary> {
    let mut out = Vec::new();
    for &u in users {
        for kind in [ServerKind::SyncThread, ServerKind::AsyncPool] {
            let mut e = RubbosExperiment::new(u);
            let (w, m) = fid.macro_windows();
            e.warmup = w;
            e.measure = m;
            out.push(e.run(kind));
        }
    }
    out
}

/// **Table I** — context switches per request, TomcatAsync vs TomcatSync,
/// at workload concurrency 8 for the three response sizes. Uses the
/// real-NIO Tomcat model (the paper profiles the full servers here).
pub fn table1_context_switches(fid: Fidelity) -> Vec<RunSummary> {
    let mut out = Vec::new();
    for &size in &SIZES {
        for kind in [ServerKind::AsyncPool, ServerKind::SyncThread] {
            let mut cfg = fid.micro(8, size);
            cfg.tomcat_real_nio = true;
            out.push(Experiment::new(cfg).run(kind));
        }
    }
    out
}

/// **Fig 2** — throughput vs. workload concurrency, thread-based vs
/// asynchronous Tomcat, for the three response sizes.
pub fn fig02_sync_vs_async(fid: Fidelity, concurrencies: &[usize]) -> Vec<RunSummary> {
    sweep(
        fid,
        &[ServerKind::SyncThread, ServerKind::AsyncPool],
        &SIZES,
        concurrencies,
    )
}

/// **Table II** — context switches per request by design, measured at
/// concurrency 1 (4 / 2 / 0 / 0).
pub fn table2_cs_per_request(fid: Fidelity) -> Vec<RunSummary> {
    [
        ServerKind::AsyncPool,
        ServerKind::AsyncPoolFix,
        ServerKind::SyncThread,
        ServerKind::SingleThread,
    ]
    .iter()
    .map(|&k| Experiment::new(fid.micro(1, 100)).run(k))
    .collect()
}

/// **Fig 4** — throughput and context-switch rates for the four simplified
/// architectures across concurrencies and response sizes.
pub fn fig04_four_archetypes(fid: Fidelity, concurrencies: &[usize]) -> Vec<RunSummary> {
    sweep(
        fid,
        &[
            ServerKind::SyncThread,
            ServerKind::AsyncPool,
            ServerKind::AsyncPoolFix,
            ServerKind::SingleThread,
        ],
        &SIZES,
        concurrencies,
    )
}

/// **Table III** — CPU user/system split at concurrency 100 for 0.1 KB and
/// 100 KB responses, sTomcat-Sync vs SingleT-Async.
pub fn table3_cpu_split(fid: Fidelity) -> Vec<RunSummary> {
    let mut out = Vec::new();
    for &size in &[100usize, 100 * 1024] {
        for kind in [ServerKind::SyncThread, ServerKind::SingleThread] {
            out.push(Experiment::new(fid.micro(100, size)).run(kind));
        }
    }
    out
}

/// **Table IV** — `socket.write()` calls per request in SingleT-Async for
/// the three response sizes.
pub fn table4_write_spin(fid: Fidelity) -> Vec<RunSummary> {
    SIZES
        .iter()
        .map(|&s| Experiment::new(fid.micro(4, s)).run(ServerKind::SingleThread))
        .collect()
}

/// **Fig 6** — SingleT-Async sending 100 KB responses at concurrency 100:
/// kernel auto-tuned send buffer vs a fixed 100 KB buffer, across added
/// latencies (µs, one-way).
pub fn fig06_autotuning(fid: Fidelity, latencies_us: &[u64]) -> Vec<RunSummary> {
    let mut out = Vec::new();
    for &lat in latencies_us {
        for (label, policy) in [
            (
                "auto-tune",
                SendBufPolicy::AutoTune {
                    min: 16 * 1024,
                    max: 4 * 1024 * 1024,
                },
            ),
            ("fixed-100KB", SendBufPolicy::Fixed(100 * 1024)),
        ] {
            let mut cfg = fid.micro(100, 100 * 1024);
            cfg.tcp.send_buf = policy;
            cfg.tcp.added_latency = SimDuration::from_micros(lat);
            let mut s = Experiment::new(cfg).run(ServerKind::SingleThread);
            s.server = format!("SingleT-Async/{label}");
            out.push(s);
        }
    }
    out
}

/// **Fig 7** — throughput and response time vs. added network latency at
/// concurrency 100 with 100 KB responses, for four architectures.
pub fn fig07_latency(fid: Fidelity, latencies_us: &[u64]) -> Vec<RunSummary> {
    let kinds = [
        ServerKind::SyncThread,
        ServerKind::AsyncPoolFix,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
    ];
    let mut out = Vec::new();
    for &lat in latencies_us {
        for kind in kinds {
            let cfg = fid
                .micro(100, 100 * 1024)
                .with_latency(SimDuration::from_micros(lat));
            out.push(Experiment::new(cfg).run(kind));
        }
    }
    out
}

/// **Fig 9** — NettyServer vs SingleT-Async vs sTomcat-Sync across
/// concurrencies for (a) 100 KB and (b) 0.1 KB responses.
pub fn fig09_netty(fid: Fidelity, concurrencies: &[usize]) -> Vec<RunSummary> {
    sweep(
        fid,
        &[
            ServerKind::NettyLike,
            ServerKind::SingleThread,
            ServerKind::SyncThread,
        ],
        &[100 * 1024, 100],
        concurrencies,
    )
}

/// **Fig 11** — normalized throughput vs. percentage of heavy requests at
/// concurrency 100, with and without added latency.
pub fn fig11_hybrid(fid: Fidelity, heavy_pcts: &[u32], latency_us: u64) -> Vec<RunSummary> {
    let kinds = [
        ServerKind::Hybrid,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
    ];
    let mut out = Vec::new();
    for &pct in heavy_pcts {
        assert!(pct <= 100, "heavy percentage out of range: {pct}");
        let mix = Mix::heavy_light(pct as f64 / 100.0);
        for kind in kinds {
            let cfg = fid
                .mixed(100, mix.clone())
                .with_latency(SimDuration::from_micros(latency_us));
            let mut s = Experiment::new(cfg).run(kind);
            // Encode the x-axis in the summary for the harness tables.
            s.response_size = pct as usize;
            out.push(s);
        }
    }
    out
}

/// Generic (server × size × concurrency) sweep used by several figures.
pub fn sweep(
    fid: Fidelity,
    kinds: &[ServerKind],
    sizes: &[usize],
    concurrencies: &[usize],
) -> Vec<RunSummary> {
    let cells = cell_grid(kinds, sizes, concurrencies);
    crate::runner::run_cells(fid, &cells, crate::runner::configured_threads())
}

/// The (kind, size, concurrency) grid in output order.
fn cell_grid(
    kinds: &[ServerKind],
    sizes: &[usize],
    concurrencies: &[usize],
) -> Vec<(ServerKind, usize, usize)> {
    let mut cells = Vec::new();
    for &size in sizes {
        for &conc in concurrencies {
            for &kind in kinds {
                cells.push((kind, size, conc));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_quick_matches_design() {
        let rows = table2_cs_per_request(Fidelity::Quick);
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.server == n)
                .unwrap_or_else(|| panic!("missing {n}"))
        };
        assert!((by_name("sTomcat-Async").cs_per_req - 4.0).abs() < 0.2);
        assert!((by_name("sTomcat-Async-Fix").cs_per_req - 2.0).abs() < 0.2);
        assert!(by_name("sTomcat-Sync").cs_per_req < 0.2);
        assert!(by_name("SingleT-Async").cs_per_req < 0.2);
    }

    #[test]
    fn table4_quick_shows_spin() {
        let rows = table4_write_spin(Fidelity::Quick);
        assert!((rows[0].writes_per_req - 1.0).abs() < 0.1); // 0.1 KB
        assert!((rows[1].writes_per_req - 1.0).abs() < 0.1); // 10 KB
        assert!(rows[2].writes_per_req > 20.0); // 100 KB spins
    }

    #[test]
    fn fig06_quick_autotune_loses() {
        let rows = fig06_autotuning(Fidelity::Quick, &[0]);
        let auto = &rows[0];
        let fixed = &rows[1];
        assert!(auto.server.contains("auto-tune"));
        assert!(
            fixed.throughput > auto.throughput,
            "fixed {} must beat auto-tuned {}",
            fixed.throughput,
            auto.throughput
        );
    }

    #[test]
    fn fig11_quick_hybrid_on_top() {
        let rows = fig11_hybrid(Fidelity::Quick, &[5], 0);
        let hybrid = rows.iter().find(|r| r.server == "HybridNetty").unwrap();
        for r in &rows {
            assert!(
                hybrid.throughput >= r.throughput * 0.999,
                "hybrid {} must top {} ({})",
                hybrid.throughput,
                r.server,
                r.throughput
            );
        }
    }
}
