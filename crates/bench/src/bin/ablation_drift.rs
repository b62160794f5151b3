//! **Ablation** — runtime re-classification under response-size drift.
//!
//! The paper's map-update rationale: "the response size even for the same
//! type of requests may change over time (due to runtime environment
//! changes such as dataset)". A request class starts light (0.1 KB) and
//! drifts to 100 KB mid-run; the hybrid re-learns its class on the first
//! misprediction, while the unbounded spinner collapses (with latency) and
//! plain Netty pays its overhead throughout.

use asyncinv::workload::Mix;
use asyncinv::workload::RequestClass;
use asyncinv::{Experiment, ExperimentConfig, ServerKind, SimDuration, SimTime};
use asyncinv_bench::{banner, fidelity_from_args, throughput_table};

fn main() {
    banner(
        "Ablation: classification under response-size drift",
        "the hybrid re-classifies on the first misprediction and keeps the \
         upper envelope",
    );
    let fid = fidelity_from_args();
    let (warmup, measure) = fid.micro_windows();
    let drift_at = SimTime::ZERO + warmup + measure / 4;
    let mut rows = Vec::new();
    for kind in [
        ServerKind::Hybrid,
        ServerKind::NettyLike,
        ServerKind::SingleThread,
    ] {
        let class = RequestClass::new("drifting-page", 100).with_drift(drift_at, 100 * 1024);
        let mut cfg = ExperimentConfig::with_mix(100, Mix::new(vec![(class, 1.0)]))
            .with_latency(SimDuration::from_millis(2));
        cfg.warmup = warmup;
        cfg.measure = measure;
        let (mut s, counters) = Experiment::new(cfg).run_detailed(kind);
        if kind == ServerKind::Hybrid {
            let reclass = counters
                .iter()
                .find(|(n, _)| *n == "reclass_to_heavy")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            s.server = format!("{} (reclass={reclass})", s.server);
        }
        rows.push(s);
    }
    asyncinv_bench::print_and_export("ablation_drift", &throughput_table(&rows));
    println!("(drift fires at {drift_at}; +2 ms one-way latency)");
}
