//! **Ablation** — HybridNetty's runtime classification.
//!
//! Shows the path routing and (mis)classification counters across heavy
//! fractions: the map learns during warm-up and every request takes the
//! path its class earned.

use asyncinv::workload::Mix;
use asyncinv::{fmt_f64, Experiment, ExperimentConfig, ServerKind, Table};
use asyncinv_bench::{banner, fidelity_from_args};

fn main() {
    banner(
        "Ablation: hybrid classification behaviour",
        "requests route by learned class; reclassifications stay rare on a \
         stable workload",
    );
    let fid = fidelity_from_args();
    let (warmup, measure) = fid.micro_windows();
    let mut t = Table::new(vec![
        "heavy%".into(),
        "tput[req/s]".into(),
        "fast-path req".into(),
        "netty-path req".into(),
        "reclass->heavy".into(),
        "reclass->light".into(),
    ]);
    t.numeric();
    for &pct in &[0u32, 5, 20, 50, 100] {
        let mut cfg = ExperimentConfig::with_mix(100, Mix::heavy_light(pct as f64 / 100.0));
        cfg.warmup = warmup;
        cfg.measure = measure;
        let (s, counters) = Experiment::new(cfg).run_detailed(ServerKind::Hybrid);
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        t.row(vec![
            pct.to_string(),
            fmt_f64(s.throughput, 1),
            get("fast_requests").to_string(),
            get("netty_requests").to_string(),
            get("reclass_to_heavy").to_string(),
            get("reclass_to_light").to_string(),
        ]);
    }
    asyncinv_bench::print_and_export("ablation_hybrid_paths", &t);
}
