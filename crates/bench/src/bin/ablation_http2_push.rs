//! **Ablation** — HTTP/2 server push: per-request size variance within a
//! class (an extension).
//!
//! The paper argues response sizes are unpredictable partly because
//! "HTTP/2.0 enables a web server to push multiple responses for a single
//! client request". A pushed class is sometimes light, sometimes heavy —
//! the worst case for HybridNetty's per-class map, which can only hold one
//! verdict per class and flaps. The measurement shows how the hybrid
//! degrades gracefully toward the Netty path while the unbounded spinner
//! pays full price for every heavy sample.

use asyncinv::workload::{Mix, RequestClass};
use asyncinv::{Experiment, ExperimentConfig, ServerKind};
use asyncinv_bench::{banner, fidelity_from_args, throughput_table};

fn main() {
    banner(
        "Ablation: HTTP/2 push (per-request size variance, extension)",
        "one class, unpredictable size: the hybrid's per-class map flaps \
         and it converges to Netty-like behaviour",
    );
    let fid = fidelity_from_args();
    let (warmup, measure) = fid.micro_windows();
    let mut rows = Vec::new();
    for &(label, resource_kb, max_extra) in &[
        ("no-push", 0usize, 0u32),
        ("push<=2x32KB", 32, 2),
        ("push<=8x16KB", 16, 8),
    ] {
        let class = if max_extra == 0 {
            RequestClass::new("page", 2 * 1024)
        } else {
            RequestClass::new("page", 2 * 1024).with_push(resource_kb * 1024, max_extra)
        };
        for kind in [
            ServerKind::Hybrid,
            ServerKind::NettyLike,
            ServerKind::SingleThread,
        ] {
            let mut cfg = ExperimentConfig::with_mix(100, Mix::new(vec![(class.clone(), 1.0)]));
            cfg.warmup = warmup;
            cfg.measure = measure;
            let (mut s, counters) = Experiment::new(cfg).run_detailed(kind);
            s.server = format!("{}/{label}", s.server);
            if kind == ServerKind::Hybrid {
                let flips: u64 = counters
                    .iter()
                    .filter(|(n, _)| n.starts_with("reclass"))
                    .map(|(_, v)| *v)
                    .sum();
                s.server = format!("{} (flips={flips})", s.server);
            }
            rows.push(s);
        }
    }
    asyncinv_bench::print_and_export("ablation_http2_push", &throughput_table(&rows));
}
