//! **Ablation** — multi-core scaling (the paper's N-copy remark).
//!
//! Single-threaded event loops need one copy per core (Section II-A);
//! Netty-style servers scale by adding event-loop workers. This sweep runs
//! 1/2/4 cores with matching worker counts against the thread-based
//! server, which scales transparently.

use asyncinv::substrate::SchedPolicy;
use asyncinv::{Experiment, ExperimentConfig, ServerKind};
use asyncinv_bench::{banner, fidelity_from_args, throughput_table};

fn main() {
    banner(
        "Ablation: multi-core scaling",
        "N event-loop workers ~ N-copy; the thread pool scales transparently",
    );
    let fid = fidelity_from_args();
    let (warmup, measure) = fid.micro_windows();
    let mut rows = Vec::new();
    for &cores in &[1usize, 2, 4] {
        for kind in [ServerKind::SyncThread, ServerKind::NettyLike] {
            let mut cfg = ExperimentConfig::micro(200, 100);
            cfg.warmup = warmup;
            cfg.measure = measure;
            cfg.cpu.cores = cores;
            cfg.netty_workers = cores;
            let mut s = Experiment::new(cfg).run(kind);
            s.server = format!("{}/{}core", s.server, cores);
            rows.push(s);
        }
    }
    asyncinv_bench::print_and_export("ablation_multicore", &throughput_table(&rows));

    // Scheduling policy matters under *imbalanced* per-connection work:
    // heavy and light requests mix, so strict affinity strands heavy work
    // on some cores while others idle; stealing rebalances at a migration
    // cost. (With uniform traffic all three policies coincide.)
    println!("scheduling policy on 4 cores (sTomcat-Sync, conc 16, 10% heavy):");
    let mut rows = Vec::new();
    for (label, policy) in [
        ("global-queue", SchedPolicy::GlobalQueue),
        ("per-core", SchedPolicy::PerCore { steal: false }),
        ("per-core+steal", SchedPolicy::PerCore { steal: true }),
    ] {
        let mut cfg = ExperimentConfig::with_mix(16, asyncinv::workload::Mix::heavy_light(0.1));
        cfg.warmup = warmup;
        cfg.measure = measure;
        cfg.cpu.cores = 4;
        cfg.cpu.policy = policy;
        let mut s = Experiment::new(cfg).run(ServerKind::SyncThread);
        s.server = format!("{}/{label}", s.server);
        rows.push(s);
    }
    asyncinv_bench::print_and_export("ablation_multicore_policy", &throughput_table(&rows));
}
