//! Integration tests of the deterministic parallel cell runner and of
//! backend equivalence at the level of full experiment results.
//!
//! The runner's contract is that a parallel run of a cell grid is
//! *identical* to a serial run, cell for cell — not statistically close,
//! byte-equal. That holds because every cell is a self-contained
//! deterministic simulation, and the runner writes each cell's output into
//! its input-order slot regardless of worker scheduling.

use asyncinv::figures::Fidelity;
use asyncinv::rubbos::RubbosExperiment;
use asyncinv::runner::{parallel_map, run_cells};
use asyncinv::{BackendKind, Experiment, ServerKind, SimDuration};

/// A small but heterogeneous grid: different server models, sizes, and
/// concurrencies, so cells finish at different times and worker
/// interleavings actually differ between runs.
fn grid() -> Vec<(ServerKind, usize, usize)> {
    let mut cells = Vec::new();
    for &size in &[100usize, 10 * 1024] {
        for &conc in &[1usize, 8, 64] {
            for kind in [
                ServerKind::SyncThread,
                ServerKind::AsyncPool,
                ServerKind::SingleThread,
            ] {
                cells.push((kind, size, conc));
            }
        }
    }
    cells
}

#[test]
fn parallel_grid_equals_serial_cell_for_cell() {
    let cells = grid();
    let serial = run_cells(Fidelity::Quick, &cells, 1);
    let parallel = run_cells(Fidelity::Quick, &cells, 4);
    assert_eq!(serial.len(), cells.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "cell {i} ({:?}) diverged between serial and parallel", cells[i]);
    }
}

#[test]
fn oversubscribed_threads_still_deterministic() {
    // More threads than cells: the runner clamps, nothing is lost or
    // reordered.
    let cells = &grid()[..4];
    let a = run_cells(Fidelity::Quick, cells, 64);
    let b = run_cells(Fidelity::Quick, cells, 2);
    assert_eq!(a, b);
}

#[test]
fn parallel_map_handles_unbalanced_work() {
    // Heavily skewed per-item cost: the last item is ~1000x the first.
    // Order must still match input order exactly.
    let items: Vec<u64> = (0..40).collect();
    let f = |&n: &u64| -> u64 {
        let mut acc = 0u64;
        for i in 0..(n * n * 50 + 1) {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        acc ^ n
    };
    assert_eq!(parallel_map(&items, 8, f), parallel_map(&items, 1, f));
}

/// Both queue backends must yield the *same* full `RunSummary` for the same
/// experiment cell: the kernel swap is a pure performance change. This is
/// the end-to-end counterpart of the pop-ordering property test in
/// `tests/prop_simcore.rs`.
#[test]
fn run_summaries_identical_across_backends() {
    for kind in [
        ServerKind::SyncThread,
        ServerKind::AsyncPool,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
    ] {
        let mut results = Vec::new();
        for backend in BackendKind::ALL {
            let mut cfg = Fidelity::Quick.micro(16, 10 * 1024);
            cfg.backend = backend;
            results.push((backend, Experiment::new(cfg).run(kind)));
        }
        let (_, ref baseline) = results[0];
        for (backend, summary) in &results[1..] {
            assert_eq!(
                baseline, summary,
                "{kind:?} diverged on the {} backend",
                backend.name()
            );
        }
    }
}

/// The RUBBoS engine dispatches its own drive loop on the backend: at
/// 1,500 users both backends must give the same summary and the same
/// registry counters.
#[test]
fn rubbos_runs_identical_across_backends() {
    for kind in [ServerKind::SyncThread, ServerKind::AsyncPool] {
        let runs = BackendKind::ALL.map(|backend| {
            let mut exp = RubbosExperiment::new(1500);
            exp.warmup = SimDuration::from_secs(2);
            exp.measure = SimDuration::from_secs(4);
            exp.backend = backend;
            let (summary, rec) = exp.run_traced(kind, 1 << 10);
            let counters: Vec<(String, u64)> = rec
                .registry()
                .counters()
                .map(|(name, v)| (name.to_string(), v))
                .collect();
            (summary, counters)
        });
        assert!(runs[0].0.completions > 0, "{kind:?}: no completions");
        assert!(!runs[0].1.is_empty(), "{kind:?}: no counters");
        assert_eq!(runs[0], runs[1], "{kind:?}: RUBBoS diverged across backends");
    }
}
