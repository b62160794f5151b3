//! Integration tests of the deterministic parallel cell runner.
//!
//! The runner's contract is that a parallel run of a cell grid is
//! *identical* to a serial run, cell for cell — not statistically close,
//! byte-equal. That holds because every cell is a self-contained
//! deterministic simulation, and the runner writes each cell's output into
//! its input-order slot regardless of worker scheduling.

use asyncinv::figures::Fidelity;
use asyncinv::runner::{parallel_map, run_cells};
use asyncinv::ServerKind;

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
