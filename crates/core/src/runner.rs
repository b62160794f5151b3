//! Deterministic-order parallel execution of independent experiment cells.
//!
//! Every experiment cell in this workspace is a self-contained,
//! deterministic simulation: it owns its RNGs, queues and models, and
//! shares nothing with other cells. That makes a grid of cells perfectly
//! parallel — results are *identical* to a serial run cell-for-cell
//! (asserted by `tests/runner_parallel.rs`); only wall-clock time changes.
//!
//! [`parallel_map`] is the generic primitive: a work-stealing index loop
//! over `std::thread::scope` whose output order always matches input
//! order, regardless of which worker finishes first. [`run_cells`] applies
//! it to the `(server, size, concurrency)` grids used by every `fig*`,
//! `table*` and `ablation_*` harness binary (via
//! [`figures::sweep`](crate::figures::sweep)).
//!
//! # Thread-count selection
//!
//! [`configured_threads`] resolves, in order: the `ASYNCINV_THREADS`
//! environment variable, then [`std::thread::available_parallelism`]. The
//! harness binaries also accept `--threads N` on the command line (parsed
//! by `asyncinv-bench`, which forwards it through the environment so
//! `repro_all`'s child processes inherit it). `ASYNCINV_THREADS=1` forces
//! fully serial execution.

use asyncinv_fleet::Experiment;
use asyncinv_metrics::RunSummary;
use asyncinv_servers::ServerKind;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::figures::Fidelity;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "ASYNCINV_THREADS";

/// The worker-thread count to use: `ASYNCINV_THREADS` if set and valid
/// (values `< 1` are treated as 1), otherwise the machine's available
/// parallelism, otherwise 1.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over `items` on up to `threads` OS threads, returning outputs
/// in input order.
///
/// Work is distributed by an atomic index (work-stealing by competition),
/// so stragglers don't serialize the tail. Each worker collects
/// `(index, output)` pairs locally; outputs are placed into their slots
/// after all workers join, which keeps the function safe without per-slot
/// locking. With `threads <= 1` (or one item) this degenerates to a plain
/// serial loop with zero thread overhead.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut batches: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runner worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, out) in batches.drain(..).flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} ran twice");
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("cell not run"))
        .collect()
}

/// Runs a grid of independent `(server, size, concurrency)` cells on up to
/// `threads` OS threads; results are in grid order, identical to a serial
/// run.
pub fn run_cells(
    fid: Fidelity,
    cells: &[(ServerKind, usize, usize)],
    threads: usize,
) -> Vec<RunSummary> {
    parallel_map(cells, threads, |&(kind, size, conc)| {
        Experiment::new(fid.micro(conc, size)).run(kind)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        let parallel = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[96], 96 * 96);
    }

    #[test]
    fn thread_count_is_clamped_to_items() {
        // More threads than items must not deadlock or lose outputs.
        let out = parallel_map(&[1u32, 2], 64, |&x| x + 1);
        assert_eq!(out, [2, 3]);
        let empty: Vec<u32> = parallel_map(&[], 4, |x: &u32| *x);
        assert!(empty.is_empty());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn run_cells_parallel_equals_serial() {
        let cells = [
            (ServerKind::SingleThread, 100, 4),
            (ServerKind::SyncThread, 100, 4),
            (ServerKind::NettyLike, 10 * 1024, 2),
        ];
        let serial = run_cells(Fidelity::Quick, &cells, 1);
        let parallel = run_cells(Fidelity::Quick, &cells, 3);
        assert_eq!(serial, parallel);
    }
}
