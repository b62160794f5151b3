//! Property tests of the CPU scheduler model.

use asyncinv_lab::cpu::{Burst, CpuConfig, CpuEvent, CpuModel, ThreadId};
use asyncinv_lab::simcore::{SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// Drives a set of threads, each with a fixed list of bursts, to
/// completion. Returns (total user+sys time charged, completions, final
/// time, context switches).
fn run_schedule(
    cores: usize,
    slice_us: u64,
    plans: &[Vec<(u64, bool)>],
) -> (u64, usize, SimTime, u64) {
    let cfg = CpuConfig {
        cores,
        time_slice: SimDuration::from_micros(slice_us),
        ..CpuConfig::default()
    };
    let mut cpu = CpuModel::new(cfg);
    let mut sim: Simulation<CpuEvent> = Simulation::new();
    let mut out = Vec::new();

    let threads: Vec<ThreadId> = (0..plans.len())
        .map(|i| cpu.spawn_thread(format!("t{i}")))
        .collect();
    let mut next_idx = vec![0usize; plans.len()];

    // Submit each thread's first burst.
    for (i, plan) in plans.iter().enumerate() {
        if let Some(&(us, sys)) = plan.first() {
            let b = if sys {
                Burst::syscall(SimDuration::from_micros(us))
            } else {
                Burst::user(SimDuration::from_micros(us))
            };
            next_idx[i] = 1;
            cpu.submit(sim.now(), threads[i], b, i as u64, &mut out);
            for (t, e) in out.drain(..) {
                sim.schedule_at(t, e);
            }
        }
    }

    let mut completions = 0usize;
    let mut end = SimTime::ZERO;
    while let Some((now, ev)) = sim.next_event() {
        if let Some(done) = cpu.on_event(now, ev, &mut out) {
            completions += 1;
            end = now;
            let i = done.tag as usize;
            if let Some(&(us, sys)) = plans[i].get(next_idx[i]) {
                next_idx[i] += 1;
                let b = if sys {
                    Burst::syscall(SimDuration::from_micros(us))
                } else {
                    Burst::user(SimDuration::from_micros(us))
                };
                cpu.submit(now, done.thread, b, i as u64, &mut out);
            }
            cpu.finish_turn(now, done.thread, &mut out);
        }
        for (t, e) in out.drain(..) {
            sim.schedule_at(t, e);
        }
    }
    let stats = cpu.stats();
    (
        (stats.user_time + stats.sys_time).as_micros(),
        completions,
        end,
        stats.context_switches,
    )
}

/// Burst plans: per thread, a list of (duration_us in 1..500, is_syscall).
fn plans_strategy() -> impl Strategy<Value = Vec<Vec<(u64, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((1u64..500, any::<bool>()), 1..6),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPU time conservation: exactly the submitted work is charged, every
    /// burst completes, and wall time is bounded by work (plus overheads)
    /// and below by work/cores.
    #[test]
    fn work_conservation(plans in plans_strategy(), cores in 1usize..4, slice in 50u64..2000) {
        let total_work: u64 = plans.iter().flatten().map(|&(us, _)| us).sum();
        let total_bursts: usize = plans.iter().map(|p| p.len()).sum();
        let (charged, completions, end, switches) = run_schedule(cores, slice, &plans);
        prop_assert_eq!(charged, total_work, "charged CPU time != submitted");
        prop_assert_eq!(completions, total_bursts, "lost bursts");
        // Wall-clock sanity: at least perfectly-parallel work, at most
        // serialized work plus generous switch overhead.
        prop_assert!(end.as_micros() >= total_work / cores as u64);
        let overhead_allowance = (switches + 1) * 50 + 1;
        prop_assert!(
            end.as_micros() <= total_work + overhead_allowance,
            "end {} too late for work {total_work} with {switches} switches",
            end.as_micros()
        );
    }

    /// Determinism: identical plans give identical traces.
    #[test]
    fn deterministic(plans in plans_strategy()) {
        let a = run_schedule(1, 1000, &plans);
        let b = run_schedule(1, 1000, &plans);
        prop_assert_eq!(a, b);
    }

    /// A single thread never context-switches, regardless of plan shape.
    #[test]
    fn single_thread_never_switches(plan in prop::collection::vec((1u64..500, any::<bool>()), 1..10)) {
        let (_, _, _, switches) = run_schedule(1, 100, &[plan]);
        prop_assert_eq!(switches, 0);
    }

    /// More cores never increase completion time.
    #[test]
    fn cores_monotone(plans in plans_strategy()) {
        let (_, _, end1, _) = run_schedule(1, 1000, &plans);
        let (_, _, end4, _) = run_schedule(4, 1000, &plans);
        prop_assert!(end4 <= end1, "4 cores slower than 1: {end4} vs {end1}");
    }
}
