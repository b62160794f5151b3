//! The timed pass: thread count must not change any cell's result, and a
//! broken cell is counted as a failure instead of ending the run.

use asyncinv::dag::{DagRun, FleetDriver};
use asyncinv::fleet::Cluster;
use asyncinv::{Experiment, ServerKind, SimDuration};
use asyncinv_benchmark::inputs::{inputs_dir, DagPolicy, Inputs};
use asyncinv_benchmark::timed::{run, Reps, TimedPass};
use asyncinv_benchmark::workload::{Cell, CellSpec};

fn specs(cells: Vec<Cell>) -> Vec<CellSpec> {
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| CellSpec {
            index: i,
            seed_index: 0,
            label: format!("cell{i}"),
            cell,
        })
        .collect()
}

/// One short cell of every engine, built from the pinned inputs.
fn small_cells(inputs: &Inputs) -> Vec<CellSpec> {
    let ms = SimDuration::from_millis;
    let mut cells = Vec::new();
    for kind in ServerKind::ALL {
        let mut cfg = inputs.micro_large_wan.base.clone();
        cfg.warmup = ms(50);
        cfg.measure = ms(200);
        cfg.clients.concurrency = 16;
        cells.push(Cell::Micro {
            exp: Experiment::new(cfg),
            kind,
        });
    }
    let mut sc = inputs.fleet_brownout.scenario.clone();
    sc.warmup = ms(50);
    sc.measure = ms(300);
    sc.brownout.at = ms(100);
    sc.brownout.duration = ms(100);
    cells.push(Cell::Fleet {
        cluster: Cluster::new(sc.fleet_config(0.1, true)),
        kind: inputs.fleet_brownout.kind,
    });
    let mut fleet = inputs.fleet_spans.fleet.clone();
    fleet.cell.measure = ms(300);
    cells.push(Cell::Spans {
        cluster: Cluster::new(fleet),
        kind: ServerKind::Hybrid,
    });
    let mut rubbos = inputs.multi_tier.rubbos.clone();
    rubbos.warmup = SimDuration::from_secs(2);
    rubbos.measure = SimDuration::from_secs(5);
    cells.push(Cell::Rubbos {
        exp: rubbos.experiment(300, 7),
        kind: ServerKind::AsyncPool,
    });
    let mut graph = DagPolicy::Storm.apply(&inputs.multi_tier.dag);
    graph.arrivals.measure = ms(300);
    graph.cal.measure = ms(100);
    cells.push(Cell::Dag {
        run: DagRun::new(graph, FleetDriver::Interleaved),
    });
    specs(cells)
}

fn digests(p: &TimedPass) -> Vec<u64> {
    p.first
        .iter()
        .map(|r| r.as_ref().expect("cell ran").digest)
        .collect()
}

#[test]
fn cell_digests_are_equal_on_one_and_two_threads() {
    let inputs = Inputs::load(&inputs_dir()).expect("pinned inputs");
    let cells = small_cells(&inputs);
    let serial = run(&cells, 1, Reps::Fixed(1), &mut || {});
    let parallel = run(&cells, 2, Reps::Fixed(2), &mut || {});
    assert_eq!(serial.failed, 0, "{:?}", serial.failures);
    assert_eq!(parallel.failed, 0, "{:?}", parallel.failures);
    assert_eq!(parallel.attempted, 2 * cells.len() as u64);
    assert_eq!(digests(&serial), digests(&parallel));
}

#[test]
fn a_panicking_cell_is_counted_not_fatal() {
    let inputs = Inputs::load(&inputs_dir()).expect("pinned inputs");
    let mut rubbos = inputs.multi_tier.rubbos.clone();
    rubbos.warmup = SimDuration::from_secs(1);
    rubbos.measure = SimDuration::from_secs(1);
    // The RUBBoS engine only hosts the two Tomcat architectures and
    // panics on any other.
    let cells = specs(vec![Cell::Rubbos {
        exp: rubbos.experiment(10, 1),
        kind: ServerKind::NettyLike,
    }]);
    let pass = run(&cells, 2, Reps::Fixed(2), &mut || {});
    assert_eq!(pass.attempted, 2);
    assert_eq!(pass.failed, 2);
    assert!(
        pass.failures[0].1.starts_with("panicked"),
        "{:?}",
        pass.failures
    );
}
