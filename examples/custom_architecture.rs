//! Plugging a custom server architecture into the experiment engine.
//!
//! The `ServerModel` trait is public: this example implements a SEDA-style
//! three-stage pipeline (reactor → relay → worker, each stage a thread with
//! its own event queue — the design of the paper's related-work section)
//! and measures it against the six built-ins. At concurrency 1 every
//! request pays the full stage-to-stage handoff chain; at higher
//! concurrency the stage queues batch and most handoffs disappear — the
//! same amortization that drives the paper's Fig 2 crossovers.
//!
//! ```sh
//! cargo run --release --example custom_architecture
//! ```

use asyncinv::prelude::*;
use asyncinv::substrate::{Burst, ThreadId};
use asyncinv::{Ctx, ServerModel};
use asyncinv_tcp::ConnId;

/// Tags: phase in the low byte, connection above it.
fn tag(phase: u8, conn: usize) -> u64 {
    phase as u64 | ((conn as u64) << 8)
}

const P_HOP1: u8 = 0;
const P_HOP2: u8 = 1;
const P_WORK: u8 = 2;
const P_WRITE: u8 = 3;

/// A SEDA-style staged pipeline: every request hops reactor → relay → worker.
///
/// Each stage is a single thread with a FIFO of pending items; a stage only
/// has one burst outstanding at a time (the engine's contract), so items
/// queue when the stage is busy.
#[derive(Debug, Default)]
struct StagedPipeline {
    reactor: Option<ThreadId>,
    relay: Option<ThreadId>,
    worker: Option<ThreadId>,
    remaining: Vec<usize>,
    queues: [std::collections::VecDeque<usize>; 3],
    busy: [bool; 3],
}

impl StagedPipeline {
    /// Stage indices: 0 = reactor (HOP1), 1 = relay (HOP2), 2 = worker.
    fn stage_thread(&self, stage: usize) -> ThreadId {
        match stage {
            0 => self.reactor.unwrap(),
            1 => self.relay.unwrap(),
            _ => self.worker.unwrap(),
        }
    }

    fn stage_burst(&self, ctx: &Ctx<'_>, stage: usize, conn: usize) -> (Burst, u64) {
        let p = ctx.profile();
        match stage {
            0 => (Burst::syscall(p.epoll_wakeup), tag(P_HOP1, conn)),
            1 => (Burst::user(p.dispatch_cost), tag(P_HOP2, conn)),
            _ => (
                Burst::user(
                    p.read_syscall + p.parse_cost + p.compute(ctx.response_bytes(ConnId(conn))),
                ),
                tag(P_WORK, conn),
            ),
        }
    }

    /// Enqueue `conn` at `stage`, starting it if the stage is idle.
    fn push(&mut self, ctx: &mut Ctx<'_>, stage: usize, conn: usize) {
        self.queues[stage].push_back(conn);
        self.pump(ctx, stage);
    }

    /// Start the next queued item if the stage thread is free.
    fn pump(&mut self, ctx: &mut Ctx<'_>, stage: usize) {
        if self.busy[stage] {
            return;
        }
        let Some(conn) = self.queues[stage].pop_front() else {
            return;
        };
        self.busy[stage] = true;
        let (burst, t) = self.stage_burst(ctx, stage, conn);
        ctx.submit(self.stage_thread(stage), burst, t);
    }
}

impl ServerModel for StagedPipeline {
    fn name(&self) -> &'static str {
        "StagedPipeline"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.reactor = Some(ctx.spawn_thread("reactor"));
        self.relay = Some(ctx.spawn_thread("relay"));
        self.worker = Some(ctx.spawn_thread("worker"));
        self.remaining = vec![0; conns];
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.push(ctx, 0, conn.0);
    }

    fn on_writable(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {}

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c) = ((t & 0xFF) as u8, (t >> 8) as usize);
        let conn = ConnId(c);
        match phase {
            P_HOP1 => {
                self.busy[0] = false;
                self.push(ctx, 1, c);
                self.pump(ctx, 0);
            }
            P_HOP2 => {
                self.busy[1] = false;
                self.push(ctx, 2, c);
                self.pump(ctx, 1);
            }
            P_WORK => {
                // Worker stays busy: chain straight into the write phase.
                self.remaining[c] = ctx.response_bytes(conn);
                let w = ctx.write(conn, self.remaining[c]);
                self.remaining[c] -= w;
                let p = ctx.profile();
                let cost = p.write_syscall + p.write_prep;
                ctx.submit(self.worker.unwrap(), Burst::syscall(cost), tag(P_WRITE, c));
            }
            P_WRITE => {
                if self.remaining[c] > 0 {
                    let w = ctx.write(conn, self.remaining[c]);
                    self.remaining[c] -= w;
                    let p = ctx.profile();
                    let cost = p.write_syscall + p.write_prep;
                    ctx.submit(self.worker.unwrap(), Burst::syscall(cost), tag(P_WRITE, c));
                } else {
                    self.busy[2] = false;
                    self.pump(ctx, 2);
                }
            }
            _ => unreachable!(),
        }
    }
}

fn main() {
    for conc in [1usize, 8, 64] {
        let mut cfg = ExperimentConfig::micro(conc, 100);
        cfg.warmup = SimDuration::from_millis(500);
        cfg.measure = SimDuration::from_secs(2);
        let exp = Experiment::new(cfg);

        println!("== concurrency {conc} ==");
        let mut custom = StagedPipeline::default();
        let custom_summary = exp.run_model(&mut custom);
        println!(
            "{:<18} tput {:>8.0} req/s, {:>5.2} cs/req",
            custom_summary.server, custom_summary.throughput, custom_summary.cs_per_req
        );
        for kind in ServerKind::ALL {
            let s = exp.run(kind);
            println!(
                "{:<18} tput {:>8.0} req/s, {:>5.2} cs/req",
                s.server, s.throughput, s.cs_per_req
            );
        }
        if conc == 1 {
            // At concurrency 1 the pipeline pays its full handoff chain:
            // reactor->relay, relay->worker, worker->reactor = 3 switches.
            assert!(
                (custom_summary.cs_per_req - 3.0).abs() < 0.2,
                "staged pipeline should pay 3 cs/req at concurrency 1, got {}",
                custom_summary.cs_per_req
            );
        }
        println!();
    }
    println!(
        "At concurrency 1 the staged pipeline pays 3 handoffs per request;\n\
         with queues full the stages batch and the handoff cost amortizes\n\
         away — exactly the context-switch economics the paper studies."
    );
}
