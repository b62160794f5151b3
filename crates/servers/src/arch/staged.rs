//! Staged-SEDA: the staged event-driven pipeline.
//!
//! The paper's Section II-A describes, as a variant of the worker-pool
//! design, "the staged design adopted by SEDA and WatPipe: instead of
//! having only one worker thread pool, the staged design decomposes the
//! request processing into a pipeline of stages separated by event queues,
//! each of which has its own worker thread pool". The paper does not
//! benchmark it; this crate implements it as an extension so the
//! context-switch economics of stage handoffs can be measured with the
//! same instrumentation (see `ablation_staged` and the
//! `custom_architecture` example for a single-threaded-stage variant).
//!
//! Three stages — **read** (socket + parse), **process** (business logic),
//! **write** (non-blocking spin, as in the paper's async family) — each
//! with its own FIFO queue and thread pool. A request pays up to one
//! thread handoff per stage boundary at low concurrency; with queues full,
//! stage workers chain tasks and the handoffs amortize exactly like the
//! reactor pool's.

use std::collections::VecDeque;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;

use crate::arch::{spin_bursts, tag, untag, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::Q_STAGE_BASE;

const P_READ: u8 = 0;
const P_PROCESS: u8 = 1;
const P_SPIN_USER: u8 = 2;
const P_SPIN_SYS: u8 = 3;

const STAGES: usize = 3;
const READ: usize = 0;
const PROCESS: usize = 1;
const WRITE: usize = 2;

/// Per-write-stage-worker job state.
#[derive(Debug, Clone, Copy)]
struct WriteJob {
    conn: ConnId,
    remaining: usize,
    last_written: usize,
}

/// One pipeline stage: a FIFO of connections and a worker pool.
#[derive(Debug, Default)]
struct Stage {
    threads: Vec<ThreadId>,
    idle: VecDeque<usize>,
    queue: VecDeque<ConnId>,
}

/// The SEDA/WatPipe-style staged pipeline server.
#[derive(Debug)]
pub(crate) struct Staged {
    workers_per_stage: usize,
    stages: [Stage; STAGES],
    /// Write jobs, indexed per write-stage worker.
    jobs: Vec<Option<WriteJob>>,
}

impl Staged {
    pub(crate) fn new(workers_per_stage: usize) -> Self {
        assert!(workers_per_stage > 0, "stages need at least one worker");
        Staged {
            workers_per_stage,
            stages: Default::default(),
            jobs: Vec::new(),
        }
    }

    /// Enqueues `conn` at `stage`, dispatching an idle stage worker if any.
    fn enqueue(&mut self, ctx: &mut Ctx<'_>, stage: usize, conn: ConnId) {
        ctx.emit(TraceKind::QueueEnter, Some(conn), None, Q_STAGE_BASE + stage as u64);
        self.stages[stage].queue.push_back(conn);
        if let Some(w) = self.stages[stage].idle.pop_front() {
            self.begin(ctx, stage, w);
        }
    }

    /// Starts the next queued task on worker `w` of `stage`; parks the
    /// worker when the stage queue is empty.
    fn begin(&mut self, ctx: &mut Ctx<'_>, stage: usize, w: usize) {
        let Some(conn) = self.stages[stage].queue.pop_front() else {
            self.stages[stage].idle.push_back(w);
            return;
        };
        let tid = self.stages[stage].threads[w];
        ctx.emit(TraceKind::QueueExit, Some(conn), Some(tid), Q_STAGE_BASE + stage as u64);
        let p = ctx.profile();
        match stage {
            READ => ctx.submit(
                tid,
                Burst::syscall(p.read_syscall),
                tag(P_READ, conn.0, w as u16),
            ),
            PROCESS => {
                let cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                ctx.submit(tid, Burst::user(cost), tag(P_PROCESS, conn.0, w as u16));
            }
            _ => {
                self.jobs[w] = Some(WriteJob {
                    conn,
                    remaining: ctx.response_bytes(conn),
                    last_written: 0,
                });
                self.spin_iteration(ctx, w);
            }
        }
    }

    /// One unbounded-spin write iteration on write-stage worker `w`.
    fn spin_iteration(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        let job = self.jobs[w].as_mut().expect("spin without a job");
        let tid = self.stages[WRITE].threads[w];
        let zero = spin_bursts(ctx.profile(), 0);
        let written = ctx.spin_write(tid, job.conn, job.remaining, &zero);
        job.remaining -= written;
        job.last_written = written;
        let conn = job.conn;
        let [user, _] = spin_bursts(ctx.profile(), written);
        ctx.submit(tid, user, tag(P_SPIN_USER, conn.0, w as u16));
    }
}

impl ServerModel for Staged {
    fn name(&self) -> &'static str {
        "Staged-SEDA"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, _conns: usize) {
        let names = ["read", "process", "write"];
        for (s, stage) in self.stages.iter_mut().enumerate() {
            stage.threads = (0..self.workers_per_stage)
                .map(|i| ctx.spawn_thread(format!("stage-{}-{i}", names[s])))
                .collect();
            stage.idle = (0..self.workers_per_stage).collect();
        }
        self.jobs = vec![None; self.workers_per_stage];
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.enqueue(ctx, READ, conn);
    }

    fn on_writable(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
        // The write stage spins like the paper's other non-blocking
        // servers; it never parks on EPOLLOUT.
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, wi) = untag(t);
        let w = wi as usize;
        let conn = ConnId(c);
        match phase {
            P_READ => {
                self.enqueue(ctx, PROCESS, conn);
                self.begin(ctx, READ, w); // pull the next read task (chains)
            }
            P_PROCESS => {
                self.enqueue(ctx, WRITE, conn);
                self.begin(ctx, PROCESS, w);
            }
            P_SPIN_USER => {
                let job = self.jobs[w].expect("spin charge without job");
                let [_, sys] = spin_bursts(ctx.profile(), job.last_written);
                let tid = self.stages[WRITE].threads[w];
                ctx.submit(tid, sys, tag(P_SPIN_SYS, c, wi));
            }
            P_SPIN_SYS => {
                let job = self.jobs[w].expect("spin completion without job");
                if job.remaining == 0 {
                    self.jobs[w] = None;
                    self.begin(ctx, WRITE, w);
                } else {
                    self.spin_iteration(ctx, w);
                }
            }
            other => panic!("unknown staged phase {other}"),
        }
    }
}
