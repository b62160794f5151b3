//! NettyServer and HybridNetty.
//!
//! **NettyServer** (the paper's Section V-A): connection-owning worker
//! threads perform both event monitoring and handling — the reactor→worker
//! dispatch handoffs of Tomcat 8 disappear. Writes are optimized with a
//! bounded `writeSpin` counter (Netty 4 default 16): a worker stops
//! retrying a partial write after the budget, saves the context and serves
//! other connections, resuming on writability (or via a self-scheduled
//! flush task). This caps the write-spin waste — but the handler pipeline
//! and outbound-buffer machinery cost extra CPU per request, which is why
//! Netty *loses* to the bare single-threaded server on small responses
//! (the paper's Fig 9b).
//!
//! **HybridNetty** (Section V-B) adds runtime request profiling: a map from
//! request type to {light, heavy}, learned from observed write behaviour
//! (the warm-up uses the Netty path's writeSpin counter). Light requests
//! take a SingleT-style fast path that skips the pipeline and per-write
//! overheads; heavy requests take the bounded Netty path. A request whose
//! classification proves wrong at runtime is re-classified immediately —
//! a light-path request that hits a full buffer flips its class to heavy
//! and parks instead of spinning unboundedly.

use std::collections::VecDeque;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;

use crate::arch::{tag, untag, Classifier, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::{
    MARK_PARK_WRITABLE, MARK_PATH_FAST, MARK_PATH_NETTY, MARK_RECLASS_HEAVY, MARK_SPIN_BUDGET,
    Q_FLUSH, Q_READ, Q_WRITE,
};

const P_WAKE: u8 = 0;
const P_READ: u8 = 1;
const P_COMPUTE: u8 = 2;
const P_SPIN_USER: u8 = 3;
const P_SPIN_SYS: u8 = 4;

/// Per-worker queued events (each worker is its own mini event loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NEvent {
    Readable(ConnId),
    /// The socket became writable again for a parked write.
    Writable(ConnId),
    /// Self-scheduled flush task after exhausting the writeSpin budget.
    Resume(ConnId),
}

/// Per-connection write state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Idle,
    /// Being actively written by the owning worker.
    Active(WriteJob),
    /// Parked awaiting EPOLLOUT (buffer was full).
    ParkedWritable(WriteJob),
    /// A Writable event for this parked write is queued at the worker.
    QueuedWritable(WriteJob),
    /// A Resume (flush task) is queued at the worker.
    QueuedResume(WriteJob),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteJob {
    remaining: usize,
    /// Spins in the current pass (reset when the pass starts).
    spins: u32,
    last_written: usize,
    /// Total write calls this request (for classification learning).
    calls: u32,
    /// Whether a zero-return was observed this request.
    spun: bool,
    /// Taking the hybrid fast path (no Netty overheads).
    fast: bool,
    class: usize,
}

/// NettyServer / HybridNetty.
#[derive(Debug)]
pub(crate) struct NettyLike {
    n_workers: usize,
    spin_limit: u32,
    classifier: Classifier,
    workers: Vec<ThreadId>,
    queues: Vec<VecDeque<NEvent>>,
    busy: Vec<bool>,
    wstate: Vec<WState>,
    // Debug counters.
    fast_requests: u64,
    netty_requests: u64,
}

impl NettyLike {
    pub(crate) fn new(n_workers: usize, spin_limit: u32, hybrid: bool) -> Self {
        assert!(n_workers > 0, "need at least one event-loop worker");
        assert!(spin_limit > 0, "writeSpin budget must be positive");
        NettyLike {
            n_workers,
            spin_limit,
            classifier: Classifier::new(hybrid),
            workers: Vec::new(),
            queues: Vec::new(),
            busy: Vec::new(),
            wstate: Vec::new(),
            fast_requests: 0,
            netty_requests: 0,
        }
    }

    fn owner(&self, conn: ConnId) -> usize {
        conn.0 % self.n_workers
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, w: usize, ev: NEvent) {
        if ctx.trace_enabled() {
            let (code, conn) = match ev {
                NEvent::Readable(c) => (Q_READ, c),
                NEvent::Writable(c) => (Q_WRITE, c),
                NEvent::Resume(c) => (Q_FLUSH, c),
            };
            ctx.emit(
                TraceKind::QueueEnter,
                Some(conn),
                Some(self.workers[w]),
                code,
            );
        }
        self.queues[w].push_back(ev);
        if !self.busy[w] {
            self.busy[w] = true;
            ctx.submit(
                self.workers[w],
                Burst::syscall(ctx.profile().epoll_wakeup),
                tag(P_WAKE, 0, w as u16),
            );
        }
    }

    fn next_event(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        let Some(ev) = self.queues[w].pop_front() else {
            self.busy[w] = false;
            return;
        };
        if ctx.trace_enabled() {
            let (code, conn) = match ev {
                NEvent::Readable(c) => (Q_READ, c),
                NEvent::Writable(c) => (Q_WRITE, c),
                NEvent::Resume(c) => (Q_FLUSH, c),
            };
            ctx.emit(
                TraceKind::QueueExit,
                Some(conn),
                Some(self.workers[w]),
                code,
            );
        }
        match ev {
            NEvent::Readable(conn) => {
                ctx.submit(
                    self.workers[w],
                    Burst::syscall(ctx.profile().read_syscall),
                    tag(P_READ, conn.0, w as u16),
                );
            }
            NEvent::Writable(conn) | NEvent::Resume(conn) => {
                let job = match self.wstate[conn.0] {
                    WState::QueuedWritable(j) | WState::QueuedResume(j) => j,
                    s => panic!("resume for connection in state {s:?}"),
                };
                self.wstate[conn.0] = WState::Active(WriteJob { spins: 0, ..job });
                self.spin_iteration(ctx, conn);
            }
        }
    }

    /// One bounded-spin write iteration.
    fn spin_iteration(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let WState::Active(mut job) = self.wstate[conn.0] else {
            panic!("spin on non-active connection");
        };
        let written = ctx.write(conn, job.remaining);
        job.remaining -= written;
        job.last_written = written;
        job.calls += 1;
        if written == 0 {
            job.spun = true;
        }
        let p = ctx.profile();
        let mut user = p.write_prep + p.copy_user(written);
        if !job.fast {
            user += p.netty_per_write;
        }
        self.wstate[conn.0] = WState::Active(job);
        let w = self.owner(conn);
        ctx.submit(
            self.workers[w],
            Burst::user(user),
            tag(P_SPIN_USER, conn.0, w as u16),
        );
    }
}

impl ServerModel for NettyLike {
    fn name(&self) -> &'static str {
        if self.classifier.is_hybrid() {
            "HybridNetty"
        } else {
            "NettyServer"
        }
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.workers = (0..self.n_workers)
            .map(|i| ctx.spawn_thread(format!("netty-loop-{i}")))
            .collect();
        self.queues = vec![VecDeque::new(); self.n_workers];
        self.busy = vec![false; self.n_workers];
        self.wstate = vec![WState::Idle; conns];
        self.classifier.init(conns);
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.classifier.admit(ctx, conn);
        let w = self.owner(conn);
        self.enqueue(ctx, w, NEvent::Readable(conn));
    }

    fn on_writable(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if let WState::ParkedWritable(job) = self.wstate[conn.0] {
            self.wstate[conn.0] = WState::QueuedWritable(job);
            let w = self.owner(conn);
            self.enqueue(ctx, w, NEvent::Writable(conn));
        }
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, wi) = untag(t);
        let w = wi as usize;
        let conn = ConnId(c);
        match phase {
            P_WAKE => self.next_event(ctx, w),
            P_READ => {
                let class = ctx.request_class(conn);
                let fast = self.classifier.is_light(class);
                if fast {
                    self.fast_requests += 1;
                } else {
                    self.netty_requests += 1;
                }
                let mark = if fast {
                    MARK_PATH_FAST
                } else {
                    MARK_PATH_NETTY
                };
                ctx.emit(TraceKind::Mark, Some(conn), Some(self.workers[w]), mark);
                let p = ctx.profile();
                let mut cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                if !fast {
                    cost += p.netty_pipeline;
                }
                self.wstate[c] = WState::Active(WriteJob {
                    remaining: 0, // set after compute (response not built yet)
                    spins: 0,
                    last_written: 0,
                    calls: 0,
                    spun: false,
                    fast,
                    class,
                });
                ctx.submit(self.workers[w], Burst::user(cost), tag(P_COMPUTE, c, wi));
            }
            P_COMPUTE => {
                let WState::Active(mut job) = self.wstate[c] else {
                    panic!("compute completion without active job");
                };
                job.remaining = ctx.response_bytes(conn);
                self.wstate[c] = WState::Active(job);
                self.spin_iteration(ctx, conn);
            }
            P_SPIN_USER => {
                let WState::Active(job) = self.wstate[c] else {
                    panic!("spin charge without active job");
                };
                let p = ctx.profile();
                let cost = p.write_syscall + p.copy_sys(job.last_written);
                ctx.submit(
                    self.workers[w],
                    Burst::syscall(cost),
                    tag(P_SPIN_SYS, c, wi),
                );
            }
            P_SPIN_SYS => {
                let WState::Active(mut job) = self.wstate[c] else {
                    panic!("spin completion without active job");
                };
                if job.remaining == 0 {
                    // Request fully handed to the kernel: profile it.
                    let heavy = job.spun || job.calls > 1;
                    self.classifier.learn(conn, job.class, heavy);
                    self.wstate[c] = WState::Idle;
                    self.next_event(ctx, w);
                } else if job.last_written == 0 {
                    // Buffer full. A fast-path request was misclassified:
                    // flip it to heavy and degrade to the parked Netty path
                    // rather than spinning unboundedly.
                    if job.fast {
                        job.fast = false;
                        self.classifier.learn(conn, job.class, true);
                        ctx.emit(TraceKind::Mark, Some(conn), None, MARK_RECLASS_HEAVY);
                    }
                    ctx.emit(TraceKind::Mark, Some(conn), None, MARK_PARK_WRITABLE);
                    self.wstate[c] = WState::ParkedWritable(job);
                    self.next_event(ctx, w);
                } else if !job.fast && job.spins + 1 >= self.spin_limit {
                    // writeSpin budget exhausted: yield to other events via
                    // a self-scheduled flush task.
                    ctx.emit(TraceKind::Mark, Some(conn), None, MARK_SPIN_BUDGET);
                    self.wstate[c] = WState::QueuedResume(job);
                    self.enqueue(ctx, w, NEvent::Resume(conn));
                    self.next_event(ctx, w);
                } else {
                    job.spins += 1;
                    self.wstate[c] = WState::Active(job);
                    self.spin_iteration(ctx, conn);
                }
            }
            other => panic!("unknown netty phase {other}"),
        }
    }

    fn debug_counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("fast_requests", self.fast_requests),
            ("netty_requests", self.netty_requests),
        ];
        counters.extend(self.classifier.counters());
        counters
    }
}
