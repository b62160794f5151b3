//! sTomcat-Async / sTomcat-Async-Fix: reactor + worker-pool servers.
//!
//! The paper's Fig 3 flow (Tomcat 8's NIO connector, also Jetty/Grizzly):
//!
//! 1. the reactor thread dispatches a read event to a worker;
//! 2. the worker reads, computes and prepares the response, then generates
//!    a **write event** back to the reactor;
//! 3. the reactor dispatches the write event to a (generally different)
//!    worker;
//! 4. that worker spins the response out and returns control to the
//!    reactor.
//!
//! Four user-space thread handoffs per request. The "-Fix" variant merges
//! steps 2–3: the worker that read the request keeps going and writes the
//! response itself, halving the handoffs (the paper's Table II). Both
//! variants inherit the unbounded write-spin of non-blocking sockets.
//!
//! At high concurrency the handoffs amortize naturally: the reactor
//! dispatches whole batches per wakeup and busy workers pull queued tasks
//! without blocking, so context switches per request fall — which is why
//! the asynchronous server eventually overtakes the synchronous one in the
//! paper's Fig 2 crossovers.

use std::collections::VecDeque;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;

use crate::arch::{spin_bursts, tag, untag, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::{Q_DONE, Q_READ, Q_REGISTER, Q_WRITE};

const P_R_WAKE: u8 = 0;
const P_R_DISPATCH: u8 = 1;
const P_W_READ: u8 = 2;
const P_W_COMPUTE: u8 = 3;
const P_SPIN_USER: u8 = 4;
const P_SPIN_SYS: u8 = 5;

/// Events queued at the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum REvent {
    /// A connection became readable (new request).
    Readable(ConnId),
    /// A worker prepared a response and asks for a write dispatch (step 2).
    WriteRequest(ConnId),
    /// A worker finished sending and returns control (step 4).
    Done,
    /// Real-Tomcat NIO only: the keep-alive socket's read interest must be
    /// re-registered with the selector through the poller-event queue.
    RegisterRead,
}

/// Tasks handed to pool workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Read(ConnId),
    Write(ConnId),
}

/// Per-worker in-progress job.
#[derive(Debug, Clone, Copy)]
struct Job {
    conn: ConnId,
    remaining: usize,
    last_written: usize,
}

/// Reactor + worker-pool server (paper: *sTomcat-Async* and, with
/// `merge_write`, *sTomcat-Async-Fix*).
#[derive(Debug)]
pub(crate) struct AsyncPool {
    merge_write: bool,
    /// Model the full Tomcat 8 NIO poller instead of the paper's simplified
    /// sTomcat-Async: the selector loop handles one ready event per
    /// `select()` cycle and sockets take interest re-registration round
    /// trips through the poller queue. This is what drives the real
    /// TomcatAsync's context-switch rates (the paper's Table I measures
    /// 25–40 per request versus the simplified server's 4).
    real_nio: bool,
    pool_size: usize,
    reactor: Option<ThreadId>,
    workers: Vec<ThreadId>,
    idle_workers: VecDeque<usize>,
    tasks: VecDeque<Task>,
    revents: VecDeque<REvent>,
    /// Batch currently being dispatched by the reactor.
    batch: Vec<REvent>,
    reactor_busy: bool,
    jobs: Vec<Option<Job>>,
}

impl AsyncPool {
    pub(crate) fn new(merge_write: bool, pool_size: usize, real_nio: bool) -> Self {
        assert!(pool_size > 0, "worker pool must be non-empty");
        AsyncPool {
            merge_write,
            real_nio,
            pool_size,
            reactor: None,
            workers: Vec::new(),
            idle_workers: VecDeque::new(),
            tasks: VecDeque::new(),
            revents: VecDeque::new(),
            batch: Vec::new(),
            reactor_busy: false,
            jobs: Vec::new(),
        }
    }

    fn reactor(&self) -> ThreadId {
        self.reactor.expect("init not called")
    }

    /// Queues an event at the reactor, waking it if parked in the selector.
    fn post(&mut self, ctx: &mut Ctx<'_>, ev: REvent) {
        if ctx.trace_enabled() {
            let (code, conn) = match ev {
                REvent::Readable(c) => (Q_READ, Some(c)),
                REvent::WriteRequest(c) => (Q_WRITE, Some(c)),
                REvent::Done => (Q_DONE, None),
                REvent::RegisterRead => (Q_REGISTER, None),
            };
            ctx.emit(TraceKind::QueueEnter, conn, None, code);
        }
        self.revents.push_back(ev);
        if !self.reactor_busy {
            self.reactor_busy = true;
            ctx.submit(
                self.reactor(),
                Burst::syscall(ctx.profile().epoll_wakeup),
                tag(P_R_WAKE, 0, 0),
            );
        }
    }

    /// Reactor inspects the ready batch (one dispatch-cost per event).
    fn dispatch_batch(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.batch.is_empty());
        if self.revents.is_empty() {
            self.reactor_busy = false; // back to select()
            return;
        }
        if self.real_nio {
            // The Tomcat poller handles one selected key per loop cycle.
            let ev = self.revents.pop_front().expect("checked non-empty");
            self.batch.push(ev);
        } else {
            self.batch.extend(self.revents.drain(..));
        }
        let cost = ctx.profile().dispatch_cost * self.batch.len() as u64;
        ctx.submit(self.reactor(), Burst::user(cost), tag(P_R_DISPATCH, 0, 0));
    }

    /// After the dispatch burst: turn events into tasks and assign workers.
    fn finish_dispatch(&mut self, ctx: &mut Ctx<'_>) {
        for ev in std::mem::take(&mut self.batch) {
            match ev {
                REvent::Readable(conn) => self.tasks.push_back(Task::Read(conn)),
                REvent::WriteRequest(conn) => self.tasks.push_back(Task::Write(conn)),
                REvent::Done | REvent::RegisterRead => {}
            }
        }
        while !self.tasks.is_empty() && !self.idle_workers.is_empty() {
            let w = self.idle_workers.pop_front().expect("checked non-empty");
            let task = self.tasks.pop_front().expect("checked non-empty");
            self.begin_task(ctx, w, task);
        }
        if self.real_nio && !self.revents.is_empty() {
            // Each poller cycle re-enters select(), which returns
            // immediately while events are pending but costs the syscall.
            ctx.submit(
                self.reactor(),
                Burst::syscall(ctx.profile().epoll_wakeup),
                tag(P_R_WAKE, 0, 0),
            );
        } else {
            // Events may have arrived while dispatching: loop without a new
            // epoll_wait (they were already in the ready list).
            self.dispatch_batch(ctx);
        }
    }

    /// Starts `task` on worker `w` (submits its first burst; if the worker
    /// was parked this wakes it, and the scheduler charges the switch).
    fn begin_task(&mut self, ctx: &mut Ctx<'_>, w: usize, task: Task) {
        match task {
            Task::Read(conn) => {
                // Fig 3 step 1: reactor dispatches the read event.
                ctx.emit(
                    TraceKind::QueueExit,
                    Some(conn),
                    Some(self.workers[w]),
                    Q_READ,
                );
                self.jobs[w] = Some(Job {
                    conn,
                    remaining: 0,
                    last_written: 0,
                });
                ctx.submit(
                    self.workers[w],
                    Burst::syscall(ctx.profile().read_syscall),
                    tag(P_W_READ, conn.0, w as u16),
                );
            }
            Task::Write(conn) => {
                // Fig 3 step 3: reactor dispatches the write event.
                ctx.emit(
                    TraceKind::QueueExit,
                    Some(conn),
                    Some(self.workers[w]),
                    Q_WRITE,
                );
                self.jobs[w] = Some(Job {
                    conn,
                    remaining: ctx.response_bytes(conn),
                    last_written: 0,
                });
                self.spin_iteration(ctx, w);
            }
        }
    }

    /// One unbounded-spin write iteration on worker `w`.
    fn spin_iteration(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        let job = self.jobs[w].as_mut().expect("spin without a job");
        let zero = spin_bursts(ctx.profile(), 0);
        let written = ctx.spin_write(self.workers[w], job.conn, job.remaining, &zero);
        job.remaining -= written;
        job.last_written = written;
        let conn = job.conn;
        let [user, _] = spin_bursts(ctx.profile(), written);
        ctx.submit(self.workers[w], user, tag(P_SPIN_USER, conn.0, w as u16));
    }

    /// Worker finished its task: pull the next one or park in the pool.
    fn worker_next(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        self.jobs[w] = None;
        if let Some(task) = self.tasks.pop_front() {
            self.begin_task(ctx, w, task); // chained: no handoff needed
        } else {
            self.idle_workers.push_back(w);
        }
    }
}

impl ServerModel for AsyncPool {
    fn name(&self) -> &'static str {
        if self.merge_write {
            "sTomcat-Async-Fix"
        } else {
            "sTomcat-Async"
        }
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.reactor = Some(ctx.spawn_thread("reactor"));
        let n = self.pool_size.min(conns.max(1) * 2);
        self.workers = (0..n)
            .map(|i| ctx.spawn_thread(format!("pool-worker-{i}")))
            .collect();
        self.idle_workers = (0..n).collect();
        self.jobs = vec![None; n];
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.post(ctx, REvent::Readable(conn));
    }

    fn on_writable(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
        // Workers spin on the socket; they never wait for EPOLLOUT.
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, wi) = untag(t);
        let w = wi as usize;
        match phase {
            P_R_WAKE => self.dispatch_batch(ctx),
            P_R_DISPATCH => self.finish_dispatch(ctx),
            P_W_READ => {
                let conn = ConnId(c);
                let p = ctx.profile();
                let cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                ctx.submit(self.workers[w], Burst::user(cost), tag(P_W_COMPUTE, c, wi));
            }
            P_W_COMPUTE => {
                let conn = ConnId(c);
                if self.merge_write {
                    // Fix: same worker continues into the write phase.
                    let job = self.jobs[w].as_mut().expect("compute without job");
                    job.remaining = ctx.response_bytes(conn);
                    self.spin_iteration(ctx, w);
                } else {
                    // Fig 3 step 2: generate a write event for the reactor.
                    self.post(ctx, REvent::WriteRequest(conn));
                    self.worker_next(ctx, w);
                }
            }
            P_SPIN_USER => {
                let job = self.jobs[w].expect("spin charge without job");
                let [_, sys] = spin_bursts(ctx.profile(), job.last_written);
                ctx.submit(self.workers[w], sys, tag(P_SPIN_SYS, c, wi));
            }
            P_SPIN_SYS => {
                let job = self.jobs[w].expect("spin completion without job");
                if job.remaining == 0 {
                    // Fig 3 step 4: return control to the reactor.
                    self.post(ctx, REvent::Done);
                    if self.real_nio {
                        // Keep-alive: read interest goes back through the
                        // poller-event queue.
                        self.post(ctx, REvent::RegisterRead);
                    }
                    self.worker_next(ctx, w);
                } else {
                    self.spin_iteration(ctx, w);
                }
            }
            other => panic!("unknown async-pool phase {other}"),
        }
    }
}
