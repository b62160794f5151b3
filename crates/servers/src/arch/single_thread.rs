//! SingleT-Async: the single-threaded asynchronous server.
//!
//! One thread runs both the event-monitoring and event-handling phases
//! (Node.js/Lighttpd style, the paper's Section II-A first design). It has
//! zero context switches, which makes it the fastest architecture on small
//! responses — and the worst on large ones, because its write loop spins
//! unboundedly on the non-blocking socket: while the send buffer drains at
//! ACK speed, the one thread burns CPU retrying `write()` and, crucially,
//! the entire event loop is blocked for every other connection (the paper's
//! Section IV and Fig 7).

use std::collections::VecDeque;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;

use crate::arch::{spin_bursts, tag, untag, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::Q_READ;

const P_WAKE: u8 = 0;
const P_READ: u8 = 1;
const P_COMPUTE: u8 = 2;
const P_SPIN_USER: u8 = 3;
const P_SPIN_SYS: u8 = 4;

/// The single-threaded asynchronous server (paper: *SingleT-Async*).
#[derive(Debug)]
pub(crate) struct SingleThread {
    thread: Option<ThreadId>,
    /// Ready events not yet handled (the epoll ready list).
    queue: VecDeque<ConnId>,
    /// Whether the loop thread is processing (true) or parked in
    /// `epoll_wait` (false).
    busy: bool,
    /// Remaining bytes of the response currently being spun out.
    writing: Option<(ConnId, usize)>,
    /// Bytes accepted by the most recent write attempt (for cost charging).
    last_written: usize,
}

impl SingleThread {
    pub(crate) fn new() -> Self {
        SingleThread {
            thread: None,
            queue: VecDeque::new(),
            busy: false,
            writing: None,
            last_written: 0,
        }
    }

    fn thread(&self) -> ThreadId {
        self.thread.expect("init not called")
    }

    /// Starts handling the next ready event, or parks the loop.
    fn next_event(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(conn) = self.queue.pop_front() {
            ctx.emit(TraceKind::QueueExit, Some(conn), Some(self.thread()), Q_READ);
            // Part of the same ready batch: no extra epoll_wait charged.
            ctx.submit(
                self.thread(),
                Burst::syscall(ctx.profile().read_syscall),
                tag(P_READ, conn.0, 0),
            );
        } else {
            self.busy = false; // back to epoll_wait
        }
    }

    /// One unbounded-spin write iteration: attempt the write, then charge
    /// its CPU cost; the sys-burst completion decides what happens next.
    fn spin_iteration(&mut self, ctx: &mut Ctx<'_>) {
        let (conn, remaining) = self.writing.expect("spin without a write job");
        let zero = spin_bursts(ctx.profile(), 0);
        let w = ctx.spin_write(self.thread(), conn, remaining, &zero);
        self.writing = Some((conn, remaining - w));
        self.last_written = w;
        let [user, _] = spin_bursts(ctx.profile(), w);
        ctx.submit(self.thread(), user, tag(P_SPIN_USER, conn.0, 0));
    }
}

impl ServerModel for SingleThread {
    fn name(&self) -> &'static str {
        "SingleT-Async"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, _conns: usize) {
        self.thread = Some(ctx.spawn_thread("event-loop"));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        ctx.emit(TraceKind::QueueEnter, Some(conn), None, Q_READ);
        self.queue.push_back(conn);
        if !self.busy {
            self.busy = true;
            ctx.submit(
                self.thread(),
                Burst::syscall(ctx.profile().epoll_wakeup),
                tag(P_WAKE, 0, 0),
            );
        }
    }

    fn on_writable(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
        // The spin loop never parks on writability: it polls the socket in
        // a tight loop, so EPOLLOUT readiness is moot. (This is precisely
        // the pathology the paper's Netty-based servers avoid.)
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, _) = untag(t);
        match phase {
            P_WAKE => self.next_event(ctx),
            P_READ => {
                let conn = ConnId(c);
                let p = ctx.profile();
                let cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                ctx.submit(self.thread(), Burst::user(cost), tag(P_COMPUTE, c, 0));
            }
            P_COMPUTE => {
                self.writing = Some((ConnId(c), ctx.response_bytes(ConnId(c))));
                self.spin_iteration(ctx);
            }
            P_SPIN_USER => {
                let [_, sys] = spin_bursts(ctx.profile(), self.last_written);
                ctx.submit(self.thread(), sys, tag(P_SPIN_SYS, c, 0));
            }
            P_SPIN_SYS => {
                match self.writing {
                    Some((conn, 0)) => {
                        debug_assert_eq!(conn.0, c);
                        self.writing = None;
                        self.next_event(ctx);
                    }
                    Some(_) => self.spin_iteration(ctx), // keep spinning
                    None => panic!("spin completion without a job"),
                }
            }
            other => panic!("unknown single-thread phase {other}"),
        }
    }
}
