//! sTomcat-Sync: the thread-per-connection synchronous server.
//!
//! Each connection is owned by a dedicated worker thread performing blocking
//! I/O: read the request, compute the response, and issue **one** blocking
//! `socket.write()`. If the response exceeds the send buffer, the thread
//! sleeps inside the syscall and the kernel copies further chunks as ACKs
//! free space — so the syscall count stays at one per request (the paper's
//! Table IV) and no CPU is burned waiting (no write-spin). The price is
//! paid elsewhere: thread wake/block overhead on every request and growing
//! context-switch costs at high thread counts (the paper's Fig 2).

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;

use crate::arch::{tag, untag, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::Q_READ;

const P_READ: u8 = 0;
const P_COMPUTE: u8 = 1;
const P_WRITE_CHARGE_USER: u8 = 2;
const P_WRITE_CHARGE_SYS: u8 = 3;
const P_WRITE_CONT: u8 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Thread parked in blocking `read()`, no request pending.
    Idle,
    /// Reading + parsing the request.
    Read,
    /// Business logic + serialization.
    Compute,
    /// Charging the CPU cost of a write that accepted `written` bytes;
    /// `remaining` bytes still to hand to the kernel.
    WriteCharging { remaining: usize, written: usize },
    /// Asleep inside the blocking write, waiting for buffer space.
    WriteBlocked { remaining: usize },
}

/// The thread-per-connection synchronous server (paper: *sTomcat-Sync*).
#[derive(Debug, Default)]
pub(crate) struct SyncThread {
    threads: Vec<ThreadId>,
    phase: Vec<Phase>,
    /// A request arrived while the worker was still returning from the
    /// previous blocking write; it waits in the socket receive buffer until
    /// the thread loops back to `read()`.
    pending: Vec<bool>,
}

impl SyncThread {
    pub(crate) fn new() -> Self {
        SyncThread::default()
    }

    /// The worker (re)enters blocking `read()` for the next request.
    fn begin_read(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.phase[conn.0] = Phase::Read;
        let p = ctx.profile();
        // The blocked thread resumes from `read()`: syscall + wakeup cost.
        let cost = p.read_syscall + p.block_resume;
        ctx.submit(
            self.threads[conn.0],
            Burst::syscall(cost),
            tag(P_READ, conn.0, 0),
        );
    }

    /// Charges the CPU cost of `written` accepted bytes, then continues.
    fn charge_write(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, remaining: usize, written: usize) {
        self.phase[conn.0] = Phase::WriteCharging { remaining, written };
        let p = ctx.profile();
        let user = p.write_prep + p.copy_user(written);
        ctx.submit(
            self.threads[conn.0],
            Burst::user(user),
            tag(P_WRITE_CHARGE_USER, conn.0, 0),
        );
    }
}

impl ServerModel for SyncThread {
    fn name(&self) -> &'static str {
        "sTomcat-Sync"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.threads = (0..conns)
            .map(|i| ctx.spawn_thread(format!("sync-worker-{i}")))
            .collect();
        self.phase = vec![Phase::Idle; conns];
        self.pending = vec![false; conns];
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.phase[conn.0] != Phase::Idle {
            // The worker is still finishing the previous blocking write;
            // the request waits in the receive buffer.
            ctx.emit(
                TraceKind::QueueEnter,
                Some(conn),
                Some(self.threads[conn.0]),
                Q_READ,
            );
            self.pending[conn.0] = true;
            return;
        }
        self.begin_read(ctx, conn);
    }

    fn on_writable(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        // Only relevant while asleep inside a blocking write.
        let Phase::WriteBlocked { remaining } = self.phase[conn.0] else {
            return;
        };
        let w = ctx.write_continue(conn, remaining);
        if w == 0 {
            return; // another ACK will follow while data is in flight
        }
        // In-kernel continuation: copy cost plus the wake/sleep overhead,
        // all system time (the thread never returns to user space).
        let p = ctx.profile();
        let cost = p.block_resume + p.copy_sys(w) + p.copy_user(w);
        self.phase[conn.0] = Phase::WriteCharging {
            remaining: remaining - w,
            written: 0, // cost already charged in full here
        };
        ctx.submit(
            self.threads[conn.0],
            Burst::syscall(cost),
            tag(P_WRITE_CONT, conn.0, 0),
        );
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, _) = untag(t);
        let conn = ConnId(c);
        match phase {
            P_READ => {
                debug_assert_eq!(self.phase[c], Phase::Read);
                self.phase[c] = Phase::Compute;
                let p = ctx.profile();
                let cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                ctx.submit(self.threads[c], Burst::user(cost), tag(P_COMPUTE, c, 0));
            }
            P_COMPUTE => {
                // Enter the single blocking write: first copy attempt now.
                let total = ctx.response_bytes(conn);
                let w = ctx.write(conn, total);
                self.charge_write(ctx, conn, total - w, w);
            }
            P_WRITE_CHARGE_USER => {
                let Phase::WriteCharging { remaining, written } = self.phase[c] else {
                    panic!("bad phase for write charge");
                };
                let p = ctx.profile();
                let cost = p.write_syscall + p.copy_sys(written);
                self.phase[c] = Phase::WriteCharging { remaining, written };
                ctx.submit(
                    self.threads[c],
                    Burst::syscall(cost),
                    tag(P_WRITE_CHARGE_SYS, c, 0),
                );
            }
            P_WRITE_CHARGE_SYS | P_WRITE_CONT => {
                let Phase::WriteCharging { remaining, .. } = self.phase[c] else {
                    panic!("bad phase after write charge");
                };
                if remaining == 0 {
                    // Blocking write returned; thread loops back to read().
                    self.phase[c] = Phase::Idle;
                    if std::mem::take(&mut self.pending[c]) {
                        ctx.emit(
                            TraceKind::QueueExit,
                            Some(conn),
                            Some(self.threads[c]),
                            Q_READ,
                        );
                        self.begin_read(ctx, conn);
                    }
                } else {
                    // Try to copy more right away (ACKs may have freed space
                    // while we were charging), otherwise sleep.
                    let w = ctx.write_continue(conn, remaining);
                    if w == 0 {
                        self.phase[c] = Phase::WriteBlocked { remaining };
                    } else {
                        let p = ctx.profile();
                        let cost = p.copy_sys(w) + p.copy_user(w);
                        self.phase[c] = Phase::WriteCharging {
                            remaining: remaining - w,
                            written: 0,
                        };
                        ctx.submit(
                            self.threads[c],
                            Burst::syscall(cost),
                            tag(P_WRITE_CONT, c, 0),
                        );
                    }
                }
            }
            other => panic!("unknown sync phase {other}"),
        }
    }
}
