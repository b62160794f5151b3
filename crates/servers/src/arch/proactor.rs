//! Proactor: the eighth architecture — completion-based I/O over a
//! submission/completion ring.
//!
//! Every other architecture in this crate is a *reactor*: readiness events
//! (readable/writable) wake a thread which then performs the syscall
//! itself, paying one kernel crossing per `read()`/`write()` — and, for
//! partial writes, a spin loop of further crossings. The proactor inverts
//! the model, following io_uring: workers *stage* operation descriptors
//! (SQEs) into a ring and flush a whole batch with one modeled
//! `io_uring_enter` — a single kernel crossing however many operations it
//! carries. The kernel completes operations asynchronously and posts CQEs;
//! the worker reaps them in batches at user level.
//!
//! Two structural consequences drive the measurements:
//!
//! - **Kernel crossings collapse.** Under load a worker stages the read
//!   and write SQEs of many connections between flushes, so crossings per
//!   request fall below one-per-op — and below NettyServer's
//!   wakeup+read+write floor (see `RunSummary::crossings_per_req`).
//! - **Write-spin disappears by construction.** A write SQE completes via
//!   its CQE when the kernel has accepted all bytes; the remainder of a
//!   partial write is pushed by kernel continuations on writability, never
//!   by re-issued `write()` syscalls. `writes_per_req` and
//!   `spins_per_req` are exactly zero for the pure proactor.
//!
//! In hybrid mode ([`crate::HybridPath::Proactor`]) the model doubles as
//! the HybridNetty router's backend: learned-light requests take the
//! SingleT-style direct-syscall path (lowest latency at low load), heavy
//! ones ride the ring (no spin, batched crossings). Reclassification
//! freezes for requests admitted while the engine's load shedder is
//! active ([`Ctx::shed_active`] sampled at admission) so overload
//! transients don't flap the map.

use std::collections::VecDeque;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_obs::TraceKind;
use asyncinv_tcp::ConnId;
use asyncinv_uring::{Cqe, FlushBatch, Op, Ring, Sqe, StageOutcome, UringConfig, UringCounters};

use crate::arch::{tag, untag, ServerModel};
use crate::engine::Ctx;
use crate::trace_codes::{MARK_PATH_FAST, MARK_PATH_URING, MARK_RECLASS_HEAVY};

/// `io_uring_enter` flush burst completed (one kernel crossing).
const P_FLUSH: u8 = 1;
/// Completion-queue reap (user-level) burst completed.
const P_REAP: u8 = 2;
/// Request compute for a ring-path request completed.
const P_COMPUTE: u8 = 3;
/// Hybrid light path: direct `read()` syscall burst completed.
const P_LREAD: u8 = 4;
/// Hybrid light path: compute burst completed.
const P_LCOMPUTE: u8 = 5;
/// Hybrid light path: user-side write prep/copy burst completed.
const P_LWRITE: u8 = 6;
/// Hybrid light path: `write()` syscall burst completed.
const P_LSYS: u8 = 7;

/// A write whose bytes were not all accepted at flush time; the remainder
/// is pushed by kernel continuations as the send buffer drains.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    remaining: usize,
    total: usize,
    /// Registered-buffer slot held until completion.
    registered: bool,
    /// `true` when a CQE must be posted on completion (ring-path write);
    /// hybrid light-path remainders complete silently.
    via_ring: bool,
}

/// Per-worker proactor state: one ring plus the loop bookkeeping.
#[derive(Debug)]
struct Worker {
    ring: Ring,
    /// SQEs bounced by SQ-full backpressure, re-staged after each flush.
    overflow: VecDeque<Sqe>,
    /// Reaped read CQEs waiting for their compute slot.
    handle_q: VecDeque<Cqe>,
    /// Hybrid light-path arrivals waiting for the worker.
    light_q: VecDeque<ConnId>,
    /// The batch currently inside its flush burst.
    inflight: Option<FlushBatch>,
    busy: bool,
}

/// The completion-based proactor server (also the HybridNetty router's
/// proactor backend).
#[derive(Debug)]
pub(crate) struct Proactor {
    n_workers: usize,
    cfg: UringConfig,
    hybrid: bool,
    threads: Vec<ThreadId>,
    workers: Vec<Worker>,
    pending: Vec<Option<PendingWrite>>,
    /// Hybrid light-path in-flight write size per connection.
    lwrite: Vec<usize>,
    /// Per-connection [`Ctx::shed_active`] sampled at admission; freezes
    /// classification updates from requests admitted under overload.
    shed_admit: Vec<bool>,
    /// Hybrid classification map: request class → is-heavy.
    classes: Vec<Option<bool>>,
    // Debug counters.
    ring_requests: u64,
    fast_requests: u64,
    reclass_to_heavy: u64,
    reclass_to_light: u64,
    reclass_frozen: u64,
}

impl Proactor {
    pub(crate) fn new(n_workers: usize, cfg: UringConfig, hybrid: bool) -> Self {
        assert!(n_workers > 0, "need at least one ring worker");
        if let Err(e) = cfg.validate() {
            panic!("invalid UringConfig: {e}");
        }
        Proactor {
            n_workers,
            cfg,
            hybrid,
            threads: Vec::new(),
            workers: Vec::new(),
            pending: Vec::new(),
            lwrite: Vec::new(),
            shed_admit: Vec::new(),
            classes: Vec::new(),
            ring_requests: 0,
            fast_requests: 0,
            reclass_to_heavy: 0,
            reclass_to_light: 0,
            reclass_frozen: 0,
        }
    }

    fn owner(&self, conn: ConnId) -> usize {
        conn.0 % self.n_workers
    }

    /// Stages an SQE, falling back to the overflow queue under SQ-full
    /// backpressure. Trace events mirror the ring counters 1:1.
    fn stage(&mut self, ctx: &mut Ctx<'_>, w: usize, sqe: Sqe) {
        let conn = ConnId(sqe.op.conn());
        let code = sqe.op.code();
        match self.workers[w].ring.try_stage(sqe) {
            StageOutcome::Staged => {
                ctx.emit(TraceKind::SqSubmit, Some(conn), Some(self.threads[w]), code);
            }
            StageOutcome::Full => {
                let depth = self.cfg.sq_depth as u64;
                ctx.emit(TraceKind::SqFull, Some(conn), Some(self.threads[w]), depth);
                self.workers[w].overflow.push_back(sqe);
            }
        }
    }

    /// Builds the write SQE for a computed response, taking a registered
    /// buffer when one is free (skips the user→kernel copy).
    fn stage_response(&mut self, ctx: &mut Ctx<'_>, w: usize, conn: ConnId, bytes: usize) {
        let p = ctx.profile();
        let registered = self.workers[w].ring.acquire_buf();
        let mut kernel_cost = p.write_syscall + p.copy_sys(bytes);
        if !registered {
            kernel_cost += p.copy_user(bytes);
        }
        self.stage(
            ctx,
            w,
            Sqe {
                op: Op::Write {
                    conn: conn.0,
                    bytes,
                },
                kernel_cost,
                registered,
            },
        );
    }

    /// Kicks an idle worker's loop.
    fn kick(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        if !self.workers[w].busy {
            self.workers[w].busy = true;
            self.advance(ctx, w);
        }
    }

    /// The worker loop: picks the next burst by priority — computes first
    /// (finish admitted work), then reap (surface completions), then flush
    /// (one crossing for everything staged meanwhile), else idle. The
    /// compute-before-flush order is what batches SQEs: every compute that
    /// finishes before the flush stages its write into the same batch.
    fn advance(&mut self, ctx: &mut Ctx<'_>, w: usize) {
        debug_assert!(self.workers[w].busy, "advance on idle worker");
        if let Some(cqe) = self.workers[w].handle_q.pop_front() {
            let conn = cqe.op.conn();
            let p = ctx.profile();
            let cost = p.parse_cost + p.compute(cqe.result);
            ctx.submit(
                self.threads[w],
                Burst::user(cost),
                tag(P_COMPUTE, conn, w as u16),
            );
            return;
        }
        if let Some(conn) = self.workers[w].light_q.pop_front() {
            ctx.submit(
                self.threads[w],
                Burst::syscall(ctx.profile().read_syscall),
                tag(P_LREAD, conn.0, w as u16),
            );
            return;
        }
        if self.workers[w].ring.cq_len() > 0 {
            let (cqes, cost) = self.workers[w].ring.reap();
            ctx.emit(
                TraceKind::CqReap,
                None,
                Some(self.threads[w]),
                cqes.len() as u64,
            );
            for cqe in cqes {
                match cqe.op {
                    Op::Read { .. } => self.workers[w].handle_q.push_back(cqe),
                    Op::Write { conn, .. } => {
                        // Write fully accepted by the kernel: the request
                        // is out of the server's hands. Profile it — a
                        // write that needed writability pushes is heavy.
                        let needed_push = cqe.result > 0;
                        let class = ctx.request_class(ConnId(conn));
                        self.learn(self.shed_admit[conn], class, needed_push);
                    }
                }
            }
            ctx.submit(self.threads[w], Burst::user(cost), tag(P_REAP, 0, w as u16));
            return;
        }
        if self.workers[w].ring.staged_len() > 0 {
            let batch = self.workers[w].ring.begin_flush();
            let n = batch.sqes.len() as u64;
            let cost = batch.cost;
            ctx.emit(TraceKind::SqFlush, None, Some(self.threads[w]), n);
            self.workers[w].inflight = Some(batch);
            ctx.submit(
                self.threads[w],
                Burst::syscall(cost),
                tag(P_FLUSH, 0, w as u16),
            );
            return;
        }
        self.workers[w].busy = false;
    }

    /// Classification lookup; `None` means not yet profiled.
    fn class_is_heavy(&self, class: usize) -> Option<bool> {
        self.classes.get(class).copied().flatten()
    }

    /// Updates the hybrid classification map. Re-classification (an
    /// already-learned class flipping) freezes for requests admitted while
    /// the load shedder was active — overload distorts write behaviour,
    /// and acting on it flaps the map (the storm-freeze satellite's
    /// regression test pins this).
    fn learn(&mut self, frozen: bool, class: usize, heavy: bool) {
        if !self.hybrid {
            return;
        }
        if self.classes.len() <= class {
            self.classes.resize(class + 1, None);
        }
        match self.classes[class] {
            Some(prev) if prev != heavy => {
                if frozen {
                    self.reclass_frozen += 1;
                    return;
                }
                if heavy {
                    self.reclass_to_heavy += 1;
                } else {
                    self.reclass_to_light += 1;
                }
            }
            _ => {}
        }
        self.classes[class] = Some(heavy);
    }
}

impl ServerModel for Proactor {
    fn name(&self) -> &'static str {
        if self.hybrid {
            "HybridNetty"
        } else {
            "Proactor"
        }
    }

    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize) {
        self.threads = (0..self.n_workers)
            .map(|i| ctx.spawn_thread(format!("uring-loop-{i}")))
            .collect();
        self.workers = (0..self.n_workers)
            .map(|_| Worker {
                ring: Ring::new(self.cfg.clone()),
                overflow: VecDeque::new(),
                handle_q: VecDeque::new(),
                light_q: VecDeque::new(),
                inflight: None,
                busy: false,
            })
            .collect();
        self.pending = vec![None; conns];
        self.lwrite = vec![0; conns];
        self.shed_admit = vec![false; conns];
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.shed_admit[conn.0] = ctx.shed_active();
        let w = self.owner(conn);
        let class = ctx.request_class(conn);
        let light = self.hybrid && self.class_is_heavy(class) == Some(false);
        if light {
            self.fast_requests += 1;
            ctx.emit(
                TraceKind::Mark,
                Some(conn),
                Some(self.threads[w]),
                MARK_PATH_FAST,
            );
            self.workers[w].light_q.push_back(conn);
        } else {
            self.ring_requests += 1;
            ctx.emit(
                TraceKind::Mark,
                Some(conn),
                Some(self.threads[w]),
                MARK_PATH_URING,
            );
            self.stage(
                ctx,
                w,
                Sqe {
                    op: Op::Read { conn: conn.0 },
                    kernel_cost: ctx.profile().read_syscall,
                    registered: false,
                },
            );
        }
        self.kick(ctx, w);
    }

    fn on_writable(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(mut pw) = self.pending[conn.0] else {
            return;
        };
        let pushed = ctx.write_continue(conn, pw.remaining);
        pw.remaining -= pushed;
        if pw.remaining == 0 {
            self.pending[conn.0] = None;
            if pw.via_ring {
                let w = self.owner(conn);
                self.workers[w].ring.complete(
                    Op::Write {
                        conn: conn.0,
                        bytes: pw.total,
                    },
                    pw.total,
                    pw.registered,
                );
                self.kick(ctx, w);
            }
        } else {
            self.pending[conn.0] = Some(pw);
        }
    }

    fn on_burst(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId, t: u64) {
        let (phase, c, wi) = untag(t);
        let w = wi as usize;
        let conn = ConnId(c);
        match phase {
            P_FLUSH => {
                let batch = self.workers[w]
                    .inflight
                    .take()
                    .expect("flush without batch");
                for sqe in batch.sqes {
                    match sqe.op {
                        Op::Read { conn } => {
                            // The request bytes are already at the socket
                            // (the engine signalled readability); the read
                            // completes within the enter crossing.
                            let bytes = ctx.response_bytes(ConnId(conn));
                            self.workers[w].ring.complete(sqe.op, bytes, false);
                        }
                        Op::Write { conn, bytes } => {
                            let pushed = ctx.write_continue(ConnId(conn), bytes);
                            if pushed == bytes {
                                // `result` 0: accepted in one pass (light
                                // behaviour). Partial writes complete later
                                // with `result` > 0 (heavy behaviour).
                                self.workers[w].ring.complete(sqe.op, 0, sqe.registered);
                            } else {
                                self.pending[conn] = Some(PendingWrite {
                                    remaining: bytes - pushed,
                                    total: bytes,
                                    registered: sqe.registered,
                                    via_ring: true,
                                });
                            }
                        }
                    }
                }
                // Backpressured SQEs get the freed slots, oldest first.
                while let Some(sqe) = self.workers[w].overflow.pop_front() {
                    let conn = ConnId(sqe.op.conn());
                    let code = sqe.op.code();
                    match self.workers[w].ring.try_stage(sqe) {
                        StageOutcome::Staged => {
                            ctx.emit(TraceKind::SqSubmit, Some(conn), Some(self.threads[w]), code);
                        }
                        StageOutcome::Full => {
                            let depth = self.cfg.sq_depth as u64;
                            ctx.emit(TraceKind::SqFull, Some(conn), Some(self.threads[w]), depth);
                            self.workers[w].overflow.push_front(sqe);
                            break;
                        }
                    }
                }
                self.advance(ctx, w);
            }
            P_REAP => self.advance(ctx, w),
            P_COMPUTE => {
                let bytes = ctx.response_bytes(conn);
                self.stage_response(ctx, w, conn, bytes);
                self.advance(ctx, w);
            }
            P_LREAD => {
                let p = ctx.profile();
                let cost = p.parse_cost + p.compute(ctx.response_bytes(conn));
                ctx.submit(self.threads[w], Burst::user(cost), tag(P_LCOMPUTE, c, wi));
            }
            P_LCOMPUTE => {
                // SingleT-style direct write: one counted syscall, no ring.
                let bytes = ctx.response_bytes(conn);
                let written = ctx.write(conn, bytes);
                self.lwrite[c] = written;
                let p = ctx.profile();
                let user = p.write_prep + p.copy_user(written);
                ctx.submit(self.threads[w], Burst::user(user), tag(P_LWRITE, c, wi));
            }
            P_LWRITE => {
                let p = ctx.profile();
                let cost = p.write_syscall + p.copy_sys(self.lwrite[c]);
                ctx.submit(self.threads[w], Burst::syscall(cost), tag(P_LSYS, c, wi));
            }
            P_LSYS => {
                let written = self.lwrite[c];
                let bytes = ctx.response_bytes(conn);
                if written == bytes {
                    self.learn(self.shed_admit[c], ctx.request_class(conn), false);
                } else {
                    // Misclassified: the buffer couldn't take it in one
                    // call. Flip to heavy and hand the remainder to kernel
                    // continuations — never an unbounded spin loop.
                    self.learn(self.shed_admit[c], ctx.request_class(conn), true);
                    ctx.emit(TraceKind::Mark, Some(conn), None, MARK_RECLASS_HEAVY);
                    self.pending[c] = Some(PendingWrite {
                        remaining: bytes - written,
                        total: bytes,
                        registered: false,
                        via_ring: false,
                    });
                }
                self.advance(ctx, w);
            }
            other => panic!("unknown proactor phase {other}"),
        }
    }

    fn debug_counters(&self) -> Vec<(&'static str, u64)> {
        let mut sum = UringCounters::default();
        for wk in &self.workers {
            sum.accumulate(&wk.ring.counters());
        }
        vec![
            ("ring_requests", self.ring_requests),
            ("fast_requests", self.fast_requests),
            ("reclass_to_heavy", self.reclass_to_heavy),
            ("reclass_to_light", self.reclass_to_light),
            ("reclass_frozen", self.reclass_frozen),
            ("buf_fallbacks", sum.buf_fallbacks),
            ("buf_high_water", sum.buf_high_water),
            ("cq_high_water", sum.cq_high_water),
        ]
    }

    fn uring_stats(&self) -> Option<UringCounters> {
        let mut sum = UringCounters::default();
        for wk in &self.workers {
            sum.accumulate(&wk.ring.counters());
        }
        Some(sum)
    }
}
