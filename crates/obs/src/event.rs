//! The structured trace-event schema.

use asyncinv_simcore::SimTime;

/// What happened. Every variant maps to one interesting transition in the
/// engine, the CPU scheduler, the TCP world, or a server architecture; the
/// full schema (including the per-kind meaning of [`TraceEvent::arg`]) is
/// documented in `docs/observability.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A request's bytes reached the server socket (engine).
    RequestArrive,
    /// A work item entered an internal server queue. `arg` is an
    /// architecture-specific item code (see `asyncinv_servers::trace_codes`).
    QueueEnter,
    /// A work item left a queue and was assigned to a thread. `arg` carries
    /// the same item code as the matching [`TraceKind::QueueEnter`].
    QueueExit,
    /// A core dispatched a thread different from the previous occupant —
    /// the exact moment the scheduler's `context_switches` counter
    /// increments. `arg` is 1 for a cross-core migration, else 0.
    ThreadDispatch,
    /// A thread blocked with no pending work (parked in the scheduler).
    ThreadPark,
    /// A non-blocking `socket.write()` call; `arg` is the bytes accepted.
    WriteCall,
    /// A zero-return `socket.write()` — one write-spin iteration.
    WriteSpin,
    /// ACKs freed send-buffer space; `arg` is the free space in bytes.
    SendBufDrain,
    /// The response's last byte reached the client; `arg` is the response
    /// time in nanoseconds.
    Completion,
    /// Architecture-specific annotation; `arg` is a mark code (see
    /// `asyncinv_servers::trace_codes`).
    Mark,
    /// A fault-plan action was applied to a substrate; `arg` is the fault
    /// code (see `asyncinv_fault::codes`).
    FaultInject,
    /// A client-side per-request timeout fired before the response
    /// completed; `arg` is the attempt number that timed out (0 = first).
    ClientTimeout,
    /// A retry was scheduled after a timeout or rejection; `arg` is the
    /// backoff delay in nanoseconds.
    Retry,
    /// The client gave up on a request (retries/budget exhausted or an
    /// abandonment fault); `arg` is the number of attempts made.
    Abandon,
    /// The server shed an arrival under overload; `arg` is a shed code
    /// (see `asyncinv_servers::trace_codes`).
    Shed,
    /// A reject-fast error response fully reached the client. Deliberately
    /// distinct from [`TraceKind::Completion`]: rejected requests do not
    /// count toward goodput. `arg` is the time since first send in ns.
    Rejected,
    /// The fleet balancer routed a request attempt to a shard; `arg` is
    /// the shard index. Emitted only by multi-shard clusters (a 1-shard
    /// fleet is bit-identical to the bare engine and emits none).
    ShardRoute,
    /// A hedged duplicate of an outstanding request was fired to a second
    /// shard; `arg` is the hedge delay in nanoseconds.
    Hedge,
    /// One side of a hedged pair was cancelled (the other side won, or a
    /// fault killed it); `arg` is the shard index of the cancelled
    /// attempt.
    HedgeCancel,
    /// A cross-shard retry: the retried attempt was routed to a different
    /// shard than the one that failed; `arg` is the new shard index.
    ShardRetry,
    /// A proactor staged one SQE into its submission ring; `arg` is the
    /// operation code (1 = read, 2 = write — see
    /// `asyncinv_uring::SQ_OP_READ`/`SQ_OP_WRITE`).
    SqSubmit,
    /// A proactor flushed its submission ring: one modeled
    /// `io_uring_enter` kernel crossing; `arg` is the number of SQEs the
    /// batch carried. Ring-level (no connection).
    SqFlush,
    /// A proactor drained its completion ring in one reap pass; `arg` is
    /// the number of CQEs reaped. Ring-level (no connection).
    CqReap,
    /// A staging attempt found the submission ring full (SQ-full
    /// backpressure); `arg` is the ring depth that was hit.
    SqFull,
    /// The DAG layer dispatched a tier call across a service-graph edge
    /// (initial send, an edge retry's re-send, or a hedge duplicate);
    /// `conn` is the root request, `thread` is the destination tier node,
    /// `class` is the call-instance id and `arg` is the edge index.
    /// A one-tier graph has no edges and emits none.
    DagDispatch,
    /// An awaited edge reply joined at the calling tier: the caller
    /// accepted a child call's response. `thread` is the *calling* tier
    /// node, `class` is the winning call-instance id (hedge duplicates
    /// and retries are separate instances) and `arg` is the edge index.
    /// Fan-in completes when every awaited edge of the call has joined.
    DagJoin,
    /// An edge call timed out at the caller and was re-dispatched into
    /// the child subtree (budget permitting); `thread` is the calling
    /// tier node and `arg` is the attempt number being retired.
    DagEdgeRetry,
}

impl TraceKind {
    /// Number of kinds (for per-kind counter arrays).
    pub const COUNT: usize = 27;

    /// All kinds, in discriminant order.
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::RequestArrive,
        TraceKind::QueueEnter,
        TraceKind::QueueExit,
        TraceKind::ThreadDispatch,
        TraceKind::ThreadPark,
        TraceKind::WriteCall,
        TraceKind::WriteSpin,
        TraceKind::SendBufDrain,
        TraceKind::Completion,
        TraceKind::Mark,
        TraceKind::FaultInject,
        TraceKind::ClientTimeout,
        TraceKind::Retry,
        TraceKind::Abandon,
        TraceKind::Shed,
        TraceKind::Rejected,
        TraceKind::ShardRoute,
        TraceKind::Hedge,
        TraceKind::HedgeCancel,
        TraceKind::ShardRetry,
        TraceKind::SqSubmit,
        TraceKind::SqFlush,
        TraceKind::CqReap,
        TraceKind::SqFull,
        TraceKind::DagDispatch,
        TraceKind::DagJoin,
        TraceKind::DagEdgeRetry,
    ];

    /// Stable index for per-kind counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::RequestArrive => "request_arrive",
            TraceKind::QueueEnter => "queue_enter",
            TraceKind::QueueExit => "queue_exit",
            TraceKind::ThreadDispatch => "thread_dispatch",
            TraceKind::ThreadPark => "thread_park",
            TraceKind::WriteCall => "write_call",
            TraceKind::WriteSpin => "write_spin",
            TraceKind::SendBufDrain => "send_buf_drain",
            TraceKind::Completion => "completion",
            TraceKind::Mark => "mark",
            TraceKind::FaultInject => "fault_inject",
            TraceKind::ClientTimeout => "client_timeout",
            TraceKind::Retry => "retry",
            TraceKind::Abandon => "abandon",
            TraceKind::Shed => "shed",
            TraceKind::Rejected => "rejected",
            TraceKind::ShardRoute => "shard_route",
            TraceKind::Hedge => "hedge",
            TraceKind::HedgeCancel => "hedge_cancel",
            TraceKind::ShardRetry => "shard_retry",
            TraceKind::SqSubmit => "sq_submit",
            TraceKind::SqFlush => "sq_flush",
            TraceKind::CqReap => "cq_reap",
            TraceKind::SqFull => "sq_full",
            TraceKind::DagDispatch => "dag_dispatch",
            TraceKind::DagJoin => "dag_join",
            TraceKind::DagEdgeRetry => "dag_edge_retry",
        }
    }
}

/// Sentinel for "no connection" / "no thread" / "no class".
pub const NONE: u32 = u32::MAX;

/// One structured trace event. Compact and `Copy` so the ring buffer is a
/// flat allocation and recording is a couple of stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Connection id, or [`NONE`].
    pub conn: u32,
    /// Simulated thread id, or [`NONE`].
    pub thread: u32,
    /// Request class (workload-mix index), or [`NONE`].
    pub class: u32,
    /// Monotone request id (assigned per [`TraceKind::RequestArrive`] on
    /// the event's connection), or 0 before the first arrival.
    pub req: u64,
    /// Kind-specific payload; see [`TraceKind`].
    pub arg: u64,
}

impl TraceEvent {
    /// An event with every optional field unset (the recorder fills `req`).
    pub fn new(time: SimTime, kind: TraceKind) -> Self {
        TraceEvent {
            time,
            kind,
            conn: NONE,
            thread: NONE,
            class: NONE,
            req: 0,
            arg: 0,
        }
    }

    /// Sets the connection id.
    pub fn conn(mut self, conn: usize) -> Self {
        self.conn = conn as u32;
        self
    }

    /// Sets the thread id.
    pub fn thread(mut self, thread: usize) -> Self {
        self.thread = thread as u32;
        self
    }

    /// Sets the request class.
    pub fn class(mut self, class: usize) -> Self {
        self.class = class as u32;
        self
    }

    /// Sets the kind-specific payload.
    pub fn arg(mut self, arg: u64) -> Self {
        self.arg = arg;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_stable() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let mut names: Vec<_> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceKind::COUNT, "names must be unique");
    }

    #[test]
    fn builder_fills_fields() {
        let e = TraceEvent::new(SimTime::from_micros(3), TraceKind::QueueEnter)
            .conn(7)
            .thread(2)
            .class(1)
            .arg(9);
        assert_eq!(e.conn, 7);
        assert_eq!(e.thread, 2);
        assert_eq!(e.class, 1);
        assert_eq!(e.arg, 9);
        assert_eq!(e.req, 0);
    }
}
