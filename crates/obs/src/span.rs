//! Causal span trees: folding the flat [`TraceEvent`] stream into one
//! tree per **logical request**, with child spans per attempt (primary,
//! retries across shards, hedges) and a bitwise-conserved critical-path
//! phase decomposition (see [`crate::critical_path`]).
//!
//! The assembler is stream-driven and deterministic: events are pushed in
//! trace order, grouped per connection, and a tree is finalized at each
//! [`Completion`](TraceKind::Completion) or
//! [`Abandon`](TraceKind::Abandon). For a completed request the span
//! window is recovered exactly from the completion record itself
//! (`t0 = tC − rt`; `rt` is measured from the *first* client send, even
//! across retries), so no extra instrumentation is needed in the engines.
//!
//! Hedge resolution is the one place causality runs backwards: the fleet
//! emits `Completion` first and then a same-instant
//! [`HedgeCancel`](TraceKind::HedgeCancel) for the losing side. The
//! assembler therefore keeps a just-closed tree open for exactly that
//! trailing cancel: if the cancelled shard is the primary's, the hedge
//! won (the primary attributes to cancellation, never completion — and
//! the winning hedge's wait is overlaid as
//! [`Phase::HedgeWait`](crate::critical_path::Phase)); otherwise the
//! hedge lost and is the cancelled attempt.

use std::fmt;

use asyncinv_simcore::SimTime;

use crate::critical_path::{classify, relabel, Phase, PhaseBreakdown, PhaseSegment, Step};
use crate::event::{TraceEvent, TraceKind, NONE};
use crate::observer::Recorder;

/// How a logical request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// A response fully reached the client (goodput).
    Completed,
    /// The client gave up (retries/budget exhausted or an abandonment
    /// fault). No recorded response time exists; the span covers the
    /// observed event window instead.
    Abandoned,
}

impl SpanStatus {
    /// Stable lowercase name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanStatus::Completed => "completed",
            SpanStatus::Abandoned => "abandoned",
        }
    }
}

/// Whether an attempt was the primary chain or a hedged duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The client's main send/retry chain.
    Primary,
    /// A hedged duplicate fired at a second shard.
    Hedge,
}

impl AttemptKind {
    /// Stable lowercase name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            AttemptKind::Primary => "primary",
            AttemptKind::Hedge => "hedge",
        }
    }
}

/// How one attempt ended. Hedge losers are [`AttemptOutcome::Cancelled`]
/// — never [`AttemptOutcome::Completed`]; `span_audit` enforces exactly
/// one completed attempt per completed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Still open (only ever observed mid-assembly; `span_audit` counts
    /// any survivor as a failure).
    Open,
    /// This attempt's response won the race and reached the client.
    Completed,
    /// The other side of a hedged pair won (or a fault killed this side).
    Cancelled,
    /// The client's per-attempt timeout fired.
    TimedOut,
    /// The server rejected the attempt (reject-fast error response).
    Rejected,
    /// The client gave up while this attempt was outstanding.
    Abandoned,
}

impl AttemptOutcome {
    /// Stable lowercase name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            AttemptOutcome::Open => "open",
            AttemptOutcome::Completed => "completed",
            AttemptOutcome::Cancelled => "cancelled",
            AttemptOutcome::TimedOut => "timed_out",
            AttemptOutcome::Rejected => "rejected",
            AttemptOutcome::Abandoned => "abandoned",
        }
    }
}

/// One attempt child span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptSpan {
    /// Primary chain or hedged duplicate.
    pub kind: AttemptKind,
    /// Position in the chain (primary: 0, 1, ... per retry; hedges are
    /// numbered after the primaries that existed when they fired).
    pub index: u32,
    /// Target shard, when known. Single-shard runs emit no routing
    /// events; a *winning* hedge's shard is also unknowable from the
    /// trace (only losers are named by their cancel).
    pub shard: Option<u32>,
    /// Attempt start (primary 0: the original send; retries: resend after
    /// backoff; hedges: the hedge fire instant).
    pub start: SimTime,
    /// Attempt end (verdict, cancellation, completion or abandonment).
    pub end: SimTime,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// One logical request: the root span with its attempt children, phase
/// segments and the per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// Connection id.
    pub conn: u32,
    /// Request class (workload-mix index), or [`NONE`].
    pub class: u32,
    /// Monotone request id of the closing event (the *last* arrival's id
    /// when retries re-arrived).
    pub req: u64,
    /// Span start: the original client send.
    pub start: SimTime,
    /// Span end: completion (or abandonment) instant.
    pub end: SimTime,
    /// End-to-end response time in nanoseconds. For completed requests
    /// this is the recorded `Completion` arg, bitwise; for abandoned ones
    /// it is the observed window `end − start`.
    pub rt_ns: u64,
    /// How the request ended.
    pub status: SpanStatus,
    /// Attempt child spans, in open order.
    pub attempts: Vec<AttemptSpan>,
    /// Telescoping phase segments covering `[start, end)` exactly.
    pub segments: Vec<PhaseSegment>,
    /// Per-phase totals; `phases.total() == rt_ns` bitwise.
    pub phases: PhaseBreakdown,
}

impl RequestSpan {
    /// The winning attempt (outcome [`AttemptOutcome::Completed`]), if
    /// any.
    pub fn winner(&self) -> Option<&AttemptSpan> {
        self.attempts
            .iter()
            .find(|a| a.outcome == AttemptOutcome::Completed)
    }
}

/// Events left unresolved when the trace ended (mid-flight requests) plus
/// any stale bookkeeping events discarded between spans. Kept so
/// `span_audit` can reconcile forest contents against the recorder's
/// exact per-kind totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeftoverCounts {
    /// Connections whose buffers still held events at end of trace.
    pub open_conns: u64,
    /// `Retry` events not inside any finalized tree.
    pub retries: u64,
    /// `Hedge` events not inside any finalized tree.
    pub hedges: u64,
    /// `HedgeCancel` events not inside any finalized tree.
    pub hedge_cancels: u64,
}

/// The assembled output: every finalized tree plus completeness metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanForest {
    /// Finalized request trees, in close order.
    pub trees: Vec<RequestSpan>,
    /// `true` when the source ring retained every offered event
    /// (no sampling, no capacity eviction) — the precondition for the
    /// audit's exact reconciliations.
    pub complete: bool,
    /// Unresolved / between-span event counts.
    pub leftover: LeftoverCounts,
}

impl SpanForest {
    /// Completed trees.
    pub fn completed(&self) -> impl Iterator<Item = &RequestSpan> {
        self.trees
            .iter()
            .filter(|t| t.status == SpanStatus::Completed)
    }

    /// Abandoned trees.
    pub fn abandoned(&self) -> impl Iterator<Item = &RequestSpan> {
        self.trees
            .iter()
            .filter(|t| t.status == SpanStatus::Abandoned)
    }

    /// Aggregate phase breakdown over all completed trees.
    pub fn aggregate_completed(&self) -> PhaseBreakdown {
        let mut agg = PhaseBreakdown::new();
        for t in self.completed() {
            agg.accumulate(&t.phases);
        }
        agg
    }
}

/// Pending hedge resolution for a just-closed tree: the completion came
/// first; the same-instant trailing `HedgeCancel` names the loser.
#[derive(Debug, Clone, Copy)]
struct PendingHedge {
    primary: usize,
    hedge: usize,
    /// `(fire_time, waited_ns)` of the open hedge, for the hedge-wait
    /// overlay if it turns out to have won.
    fire: (SimTime, u64),
}

#[derive(Debug, Clone, Copy)]
struct JustClosed {
    tree: usize,
    end: SimTime,
    pending: Option<PendingHedge>,
}

/// Per-connection assembly state.
#[derive(Debug, Default)]
struct ConnBuf {
    events: Vec<TraceEvent>,
    just_closed: Option<JustClosed>,
}

/// Streaming assembler: push events in trace order, then
/// [`finish`](SpanAssembler::finish).
#[derive(Debug, Default)]
pub struct SpanAssembler {
    conns: Vec<ConnBuf>,
    trees: Vec<RequestSpan>,
    stray_retries: u64,
    stray_hedges: u64,
    stray_cancels: u64,
}

impl SpanAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        SpanAssembler::default()
    }

    /// Assembles the full forest from a recorder's ring in one call.
    pub fn assemble(rec: &Recorder) -> SpanForest {
        let mut asm = SpanAssembler::new();
        for ev in rec.ring().iter() {
            asm.push(*ev);
        }
        let complete = rec.ring().dropped() == 0 && rec.ring().sample_every() <= 1;
        asm.finish(complete)
    }

    /// Feeds one event. Events must arrive in non-decreasing time order
    /// (the ring preserves record order).
    pub fn push(&mut self, ev: TraceEvent) {
        if ev.conn == NONE {
            // Scheduler / substrate events are not request-scoped.
            return;
        }
        let c = ev.conn as usize;
        if c >= self.conns.len() {
            self.conns.resize_with(c + 1, ConnBuf::default);
        }
        if let Some(jc) = self.conns[c].just_closed {
            if ev.kind == TraceKind::HedgeCancel && ev.time == jc.end {
                self.conns[c].just_closed = None;
                self.resolve_trailing_cancel(jc, ev.arg);
                return;
            }
            self.conns[c].just_closed = None;
        }
        // Annotation-only kinds (classify: Keep) with no attempt-chain
        // bookkeeping are no-ops for tree building — don't buffer them.
        // (A quarter of a typical fleet stream; see `kernel_bench`'s
        // fleet-observability span-assembly row.)
        if matches!(
            ev.kind,
            TraceKind::Mark
                | TraceKind::SendBufDrain
                | TraceKind::ThreadPark
                | TraceKind::ThreadDispatch
                | TraceKind::FaultInject
                | TraceKind::SqFull
                | TraceKind::DagDispatch
                | TraceKind::DagJoin
                | TraceKind::DagEdgeRetry
        ) {
            return;
        }
        self.conns[c].events.push(ev);
        match ev.kind {
            TraceKind::Completion => self.close(c, ev, SpanStatus::Completed),
            TraceKind::Abandon => self.close(c, ev, SpanStatus::Abandoned),
            _ => {}
        }
    }

    /// Finalizes the forest. `complete` is whether the source ring
    /// retained every offered event.
    pub fn finish(mut self, complete: bool) -> SpanForest {
        let mut leftover = LeftoverCounts {
            retries: self.stray_retries,
            hedges: self.stray_hedges,
            hedge_cancels: self.stray_cancels,
            ..LeftoverCounts::default()
        };
        for buf in &self.conns {
            if buf.events.is_empty() {
                continue;
            }
            leftover.open_conns += 1;
            for ev in &buf.events {
                match ev.kind {
                    TraceKind::Retry => leftover.retries += 1,
                    TraceKind::Hedge => leftover.hedges += 1,
                    TraceKind::HedgeCancel => leftover.hedge_cancels += 1,
                    _ => {}
                }
            }
        }
        // A tree still awaiting its trailing cancel at end-of-trace keeps
        // the defensive default applied at close (hedge cancelled,
        // primary completed), which is already in place.
        SpanForest {
            trees: std::mem::take(&mut self.trees),
            complete,
            leftover,
        }
    }

    /// The trailing same-instant `HedgeCancel` after a completion names
    /// the losing side of the hedged pair.
    fn resolve_trailing_cancel(&mut self, jc: JustClosed, cancelled_shard: u64) {
        let Some(p) = jc.pending else {
            // Cancel after a tree that had no open hedge: bookkeeping we
            // cannot attribute. Counted so reconciliation stays exact.
            self.stray_cancels += 1;
            return;
        };
        let tree = &mut self.trees[jc.tree];
        let primary_shard = tree.attempts[p.primary].shard;
        let hedge_won = primary_shard.is_some_and(|s| u64::from(s) == cancelled_shard);
        if hedge_won {
            // The primary was cancelled: it attributes to cancellation,
            // the hedge completed. The hedge's pre-fire wait was pure
            // added latency — overlay it as HedgeWait.
            tree.attempts[p.primary].outcome = AttemptOutcome::Cancelled;
            tree.attempts[p.hedge].outcome = AttemptOutcome::Completed;
            let (fire, waited) = p.fire;
            let from = SimTime::from_nanos(fire.as_nanos().saturating_sub(waited)).max(tree.start);
            relabel(
                &mut tree.segments,
                from,
                fire.min(tree.end),
                Phase::HedgeWait,
            );
            tree.phases = PhaseBreakdown::from_segments(&tree.segments);
        } else {
            tree.attempts[p.hedge].outcome = AttemptOutcome::Cancelled;
            tree.attempts[p.hedge].shard = Some(cancelled_shard as u32);
            tree.attempts[p.primary].outcome = AttemptOutcome::Completed;
        }
    }

    /// Finalizes one tree from the connection's buffered events.
    fn close(&mut self, c: usize, closing: TraceEvent, status: SpanStatus) {
        let end = closing.time;
        let buf = &self.conns[c].events;
        let t0 = match status {
            SpanStatus::Completed => {
                SimTime::from_nanos(end.as_nanos().saturating_sub(closing.arg))
            }
            // No recorded rt: cover the observed window.
            SpanStatus::Abandoned => buf.first().map_or(end, |e| e.time),
        };
        // Events before t0 are stale drain from the previous request on
        // this connection (e.g. a cancelled hedge shard finishing up);
        // they belong to no span. The buffer is time-ordered, so they
        // form a prefix: count the reconciled kinds and skip past.
        let split = buf.iter().position(|e| e.time >= t0).unwrap_or(buf.len());
        for ev in &buf[..split] {
            match ev.kind {
                TraceKind::Retry => self.stray_retries += 1,
                TraceKind::Hedge => self.stray_hedges += 1,
                TraceKind::HedgeCancel => self.stray_cancels += 1,
                _ => {}
            }
        }
        let (tree, pending, strays) = build_tree(
            c as u32,
            closing,
            status,
            t0,
            end,
            &self.conns[c].events[split..],
        );
        self.stray_cancels += strays;
        // Keep the buffer's capacity for the connection's next request.
        self.conns[c].events.clear();
        let idx = self.trees.len();
        self.trees.push(tree);
        self.conns[c].just_closed = Some(JustClosed {
            tree: idx,
            end,
            pending,
        });
    }
}

/// Builds one [`RequestSpan`] from its in-window events. Returns the
/// pending hedge resolution when a hedge was still open at completion
/// (the trailing cancel decides the winner) and the count of stray
/// cancels (a `HedgeCancel` with no open hedge) for reconciliation.
fn build_tree(
    conn: u32,
    closing: TraceEvent,
    status: SpanStatus,
    t0: SimTime,
    end: SimTime,
    window: &[TraceEvent],
) -> (RequestSpan, Option<PendingHedge>, u64) {
    // --- Phase state machine over telescoping segments of [t0, end). ---
    let mut segments: Vec<PhaseSegment> = Vec::with_capacity(8);
    let mut state = Phase::Network;
    let mut seg_start = t0;
    // After a Retry the resend hits the wire at retry_time + backoff: a
    // synthetic boundary with no trace event of its own.
    let mut backoff_until: Option<SimTime> = None;
    let push_seg = |segments: &mut Vec<PhaseSegment>, start: SimTime, to: SimTime, ph: Phase| {
        if to > start {
            segments.push(PhaseSegment {
                start,
                end: to,
                phase: ph,
            });
        }
    };

    // --- Attempt chain state. ---
    let mut attempts: Vec<AttemptSpan> = vec![AttemptSpan {
        kind: AttemptKind::Primary,
        index: 0,
        shard: None,
        start: t0,
        end,
        outcome: AttemptOutcome::Open,
    }];
    let mut cur_primary = 0usize;
    let mut open_hedge: Option<usize> = None;
    let mut hedge_fire: (SimTime, u64) = (t0, 0);
    let mut stray_cancels = 0u64;
    // The most recent failure signal on the current primary attempt,
    // consumed by the next Retry to label the closed attempt's outcome.
    let mut failure: Option<AttemptOutcome> = None;

    for ev in window {
        // Flush a pending backoff boundary that elapsed before this event.
        if let Some(b) = backoff_until {
            if ev.time >= b {
                push_seg(&mut segments, seg_start, b, state);
                state = Phase::Network;
                seg_start = seg_start.max(b);
                backoff_until = None;
            }
        }
        match classify(ev.kind, ev.arg) {
            Step::Enter(p) => {
                if p != state {
                    push_seg(&mut segments, seg_start, ev.time, state);
                    state = p;
                    seg_start = seg_start.max(ev.time);
                }
            }
            Step::Keep => {}
            Step::Backoff => {
                push_seg(&mut segments, seg_start, ev.time, state);
                state = Phase::RetryBackoff;
                seg_start = seg_start.max(ev.time);
                backoff_until = Some(
                    ev.time
                        .saturating_add(asyncinv_simcore::SimDuration::from_nanos(ev.arg)),
                );
            }
            Step::Close => {
                // Completion/Abandon is the window's last event; the tail
                // segment is flushed after the loop.
            }
        }
        // Attempt-chain bookkeeping.
        match ev.kind {
            TraceKind::ShardRoute if attempts[cur_primary].shard.is_none() => {
                attempts[cur_primary].shard = Some(ev.arg as u32);
            }
            TraceKind::ClientTimeout => failure = Some(AttemptOutcome::TimedOut),
            TraceKind::Rejected => failure = Some(AttemptOutcome::Rejected),
            TraceKind::Retry => {
                let prev_shard = attempts[cur_primary].shard;
                let prev_index = attempts[cur_primary].index;
                attempts[cur_primary].end = ev.time;
                attempts[cur_primary].outcome = failure.take().unwrap_or(AttemptOutcome::Rejected);
                let resend = ev
                    .time
                    .saturating_add(asyncinv_simcore::SimDuration::from_nanos(ev.arg))
                    .min(end);
                cur_primary = attempts.len();
                attempts.push(AttemptSpan {
                    kind: AttemptKind::Primary,
                    index: prev_index + 1,
                    shard: prev_shard,
                    start: resend,
                    end,
                    outcome: AttemptOutcome::Open,
                });
            }
            TraceKind::ShardRetry => {
                attempts[cur_primary].shard = Some(ev.arg as u32);
            }
            TraceKind::Hedge => {
                if let Some(h) = open_hedge {
                    // A second hedge while one is open: close the first
                    // defensively (the fleet never does this).
                    attempts[h].end = ev.time;
                    attempts[h].outcome = AttemptOutcome::Cancelled;
                }
                hedge_fire = (ev.time, ev.arg);
                open_hedge = Some(attempts.len());
                attempts.push(AttemptSpan {
                    kind: AttemptKind::Hedge,
                    index: attempts.len() as u32,
                    shard: None,
                    start: ev.time,
                    end,
                    outcome: AttemptOutcome::Open,
                });
            }
            TraceKind::HedgeCancel => {
                if let Some(h) = open_hedge.take() {
                    attempts[h].end = ev.time;
                    attempts[h].outcome = AttemptOutcome::Cancelled;
                    attempts[h].shard = Some(ev.arg as u32);
                } else {
                    stray_cancels += 1;
                }
            }
            _ => {}
        }
    }
    // Tail: honor a backoff boundary that elapsed before the close, then
    // flush the final segment up to `end`.
    if let Some(b) = backoff_until {
        if b < end {
            push_seg(&mut segments, seg_start, b, state);
            state = Phase::Network;
            seg_start = seg_start.max(b);
        }
    }
    push_seg(&mut segments, seg_start, end, state);

    // Close attempts still open at the end of the window.
    let mut pending = None;
    match status {
        SpanStatus::Completed => {
            if let Some(h) = open_hedge {
                // Winner unknown until the trailing cancel; default to
                // "primary won" so an absent cancel still yields a
                // closed, audited tree.
                attempts[cur_primary].end = end;
                attempts[cur_primary].outcome = AttemptOutcome::Completed;
                attempts[h].end = end;
                attempts[h].outcome = AttemptOutcome::Cancelled;
                pending = Some(PendingHedge {
                    primary: cur_primary,
                    hedge: h,
                    fire: hedge_fire,
                });
            } else {
                attempts[cur_primary].end = end;
                attempts[cur_primary].outcome = AttemptOutcome::Completed;
            }
        }
        SpanStatus::Abandoned => {
            for a in attempts.iter_mut() {
                if a.outcome == AttemptOutcome::Open {
                    a.end = end;
                    a.outcome = AttemptOutcome::Abandoned;
                }
            }
        }
    }

    let rt_ns = match status {
        SpanStatus::Completed => closing.arg,
        SpanStatus::Abandoned => end.as_nanos() - t0.as_nanos(),
    };
    let phases = PhaseBreakdown::from_segments(&segments);
    (
        RequestSpan {
            conn,
            class: closing.class,
            req: closing.req,
            start: t0,
            end,
            rt_ns,
            status,
            attempts,
            segments,
            phases,
        },
        pending,
        stray_cancels,
    )
}

/// One exact span-audit reconciliation: `expected == actual`, integers.
#[derive(Debug, Clone)]
pub struct SpanCheck {
    /// What is being reconciled.
    pub name: String,
    /// The value recomputed from the recorder's exact counters (or the
    /// forest-wide invariant target).
    pub expected: u64,
    /// The value observed in the assembled forest.
    pub actual: u64,
}

impl SpanCheck {
    /// Exact integer equality.
    pub fn pass(&self) -> bool {
        self.expected == self.actual
    }
}

/// The outcome of [`span_audit`] for one run.
#[derive(Debug, Clone)]
pub struct SpanAuditReport {
    /// Label of the audited run (server/balancer/driver).
    pub label: String,
    /// Every reconciliation performed.
    pub checks: Vec<SpanCheck>,
}

impl SpanAuditReport {
    /// `true` when every check reconciles exactly.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(SpanCheck::pass)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&SpanCheck> {
        self.checks.iter().filter(|c| !c.pass()).collect()
    }
}

impl fmt::Display for SpanAuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "span audit [{}]: {}",
            self.label,
            if self.pass() { "PASS" } else { "FAIL" }
        )?;
        for c in &self.checks {
            writeln!(
                f,
                "  {} {:<44} expected={} actual={}",
                if c.pass() { "ok " } else { "FAIL" },
                c.name,
                c.expected,
                c.actual
            )?;
        }
        Ok(())
    }
}

/// Audits an assembled forest against the recorder's exact per-kind
/// totals: every completed request yields exactly one tree, every tree's
/// phase durations sum to its recorded response time bitwise, hedge
/// losers attribute to cancellation (never completion), and every
/// retry/hedge/cancel event is accounted for inside a tree or in the
/// explicit leftovers.
pub fn span_audit(label: &str, rec: &Recorder, forest: &SpanForest) -> SpanAuditReport {
    let mut checks = Vec::new();
    let mut check = |name: &str, expected: u64, actual: u64| {
        checks.push(SpanCheck {
            name: name.to_string(),
            expected,
            actual,
        });
    };

    let completed: Vec<&RequestSpan> = forest.completed().collect();
    let n_completed = completed.len() as u64;
    let n_abandoned = forest.abandoned().count() as u64;

    check("ring_retained_every_event", 1, u64::from(forest.complete));
    check(
        "completed_trees == completions",
        rec.total(TraceKind::Completion),
        n_completed,
    );
    check(
        "abandoned_trees == abandons",
        rec.total(TraceKind::Abandon),
        n_abandoned,
    );
    check(
        "phase_sums == rt bitwise (all trees)",
        forest.trees.len() as u64,
        forest
            .trees
            .iter()
            .filter(|t| t.phases.total() == t.rt_ns)
            .count() as u64,
    );
    check(
        "span_extent == start + rt (all trees)",
        forest.trees.len() as u64,
        forest
            .trees
            .iter()
            .filter(|t| t.start.as_nanos() + t.rt_ns == t.end.as_nanos())
            .count() as u64,
    );
    check(
        "one_winner_per_completed_tree",
        n_completed,
        completed
            .iter()
            .filter(|t| {
                t.attempts
                    .iter()
                    .filter(|a| a.outcome == AttemptOutcome::Completed)
                    .count()
                    == 1
                    && t.winner().is_some_and(|w| w.end == t.end)
            })
            .count() as u64,
    );
    check(
        "no_open_attempts",
        0,
        forest
            .trees
            .iter()
            .flat_map(|t| t.attempts.iter())
            .filter(|a| a.outcome == AttemptOutcome::Open)
            .count() as u64,
    );
    let in_tree = |kind: AttemptKind| -> u64 {
        forest
            .trees
            .iter()
            .flat_map(|t| t.attempts.iter())
            .filter(|a| a.kind == kind)
            .count() as u64
    };
    let primary_attempts = in_tree(AttemptKind::Primary);
    check(
        "retries reconciled (extra primaries + leftover)",
        rec.total(TraceKind::Retry),
        (primary_attempts - forest.trees.len() as u64) + forest.leftover.retries,
    );
    check(
        "hedges reconciled (hedge attempts + leftover)",
        rec.total(TraceKind::Hedge),
        in_tree(AttemptKind::Hedge) + forest.leftover.hedges,
    );
    check(
        "cancels reconciled (cancelled attempts + leftover)",
        rec.total(TraceKind::HedgeCancel),
        forest
            .trees
            .iter()
            .flat_map(|t| t.attempts.iter())
            .filter(|a| a.outcome == AttemptOutcome::Cancelled)
            .count() as u64
            + forest.leftover.hedge_cancels,
    );
    // Per-class cross-check against the recorder's response-time
    // histograms (fed from every Completion with a class).
    let mut classes: Vec<u32> = completed
        .iter()
        .filter(|t| t.class != NONE)
        .map(|t| t.class)
        .collect();
    classes.sort_unstable();
    classes.dedup();
    for cl in classes {
        let hist_count = rec
            .registry()
            .hist(&format!("rt_ns_class_{cl}"))
            .map_or(0, |h| h.count());
        check(
            &format!("class_{cl}_trees == rt hist count"),
            hist_count,
            completed.iter().filter(|t| t.class == cl).count() as u64,
        );
    }

    SpanAuditReport {
        label: label.to_string(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind, conn: usize, arg: u64) -> TraceEvent {
        TraceEvent::new(SimTime::from_nanos(t), kind)
            .conn(conn)
            .arg(arg)
    }

    #[test]
    fn simple_request_yields_one_conserved_tree() {
        let mut asm = SpanAssembler::new();
        // send at t=0 (untraced), arrive at 100, queue 100..150,
        // service 150..300, write 300..380, complete at 400 with rt=400.
        asm.push(ev(100, TraceKind::RequestArrive, 3, 0));
        asm.push(ev(100, TraceKind::QueueEnter, 3, 1));
        asm.push(ev(150, TraceKind::QueueExit, 3, 1));
        asm.push(ev(300, TraceKind::WriteCall, 3, 64));
        asm.push(ev(400, TraceKind::Completion, 3, 400));
        let forest = asm.finish(true);
        assert_eq!(forest.trees.len(), 1);
        let t = &forest.trees[0];
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.rt_ns, 400);
        assert_eq!(t.phases.total(), 400);
        assert_eq!(t.phases.get(Phase::Network), 100); // inbound one-way
        assert_eq!(t.phases.get(Phase::QueueWait), 50);
        assert_eq!(t.phases.get(Phase::CpuService), 150);
        assert_eq!(t.phases.get(Phase::WriteDeliver), 100);
        assert_eq!(t.attempts.len(), 1);
        assert_eq!(t.attempts[0].outcome, AttemptOutcome::Completed);
    }

    #[test]
    fn retry_chain_attributes_backoff_and_two_attempts() {
        let mut asm = SpanAssembler::new();
        asm.push(ev(100, TraceKind::RequestArrive, 0, 0));
        asm.push(ev(500, TraceKind::ClientTimeout, 0, 0));
        asm.push(ev(500, TraceKind::Retry, 0, 200)); // resend at 700
        asm.push(ev(800, TraceKind::RequestArrive, 0, 0));
        asm.push(ev(1000, TraceKind::Completion, 0, 1000));
        let forest = asm.finish(true);
        assert_eq!(forest.trees.len(), 1);
        let t = &forest.trees[0];
        assert_eq!(t.phases.total(), 1000);
        assert_eq!(t.phases.get(Phase::RetryBackoff), 200);
        assert_eq!(t.phases.get(Phase::DeadWait), 0); // timeout and retry same instant
        assert_eq!(t.attempts.len(), 2);
        assert_eq!(t.attempts[0].outcome, AttemptOutcome::TimedOut);
        assert_eq!(t.attempts[0].end, SimTime::from_nanos(500));
        assert_eq!(t.attempts[1].start, SimTime::from_nanos(700));
        assert_eq!(t.attempts[1].outcome, AttemptOutcome::Completed);
    }

    #[test]
    fn hedge_winner_resolved_by_trailing_cancel() {
        let mut asm = SpanAssembler::new();
        asm.push(ev(0, TraceKind::ShardRoute, 1, 2)); // primary → shard 2
        asm.push(ev(50, TraceKind::RequestArrive, 1, 0));
        asm.push(ev(300, TraceKind::Hedge, 1, 300)); // waited 300 before firing
        asm.push(ev(600, TraceKind::Completion, 1, 600));
        asm.push(ev(600, TraceKind::HedgeCancel, 1, 2)); // shard 2 = primary → hedge won
        let forest = asm.finish(true);
        assert_eq!(forest.trees.len(), 1);
        let t = &forest.trees[0];
        let outcomes: Vec<_> = t.attempts.iter().map(|a| (a.kind, a.outcome)).collect();
        assert_eq!(
            outcomes,
            [
                (AttemptKind::Primary, AttemptOutcome::Cancelled),
                (AttemptKind::Hedge, AttemptOutcome::Completed),
            ]
        );
        assert_eq!(t.phases.get(Phase::HedgeWait), 300);
        assert_eq!(t.phases.total(), 600);
    }

    #[test]
    fn hedge_loser_is_cancelled_not_completed() {
        let mut asm = SpanAssembler::new();
        asm.push(ev(0, TraceKind::ShardRoute, 1, 0)); // primary → shard 0
        asm.push(ev(50, TraceKind::RequestArrive, 1, 0));
        asm.push(ev(300, TraceKind::Hedge, 1, 300));
        asm.push(ev(600, TraceKind::Completion, 1, 600));
        asm.push(ev(600, TraceKind::HedgeCancel, 1, 4)); // shard 4 ≠ primary → hedge lost
        let forest = asm.finish(true);
        let t = &forest.trees[0];
        assert_eq!(t.attempts[0].outcome, AttemptOutcome::Completed);
        assert_eq!(t.attempts[1].outcome, AttemptOutcome::Cancelled);
        assert_eq!(t.attempts[1].shard, Some(4));
        // No overlay when the primary wins.
        assert_eq!(t.phases.get(Phase::HedgeWait), 0);
    }

    #[test]
    fn abandoned_request_closes_all_attempts() {
        let mut asm = SpanAssembler::new();
        asm.push(ev(100, TraceKind::RequestArrive, 0, 0));
        asm.push(ev(400, TraceKind::ClientTimeout, 0, 0));
        asm.push(ev(400, TraceKind::Abandon, 0, 1));
        let forest = asm.finish(true);
        let t = &forest.trees[0];
        assert_eq!(t.status, SpanStatus::Abandoned);
        assert_eq!(t.rt_ns, 300);
        assert_eq!(t.phases.total(), 300);
        assert_eq!(t.attempts[0].outcome, AttemptOutcome::Abandoned);
    }

    #[test]
    fn stale_pre_window_events_are_discarded() {
        let mut asm = SpanAssembler::new();
        asm.push(ev(100, TraceKind::RequestArrive, 0, 0));
        asm.push(ev(200, TraceKind::Completion, 0, 200));
        // Stale drain from the finished request lands before the next
        // request's send (t0 = 500).
        asm.push(ev(300, TraceKind::WriteCall, 0, 8));
        asm.push(ev(600, TraceKind::RequestArrive, 0, 0));
        asm.push(ev(900, TraceKind::Completion, 0, 400));
        let forest = asm.finish(true);
        assert_eq!(forest.trees.len(), 2);
        let t = &forest.trees[1];
        assert_eq!(t.start, SimTime::from_nanos(500));
        assert_eq!(t.phases.total(), 400);
    }
}
