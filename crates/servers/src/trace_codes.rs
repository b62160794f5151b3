//! Symbolic codes carried in the `arg` field of structured trace events.
//!
//! [`QueueEnter`](asyncinv_obs::TraceKind::QueueEnter) /
//! [`QueueExit`](asyncinv_obs::TraceKind::QueueExit) events identify *what*
//! was queued with a `Q_*` item code; [`Mark`](asyncinv_obs::TraceKind::Mark)
//! events identify a control-flow point with a `MARK_*` code. Exporters show
//! the raw code; [`name`] maps one back to a label.
//!
//! The paper's Fig 3 request flow through sTomcat-Async reads directly off
//! these codes: step 1 is `QueueExit(Q_READ)` (reactor dispatches the read
//! event to a worker), step 2 `QueueEnter(Q_WRITE)` (worker posts the write
//! event), step 3 `QueueExit(Q_WRITE)` (reactor dispatches it to a second
//! worker), step 4 `QueueEnter(Q_DONE)` (that worker returns control).

/// A connection became readable (new request) — queued at a reactor/selector.
pub const Q_READ: u64 = 1;
/// A prepared response waiting for a write dispatch (Fig 3 step 2).
pub const Q_WRITE: u64 = 2;
/// A worker finished and returns control to the reactor (Fig 3 step 4).
pub const Q_DONE: u64 = 3;
/// Real-Tomcat NIO: read-interest re-registration via the poller queue.
pub const Q_REGISTER: u64 = 4;
/// A parked flush task resumed by a writability notification.
pub const Q_FLUSH: u64 = 5;
/// The engine's bounded accept queue in front of the architectures when
/// load shedding ([`crate::ShedConfig`]) is enabled.
pub const Q_ACCEPT: u64 = 6;
/// Staged-SEDA stage queues: item code is `Q_STAGE_BASE + stage`.
pub const Q_STAGE_BASE: u64 = 16;

/// Shed event code: an arrival above capacity was dropped.
pub const SHED_DROP_NEW: u64 = 1;
/// Shed event code: the oldest queued request was evicted for a newcomer.
pub const SHED_EVICT: u64 = 2;

/// Hybrid router sent this request down the SingleT-style fast path.
pub const MARK_PATH_FAST: u64 = 1;
/// Hybrid router sent this request down the Netty path.
pub const MARK_PATH_NETTY: u64 = 2;
/// Runtime profiling reclassified the request's class as heavy.
pub const MARK_RECLASS_HEAVY: u64 = 3;
/// Runtime profiling reclassified the request's class as light.
pub const MARK_RECLASS_LIGHT: u64 = 4;
/// writeSpinCount budget exhausted: connection parked awaiting EPOLLOUT.
pub const MARK_PARK_WRITABLE: u64 = 5;
/// writeSpinCount budget exhausted: flush task requeued behind the loop.
pub const MARK_SPIN_BUDGET: u64 = 6;
/// Request routed through the proactor's submission ring (completion-based
/// path: batched kernel crossings, CQE-driven write completion).
pub const MARK_PATH_URING: u64 = 7;

/// Human-readable label for a queue-item or mark code (queue codes and mark
/// codes share a namespace per [`TraceKind`](asyncinv_obs::TraceKind), so
/// pass `mark` accordingly).
pub fn name(code: u64, mark: bool) -> String {
    if mark {
        match code {
            MARK_PATH_FAST => "path-fast".into(),
            MARK_PATH_NETTY => "path-netty".into(),
            MARK_RECLASS_HEAVY => "reclass-heavy".into(),
            MARK_RECLASS_LIGHT => "reclass-light".into(),
            MARK_PARK_WRITABLE => "park-writable".into(),
            MARK_SPIN_BUDGET => "spin-budget".into(),
            MARK_PATH_URING => "path-uring".into(),
            other => format!("mark-{other}"),
        }
    } else {
        match code {
            Q_READ => "read".into(),
            Q_WRITE => "write".into(),
            Q_DONE => "done".into(),
            Q_REGISTER => "register-read".into(),
            Q_FLUSH => "flush".into(),
            Q_ACCEPT => "accept".into(),
            c if c >= Q_STAGE_BASE => format!("stage-{}", c - Q_STAGE_BASE),
            other => format!("item-{other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let queue: Vec<String> = [
            Q_READ,
            Q_WRITE,
            Q_DONE,
            Q_REGISTER,
            Q_FLUSH,
            Q_ACCEPT,
            Q_STAGE_BASE + 2,
        ]
        .iter()
        .map(|&c| name(c, false))
        .collect();
        let marks: Vec<String> = (1..=7).map(|c| name(c, true)).collect();
        for set in [&queue, &marks] {
            let mut sorted = set.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), set.len(), "duplicate label in {set:?}");
        }
        assert_eq!(name(Q_STAGE_BASE + 2, false), "stage-2");
    }
}
