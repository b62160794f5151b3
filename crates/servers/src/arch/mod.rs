//! The server architectures under study.
//!
//! Each architecture is an event-driven state machine implementing
//! [`ServerModel`]: the experiment engine feeds it request arrivals,
//! writable notifications and CPU-burst completions, and the model reacts by
//! scheduling bursts on its threads and writing response bytes to
//! connections. Context switches are *not* scripted anywhere — they emerge
//! in the CPU scheduler from the thread handoffs each architecture performs,
//! which is how the paper's Table II counts (4 / 2 / 0 / 0) are reproduced
//! rather than assumed.

mod async_pool;
mod netty;
mod proactor;
mod single_thread;
mod staged;
mod sync_thread;

pub(crate) use async_pool::AsyncPool;
pub(crate) use netty::NettyLike;
pub(crate) use proactor::Proactor;
pub(crate) use single_thread::SingleThread;
pub(crate) use staged::Staged;
pub(crate) use sync_thread::SyncThread;

use asyncinv_cpu::{Burst, ThreadId};
use asyncinv_tcp::ConnId;

use crate::engine::{Ctx, ExperimentConfig};
use crate::profile::ServiceProfile;

/// A server architecture: reacts to engine events by running bursts and
/// writing responses.
///
/// Implementations are driven entirely by a drive loop through
/// [`Ctx`](crate::Ctx) (the fleet crate's, whose one-shard case is
/// `Experiment`, or the RUBBoS engine's); the trait is public so downstream
/// users can plug in custom architectures (e.g. for ablations).
pub trait ServerModel {
    /// Display name used in result tables (matches the paper's names).
    fn name(&self) -> &'static str;

    /// Called once before any traffic; spawn every thread here (drive
    /// loops name threads in traces once, right after `init`). `conns`
    /// is the number of pre-opened client connections.
    fn init(&mut self, ctx: &mut Ctx<'_>, conns: usize);

    /// A complete request arrived on `conn` (socket readable).
    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId);

    /// ACKs freed send-buffer space on `conn` (socket writable).
    fn on_writable(&mut self, ctx: &mut Ctx<'_>, conn: ConnId);

    /// A previously submitted burst of `tid` completed; `tag` is the value
    /// given to [`Ctx::submit`].
    fn on_burst(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId, tag: u64);

    /// Architecture-internal counters for tests and ablation harnesses
    /// (e.g. the hybrid server's reclassification count).
    fn debug_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Submission/completion ring counters, summed over the model's rings.
    /// `None` for architectures without a proactor ring; the engine
    /// windows the returned snapshot into [`RunSummary`](asyncinv_metrics::RunSummary)'s
    /// `sq_*` fields.
    fn uring_stats(&self) -> Option<asyncinv_uring::UringCounters> {
        None
    }
}

/// The six architectures measured in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ServerKind {
    /// sTomcat-Sync: dedicated thread per connection, blocking I/O.
    SyncThread,
    /// sTomcat-Async: reactor + worker pool, read and write events handled
    /// by different workers (the 4-context-switch flow of the paper's
    /// Fig 3).
    AsyncPool,
    /// sTomcat-Async-Fix: reactor + worker pool with read and write merged
    /// into one worker (2 context switches).
    AsyncPoolFix,
    /// SingleT-Async: one thread runs the event loop and all handlers;
    /// writes spin unboundedly.
    SingleThread,
    /// NettyServer: connection-owning workers, pipeline overhead, bounded
    /// writeSpin with park/resume.
    NettyLike,
    /// HybridNetty: runtime profiling routes light requests down a
    /// SingleT-style fast path and heavy ones down the Netty path.
    Hybrid,
    /// Staged-SEDA: the SEDA/WatPipe pipeline of stages with per-stage
    /// thread pools (described but not benchmarked by the paper; included
    /// as an extension).
    Staged,
    /// Proactor: completion-based I/O over an io_uring-style
    /// submission/completion ring — batched kernel crossings, CQE-driven
    /// writes, zero write-spin (an extension beyond the paper).
    Proactor,
}

impl ServerKind {
    /// All eight kinds: the paper's six plus the staged and proactor
    /// extensions.
    pub const ALL: [ServerKind; 8] = [
        ServerKind::SyncThread,
        ServerKind::AsyncPool,
        ServerKind::AsyncPoolFix,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
        ServerKind::Hybrid,
        ServerKind::Staged,
        ServerKind::Proactor,
    ];

    /// The six architectures the paper itself measures.
    pub const PAPER: [ServerKind; 6] = [
        ServerKind::SyncThread,
        ServerKind::AsyncPool,
        ServerKind::AsyncPoolFix,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
        ServerKind::Hybrid,
    ];

    /// The paper's name for this architecture.
    pub fn paper_name(self) -> &'static str {
        match self {
            ServerKind::SyncThread => "sTomcat-Sync",
            ServerKind::AsyncPool => "sTomcat-Async",
            ServerKind::AsyncPoolFix => "sTomcat-Async-Fix",
            ServerKind::SingleThread => "SingleT-Async",
            ServerKind::NettyLike => "NettyServer",
            ServerKind::Hybrid => "HybridNetty",
            ServerKind::Staged => "Staged-SEDA",
            ServerKind::Proactor => "Proactor",
        }
    }

    /// Instantiates the architecture with the experiment's parameters.
    pub fn build(self, cfg: &ExperimentConfig) -> Box<dyn ServerModel> {
        match self {
            ServerKind::SyncThread => Box::new(SyncThread::new()),
            ServerKind::AsyncPool => {
                Box::new(AsyncPool::new(false, cfg.pool_workers, cfg.tomcat_real_nio))
            }
            ServerKind::AsyncPoolFix => {
                Box::new(AsyncPool::new(true, cfg.pool_workers, cfg.tomcat_real_nio))
            }
            ServerKind::SingleThread => Box::new(SingleThread::new()),
            ServerKind::NettyLike => Box::new(NettyLike::new(
                cfg.netty_workers,
                cfg.write_spin_limit,
                false,
            )),
            ServerKind::Hybrid => match cfg.hybrid_heavy {
                crate::engine::HybridPath::Netty => Box::new(NettyLike::new(
                    cfg.netty_workers,
                    cfg.write_spin_limit,
                    true,
                )),
                crate::engine::HybridPath::Proactor => {
                    Box::new(Proactor::new(cfg.netty_workers, cfg.uring.clone(), true))
                }
            },
            ServerKind::Staged => Box::new(Staged::new(cfg.staged_workers)),
            ServerKind::Proactor => {
                Box::new(Proactor::new(cfg.netty_workers, cfg.uring.clone(), false))
            }
        }
    }
}

impl std::fmt::Display for ServerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The two bursts of one iteration of an unbounded write-spin loop that
/// wrote `written` bytes: user-side bookkeeping plus the user copy, then
/// the `write()` syscall plus the kernel copy. The four unbounded spinners
/// (SingleT-Async, sTomcat-Async, sTomcat-Async-Fix, Staged-SEDA) charge
/// these, and hand the zero-byte pair to [`Ctx::spin_write`] so the
/// iterations it retires cost exactly what they would have run.
pub(crate) fn spin_bursts(p: &ServiceProfile, written: usize) -> [Burst; 2] {
    [
        Burst::user(p.write_prep + p.copy_user(written)),
        Burst::syscall(p.write_syscall + p.copy_sys(written)),
    ]
}

/// HybridNetty's runtime request profiling, shared by its two heavy paths
/// ([`NettyLike`] and [`Proactor`] in hybrid mode): a map from request
/// class to {light, heavy} learned from observed write behaviour, plus the
/// per-connection [`Ctx::shed_active`] bit sampled at admission.
///
/// Re-classification (a learned class flipping) freezes for requests
/// admitted while the load shedder was active: under overload every write
/// stalls, so acting on write behaviour flaps the whole map heavy and back
/// and the storm transient would poison the learned state for the
/// recovery period.
#[derive(Debug)]
pub(crate) struct Classifier {
    /// Learning is on (HybridNetty); otherwise every request is heavy.
    hybrid: bool,
    /// Per-connection shed bit sampled at admission.
    shed_admit: Vec<bool>,
    /// Request class → is-heavy; `None` means not yet profiled.
    classes: Vec<Option<bool>>,
    reclass_to_heavy: u64,
    reclass_to_light: u64,
    reclass_frozen: u64,
}

impl Classifier {
    pub(crate) fn new(hybrid: bool) -> Self {
        Classifier {
            hybrid,
            shed_admit: Vec::new(),
            classes: Vec::new(),
            reclass_to_heavy: 0,
            reclass_to_light: 0,
            reclass_frozen: 0,
        }
    }

    pub(crate) fn is_hybrid(&self) -> bool {
        self.hybrid
    }

    /// Sizes the per-connection state for `conns` connections.
    pub(crate) fn init(&mut self, conns: usize) {
        self.shed_admit = vec![false; conns];
    }

    /// Samples the shed state for the request arriving on `conn`.
    pub(crate) fn admit(&mut self, ctx: &Ctx<'_>, conn: ConnId) {
        self.shed_admit[conn.0] = ctx.shed_active();
    }

    /// `true` when `class` has been learned light (only ever on a hybrid
    /// model): the request takes the SingleT-style fast path.
    pub(crate) fn is_light(&self, class: usize) -> bool {
        self.classes.get(class).copied().flatten() == Some(false)
    }

    /// Records that the request on `conn`, of `class`, behaved `heavy`.
    pub(crate) fn learn(&mut self, conn: ConnId, class: usize, heavy: bool) {
        if !self.hybrid {
            return;
        }
        if self.classes.len() <= class {
            self.classes.resize(class + 1, None);
        }
        match self.classes[class] {
            Some(prev) if prev != heavy => {
                if self.shed_admit[conn.0] {
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

    /// The reclass counters, in [`ServerModel::debug_counters`] order.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 3] {
        [
            ("reclass_to_heavy", self.reclass_to_heavy),
            ("reclass_to_light", self.reclass_to_light),
            ("reclass_frozen", self.reclass_frozen),
        ]
    }
}

/// Packs (phase, connection index, worker index) into a burst tag.
pub(crate) fn tag(phase: u8, conn: usize, worker: u16) -> u64 {
    debug_assert!(conn < (1 << 40), "connection index too large for tag");
    phase as u64 | ((conn as u64) << 8) | ((worker as u64) << 48)
}

/// Reverses [`tag`].
pub(crate) fn untag(t: u64) -> (u8, usize, u16) {
    (
        (t & 0xFF) as u8,
        ((t >> 8) & 0xFF_FFFF_FFFF) as usize,
        (t >> 48) as u16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for (p, c, w) in [
            (0u8, 0usize, 0u16),
            (7, 123_456, 42),
            (255, (1 << 40) - 1, u16::MAX),
        ] {
            assert_eq!(untag(tag(p, c, w)), (p, c, w));
        }
    }

    #[test]
    fn paper_names() {
        assert_eq!(ServerKind::SyncThread.paper_name(), "sTomcat-Sync");
        assert_eq!(ServerKind::Hybrid.to_string(), "HybridNetty");
        assert_eq!(ServerKind::ALL.len(), 8);
        assert_eq!(ServerKind::PAPER.len(), 6);
        assert_eq!(ServerKind::Staged.paper_name(), "Staged-SEDA");
        assert_eq!(ServerKind::Proactor.paper_name(), "Proactor");
    }
}
