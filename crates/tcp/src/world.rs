//! A collection of connections with event routing and global accounting.

use asyncinv_simcore::SimTime;

use crate::config::TcpConfig;
use crate::conn::{ConnEvent, ConnStats, Connection};

/// Identifies a connection within a [`TcpWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub usize);

/// A timestamped network event addressed to a connection. The experiment
/// driver schedules these on its simulation queue and feeds them back via
/// [`TcpWorld::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpEvent {
    /// The connection the event belongs to.
    pub conn: ConnId,
    pub(crate) kind: ConnEvent,
}

/// What an event meant, translated for the server/client models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpNotice {
    /// An ACK freed send-buffer space; `space` is the free room afterwards.
    /// Servers treat `space > 0` on a connection with a parked writer as a
    /// writable-readiness notification (epoll `EPOLLOUT`).
    SpaceFreed {
        /// Connection concerned.
        conn: ConnId,
        /// Free buffer space after processing the ACK.
        space: usize,
    },
    /// `bytes` of response payload reached the client.
    Delivered {
        /// Connection concerned.
        conn: ConnId,
        /// Payload size that arrived.
        bytes: usize,
    },
}

/// Aggregate counters across all connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Total `socket.write()` calls.
    pub write_calls: u64,
    /// Total zero-return writes (spins).
    pub zero_writes: u64,
    /// Total bytes delivered to clients.
    pub bytes_delivered: u64,
}

/// All connections of an experiment plus global accounting.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct TcpWorld {
    cfg: TcpConfig,
    conns: Vec<Connection>,
    stats: WorldStats,
    scratch: Vec<(asyncinv_simcore::SimDuration, ConnEvent)>,
}

impl TcpWorld {
    /// Creates an empty world whose connections share `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TcpConfig::validate`].
    pub fn new(cfg: TcpConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TcpConfig: {e}");
        }
        TcpWorld {
            cfg,
            conns: Vec::new(),
            stats: WorldStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Opens a new connection at `now`.
    pub fn open(&mut self, now: SimTime) -> ConnId {
        let id = ConnId(self.conns.len());
        self.conns.push(Connection::new(now, self.cfg.clone()));
        id
    }

    /// Number of connections opened.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// `true` when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Shared access to a connection (counters, space queries).
    pub fn conn(&self, id: ConnId) -> &Connection {
        &self.conns[id.0]
    }

    /// Mutable access to a connection, for fault-injection hooks
    /// ([`Connection::set_loss`], [`Connection::set_extra_ack_delay`],
    /// [`Connection::set_cap_clamp`], [`Connection::reset`]).
    pub fn conn_mut(&mut self, id: ConnId) -> &mut Connection {
        &mut self.conns[id.0]
    }

    /// Cumulative counters for one connection.
    pub fn conn_stats(&self, id: ConnId) -> ConnStats {
        self.conns[id.0].stats()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// Non-blocking write on `conn`; see [`Connection::write`]. Timestamped
    /// follow-up events are appended to `out` in absolute time.
    pub fn write(
        &mut self,
        now: SimTime,
        conn: ConnId,
        len: usize,
        out: &mut Vec<(SimTime, TcpEvent)>,
    ) -> usize {
        self.scratch.clear();
        let w = self.conns[conn.0].write(now, len, &mut self.scratch);
        self.stats.write_calls += 1;
        if w == 0 {
            self.stats.zero_writes += 1;
        }
        for (d, e) in self.scratch.drain(..) {
            out.push((now + d, TcpEvent { conn, kind: e }));
        }
        w
    }

    /// Accounts `n` more zero-returning [`TcpWorld::write`] calls on
    /// `conn`, the last at `last`, in one step: the counters and the
    /// connection's idle clock end exactly where the `n` calls would leave
    /// them. Only valid while [`Connection::write_stalled`] holds with no
    /// ACK or fault in between.
    pub fn retire_zero_writes(&mut self, conn: ConnId, last: SimTime, n: u64) {
        self.conns[conn.0].retire_zero_writes(last, n);
        self.stats.write_calls += n;
        self.stats.zero_writes += n;
    }

    /// Blocking-write continuation on `conn`: copies more bytes without
    /// counting a new `socket.write()` call. See
    /// [`Connection::write_continue`].
    pub fn write_continue(
        &mut self,
        now: SimTime,
        conn: ConnId,
        len: usize,
        out: &mut Vec<(SimTime, TcpEvent)>,
    ) -> usize {
        self.scratch.clear();
        let w = self.conns[conn.0].write_continue(now, len, &mut self.scratch);
        for (d, e) in self.scratch.drain(..) {
            out.push((now + d, TcpEvent { conn, kind: e }));
        }
        w
    }

    /// Routes a network event back into its connection, returning the
    /// translated notice for the server/client models.
    pub fn on_event(
        &mut self,
        now: SimTime,
        ev: TcpEvent,
        out: &mut Vec<(SimTime, TcpEvent)>,
    ) -> TcpNotice {
        match ev.kind {
            ConnEvent::AckArrived(bytes) => {
                self.scratch.clear();
                let space = self.conns[ev.conn.0].on_ack(now, bytes, &mut self.scratch);
                for (d, e) in self.scratch.drain(..) {
                    out.push((
                        now + d,
                        TcpEvent {
                            conn: ev.conn,
                            kind: e,
                        },
                    ));
                }
                TcpNotice::SpaceFreed {
                    conn: ev.conn,
                    space,
                }
            }
            ConnEvent::Delivered(bytes) => {
                self.conns[ev.conn.0].on_delivered(bytes);
                self.stats.bytes_delivered += bytes as u64;
                TcpNotice::Delivered {
                    conn: ev.conn,
                    bytes,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncinv_simcore::SimDuration;

    const KB: usize = 1024;

    #[test]
    fn world_routes_events_per_connection() {
        let mut w = TcpWorld::new(TcpConfig::default());
        let a = w.open(SimTime::ZERO);
        let b = w.open(SimTime::ZERO);
        let mut out = Vec::new();
        w.write(SimTime::ZERO, a, 1000, &mut out);
        w.write(SimTime::ZERO, b, 2000, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().any(|(_, e)| e.conn == a));
        assert!(out.iter().any(|(_, e)| e.conn == b));
        // Deliver everything.
        let events: Vec<_> = std::mem::take(&mut out);
        let mut delivered = 0;
        for (t, e) in events {
            if let TcpNotice::Delivered { bytes, .. } = w.on_event(t, e, &mut out) {
                delivered += bytes;
            }
        }
        assert_eq!(delivered, 3000);
        assert_eq!(w.stats().bytes_delivered, 3000);
    }

    #[test]
    fn space_freed_notice_carries_room() {
        let mut w = TcpWorld::new(TcpConfig::default());
        let c = w.open(SimTime::ZERO);
        let mut out = Vec::new();
        let written = w.write(SimTime::ZERO, c, 16 * KB, &mut out);
        assert_eq!(written, 16 * KB);
        assert_eq!(w.conn(c).space(), 0);
        let events: Vec<_> = std::mem::take(&mut out);
        for (t, e) in events {
            match w.on_event(t, e, &mut out) {
                TcpNotice::SpaceFreed { space, .. } => assert!(space > 0),
                TcpNotice::Delivered { .. } => {}
            }
        }
    }

    #[test]
    fn global_spin_counter_aggregates() {
        let mut w = TcpWorld::new(TcpConfig::default());
        let c = w.open(SimTime::ZERO);
        let mut out = Vec::new();
        w.write(SimTime::ZERO, c, 16 * KB, &mut out);
        w.write(SimTime::ZERO, c, 1, &mut out);
        w.write(SimTime::ZERO, c, 1, &mut out);
        assert_eq!(w.stats().write_calls, 3);
        assert_eq!(w.stats().zero_writes, 2);
        assert_eq!(w.conn_stats(c).zero_writes, 2);
    }

    #[test]
    fn absolute_event_times() {
        let cfg = TcpConfig::default();
        let rtt = cfg.rtt();
        let mut w = TcpWorld::new(cfg);
        let c = w.open(SimTime::ZERO);
        let mut out = Vec::new();
        let start = SimTime::from_millis(7);
        w.write(start, c, 100, &mut out);
        let ack_time = out
            .iter()
            .find_map(|(t, e)| matches!(e.kind, ConnEvent::AckArrived(_)).then_some(*t))
            .unwrap();
        assert_eq!(ack_time, start + rtt);
        let deliver_time = out
            .iter()
            .find_map(|(t, e)| matches!(e.kind, ConnEvent::Delivered(_)).then_some(*t))
            .unwrap();
        assert_eq!(deliver_time, start + SimDuration::from_micros(100));
    }
}
