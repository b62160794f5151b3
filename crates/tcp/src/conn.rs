//! A single TCP connection's send path.

use asyncinv_simcore::{SimDuration, SimRng, SimTime};

use crate::config::{SendBufPolicy, TcpConfig};

/// Connection-local events produced by the send path, with delays relative
/// to the operation that produced them. [`crate::TcpWorld`] converts these
/// to absolute-time [`crate::TcpEvent`]s tagged with the connection id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// The client's ACK for a transmitted flight arrives back at the server,
    /// freeing send-buffer space.
    AckArrived(usize),
    /// A transmitted flight reaches the client (one-way delay).
    Delivered(usize),
}

/// Per-connection counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// `socket.write()` invocations (the paper's Table IV metric).
    pub write_calls: u64,
    /// Write calls that returned zero because the buffer was full — the
    /// write-spin signature.
    pub zero_writes: u64,
    /// Bytes accepted into the send buffer.
    pub bytes_accepted: u64,
    /// Bytes acknowledged by the client.
    pub bytes_acked: u64,
    /// Bytes delivered to the client.
    pub bytes_delivered: u64,
    /// ACK events processed.
    pub acks_received: u64,
    /// Times the congestion window was reset after idle.
    pub idle_resets: u64,
    /// Flights lost and retransmitted (loss extension).
    pub retransmits: u64,
    /// Forced connection resets (fault injection).
    pub resets: u64,
}

/// The send path of one established TCP connection.
///
/// See the [crate documentation](crate) for the model. All byte quantities
/// are payload bytes; segmentation only matters through the MSS-granular
/// congestion window.
#[derive(Debug, Clone)]
pub struct Connection {
    cfg: TcpConfig,
    /// Usable send-buffer capacity right now (fixed, or autotuned).
    capacity: usize,
    /// Fault-injected capacity clamp; while set, the usable capacity is
    /// `min(capacity, clamp)` regardless of the buffer policy.
    cap_clamp: Option<usize>,
    /// Fault-injected extra one-way delay on the ACK return path (ACK-delay
    /// spike / slow-reader client). Zero outside fault windows.
    extra_ack_delay: SimDuration,
    /// Bytes in the buffer not yet handed to the wire.
    unsent: usize,
    /// Bytes on the wire awaiting ACK (they still occupy the buffer).
    in_flight: usize,
    /// Congestion window in bytes.
    cwnd: usize,
    last_activity: SimTime,
    stats: ConnStats,
    loss_rng: SimRng,
}

impl Connection {
    /// Opens a connection at `now` with slow-start initial state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TcpConfig::validate`].
    pub fn new(now: SimTime, cfg: TcpConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TcpConfig: {e}");
        }
        let cwnd = cfg.init_cwnd();
        let capacity = match cfg.send_buf {
            SendBufPolicy::Fixed(n) => n,
            SendBufPolicy::AutoTune { min, max } => cwnd.clamp(min, max),
        };
        let loss_rng = SimRng::new(cfg.loss_seed);
        Connection {
            cfg,
            capacity,
            cap_clamp: None,
            extra_ack_delay: SimDuration::ZERO,
            unsent: 0,
            in_flight: 0,
            cwnd,
            last_activity: now,
            stats: ConnStats::default(),
            loss_rng,
        }
    }

    /// The connection's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Bytes currently occupying the send buffer (unsent + in flight).
    pub fn buffered(&self) -> usize {
        self.unsent + self.in_flight
    }

    /// Free space in the send buffer. Saturating: a fault-injected
    /// capacity clamp may drop below what is already buffered.
    pub fn space(&self) -> usize {
        self.capacity().saturating_sub(self.buffered())
    }

    /// Current usable send-buffer capacity (fault clamp applied).
    pub fn capacity(&self) -> usize {
        match self.cap_clamp {
            Some(c) => self.capacity.min(c),
            None => self.capacity,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Bytes transmitted and not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Non-blocking `socket.write()`: copies up to `len` bytes into the send
    /// buffer and returns how many were accepted (zero when the buffer is
    /// full — the write-spin signature). Transmission happens immediately up
    /// to the congestion window; follow-up `ConnEvent`s (ACKs, client
    /// delivery) are pushed into `out` with relative delays.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero; model code should skip empty writes.
    pub fn write(
        &mut self,
        now: SimTime,
        len: usize,
        out: &mut Vec<(SimDuration, ConnEvent)>,
    ) -> usize {
        assert!(len > 0, "zero-length write");
        self.maybe_idle_reset(now);
        self.last_activity = now;
        self.stats.write_calls += 1;
        let w = len.min(self.space());
        if w == 0 {
            self.stats.zero_writes += 1;
            return 0;
        }
        self.unsent += w;
        self.stats.bytes_accepted += w as u64;
        self.transmit(out);
        w
    }

    /// `true` when a write returns zero and keeps doing so until the next
    /// ACK or fault: the buffer is full and holds data (so the idle reset
    /// cannot fire either).
    pub fn write_stalled(&self) -> bool {
        self.space() == 0 && self.buffered() > 0
    }

    /// Accounts `n` more zero-returning [`Connection::write`] calls, the
    /// last at `last`, in one step: the counters and the idle clock end
    /// exactly where the `n` calls would leave them. Only valid while
    /// [`Connection::write_stalled`] holds with no ACK or fault in between.
    pub(crate) fn retire_zero_writes(&mut self, last: SimTime, n: u64) {
        debug_assert!(self.write_stalled(), "retiring writes that could succeed");
        self.last_activity = last;
        self.stats.write_calls += n;
        self.stats.zero_writes += n;
    }

    /// Continuation of a *blocking* `socket.write()`: the kernel copies more
    /// of the caller's buffer into freed send-buffer space from inside the
    /// original syscall, so no new `write()` call is counted. This is why
    /// the thread-based server reports one write per request in the paper's
    /// Table IV regardless of response size.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn write_continue(
        &mut self,
        now: SimTime,
        len: usize,
        out: &mut Vec<(SimDuration, ConnEvent)>,
    ) -> usize {
        assert!(len > 0, "zero-length write");
        self.last_activity = now;
        let w = len.min(self.space());
        if w == 0 {
            return 0;
        }
        self.unsent += w;
        self.stats.bytes_accepted += w as u64;
        self.transmit(out);
        w
    }

    /// Processes an ACK for `bytes`: frees buffer space, grows the
    /// congestion window (slow start, capped), retunes an auto-tuned buffer,
    /// and transmits any newly unblocked data.
    ///
    /// Returns the free buffer space after the ACK, so callers can raise a
    /// writable notification.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        bytes: usize,
        out: &mut Vec<(SimDuration, ConnEvent)>,
    ) -> usize {
        debug_assert!(bytes <= self.in_flight, "ACK for bytes never sent");
        self.in_flight -= bytes;
        self.stats.bytes_acked += bytes as u64;
        self.stats.acks_received += 1;
        self.last_activity = now;
        // Slow start: one cwnd increment per acked byte doubles per RTT.
        self.cwnd = (self.cwnd + bytes).min(self.cfg.cwnd_cap());
        if let SendBufPolicy::AutoTune { min, max } = self.cfg.send_buf {
            // The kernel sizes the buffer from the transport's window, not
            // from what the application would like to write.
            self.capacity = self.cwnd.clamp(min, max).max(self.buffered());
        }
        self.transmit(out);
        self.space()
    }

    /// Records a delivery event (client received `bytes`).
    pub fn on_delivered(&mut self, bytes: usize) {
        self.stats.bytes_delivered += bytes as u64;
    }

    /// Fault hook: overrides the segment-loss probability from now on.
    /// The loss RNG stream continues where it was, so reverting to the
    /// configured base probability after a fault window stays deterministic.
    pub fn set_loss(&mut self, prob: f64) {
        debug_assert!((0.0..1.0).contains(&prob), "loss probability out of range");
        self.cfg.loss = prob;
        if prob > 0.0 && self.cfg.rto.is_zero() {
            // The base config may never have validated a positive RTO.
            self.cfg.rto = SimDuration::from_millis(200);
        }
    }

    /// Fault hook: adds `extra` one-way delay to every ACK return from now
    /// on (ACK-delay spike, or a slow-reader client draining its receive
    /// buffer lazily). Pass [`SimDuration::ZERO`] to revert.
    pub fn set_extra_ack_delay(&mut self, extra: SimDuration) {
        self.extra_ack_delay = extra;
    }

    /// Fault hook: clamps the usable send-buffer capacity to `cap` bytes
    /// (`None` reverts). Already-buffered bytes are not dropped; the
    /// connection simply refuses new bytes until it drains below the clamp.
    pub fn set_cap_clamp(&mut self, cap: Option<usize>) {
        self.cap_clamp = cap;
    }

    /// Fault hook: connection reset (RST). Unsent buffered bytes are
    /// dropped and the congestion window restarts cold. Bytes already on
    /// the wire still deliver/ACK (their events are scheduled); returns the
    /// number of dropped unsent bytes so the driver can reconcile its
    /// response bookkeeping.
    pub fn reset(&mut self, now: SimTime) -> usize {
        let dropped = self.unsent;
        self.unsent = 0;
        self.cwnd = self.cfg.init_cwnd();
        if let SendBufPolicy::AutoTune { min, max } = self.cfg.send_buf {
            self.capacity = self.cwnd.clamp(min, max).max(self.buffered());
        }
        self.last_activity = now;
        self.stats.resets += 1;
        dropped
    }

    /// Moves unsent bytes to the wire up to the congestion window.
    ///
    /// With the loss extension enabled, a lost flight is delivered (and
    /// acknowledged) only after the retransmission timeout — one RTO plus
    /// the normal delays, modeling a single retransmission per loss event.
    fn transmit(&mut self, out: &mut Vec<(SimDuration, ConnEvent)>) {
        let window = self.cwnd.saturating_sub(self.in_flight);
        let send = self.unsent.min(window);
        if send == 0 {
            return;
        }
        self.unsent -= send;
        self.in_flight += send;
        let mut deliver = self.cfg.one_way();
        let mut ack = self.cfg.rtt() + self.extra_ack_delay;
        if self.cfg.loss > 0.0 && self.loss_rng.gen_bool(self.cfg.loss) {
            self.stats.retransmits += 1;
            deliver += self.cfg.rto;
            ack += self.cfg.rto;
        }
        out.push((deliver, ConnEvent::Delivered(send)));
        out.push((ack, ConnEvent::AckArrived(send)));
    }

    fn maybe_idle_reset(&mut self, now: SimTime) {
        let Some(idle) = self.cfg.idle_reset else {
            return;
        };
        if now.duration_since(self.last_activity) > idle && self.buffered() == 0 {
            self.cwnd = self.cfg.init_cwnd();
            if let SendBufPolicy::AutoTune { min, max } = self.cfg.send_buf {
                self.capacity = self.cwnd.clamp(min, max);
            }
            self.stats.idle_resets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: usize = 1024;

    fn lan() -> TcpConfig {
        TcpConfig::default()
    }

    /// Drives a connection until `total` bytes are accepted, spinning on
    /// zero-writes by replaying ACK events, and returns (write_calls,
    /// completion_time).
    fn drain(mut conn: Connection, total: usize) -> (u64, SimTime) {
        let mut pending: Vec<(SimTime, ConnEvent)> = Vec::new();
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        let mut accepted = 0usize;
        let mut delivered = 0usize;
        // First write.
        accepted += conn.write(now, total, &mut out);
        loop {
            for (d, e) in out.drain(..) {
                pending.push((now + d, e));
            }
            if delivered >= total {
                break;
            }
            // Earliest pending network event.
            pending.sort_by_key(|(t, _)| *t);
            let (t, ev) = pending.remove(0);
            now = t;
            match ev {
                ConnEvent::AckArrived(b) => {
                    let space = conn.on_ack(now, b, &mut out);
                    if space > 0 && accepted < total {
                        accepted += conn.write(now, total - accepted, &mut out);
                    }
                }
                ConnEvent::Delivered(b) => {
                    conn.on_delivered(b);
                    delivered += b;
                }
            }
        }
        (conn.stats().write_calls, now)
    }

    #[test]
    fn small_response_is_one_write() {
        let conn = Connection::new(SimTime::ZERO, lan());
        let mut c = conn.clone();
        let mut out = Vec::new();
        let w = c.write(SimTime::ZERO, 100, &mut out);
        assert_eq!(w, 100);
        assert_eq!(c.stats().write_calls, 1);
        assert_eq!(c.stats().zero_writes, 0);
        // It also fully transmits at once (within initial cwnd).
        assert_eq!(c.in_flight(), 100);
        assert_eq!(c.buffered(), 100);
    }

    #[test]
    fn large_response_requires_many_writes() {
        let conn = Connection::new(SimTime::ZERO, lan());
        let (calls, _) = drain(conn, 100 * KB);
        // 100 KB / 16 KB buffer: at least 7 successful writes; with the
        // ACK-clocked wakeups the count lands well above 1.
        assert!(calls >= 7, "write calls = {calls}");
    }

    #[test]
    fn ten_kb_single_write() {
        let conn = Connection::new(SimTime::ZERO, lan());
        let (calls, _) = drain(conn, 10 * KB);
        assert_eq!(calls, 1, "10 KB fits the 16 KB buffer: one write");
    }

    #[test]
    fn zero_return_when_buffer_full() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        let mut out = Vec::new();
        let w1 = conn.write(SimTime::ZERO, 200 * KB, &mut out);
        assert_eq!(w1, 16 * KB, "first write fills the buffer");
        let w2 = conn.write(SimTime::ZERO, 200 * KB - w1, &mut out);
        assert_eq!(w2, 0);
        assert_eq!(conn.stats().zero_writes, 1);
        assert_eq!(conn.space(), 0);
    }

    #[test]
    fn ack_frees_space_and_unblocks() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 16 * KB, &mut out);
        // Initial cwnd (14600) < 16 KB, so one flight of 14600 is out.
        assert_eq!(conn.in_flight(), 14_600);
        assert_eq!(conn.unsent + conn.in_flight, 16 * KB);
        let flight = conn.in_flight();
        out.clear();
        let space = conn.on_ack(SimTime::from_micros(200), flight, &mut out);
        assert_eq!(space, 14_600, "acked bytes leave the buffer");
        // The remaining unsent tail got transmitted by the ACK.
        assert_eq!(conn.in_flight(), 16 * KB - 14_600);
    }

    #[test]
    fn completion_time_amplifies_with_latency() {
        // The paper's Fig 7 mechanism: each buffer refill waits an RTT.
        let fast = Connection::new(SimTime::ZERO, lan());
        let (_, t_fast) = drain(fast, 100 * KB);

        let slow_cfg = TcpConfig {
            added_latency: SimDuration::from_millis(5),
            ..lan()
        };
        let slow = Connection::new(SimTime::ZERO, slow_cfg);
        let (_, t_slow) = drain(slow, 100 * KB);
        // ~7 refill rounds x 10+ ms of extra RTT each.
        assert!(
            t_slow.as_millis() >= 30,
            "expected tens of ms, got {t_slow}"
        );
        assert!(t_slow.as_nanos() > t_fast.as_nanos() * 20);
    }

    #[test]
    fn big_fixed_buffer_takes_whole_response_in_one_write() {
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::Fixed(100 * KB),
            ..lan()
        };
        let mut conn = Connection::new(SimTime::ZERO, cfg);
        let mut out = Vec::new();
        let w = conn.write(SimTime::ZERO, 100 * KB, &mut out);
        assert_eq!(w, 100 * KB, "the paper's 'intuitive solution'");
        assert_eq!(conn.stats().write_calls, 1);
    }

    #[test]
    fn cwnd_slow_starts_and_caps() {
        let cfg = lan();
        let cap = cfg.cwnd_cap();
        let mut conn = Connection::new(SimTime::ZERO, cfg);
        let mut out = Vec::new();
        let init = conn.cwnd();
        conn.write(SimTime::ZERO, 64 * KB, &mut out);
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += SimDuration::from_micros(200);
            let inflight = conn.in_flight();
            if inflight == 0 {
                break;
            }
            conn.on_ack(now, inflight, &mut out);
        }
        assert!(conn.cwnd() > init);
        assert!(conn.cwnd() <= cap);
    }

    #[test]
    fn autotune_capacity_tracks_cwnd() {
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::AutoTune {
                min: 16 * KB,
                max: 4 * 1024 * KB,
            },
            ..lan()
        };
        let cap_limit = cfg.cwnd_cap();
        let mut conn = Connection::new(SimTime::ZERO, cfg);
        assert_eq!(conn.capacity(), 16 * KB, "starts at the min clamp");
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 200 * KB, &mut out);
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            now += SimDuration::from_micros(200);
            let inflight = conn.in_flight();
            if inflight > 0 {
                conn.on_ack(now, inflight, &mut out);
            }
        }
        // Capacity grew with cwnd but is BDP-capped: still below 100 KB,
        // so a 100 KB response keeps spinning (the paper's Fig 6).
        assert!(conn.capacity() > 16 * KB);
        assert!(conn.capacity() <= cap_limit.max(16 * KB));
        assert!(conn.capacity() < 100 * KB);
    }

    #[test]
    fn idle_resets_cwnd_and_autotuned_capacity() {
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::AutoTune {
                min: 16 * KB,
                max: 4 * 1024 * KB,
            },
            ..lan()
        };
        let mut conn = Connection::new(SimTime::ZERO, cfg);
        let mut out = Vec::new();
        // Grow the window.
        conn.write(SimTime::ZERO, 30 * KB, &mut out);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_micros(200);
            let inflight = conn.in_flight();
            if inflight > 0 {
                conn.on_ack(now, inflight, &mut out);
            }
        }
        let grown = conn.cwnd();
        assert!(grown > conn.config().init_cwnd());
        // Go idle past the reset threshold; next write sees a cold window.
        now += SimDuration::from_secs(1);
        conn.write(now, 100, &mut out);
        assert_eq!(conn.cwnd(), conn.config().init_cwnd());
        assert_eq!(conn.capacity(), 16 * KB);
        assert_eq!(conn.stats().idle_resets, 1);
    }

    #[test]
    fn no_idle_reset_when_disabled() {
        let cfg = TcpConfig {
            idle_reset: None,
            ..lan()
        };
        let mut conn = Connection::new(SimTime::ZERO, cfg);
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 16 * KB, &mut out);
        let f = conn.in_flight();
        conn.on_ack(SimTime::from_micros(200), f, &mut out);
        let grown = conn.cwnd();
        conn.write(SimTime::from_secs(10), 100, &mut out);
        assert_eq!(conn.cwnd(), grown);
        assert_eq!(conn.stats().idle_resets, 0);
    }

    #[test]
    fn delivery_precedes_ack() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 1000, &mut out);
        assert_eq!(out.len(), 2);
        let delivered = out
            .iter()
            .find(|(_, e)| matches!(e, ConnEvent::Delivered(_)))
            .unwrap();
        let acked = out
            .iter()
            .find(|(_, e)| matches!(e, ConnEvent::AckArrived(_)))
            .unwrap();
        assert!(
            delivered.0 < acked.0,
            "client sees data before server sees ACK"
        );
        assert_eq!(acked.0, conn.config().rtt());
    }

    #[test]
    fn byte_conservation() {
        let conn = Connection::new(SimTime::ZERO, lan());
        let mut c = conn;
        let mut out = Vec::new();
        let total = 50 * KB;
        let mut accepted = c.write(SimTime::ZERO, total, &mut out);
        let mut now = SimTime::ZERO;
        let mut delivered = 0usize;
        let mut acked = 0usize;
        let mut pend: Vec<(SimTime, ConnEvent)> = Vec::new();
        loop {
            for (d, e) in out.drain(..) {
                pend.push((now + d, e));
            }
            // Invariant: buffered never exceeds capacity.
            assert!(c.buffered() <= c.capacity());
            if acked >= total {
                break;
            }
            pend.sort_by_key(|(t, _)| *t);
            let (t, ev) = pend.remove(0);
            now = t;
            match ev {
                ConnEvent::AckArrived(b) => {
                    acked += b;
                    c.on_ack(now, b, &mut out);
                    if accepted < total {
                        accepted += c.write(now, total - accepted, &mut out);
                    }
                }
                ConnEvent::Delivered(b) => {
                    c.on_delivered(b);
                    delivered += b;
                }
            }
        }
        assert_eq!(accepted, total);
        assert_eq!(delivered, total);
        assert_eq!(c.stats().bytes_accepted, total as u64);
        assert_eq!(c.stats().bytes_delivered, total as u64);
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn write_continue_does_not_count_syscalls() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 16 * KB, &mut out);
        assert_eq!(conn.stats().write_calls, 1);
        let flight = conn.in_flight();
        conn.on_ack(SimTime::from_micros(200), flight, &mut out);
        let w = conn.write_continue(SimTime::from_micros(200), 8 * KB, &mut out);
        assert!(w > 0);
        assert_eq!(
            conn.stats().write_calls,
            1,
            "kernel refill is not a syscall"
        );
        assert_eq!(conn.stats().zero_writes, 0);
    }

    #[test]
    fn write_continue_returns_zero_when_full() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        let mut out = Vec::new();
        conn.write(SimTime::ZERO, 16 * KB, &mut out);
        assert_eq!(conn.write_continue(SimTime::ZERO, 1, &mut out), 0);
        assert_eq!(conn.stats().zero_writes, 0, "not counted as a spin");
    }

    #[test]
    fn loss_delays_completion() {
        let lossy = TcpConfig { loss: 0.3, ..lan() };
        let (_, t_lossy) = drain(Connection::new(SimTime::ZERO, lossy), 100 * KB);
        let (_, t_clean) = drain(Connection::new(SimTime::ZERO, lan()), 100 * KB);
        assert!(
            t_lossy > t_clean,
            "loss must delay the transfer: {t_lossy} vs {t_clean}"
        );
        assert!(t_lossy.as_millis() >= 200, "at least one RTO hit");
    }

    #[test]
    fn loss_counter_tracks_retransmits() {
        let lossy = TcpConfig { loss: 0.5, ..lan() };
        let mut conn = Connection::new(SimTime::ZERO, lossy);
        let mut out = Vec::new();
        let mut hits = 0;
        for _ in 0..50 {
            conn.write(SimTime::ZERO, 100, &mut out);
            hits = conn.stats().retransmits;
        }
        assert!(hits > 5, "expected retransmits with 50% loss, got {hits}");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let cfg = TcpConfig { loss: 0.2, ..lan() };
        let (c1, t1) = drain(Connection::new(SimTime::ZERO, cfg.clone()), 50 * KB);
        let (c2, t2) = drain(Connection::new(SimTime::ZERO, cfg), 50 * KB);
        assert_eq!((c1, t1), (c2, t2));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_write_panics() {
        let mut conn = Connection::new(SimTime::ZERO, lan());
        conn.write(SimTime::ZERO, 0, &mut Vec::new());
    }
}
