//! Property tests of the TCP send-path model.

use asyncinv_lab::simcore::{SimDuration, SimTime};
use asyncinv_lab::tcp::{SendBufPolicy, TcpConfig, TcpNotice, TcpWorld};
use proptest::prelude::*;

// A small facade over the crate's public API to drive a transfer to
// completion while checking invariants on every step.
fn drain_with_invariants(
    cfg: TcpConfig,
    total: usize,
) -> Result<(u64, u64, SimTime), TestCaseError> {
    let mut world = TcpWorld::new(cfg);
    let conn = world.open(SimTime::ZERO);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let mut accepted = world.write(now, conn, total, &mut out);
    let mut delivered = 0usize;
    let mut guard = 0u32;
    while delivered < total {
        guard += 1;
        prop_assert!(guard < 100_000, "transfer did not converge");
        // Invariants at every step.
        let c = world.conn(conn);
        prop_assert!(c.buffered() <= c.capacity(), "buffer overflow");
        prop_assert!(c.in_flight() <= c.buffered(), "in-flight exceeds buffered");
        prop_assert!(
            c.cwnd() >= c.config().init_cwnd() || c.config().cwnd_cap() < c.config().init_cwnd()
        );

        prop_assert!(
            !out.is_empty(),
            "stalled with {delivered}/{total} delivered"
        );
        out.sort_by_key(|(t, _)| *t);
        let (t, ev) = out.remove(0);
        prop_assert!(t >= now, "network event in the past");
        now = t;
        match world.on_event(now, ev, &mut out) {
            TcpNotice::SpaceFreed { space, .. } => {
                if space > 0 && accepted < total {
                    accepted += world.write(now, conn, total - accepted, &mut out);
                }
            }
            TcpNotice::Delivered { bytes, .. } => delivered += bytes,
        }
    }
    let stats = world.conn_stats(conn);
    prop_assert_eq!(stats.bytes_delivered, total as u64);
    prop_assert_eq!(stats.bytes_accepted, total as u64);
    Ok((stats.write_calls, stats.zero_writes, now))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte conservation and invariant preservation for arbitrary response
    /// sizes and buffer configurations.
    #[test]
    fn conservation(
        total in 1usize..400_000,
        buf_kb in 4usize..256,
        lat_us in 0u64..5_000,
    ) {
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::Fixed(buf_kb * 1024),
            added_latency: SimDuration::from_micros(lat_us),
            ..TcpConfig::default()
        };
        drain_with_invariants(cfg, total)?;
    }

    /// Responses that fit the buffer take exactly one write; responses
    /// that do not, take more.
    #[test]
    fn write_count_vs_buffer(total in 1usize..300_000, buf_kb in 4usize..128) {
        let buf = buf_kb * 1024;
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::Fixed(buf),
            ..TcpConfig::default()
        };
        let (calls, zeros, _) = drain_with_invariants(cfg, total)?;
        if total <= buf {
            prop_assert_eq!(calls, 1, "small response must be one write");
            prop_assert_eq!(zeros, 0);
        } else {
            prop_assert!(calls > 1, "oversized response cannot be one write");
        }
    }

    /// Added latency never makes a transfer finish earlier.
    #[test]
    fn latency_monotone(total in 1usize..200_000, lat_ms in 1u64..10) {
        let base = TcpConfig::default();
        let slow = TcpConfig {
            added_latency: SimDuration::from_millis(lat_ms),
            ..TcpConfig::default()
        };
        let (_, _, t_fast) = drain_with_invariants(base, total)?;
        let (_, _, t_slow) = drain_with_invariants(slow, total)?;
        prop_assert!(t_slow >= t_fast);
    }

    /// Auto-tuned capacity never exceeds its clamp range.
    #[test]
    fn autotune_respects_clamps(total in 1usize..300_000, min_kb in 4usize..32, extra_kb in 0usize..512) {
        let min = min_kb * 1024;
        let max = min + extra_kb * 1024;
        let cfg = TcpConfig {
            send_buf: SendBufPolicy::AutoTune { min, max },
            ..TcpConfig::default()
        };
        let mut world = TcpWorld::new(cfg);
        let conn = world.open(SimTime::ZERO);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        let mut accepted = world.write(now, conn, total, &mut out);
        let mut delivered = 0usize;
        while delivered < total {
            prop_assert!(!out.is_empty());
            out.sort_by_key(|(t, _)| *t);
            let (t, ev) = out.remove(0);
            now = t;
            match world.on_event(now, ev, &mut out) {
                TcpNotice::SpaceFreed { space, .. } => {
                    let cap = world.conn(conn).capacity();
                    prop_assert!(cap >= min, "capacity {cap} under min {min}");
                    prop_assert!(
                        cap <= max.max(world.conn(conn).buffered()),
                        "capacity {cap} over max {max}"
                    );
                    if space > 0 && accepted < total {
                        accepted += world.write(now, conn, total - accepted, &mut out);
                    }
                }
                TcpNotice::Delivered { bytes, .. } => delivered += bytes,
            }
        }
    }
}
