//! The anatomy of the write-spin problem (paper Fig 5 + Table IV), shown
//! twice: on the deterministic TCP model, then on a REAL kernel socket.
//!
//! ```sh
//! cargo run --release --example write_spin_anatomy
//! ```

use asyncinv::substrate::{SendBufPolicy, TcpConfig, TcpWorld};
use asyncinv::SimTime;
use std::time::Duration;

fn main() {
    simulated();
    real_kernel();
}

/// Walk a 100 KB response through the modeled 16 KB send buffer and
/// narrate every write call, as in the paper's Fig 5.
fn simulated() {
    println!("== Simulated kernel: 100 KB response vs 16 KB send buffer ==\n");
    let mut world = TcpWorld::new(TcpConfig::default());
    let conn = world.open(SimTime::ZERO);
    let mut pending = Vec::new();
    let mut now = SimTime::ZERO;
    let total = 100 * 1024usize;
    let mut remaining = total;
    let mut calls = 0u32;
    while remaining > 0 {
        let w = world.write(now, conn, remaining, &mut pending);
        calls += 1;
        remaining -= w;
        if calls <= 8 || w > 0 {
            println!(
                "  t={now} write() #{calls}: accepted {w:>6} B, {} B left, buffer {}/{} B",
                remaining,
                world.conn(conn).buffered(),
                world.conn(conn).capacity()
            );
        }
        if w == 0 {
            // Buffer full: in a spin loop we'd retry; fast-forward to the
            // next ACK instead to keep the output readable.
            pending.sort_by_key(|(t, _)| *t);
            let (t, ev) = pending.remove(0);
            now = t;
            world.on_event(now, ev, &mut pending);
        }
    }
    println!(
        "\n  -> {calls} write() calls to push 100 KB ({} zero-returns); a\n\
         \u{20}    blocking writer would have used exactly one syscall.\n",
        world.conn_stats(conn).zero_writes
    );

    let mut big = TcpWorld::new(TcpConfig {
        send_buf: SendBufPolicy::Fixed(total),
        ..TcpConfig::default()
    });
    let conn = big.open(SimTime::ZERO);
    let w = big.write(SimTime::ZERO, conn, total, &mut Vec::new());
    println!(
        "  With a 100 KB send buffer (the paper's 'intuitive solution'):\n\
         \u{20}    one write() accepts all {w} bytes.\n"
    );
}

/// The same pathology on a real socket: an unbounded spinner against a
/// reader that pauses before draining.
fn real_kernel() {
    println!("== Real kernel: unbounded spinner vs a slow reader ==\n");
    let server = asyncinv_rt::MiniServer::start(asyncinv_rt::ServerMode::SingleLoopSpin)
        .expect("bind loopback");
    let n = 64 * 1024 * 1024;
    let got =
        asyncinv_rt::fetch_slowly(server.addr(), n, Duration::from_millis(300)).expect("fetch");
    assert_eq!(got, n);
    println!("  spinner: {}", server.stats());
    server.shutdown();

    let server = asyncinv_rt::MiniServer::start(asyncinv_rt::ServerMode::ThreadPerConn)
        .expect("bind loopback");
    let got =
        asyncinv_rt::fetch_slowly(server.addr(), 16 * 1024 * 1024, Duration::from_millis(200))
            .expect("fetch");
    assert_eq!(got, 16 * 1024 * 1024);
    println!("  blocking: {}", server.stats());
    server.shutdown();
}
