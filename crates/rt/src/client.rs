//! Loopback clients.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Requests `n` bytes from a [`crate::MiniServer`] and reads the full
/// response. Returns the number of bytes received.
///
/// # Errors
///
/// Propagates connection and I/O errors.
pub fn fetch(addr: SocketAddr, n: usize) -> io::Result<usize> {
    fetch_slowly(addr, n, Duration::ZERO)
}

/// Like [`fetch`], but waits `pause` before starting to read the response.
///
/// While the client is not reading, the connection's receive window and
/// the server's send buffer fill up, so a non-blocking server observes
/// `WouldBlock` on its writes — this is how the demo/tests provoke a
/// genuine write-spin on a real kernel socket (the paper uses responses
/// larger than the configured send buffer; the effect on the writer is
/// identical).
///
/// # Errors
///
/// Propagates connection and I/O errors.
pub fn fetch_slowly(addr: SocketAddr, n: usize, pause: Duration) -> io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    writeln!(stream, "GET {n}")?;
    stream.flush()?;
    if !pause.is_zero() {
        std::thread::sleep(pause);
    }
    let mut received = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => received += k,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MiniServer, ServerMode};

    #[test]
    fn blocking_server_round_trip() {
        let server = MiniServer::start(ServerMode::ThreadPerConn).expect("bind loopback");
        let got = fetch(server.addr(), 10_000).expect("fetch");
        assert_eq!(got, 10_000);
        // Blocking write: exactly one counted write for the one request.
        let stats = server.stats();
        assert_eq!(stats.requests(), 1);
        assert_eq!(stats.write_calls(), 1);
        assert_eq!(stats.would_blocks(), 0);
        server.shutdown();
    }

    #[test]
    fn spin_server_round_trip() {
        let server = MiniServer::start(ServerMode::SingleLoopSpin).expect("bind loopback");
        let got = fetch(server.addr(), 50_000).expect("fetch");
        assert_eq!(got, 50_000);
        assert_eq!(server.stats().requests(), 1);
        server.shutdown();
    }

    #[test]
    fn bounded_server_round_trip() {
        let server = MiniServer::start(ServerMode::BoundedSpin { limit: 16 }).expect("bind");
        let got = fetch(server.addr(), 200_000).expect("fetch");
        assert_eq!(got, 200_000);
        assert_eq!(server.stats().requests(), 1);
        server.shutdown();
    }

    /// The real-kernel write-spin: a paused reader fills the flow-control
    /// windows and the unbounded spinner hammers `write()`.
    #[test]
    fn slow_reader_provokes_would_block_spin() {
        let server = MiniServer::start(ServerMode::SingleLoopSpin).expect("bind loopback");
        // 64 MiB vastly exceeds loopback sndbuf+rcvbuf; with a 300 ms read
        // pause the server must observe WouldBlock.
        let got = fetch_slowly(server.addr(), 64 * 1024 * 1024, Duration::from_millis(300))
            .expect("fetch");
        assert_eq!(got, 64 * 1024 * 1024);
        let stats = server.stats();
        assert!(
            stats.would_blocks() > 0,
            "expected real WouldBlock spins, got {stats}"
        );
        assert!(stats.write_calls() > 10, "got {stats}");
        server.shutdown();
    }

    /// Same workload, blocking discipline: one write, zero spins.
    #[test]
    fn slow_reader_blocking_server_single_write() {
        let server = MiniServer::start(ServerMode::ThreadPerConn).expect("bind loopback");
        let got = fetch_slowly(server.addr(), 16 * 1024 * 1024, Duration::from_millis(200))
            .expect("fetch");
        assert_eq!(got, 16 * 1024 * 1024);
        let stats = server.stats();
        assert_eq!(stats.write_calls(), 1, "{stats}");
        assert_eq!(stats.would_blocks(), 0, "{stats}");
        server.shutdown();
    }

    /// Bounded spin caps the per-visit attempts even with a slow reader.
    #[test]
    fn bounded_spin_limits_would_blocks() {
        let server = MiniServer::start(ServerMode::BoundedSpin { limit: 4 }).expect("bind");
        let got = fetch_slowly(server.addr(), 32 * 1024 * 1024, Duration::from_millis(200))
            .expect("fetch");
        assert_eq!(got, 32 * 1024 * 1024);
        let stats = server.stats();
        assert_eq!(stats.requests(), 1);
        server.shutdown();
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "real clients on OS threads against a real-socket server; this crate measures wall-clock behaviour and takes no part in deterministic replay"
    )]
    fn concurrent_clients_on_event_loop() {
        let server = MiniServer::start(ServerMode::BoundedSpin { limit: 16 }).expect("bind");
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| std::thread::spawn(move || fetch(addr, 10_000 + i * 1000).expect("fetch")))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().expect("join"), 10_000 + i * 1000);
        }
        assert_eq!(server.stats().requests(), 4);
        server.shutdown();
    }
}
