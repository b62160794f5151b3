//! The miniature loopback server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::WriteStats;

/// The write discipline of the server — mirrors the paper's architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// One blocking thread per connection (sTomcat-Sync): `write_all` on a
    /// blocking socket — the kernel copies the whole response from inside
    /// the syscall, sleeping as needed. One counted write per request.
    ThreadPerConn,
    /// One thread, non-blocking sockets, **unbounded** write spin
    /// (SingleT-Async): on `WouldBlock` the loop immediately retries,
    /// burning CPU and stalling every other connection.
    SingleLoopSpin,
    /// One thread, non-blocking sockets, a Netty-style bounded spin: after
    /// `limit` consecutive attempts on one connection (or a `WouldBlock`),
    /// the loop moves on and resumes the connection on a later round.
    BoundedSpin {
        /// Maximum consecutive write attempts per visit (Netty default 16).
        limit: u32,
    },
}

/// A loopback demonstration server; see the [crate docs](crate).
///
/// The server binds `127.0.0.1:0`; request protocol: the ASCII line
/// `GET <nbytes>\n`, answered with exactly `nbytes` of payload followed by
/// connection close.
#[derive(Debug)]
pub struct MiniServer {
    addr: SocketAddr,
    stats: WriteStats,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MiniServer {
    /// Starts a server with the given write discipline.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the loopback listener.
    pub fn start(mode: ServerMode) -> io::Result<MiniServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = WriteStats::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let stats = stats.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("asyncinv-rt-server".into())
                .spawn(move || serve(listener, mode, stats, shutdown))?
        };
        Ok(MiniServer {
            addr,
            stats,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live write-path counters.
    pub fn stats(&self) -> WriteStats {
        self.stats.clone()
    }

    /// Stops the accept/serve loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MiniServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-connection state in the event-loop modes.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Remaining response, if the request has been parsed.
    out: Option<(Arc<[u8]>, usize)>,
}

fn serve(listener: TcpListener, mode: ServerMode, stats: WriteStats, shutdown: Arc<AtomicBool>) {
    let mut conns: Vec<Conn> = Vec::new();
    // Round-robin cursor for BoundedSpin resumption.
    let mut cursor = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        // Accept anything pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => match mode {
                    ServerMode::ThreadPerConn => {
                        let stats = stats.clone();
                        let _ = std::thread::Builder::new()
                            .name("asyncinv-rt-worker".into())
                            .spawn(move || {
                                let _ = handle_blocking(stream, &stats);
                            });
                    }
                    _ => {
                        if stream.set_nonblocking(true).is_ok() {
                            conns.push(Conn {
                                stream,
                                inbuf: Vec::new(),
                                out: None,
                            });
                        }
                    }
                },
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        if matches!(mode, ServerMode::ThreadPerConn) || conns.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        // One event-loop sweep.
        let mut closed = Vec::new();
        let n = conns.len();
        for step in 0..n {
            let i = (cursor + step) % n;
            let conn = &mut conns[i];
            let done = match mode {
                ServerMode::SingleLoopSpin => pump_conn(conn, &stats, u32::MAX),
                ServerMode::BoundedSpin { limit } => pump_conn(conn, &stats, limit),
                ServerMode::ThreadPerConn => unreachable!("handled above"),
            };
            if done {
                closed.push(i);
            }
        }
        cursor = cursor.wrapping_add(1);
        for &i in closed.iter().rev() {
            conns.swap_remove(i);
        }
        if conns.iter().all(|c| c.out.is_none()) {
            // Nothing mid-response: don't burn a core while idle.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Blocking thread-per-connection handling: one `write_all` per request.
fn handle_blocking(mut stream: TcpStream, stats: &WriteStats) -> io::Result<()> {
    let n = read_request(&mut stream)?;
    let body = response_body(n);
    // Blocking socket: the kernel copies all n bytes from inside the
    // syscall; one counted write, never a WouldBlock.
    stream.write_all(&body)?;
    stats.record_write(body.len());
    stats.record_request();
    Ok(())
}

/// Advances one non-blocking connection; returns `true` when it finished
/// (response fully written or the peer vanished) and should be dropped.
fn pump_conn(conn: &mut Conn, stats: &WriteStats, spin_limit: u32) -> bool {
    if conn.out.is_none() {
        // Still reading the request line.
        let mut buf = [0u8; 256];
        match conn.stream.read(&mut buf) {
            Ok(0) => return true, // peer closed
            Ok(k) => conn.inbuf.extend_from_slice(&buf[..k]),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => return true,
        }
        if let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&conn.inbuf[..pos]).into_owned();
            let n = parse_request(&line).unwrap_or(0);
            conn.out = Some((response_body(n), 0));
        } else {
            return false;
        }
    }

    // Write phase: spin up to `spin_limit` attempts this visit.
    let (body, mut pos) = conn.out.clone().expect("write phase without body");
    let mut attempts = 0u32;
    while pos < body.len() {
        if attempts >= spin_limit {
            break; // bounded spin: yield to the other connections
        }
        attempts += 1;
        match conn.stream.write(&body[pos..]) {
            Ok(k) => {
                stats.record_write(k);
                pos += k;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                stats.record_would_block();
                if spin_limit != u32::MAX {
                    break; // bounded: park until the next sweep
                }
                std::hint::spin_loop();
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    if pos >= body.len() {
        stats.record_request();
        let _ = conn.stream.flush();
        true // close the connection: response complete
    } else {
        conn.out = Some((body, pos));
        false
    }
}

/// Reads the `GET <n>\n` request line from a blocking stream.
fn read_request(stream: &mut TcpStream) -> io::Result<usize> {
    let mut buf = Vec::new();
    let mut one = [0u8; 1];
    loop {
        let k = stream.read(&mut one)?;
        if k == 0 || one[0] == b'\n' {
            break;
        }
        buf.push(one[0]);
        if buf.len() > 256 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request too long",
            ));
        }
    }
    let line = String::from_utf8_lossy(&buf).into_owned();
    parse_request(&line)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed request"))
}

fn parse_request(line: &str) -> Option<usize> {
    let rest = line.trim().strip_prefix("GET ")?;
    rest.trim().parse().ok()
}

fn response_body(n: usize) -> Arc<[u8]> {
    vec![b'x'; n].into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        assert_eq!(parse_request("GET 1024"), Some(1024));
        assert_eq!(parse_request("GET  7 "), Some(7));
        assert_eq!(parse_request("PUT 7"), None);
        assert_eq!(parse_request("GET x"), None);
    }

    #[test]
    fn response_body_size_and_content() {
        let b = response_body(5);
        assert_eq!(&b[..], b"xxxxx");
        assert!(response_body(0).is_empty());
    }
}
