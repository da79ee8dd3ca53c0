//! Scripted socket faults against the framed TCP front end.
//!
//! Each script is one hostile client behavior, performed deterministically
//! (no timers beyond the explicit holds, no randomness). They assert
//! nothing themselves — the caller checks the server-side invariants: the
//! listener keeps accepting, the active-connection gauge returns to zero,
//! and the right counters moved.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use septic_net::frame::FRAME_HEADER_LEN;

/// What a fault script observed from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketFaultOutcome {
    /// The server closed the connection (EOF on read).
    ServerClosed,
    /// The server answered with raw frame bytes before we gave up
    /// (length-prefixed payload, undecoded).
    ServerAnswered(Vec<u8>),
    /// The read timed out while the connection stayed open.
    StillOpen,
}

/// Reads whatever the server sends within `wait`, classifying the result.
fn drain(stream: &mut TcpStream, wait: Duration) -> SocketFaultOutcome {
    let _ = stream.set_read_timeout(Some(wait));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    SocketFaultOutcome::ServerClosed
                } else {
                    SocketFaultOutcome::ServerAnswered(buf)
                }
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {
                return if buf.is_empty() {
                    SocketFaultOutcome::StillOpen
                } else {
                    SocketFaultOutcome::ServerAnswered(buf)
                }
            }
        }
    }
}

/// Mid-frame disconnect: declares a payload, sends half of it, and drops
/// the connection. The server must treat this as one failed connection —
/// never as a listener or worker failure.
///
/// # Errors
///
/// Connect/write failures reaching the server at all.
pub fn mid_frame_disconnect(addr: SocketAddr) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let declared: u32 = 64;
    stream.write_all(&declared.to_be_bytes())?;
    stream.write_all(&[b'{'; 32])?; // half the declared payload
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Slowloris: sends a *partial frame header* and then holds the socket
/// without ever completing it. A correct server frees the worker via its
/// read timeout; the script reports whether the server had hung up by the
/// time `hold` elapsed.
///
/// # Errors
///
/// Connect/write failures reaching the server at all.
pub fn slowloris_header(addr: SocketAddr, hold: Duration) -> std::io::Result<SocketFaultOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&[0u8; FRAME_HEADER_LEN / 2])?;
    stream.flush()?;
    Ok(drain(&mut stream, hold))
}

/// Oversized frame: declares a payload far over any sane limit. The
/// server must reject from the header alone — before allocating — and
/// the script returns what came back (an error frame, or a straight
/// close).
///
/// # Errors
///
/// Connect/write failures reaching the server at all.
pub fn oversized_frame(addr: SocketAddr, wait: Duration) -> std::io::Result<SocketFaultOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&u32::MAX.to_be_bytes())?;
    stream.flush()?;
    Ok(drain(&mut stream, wait))
}

/// Opens `count` connections that never handshake and never send a
/// byte — a parked swarm for idle-connection cost and capacity tests.
/// The holders are returned so the caller controls their lifetime; the
/// connect burst is paced so the server's accept path (not the kernel
/// backlog) absorbs the swarm.
///
/// # Errors
///
/// Connect failures reaching the server at all.
pub fn idle_swarm(addr: SocketAddr, count: usize) -> std::io::Result<Vec<TcpStream>> {
    let mut swarm = Vec::with_capacity(count);
    for i in 0..count {
        swarm.push(TcpStream::connect(addr)?);
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(swarm)
}

/// Garbage payload: a well-framed frame whose payload decodes as no
/// request (its first byte is no request tag). The server must count a
/// decode error and close this connection only.
///
/// # Errors
///
/// Connect/write failures reaching the server at all.
pub fn garbage_payload(addr: SocketAddr, wait: Duration) -> std::io::Result<SocketFaultOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    let payload = b"\xffnot a request at all";
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(drain(&mut stream, wait))
}
