//! A minimal epoll poller: where the event loop parks idle sockets.
//!
//! Raw `epoll` via FFI, deliberately not a dependency: the workspace is
//! self-contained (no crates.io access), and parking needs only
//! `epoll_create1`, `epoll_ctl`, `epoll_wait` and `close`.
//!
//! Every registration is `EPOLLIN | EPOLLRDHUP | EPOLLONESHOT`: a socket
//! fires once — readable, or its peer hung up — and then stays silent
//! until whoever served it re-arms it. `epoll_ctl` is thread-safe, so
//! the accept thread, the parking thread and the workers share one
//! poller. A closed socket leaves the interest set by itself, so there
//! is no deregistration.
//!
//! On non-Linux targets [`Poller::new`] returns
//! [`std::io::ErrorKind::Unsupported`]; use the blocking front end
//! there.

use std::io;
use std::net::TcpStream;

/// One epoll instance.
pub(crate) struct Poller {
    epfd: i32,
}

impl Poller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// `Unsupported` off Linux; otherwise the raw syscall failure.
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
        })
    }

    /// Arms `stream` to fire once, tagged `token`, when it turns
    /// readable or its peer hangs up. `first` adds a new socket to the
    /// interest set; otherwise a socket that already fired is re-armed.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub(crate) fn arm(&self, stream: &TcpStream, token: u64, first: bool) -> io::Result<()> {
        let op = if first {
            sys::EPOLL_CTL_ADD
        } else {
            sys::EPOLL_CTL_MOD
        };
        sys::epoll_ctl(self.epfd, op, sys::fd(stream), token)
    }

    /// Blocks until a socket fires or `timeout_ms` passes, appending the
    /// tokens that fired to `out`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` failure (`EINTR` is retried internally).
    pub(crate) fn wait(&self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
        sys::epoll_wait(self.epfd, out, timeout_ms)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::os::raw::c_int;

    const EPOLLIN: u32 = 0x001;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Kernel `struct epoll_event`; packed on x86 per the ABI.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    mod ffi {
        use super::EpollEvent;
        use std::os::raw::c_int;
        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn close(fd: c_int) -> c_int;
        }
    }

    pub fn fd(stream: &TcpStream) -> c_int {
        stream.as_raw_fd()
    }

    pub fn epoll_create() -> io::Result<c_int> {
        // SAFETY: plain syscall, no pointers involved.
        let fd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | EPOLLONESHOT,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { ffi::epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn epoll_wait(epfd: c_int, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `buf` is a valid writable array of MAX_EVENTS entries.
            let rc =
                unsafe { ffi::epoll_wait(epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        // Copy the token out of the (possibly packed) struct before use.
        out.extend(buf[..n].iter().map(|ev| ev.data));
        Ok(())
    }

    pub fn close_fd(fd: c_int) {
        // SAFETY: fd is owned by the caller and closed exactly once.
        let _ = unsafe { ffi::close(fd) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Non-Linux stubs: the constructor fails with `Unsupported`, so the
    //! event loop reports the platform gap instead of compiling the
    //! workspace out.
    use std::io;
    use std::net::TcpStream;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_MOD: i32 = 3;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "epoll requires Linux")
    }

    pub fn fd(_: &TcpStream) -> i32 {
        -1
    }

    pub fn epoll_create() -> io::Result<i32> {
        Err(unsupported())
    }

    pub fn epoll_ctl(_: i32, _: i32, _: i32, _: u64) -> io::Result<()> {
        Err(unsupported())
    }

    pub fn epoll_wait(_: i32, _: &mut Vec<u64>, _: i32) -> io::Result<()> {
        Err(unsupported())
    }

    pub fn close_fd(_: i32) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        (client, server_side)
    }

    #[test]
    fn a_readable_socket_fires_once_until_rearmed() {
        let poller = Poller::new().expect("epoll");
        let (mut client, mut server_side) = pair();
        poller.arm(&server_side, 7, true).expect("add");

        // Nothing sent yet: a zero wait returns nothing.
        let mut fired = Vec::new();
        poller.wait(&mut fired, 0).expect("wait");
        assert!(fired.is_empty());

        client.write_all(b"xy").expect("write");
        poller.wait(&mut fired, 1000).expect("wait");
        assert_eq!(fired, vec![7], "readable event must fire");

        // One-shot: still readable, but silent until re-armed.
        fired.clear();
        poller.wait(&mut fired, 50).expect("wait");
        assert!(fired.is_empty(), "a fired socket stays disarmed");
        poller.arm(&server_side, 7, false).expect("re-arm");
        poller.wait(&mut fired, 1000).expect("wait");
        assert_eq!(fired, vec![7], "re-armed and still readable");

        // A peer hang-up fires too, once the bytes are read.
        let mut buf = [0u8; 2];
        server_side.read_exact(&mut buf).expect("read");
        drop(client);
        fired.clear();
        poller.arm(&server_side, 7, false).expect("re-arm");
        poller.wait(&mut fired, 1000).expect("wait");
        assert_eq!(fired, vec![7], "hang-up must fire");
    }
}
